//! Streaming, pruned search over candidate executions — the engine behind
//! [`allowed_outcomes`](crate::outcome::allowed_outcomes),
//! [`outcome_allowed`](crate::outcome::outcome_allowed), the litmus
//! verdicts, and `cc11`'s mapping verification.
//!
//! The reference enumerator ([`crate::execution::enumerate_candidates`])
//! materializes every `rf × ws` assignment into a `Vec` and filters
//! afterwards, so both time and peak memory grow factorially with events
//! per location. This module instead assigns `rf` and `ws` *incrementally*
//! — a depth-first search over per-location choices — and prunes a branch
//! the moment a partial assignment is doomed:
//!
//! * **`ws` placement.** Each location's write serialization is built one
//!   write at a time. Placing `w` next commits `w` before every still
//!   unplaced write of that location in *every* completion, so those edges
//!   go into the incremental graphs immediately; a cycle kills the whole
//!   subtree (e.g. a `ws` order contradicting same-thread `ppo` W→W edges
//!   dies at depth 1 instead of being enumerated `(k-1)!` times).
//! * **`rf` assignment.** Once the serializations are fixed, each read's
//!   `rf` choice determines its `rfe` and *all* of its `fr` edges, which
//!   are pushed into the graphs and cycle-checked on the spot.
//! * **Pruning conditions.** A branch is cut when (a) `com ∪ ppo ∪ bar`
//!   acquires a cycle (no `ato` choice can ever fix it — `ato` only adds
//!   edges), (b) `com ∪ po-loc` acquires a cycle (the `uniproc` /
//!   coherence violation of paper §2.1), or (c) the value-dependency graph
//!   (`rf` edges plus each RMW's internal `Ra → Wa`) becomes cyclic, i.e.
//!   an RMW's value would depend on itself.
//!
//! All three checks are *sound* for pruning: a completion only ever adds
//! edges to the partial graphs, so a cyclic partial state can never reach
//! a valid leaf. At a complete assignment the remaining existential — the
//! per-RMW atomicity disjunctions — is solved by [`crate::validity`], so
//! the set of executions yielded here is *identical* to filtering the
//! reference enumeration with `check_validity` (`tests/search_equiv.rs`).
//!
//! Valid executions are yielded through a visitor
//! ([`for_each_valid_execution`]); returning [`ControlFlow::Break`] stops
//! the search, which is what gives `outcome_allowed` its early exit.
//!
//! # One DFS, run from a decision prefix
//!
//! Every search in the crate is the same DFS, entered through the
//! crate-private `run_prefix`: replay a decision prefix (its first `ws`
//! placements and `rf` choices), then resume the DFS below it. An empty
//! prefix is the whole tree ([`for_each_valid_execution`]); a full-depth
//! prefix goes straight to one leaf (certificate replay, [`crate::prefix`]);
//! anything in between is one subtree task of the parallel engine
//! ([`crate::par`]). `split_prefixes` makes those tasks by running the same
//! DFS to a depth cutoff, where it records the current decision path and
//! backtracks instead of descending. It therefore visits, prunes and counts
//! the top levels exactly as a whole-tree search does, in the same order,
//! so `split stats + Σ task stats` equals the sequential [`SearchStats`]
//! at any task granularity. Recording the path at every complete leaf
//! instead gives the leaf log of a prefix certificate.

use crate::budget::QueryBudget;
use crate::event::{EventId, RmwHalf};
use crate::execution::{
    bar_graph_of, build_events, poloc_graph_of, ppo_graph_of, resolve_values, CandidateExecution,
    ExecCtx,
};
use crate::graph::DiGraph;
use crate::program::Program;
use crate::validity::{atomicity_disjuncts, solve_ato, Disjunct};
use rmw_types::Addr;
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Counters describing one search run, for benchmarks and scaling reports.
///
/// The decision-tree counters (`nodes`, `pruned`, `complete`, `valid`) are
/// *engine-independent*: the parallel root-split engine ([`crate::par`])
/// reports exactly the sequential engine's numbers at every worker count
/// (asserted by `tests/par_equiv.rs` and the split proptest in `par.rs`),
/// because the split phase counts the top-of-tree decisions once and each
/// subtree task counts only its own. `tasks`/`workers` describe the
/// parallel plumbing and legitimately vary with the worker count (both
/// are 1 on the sequential engine).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Partial-assignment decision nodes explored (one per `ws` placement
    /// or `rf` choice tried).
    pub nodes: u64,
    /// Branches cut by incremental pruning before reaching a leaf.
    pub pruned: u64,
    /// Complete `rf × ws` assignments reached: candidates of the reference
    /// enumerator that survived pruning and had their atomicity
    /// disjunctions solved.
    pub complete: u64,
    /// Valid executions yielded to the visitor.
    pub valid: u64,
    /// Independent subtree tasks the search ran as (1 = sequential).
    pub tasks: u64,
    /// Worker threads those tasks were distributed over (1 = sequential).
    pub workers: u64,
    /// True when the visitor stopped the search early.
    pub stopped_early: bool,
    /// True when a [`SearchBudget`](crate::budget::SearchBudget) ran out
    /// mid-search: the run stopped at a decision node with subtrees
    /// unexplored, so the yielded set is a (sound but possibly
    /// incomplete) subset. Always implies `stopped_early`. Never set on
    /// un-budgeted runs, so stats stay bit-identical when no budget is
    /// installed or the installed one is not hit.
    pub budget_exhausted: bool,
}

impl SearchStats {
    /// Accumulates another run's counters into `self`: decision counters
    /// and `tasks` add, `workers` takes the maximum, `stopped_early` ORs.
    /// Used both by the parallel engine (merging per-task stats) and by
    /// consumers aggregating several searches (e.g. the harness's
    /// per-test model stats across its four model queries).
    pub fn absorb(&mut self, other: &SearchStats) {
        self.nodes += other.nodes;
        self.pruned += other.pruned;
        self.complete += other.complete;
        self.valid += other.valid;
        self.tasks += other.tasks;
        self.workers = self.workers.max(other.workers);
        self.stopped_early |= other.stopped_early;
        self.budget_exhausted |= other.budget_exhausted;
    }
}

/// Visits every **valid** execution of `program` in a streaming fashion —
/// nothing is materialized beyond the single execution handed to the
/// visitor. Return [`ControlFlow::Break`] to stop the search early.
///
/// The executions visited are exactly those of
/// `enumerate_candidates(program)` that pass
/// [`check_validity`](crate::validity::check_validity), without ever
/// holding more than one of them in memory.
pub fn for_each_valid_execution<F>(program: &Program, mut visitor: F) -> SearchStats
where
    F: FnMut(&CandidateExecution) -> ControlFlow<()>,
{
    let sc = build_ctx(program);
    run_prefix(&sc, &Prefix::default(), &mut visitor, None, None, None)
}

/// Early-exit search: true iff some valid execution satisfies `pred`.
///
/// This is the primitive behind
/// [`outcome_allowed`](crate::outcome::outcome_allowed) and the litmus
/// verdicts: the search stops at the first witness.
pub fn any_valid_execution<F>(program: &Program, mut pred: F) -> bool
where
    F: FnMut(&CandidateExecution) -> bool,
{
    let mut found = false;
    for_each_valid_execution(program, |exec| {
        if pred(exec) {
            found = true;
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    found
}

/// Collects every valid execution (streaming under the hood; the result
/// `Vec` is the only materialization).
pub fn valid_executions(program: &Program) -> Vec<CandidateExecution> {
    let mut out = Vec::new();
    for_each_valid_execution(program, |exec| {
        out.push(exec.clone());
        ControlFlow::Continue(())
    });
    out
}

/// One location's write set: address, implicit initial write, and the
/// non-init writes to serialize after it.
struct LocWrites {
    addr: Addr,
    writes: Vec<EventId>,
}

/// Immutable per-program search context: everything the DFS reads but
/// never writes. Shared by reference across the parallel subtree tasks.
pub(crate) struct SearchCtx {
    ctx: Arc<ExecCtx>,
    locs: Vec<LocWrites>,
    reads: Vec<EventId>,
    rf_choices: Vec<Vec<EventId>>,
    disjuncts: Vec<Disjunct>,
    /// `ppo ∪ bar` plus the fixed init→write `ws` edges.
    base_ghb: DiGraph,
    /// `po-loc` plus the fixed init→write `ws` edges.
    base_uni: DiGraph,
    /// Each RMW's internal `Ra → Wa` value dependency.
    base_dep: DiGraph,
    /// Per-location serializations holding just the init writes.
    base_ws: BTreeMap<Addr, Vec<EventId>>,
}

/// Builds the immutable search context of `program`.
pub(crate) fn build_ctx(program: &Program) -> SearchCtx {
    let events = build_events(program);
    let n = events.len();

    // Candidate rf sources per read: writes to the same address, except
    // the read's own RMW write half ("Ra reads an earlier value, not
    // Wa's").
    let reads: Vec<EventId> = events
        .iter()
        .filter(|e| e.is_read())
        .map(|e| e.id)
        .collect();
    let rf_choices: Vec<Vec<EventId>> = reads
        .iter()
        .map(|&r| {
            let er = &events[r.index()];
            events
                .iter()
                .filter(|w| w.is_write() && w.addr == er.addr)
                .filter(|w| match (er.rmw, w.rmw) {
                    (Some(lr), Some(lw)) => lr.rmw_id != lw.rmw_id,
                    _ => true,
                })
                .map(|w| w.id)
                .collect()
        })
        .collect();

    // Per-location write sets, keyed by the (sorted) initial writes.
    let mut by_addr: BTreeMap<Addr, (EventId, Vec<EventId>)> = events
        .iter()
        .filter(|e| e.is_init())
        .map(|e| (e.addr.expect("init write has addr"), (e.id, Vec::new())))
        .collect();
    for e in &events {
        if e.is_write() && !e.is_init() {
            by_addr
                .get_mut(&e.addr.expect("write has addr"))
                .expect("every address has an init write")
                .1
                .push(e.id);
        }
    }

    // Fixed graph parts. The init write precedes every other write of its
    // location in every candidate, so those `ws` edges are part of the
    // base.
    let mut base_ghb = ppo_graph_of(&events);
    base_ghb.union_with(&bar_graph_of(&events));
    let mut base_uni = poloc_graph_of(&events);
    for (init, ws_writes) in by_addr.values() {
        for &w in ws_writes {
            base_ghb.add_edge(init.index(), w.index());
            base_uni.add_edge(init.index(), w.index());
        }
    }

    // Value dependencies internal to each RMW: Wa's value is computed from
    // what Ra read.
    let mut base_dep = DiGraph::new(n);
    {
        let mut ra_of: BTreeMap<usize, EventId> = BTreeMap::new();
        for e in &events {
            if let Some(l) = e.rmw {
                if l.half == RmwHalf::Read {
                    ra_of.insert(l.rmw_id.0, e.id);
                }
            }
        }
        for e in &events {
            if let Some(l) = e.rmw {
                if l.half == RmwHalf::Write {
                    base_dep.add_edge(ra_of[&l.rmw_id.0].index(), e.id.index());
                }
            }
        }
    }

    let base_ws: BTreeMap<Addr, Vec<EventId>> = by_addr
        .iter()
        .map(|(&a, (init, _))| (a, vec![*init]))
        .collect();
    let locs: Vec<LocWrites> = by_addr
        .into_iter()
        .map(|(addr, (_, writes))| LocWrites { addr, writes })
        .collect();
    let disjuncts = atomicity_disjuncts(&events);

    SearchCtx {
        ctx: ExecCtx::new(events),
        locs,
        reads,
        rf_choices,
        disjuncts,
        base_ghb,
        base_uni,
        base_dep,
        base_ws,
    }
}

impl SearchCtx {
    /// Branching factor of each decision level, in decision order: for
    /// every location the factors `k, k-1, …, 1` of its placement steps,
    /// then one factor per read (`rf` source count). Used to pick the
    /// root-split depth.
    fn level_factors(&self) -> Vec<usize> {
        let mut factors = Vec::new();
        for loc in &self.locs {
            for placed in 0..loc.writes.len() {
                factors.push(loc.writes.len() - placed);
            }
        }
        for choices in &self.rf_choices {
            factors.push(choices.len());
        }
        factors
    }

    /// The decision shape `(total non-init writes, reads)` — the exact
    /// lengths a full-depth leaf path must have. [`crate::prefix`] uses
    /// this (plus [`SearchCtx::max_event_id`]) to reject a persisted
    /// certificate that does not structurally fit the program before
    /// replaying it.
    pub(crate) fn decision_shape(&self) -> (usize, usize) {
        let writes = self.locs.iter().map(|l| l.writes.len()).sum();
        (writes, self.reads.len())
    }

    /// One past the largest valid [`EventId`] index for this program.
    pub(crate) fn max_event_id(&self) -> usize {
        self.ctx.events.len()
    }

    /// Upper estimate of the decision nodes a search of this program can
    /// visit: the node count of the *unpruned* decision tree, i.e. the sum
    /// over decision levels of the running product of branching factors.
    /// Pruning only shrinks the real count, so thresholding on this value
    /// errs toward "the subtree is big" — the safe direction for the
    /// adaptive split policy in [`crate::par`], which only fans out above
    /// a generous floor. Saturates instead of overflowing on deep shapes.
    pub(crate) fn estimate_nodes(&self) -> u64 {
        let mut total = 1u64; // the root itself
        let mut width = 1u64;
        for &f in &self.level_factors() {
            width = width.saturating_mul(f as u64);
            total = total.saturating_add(width);
            if total >= u64::MAX / 2 {
                return u64::MAX / 2;
            }
        }
        total
    }
}

/// A decision path from the root: the `ws` placements made so far (in
/// decision order, locations in address order), then the `rf` choices
/// (in read order, only once every write is placed). A partial path
/// names one subtree — produced by [`split_prefixes`]; a full-depth path
/// names one complete leaf — recorded for prefix certificates. Both are
/// consumed by [`run_prefix`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Prefix {
    pub(crate) ws: Vec<EventId>,
    pub(crate) rf: Vec<EventId>,
}

/// Enumerates the viable decision prefixes at a depth chosen so their
/// count reaches `target` (or the whole tree if it never does; a single
/// empty prefix when `target <= 1`), in exactly the order the sequential
/// DFS visits those subtrees. This is the ordinary DFS run to that depth,
/// so the returned stats cover the split levels' decision nodes exactly —
/// sequential totals are `split stats + Σ` [`run_prefix`] stats.
pub(crate) fn split_prefixes(sc: &SearchCtx, target: usize) -> (Vec<Prefix>, SearchStats) {
    let factors = sc.level_factors();
    let mut depth = 0usize;
    let mut product = 1u64;
    while depth < factors.len() && product < target as u64 {
        product = product.saturating_mul(factors[depth] as u64);
        depth += 1;
    }
    let mut out = Vec::new();
    let mut sink = |_: &CandidateExecution| ControlFlow::Continue(());
    let mut search = Search::new(sc, &mut sink, None, Some(&mut out), None);
    search.cutoff = depth;
    let _ = search.resume(&Prefix::default());
    // `tasks`/`workers` stay 0: the caller sets them after merging.
    let stats = search.stats;
    (out, stats)
}

/// Replays `prefix` (whose viability the split already established; the
/// empty prefix is the whole tree) and resumes the DFS below it, yielding
/// to `visitor`. Reports `tasks = workers = 1`.
///
/// * `stop` is a cooperative cancellation flag checked at every decision
///   node.
/// * `leaves`, when set, receives the full decision path of every
///   complete leaf in DFS order — the leaf log of a prefix certificate.
/// * `budget`, when set, is charged one unit per decision node; running
///   out aborts the run with `budget_exhausted` set. `None` can never be
///   truncated (the calibration path and every un-budgeted caller).
///
/// A full-depth `prefix` replays straight to its leaf: zero decision
/// nodes, one `complete`, with the atomicity disjunctions solved for
/// *this* context's program — how [`crate::prefix`] replays a
/// certificate's leaves for a sibling program.
pub(crate) fn run_prefix(
    sc: &SearchCtx,
    prefix: &Prefix,
    visitor: &mut dyn FnMut(&CandidateExecution) -> ControlFlow<()>,
    stop: Option<&AtomicBool>,
    leaves: Option<&mut Vec<Prefix>>,
    budget: Option<&QueryBudget>,
) -> SearchStats {
    let mut search = Search::new(sc, visitor, stop, leaves, budget);
    // A `Break` here is just the early exit reaching the task root.
    let _ = search.resume(prefix);
    let mut stats = search.stats;
    stats.tasks = 1;
    stats.workers = 1;
    stats
}

/// An edge batch entry `(u, v, added to ghb, added to uni)`, kept so
/// backtracking restores the exact graph state.
type Added = (usize, usize, bool, bool);

struct Search<'a> {
    sc: &'a SearchCtx,
    /// `com ∪ ppo ∪ bar`, maintained incrementally.
    ghb: DiGraph,
    /// `com ∪ po-loc` — the uniproc check.
    uni: DiGraph,
    /// Value-dependency graph: `rf` edges plus each RMW's `Ra → Wa`.
    dep: DiGraph,
    ws: BTreeMap<Addr, Vec<EventId>>,
    rf: BTreeMap<EventId, EventId>,
    /// Decisions committed on the current path (`ws` placements plus `rf`
    /// choices).
    depth: usize,
    /// Depth at which the DFS records the current path into `log` and
    /// backtracks instead of descending (the split); `usize::MAX` searches
    /// down to the leaves.
    cutoff: usize,
    stats: SearchStats,
    stop: Option<&'a AtomicBool>,
    /// When set, every decision node is charged against this (shared)
    /// query budget; exhaustion aborts the run with
    /// `stats.budget_exhausted` set.
    budget: Option<&'a QueryBudget>,
    visitor: &'a mut dyn FnMut(&CandidateExecution) -> ControlFlow<()>,
    /// When set, receives (in DFS order) the decision path of every node
    /// at `cutoff`, or of every complete leaf when there is no cutoff.
    log: Option<&'a mut Vec<Prefix>>,
}

impl<'a> Search<'a> {
    fn new(
        sc: &'a SearchCtx,
        visitor: &'a mut dyn FnMut(&CandidateExecution) -> ControlFlow<()>,
        stop: Option<&'a AtomicBool>,
        log: Option<&'a mut Vec<Prefix>>,
        budget: Option<&'a QueryBudget>,
    ) -> Self {
        Search {
            sc,
            ghb: sc.base_ghb.clone(),
            uni: sc.base_uni.clone(),
            dep: sc.base_dep.clone(),
            ws: sc.base_ws.clone(),
            rf: BTreeMap::new(),
            depth: 0,
            cutoff: usize::MAX,
            stats: SearchStats::default(),
            stop,
            budget,
            visitor,
            log,
        }
    }

    /// Replays `prefix` and resumes the DFS below it. Decision order fills
    /// locations in order, so the prefix entries for the current location
    /// form the contiguous slice `prefix.ws[loc_start..]`; the replayed
    /// edges stay committed for the lifetime of the run.
    fn resume(&mut self, prefix: &Prefix) -> ControlFlow<()> {
        let sc = self.sc;
        let (mut li, mut loc_start) = (0usize, 0usize);
        for (pos, &w) in prefix.ws.iter().enumerate() {
            while sc.locs[li].writes.len() == pos - loc_start {
                li += 1;
                loc_start = pos;
            }
            let placed = &prefix.ws[loc_start..pos];
            let later = sc.locs[li]
                .writes
                .iter()
                .copied()
                .filter(|u| *u != w && !placed.contains(u));
            self.push_ws(li, w, later, &mut Vec::new());
        }
        // An rf prefix implies every write was placed.
        for (ri, &w) in prefix.rf.iter().enumerate() {
            self.push_rf(ri, w, &mut Vec::new());
        }
        if prefix.rf.is_empty() && li < sc.locs.len() {
            // Resume mid-placement (`place_writes` falls through to the
            // next location on an empty remainder).
            let placed = &prefix.ws[loc_start..];
            let mut remaining: Vec<EventId> = sc.locs[li]
                .writes
                .iter()
                .copied()
                .filter(|u| !placed.contains(u))
                .collect();
            self.place_writes(li, &mut remaining)
        } else {
            self.search_rf(prefix.rf.len())
        }
    }

    /// Appends the current decision path to the log, if one is kept.
    fn record_path(&mut self) {
        if let Some(log) = self.log.as_deref_mut() {
            let mut ws = Vec::new();
            for loc in &self.sc.locs {
                ws.extend_from_slice(&self.ws[&loc.addr][1..]);
            }
            let rf = self
                .sc
                .reads
                .iter()
                .map_while(|r| self.rf.get(r).copied())
                .collect();
            log.push(Prefix { ws, rf });
        }
    }

    /// True at the split depth, after recording the current path: the
    /// caller backtracks instead of descending.
    fn at_cutoff(&mut self) -> bool {
        if self.depth < self.cutoff {
            return false;
        }
        self.record_path();
        true
    }

    /// True when a cooperative stop was requested or the query budget ran
    /// out; the caller unwinds with `Break` (marking the run as stopped
    /// early, and as budget-exhausted in the latter case).
    fn should_stop(&mut self) -> bool {
        if self.stop.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
            self.stats.stopped_early = true;
            return true;
        }
        if self.budget.is_some_and(QueryBudget::charge) {
            self.stats.stopped_early = true;
            self.stats.budget_exhausted = true;
            return true;
        }
        false
    }

    /// DFS level 1: serialize the writes of location `li` (then recurse to
    /// the next location, then to `rf` assignment).
    fn search_ws(&mut self, li: usize) -> ControlFlow<()> {
        let Some(loc) = self.sc.locs.get(li) else {
            return self.search_rf(0);
        };
        let mut remaining = loc.writes.clone();
        self.place_writes(li, &mut remaining)
    }

    /// Chooses the next write in location `li`'s serialization among
    /// `remaining`, committing the implied `ws` edges incrementally.
    fn place_writes(&mut self, li: usize, remaining: &mut Vec<EventId>) -> ControlFlow<()> {
        if self.at_cutoff() {
            return ControlFlow::Continue(());
        }
        if remaining.is_empty() {
            return self.search_ws(li + 1);
        }
        for i in 0..remaining.len() {
            if self.should_stop() {
                return ControlFlow::Break(());
            }
            let w = remaining.remove(i);
            self.stats.nodes += 1;
            let mut added = Vec::new();
            self.push_ws(li, w, remaining.iter().copied(), &mut added);
            let flow = if self.still_acyclic(&added) {
                self.place_writes(li, remaining)
            } else {
                self.stats.pruned += 1;
                ControlFlow::Continue(())
            };
            self.pop_ws(li, &added);
            remaining.insert(i, w);
            flow?;
        }
        ControlFlow::Continue(())
    }

    /// Commits `w` as the next write of location `li`'s serialization.
    /// `w` then precedes every write in `later` (the still-unplaced ones)
    /// in every completion of this branch, so those `com` edges go in now,
    /// recorded in `added` for undo. Edges from the already-placed writes
    /// to `w` were added when those were placed; init → `w` is in the
    /// base.
    fn push_ws(
        &mut self,
        li: usize,
        w: EventId,
        later: impl IntoIterator<Item = EventId>,
        added: &mut Vec<Added>,
    ) {
        for u in later {
            self.add_com_edge(w, u, added);
        }
        let addr = self.sc.locs[li].addr;
        self.ws.get_mut(&addr).expect("ws has every addr").push(w);
        self.depth += 1;
    }

    /// Undoes [`Search::push_ws`].
    fn pop_ws(&mut self, li: usize, added: &[Added]) {
        let addr = self.sc.locs[li].addr;
        self.ws.get_mut(&addr).expect("ws has every addr").pop();
        self.remove_com_edges(added);
        self.depth -= 1;
    }

    /// DFS level 2: assign a reads-from source to read `ri` (all `ws`
    /// serializations are complete at this point, so the choice fixes the
    /// read's `rfe` and `fr` edges exactly).
    fn search_rf(&mut self, ri: usize) -> ControlFlow<()> {
        if self.at_cutoff() {
            return ControlFlow::Continue(());
        }
        let Some(&r) = self.sc.reads.get(ri) else {
            return self.complete();
        };
        // Value dependencies can only cycle through an RMW read half: a
        // plain read has no outgoing dep edge (its value feeds nothing), so
        // it can never be part of a cycle and its dep edge can be elided.
        let is_rmw_read = self.sc.ctx.events[r.index()].rmw.is_some();
        for ci in 0..self.sc.rf_choices[ri].len() {
            if self.should_stop() {
                return ControlFlow::Break(());
            }
            let w = self.sc.rf_choices[ri][ci];
            self.stats.nodes += 1;

            // Value dependency r ← w; a cycle means an RMW's value would
            // depend on itself (the candidates `resolve_values` rejects).
            // Adding w → r closes a cycle iff r already reaches w.
            if is_rmw_read && self.dep.reaches(r.index(), w.index()) {
                self.stats.pruned += 1;
                continue;
            }
            let mut added = Vec::new();
            self.push_rf(ri, w, &mut added);
            let flow = if self.still_acyclic(&added) {
                self.search_rf(ri + 1)
            } else {
                self.stats.pruned += 1;
                ControlFlow::Continue(())
            };
            self.pop_rf(ri, w, &added);
            flow?;
        }
        ControlFlow::Continue(())
    }

    /// Commits read `ri`'s `rf` choice `w`: the value-dependency edge (for
    /// RMW read halves), the `rf` map entry, and the implied `rfe` and
    /// `fr` `com` edges, recorded in `added` for undo. The dep-cycle check
    /// is the *caller's* job (a prefix replay skips it; the split
    /// established viability already).
    fn push_rf(&mut self, ri: usize, w: EventId, added: &mut Vec<Added>) {
        let sc = self.sc;
        let r = sc.reads[ri];
        let (er, ew) = (&sc.ctx.events[r.index()], &sc.ctx.events[w.index()]);
        if er.rmw.is_some() {
            self.dep.add_edge(w.index(), r.index());
        }
        self.rf.insert(r, w);
        self.depth += 1;
        // rfe: external reads-from participates in com (both graphs); rfi
        // participates in uniproc only — it is not `ghb` (TSO store
        // forwarding) but still forbids reading one's own po-later write.
        if ew.is_init() || er.tid != ew.tid {
            self.add_com_edge(w, r, added);
        } else {
            self.add_uni_edge(w, r, added);
        }
        // fr: r precedes every write ws-after its source.
        let order = &self.ws[&er.addr.expect("read has addr")];
        let pos = order
            .iter()
            .position(|&x| x == w)
            .expect("rf source is in ws");
        let later: Vec<EventId> = order[pos + 1..].to_vec();
        for u in later {
            self.add_com_edge(r, u, added);
        }
    }

    /// Undoes [`Search::push_rf`].
    fn pop_rf(&mut self, ri: usize, w: EventId, added: &[Added]) {
        let r = self.sc.reads[ri];
        self.remove_com_edges(added);
        self.rf.remove(&r);
        self.depth -= 1;
        if self.sc.ctx.events[r.index()].rmw.is_some() {
            self.dep.remove_edge(w.index(), r.index());
        }
    }

    /// A complete `rf × ws` assignment: finish the validity check (the
    /// atomicity disjunctions), and assemble and yield the execution only
    /// when it is valid.
    fn complete(&mut self) -> ControlFlow<()> {
        self.stats.complete += 1;
        self.record_path();
        let Some(values) = resolve_values(&self.sc.ctx.events, &self.rf) else {
            // Unreachable: the dep graph is acyclic on this path, and it
            // contains every value dependency `resolve_values` follows.
            return ControlFlow::Continue(());
        };
        // uniproc already holds (incremental `uni` checks); what is left is
        // the existential over atomicity-induced edges, on the
        // incrementally maintained `com ∪ ppo ∪ bar`.
        if solve_ato(self.ghb.clone(), &self.sc.disjuncts).is_none() {
            return ControlFlow::Continue(());
        }
        self.stats.valid += 1;
        let exec = CandidateExecution::assemble(
            Arc::clone(&self.sc.ctx),
            self.rf.clone(),
            self.ws.clone(),
            values,
        );
        let flow = (self.visitor)(&exec);
        if flow.is_break() {
            self.stats.stopped_early = true;
        }
        flow
    }

    /// Adds a `com` edge to both incremental graphs, recording which of the
    /// two actually changed so backtracking restores the exact state (the
    /// edge may already be present via `ppo`, `bar`, or `po-loc`).
    fn add_com_edge(&mut self, u: EventId, v: EventId, added: &mut Vec<Added>) {
        let (ui, vi) = (u.index(), v.index());
        let in_ghb = self.ghb.has_edge(ui, vi);
        let in_uni = self.uni.has_edge(ui, vi);
        if !in_ghb {
            self.ghb.add_edge(ui, vi);
        }
        if !in_uni {
            self.uni.add_edge(ui, vi);
        }
        if !(in_ghb && in_uni) {
            added.push((ui, vi, !in_ghb, !in_uni));
        }
    }

    /// Adds an edge to the `uni` (uniproc) graph only — used for `rfi`,
    /// which constrains per-location coherence but not `ghb`.
    fn add_uni_edge(&mut self, u: EventId, v: EventId, added: &mut Vec<Added>) {
        let (ui, vi) = (u.index(), v.index());
        if !self.uni.has_edge(ui, vi) {
            self.uni.add_edge(ui, vi);
            added.push((ui, vi, false, true));
        }
    }

    /// True iff `ghb` and `uni` are still acyclic after the batch of edge
    /// insertions recorded in `added`. Both graphs were acyclic before the
    /// batch, so any new cycle must pass through an inserted edge
    /// `u → v` — i.e. `v` must (now) reach `u`. Probing reachability from
    /// the handful of new edges is much cheaper than re-running a
    /// whole-graph topological sort at every decision node.
    fn still_acyclic(&self, added: &[Added]) -> bool {
        added.iter().all(|&(u, v, in_ghb, in_uni)| {
            (!in_ghb || !self.ghb.reaches(v, u)) && (!in_uni || !self.uni.reaches(v, u))
        })
    }

    /// Undoes a batch of [`Search::add_com_edge`] calls.
    fn remove_com_edges(&mut self, added: &[Added]) {
        for &(u, v, ghb, uni) in added {
            if ghb {
                self.ghb.remove_edge(u, v);
            }
            if uni {
                self.uni.remove_edge(u, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execution::enumerate_candidates;
    use crate::program::ProgramBuilder;
    use crate::validity::check_validity;
    use rmw_types::{Atomicity, RmwKind};
    use std::collections::BTreeSet;

    const X: Addr = Addr(0);
    const Y: Addr = Addr(1);

    fn sb() -> Program {
        let mut b = ProgramBuilder::new();
        b.thread().write(X, 1).read(Y);
        b.thread().write(Y, 1).read(X);
        b.build()
    }

    /// Reference implementation: brute-force enumeration + filter.
    fn legacy_valid_read_values(p: &Program) -> BTreeSet<Vec<u64>> {
        enumerate_candidates(p)
            .into_iter()
            .filter(|c| check_validity(c).is_valid())
            .map(|c| c.read_values())
            .collect()
    }

    #[test]
    fn streaming_matches_legacy_on_sb() {
        let p = sb();
        let mut streamed = BTreeSet::new();
        let stats = for_each_valid_execution(&p, |exec| {
            streamed.insert(exec.read_values());
            ControlFlow::Continue(())
        });
        assert_eq!(streamed, legacy_valid_read_values(&p));
        assert_eq!(stats.valid as usize, valid_executions(&p).len());
        assert!(!stats.stopped_early);
        assert_eq!((stats.tasks, stats.workers), (1, 1));
    }

    #[test]
    fn reads_never_source_their_own_future_writes() {
        // Regression: `rfi` was absent from the uniproc graph in both
        // engines, so a read could source its own po-*later* write. Found
        // by the zoo spin-handoff litmus family — the phantom execution
        // let a lock acquirer see 0 from its own upcoming release store.
        let mut b = ProgramBuilder::new();
        b.thread().read(X).write(X, 1);
        b.thread().write(X, 2);
        let p = b.build();
        for c in enumerate_candidates(&p) {
            if c.read_values() == vec![1] {
                assert!(
                    !check_validity(&c).is_valid(),
                    "legacy checker accepted a read-from-the-future"
                );
            }
        }
        let streamed = legacy_valid_read_values(&p);
        assert_eq!(streamed, BTreeSet::from([vec![0], vec![2]]));
        for e in valid_executions(&p) {
            assert_ne!(
                e.read_values(),
                vec![1],
                "streaming search accepted a read-from-the-future"
            );
        }
        // The TAS handoff shape that exposed the bug: T0 acquires,
        // publishes, releases; T1's TAS observes the release. T1 reading
        // stale data is forbidden once the phantom execution is gone.
        let (lock, data) = (X, Y);
        let mut b = ProgramBuilder::new();
        b.thread()
            .rmw(lock, RmwKind::TestAndSet, Atomicity::Type1)
            .write(data, 1)
            .write(lock, 0);
        b.thread()
            .rmw(lock, RmwKind::TestAndSet, Atomicity::Type1)
            .read(data);
        let p = b.build();
        assert!(!any_valid_execution(&p, |e| e.read_values() == vec![0, 0, 0]));
    }

    #[test]
    fn streaming_matches_legacy_with_rmws_and_fences() {
        let mut b = ProgramBuilder::new();
        b.thread()
            .write(X, 1)
            .rmw(Y, RmwKind::FetchAndAdd(1), Atomicity::Type2)
            .read(X);
        b.thread().write(Y, 5).fence().read(X);
        let p = b.build();
        let mut streamed = BTreeSet::new();
        for_each_valid_execution(&p, |exec| {
            streamed.insert(exec.read_values());
            ControlFlow::Continue(())
        });
        assert_eq!(streamed, legacy_valid_read_values(&p));
    }

    #[test]
    fn early_exit_stops_the_search() {
        let p = sb();
        let mut seen = 0u32;
        let stats = for_each_valid_execution(&p, |_| {
            seen += 1;
            ControlFlow::Break(())
        });
        assert_eq!(seen, 1);
        assert!(stats.stopped_early);
        // The early-exit variant agrees with an exhaustive check.
        assert!(any_valid_execution(&p, |e| e.read_values() == vec![0, 0]));
        assert!(!any_valid_execution(&p, |e| e.read_values() == vec![9, 9]));
    }

    #[test]
    fn pruning_cuts_branches_without_losing_executions() {
        // Three same-thread writes: 3! = 6 serializations, only the po
        // order survives — the other branches must be pruned, not filtered
        // at the leaves.
        let mut b = ProgramBuilder::new();
        b.thread().write(X, 1).write(X, 2).write(X, 3);
        b.thread().read(X).read(X);
        let p = b.build();
        let mut streamed = BTreeSet::new();
        let stats = for_each_valid_execution(&p, |exec| {
            streamed.insert(exec.read_values());
            ControlFlow::Continue(())
        });
        assert_eq!(streamed, legacy_valid_read_values(&p));
        assert!(stats.pruned > 0, "expected pruning, got {stats:?}");
        let legacy_leaves = enumerate_candidates(&p).len() as u64;
        assert!(
            stats.complete < legacy_leaves,
            "streaming reached {} leaves, legacy materializes {legacy_leaves}",
            stats.complete
        );
    }

    #[test]
    fn valid_executions_pass_check_validity() {
        for exec in valid_executions(&sb()) {
            assert!(check_validity(&exec).is_valid());
        }
    }

    #[test]
    fn empty_program_has_one_trivial_execution() {
        let p = Program::new();
        let stats = for_each_valid_execution(&p, |exec| {
            assert!(exec.read_values().is_empty());
            ControlFlow::Continue(())
        });
        assert_eq!(stats.valid, 1);
    }

    #[test]
    fn absorb_sums_counters_and_ors_early_stop() {
        let mut a = SearchStats {
            nodes: 10,
            pruned: 2,
            complete: 3,
            valid: 1,
            tasks: 1,
            workers: 4,
            stopped_early: false,
            budget_exhausted: false,
        };
        let b = SearchStats {
            nodes: 5,
            pruned: 1,
            complete: 2,
            valid: 2,
            tasks: 2,
            workers: 2,
            stopped_early: true,
            budget_exhausted: true,
        };
        a.absorb(&b);
        assert_eq!(a.nodes, 15);
        assert_eq!(a.pruned, 3);
        assert_eq!(a.complete, 5);
        assert_eq!(a.valid, 3);
        assert_eq!(a.tasks, 3);
        assert_eq!(a.workers, 4);
        assert!(a.stopped_early);
        assert!(a.budget_exhausted);
    }

    #[test]
    fn split_plus_task_stats_equal_sequential_stats() {
        // The invariant the parallel engine's determinism rests on:
        // split-phase nodes plus per-subtree nodes add up to exactly the
        // sequential engine's counts, whatever the split target.
        let mut b = ProgramBuilder::new();
        b.thread().write(X, 1).write(Y, 1).read(Y);
        b.thread()
            .write(Y, 2)
            .rmw(X, RmwKind::TestAndSet, Atomicity::Type3);
        b.thread().read(X).read(Y);
        let p = b.build();
        let seq = for_each_valid_execution(&p, |_| ControlFlow::Continue(()));
        for target in [2usize, 4, 16, 64, 1 << 20] {
            let sc = build_ctx(&p);
            let (prefixes, mut total) = split_prefixes(&sc, target);
            let mut yielded = Vec::new();
            for prefix in &prefixes {
                let mut visitor = |e: &CandidateExecution| {
                    yielded.push(e.read_values());
                    ControlFlow::Continue(())
                };
                total.absorb(&run_prefix(&sc, prefix, &mut visitor, None, None, None));
            }
            assert_eq!(total.nodes, seq.nodes, "target {target}");
            assert_eq!(total.pruned, seq.pruned, "target {target}");
            assert_eq!(total.complete, seq.complete, "target {target}");
            assert_eq!(total.valid, seq.valid, "target {target}");
            // Task order is DFS order: concatenation reproduces the
            // sequential yield sequence exactly.
            let mut seq_yield = Vec::new();
            for_each_valid_execution(&p, |e| {
                seq_yield.push(e.read_values());
                ControlFlow::Continue(())
            });
            assert_eq!(yielded, seq_yield, "target {target}");
        }
    }

    #[test]
    fn recorded_leaves_replay_to_the_same_executions() {
        // The invariant prefix certificates rest on: replaying each
        // recorded full-depth leaf path reproduces the sequential yield
        // sequence with zero decision nodes and one `complete` per leaf.
        let mut b = ProgramBuilder::new();
        b.thread()
            .write(X, 1)
            .rmw(Y, RmwKind::FetchAndAdd(1), Atomicity::Type2);
        b.thread().write(Y, 5).read(X);
        let p = b.build();
        let sc = build_ctx(&p);
        let mut leaves = Vec::new();
        let mut seq_yield = Vec::new();
        let stats = run_prefix(
            &sc,
            &Prefix::default(),
            &mut |e| {
                seq_yield.push(e.read_values());
                ControlFlow::Continue(())
            },
            None,
            Some(&mut leaves),
            None,
        );
        assert_eq!(leaves.len() as u64, stats.complete);
        let mut replay_yield = Vec::new();
        let mut replay = SearchStats::default();
        for leaf in &leaves {
            replay.absorb(&run_prefix(
                &sc,
                leaf,
                &mut |e| {
                    replay_yield.push(e.read_values());
                    ControlFlow::Continue(())
                },
                None,
                None,
                None,
            ));
        }
        assert_eq!(replay.nodes, 0, "full-depth replay explores no decisions");
        assert_eq!(replay.complete, stats.complete);
        assert_eq!(replay.valid, stats.valid);
        assert_eq!(replay_yield, seq_yield);
    }

    #[test]
    fn estimate_nodes_bounds_the_real_search_from_above() {
        for p in [sb(), {
            let mut b = ProgramBuilder::new();
            b.thread().write(X, 1).write(X, 2).read(Y);
            b.thread()
                .write(Y, 1)
                .rmw(X, RmwKind::TestAndSet, Atomicity::Type1);
            b.build()
        }] {
            let sc = build_ctx(&p);
            let real = for_each_valid_execution(&p, |_| ControlFlow::Continue(()));
            assert!(
                sc.estimate_nodes() >= real.nodes,
                "estimate {} below real {}",
                sc.estimate_nodes(),
                real.nodes
            );
        }
    }

    #[test]
    fn split_extends_into_rf_levels_when_ws_is_trivial() {
        // Single-write locations: the only ws order is forced, so subtree
        // tasks must come from rf choices.
        let p = sb();
        let sc = build_ctx(&p);
        let (prefixes, _) = split_prefixes(&sc, 4);
        assert!(
            prefixes.len() > 1,
            "expected rf-level split, got {} task(s)",
            prefixes.len()
        );
        assert!(prefixes.iter().any(|p| !p.rf.is_empty()));
    }

    #[test]
    fn stop_flag_aborts_the_search() {
        let p = sb();
        let sc = build_ctx(&p);
        let (prefixes, _) = split_prefixes(&sc, 1);
        assert_eq!(prefixes.len(), 1);
        let stop = AtomicBool::new(true);
        let mut seen = 0u32;
        let mut visitor = |_: &CandidateExecution| {
            seen += 1;
            ControlFlow::Continue(())
        };
        let stats = run_prefix(&sc, &prefixes[0], &mut visitor, Some(&stop), None, None);
        assert_eq!(seen, 0, "pre-set stop flag must abort before any yield");
        assert!(stats.stopped_early);
    }
}

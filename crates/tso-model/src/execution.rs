//! Candidate executions: events plus existentially-quantified `rf` and `ws`
//! (paper §2.1), with the derived relations `fr`, `rfe`, `com`, `ppo`, `bar`.
//!
//! Candidate executions are *produced* by the streaming search engine in
//! [`crate::search`]. [`enumerate_candidates`] is its standalone reference
//! oracle: a brute-force enumerator, sharing no code with the search, that
//! materializes every candidate (valid or not) into a `Vec`. Validity of a
//! candidate is decided separately by
//! [`crate::validity::check_validity`].

use crate::event::{Event, EventId, EventKind, RmwHalf, RmwId, RmwLink};
use crate::graph::DiGraph;
use crate::program::{Instr, Program};
use rmw_types::{Addr, ThreadId, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-program context shared by every candidate execution of one search:
/// the event list and derived orderings that do not depend on the `rf`/`ws`
/// assignment. Shared via [`Arc`] so cloning a candidate is cheap.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct ExecCtx {
    /// All events, indexed by [`EventId`].
    pub(crate) events: Vec<Event>,
    /// Reads in `(thread, po)` order — the canonical outcome order, computed
    /// once per program instead of re-sorting in every `read_values` call.
    pub(crate) read_order: Vec<EventId>,
}

impl ExecCtx {
    /// Builds the shared context for a program's event list.
    pub(crate) fn new(events: Vec<Event>) -> Arc<Self> {
        let mut reads: Vec<&Event> = events.iter().filter(|e| e.is_read()).collect();
        reads.sort_by_key(|e| (e.tid, e.po_index));
        let read_order = reads.iter().map(|e| e.id).collect();
        Arc::new(ExecCtx { events, read_order })
    }
}

/// A candidate execution: events with a concrete `rf` and `ws` assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateExecution {
    ctx: Arc<ExecCtx>,
    /// For each read event id: the write event it reads from.
    rf: BTreeMap<EventId, EventId>,
    /// Per location: the write serialization, initial write first.
    ws: BTreeMap<Addr, Vec<EventId>>,
    /// Resolved value of every memory event (reads: value read; writes:
    /// value stored).
    values: Vec<Value>,
}

impl CandidateExecution {
    /// Assembles a candidate from a search's shared context and one concrete
    /// `rf`/`ws` assignment with its resolved values.
    pub(crate) fn assemble(
        ctx: Arc<ExecCtx>,
        rf: BTreeMap<EventId, EventId>,
        ws: BTreeMap<Addr, Vec<EventId>>,
        values: Vec<Value>,
    ) -> Self {
        CandidateExecution {
            ctx,
            rf,
            ws,
            values,
        }
    }

    /// All events, indexed by [`EventId`].
    pub fn events(&self) -> &[Event] {
        &self.ctx.events
    }

    /// The event with the given id.
    pub fn event(&self, id: EventId) -> &Event {
        &self.ctx.events[id.index()]
    }

    /// The write each read reads from.
    pub fn rf(&self) -> &BTreeMap<EventId, EventId> {
        &self.rf
    }

    /// The write serialization per location (initial write first).
    pub fn ws(&self) -> &BTreeMap<Addr, Vec<EventId>> {
        &self.ws
    }

    /// The resolved value of a memory event (reads: value obtained; writes:
    /// value stored). Fences have value 0.
    pub fn value_of(&self, id: EventId) -> Value {
        self.values[id.index()]
    }

    /// Values of all reads in `(thread, po)` order — the canonical outcome
    /// vector of the execution (RMW reads included). The order is computed
    /// once per program (in the shared execution context), so this is a
    /// plain indexed gather instead of a sort per call.
    pub fn read_values(&self) -> Vec<Value> {
        self.ctx
            .read_order
            .iter()
            .map(|&r| self.value_of(r))
            .collect()
    }

    /// Final memory value per location — the last write in `ws` — as
    /// `(addr, value)` pairs sorted by address (the `ws` map iterates in
    /// address order already, so the sort is free).
    pub fn final_memory(&self) -> Vec<(Addr, Value)> {
        self.ws
            .iter()
            .map(|(&a, order)| {
                let last = *order.last().expect("ws contains at least the init write");
                (a, self.value_of(last))
            })
            .collect()
    }

    /// `fr`: each read is before every write (to the same location) that is
    /// `ws`-after the write it read from.
    pub fn fr_edges(&self) -> Vec<(EventId, EventId)> {
        let mut fr = Vec::new();
        for (&r, &w) in &self.rf {
            let addr = self.event(r).addr.expect("read has address");
            let order = &self.ws[&addr];
            let pos = order
                .iter()
                .position(|&x| x == w)
                .expect("rf source is in ws");
            for &later in &order[pos + 1..] {
                fr.push((r, later));
            }
        }
        fr
    }

    /// `rfe`: the external sub-relation of `rf` (different threads; reads
    /// from the initial writes count as external).
    pub fn rfe_edges(&self) -> Vec<(EventId, EventId)> {
        self.rf
            .iter()
            .filter(|(&r, &w)| {
                let (er, ew) = (self.event(r), self.event(w));
                ew.is_init() || er.tid != ew.tid
            })
            .map(|(&r, &w)| (w, r))
            .collect()
    }

    /// `rfi`: the internal sub-relation of `rf` (same thread). Not part of
    /// `ghb` — TSO lets a read forward from its own buffered store before
    /// that store commits — but it *is* part of `uniproc`: without it a
    /// read could source its own po-**later** write (reading from the
    /// future), which no per-location-coherent machine permits.
    pub fn rfi_edges(&self) -> Vec<(EventId, EventId)> {
        self.rf
            .iter()
            .filter(|(&r, &w)| {
                let (er, ew) = (self.event(r), self.event(w));
                !ew.is_init() && er.tid == ew.tid
            })
            .map(|(&r, &w)| (w, r))
            .collect()
    }

    /// `ws` as edges (transitively reduced: consecutive pairs suffice for
    /// cycle detection; we emit the full order for clarity).
    pub fn ws_edges(&self) -> Vec<(EventId, EventId)> {
        let mut edges = Vec::new();
        for order in self.ws.values() {
            for i in 0..order.len() {
                for j in i + 1..order.len() {
                    edges.push((order[i], order[j]));
                }
            }
        }
        edges
    }

    /// `com = ws ∪ rfe ∪ fr` as a graph over events.
    pub fn com_graph(&self) -> DiGraph {
        let mut g = DiGraph::new(self.events().len());
        for (u, v) in self
            .ws_edges()
            .into_iter()
            .chain(self.rfe_edges())
            .chain(self.fr_edges())
        {
            g.add_edge(u.index(), v.index());
        }
        g
    }

    /// `ppo`: same-thread program-order pairs of memory events, except W→R
    /// (TSO lets reads bypass buffered writes).
    pub fn ppo_graph(&self) -> DiGraph {
        ppo_graph_of(self.events())
    }

    /// `bar`: memory operations separated by a fence in program order.
    pub fn bar_graph(&self) -> DiGraph {
        bar_graph_of(self.events())
    }

    /// `po-loc`: same-thread, same-location program-order pairs of memory
    /// events — the per-location order `uniproc` compares `com` against.
    pub fn poloc_graph(&self) -> DiGraph {
        poloc_graph_of(self.events())
    }

    /// All RMW instances: `(rmw_id, Ra, Wa, link)`.
    pub fn rmws(&self) -> Vec<(RmwId, EventId, EventId, RmwLink)> {
        rmws_of(self.events())
    }

    /// Renders the execution for debugging: events, rf, ws.
    pub fn pretty(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for e in self.events() {
            let _ = writeln!(s, "{} = {}  [v={}]", e.id, e.label(), self.value_of(e.id));
        }
        for (&r, &w) in &self.rf {
            let _ = writeln!(s, "rf: {} -> {}", w, r);
        }
        for (a, order) in &self.ws {
            let names: Vec<String> = order.iter().map(ToString::to_string).collect();
            let _ = writeln!(s, "ws[{}]: {}", a.name(), names.join(" -> "));
        }
        s
    }
}

/// `ppo` over a bare event list: same-thread program-order pairs of memory
/// events, except W→R (TSO lets reads bypass buffered writes). Depends only
/// on the events, not on `rf`/`ws`, so the search engine computes it once.
pub(crate) fn ppo_graph_of(events: &[Event]) -> DiGraph {
    let mut g = DiGraph::new(events.len());
    for (u, v) in same_thread_mem_pairs(events) {
        let (eu, ev) = (&events[u.index()], &events[v.index()]);
        let w_to_r = eu.is_write() && ev.is_read();
        if !w_to_r {
            g.add_edge(u.index(), v.index());
        }
    }
    g
}

/// `bar` over a bare event list: memory operations separated by a fence in
/// program order.
pub(crate) fn bar_graph_of(events: &[Event]) -> DiGraph {
    let mut g = DiGraph::new(events.len());
    let mut by_thread: BTreeMap<ThreadId, Vec<&Event>> = BTreeMap::new();
    for e in events {
        if let Some(t) = e.tid {
            by_thread.entry(t).or_default().push(e);
        }
    }
    for evs in by_thread.values_mut() {
        evs.sort_by_key(|e| e.po_index);
        for (i, f) in evs.iter().enumerate() {
            if f.kind != EventKind::Fence {
                continue;
            }
            for before in &evs[..i] {
                if !before.is_mem() {
                    continue;
                }
                for after in &evs[i + 1..] {
                    if after.is_mem() {
                        g.add_edge(before.id.index(), after.id.index());
                    }
                }
            }
        }
    }
    g
}

/// `po-loc` over a bare event list: same-thread, same-location pairs.
pub(crate) fn poloc_graph_of(events: &[Event]) -> DiGraph {
    let mut g = DiGraph::new(events.len());
    for (u, v) in same_thread_mem_pairs(events) {
        if events[u.index()].addr == events[v.index()].addr {
            g.add_edge(u.index(), v.index());
        }
    }
    g
}

/// All RMW instances of an event list: `(rmw_id, Ra, Wa, link)`.
pub(crate) fn rmws_of(events: &[Event]) -> Vec<(RmwId, EventId, EventId, RmwLink)> {
    type Halves = (Option<EventId>, Option<EventId>, Option<RmwLink>);
    let mut by_id: BTreeMap<RmwId, Halves> = BTreeMap::new();
    for e in events {
        if let Some(link) = e.rmw {
            let slot = by_id.entry(link.rmw_id).or_default();
            match link.half {
                RmwHalf::Read => slot.0 = Some(e.id),
                RmwHalf::Write => slot.1 = Some(e.id),
            }
            slot.2 = Some(link);
        }
    }
    by_id
        .into_iter()
        .map(|(id, (r, w, l))| {
            (
                id,
                r.expect("RMW has read half"),
                w.expect("RMW has write half"),
                l.expect("RMW has link"),
            )
        })
        .collect()
}

/// Same-thread ordered pairs of *memory* events (skipping fences),
/// `u` po-before `v`.
fn same_thread_mem_pairs(events: &[Event]) -> Vec<(EventId, EventId)> {
    let mut by_thread: BTreeMap<ThreadId, Vec<&Event>> = BTreeMap::new();
    for e in events {
        if e.is_mem() {
            if let Some(t) = e.tid {
                by_thread.entry(t).or_default().push(e);
            }
        }
    }
    let mut pairs = Vec::new();
    for evs in by_thread.values_mut() {
        evs.sort_by_key(|e| e.po_index);
        for i in 0..evs.len() {
            for j in i + 1..evs.len() {
                pairs.push((evs[i].id, evs[j].id));
            }
        }
    }
    pairs
}

/// Builds the event list of a program: initial writes first, then each
/// thread's events in program order (RMWs expand to read-then-write).
pub(crate) fn build_events(program: &Program) -> Vec<Event> {
    let mut events = Vec::new();
    let mut next_rmw = 0usize;
    // Initial writes, one per touched address, value 0.
    for addr in program.addresses() {
        events.push(Event {
            id: EventId(events.len()),
            tid: None,
            po_index: 0,
            kind: EventKind::Write,
            addr: Some(addr),
            rmw: None,
            write_value: Some(0),
        });
    }
    for (tid, instrs) in program.iter() {
        let mut po = 0usize;
        for &instr in instrs {
            match instr {
                Instr::Read(addr) => {
                    events.push(Event {
                        id: EventId(events.len()),
                        tid: Some(tid),
                        po_index: po,
                        kind: EventKind::Read,
                        addr: Some(addr),
                        rmw: None,
                        write_value: None,
                    });
                    po += 1;
                }
                Instr::Write(addr, v) => {
                    events.push(Event {
                        id: EventId(events.len()),
                        tid: Some(tid),
                        po_index: po,
                        kind: EventKind::Write,
                        addr: Some(addr),
                        rmw: None,
                        write_value: Some(v),
                    });
                    po += 1;
                }
                Instr::Rmw {
                    addr,
                    kind,
                    atomicity,
                } => {
                    let rmw_id = RmwId(next_rmw);
                    next_rmw += 1;
                    events.push(Event {
                        id: EventId(events.len()),
                        tid: Some(tid),
                        po_index: po,
                        kind: EventKind::Read,
                        addr: Some(addr),
                        rmw: Some(RmwLink {
                            rmw_id,
                            half: RmwHalf::Read,
                            kind,
                            atomicity,
                        }),
                        write_value: None,
                    });
                    po += 1;
                    events.push(Event {
                        id: EventId(events.len()),
                        tid: Some(tid),
                        po_index: po,
                        kind: EventKind::Write,
                        addr: Some(addr),
                        rmw: Some(RmwLink {
                            rmw_id,
                            half: RmwHalf::Write,
                            kind,
                            atomicity,
                        }),
                        write_value: None,
                    });
                    po += 1;
                }
                Instr::Fence => {
                    events.push(Event {
                        id: EventId(events.len()),
                        tid: Some(tid),
                        po_index: po,
                        kind: EventKind::Fence,
                        addr: None,
                        rmw: None,
                        write_value: None,
                    });
                    po += 1;
                }
            }
        }
    }
    events
}

/// Resolves the value of every event given an `rf` assignment, or `None`
/// when the assignment is circular (an RMW's value depending on itself
/// through `rf` without a fixed point — such candidates are discarded; they
/// are also rejected by the acyclicity check).
pub(crate) fn resolve_values(
    events: &[Event],
    rf: &BTreeMap<EventId, EventId>,
) -> Option<Vec<Value>> {
    #[derive(Clone, Copy, PartialEq)]
    enum St {
        Unvisited,
        InProgress,
        Done,
    }
    let n = events.len();
    let mut values = vec![0u64; n];
    let mut state = vec![St::Unvisited; n];

    // Pair up RMW halves so the write half can find its read half.
    let mut rmw_read_of_write: BTreeMap<usize, usize> = BTreeMap::new();
    {
        let mut reads: BTreeMap<RmwId, usize> = BTreeMap::new();
        for e in events {
            if let Some(l) = e.rmw {
                if l.half == RmwHalf::Read {
                    reads.insert(l.rmw_id, e.id.index());
                }
            }
        }
        for e in events {
            if let Some(l) = e.rmw {
                if l.half == RmwHalf::Write {
                    rmw_read_of_write.insert(e.id.index(), reads[&l.rmw_id]);
                }
            }
        }
    }

    fn eval(
        i: usize,
        events: &[Event],
        rf: &BTreeMap<EventId, EventId>,
        rmw_read_of_write: &BTreeMap<usize, usize>,
        values: &mut [Value],
        state: &mut [St],
    ) -> Option<Value> {
        match state[i] {
            St::Done => return Some(values[i]),
            St::InProgress => return None, // circular dependency
            St::Unvisited => {}
        }
        state[i] = St::InProgress;
        let e = &events[i];
        let v = match e.kind {
            EventKind::Fence => 0,
            EventKind::Read => {
                let src = rf.get(&e.id).expect("every read has an rf source");
                eval(src.index(), events, rf, rmw_read_of_write, values, state)?
            }
            EventKind::Write => match (e.write_value, e.rmw) {
                (Some(c), _) => c,
                (None, Some(link)) => {
                    let ra = rmw_read_of_write[&i];
                    let read_v = eval(ra, events, rf, rmw_read_of_write, values, state)?;
                    link.kind.apply(read_v)
                }
                (None, None) => unreachable!("plain write without value"),
            },
        };
        values[i] = v;
        state[i] = St::Done;
        Some(v)
    }

    for i in 0..n {
        eval(i, events, rf, &rmw_read_of_write, &mut values, &mut state)?;
    }
    Some(values)
}

/// Enumerates every candidate execution of `program`: all `ws`
/// linearizations × all `rf` choices. Candidates with circular value
/// dependencies are dropped (`resolve_values` rejects them; they can never
/// be valid).
///
/// This is the brute-force reference oracle for the pruned search in
/// [`crate::search`] and shares no code with it: it materializes the
/// complete candidate set (factorial in events per location) into a `Vec`.
/// Prefer [`crate::search::for_each_valid_execution`] anywhere the valid
/// executions are all that matters; litmus tests (≤ ~12 events) are the
/// intended scale here.
pub fn enumerate_candidates(program: &Program) -> Vec<CandidateExecution> {
    let ctx = ExecCtx::new(build_events(program));
    let events = &ctx.events;

    // Every serialization of each location: its init write (events list
    // those first), then one permutation of the location's other writes.
    let mut writes: BTreeMap<Addr, Vec<EventId>> = BTreeMap::new();
    for e in events.iter().filter(|e| e.is_write()) {
        let addr = e.addr.expect("write has addr");
        writes.entry(addr).or_default().push(e.id);
    }
    let addrs: Vec<Addr> = writes.keys().copied().collect();
    let ws_choices: Vec<Vec<Vec<EventId>>> = writes
        .into_values()
        .map(|mut order| {
            let mut orders = Vec::new();
            permute(&mut order, 1, &mut orders);
            orders
        })
        .collect();

    // Every source of each read: any write to its address except its own
    // RMW's write half.
    let reads: Vec<&Event> = events.iter().filter(|e| e.is_read()).collect();
    let rf_choices: Vec<Vec<EventId>> = reads
        .iter()
        .map(|r| {
            events
                .iter()
                .filter(|w| w.is_write() && w.addr == r.addr)
                .filter(|w| !matches!((r.rmw, w.rmw), (Some(a), Some(b)) if a.rmw_id == b.rmw_id))
                .map(|w| w.id)
                .collect()
        })
        .collect();

    let mut out = Vec::new();
    for_each_choice(&ws_choices, &mut |ws_pick| {
        let ws: BTreeMap<Addr, Vec<EventId>> =
            addrs.iter().copied().zip(ws_pick.iter().cloned()).collect();
        for_each_choice(&rf_choices, &mut |rf_pick| {
            let rf: BTreeMap<EventId, EventId> = reads
                .iter()
                .map(|r| r.id)
                .zip(rf_pick.iter().copied())
                .collect();
            if let Some(values) = resolve_values(events, &rf) {
                out.push(CandidateExecution::assemble(
                    Arc::clone(&ctx),
                    rf,
                    ws.clone(),
                    values,
                ));
            }
        });
    });
    out
}

/// Pushes every permutation of `items[k..]` (behind the fixed `items[..k]`)
/// onto `out`.
fn permute(items: &mut Vec<EventId>, k: usize, out: &mut Vec<Vec<EventId>>) {
    if k == items.len() {
        out.push(items.clone());
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, out);
        items.swap(k, i);
    }
}

/// Calls `visit` with every way of picking one element from each list (a
/// mixed-radix count, last list fastest). No lists means one empty pick.
fn for_each_choice<T: Clone>(lists: &[Vec<T>], visit: &mut dyn FnMut(&[T])) {
    if lists.iter().any(Vec::is_empty) {
        return;
    }
    let mut digits = vec![0usize; lists.len()];
    let mut pick: Vec<T> = lists.iter().map(|l| l[0].clone()).collect();
    loop {
        visit(&pick);
        let mut i = lists.len();
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            digits[i] = (digits[i] + 1) % lists[i].len();
            pick[i] = lists[i][digits[i]].clone();
            if digits[i] != 0 {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use rmw_types::{Atomicity, RmwKind};

    fn sb_program() -> Program {
        let (x, y) = (Addr(0), Addr(1));
        let mut b = ProgramBuilder::new();
        b.thread().write(x, 1).read(y);
        b.thread().write(y, 1).read(x);
        b.build()
    }

    #[test]
    fn events_include_init_writes() {
        let p = sb_program();
        let evs = build_events(&p);
        let inits: Vec<&Event> = evs.iter().filter(|e| e.is_init()).collect();
        assert_eq!(inits.len(), 2);
        assert!(inits.iter().all(|e| e.write_value == Some(0)));
        assert_eq!(evs.len(), 2 + 4);
    }

    #[test]
    fn rmw_expands_to_two_linked_events() {
        let mut b = ProgramBuilder::new();
        b.thread()
            .rmw(Addr(0), RmwKind::TestAndSet, Atomicity::Type2);
        let p = b.build();
        let evs = build_events(&p);
        let halves: Vec<&Event> = evs.iter().filter(|e| e.rmw.is_some()).collect();
        assert_eq!(halves.len(), 2);
        assert_eq!(halves[0].kind, EventKind::Read);
        assert_eq!(halves[1].kind, EventKind::Write);
        assert_eq!(halves[0].rmw.unwrap().rmw_id, halves[1].rmw.unwrap().rmw_id);
        assert!(halves[0].po_index < halves[1].po_index);
    }

    #[test]
    fn sb_candidate_count() {
        // SB: 2 reads × 2 candidate sources each (init or the other thread's
        // write... plus own-thread write of same addr? reads are of the
        // *other* location, so sources = init + 1 write) = 2 each; ws: each
        // location has 1 non-init write → 1 permutation. Total 4 candidates.
        let cands = enumerate_candidates(&sb_program());
        assert_eq!(cands.len(), 4);
    }

    #[test]
    fn read_values_follow_rf() {
        let cands = enumerate_candidates(&sb_program());
        // Some candidate has both reads from init (0,0)
        assert!(cands.iter().any(|c| c.read_values() == vec![0, 0]));
        // and some candidate has both reads seeing 1
        assert!(cands.iter().any(|c| c.read_values() == vec![1, 1]));
    }

    #[test]
    fn rmw_value_resolution_chains() {
        // Two FAA(1) on x: if the second reads from the first's write, it
        // must see 1 and write 2.
        let mut b = ProgramBuilder::new();
        b.thread()
            .rmw(Addr(0), RmwKind::FetchAndAdd(1), Atomicity::Type1);
        b.thread()
            .rmw(Addr(0), RmwKind::FetchAndAdd(1), Atomicity::Type1);
        let p = b.build();
        let cands = enumerate_candidates(&p);
        let chained: Vec<&CandidateExecution> = cands
            .iter()
            .filter(|c| c.read_values().contains(&1))
            .collect();
        assert!(!chained.is_empty());
        for c in chained {
            let mem = c.final_memory();
            let (_, x_final) = mem.iter().find(|&&(a, _)| a == Addr(0)).expect("x written");
            assert!(*x_final == 2 || *x_final == 1);
        }
    }

    #[test]
    fn circular_rf_between_rmws_is_dropped() {
        // RMW1 reads from RMW2's write and vice versa: circular value
        // dependency, dropped during enumeration.
        let mut b = ProgramBuilder::new();
        b.thread()
            .rmw(Addr(0), RmwKind::FetchAndAdd(1), Atomicity::Type1);
        b.thread()
            .rmw(Addr(0), RmwKind::FetchAndAdd(1), Atomicity::Type1);
        let p = b.build();
        let cands = enumerate_candidates(&p);
        // each RMW read has 2 candidate sources (init, other's Wa); the
        // (other, other) choice is circular and dropped → 3 rf choices
        // survive; ws has 2 writes → 2 permutations each.
        assert_eq!(cands.len(), 3 * 2);
    }

    #[test]
    fn fr_edges_point_to_later_writes() {
        let cands = enumerate_candidates(&sb_program());
        for c in &cands {
            for (r, w) in c.fr_edges() {
                let read = c.event(r);
                let write = c.event(w);
                assert!(read.is_read() && write.is_write());
                assert_eq!(read.addr, write.addr);
            }
        }
    }

    #[test]
    fn ppo_excludes_w_to_r() {
        let cands = enumerate_candidates(&sb_program());
        let c = &cands[0];
        let ppo = c.ppo_graph();
        // thread 0: W(x) then R(y); the W→R pair must NOT be in ppo
        let w0 = c
            .events()
            .iter()
            .find(|e| e.tid == Some(ThreadId(0)) && e.is_write())
            .unwrap()
            .id;
        let r0 = c
            .events()
            .iter()
            .find(|e| e.tid == Some(ThreadId(0)) && e.is_read())
            .unwrap()
            .id;
        assert!(!ppo.has_edge(w0.index(), r0.index()));
    }

    #[test]
    fn fence_inserts_bar_edges() {
        let (x, y) = (Addr(0), Addr(1));
        let mut b = ProgramBuilder::new();
        b.thread().write(x, 1).fence().read(y);
        let p = b.build();
        let cands = enumerate_candidates(&p);
        let c = &cands[0];
        let bar = c.bar_graph();
        let w = c
            .events()
            .iter()
            .find(|e| !e.is_init() && e.is_write())
            .unwrap()
            .id;
        let r = c.events().iter().find(|e| e.is_read()).unwrap().id;
        assert!(
            bar.has_edge(w.index(), r.index()),
            "fence must order W before R"
        );
    }

    #[test]
    fn poloc_relates_same_location_only() {
        let (x, y) = (Addr(0), Addr(1));
        let mut b = ProgramBuilder::new();
        b.thread().write(x, 1).write(y, 1).read(x);
        let p = b.build();
        let c = &enumerate_candidates(&p)[0];
        let poloc = c.poloc_graph();
        let wx = c
            .events()
            .iter()
            .find(|e| !e.is_init() && e.is_write() && e.addr == Some(x))
            .unwrap()
            .id;
        let wy = c
            .events()
            .iter()
            .find(|e| !e.is_init() && e.is_write() && e.addr == Some(y))
            .unwrap()
            .id;
        let rx = c.events().iter().find(|e| e.is_read()).unwrap().id;
        assert!(poloc.has_edge(wx.index(), rx.index()));
        assert!(!poloc.has_edge(wy.index(), rx.index()));
    }

    #[test]
    fn read_order_cached_in_ctx() {
        // The (tid, po) read order is computed once per program; candidates
        // sharing a context must agree on it and match a fresh sort.
        let cands = enumerate_candidates(&sb_program());
        let c = &cands[0];
        let mut expect: Vec<&Event> = c.events().iter().filter(|e| e.is_read()).collect();
        expect.sort_by_key(|e| (e.tid, e.po_index));
        let expect: Vec<Value> = expect.iter().map(|e| c.value_of(e.id)).collect();
        assert_eq!(c.read_values(), expect);
    }

    #[test]
    fn pretty_is_nonempty() {
        let c = &enumerate_candidates(&sb_program())[0];
        let s = c.pretty();
        assert!(s.contains("rf:"));
        assert!(s.contains("ws["));
    }
}

//! Validity of candidate executions (paper §2.1–2.2).
//!
//! A candidate is valid iff:
//!
//! 1. **uniproc**: `com` is consistent with the per-thread order of
//!    operations to the same location (`com ∪ po-loc` acyclic);
//! 2. there exists a choice of *atomicity-induced* edges making
//!    `com ∪ ppo ∪ bar ∪ ato` acyclic. Each RMW with read `Ra`, write `Wa`
//!    and atomicity `τ` contributes, for every event `M` whose shape `τ`
//!    forbids between `Ra` and `Wa` in `ghb`, the disjunction
//!    `M →ghb Ra  ∨  Wa →ghb M`.
//!
//! The checker performs a backtracking search over the disjunctions with
//! incremental cycle detection; on success [`check_validity`] extracts a
//! [`Witness`] — a concrete `ghb` linearization demonstrating validity.

use crate::event::{Event, EventId};
use crate::execution::{rmws_of, CandidateExecution};
use crate::graph::DiGraph;

/// Result of checking one candidate execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Validity {
    /// The candidate is valid; a witness `ghb` order is attached.
    Valid(Witness),
    /// `com ∪ po-loc` is cyclic.
    UniprocViolation,
    /// No choice of atomicity-induced edges yields an acyclic union.
    Cyclic,
}

impl Validity {
    /// True for [`Validity::Valid`].
    pub fn is_valid(&self) -> bool {
        matches!(self, Validity::Valid(_))
    }
}

/// A witness for a valid execution: a concrete global-happens-before order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Memory events in `ghb` order (fences excluded).
    pub ghb: Vec<EventId>,
    /// The atomicity-induced edges the search committed to.
    pub ato_edges: Vec<(EventId, EventId)>,
}

impl Witness {
    /// Position of each event in the `ghb` order, or `None` if absent
    /// (e.g. fences).
    pub fn position(&self, e: EventId) -> Option<usize> {
        self.ghb.iter().position(|&x| x == e)
    }

    /// True iff `a` is ordered before `b` in this witness.
    ///
    /// # Panics
    ///
    /// Panics if either event is not part of the `ghb` order.
    pub fn before(&self, a: EventId, b: EventId) -> bool {
        let pa = self.position(a).expect("event in ghb");
        let pb = self.position(b).expect("event in ghb");
        pa < pb
    }
}

/// One atomicity disjunction: `m →ghb ra  ∨  wa →ghb m`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Disjunct {
    pub(crate) m: EventId,
    pub(crate) ra: EventId,
    pub(crate) wa: EventId,
}

/// Collects the atomicity disjunctions of an event list. These depend only
/// on the events (RMW shapes and atomicity types), not on `rf`/`ws`, so the
/// search engine computes them once per program.
pub(crate) fn atomicity_disjuncts(events: &[Event]) -> Vec<Disjunct> {
    let mut disjuncts = Vec::new();
    for (_, ra, wa, link) in rmws_of(events) {
        let ra_addr = events[ra.index()].addr;
        for e in events {
            if !e.is_mem() || e.id == ra || e.id == wa {
                continue;
            }
            let same_addr = e.addr == ra_addr;
            if link.atomicity.forbids_between(e.is_write(), same_addr) {
                disjuncts.push(Disjunct { m: e.id, ra, wa });
            }
        }
    }
    disjuncts
}

/// Checks the validity of a candidate execution, extracting a [`Witness`]
/// when it is valid. This is the reference checker; the search engine
/// decides the same question incrementally and only asks `solve_ato`
/// yes or no at its leaves.
pub fn check_validity(exec: &CandidateExecution) -> Validity {
    // uniproc: com ∪ po-loc acyclic. `com_graph` carries only `rfe` (the
    // `ghb` view of `rf`); uniproc additionally needs `rfi`, or a read
    // could source its own po-later write.
    let mut uni = exec.com_graph();
    uni.union_with(&exec.poloc_graph());
    for (w, r) in exec.rfi_edges() {
        uni.add_edge(w.index(), r.index());
    }
    if !uni.is_acyclic() {
        return Validity::UniprocViolation;
    }

    // Base ghb constraint graph.
    let mut base = exec.com_graph();
    base.union_with(&exec.ppo_graph());
    base.union_with(&exec.bar_graph());

    match solve_ato(base, &atomicity_disjuncts(exec.events())) {
        Some((graph, ato_edges)) => {
            let order = graph.topo_order().expect("solver returns acyclic graph");
            let ghb = order
                .into_iter()
                .map(EventId)
                .filter(|&id| exec.event(id).is_mem())
                .collect();
            Validity::Valid(Witness { ghb, ato_edges })
        }
        None => Validity::Cyclic,
    }
}

/// Solves the atomicity disjunctions over a prebuilt `com ∪ ppo ∪ bar`
/// graph: the graph with one acyclic choice of `ato` edges committed, plus
/// those edges, or `None` when no choice is acyclic. The `uniproc`
/// condition must already have been established by the caller.
pub(crate) fn solve_ato(
    mut graph: DiGraph,
    disjuncts: &[Disjunct],
) -> Option<(DiGraph, Vec<(EventId, EventId)>)> {
    let mut ato = Vec::new();
    solve(&mut graph, disjuncts, &mut ato).then_some((graph, ato))
}

/// Backtracking over disjunctions. On success the chosen edges stay in
/// `graph` and `ato`; on failure both are restored.
fn solve(graph: &mut DiGraph, disjuncts: &[Disjunct], ato: &mut Vec<(EventId, EventId)>) -> bool {
    if !graph.is_acyclic() {
        return false;
    }
    let Some((d, rest)) = disjuncts.split_first() else {
        return true;
    };
    // Option A: M → Ra; option B: Wa → M.
    for (u, v) in [(d.m, d.ra), (d.wa, d.m)] {
        let already = graph.has_edge(u.index(), v.index());
        if !already {
            graph.add_edge(u.index(), v.index());
        }
        ato.push((u, v));
        if solve(graph, rest, ato) {
            return true;
        }
        ato.pop();
        if !already {
            graph.remove_edge(u.index(), v.index());
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execution::enumerate_candidates;
    use crate::program::ProgramBuilder;
    use rmw_types::{Addr, Atomicity, RmwKind};

    const X: Addr = Addr(0);
    const Y: Addr = Addr(1);

    #[test]
    fn sb_allows_0_0_under_tso() {
        let mut b = ProgramBuilder::new();
        b.thread().write(X, 1).read(Y);
        b.thread().write(Y, 1).read(X);
        let p = b.build();
        let valid_00 = enumerate_candidates(&p)
            .into_iter()
            .filter(|c| c.read_values() == vec![0, 0])
            .any(|c| check_validity(&c).is_valid());
        assert!(valid_00, "TSO must allow SB's 0/0 outcome");
    }

    #[test]
    fn sb_with_fences_forbids_0_0() {
        let mut b = ProgramBuilder::new();
        b.thread().write(X, 1).fence().read(Y);
        b.thread().write(Y, 1).fence().read(X);
        let p = b.build();
        let valid_00 = enumerate_candidates(&p)
            .into_iter()
            .filter(|c| c.read_values() == vec![0, 0])
            .any(|c| check_validity(&c).is_valid());
        assert!(!valid_00, "mfence restores SC for SB");
    }

    #[test]
    fn uniproc_rejects_reading_own_overwritten_write() {
        // Thread writes 1 then 2 to x, then reads x: may only see 2.
        let mut b = ProgramBuilder::new();
        b.thread().write(X, 1).write(X, 2).read(X);
        let p = b.build();
        let mut saw_valid_2 = false;
        for c in enumerate_candidates(&p) {
            let v = check_validity(&c);
            let read = c.read_values()[0];
            if read == 2 {
                saw_valid_2 |= v.is_valid();
            } else {
                assert!(!v.is_valid(), "uniproc forbids reading {read}");
            }
        }
        assert!(saw_valid_2, "must allow reading the latest write");
    }

    #[test]
    fn mp_is_forbidden_on_tso() {
        // Message passing: W x=1; W y=1 || R y; R x — r(y)=1 ∧ r(x)=0 is
        // forbidden under TSO (stores are ordered, reads are ordered).
        let mut b = ProgramBuilder::new();
        b.thread().write(X, 1).write(Y, 1);
        b.thread().read(Y).read(X);
        let p = b.build();
        let bad = enumerate_candidates(&p)
            .into_iter()
            .filter(|c| c.read_values() == vec![1, 0])
            .any(|c| check_validity(&c).is_valid());
        assert!(!bad, "TSO forbids MP's 1/0 outcome");
    }

    #[test]
    fn witness_orders_respect_committed_edges() {
        let mut b = ProgramBuilder::new();
        b.thread().write(X, 1).read(Y);
        b.thread().write(Y, 1).read(X);
        let p = b.build();
        for c in enumerate_candidates(&p) {
            if let Validity::Valid(w) = check_validity(&c) {
                for (u, v) in &w.ato_edges {
                    assert!(w.before(*u, *v), "ato edge not respected by witness");
                }
                // com edges respected too
                for (u, v) in c
                    .ws_edges()
                    .into_iter()
                    .chain(c.rfe_edges())
                    .chain(c.fr_edges())
                {
                    assert!(w.before(u, v), "com edge not respected by witness");
                }
            }
        }
    }

    #[test]
    fn type1_rmw_acts_as_barrier_in_sb() {
        // SB with a type-1 RMW (to a third location) between W and R on both
        // threads forbids 0/0 (paper Fig. 5 analog, RMWs as barriers).
        let z1 = Addr(2);
        let z2 = Addr(3);
        let mut b = ProgramBuilder::new();
        b.thread()
            .write(X, 1)
            .rmw(z1, RmwKind::TestAndSet, Atomicity::Type1)
            .read(Y);
        b.thread()
            .write(Y, 1)
            .rmw(z2, RmwKind::TestAndSet, Atomicity::Type1)
            .read(X);
        let p = b.build();
        let bad = enumerate_candidates(&p)
            .into_iter()
            .filter(|c| {
                // reads in (thread, po) order: [Ra(z1), R(y), Ra(z2), R(x)]
                let rv = c.read_values();
                rv[1] == 0 && rv[3] == 0
            })
            .any(|c| check_validity(&c).is_valid());
        assert!(!bad, "type-1 RMWs used as barriers forbid SB 0/0");
    }

    #[test]
    fn type2_rmw_does_not_act_as_barrier_in_sb() {
        // Same shape with type-2 RMWs to *different* addresses: 0/0 allowed
        // (paper §2.4, "RMWs as barriers (different addresses)").
        let z1 = Addr(2);
        let z2 = Addr(3);
        let mut b = ProgramBuilder::new();
        b.thread()
            .write(X, 1)
            .rmw(z1, RmwKind::TestAndSet, Atomicity::Type2)
            .read(Y);
        b.thread()
            .write(Y, 1)
            .rmw(z2, RmwKind::TestAndSet, Atomicity::Type2)
            .read(X);
        let p = b.build();
        let bad = enumerate_candidates(&p)
            .into_iter()
            .filter(|c| {
                let rv = c.read_values();
                rv[1] == 0 && rv[3] == 0
            })
            .any(|c| check_validity(&c).is_valid());
        assert!(bad, "type-2 RMWs to different addresses are NOT barriers");
    }
}

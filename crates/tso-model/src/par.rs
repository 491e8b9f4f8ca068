//! Root-split parallel search: the engine of [`crate::search`] fanned out
//! over the shared `exec-pool` workers.
//!
//! The sequential engine explores one decision tree — `ws` placements,
//! then `rf` choices, pruning doomed branches. Its first few levels
//! partition everything below into *independent* subtrees, so the parallel
//! engine:
//!
//! 1. runs the ordinary DFS to a depth cutoff (`search::split_prefixes`),
//!    recording the viable decision prefixes there in exactly the order
//!    the sequential DFS visits the corresponding subtrees (for
//!    `ws`-trivial programs the cutoff reaches into the `rf` levels, so
//!    reads-heavy litmus shapes parallelize too);
//! 2. fans the prefixes out as tasks on an [`exec_pool`] worker pool
//!    (stable task indexing — results come back in subtree order no
//!    matter how workers interleave);
//! 3. merges deterministically: per-task accumulators (and complete-leaf
//!    logs) are combined in task order, and per-task [`SearchStats`] are
//!    summed onto the split stats, which reproduces the sequential
//!    engine's decision counters *bit-for-bit at any worker count*.
//!
//! Early exit ([`outcome_allowed_par`]) uses a shared [`AtomicBool`]: the
//! task that finds a witness raises it, every other task aborts at its
//! next decision node, and the pool drains unstarted tasks without
//! running them.
//!
//! Both [`fold_valid_executions_par`] and the recording search behind the
//! verdict cache ([`crate::prefix`]) go through one adaptive policy
//! (`split_target`) and one split-and-merge body (`split_and_merge`); a
//! target of one task is the sequential engine, run inline on the calling
//! thread.
//!
//! # Adaptive policy
//!
//! Fanning out is not free: the split phase, per-task base-graph clones,
//! and thread handoff cost a fixed overhead that small subtrees never
//! amortize — the seed's BENCH_model.json showed 0.23–0.97× *slowdowns*
//! on every small shape. The policy therefore predicts the sequential
//! cost from `SearchCtx::estimate_nodes` (the unpruned decision-tree size)
//! divided by a nodes-per-µs rate calibrated once per process
//! (`estimated_nodes_per_us`), stays fully sequential below
//! `MIN_SPLIT_EST_US` (and always on single-hardware-thread hosts, where
//! fan-out can only lose), and above it picks a split target so each
//! prefix task carries at least `MIN_TASK_EST_US` of predicted work. The
//! sequential case reports `tasks = workers = 1`; the decision counters
//! are engine-independent either way, so results and stats stay
//! bit-identical to the sequential engine.
//!
//! The sequential engine remains the reference implementation:
//! `tests/par_equiv.rs` asserts the public entry points yield identical
//! execution sequences, outcome sets, verdicts, and decision stats over
//! the full litmus corpora and random programs at 1, 2, and 8 workers,
//! and this module's split proptest drives the split-and-merge body at
//! forced split targets, where the adaptive policy would stay sequential.

use crate::budget::QueryBudget;
use crate::execution::CandidateExecution;
use crate::outcome::Outcome;
use crate::program::{Program, ProgramBuilder};
use crate::search::{self, Prefix, SearchCtx, SearchStats};
use rmw_types::fasthash::FastHashSet;
use rmw_types::{Addr, Value};
use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Subtree tasks to aim for per worker: enough oversplit that one heavy
/// subtree does not serialize the pool, little enough that split overhead
/// stays negligible.
const TASKS_PER_WORKER: usize = 4;

/// Predicted sequential microseconds below which the adaptive engine
/// refuses to fan out. Split/replay overhead is on the order of tens to a
/// few hundred µs; requiring ~20 ms of predicted work keeps the worst
/// case (the estimate overshooting a heavily pruned shape) well under the
/// 10% regression budget, while every shape that actually benefits from
/// parallelism predicts far above this floor.
const MIN_SPLIT_EST_US: f64 = 20_000.0;

/// Predicted microseconds of subtree work per task once the engine does
/// fan out: the split depth is capped so no task falls below this, which
/// keeps per-task replay overhead in the low single digits percent.
const MIN_TASK_EST_US: f64 = 1_000.0;

/// A mid-size Dekker-like shape (2 threads × 3 write/read rounds) used to
/// calibrate the node rate: deep enough that one sequential run takes on
/// the order of a millisecond, small enough that the one-time calibration
/// is negligible.
fn calibration_program() -> Program {
    let mut b = ProgramBuilder::new();
    for i in 0..2u64 {
        let mine = Addr(i);
        let other = Addr((i + 1) % 2);
        let mut t = b.thread();
        for k in 1..=3u64 {
            t.write(mine, k).read(other);
        }
    }
    b.build()
}

/// *Estimated* decision nodes searched per microsecond, calibrated once
/// per process by timing the sequential engine on
/// [`calibration_program`] and dividing its `estimate_nodes` (not its
/// real node count) by the elapsed time. Using the estimate on both
/// sides makes the units cancel: `predicted_us(P) =
/// estimate_nodes(P) / rate` is exact for the calibration shape and
/// biased safely for others — shapes shallower than the calibration
/// shape overestimate the rate's applicability *downward* (they stay
/// sequential; they are small anyway), deeper shapes upward (they split;
/// they are large anyway). The best of three runs is kept, so transient
/// scheduler noise can only make the engine *more* reluctant to split.
fn estimated_nodes_per_us() -> f64 {
    static RATE: OnceLock<f64> = OnceLock::new();
    *RATE.get_or_init(|| {
        let p = calibration_program();
        let sc = search::build_ctx(&p);
        let est = sc.estimate_nodes() as f64;
        let mut best = 0.0f64;
        for _ in 0..3 {
            let t0 = Instant::now();
            let mut sink = |_: &CandidateExecution| ControlFlow::Continue(());
            let _ = search::run_prefix(&sc, &Prefix::default(), &mut sink, None, None, None);
            let us = t0.elapsed().as_secs_f64() * 1e6;
            best = best.max(est / us.max(1.0));
        }
        best.max(1.0)
    })
}

/// Predicted sequential search cost of `sc`'s program in microseconds —
/// the quantity the adaptive split decision thresholds on.
pub(crate) fn predicted_us(sc: &SearchCtx) -> f64 {
    sc.estimate_nodes() as f64 / estimated_nodes_per_us()
}

/// Worker count the adaptive engine plans with: `requested` clamped by
/// [`exec_pool::effective_workers`] and by the host's available
/// parallelism. On a single-hardware-thread host splitting can only lose
/// (every task still runs serially, plus fan-out overhead), so the
/// adaptive policy treats such hosts as `workers = 1` and stays
/// sequential no matter what was requested.
fn adaptive_workers(requested: usize) -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    let hw = *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    exec_pool::effective_workers(requested).min(hw)
}

/// The adaptive policy: how many subtree tasks to split `sc`'s tree into
/// on `workers` threads. 1 — the whole tree as one task, run inline — on
/// a single worker or below the split floor; above it, capped both by
/// worker appetite and by the per-task work floor.
fn split_target(sc: &SearchCtx, workers: usize) -> usize {
    if workers <= 1 {
        return 1;
    }
    let est_us = predicted_us(sc);
    if est_us < MIN_SPLIT_EST_US {
        return 1;
    }
    let cap = (est_us / MIN_TASK_EST_US) as usize;
    (workers * TASKS_PER_WORKER).min(cap.max(2))
}

/// The workhorse: folds every valid execution of `program` into per-task
/// accumulators on `workers` threads. `make` builds one accumulator per
/// subtree task; `fold` is called with each valid execution, in sequential
/// DFS order *within* a task; returning [`ControlFlow::Break`] stops the
/// whole search (cooperatively, across all workers).
///
/// Returns the accumulators **in deterministic subtree order** plus the
/// merged stats. With no early exit, the stats' decision counters equal
/// the sequential engine's at any worker count; `tasks`/`workers` report
/// the parallel plumbing. `workers` is clamped by
/// [`exec_pool::effective_workers`] (nested pools run sequentially), and
/// shapes the adaptive policy keeps sequential run as a single task with
/// a single accumulator on the calling thread.
pub fn fold_valid_executions_par<T, A, F>(
    program: &Program,
    workers: usize,
    make: A,
    fold: F,
) -> (Vec<T>, SearchStats)
where
    T: Send,
    A: Fn() -> T + Sync,
    F: Fn(&mut T, &CandidateExecution) -> ControlFlow<()> + Sync,
{
    let workers = adaptive_workers(workers);
    let sc = search::build_ctx(program);
    let target = split_target(&sc, workers);
    let (accs, stats, _) = split_and_merge(&sc, workers, target, make, fold, false, None);
    (accs, stats)
}

/// The one split-and-merge body behind every entry point. Splits `sc`'s
/// tree into about `target` subtree tasks (`search::split_prefixes`),
/// runs them on `workers` pool threads, and merges in task order: the
/// accumulators come back in sequential DFS order, task stats are summed
/// onto the split's, and — when `record` is set — the tasks' complete-leaf
/// logs concatenate into the sequential DFS leaf order. A `Break` from
/// `fold` raises the shared stop flag, which every other task checks at
/// its next decision node; `budget` is charged by every task's decision
/// nodes (exhaustion stops each task on its own, not through the flag).
fn split_and_merge<T, A, F>(
    sc: &SearchCtx,
    workers: usize,
    target: usize,
    make: A,
    fold: F,
    record: bool,
    budget: Option<&QueryBudget>,
) -> (Vec<T>, SearchStats, Vec<Prefix>)
where
    T: Send,
    A: Fn() -> T + Sync,
    F: Fn(&mut T, &CandidateExecution) -> ControlFlow<()> + Sync,
{
    let (prefixes, mut stats) = search::split_prefixes(sc, target);
    let stop = AtomicBool::new(false);
    let results = exec_pool::run_indexed(workers, prefixes.len(), &stop, |_worker, i| {
        let mut acc = make();
        let mut leaves = Vec::new();
        let mut visitor = |exec: &CandidateExecution| {
            let flow = fold(&mut acc, exec);
            if flow.is_break() {
                stop.store(true, Ordering::Relaxed);
            }
            flow
        };
        let task_stats = search::run_prefix(
            sc,
            &prefixes[i],
            &mut visitor,
            Some(&stop),
            record.then_some(&mut leaves),
            budget,
        );
        (acc, leaves, task_stats)
    });

    let mut accs = Vec::with_capacity(results.len());
    let mut leaves = Vec::new();
    for result in results {
        match result {
            Some((acc, task_leaves, task_stats)) => {
                stats.absorb(&task_stats);
                accs.push(acc);
                leaves.extend(task_leaves);
            }
            // Drained without running: the stop flag fired first.
            None => stats.stopped_early = true,
        }
    }
    stats.tasks = prefixes.len() as u64;
    // Report what the pool could actually use: a split that yields fewer
    // subtrees than workers leaves the surplus threads idle (or runs
    // inline when there is a single task).
    stats.workers = workers.min(prefixes.len().max(1)) as u64;
    (accs, stats, leaves)
}

/// Parallel [`allowed_outcomes`](crate::outcome::allowed_outcomes): the
/// same outcome set, computed on `workers` threads. Per-task hash sets
/// are unioned in stable task order into the final `BTreeSet` (sorted
/// once, at the edge).
pub fn allowed_outcomes_par(program: &Program, workers: usize) -> BTreeSet<Outcome> {
    allowed_outcomes_par_with_stats(program, workers).0
}

/// [`allowed_outcomes_par`] plus the merged [`SearchStats`].
pub fn allowed_outcomes_par_with_stats(
    program: &Program,
    workers: usize,
) -> (BTreeSet<Outcome>, SearchStats) {
    let (sets, stats) = fold_valid_executions_par(
        program,
        workers,
        FastHashSet::<Outcome>::default,
        |set, exec| {
            set.insert(Outcome::of_execution(exec));
            ControlFlow::Continue(())
        },
    );
    let mut out = BTreeSet::new();
    for set in sets {
        out.extend(set);
    }
    (out, stats)
}

/// [`allowed_outcomes_par`] that additionally records the decision path
/// of every complete leaf, in sequential DFS order — the capture side of
/// prefix certificates ([`crate::prefix`]). Runs under the installed
/// [`SearchBudget`](crate::budget::SearchBudget), if any, with the same
/// adaptive policy and split-and-merge body as
/// [`fold_valid_executions_par`].
pub(crate) fn allowed_outcomes_recording(
    program: &Program,
    workers: usize,
) -> (BTreeSet<Outcome>, SearchStats, Vec<Prefix>) {
    let workers = adaptive_workers(workers);
    let sc = search::build_ctx(program);
    let target = split_target(&sc, workers);
    // One shared budget accounting for the whole query, across every
    // subtree task (`None` when no limiting budget is installed — the
    // common case, where the engine is bit-identical to pre-budget
    // behavior). It starts after the calibration inside `split_target`,
    // which runs un-budgeted, so a tight budget cannot skew the rate.
    let budget = crate::budget::begin_query();
    let (sets, stats, leaves) = split_and_merge(
        &sc,
        workers,
        target,
        FastHashSet::<Outcome>::default,
        |set, exec| {
            set.insert(Outcome::of_execution(exec));
            ControlFlow::Continue(())
        },
        true,
        budget.as_deref(),
    );
    (sets.into_iter().flatten().collect(), stats, leaves)
}

/// Parallel [`valid_executions`](crate::search::valid_executions): because
/// tasks are indexed in subtree (sequential DFS) order and each task
/// yields in DFS order, the concatenation reproduces the sequential
/// engine's yield *sequence* exactly, not just its set.
pub fn valid_executions_par(program: &Program, workers: usize) -> Vec<CandidateExecution> {
    let (chunks, _) = fold_valid_executions_par(program, workers, Vec::new, |out, exec| {
        out.push(exec.clone());
        ControlFlow::Continue(())
    });
    chunks.into_iter().flatten().collect()
}

/// Parallel [`outcome_allowed`](crate::outcome::outcome_allowed): true iff
/// some valid execution's read-value vector satisfies `pred`. The first
/// witness raises the shared stop flag and the remaining subtrees abort —
/// the verdict is deterministic (a witness exists or it does not), only
/// the amount of work skipped varies with scheduling.
pub fn outcome_allowed_par(
    program: &Program,
    workers: usize,
    pred: impl Fn(&[Value]) -> bool + Sync,
) -> bool {
    let (founds, _) = fold_valid_executions_par(
        program,
        workers,
        || false,
        |found, exec| {
            if pred(&exec.read_values()) {
                *found = true;
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        },
    );
    founds.into_iter().any(|f| f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::SearchBudget;
    use crate::outcome::allowed_outcomes;
    use crate::program::{Instr, ProgramBuilder};
    use crate::search::{for_each_valid_execution, valid_executions};
    use proptest::prelude::*;
    use rmw_types::{Addr, Atomicity, RmwKind};

    const X: Addr = Addr(0);
    const Y: Addr = Addr(1);

    fn mixed_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.thread().write(X, 1).write(X, 2).read(Y);
        b.thread()
            .rmw(Y, RmwKind::FetchAndAdd(1), Atomicity::Type2)
            .read(X);
        b.thread().write(Y, 5).fence().read(X);
        b.build()
    }

    #[test]
    fn outcome_sets_match_sequential_at_every_worker_count() {
        let p = mixed_program();
        let seq = allowed_outcomes(&p);
        for workers in [1, 2, 8] {
            let (par, stats) = allowed_outcomes_par_with_stats(&p, workers);
            assert_eq!(par, seq, "workers={workers}");
            assert!(stats.valid >= par.len() as u64);
        }
    }

    #[test]
    fn decision_stats_are_worker_count_independent() {
        let p = mixed_program();
        let seq = for_each_valid_execution(&p, |_| ControlFlow::Continue(()));
        for workers in [2, 3, 8] {
            let (_, stats) = allowed_outcomes_par_with_stats(&p, workers);
            assert_eq!(stats.nodes, seq.nodes, "workers={workers}");
            assert_eq!(stats.pruned, seq.pruned, "workers={workers}");
            assert_eq!(stats.complete, seq.complete, "workers={workers}");
            assert_eq!(stats.valid, seq.valid, "workers={workers}");
            assert!(!stats.stopped_early);
            // Reported workers are what the task count could occupy.
            assert!(stats.workers >= 1 && stats.workers <= workers as u64);
            assert_eq!(stats.workers, (workers as u64).min(stats.tasks.max(1)));
            assert!(stats.tasks >= 1);
        }
    }

    #[test]
    fn execution_sequence_is_reproduced_not_just_the_set() {
        let p = mixed_program();
        let seq: Vec<Vec<u64>> = valid_executions(&p)
            .iter()
            .map(CandidateExecution::read_values)
            .collect();
        for workers in [2, 8] {
            let par: Vec<Vec<u64>> = valid_executions_par(&p, workers)
                .iter()
                .map(CandidateExecution::read_values)
                .collect();
            assert_eq!(par, seq, "workers={workers}");
        }
    }

    #[test]
    fn early_exit_verdicts_match_sequential() {
        let p = mixed_program();
        let outs = allowed_outcomes(&p);
        for workers in [1, 2, 8] {
            for o in &outs {
                let target = o.read_values();
                assert!(
                    outcome_allowed_par(&p, workers, |rv| rv == target),
                    "workers={workers}: {target:?} must be allowed"
                );
            }
            assert!(!outcome_allowed_par(&p, workers, |rv| rv
                .iter()
                .all(|&v| v == 99)));
        }
    }

    #[test]
    fn adaptive_runs_small_shapes_sequentially() {
        // mixed_program predicts far below the split floor, so even a
        // generous worker budget must stay on the calling thread.
        let p = mixed_program();
        let (_, stats) = allowed_outcomes_par_with_stats(&p, 8);
        assert_eq!((stats.tasks, stats.workers), (1, 1));
    }

    /// Random programs over three addresses mixing reads, writes, RMWs of
    /// every atomicity, and fences.
    fn arb_program() -> impl Strategy<Value = Program> {
        let instr = prop_oneof![
            (0u64..3).prop_map(|a| Instr::Read(Addr(a))),
            ((0u64..3), (1u64..3)).prop_map(|(a, v)| Instr::Write(Addr(a), v)),
            ((0u64..3), (0usize..3)).prop_map(|(a, t)| Instr::Rmw {
                addr: Addr(a),
                kind: RmwKind::FetchAndAdd(1),
                atomicity: Atomicity::ALL[t],
            }),
            Just(Instr::Fence),
        ];
        let thread = proptest::collection::vec(instr, 1..4);
        proptest::collection::vec(thread, 1..4).prop_map(|threads| {
            let mut p = Program::new();
            for t in threads {
                p.add_thread(t);
            }
            p
        })
    }

    /// The split-and-merge body at a forced `target` (the adaptive policy
    /// would run these shapes sequentially), recording leaves: the
    /// outcome of every yielded execution in merge order, the stats, and
    /// the leaf log.
    fn forced_split(
        p: &Program,
        workers: usize,
        target: usize,
        budget: Option<&QueryBudget>,
    ) -> (Vec<Outcome>, SearchStats, Vec<Prefix>) {
        let sc = search::build_ctx(p);
        let (chunks, stats, leaves) = split_and_merge(
            &sc,
            workers,
            target,
            Vec::new,
            |out: &mut Vec<Outcome>, exec| {
                out.push(Outcome::of_execution(exec));
                ControlFlow::Continue(())
            },
            true,
            budget,
        );
        (chunks.into_iter().flatten().collect(), stats, leaves)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn forced_splits_reproduce_the_sequential_engine(p in arb_program()) {
            let sc = search::build_ctx(&p);
            let mut seq_yield = Vec::new();
            let mut seq_leaves = Vec::new();
            let seq = search::run_prefix(
                &sc,
                &Prefix::default(),
                &mut |exec| {
                    seq_yield.push(Outcome::of_execution(exec));
                    ControlFlow::Continue(())
                },
                None,
                Some(&mut seq_leaves),
                None,
            );
            for workers in [2, 8] {
                for target in [2, 5, 64, usize::MAX] {
                    let (yielded, stats, leaves) = forced_split(&p, workers, target, None);
                    prop_assert_eq!(&yielded, &seq_yield);
                    prop_assert_eq!(
                        (stats.nodes, stats.pruned, stats.complete, stats.valid),
                        (seq.nodes, seq.pruned, seq.complete, seq.valid)
                    );
                    prop_assert_eq!(&leaves, &seq_leaves);
                    prop_assert!(!stats.stopped_early);
                }
            }
        }
    }

    #[test]
    fn a_budget_truncates_a_forced_split_to_a_subset() {
        // Both locations have two cross-thread writes, so the split finds
        // several viable subtrees.
        let mut b = ProgramBuilder::new();
        b.thread().write(X, 1).read(Y).write(Y, 2).read(X);
        b.thread().write(Y, 1).read(X).write(X, 2).read(Y);
        let p = b.build();
        let full: BTreeSet<Outcome> = allowed_outcomes(&p);
        let seq = for_each_valid_execution(&p, |_| ControlFlow::Continue(()));
        for workers in [2, 8] {
            let budget = QueryBudget::new(SearchBudget {
                max_nodes: Some(20),
                max_time: None,
            });
            let (yielded, stats, leaves) = forced_split(&p, workers, 16, Some(&budget));
            assert!(stats.tasks > 1, "forced split must fan out");
            assert!(stats.budget_exhausted && stats.stopped_early, "{stats:?}");
            assert!(stats.nodes < seq.nodes, "truncated search explores less");
            assert!(yielded.iter().all(|o| full.contains(o)));
            assert!((leaves.len() as u64) < seq.complete);
        }
    }

    #[test]
    fn recording_search_matches_plain_search() {
        let p = mixed_program();
        let plain = allowed_outcomes(&p);
        let seq_stats = for_each_valid_execution(&p, |_| ControlFlow::Continue(()));
        for workers in [1, 2, 8] {
            let (outs, stats, leaves) = allowed_outcomes_recording(&p, workers);
            assert_eq!(outs, plain, "workers={workers}");
            assert_eq!(stats.nodes, seq_stats.nodes, "workers={workers}");
            assert_eq!(stats.complete, seq_stats.complete, "workers={workers}");
            assert_eq!(
                leaves.len() as u64,
                stats.complete,
                "one recorded leaf per complete assignment"
            );
        }
    }

    #[test]
    fn empty_and_read_free_programs_work_in_parallel() {
        let empty = Program::new();
        assert_eq!(allowed_outcomes_par(&empty, 8), allowed_outcomes(&empty));

        let mut b = ProgramBuilder::new();
        b.thread().write(X, 7);
        let p = b.build();
        assert_eq!(allowed_outcomes_par(&p, 8), allowed_outcomes(&p));
        assert!(outcome_allowed_par(&p, 8, |rv| rv.is_empty()));
    }
}

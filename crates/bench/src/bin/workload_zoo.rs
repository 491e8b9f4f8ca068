//! Synchronization-zoo comparison: every lock/channel kernel on the full
//! Table 2 machine under all three RMW atomicities, recorded as
//! `BENCH_zoo.json`.
//!
//! This is the "Table 3 at scale" experiment for real algorithms instead
//! of statistical trace profiles: each zoo kernel is an actual protocol
//! (TAS/ticket/futex mutexes, reader-writer locks, condvar, SPSC ring,
//! one-shot channel, Arc refcount stress) with a machine-checkable
//! invariant. For every `(kernel, atomicity)` cell the row records the
//! simulated cost (cycles, RMW cost, overhead fraction) and the
//! contention/fairness profile (spin retries and cycles, futex
//! wait/wake/blocked counters, lock handoffs and wake-to-acquire
//! latency, per-core work spread) — and asserts:
//!
//! * the kernel's correctness invariant holds (mutual exclusion, FIFO
//!   order, refcount balance, …) — atomicity changes *when* RMWs cost,
//!   never *what* the protocol computes;
//! * both step engines produce cycle-identical results
//!   (`results_match`), extending the engine-equivalence contract to
//!   futex/branch/register control flow at paper scale;
//! * per kernel, the final memory image is identical across the three
//!   atomicities (`outcome_invariant`).
//!
//! Usage:
//!
//! ```console
//! $ cargo run --release -p bench --bin workload_zoo [-- --smoke] [--out PATH]
//! ```

use bench::config_for;
use harness::jsonx::Value;
use rmw_types::Atomicity;
use tso_sim::{Machine, SimResult, SimStats, StepMode};
use workloads::zoo::ZooKernel;

struct Row {
    kernel: ZooKernel,
    atomicity: Atomicity,
    stats: SimStats,
    /// min/max per-core ops among participating cores — 1.0 is perfectly
    /// fair, small values mean some cores starved.
    fairness: f64,
    invariant_ok: bool,
    results_match: bool,
}

fn fairness(r: &SimResult) -> f64 {
    let busy: Vec<u64> = r
        .per_core
        .iter()
        .map(|s| s.ops)
        .filter(|&ops| ops > 0)
        .collect();
    let max = busy.iter().copied().max().unwrap_or(0);
    let min = busy.iter().copied().min().unwrap_or(0);
    if max == 0 {
        return 1.0;
    }
    min as f64 / max as f64
}

/// Cycle ceiling per cell. `paper_table2` leaves `max_cycles` unbounded,
/// and spinning counts as watchdog progress, so a spin-kernel resonance
/// would otherwise hang the bench forever instead of failing a row. The
/// slowest legitimate cell (condvar, iters=12) needs ~4.5M cycles.
const CYCLE_CEILING: u64 = 50_000_000;

fn measure(kernel: ZooKernel, atomicity: Atomicity, n: usize, iters: u64) -> (Row, SimResult) {
    let mut cfg = config_for(n, atomicity);
    cfg.max_cycles = CYCLE_CEILING;
    let traces = kernel.traces(n, iters);
    cfg.step_mode = StepMode::EventDriven;
    let ev = Machine::new(cfg, traces.clone()).run();
    cfg.step_mode = StepMode::Lockstep;
    let ls = Machine::new(cfg, traces).run();
    let results_match = ev.first_difference(&ls).is_none();
    let invariant_ok = kernel.check(&ev, n, iters).is_ok();
    let row = Row {
        kernel,
        atomicity,
        stats: ev.stats,
        fairness: fairness(&ev),
        invariant_ok,
        results_match,
    };
    (row, ev)
}

fn to_json(
    rows: &[Row],
    invariant: &[(ZooKernel, bool)],
    mode: &str,
    n: usize,
    iters: u64,
) -> String {
    let cells: Value = rows
        .iter()
        .map(|r| {
            let st = &r.stats;
            Value::obj()
                .with("kernel", r.kernel.name())
                .with("atomicity", r.atomicity.to_string())
                .with("cycles", st.cycles)
                .with("rmw_count", st.rmw_count)
                .with("avg_rmw_cost", st.avg_rmw_cost())
                .with("rmw_overhead_fraction", st.rmw_overhead_fraction())
                .with("spin_retries", st.spin_retries)
                .with("spin_cycles", st.spin_cycles)
                .with("futex_waits", st.futex_waits)
                .with("futex_immediate", st.futex_immediate)
                .with("futex_wakes", st.futex_wakes)
                .with("futex_wakeups", st.futex_wakeups)
                .with("blocked_cycles", st.blocked_cycles)
                .with("handoffs", st.handoffs)
                .with("avg_wake_to_acquire", st.avg_wake_to_acquire())
                .with("fairness_min_max_ops", r.fairness)
                .with("invariant_ok", r.invariant_ok)
                .with("results_match", r.results_match)
        })
        .collect();
    let kernels: Value = invariant
        .iter()
        .map(|&(k, outcome_invariant)| {
            let by_atomicity = rows
                .iter()
                .filter(|r| r.kernel == k)
                .fold(Value::obj(), |o, r| {
                    o.with(&r.atomicity.to_string(), r.stats.cycles)
                });
            Value::obj()
                .with("kernel", k.name())
                .with("outcome_invariant", outcome_invariant)
                .with("cycles_by_atomicity", by_atomicity)
        })
        .collect();
    Value::obj()
        .with("experiment", "workload_zoo")
        .with("paper", harness::report::PAPER)
        .with("mode", mode)
        .with(
            "machine",
            Value::obj().with("cores", n).with("table2", true),
        )
        .with("iters_per_core", iters)
        .with("rows", cells)
        .with("kernels", kernels)
        .to_json()
}

fn usage() -> ! {
    eprintln!("usage: workload_zoo [--smoke] [--out PATH]");
    std::process::exit(2);
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_zoo.json".to_owned();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                out_path = it.next().unwrap_or_else(|| {
                    eprintln!("--out needs a value");
                    usage()
                })
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }

    // The full Table 2 machine in both modes; smoke only trims the
    // per-core iteration count (CI must still cover every cell).
    let n = 32;
    let iters = if smoke { 3 } else { 12 };

    let mode = if smoke { "smoke" } else { "full" };
    println!(
        "workload_zoo ({mode}): {} kernels x 3 atomicities on the {n}-core Table 2 machine",
        ZooKernel::ALL.len()
    );
    println!(
        "{:<18} {:>8} {:>10} {:>9} {:>8} {:>8} {:>8} {:>9} {:>6}",
        "kernel", "atom", "cycles", "rmw cost", "spins", "waits", "handoffs", "fairness", "ok"
    );
    let mut rows: Vec<Row> = Vec::new();
    let mut invariant: Vec<(ZooKernel, bool)> = Vec::new();
    let mut failed = false;
    for kernel in ZooKernel::ALL {
        let mut memories = Vec::new();
        for atomicity in Atomicity::ALL {
            let (row, result) = measure(kernel, atomicity, n, iters);
            println!(
                "{:<18} {:>8} {:>10} {:>9.1} {:>8} {:>8} {:>8} {:>9.3} {:>6}",
                row.kernel.name(),
                row.atomicity.to_string(),
                row.stats.cycles,
                row.stats.avg_rmw_cost(),
                row.stats.spin_retries,
                row.stats.futex_waits,
                row.stats.handoffs,
                row.fairness,
                row.invariant_ok && row.results_match
            );
            if !row.invariant_ok || !row.results_match {
                eprintln!(
                    "ERROR: {} {}: invariant_ok={} results_match={}",
                    kernel, atomicity, row.invariant_ok, row.results_match
                );
                failed = true;
            }
            memories.push(result.memory);
            rows.push(row);
        }
        let outcome_invariant = memories.windows(2).all(|w| w[0] == w[1]);
        if !outcome_invariant {
            eprintln!("ERROR: {kernel}: final memory differs between atomicities");
            failed = true;
        }
        invariant.push((kernel, outcome_invariant));
    }

    let json = to_json(&rows, &invariant, mode, n, iters);
    std::fs::write(&out_path, &json).expect("write BENCH_zoo.json");
    println!("\nwrote {out_path}");
    if failed {
        std::process::exit(1);
    }
}

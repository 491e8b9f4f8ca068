//! The `paper-fig11` workload: every `workloads::Benchmark` under all
//! three RMW types on the Table 2 machine, one independent sim per cell
//! on `exec-pool`, and the simulated result scored against the paper.
//!
//! Cells call `Machine` directly rather than `bench::run`, which panics
//! on deadlock: a deadlocked or truncated cell is counted as failed.

use crate::report::{median, median_metrics, peak_rss_mb, reset_peak_rss, Metrics, RunResult};
use crate::spec::type_tag;
use crate::tracing::secs;
use rmw_types::Atomicity;
use std::time::Instant;
use tso_sim::stats::EngineStats;
use tso_sim::{Machine, NetTraffic, SimConfig, SimStats};
use workloads::Benchmark;

/// Workload size.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub cores: usize,
    pub memops: usize,
}

/// The paper's machine, 32 cores, at a quarter of its 100k memory
/// operations per core. A 100k sweep takes 16–20 s on a 2-thread host,
/// so a run holds only one or two; host speed swings up to 2× over a few
/// seconds, and two-sweep runs spread past the timing bounds. At 25k a
/// sweep takes about 4 s and a run reports the median of five or more.
pub const FULL: Size = Size {
    cores: 32,
    memops: 25_000,
};

pub const TINY: Size = Size {
    cores: 2,
    memops: 400,
};

/// Fig. 11(a): type-2 saves 38.6–58.9 % of the type-1 cost.
const T2_SAVING_BAND: (f64, f64) = (38.6, 58.9);
/// Fig. 11(a): the write-buffer drain is 58.0 % of the type-1 cost.
const WB_SHARE_PAPER: f64 = 58.0;

/// Table 3: % of type-2/3 RMWs that drain the write buffer (the paper
/// reports one `wsq-mst` row for both variants).
fn table3_drain_pct(b: Benchmark) -> f64 {
    match b {
        Benchmark::Radiosity => 0.06,
        Benchmark::Raytrace => 0.12,
        Benchmark::Fluidanimate => 0.09,
        Benchmark::Dedup => 0.20,
        Benchmark::Bayes => 0.01,
        Benchmark::Genome => 0.10,
        Benchmark::WsqMstWr | Benchmark::WsqMstRr => 0.07,
    }
}

/// The deterministic result of one cell: everything the sim reports
/// except the read values and final memory, which are dropped in the
/// worker to keep memory flat.
#[derive(Clone, Debug, PartialEq)]
struct Cell {
    stats: SimStats,
    net: NetTraffic,
    engine: EngineStats,
    deadlocked: bool,
    truncated: bool,
}

/// Host time of one cell.
#[derive(Clone, Copy, Default)]
struct CellTime {
    gen_s: f64,
    new_s: f64,
    run_s: f64,
}

fn cells() -> Vec<(Benchmark, Atomicity)> {
    Benchmark::ALL
        .iter()
        .flat_map(|&b| Atomicity::ALL.map(|a| (b, a)))
        .collect()
}

fn config(size: Size, atomicity: Atomicity) -> SimConfig {
    let mut cfg = SimConfig::paper_scaled(size.cores);
    cfg.rmw_atomicity = atomicity;
    cfg
}

fn run_cell(
    bench: Benchmark,
    atomicity: Atomicity,
    size: Size,
    seed: u64,
    traced: bool,
) -> (Cell, CellTime) {
    let mut time = CellTime::default();
    let r = if traced {
        let t = Instant::now();
        let traces = workloads::benchmark(bench, size.cores, size.memops, seed);
        time.gen_s = secs(t);
        let t = Instant::now();
        let machine = Machine::new(config(size, atomicity), traces);
        time.new_s = secs(t);
        let t = Instant::now();
        let r = machine.run();
        time.run_s = secs(t);
        r
    } else {
        let traces = workloads::benchmark(bench, size.cores, size.memops, seed);
        Machine::new(config(size, atomicity), traces).run()
    };
    let cell = Cell {
        stats: r.stats,
        net: r.net,
        engine: r.engine,
        deadlocked: r.deadlocked,
        truncated: r.truncated,
    };
    (cell, time)
}

/// One sweep of all cells on the pool. Returns cells, per-cell times
/// (when traced) and wall time.
fn sweep(size: Size, seed: u64, traced: bool) -> (Vec<Cell>, Vec<CellTime>, f64) {
    let cells = cells();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t = Instant::now();
    let out = exec_pool::run_all(workers.min(cells.len()), cells.len(), |_, i| {
        run_cell(cells[i].0, cells[i].1, size, seed, traced)
    });
    let wall = secs(t);
    let (cells, times) = out.into_iter().unzip();
    (cells, times, wall)
}

/// The set-up: generate every benchmark's traces once, recording how many
/// memory operations each holds (the sims must retire exactly these).
fn setup(size: Size, seed: u64) -> Vec<u64> {
    Benchmark::ALL
        .iter()
        .map(|&b| {
            workloads::benchmark(b, size.cores, size.memops, seed)
                .iter()
                .map(|t| t.mem_ops() as u64)
                .sum()
        })
        .collect()
}

fn per_rmw(cycles: u64, s: &SimStats) -> f64 {
    cycles as f64 / s.rmw_count.max(1) as f64
}

fn mean(v: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = v.into_iter().collect();
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Simulated metrics (exact) and the accuracy against the paper.
fn modelled(cells: &[Cell], m: &mut Metrics) {
    let by = |bi: usize, ai: usize| &cells[bi * 3 + ai].stats;
    let n = Benchmark::ALL.len();
    for (ai, a) in Atomicity::ALL.iter().enumerate() {
        let tag = type_tag(*a);
        m.insert(
            format!("rmw_cost.{tag}"),
            mean((0..n).map(|bi| by(bi, ai).avg_rmw_cost())),
        );
        m.insert(
            format!("rmw.rawa_cycles.{tag}"),
            mean((0..n).map(|bi| per_rmw(by(bi, ai).rmw_cost.ra_wa_cycles, by(bi, ai)))),
        );
        for (bi, b) in Benchmark::ALL.iter().enumerate() {
            m.insert(
                format!("rmw_cost.{}.{tag}", b.name()),
                by(bi, ai).avg_rmw_cost(),
            );
        }
    }
    m.insert(
        "rmw.wb_cycles.t1".to_owned(),
        mean((0..n).map(|bi| per_rmw(by(bi, 0).rmw_cost.write_buffer_cycles, by(bi, 0)))),
    );
    // Table 3's drain and broadcast columns are measured with type-2 RMWs.
    for (bi, b) in Benchmark::ALL.iter().enumerate() {
        m.insert(
            format!("bloom.drain_pct.{}", b.name()),
            by(bi, 1).pct_drains(),
        );
    }
    let sum = |f: &dyn Fn(&Cell) -> u64| cells.iter().map(f).sum::<u64>() as f64;
    m.insert("bloom.resets".to_owned(), sum(&|c| c.stats.bloom_resets));
    m.insert(
        "coherence.lock_retries".to_owned(),
        sum(&|c| c.stats.lock_retries),
    );
    m.insert(
        "tso_sim.wb_full_stalls".to_owned(),
        sum(&|c| c.stats.wb_full_stalls),
    );
    m.insert("interconnect.messages".to_owned(), sum(&|c| c.net.messages));
    m.insert("interconnect.hops".to_owned(), sum(&|c| c.net.hops));
    m.insert(
        "interconnect.broadcast_messages".to_owned(),
        sum(&|c| c.net.broadcast_messages),
    );
    m.insert(
        "interconnect.broadcasts_per_100".to_owned(),
        mean((0..n).map(|bi| by(bi, 1).broadcasts_per_100())),
    );

    // Accuracy against Fig. 11(a) and Table 3.
    let (lo, hi) = T2_SAVING_BAND;
    let mut gaps = Vec::new();
    let mut violations = 0u64;
    let mut drain_gaps = Vec::new();
    let mut wb_shares = Vec::new();
    for (bi, b) in Benchmark::ALL.iter().enumerate() {
        let [c1, c2, c3] = [0, 1, 2].map(|ai| by(bi, ai).avg_rmw_cost());
        let saving = 100.0 * (c1 - c2) / c1;
        gaps.push((lo - saving).max(saving - hi).max(0.0));
        if !(c1 > c2 && c2 >= c3) {
            violations += 1;
        }
        drain_gaps.push((by(bi, 1).pct_drains() - table3_drain_pct(*b)).abs());
        wb_shares.push(100.0 * per_rmw(by(bi, 0).rmw_cost.write_buffer_cycles, by(bi, 0)) / c1);
    }
    m.insert("t2_saving_gap_pp".to_owned(), mean(gaps));
    m.insert("rmw_order_violations".to_owned(), violations as f64);
    m.insert("drain_gap_pp".to_owned(), mean(drain_gaps));
    m.insert(
        "wb_share_gap_pp".to_owned(),
        (mean(wb_shares) - WB_SHARE_PAPER).abs(),
    );
}

/// Host-side metrics of one traced sweep.
fn host_layers(cells: &[Cell], times: &[CellTime], m: &mut Metrics) {
    let runs_ms: Vec<f64> = times.iter().map(|t| t.run_s * 1e3).collect();
    m.insert(
        "workloads.gen_s".to_owned(),
        times.iter().map(|t| t.gen_s).sum(),
    );
    m.insert(
        "tso_sim.new_s".to_owned(),
        times.iter().map(|t| t.new_s).sum(),
    );
    m.insert(
        "tso_sim.run_s".to_owned(),
        times.iter().map(|t| t.run_s).sum(),
    );
    m.insert("tso_sim.run_p50_ms".to_owned(), median(&runs_ms));
    m.insert("tso_sim.run_samples".to_owned(), runs_ms.len() as f64);
    m.insert("tso_sim.machine_runs".to_owned(), cells.len() as f64);
    let cycles: u64 = cells.iter().map(|c| c.stats.cycles).sum();
    let run_ns: f64 = times.iter().map(|t| t.run_s * 1e9).sum();
    m.insert(
        "tso_sim.host_ns_per_cycle".to_owned(),
        run_ns / cycles.max(1) as f64,
    );
    let e = |f: &dyn Fn(&EngineStats) -> u64| cells.iter().map(|c| f(&c.engine)).sum::<u64>();
    let ticks = e(&|s| s.ticks);
    m.insert(
        "tso_sim.engine.visited_cycles".to_owned(),
        e(&|s| s.visited_cycles) as f64,
    );
    m.insert("tso_sim.engine.ticks".to_owned(), ticks as f64);
    m.insert(
        "tso_sim.engine.acting_ratio".to_owned(),
        e(&|s| s.acting_ticks) as f64 / ticks.max(1) as f64,
    );
    m.insert(
        "tso_sim.engine.events_armed".to_owned(),
        e(&|s| s.events_armed) as f64,
    );
    m.insert(
        "tso_sim.engine.dense_cycles".to_owned(),
        e(&|s| s.dense_cycles) as f64,
    );
}

/// Checks one sweep: no deadlock or truncation, every input memory
/// operation retired, and the same simulated statistics as the first
/// sweep. Returns the number of failed cells.
fn check(results: &[Cell], memops: &[u64], reference: &[Cell], errors: &mut Vec<String>) -> u64 {
    let mut failed = 0;
    for (i, ((b, a), c)) in cells().iter().zip(results).enumerate() {
        let bi = i / 3;
        let mut why = Vec::new();
        if c.deadlocked {
            why.push("deadlocked".to_owned());
        }
        if c.truncated {
            why.push("truncated".to_owned());
        }
        if c.stats.mem_ops != memops[bi] {
            why.push(format!(
                "retired {} of {} memory operations",
                c.stats.mem_ops, memops[bi]
            ));
        }
        if *c != reference[i] {
            why.push("statistics differ from the warm-up sweep".to_owned());
        }
        if !why.is_empty() {
            failed += 1;
            errors.push(format!("{b} {a}: {}", why.join(", ")));
        }
    }
    failed
}

/// Runs `paper-fig11`: an untimed warm-up sweep, whose statistics every
/// later sweep must repeat, then timed sweeps while `seconds` last, at
/// least [`crate::MIN_SWEEPS`] of them.
pub fn run(seed: u64, seconds: f64, trace: bool, size: Size) -> RunResult {
    let mut errors = Vec::new();
    let mut setups = Vec::new();
    let mut memops = Vec::new();
    for _ in 0..crate::SETUP_REPS {
        let t = Instant::now();
        let m = setup(size, seed);
        setups.push(secs(t));
        if !memops.is_empty() && memops != m {
            errors.push("trace generation is not deterministic".to_owned());
        }
        memops = m;
    }

    let mut walls = Vec::new();
    let mut rss = Vec::new();
    let mut traced_walls = Vec::new();
    let mut layer_reps = Vec::new();
    // The warm-up sweep pays first-touch page faults and heap growth.
    let (reference, _, wall) = sweep(size, seed, false);
    eprintln!("warm-up sweep: {wall:.3} s");
    let mut failed = check(&reference, &memops, &reference, &mut errors);
    let mut attempted = reference.len() as u64;
    let started = Instant::now();
    loop {
        // With tracing on, untraced and traced sweeps alternate.
        let traced = trace && walls.len() > traced_walls.len();
        reset_peak_rss();
        let (cells, times, wall) = sweep(size, seed, traced);
        eprintln!("sweep {}: {wall:.3} s", walls.len() + traced_walls.len());
        failed += check(&cells, &memops, &reference, &mut errors);
        attempted += cells.len() as u64;
        if traced {
            traced_walls.push(wall);
            let mut m = Metrics::new();
            host_layers(&cells, &times, &mut m);
            modelled(&cells, &mut m);
            layer_reps.push(m);
        } else {
            walls.push(wall);
            rss.push(peak_rss_mb());
        }
        let done = if trace {
            traced_walls.len() == walls.len()
        } else {
            walls.len() >= crate::MIN_SWEEPS
        };
        if done && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let wall = median(&walls);
    let mut metrics = Metrics::new();
    if trace {
        metrics = median_metrics(&layer_reps);
        let traced_wall = median(&traced_walls);
        metrics.insert(
            "bench.trace_overhead_pct".to_owned(),
            100.0 * (traced_wall - wall) / wall,
        );
        metrics.insert("fail_ratio".to_owned(), failed as f64 / attempted as f64);
    } else {
        let sim_memops: u64 = memops.iter().sum::<u64>() * Atomicity::ALL.len() as u64;
        metrics.insert("setup_s".to_owned(), median(&setups));
        metrics.insert("wall_s".to_owned(), wall);
        metrics.insert("tests_per_s".to_owned(), cells().len() as f64 / wall);
        metrics.insert("sim_memops_per_s".to_owned(), sim_memops as f64 / wall);
        metrics.insert("peak_rss_mb".to_owned(), median(&rss));
    }
    RunResult {
        metrics,
        attempted,
        failed,
        errors,
    }
}

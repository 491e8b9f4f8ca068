//! Simulator engine scaling: the event-driven cycle-skipping engine vs.
//! the lockstep reference, recorded as `BENCH_sim.json`.
//!
//! Two families of shapes, all on paper-latency machines:
//!
//! * **§4 workload kernels** (spinlock suite, TL2-style STM, Chase–Lev
//!   work stealing) at 32 cores — dense shapes where some core acts almost
//!   every cycle, so the bound on any cycle-skipping engine is the share
//!   of real transaction work; expect low single-digit speedups.
//! * **The litmus corpus on the full Table 2 machine** — the
//!   configuration the scheduler exists for (and what the differential
//!   harness's `--machine paper` runs): a handful of threads doing cold
//!   300-cycle misses while 26+ of the 32 cores idle. Lockstep burns 32
//!   ticks every cycle; the event engine visits a few dozen cycles per
//!   test. This is the paper-scale headline shape with the ≥10× floor.
//!
//! A third family scales the machine itself: 128- and 256-core
//! Table-2-latency configurations (`SimConfig::paper_scaled`), where
//! lockstep pays the full core count every cycle and the event engine
//! must not.
//!
//! Every shape runs both [`StepMode`]s over identical inputs and asserts
//! the results are **cycle-identical** (`SimResult::first_difference`,
//! the engine-equivalence contract of `tso-sim/tests/engine_equiv.rs`)
//! before recording the wall-clock ratios. The JSON states the host's
//! `host_parallelism`.
//!
//! Usage:
//!
//! ```console
//! $ cargo run --release -p bench --bin sim_scaling [-- --smoke] [--out PATH]
//! ```

use bench::{config_for, SEED};
use harness::jsonx::Value;
use rmw_types::Atomicity;
use std::time::Instant;
use tso_sim::{lower_with_line_size, Machine, SimConfig, SimResult, StepMode, Trace};
use workloads::Benchmark;

enum Shape {
    /// One §4 kernel at `cores` × `memops` under one atomicity.
    Kernel {
        bench: Benchmark,
        cores: usize,
        memops: usize,
        atomicity: Atomicity,
    },
    /// The hand-written classic + paper litmus corpus plus the generator
    /// families, each test × all three atomicities, on the full Table 2
    /// machine.
    LitmusCorpus,
    /// The generator families scaled to 16–24 threads on the Table 2
    /// machine — the corpus shapes the ROADMAP wants the harness to grow
    /// into: long cold-miss chains where the machine sits idle for
    /// hundreds of cycles at a time while lockstep ticks all 32 cores.
    LitmusAtScale,
}

impl Shape {
    fn name(&self) -> String {
        match self {
            Shape::Kernel {
                bench,
                cores,
                memops,
                atomicity,
            } => format!("{bench} {cores}x{memops} {atomicity}"),
            Shape::LitmusCorpus => "litmus_corpus 32-core table2 x3 atomicities".to_owned(),
            Shape::LitmusAtScale => "litmus_families 16-24 threads table2".to_owned(),
        }
    }

    fn cores(&self) -> usize {
        match self {
            Shape::Kernel { cores, .. } => *cores,
            Shape::LitmusCorpus | Shape::LitmusAtScale => 32,
        }
    }

    /// The runs of this shape: `(config, traces)` pairs executed
    /// back-to-back under one clock.
    fn runs(&self) -> Vec<(SimConfig, Vec<Trace>)> {
        match self {
            Shape::Kernel {
                bench,
                cores,
                memops,
                atomicity,
            } => {
                let cfg = config_for(*cores, *atomicity);
                vec![(cfg, workloads::benchmark(*bench, *cores, *memops, SEED))]
            }
            Shape::LitmusCorpus => {
                // Classic + paper + the scaled generator families (the
                // seeded-random tail adds nothing but setup time here:
                // random shapes are as small as the classic ones).
                let mut tests = litmus::classic::all();
                tests.extend(litmus::paper::all());
                tests.extend(litmus::gen::generated_corpus(litmus::gen::DEFAULT_SEED, 0));
                let mut runs = Vec::new();
                for l in &tests {
                    for atomicity in Atomicity::ALL {
                        let prog = l.program.with_atomicity(atomicity);
                        let cfg = config_for(32, atomicity);
                        runs.push((cfg, lower_with_line_size(&prog, cfg.line_size)));
                    }
                }
                runs
            }
            Shape::LitmusAtScale => {
                let tests = [
                    litmus::gen::sb_ring(16),
                    litmus::gen::sb_ring(24),
                    litmus::gen::mp_chain(16),
                    litmus::gen::mp_chain(24),
                    litmus::gen::lb_ring(16),
                    litmus::gen::two_two_w_ring(16),
                    litmus::gen::iriw(10),
                ];
                tests
                    .iter()
                    .map(|l| {
                        let cfg = config_for(32, Atomicity::Type2);
                        (cfg, lower_with_line_size(&l.program, cfg.line_size))
                    })
                    .collect()
            }
        }
    }
}

struct Row {
    name: String,
    cores: usize,
    runs: usize,
    cycles: u64,
    event_ms: f64,
    lockstep_ms: f64,
    results_match: bool,
    paper_scale: bool,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.lockstep_ms / self.event_ms.max(1e-6)
    }
}

fn run_all(runs: &[(SimConfig, Vec<Trace>)], mode: StepMode) -> (Vec<SimResult>, f64) {
    let start = Instant::now();
    let results: Vec<SimResult> = runs
        .iter()
        .map(|(cfg, traces)| {
            let mut cfg = *cfg;
            cfg.step_mode = mode;
            Machine::new(cfg, traces.clone()).run()
        })
        .collect();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    (results, ms)
}

/// Timed passes per engine; the minimum is reported (robust against
/// scheduler noise on shared machines).
const PASSES: usize = 5;

/// Cycle-identity of two result sets (the engine-equivalence contract).
fn same_results(a: &[SimResult], b: &[SimResult]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(a, b)| a.first_difference(b).is_none())
}

fn measure(shape: &Shape) -> Row {
    let runs = shape.runs();
    // Warm-up (allocator growth, page faults) so no engine pays
    // first-run costs; then timed passes over identical inputs.
    let _ = run_all(&runs, StepMode::EventDriven);
    let (ev, mut event_ms) = run_all(&runs, StepMode::EventDriven);
    let (ls, mut lockstep_ms) = run_all(&runs, StepMode::Lockstep);
    // The remaining passes alternate the engine order: slow drift in
    // machine speed (frequency scaling, throttling) would otherwise
    // systematically tax whichever engine always ran second.
    const ORDER: [StepMode; 2] = [StepMode::EventDriven, StepMode::Lockstep];
    for p in 1..PASSES {
        for k in 0..ORDER.len() {
            let mode = ORDER[(p + k) % ORDER.len()];
            let ms = run_all(&runs, mode).1;
            match mode {
                StepMode::EventDriven => event_ms = event_ms.min(ms),
                StepMode::Lockstep => lockstep_ms = lockstep_ms.min(ms),
            }
        }
    }
    let results_match = same_results(&ev, &ls);
    assert!(
        ev.iter().all(|r| !r.deadlocked),
        "{}: deadlocked — the avoidance scheme failed",
        shape.name()
    );
    Row {
        name: shape.name(),
        cores: shape.cores(),
        runs: runs.len(),
        cycles: ev.iter().map(|r| r.stats.cycles).sum(),
        event_ms,
        lockstep_ms,
        results_match,
        paper_scale: shape.cores() == 32,
    }
}

fn to_json(rows: &[Row], mode: &str, host_parallelism: usize) -> String {
    let shapes: Value = rows
        .iter()
        .map(|r| {
            Value::obj()
                .with("name", r.name.as_str())
                .with("cores", r.cores)
                .with("machine_runs", r.runs)
                .with("simulated_cycles", r.cycles)
                .with("event_ms", r.event_ms)
                .with("lockstep_ms", r.lockstep_ms)
                .with("speedup", r.speedup())
                .with("paper_scale", r.paper_scale)
                .with("results_match", r.results_match)
        })
        .collect();
    // Headline: the best paper-scale (32-core) shape — the corpus-on-
    // Table-2 configuration the scheduler was built for. The kernel rows
    // stay recorded as the dense lower bound.
    let headline: Vec<&Row> = {
        let paper: Vec<&Row> = rows.iter().filter(|r| r.paper_scale).collect();
        if paper.is_empty() {
            rows.iter().collect()
        } else {
            paper
        }
    };
    let max = headline.iter().map(|r| r.speedup()).fold(0.0, f64::max);
    let geomean = if headline.is_empty() {
        0.0
    } else {
        let log_sum: f64 = headline.iter().map(|r| r.speedup().ln()).sum();
        (log_sum / headline.len() as f64).exp()
    };
    Value::obj()
        .with("experiment", "sim_scaling")
        .with("paper", harness::report::PAPER)
        .with("mode", mode)
        .with("host_parallelism", host_parallelism)
        .with("shapes", shapes)
        .with(
            "headline",
            Value::obj()
                .with("count", headline.len())
                .with("paper_scale", headline.iter().all(|r| r.paper_scale))
                .with("max_speedup", max)
                .with("geomean_speedup", geomean),
        )
        .to_json()
}

fn usage() -> ! {
    eprintln!("usage: sim_scaling [--smoke] [--out PATH]");
    std::process::exit(2);
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_sim.json".to_owned();
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

    let shapes: Vec<Shape> = if smoke {
        vec![
            Shape::LitmusCorpus,
            Shape::LitmusAtScale,
            // One scaled-machine row so CI proves the 128-core engines
            // agree, not just the paper-scale ones.
            Shape::Kernel {
                bench: Benchmark::Genome,
                cores: 128,
                memops: 2_000,
                atomicity: Atomicity::Type2,
            },
        ]
    } else {
        let kernel = |bench, atomicity| Shape::Kernel {
            bench,
            cores: 32,
            memops: 20_000,
            atomicity,
        };
        vec![
            Shape::LitmusCorpus,
            Shape::LitmusAtScale,
            kernel(Benchmark::Radiosity, Atomicity::Type1),
            kernel(Benchmark::Radiosity, Atomicity::Type2),
            kernel(Benchmark::Bayes, Atomicity::Type2),
            kernel(Benchmark::WsqMstRr, Atomicity::Type3),
            // The scaled machines the paper never evaluated: same Table 2
            // latencies, 128/256 cores. Lockstep pays every core every
            // cycle; the event engine must not.
            Shape::Kernel {
                bench: Benchmark::Genome,
                cores: 128,
                memops: 2_000,
                atomicity: Atomicity::Type2,
            },
            Shape::Kernel {
                bench: Benchmark::Raytrace,
                cores: 256,
                memops: 1_000,
                atomicity: Atomicity::Type3,
            },
        ]
    };

    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mode = if smoke { "smoke" } else { "full" };
    println!(
        "sim_scaling ({mode}): event-driven vs lockstep reference (host parallelism {host_parallelism})"
    );
    println!(
        "{:<42} {:>12} {:>9} {:>12} {:>7}",
        "shape", "sim cycles", "event ms", "lockstep ms", "ev x"
    );
    let mut rows = Vec::new();
    for shape in &shapes {
        let row = measure(shape);
        println!(
            "{:<42} {:>12} {:>9.1} {:>12.1} {:>6.1}x",
            row.name,
            row.cycles,
            row.event_ms,
            row.lockstep_ms,
            row.speedup()
        );
        if !row.results_match {
            eprintln!("ERROR: {}: engines disagree", row.name);
            std::process::exit(1);
        }
        rows.push(row);
    }

    let json = to_json(&rows, mode, host_parallelism);
    std::fs::write(&out_path, &json).expect("write BENCH_sim.json");
    println!("\nwrote {out_path}");
}

//! The repository benchmark: one command, the workloads of
//! `BENCHMARK.json`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload litmus-warm|paper-fig11 --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing;
//! `--trace 1` alternates untraced and traced repetitions and reports the
//! per-layer metrics plus the tracing overhead. The last stdout line is
//! the run's JSON result. `--write-spec PATH` renders `BENCHMARK.json`.
//! `--size tiny` shrinks every workload for a quick self-check.

mod campaign;
mod fig11;
mod report;
mod spec;
mod tracing;

use report::{Metrics, RunResult};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// `paper-fig11` set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Fewest untraced litmus repetitions per run.
pub const MIN_REPS: usize = 3;
/// Fewest timed sweeps per `paper-fig11` run, after its warm-up sweep.
pub const MIN_SWEEPS: usize = 3;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
}

fn usage(msg: &str) -> String {
    format!(
        "{msg}\nusage: repo-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--size tiny|full]\n       repo-benchmark --write-spec PATH"
    )
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| usage(&format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| usage("bad --seed"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| usage("bad --seconds"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(usage("bad --seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(usage("--trace takes 0 or 1")),
                })
            }
            "--size" => {
                tiny = match value.as_str() {
                    "tiny" => true,
                    "full" => false,
                    _ => return Err(usage("--size takes tiny or full")),
                }
            }
            _ => return Err(usage(&format!("unknown flag {flag}"))),
        }
    }
    let workload: String = workload.ok_or_else(|| usage("missing --workload"))?;
    if !spec::WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(usage(&format!("unknown workload {workload}")));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or_else(|| usage("missing --seed"))?,
        seconds: seconds.ok_or_else(|| usage("missing --seconds"))?,
        trace: trace.ok_or_else(|| usage("missing --trace"))?,
        tiny,
    })
}

/// Units of every metric a run of this mode must emit.
pub fn expected_units(trace: bool) -> BTreeMap<String, &'static str> {
    if trace {
        spec::per_layer()
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        spec::END_TO_END
            .iter()
            .map(|m| (m.name.to_owned(), m.unit))
            .collect()
    }
}

/// Runs one workload. Per-layer metrics of a layer the workload does not
/// run are reported as 0.
///
/// # Panics
///
/// Panics if a workload emits a metric the spec does not define.
pub fn run(args: &Args, work_dir: &std::path::Path) -> RunResult {
    let mut r = match args.workload.as_str() {
        "litmus-warm" => {
            let size = if args.tiny {
                campaign::TINY
            } else {
                campaign::FULL
            };
            campaign::run(args.seed, args.seconds, args.trace, size, work_dir)
        }
        "paper-fig11" => {
            let size = if args.tiny { fig11::TINY } else { fig11::FULL };
            fig11::run(args.seed, args.seconds, args.trace, size)
        }
        other => unreachable!("workload {other} was validated"),
    };
    let units = expected_units(args.trace);
    for name in r.metrics.keys() {
        assert!(units.contains_key(name), "metric {name} is not in the spec");
    }
    let mut full = Metrics::new();
    for name in units.keys() {
        full.insert(name.clone(), r.metrics.get(name).copied().unwrap_or(0.0));
    }
    r.metrics = full;
    r
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() == 2 && argv[0] == "--write-spec" {
        return match std::fs::write(&argv[1], spec::render()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("cannot write {}: {e}", argv[1]);
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // Stores and checkpoints live in the checkout, one directory per
    // process, removed when the run ends.
    let work_dir =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("cannot create {}: {e}", work_dir.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(".bench_work");

    let units = expected_units(args.trace);
    for (name, v) in &result.metrics {
        println!("{name:<40} {v:>16.6} {}", units[name]);
    }
    for e in &result.errors {
        eprintln!("error: {e}");
    }
    println!("{}", report::result_json(&result, &units));
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! Harness scaling sweep: differential corpus throughput vs. worker count,
//! recorded as `BENCH_harness.json`.
//!
//! Runs the full litmus corpus (or the smoke subset) through the
//! `harness` batch runner at increasing `--jobs`, recording wall-clock,
//! throughput, and speedup over one worker. Every run must be
//! differentially clean — any model/simulator disagreement aborts the
//! sweep with a nonzero exit.
//!
//! Usage:
//!
//! ```console
//! $ cargo run --release -p bench --bin harness_scaling [-- --smoke] [--out PATH]
//! ```

use harness::jsonx::Value;
use harness::{full_corpus, run_batch, smoke_filter, SMOKE_CAP};
use litmus::Litmus;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_harness.json".to_owned());

    let corpus = full_corpus(litmus::gen::DEFAULT_SEED, litmus::gen::DEFAULT_RANDOM_COUNT);
    let corpus_total = corpus.len();
    let mut tests: Vec<Litmus> = if smoke {
        let mut t: Vec<Litmus> = corpus.into_iter().filter(smoke_filter).collect();
        t.truncate(SMOKE_CAP);
        t
    } else {
        corpus
    };
    // Fixed order for comparable runs.
    tests.sort_by(|a, b| a.name.cmp(&b.name));

    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sweep: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&j| j == 1 || j <= 2 * hw)
        .collect();

    let mode = if smoke { "smoke" } else { "full" };
    println!(
        "harness_scaling ({mode}): {} tests, host parallelism {hw}",
        tests.len()
    );
    println!(
        "{:<6} {:>12} {:>12} {:>9}",
        "jobs", "elapsed ms", "tests/s", "speedup"
    );
    // Untimed warm-up over the FULL selection: it pays the one-time
    // process costs (page faults, lazy init) and fully populates the
    // memoized verdict cache, so every sweep row below runs against the
    // same hot cache and the jobs ratio measures worker scaling, not
    // cache position.
    let _ = run_batch(&tests, 1);
    let cache_after_warmup = tso_model::cache::counters();
    let mut base_ms = None;
    let mut rows: Vec<Value> = Vec::new();
    for &jobs in &sweep {
        let (outcomes, elapsed) = run_batch(&tests, jobs);
        if let Some(bad) = outcomes.iter().find(|o| !o.passed()) {
            eprintln!("ERROR: {}: {}", bad.name, bad.diagnosis());
            std::process::exit(1);
        }
        let elapsed_ms = elapsed.as_secs_f64() * 1e3;
        let tests_per_sec = tests.len() as f64 / elapsed.as_secs_f64().max(1e-9);
        let base = *base_ms.get_or_insert(elapsed_ms);
        println!(
            "{jobs:<6} {elapsed_ms:>12.1} {tests_per_sec:>12.0} {:>8.2}x",
            base / elapsed_ms
        );
        rows.push(
            Value::obj()
                .with("jobs", jobs)
                .with("elapsed_ms", elapsed_ms)
                .with("tests_per_sec", tests_per_sec)
                .with("speedup_vs_jobs1", base / elapsed_ms.max(1e-6)),
        );
    }

    let json = Value::obj()
        .with("experiment", "harness_scaling")
        .with("paper", harness::report::PAPER)
        .with("mode", mode)
        .with("corpus_total", corpus_total)
        .with("selected", tests.len())
        .with("host_parallelism", hw)
        .with("disagreements", 0u64)
        // Memoization accounting at the end of the warm-up pass: `queries`
        // counts every outcome-set lookup (corpus generation + one full
        // differential pass), `invocations` the model searches that
        // actually ran — the gap is the symmetry + memoization saving.
        .with("model_cache", &cache_after_warmup)
        .with("sweep", Value::Arr(rows))
        .to_json();
    std::fs::write(&out_path, json).expect("write BENCH_harness.json");
    println!("\nwrote {out_path}");
}

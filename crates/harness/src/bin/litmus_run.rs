//! `litmus_run` — the parallel differential litmus harness CLI.
//!
//! Runs the full 500+ test corpus (hand-written classic + paper tests,
//! generated families, seeded random programs) through the axiomatic model
//! and the timing simulator under all three RMW atomicities, and reports
//! any disagreement.
//!
//! ```console
//! $ cargo run --release -p harness --bin litmus_run -- [FLAGS]
//! ```
//!
//! Flags (corpus mode, the default):
//!
//! * `--filter SUBSTR` — run only tests whose name contains `SUBSTR`;
//! * `--jobs N` — worker threads (default: available parallelism);
//! * `--smoke` — small-program subset (capped), for CI; the reported
//!   `corpus_total` still counts the full corpus;
//! * `--machine small|paper|128|256` — differential side on the per-test
//!   small machine (default), the full 32-core Table 2 machine, or a
//!   Table-2-latency machine scaled to 128/256 cores;
//! * `--format summary|json|tap` — output format (default `summary`);
//! * `--out PATH` — also write the chosen format to `PATH`;
//! * `--seed N` / `--random N` — corpus generation knobs;
//! * `--store PATH` — persistent verdict store: model search results are
//!   loaded from / appended to `PATH`, so reruns skip proven searches;
//! * `--no-baseline` — skip the `--jobs 1` reference run that the speedup
//!   figure in the JSON report is computed from.
//!
//! Subcommands (see `README.md` for a campaign walkthrough):
//!
//! * `litmus_run campaign` — resumable sharded campaign over the
//!   deterministic `litmus::gen::campaign_draft` stream. Key flags:
//!   `--count N`, `--shard I/N`, `--seed N`, `--store PATH` (default
//!   `verdicts.store`; per-shard files `PATH.i-of-n` when sharded),
//!   `--no-store`, `--checkpoint PATH`, `--resume`, `--chunk N`,
//!   `--jobs N`, `--machine`, `--out PATH`, `--max-chunks N` (stop early
//!   after N chunks — simulates a kill, for testing resume).
//! * `litmus_run merge REPORT...` — fold per-shard campaign reports into
//!   one merged report (validates the shard set is exactly `0..n`).
//! * `litmus_run compact STORE...` — rewrite store files with one record
//!   per key; with `--merge OUT`, fold all inputs into `OUT` first.
//!
//! Exit status is nonzero if any test fails either check (or, for
//! `merge`, if the merged campaign failed).

use harness::campaign::{
    default_checkpoint_name, merge_reports, run_campaign, CampaignConfig, StoreCounters,
    DEFAULT_CHUNK,
};
use harness::store::{SharedStore, Store};
use harness::{faults, full_corpus, run_batch_on, smoke_filter, MachineKind, Report, SMOKE_CAP};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use tso_model::SearchBudget;

struct Args {
    filter: Option<String>,
    jobs: usize,
    smoke: bool,
    format: String,
    out: Option<String>,
    seed: u64,
    random: usize,
    baseline: bool,
    machine: MachineKind,
    store: Option<PathBuf>,
    faults: Option<(u64, u64)>,
    budget_nodes: Option<u64>,
    budget_ms: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: litmus_run [--filter SUBSTR] [--jobs N] [--smoke] [--machine small|paper|128|256]\n\
         \x20                [--format summary|json|tap] [--out PATH] [--seed N] [--random N]\n\
         \x20                [--store PATH] [--no-baseline] [--faults SEED:RATE]\n\
         \x20                [--budget-nodes N] [--budget-ms N]\n\
         \x20      litmus_run campaign [--count N] [--shard I/N] [--seed N] [--jobs N]\n\
         \x20                [--machine small|paper|128|256] [--chunk N] [--store PATH | --no-store]\n\
         \x20                [--checkpoint PATH] [--resume] [--out PATH] [--max-chunks N]\n\
         \x20                [--faults SEED:RATE]\n\
         \x20      litmus_run merge REPORT... [--out PATH]\n\
         \x20      litmus_run compact STORE... [--merge OUT]"
    );
    std::process::exit(2);
}

/// `it.next()` or die — shared by every subcommand's flag parser.
fn next_value(it: &mut impl Iterator<Item = String>, name: &str) -> String {
    it.next().unwrap_or_else(|| {
        eprintln!("{name} needs a value");
        usage()
    })
}

/// Parses a `--faults SEED:RATE` value or dies with usage.
fn parse_faults(spec: &str) -> (u64, u64) {
    faults::parse_spec(spec).unwrap_or_else(|| {
        eprintln!("--faults must be SEED:RATE with RATE a probability in [0, 1] (e.g. 42:0.01)");
        usage()
    })
}

/// Writes a rendered report to `--out`, degrading to a warning on
/// failure: the report is already on stdout, and a full disk must not
/// turn a passing run into a failing one.
fn write_out(path: &str, rendered: &str) {
    let write = std::fs::File::create(path).and_then(|mut f| {
        harness::faults::write_point(&mut f, rendered.as_bytes(), "report.out.write")
    });
    match write {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path} ({e}) — report remains on stdout"),
    }
}

fn parse_corpus_args(rest: Vec<String>) -> Args {
    let mut args = Args {
        filter: None,
        jobs: std::thread::available_parallelism().map_or(2, |n| n.get()),
        smoke: false,
        format: "summary".to_owned(),
        out: None,
        seed: litmus::gen::DEFAULT_SEED,
        random: litmus::gen::DEFAULT_RANDOM_COUNT,
        baseline: true,
        machine: MachineKind::Small,
        store: None,
        faults: None,
        budget_nodes: None,
        budget_ms: None,
    };
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--filter" => args.filter = Some(next_value(&mut it, "--filter")),
            "--jobs" => {
                args.jobs = next_value(&mut it, "--jobs")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--smoke" => args.smoke = true,
            "--format" => args.format = next_value(&mut it, "--format"),
            "--out" => args.out = Some(next_value(&mut it, "--out")),
            "--seed" => {
                args.seed = next_value(&mut it, "--seed")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--random" => {
                args.random = next_value(&mut it, "--random")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--no-baseline" => args.baseline = false,
            "--store" => args.store = Some(PathBuf::from(next_value(&mut it, "--store"))),
            "--faults" => {
                args.faults = Some(parse_faults(&next_value(&mut it, "--faults")));
            }
            "--budget-nodes" => {
                args.budget_nodes = Some(
                    next_value(&mut it, "--budget-nodes")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--budget-ms" => {
                args.budget_ms = Some(
                    next_value(&mut it, "--budget-ms")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--machine" => {
                args.machine =
                    MachineKind::parse(&next_value(&mut it, "--machine")).unwrap_or_else(|| {
                        eprintln!("--machine must be small, paper, 128, or 256");
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
    if !matches!(args.format.as_str(), "summary" | "json" | "tap") {
        eprintln!("unknown format {:?}", args.format);
        usage();
    }
    args
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("campaign") => {
            argv.remove(0);
            campaign_main(argv);
        }
        Some("merge") => {
            argv.remove(0);
            merge_main(argv);
        }
        Some("compact") => {
            argv.remove(0);
            compact_main(argv);
        }
        _ => corpus_main(argv),
    }
}

fn corpus_main(argv: Vec<String>) {
    let args = parse_corpus_args(argv);

    // Fault injection first, so even the store open is under test.
    if let Some((seed, rate_ppm)) = args.faults {
        eprintln!("litmus_run: fault injection active (seed {seed}, rate {rate_ppm} ppm)");
        faults::install_random(seed, rate_ppm);
    }
    // Search budgets: exhausted searches answer `unknown` (reported,
    // never cached) instead of running unboundedly.
    if args.budget_nodes.is_some() || args.budget_ms.is_some() {
        tso_model::set_budget(SearchBudget {
            max_nodes: args.budget_nodes,
            max_time: args.budget_ms.map(Duration::from_millis),
        });
    }

    // Install the persistent verdict store (if any) before corpus
    // generation: the generated families derive their verdicts through
    // the model cache, so a warm store already pays off there. A store
    // that fails to open degrades to a store-less run (reported via the
    // JSON `degraded` flag) — persistence is an optimization, not a
    // prerequisite for verification.
    let store = args
        .store
        .as_ref()
        .map(|path| match SharedStore::open(path) {
            Ok(shared) => {
                let shared = Arc::new(shared);
                tso_model::cache::set_store(shared.clone());
                tso_model::prefix::set_store(shared.clone());
                (Some(shared), path, None)
            }
            Err(e) => {
                eprintln!(
                    "cannot open store {} ({e}) — continuing without persistence",
                    path.display()
                );
                (None, path, Some(e.to_string()))
            }
        });

    let corpus = full_corpus(args.seed, args.random);
    let corpus_total = corpus.len();
    let mut selected: Vec<litmus::Litmus> = corpus
        .into_iter()
        .filter(|l| args.filter.as_deref().map_or(true, |f| l.name.contains(f)))
        .filter(|l| !args.smoke || smoke_filter(l))
        .collect();
    if args.smoke {
        selected.truncate(SMOKE_CAP);
    }
    eprintln!(
        "litmus_run: corpus {corpus_total} tests, running {} on {} jobs, {} machine{}",
        selected.len(),
        args.jobs,
        args.machine,
        if args.smoke { " (smoke)" } else { "" }
    );

    // An untimed warm-up pass first. When a baseline comparison is
    // coming, it covers the full selection: besides the one-time process
    // costs (page faults, allocator growth, lazy init) it fully
    // populates the memoized verdict cache, so the jobs-1 reference run
    // and the measured run see identical (hot-cache) model work and the
    // ratio is a clean worker-scaling figure rather than a cache-position
    // artifact. Without a baseline nobody compares timings, and the
    // simulator side is *not* memoized — so a capped slice keeps plain
    // correctness runs from paying the corpus twice.
    let measuring_baseline = args.baseline && args.jobs > 1;
    let warmup = if measuring_baseline {
        selected.len()
    } else {
        selected.len().min(32)
    };
    let _ = run_batch_on(&selected[..warmup], args.jobs.max(1), args.machine);
    let baseline_jobs1_ms = measuring_baseline.then(|| {
        let (_, elapsed) = run_batch_on(&selected, 1, args.machine);
        elapsed.as_secs_f64() * 1e3
    });
    let (outcomes, elapsed) = run_batch_on(&selected, args.jobs, args.machine);

    let store_counters = store.as_ref().map(|(shared, path, open_error)| {
        StoreCounters::new(path, shared.as_deref(), open_error.clone())
    });
    let report = Report {
        outcomes,
        corpus_total,
        jobs: args.jobs,
        machine: args.machine,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        baseline_jobs1_ms,
        // Process-cumulative: covers corpus generation (the generated
        // families derive their verdicts through the same cache), the
        // warm-up, and the timed runs — queries vs. invocations is the
        // memoization + symmetry saving for the whole corpus run.
        model_cache: Some(tso_model::cache::counters()),
        prefix_cache: Some(tso_model::prefix::counters()),
        store: store_counters,
    };

    if let Some((Some(shared), path, _)) = &store {
        let _ = tso_model::cache::take_store();
        let _ = tso_model::prefix::take_store();
        eprintln!(
            "store {}: {} verdicts + {} certs loaded, {} records appended, \
             {} keys + {} certs on disk{}",
            path.display(),
            shared.loads(),
            shared.cert_loads(),
            shared.with(|s| s.appended()),
            shared.with(|s| s.len()),
            shared.with(|s| s.cert_count()),
            if shared.save_errors() > 0 {
                format!(" ({} save errors swallowed)", shared.save_errors())
            } else {
                String::new()
            },
        );
    }

    let rendered = match args.format.as_str() {
        "json" => report.to_json(),
        "tap" => report.to_tap(),
        _ => format!("{}\n", report.summary()),
    };
    print!("{rendered}");
    if args.format.as_str() != "summary" {
        eprintln!("{}", report.summary());
    }
    if let Some(path) = &args.out {
        write_out(path, &rendered);
    }

    if !report.passed() {
        for o in report.outcomes.iter().filter(|o| !o.passed()) {
            eprintln!("FAIL {}: {}", o.name, o.diagnosis());
            if let Some(d) = &o.failure_detail {
                eprintln!("{d}");
            }
        }
        std::process::exit(1);
    }
}

/// Parses `I/N` (e.g. `--shard 2/4`) into `(shard, shards)`.
fn parse_shard(s: &str) -> Option<(u32, u32)> {
    let (i, n) = s.split_once('/')?;
    let shard: u32 = i.parse().ok()?;
    let shards: u32 = n.parse().ok()?;
    (shards >= 1 && shard < shards).then_some((shard, shards))
}

fn campaign_main(argv: Vec<String>) {
    let mut cfg = CampaignConfig::new(litmus::gen::DEFAULT_SEED, 10_000);
    cfg.store_path = Some(PathBuf::from("verdicts.store"));
    cfg.chunk = DEFAULT_CHUNK;
    let mut out: Option<String> = None;
    let mut checkpoint_set = false;
    let mut fault_spec: Option<(u64, u64)> = None;
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--faults" => fault_spec = Some(parse_faults(&next_value(&mut it, "--faults"))),
            "--seed" => {
                cfg.seed = next_value(&mut it, "--seed")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--count" => {
                cfg.count = next_value(&mut it, "--count")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--shard" => {
                let (shard, shards) =
                    parse_shard(&next_value(&mut it, "--shard")).unwrap_or_else(|| {
                        eprintln!("--shard must be I/N with I < N (e.g. 0/4)");
                        usage()
                    });
                cfg.shard = shard;
                cfg.shards = shards;
            }
            "--jobs" => {
                cfg.jobs = next_value(&mut it, "--jobs")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--chunk" => {
                cfg.chunk = next_value(&mut it, "--chunk")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--store" => cfg.store_path = Some(PathBuf::from(next_value(&mut it, "--store"))),
            "--no-store" => cfg.store_path = None,
            "--checkpoint" => {
                cfg.checkpoint_path = PathBuf::from(next_value(&mut it, "--checkpoint"));
                checkpoint_set = true;
            }
            "--resume" => cfg.resume = true,
            "--out" => out = Some(next_value(&mut it, "--out")),
            "--max-chunks" => {
                cfg.max_chunks = Some(
                    next_value(&mut it, "--max-chunks")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--machine" => {
                cfg.machine =
                    MachineKind::parse(&next_value(&mut it, "--machine")).unwrap_or_else(|| {
                        eprintln!("--machine must be small, paper, 128, or 256");
                        usage()
                    })
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown campaign flag {other}");
                usage();
            }
        }
    }
    if !checkpoint_set {
        cfg.checkpoint_path = PathBuf::from(default_checkpoint_name(cfg.shard, cfg.shards));
    }
    if let Some((seed, rate_ppm)) = fault_spec {
        eprintln!("litmus_run campaign: fault injection active (seed {seed}, rate {rate_ppm} ppm)");
        faults::install_random(seed, rate_ppm);
    }

    eprintln!(
        "litmus_run campaign: shard {}/{} of {} drafts (seed {}), chunk {}, {} jobs, {} machine{}{}",
        cfg.shard,
        cfg.shards,
        cfg.count,
        cfg.seed,
        cfg.chunk,
        cfg.jobs,
        cfg.machine,
        match &cfg.store_path {
            Some(p) => format!(", store {}", p.display()),
            None => ", no store".to_owned(),
        },
        if cfg.resume { " (resuming)" } else { "" },
    );

    let report = run_campaign(&cfg).unwrap_or_else(|e| {
        eprintln!("campaign failed: {e}");
        std::process::exit(2);
    });
    let rendered = report.to_json();
    print!("{rendered}");
    eprintln!(
        "campaign shard {}/{}: {} processed of {} scanned, {} model failures, \
         {} disagreements, digest {:016x}{}",
        cfg.shard,
        cfg.shards,
        report.state.processed,
        report.state.scanned,
        report.state.model_failures,
        report.state.disagreements,
        report.state.digest,
        if report.complete {
            String::new()
        } else {
            format!(
                " [STOPPED at index {} — rerun with --resume]",
                report.state.next_index
            )
        },
    );
    if let Some(path) = &out {
        write_out(path, &rendered);
    }
    if !report.passed() {
        for (name, diagnosis) in &report.state.failures {
            eprintln!("FAIL {name}: {diagnosis}");
        }
        std::process::exit(1);
    }
}

fn merge_main(argv: Vec<String>) {
    let mut paths: Vec<String> = Vec::new();
    let mut out: Option<String> = None;
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = Some(next_value(&mut it, "--out")),
            "--help" | "-h" => usage(),
            flag if flag.starts_with("--") => {
                eprintln!("unknown merge flag {flag}");
                usage();
            }
            path => paths.push(path.to_owned()),
        }
    }
    if paths.is_empty() {
        eprintln!("merge needs at least one shard report");
        usage();
    }
    let inputs: Vec<(String, String)> = paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
                eprintln!("cannot read {p}: {e}");
                std::process::exit(2);
            });
            (p.clone(), text)
        })
        .collect();
    let merged = merge_reports(&inputs).unwrap_or_else(|e| {
        eprintln!("merge failed: {e}");
        std::process::exit(2);
    });
    print!("{merged}");
    if let Some(path) = &out {
        std::fs::write(path, &merged).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("wrote {path}");
    }
    if merged.contains("\"passed\": false") {
        std::process::exit(1);
    }
}

fn compact_main(argv: Vec<String>) {
    let mut paths: Vec<String> = Vec::new();
    let mut merge_out: Option<String> = None;
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--merge" => merge_out = Some(next_value(&mut it, "--merge")),
            "--help" | "-h" => usage(),
            flag if flag.starts_with("--") => {
                eprintln!("unknown compact flag {flag}");
                usage();
            }
            path => paths.push(path.to_owned()),
        }
    }
    if paths.is_empty() {
        eprintln!("compact needs at least one store file");
        usage();
    }
    let die = |msg: String| -> ! {
        eprintln!("{msg}");
        std::process::exit(2);
    };
    match merge_out {
        Some(out) => {
            // Fold every input into the output store, then compact it.
            let mut target =
                Store::open(&out).unwrap_or_else(|e| die(format!("cannot open {out}: {e}")));
            for p in &paths {
                let src = Store::open(p).unwrap_or_else(|e| die(format!("cannot open {p}: {e}")));
                let added = target
                    .absorb(&src)
                    .unwrap_or_else(|e| die(format!("cannot fold {p} into {out}: {e}")));
                eprintln!("{p}: {} keys, {added} new", src.len());
            }
            let (before, after) = target
                .compact()
                .unwrap_or_else(|e| die(format!("cannot compact {out}: {e}")));
            eprintln!(
                "{out}: merged {} files, {before} records -> {after}",
                paths.len()
            );
        }
        None => {
            for p in &paths {
                let mut store =
                    Store::open(p).unwrap_or_else(|e| die(format!("cannot open {p}: {e}")));
                let recovered = store.recovered_bytes();
                let (before, after) = store
                    .compact()
                    .unwrap_or_else(|e| die(format!("cannot compact {p}: {e}")));
                eprint!("{p}: {before} records -> {after}");
                if recovered > 0 {
                    eprint!(" ({recovered} torn bytes dropped)");
                }
                eprintln!();
            }
        }
    }
}

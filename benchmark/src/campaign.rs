//! The `litmus-warm` workload: single-shard campaigns over
//! `litmus::gen::campaign_draft(seed, i)` on the small machine, run cold
//! in set-up to fill a verdict store each, then rerun warm against it.
//!
//! The untraced repetition is `harness::campaign::run_campaign` itself.
//! The traced repetition recomposes the same work from the layers' public
//! functions (draft → finish → `with_atomicity` → `canonicalize` →
//! `allowed_outcomes_canonical` → `lower_with_line_size` →
//! `Machine::new`/`run`) with a timer around each call, and is checked
//! against `harness::differential_check_on` for every draft and against
//! the campaign digest.

use crate::report::{
    median, median_metrics, peak_rss_mb, percentile, reset_peak_rss, Metrics, RunResult,
};
use crate::tracing::{reset_store_flag, secs, store_flag, TimingStore};
use harness::campaign::{run_campaign, write_checkpoint, CampaignConfig, CampaignState};
use harness::store::SharedStore;
use harness::{differential_check_on, MachineKind, TestOutcome};
use litmus::gen::{campaign_draft, CampaignDraft};
use litmus::{Expect, Litmus};
use rmw_types::fasthash::FastHasher;
use rmw_types::{Atomicity, Value};
use std::hash::Hasher as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use tso_model::cache::{self, CachedOutcomes};
use tso_model::{outcome::find_execution, prefix, Program};
use tso_sim::{lower_with_line_size, sim_addr, Machine};

const MACHINE: MachineKind = MachineKind::Small;

/// Workload size.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Drafts per campaign.
    pub count: u64,
    /// Campaigns whose stores set-up fills and the run rereads.
    pub campaigns: u64,
    /// Drafts of the set-up warm-up campaign.
    pub warmup: u64,
}

pub const FULL: Size = Size {
    count: 1000,
    campaigns: 12,
    warmup: 64,
};

pub const TINY: Size = Size {
    count: 24,
    campaigns: 2,
    warmup: 4,
};

/// How a repetition starts: cold (set-up) with a fresh store and empty
/// tiers, warm (the run) with empty memory tiers over the filled store.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    Cold,
    Warm,
}

/// One repetition's outcome.
struct Rep {
    wall: f64,
    digest: u64,
    scanned: u64,
    failed: u64,
}

/// The per-test verdict fields the campaign digest folds.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Verdict {
    name: String,
    expect: Expect,
    observed_allowed: bool,
    model_passed: bool,
    /// Per atomicity: agreed, deadlocked, sim reads.
    differential: Vec<(bool, bool, Vec<Value>)>,
}

impl Verdict {
    fn of(o: &TestOutcome) -> Verdict {
        Verdict {
            name: o.name.clone(),
            expect: o.expect,
            observed_allowed: o.observed_allowed,
            model_passed: o.model_passed,
            differential: o
                .differential
                .iter()
                .map(|d| (d.agreed, d.deadlocked, d.sim_reads.clone()))
                .collect(),
        }
    }

    fn failures(&self) -> u64 {
        u64::from(!self.model_passed)
            + self.differential.iter().filter(|d| !d.0).count() as u64
            + self.differential.iter().filter(|d| d.1).count() as u64
    }

    /// Folds this test into `state` exactly as `run_campaign` does.
    fn fold_into(&self, state: &mut CampaignState) {
        state.processed += 1;
        state.model_failures += u64::from(!self.model_passed);
        state.disagreements += self.differential.iter().filter(|d| !d.0).count() as u64;
        state.deadlocks += self.differential.iter().filter(|d| d.1).count() as u64;
        let mut h = FastHasher::default();
        h.write_u64(state.digest);
        h.write(self.name.as_bytes());
        h.write_u8(u8::from(self.expect == Expect::Allowed));
        h.write_u8(u8::from(self.observed_allowed));
        h.write_u8(u8::from(self.model_passed));
        for (agreed, deadlocked, reads) in &self.differential {
            h.write_u8(u8::from(*agreed));
            h.write_u8(u8::from(*deadlocked));
            for &r in reads {
                h.write_u64(r);
            }
        }
        state.digest = h.finish();
    }
}

/// Time and work of one traced test, summed per layer.
#[derive(Default, Clone)]
struct TestLayers {
    finish_s: f64,
    canon_s: f64,
    witness_s: f64,
    hit_s: f64,
    replay_s: f64,
    search_s: f64,
    lower_s: f64,
    new_s: f64,
    run_s: f64,
    total_s: f64,
    queries: u64,
    mem_hits: u64,
    store_hits: u64,
    prefix_replays: u64,
    searches: u64,
    nodes: u64,
    pruned: u64,
    machine_runs: u64,
    mem_ops: u64,
}

impl TestLayers {
    fn add(&mut self, o: &TestLayers) {
        self.finish_s += o.finish_s;
        self.canon_s += o.canon_s;
        self.witness_s += o.witness_s;
        self.hit_s += o.hit_s;
        self.replay_s += o.replay_s;
        self.search_s += o.search_s;
        self.lower_s += o.lower_s;
        self.new_s += o.new_s;
        self.run_s += o.run_s;
        self.total_s += o.total_s;
        self.queries += o.queries;
        self.mem_hits += o.mem_hits;
        self.store_hits += o.store_hits;
        self.prefix_replays += o.prefix_replays;
        self.searches += o.searches;
        self.nodes += o.nodes;
        self.pruned += o.pruned;
        self.machine_runs += o.machine_runs;
        self.mem_ops += o.mem_ops;
    }

    /// One model query (`canonicalize` + `allowed_outcomes_canonical`),
    /// timed and classified by the tier that answered it.
    fn query(&mut self, program: &Program) -> CachedOutcomes {
        let t = Instant::now();
        let canon = program.canonicalize();
        self.canon_s += secs(t);
        reset_store_flag();
        let t = Instant::now();
        let answer = cache::allowed_outcomes_canonical(&canon);
        let d = secs(t);
        self.queries += 1;
        if answer.hit {
            self.hit_s += d;
            if store_flag() {
                self.store_hits += 1;
            } else {
                self.mem_hits += 1;
            }
        } else if answer.prefix_hit {
            self.replay_s += d;
            self.prefix_replays += 1;
        } else {
            self.search_s += d;
            self.searches += 1;
            self.nodes += answer.stats.nodes;
            self.pruned += answer.stats.pruned;
        }
        answer
    }
}

/// `differential_check_on(&draft.finish(), MACHINE)`, recomposed from the
/// layers' public functions with a timer around each call.
fn traced_check(draft: CampaignDraft) -> (Verdict, TestLayers) {
    let started = Instant::now();
    let mut l = TestLayers::default();

    // CampaignDraft::finish: a deferred expectation costs a verdict query.
    let t = Instant::now();
    let expect = match draft.expect {
        Some(e) => e,
        None => {
            let allowed = l.query(&draft.program);
            let observed = allowed
                .outcomes
                .iter()
                .any(|o| draft.target.matches(&o.read_values()));
            if observed {
                Expect::Allowed
            } else {
                Expect::Forbidden
            }
        }
    };
    let test = Litmus {
        name: draft.name,
        description: draft.description,
        program: draft.program,
        target: draft.target,
        expect,
    };
    l.finish_s += secs(t);

    // Litmus::check: the verdict query, plus a witness when observed.
    let cached = l.query(&test.program);
    let observed_allowed = cached
        .outcomes
        .iter()
        .any(|o| test.target.matches(&o.read_values()));
    if observed_allowed {
        let t = Instant::now();
        let witness = find_execution(&test.program, |reads| test.target.matches(reads));
        assert!(witness.is_some(), "an observed outcome has a witness");
        l.witness_s += secs(t);
    }
    let unknown = cached.unknown && !observed_allowed;
    let model_passed = unknown
        || match test.expect {
            Expect::Allowed => observed_allowed,
            Expect::Forbidden => !observed_allowed,
        };

    let mut differential = Vec::with_capacity(Atomicity::ALL.len());
    for atomicity in Atomicity::ALL {
        let prog = test.program.with_atomicity(atomicity);
        let mut cfg = MACHINE.config(prog.num_threads());
        cfg.rmw_atomicity = atomicity;
        let line_size = cfg.line_size;
        let t = Instant::now();
        let traces = lower_with_line_size(&prog, line_size);
        l.lower_s += secs(t);
        let t = Instant::now();
        let machine = Machine::new(cfg, traces);
        l.new_s += secs(t);
        let t = Instant::now();
        let result = machine.run();
        l.run_s += secs(t);
        l.machine_runs += 1;
        l.mem_ops += result.stats.mem_ops;
        let sim_reads: Vec<Value> = result.reads.iter().flatten().copied().collect();
        let allowed = l.query(&prog);
        let found = allowed.outcomes.iter().any(|o| {
            o.read_values() == sim_reads
                && o.final_memory().iter().all(|&(a, v)| {
                    result
                        .memory
                        .get(&sim_addr(a, line_size))
                        .copied()
                        .unwrap_or(0)
                        == v
                })
        });
        let agreed = !result.deadlocked && (found || allowed.unknown);
        differential.push((agreed, result.deadlocked, sim_reads));
    }
    l.total_s = secs(started);
    let verdict = Verdict {
        name: test.name,
        expect: test.expect,
        observed_allowed,
        model_passed,
        differential,
    };
    (verdict, l)
}

/// Detaches the stores and empties the in-memory verdict and certificate
/// tiers.
fn reset_tiers() {
    let _ = cache::take_store();
    let _ = prefix::take_store();
    cache::clear();
    prefix::clear();
}

fn remove_if_present(path: &Path) {
    if let Err(e) = std::fs::remove_file(path) {
        assert!(
            e.kind() == std::io::ErrorKind::NotFound,
            "cannot remove {}: {e}",
            path.display()
        );
    }
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn campaign_config(seed: u64, count: u64, dir: &Path, store: Option<&str>) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(seed, count);
    cfg.jobs = workers();
    cfg.machine = MACHINE;
    cfg.store_path = store.map(|name| dir.join(name));
    cfg.checkpoint_path = dir.join("campaign.checkpoint.json");
    cfg
}

fn store_path(cfg: &CampaignConfig) -> PathBuf {
    cfg.store_path
        .clone()
        .expect("benchmark campaigns use a store")
}

/// Starts a repetition: a cold one with a fresh store and empty tiers, a
/// warm one with empty memory tiers over the filled store.
fn start_rep(cfg: &CampaignConfig, mode: Mode, errors: &mut Vec<String>) {
    reset_tiers();
    if mode == Mode::Cold {
        remove_if_present(&store_path(cfg));
    }
    let (c, p) = (cache::counters(), prefix::counters());
    if c.entries != 0 || p.entries != 0 || c.queries != 0 {
        errors.push(format!(
            "repetition started with {} cached verdicts and {} certificates",
            c.entries, p.entries
        ));
    }
}

/// One untraced repetition: `run_campaign` as a user runs it.
fn untraced_rep(cfg: &CampaignConfig, mode: Mode, errors: &mut Vec<String>) -> Rep {
    start_rep(cfg, mode, errors);
    let t = Instant::now();
    let report = run_campaign(cfg);
    let wall = secs(t);
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            errors.push(format!("campaign failed: {e}"));
            return Rep {
                wall,
                digest: 0,
                scanned: cfg.count,
                failed: cfg.count,
            };
        }
    };
    let s = &report.state;
    if !report.complete || s.processed != cfg.count {
        errors.push(format!(
            "campaign processed {} of {} drafts",
            s.processed, cfg.count
        ));
    }
    if report.degraded() {
        errors.push("campaign ran with a degraded store or checkpoint".to_owned());
    }
    if mode == Mode::Warm && report.model_cache.invocations != 0 {
        errors.push(format!(
            "warm campaign ran {} model searches",
            report.model_cache.invocations
        ));
    }
    for (name, why) in s.failures.iter().take(3) {
        errors.push(format!("{name}: {why}"));
    }
    Rep {
        wall,
        digest: s.digest,
        scanned: s.scanned,
        failed: s.model_failures + s.disagreements + s.deadlocks + s.crashed,
    }
}

/// The traced recomposition must be the program the campaign runs: every
/// test's verdict fields must equal `differential_check_on`'s.
fn check_against_harness(
    checked: &[(CampaignDraft, Verdict)],
    jobs: usize,
    errors: &mut Vec<String>,
) {
    let expected = exec_pool::run_all(jobs.max(1), checked.len(), |_, i| {
        Verdict::of(&differential_check_on(
            &checked[i].0.clone().finish(),
            MACHINE,
        ))
    });
    if let Some(((_, traced), reference)) = checked
        .iter()
        .zip(&expected)
        .find(|((_, traced), reference)| traced != *reference)
    {
        errors.push(format!(
            "traced run differs from differential_check_on on {}: {traced:?} vs {reference:?}",
            traced.name
        ));
    }
}

/// One traced repetition. Returns the repetition and its per-layer
/// metrics; checks every test against `differential_check_on` afterwards,
/// outside the timed region.
fn traced_rep(
    cfg: &CampaignConfig,
    mode: Mode,
    memops: u64,
    errors: &mut Vec<String>,
) -> (Rep, Metrics) {
    start_rep(cfg, mode, errors);
    let path = store_path(cfg);
    let c0 = cache::counters();
    let p0 = prefix::counters();
    let threads0 = exec_pool::spawned_threads();

    let started = Instant::now();
    let t = Instant::now();
    let shared = match SharedStore::open(&path) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            errors.push(format!("cannot open {}: {e}", path.display()));
            let rep = Rep {
                wall: secs(started),
                digest: 0,
                scanned: cfg.count,
                failed: cfg.count,
            };
            return (rep, Metrics::new());
        }
    };
    let open_s = secs(t);
    let timing = Arc::new(TimingStore::new(Arc::clone(&shared)));
    cache::set_store(timing.clone());
    prefix::set_store(timing.clone());

    let mut state = CampaignState::default();
    let mut layers = TestLayers::default();
    let mut test_us = Vec::with_capacity(cfg.count as usize);
    let mut draft_s = 0.0;
    let mut fingerprint_s = 0.0;
    let mut checkpoint_s = 0.0;
    let mut checked: Vec<(CampaignDraft, Verdict)> = Vec::with_capacity(cfg.count as usize);
    while state.next_index < cfg.count {
        let end = (state.next_index + cfg.chunk).min(cfg.count);
        let mut drafts = Vec::with_capacity((end - state.next_index) as usize);
        for i in state.next_index..end {
            let t = Instant::now();
            let draft = campaign_draft(cfg.seed, i);
            draft_s += secs(t);
            // The shard filter: every draft's canonical fingerprint.
            let t = Instant::now();
            let in_shard = draft.fingerprint() % u64::from(cfg.shards) == u64::from(cfg.shard);
            fingerprint_s += secs(t);
            if in_shard {
                drafts.push(draft);
            }
        }
        state.scanned += end - state.next_index;
        let jobs = cfg.jobs.max(1).min(drafts.len().max(1));
        let results = exec_pool::run_all_catching(jobs, drafts.len(), |_, idx| {
            traced_check(drafts[idx].clone())
        });
        for (draft, result) in drafts.into_iter().zip(results) {
            match result {
                Ok((verdict, l)) => {
                    verdict.fold_into(&mut state);
                    layers.add(&l);
                    test_us.push(l.total_s * 1e6);
                    checked.push((draft, verdict));
                }
                Err(panic) => {
                    state.crashed += 1;
                    errors.push(format!("{} crashed: {}", draft.name, panic.message));
                }
            }
        }
        state.next_index = end;
        let t = Instant::now();
        if let Err(e) = write_checkpoint(&cfg.checkpoint_path, cfg, &state) {
            errors.push(format!("checkpoint write failed: {e}"));
        }
        checkpoint_s += secs(t);
    }
    let _ = cache::take_store();
    let _ = prefix::take_store();
    let store_loads = shared.loads() + shared.cert_loads();
    let appends = shared.with(|s| s.appended());
    let save_errors = shared.save_errors();
    let (load_s, save_s) = (timing.load_s(), timing.save_s());
    // `run_campaign` closes its store before it returns, too.
    drop(timing);
    drop(shared);
    let wall = secs(started);

    let c1 = cache::counters();
    let p1 = prefix::counters();
    let invocations = c1.invocations - c0.invocations;
    if c1.queries - c0.queries != layers.queries
        || c1.store_hits - c0.store_hits != layers.store_hits
        || invocations != layers.prefix_replays + layers.searches
        || p1.hits - p0.hits != layers.prefix_replays
    {
        errors.push(format!(
            "traced query classification ({} queries, {} store hits, {} replays, {} searches) \
             disagrees with the model counters ({} queries, {} store hits, {} replays, {} invocations)",
            layers.queries,
            layers.store_hits,
            layers.prefix_replays,
            layers.searches,
            c1.queries - c0.queries,
            c1.store_hits - c0.store_hits,
            p1.hits - p0.hits,
            invocations
        ));
    }
    if mode == Mode::Warm && invocations != 0 {
        errors.push(format!("warm traced run ran {invocations} model searches"));
    }
    if layers.mem_ops != memops {
        errors.push(format!(
            "sims retired {} memory operations, the inputs hold {memops}",
            layers.mem_ops
        ));
    }

    check_against_harness(&checked, cfg.jobs, errors);

    let failed = checked.iter().map(|(_, v)| v.failures()).sum::<u64>() + state.crashed;
    let mut m = Metrics::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_owned(), v);
    };
    put("litmus.gen.draft_s", draft_s);
    put("litmus.gen.fingerprint_s", fingerprint_s);
    put("litmus.gen.finish_s", layers.finish_s);
    put("tso_model.witness_s", layers.witness_s);
    put("tso_model.canon_s", layers.canon_s);
    put("tso_model.cache.queries", layers.queries as f64);
    put("tso_model.cache.mem_hits", layers.mem_hits as f64);
    put("tso_model.cache.store_hits", layers.store_hits as f64);
    put(
        "tso_model.cache.prefix_replays",
        layers.prefix_replays as f64,
    );
    put("tso_model.cache.searches", layers.searches as f64);
    put(
        "tso_model.cache.hit_ratio",
        (layers.mem_hits + layers.store_hits) as f64 / layers.queries.max(1) as f64,
    );
    put("tso_model.cache.hit_s", layers.hit_s);
    put("tso_model.prefix.replay_s", layers.replay_s);
    put("tso_model.search_s", layers.search_s);
    put("tso_model.search.nodes", layers.nodes as f64);
    put("tso_model.search.pruned", layers.pruned as f64);
    put(
        "tso_model.prefix.nodes_saved",
        (p1.nodes_saved - p0.nodes_saved) as f64,
    );
    put(
        "exec_pool.threads_spawned",
        (exec_pool::spawned_threads() - threads0) as f64,
    );
    put("harness.store.open_s", open_s);
    put("harness.store.load_s", load_s);
    put("harness.store.loads", store_loads as f64);
    put(
        "harness.store.bytes",
        std::fs::metadata(&path).map_or(0, |md| md.len()) as f64,
    );
    put("harness.store.save_s", save_s);
    put("harness.store.appends", appends as f64);
    put("harness.store.save_errors", save_errors as f64);
    put("harness.campaign.checkpoint_s", checkpoint_s);
    if !test_us.is_empty() {
        put("harness.test_p50_us", percentile(&test_us, 50.0));
        put("harness.test_p99_us", percentile(&test_us, 99.0));
    }
    put("harness.test_samples", test_us.len() as f64);
    put("tso_sim.lower_s", layers.lower_s);
    put("tso_sim.new_s", layers.new_s);
    put("tso_sim.run_s", layers.run_s);
    put("tso_sim.machine_runs", layers.machine_runs as f64);
    let rep = Rep {
        wall,
        digest: state.digest,
        scanned: state.scanned,
        failed,
    };
    (rep, m)
}

/// Memory operations the three sim runs of every draft retire.
fn input_memops(seed: u64, count: u64) -> u64 {
    let mut memops = 0u64;
    for i in 0..count {
        let draft = campaign_draft(seed, i);
        for atomicity in Atomicity::ALL {
            let prog = draft.program.with_atomicity(atomicity);
            let line_size = MACHINE.config(prog.num_threads()).line_size;
            memops += lower_with_line_size(&prog, line_size)
                .iter()
                .map(|t| t.mem_ops() as u64)
                .sum::<u64>();
        }
    }
    memops
}

/// Campaign seed of the run's `k`-th campaign; campaign 0 uses the
/// workload seed itself.
fn campaign_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Seed of the set-up warm-up campaign. Fixed, so set-up does the same
/// work whatever the workload seed.
const WARMUP_SEED: u64 = 0xC01D_5EED;

/// The process's one-time preparation: a small campaign that initializes
/// the lazy process-wide state (the generator's base pool, the search
/// engine's node-rate calibration), then empty tiers.
fn warm_up(size: Size, dir: &Path, errors: &mut Vec<String>) {
    reset_tiers();
    let cfg = campaign_config(WARMUP_SEED, size.warmup, dir, None);
    match run_campaign(&cfg) {
        Ok(r) if r.passed() => {}
        Ok(r) => errors.push(format!(
            "warm-up campaign failed {} tests",
            r.state.model_failures + r.state.disagreements + r.state.crashed
        )),
        Err(e) => errors.push(format!("warm-up campaign failed: {e}")),
    }
    reset_tiers();
}

/// One campaign of the run: its configuration and what it must
/// reproduce.
struct Campaign {
    cfg: CampaignConfig,
    memops: u64,
    digest: Option<u64>,
}

impl Campaign {
    fn new(seed: u64, k: u64, size: Size, dir: &Path, store: &str) -> Campaign {
        let seed = campaign_seed(seed, k);
        Campaign {
            cfg: campaign_config(seed, size.count, dir, Some(store)),
            memops: input_memops(seed, size.count),
            digest: None,
        }
    }

    /// Checks a repetition against the first one of this campaign.
    fn check_digest(&mut self, rep: &Rep, errors: &mut Vec<String>) {
        match self.digest {
            None => self.digest = Some(rep.digest),
            Some(d) if d != rep.digest => errors.push(format!(
                "campaign seed {} reproduced digest {:#x}, first run gave {d:#x}",
                self.cfg.seed, rep.digest
            )),
            Some(_) => {}
        }
    }
}

/// Traced metrics of `litmus-warm`'s cold set-up passes, reported with a
/// `setup.` prefix: the ones the warm repetitions leave at 0.
const SETUP_LAYERS: [&str; 12] = [
    "tso_model.cache.searches",
    "tso_model.cache.prefix_replays",
    "tso_model.cache.hit_ratio",
    "tso_model.search_s",
    "tso_model.prefix.replay_s",
    "tso_model.search.nodes",
    "tso_model.search.pruned",
    "tso_model.prefix.nodes_saved",
    "harness.store.save_s",
    "harness.store.appends",
    "harness.store.save_errors",
    "harness.test_p99_us",
];

/// Runs `litmus-warm` for at least `seconds` of measurement.
///
/// Set-up fills one store per campaign with a cold pass, traced when the
/// run is. Each round then reruns every campaign warm against its store.
pub fn run(seed: u64, seconds: f64, trace: bool, size: Size, dir: &Path) -> RunResult {
    let mut errors = Vec::new();
    let mut setups = Vec::new();
    let mut setup_walls = Vec::new();
    let mut setup_layer_reps = Vec::new();
    let mut setup_failed = 0;
    let mut setup_scanned = 0;
    let mut campaigns = Vec::new();
    warm_up(size, dir, &mut errors);
    for k in 0..size.campaigns {
        let t = Instant::now();
        let mut c = Campaign::new(seed, k, size, dir, &format!("verdicts-{k}.store"));
        let inputs_s = secs(t);
        let cold = if trace {
            let (rep, m) = traced_rep(&c.cfg, Mode::Cold, c.memops, &mut errors);
            setup_layer_reps.push(m);
            rep
        } else {
            untraced_rep(&c.cfg, Mode::Cold, &mut errors)
        };
        eprintln!(
            "set-up campaign seed {:#x}: inputs {inputs_s:.3} s, cold pass {:.3} s, digest {:#x}",
            c.cfg.seed, cold.wall, cold.digest
        );
        c.check_digest(&cold, &mut errors);
        setups.push(inputs_s + cold.wall);
        setup_walls.push(cold.wall);
        setup_failed += cold.failed;
        setup_scanned += cold.scanned;
        campaigns.push(c);
    }
    reset_tiers();

    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut layer_reps = Vec::new();
    let mut rounds = 0;
    let mut memops_rates = Vec::new();
    let mut rss = Vec::new();
    let started = Instant::now();
    loop {
        // Once per round: trimming the heap makes the next campaign fault
        // its pages back in, a cost that varies with the host.
        reset_peak_rss();
        for c in &mut campaigns {
            let rep = untraced_rep(&c.cfg, Mode::Warm, &mut errors);
            eprintln!(
                "campaign seed {:#x}: {:.3} s, digest {:#x}",
                c.cfg.seed, rep.wall, rep.digest
            );
            c.check_digest(&rep, &mut errors);
            memops_rates.push(c.memops as f64 / rep.wall);
            untraced.push(rep);
            if trace {
                let (rep, m) = traced_rep(&c.cfg, Mode::Warm, c.memops, &mut errors);
                c.check_digest(&rep, &mut errors);
                traced.push(rep);
                layer_reps.push(m);
            }
        }
        rss.push(peak_rss_mb());
        rounds += 1;
        let enough = if trace { 1 } else { crate::MIN_REPS };
        if rounds >= enough && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    reset_tiers();

    let attempted: u64 = setup_scanned
        + untraced
            .iter()
            .chain(&traced)
            .map(|r| r.scanned)
            .sum::<u64>();
    let failed: u64 = setup_failed
        + untraced
            .iter()
            .chain(&traced)
            .map(|r| r.failed)
            .sum::<u64>();
    // The median warm campaign: a few campaigns per seed hold drafts that
    // cost about 0.5 s warm, and whether a seed draws them moved the mean
    // over its 12 campaigns by 10% either way.
    let walls: Vec<f64> = untraced.iter().map(|r| r.wall).collect();
    let wall = median(&walls);
    let mut metrics = Metrics::new();
    if trace {
        metrics = median_metrics(&layer_reps);
        let traced_wall: f64 = traced.iter().map(|r| r.wall).sum();
        let untraced_wall: f64 = untraced.iter().map(|r| r.wall).sum();
        metrics.insert(
            "bench.trace_overhead_pct".to_owned(),
            100.0 * (traced_wall - untraced_wall) / untraced_wall,
        );
        metrics.insert("fail_ratio".to_owned(), failed as f64 / attempted as f64);
        let cold = median_metrics(&setup_layer_reps);
        for name in SETUP_LAYERS {
            let value = cold.get(name).copied().unwrap_or(0.0);
            metrics.insert(format!("setup.{name}"), value);
        }
        metrics.insert("setup.wall_s".to_owned(), median(&setup_walls));
    } else {
        metrics.insert("setup_s".to_owned(), median(&setups));
        metrics.insert("wall_s".to_owned(), wall);
        metrics.insert("tests_per_s".to_owned(), size.count as f64 / wall);
        metrics.insert("sim_memops_per_s".to_owned(), median(&memops_rates));
        metrics.insert("peak_rss_mb".to_owned(), median(&rss));
    }
    RunResult {
        metrics,
        attempted,
        failed,
        errors,
    }
}

//! The benchmark's definition: workloads, metrics, directions and bounds.
//!
//! `BENCHMARK.json` at the repository root is rendered from this table
//! (`--write-spec`), and the self-test checks that the committed file
//! still matches it, so a metric can never be emitted without a unit and
//! a direction.

use rmw_types::Atomicity;
use workloads::Benchmark;

/// Seconds one run measures (the `--seconds` it is given).
pub const RUN_SECONDS: u64 = 25;

/// A workload: name and why it is in the benchmark.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "litmus-warm",
        why: "12 campaigns of 1000 drafts; set-up fills a verdict store per campaign with a cold pass (search, certificates, appends), the run rereads them with zero searches",
    },
    Workload {
        name: "paper-fig11",
        why: "8 benchmarks x 3 RMW types on the 32-core Table 2 machine at 25k memops/core (100k spread too much): sim engine, coherence, Bloom and interconnect; no model work",
    },
];

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: emitted by every untraced run.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen. Each
    /// is at least three times the quartile spread over seeds measured on
    /// either workload, except `setup_s`, which is judged only by its
    /// median over seeds; see README.md.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "tests_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_memops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// One per-layer metric: emitted by every traced run (as 0 on a
/// workload that does not run the layer).
#[derive(Clone, Debug, PartialEq)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

fn m(name: &str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name: name.to_owned(),
        unit,
        better,
    }
}

/// Short name of an RMW type in metric names (`t1`, `t2`, `t3`).
pub fn type_tag(a: Atomicity) -> &'static str {
    match a {
        Atomicity::Type1 => "t1",
        Atomicity::Type2 => "t2",
        Atomicity::Type3 => "t3",
    }
}

/// Every per-layer metric, in output order.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut v = vec![
        // Every workload.
        m("fail_ratio", "ratio", Lower),
        m("bench.trace_overhead_pct", "%", Lower),
        // litmus::gen
        m("litmus.gen.draft_s", "s", Lower),
        m("litmus.gen.fingerprint_s", "s", Lower),
        m("litmus.gen.finish_s", "s", Lower),
        m("tso_model.witness_s", "s", Lower),
        // tso_model
        m("tso_model.canon_s", "s", Lower),
        m("tso_model.cache.queries", "count", Lower),
        m("tso_model.cache.mem_hits", "count", Higher),
        m("tso_model.cache.store_hits", "count", Higher),
        m("tso_model.cache.prefix_replays", "count", Higher),
        m("tso_model.cache.searches", "count", Lower),
        m("tso_model.cache.hit_ratio", "ratio", Higher),
        m("tso_model.cache.hit_s", "s", Lower),
        m("tso_model.prefix.replay_s", "s", Lower),
        m("tso_model.search_s", "s", Lower),
        m("tso_model.search.nodes", "count", Lower),
        m("tso_model.search.pruned", "count", Higher),
        m("tso_model.prefix.nodes_saved", "count", Higher),
        // exec_pool
        m("exec_pool.threads_spawned", "count", Lower),
        // harness::store and harness::campaign
        m("harness.store.open_s", "s", Lower),
        m("harness.store.load_s", "s", Lower),
        m("harness.store.loads", "count", Higher),
        m("harness.store.bytes", "B", Lower),
        m("harness.store.save_s", "s", Lower),
        m("harness.store.appends", "count", Lower),
        m("harness.store.save_errors", "count", Lower),
        m("harness.campaign.checkpoint_s", "s", Lower),
        m("harness.test_p50_us", "us", Lower),
        m("harness.test_p99_us", "us", Lower),
        m("harness.test_samples", "count", Higher),
        // tso_sim on litmus programs, and shared with paper-fig11
        m("tso_sim.lower_s", "s", Lower),
        m("tso_sim.new_s", "s", Lower),
        m("tso_sim.run_s", "s", Lower),
        m("tso_sim.machine_runs", "count", Higher),
        // workloads + tso_sim on paper-fig11
        m("workloads.gen_s", "s", Lower),
        m("tso_sim.run_p50_ms", "ms", Lower),
        m("tso_sim.run_samples", "count", Higher),
        m("tso_sim.host_ns_per_cycle", "ns", Lower),
        m("tso_sim.engine.visited_cycles", "count", Lower),
        m("tso_sim.engine.ticks", "count", Lower),
        m("tso_sim.engine.acting_ratio", "ratio", Higher),
        m("tso_sim.engine.events_armed", "count", Lower),
        m("tso_sim.engine.dense_cycles", "count", Lower),
        // The cold passes that fill litmus-warm's stores.
        m("setup.wall_s", "s", Lower),
        m("setup.tso_model.cache.searches", "count", Lower),
        m("setup.tso_model.cache.prefix_replays", "count", Higher),
        m("setup.tso_model.cache.hit_ratio", "ratio", Higher),
        m("setup.tso_model.search_s", "s", Lower),
        m("setup.tso_model.prefix.replay_s", "s", Lower),
        m("setup.tso_model.search.nodes", "count", Lower),
        m("setup.tso_model.search.pruned", "count", Higher),
        m("setup.tso_model.prefix.nodes_saved", "count", Higher),
        m("setup.harness.store.save_s", "s", Lower),
        m("setup.harness.store.appends", "count", Lower),
        m("setup.harness.store.save_errors", "count", Lower),
        m("setup.harness.test_p99_us", "us", Lower),
        // Modelled components (simulated, exact).
        m("rmw.wb_cycles.t1", "cycles", Lower),
    ];
    for a in Atomicity::ALL {
        v.push(m(&format!("rmw_cost.{}", type_tag(a)), "cycles", Lower));
    }
    for a in Atomicity::ALL {
        v.push(m(
            &format!("rmw.rawa_cycles.{}", type_tag(a)),
            "cycles",
            Lower,
        ));
    }
    for b in Benchmark::ALL {
        for a in Atomicity::ALL {
            v.push(m(
                &format!("rmw_cost.{}.{}", b.name(), type_tag(a)),
                "cycles",
                Lower,
            ));
        }
    }
    for b in Benchmark::ALL {
        v.push(m(&format!("bloom.drain_pct.{}", b.name()), "%", Lower));
    }
    v.extend([
        m("bloom.resets", "count", Lower),
        m("coherence.lock_retries", "count", Lower),
        m("tso_sim.wb_full_stalls", "count", Lower),
        m("interconnect.messages", "count", Lower),
        m("interconnect.hops", "count", Lower),
        m("interconnect.broadcast_messages", "count", Lower),
        m("interconnect.broadcasts_per_100", "1/100", Lower),
        // Sim accuracy against the paper (paper-fig11).
        m("t2_saving_gap_pp", "pp", Lower),
        m("rmw_order_violations", "count", Lower),
        m("drain_gap_pp", "pp", Lower),
        m("wb_share_gap_pp", "pp", Lower),
    ]);
    v
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders `BENCHMARK.json`.
pub fn render() -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let command: Vec<String> = command.iter().map(|c| json_str(c)).collect();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"command\": [{}],", command.join(", "));
    let _ = writeln!(s, "  \"paths\": [\"benchmark\"],");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    let _ = writeln!(s, "  \"workloads\": [");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"why\": {}}}{comma}",
            json_str(w.name),
            json_str(w.why)
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"end_to_end\": [");
    for (i, e) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\", \"bound\": {}}}{comma}",
            json_str(e.name),
            json_str(e.unit),
            e.better.as_str(),
            e.bound
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"per_layer\": [");
    let layers = per_layer();
    for (i, p) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"}}{comma}",
            json_str(&p.name),
            json_str(p.unit),
            p.better.as_str()
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

//! Tiny-size self-test of the benchmark, run as
//! `cargo test --release --manifest-path benchmark/Cargo.toml`.
//!
//! Every workload runs at `--size tiny` in both modes and two seeds. The
//! test checks that each run emits exactly the metrics `BENCHMARK.json`
//! names, each with the unit and a direction given there, and that a
//! different seed changes the inputs but not the pass status.

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 2] = ["litmus-warm", "paper-fig11"];

/// A metric's declared unit and direction.
struct Declared {
    unit: String,
    better: String,
}

/// The metrics of one mode, from the spec as the benchmark renders it.
fn declared(spec: &str, section: &str) -> BTreeMap<String, Declared> {
    let body = spec
        .split(&format!("\"{section}\": ["))
        .nth(1)
        .expect("section present");
    let body = &body[..body.find(']').expect("section closed")];
    body.lines()
        .filter(|l| l.contains("\"name\""))
        .map(|l| {
            let field = |key: &str| {
                let rest = l
                    .split(&format!("\"{key}\": \""))
                    .nth(1)
                    .unwrap_or_else(|| panic!("{key} missing in {l}"));
                rest[..rest.find('"').expect("closing quote")].to_owned()
            };
            (
                field("name"),
                Declared {
                    unit: field("unit"),
                    better: field("better"),
                },
            )
        })
        .collect()
}

/// The final JSON line of one run.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, (f64, String)>,
}

fn parse(line: &str) -> Outcome {
    let scalar = |key: &str| {
        let rest = line
            .split(&format!("\"{key}\": "))
            .nth(1)
            .unwrap_or_else(|| panic!("{key} missing"));
        rest[..rest.find(',').expect("field ends")].to_owned()
    };
    let body = line.split("\"metrics\": {").nth(1).expect("metrics");
    let mut metrics = BTreeMap::new();
    for entry in body.split("}, ") {
        let name = entry.split('"').nth(1).expect("metric name").to_owned();
        let value = entry
            .split("\"value\": ")
            .nth(1)
            .and_then(|v| v.split(',').next())
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or_else(|| panic!("{name} has no numeric value"));
        let unit = entry
            .split("\"unit\": \"")
            .nth(1)
            .and_then(|u| u.split('"').next())
            .expect("unit")
            .to_owned();
        metrics.insert(name, (value, unit));
    }
    Outcome {
        correct: scalar("correct") == "true",
        attempted: scalar("attempted").parse().expect("attempted"),
        failed: scalar("failed").parse().expect("failed"),
        metrics,
    }
}

fn run(workload: &str, seed: u64, trace: bool) -> Outcome {
    let out = Command::new(env!("CARGO_BIN_EXE_repo-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", if trace { "1" } else { "0" }])
        .args(["--size", "tiny"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    parse(stdout.lines().last().expect("a result line"))
}

fn rendered_spec() -> String {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCHMARK.json");
    let status = Command::new(env!("CARGO_BIN_EXE_repo-benchmark"))
        .arg("--write-spec")
        .arg(&path)
        .status()
        .expect("benchmark runs");
    assert!(status.success());
    std::fs::read_to_string(path).expect("spec written")
}

#[test]
fn committed_spec_is_the_rendered_spec() {
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        rendered_spec(),
        "BENCHMARK.json is stale: regenerate it with --write-spec"
    );
}

#[test]
fn every_metric_is_emitted_and_seeds_change_inputs_not_status() {
    let spec = rendered_spec();
    for trace in [false, true] {
        let section = if trace { "per_layer" } else { "end_to_end" };
        let want = declared(&spec, section);
        assert!(want
            .values()
            .all(|d| !d.unit.is_empty() && (d.better == "lower" || d.better == "higher")));
        for workload in WORKLOADS {
            let runs = [run(workload, 1, trace), run(workload, 2, trace)];
            for r in &runs {
                assert!(r.correct && r.failed == 0 && r.attempted > 0, "{workload}");
                assert_eq!(
                    r.metrics.keys().collect::<Vec<_>>(),
                    want.keys().collect::<Vec<_>>(),
                    "{workload} {section}"
                );
                for (name, (value, unit)) in &r.metrics {
                    assert_eq!(unit, &want[name].unit, "{workload} {name}");
                    assert!(value.is_finite(), "{workload} {name}");
                }
            }
            if trace {
                // The store holds one record per distinct drafted program,
                // and the fig11 cost depends on the generated traces.
                let probe = if workload == "paper-fig11" {
                    "tso_sim.engine.ticks"
                } else {
                    "harness.store.bytes"
                };
                assert_ne!(
                    runs[0].metrics[probe].0, runs[1].metrics[probe].0,
                    "{workload}: seed did not change the inputs"
                );
            }
        }
    }
}

//! Harness reports: aggregation plus JSON, TAP, and human summaries.

use crate::campaign::StoreCounters;
use crate::jsonx::Value;
use crate::{faults, MachineKind, TestOutcome};
use std::fmt::Write as _;
use tso_model::prefix::PrefixCounters;
use tso_model::CacheCounters;

/// Aggregated result of one harness run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Per-test outcomes, in corpus order.
    pub outcomes: Vec<TestOutcome>,
    /// Size of the *full* corpus (before `--filter`/`--smoke` selection) —
    /// CI enforces the 500-test floor on this number.
    pub corpus_total: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Which simulated machine the differential side ran on.
    pub machine: MachineKind,
    /// Batch wall-clock in milliseconds at `jobs` workers.
    pub elapsed_ms: f64,
    /// Wall-clock of the same selection at one worker, when measured.
    pub baseline_jobs1_ms: Option<f64>,
    /// Process-wide model-cache counters at report time: how many
    /// outcome-set queries the run (and any warm-up) issued versus how
    /// many model searches actually ran — the memoization + symmetry
    /// savings, observable from the JSON alone.
    pub model_cache: Option<CacheCounters>,
    /// Process-wide prefix-certificate counters at report time: how many
    /// verdict-cache misses were answered by replaying an atomicity
    /// sibling's pruned search, and how many decision nodes that skipped.
    pub prefix_cache: Option<PrefixCounters>,
    /// Persistent verdict-store activity, when `--store` was given —
    /// including `open_error`/`save_errors`/`recovered_bytes`/
    /// `skipped_records`, so persistence degradation is visible from the
    /// top-level JSON alone.
    pub store: Option<StoreCounters>,
}

impl Report {
    /// Number of tests executed.
    pub fn selected(&self) -> usize {
        self.outcomes.len()
    }

    /// Tests whose model verdict contradicted the expectation. Crashed
    /// tests are excluded: they proved nothing either way (they fail the
    /// run through [`Report::crashed`] instead).
    pub fn model_failures(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| !o.model_passed && !o.crashed)
            .count()
    }

    /// Tests whose worker panicked (reported, quarantine-able, fatal to
    /// the run's exit status but not a model failure).
    pub fn crashed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.crashed).count()
    }

    /// Tests with an inconclusive (budget-truncated) model answer. These
    /// pass — missing, never wrong — but the count keeps truncation
    /// visible.
    pub fn unknowns(&self) -> usize {
        self.outcomes.iter().filter(|o| o.unknown).count()
    }

    /// True when persistence ran degraded: the store failed to open or
    /// swallowed save errors.
    pub fn degraded(&self) -> bool {
        self.store.as_ref().is_some_and(StoreCounters::degraded)
    }

    /// (test, atomicity) pairs where the simulator left the model's
    /// allowed set.
    pub fn disagreements(&self) -> usize {
        self.outcomes
            .iter()
            .flat_map(|o| &o.differential)
            .filter(|d| !d.agreed)
            .count()
    }

    /// Simulator deadlocks observed.
    pub fn deadlocks(&self) -> usize {
        self.outcomes
            .iter()
            .flat_map(|o| &o.differential)
            .filter(|d| d.deadlocked)
            .count()
    }

    /// True iff every test passed both the model and differential checks.
    pub fn passed(&self) -> bool {
        self.outcomes.iter().all(TestOutcome::passed)
    }

    /// Executed tests per second at `jobs` workers.
    pub fn tests_per_sec(&self) -> f64 {
        if self.elapsed_ms <= 0.0 {
            0.0
        } else {
            self.selected() as f64 / (self.elapsed_ms / 1e3)
        }
    }

    /// Measured speedup of `jobs` workers over one worker, when a baseline
    /// was run.
    pub fn speedup_vs_jobs1(&self) -> Option<f64> {
        self.baseline_jobs1_ms
            .map(|b| b / self.elapsed_ms.max(1e-6))
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "litmus_run: {}/{} passed ({} model failures, {} sim disagreements, {} deadlocks) \
             in {:.1} ms on {} jobs ({:.0} tests/s)",
            self.outcomes.iter().filter(|o| o.passed()).count(),
            self.selected(),
            self.model_failures(),
            self.disagreements(),
            self.deadlocks(),
            self.elapsed_ms,
            self.jobs,
            self.tests_per_sec(),
        );
        if self.crashed() > 0 {
            let _ = write!(s, " [{} crashed]", self.crashed());
        }
        if self.unknowns() > 0 {
            let _ = write!(s, " [{} unknown: budget hit]", self.unknowns());
        }
        if self.degraded() {
            let _ = write!(s, " [store degraded]");
        }
        if self.machine != MachineKind::Small {
            let _ = write!(s, " [machine: {}]", self.machine);
        }
        if let Some(sp) = self.speedup_vs_jobs1() {
            let _ = write!(s, "; {sp:.2}x vs --jobs 1");
        }
        if let Some(c) = &self.model_cache {
            let _ = write!(
                s,
                "; model cache: {} searches for {} queries ({} hits)",
                c.invocations,
                c.queries,
                c.hits()
            );
        }
        s
    }

    /// Total model queries issued by the reported tests (verdict + three
    /// atomicity sets each).
    pub fn model_queries(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| u64::from(o.model_queries))
            .sum()
    }

    /// How many of [`Report::model_queries`] the memoized verdict cache
    /// answered without a search.
    pub fn model_query_hits(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| u64::from(o.model_cache_hits))
            .sum()
    }

    /// Verdict-cache misses across the reported tests that a prefix
    /// certificate replay answered instead of a fresh search.
    pub fn prefix_hits(&self) -> u64 {
        self.outcomes.iter().map(|o| u64::from(o.prefix_hits)).sum()
    }

    /// Model searches across the reported tests where the adaptive engine
    /// chose to fan out across pool workers.
    pub fn split_decisions(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| u64::from(o.split_decisions))
            .sum()
    }

    /// The full report as JSON. Failures carry their diagnosis; passing
    /// tests are counted, not listed.
    pub fn to_json(&self) -> String {
        let failures: Value = self
            .outcomes
            .iter()
            .filter(|o| !o.passed())
            .map(|o| failure(&o.name, &o.diagnosis()))
            .collect();
        // Per-test perf attribution: wall-clock, the stable worker id that
        // ran the test, and the model-search weight behind its verdicts —
        // enough to spot a perf regression from `litmus_run` output alone.
        let tests: Value = self
            .outcomes
            .iter()
            .map(|o| {
                Value::obj()
                    .with("name", o.name.as_str())
                    .with("worker", o.worker)
                    .with("micros", o.micros)
                    .with("model_nodes", o.model_stats.nodes)
                    .with("model_pruned", o.model_stats.pruned)
                    .with("model_valid", o.model_stats.valid)
                    .with("model_tasks", o.model_stats.tasks)
                    .with("model_workers", o.model_stats.workers)
                    .with("model_queries", o.model_queries)
                    .with("model_cache_hits", o.model_cache_hits)
                    .with("prefix_hits", o.prefix_hits)
                    .with("split_decisions", o.split_decisions)
            })
            .collect();
        Value::obj()
            .with("experiment", "litmus_harness")
            .with("paper", PAPER)
            .with("corpus_total", self.corpus_total)
            .with("selected", self.selected())
            .with("jobs", self.jobs)
            .with("machine", self.machine.name())
            .with("elapsed_ms", self.elapsed_ms)
            .with("tests_per_sec", self.tests_per_sec())
            .with("baseline_jobs1_ms", self.baseline_jobs1_ms)
            .with("speedup_vs_jobs1", self.speedup_vs_jobs1())
            .with("model_failures", self.model_failures())
            .with("differential_disagreements", self.disagreements())
            .with("deadlocks", self.deadlocks())
            .with("crashed", self.crashed())
            .with("unknown", self.unknowns())
            .with("degraded", self.degraded())
            .with("faults_fired", faults::fired())
            .with("passed", self.passed())
            .with("model_queries", self.model_queries())
            .with("model_query_hits", self.model_query_hits())
            .with("prefix_hits", self.prefix_hits())
            .with("split_decisions", self.split_decisions())
            .with("model_cache", self.model_cache.as_ref())
            .with("prefix_cache", self.prefix_cache.as_ref())
            .with("store", self.store.as_ref())
            .with("failures", failures)
            .with("tests", tests)
            .to_json()
    }

    /// The run as TAP (Test Anything Protocol) version 13.
    pub fn to_tap(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "TAP version 13");
        let _ = writeln!(s, "1..{}", self.selected());
        for (i, o) in self.outcomes.iter().enumerate() {
            if o.passed() {
                let _ = writeln!(s, "ok {} - {}", i + 1, o.name);
            } else {
                let _ = writeln!(s, "not ok {} - {} # {}", i + 1, o.name, o.diagnosis());
            }
        }
        s
    }
}

/// The `paper` tag every report carries.
pub const PAPER: &str = "conf_pldi_RajaramNSE13";

/// One recorded failure: the shape of every `failures` list entry.
pub(crate) fn failure(name: &str, diagnosis: &str) -> Value {
    Value::obj().with("name", name).with("diagnosis", diagnosis)
}

/// The `model_cache` block of every report.
impl From<&CacheCounters> for Value {
    fn from(c: &CacheCounters) -> Value {
        Value::obj()
            .with("queries", c.queries)
            .with("invocations", c.invocations)
            .with("hits", c.hits())
            .with("store_hits", c.store_hits)
            .with("entries", c.entries)
    }
}

/// The `prefix_cache` block of every report.
impl From<&PrefixCounters> for Value {
    fn from(p: &PrefixCounters) -> Value {
        Value::obj()
            .with("queries", p.queries)
            .with("hits", p.hits)
            .with("store_hits", p.store_hits)
            .with("stored", p.stored)
            .with("nodes_saved", p.nodes_saved)
            .with("replayed_leaves", p.replayed_leaves)
            .with("entries", p.entries)
    }
}

/// The `store` block of every report.
impl From<&StoreCounters> for Value {
    fn from(st: &StoreCounters) -> Value {
        Value::obj()
            .with("path", st.path.as_str())
            .with("degraded", st.degraded())
            .with("open_error", st.open_error.as_deref())
            .with("loads", st.loads)
            .with("cert_loads", st.cert_loads)
            .with("appended", st.appended)
            .with("keys", st.keys)
            .with("certs", st.certs)
            .with("recovered_bytes", st.recovered_bytes)
            .with("skipped_records", st.skipped_records)
            .with("save_errors", st.save_errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_batch;
    use litmus::classic;

    fn small_report() -> Report {
        let tests = vec![classic::sb(), classic::mp()];
        let (outcomes, elapsed) = run_batch(&tests, 2);
        Report {
            outcomes,
            corpus_total: 2,
            jobs: 2,
            machine: MachineKind::Small,
            elapsed_ms: elapsed.as_secs_f64() * 1e3,
            baseline_jobs1_ms: Some(10.0),
            model_cache: Some(tso_model::cache::counters()),
            prefix_cache: Some(tso_model::prefix::counters()),
            store: None,
        }
    }

    #[test]
    fn json_has_the_contracted_fields() {
        let r = small_report();
        let j = r.to_json();
        for key in [
            "\"experiment\": \"litmus_harness\"",
            "\"machine\": \"small\"",
            "\"corpus_total\": 2",
            "\"selected\": 2",
            "\"jobs\": 2",
            "\"speedup_vs_jobs1\"",
            "\"differential_disagreements\": 0",
            "\"passed\": true",
            "\"model_queries\":",
            "\"model_query_hits\":",
            "\"model_cache\": {",
            "\"invocations\":",
            "\"prefix_cache\": {",
            "\"nodes_saved\":",
            "\"prefix_hits\":",
            "\"split_decisions\":",
            "\"crashed\": 0",
            "\"unknown\": 0",
            "\"degraded\": false",
            "\"faults_fired\":",
            "\"store\": null",
            "\"failures\": [",
            "\"tests\": [",
            "\"worker\":",
            "\"model_nodes\":",
        ] {
            assert!(j.contains(key), "missing {key} in:\n{j}");
        }
    }

    #[test]
    fn per_test_entries_cover_every_outcome() {
        let r = small_report();
        let j = r.to_json();
        assert!(j.contains("\"name\": \"SB\""));
        assert!(j.contains("\"name\": \"MP\""));
        assert_eq!(r.model_queries(), 8, "2 tests x (verdict + 3 sets)");
        assert!(r.model_query_hits() <= r.model_queries());
    }

    #[test]
    fn tap_output_is_well_formed() {
        let r = small_report();
        let tap = r.to_tap();
        assert!(tap.starts_with("TAP version 13\n1..2\n"));
        assert!(tap.contains("ok 1 - SB"));
        assert!(tap.contains("ok 2 - MP"));
        assert!(!tap.contains("not ok"));
    }

    #[test]
    fn failures_show_up_in_json_and_tap() {
        let mut broken = classic::sb();
        broken.expect = litmus::Expect::Forbidden;
        let (outcomes, elapsed) = run_batch(&[broken], 1);
        let r = Report {
            outcomes,
            corpus_total: 1,
            jobs: 1,
            machine: MachineKind::Paper,
            elapsed_ms: elapsed.as_secs_f64() * 1e3,
            baseline_jobs1_ms: None,
            model_cache: None,
            prefix_cache: None,
            store: None,
        };
        assert!(!r.passed());
        assert_eq!(r.model_failures(), 1);
        assert!(r.to_json().contains("\"passed\": false"));
        assert!(r
            .to_tap()
            .contains("not ok 1 - SB # model: expected forbidden"));
        assert!(r.to_json().contains("\"baseline_jobs1_ms\": null"));
        assert!(r.to_json().contains("\"machine\": \"paper\""));
    }

    #[test]
    fn summary_mentions_speedup_when_measured() {
        let r = small_report();
        assert!(r.summary().contains("vs --jobs 1"));
        assert!(r.speedup_vs_jobs1().is_some());
    }
}

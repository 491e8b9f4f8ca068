//! Run results: metric values, medians and the final JSON line.

use std::collections::BTreeMap;

/// Metric values of one run, by name.
pub type Metrics = BTreeMap<String, f64>;

/// What one workload run reports.
pub struct RunResult {
    pub metrics: Metrics,
    /// Operations tried: drafts scanned (litmus) or sim cells (fig11).
    pub attempted: u64,
    /// Operations that failed their correctness check.
    pub failed: u64,
    /// Why the run is not correct, one line each (empty when correct).
    pub errors: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// Median of `v` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics if `v` is empty.
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Linear-interpolated percentile `p` (0..=100) of `v`.
///
/// # Panics
///
/// Panics if `v` is empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// Per-metric median over several traced repetitions.
pub fn median_metrics(reps: &[Metrics]) -> Metrics {
    let mut out = Metrics::new();
    if let Some(first) = reps.first() {
        for name in first.keys() {
            let values: Vec<f64> = reps.iter().filter_map(|m| m.get(name).copied()).collect();
            out.insert(name.clone(), median(&values));
        }
    }
    out
}

/// Returns freed heap memory to the kernel and resets this process's peak
/// resident set size to its current size, so that [`peak_rss_mb`] next
/// reads the peak of what runs in between rather than memory the
/// allocator kept from earlier repetitions.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes a plain size, has no
        // preconditions and is thread-safe; it only releases free memory.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process, in MB (`VmHWM`), since the
/// last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The final stdout line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(r: &RunResult, units: &BTreeMap<String, &'static str>) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, &v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(v),
                units.get(name).copied().unwrap_or("")
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

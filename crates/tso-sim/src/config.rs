//! Simulator configuration (paper Table 2 plus the §3.2/§3.3 mechanism
//! knobs).

use coherence::CoherenceConfig;
use interconnect::MeshConfig;
use rmw_types::Atomicity;

/// How [`Machine::run`](crate::Machine::run) advances simulated time. The
/// two engines execute the same per-cycle core semantics and are
/// **cycle-identical** in every observable
/// ([`SimResult::first_difference`](crate::SimResult::first_difference) —
/// asserted over the litmus corpus and the §4 kernels by
/// `tests/engine_equiv.rs`); they differ only in which cycles they visit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StepMode {
    /// Tick every core every cycle — the original engine, kept as the
    /// reference implementation for the equivalence suite.
    Lockstep,
    /// Cycle-skipping scheduler (see [`crate::sched`]): jump `now` to the
    /// earliest armed wake event. Orders of magnitude faster on
    /// stall-dominated (paper-scale) workloads.
    #[default]
    EventDriven,
}

/// Full machine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Cache/directory/mesh parameters.
    pub coherence: CoherenceConfig,
    /// Time-advance engine (default: event-driven; `Lockstep` is the
    /// reference implementation).
    pub step_mode: StepMode,
    /// Write-buffer depth per core (paper: 32 entries).
    pub write_buffer_entries: usize,
    /// Maximum outstanding write-buffer coherence requests (MSHR-style
    /// pipelining). Acceptance — and hence visibility — stays FIFO; only
    /// the request round-trips overlap. During a parallel drain the whole
    /// buffer is in flight regardless of this limit.
    pub wb_outstanding: usize,
    /// Which RMW implementation the machine uses.
    pub rmw_atomicity: Atomicity,
    /// Bloom filter size in bytes (paper: 128).
    pub bloom_bytes: usize,
    /// Bloom hash count (paper: 3).
    pub bloom_hashes: u32,
    /// Disable the deadlock-avoidance filter entirely (type-2/3 become
    /// unsafe; used to demonstrate the Fig. 10 write-deadlock).
    pub bloom_enabled: bool,
    /// Reset all filters once this many addresses were inserted
    /// (`None` = never; the paper's runs never needed a reset).
    pub bloom_reset_threshold: Option<u64>,
    /// Use the §3.3 directory-locking protocol for type-3 RMWs on shared
    /// lines (ablation: `false` falls back to acquiring exclusive
    /// ownership, i.e. the type-2 path).
    pub directory_locking: bool,
    /// Issue read-exclusives for all drained writes in parallel
    /// (Gharachorloo; the paper's baseline does this).
    pub parallel_drain: bool,
    /// Insert a full fence after every RMW (the §1 hypothesis experiment).
    pub fence_after_rmw: bool,
    /// Declare deadlock after this many cycles without any core making
    /// progress.
    pub deadlock_threshold: u64,
    /// Hard cycle ceiling: the machine halts (with
    /// [`SimResult::truncated`](crate::SimResult::truncated) set) at this
    /// cycle even if cores are still making progress. Spin livelock counts
    /// as progress, so the watchdog alone cannot bound a buggy spin
    /// kernel; this can. Both engines stop at exactly the same cycle.
    pub max_cycles: u64,
    /// Kernel-trap latency of a futex call (`wait`/`wake`), in cycles.
    /// Must be ≥ 1: a woken core resumes strictly after the waking cycle.
    pub futex_latency: u64,
    /// Cache line size in bytes.
    pub line_size: u64,
}

impl SimConfig {
    /// The paper's evaluated configuration (Table 2): 32 in-order cores,
    /// 32-entry write buffers, MOESI directory, 8×4 mesh, 128-byte 3-hash
    /// Bloom filter, parallel drain, type-1 RMWs (the baseline).
    pub fn paper_table2() -> Self {
        SimConfig {
            coherence: CoherenceConfig::paper_table2(),
            step_mode: StepMode::EventDriven,
            write_buffer_entries: 32,
            wb_outstanding: 8,
            rmw_atomicity: Atomicity::Type1,
            bloom_bytes: 128,
            bloom_hashes: 3,
            bloom_enabled: true,
            bloom_reset_threshold: None,
            directory_locking: true,
            parallel_drain: true,
            fence_after_rmw: false,
            deadlock_threshold: 2_000_000,
            max_cycles: u64::MAX,
            // Half a memory round trip: a trap is cheaper than a cold
            // miss but far from free on the Table 2 machine.
            futex_latency: 150,
            line_size: 64,
        }
    }

    /// The Table 2 machine scaled to `cores` cores: every latency stays
    /// at paper values and only the mesh is resized — `paper_scaled(32)`
    /// keeps the paper's exact 8×4 grid, any other count gets the
    /// smallest near-square mesh with at least `cores` nodes (nodes past
    /// the core count are routers only). This is both the scale-*down*
    /// used by small experiment runs and the scale-*up* behind the
    /// 128/256-core machines (`litmus_run --machine 128|256`) the paper
    /// never evaluated.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn paper_scaled(cores: usize) -> Self {
        assert!(cores >= 1, "need at least 1 core, got {cores}");
        let mut c = SimConfig::paper_table2();
        if cores != 32 {
            c.coherence.num_cores = cores;
            let width = (cores as f64).sqrt().ceil() as usize;
            c.coherence.mesh.width = width;
            c.coherence.mesh.height = cores.div_ceil(width);
        }
        c
    }

    /// A small configuration for unit tests.
    pub fn small(num_cores: usize) -> Self {
        SimConfig {
            coherence: CoherenceConfig::small(num_cores),
            step_mode: StepMode::EventDriven,
            write_buffer_entries: 8,
            wb_outstanding: 4,
            rmw_atomicity: Atomicity::Type1,
            bloom_bytes: 64,
            bloom_hashes: 3,
            bloom_enabled: true,
            bloom_reset_threshold: None,
            directory_locking: true,
            parallel_drain: true,
            fence_after_rmw: false,
            deadlock_threshold: 100_000,
            max_cycles: u64::MAX,
            futex_latency: 30,
            line_size: 64,
        }
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.coherence.num_cores
    }

    /// The mesh configuration.
    pub fn mesh(&self) -> MeshConfig {
        self.coherence.mesh
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.write_buffer_entries == 0 {
            return Err("write buffer must have at least one entry".into());
        }
        if self.bloom_bytes == 0 || self.bloom_hashes == 0 {
            return Err("bloom filter configuration must be nonzero".into());
        }
        if !self.line_size.is_power_of_two() {
            return Err(format!("line size {} not a power of two", self.line_size));
        }
        if self.coherence.num_cores > self.coherence.mesh.num_nodes() {
            return Err("more cores than mesh nodes".into());
        }
        if self.futex_latency == 0 {
            return Err("futex latency must be at least one cycle".into());
        }
        if self.max_cycles == 0 {
            return Err("max_cycles must be nonzero".into());
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::paper_table2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table2() {
        let c = SimConfig::paper_table2();
        assert_eq!(c.num_cores(), 32);
        assert_eq!(c.write_buffer_entries, 32);
        assert_eq!(c.coherence.l1_latency, 2);
        assert_eq!(c.coherence.l2_latency, 6);
        assert_eq!(c.coherence.memory_latency, 300);
        assert_eq!(c.bloom_bytes, 128);
        assert_eq!(c.bloom_hashes, 3);
        assert!(c.parallel_drain);
        assert!(c.validate().is_ok());
        assert_eq!(c, SimConfig::default());
    }

    #[test]
    fn paper_scaled_keeps_latencies_at_every_size() {
        assert_eq!(SimConfig::paper_scaled(32), SimConfig::paper_table2());
        for cores in [1, 8, 128, 256] {
            let c = SimConfig::paper_scaled(cores);
            assert_eq!(c.num_cores(), cores);
            assert_eq!(c.coherence.l1_latency, 2);
            assert_eq!(c.coherence.l2_latency, 6);
            assert_eq!(c.coherence.memory_latency, 300);
            assert!(c.mesh().num_nodes() >= cores);
            assert!(c.validate().is_ok());
        }
        // The big machines stay near-square: 128 → 12×11, 256 → 16×16.
        assert_eq!(SimConfig::paper_scaled(128).mesh().num_nodes(), 132);
        assert_eq!(SimConfig::paper_scaled(256).mesh().num_nodes(), 256);
    }

    #[test]
    fn validate_catches_bad_configs() {
        let mut c = SimConfig::small(2);
        c.write_buffer_entries = 0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::small(2);
        c.bloom_bytes = 0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::small(2);
        c.line_size = 48;
        assert!(c.validate().is_err());

        let mut c = SimConfig::small(2);
        c.futex_latency = 0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::small(2);
        c.max_cycles = 0;
        assert!(c.validate().is_err());
    }
}

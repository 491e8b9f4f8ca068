//! Measurement from outside the program: a timing wrapper around the
//! harness's verdict store, installed through the model's public
//! persistence hooks, so no crate of the repository changes.

use harness::store::SharedStore;
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tso_model::cache::VerdictStore;
use tso_model::prefix::{CertData, CertificateStore};
use tso_model::{Outcome, SearchStats};

thread_local! {
    /// Set when this thread's last verdict lookup was answered by the
    /// store: the model cache calls the store on the querying thread, so
    /// this tells a store hit from a memory hit for one query.
    static STORE_LOADED: Cell<bool> = const { Cell::new(false) };
}

/// Clears this thread's store-hit flag before a model query.
pub fn reset_store_flag() {
    STORE_LOADED.with(|f| f.set(false));
}

/// True when the store answered a verdict lookup on this thread since the
/// last [`reset_store_flag`].
pub fn store_flag() -> bool {
    STORE_LOADED.with(Cell::get)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn add_ns(counter: &AtomicU64, since: Instant) {
    let ns = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
    counter.fetch_add(ns, Ordering::Relaxed);
}

/// A [`SharedStore`] that times every load and save the model makes.
pub struct TimingStore {
    inner: Arc<SharedStore>,
    load_ns: AtomicU64,
    save_ns: AtomicU64,
}

impl TimingStore {
    pub fn new(inner: Arc<SharedStore>) -> Self {
        TimingStore {
            inner,
            load_ns: AtomicU64::new(0),
            save_ns: AtomicU64::new(0),
        }
    }

    /// Seconds spent in verdict and certificate loads.
    pub fn load_s(&self) -> f64 {
        self.load_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Seconds spent in verdict and certificate saves (appends).
    pub fn save_s(&self) -> f64 {
        self.save_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

impl VerdictStore for TimingStore {
    fn load(&self, key: &[u64]) -> Option<(BTreeSet<Outcome>, SearchStats)> {
        let t = Instant::now();
        let found = self.inner.load(key);
        add_ns(&self.load_ns, t);
        if found.is_some() {
            STORE_LOADED.with(|f| f.set(true));
        }
        found
    }

    fn save(
        &self,
        key: &[u64],
        fingerprint: u64,
        outcomes: &BTreeSet<Outcome>,
        stats: &SearchStats,
    ) {
        let t = Instant::now();
        self.inner.save(key, fingerprint, outcomes, stats);
        add_ns(&self.save_ns, t);
    }
}

impl CertificateStore for TimingStore {
    fn load_cert(&self, masked_key: &[u64]) -> Option<CertData> {
        let t = Instant::now();
        let found = self.inner.load_cert(masked_key);
        add_ns(&self.load_ns, t);
        found
    }

    fn save_cert(&self, masked_key: &[u64], fingerprint: u64, cert: &CertData) {
        let t = Instant::now();
        self.inner.save_cert(masked_key, fingerprint, cert);
        add_ns(&self.save_ns, t);
    }
}

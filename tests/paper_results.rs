//! Integration-level checks of the paper's semantic results: the complete
//! Table 1 matrix, the full litmus corpus, and the Fig. 10 deadlock pair —
//! everything in one place, across crate boundaries.

use fast_rmw_tso::cc11::{verify::corpus, verify_mapping, Mapping};
use fast_rmw_tso::litmus::{classic, paper, run_all, table1};
use fast_rmw_tso::rmw_types::{Addr, Atomicity};
use fast_rmw_tso::tso_sim::{Machine, Op, SimConfig, Trace};

#[test]
fn full_litmus_corpus_passes() {
    let mut tests = classic::all();
    tests.extend(paper::all());
    let failures = run_all(&tests);
    assert!(
        failures.is_empty(),
        "litmus failures: {:?}",
        failures.iter().map(|f| &f.name).collect::<Vec<_>>()
    );
}

#[test]
fn table1_complete_matrix() {
    // Hardware idiom columns.
    let rows = table1();
    let expect_hw = [
        (Atomicity::Type1, true, true, true),
        (Atomicity::Type2, true, true, false),
        (Atomicity::Type3, true, false, false),
    ];
    for (row, (a, reads, writes, barriers)) in rows.iter().zip(expect_hw) {
        assert_eq!(row.atomicity, a);
        assert_eq!(row.dekker_reads, reads, "{a} dekker-reads");
        assert_eq!(row.dekker_writes, writes, "{a} dekker-writes");
        assert_eq!(row.rmws_as_barriers, barriers, "{a} barriers");
    }
    // C/C++11 columns.
    for a in Atomicity::ALL {
        let sc_reads_ok = corpus()
            .iter()
            .all(|(_, p)| verify_mapping(p, Mapping::Read, a).is_ok());
        let sc_writes_ok = corpus()
            .iter()
            .all(|(_, p)| verify_mapping(p, Mapping::Write, a).is_ok());
        assert!(sc_reads_ok, "{a}: SC-read replacement must be sound");
        assert_eq!(
            sc_writes_ok,
            a != Atomicity::Type3,
            "{a}: SC-write replacement soundness"
        );
    }
}

#[test]
fn fig10_deadlock_manifests_and_is_avoided_for_both_weak_types() {
    for atomicity in [Atomicity::Type2, Atomicity::Type3] {
        let mk = |bloom: bool| {
            let mut cfg = SimConfig::small(2);
            cfg.rmw_atomicity = atomicity;
            cfg.bloom_enabled = bloom;
            cfg.deadlock_threshold = 20_000;
            let t0 = Trace::new(vec![Op::write(Addr(0), 1), Op::rmw(Addr(64))]);
            let t1 = Trace::new(vec![Op::write(Addr(64), 1), Op::rmw(Addr(0))]);
            Machine::new(cfg, vec![t0, t1]).run()
        };
        assert!(mk(false).deadlocked, "{atomicity}: deadlock must manifest");
        let safe = mk(true);
        assert!(!safe.deadlocked, "{atomicity}: addr-list must prevent it");
        // Atomicity preserved even through the recovery: both FAA(1)s land.
        assert_eq!(safe.memory.get(&Addr(0)), Some(&2));
        assert_eq!(safe.memory.get(&Addr(64)), Some(&2));
    }
}

#[test]
fn lemma_results_visible_across_crates() {
    use fast_rmw_tso::tso_model::lemmas::ordering_enforced;
    use fast_rmw_tso::tso_model::{valid_executions, ProgramBuilder};
    use rmw_types::RmwKind;

    // Lemma 1 via the public API: W1 → R2 enforced around a type-1 RMW.
    let mut b = ProgramBuilder::new();
    b.thread()
        .write(Addr(0), 1)
        .rmw(Addr(2), RmwKind::TestAndSet, Atomicity::Type1)
        .read(Addr(1));
    b.thread().write(Addr(1), 1);
    let p = b.build();
    for c in valid_executions(&p) {
        let w1 = c
            .events()
            .iter()
            .find(|e| !e.is_init() && e.is_write() && e.rmw.is_none())
            .unwrap()
            .id;
        let r2 = c
            .events()
            .iter()
            .find(|e| e.is_read() && e.rmw.is_none() && e.tid == Some(rmw_types::ThreadId(0)))
            .unwrap()
            .id;
        assert!(ordering_enforced(&c, w1, r2));
    }
}

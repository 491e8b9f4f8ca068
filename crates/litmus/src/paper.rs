//! Every Dekker scenario of the paper, parameterized by RMW atomicity.
//!
//! The mutual-exclusion failure in Dekker's algorithm is "both threads'
//! final reads see 0" — each test's target encodes that failure, and the
//! expectation follows the paper's Table 1:
//!
//! | scenario                      | type-1 | type-2 | type-3 |
//! |-------------------------------|--------|--------|--------|
//! | reads replaced by RMWs (Fig 4)| works  | works  | works  |
//! | writes replaced (Fig 3)       | works  | works  | fails  |
//! | RMWs as barriers, diff addrs (Fig 5) | works | fails | fails |
//! | RMWs as barriers, same addr (Fig 8)  | works | works | works |
//!
//! "works" = failure outcome forbidden by the model.
//!
//! Figure 10's write-deadlock program is the *same shape* as Fig. 4: the
//! model forbids the both-reads-0 outcome, so a correct implementation must
//! resolve the situation without deadlock — which is what the Bloom-filter
//! mechanism of §3.2 (crate `tso-sim`) provides.

use crate::{Expect, Litmus, Target};
use rmw_types::{Addr, Atomicity, RmwKind};
use tso_model::ProgramBuilder;

const X: Addr = Addr(0);
const Y: Addr = Addr(1);
const Z1: Addr = Addr(2);
const Z2: Addr = Addr(3);

fn expect_works(works: bool) -> Expect {
    if works {
        Expect::Forbidden
    } else {
        Expect::Allowed
    }
}

/// Fig. 4: Dekker's with the *reads* replaced by RMWs:
/// `W x=1; RMW(y) || W y=1; RMW(x)`; failure = both RMW reads see 0.
/// Works for all three atomicity types.
pub fn dekker_read_replacement(atomicity: Atomicity) -> Litmus {
    let mut b = ProgramBuilder::new();
    b.thread()
        .write(X, 1)
        .rmw(Y, RmwKind::FetchAndAdd(0), atomicity);
    b.thread()
        .write(Y, 1)
        .rmw(X, RmwKind::FetchAndAdd(0), atomicity);
    Litmus {
        name: format!("dekker-reads-replaced {atomicity}"),
        description: "paper Fig. 4: reads of Dekker's replaced by RMWs".into(),
        program: b.build(),
        target: Target(vec![(0, 0), (1, 0)]),
        expect: expect_works(true),
    }
}

/// Fig. 3: Dekker's with the *writes* replaced by RMWs:
/// `RMW(x); R y || RMW(y); R x`; failure = both plain reads see 0.
/// Works for type-1 and type-2; **fails for type-3** (§2.5).
pub fn dekker_write_replacement(atomicity: Atomicity) -> Litmus {
    let mut b = ProgramBuilder::new();
    b.thread().rmw(X, RmwKind::TestAndSet, atomicity).read(Y);
    b.thread().rmw(Y, RmwKind::TestAndSet, atomicity).read(X);
    // reads in (thread, po) order: Ra(x)=0, R(y)=1, Ra(y)=2, R(x)=3
    Litmus {
        name: format!("dekker-writes-replaced {atomicity}"),
        description: "paper Fig. 3: writes of Dekker's replaced by RMWs".into(),
        program: b.build(),
        target: Target(vec![(1, 0), (3, 0)]),
        expect: expect_works(atomicity != Atomicity::Type3),
    }
}

/// Fig. 5: RMWs inserted as *barriers* between write and read, accessing
/// **different** addresses `z1`/`z2`. Works only for type-1.
pub fn dekker_rmw_barriers_diff_addr(atomicity: Atomicity) -> Litmus {
    let mut b = ProgramBuilder::new();
    b.thread()
        .write(X, 1)
        .rmw(Z1, RmwKind::TestAndSet, atomicity)
        .read(Y);
    b.thread()
        .write(Y, 1)
        .rmw(Z2, RmwKind::TestAndSet, atomicity)
        .read(X);
    // reads: Ra(z1)=0, R(y)=1, Ra(z2)=2, R(x)=3
    Litmus {
        name: format!("dekker-rmw-barriers-diff {atomicity}"),
        description: "paper Fig. 5: RMWs to different addresses used as barriers".into(),
        program: b.build(),
        target: Target(vec![(1, 0), (3, 0)]),
        expect: expect_works(atomicity == Atomicity::Type1),
    }
}

/// Fig. 8: RMWs as barriers accessing the **same** address `z` — forcing
/// the RMWs to synchronize restores correctness for all three types.
pub fn dekker_rmw_barriers_same_addr(atomicity: Atomicity) -> Litmus {
    let mut b = ProgramBuilder::new();
    b.thread()
        .write(X, 1)
        .rmw(Z1, RmwKind::FetchAndAdd(1), atomicity)
        .read(Y);
    b.thread()
        .write(Y, 1)
        .rmw(Z1, RmwKind::FetchAndAdd(1), atomicity)
        .read(X);
    Litmus {
        name: format!("dekker-rmw-barriers-same {atomicity}"),
        description: "paper Fig. 8: RMWs to the same address used as barriers".into(),
        program: b.build(),
        target: Target(vec![(1, 0), (3, 0)]),
        expect: expect_works(true),
    }
}

/// Fig. 1(b): plain Dekker's entry (= SB). The failure is allowed without
/// help — this is why Dekker's needs barriers or RMWs on TSO.
pub fn dekker_plain() -> Litmus {
    let mut b = ProgramBuilder::new();
    b.thread().write(X, 1).read(Y);
    b.thread().write(Y, 1).read(X);
    Litmus {
        name: "dekker-plain".into(),
        description: "paper Fig. 1(b): unsynchronized Dekker's entry fails on TSO".into(),
        program: b.build(),
        target: Target(vec![(0, 0), (1, 0)]),
        expect: Expect::Allowed,
    }
}

/// Fig. 10: the write-deadlock shape — identical program to Fig. 4. The
/// model forbids the both-reads-0 outcome; §3.2's Bloom filter lets the
/// implementation comply without deadlocking.
pub fn fig10_write_deadlock(atomicity: Atomicity) -> Litmus {
    let mut l = dekker_read_replacement(atomicity);
    l.name = format!("fig10-write-deadlock {atomicity}");
    l.description =
        "paper Fig. 10: cross-locked RMWs; outcome forbidden, implementation must not deadlock"
            .into();
    l
}

/// Fig. 1(d)/1(e) mixed replacement: one thread replaces its read, the
/// other its write. Works for type-1/type-2 (both sides appear strongly
/// ordered to the synchronizing op); for type-3 the write-replaced side is
/// unprotected, so it fails.
pub fn dekker_mixed(atomicity: Atomicity) -> Litmus {
    let mut b = ProgramBuilder::new();
    // thread 0: write replaced
    b.thread().rmw(X, RmwKind::TestAndSet, atomicity).read(Y);
    // thread 1: read replaced
    b.thread()
        .write(Y, 1)
        .rmw(X, RmwKind::FetchAndAdd(0), atomicity);
    // reads: Ra(x)=0, R(y)=1, Ra(x)'=2
    // Failure: thread 0 misses thread 1's write (r1 = 0) and thread 1's RMW
    // read misses thread 0's RMW write (r2 = 0).
    Litmus {
        name: format!("dekker-mixed {atomicity}"),
        description: "one side write-replaced, other side read-replaced, same flag".into(),
        program: b.build(),
        target: Target(vec![(1, 0), (2, 0)]),
        expect: expect_works(true),
    }
}

/// The complete paper corpus across all atomicity types.
pub fn all() -> Vec<Litmus> {
    let mut tests = vec![dekker_plain()];
    for a in Atomicity::ALL {
        tests.push(dekker_read_replacement(a));
        tests.push(dekker_write_replacement(a));
        tests.push(dekker_rmw_barriers_diff_addr(a));
        tests.push(dekker_rmw_barriers_same_addr(a));
        tests.push(fig10_write_deadlock(a));
        tests.push(dekker_mixed(a));
    }
    tests
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_all;

    #[test]
    fn every_paper_test_matches_table1() {
        let failures = run_all(&all());
        assert!(
            failures.is_empty(),
            "paper litmus failures: {:?}",
            failures
                .iter()
                .map(|f| format!(
                    "{} (expected {}, observed allowed={})",
                    f.name, f.expect, f.observed_allowed
                ))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn type3_write_replacement_counterexample_exists() {
        // The distinguishing result: type-3 write replacement admits the
        // mutual-exclusion failure (paper §2.5).
        let l = dekker_write_replacement(Atomicity::Type3);
        let r = l.check();
        assert!(r.passed);
        assert!(r.observed_allowed, "failure outcome must be observable");
    }

    #[test]
    fn type2_differs_from_type1_only_on_barrier_idiom() {
        type Mk = fn(Atomicity) -> Litmus;
        let cases: [(Mk, bool); 4] = [
            (dekker_read_replacement, true),
            (dekker_write_replacement, true),
            (dekker_rmw_barriers_same_addr, true),
            (dekker_rmw_barriers_diff_addr, false),
        ];
        for (mk, same) in cases {
            let e1 = mk(Atomicity::Type1).expect;
            let e2 = mk(Atomicity::Type2).expect;
            if same {
                assert_eq!(e1, e2);
            } else {
                assert_ne!(e1, e2);
            }
        }
    }
}

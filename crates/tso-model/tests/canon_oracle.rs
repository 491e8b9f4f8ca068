//! The pruned canonical-order search against the exhaustive oracle.
//!
//! [`Program::canonicalize`] and [`Program::canonical_fingerprint`] find
//! the minimal serialization over thread orders by a pruned search (see
//! `tso_model::canon`). The oracle here is the search it replaced:
//! serialize the program under every one of the n! thread orders (identity
//! order above [`PERM_SEARCH_MAX_THREADS`]) and keep the first minimum.
//! Keys, fingerprints and canonical programs must be bit-identical to the
//! oracle's on
//!
//! * the classic and paper corpora and every generated family,
//! * 2000+ campaign drafts covering 2 to 8 threads, each under its three
//!   uniform atomicity rewrites,
//! * the fully symmetric 7-thread shapes, and
//! * random programs with duplicated and address-shifted threads.
//!
//! When a program has automorphisms the two searches may pick different
//! thread orders for the same key; the chosen order must then still
//! serialize to the key and map the canonical allowed set back onto the
//! original program's.

use proptest::prelude::*;
use rmw_types::fasthash::FastHasher;
use rmw_types::{Addr, Atomicity, RmwKind, ThreadId};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hasher as _;
use tso_model::canon::PERM_SEARCH_MAX_THREADS;
use tso_model::{allowed_outcomes, Instr, Outcome, Program, ProgramBuilder};

/// Serializes the program with threads in `perm` order and addresses
/// renamed by first appearance; returns the word stream and the rename map.
fn serialize_under(p: &Program, perm: &[usize]) -> (Vec<u64>, BTreeMap<Addr, Addr>) {
    let mut addr_map: BTreeMap<Addr, Addr> = BTreeMap::new();
    let mut next_addr = 0u64;
    let mut canon_of = |a: Addr, map: &mut BTreeMap<Addr, Addr>| -> u64 {
        map.entry(a)
            .or_insert_with(|| {
                let c = Addr(next_addr);
                next_addr += 1;
                c
            })
            .0
    };
    let mut words = Vec::with_capacity(p.num_instrs() * 4 + perm.len() + 1);
    words.push(perm.len() as u64);
    for &t in perm {
        let instrs = p.thread(ThreadId(t));
        words.push(u64::MAX); // unambiguous thread separator
        words.push(instrs.len() as u64);
        for &i in instrs {
            match i {
                Instr::Read(a) => {
                    words.push(1);
                    words.push(canon_of(a, &mut addr_map));
                }
                Instr::Write(a, v) => {
                    words.push(2);
                    words.push(canon_of(a, &mut addr_map));
                    words.push(v);
                }
                Instr::Rmw {
                    addr,
                    kind,
                    atomicity,
                } => {
                    words.push(3);
                    words.push(canon_of(addr, &mut addr_map));
                    let (k, a1, a2) = match kind {
                        RmwKind::TestAndSet => (0, 0, 0),
                        RmwKind::FetchAndAdd(k) => (1, k, 0),
                        RmwKind::CompareAndSwap { expected, new } => (2, expected, new),
                        RmwKind::Exchange(v) => (3, v, 0),
                    };
                    words.push(k);
                    words.push(a1);
                    words.push(a2);
                    words.push(match atomicity {
                        Atomicity::Type1 => 1,
                        Atomicity::Type2 => 2,
                        Atomicity::Type3 => 3,
                    });
                }
                Instr::Fence => words.push(4),
            }
        }
    }
    (words, addr_map)
}

/// Visits every permutation of `items` (recursive swap enumeration;
/// deterministic order).
fn permute(items: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize])) {
    if k + 1 >= items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

/// The oracle's canonical form: its key, thread order and canonical
/// program.
struct Oracle {
    key: Vec<u64>,
    perm: Vec<usize>,
    program: Program,
}

fn oracle(p: &Program) -> Oracle {
    let n = p.num_threads();
    type Best = Option<(Vec<u64>, Vec<usize>, BTreeMap<Addr, Addr>)>;
    let mut best: Best = None;
    let mut consider = |perm: &[usize]| {
        let (key, addr_map) = serialize_under(p, perm);
        let better = match &best {
            Some((best_key, _, _)) => key < *best_key,
            None => true,
        };
        if better {
            best = Some((key, perm.to_vec(), addr_map));
        }
    };
    let mut perm: Vec<usize> = (0..n).collect();
    if n <= PERM_SEARCH_MAX_THREADS {
        permute(&mut perm, 0, &mut consider);
    } else {
        consider(&perm);
    }
    let (key, perm, addr_map) = best.expect("at least the identity order considered");
    let mut program = Program::new();
    for &t in &perm {
        let renamed = p
            .thread(ThreadId(t))
            .iter()
            .map(|&i| match i {
                Instr::Read(a) => Instr::Read(addr_map[&a]),
                Instr::Write(a, v) => Instr::Write(addr_map[&a], v),
                Instr::Rmw {
                    addr,
                    kind,
                    atomicity,
                } => Instr::Rmw {
                    addr: addr_map[&addr],
                    kind,
                    atomicity,
                },
                Instr::Fence => Instr::Fence,
            })
            .collect();
        program.add_thread(renamed);
    }
    Oracle { key, perm, program }
}

fn fingerprint_of(key: &[u64]) -> u64 {
    let mut hasher = FastHasher::default();
    for &word in key {
        hasher.write_u64(word);
    }
    hasher.finish()
}

/// Asserts that the pruned search gives the oracle's key, fingerprint and
/// program, and that its thread order and coordinate maps are consistent
/// with them. A differing thread order (an automorphism of the program)
/// must map the canonical allowed set back onto the original's; that
/// costs two model searches, so it is checked when `outcomes` is set.
/// Returns whether the thread order differs from the oracle's.
fn assert_matches_oracle(name: &str, p: &Program, outcomes: bool) -> bool {
    let want = oracle(p);
    let got = p.canonicalize();
    assert_eq!(got.key(), &want.key[..], "{name}: key differs from oracle");
    assert_eq!(
        got.fingerprint(),
        fingerprint_of(&want.key),
        "{name}: fingerprint"
    );
    assert_eq!(
        p.canonical_fingerprint(),
        got.fingerprint(),
        "{name}: fast fingerprint"
    );
    assert_eq!(got.program(), &want.program, "{name}: canonical program");

    // The chosen order serializes to the key, under the rename map the
    // Canonical reports.
    let perm: Vec<usize> = got.thread_perm().iter().map(|t| t.index()).collect();
    let (key, addr_map) = serialize_under(p, &perm);
    assert_eq!(key, want.key, "{name}: thread_perm does not give the key");
    for (&original, &canonical) in &addr_map {
        assert_eq!(got.addr_to_canonical(original), canonical, "{name}");
        assert_eq!(got.addr_to_original(canonical), original, "{name}");
    }

    let differs = perm != want.perm;
    if differs && outcomes {
        let mapped: BTreeSet<Outcome> = allowed_outcomes(got.program())
            .iter()
            .map(|o| got.outcome_to_original(o))
            .collect();
        assert_eq!(
            mapped,
            allowed_outcomes(p),
            "{name}: automorphic thread order maps outcomes wrongly"
        );
    }
    differs
}

#[test]
fn corpora_and_families_match_the_oracle() {
    let mut tests = litmus::classic::all();
    tests.extend(litmus::paper::all());
    tests.extend(litmus::gen::generated_corpus(litmus::gen::DEFAULT_SEED, 48));
    for test in &tests {
        assert_matches_oracle(&test.name, &test.program, true);
    }
}

#[test]
fn campaign_drafts_and_their_atomicity_rewrites_match_the_oracle() {
    let mut drafts_per_threads = BTreeMap::new();
    for index in 0..2000 {
        let draft = litmus::gen::campaign_draft(1, index);
        let p = &draft.program;
        *drafts_per_threads.entry(p.num_threads()).or_insert(0) += 1;
        assert_matches_oracle(&draft.name, p, true);
        for a in Atomicity::ALL {
            let rewritten = p.with_atomicity(a);
            if rewritten != *p {
                assert_matches_oracle(&format!("{} @{a:?}", draft.name), &rewritten, true);
            }
        }
    }
    for threads in 2..=PERM_SEARCH_MAX_THREADS + 1 {
        assert!(
            drafts_per_threads.contains_key(&threads),
            "no {threads}-thread draft among {drafts_per_threads:?}"
        );
    }
}

/// 7 threads of one instruction list over shared addresses.
fn identical_threads() -> Program {
    let mut b = ProgramBuilder::new();
    for _ in 0..7 {
        b.thread().write(Addr(0), 1).read(Addr(1)).rmw(
            Addr(0),
            RmwKind::FetchAndAdd(1),
            Atomicity::Type2,
        );
    }
    b.build()
}

/// Thread i writes x_i and reads x_{i+1 mod 7}: every rotation is an
/// automorphism, and no two threads share an instruction list.
fn address_ring() -> Program {
    let mut b = ProgramBuilder::new();
    for i in 0..7u64 {
        b.thread().write(Addr(i), 1).read(Addr((i + 1) % 7));
    }
    b.build()
}

/// 4 copies of one thread and 3 of another, interleaved.
fn two_identical_groups() -> Program {
    let mut b = ProgramBuilder::new();
    for i in 0..7 {
        if i % 2 == 0 {
            b.thread().write(Addr(0), 1).read(Addr(1));
        } else {
            b.thread().write(Addr(1), 1).read(Addr(0));
        }
    }
    b.build()
}

/// 7 threads of one shape over disjoint addresses: no two instruction
/// lists are equal, yet every thread order gives the same key.
fn disjoint_isomorphic_threads() -> Program {
    let mut b = ProgramBuilder::new();
    for i in 0..7u64 {
        b.thread().write(Addr(10 + i), 1).read(Addr(10 + i));
    }
    b.build()
}

#[test]
fn symmetric_seven_thread_programs_match_the_oracle() {
    for (name, p) in [
        ("identical threads", identical_threads()),
        ("address ring", address_ring()),
        ("two identical groups", two_identical_groups()),
        ("disjoint isomorphic threads", disjoint_isomorphic_threads()),
    ] {
        assert_matches_oracle(name, &p, false);
    }
}

#[test]
fn an_automorphic_thread_order_maps_outcomes_back_exactly() {
    // The one-instruction thread 2 goes first; threads 0 and 1 then tie,
    // and each names one address no other thread uses, so the pruned
    // search explores only thread 0 and reports order [2, 0, 1], while
    // the oracle keeps [2, 1, 0]. Reads and final memory must still map
    // back onto the original's allowed set.
    let (s, a, b) = (Addr(7), Addr(3), Addr(9));
    let mut builder = ProgramBuilder::new();
    builder.thread().write(a, 1).read(s);
    builder.thread().write(b, 1).read(s);
    builder.thread().write(s, 2);
    assert!(assert_matches_oracle(
        "private siblings",
        &builder.build(),
        true
    ));
}

/// Generates a small random instruction.
fn arb_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (0u64..4).prop_map(|a| Instr::Read(Addr(a))),
        ((0u64..4), (1u64..3)).prop_map(|(a, v)| Instr::Write(Addr(a), v)),
        ((0u64..4), (0usize..3)).prop_map(|(a, t)| Instr::Rmw {
            addr: Addr(a),
            kind: RmwKind::FetchAndAdd(1),
            atomicity: Atomicity::ALL[t],
        }),
        Just(Instr::Fence),
    ]
}

/// Random threads plus copies of some of them, either verbatim or with
/// every address moved to a fresh one, shuffled by rotation: the copies
/// are the automorphisms the pruned search must collapse exactly.
fn arb_program() -> impl Strategy<Value = Program> {
    let thread = proptest::collection::vec(arb_instr(), 1..4);
    let copy = ((0usize..8), (0u64..2));
    (
        proptest::collection::vec(thread, 1..5),
        proptest::collection::vec(copy, 0..5),
        0usize..8,
    )
        .prop_map(|(mut threads, copies, rotate)| {
            for (from, shifted) in copies {
                let src = threads[from % threads.len()].clone();
                let shift = 10 * shifted * threads.len() as u64;
                let moved = src
                    .iter()
                    .map(|&i| match i {
                        Instr::Read(a) => Instr::Read(Addr(a.0 + shift)),
                        Instr::Write(a, v) => Instr::Write(Addr(a.0 + shift), v),
                        Instr::Rmw {
                            addr,
                            kind,
                            atomicity,
                        } => Instr::Rmw {
                            addr: Addr(addr.0 + shift),
                            kind,
                            atomicity,
                        },
                        Instr::Fence => Instr::Fence,
                    })
                    .collect();
                threads.push(moved);
            }
            let len = threads.len();
            threads.rotate_left(rotate % len);
            let mut p = Program::new();
            for t in threads {
                p.add_thread(t);
            }
            p
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_programs_with_duplicated_threads_match_the_oracle(p in arb_program()) {
        assert_matches_oracle("random", &p, p.num_instrs() <= 8);
    }
}

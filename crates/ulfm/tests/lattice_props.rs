//! Property tests for the lattice-agreement fast path.
//!
//! Three layers, matching the protocol's correctness argument:
//!
//! 1. **Semilattice laws** — [`Proposal::join`] must be associative,
//!    commutative, and idempotent for arbitrary proposals; the uniformity
//!    proof leans on merges being order-insensitive.
//! 2. **Decide uniformity** — for arbitrary group sizes, pre-dead members,
//!    and deaths scripted at arbitrary `lattice.*` fault points and
//!    occurrences (on top of the thread scheduler's own interleaving),
//!    every member that returns `Ok` must hold the *same* decided result.
//! 3. **Oracle conformance** — in the failure-free case the lattice
//!    protocol must agree on exactly what the flood-set oracle agrees on,
//!    for arbitrary per-rank flag words and auxiliary values.

use proptest::prelude::*;
use transport::{BackendKind, FaultPlan, Mesh, RankId, Topology};
use ulfm::{lattice_agree, AgreeImpl, AgreeResult, Proc, Proposal, UlfmError, Universe};

/// Fresh recovery-class tag window for a standalone fabric (no communicator
/// allocates tags here, so any wide base works).
const TAG_BASE: u64 = 1 << 32;

fn proposal_from(flags: u64, min: u64, bitmap: Vec<u64>) -> Proposal {
    Proposal { flags, min, bitmap }
}

fn joined(a: &Proposal, b: &Proposal) -> Proposal {
    let mut out = a.clone();
    out.join(b);
    out
}

/// Run `lattice_agree` over `n` threads with scripted deaths and pre-dead
/// ranks; returns one result slot per *spawned* (non-pre-killed) member.
fn run_lattice(
    n: usize,
    plan: FaultPlan,
    pre_kill: &[usize],
    flag_of: impl Fn(usize) -> u64 + Send + Sync,
    min_of: impl Fn(usize) -> u64 + Send + Sync,
) -> Vec<Result<AgreeResult, UlfmError>> {
    // In process: the pre-killed members die on the shared fabric.
    let mesh = Mesh::new(BackendKind::InProc, Topology::flat(), n, plan).expect("in-process mesh");
    for &k in pre_kill {
        mesh.fabric().unwrap().kill_rank(RankId(k));
    }
    let group: Vec<RankId> = (0..n).map(RankId).collect();
    // A member exits as soon as it decides, which its peers still deciding
    // observe as a death: the result must stay uniform.
    let results = mesh.run(|ep| {
        let i = ep.rank().0;
        (!pre_kill.contains(&i))
            .then(|| lattice_agree(&ep, &group, i, TAG_BASE, flag_of(i), min_of(i), false))
    });
    results.into_iter().flatten().collect()
}

/// Decode one scripted death from a raw word: a victim rank in `1..n`
/// (rank 0 is never killed so at least one member always decides), one of
/// the three in-protocol fault points, and a small occurrence. Occurrences
/// past what the run reaches simply never fire — the victim survives.
fn decode_death(word: u64, n: usize) -> (RankId, &'static str, u64) {
    let rank = 1 + (word as usize % (n - 1));
    let point = match (word >> 8) % 3 {
        0 => "lattice.propose",
        1 => "lattice.ack",
        _ => "lattice.decide",
    };
    let occurrence = 1 + (word >> 16) % 3;
    (RankId(rank), point, occurrence)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Associativity: `(a ⊔ b) ⊔ c == a ⊔ (b ⊔ c)`.
    #[test]
    fn join_is_associative(
        fa in any::<u64>(), fb in any::<u64>(), fc in any::<u64>(),
        ma in any::<u64>(), mb in any::<u64>(), mc in any::<u64>(),
        width in 1usize..4,
        seed in any::<u64>(),
    ) {
        let word = |i: u64| seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(i as u32 * 7);
        let a = proposal_from(fa, ma, (0..width).map(|i| word(i as u64)).collect());
        let b = proposal_from(fb, mb, (0..width).map(|i| word(i as u64 + 10)).collect());
        let c = proposal_from(fc, mc, (0..width).map(|i| word(i as u64 + 20)).collect());
        prop_assert_eq!(joined(&joined(&a, &b), &c), joined(&a, &joined(&b, &c)));
    }

    /// Commutativity: `a ⊔ b == b ⊔ a`.
    #[test]
    fn join_is_commutative(
        fa in any::<u64>(), fb in any::<u64>(),
        ma in any::<u64>(), mb in any::<u64>(),
        width in 1usize..4,
        seed in any::<u64>(),
    ) {
        let word = |i: u64| seed.wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(i as u32 * 11);
        let a = proposal_from(fa, ma, (0..width).map(|i| word(i as u64)).collect());
        let b = proposal_from(fb, mb, (0..width).map(|i| word(i as u64 + 5)).collect());
        prop_assert_eq!(joined(&a, &b), joined(&b, &a));
    }

    /// Idempotence: `a ⊔ a == a`, and re-joining an absorbed element is a
    /// no-op (`(a ⊔ b) ⊔ b == a ⊔ b`).
    #[test]
    fn join_is_idempotent(
        fa in any::<u64>(), fb in any::<u64>(),
        ma in any::<u64>(), mb in any::<u64>(),
        width in 1usize..4,
        seed in any::<u64>(),
    ) {
        let word = |i: u64| seed.wrapping_mul(0x94D0_49BB_1331_11EB).rotate_left(i as u32 * 13);
        let a = proposal_from(fa, ma, (0..width).map(|i| word(i as u64)).collect());
        let b = proposal_from(fb, mb, (0..width).map(|i| word(i as u64 + 3)).collect());
        prop_assert_eq!(joined(&a, &a), a.clone());
        let ab = joined(&a, &b);
        prop_assert_eq!(joined(&ab, &b), ab.clone());
        prop_assert_eq!(joined(&ab, &a), ab);
    }

    /// Joins only widen: every suspicion present in either operand is
    /// present in the join, and none appear from nowhere.
    #[test]
    fn join_is_exactly_the_union_of_suspicions(
        seed in any::<u64>(),
        p in 1usize..130,
    ) {
        let mut a = Proposal::new(u64::MAX, u64::MAX, p);
        let mut b = Proposal::new(u64::MAX, u64::MAX, p);
        for i in 0..p {
            if seed.rotate_left(i as u32) & 1 == 1 {
                a.suspect(i);
            }
            if seed.rotate_right(i as u32 + 1) & 1 == 1 {
                b.suspect(i);
            }
        }
        let ab = joined(&a, &b);
        for i in 0..p {
            prop_assert_eq!(
                ab.is_suspected(i),
                a.is_suspected(i) || b.is_suspected(i),
                "index {}", i
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Uniformity under arbitrary interleavings: random group size, random
    /// pre-dead members, and up to three deaths scripted at random
    /// in-protocol fault points. Every `Ok` result must be identical, and
    /// members every participant knew were dead on entry must be in it.
    #[test]
    fn decides_uniformly_under_arbitrary_fault_schedules(
        n in 4usize..9,
        death_words in proptest::collection::vec(any::<u64>(), 0..4),
        pre_words in proptest::collection::vec(any::<u64>(), 0..3),
        seed in any::<u64>(),
    ) {
        let mut plan = FaultPlan::none();
        for &w in &death_words {
            let (rank, point, occurrence) = decode_death(w, n);
            plan = plan.kill_at_point(rank, point, occurrence);
        }
        let pre_kill: Vec<usize> = {
            let mut v: Vec<usize> = pre_words.iter().map(|w| 1 + (*w as usize % (n - 1))).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let results = run_lattice(
            n,
            plan,
            &pre_kill,
            |i| seed.rotate_left(i as u32) | 1 << (i % 64),
            |i| seed.wrapping_add(i as u64 * 977),
        );
        let oks: Vec<&AgreeResult> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
        prop_assert!(!oks.is_empty(), "rank 0 is never killed yet nobody decided");
        for o in &oks[1..] {
            prop_assert_eq!(*o, oks[0], "non-uniform decision");
        }
        for &k in &pre_kill {
            prop_assert!(
                oks[0].failed.contains(&RankId(k)),
                "entry-dead rank {} missing from the decided view {:?}", k, oks[0].failed
            );
        }
        // Errors can only be scripted suicides, never protocol failures.
        for r in &results {
            if let Err(e) = r {
                prop_assert_eq!(e, &UlfmError::SelfDied);
            }
        }
    }

    /// Failure-free conformance against the flood-set oracle: identical
    /// inputs through `Communicator::agree` under both implementations
    /// must produce identical `AgreeResult`s on every rank.
    #[test]
    fn failure_free_lattice_matches_flood_oracle(
        n in 2usize..7,
        seed in any::<u64>(),
    ) {
        let run = move |impl_: AgreeImpl| -> Vec<AgreeResult> {
            let u = Universe::without_faults(Topology::flat());
            let handles = u
                .spawn_batch(n, move |p: Proc| {
                    let comm = p.init_comm();
                    comm.set_agree_impl(impl_);
                    let i = comm.rank();
                    comm.agree(
                        seed.rotate_left(i as u32) | 1 << (i % 64),
                        seed.wrapping_add(i as u64 * 131),
                    )
                    .expect("failure-free agreement")
                })
                .expect("in-process spawn");
            handles.into_iter().map(|h| h.join()).collect()
        };
        let flood = run(AgreeImpl::Flood);
        let lattice = run(AgreeImpl::Lattice);
        prop_assert_eq!(&flood, &lattice, "lattice diverged from the flood oracle");
        for r in &flood[1..] {
            prop_assert_eq!(r, &flood[0], "oracle itself non-uniform");
        }
    }
}

//! Property-based tests: collective results must equal their sequential
//! specifications for arbitrary group sizes, payload lengths, and values —
//! and under arbitrary single-fault schedules every surviving rank either
//! succeeds with the exact result or reports a failure (never a wrong
//! value).

use collectives::{
    allgather, allreduce, binomial_bcast, binomial_reduce, bruck_allgather, copy_from_le, gather,
    hier_allreduce, recursive_doubling_allreduce, reduce_from_le, ring_allgather, AllgatherAlgo,
    AllreduceAlgo, CollError, Elem, EndpointGroup, NodeMap, PeerComm, ReduceOp, SEGMENT_BYTES,
};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use transport::wire::{encode_frame_with, fill_payload, verify_frame, Fill};
use transport::{FaultPlan, RankId};

mod common;
use common::run_group;

/// Any comm with only the required methods passed through, so every
/// collective on it runs `PeerComm`'s default `send_with` / `recv_with`.
struct Plain<C>(C);

impl<C: PeerComm> PeerComm for Plain<C> {
    fn size(&self) -> usize {
        self.0.size()
    }
    fn rank(&self) -> usize {
        self.0.rank()
    }
    fn send(&self, peer: usize, tag: u64, data: &[u8]) -> Result<(), CollError> {
        self.0.send(peer, tag, data)
    }
    fn recv(&self, peer: usize, tag: u64) -> Result<Vec<u8>, CollError> {
        self.0.recv(peer, tag)
    }
    fn fault_point(&self, name: &str) -> Result<(), CollError> {
        self.0.fault_point(name)
    }
}

/// A group whose every member answers every receive with the same scripted
/// bytes: stands in for live peers of a different build. Records what it
/// is sent; its lending `send_with` fills a real frame and keeps the
/// verified payload.
struct Babbler {
    size: usize,
    rank: usize,
    reply: Vec<u8>,
    sent: RefCell<Vec<Vec<u8>>>,
}

impl Babbler {
    fn new(size: usize, rank: usize, reply: &[u8]) -> Self {
        let (reply, sent) = (reply.to_vec(), RefCell::default());
        Self {
            size,
            rank,
            reply,
            sent,
        }
    }
}

impl PeerComm for Babbler {
    fn size(&self) -> usize {
        self.size
    }
    fn rank(&self) -> usize {
        self.rank
    }
    fn send(&self, _peer: usize, _tag: u64, data: &[u8]) -> Result<(), CollError> {
        self.sent.borrow_mut().push(data.to_vec());
        Ok(())
    }
    fn recv(&self, _peer: usize, _tag: u64) -> Result<Vec<u8>, CollError> {
        Ok(self.reply.clone())
    }
    fn send_with(&self, _peer: usize, tag: u64, len: usize, f: Fill<'_>) -> Result<(), CollError> {
        let frame = encode_frame_with(Vec::new(), RankId(self.rank), tag, 0, len, f);
        let payload = verify_frame(frame).expect("a fresh frame verifies").payload;
        self.sent.borrow_mut().push(payload.into_vec());
        Ok(())
    }
    fn recv_with(
        &self,
        _peer: usize,
        _tag: u64,
        f: &mut dyn FnMut(&[u8]),
    ) -> Result<(), CollError> {
        f(&self.reply);
        Ok(())
    }
}

/// How a [`Mangler`] gets a message's element count wrong.
#[derive(Clone, Copy, Debug)]
enum Mangle {
    /// One `i64` short (one long when there is nothing to cut).
    Truncated,
    /// One `i64` long.
    Extended,
    /// One byte long: not a whole number of elements.
    Ragged,
}

/// A live peer of another build: its `nth` send (0-based) carries the wrong
/// number of elements; everything else passes through, lending included.
struct Mangler<'a> {
    inner: EndpointGroup<'a>,
    nth: usize,
    how: Mangle,
    sends: Cell<usize>,
    /// Group-local receiver of the mangled message, once it went out.
    mangled_to: Cell<Option<usize>>,
}

impl Mangler<'_> {
    /// Count a send; true if it is the one to mangle.
    fn mangles(&self, peer: usize) -> bool {
        let hit = self.sends.replace(self.sends.get() + 1) == self.nth;
        if hit {
            self.mangled_to.set(Some(peer));
        }
        hit
    }

    fn send_mangled(&self, peer: usize, tag: u64, data: &[u8]) -> Result<(), CollError> {
        let mut bad = data.to_vec();
        match self.how {
            Mangle::Truncated if bad.len() >= 8 => bad.truncate(bad.len() - 8),
            Mangle::Truncated | Mangle::Extended => bad.extend([0; 8]),
            Mangle::Ragged => bad.push(0),
        }
        self.inner.send(peer, tag, &bad)
    }
}

impl PeerComm for Mangler<'_> {
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn send(&self, peer: usize, tag: u64, data: &[u8]) -> Result<(), CollError> {
        if self.mangles(peer) {
            return self.send_mangled(peer, tag, data);
        }
        self.inner.send(peer, tag, data)
    }
    fn recv(&self, peer: usize, tag: u64) -> Result<Vec<u8>, CollError> {
        self.inner.recv(peer, tag)
    }
    fn send_with(&self, peer: usize, tag: u64, len: usize, f: Fill<'_>) -> Result<(), CollError> {
        if self.mangles(peer) {
            return self.send_mangled(peer, tag, &fill_payload(len, f));
        }
        self.inner.send_with(peer, tag, len, f)
    }
    fn recv_with(&self, peer: usize, tag: u64, f: &mut dyn FnMut(&[u8])) -> Result<(), CollError> {
        self.inner.recv_with(peer, tag, f)
    }
    fn fault_point(&self, name: &str) -> Result<(), CollError> {
        self.inner.fault_point(name)
    }
}

fn inputs(p: usize, n: usize, seed: u64) -> Vec<Vec<i64>> {
    // Integer payloads make the reduction exactly associative, so equality
    // checks are exact regardless of algorithm-imposed ordering.
    (0..p)
        .map(|r| {
            (0..n)
                .map(|i| {
                    let x = seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add((r * 1_000_003 + i) as u64);
                    (x % 2001) as i64 - 1000
                })
                .collect()
        })
        .collect()
}

fn algo_strategy() -> impl Strategy<Value = AllreduceAlgo> {
    prop_oneof![
        Just(AllreduceAlgo::Ring),
        Just(AllreduceAlgo::RecursiveDoubling),
        Just(AllreduceAlgo::Rabenseifner),
    ]
}

fn op_strategy() -> impl Strategy<Value = ReduceOp> {
    prop_oneof![
        Just(ReduceOp::Sum),
        Just(ReduceOp::Max),
        Just(ReduceOp::Min),
        Just(ReduceOp::BitOr),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Allreduce == sequential element-wise fold, for every algorithm, any
    /// group size 1..=9 and any payload length 0..=67.
    #[test]
    fn allreduce_matches_sequential_fold(
        p in 1usize..=9,
        n in 0usize..=67,
        seed in any::<u64>(),
        algo in algo_strategy(),
        op in op_strategy(),
    ) {
        let ins = inputs(p, n, seed);
        let ins2 = ins.clone();
        let results = run_group(p, FaultPlan::none(), move |comm| {
            let mut buf = ins2[comm.rank()].clone();
            let buf_u: Vec<u64> = buf.iter().map(|&v| v as u64).collect();
            // BitOr needs unsigned; run both domains through the same path.
            if op == ReduceOp::BitOr {
                let mut b = buf_u;
                allreduce(&comm, &mut b, op, algo, 0).unwrap();
                return b.iter().map(|&v| v as i64).collect::<Vec<i64>>();
            }
            allreduce(&comm, &mut buf, op, algo, 0).unwrap();
            buf
        });
        // Sequential specification.
        let mut want: Vec<i64> = ins[0].clone();
        if op == ReduceOp::BitOr {
            let mut acc: Vec<u64> = ins[0].iter().map(|&v| v as u64).collect();
            for r in &ins[1..] {
                for (a, &b) in acc.iter_mut().zip(r) {
                    *a |= b as u64;
                }
            }
            want = acc.iter().map(|&v| v as i64).collect();
        } else {
            for r in &ins[1..] {
                for (a, &b) in want.iter_mut().zip(r) {
                    *a = match op {
                        ReduceOp::Sum => a.wrapping_add(b),
                        ReduceOp::Max => (*a).max(b),
                        ReduceOp::Min => (*a).min(b),
                        _ => unreachable!(),
                    };
                }
            }
        }
        for (r, got) in results.iter().enumerate() {
            prop_assert_eq!(got, &want, "rank {} (p={}, n={}, {:?}, {:?})", r, p, n, algo, op);
        }
    }

    /// Allgather returns every rank's block, in rank order, for both
    /// algorithms and arbitrary (small) block contents.
    #[test]
    fn allgather_collects_all_blocks(
        p in 1usize..=8,
        sizes in proptest::collection::vec(0usize..32, 1..=8),
        ring in any::<bool>(),
    ) {
        let sizes = Arc::new(sizes);
        let sz = Arc::clone(&sizes);
        let algo = if ring { AllgatherAlgo::Ring } else { AllgatherAlgo::Bruck };
        let results = run_group(p, FaultPlan::none(), move |comm| {
            let len = sz[comm.rank() % sz.len()];
            let mine: Vec<u8> = (0..len).map(|i| (comm.rank() * 7 + i) as u8).collect();
            allgather(&comm, &mine, algo, 0).unwrap()
        });
        for got in results {
            prop_assert_eq!(got.len(), p);
            for (r, block) in got.iter().enumerate() {
                let len = sizes[r % sizes.len()];
                let want: Vec<u8> = (0..len).map(|i| (r * 7 + i) as u8).collect();
                prop_assert_eq!(block, &want);
            }
        }
    }

    /// Whatever a live peer sends — noise, length fields up to `u64::MAX`,
    /// a well-formed message cut short — the block-framed collectives
    /// answer `Ok` or `Malformed` naming a member; they never panic and
    /// never allocate for a length they have not checked against the bytes.
    #[test]
    fn malformed_peer_framing_is_a_typed_error(
        p in 2usize..=6,
        rank_pick in any::<usize>(),
        shape in 0usize..3,
        words in proptest::collection::vec(
            prop_oneof![0u64..4, any::<u64>(), Just(u64::MAX)], 0..8),
        noise in proptest::collection::vec(any::<u8>(), 0..96),
        cut in any::<usize>(),
    ) {
        let rank = rank_pick % p;
        let reply = match shape {
            0 => noise,
            1 => words.iter().flat_map(|w| w.to_le_bytes()).chain(noise).collect(),
            _ => {
                // One block the way `encode_blocks` frames it, truncated.
                let header = [1, ((rank + p - 1) % p) as u64, noise.len() as u64];
                let mut msg: Vec<u8> = header.iter().flat_map(|w| w.to_le_bytes()).collect();
                msg.extend_from_slice(&noise);
                msg.truncate(cut % (msg.len() + 1));
                msg
            }
        };
        let comm = Babbler::new(p, rank, &reply);
        let outcomes = [
            ring_allgather(&comm, b"mine", 0).map(drop),
            bruck_allgather(&comm, b"mine", 0).map(drop),
            gather(&comm, rank, b"mine", 0).map(drop),
        ];
        for out in outcomes {
            match out {
                Ok(()) => {}
                Err(CollError::Malformed { peer }) => prop_assert!(peer < p),
                Err(other) => prop_assert!(false, "unexpected error {other:?}"),
            }
        }
    }

    /// A live peer that sends the wrong element count — short, long or
    /// ragged — at any step of any allreduce / reduce variant makes its
    /// receiver answer `Malformed`, naming it; nobody panics, nobody hangs,
    /// and every other rank ends `Ok` or with a typed failure.
    #[test]
    fn wrong_length_payload_is_a_typed_error(
        p in 2usize..=6,
        n in 0usize..=20,
        culprit_pick in any::<usize>(),
        variant in 0usize..5,
        how in prop_oneof![
            Just(Mangle::Truncated), Just(Mangle::Extended), Just(Mangle::Ragged)],
    ) {
        let culprit = culprit_pick % p;
        // Through the default bodies and the lending ones; every step in
        // turn, until the culprit has no `nth` send left.
        for lend in [false, true] {
            for nth in 0.. {
                let results = run_group(p, FaultPlan::none(), move |comm| {
                    let me = comm.rank();
                    let comm = Mangler {
                        inner: comm,
                        nth: if me == culprit { nth } else { usize::MAX },
                        how,
                        sends: Cell::new(0),
                        mangled_to: Cell::new(None),
                    };
                    let mut buf = vec![me as i64; n];
                    let mut run = |c: &dyn PeerComm| match variant {
                        0 => allreduce(&c, &mut buf, ReduceOp::Sum, AllreduceAlgo::Ring, 0),
                        1 => allreduce(
                            &c, &mut buf, ReduceOp::Sum, AllreduceAlgo::RecursiveDoubling, 0),
                        2 => allreduce(&c, &mut buf, ReduceOp::Sum, AllreduceAlgo::Rabenseifner, 0),
                        3 => binomial_reduce(&c, 0, &mut buf, ReduceOp::Sum, 0),
                        _ => {
                            // Two ranks to a node: all three phases run.
                            let colors: Vec<u64> = (0..p).map(|r| r as u64 / 2).collect();
                            let map = NodeMap::from_colors(&colors);
                            hier_allreduce(&c, &map, &mut buf, ReduceOp::Sum, AllreduceAlgo::Ring, 0)
                        }
                    };
                    let out = if lend { run(&comm) } else { run(&Plain(&comm)) };
                    (out, comm.mangled_to.get())
                });
                let Some(receiver) = results[culprit].1 else {
                    // The culprit never got to its `nth` send: a clean run.
                    prop_assert!(results.iter().all(|(out, _)| out.is_ok()));
                    break;
                };
                for (out, _) in &results {
                    match out {
                        Ok(()) | Err(CollError::PeerFailed { .. }) => {}
                        Err(CollError::Malformed { peer }) => prop_assert!(*peer < p),
                        Err(other) => prop_assert!(false, "unexpected error {other:?}"),
                    }
                }
                let noticed = &results[receiver].0;
                if variant < 4 {
                    prop_assert_eq!(noticed, &Err(CollError::Malformed { peer: culprit }));
                } else {
                    // The node-local broadcast relays the leader's bytes and
                    // reads a cut status byte as poison: blame may land on
                    // the leader or the relay, but it is typed and noticed.
                    prop_assert!(noticed.is_err(), "step {} went unnoticed", nth);
                }
            }
        }
    }

    /// Broadcast delivers the root's exact bytes to everyone, for any root.
    #[test]
    fn bcast_delivers_root_payload(
        p in 1usize..=9,
        root_pick in any::<usize>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let root = root_pick % p;
        let payload = Arc::new(payload);
        let pl = Arc::clone(&payload);
        let results = run_group(p, FaultPlan::none(), move |comm| {
            let mut buf = if comm.rank() == root { pl.to_vec() } else { vec![] };
            binomial_bcast(&comm, root, &mut buf, 0).unwrap();
            buf
        });
        for got in results {
            prop_assert_eq!(&got, &*payload);
        }
    }

    /// Reduce: the root holds the exact sum for any root choice.
    #[test]
    fn reduce_sums_at_root(p in 1usize..=8, root_pick in any::<usize>(), n in 1usize..=32) {
        let root = root_pick % p;
        let results = run_group(p, FaultPlan::none(), move |comm| {
            let mut buf: Vec<i64> = (0..n).map(|i| (comm.rank() + i) as i64).collect();
            binomial_reduce(&comm, root, &mut buf, ReduceOp::Sum, 0).unwrap();
            buf
        });
        let want: Vec<i64> = (0..n)
            .map(|i| (0..p).map(|r| (r + i) as i64).sum())
            .collect();
        prop_assert_eq!(&results[root], &want);
    }

    /// Single-fault safety: kill one arbitrary rank at one arbitrary
    /// protocol step. Every surviving rank either gets the *correct full
    /// result* (it finished before the failure mattered) or an error —
    /// never silently wrong data of the wrong shape.
    #[test]
    fn fault_injection_never_yields_corrupt_results(
        p in 2usize..=7,
        n in 1usize..=32,
        victim_pick in any::<usize>(),
        step in 1u64..=12,
        algo in algo_strategy(),
    ) {
        let victim = victim_pick % p;
        let ins = inputs(p, n, 42);
        let ins2 = ins.clone();
        let plan = FaultPlan::none().kill_at_point(RankId(victim), "allreduce.step", step);
        let results = run_group(p, plan, move |comm| {
            let mut buf = ins2[comm.rank()].clone();
            allreduce(&comm, &mut buf, ReduceOp::Sum, algo, 0).map(|()| buf)
        });
        let mut want = ins[0].clone();
        for r in &ins[1..] {
            for (a, &b) in want.iter_mut().zip(r) {
                *a += b;
            }
        }
        for (r, res) in results.iter().enumerate() {
            match res {
                Ok(buf) if r != victim => prop_assert_eq!(buf, &want, "rank {}", r),
                Ok(buf) => prop_assert_eq!(buf, &want, "victim survived (step too late)"),
                Err(CollError::SelfDied) => prop_assert_eq!(r, victim),
                Err(CollError::PeerFailed { .. }) => {}
                Err(e) => prop_assert!(false, "unexpected error {:?}", e),
            }
        }
    }
}

// ---- the bulk codec is the element codec ----------------------------------

/// The element-by-element encoding the bulk codec replaced: the reference.
fn bytes_of<E: Elem>(vals: &[E]) -> Vec<u8> {
    let mut out = Vec::new();
    for v in vals {
        v.write(&mut out);
    }
    out
}

/// Bit for bit — except that the payload bits of a NaN an arithmetic
/// operation *produced* are not defined by the language, so there only
/// NaN-ness must agree.
fn same_bits<E: Elem>(got: &[E], want: &[E], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{}", what);
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        #[allow(clippy::eq_op)]
        let both_nan = g != g && w != w;
        prop_assert!(
            both_nan || bytes_of(&[*g]) == bytes_of(&[*w]),
            "{what}: element {i}: {g:?} != {w:?}"
        );
    }
    Ok(())
}

/// `copy_from_le` / `reduce_from_le` against the per-element codec, for one
/// element type and the reductions legal on it; then the same element path
/// inside a collective, through the default bodies and the lending ones.
fn check_codec<E: Elem>(
    a: Vec<E>,
    b: Vec<E>,
    ops: &[ReduceOp],
    peer: usize,
) -> Result<(), TestCaseError> {
    let n = a.len().min(b.len());
    let (a, payload) = (&a[..n], bytes_of(&b[..n]));

    let mut dst = a.to_vec();
    prop_assert_eq!(copy_from_le(&mut dst, &payload, peer), Ok(()));
    prop_assert_eq!(bytes_of(&dst), payload.clone(), "copy is not bit-exact");

    for &op in ops {
        let mut got = a.to_vec();
        prop_assert_eq!(reduce_from_le(op, &mut got, &payload, peer), Ok(()));
        let mut want = a.to_vec();
        for (d, s) in want.iter_mut().zip(E::decode_slice(&payload)) {
            *d = E::combine(op, *d, s);
        }
        same_bits(&got, &want, &format!("{op:?} of {n}"))?;
    }

    let mut wrong = vec![
        [payload.as_slice(), &vec![0; E::WIDTH]].concat(),
        [payload.as_slice(), &[0]].concat(),
    ];
    if n > 0 {
        wrong.push(Vec::new());
        wrong.push(payload[..payload.len() - E::WIDTH].to_vec());
        wrong.push(payload[..payload.len() - 1].to_vec());
    }
    for bad in &wrong {
        let mut dst = a.to_vec();
        let malformed = Err(CollError::Malformed { peer });
        prop_assert_eq!(copy_from_le(&mut dst, bad, peer), malformed.clone());
        prop_assert_eq!(reduce_from_le(ops[0], &mut dst, bad, peer), malformed);
        prop_assert_eq!(
            bytes_of(&dst),
            bytes_of(a),
            "dst touched by a refused payload"
        );
    }

    for lend in [false, true] {
        let path = if lend { "lending" } else { "default" };
        // Rank `rank` of `size` babblers answering `reply`, on this path.
        let babble = |size, rank, reply: &[u8], f: &mut dyn FnMut(&dyn PeerComm)| {
            let comm = Babbler::new(size, rank, reply);
            if lend {
                f(&comm)
            } else {
                f(&Plain(&comm))
            }
            comm.sent.into_inner()
        };
        // A leaf of a binomial reduce sends its buffer, and its root folds
        // what it is sent; the folded member of a three-rank recursive
        // doubling sends its buffer and copies the result it is sent.
        for &op in ops {
            let (mut got, mut out) = (a.to_vec(), Ok(()));
            let sent = babble(2, 1, &[], &mut |c| {
                out = binomial_reduce(&c, 0, &mut got, op, 0);
            });
            prop_assert_eq!(&out, &Ok(()));
            prop_assert_eq!(sent, vec![bytes_of(a)], "{} encode", path);
            babble(2, 0, &payload, &mut |c| {
                out = binomial_reduce(&c, 0, &mut got, op, 0);
            });
            prop_assert_eq!(&out, &Ok(()));
            let mut want = a.to_vec();
            prop_assert_eq!(reduce_from_le(op, &mut want, &payload, 1), Ok(()));
            same_bits(&got, &want, &format!("{path} {op:?} of {n}"))?;
        }
        let (mut dst, mut out) = (a.to_vec(), Ok(()));
        let sent = babble(3, 0, &payload, &mut |c| {
            out = recursive_doubling_allreduce(&c, &mut dst, ops[0], 0);
        });
        prop_assert_eq!(&out, &Ok(()));
        prop_assert_eq!(sent, vec![bytes_of(a)], "{} encode", path);
        prop_assert_eq!(
            bytes_of(&dst),
            payload.clone(),
            "{} copy is not bit-exact",
            path
        );

        for bad in &wrong {
            let malformed = Err(CollError::Malformed { peer: 1 });
            let mut dst = a.to_vec();
            babble(2, 0, bad, &mut |c| {
                out = binomial_reduce(&c, 0, &mut dst, ops[0], 0);
            });
            prop_assert_eq!(&out, &malformed, "{} fold", path);
            babble(3, 0, bad, &mut |c| {
                out = recursive_doubling_allreduce(&c, &mut dst, ops[0], 0);
            });
            prop_assert_eq!(&out, &malformed, "{} copy", path);
            prop_assert_eq!(
                bytes_of(&dst),
                bytes_of(a),
                "{} dst touched by a refused payload",
                path
            );
        }
    }
    Ok(())
}

const FLOAT_OPS: [ReduceOp; 4] = [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Max, ReduceOp::Min];
const INT_OPS: [ReduceOp; 6] = [
    ReduceOp::Sum,
    ReduceOp::Prod,
    ReduceOp::Max,
    ReduceOp::Min,
    ReduceOp::BitAnd,
    ReduceOp::BitOr,
];

/// Any bit pattern, salted with the values a float codec gets wrong first:
/// quiet and signalling NaNs with payload bits, ±0, subnormals, ±∞.
macro_rules! float_elems {
    ($t:ty, $nan:expr, $snan:expr) => {
        prop_oneof![
            any::<$t>(),
            any::<$t>(),
            Just(<$t>::from_bits($nan)),
            Just(<$t>::from_bits($snan)),
            Just(0.0),
            Just(-0.0),
            Just(<$t>::from_bits(1)),
            Just(-<$t>::MIN_POSITIVE / 2.0),
            Just(<$t>::INFINITY),
            Just(<$t>::NEG_INFINITY),
        ]
    };
}

/// One `check_codec` property per element type; lengths 0..4k land on and
/// off every SIMD width.
macro_rules! codec_props {
    ($($name:ident: $t:ty, $elems:expr, $ops:expr;)*) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            $(
                #[test]
                fn $name(
                    a in proptest::collection::vec($elems, 0..4096),
                    b in proptest::collection::vec($elems, 0..4096),
                    peer in 0usize..8,
                ) {
                    check_codec::<$t>(a, b, &$ops, peer)?;
                }
            )*
        }
    };
}

codec_props! {
    bulk_codec_is_the_element_codec_f32:
        f32, float_elems!(f32, 0x7fc0_1234, 0xff80_0001), FLOAT_OPS;
    bulk_codec_is_the_element_codec_f64:
        f64, float_elems!(f64, 0x7ff8_0000_dead_beef, 0xfff0_0000_0000_0001), FLOAT_OPS;
    bulk_codec_is_the_element_codec_u8: u8, any::<u8>(), INT_OPS;
    bulk_codec_is_the_element_codec_u16: u16, any::<u16>(), INT_OPS;
    bulk_codec_is_the_element_codec_u32: u32, any::<u32>(), INT_OPS;
    bulk_codec_is_the_element_codec_u64: u64, any::<u64>(), INT_OPS;
    bulk_codec_is_the_element_codec_i32: i32, any::<i32>(), INT_OPS;
    bulk_codec_is_the_element_codec_i64: i64, any::<i64>(), INT_OPS;
}

// ---- the segmented exchange is the single-message exchange ----------------

/// Element range of chunk `i` when `n` elements are split `k` ways, as the
/// algorithms split them.
fn chunk(n: usize, k: usize, i: usize) -> std::ops::Range<usize> {
    i * n / k..(i + 1) * n / k
}

/// Every rank's result in the fold order of the single-message schedules —
/// each received chunk folded whole as `dst = combine(op, dst, src)` —
/// computed sequentially from the inputs.
fn single_message_reference<E: Elem>(
    algo: AllreduceAlgo,
    op: ReduceOp,
    ins: &[Vec<E>],
) -> Vec<Vec<E>> {
    let (p, n) = (ins.len(), ins[0].len());
    let f = |d, s| E::combine(op, d, s);
    if algo == AllreduceAlgo::Ring {
        // Chunk c sets out from rank c and travels right, each rank folding
        // the partial result it receives into its own input.
        let mut out = ins[0].clone();
        for c in 0..p {
            for i in chunk(n, p, c) {
                out[i] = (1..p).fold(ins[c][i], |acc, j| f(ins[(c + j) % p][i], acc));
            }
        }
        return vec![out; p];
    }
    // Odd ranks among the first 2·rem fold in their even neighbour, leaving
    // a power of two of virtual ranks; each even one gets its partner's
    // result back at the end.
    let pof2 = 1 << p.ilog2();
    let rem = p - pof2;
    let fold = |d: &[E], s: &[E]| d.iter().zip(s).map(|(&d, &s)| f(d, s)).collect::<Vec<E>>();
    let mut b: Vec<Vec<E>> = (0..pof2)
        .map(|v| match v < rem {
            true => fold(&ins[2 * v + 1], &ins[2 * v]),
            false => ins[v + rem].clone(),
        })
        .collect();
    let vrank = |r: usize| if r < 2 * rem { r / 2 } else { r - rem };
    if algo == AllreduceAlgo::RecursiveDoubling {
        for mask in (0..pof2.ilog2()).map(|s| 1 << s) {
            let old = b.clone();
            for (v, mine) in b.iter_mut().enumerate() {
                *mine = fold(&old[v], &old[v ^ mask]);
            }
        }
        return (0..p).map(|r| b[vrank(r)].clone()).collect();
    }
    // Rabenseifner: at distance `mask` each virtual rank folds its partner's
    // copy of the half it keeps; the doubling half only copies.
    let block = |a, z| chunk(n, pof2, a).start..chunk(n, pof2, z).start;
    for mask in (0..pof2.ilog2()).rev().map(|s| 1 << s) {
        for v in 0..pof2 {
            let lo = v & !(2 * mask - 1);
            let keep = match v & mask {
                0 => block(lo, lo + mask),
                _ => block(lo + mask, lo + 2 * mask),
            };
            for i in keep {
                b[v][i] = f(b[v][i], b[v ^ mask][i]);
            }
        }
    }
    let out = (0..n).map(|i| b[(0..pof2).find(|&c| chunk(n, pof2, c).contains(&i)).unwrap()][i]);
    vec![out.collect(); p]
}

/// A comm that logs the payload bytes of every message it sends, with its
/// tag; everything passes through, lending included.
struct Logged<'a> {
    inner: EndpointGroup<'a>,
    sent: RefCell<Vec<(u64, usize)>>,
}

impl PeerComm for Logged<'_> {
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn send(&self, peer: usize, tag: u64, data: &[u8]) -> Result<(), CollError> {
        self.sent.borrow_mut().push((tag, data.len()));
        self.inner.send(peer, tag, data)
    }
    fn recv(&self, peer: usize, tag: u64) -> Result<Vec<u8>, CollError> {
        self.inner.recv(peer, tag)
    }
    fn send_with(&self, peer: usize, tag: u64, len: usize, f: Fill<'_>) -> Result<(), CollError> {
        self.sent.borrow_mut().push((tag, len));
        self.inner.send_with(peer, tag, len, f)
    }
    fn recv_with(&self, peer: usize, tag: u64, f: &mut dyn FnMut(&[u8])) -> Result<(), CollError> {
        self.inner.recv_with(peer, tag, f)
    }
    fn fault_point(&self, name: &str) -> Result<(), CollError> {
        self.inner.fault_point(name)
    }
}

/// Every algorithm at p ∈ {2, 3, 4, 5}, with per-chunk lengths on each side
/// of a segment boundary — equal chunks and chunks one element apart: each
/// rank ends bit-identical to the single-message reference, and each paired
/// step sends ⌈chunk bytes / SEGMENT_BYTES⌉ messages (at least one), full
/// segments then the rest — so a chunk of at most one segment is one message,
/// as before segmenting. Fold and unfold stay one message.
fn check_segmented<E: Elem>(value: impl Fn(usize, usize) -> E + Sync) {
    let seg = SEGMENT_BYTES / E::WIDTH;
    let algos = [
        AllreduceAlgo::Ring,
        AllreduceAlgo::RecursiveDoubling,
        AllreduceAlgo::Rabenseifner,
    ];
    for algo in algos {
        for p in 2usize..=5 {
            // Chunks the buffer is cut into for the paired steps.
            let k = match algo {
                AllreduceAlgo::Ring => p,
                AllreduceAlgo::Rabenseifner => 1 << p.ilog2(),
                _ => 1,
            };
            for len in [0, 1, seg - 1, seg, seg + 1, 3 * seg + 5] {
                for n in [k * len, k * len + k / 2]
                    .into_iter()
                    .collect::<BTreeSet<_>>()
                {
                    let ins: Vec<Vec<E>> = (0..p)
                        .map(|r| (0..n).map(|i| value(r, i)).collect())
                        .collect();
                    let want = single_message_reference(algo, ReduceOp::Sum, &ins);
                    let results = run_group(p, FaultPlan::none(), |comm| {
                        let r = comm.rank();
                        let comm = Logged {
                            inner: comm,
                            sent: RefCell::default(),
                        };
                        let mut buf = ins[r].clone();
                        allreduce(&comm, &mut buf, ReduceOp::Sum, algo, 0).unwrap();
                        (buf, comm.sent.into_inner())
                    });
                    let ctx = format!("{algo:?} p={p} n={n} width={}", E::WIDTH);
                    for (r, (got, sent)) in results.iter().enumerate() {
                        assert!(
                            bytes_of(got) == bytes_of(&want[r]),
                            "{ctx} rank {r}: result"
                        );
                        let mut steps: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
                        for &(tag, bytes) in sent {
                            steps.entry(tag).or_default().push(bytes);
                        }
                        for (tag, sizes) in steps {
                            let ctx = format!("{ctx} rank {r} tag {tag}: {sizes:?}");
                            let total: usize = sizes.iter().sum();
                            if algo != AllreduceAlgo::Ring && [0, 100, 500].contains(&tag) {
                                assert_eq!(sizes, [n * E::WIDTH], "{ctx}: fold or unfold");
                                continue;
                            }
                            if algo == AllreduceAlgo::Ring {
                                let step = tag as usize;
                                let out = chunk(n, p, (r + 2 * p - step) % p).len();
                                assert_eq!(total, out * E::WIDTH, "{ctx}: chunk");
                            }
                            let count = total.div_ceil(SEGMENT_BYTES).max(1);
                            assert_eq!(sizes.len(), count, "{ctx}: messages");
                            let (last, full) = sizes.split_last().unwrap();
                            assert!(full.iter().all(|&s| s == SEGMENT_BYTES), "{ctx}");
                            assert!(*last <= SEGMENT_BYTES, "{ctx}");
                            if total <= SEGMENT_BYTES {
                                assert_eq!(sizes.len(), 1, "{ctx}: one message as before");
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn segments_of_f32_fold_as_the_single_message_exchange() {
    // Sevenths: their sums round, so a changed fold order changes bits.
    check_segmented(|r, i| ((r * 1_000_003 + i * 7919) % 2003) as f32 / 7.0 - 95.0);
}

#[test]
fn segments_of_u64_fold_as_the_single_message_exchange() {
    check_segmented(|r, i| (r as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i as u64);
}

/// A refused segment leaves its own elements untouched and the segments
/// before it folded: the partial state a peer that died before sending it
/// leaves behind.
#[test]
fn segments_a_refused_one_leaves_the_partial_state_of_a_dead_peer() {
    let seg = SEGMENT_BYTES / 8;
    let n = 2 * (3 * seg + 5);
    let ins = inputs(2, n, 9);
    // Rank 1's second message is segment 1 of its first ring step: cut one
    // element short, or never sent because rank 1 dies at that third
    // operation (send, receive, send).
    let run = |plan: FaultPlan, mangle: bool| {
        run_group(2, plan, |comm| {
            let me = comm.rank();
            let comm = Mangler {
                inner: comm,
                nth: if me == 1 && mangle { 1 } else { usize::MAX },
                how: Mangle::Truncated,
                sends: Cell::new(0),
                mangled_to: Cell::new(None),
            };
            let mut buf = ins[me].clone();
            let out = allreduce(&comm, &mut buf, ReduceOp::Sum, AllreduceAlgo::Ring, 0);
            (out, buf)
        })
    };
    let refused = run(FaultPlan::none(), true);
    let died = run(FaultPlan::none().kill_at_op(RankId(1), 3), false);
    assert_eq!(refused[0].0, Err(CollError::Malformed { peer: 1 }));
    assert_eq!(died[0].0, Err(CollError::PeerFailed { peer: 1 }));
    // Rank 0 receives chunk 1 in its first step: segment 0 is folded, the
    // rest of the buffer is still its own input.
    let mut want = ins[0].clone();
    let start = chunk(n, 2, 1).start;
    for i in start..start + seg {
        want[i] += ins[1][i];
    }
    assert!(refused[0].1 == want, "refused segment: partial state");
    assert!(died[0].1 == want, "dead peer: partial state");
}

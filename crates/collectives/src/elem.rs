//! Element types and reduction operators.

use crate::comm::PeerComm;
use crate::error::CollError;
use std::ops::Range;
use transport::Wire;

/// Reduction operator applied element-wise by reduce-style collectives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Element-wise sum (gradient aggregation).
    Sum,
    /// Element-wise product.
    Prod,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
    /// Bitwise AND — integer types only. Used by the agreement protocol
    /// (ULFM's `MPIX_Comm_agree` computes a bitwise AND of contributions).
    BitAnd,
    /// Bitwise OR — integer types only. Used to union failure bitmaps.
    BitOr,
}

/// An element a collective can carry: wire-encodable plus reducible.
pub trait Elem: Wire + PartialOrd + std::fmt::Debug {
    /// Apply `op` to two values.
    fn combine(op: ReduceOp, a: Self, b: Self) -> Self;
}

macro_rules! impl_float_elem {
    ($($t:ty),*) => {$(
        impl Elem for $t {
            #[inline]
            fn combine(op: ReduceOp, a: Self, b: Self) -> Self {
                match op {
                    ReduceOp::Sum => a + b,
                    ReduceOp::Prod => a * b,
                    ReduceOp::Max => if a >= b { a } else { b },
                    ReduceOp::Min => if a <= b { a } else { b },
                    ReduceOp::BitAnd | ReduceOp::BitOr => {
                        panic!("bitwise reduction is not defined for floating-point elements")
                    }
                }
            }
        }
    )*};
}

macro_rules! impl_int_elem {
    ($($t:ty),*) => {$(
        impl Elem for $t {
            #[inline]
            fn combine(op: ReduceOp, a: Self, b: Self) -> Self {
                match op {
                    ReduceOp::Sum => a.wrapping_add(b),
                    ReduceOp::Prod => a.wrapping_mul(b),
                    ReduceOp::Max => a.max(b),
                    ReduceOp::Min => a.min(b),
                    ReduceOp::BitAnd => a & b,
                    ReduceOp::BitOr => a | b,
                }
            }
        }
    )*};
}

impl_float_elem!(f32, f64);
impl_int_elem!(u8, u16, u32, u64, i32, i64);

/// `dst[i] = f(dst[i], element i of bytes)`: the one pass under
/// [`reduce_from_le`] and [`copy_from_le`].
#[inline]
fn fold_le<E: Elem>(
    dst: &mut [E],
    bytes: &[u8],
    peer: usize,
    f: impl Fn(E, E) -> E,
) -> Result<(), CollError> {
    if bytes.len() != dst.len() * E::WIDTH {
        return Err(CollError::Malformed { peer });
    }
    for (d, s) in dst.iter_mut().zip(bytes.chunks_exact(E::WIDTH)) {
        *d = f(*d, E::read(s));
    }
    Ok(())
}

/// Reduce a received payload into `dst`: `dst[i] = combine(op, dst[i],
/// payload[i])`, length-checked as [`copy_from_le`] is. The `op` match sits
/// outside the loop so each arm is one vectorisable pass.
pub fn reduce_from_le<E: Elem>(
    op: ReduceOp,
    dst: &mut [E],
    bytes: &[u8],
    peer: usize,
) -> Result<(), CollError> {
    use ReduceOp::*;
    match op {
        Sum => fold_le(dst, bytes, peer, |d, s| E::combine(Sum, d, s)),
        Prod => fold_le(dst, bytes, peer, |d, s| E::combine(Prod, d, s)),
        Max => fold_le(dst, bytes, peer, |d, s| E::combine(Max, d, s)),
        Min => fold_le(dst, bytes, peer, |d, s| E::combine(Min, d, s)),
        BitAnd => fold_le(dst, bytes, peer, |d, s| E::combine(BitAnd, d, s)),
        BitOr => fold_le(dst, bytes, peer, |d, s| E::combine(BitOr, d, s)),
    }
}

/// Overwrite `dst` with the payload of a message received from group-local
/// `peer`, straight from its LE bytes, with no `Vec<E>` in between. The
/// transport's checksum proves these are the bytes the peer *sent*, not that
/// a peer of another build sent the right count: a short, long or ragged
/// message is [`CollError::Malformed`] with `dst` untouched, never a panic.
pub fn copy_from_le<E: Elem>(dst: &mut [E], bytes: &[u8], peer: usize) -> Result<(), CollError> {
    fold_le(dst, bytes, peer, |_, s| s)
}

/// Send `vals` to group-local `peer`, encoded straight into the frame that
/// carries them, a whole number of elements per chunk.
pub(crate) fn send_elems<E: Elem, C: PeerComm>(
    comm: &C,
    peer: usize,
    tag: u64,
    vals: &[E],
) -> Result<(), CollError> {
    comm.send_with(peer, tag, vals.len() * E::WIDTH, &mut |at, chunk| {
        debug_assert!(at.is_multiple_of(E::WIDTH) && chunk.len().is_multiple_of(E::WIDTH));
        let vals = &vals[at / E::WIDTH..];
        for (v, out) in vals.iter().zip(chunk.chunks_exact_mut(E::WIDTH)) {
            v.write_to(out);
        }
    })
}

/// Receive from group-local `peer` the message that must fill `into`, and
/// fold it in under `op` — or overwrite `into` when `op` is `None` —
/// straight from where the transport holds it.
pub(crate) fn recv_elems<E: Elem, C: PeerComm>(
    comm: &C,
    peer: usize,
    tag: u64,
    op: Option<ReduceOp>,
    into: &mut [E],
) -> Result<(), CollError> {
    // Stays an error unless the payload is lent and fits.
    let mut folded = Err(CollError::Malformed { peer });
    comm.recv_with(peer, tag, &mut |bytes| {
        folded = match op {
            Some(op) => reduce_from_le(op, into, bytes, peer),
            None => copy_from_le(into, bytes, peer),
        };
    })?;
    folded
}

/// Bytes per message of a paired step: a larger chunk streams as segments
/// of this size, each one's encode, hand-over and fold staying in L2
/// (DESIGN §10, "What one payload byte touches").
pub const SEGMENT_BYTES: usize = 256 << 10;

/// One paired step under tag `.0`: send `buf[send]` to `to` and receive
/// `buf[recv]` from `from`, folded in under `Some(op)`, overwritten under
/// `None`. The ranges are disjoint or identical (recursive doubling).
pub(crate) type Leg = (
    u64,
    (usize, Range<usize>),
    (usize, Range<usize>, Option<ReduceOp>),
);

/// Run paired steps as one segment loop, each after its `allreduce.step`
/// fault point. A range travels as ⌈bytes / [`SEGMENT_BYTES`]⌉ messages, at
/// least one, in order on their `(src, tag)` channel. Round k sends, then
/// receives, each step's segment k, so a segment leaves before it is folded.
///
/// Two steps are the allreduce *turnaround*: the last reduce-scatter step and
/// the first allgather step, with the same peers, the second sending what the
/// first folds while it is still in cache. The second's fault point fires
/// after segment 0 is folded, before the first allgather send, so one-segment
/// ranges keep the order of the two steps run apart. An error in round k
/// leaves earlier segments folded or overwritten and later ones untouched: a
/// refused segment (`Malformed`) leaves the partial state a dead peer does.
pub(crate) fn exchange<E: Elem, C: PeerComm>(
    comm: &C,
    buf: &mut [E],
    steps: &[Leg],
) -> Result<(), CollError> {
    let seg = SEGMENT_BYTES / E::WIDTH;
    let segment = |r: &Range<usize>, k: usize| {
        let lo = (r.start + k * seg).min(r.end);
        lo..(lo + seg).min(r.end)
    };
    let count = |r: &Range<usize>| r.len().div_ceil(seg).max(1);
    let rounds = steps
        .iter()
        .map(|(_, (_, s), (_, r, _))| count(s).max(count(r)));
    for k in 0..rounds.max().unwrap_or(0) {
        for (tag, (to, send), (from, recv, op)) in steps {
            if k == 0 {
                comm.fault_point("allreduce.step")?;
            }
            if k < count(send) {
                send_elems(comm, *to, *tag, &buf[segment(send, k)])?;
            }
            if k < count(recv) {
                recv_elems(comm, *from, *tag, *op, &mut buf[segment(recv, k)])?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_ops() {
        assert_eq!(f32::combine(ReduceOp::Sum, 1.5, 2.0), 3.5);
        assert_eq!(f32::combine(ReduceOp::Prod, 1.5, 2.0), 3.0);
        assert_eq!(f64::combine(ReduceOp::Max, -1.0, 2.0), 2.0);
        assert_eq!(f64::combine(ReduceOp::Min, -1.0, 2.0), -1.0);
    }

    #[test]
    fn int_ops() {
        assert_eq!(u64::combine(ReduceOp::Sum, 3, 4), 7);
        assert_eq!(u64::combine(ReduceOp::BitAnd, 0b1100, 0b1010), 0b1000);
        assert_eq!(u64::combine(ReduceOp::BitOr, 0b1100, 0b1010), 0b1110);
        assert_eq!(i64::combine(ReduceOp::Min, -5, 2), -5);
    }

    #[test]
    fn int_sum_wraps_instead_of_panicking() {
        assert_eq!(u8::combine(ReduceOp::Sum, 255, 1), 0);
    }

    #[test]
    #[should_panic(expected = "bitwise")]
    fn float_bitand_panics() {
        f32::combine(ReduceOp::BitAnd, 1.0, 2.0);
    }

    #[test]
    fn reduce_from_le_elementwise() {
        let mut dst = vec![1u32, 2, 3];
        let bytes = u32::encode_slice(&[10, 20, 30]);
        assert_eq!(reduce_from_le(ReduceOp::Sum, &mut dst, &bytes, 0), Ok(()));
        assert_eq!(dst, vec![11, 22, 33]);
        assert_eq!(copy_from_le(&mut dst, &bytes, 0), Ok(()));
        assert_eq!(dst, vec![10, 20, 30]);
    }

    #[test]
    fn a_payload_must_fill_exactly_the_chunk_it_is_for() {
        let two = u32::encode_slice(&[7, 9]);
        let malformed = Err(CollError::Malformed { peer: 4 });
        for wrong in [&two[..4], &two[..7], &[two.as_slice(), &[0; 4]].concat()] {
            let mut dst = vec![1u32, 2];
            assert_eq!(reduce_from_le(ReduceOp::Sum, &mut dst, wrong, 4), malformed);
            assert_eq!(copy_from_le(&mut dst, wrong, 4), malformed);
            assert_eq!(dst, vec![1, 2], "dst touched by a refused payload");
        }
    }
}

//! Element types and reduction operators.

use crate::error::CollError;
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

/// Decode a message received from group-local `peer` that must fill a chunk
/// of `len` elements. The transport's checksum proves these are the bytes
/// the peer *sent*, not that a peer of another build sent the right count:
/// a short, long or ragged message is [`CollError::Malformed`], never a
/// panic further down.
pub(crate) fn decode_chunk<E: Elem>(
    data: &[u8],
    len: usize,
    peer: usize,
) -> Result<Vec<E>, CollError> {
    if data.len() != len * E::WIDTH {
        return Err(CollError::Malformed { peer });
    }
    Ok(E::decode_slice(data))
}

/// Reduce `src` into `dst` element-wise: `dst[i] = combine(op, dst[i], src[i])`.
///
/// # Panics
/// Panics if lengths differ.
pub(crate) fn reduce_into<E: Elem>(op: ReduceOp, dst: &mut [E], src: &[E]) {
    assert_eq!(dst.len(), src.len(), "reduce_into length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d = E::combine(op, *d, *s);
    }
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
    fn reduce_into_elementwise() {
        let mut dst = vec![1u32, 2, 3];
        reduce_into(ReduceOp::Sum, &mut dst, &[10, 20, 30]);
        assert_eq!(dst, vec![11, 22, 33]);
    }

    #[test]
    fn decode_chunk_checks_the_count_it_must_fill() {
        let two = u32::encode_slice(&[7, 9]);
        assert_eq!(decode_chunk::<u32>(&two, 2, 4), Ok(vec![7, 9]));
        let malformed = Err(CollError::Malformed { peer: 4 });
        assert_eq!(decode_chunk::<u32>(&two, 1, 4), malformed, "extended");
        assert_eq!(decode_chunk::<u32>(&two, 3, 4), malformed, "truncated");
        assert_eq!(decode_chunk::<u32>(&two[..7], 2, 4), malformed, "ragged");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn reduce_into_checks_lengths() {
        let mut dst = vec![1u32];
        reduce_into(ReduceOp::Sum, &mut dst, &[1, 2]);
    }
}

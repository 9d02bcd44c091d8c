//! Tensor fusion: pack many small buffers into one allreduce.
//!
//! Gradient allreduce pays a per-operation latency cost (α in the α–β
//! model) regardless of payload size, so models with many small tensors —
//! NasNetMobile registers 1126 of them — spend their communication budget
//! on message startup rather than bandwidth. Horovod's answer is *tensor
//! fusion*: copy ready tensors into one contiguous fusion buffer (64 MB by
//! default), run a single allreduce over it, and scatter the reduced bytes
//! back. This module reproduces that mechanism over [`PeerComm`]:
//!
//! * [`plan_buckets`] — partition an ordered tensor list into contiguous
//!   buckets under a byte cap (never splitting a tensor; a single tensor
//!   larger than the cap gets a bucket of its own);
//! * [`FusionBuffer`] — the pack/unpack container, preserving order and
//!   exact byte layout;
//! * [`fused_allreduce`] — the convenience wrapper: plan, pack, one
//!   allreduce per bucket, unpack.
//!
//! ## Fault semantics
//!
//! A fused allreduce is *one* collective per bucket: a rank killed mid-way
//! surfaces a single [`CollError::PeerFailed`] to each survivor, exactly as
//! the unfused per-tensor path does. Recovery layers (the `elastic` crate's
//! revoke→agree→shrink path) re-run the *whole bucket* from saved inputs on
//! the shrunk communicator; because every tensor in the bucket is redone
//! together, replicas stay bit-identical to the unfused protocol.
//!
//! ## Determinism
//!
//! Bucket partitioning is a pure function of (sizes, element width, cap),
//! and packing preserves tensor order — so all ranks derive the identical
//! plan from their identical model, satisfying the SPMD contract that every
//! rank issues the same collectives in the same order.

use crate::allreduce::{allreduce, AllreduceAlgo};
use crate::comm::PeerComm;
use crate::elem::{Elem, ReduceOp};
use crate::error::CollError;
use std::ops::Range;
use telemetry::{Counter, Histogram, Lazy};

/// Horovod's default fusion threshold: 64 MiB.
pub const DEFAULT_FUSION_BYTES: usize = 64 << 20;

/// Partition `sizes` (element counts, in registration order) into
/// contiguous buckets of at most `cap_bytes` each (`size × elem_bytes`
/// summed per bucket). Order-preserving and exact: concatenating the
/// returned ranges yields `0..sizes.len()`. A tensor larger than the cap
/// forms a singleton bucket — it is never split. `cap_bytes == 0` therefore
/// degenerates to one bucket per non-empty tensor (zero-length tensors
/// still fuse with their neighbours).
pub fn plan_buckets(sizes: &[usize], elem_bytes: usize, cap_bytes: usize) -> Vec<Range<usize>> {
    assert!(elem_bytes > 0, "element width must be non-zero");
    let mut plan = Vec::new();
    let mut start = 0usize;
    let mut bucket_bytes = 0usize;
    for (i, &s) in sizes.iter().enumerate() {
        let b = s.saturating_mul(elem_bytes);
        if i > start && bucket_bytes.saturating_add(b) > cap_bytes {
            plan.push(start..i);
            start = i;
            bucket_bytes = 0;
        }
        bucket_bytes = bucket_bytes.saturating_add(b);
    }
    if start < sizes.len() {
        plan.push(start..sizes.len());
    }
    plan
}

/// A packed fusion buffer: the concatenation of an ordered tensor list,
/// remembering each tensor's offset so results can be scattered back.
#[derive(Clone, Debug)]
pub struct FusionBuffer<E: Elem> {
    data: Vec<E>,
    /// `offsets[i]..offsets[i+1]` is tensor `i`; length = tensors + 1.
    offsets: Vec<usize>,
}

impl<E: Elem> FusionBuffer<E> {
    /// Pack `tensors` (in order) into one contiguous buffer.
    pub fn pack(tensors: &[&[E]]) -> Self {
        let mut offsets = Vec::with_capacity(tensors.len() + 1);
        let total: usize = tensors.iter().map(|t| t.len()).sum();
        let mut data = Vec::with_capacity(total);
        offsets.push(0);
        for t in tensors {
            data.extend_from_slice(t);
            offsets.push(data.len());
        }
        Self { data, offsets }
    }

    /// Number of packed tensors.
    pub fn num_tensors(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total packed elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when no elements are packed (all-empty or no tensors).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The contiguous payload (what the single allreduce runs over).
    pub fn data(&self) -> &[E] {
        &self.data
    }

    /// Mutable payload.
    pub fn data_mut(&mut self) -> &mut [E] {
        &mut self.data
    }

    /// Tensor `i`'s slice of the payload.
    pub fn tensor(&self, i: usize) -> &[E] {
        &self.data[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Scatter the (reduced) payload back into per-tensor buffers, in the
    /// order they were packed. Panics on length mismatch — the layout is
    /// part of the SPMD contract, so a mismatch is a protocol bug.
    pub fn unpack_into(&self, tensors: &mut [&mut [E]]) {
        assert_eq!(
            tensors.len(),
            self.num_tensors(),
            "unpack tensor count mismatch"
        );
        for (i, t) in tensors.iter_mut().enumerate() {
            t.copy_from_slice(self.tensor(i));
        }
    }

    /// Unpack into freshly allocated per-tensor vectors.
    pub fn unpack(&self) -> Vec<Vec<E>> {
        (0..self.num_tensors())
            .map(|i| self.tensor(i).to_vec())
            .collect()
    }
}

/// Fused allreduce over an ordered tensor list: partition under
/// `cap_bytes`, pack each bucket, allreduce it, and scatter results back
/// in place.
///
/// Consumes one `TAG_SPAN` window **per bucket**, starting at `tag_base` —
/// callers advancing tags by a single [`crate::TAG_SPAN`] must either know
/// the bucket count or issue each bucket through a communicator that
/// allocates per-collective windows (as the `ulfm` and `gloo` layers do).
///
/// On error the in-flight bucket holds partially reduced values and later
/// buckets are untouched; recovery re-runs from saved inputs, as with any
/// single collective.
pub fn fused_allreduce<E: Elem, C: PeerComm>(
    comm: &C,
    tensors: &mut [Vec<E>],
    op: ReduceOp,
    algo: AllreduceAlgo,
    cap_bytes: usize,
    tag_base: u64,
) -> Result<(), CollError> {
    let sizes: Vec<usize> = tensors.iter().map(|t| t.len()).collect();
    let plan = plan_buckets(&sizes, E::WIDTH, cap_bytes);
    for (b, range) in plan.into_iter().enumerate() {
        let views: Vec<&[E]> = tensors[range.clone()]
            .iter()
            .map(|t| t.as_slice())
            .collect();
        let mut fused = FusionBuffer::pack(&views);
        observe_bucket(fused.len() * E::WIDTH, fused.num_tensors());
        allreduce(
            comm,
            fused.data_mut(),
            op,
            algo,
            tag_base + b as u64 * crate::TAG_SPAN,
        )?;
        let mut views: Vec<&mut [E]> = tensors[range]
            .iter_mut()
            .map(|t| t.as_mut_slice())
            .collect();
        fused.unpack_into(&mut views);
    }
    Ok(())
}

/// Record fusion telemetry for one packed bucket.
pub fn observe_bucket(bucket_bytes: usize, bucket_tensors: usize) {
    static FUSED_OPS: Lazy<Counter> = Lazy::counter("coll.fusion.fused_ops");
    static TENSORS_FUSED: Lazy<Counter> = Lazy::counter("coll.fusion.tensors_fused");
    static BUCKET_BYTES: Lazy<Histogram> = Lazy::histogram("coll.fusion.bucket_bytes");
    static BUCKET_TENSORS: Lazy<Histogram> = Lazy::histogram("coll.fusion.bucket_tensors");
    FUSED_OPS.incr();
    TENSORS_FUSED.add(bucket_tensors as u64);
    BUCKET_BYTES.record(bucket_bytes as u64);
    BUCKET_TENSORS.record(bucket_tensors as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{expected_sum, input_for, run_group};
    use transport::FaultPlan;

    #[test]
    fn plan_respects_cap_and_order() {
        // 4-byte elements, 16-byte cap → at most 4 elements per bucket.
        let sizes = [2usize, 2, 1, 4, 5, 1];
        let plan = plan_buckets(&sizes, 4, 16);
        // {2,2} fills the cap exactly; {1} cannot take the 4-element tensor
        // (20 B > 16 B); {4} fills the cap; {5} is oversized → singleton.
        assert_eq!(plan, vec![0..2, 2..3, 3..4, 4..5, 5..6]);
        let covered: usize = plan.iter().map(|r| r.len()).sum();
        assert_eq!(covered, sizes.len());
    }

    #[test]
    fn oversized_tensor_gets_singleton_bucket() {
        let plan = plan_buckets(&[100, 1, 1], 4, 8);
        assert_eq!(plan, vec![0..1, 1..3]);
    }

    #[test]
    fn empty_and_tiny_tensors_fuse() {
        let plan = plan_buckets(&[0, 0, 1, 0], 4, 64);
        assert_eq!(plan, vec![0..4]);
        assert!(plan_buckets(&[], 4, 64).is_empty());
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let a = vec![1.0f32, 2.0];
        let b: Vec<f32> = vec![];
        let c = vec![3.0f32];
        let fused = FusionBuffer::pack(&[&a, &b, &c]);
        assert_eq!(fused.len(), 3);
        assert_eq!(fused.num_tensors(), 3);
        assert_eq!(fused.data(), &[1.0, 2.0, 3.0]);
        assert_eq!(fused.unpack(), vec![a, b, c]);
    }

    #[test]
    fn fused_allreduce_matches_per_tensor() {
        // Integer-valued payloads: reduction is exactly associative, so
        // fused and unfused sums agree bit-for-bit regardless of how the
        // bucket boundary interacts with chunking.
        let p = 4;
        let sizes = [3usize, 0, 5, 1, 8];
        let results = run_group(p, FaultPlan::none(), |comm| {
            let mut tensors: Vec<Vec<f32>> = sizes
                .iter()
                .scan(0usize, |off, &n| {
                    let t = input_for(comm.rank(), *off + n)[*off..].to_vec();
                    *off += n;
                    Some(t)
                })
                .collect();
            fused_allreduce(
                &comm,
                &mut tensors,
                ReduceOp::Sum,
                AllreduceAlgo::Ring,
                16, // 4 elements per bucket → several buckets
                0,
            )
            .map(|()| tensors)
        });
        let total: usize = sizes.iter().sum();
        let want_flat = expected_sum(0..p, total);
        for got in results {
            let got = got.expect("no-fault fused allreduce failed");
            let flat: Vec<f32> = got.into_iter().flatten().collect();
            assert_eq!(flat, want_flat);
        }
    }
}

//! Property-based tests for the gradient-fusion pipeline: bucket planning
//! invariants, pack/unpack round-trips, and the end-to-end guarantee that
//! a fused allreduce is bit-for-bit equal to per-tensor allreduces in the
//! fault-free case — for arbitrary tensor mixes, byte caps, algorithms,
//! and group sizes.

use collectives::{
    allreduce, fused_allreduce, plan_buckets, AllreduceAlgo, FusionBuffer, PeerComm, ReduceOp,
};
use proptest::prelude::*;
use std::sync::Arc;
use transport::FaultPlan;

mod common;
use common::run_group;

/// Integer-valued tensor mix: reductions are exactly associative, so
/// fused-vs-unfused equality is exact regardless of how the algorithms
/// chunk the (differently shaped) buffers.
fn tensor_mix(rank: usize, sizes: &[usize], seed: u64) -> Vec<Vec<i64>> {
    sizes
        .iter()
        .enumerate()
        .map(|(t, &n)| {
            (0..n)
                .map(|i| {
                    let x = seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add((rank * 1_000_003 + t * 977 + i) as u64);
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
        Just(AllreduceAlgo::auto()),
        Just(AllreduceAlgo::auto_with(64)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The bucket plan is a partition of the tensor sequence: contiguous,
    /// in order, covering every tensor exactly once, never splitting one.
    #[test]
    fn plan_is_an_ordered_partition(
        sizes in proptest::collection::vec(0usize..200, 0..24),
        cap in 0usize..1024,
    ) {
        let plan = plan_buckets(&sizes, 8, cap);
        let mut next = 0usize;
        for r in &plan {
            prop_assert_eq!(r.start, next, "buckets must be contiguous and ordered");
            prop_assert!(r.end > r.start, "empty bucket");
            next = r.end;
        }
        prop_assert_eq!(next, sizes.len(), "plan must cover every tensor");
    }

    /// Every bucket respects the byte cap unless it is a singleton whose
    /// lone tensor is itself over the cap (the oversized escape hatch) —
    /// and the plan is maximal: a bucket only closes because adding the
    /// next tensor would overflow the cap.
    #[test]
    fn caps_are_respected_except_oversized_singletons(
        sizes in proptest::collection::vec(0usize..200, 1..24),
        cap in 1usize..1024,
        elem_bytes in prop_oneof![Just(1usize), Just(4), Just(8)],
    ) {
        let plan = plan_buckets(&sizes, elem_bytes, cap);
        for (b, r) in plan.iter().enumerate() {
            let bytes: usize = sizes[r.clone()].iter().map(|&n| n * elem_bytes).sum();
            if r.len() > 1 {
                prop_assert!(
                    bytes <= cap,
                    "bucket {} holds {} bytes over cap {}", b, bytes, cap
                );
            }
            // Greedy maximality: the first tensor of the next bucket would
            // not have fit in this one.
            if b + 1 < plan.len() {
                let next_bytes = sizes[plan[b + 1].start] * elem_bytes;
                prop_assert!(
                    bytes + next_bytes > cap,
                    "bucket {} closed early: {} + {} <= {}", b, bytes, next_bytes, cap
                );
            }
        }
    }

    /// Packing tensors into a fusion buffer and unpacking returns the
    /// original tensors exactly, preserving order and never splitting or
    /// merging a tensor.
    #[test]
    fn pack_unpack_is_identity(
        sizes in proptest::collection::vec(0usize..64, 0..12),
        seed in any::<u64>(),
    ) {
        let tensors = tensor_mix(3, &sizes, seed);
        let views: Vec<&[i64]> = tensors.iter().map(|t| t.as_slice()).collect();
        let fused = FusionBuffer::pack(&views);
        prop_assert_eq!(fused.num_tensors(), tensors.len());
        prop_assert_eq!(fused.len(), sizes.iter().sum::<usize>());
        for (i, t) in tensors.iter().enumerate() {
            prop_assert_eq!(fused.tensor(i), t.as_slice(), "tensor {} mutated", i);
        }
        prop_assert_eq!(fused.unpack(), tensors);
    }

    /// The pipeline guarantee: pack → allreduce → unpack equals per-tensor
    /// allreduce bit-for-bit in the fault-free case, for every algorithm,
    /// any byte cap, any group size, and any tensor mix (including empty
    /// tensors and caps that force oversized singleton buckets).
    #[test]
    fn fused_allreduce_equals_per_tensor_allreduce(
        p in 1usize..=6,
        sizes in proptest::collection::vec(0usize..48, 1..10),
        cap in 0usize..512,
        seed in any::<u64>(),
        algo in algo_strategy(),
    ) {
        let sizes = Arc::new(sizes);
        let sz = Arc::clone(&sizes);
        let results = run_group(p, FaultPlan::none(), move |comm| {
            let mut fused = tensor_mix(comm.rank(), &sz, seed);
            fused_allreduce(&comm, &mut fused, ReduceOp::Sum, algo, cap, 0)
                .expect("fault-free fused allreduce");
            fused
        });
        let sz = Arc::clone(&sizes);
        let reference = run_group(p, FaultPlan::none(), move |comm| {
            let mut tensors = tensor_mix(comm.rank(), &sz, seed);
            for (t, buf) in tensors.iter_mut().enumerate() {
                let base = (t as u64) << 32; // disjoint tag windows per tensor
                allreduce(&comm, buf, ReduceOp::Sum, algo, base)
                    .expect("fault-free per-tensor allreduce");
            }
            tensors
        });
        for (r, (got, want)) in results.iter().zip(&reference).enumerate() {
            prop_assert_eq!(got, want, "rank {} fused != unfused", r);
        }
    }
}

//! Property-based tests for the two-level (hierarchical) collective:
//! the two-tier chunk partition is an exact tiling for arbitrary shapes
//! (including degenerate ones — fewer elements than leaders, empty and
//! single-element buffers), and the full hierarchical pipeline is
//! bit-for-bit equal to the flat allreduce for integer elements across
//! arbitrary node maps, group sizes, and algorithms.

use collectives::{
    allreduce, fused_allreduce, hier_allreduce, hier_fused_allreduce, two_tier_chunk_range,
    AllreduceAlgo, NodeMap, PeerComm, ReduceOp,
};
use proptest::prelude::*;
use std::sync::Arc;
use transport::FaultPlan;

mod common;
use common::run_group;

/// Integer inputs: reductions are exactly associative, so hierarchical
/// re-ordering cannot change a bit.
fn input_for(rank: usize, len: usize, seed: u64) -> Vec<i64> {
    (0..len)
        .map(|i| {
            let x = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((rank * 1_000_003 + i) as u64);
            (x % 2001) as i64 - 1000
        })
        .collect()
}

fn tensor_mix(rank: usize, sizes: &[usize], seed: u64) -> Vec<Vec<i64>> {
    sizes
        .iter()
        .enumerate()
        .map(|(t, &n)| input_for(rank * 31 + t, n, seed))
        .collect()
}

/// Node colors for `p` ranks over arbitrary node sizes (cyclic assignment
/// of the size list, truncated to `p`). Guarantees at least one node.
fn colors_from_shape(p: usize, shape: &[usize]) -> Vec<u64> {
    let mut colors = Vec::with_capacity(p);
    let mut node = 0u64;
    let mut left = shape[0];
    for _ in 0..p {
        if left == 0 {
            node += 1;
            left = shape[node as usize % shape.len()];
        }
        colors.push(node);
        left -= 1;
    }
    colors
}

fn algo_strategy() -> impl Strategy<Value = AllreduceAlgo> {
    prop_oneof![
        Just(AllreduceAlgo::Ring),
        Just(AllreduceAlgo::RecursiveDoubling),
        Just(AllreduceAlgo::Rabenseifner),
        Just(AllreduceAlgo::auto()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The two-tier partition tiles `[0, n)` exactly: walking nodes in
    /// order and locals within each node yields contiguous, in-order,
    /// non-overlapping ranges covering every element exactly once — for
    /// arbitrary element counts (including 0, 1, and n < leader count) and
    /// arbitrary mixed node shapes.
    #[test]
    fn two_tier_partition_tiles_exactly(
        n in 0usize..400,
        shape in proptest::collection::vec(1usize..5, 1..7),
    ) {
        let n_nodes = shape.len();
        let mut next = 0usize;
        for (node, &node_size) in shape.iter().enumerate() {
            for local in 0..node_size {
                let r = two_tier_chunk_range(n, n_nodes, node, node_size, local);
                prop_assert_eq!(
                    r.start, next,
                    "tile for node {} local {} must start where the last ended", node, local
                );
                prop_assert!(r.end >= r.start);
                next = r.end;
            }
        }
        prop_assert_eq!(next, n, "tiles must cover every element");
    }

    /// Edge shapes stay exact: zero or one element, more leaders than
    /// elements — some tiles are empty, but the union is still `[0, n)`
    /// and tiles within one node never overlap another node's.
    #[test]
    fn two_tier_handles_fewer_elements_than_ranks(
        n in 0usize..4,
        n_nodes in 1usize..8,
        node_size in 1usize..5,
    ) {
        let mut covered = vec![0u32; n];
        for node in 0..n_nodes {
            for local in 0..node_size {
                for i in two_tier_chunk_range(n, n_nodes, node, node_size, local) {
                    covered[i] += 1;
                }
            }
        }
        prop_assert!(covered.iter().all(|&c| c == 1), "coverage {:?}", covered);
    }

    /// The hierarchical allreduce equals the flat allreduce bit-for-bit
    /// for integer elements — arbitrary group sizes, node shapes (mixed
    /// sizes, singletons, one big node), buffer lengths (including 0 and
    /// 1), and cross-phase algorithms.
    #[test]
    fn hier_allreduce_equals_flat(
        p in 1usize..=7,
        shape in proptest::collection::vec(1usize..4, 1..5),
        len in 0usize..40,
        seed in any::<u64>(),
        algo in algo_strategy(),
    ) {
        let colors = Arc::new(colors_from_shape(p, &shape));
        let c = Arc::clone(&colors);
        let hier = run_group(p, FaultPlan::none(), move |comm| {
            let map = NodeMap::from_colors(&c);
            let mut buf = input_for(comm.rank(), len, seed);
            hier_allreduce(&comm, &map, &mut buf, ReduceOp::Sum, algo, 0)
                .expect("fault-free hier allreduce");
            buf
        });
        let flat = run_group(p, FaultPlan::none(), move |comm| {
            let mut buf = input_for(comm.rank(), len, seed);
            allreduce(&comm, &mut buf, ReduceOp::Sum, algo, 0)
                .expect("fault-free flat allreduce");
            buf
        });
        for (r, (got, want)) in hier.iter().zip(&flat).enumerate() {
            prop_assert_eq!(got, want, "rank {} hier != flat", r);
        }
    }

    /// Same guarantee through the fused path: bucketing under an arbitrary
    /// byte cap and routing every bucket through the two-level pipeline
    /// equals the flat fused allreduce bit-for-bit.
    #[test]
    fn hier_fused_allreduce_equals_flat_fused(
        p in 1usize..=6,
        shape in proptest::collection::vec(1usize..4, 1..4),
        sizes in proptest::collection::vec(0usize..32, 1..8),
        cap in 0usize..384,
        seed in any::<u64>(),
        algo in algo_strategy(),
    ) {
        let colors = Arc::new(colors_from_shape(p, &shape));
        let sizes = Arc::new(sizes);
        let (c, sz) = (Arc::clone(&colors), Arc::clone(&sizes));
        let hier = run_group(p, FaultPlan::none(), move |comm| {
            let map = NodeMap::from_colors(&c);
            let mut tensors = tensor_mix(comm.rank(), &sz, seed);
            hier_fused_allreduce(&comm, &map, &mut tensors, ReduceOp::Sum, algo, cap, 0)
                .expect("fault-free hier fused allreduce");
            tensors
        });
        let sz = Arc::clone(&sizes);
        let flat = run_group(p, FaultPlan::none(), move |comm| {
            let mut tensors = tensor_mix(comm.rank(), &sz, seed);
            fused_allreduce(&comm, &mut tensors, ReduceOp::Sum, algo, cap, 0)
                .expect("fault-free flat fused allreduce");
            tensors
        });
        for (r, (got, want)) in hier.iter().zip(&flat).enumerate() {
            prop_assert_eq!(got, want, "rank {} hier fused != flat fused", r);
        }
    }
}

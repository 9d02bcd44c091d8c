//! Two-level (topology-aware) allreduce over a *flat* peer group.
//!
//! Horovod's hierarchical-allreduce optimization for Summit's
//! 6-GPUs-per-node shape: intra-node traffic is cheap, so only one rank
//! per node participates in the expensive cross-node exchange. The
//! algorithm is a two-level reduce-scatter/allgather:
//!
//! 1. **intra-node reduce** — every node binomial-reduces onto its leader;
//! 2. **cross-node exchange** — the leaders run a flat allreduce (ring,
//!    recursive-doubling, or Rabenseifner, per the resolved algorithm)
//!    among themselves, reduce-scattering and allgathering the node
//!    partials;
//! 3. **intra-node bcast** — each leader binomial-broadcasts the final
//!    values back to its node.
//!
//! Crucially the whole thing runs **on the flat group**: node subgroups
//! are views ([`Subgroup`]) that translate dense sub-indices to parent
//! indices on the wire. No sub-communicators are created, so a failure
//! anywhere surfaces as a [`CollError::PeerFailed`] carrying the *flat*
//! peer index, and a revocation of the flat communicator interrupts every
//! rank — including a non-leader blocked in the intra-node broadcast
//! while its leader is stuck in the cross-node ring on a dead peer. That
//! property is what lets the ULFM layer reuse its unchanged
//! revoke → agree → shrink path for hierarchical collectives.
//!
//! Determinism: for a fixed [`NodeMap`] and inputs the reduction order is
//! fixed (binomial tree within a node, then the chosen flat algorithm
//! among leaders), so results are bit-identical across runs and — for
//! exactly-representable element values — equal to the flat allreduce.

use std::ops::Range;

use crate::allreduce::{allreduce, chunk_range};
use crate::bcast::binomial_bcast;
use crate::comm::PeerComm;
use crate::elem::{copy_from_le, Elem, ReduceOp};
use crate::error::CollError;
use crate::fusion::plan_buckets;
use crate::reduce::binomial_reduce;
use crate::{AllreduceAlgo, TAG_SPAN};
use transport::wire::Fill;

/// Tag offset (within one `TAG_SPAN` window) for the intra-node reduce.
/// Disjoint node subgroups share this sub-window safely: the transport
/// matches on (sender, tag) and intra-node sender/receiver pairs never
/// cross nodes.
const PHASE_REDUCE: u64 = 0;
/// Tag offset for the cross-node exchange among leaders.
const PHASE_CROSS: u64 = 1 << 18;
/// Tag offset for the intra-node broadcast of the final values.
const PHASE_BCAST: u64 = 1 << 19;

/// Static node structure of a flat peer group: which group ranks live on
/// which node, and who each node's leader is (its first member in group
/// order).
///
/// A `NodeMap` is built *locally* from per-rank node colors — no
/// communication — so after a membership change every survivor can
/// rebuild it deterministically from the agreed survivor set alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeMap {
    /// Members of each node (flat group ranks, ascending), in order of
    /// each node's first appearance in the group.
    nodes: Vec<Vec<usize>>,
    /// Flat group rank → index into `nodes`.
    node_of: Vec<usize>,
}

impl NodeMap {
    /// Build a map from one node color per flat group rank (index =
    /// group rank). Ranks with equal colors share a node; each node's
    /// leader is its lowest group rank. Deterministic in the colors.
    pub fn from_colors(colors: &[u64]) -> Self {
        let mut nodes: Vec<Vec<usize>> = Vec::new();
        let mut seen: Vec<u64> = Vec::new();
        let mut node_of = Vec::with_capacity(colors.len());
        for (rank, &c) in colors.iter().enumerate() {
            match seen.iter().position(|&s| s == c) {
                Some(i) => {
                    nodes[i].push(rank);
                    node_of.push(i);
                }
                None => {
                    seen.push(c);
                    nodes.push(vec![rank]);
                    node_of.push(nodes.len() - 1);
                }
            }
        }
        Self { nodes, node_of }
    }

    /// Number of flat group ranks covered by the map.
    pub fn n_ranks(&self) -> usize {
        self.node_of.len()
    }

    /// Number of distinct nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The node index of a flat group rank.
    pub fn node_index(&self, rank: usize) -> usize {
        self.node_of[rank]
    }

    /// All flat group ranks on `rank`'s node, ascending (leader first).
    pub fn node_members(&self, rank: usize) -> &[usize] {
        &self.nodes[self.node_of[rank]]
    }

    /// The leader (first member) of `rank`'s node.
    pub fn leader_of(&self, rank: usize) -> usize {
        self.nodes[self.node_of[rank]][0]
    }

    /// Is `rank` its node's leader?
    pub fn is_leader(&self, rank: usize) -> bool {
        self.leader_of(rank) == rank
    }

    /// The leaders of every node, in node order.
    pub fn leaders(&self) -> Vec<usize> {
        self.nodes.iter().map(|m| m[0]).collect()
    }

    /// True when every node holds exactly one rank — the hierarchy
    /// degenerates to the flat group and buys nothing.
    pub fn is_flat(&self) -> bool {
        self.nodes.iter().all(|m| m.len() == 1)
    }

    /// Largest node size.
    pub fn max_node_size(&self) -> usize {
        self.nodes.iter().map(|m| m.len()).max().unwrap_or(0)
    }
}

/// Two-tier partition of `n` elements: tier 1 splits `[0, n)` across
/// `n_nodes` contiguous node shards (the cross-node reduce-scatter
/// ownership); tier 2 splits node `node`'s shard across that node's
/// `node_size` local ranks. Both tiers use the same balanced
/// [`chunk_range`] rule as the flat ring, so the union over all
/// `(node, local)` pairs tiles `[0, n)` exactly — no overlap, no gap —
/// for any `n`, including `n < n_nodes` (empty shards) and 0/1-element
/// buffers.
pub fn two_tier_chunk_range(
    n: usize,
    n_nodes: usize,
    node: usize,
    node_size: usize,
    local: usize,
) -> Range<usize> {
    let outer = chunk_range(n, n_nodes, node);
    let inner = chunk_range(outer.end - outer.start, node_size, local);
    outer.start + inner.start..outer.start + inner.end
}

/// A dense view of a subset of a flat group, presented as a [`PeerComm`]
/// so the existing collective algorithms run unchanged within a node or
/// among node leaders. Peer indices are translated to parent indices on
/// the wire; errors keep the *parent* index so blame reaches the
/// communicator layer unmangled.
struct Subgroup<'a, C: PeerComm> {
    parent: &'a C,
    /// Parent indices of the members, in subgroup order.
    members: &'a [usize],
    /// This rank's index within `members`.
    my_idx: usize,
}

impl<C: PeerComm> Subgroup<'_, C> {
    /// An algorithm run over the view names the sender of a malformed
    /// message by its index *in the view* (transport errors arrive already
    /// carrying the parent's): translate it.
    fn blame(&self, e: CollError) -> CollError {
        match e {
            CollError::Malformed { peer } => CollError::Malformed {
                peer: self.members.get(peer).copied().unwrap_or(peer),
            },
            other => other,
        }
    }
}

impl<C: PeerComm> PeerComm for Subgroup<'_, C> {
    fn size(&self) -> usize {
        self.members.len()
    }
    fn rank(&self) -> usize {
        self.my_idx
    }
    fn send(&self, peer: usize, tag: u64, data: &[u8]) -> Result<(), CollError> {
        self.parent.send(self.members[peer], tag, data)
    }
    fn recv(&self, peer: usize, tag: u64) -> Result<Vec<u8>, CollError> {
        self.parent.recv(self.members[peer], tag)
    }
    fn send_with(&self, peer: usize, tag: u64, len: usize, f: Fill<'_>) -> Result<(), CollError> {
        self.parent.send_with(self.members[peer], tag, len, f)
    }
    fn recv_with(&self, peer: usize, tag: u64, f: &mut dyn FnMut(&[u8])) -> Result<(), CollError> {
        self.parent.recv_with(self.members[peer], tag, f)
    }
    fn fault_point(&self, name: &str) -> Result<(), CollError> {
        self.parent.fault_point(name)
    }
}

/// In-place hierarchical allreduce of `buf` over the flat group behind
/// `comm`, structured by `map` (which must describe exactly
/// `comm.size()` ranks). `algo` picks the cross-node exchange among
/// leaders; `AllreduceAlgo::Auto` resolves against the *leader* count
/// and the payload, so selection is already topology-dependent.
///
/// The result equals the flat allreduce up to floating-point
/// reassociation, and is bit-identical to it for exactly-representable
/// values (integers, quarter-integers within range, min/max).
///
/// Consumes tags in `[tag_base, tag_base + TAG_SPAN)`.
pub fn hier_allreduce<E: Elem, C: PeerComm>(
    comm: &C,
    map: &NodeMap,
    buf: &mut [E],
    op: ReduceOp,
    algo: AllreduceAlgo,
    tag_base: u64,
) -> Result<(), CollError> {
    assert_eq!(
        map.n_ranks(),
        comm.size(),
        "node map describes a different group than the communicator"
    );
    op_metrics!("coll.allreduce.hier").observe(|| {
        let me = comm.rank();
        let members = map.node_members(me);
        let my_idx = members
            .iter()
            .position(|&r| r == me)
            .expect("rank missing from its own node");

        let local = Subgroup {
            parent: comm,
            members,
            my_idx,
        };

        // Phase 1: binomial-reduce onto the node leader (subgroup idx 0).
        if members.len() > 1 {
            binomial_reduce(&local, 0, buf, op, tag_base + PHASE_REDUCE)
                .map_err(|e| local.blame(e))?;
        }

        // Phase 2: flat allreduce among the node leaders.
        let leaders = map.leaders();
        if map.is_leader(me) && leaders.len() > 1 {
            let leader_idx = map.node_index(me);
            let cross = Subgroup {
                parent: comm,
                members: &leaders,
                my_idx: leader_idx,
            };
            allreduce(&cross, buf, op, algo, tag_base + PHASE_CROSS).map_err(|e| cross.blame(e))?;
        }

        // Phase 3: binomial-broadcast the final values within the node.
        if members.len() > 1 {
            let mut bytes = Vec::new();
            if my_idx == 0 {
                bytes = E::encode_slice(buf);
            }
            binomial_bcast(&local, 0, &mut bytes, tag_base + PHASE_BCAST)
                .map_err(|e| local.blame(e))?;
            if my_idx != 0 {
                // Relays forward the leader's bytes as they came.
                copy_from_le(buf, &bytes, members[0])?;
            }
        }
        Ok(())
    })
}

/// Hierarchical fused allreduce: bucket `tensors` greedily under
/// `cap_bytes` (same plan as [`crate::fused_allreduce`]), then run each
/// bucket through [`hier_allreduce`]. Bucket `b` consumes tags in
/// `[tag_base + b*TAG_SPAN, tag_base + (b+1)*TAG_SPAN)`, mirroring the
/// flat fused path, so a caller can swap one for the other without
/// changing its tag accounting.
pub fn hier_fused_allreduce<E: Elem, C: PeerComm>(
    comm: &C,
    map: &NodeMap,
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
        let mut fused = crate::fusion::FusionBuffer::pack(&views);
        crate::fusion::observe_bucket(fused.len() * E::WIDTH, fused.num_tensors());
        hier_allreduce(
            comm,
            map,
            fused.data_mut(),
            op,
            algo,
            tag_base + b as u64 * TAG_SPAN,
        )?;
        let mut views: Vec<&mut [E]> = tensors[range]
            .iter_mut()
            .map(|t| t.as_mut_slice())
            .collect();
        fused.unpack_into(&mut views);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{input_for, run_group};
    use transport::FaultPlan;

    /// Dense-packing colors: `rank / rpn`, the shape `transport::Topology`
    /// assigns.
    fn colors(p: usize, rpn: usize) -> Vec<u64> {
        (0..p).map(|r| (r / rpn) as u64).collect()
    }

    #[test]
    fn node_map_structure() {
        let m = NodeMap::from_colors(&colors(7, 3));
        assert_eq!(m.n_nodes(), 3);
        assert_eq!(m.n_ranks(), 7);
        assert_eq!(m.leaders(), vec![0, 3, 6]);
        assert_eq!(m.node_members(4), &[3, 4, 5]);
        assert_eq!(m.leader_of(5), 3);
        assert!(m.is_leader(3));
        assert!(!m.is_leader(4));
        assert!(!m.is_flat());
        assert!(NodeMap::from_colors(&colors(4, 1)).is_flat());
        assert_eq!(m.max_node_size(), 3);
    }

    #[test]
    fn node_map_handles_interleaved_colors() {
        // Colors need not be contiguous: nodes form by first appearance.
        let m = NodeMap::from_colors(&[7, 2, 7, 2, 9]);
        assert_eq!(m.n_nodes(), 3);
        assert_eq!(m.node_members(2), &[0, 2]);
        assert_eq!(m.node_members(3), &[1, 3]);
        assert_eq!(m.leaders(), vec![0, 1, 4]);
    }

    #[test]
    fn two_tier_tiles_exactly() {
        for &(n, shape) in &[
            (19usize, &[3usize, 2, 1][..]),
            (2, &[3, 3][..]),
            (0, &[2, 2][..]),
            (1, &[1, 4, 2][..]),
            (64, &[6, 6, 6, 6][..]),
        ] {
            let mut covered = vec![0usize; n];
            for (node, &sz) in shape.iter().enumerate() {
                for local in 0..sz {
                    let r = two_tier_chunk_range(n, shape.len(), node, sz, local);
                    for i in r {
                        covered[i] += 1;
                    }
                }
            }
            assert!(
                covered.iter().all(|&c| c == 1),
                "n={n} shape={shape:?}: {covered:?}"
            );
        }
    }

    fn check_hier(p: usize, rpn: usize, len: usize, algo: AllreduceAlgo) {
        let results = run_group(p, FaultPlan::none(), move |comm| {
            let map = NodeMap::from_colors(&colors(p, rpn));
            let mut hier = input_for(comm.rank(), len);
            hier_allreduce(&comm, &map, &mut hier, ReduceOp::Sum, algo, 0).unwrap();
            let mut flat = input_for(comm.rank(), len);
            allreduce(&comm, &mut flat, ReduceOp::Sum, algo, 1 << 40).unwrap();
            (hier, flat)
        });
        for (rank, (hier, flat)) in results.into_iter().enumerate() {
            // Quarter-integer inputs sum exactly, so bit-identical.
            assert_eq!(hier, flat, "p={p} rpn={rpn} len={len} rank={rank}");
        }
    }

    #[test]
    fn hier_equals_flat_across_shapes_and_algos() {
        for &(p, rpn) in &[(2, 2), (4, 2), (5, 2), (6, 3), (7, 3), (9, 3), (5, 1)] {
            for algo in [
                AllreduceAlgo::Ring,
                AllreduceAlgo::RecursiveDoubling,
                AllreduceAlgo::Rabenseifner,
                AllreduceAlgo::auto(),
            ] {
                check_hier(p, rpn, 19, algo);
            }
        }
    }

    #[test]
    fn hier_short_buffers() {
        for len in [0usize, 1, 2] {
            check_hier(6, 3, len, AllreduceAlgo::Ring);
        }
    }

    #[test]
    fn hier_max_op() {
        let results = run_group(6, FaultPlan::none(), |comm| {
            let map = NodeMap::from_colors(&colors(6, 2));
            let mut buf = vec![comm.rank() as f32 * 10.0];
            hier_allreduce(&comm, &map, &mut buf, ReduceOp::Max, AllreduceAlgo::Ring, 0).unwrap();
            buf[0]
        });
        for v in results {
            assert_eq!(v, 50.0);
        }
    }

    #[test]
    fn hier_fused_equals_flat_fused() {
        let sizes = [7usize, 0, 33, 1, 12];
        let results = run_group(6, FaultPlan::none(), move |comm| {
            let map = NodeMap::from_colors(&colors(6, 3));
            let mk = |rank: usize| -> Vec<Vec<f32>> {
                sizes
                    .iter()
                    .enumerate()
                    .map(|(t, &n)| input_for(rank * 7 + t, n))
                    .collect()
            };
            let mut hier = mk(comm.rank());
            hier_fused_allreduce(
                &comm,
                &map,
                &mut hier,
                ReduceOp::Sum,
                AllreduceAlgo::Ring,
                64,
                0,
            )
            .unwrap();
            let mut flat = mk(comm.rank());
            crate::fused_allreduce(
                &comm,
                &mut flat,
                ReduceOp::Sum,
                AllreduceAlgo::Ring,
                64,
                1 << 40,
            )
            .unwrap();
            (hier, flat)
        });
        for (rank, (hier, flat)) in results.into_iter().enumerate() {
            assert_eq!(hier, flat, "rank={rank}");
        }
    }
}

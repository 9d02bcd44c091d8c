//! Rooted collectives: binomial reduce, linear gather and scatter.

use crate::comm::PeerComm;
use crate::elem::{recv_elems, send_elems, Elem, ReduceOp};
use crate::error::CollError;
use crate::framing::{decode_one, encode_blocks};

/// Reduce `buf` from all ranks onto `root` along a binomial tree. After the
/// call the root's `buf` holds the reduction; other ranks' buffers hold
/// intermediate partial sums (as in MPI, non-root buffers are clobbered).
pub fn binomial_reduce<E: Elem, C: PeerComm>(
    comm: &C,
    root: usize,
    buf: &mut [E],
    op: ReduceOp,
    tag_base: u64,
) -> Result<(), CollError> {
    op_metrics!("coll.reduce.binomial").observe(|| {
        let p = comm.size();
        assert!(root < p, "reduce root {root} out of range (size {p})");
        if p == 1 {
            return Ok(());
        }
        let vrank = (comm.rank() + p - root) % p;

        // Children send up in increasing-bit order; each rank absorbs
        // children below its lowest set bit, then sends to its parent.
        let mut mask = 1usize;
        while mask < p {
            let tag = tag_base + mask.trailing_zeros() as u64;
            if vrank & mask != 0 {
                comm.fault_point("reduce.step")?;
                let parent = ((vrank & !mask) + root) % p;
                return send_elems(comm, parent, tag, buf);
            }
            let vchild = vrank | mask;
            if vchild < p {
                comm.fault_point("reduce.step")?;
                let child = (vchild + root) % p;
                recv_elems(comm, child, tag, Some(op), buf)?;
            }
            mask <<= 1;
        }
        Ok(())
    })
}

/// Gather each rank's byte block to `root`. Returns `Some(blocks)` (indexed
/// by group rank) at the root, `None` elsewhere. Linear algorithm: fine for
/// control-plane payloads.
pub fn gather<C: PeerComm>(
    comm: &C,
    root: usize,
    mine: &[u8],
    tag_base: u64,
) -> Result<Option<Vec<Vec<u8>>>, CollError> {
    op_metrics!("coll.gather.linear").observe(|| {
        let p = comm.size();
        let r = comm.rank();
        assert!(root < p, "gather root {root} out of range (size {p})");
        if r == root {
            let mut out = vec![Vec::new(); p];
            out[root] = mine.to_vec();
            for peer in (0..p).filter(|&x| x != root) {
                comm.fault_point("gather.step")?;
                let data = comm.recv(peer, tag_base)?;
                out[peer] = decode_one(&data, peer, peer)?;
            }
            Ok(Some(out))
        } else {
            comm.fault_point("gather.step")?;
            comm.send(root, tag_base, &encode_blocks(std::iter::once((r, mine))))?;
            Ok(None)
        }
    })
}

/// Scatter per-rank byte blocks from `root`. The root passes
/// `Some(blocks)` with one block per rank; everyone receives their block.
pub fn scatter<C: PeerComm>(
    comm: &C,
    root: usize,
    blocks: Option<&[Vec<u8>]>,
    tag_base: u64,
) -> Result<Vec<u8>, CollError> {
    op_metrics!("coll.scatter.linear").observe(|| {
        let p = comm.size();
        let r = comm.rank();
        assert!(root < p, "scatter root {root} out of range (size {p})");
        if r == root {
            let blocks = blocks.expect("root must supply blocks");
            assert_eq!(blocks.len(), p, "scatter needs one block per rank");
            for peer in (0..p).filter(|&x| x != root) {
                comm.fault_point("scatter.step")?;
                comm.send(peer, tag_base, &blocks[peer])?;
            }
            Ok(blocks[root].clone())
        } else {
            comm.fault_point("scatter.step")?;
            comm.recv(root, tag_base)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{expected_sum, input_for, run_group};
    use transport::FaultPlan;

    #[test]
    fn reduce_to_each_root() {
        for p in 1..=8 {
            for root in 0..p {
                let n = 33;
                let results = run_group(p, FaultPlan::none(), move |comm| {
                    let mut buf = input_for(comm.rank(), n);
                    binomial_reduce(&comm, root, &mut buf, ReduceOp::Sum, 0).map(|()| buf)
                });
                let want = expected_sum(0..p, n);
                assert_eq!(results[root].as_ref().unwrap(), &want, "p={p} root={root}");
            }
        }
    }

    #[test]
    fn gather_collects_ordered_blocks() {
        let p = 5;
        let results = run_group(p, FaultPlan::none(), |comm| {
            gather(&comm, 2, &[comm.rank() as u8; 3], 0)
        });
        let blocks = results[2].as_ref().unwrap().as_ref().unwrap();
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(b, &vec![i as u8; 3]);
        }
        for (i, r) in results.iter().enumerate() {
            if i != 2 {
                assert!(r.as_ref().unwrap().is_none());
            }
        }
    }

    #[test]
    fn scatter_distributes_blocks() {
        let p = 4;
        let results = run_group(p, FaultPlan::none(), |comm| {
            let blocks: Option<Vec<Vec<u8>>> =
                (comm.rank() == 1).then(|| (0..p).map(|i| vec![i as u8 * 10]).collect());
            scatter(&comm, 1, blocks.as_deref(), 0)
        });
        for (i, r) in results.into_iter().enumerate() {
            assert_eq!(r.unwrap(), vec![i as u8 * 10]);
        }
    }

    #[test]
    fn reduce_with_dead_child_reports_failure_at_root() {
        let plan = FaultPlan::none().kill_at_point(transport::RankId(3), "reduce.step", 1);
        let results = run_group(4, plan, |comm| {
            let mut buf = vec![1.0f32];
            binomial_reduce(&comm, 0, &mut buf, ReduceOp::Sum, 0)
        });
        assert_eq!(results[3], Err(CollError::SelfDied));
        assert!(results[..3]
            .iter()
            .any(|r| matches!(r, Err(CollError::PeerFailed { .. }))));
    }
}

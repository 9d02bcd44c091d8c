//! Allgather algorithms over variable-size byte blocks (allgatherv).

use crate::comm::PeerComm;
use crate::error::CollError;
use crate::framing::{decode_blocks, decode_one, encode_blocks};

/// Which allgather algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum AllgatherAlgo {
    /// `p-1` neighbour exchanges; bandwidth-optimal.
    #[default]
    Ring,
    /// `⌈log₂ p⌉` rounds with doubling payloads (Bruck's algorithm shape);
    /// latency-optimal for small blocks.
    Bruck,
}

/// Gather every rank's `mine` block to every rank. Returns blocks indexed by
/// group rank.
pub fn allgather<C: PeerComm>(
    comm: &C,
    mine: &[u8],
    algo: AllgatherAlgo,
    tag_base: u64,
) -> Result<Vec<Vec<u8>>, CollError> {
    let metrics = match algo {
        AllgatherAlgo::Ring => op_metrics!("coll.allgather.ring"),
        AllgatherAlgo::Bruck => op_metrics!("coll.allgather.bruck"),
    };
    metrics.observe(|| match algo {
        AllgatherAlgo::Ring => ring_allgather(comm, mine, tag_base),
        AllgatherAlgo::Bruck => bruck_allgather(comm, mine, tag_base),
    })
}

/// Ring allgather: each step forwards one block to the right neighbour.
pub fn ring_allgather<C: PeerComm>(
    comm: &C,
    mine: &[u8],
    tag_base: u64,
) -> Result<Vec<Vec<u8>>, CollError> {
    let p = comm.size();
    let r = comm.rank();
    let mut out: Vec<Option<Vec<u8>>> = vec![None; p];
    out[r] = Some(mine.to_vec());
    if p == 1 {
        return Ok(out.into_iter().map(Option::unwrap).collect());
    }
    let right = (r + 1) % p;
    let left = (r + p - 1) % p;
    for step in 0..p - 1 {
        comm.fault_point("allgather.step")?;
        let send_idx = (r + p - step) % p;
        let recv_idx = (r + p - step - 1) % p;
        let tag = tag_base + step as u64;
        let payload = out[send_idx]
            .as_deref()
            .expect("ring invariant: block to forward is present");
        comm.send(
            right,
            tag,
            &encode_blocks(std::iter::once((send_idx, payload))),
        )?;
        let data = comm.recv(left, tag)?;
        out[recv_idx] = Some(decode_one(&data, left, recv_idx)?);
    }
    Ok(out.into_iter().map(Option::unwrap).collect())
}

/// Bruck-style allgather: `⌈log₂ p⌉` rounds; in round `k` each rank sends
/// everything it has collected so far to the rank `2^k` below it.
pub fn bruck_allgather<C: PeerComm>(
    comm: &C,
    mine: &[u8],
    tag_base: u64,
) -> Result<Vec<Vec<u8>>, CollError> {
    let p = comm.size();
    let r = comm.rank();
    let mut have: Vec<Option<Vec<u8>>> = vec![None; p];
    have[r] = Some(mine.to_vec());
    let mut dist = 1usize;
    let mut round = 0u64;
    while dist < p {
        comm.fault_point("allgather.step")?;
        let to = (r + p - dist) % p;
        let from = (r + dist) % p;
        let tag = tag_base + round;
        let payload = encode_blocks(
            have.iter()
                .enumerate()
                .filter_map(|(i, b)| b.as_deref().map(|b| (i, b))),
        );
        comm.send(to, tag, &payload)?;
        let data = comm.recv(from, tag)?;
        let malformed = CollError::Malformed { peer: from };
        for (idx, block) in decode_blocks(&data, from)? {
            have.get_mut(idx)
                .ok_or_else(|| malformed.clone())?
                .get_or_insert(block);
        }
        // `from` owed us everything it had: after this round the next
        // `2·dist` blocks from our own on (all `p`, once that wraps).
        dist <<= 1;
        if (0..dist.min(p)).any(|j| have[(r + j) % p].is_none()) {
            return Err(malformed);
        }
        round += 1;
    }
    Ok(have
        .into_iter()
        .enumerate()
        .map(|(i, b)| b.unwrap_or_else(|| panic!("block {i} missing after a complete last round")))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_group;
    use transport::FaultPlan;

    fn block_for(rank: usize) -> Vec<u8> {
        // Variable sizes exercise the allgatherv path.
        vec![rank as u8 + 1; rank % 3 + 1]
    }

    fn check(algo: AllgatherAlgo, p: usize) {
        let results = run_group(p, FaultPlan::none(), |comm| {
            allgather(&comm, &block_for(comm.rank()), algo, 0)
        });
        let want: Vec<Vec<u8>> = (0..p).map(block_for).collect();
        for (r, got) in results.into_iter().enumerate() {
            assert_eq!(got.unwrap(), want, "rank {r} (algo {algo:?}, p={p})");
        }
    }

    #[test]
    fn ring_sizes() {
        for p in 1..=8 {
            check(AllgatherAlgo::Ring, p);
        }
    }

    #[test]
    fn bruck_sizes() {
        for p in 1..=9 {
            check(AllgatherAlgo::Bruck, p);
        }
    }

    #[test]
    fn empty_blocks_allowed() {
        let results = run_group(4, FaultPlan::none(), |comm| {
            ring_allgather(&comm, &[], 0).map(|blocks| blocks.iter().all(|b| b.is_empty()))
        });
        for got in results {
            assert!(got.unwrap());
        }
    }

    #[test]
    fn failure_mid_allgather_is_reported() {
        let plan = FaultPlan::none().kill_at_point(transport::RankId(1), "allgather.step", 2);
        let results = run_group(4, plan, |comm| {
            ring_allgather(&comm, &block_for(comm.rank()), 0).map(|_| ())
        });
        assert_eq!(results[1], Err(CollError::SelfDied));
        assert!(results
            .iter()
            .enumerate()
            .any(|(r, res)| r != 1 && res.is_err()));
    }
}

//! Dissemination barrier.

use crate::comm::PeerComm;
use crate::error::CollError;

/// Synchronize all group ranks in `⌈log₂ p⌉` rounds: in round `k` each rank
/// signals `(rank + 2^k) mod p` and waits for `(rank - 2^k) mod p`.
///
/// Completion at any rank implies every rank has entered the barrier
/// (transitively through the dissemination pattern).
pub fn dissemination_barrier<C: PeerComm>(comm: &C, tag_base: u64) -> Result<(), CollError> {
    op_metrics!("coll.barrier").observe(|| {
        let p = comm.size();
        let r = comm.rank();
        let mut dist = 1usize;
        let mut round = 0u64;
        while dist < p {
            comm.fault_point("barrier.step")?;
            let to = (r + dist) % p;
            let from = (r + p - dist) % p;
            let tag = tag_base + round;
            comm.send(to, tag, &[])?;
            comm.recv(from, tag)?;
            dist <<= 1;
            round += 1;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_group;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use transport::FaultPlan;

    #[test]
    fn completes_at_all_sizes() {
        for p in 1..=9 {
            let results = run_group(p, FaultPlan::none(), |comm| dissemination_barrier(&comm, 0));
            assert!(results.into_iter().all(|r| r.is_ok()), "p={p}");
        }
    }

    #[test]
    fn no_rank_exits_before_all_entered() {
        // Pre-barrier counter must be p at every rank's barrier exit.
        static ENTERED: AtomicUsize = AtomicUsize::new(0);
        ENTERED.store(0, Ordering::SeqCst);
        let p = 6;
        let results = run_group(p, FaultPlan::none(), |comm| {
            if comm.rank() == 3 {
                // Straggler: everyone else must wait for it.
                std::thread::sleep(std::time::Duration::from_millis(40));
            }
            ENTERED.fetch_add(1, Ordering::SeqCst);
            dissemination_barrier(&comm, 0).unwrap();
            ENTERED.load(Ordering::SeqCst)
        });
        for seen in results {
            assert_eq!(seen, p, "a rank left the barrier early");
        }
    }

    #[test]
    fn failure_inside_barrier_reported() {
        let plan = FaultPlan::none().kill_at_point(transport::RankId(0), "barrier.step", 1);
        let results = run_group(4, plan, |comm| dissemination_barrier(&comm, 0));
        assert_eq!(results[0], Err(CollError::SelfDied));
        assert!(results.iter().skip(1).any(|r| r.is_err()));
    }
}

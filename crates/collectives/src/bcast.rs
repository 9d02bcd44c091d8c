//! Binomial-tree broadcast with reliable teardown.
//!
//! Every hop carries a one-byte trailing status frame. A rank whose
//! receive fails (dead parent, revocation, poison from upstream) does not
//! simply unwind: it first forwards a *poison* frame to each of its
//! children, so a subtree below a failed link observes the broken
//! broadcast promptly instead of blocking on a sender that will never
//! transmit. This keeps a failed broadcast from stranding receivers
//! without any comm-wide revocation — essential when the broadcast shares
//! a communicator with other in-flight op streams (a revoke would yank
//! innocent stragglers out of *their* collectives and desynchronize the
//! recovery protocol).

use crate::comm::PeerComm;
use crate::error::CollError;

/// Trailing status byte of a successfully relayed payload.
const FRAME_OK: u8 = 0;
/// Trailing status byte of a poison frame: the sender's own receive
/// failed and it is tearing down its subtree.
const FRAME_POISON: u8 = 1;

/// Broadcast `buf` from group rank `root` to all ranks along a binomial
/// tree (`⌈log₂ p⌉` rounds). Non-root ranks' buffers are overwritten;
/// `buf.len()` must match on all ranks. On error the buffer contents are
/// unspecified.
///
/// A failure anywhere in the tree surfaces as an error on every rank in
/// the affected subtree (poison propagation); ranks on intact paths still
/// return `Ok` with the payload — uniformity, when needed, is the
/// caller's job (e.g. a commit agreement over the per-rank outcomes).
pub fn binomial_bcast<C: PeerComm>(
    comm: &C,
    root: usize,
    buf: &mut Vec<u8>,
    tag_base: u64,
) -> Result<(), CollError> {
    op_metrics!("coll.bcast.binomial").observe(|| {
        let p = comm.size();
        assert!(root < p, "broadcast root {root} out of range (size {p})");
        if p == 1 {
            return Ok(());
        }
        let vrank = (comm.rank() + p - root) % p;

        // First error observed on this rank; teardown continues past it.
        let mut fail: Option<CollError> = None;

        // Non-roots receive once from the parent: the rank obtained by
        // clearing the lowest set bit of vrank. `recv_bit` is that bit; the
        // root acts as if it had received at the top of the tree.
        let recv_bit = if vrank == 0 {
            buf.push(FRAME_OK);
            p.next_power_of_two()
        } else {
            let bit = vrank & vrank.wrapping_neg(); // lowest set bit
            let parent = ((vrank & !bit) + root) % p;
            let got = comm
                .fault_point("bcast.step")
                .and_then(|()| comm.recv(parent, tag_base));
            match got {
                Ok(bytes) if bytes.last() == Some(&FRAME_OK) => *buf = bytes,
                Ok(_) => {
                    // Poison: an ancestor's receive failed. Report the
                    // (alive) parent as the failed peer — the caller only
                    // needs to learn the broadcast broke, not where.
                    fail = Some(CollError::PeerFailed { peer: parent });
                    *buf = vec![FRAME_POISON];
                }
                Err(CollError::SelfDied) => return Err(CollError::SelfDied),
                Err(e) => {
                    fail = Some(e);
                    *buf = vec![FRAME_POISON];
                }
            }
            bit
        };

        // Forward to children vrank + m for every bit m below recv_bit —
        // the payload on success, the poison frame on failure. A dead or
        // unreachable child never aborts the teardown of its siblings.
        let mut m = recv_bit >> 1;
        while m >= 1 {
            let vchild = vrank + m;
            if vchild < p {
                let child = (vchild + root) % p;
                let sent = comm
                    .fault_point("bcast.step")
                    .and_then(|()| comm.send(child, tag_base, buf));
                match sent {
                    Ok(()) => {}
                    Err(CollError::SelfDied) => return Err(CollError::SelfDied),
                    Err(e) => {
                        fail.get_or_insert(e);
                    }
                }
            }
            m >>= 1;
        }
        match fail {
            Some(e) => Err(e),
            None => {
                buf.pop();
                Ok(())
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_group;
    use transport::FaultPlan;

    fn check(p: usize, root: usize) {
        let payload: Vec<u8> = (0..17u8).collect();
        let want = payload.clone();
        let results = run_group(p, FaultPlan::none(), move |comm| {
            let mut buf = if comm.rank() == root {
                payload.clone()
            } else {
                Vec::new()
            };
            binomial_bcast(&comm, root, &mut buf, 0).map(|()| buf)
        });
        for (r, got) in results.into_iter().enumerate() {
            assert_eq!(got.unwrap(), want, "rank {r} (p={p}, root={root})");
        }
    }

    #[test]
    fn all_roots_all_sizes() {
        for p in 1..=9 {
            for root in 0..p {
                check(p, root);
            }
        }
    }

    #[test]
    fn large_payload() {
        let payload = vec![0xabu8; 1 << 16];
        let want = payload.clone();
        let results = run_group(6, FaultPlan::none(), move |comm| {
            let mut buf = if comm.rank() == 2 {
                payload.clone()
            } else {
                vec![]
            };
            binomial_bcast(&comm, 2, &mut buf, 0).map(|()| buf)
        });
        for got in results {
            assert_eq!(got.unwrap(), want);
        }
    }

    #[test]
    fn dead_child_surfaces_peer_failed_at_parent() {
        // Rank 1 dies before the bcast begins; root (0) observes PeerFailed
        // when it tries to forward. The sleep on every other rank makes the
        // ordering deterministic (rank 1 is certainly dead by then).
        let plan = FaultPlan::none().kill_at_point(transport::RankId(1), "bcast.step", 1);
        let results = run_group(4, plan, |comm| {
            if comm.rank() != 1 {
                std::thread::sleep(std::time::Duration::from_millis(40));
            }
            let mut buf = if comm.rank() == 0 {
                vec![9u8; 4]
            } else {
                vec![]
            };
            binomial_bcast(&comm, 0, &mut buf, 0)
        });
        assert_eq!(results[1], Err(CollError::SelfDied));
        assert!(
            results
                .iter()
                .any(|r| matches!(r, Err(CollError::PeerFailed { .. }))),
            "{results:?}"
        );
    }

    #[test]
    fn poison_unwinds_subtree_below_failed_link() {
        // The root dies before its first send. Rank 2 (the root's direct
        // child) observes PeerDead — and must forward a poison frame to
        // rank 3, whose parent (rank 2) is alive and would otherwise never
        // send: without the reliable teardown this test hangs forever.
        let plan = FaultPlan::none().kill_at_point(transport::RankId(0), "bcast.step", 1);
        let results = run_group(4, plan, |comm| {
            let mut buf = if comm.rank() == 0 {
                vec![7u8; 3]
            } else {
                vec![]
            };
            binomial_bcast(&comm, 0, &mut buf, 0)
        });
        assert_eq!(results[0], Err(CollError::SelfDied));
        assert_eq!(results[1], Err(CollError::PeerFailed { peer: 0 }));
        assert_eq!(results[2], Err(CollError::PeerFailed { peer: 0 }));
        // Rank 3's parent is rank 2 — alive, but poisoned.
        assert_eq!(results[3], Err(CollError::PeerFailed { peer: 2 }));
    }

    #[test]
    fn bad_root_panics() {
        struct NoComm;
        impl crate::PeerComm for NoComm {
            fn size(&self) -> usize {
                2
            }
            fn rank(&self) -> usize {
                0
            }
            fn send(&self, _: usize, _: u64, _: &[u8]) -> Result<(), CollError> {
                unreachable!()
            }
            fn recv(&self, _: usize, _: u64) -> Result<Vec<u8>, CollError> {
                unreachable!()
            }
        }
        let err = std::panic::catch_unwind(|| {
            let mut buf = vec![];
            let _ = binomial_bcast(&NoComm, 5, &mut buf, 0);
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("out of range"), "unexpected panic: {msg}");
    }
}

//! Fault-tolerant uniform agreement (`MPIX_Comm_agree`).
//!
//! The paper relies on `MPIX_Comm_agree` to reach consensus about failures
//! before shrinking (§3.1). We implement agreement as a **flood-set**
//! protocol: inputs are frozen on entry, and for `p` rounds every member
//! broadcasts its accumulated state to every other member and merges what
//! it receives. Merging is a semilattice (bitwise AND on flags, `min` on
//! the auxiliary value, union on the failure bitmap), and with at most
//! `p-1` crash faults at least one round is failure-free, after which all
//! survivors' states are equal and remain equal — the classic flood-set
//! uniformity argument under crash faults with reliable channels.
//!
//! ULFM implementations use the logarithmic ERA protocol instead; we trade
//! message count for obviousness of correctness in the threaded runtime
//! (the `simnet` crate models ERA's cost for the paper-scale figures).
//!
//! **Caller contract:** every *alive* member of the group must eventually
//! call agree with the same tag base (the recovery layer guarantees this:
//! a failure or revocation drives every member into recovery).

use crate::error::UlfmError;
use transport::{Endpoint, RankId, TransportError, Wire};

/// Outcome of an agreement: uniform across every member that returns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AgreeResult {
    /// Bitwise AND of every contributed flag word.
    pub flags: u64,
    /// Minimum of every contributed auxiliary value (the elastic layer uses
    /// this to agree on the earliest collective to re-execute).
    pub min: u64,
    /// Union of every member's *entry-time* failure knowledge — the agreed
    /// failed set used by shrink. Knowledge is frozen per member when it
    /// enters the agreement, so a member that dies *during* the agreement
    /// is included exactly when some participant had already observed the
    /// death on entry; either way the union (a semilattice merge flooded
    /// for `p` rounds) is identical on every member that returns, so the
    /// set is uniform even when deaths land between flood rounds. A death
    /// the agreement does not report is caught by the next one — which is
    /// why [`crate::Communicator::shrink_with`] iterates until a generation
    /// verifies with no new failures.
    pub failed: Vec<RankId>,
}

struct State {
    flags: u64,
    min: u64,
    bitmap: Vec<u64>,
}

impl State {
    fn encode(&self) -> Vec<u8> {
        let mut words = Vec::with_capacity(2 + self.bitmap.len());
        words.push(self.flags);
        words.push(self.min);
        words.extend_from_slice(&self.bitmap);
        u64::encode_slice(&words)
    }

    /// Merge a peer's encoded state. These are bytes a peer chose: anything
    /// but a state of this group's width is `None` with `self` untouched.
    fn merge_bytes(&mut self, bytes: &[u8]) -> Option<()> {
        let words = u64::decode_checked(bytes)?;
        let [flags, min, bitmap @ ..] = &words[..] else {
            return None;
        };
        if bitmap.len() != self.bitmap.len() {
            return None;
        }
        self.flags &= flags;
        self.min = self.min.min(*min);
        for (b, w) in self.bitmap.iter_mut().zip(bitmap) {
            *b |= w;
        }
        Some(())
    }
}

/// Run flood-set agreement over `group` (global rank ids, dense order).
///
/// `tag_base` must be a fresh recovery-class tag window; the protocol uses
/// offsets `0..group.len()`.
///
/// `verify` marks re-entries from `shrink_with`'s candidate-verification
/// loop: their rounds count under `ulfm.shrink.verify_rounds` so a
/// multi-generation shrink no longer double-counts `ulfm.agree.rounds`
/// against a single logical recovery.
pub(crate) fn flood_agree(
    ep: &Endpoint,
    group: &[RankId],
    my_idx: usize,
    tag_base: u64,
    flag: u64,
    min_val: u64,
    verify: bool,
) -> Result<AgreeResult, UlfmError> {
    let p = group.len();
    let words = p.div_ceil(64);
    let mut state = State {
        flags: flag,
        min: min_val,
        bitmap: vec![0u64; words.max(1)],
    };
    // Freeze inputs on entry: known failures now. Later failures are
    // (uniformly) caught by the flooding itself or by the next agreement.
    for (i, &g) in group.iter().enumerate() {
        if !ep.is_peer_alive(g) && g != ep.rank() {
            state.bitmap[i / 64] |= 1 << (i % 64);
        }
    }
    // A member failed on entry is a dead peer whatever error the transport
    // gives for it (a rank it never registered has no link at all).
    let entry = state.bitmap.clone();
    let dead_on_entry = |i: usize| entry[i / 64] >> (i % 64) & 1 == 1;

    if p > 1 {
        let rounds_ctr = telemetry::counter(if verify {
            "ulfm.shrink.verify_rounds"
        } else {
            "ulfm.agree.rounds"
        });
        let mut bytes_sent = 0u64;
        for round in 0..p {
            rounds_ctr.incr();
            ep.fault_point("agree.round").map_err(map_self)?;
            let tag = tag_base + round as u64;
            let payload = state.encode();
            for (i, &peer) in group.iter().enumerate() {
                if i == my_idx {
                    continue;
                }
                match ep.send(peer, tag, &payload) {
                    Ok(()) => bytes_sent += payload.len() as u64,
                    Err(TransportError::PeerDead(_)) => {}
                    Err(TransportError::SelfDied) => return Err(UlfmError::SelfDied),
                    Err(_) if dead_on_entry(i) => {}
                    Err(_) => return Err(UlfmError::Aborted),
                }
            }
            for (i, &peer) in group.iter().enumerate() {
                if i == my_idx {
                    continue;
                }
                match ep.recv(peer, tag) {
                    Ok(bytes) => state.merge_bytes(&bytes).ok_or(UlfmError::Aborted)?,
                    Err(TransportError::PeerDead(_)) => {}
                    Err(TransportError::SelfDied) => return Err(UlfmError::SelfDied),
                    Err(_) if dead_on_entry(i) => {}
                    Err(_) => return Err(UlfmError::Aborted),
                }
            }
        }
        telemetry::histogram("ulfm.agree.bytes").record(bytes_sent);
    }

    let failed = group
        .iter()
        .enumerate()
        .filter(|(i, _)| state.bitmap[i / 64] >> (i % 64) & 1 == 1)
        .map(|(_, &g)| g)
        .collect();
    Ok(AgreeResult {
        flags: state.flags,
        min: state.min,
        failed,
    })
}

/// A fault point fails only with `SelfDied`; any other transport error
/// the protocol cannot act on is `Aborted`, as one on a send or receive is.
fn map_self(e: TransportError) -> UlfmError {
    match e {
        TransportError::SelfDied => UlfmError::SelfDied,
        _ => UlfmError::Aborted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tags;
    use transport::{BackendKind, FaultPlan, Mesh, Topology};

    fn run_agree(
        n: usize,
        plan: FaultPlan,
        pre_kill: &[usize],
        flag_of: impl Fn(usize) -> u64 + Send + Sync,
        min_of: impl Fn(usize) -> u64 + Send + Sync,
    ) -> Vec<Result<AgreeResult, UlfmError>> {
        // In process: the pre-killed members die on the shared fabric.
        let mesh = Mesh::new(BackendKind::InProc, Topology::flat(), n, plan).unwrap();
        for &k in pre_kill {
            mesh.fabric().unwrap().kill_rank(RankId(k));
        }
        let group: Vec<RankId> = (0..n).map(RankId).collect();
        // A member exits as soon as it decides, which its peers still
        // deciding observe as a death: the result must stay uniform.
        let results = mesh.run(|ep| {
            let i = ep.rank().0;
            (!pre_kill.contains(&i)).then(|| {
                let base = tags::recovery_base(0, 0);
                flood_agree(&ep, &group, i, base, flag_of(i), min_of(i), false)
            })
        });
        results.into_iter().flatten().collect()
    }

    #[test]
    fn failure_free_agreement_ands_flags_and_mins() {
        let results = run_agree(
            5,
            FaultPlan::none(),
            &[],
            |i| 0b111 & !(i as u64 & 1),
            |i| 10 + i as u64,
        );
        for r in &results {
            let r = r.as_ref().unwrap();
            assert_eq!(r.flags, 0b110);
            assert_eq!(r.min, 10);
            assert!(r.failed.is_empty());
        }
    }

    #[test]
    fn a_malformed_state_is_an_error_not_a_panic() {
        let state = || State {
            flags: 1,
            min: 2,
            bitmap: vec![0],
        };
        let valid = state().encode();
        assert!(state().merge_bytes(&valid).is_some());
        for bad in crate::malformed_variants(&valid) {
            assert!(state().merge_bytes(&bad).is_none(), "{bad:?}");
            // And through the protocol: rank 1 answers round 0 with `bad`.
            let mesh = Mesh::new(BackendKind::InProc, Topology::flat(), 2, FaultPlan::none());
            let eps = mesh.unwrap().endpoints();
            let group = [RankId(0), RankId(1)];
            let tag = tags::recovery_base(0, 0);
            eps[1].send(group[0], tag, &bad).unwrap();
            let got = flood_agree(&eps[0], &group, 0, tag, 1, 2, false);
            assert_eq!(got, Err(UlfmError::Aborted), "{bad:?}");
        }
    }

    /// An unregistered rank is not alive on entry, so it is failed like a
    /// dead member — the same outcome as lattice agreement's.
    #[test]
    fn a_group_naming_an_unregistered_rank_fails_it_instead_of_panicking() {
        let mesh = Mesh::new(BackendKind::InProc, Topology::flat(), 1, FaultPlan::none()).unwrap();
        let group = [RankId(0), RankId(7)];
        let results = mesh.run(|ep| {
            let base = tags::recovery_base(0, 0);
            flood_agree(&ep, &group, 0, base, 1, 0, false)
        });
        let want = AgreeResult {
            flags: 1,
            min: 0,
            failed: vec![RankId(7)],
        };
        assert_eq!(results, [Ok(want)]);
    }

    #[test]
    fn single_member_is_trivial() {
        let results = run_agree(1, FaultPlan::none(), &[], |_| 7, |_| 3);
        assert_eq!(
            results[0].as_ref().unwrap(),
            &AgreeResult {
                flags: 7,
                min: 3,
                failed: vec![]
            }
        );
    }

    #[test]
    fn pre_dead_member_lands_in_failed_set_uniformly() {
        let results = run_agree(6, FaultPlan::none(), &[2, 4], |_| 1, |_| 0);
        for r in &results {
            let r = r.as_ref().unwrap();
            assert_eq!(r.failed, vec![RankId(2), RankId(4)]);
            assert_eq!(r.flags, 1);
        }
    }

    #[test]
    fn death_mid_agreement_keeps_result_uniform() {
        // Rank 1 dies during round 2 of the agreement. All survivors must
        // still return the *same* result.
        let plan = FaultPlan::none().kill_at_point(RankId(1), "agree.round", 2);
        let results = run_agree(
            5,
            plan,
            &[],
            |i| if i == 3 { 0b01 } else { 0b11 },
            |i| i as u64,
        );
        let survivors: Vec<&AgreeResult> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
        assert!(survivors.len() >= 3, "{results:?}");
        for s in &survivors[1..] {
            assert_eq!(*s, survivors[0], "non-uniform agreement");
        }
        assert!(results.iter().any(|r| r == &Err(UlfmError::SelfDied)));
    }

    #[test]
    fn agreement_uniform_under_many_overlapping_deaths() {
        for seed in 0..8u64 {
            let n = 7;
            let mut plan = FaultPlan::none();
            // Two scripted deaths at pseudo-random rounds.
            let a = (seed % 5 + 1) as usize;
            let b = ((seed * 3) % 5 + 1) as usize;
            plan = plan
                .kill_at_point(RankId(a), "agree.round", 1 + seed % 4)
                .kill_at_point(RankId(b), "agree.round", 1 + (seed / 2) % 4);
            let results = run_agree(n, plan, &[], |i| !(i as u64), |i| 100 - i as u64);
            let oks: Vec<&AgreeResult> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
            assert!(!oks.is_empty());
            for o in &oks[1..] {
                assert_eq!(*o, oks[0], "seed {seed}: non-uniform agreement {results:?}");
            }
        }
    }
}

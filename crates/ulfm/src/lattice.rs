//! Lattice-agreement view changes: the fast path for deciding failed sets.
//!
//! The flood-set protocol in [`crate::agree`] runs `p` full-exchange rounds
//! per agreement, and [`crate::Communicator::shrink_with`] re-enters it once
//! per generation — so a burst of `k` concurrent failures, discovered one
//! wave at a time, costs up to `k` re-agreements. This module replaces the
//! hot path with **lattice agreement**: each member proposes its suspicion
//! set, proposals merge by join-semilattice union ([`Proposal::join`]), and
//! a member decides — without total order — as soon as its proposal is
//! *stable* (one full exchange round changed nothing and no new death was
//! observed). Failure-free convergence takes two exchange rounds plus one
//! decide echo, independent of `p`.
//!
//! The protocol is itself survivable. A death observed mid-round (a
//! `PeerDead` on the round's send or receive) **widens the in-flight
//! proposal** — the dead rank joins the suspicion bitmap — instead of
//! restarting the agreement, so `k` concurrent failures, including failures
//! of lattice participants during the round, resolve in one view change.
//! Three named fault points script deaths inside the protocol:
//! `lattice.propose` (entry of each exchange round), `lattice.ack` (between
//! a round's send and receive phases), and `lattice.decide` (before the
//! decide echo).
//!
//! **Uniformity.** Messages carry a `decided` marker. A member that decides
//! broadcasts its decided proposal once more (the *decide echo*) before
//! returning; a member that receives any decided proposal adopts it
//! wholesale — replacing even a locally wider proposal — and echoes in
//! turn. Two members that decide by stability in the same round have
//! exchanged proposals in that round with no change, so their proposals are
//! mutually ≤ and hence equal; a member cannot decide by stability in a
//! later round without first receiving (and adopting) the earlier decider's
//! echo. The echo goes to every non-suspected peer. A failed echo delivery
//! surfaces as a new death, which blocks stability. A delivered echo may
//! be followed at once by its sender's exit, so a round receives from
//! every peer not suspected when it *started*, even one its send phase
//! found dead: a receive takes a queued message before it reports the
//! sender's death, so the echo is read and adopted. A death
//! that a decided proposal does not report is caught by the next agreement
//! — the same doctrine as flood-set (see [`crate::agree::AgreeResult`]),
//! enforced by `shrink_with`'s verify generation.

use crate::agree::AgreeResult;
use crate::error::UlfmError;
use transport::{Endpoint, RankId, TransportError, Wire};

/// Which uniform-agreement protocol a [`crate::Communicator`] runs under
/// [`crate::Communicator::agree`] (and therefore inside every shrink, join
/// commit, and policy commit). Inherited by every derived communicator
/// (shrink candidates, splits, join-merged and spare-promoted groups).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AgreeImpl {
    /// The p-round flood-set protocol — the seed implementation, kept as
    /// the fallback and the conformance oracle for the lattice fast path.
    #[default]
    Flood,
    /// Incremental lattice agreement: decide on proposal stability, absorb
    /// mid-protocol deaths by widening instead of restarting.
    Lattice,
}

impl AgreeImpl {
    /// Stable lowercase name, used in telemetry and bench tables.
    pub fn name(self) -> &'static str {
        match self {
            AgreeImpl::Flood => "flood",
            AgreeImpl::Lattice => "lattice",
        }
    }
}

/// One member's proposal: an element of the product join-semilattice the
/// protocol converges on. `flags` merge by AND, `min` by minimum, and the
/// suspicion `bitmap` by union — the same element the flood-set protocol
/// floods, exposed here so the semilattice laws are directly testable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Proposal {
    /// Bitwise-AND-merged flag word.
    pub flags: u64,
    /// Min-merged auxiliary value.
    pub min: u64,
    /// Union-merged suspicion bitmap over group-local indices.
    pub bitmap: Vec<u64>,
}

impl Proposal {
    /// A fresh proposal for a group of `p` members.
    pub fn new(flags: u64, min: u64, p: usize) -> Self {
        Self {
            flags,
            min,
            bitmap: vec![0u64; p.div_ceil(64).max(1)],
        }
    }

    /// Semilattice join: merge `other` into `self`. Associative,
    /// commutative, and idempotent in each component.
    pub fn join(&mut self, other: &Proposal) {
        assert_eq!(
            self.bitmap.len(),
            other.bitmap.len(),
            "lattice proposal width mismatch"
        );
        self.flags &= other.flags;
        self.min = self.min.min(other.min);
        for (b, w) in self.bitmap.iter_mut().zip(&other.bitmap) {
            *b |= w;
        }
    }

    /// Mark group-local index `i` suspected (widen the proposal).
    pub fn suspect(&mut self, i: usize) {
        self.bitmap[i / 64] |= 1 << (i % 64);
    }

    /// Is group-local index `i` suspected?
    pub fn is_suspected(&self, i: usize) -> bool {
        self.bitmap[i / 64] >> (i % 64) & 1 == 1
    }

    fn encode(&self, decided: bool) -> Vec<u8> {
        let mut words = Vec::with_capacity(3 + self.bitmap.len());
        words.push(decided as u64);
        words.push(self.flags);
        words.push(self.min);
        words.extend_from_slice(&self.bitmap);
        u64::encode_slice(&words)
    }

    /// Decode a peer's `(decided, proposal)` for a group of `p`. These are
    /// bytes a peer chose: anything but a proposal of that width is `None`.
    fn decode(bytes: &[u8], p: usize) -> Option<(bool, Proposal)> {
        let words = u64::decode_checked(bytes)?;
        let [decided, flags, min, bitmap @ ..] = &words[..] else {
            return None;
        };
        (bitmap.len() == p.div_ceil(64).max(1)).then(|| {
            (
                *decided != 0,
                Proposal {
                    flags: *flags,
                    min: *min,
                    bitmap: bitmap.to_vec(),
                },
            )
        })
    }

    fn into_result(self, group: &[RankId]) -> AgreeResult {
        let failed = group
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.is_suspected(i))
            .map(|(_, &g)| g)
            .collect();
        AgreeResult {
            flags: self.flags,
            min: self.min,
            failed,
        }
    }
}

/// Run lattice agreement over `group` (global rank ids, dense order).
///
/// `tag_base` must be a fresh recovery-class tag window; the protocol uses
/// offset `r` for exchange round `r` and `r+1` for a round-`r` decider's
/// echo. Returns the uniformly decided [`AgreeResult`]; unlike flood-set,
/// the failed set includes members that die *during* the protocol (their
/// deaths widen the in-flight proposal), which is what lets a `k`-failure
/// burst resolve in a single shrink generation.
///
/// `verify` marks re-entries from `shrink_with`'s candidate-verification
/// loop so their rounds are accounted under `ulfm.shrink.verify_rounds`
/// rather than inflating `ulfm.lattice.rounds`.
pub fn lattice_agree(
    ep: &Endpoint,
    group: &[RankId],
    my_idx: usize,
    tag_base: u64,
    flag: u64,
    min_val: u64,
    verify: bool,
) -> Result<AgreeResult, UlfmError> {
    let p = group.len();
    let mut prop = Proposal::new(flag, min_val, p);
    // Freeze current detector knowledge as the initial proposal; later
    // discoveries widen it in flight.
    for (i, &g) in group.iter().enumerate() {
        if !ep.is_peer_alive(g) && g != ep.rank() {
            prop.suspect(i);
        }
    }
    if p <= 1 {
        return Ok(prop.into_result(group));
    }

    let rounds_ctr = telemetry::counter(if verify {
        "ulfm.shrink.verify_rounds"
    } else {
        "ulfm.lattice.rounds"
    });
    let mut bytes_sent = 0u64;
    let mut round = 0u64;
    loop {
        // Budget: a failure-free run decides in 2 rounds; every extra round
        // is caused by at least one newly observed death or one adopted
        // echo, and there are only p members to lose.
        assert!(
            round < 2 * p as u64 + 4,
            "lattice agreement failed to converge within its round budget"
        );
        rounds_ctr.incr();
        ep.fault_point("lattice.propose").map_err(map_self)?;
        let tag = tag_base + round;
        let pre = prop.clone();
        let payload = prop.encode(false);
        let mut new_death = false;
        for (i, &peer) in group.iter().enumerate() {
            if i == my_idx || prop.is_suspected(i) {
                continue;
            }
            match ep.send(peer, tag, &payload) {
                Ok(()) => bytes_sent += payload.len() as u64,
                Err(TransportError::PeerDead(_)) => {
                    prop.suspect(i);
                    new_death = true;
                }
                Err(TransportError::SelfDied) => return Err(UlfmError::SelfDied),
                Err(_) => return Err(UlfmError::Aborted),
            }
        }
        ep.fault_point("lattice.ack").map_err(map_self)?;
        let mut adopted = false;
        for (i, &peer) in group.iter().enumerate() {
            // Receive from every peer not suspected when the round started,
            // even one the send phase found dead: its decide echo may
            // already be queued here. A dead peer with nothing queued
            // reports its death at once, so nothing blocks on it.
            if i == my_idx || pre.is_suspected(i) {
                continue;
            }
            match ep.recv(peer, tag) {
                Ok(bytes) => {
                    let (decided, theirs) =
                        Proposal::decode(&bytes, p).ok_or(UlfmError::Aborted)?;
                    if adopted {
                        // Already bound to a decided proposal; later
                        // traffic in this round cannot change it.
                    } else if decided {
                        // Adopt wholesale — even over a locally wider
                        // proposal. The extra death we observed is caught
                        // by the next agreement (shrink's verify).
                        prop = theirs;
                        adopted = true;
                    } else {
                        prop.join(&theirs);
                    }
                }
                Err(TransportError::PeerDead(_)) => {
                    if !adopted {
                        prop.suspect(i);
                        new_death = true;
                    }
                }
                Err(TransportError::SelfDied) => return Err(UlfmError::SelfDied),
                Err(_) => return Err(UlfmError::Aborted),
            }
        }
        if adopted || (!new_death && prop == pre) {
            if !verify {
                telemetry::histogram("ulfm.lattice.decide_round").record(round + 1);
            }
            break;
        }
        round += 1;
    }

    // Decide echo: one send-only round so stragglers adopt this exact
    // proposal instead of deciding on a wider one of their own.
    ep.fault_point("lattice.decide").map_err(map_self)?;
    let tag = tag_base + round + 1;
    let payload = prop.encode(true);
    for (i, &peer) in group.iter().enumerate() {
        if i == my_idx || prop.is_suspected(i) {
            continue;
        }
        match ep.send(peer, tag, &payload) {
            Ok(()) => bytes_sent += payload.len() as u64,
            Err(TransportError::PeerDead(_)) => {}
            Err(TransportError::SelfDied) => return Err(UlfmError::SelfDied),
            Err(_) => return Err(UlfmError::Aborted),
        }
    }
    telemetry::histogram("ulfm.agree.bytes").record(bytes_sent);
    Ok(prop.into_result(group))
}

/// A fault point fails only with `SelfDied`; any other transport error
/// the protocol cannot act on is `Aborted`, as one on a send or receive is.
fn map_self(e: TransportError) -> UlfmError {
    match e {
        TransportError::SelfDied => UlfmError::SelfDied,
        _ => UlfmError::Aborted,
    }
}

/// Telemetry counters are process-global, so unit tests that assert on
/// `ulfm.lattice.*` deltas must not interleave with other tests that run
/// the protocol. Every lattice-running unit test in this crate takes this
/// lock.
#[cfg(test)]
pub(crate) fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tags;
    use transport::{BackendKind, FaultPlan, Mesh, Topology};

    fn run_lattice(
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
                lattice_agree(&ep, &group, i, base, flag_of(i), min_of(i), false)
            })
        });
        results.into_iter().flatten().collect()
    }

    fn assert_uniform(results: &[Result<AgreeResult, UlfmError>]) -> AgreeResult {
        let oks: Vec<&AgreeResult> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
        assert!(!oks.is_empty(), "{results:?}");
        for o in &oks[1..] {
            assert_eq!(*o, oks[0], "non-uniform lattice agreement {results:?}");
        }
        oks[0].clone()
    }

    #[test]
    fn a_malformed_proposal_is_an_error_not_a_panic() {
        let _serial = test_serial();
        let valid = Proposal::new(1, 2, 2).encode(false);
        assert!(Proposal::decode(&valid, 2).is_some());
        // A well-formed proposal of a group of another width is refused too.
        let wide = Proposal::new(1, 2, 65).encode(false);
        for bad in crate::malformed_variants(&valid).into_iter().chain([wide]) {
            assert_eq!(Proposal::decode(&bad, 2), None, "{bad:?}");
            // And through the protocol: rank 1 answers round 0 with `bad`.
            let mesh = Mesh::new(BackendKind::InProc, Topology::flat(), 2, FaultPlan::none());
            let eps = mesh.unwrap().endpoints();
            let group = [RankId(0), RankId(1)];
            let tag = tags::recovery_base(0, 0);
            eps[1].send(group[0], tag, &bad).unwrap();
            let got = lattice_agree(&eps[0], &group, 0, tag, 1, 2, false);
            assert_eq!(got, Err(UlfmError::Aborted), "{bad:?}");
        }
    }

    #[test]
    fn failure_free_matches_flood_semantics() {
        let _serial = test_serial();
        let results = run_lattice(
            5,
            FaultPlan::none(),
            &[],
            |i| 0b111 & !(i as u64 & 1),
            |i| 10 + i as u64,
        );
        let r = assert_uniform(&results);
        assert_eq!(r.flags, 0b110);
        assert_eq!(r.min, 10);
        assert!(r.failed.is_empty());
    }

    #[test]
    fn a_group_naming_an_unregistered_rank_suspects_it_instead_of_panicking() {
        let _serial = test_serial();
        // An unregistered rank is not alive on entry, so it is suspected
        // and never contacted: no transport error reaches an exit arm.
        let mesh = Mesh::new(BackendKind::InProc, Topology::flat(), 1, FaultPlan::none()).unwrap();
        let group = [RankId(0), RankId(7)];
        let results = mesh.run(|ep| {
            let base = tags::recovery_base(0, 0);
            lattice_agree(&ep, &group, 0, base, 1, 0, false)
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
        let _serial = test_serial();
        let results = run_lattice(1, FaultPlan::none(), &[], |_| 7, |_| 3);
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
    fn pre_dead_members_decided_uniformly() {
        let _serial = test_serial();
        let results = run_lattice(6, FaultPlan::none(), &[2, 4], |_| 1, |_| 0);
        let r = assert_uniform(&results);
        assert_eq!(r.failed, vec![RankId(2), RankId(4)]);
    }

    #[test]
    fn death_at_each_fault_point_keeps_result_uniform() {
        let _serial = test_serial();
        // propose/ack fire once per exchange round; decide fires exactly
        // once (just before the echo), so only occurrence 1 can hit it.
        for (point, max_occ) in [
            ("lattice.propose", 2u64),
            ("lattice.ack", 2),
            ("lattice.decide", 1),
        ] {
            for occurrence in 1..=max_occ {
                let plan = FaultPlan::none().kill_at_point(RankId(1), point, occurrence);
                let results = run_lattice(5, plan, &[], |_| 1, |i| i as u64);
                let r = assert_uniform(&results);
                // The victim may or may not make it into this view's failed
                // set (it can die after the deciders froze), but survivors
                // must agree on whatever the view says.
                assert!(r.failed.is_empty() || r.failed == vec![RankId(1)]);
                assert!(
                    results.iter().any(|r| r == &Err(UlfmError::SelfDied)),
                    "{point}@{occurrence}: victim did not die"
                );
            }
        }
    }

    #[test]
    fn concurrent_burst_widens_in_flight_and_stays_uniform() {
        let _serial = test_serial();
        // Three participants die inside the protocol at different stages;
        // survivors must converge to one decided set without restarting.
        let plan = FaultPlan::none()
            .kill_at_point(RankId(1), "lattice.propose", 1)
            .kill_at_point(RankId(3), "lattice.ack", 1)
            .kill_at_point(RankId(5), "lattice.propose", 2);
        let results = run_lattice(8, plan, &[], |_| 1, |i| i as u64);
        let r = assert_uniform(&results);
        // Deaths at the very first propose happen before the victim sent
        // anything, so every survivor observes them; they must be widened
        // into the decided view rather than deferred.
        assert!(
            r.failed.contains(&RankId(1)),
            "first-round death must be widened into the view: {r:?}"
        );
        assert_eq!(
            results
                .iter()
                .filter(|r| **r == Err(UlfmError::SelfDied))
                .count(),
            3
        );
    }

    #[test]
    fn converges_in_constant_rounds_when_failure_free() {
        let _serial = test_serial();
        // The satellite metric: failure-free lattice agreement decides in 2
        // exchange rounds regardless of p, vs flood's p rounds.
        for n in [2usize, 5, 9, 16] {
            let before = telemetry::counter("ulfm.lattice.rounds").get();
            let results = run_lattice(n, FaultPlan::none(), &[], |_| 1, |_| 0);
            assert_uniform(&results);
            let per_member = (telemetry::counter("ulfm.lattice.rounds").get() - before) / n as u64;
            assert!(
                per_member <= 2,
                "n={n}: {per_member} rounds per member, expected <= 2"
            );
        }
    }
}

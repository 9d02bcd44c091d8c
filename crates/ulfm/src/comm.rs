//! The resilient communicator.

use crate::agree::{flood_agree, AgreeResult};
use crate::error::UlfmError;
use crate::hierarchy::Hierarchy;
use crate::lattice::{lattice_agree, AgreeImpl};
use crate::tags;
use crate::universe::{CommKey, JoinTicket, Shared};
use collectives::{
    allgather, allreduce, binomial_bcast, binomial_reduce, dissemination_barrier, fused_allreduce,
    gather, hier_allreduce, hier_fused_allreduce, plan_buckets, scatter, AllgatherAlgo,
    AllreduceAlgo, CollError, Elem, EndpointGroup, PeerComm, ReduceOp,
};
use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use transport::{Endpoint, RankId, Wire};

/// Result of [`Communicator::shrink_with`]: either this rank is a member of
/// the shrunk communicator, or the recovery policy excluded it and it must
/// leave the computation.
pub enum ShrinkOutcome {
    /// This rank belongs to the shrunk communicator.
    Member(Communicator),
    /// This rank was excluded (e.g. healthy rank on a failed node under the
    /// drop-node policy) and must retire.
    Excluded,
}

/// A ULFM-style communicator: a dense group of global ranks with
/// collectives, per-operation failure reporting, and the recovery triad
/// (revoke / agree / shrink).
///
/// A communicator value is owned by its rank's thread (it is deliberately
/// `!Sync`: sequence counters use `Cell`). All members must issue
/// collective calls in the same order — the usual MPI SPMD contract — which
/// keeps the tag sequence numbers aligned without communication.
pub struct Communicator {
    shared: Arc<Shared>,
    ep: Endpoint,
    id: u64,
    /// This rank's revocation flag for this communicator id.
    revoked: Arc<AtomicBool>,
    group: Vec<RankId>,
    my_idx: usize,
    seq: Cell<u64>,
    rec_seq: Cell<u64>,
    shrink_calls: Cell<u64>,
    split_calls: Cell<u64>,
    acked: RefCell<BTreeSet<RankId>>,
    /// Which uniform-agreement protocol `agree` runs. Inherited by every
    /// derived communicator (shrink candidate, split, join merge, spare
    /// promotion); a `Cell` so engines can select it after construction.
    agree_impl: Cell<AgreeImpl>,
}

impl Communicator {
    pub(crate) fn construct(
        shared: Arc<Shared>,
        ep: Endpoint,
        id: u64,
        group: Vec<RankId>,
    ) -> Self {
        let me = ep.rank();
        let my_idx = group
            .iter()
            .position(|&g| g == me)
            .unwrap_or_else(|| panic!("rank {me} is not a member of communicator {id}"));
        Self {
            revoked: shared.revocation_flag(id),
            shared,
            ep,
            id,
            group,
            my_idx,
            seq: Cell::new(0),
            rec_seq: Cell::new(0),
            shrink_calls: Cell::new(0),
            split_calls: Cell::new(0),
            acked: RefCell::new(BTreeSet::new()),
            agree_impl: Cell::new(AgreeImpl::Flood),
        }
    }

    /// Derive a child communicator that inherits this one's agreement
    /// implementation — every membership transition (shrink candidate,
    /// split, join merge, spare promotion) flows through here so the
    /// flood/lattice selection survives arbitrarily long recovery chains.
    fn derive(&self, id: u64, group: Vec<RankId>) -> Self {
        let child = Self::construct(Arc::clone(&self.shared), self.ep.clone(), id, group);
        child.agree_impl.set(self.agree_impl.get());
        child
    }

    pub(crate) fn from_join_ticket(shared: Arc<Shared>, ep: Endpoint, ticket: &JoinTicket) -> Self {
        let key = CommKey::Join {
            epoch: ticket.epoch,
            group: ticket.group.clone(),
        };
        // Adopt the members' interned id so this (possibly fresh)
        // process's id sequence aligns with theirs from here on.
        shared.adopt_comm_id(key, ticket.comm_id);
        Self::construct(shared, ep, ticket.comm_id, ticket.group.clone())
    }

    /// Group-local rank of this process.
    pub fn rank(&self) -> usize {
        self.my_idx
    }

    /// Number of members (alive or failed — membership is static between
    /// shrinks, as in MPI).
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// Global rank ids of the members, in group order.
    pub fn group(&self) -> &[RankId] {
        &self.group
    }

    /// This communicator's interned identity.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// This process's global rank id.
    pub fn global_rank(&self) -> RankId {
        self.ep.rank()
    }

    /// The transport endpoint (fault points, liveness queries).
    pub fn endpoint(&self) -> &Endpoint {
        &self.ep
    }

    /// Has this communicator been revoked (by any member)?
    pub fn is_revoked(&self) -> bool {
        self.revoked.load(Ordering::SeqCst)
    }

    /// `MPIX_Comm_revoke`: permanently poison this communicator for every
    /// member and interrupt their pending operations. Idempotent; only
    /// `agree` and `shrink` remain usable afterwards.
    pub fn revoke(&self) {
        telemetry::counter("ulfm.revokes").incr();
        telemetry::time("ulfm.revoke.duration_ns", || self.shared.revoke(self.id));
    }

    /// `MPIX_Comm_failure_ack`: acknowledge all failures currently known to
    /// the local detector.
    pub fn failure_ack(&self) {
        let mut acked = self.acked.borrow_mut();
        for &g in &self.group {
            if !self.ep.is_peer_alive(g) {
                acked.insert(g);
            }
        }
    }

    /// `MPIX_Comm_failure_get_acked`: the failures acknowledged so far.
    pub fn get_acked(&self) -> Vec<RankId> {
        self.acked.borrow().iter().copied().collect()
    }

    /// Members currently observed alive by the local detector.
    pub fn alive_members(&self) -> Vec<RankId> {
        self.group
            .iter()
            .copied()
            .filter(|&g| self.ep.is_peer_alive(g))
            .collect()
    }

    // ---- tag/sequence management -------------------------------------

    fn next_coll_base(&self) -> u64 {
        let s = self.seq.get();
        self.seq.set(s + 1);
        tags::coll_base(self.id, s)
    }

    /// Reserve `n` consecutive collective tag windows (one per fusion
    /// bucket) and return the first. `n` is a pure function of the tensor
    /// sizes and the cap, so every member reserves identically. Window `b`
    /// is `base + b · TAG_SPAN`, which carries into the communicator id if
    /// the span straddles the wrap, so such a span starts at the wrap.
    fn reserve_coll_span(&self, n: u64) -> u64 {
        let n = n.max(1);
        let mut s = self.seq.get();
        if s % tags::SEQ_SPACE + n > tags::SEQ_SPACE {
            s = s.next_multiple_of(tags::SEQ_SPACE);
        }
        self.seq.set(s + n);
        tags::coll_base(self.id, s)
    }

    fn next_recovery_base(&self) -> u64 {
        let s = self.rec_seq.get();
        self.rec_seq.set(s + 1);
        tags::recovery_base(self.id, s)
    }

    // ---- point-to-point ----------------------------------------------

    /// Send bytes to a group-local peer with a user tag.
    pub fn send(&self, peer: usize, user_tag: u64, data: &[u8]) -> Result<(), UlfmError> {
        let tag = tags::p2p(self.id, user_tag);
        self.peers()
            .send(peer, tag, data)
            .map_err(|e| self.map_coll(e))
    }

    /// Receive bytes from a group-local peer with a user tag.
    pub fn recv(&self, peer: usize, user_tag: u64) -> Result<Vec<u8>, UlfmError> {
        let tag = tags::p2p(self.id, user_tag);
        self.peers().recv(peer, tag).map_err(|e| self.map_coll(e))
    }

    /// The members as a [`PeerComm`] that fails every send and receive with
    /// `Revoked` once this communicator is revoked, and releases a receive
    /// blocked when it is.
    fn peers(&self) -> EndpointGroup<'_, impl Fn() -> bool + '_> {
        EndpointGroup::new(&self.ep, &self.group, self.my_idx).stop_when(|| self.is_revoked())
    }

    /// The one map from a collective's failure to this runtime's: a failed
    /// peer is reported for this operation and recovery happens above.
    fn map_coll(&self, e: CollError) -> UlfmError {
        match e {
            CollError::PeerFailed { peer } => UlfmError::ProcFailed {
                peer,
                global: self.group.get(peer).copied().unwrap_or(RankId(usize::MAX)),
            },
            CollError::SelfDied => UlfmError::SelfDied,
            CollError::Revoked => UlfmError::Revoked,
            // A live peer that does not speak the protocol is not a failure
            // shrink can remove; leave cleanly rather than redo forever.
            // Nothing a communicator runs aborts; were it to, leave as well.
            CollError::Malformed { .. } | CollError::Aborted => UlfmError::Aborted,
        }
    }

    // ---- collectives ---------------------------------------------------

    /// In-place allreduce across the group.
    pub fn allreduce<E: Elem>(
        &self,
        buf: &mut [E],
        op: ReduceOp,
        algo: AllreduceAlgo,
    ) -> Result<(), UlfmError> {
        let base = self.next_coll_base();
        allreduce(&self.peers(), buf, op, algo, base).map_err(|e| self.map_coll(e))
    }

    /// Broadcast bytes from group-local `root`.
    pub fn bcast(&self, root: usize, buf: &mut Vec<u8>) -> Result<(), UlfmError> {
        let base = self.next_coll_base();
        binomial_bcast(&self.peers(), root, buf, base).map_err(|e| self.map_coll(e))
    }

    /// Gather every member's block to every member.
    pub fn allgather(&self, mine: &[u8], algo: AllgatherAlgo) -> Result<Vec<Vec<u8>>, UlfmError> {
        let base = self.next_coll_base();
        allgather(&self.peers(), mine, algo, base).map_err(|e| self.map_coll(e))
    }

    /// Synchronize all members.
    pub fn barrier(&self) -> Result<(), UlfmError> {
        let base = self.next_coll_base();
        dissemination_barrier(&self.peers(), base).map_err(|e| self.map_coll(e))
    }

    /// Reduce onto group-local `root`.
    pub fn reduce<E: Elem>(
        &self,
        root: usize,
        buf: &mut [E],
        op: ReduceOp,
    ) -> Result<(), UlfmError> {
        let base = self.next_coll_base();
        binomial_reduce(&self.peers(), root, buf, op, base).map_err(|e| self.map_coll(e))
    }

    /// Gather byte blocks to `root`.
    pub fn gather(&self, root: usize, mine: &[u8]) -> Result<Option<Vec<Vec<u8>>>, UlfmError> {
        let base = self.next_coll_base();
        gather(&self.peers(), root, mine, base).map_err(|e| self.map_coll(e))
    }

    /// Scatter byte blocks from `root`.
    pub fn scatter(&self, root: usize, blocks: Option<&[Vec<u8>]>) -> Result<Vec<u8>, UlfmError> {
        let base = self.next_coll_base();
        scatter(&self.peers(), root, blocks, base).map_err(|e| self.map_coll(e))
    }

    /// In-place hierarchical (two-level) allreduce: intra-node reduce onto
    /// each node leader, flat exchange among leaders, intra-node broadcast
    /// back. `hier` must have been built from *this* communicator epoch
    /// ([`Hierarchy::build`]); rebuild it after any shrink/join.
    ///
    /// Runs entirely on this (flat) communicator — node subgroups are
    /// index views, not sub-communicators — so a failure anywhere surfaces
    /// exactly like a flat collective's ([`UlfmError::ProcFailed`] /
    /// [`UlfmError::Revoked`]) and feeds the unchanged
    /// revoke → agree → shrink path.
    pub fn hier_allreduce<E: Elem>(
        &self,
        hier: &Hierarchy,
        buf: &mut [E],
        op: ReduceOp,
        algo: AllreduceAlgo,
    ) -> Result<(), UlfmError> {
        assert_eq!(
            (hier.comm_id(), hier.n_ranks()),
            (self.id, self.group.len()),
            "hierarchy was built for a different communicator epoch; rebuild after shrink/join"
        );
        let base = self.next_coll_base();
        hier_allreduce(&self.peers(), hier.map(), buf, op, algo, base).map_err(|e| self.map_coll(e))
    }

    /// Fused allreduce: greedily bucket `tensors` under `cap_bytes` and
    /// allreduce each bucket (Horovod's tensor fusion). Each bucket gets
    /// its own collective tag window.
    pub fn fused_allreduce<E: Elem>(
        &self,
        tensors: &mut [Vec<E>],
        op: ReduceOp,
        algo: AllreduceAlgo,
        cap_bytes: usize,
    ) -> Result<(), UlfmError> {
        let base = self.reserve_coll_span(Self::bucket_count::<E>(tensors, cap_bytes));
        fused_allreduce(&self.peers(), tensors, op, algo, cap_bytes, base)
            .map_err(|e| self.map_coll(e))
    }

    /// Two-level analogue of [`Communicator::fused_allreduce`]: every
    /// bucket runs through [`Communicator::hier_allreduce`]'s intra-reduce
    /// → cross-exchange → intra-broadcast pipeline. Same epoch contract as
    /// `hier_allreduce`.
    pub fn hier_fused_allreduce<E: Elem>(
        &self,
        hier: &Hierarchy,
        tensors: &mut [Vec<E>],
        op: ReduceOp,
        algo: AllreduceAlgo,
        cap_bytes: usize,
    ) -> Result<(), UlfmError> {
        assert_eq!(
            (hier.comm_id(), hier.n_ranks()),
            (self.id, self.group.len()),
            "hierarchy was built for a different communicator epoch; rebuild after shrink/join"
        );
        let base = self.reserve_coll_span(Self::bucket_count::<E>(tensors, cap_bytes));
        hier_fused_allreduce(
            &self.peers(),
            hier.map(),
            tensors,
            op,
            algo,
            cap_bytes,
            base,
        )
        .map_err(|e| self.map_coll(e))
    }

    /// How many buckets the fusion plan produces — deterministic in the
    /// tensor sizes, so every member advances its tag sequence identically.
    fn bucket_count<E: Elem>(tensors: &[Vec<E>], cap_bytes: usize) -> u64 {
        let sizes: Vec<usize> = tensors.iter().map(|t| t.len()).collect();
        plan_buckets(&sizes, E::WIDTH, cap_bytes).len() as u64
    }

    pub(crate) fn comm_id(&self) -> u64 {
        self.id
    }

    // ---- recovery -------------------------------------------------------

    /// `MPIX_Comm_agree`: fault-tolerant uniform agreement. Works on a
    /// revoked communicator (that is the point). `flag` contributions are
    /// AND-ed; `min_val` contributions are min-merged; the returned failed
    /// set is the union of failure knowledge (entry-time under
    /// [`AgreeImpl::Flood`]; additionally widened by deaths observed
    /// mid-protocol under [`AgreeImpl::Lattice`]).
    pub fn agree(&self, flag: u64, min_val: u64) -> Result<AgreeResult, UlfmError> {
        self.agree_inner(flag, min_val, false)
    }

    fn agree_inner(&self, flag: u64, min_val: u64, verify: bool) -> Result<AgreeResult, UlfmError> {
        let base = self.next_recovery_base();
        if !verify {
            telemetry::counter("ulfm.agree.ops").incr();
            // Concurrent suspicions within the transport's batching window
            // settle before inputs freeze, so a burst enters the agreement
            // as one set instead of one discovery wave per member.
            self.ep.settle_suspicions();
        }
        let t0 = std::time::Instant::now();
        let out = telemetry::time("ulfm.agree.duration_ns", || match self.agree_impl.get() {
            AgreeImpl::Flood => flood_agree(
                &self.ep,
                &self.group,
                self.my_idx,
                base,
                flag,
                min_val,
                verify,
            ),
            AgreeImpl::Lattice => lattice_agree(
                &self.ep,
                &self.group,
                self.my_idx,
                base,
                flag,
                min_val,
                verify,
            ),
        });
        if !verify {
            telemetry::histogram("ulfm.agree.wall").record_duration(t0.elapsed());
        }
        out
    }

    /// Select the uniform-agreement protocol this communicator (and every
    /// communicator derived from it) runs. Every member must select the
    /// same implementation — the usual SPMD contract; engines set it from
    /// the shared `TrainSpec`.
    pub fn set_agree_impl(&self, imp: AgreeImpl) {
        self.agree_impl.set(imp);
    }

    /// The currently selected agreement implementation.
    pub fn agree_impl(&self) -> AgreeImpl {
        self.agree_impl.get()
    }

    /// `MPIX_Comm_shrink`: agree on the failed set and construct a new,
    /// dense communicator of survivors. With no exclusion policy nobody is
    /// excluded; were this rank to be, it gets [`UlfmError::Excluded`].
    pub fn shrink(&self) -> Result<Communicator, UlfmError> {
        match self.shrink_with(|_| Vec::new())? {
            ShrinkOutcome::Member(c) => Ok(c),
            ShrinkOutcome::Excluded => Err(UlfmError::Excluded),
        }
    }

    /// Shrink with a recovery policy: `exclude` receives the agreed failed
    /// set (cumulative over iterations) and returns *additional* ranks to
    /// evict — deterministically, since every member computes it locally.
    /// The paper's drop-node policy evicts every rank co-located with a
    /// failure; evicted healthy ranks get [`ShrinkOutcome::Excluded`] and
    /// must leave the computation.
    ///
    /// The shrink iterates (agree → build candidate → verify by agreement
    /// on the candidate) until a candidate verifies with no new failures,
    /// mirroring ULFM `MPIX_Comm_shrink`'s internal retry. The iteration
    /// count is bounded by the group size: every extra generation is caused
    /// by at least one *new* failure, and there are only `size()` members
    /// to lose — so a cascade that kills a member during every generation
    /// still terminates. Each generation passes the `shrink.attempt` fault
    /// point, so `FaultPlan` can script exactly such cascades.
    pub fn shrink_with(
        &self,
        exclude: impl Fn(&[RankId]) -> Vec<RankId>,
    ) -> Result<ShrinkOutcome, UlfmError> {
        let call = self.shrink_calls.get();
        self.shrink_calls.set(call + 1);
        telemetry::counter("ulfm.shrink.ops").incr();
        let _span = telemetry::span("ulfm.shrink.duration_ns");

        // Iteration 0: agree on the failed set over *this* communicator.
        let first = self.agree(u64::MAX, u64::MAX)?;
        let mut all_failed: BTreeSet<RankId> = first.failed.into_iter().collect();
        let me = self.ep.rank();
        let mut generation = 0u64;
        let mut parent_group: Vec<RankId> = self.group.clone();

        loop {
            assert!(
                generation <= self.group.len() as u64,
                "shrink generations exceeded group size — a generation \
                 without a new failure must have terminated the loop"
            );
            // Named fault point: a rank can be scripted to die between
            // shrink generations (mid-recovery cascade). The survivors'
            // candidate agreement observes the death and iterates.
            self.ep
                .fault_point("shrink.attempt")
                .map_err(|_| UlfmError::SelfDied)?;
            let excluded: BTreeSet<RankId> =
                exclude(&all_failed.iter().copied().collect::<Vec<_>>())
                    .into_iter()
                    .collect();
            if excluded.contains(&me) {
                return Ok(ShrinkOutcome::Excluded);
            }
            let survivors: Vec<RankId> = parent_group
                .iter()
                .copied()
                .filter(|g| !all_failed.contains(g) && !excluded.contains(g))
                .collect();
            assert!(
                survivors.contains(&me),
                "shrink survivor list must contain the caller"
            );

            let id = self.shared.intern_comm(CommKey::Shrink {
                parent: self.id,
                generation: call << 16 | generation,
                group: survivors.clone(),
            });
            let candidate = self.derive(id, survivors);

            // Verify the candidate: a fault-tolerant agreement doubles as a
            // sync point and uniformly reports any member that was already
            // dead when we built it. Marked as a verify re-entry so its
            // rounds land under `ulfm.shrink.verify_rounds` instead of
            // double-counting the primary agreement's round telemetry.
            let verdict = candidate.agree_inner(u64::MAX, u64::MAX, true)?;
            if verdict.failed.is_empty() {
                // Install the view as a delta against the parent: drop the
                // parent's stale traffic, retire the lost ranks from the
                // join service's pending/spare bookkeeping (a dead parked
                // spare must never be proposed for promotion), and let the
                // interned id above serve as the epoch bump. `Hierarchy`
                // handles are invalidated implicitly — they pin the parent
                // comm id and epoch, so the next hier collective on the new
                // view refuses them until rebuilt.
                self.ep.purge_tags(|t| tags::belongs_to(t, self.id));
                for &g in &all_failed {
                    self.shared.join.forget(g);
                }
                telemetry::counter("ulfm.view.delta_installs").incr();
                telemetry::counter("ulfm.shrink.completions").incr();
                telemetry::counter("ulfm.shrink.iterations").add(generation + 1);
                telemetry::histogram("ulfm.shrink.generations").record(generation + 1);
                return Ok(ShrinkOutcome::Member(candidate));
            }
            all_failed.extend(verdict.failed.iter().copied());
            parent_group = candidate.group.clone();
            generation += 1;
        }
    }

    /// `MPI_Comm_split`: partition the members by `color`; within a color,
    /// new ranks order by `(key, old rank)`. Members passing
    /// [`Communicator::SPLIT_UNDEFINED`] get `Ok(None)`. Collective.
    ///
    /// Every member interns every color's communicator, in color order —
    /// one passing `SPLIT_UNDEFINED` too — so all members' interners stay
    /// in step for the communicators built after this one, and distinct
    /// colors get distinct ids: a revocation names its communicator by id
    /// alone and reaches every rank.
    pub fn split(&self, color: u64, key: u64) -> Result<Option<Communicator>, UlfmError> {
        let call = self.split_calls.get();
        self.split_calls.set(call + 1);
        let mine = u64::encode_slice(&[color, key]);
        let blocks = self.allgather(&mine, AllgatherAlgo::Bruck)?;
        // Every defined entry as (color, key, old group index).
        let mut entries = Vec::with_capacity(blocks.len());
        for (idx, b) in blocks.iter().enumerate() {
            let (their_color, their_key) = decode_split_entry(b).ok_or(UlfmError::Aborted)?;
            if their_color != Self::SPLIT_UNDEFINED {
                entries.push((their_color, their_key, idx));
            }
        }
        entries.sort_unstable();
        let mut split = None;
        for members in entries.chunk_by(|a, b| a.0 == b.0) {
            let group: Vec<RankId> = members.iter().map(|&(.., idx)| self.group[idx]).collect();
            let id = self.shared.intern_comm(CommKey::Split {
                parent: self.id,
                split_seq: call,
                color: members[0].0,
                group: group.clone(),
            });
            if members[0].0 == color {
                split = Some(self.derive(id, group));
            }
        }
        Ok(split)
    }

    /// Color value meaning "I do not join any split communicator"
    /// (`MPI_UNDEFINED`).
    pub const SPLIT_UNDEFINED: u64 = u64::MAX;

    // ---- dynamic membership (replacement / upscale) ---------------------

    /// Accept any workers waiting on the universe's join service and build
    /// the merged communicator. Collective over this communicator; returns
    /// `Ok(None)` if nobody is waiting. Group-local rank 0 acts as leader.
    ///
    /// The admission is all-or-none: the leader *snapshots* (never drains)
    /// the pending set, proposes `(epoch, joiners)` by broadcast, and the
    /// proposal only takes effect if a uniform commit agreement succeeds
    /// with no observed failures (`uniform_commit`, shared with
    /// [`Communicator::commit_recovery_policy`]). On commit, *every* member
    /// issues the (identical) tickets, so a leader dying right after the
    /// decision cannot strand a decided joiner; on a failed commit nothing
    /// changed —
    /// the pending joiners stay pending, the caller runs its normal
    /// revoke → shrink recovery on *this* communicator and retries, and the
    /// shrunk group's new lowest rank takes over as join leader.
    ///
    /// Joiners call [`crate::Proc::join_training`]; the first collective on
    /// the merged communicator synchronizes old and new members.
    pub fn accept_joiners(&self) -> Result<Option<Communicator>, UlfmError> {
        match self.accept_joiners_directed(true)? {
            JoinOutcome::Merged(c) => Ok(Some(c)),
            JoinOutcome::NoneYet | JoinOutcome::StopWaiting => Ok(None),
        }
    }

    /// [`Communicator::accept_joiners`] with an explicit waiting directive,
    /// for engines that poll the join service at an epoch boundary under a
    /// deadline. `give_up` is this member's *local* hint that waiting
    /// should end (expected joiners all announced, or the deadline passed)
    /// — but only the leader's hint matters: it travels inside the
    /// committed proposal, so every member makes the identical
    /// keep-waiting/stop decision no matter how their local clocks
    /// disagree. Pending joiners always win over the hint — a last-moment
    /// arrival is admitted, not abandoned.
    pub fn accept_joiners_directed(&self, give_up: bool) -> Result<JoinOutcome, UlfmError> {
        // Named fault point: scripts can kill the join leader (or any
        // member) mid-handshake, before the proposal is broadcast.
        self.ep
            .fault_point("join.merge")
            .map_err(|_| UlfmError::SelfDied)?;

        // Leader proposes (stop-flag, joiners). Dead joiners are filtered
        // out of the snapshot so the group proceeds without them.
        let proposal = (self.my_idx == 0).then(|| {
            let pending = self.shared.join.snapshot_pending(&|r| self.maybe_alive(r));
            (give_up as u64, pending)
        });
        let (epoch, stop, joiners) = self.uniform_commit(proposal, "ulfm.join.failed_commits")?;
        if joiners.is_empty() {
            return Ok(if stop != 0 {
                JoinOutcome::StopWaiting
            } else {
                JoinOutcome::NoneYet
            });
        }
        Ok(JoinOutcome::Merged(self.admit(
            epoch,
            &joiners,
            "ulfm.join.accepted",
        )))
    }

    /// Liveness filter for a join or spare snapshot. A rank beyond the
    /// leader's table is one whose announcement raced ahead of its first
    /// inbound link (network joiners dial before they announce, but the
    /// accept thread may not have installed the stream yet) — never seen
    /// dying, so it counts as alive; post-commit sends buffer on its
    /// pending link until the stream lands.
    fn maybe_alive(&self, r: RankId) -> bool {
        r.0 >= self.ep.total_ranks() || self.ep.is_peer_alive(r)
    }

    /// The commit round every membership-growing decision goes through:
    /// the leader (group-local rank 0, the only caller passing `Some`)
    /// proposes `(word, ranks)` under a fresh join epoch, a broadcast
    /// delivers the proposal, and a uniform agreement decides whether it
    /// takes effect — on *all* members or on none. Returns the committed
    /// `(epoch, word, ranks)`; a failed commit counts under
    /// `failed_commits` and surfaces the failure that broke it, so the
    /// caller's recovery path (revoke → shrink → retry) takes over.
    fn uniform_commit(
        &self,
        proposal: Option<(u64, Vec<RankId>)>,
        failed_commits: &str,
    ) -> Result<(u64, u64, Vec<RankId>), UlfmError> {
        let mut payload = Vec::new();
        if let Some((word, ranks)) = proposal {
            payload = encode_commit_record(self.shared.next_join_epoch(), word, &ranks);
        }
        // The broadcast tears itself down reliably on failure (poison
        // frames unwind the tree), so no member stays blocked and — just
        // as important — nothing here revokes the communicator: a revoke
        // would yank a straggler still finishing the previous step's
        // collectives into the *training* recovery path while we run the
        // commit agreement, desynchronizing the per-communicator
        // agreement streams.
        let delivered = self.bcast(0, &mut payload);
        if matches!(delivered, Err(UlfmError::SelfDied)) {
            return Err(UlfmError::SelfDied);
        }

        // Uniform commit: every member contributes whether it holds the
        // proposal; any bcast failure or member death aborts the round on
        // *all* members alike (no rank may act on a half-delivered
        // proposal while its peers retry).
        let verdict = self.agree(delivered.is_ok() as u64, u64::MAX)?;
        if verdict.flags != 1 || !verdict.failed.is_empty() {
            telemetry::counter(failed_commits).incr();
            // Surface the member the round lost: the agreed one, else one
            // this rank sees dead.
            let mut members = self.group.iter().copied();
            let dead = verdict.failed.first().copied();
            if let Some(global) = dead.or_else(|| members.find(|&g| !self.ep.is_peer_alive(g))) {
                let peer = self.group.iter().position(|&g| g == global);
                let peer = peer.unwrap_or(usize::MAX);
                return Err(UlfmError::ProcFailed { peer, global });
            }
            self.revoke();
            return Err(UlfmError::Revoked);
        }

        decode_commit_record(&payload).ok_or(UlfmError::Aborted)
    }

    /// Act on a committed admission of `newcomers` (joiners or promoted
    /// spares) under join epoch `epoch`: build the merged communicator and
    /// ticket them, counting them under `admitted`. Every member runs this
    /// identically.
    fn admit(&self, epoch: u64, newcomers: &[RankId], admitted: &str) -> Communicator {
        let mut merged = self.group.clone();
        merged.extend_from_slice(newcomers);
        // Register every newcomer with the local transport *before* anyone
        // can address it: the first collective on the merged communicator
        // must find a known (if still-connecting) rank, never UnknownRank.
        for &j in newcomers {
            self.ep.expect_rank(j);
        }
        // Intern the merged communicator's id first so the ticket can carry
        // it: a joiner process's own interner starts at zero and must adopt
        // the members' id sequence (see JoinTicket::comm_id).
        let id = self.shared.intern_comm(CommKey::Join {
            epoch,
            group: merged.clone(),
        });
        let ticket = JoinTicket {
            group: merged.clone(),
            epoch,
            comm_id: id,
        };
        // Committed: every member confirms the identical tickets
        // (idempotent), so no single death after the decision can leave a
        // newcomer waiting forever.
        self.shared.join.confirm_tickets(newcomers, &ticket);
        telemetry::counter(admitted).add(newcomers.len() as u64);
        self.derive(id, merged)
    }

    /// Commit a recovery-policy decision uniformly across the (already
    /// shrunk) group. Collective; group-local rank 0 is the policy leader
    /// and `hint` is *its* scored choice — every other member's hint is
    /// ignored, because the decision travels inside the committed proposal
    /// (the same `uniform_commit` round as the join handshake, and the same
    /// idempotent ticketing on a committed promotion), so SPMD control flow
    /// cannot diverge on locally-scored inputs.
    ///
    /// For [`RecoveryArm::PromoteSpares`] the leader snapshots up to `want`
    /// live warm spares from the join service; if the pool turns out empty
    /// the committed decision *is* the downgrade to shrink (counted under
    /// `ulfm.policy.spare_unavailable`), never a wedge. On a committed
    /// promotion every member expects and tickets the spares like joiners
    /// and the merged communicator is returned.
    ///
    /// Any failure during the round (proposal broadcast, commit agreement)
    /// surfaces as the usual recoverable errors — the caller re-enters its
    /// revoke → agree → shrink recovery and retries or falls back
    /// (`ulfm.policy.failed_commits`).
    pub fn commit_recovery_policy(
        &self,
        hint: RecoveryArm,
        want: usize,
    ) -> Result<PolicyCommit, UlfmError> {
        // Named fault point: scripts can kill the policy leader (or any
        // member) mid-round, before the decision is committed.
        self.ep
            .fault_point("policy.round")
            .map_err(|_| UlfmError::SelfDied)?;

        let proposal = (self.my_idx == 0).then(|| match hint {
            RecoveryArm::PromoteSpares => {
                let mut pool = self.shared.join.snapshot_spares(&|r| self.maybe_alive(r));
                pool.truncate(want.max(1));
                if pool.is_empty() {
                    // The pool is cold (never filled, drained, or every
                    // spare died): commit the downgrade so all members
                    // fall to shrink together.
                    telemetry::counter("ulfm.policy.spare_unavailable").incr();
                    (RecoveryArm::Shrink.to_wire(), pool)
                } else {
                    (RecoveryArm::PromoteSpares.to_wire(), pool)
                }
            }
            arm => (arm.to_wire(), Vec::new()),
        });
        let (epoch, arm, spares) = self.uniform_commit(proposal, "ulfm.policy.failed_commits")?;
        Ok(match RecoveryArm::from_wire(arm) {
            RecoveryArm::Shrink => PolicyCommit::Shrink,
            RecoveryArm::Rollback => PolicyCommit::Rollback,
            RecoveryArm::PromoteSpares => {
                PolicyCommit::Promoted(self.admit(epoch, &spares, "ulfm.policy.promoted"))
            }
        })
    }
}

/// One member's `(color, key)` block of a [`Communicator::split`]
/// allgather. Bytes a peer chose: anything but two words is `None`.
fn decode_split_entry(bytes: &[u8]) -> Option<(u64, u64)> {
    match u64::decode_checked(bytes)?[..] {
        [color, key] => Some((color, key)),
        _ => None,
    }
}

/// The leader's `(epoch, word, ranks)` proposal of a
/// [`Communicator::uniform_commit`] round, as LE u64 words
/// `[epoch, word, n, ranks…]` — also the layout of a join ticket.
pub(crate) fn encode_commit_record(epoch: u64, word: u64, ranks: &[RankId]) -> Vec<u8> {
    let mut words = vec![epoch, word, ranks.len() as u64];
    words.extend(ranks.iter().map(|r| r.0 as u64));
    u64::encode_slice(&words)
}

/// Decode an [`encode_commit_record`] record. Bytes a peer chose: the
/// rank count it declares must be exactly the ranks that follow, else
/// `None`.
pub(crate) fn decode_commit_record(bytes: &[u8]) -> Option<(u64, u64, Vec<RankId>)> {
    let words = u64::decode_checked(bytes)?;
    let [epoch, word, count, ranks @ ..] = &words[..] else {
        return None;
    };
    (*count == ranks.len() as u64).then(|| {
        (
            *epoch,
            *word,
            ranks.iter().map(|&w| RankId(w as usize)).collect(),
        )
    })
}

/// Result of one [`Communicator::accept_joiners_directed`] round.
pub enum JoinOutcome {
    /// Joiners were committed; train on the merged communicator from now on.
    Merged(Communicator),
    /// Nobody was pending and the committed directive says keep waiting.
    NoneYet,
    /// Nobody was pending and the committed directive says stop waiting:
    /// proceed (possibly shrunk) rather than stall at this epoch boundary.
    StopWaiting,
}

/// The recovery arms a policy engine can choose between after a failure.
/// Wire-encoded inside the committed policy proposal so every member acts
/// on the *leader's* choice, never its own locally-scored one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryArm {
    /// Continue forward on the shrunk group, redoing the interrupted step
    /// from retained inputs (the paper's forward-shrink engine).
    Shrink,
    /// Promote warm spares from the standby pool into the group, absorbing
    /// the failure with no shrink.
    PromoteSpares,
    /// Roll every survivor back to the last checkpoint and recompute.
    Rollback,
}

impl RecoveryArm {
    pub(crate) fn to_wire(self) -> u64 {
        match self {
            RecoveryArm::Shrink => 0,
            RecoveryArm::PromoteSpares => 1,
            RecoveryArm::Rollback => 2,
        }
    }

    pub(crate) fn from_wire(w: u64) -> Self {
        match w {
            1 => RecoveryArm::PromoteSpares,
            2 => RecoveryArm::Rollback,
            // Unknown encodings degrade to the always-available arm.
            _ => RecoveryArm::Shrink,
        }
    }

    /// Stable lowercase name, used in telemetry counters and breakdowns.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryArm::Shrink => "shrink",
            RecoveryArm::PromoteSpares => "spare",
            RecoveryArm::Rollback => "rollback",
        }
    }
}

/// Result of one [`Communicator::commit_recovery_policy`] round: the
/// uniformly-committed decision every member must now act on.
pub enum PolicyCommit {
    /// Proceed with forward-shrink on the current (shrunk) communicator.
    Shrink,
    /// Roll back to the last checkpoint on the current communicator.
    Rollback,
    /// Spares were committed in: train on the merged communicator.
    Promoted(Communicator),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::malformed_variants;
    use crate::universe::Universe;
    use transport::Topology;

    #[test]
    fn a_refused_message_aborts_rather_than_shrinks() {
        // A refused payload or segment comes from a live peer, which no
        // shrink removes: the member leaves instead of redoing forever.
        let u = Universe::without_faults(Topology::flat());
        let run = |proc: crate::Proc| {
            let comm = proc.init_comm();
            comm.map_coll(CollError::Malformed { peer: 0 })
        };
        let h = u.spawn_batch(1, run).unwrap().pop().unwrap();
        assert_eq!(h.join(), UlfmError::Aborted);
    }

    #[test]
    fn sequence_numbers_wrap_instead_of_running_out() {
        // Eight collectives and eight agreements short of the ceiling, then
        // sixteen of each: both sequence spaces wrap mid-run.
        let u = Universe::without_faults(Topology::flat());
        let run = |proc: crate::Proc| {
            let comm = proc.init_comm();
            comm.seq.set(tags::SEQ_SPACE - 8);
            comm.rec_seq.set(tags::SEQ_SPACE - 8);
            for i in 0..16 {
                let mut buf = vec![(comm.rank() + i) as f32; 5];
                comm.allreduce(&mut buf, ReduceOp::Sum, AllreduceAlgo::Ring)
                    .unwrap();
                assert_eq!(buf, vec![(3 + 3 * i) as f32; 5], "allreduce {i}");
                let agreed = comm.agree(1, (comm.rank() + i) as u64).unwrap();
                assert_eq!((agreed.flags, agreed.min), (1, i as u64), "agree {i}");
            }
            // Four one-tensor buckets one window short of the ceiling: the
            // span would straddle the wrap, so it starts at it.
            comm.seq.set(tags::SEQ_SPACE - 1);
            let mut tensors = vec![vec![1.0f32; 64]; 4];
            comm.fused_allreduce(&mut tensors, ReduceOp::Sum, AllreduceAlgo::Ring, 256)
                .unwrap();
            assert!(tensors.iter().flatten().all(|&x| x == 3.0));
            comm.seq.get()
        };
        for h in u.spawn_batch(3, run).unwrap() {
            assert_eq!(h.join(), tags::SEQ_SPACE + 4);
        }
    }

    #[test]
    fn split_and_commit_decoders_refuse_what_a_peer_must_not_send() {
        let entry = u64::encode_slice(&[3, 9]);
        assert_eq!(decode_split_entry(&entry), Some((3, 9)));
        for bad in malformed_variants(&entry) {
            assert_eq!(decode_split_entry(&bad), None, "{bad:?}");
        }

        let record = u64::encode_slice(&[5, 1, 2, 10, 11]);
        let ranks = vec![RankId(10), RankId(11)];
        assert_eq!(decode_commit_record(&record), Some((5, 1, ranks)));
        for bad in malformed_variants(&record) {
            assert_eq!(decode_commit_record(&bad), None, "{bad:?}");
        }
        // A declared count the bytes cannot hold, up to one that would wrap
        // the old `3 + count` index.
        for count in [0, 1, 3, u64::MAX - 2, u64::MAX] {
            let lying = u64::encode_slice(&[5, 1, count, 10, 11]);
            assert_eq!(decode_commit_record(&lying), None, "count {count}");
        }
        assert_eq!(
            decode_commit_record(&u64::encode_slice(&[5, 1, 0])),
            Some((5, 1, vec![]))
        );
    }
}

//! The [`Universe`]: rank threads, communicator-id interning, revocation
//! board, and the join service for dynamic process spawn.
//!
//! The universe plays the role of the MPI runtime environment (PRRTE on a
//! real machine): it launches workers, assigns permanent rank ids, lets an
//! external driver inject failures, and provides the out-of-band channel
//! through which *new* workers join a running computation (the paper's
//! replacement and upscaling scenarios).

use crate::comm::Communicator;
use crate::error::UlfmError;
use crate::netjoin::NetJoin;
use gloo::KvStore;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::{Counter, Histogram, Lazy};
use transport::{Endpoint, Fabric, FaultInjector, FaultPlan, NodeId, RankId, Topology};

/// Construction key for a communicator; every member derives the identical
/// key, so interning yields the identical id without communication.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) enum CommKey {
    /// Initial communicator of spawn batch `batch` over `group`.
    Init { batch: u64, group: Vec<RankId> },
    /// Shrink iteration `generation` of parent `parent` onto `group`.
    Shrink {
        parent: u64,
        generation: u64,
        group: Vec<RankId>,
    },
    /// Join epoch `epoch` merging into `group`.
    Join { epoch: u64, group: Vec<RankId> },
    /// Split number `split_seq` of `parent` with `color` onto `group`.
    Split {
        parent: u64,
        split_seq: u64,
        color: u64,
        group: Vec<RankId>,
    },
}

/// Information a joining worker needs to construct the merged communicator.
/// Issued out-of-band by the accepting leader through the join service —
/// modelling the rendezvous/PMIx channel real elastic runtimes use.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinTicket {
    /// Merged group (existing members first, joiners appended in rank order).
    pub group: Vec<RankId>,
    /// Join epoch (used to derive the merged communicator's identity).
    pub epoch: u64,
    /// The communicator id the accepting members interned for the merged
    /// group. A joiner *process* runs its own comm-id interner starting
    /// from zero, while members have been interning ids since launch;
    /// adopting the members' id (and bumping the interner past it) keeps
    /// the SPMD id sequence aligned from the merge onward.
    pub comm_id: u64,
}

/// How this universe's process relates to the job: either it *is* the job
/// (threads-as-ranks over one shared fabric), or it is a single rank of a
/// multi-process job reached through a distributed backend.
pub(crate) enum Runtime {
    /// The classic mode: every rank is a thread over one [`Fabric`].
    InProc(Arc<Fabric>),
    /// This process hosts exactly one rank; the universe state (revocation
    /// board, comm-id interner, join service) is process-local, and
    /// revocations propagate to peer processes as control-plane signals
    /// through the endpoint's backend.
    Peer(Endpoint),
}

/// Signal-payload discriminant for a communicator revocation broadcast.
const SIGNAL_REVOKE: u8 = 1;

pub(crate) struct Shared {
    pub(crate) runtime: Runtime,
    /// One revocation flag per communicator id, shared by every local
    /// handle on that communicator (and by the signal handler): only a
    /// revocation writes it, so checking it costs a message nothing shared.
    revoked: Mutex<HashMap<u64, Arc<AtomicBool>>>,
    comm_ids: Mutex<HashMap<CommKey, u64>>,
    next_comm_id: AtomicU64,
    pub(crate) join: Arc<NetJoin>,
    next_batch: AtomicU64,
    join_epoch: AtomicU64,
}

impl Shared {
    /// The in-process fabric. In peer (multi-process) mode no shared fabric
    /// exists, so this returns [`UlfmError::NoSharedFabric`] — callers
    /// surface the typed error (and a worker can exit cleanly) instead of
    /// crashing the process on a misconfigured launch.
    pub(crate) fn fabric(&self) -> Result<&Arc<Fabric>, UlfmError> {
        match &self.runtime {
            Runtime::InProc(f) => Ok(f),
            Runtime::Peer(_) => Err(UlfmError::NoSharedFabric),
        }
    }

    fn wake_all(&self) {
        match &self.runtime {
            Runtime::InProc(f) => f.wake_all(),
            Runtime::Peer(ep) => ep.wake_all(),
        }
    }

    /// All members calling with the same key receive the same dense id.
    ///
    /// In peer mode every *process* runs its own interner, and the ids
    /// still agree: communicator construction keys are derived from
    /// SPMD-agreed protocol state (spawn batches, shrink agreements,
    /// splits), so every surviving member interns the same sequence of
    /// distinct keys in the same order.
    pub(crate) fn intern_comm(&self, key: CommKey) -> u64 {
        let mut ids = self.comm_ids.lock();
        let next = &self.next_comm_id;
        *ids.entry(key)
            .or_insert_with(|| next.fetch_add(1, Ordering::SeqCst))
    }

    /// Adopt a communicator id decided by *other* processes (the accepting
    /// members of a join, whose interner has been running since launch) and
    /// advance the local interner past it, so ids this process interns
    /// afterwards continue the same SPMD sequence as everyone else's.
    pub(crate) fn adopt_comm_id(&self, key: CommKey, id: u64) {
        let mut ids = self.comm_ids.lock();
        let prev = ids.insert(key, id);
        debug_assert!(prev.is_none_or(|p| p == id), "comm-id adoption conflict");
        self.next_comm_id.fetch_max(id + 1, Ordering::SeqCst);
    }

    /// The revocation flag of `comm_id`, created at its first mention — by
    /// a member constructing the communicator or by a revocation that
    /// outran it.
    pub(crate) fn revocation_flag(&self, comm_id: u64) -> Arc<AtomicBool> {
        Arc::clone(self.revoked.lock().entry(comm_id).or_default())
    }

    pub(crate) fn revoke(&self, comm_id: u64) {
        let newly = !self.revocation_flag(comm_id).swap(true, Ordering::SeqCst);
        if newly {
            // Propagate first, then interrupt every local pending receive
            // so members observe the revocation promptly (the
            // reliable-broadcast part of MPIX_Comm_revoke). In-process the
            // revocation board itself is shared; across processes the
            // signal broadcast carries it, and every receiver forwards it
            // once (`handle_signal`), so a revoker that dies mid-broadcast
            // still reaches everyone some live peer reached.
            if let Runtime::Peer(ep) = &self.runtime {
                let mut payload = [0u8; 9];
                payload[0] = SIGNAL_REVOKE;
                payload[1..].copy_from_slice(&comm_id.to_le_bytes());
                ep.broadcast_signal(&payload);
            }
            self.wake_all();
        }
    }

    /// Handle a control-plane signal from a peer process (installed as the
    /// backend's signal handler in peer mode). Runs on a backend service
    /// thread: record, forward and wake, nothing blocking. A revocation is
    /// forwarded the first time it is seen: its originator may have died
    /// with its own broadcast still queued.
    pub(crate) fn handle_signal(&self, payload: &[u8]) {
        if payload.len() == 9 && payload[0] == SIGNAL_REVOKE {
            let mut raw = [0u8; 8];
            raw.copy_from_slice(&payload[1..]);
            self.revoke(u64::from_le_bytes(raw));
        }
    }

    pub(crate) fn next_join_epoch(&self) -> u64 {
        self.join_epoch.fetch_add(1, Ordering::SeqCst)
    }
}

/// Handle to a spawned worker thread.
pub struct WorkerHandle<R> {
    /// The worker's permanent global rank.
    pub rank: RankId,
    thread: JoinHandle<R>,
}

impl<R> WorkerHandle<R> {
    /// Wait for the worker to finish and take its result.
    ///
    /// # Panics
    /// Panics if the worker thread itself panicked (a bug, not a simulated
    /// failure — simulated failures return normally through error values).
    pub fn join(self) -> R {
        self.thread
            .join()
            .expect("worker thread panicked (bug, not a simulated failure)")
    }

    /// Is the worker still running?
    pub fn is_finished(&self) -> bool {
        self.thread.is_finished()
    }
}

/// Per-rank context handed to a worker function.
pub struct Proc {
    pub(crate) ep: Endpoint,
    pub(crate) shared: Arc<Shared>,
    initial_group: Vec<RankId>,
    batch: u64,
}

impl Proc {
    /// This worker's permanent global rank.
    pub fn rank(&self) -> RankId {
        self.ep.rank()
    }

    /// The node hosting this worker.
    pub fn node(&self) -> NodeId {
        self.ep.node_of(self.ep.rank())
    }

    /// The transport endpoint (for custom protocols and fault points).
    pub fn endpoint(&self) -> &Endpoint {
        &self.ep
    }

    /// The communicator spanning this worker's spawn batch (the
    /// `MPI_COMM_WORLD` of its launch).
    pub fn init_comm(&self) -> Communicator {
        let id = self.shared.intern_comm(CommKey::Init {
            batch: self.batch,
            group: self.initial_group.clone(),
        });
        Communicator::construct(
            Arc::clone(&self.shared),
            self.ep.clone(),
            id,
            self.initial_group.clone(),
        )
    }

    /// Join a running computation: announce to the join service, block for
    /// the merged-group ticket, and construct the merged communicator.
    /// Pairs with [`Communicator::accept_joiners`] on the existing members.
    ///
    /// Fails with [`UlfmError::SelfDied`] if the fault plan kills this rank
    /// at the `join.ticket` point (or while waiting), and with
    /// [`UlfmError::Aborted`] if the computation shuts down before the join
    /// commits — the joiner must exit instead of waiting forever. A join
    /// store that stays down for a whole retry budget, while announcing or
    /// while waiting, ends it with [`UlfmError::JoinTimeout`].
    pub fn join_training(&self) -> Result<Communicator, UlfmError> {
        self.join_training_deadline(None)
    }

    /// [`Proc::join_training`] with an upper bound on the ticket wait:
    /// after `wait`, gives up with [`UlfmError::JoinTimeout`] — the
    /// accepting group may have completed, degraded to running shrunk, or
    /// partitioned away, and an orphaned joiner must exit rather than hang.
    pub fn join_training_deadline(
        &self,
        wait: Option<Duration>,
    ) -> Result<Communicator, UlfmError> {
        self.join_training_inner(wait, false)
    }

    /// Join the *warm spare pool*: announce as a standby and block until a
    /// failure promotes this worker (the members commit a promotion ticket,
    /// exactly a join ticket), the pool is dismissed ([`UlfmError::Aborted`]
    /// — the run completed without needing this spare), or `wait` expires
    /// ([`UlfmError::JoinTimeout`]). A promoted spare bootstraps like any
    /// joiner: state sync first, then the training loop.
    pub fn join_training_as_spare(
        &self,
        wait: Option<Duration>,
    ) -> Result<Communicator, UlfmError> {
        self.join_training_inner(wait, true)
    }

    fn join_training_inner(
        &self,
        wait: Option<Duration>,
        spare: bool,
    ) -> Result<Communicator, UlfmError> {
        if spare {
            telemetry::counter("ulfm.universe.spare_joins").incr();
            self.shared.join.announce_spare(self.rank())?;
        } else {
            telemetry::counter("ulfm.universe.joins").incr();
            self.shared.join.announce(self.rank())?;
        }
        // Named fault point: a joiner can be scripted to die after it has
        // announced but before it consumes its ticket — the admission
        // protocol must not strand the rest of the group on it.
        if self.ep.fault_point("join.ticket").is_err() {
            return Err(UlfmError::SelfDied);
        }
        let deadline = wait.map(|w| Instant::now() + w);
        let ticket = telemetry::time("ulfm.universe.join_wait_ns", || {
            self.shared
                .join
                .wait_ticket(self.rank(), &|| self.ep.is_self_alive(), deadline)
        })?;
        // The merge may have committed before this process ever linked to
        // some group members (it only pre-dials the addresses it saw
        // published before announcing). Close the residual gaps: dial every
        // lower-id member we have a contact for, and register the rest so
        // sends on the merged communicator retry against a live (buffering)
        // link instead of failing with UnknownRank. In-process both calls
        // are no-ops.
        for &g in &ticket.group {
            if g == self.rank() {
                continue;
            }
            if g.0 < self.rank().0 {
                if let Some(addr) = self.shared.join.contact(g) {
                    self.ep.connect_peer(g, &addr);
                }
            }
            self.ep.expect_rank(g);
        }
        // Named fault point on the joiner's side of the merge: it holds a
        // committed ticket but dies before the merged communicator does any
        // work — members must detect the EOF and shrink the merge back out.
        if self.ep.fault_point("join.merge").is_err() {
            return Err(UlfmError::SelfDied);
        }
        Ok(Communicator::from_join_ticket(
            Arc::clone(&self.shared),
            self.ep.clone(),
            &ticket,
        ))
    }

    /// Abort the join service: wakes every joiner still waiting for a
    /// ticket so they exit with [`UlfmError::Aborted`] instead of hanging.
    /// Called when the computation shuts down below its minimum world size.
    pub fn abort_joins(&self) {
        self.shared.join.abort();
    }

    /// Voluntarily leave the computation (drop-node policy evictions).
    pub fn retire(&self) {
        self.ep.retire();
    }

    /// Total joiner announcements ever made on this universe (monotone).
    /// Lets training loops wait deterministically for expected joiners
    /// before calling [`Communicator::accept_joiners`]. `None` when the join
    /// store is lost: no count will come, so a wait on one should stop.
    pub fn announced_joiners(&self) -> Option<u64> {
        self.shared.join.announced_total()
    }

    /// Total spare-pool announcements ever made on this universe (monotone).
    /// Members wait on this before training so the warm pool is actually
    /// warm when the first failure hits. `None` when the join store is lost.
    pub fn announced_spares(&self) -> Option<u64> {
        self.shared.join.spare_total()
    }

    /// Spares currently waiting in the pool (announced, not yet promoted
    /// or dismissed). This is the policy engine's "can promotion absorb
    /// this failure" signal; the commit round re-checks liveness, so a
    /// slightly stale count here only costs a fallback, never correctness.
    pub fn waiting_spares(&self) -> usize {
        self.shared.join.snapshot_spares(&|_| true).len()
    }

    /// Dismiss every spare still waiting in the pool (the run completed
    /// without needing them): each wakes from its ticket wait with
    /// [`UlfmError::Aborted`] and exits cleanly. Idempotent.
    pub fn dismiss_spares(&self) {
        for r in self.shared.join.snapshot_spares(&|_| true) {
            self.shared.join.dismiss_spare(r);
        }
    }
}

/// The join service of a universe nobody else joins through: a
/// [`NetJoin`] over a fresh in-memory store only this universe can reach.
fn private_join() -> Arc<NetJoin> {
    Arc::new(NetJoin::new(KvStore::new(), ""))
}

/// The runtime: owns the fabric and spawns worker threads.
pub struct Universe {
    shared: Arc<Shared>,
}

impl Universe {
    /// Create a universe over `topology` with a scripted fault plan.
    pub fn new(topology: Topology, plan: FaultPlan) -> Self {
        Self {
            shared: Arc::new(Shared {
                runtime: Runtime::InProc(Fabric::new(topology, FaultInjector::new(plan))),
                revoked: Mutex::new(HashMap::new()),
                comm_ids: Mutex::new(HashMap::new()),
                next_comm_id: AtomicU64::new(0),
                join: private_join(),
                next_batch: AtomicU64::new(0),
                join_epoch: AtomicU64::new(0),
            }),
        }
    }

    /// A fault-free universe.
    pub fn without_faults(topology: Topology) -> Self {
        Self::new(topology, FaultPlan::none())
    }

    /// Build a universe view for one rank of a *multi-process* job over an
    /// already-established distributed backend (e.g.
    /// `transport::SocketBackend`), returning it together with this rank's
    /// [`Proc`]. `group` is the job's initial world, identical on every
    /// process.
    ///
    /// The universe state is process-local: communicator ids come out of a
    /// per-process interner (deterministic across processes, see
    /// [`Shared::intern_comm`]) and revocations are relayed to peers as
    /// backend signals. The join service is a [`NetJoin`] over a private
    /// in-memory store, which no other process can reach — dynamic joins
    /// in multi-process mode need a shared store; see
    /// [`Universe::for_backend_with_join`].
    /// `spawn_*`, `kill_*`, and [`Universe::fabric`] return
    /// [`UlfmError::NoSharedFabric`], because there is no shared fabric to
    /// operate on; real process management belongs to the launcher.
    pub fn for_backend(ep: Endpoint, group: Vec<RankId>) -> (Self, Proc) {
        Self::for_backend_with_join(ep, group, private_join())
    }

    /// [`Universe::for_backend`] with an explicit join service — pass a
    /// [`NetJoin`] over a shared store (every process holding a handle onto
    /// the same KV namespace) to enable Replace/Upscale joins across real
    /// process boundaries.
    pub fn for_backend_with_join(
        ep: Endpoint,
        group: Vec<RankId>,
        join: Arc<NetJoin>,
    ) -> (Self, Proc) {
        assert!(
            group.contains(&ep.rank()),
            "rank {} not part of the initial group {group:?}",
            ep.rank()
        );
        let shared = Arc::new(Shared {
            runtime: Runtime::Peer(ep.clone()),
            revoked: Mutex::new(HashMap::new()),
            comm_ids: Mutex::new(HashMap::new()),
            next_comm_id: AtomicU64::new(0),
            join,
            next_batch: AtomicU64::new(1),
            join_epoch: AtomicU64::new(0),
        });
        // The handler holds a Weak: the backend must not keep the Shared
        // (which holds the endpoint, which holds the backend) alive forever.
        let weak = Arc::downgrade(&shared);
        ep.set_signal_handler(Box::new(move |payload| {
            if let Some(shared) = weak.upgrade() {
                shared.handle_signal(payload);
            }
        }));
        let proc = Proc {
            ep,
            shared: Arc::clone(&shared),
            initial_group: group,
            batch: 0,
        };
        (Self { shared }, proc)
    }

    /// Build the universe view for a *joining* process of a multi-process
    /// job: it is not part of any initial group (its `init_comm` spans just
    /// itself) and is expected to call [`Proc::join_training`] — announcing
    /// through the shared `join` service — to merge into the running
    /// computation.
    pub fn joiner_for_backend(ep: Endpoint, join: Arc<NetJoin>) -> (Self, Proc) {
        let rank = ep.rank();
        Self::for_backend_with_join(ep, vec![rank], join)
    }

    /// Install a message-perturbation plan on the underlying transport
    /// (adversarial links healed by the retransmission layer).
    pub fn set_perturbation(&self, plan: transport::PerturbPlan) {
        match &self.shared.runtime {
            Runtime::InProc(f) => f.set_perturbation(plan),
            Runtime::Peer(ep) => ep.set_perturbation(plan),
        }
    }

    /// Configure timeout-based failure suspicion: a collective that stalls
    /// on a silent peer past `timeout` treats that peer as failed
    /// (`ProcFailed`), feeding the revoke → agree → shrink recovery path.
    pub fn set_suspicion_timeout(&self, timeout: std::time::Duration) {
        match &self.shared.runtime {
            Runtime::InProc(f) => f.set_suspicion_timeout(Some(timeout)),
            Runtime::Peer(ep) => ep.set_suspicion_timeout(Some(timeout)),
        }
    }

    /// Configure the suspicion batching window: once a failure is
    /// suspected, recovery waits until no further suspicion has landed
    /// within `window` before agreeing on the failed set, so a node-level
    /// burst is reported as **one** set and resolved by one view change.
    pub fn set_suspicion_batch_window(&self, window: std::time::Duration) {
        match &self.shared.runtime {
            Runtime::InProc(f) => f.set_suspicion_batch_window(Some(window)),
            Runtime::Peer(ep) => ep.set_suspicion_batch_window(Some(window)),
        }
    }

    /// Spawn `n` workers as one batch; each runs `f` and sees the whole
    /// batch as its [`Proc::init_comm`] group.
    ///
    /// In-process mode only: a multi-process ([`Universe::for_backend`])
    /// universe has no shared fabric to spawn threads onto, and returns
    /// [`UlfmError::NoSharedFabric`] — real process management belongs to
    /// the launcher.
    pub fn spawn_batch<R, F>(&self, n: usize, f: F) -> Result<Vec<WorkerHandle<R>>, UlfmError>
    where
        R: Send + 'static,
        F: Fn(Proc) -> R + Send + Sync + Clone + 'static,
    {
        static SPAWNED_WORKERS: Lazy<Counter> = Lazy::counter("ulfm.universe.spawned_workers");
        static SPAWN_BATCH_NS: Lazy<Histogram> = Lazy::histogram("ulfm.universe.spawn_batch_ns");
        SPAWNED_WORKERS.add(n as u64);
        let start = Instant::now();
        let handles = self
            .shared
            .fabric()
            .map(|fabric| self.spawn_ranks(fabric.register_ranks(n), f));
        SPAWN_BATCH_NS.record_duration(start.elapsed());
        handles
    }

    /// One worker thread per freshly registered rank of an in-process
    /// universe.
    fn spawn_ranks<R, F>(&self, ranks: Vec<RankId>, f: F) -> Vec<WorkerHandle<R>>
    where
        R: Send + 'static,
        F: Fn(Proc) -> R + Send + Sync + Clone + 'static,
    {
        let batch = self.shared.next_batch.fetch_add(1, Ordering::SeqCst);
        ranks
            .iter()
            .map(|&rank| {
                let shared = Arc::clone(&self.shared);
                let group = ranks.clone();
                let f = f.clone();
                let thread = std::thread::Builder::new()
                    .name(format!("rank-{}", rank.0))
                    .spawn(move || {
                        // Checked by the outer `fabric()?` before any thread
                        // was spawned; the runtime mode never changes.
                        let fabric =
                            Arc::clone(shared.fabric().expect("spawn_batch verified in-proc"));
                        let proc = Proc {
                            ep: Endpoint::new(Arc::clone(&fabric), rank),
                            shared,
                            initial_group: group,
                            batch,
                        };
                        let out = f(proc);
                        // Model MPI process termination: once the worker
                        // function returns, the rank is gone; peers blocked
                        // on it observe the failure instead of hanging.
                        fabric.kill_rank(rank);
                        out
                    })
                    .expect("failed to spawn worker thread");
                WorkerHandle { rank, thread }
            })
            .collect()
    }

    /// Spawn `k` *joining* workers (replacement or upscale); they should
    /// call [`Proc::join_training`] to merge into the running computation.
    /// In-process mode only, like [`Universe::spawn_batch`].
    pub fn spawn_joiners<R, F>(&self, k: usize, f: F) -> Result<Vec<WorkerHandle<R>>, UlfmError>
    where
        R: Send + 'static,
        F: Fn(Proc) -> R + Send + Sync + Clone + 'static,
    {
        self.spawn_batch(k, f)
    }

    /// Kill a rank from the outside (hardware failure). In-process mode
    /// only ([`UlfmError::NoSharedFabric`] otherwise): a multi-process
    /// job's ranks die by actual process death.
    pub fn kill_rank(&self, rank: RankId) -> Result<(), UlfmError> {
        self.shared.fabric()?.kill_rank(rank);
        Ok(())
    }

    /// Kill every rank on a node. In-process mode only
    /// ([`UlfmError::NoSharedFabric`] otherwise).
    pub fn kill_node(&self, node: NodeId) -> Result<(), UlfmError> {
        self.shared.fabric()?.kill_node(node);
        Ok(())
    }

    /// The underlying fabric (stats, alive table). In-process mode only;
    /// [`UlfmError::NoSharedFabric`] for a [`Universe::for_backend`]
    /// universe.
    pub fn fabric(&self) -> Result<&Arc<Fabric>, UlfmError> {
        self.shared.fabric()
    }

    /// Workers currently waiting on the join service.
    pub fn pending_joiners(&self) -> usize {
        self.shared.join.pending_count()
    }

    /// Abort the join service from the outside (driver-initiated shutdown):
    /// wakes every joiner still waiting for a ticket so they exit with
    /// [`UlfmError::Aborted`] instead of hanging.
    pub fn abort_joins(&self) {
        self.shared.join.abort();
    }

    #[allow(dead_code)] // exercised by unit tests
    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_batch_assigns_dense_ranks() {
        let u = Universe::without_faults(Topology::flat());
        let handles = u.spawn_batch(4, |p| p.rank().0).unwrap();
        let got: Vec<usize> = handles.into_iter().map(|h| h.join()).collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn init_comm_ids_are_shared_within_batch() {
        let u = Universe::without_faults(Topology::flat());
        let handles = u.spawn_batch(3, |p| p.init_comm().id()).unwrap();
        let ids: Vec<u64> = handles.into_iter().map(|h| h.join()).collect();
        assert!(ids.iter().all(|&i| i == ids[0]));
    }

    #[test]
    fn separate_batches_get_separate_comm_ids() {
        let u = Universe::without_faults(Topology::flat());
        let a = u.spawn_batch(2, |p| p.init_comm().id()).unwrap();
        let ids_a: Vec<u64> = a.into_iter().map(|h| h.join()).collect();
        let b = u.spawn_batch(2, |p| p.init_comm().id()).unwrap();
        let ids_b: Vec<u64> = b.into_iter().map(|h| h.join()).collect();
        assert_ne!(ids_a[0], ids_b[0]);
    }

    #[test]
    fn intern_is_idempotent() {
        let u = Universe::without_faults(Topology::flat());
        let key = CommKey::Init {
            batch: 9,
            group: vec![RankId(0), RankId(1)],
        };
        let a = u.shared().intern_comm(key.clone());
        let b = u.shared().intern_comm(key);
        assert_eq!(a, b);
    }

    #[test]
    fn join_server_handshake() {
        // The universe's own join service: a joiner on another thread
        // announces and blocks; the leader side snapshots and tickets it.
        let u = Universe::without_faults(Topology::flat());
        let shared = Arc::clone(u.shared());
        let t = std::thread::spawn(move || {
            shared.join.announce(RankId(7))?;
            shared.join.wait_ticket(RankId(7), &|| true, None)
        });
        while u.pending_joiners() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Snapshots are non-destructive: repeated snapshots see the same
        // pending joiner until an admission commits.
        let pending = u.shared().join.snapshot_pending(&|_| true);
        assert_eq!(pending, vec![RankId(7)]);
        assert_eq!(u.shared().join.snapshot_pending(&|_| true), pending);
        // A dead joiner is filtered out of the proposal set.
        assert!(u.shared().join.snapshot_pending(&|_| false).is_empty());
        let ticket = JoinTicket {
            group: vec![RankId(0), RankId(7)],
            epoch: 0,
            comm_id: 1,
        };
        u.shared().join.confirm_tickets(&pending, &ticket);
        assert_eq!(u.pending_joiners(), 0);
        // Redundant confirmation (another surviving member re-issuing the
        // same committed ticket) is harmless.
        u.shared().join.confirm_tickets(&pending, &ticket);
        assert_eq!(t.join().unwrap(), Ok(ticket));
    }

    #[test]
    fn wait_ticket_deadline_times_out_instead_of_hanging() {
        let u = Universe::without_faults(Topology::flat());
        // Nobody will ever ticket rank 5: the deadline must bail it out.
        let deadline = Some(Instant::now() + Duration::from_millis(20));
        let got = u.shared().join.wait_ticket(RankId(5), &|| true, deadline);
        assert_eq!(got, Err(UlfmError::JoinTimeout));
        // A ticket issued before the deadline is consumed normally.
        let ticket = JoinTicket {
            group: vec![RankId(0), RankId(5)],
            epoch: 1,
            comm_id: 2,
        };
        u.shared().join.announce(RankId(5)).unwrap();
        u.shared().join.confirm_tickets(&[RankId(5)], &ticket);
        let deadline = Some(Instant::now() + Duration::from_secs(5));
        assert_eq!(
            u.shared().join.wait_ticket(RankId(5), &|| true, deadline),
            Ok(ticket)
        );
    }

    #[test]
    fn kill_rank_via_universe() {
        let u = Universe::without_faults(Topology::flat());
        let handles = u
            .spawn_batch(2, |p| {
                // Rank 1 waits until killed.
                if p.rank() == RankId(1) {
                    while p.endpoint().is_self_alive() {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    "killed"
                } else {
                    "fine"
                }
            })
            .unwrap();
        u.kill_rank(RankId(1)).unwrap();
        let results: Vec<&str> = handles.into_iter().map(|h| h.join()).collect();
        assert_eq!(results, vec!["fine", "killed"]);
    }
}

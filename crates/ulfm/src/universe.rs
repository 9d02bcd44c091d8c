//! The [`Universe`]: rank threads over a [`Mesh`], each rank's own
//! communicator-id interner and revocation flags, and the join service for
//! dynamic process spawn.
//!
//! The universe plays the role of the MPI runtime environment (PRRTE on a
//! real machine): it launches workers, assigns permanent rank ids, lets an
//! external driver inject failures, and provides the out-of-band channel
//! through which *new* workers join a running computation (the paper's
//! replacement and upscaling scenarios), the same way over any [`Mesh`].

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
use transport::{BackendKind, Endpoint, Fabric, FaultPlan, Mesh, NodeId, RankId, Topology};

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

/// Signal-payload discriminant for a communicator revocation broadcast.
const SIGNAL_REVOKE: u8 = 1;

/// The communicator-id interner: every key seen so far, and the next id.
#[derive(Default)]
struct Interner {
    ids: HashMap<CommKey, u64>,
    next: u64,
}

/// One rank's runtime state — what an MPI process keeps for itself: its
/// revocation flags, its communicator-id interner and its join-epoch
/// counter. Every rank has its own, in process or not; it is shared only
/// by that rank's communicators and its signal handler.
pub(crate) struct Shared {
    ep: Endpoint,
    /// One revocation flag per communicator id, shared by every local
    /// handle on that communicator (and by the signal handler): only a
    /// revocation writes it, so checking it costs a message nothing shared.
    revoked: Mutex<HashMap<u64, Arc<AtomicBool>>>,
    comm_ids: Mutex<Interner>,
    pub(crate) join: Arc<NetJoin>,
    join_epoch: AtomicU64,
}

impl Shared {
    /// The state of the rank behind `ep`, installed as the endpoint's signal
    /// handler so peers' revocations reach it.
    fn install(ep: Endpoint, join: Arc<NetJoin>) -> Arc<Self> {
        let shared = Arc::new(Shared {
            ep: ep.clone(),
            revoked: Mutex::new(HashMap::new()),
            comm_ids: Mutex::new(Interner::default()),
            join,
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
        shared
    }

    /// All members calling with the same key receive the same dense id.
    ///
    /// Every rank runs its own interner, and the ids still agree:
    /// communicator construction keys are derived from SPMD-agreed protocol
    /// state (spawn batches, shrink agreements, splits), so every member
    /// interns the same sequence of distinct keys in the same order.
    pub(crate) fn intern_comm(&self, key: CommKey) -> u64 {
        let Interner { ids, next } = &mut *self.comm_ids.lock();
        *ids.entry(key).or_insert_with(|| {
            *next += 1;
            *next - 1
        })
    }

    /// Adopt a communicator id decided by *other* ranks (the accepting
    /// members of a join, whose interners have been running since launch)
    /// and advance the local interner past it, so ids this rank interns
    /// afterwards continue the same SPMD sequence as everyone else's.
    pub(crate) fn adopt_comm_id(&self, key: CommKey, id: u64) {
        let mut interner = self.comm_ids.lock();
        let prev = interner.ids.insert(key, id);
        debug_assert!(prev.is_none_or(|p| p == id), "comm-id adoption conflict");
        interner.next = interner.next.max(id + 1);
    }

    /// The revocation flag of `comm_id`, created at its first mention — by
    /// a member constructing the communicator or by a revocation that
    /// outran it.
    pub(crate) fn revocation_flag(&self, comm_id: u64) -> Arc<AtomicBool> {
        Arc::clone(self.revoked.lock().entry(comm_id).or_default())
    }

    /// Revoke `comm_id` here, then tell every peer and interrupt every local
    /// pending receive so it observes the revocation promptly (the
    /// reliable-broadcast part of `MPIX_Comm_revoke`). Every receiver
    /// forwards it once (`handle_signal`), so a revoker that dies
    /// mid-broadcast still reaches everyone some live peer reached.
    pub(crate) fn revoke(&self, comm_id: u64) {
        if !self.revocation_flag(comm_id).swap(true, Ordering::SeqCst) {
            let mut payload = [0u8; 9];
            payload[0] = SIGNAL_REVOKE;
            payload[1..].copy_from_slice(&comm_id.to_le_bytes());
            self.ep.broadcast_signal(&payload);
            self.ep.wake_all();
        }
    }

    /// Handle a control-plane signal from a peer. Runs on a socket
    /// backend's service thread, or in process on the sender's thread:
    /// record, forward and wake, nothing blocking.
    fn handle_signal(&self, payload: &[u8]) {
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
    /// Raises the worker's own panic again if it panicked (a bug, not a
    /// simulated failure — those return through error values).
    pub fn join(self) -> R {
        self.thread
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }

    /// Has the worker's function returned?
    pub fn is_finished(&self) -> bool {
        self.thread.is_finished()
    }
}

/// Per-rank context handed to a worker function.
pub struct Proc {
    ep: Endpoint,
    shared: Arc<Shared>,
    initial_group: Vec<RankId>,
    batch: u64,
}

impl Proc {
    /// The rank behind `ep`, launched in spawn batch `batch` over
    /// `initial_group`, with its own state installed on the endpoint and
    /// `join` as its join service.
    fn new(ep: Endpoint, initial_group: Vec<RankId>, batch: u64, join: Arc<NetJoin>) -> Self {
        assert!(
            initial_group.contains(&ep.rank()),
            "rank {} not part of the initial group {initial_group:?}",
            ep.rank()
        );
        Self {
            shared: Shared::install(ep.clone(), join),
            ep,
            initial_group,
            batch,
        }
    }

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

/// The launcher: starts ranks and holds what they share — the [`Mesh`]
/// they run over (`None` for one rank of a multi-process job), the join
/// store and the spawn-batch counter. Everything else a rank keeps for
/// itself, as a process would: each [`Proc`] has its own revocation flags,
/// communicator-id interner, join-epoch counter and join handle, and a
/// revocation reaches other ranks as a transport signal.
pub struct Universe {
    mesh: Option<Arc<Mesh>>,
    join: Arc<NetJoin>,
    next_batch: AtomicU64,
}

impl Universe {
    /// Create a universe over an in-process mesh of `topology` with a
    /// scripted fault plan.
    pub fn new(topology: Topology, plan: FaultPlan) -> Self {
        let mesh = Mesh::new(BackendKind::InProc, topology, 0, plan);
        Self::over(mesh.expect("an in-process mesh binds and dials nothing"))
    }

    /// A universe whose ranks are `mesh`'s, on whatever link it was built
    /// on, sharing one private in-memory join store.
    pub fn over(mesh: Mesh) -> Self {
        Self {
            mesh: Some(Arc::new(mesh)),
            join: private_join(),
            next_batch: AtomicU64::new(0),
        }
    }

    /// A fault-free universe.
    pub fn without_faults(topology: Topology) -> Self {
        Self::new(topology, FaultPlan::none())
    }

    /// Build a peer-mode universe for one rank over an already-established
    /// endpoint, returning it together with this rank's [`Proc`]: one rank
    /// of a multi-process job over a `transport::SocketBackend`, or one
    /// thread's rank over an in-process `Endpoint::new(fabric, rank)`.
    /// `group` is the job's initial world, identical on every rank.
    ///
    /// The rank is built exactly as [`Universe::spawn_batch`] builds one:
    /// its communicator ids come out of its own interner (deterministic
    /// across ranks, which intern the same keys in the same order) and
    /// revocations travel as backend signals. The join service is a
    /// [`NetJoin`] over a private in-memory store, which no other rank can
    /// reach — dynamic joins need a shared store; see
    /// [`Universe::for_backend_with_join`]. [`Universe::spawn_batch`],
    /// [`Universe::mesh`] and [`Universe::fabric`] return
    /// [`UlfmError::NoSharedFabric`]: whoever built the endpoint manages
    /// the ranks and tunes the links ([`Proc::endpoint`]).
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
        let proc = Proc::new(ep, group, 0, Arc::clone(&join));
        let universe = Self {
            mesh: None,
            join,
            next_batch: AtomicU64::new(1),
        };
        (universe, proc)
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

    /// Spawn `n` workers as one batch, the mesh's next `n` ranks; each runs
    /// `f` and sees the whole batch as its [`Proc::init_comm`] group. Every
    /// rank's [`Proc`] is built (its signal handler installed, its contact
    /// published on the join store) before any of them runs. Joiners are a
    /// batch too: each calls [`Proc::join_training`]. A rank whose `f`
    /// returned has exited ([`Mesh::exited`]). A multi-process
    /// ([`Universe::for_backend`]) universe has no mesh, and returns
    /// [`UlfmError::NoSharedFabric`]; a socket newcomer that cannot bind or
    /// dial panics.
    pub fn spawn_batch<R, F>(&self, n: usize, f: F) -> Result<Vec<WorkerHandle<R>>, UlfmError>
    where
        R: Send + 'static,
        F: Fn(Proc) -> R + Send + Sync + Clone + 'static,
    {
        static SPAWNED_WORKERS: Lazy<Counter> = Lazy::counter("ulfm.universe.spawned_workers");
        static SPAWN_BATCH_NS: Lazy<Histogram> = Lazy::histogram("ulfm.universe.spawn_batch_ns");
        let mesh = self.mesh.as_ref().ok_or(UlfmError::NoSharedFabric)?;
        SPAWNED_WORKERS.add(n as u64);
        let start = Instant::now();
        let ranks: Vec<(Endpoint, Option<String>)> = (0..n)
            .map(|_| {
                mesh.next_rank()
                    .expect("mesh newcomer could not bind or dial")
            })
            .collect();
        let group: Vec<RankId> = ranks.iter().map(|(ep, _)| ep.rank()).collect();
        let batch = self.next_batch.fetch_add(1, Ordering::SeqCst);
        let procs: Vec<Proc> = (ranks.into_iter())
            .map(|(ep, contact)| {
                let dialable = contact.is_some();
                let join = self.join.for_contact(contact);
                if dialable {
                    join.publish_contact(ep.rank());
                }
                Proc::new(ep, group.clone(), batch, Arc::new(join))
            })
            .collect();
        let handles = (procs.into_iter())
            .map(|proc| {
                let (rank, mesh, f) = (proc.rank(), Arc::clone(mesh), f.clone());
                let thread = std::thread::Builder::new()
                    .name(format!("rank-{}", rank.0))
                    .spawn(move || {
                        let out = f(proc);
                        mesh.exited(rank);
                        out
                    })
                    .expect("failed to spawn worker thread");
                WorkerHandle { rank, thread }
            })
            .collect();
        SPAWN_BATCH_NS.record_duration(start.elapsed());
        Ok(handles)
    }

    /// The mesh the ranks run over; [`UlfmError::NoSharedFabric`] for a
    /// [`Universe::for_backend`] universe.
    pub fn mesh(&self) -> Result<&Mesh, UlfmError> {
        self.mesh.as_deref().ok_or(UlfmError::NoSharedFabric)
    }

    /// The fabric of an in-process mesh (stats, alive table, external
    /// kills); [`UlfmError::NoSharedFabric`] otherwise.
    pub fn fabric(&self) -> Result<&Arc<Fabric>, UlfmError> {
        self.mesh()?.fabric().ok_or(UlfmError::NoSharedFabric)
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
    fn separate_batches_allreduce_side_by_side() {
        // Each rank interns on its own, so two batches may well give their
        // init communicators the same id; their traffic still never meets.
        // Over sockets the second batch is all newcomers, dialing in.
        use collectives::{AllreduceAlgo, ReduceOp};
        for kind in [BackendKind::InProc, BackendKind::Unix] {
            let mesh = Mesh::new(kind, Topology::flat(), 3, FaultPlan::none()).unwrap();
            let u = Universe::over(mesh);
            let run = |p: Proc| {
                let mut buf = vec![p.rank().0 as f32; 8];
                p.init_comm()
                    .allreduce(&mut buf, ReduceOp::Sum, AllreduceAlgo::Ring)
                    .map(|()| buf)
            };
            let a = u.spawn_batch(3, run).unwrap();
            let b = u.spawn_batch(3, run).unwrap();
            for h in a {
                assert_eq!(h.join(), Ok(vec![3.0; 8]), "{kind}: batch of ranks 0..3");
            }
            for h in b {
                assert_eq!(h.join(), Ok(vec![12.0; 8]), "{kind}: batch of ranks 3..6");
            }
        }
    }

    #[test]
    fn join_reraises_the_workers_own_panic() {
        let u = Universe::without_faults(Topology::flat());
        let h = u
            .spawn_batch(1, |_| panic!("rank gave up"))
            .unwrap()
            .remove(0);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.join()));
        let payload = panic.expect_err("the worker panicked");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"rank gave up"));
    }

    /// One rank of its own over a fresh in-process mesh, for poking at its
    /// state.
    fn lone_rank() -> Proc {
        let mesh = Mesh::new(BackendKind::InProc, Topology::flat(), 1, FaultPlan::none()).unwrap();
        let (ep, _) = mesh.next_rank().unwrap();
        let rank = ep.rank();
        Universe::for_backend(ep, vec![rank]).1
    }

    #[test]
    fn intern_is_idempotent() {
        let shared = lone_rank().shared;
        let key = CommKey::Init {
            batch: 9,
            group: vec![RankId(0), RankId(1)],
        };
        let a = shared.intern_comm(key.clone());
        let b = shared.intern_comm(key);
        assert_eq!(a, b);
    }

    #[test]
    fn join_server_handshake() {
        // The universe's own join service: a joiner on another thread
        // announces and blocks; the leader side snapshots and tickets it.
        let u = Universe::without_faults(Topology::flat());
        let join = Arc::clone(&u.join);
        let t = std::thread::spawn(move || {
            join.announce(RankId(7))?;
            join.wait_ticket(RankId(7), &|| true, None)
        });
        while u.join.pending_count() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Snapshots are non-destructive: repeated snapshots see the same
        // pending joiner until an admission commits.
        let pending = u.join.snapshot_pending(&|_| true);
        assert_eq!(pending, vec![RankId(7)]);
        assert_eq!(u.join.snapshot_pending(&|_| true), pending);
        // A dead joiner is filtered out of the proposal set.
        assert!(u.join.snapshot_pending(&|_| false).is_empty());
        let ticket = JoinTicket {
            group: vec![RankId(0), RankId(7)],
            epoch: 0,
            comm_id: 1,
        };
        u.join.confirm_tickets(&pending, &ticket);
        assert_eq!(u.join.pending_count(), 0);
        // Redundant confirmation (another surviving member re-issuing the
        // same committed ticket) is harmless.
        u.join.confirm_tickets(&pending, &ticket);
        assert_eq!(t.join().unwrap(), Ok(ticket));
    }

    #[test]
    fn wait_ticket_deadline_times_out_instead_of_hanging() {
        let u = Universe::without_faults(Topology::flat());
        // Nobody will ever ticket rank 5: the deadline must bail it out.
        let deadline = Some(Instant::now() + Duration::from_millis(20));
        let got = u.join.wait_ticket(RankId(5), &|| true, deadline);
        assert_eq!(got, Err(UlfmError::JoinTimeout));
        // A ticket issued before the deadline is consumed normally.
        let ticket = JoinTicket {
            group: vec![RankId(0), RankId(5)],
            epoch: 1,
            comm_id: 2,
        };
        u.join.announce(RankId(5)).unwrap();
        u.join.confirm_tickets(&[RankId(5)], &ticket);
        let deadline = Some(Instant::now() + Duration::from_secs(5));
        assert_eq!(
            u.join.wait_ticket(RankId(5), &|| true, deadline),
            Ok(ticket)
        );
    }

    /// In process only: the subject is an external kill on the shared fabric.
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
        u.fabric().unwrap().kill_rank(RankId(1));
        let results: Vec<&str> = handles.into_iter().map(|h| h.join()).collect();
        assert_eq!(results, vec!["fine", "killed"]);
    }
}

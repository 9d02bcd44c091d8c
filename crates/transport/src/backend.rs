//! The transport backend abstraction.
//!
//! Everything above the transport (collectives, ULFM, the elastic engines)
//! talks to an [`Endpoint`]. An endpoint is a thin handle over a
//! [`Backend`]: the object that moves framed bytes between ranks, tracks
//! liveness, and applies the fault/perturbation plans. Inside this crate
//! there is one implementation of it — the delivery engine, which owns the
//! whole contract below — running over two links:
//!
//! * function calls into the mailboxes of a shared [`crate::Fabric`]
//!   (threads-as-ranks) — the seed transport, still the tier-1 default;
//! * stream sockets (one OS process per rank over TCP or Unix-domain
//!   sockets; see [`crate::SocketBackend`]).
//!
//! The contract is the ULFM-flavored per-operation error model pinned, on
//! every link, by the conformance suite
//! (`tests/tests/transport_conformance.rs`):
//!
//! * FIFO delivery per (sender, receiver, tag) channel;
//! * checksummed frames, duplicate suppression, bounded retransmission
//!   under the installed [`crate::RetryPolicy`];
//! * send retry exhaustion and a stalled no-deadline receive past the
//!   suspicion timeout *suspect* the silent peer (report
//!   [`TransportError::PeerDead`]); an explicit receive deadline merely
//!   times out;
//! * a suspected rank blocked in a receive observes
//!   [`TransportError::SelfDied`], never a hang.

use crate::delivery::FabricStats;
use crate::error::TransportError;
use crate::fabric::{Fabric, InProcBackend};
use crate::ids::{NodeId, RankId, Topology};
use crate::perturb::PerturbPlan;
use crate::wire::{self, Fill};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Handler invoked for every control-plane signal broadcast by a peer
/// (see [`Backend::broadcast_signal`]).
pub type SignalHandler = Box<dyn Fn(&[u8]) + Send + Sync>;

/// Which transport backend to run on. Carried by scenario configs and the
/// conformance suite; [`BackendKind::InProc`] is the tier-1 default.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// Threads-as-ranks over shared-memory mailboxes (the seed transport).
    InProc,
    /// One endpoint per rank over loopback TCP stream sockets.
    Tcp,
    /// One endpoint per rank over Unix-domain stream sockets.
    Unix,
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::InProc => write!(f, "inproc"),
            BackendKind::Tcp => write!(f, "tcp"),
            BackendKind::Unix => write!(f, "unix"),
        }
    }
}

/// One rank's view of the transport: framed send/receive, liveness and
/// suspicion signaling, fault injection, and teardown.
///
/// A backend instance serves exactly one local rank. Implementations must
/// be cheap to share behind an `Arc` and safe to call from multiple threads
/// (collectives issue sends and receives concurrently with wakeups).
pub trait Backend: Send + Sync {
    /// The local rank this backend serves.
    fn rank(&self) -> RankId;

    /// The node topology of the job.
    fn topology(&self) -> Topology;

    /// Total ranks ever part of the job (alive or dead).
    fn total_ranks(&self) -> usize;

    /// Is `rank` known and currently believed alive?
    fn is_alive(&self, rank: RankId) -> bool;

    /// Snapshot of ranks currently believed alive, in id order.
    fn alive_ranks(&self) -> Vec<RankId>;

    /// Declare `rank` dead on suspicion (idempotent). Implementations must
    /// also make the suspected rank itself observe its death if it is
    /// blocked in a receive — in-process via the shared alive table, over
    /// sockets via a control frame.
    fn suspect(&self, rank: RankId);

    /// Mark the local rank dead and release every peer blocked on it
    /// (clean voluntary departure; peers observe `PeerDead` after draining
    /// buffered messages).
    fn kill_self(&self);

    /// Wake every blocked receiver of this rank so it re-checks liveness
    /// and stop conditions. Peers are woken by their own backends, driven
    /// by deaths and control signals.
    fn wake_all(&self);

    /// Check the scripted fault plan at a transport operation; on a hit the
    /// local rank dies and `Err(SelfDied)` is returned.
    fn check_op_fault(&self) -> Result<(), TransportError>;

    /// Named protocol-level fault point (e.g. `"allreduce.step"`); also
    /// activates gated perturbation plans.
    fn fault_point(&self, name: &str) -> Result<(), TransportError>;

    /// Reliable framed send: checksummed; where the link can lose it, also
    /// numbered and retransmitted under the retry policy until
    /// acknowledged, and exhaustion suspects the peer.
    fn send(&self, to: RankId, tag: u64, data: &[u8]) -> Result<(), TransportError>;

    /// Blocking matched receive. `deadline` is the caller's *explicit*
    /// deadline (expiry returns [`TransportError::Timeout`] without
    /// suspicion); with no deadline, the configured suspicion timeout
    /// bounds the wait and a stall suspects the silent peer instead.
    /// `should_stop` interrupts the wait with [`TransportError::Stopped`].
    fn recv(
        &self,
        from: RankId,
        tag: u64,
        should_stop: &dyn Fn() -> bool,
        deadline: Option<Instant>,
    ) -> Result<Vec<u8>, TransportError>;

    /// [`Backend::send`] of a `len`-byte payload that `f` writes where it
    /// travels ([`wire::encode_frame_with`]). Default: build it, send it.
    fn send_with(
        &self,
        to: RankId,
        tag: u64,
        len: usize,
        f: Fill<'_>,
    ) -> Result<(), TransportError> {
        self.send(to, tag, &wire::fill_payload(len, f))
    }

    /// [`Backend::recv`] that lends the payload to `f` where it lies; `f`
    /// runs once iff the result is `Ok`. Default: lend what `recv` returns.
    fn recv_with(
        &self,
        from: RankId,
        tag: u64,
        should_stop: &dyn Fn() -> bool,
        deadline: Option<Instant>,
        f: &mut dyn FnMut(&[u8]),
    ) -> Result<(), TransportError> {
        f(&self.recv(from, tag, should_stop, deadline)?);
        Ok(())
    }

    /// Non-blocking receive.
    fn try_recv(&self, from: RankId, tag: u64) -> Option<Vec<u8>>;

    /// Is a message from `(from, tag)` buffered?
    fn probe(&self, from: RankId, tag: u64) -> bool;

    /// Drop buffered messages whose tag matches `pred`; returns the count.
    fn purge_tags(&self, pred: &dyn Fn(u64) -> bool) -> usize;

    /// Install a link-perturbation plan (replaces any previous one). From
    /// the first that perturbs a link on, every send is numbered and acked.
    fn set_perturbation(&self, plan: PerturbPlan);

    /// Enable (`Some`) or disable (`None`) timeout-based failure suspicion
    /// for receives without an explicit deadline.
    fn set_suspicion_timeout(&self, timeout: Option<Duration>);

    /// The configured suspicion timeout, if any.
    fn suspicion_timeout(&self) -> Option<Duration>;

    /// Best-effort control-plane broadcast to every other live rank, once
    /// each, out-of-band of tag matching and not counted as a message. Used
    /// by the ULFM layer to propagate communicator revocations.
    fn broadcast_signal(&self, payload: &[u8]);

    /// Install the handler invoked for every signal received from a peer:
    /// over sockets on whichever thread reads this rank's links (a rank
    /// thread waiting in the transport, or the rank's service thread), and
    /// in process synchronously on the sender's thread — so it must not
    /// block or send, and it may broadcast.
    fn set_signal_handler(&self, handler: SignalHandler);

    /// Aggregate traffic counters for this backend's view of the job.
    fn stats(&self) -> FabricStats;

    /// Tear the backend down: stop service threads and close links. Peers
    /// observe the departure as a death. Idempotent.
    fn shutdown(&self);

    /// Register `rank` as a forthcoming peer (an elastic joiner committed
    /// into the group). After this, `rank` is known — sends to it buffer
    /// and retry instead of failing with `UnknownRank` — and its eventual
    /// silence is handled by the ordinary suspicion machinery. The
    /// in-process backend shares one liveness table across all ranks, so
    /// the default is a no-op.
    fn expect_rank(&self, rank: RankId) {
        let _ = rank;
    }

    /// Ensure a live link to `rank`, dialing `addr` if one is missing
    /// (joiners use this at ticket time to close residual gaps toward
    /// members and earlier joiners they never dialed). Returns true once a
    /// link is up or the backend needs none (the in-process default);
    /// false if the peer is dead or unreachable.
    fn connect_peer(&self, rank: RankId, addr: &str) -> bool {
        let _ = (rank, addr);
        true
    }

    /// When the most recent suspicion (a `suspect` call that actually
    /// transitioned a rank from alive to dead) was recorded, if the backend
    /// tracks it. Used with [`Backend::suspicion_batch_window`] to let a
    /// recovery wait out the tail of a failure burst before agreeing on
    /// the failed set. The default (`None`) disables batching.
    fn last_suspicion(&self) -> Option<Instant> {
        None
    }

    /// The configured suspicion batching window, if any: after a
    /// suspicion, further suspicions landing within this window are part
    /// of the same burst and should be resolved by the same view change.
    fn suspicion_batch_window(&self) -> Option<Duration> {
        None
    }

    /// Enable (`Some`) or disable (`None`) suspicion batching. The default
    /// implementation ignores the setting (no batching).
    fn set_suspicion_batch_window(&self, window: Option<Duration>) {
        let _ = window;
    }
}

/// A rank's handle onto the transport. Cheap to clone; all operations
/// perform the fault-plan and liveness checks that give the transport its
/// ULFM-style per-operation error semantics.
///
/// The concrete message machinery lives behind the [`Backend`] trait;
/// [`Endpoint::new`] builds the classic in-process endpoint over a
/// [`Fabric`], [`Endpoint::from_backend`] wraps any other backend.
#[derive(Clone)]
pub struct Endpoint {
    backend: Arc<dyn Backend>,
}

impl Endpoint {
    /// Create the in-process endpoint for `rank` (which must be registered
    /// with `fabric`).
    pub fn new(fabric: Arc<Fabric>, rank: RankId) -> Self {
        Self {
            backend: Arc::new(InProcBackend::new(fabric, rank)),
        }
    }

    /// Wrap an already-established backend (e.g. a socket backend).
    pub fn from_backend(backend: Arc<dyn Backend>) -> Self {
        Self { backend }
    }

    /// The underlying backend.
    pub fn backend(&self) -> &Arc<dyn Backend> {
        &self.backend
    }

    /// This endpoint's rank id.
    pub fn rank(&self) -> RankId {
        self.backend.rank()
    }

    /// The node topology of the job.
    pub fn topology(&self) -> Topology {
        self.backend.topology()
    }

    /// Total ranks ever part of the job (alive or dead).
    pub fn total_ranks(&self) -> usize {
        self.backend.total_ranks()
    }

    /// The node hosting `rank`.
    pub fn node_of(&self, rank: RankId) -> NodeId {
        self.backend.topology().node_of(rank)
    }

    /// Snapshot of ranks currently believed alive, in id order.
    pub fn alive_ranks(&self) -> Vec<RankId> {
        self.backend.alive_ranks()
    }

    /// Protocol-level fault point (e.g. `"allreduce.step"`). Returns
    /// `Err(SelfDied)` if the fault plan kills this rank here. Also
    /// activates any perturbation plan gated on this point.
    pub fn fault_point(&self, name: &str) -> Result<(), TransportError> {
        self.backend.fault_point(name)
    }

    /// Send `data` to `to` under `tag`.
    ///
    /// The payload travels as a checksummed frame. Where the link can lose
    /// it (a perturbation plan is installed, or the link is a socket) the
    /// frame is numbered, and if the link drops, corrupts, or reorders it
    /// away, it is retransmitted under exponential backoff with jitter until the
    /// receiver acks a copy. A peer that never acks within the retry budget
    /// is *suspected* dead and reported as [`TransportError::PeerDead`] —
    /// the same local error ULFM raises on communication with a failed
    /// process. [`TransportError::SelfDied`] is returned if the fault plan
    /// kills the caller at this operation.
    pub fn send(&self, to: RankId, tag: u64, data: &[u8]) -> Result<(), TransportError> {
        self.backend.send(to, tag, data)
    }

    /// Send a payload `f` writes into its frame ([`Backend::send_with`]).
    pub fn send_with(
        &self,
        to: RankId,
        tag: u64,
        len: usize,
        f: Fill<'_>,
    ) -> Result<(), TransportError> {
        self.backend.send_with(to, tag, len, f)
    }

    /// Blocking receive of a message from `from` under `tag`.
    ///
    /// Messages the peer sent before dying are still delivered; once the
    /// buffer is drained and the peer is dead, returns
    /// [`TransportError::PeerDead`].
    pub fn recv(&self, from: RankId, tag: u64) -> Result<Vec<u8>, TransportError> {
        self.backend.recv(from, tag, &|| false, None)
    }

    /// Blocking receive with a deadline (used by rendezvous protocols that
    /// poll an external condition). Expiry is a plain
    /// [`TransportError::Timeout`] and never suspects the peer.
    pub fn recv_timeout(
        &self,
        from: RankId,
        tag: u64,
        timeout: Duration,
    ) -> Result<Vec<u8>, TransportError> {
        self.backend
            .recv(from, tag, &|| false, Some(Instant::now() + timeout))
    }

    /// Lend the next message to `f` where it lies ([`Backend::recv_with`]).
    pub fn recv_with(
        &self,
        from: RankId,
        tag: u64,
        should_stop: &dyn Fn() -> bool,
        deadline: Option<Instant>,
        f: &mut dyn FnMut(&[u8]),
    ) -> Result<(), TransportError> {
        self.backend.recv_with(from, tag, should_stop, deadline, f)
    }

    /// Drop buffered messages whose tag matches `pred` (used on revoke).
    pub fn purge_tags(&self, pred: impl Fn(u64) -> bool) -> usize {
        self.backend.purge_tags(&pred)
    }

    /// Is this rank still alive?
    pub fn is_self_alive(&self) -> bool {
        self.backend.is_alive(self.backend.rank())
    }

    /// Is `peer` alive according to the failure detector?
    pub fn is_peer_alive(&self, peer: RankId) -> bool {
        self.backend.is_alive(peer)
    }

    /// Voluntarily leave the computation (used when the drop-node policy
    /// retires healthy ranks that share a node with a failed one).
    pub fn retire(&self) {
        self.backend.kill_self();
    }

    /// Install a link-perturbation plan on the backend.
    pub fn set_perturbation(&self, plan: PerturbPlan) {
        self.backend.set_perturbation(plan);
    }

    /// Configure timeout-based failure suspicion for open-ended receives.
    pub fn set_suspicion_timeout(&self, timeout: Option<Duration>) {
        self.backend.set_suspicion_timeout(timeout);
    }

    /// Configure the suspicion batching window (see
    /// [`Backend::set_suspicion_batch_window`]).
    pub fn set_suspicion_batch_window(&self, window: Option<Duration>) {
        self.backend.set_suspicion_batch_window(window);
    }

    /// Wait until the suspicion burst (if any) has settled: sleeps while
    /// the last recorded suspicion is younger than the configured batching
    /// window, so a node-level burst of near-simultaneous deaths is
    /// reported to agreement as **one** failed set and resolved by one
    /// view change. No-op when batching is disabled or no suspicion was
    /// ever recorded.
    pub fn settle_suspicions(&self) {
        let Some(window) = self.backend.suspicion_batch_window() else {
            return;
        };
        while let Some(last) = self.backend.last_suspicion() {
            let age = last.elapsed();
            if age >= window {
                return;
            }
            std::thread::sleep(window - age);
        }
    }

    /// Wake every blocked receiver of this rank so it re-checks liveness
    /// and stop conditions (see [`Backend::wake_all`]).
    pub fn wake_all(&self) {
        self.backend.wake_all();
    }

    /// Best-effort control-plane broadcast to every peer (see
    /// [`Backend::broadcast_signal`]).
    pub fn broadcast_signal(&self, payload: &[u8]) {
        self.backend.broadcast_signal(payload);
    }

    /// Install the handler invoked for every peer signal (see
    /// [`Backend::set_signal_handler`]).
    pub fn set_signal_handler(&self, handler: SignalHandler) {
        self.backend.set_signal_handler(handler);
    }

    /// Aggregate traffic counters of the underlying backend.
    pub fn stats(&self) -> FabricStats {
        self.backend.stats()
    }

    /// Register a forthcoming peer (see [`Backend::expect_rank`]).
    pub fn expect_rank(&self, rank: RankId) {
        self.backend.expect_rank(rank);
    }

    /// Ensure a live link to `rank`, dialing `addr` if missing (see
    /// [`Backend::connect_peer`]).
    pub fn connect_peer(&self, rank: RankId, addr: &str) -> bool {
        self.backend.connect_peer(rank, addr)
    }
}

//! The shared fabric: rank registry, alive table, message routing, and the
//! failure-injection hooks — plus [`InProcBackend`], the in-process
//! implementation of the [`Backend`] trait over this machinery.

use crate::backend::{Backend, SignalHandler};
use crate::error::TransportError;
use crate::fault::FaultInjector;
use crate::ids::{NodeId, RankId, Topology};
use crate::mailbox::{FrameAck, Mailbox};
use crate::perturb::{PerturbPlan, Perturber};
use crate::wire;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::{Counter, Histogram};

struct RankSlot {
    mailbox: Arc<Mailbox>,
    alive: Arc<AtomicBool>,
}

/// Cached telemetry handles — resolved once per backend so the hot
/// send/recv paths pay one relaxed atomic add, not a registry lookup.
/// Shared by the in-process fabric and the socket backend: both report
/// under the same `transport.*` metric names.
pub(crate) struct FabricTelemetry {
    pub(crate) msgs_sent: Arc<Counter>,
    pub(crate) bytes_sent: Arc<Counter>,
    pub(crate) msgs_recvd: Arc<Counter>,
    pub(crate) bytes_recvd: Arc<Counter>,
    pub(crate) deaths: Arc<Counter>,
    pub(crate) fault_point_hits: Arc<Counter>,
    pub(crate) op_fault_hits: Arc<Counter>,
    pub(crate) purged_msgs: Arc<Counter>,
    pub(crate) recv_timeouts: Arc<Counter>,
    pub(crate) retransmits: Arc<Counter>,
    pub(crate) corrupt_frames: Arc<Counter>,
    pub(crate) dup_suppressed: Arc<Counter>,
    pub(crate) frames_dropped: Arc<Counter>,
    pub(crate) frames_delayed: Arc<Counter>,
    pub(crate) frames_duplicated: Arc<Counter>,
    pub(crate) frames_reordered: Arc<Counter>,
    pub(crate) suspicions: Arc<Counter>,
    pub(crate) suspicion_coalesced: Arc<Counter>,
    pub(crate) delay_hist: Arc<Histogram>,
    pub(crate) backoff_hist: Arc<Histogram>,
}

impl FabricTelemetry {
    pub(crate) fn new() -> Self {
        Self {
            msgs_sent: telemetry::counter("transport.msgs_sent"),
            bytes_sent: telemetry::counter("transport.bytes_sent"),
            msgs_recvd: telemetry::counter("transport.msgs_recvd"),
            bytes_recvd: telemetry::counter("transport.bytes_recvd"),
            deaths: telemetry::counter("transport.deaths"),
            fault_point_hits: telemetry::counter("transport.fault_point_hits"),
            op_fault_hits: telemetry::counter("transport.op_fault_hits"),
            purged_msgs: telemetry::counter("transport.purged_msgs"),
            recv_timeouts: telemetry::counter("transport.recv_timeouts"),
            retransmits: telemetry::counter("transport.retransmits"),
            corrupt_frames: telemetry::counter("transport.corrupt_frames"),
            dup_suppressed: telemetry::counter("transport.dup_suppressed"),
            frames_dropped: telemetry::counter("transport.perturb.frames_dropped"),
            frames_delayed: telemetry::counter("transport.perturb.frames_delayed"),
            frames_duplicated: telemetry::counter("transport.perturb.frames_duplicated"),
            frames_reordered: telemetry::counter("transport.perturb.frames_reordered"),
            suspicions: telemetry::counter("transport.suspicions"),
            suspicion_coalesced: telemetry::counter("transport.suspicion.coalesced"),
            delay_hist: telemetry::histogram("transport.perturb.delay_ns"),
            backoff_hist: telemetry::histogram("transport.retransmit.backoff_ns"),
        }
    }
}

/// Aggregate traffic counters (diagnostics and cost calibration).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Messages successfully delivered.
    pub messages: u64,
    /// Payload bytes successfully delivered.
    pub bytes: u64,
    /// Ranks killed so far (externally or by the fault plan).
    pub deaths: u64,
    /// Link-layer retransmissions (unacked frames resent).
    pub retransmits: u64,
    /// Frames discarded by the receiver for failing checksum validation.
    pub corrupt_frames: u64,
    /// Duplicate frames suppressed by receiver sequence tracking.
    pub dup_suppressed: u64,
    /// Ranks declared dead by timeout-based suspicion rather than a fault
    /// plan or an explicit kill.
    pub suspicions: u64,
}

/// Counter-by-counter sum — each socket backend observes only its own
/// traffic, so a mesh total is the sum over its backends.
impl std::ops::AddAssign for FabricStats {
    fn add_assign(&mut self, s: Self) {
        self.messages += s.messages;
        self.bytes += s.bytes;
        self.deaths += s.deaths;
        self.retransmits += s.retransmits;
        self.corrupt_frames += s.corrupt_frames;
        self.dup_suppressed += s.dup_suppressed;
        self.suspicions += s.suspicions;
    }
}

/// Deterministic per-rank jitter for suspicion timeouts: stretches `t` by
/// up to 25%, keyed only on the observing rank's id (a SplitMix-style hash
/// of the rank, top byte as the jitter fraction). When a whole node dies,
/// every survivor blocked on it would otherwise hit the suspicion deadline
/// in the same instant and fire a synchronized storm of redundant revokes;
/// skewing the deadlines deterministically lets the earliest observer
/// suspect first and the rest coalesce (`transport.suspicion.coalesced`).
/// Deterministic so test runs and fault schedules stay reproducible.
pub(crate) fn suspicion_jitter(rank: RankId, t: Duration) -> Duration {
    let h = (rank.0 as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 56;
    t + t.mul_f64(h as f64 / 255.0 * 0.25)
}

/// The shared interconnect + runtime failure detector.
///
/// One `Fabric` models one job allocation. Ranks are registered dynamically
/// (elastic upscaling spawns new ranks into a running fabric) and are never
/// unregistered — death is a permanent state, as in ULFM.
pub struct Fabric {
    topology: Topology,
    slots: RwLock<Vec<RankSlot>>,
    injector: FaultInjector,
    perturber: RwLock<Arc<Perturber>>,
    /// Sender-side sequence counters per (src, dst, tag) channel.
    tx_seq: Mutex<HashMap<(RankId, RankId, u64), u64>>,
    /// If set, a blocking receive with no explicit deadline that stalls past
    /// this duration suspects the silent peer dead (timeout-based failure
    /// detection). `None` (the default) models a perfect, hang-free network.
    suspicion: RwLock<Option<Duration>>,
    /// Suspicion batching window: after a suspicion lands, further
    /// suspicions within this window belong to the same burst, and
    /// recovery (via `Endpoint::settle_suspicions`) waits the window out
    /// before agreeing on the failed set. `None` disables batching.
    suspicion_batch: RwLock<Option<Duration>>,
    /// When the most recent alive→dead suspicion transition was recorded.
    last_suspicion: Mutex<Option<Instant>>,
    messages: AtomicU64,
    bytes: AtomicU64,
    deaths: AtomicU64,
    retransmits: AtomicU64,
    corrupt_frames: AtomicU64,
    dup_suppressed: AtomicU64,
    suspicions: AtomicU64,
    telem: FabricTelemetry,
}

impl Fabric {
    /// A fabric with the given node topology and fault schedule.
    pub fn new(topology: Topology, injector: FaultInjector) -> Arc<Self> {
        Arc::new(Self {
            topology,
            slots: RwLock::new(Vec::new()),
            injector,
            perturber: RwLock::new(Arc::new(Perturber::inert())),
            tx_seq: Mutex::new(HashMap::new()),
            suspicion: RwLock::new(None),
            suspicion_batch: RwLock::new(None),
            last_suspicion: Mutex::new(None),
            messages: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            deaths: AtomicU64::new(0),
            retransmits: AtomicU64::new(0),
            corrupt_frames: AtomicU64::new(0),
            dup_suppressed: AtomicU64::new(0),
            suspicions: AtomicU64::new(0),
            telem: FabricTelemetry::new(),
        })
    }

    /// A fault-free fabric (convenience for tests).
    pub fn without_faults(topology: Topology) -> Arc<Self> {
        Self::new(topology, FaultInjector::inert())
    }

    /// The node topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// The fault injector driving scripted failures.
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// Install a message-perturbation plan. Replaces any previous plan;
    /// normally called once before traffic starts.
    pub fn set_perturbation(&self, plan: PerturbPlan) {
        *self.perturber.write() = Arc::new(Perturber::new(plan));
    }

    /// Enable (`Some`) or disable (`None`) timeout-based failure suspicion
    /// for blocking receives without an explicit deadline.
    pub fn set_suspicion_timeout(&self, timeout: Option<Duration>) {
        *self.suspicion.write() = timeout;
    }

    /// The configured suspicion timeout, if any.
    pub fn suspicion_timeout(&self) -> Option<Duration> {
        *self.suspicion.read()
    }

    /// Enable (`Some`) or disable (`None`) the suspicion batching window.
    pub fn set_suspicion_batch_window(&self, window: Option<Duration>) {
        *self.suspicion_batch.write() = window;
    }

    /// The configured suspicion batching window, if any.
    pub fn suspicion_batch_window(&self) -> Option<Duration> {
        *self.suspicion_batch.read()
    }

    /// When the most recent alive→dead suspicion transition was recorded.
    pub fn last_suspicion(&self) -> Option<Instant> {
        *self.last_suspicion.lock()
    }

    /// Declare `rank` dead on suspicion (retry exhaustion or a stalled
    /// receive past the suspicion deadline). Idempotent; counts once —
    /// a re-suspicion of an already-dead rank is *coalesced* (counted
    /// under `transport.suspicion.coalesced`, otherwise a no-op), which
    /// is what keeps a node-level burst from fanning out into a storm of
    /// redundant revokes.
    pub fn suspect(&self, rank: RankId) {
        if self.is_alive(rank) {
            self.suspicions.fetch_add(1, Ordering::Relaxed);
            self.telem.suspicions.incr();
            *self.last_suspicion.lock() = Some(Instant::now());
            self.kill_rank(rank);
        } else {
            self.telem.suspicion_coalesced.incr();
        }
    }

    /// Register one new rank and return its id. Ids are dense and permanent.
    pub fn register_rank(self: &Arc<Self>) -> RankId {
        let mut slots = self.slots.write();
        let id = RankId(slots.len());
        slots.push(RankSlot {
            mailbox: Arc::new(Mailbox::new()),
            alive: Arc::new(AtomicBool::new(true)),
        });
        id
    }

    /// Register `n` ranks at once.
    pub fn register_ranks(self: &Arc<Self>, n: usize) -> Vec<RankId> {
        (0..n).map(|_| self.register_rank()).collect()
    }

    /// Total ranks ever registered (alive or dead).
    pub fn total_ranks(&self) -> usize {
        self.slots.read().len()
    }

    /// Is `rank` registered and alive?
    pub fn is_alive(&self, rank: RankId) -> bool {
        self.slots
            .read()
            .get(rank.0)
            .is_some_and(|s| s.alive.load(Ordering::SeqCst))
    }

    /// Snapshot of all currently-alive ranks, in id order.
    pub fn alive_ranks(&self) -> Vec<RankId> {
        self.slots
            .read()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive.load(Ordering::SeqCst))
            .map(|(i, _)| RankId(i))
            .collect()
    }

    /// Snapshot of all dead ranks, in id order.
    pub fn dead_ranks(&self) -> Vec<RankId> {
        self.slots
            .read()
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.alive.load(Ordering::SeqCst))
            .map(|(i, _)| RankId(i))
            .collect()
    }

    /// Kill a single rank. Idempotent. Wakes every blocked receiver so the
    /// failure is observed promptly (this is the runtime failure detector).
    pub fn kill_rank(&self, rank: RankId) {
        let slots = self.slots.read();
        let Some(slot) = slots.get(rank.0) else {
            return;
        };
        if slot.alive.swap(false, Ordering::SeqCst) {
            self.deaths.fetch_add(1, Ordering::Relaxed);
            self.telem.deaths.incr();
            for s in slots.iter() {
                s.mailbox.wake_waiters();
            }
        }
    }

    /// Wake every blocked receiver so it re-checks its stop conditions.
    /// Called by the ULFM layer when a communicator is revoked.
    pub fn wake_all(&self) {
        for s in self.slots.read().iter() {
            s.mailbox.wake_waiters();
        }
    }

    /// Kill every rank on `node` (the paper's node-level failure).
    pub fn kill_node(&self, node: NodeId) {
        let total = self.total_ranks();
        for rank in self.topology.ranks_on_node(node, total) {
            self.kill_rank(rank);
        }
    }

    /// The node hosting `rank`.
    pub fn node_of(&self, rank: RankId) -> NodeId {
        self.topology.node_of(rank)
    }

    /// Aggregate traffic counters.
    pub fn stats(&self) -> FabricStats {
        FabricStats {
            messages: self.messages.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            deaths: self.deaths.load(Ordering::Relaxed),
            retransmits: self.retransmits.load(Ordering::Relaxed),
            corrupt_frames: self.corrupt_frames.load(Ordering::Relaxed),
            dup_suppressed: self.dup_suppressed.load(Ordering::Relaxed),
            suspicions: self.suspicions.load(Ordering::Relaxed),
        }
    }

    fn next_tx_seq(&self, src: RankId, dst: RankId, tag: u64) -> u64 {
        let mut seqs = self.tx_seq.lock();
        let s = seqs.entry((src, dst, tag)).or_insert(0);
        let seq = *s;
        *s += 1;
        seq
    }

    /// One physical transmission attempt of `frame` on `src → dst`, applying
    /// the perturbation plan. Returns true if the receiver acked a copy of
    /// the *current* frame (stashed flushes ack on behalf of older frames,
    /// which already retransmit independently).
    fn transmit(
        &self,
        perturber: &Perturber,
        src: RankId,
        dst: RankId,
        frame: &[u8],
        mb: &Mailbox,
    ) -> bool {
        let verdict = perturber.transmit(src, dst, frame);
        if verdict.dropped {
            self.telem.frames_dropped.incr();
        }
        if verdict.duplicated {
            self.telem.frames_duplicated.incr();
        }
        if verdict.reordered {
            self.telem.frames_reordered.incr();
        }
        let mut acked = false;
        for d in verdict.deliveries {
            if let Some(delay) = d.delay {
                // The "propagation delay" runs on the sender thread: the
                // fabric is a function-call network, so a slow link is a
                // slow call.
                self.telem.frames_delayed.incr();
                self.telem.delay_hist.record_duration(delay);
                std::thread::sleep(delay);
            }
            let ack = mb.accept_frame(&d.bytes);
            match ack {
                FrameAck::Corrupt(_) => {
                    self.corrupt_frames.fetch_add(1, Ordering::Relaxed);
                    self.telem.corrupt_frames.incr();
                }
                FrameAck::Duplicate => {
                    self.dup_suppressed.fetch_add(1, Ordering::Relaxed);
                    self.telem.dup_suppressed.incr();
                }
                FrameAck::Accepted => {}
            }
            if d.current && ack.is_acked() {
                acked = true;
            }
        }
        acked
    }

    /// `rank`'s mailbox and alive flag, under one hold of the slot table.
    fn slot_of(&self, rank: RankId) -> Option<(Arc<Mailbox>, Arc<AtomicBool>)> {
        let slots = self.slots.read();
        let s = slots.get(rank.0)?;
        Some((Arc::clone(&s.mailbox), Arc::clone(&s.alive)))
    }
}

/// The in-process [`Backend`]: one rank's view of a shared [`Fabric`],
/// where ranks are threads and message routing is a function call into the
/// destination's mailbox. This is the seed transport, unchanged in
/// semantics — the [`crate::Endpoint`] wrapper constructs it via
/// [`crate::Endpoint::new`].
pub(crate) struct InProcBackend {
    fabric: Arc<Fabric>,
    rank: RankId,
    /// This rank's own mailbox and alive flag: slots are never replaced, so
    /// the per-message paths reach them without the fabric-wide table lock.
    mailbox: Arc<Mailbox>,
    alive: Arc<AtomicBool>,
}

impl InProcBackend {
    /// The backend for `rank` (which must be registered with `fabric`).
    pub(crate) fn new(fabric: Arc<Fabric>, rank: RankId) -> Self {
        let Some((mailbox, alive)) = fabric.slot_of(rank) else {
            panic!("rank {rank} not registered with the fabric");
        };
        Self {
            fabric,
            rank,
            mailbox,
            alive,
        }
    }
}

impl Backend for InProcBackend {
    fn rank(&self) -> RankId {
        self.rank
    }

    fn topology(&self) -> Topology {
        self.fabric.topology()
    }

    fn total_ranks(&self) -> usize {
        self.fabric.total_ranks()
    }

    fn is_alive(&self, rank: RankId) -> bool {
        self.fabric.is_alive(rank)
    }

    fn alive_ranks(&self) -> Vec<RankId> {
        self.fabric.alive_ranks()
    }

    fn suspect(&self, rank: RankId) {
        self.fabric.suspect(rank);
    }

    fn kill_self(&self) {
        self.fabric.kill_rank(self.rank);
    }

    fn wake_all(&self) {
        self.fabric.wake_all();
    }

    fn check_op_fault(&self) -> Result<(), TransportError> {
        if !self.alive.load(Ordering::SeqCst) {
            return Err(TransportError::SelfDied);
        }
        if self.fabric.injector.hit_op(self.rank) {
            self.fabric.telem.op_fault_hits.incr();
            self.fabric.kill_rank(self.rank);
            return Err(TransportError::SelfDied);
        }
        Ok(())
    }

    fn fault_point(&self, name: &str) -> Result<(), TransportError> {
        if !self.alive.load(Ordering::SeqCst) {
            return Err(TransportError::SelfDied);
        }
        self.fabric.perturber.read().notify_point(name);
        if self.fabric.injector.hit_point(self.rank, name) {
            self.fabric.telem.fault_point_hits.incr();
            self.fabric.kill_rank(self.rank);
            return Err(TransportError::SelfDied);
        }
        Ok(())
    }

    fn send(&self, to: RankId, tag: u64, data: &[u8]) -> Result<(), TransportError> {
        self.check_op_fault()?;
        let Some((mb, to_alive)) = self.fabric.slot_of(to) else {
            return Err(TransportError::UnknownRank(to));
        };
        if !to_alive.load(Ordering::SeqCst) {
            return Err(TransportError::PeerDead(to));
        }
        let seq = self.fabric.next_tx_seq(self.rank, to, tag);
        let frame = wire::encode_frame(self.rank, tag, seq, data);
        let mut perturber = Arc::clone(&self.fabric.perturber.read());
        let policy = perturber.plan().retry_policy();
        let mut attempt = 0u32;
        loop {
            if self.fabric.transmit(&perturber, self.rank, to, &frame, &mb) {
                break;
            }
            // Unacked: the frame (or every copy of it) was lost. Re-check
            // liveness between attempts — death reports beat link errors.
            if !self.alive.load(Ordering::SeqCst) {
                return Err(TransportError::SelfDied);
            }
            if !to_alive.load(Ordering::SeqCst) {
                return Err(TransportError::PeerDead(to));
            }
            if attempt >= policy.max_retries {
                // The link is silent past the retry budget: suspect the
                // peer, feeding the ULFM revoke → agree → shrink path.
                self.fabric.suspect(to);
                return Err(TransportError::PeerDead(to));
            }
            // A plan installed mid-send takes effect from the next attempt.
            perturber = Arc::clone(&self.fabric.perturber.read());
            let salt = perturber.backoff_salt(self.rank, to, tag, seq, attempt);
            let backoff = policy.backoff(attempt, salt);
            self.fabric.telem.backoff_hist.record_duration(backoff);
            std::thread::sleep(backoff);
            attempt += 1;
            self.fabric.retransmits.fetch_add(1, Ordering::Relaxed);
            self.fabric.telem.retransmits.incr();
        }
        self.fabric.messages.fetch_add(1, Ordering::Relaxed);
        self.fabric
            .bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.fabric.telem.msgs_sent.incr();
        self.fabric.telem.bytes_sent.add(data.len() as u64);
        Ok(())
    }

    fn recv(
        &self,
        from: RankId,
        tag: u64,
        should_stop: &dyn Fn() -> bool,
        deadline: Option<Instant>,
    ) -> Result<Vec<u8>, TransportError> {
        self.check_op_fault()?;
        let Some((_, src_alive)) = self.fabric.slot_of(from) else {
            return Err(TransportError::UnknownRank(from));
        };
        // Without an explicit deadline, an open-ended wait is bounded by the
        // suspicion timeout (when configured): a peer silent past it is
        // treated as failed, not merely slow. Per-rank jitter desynchronizes
        // the deadlines so a node-level death is suspected once and
        // coalesced everywhere else.
        let suspicion = match deadline {
            Some(_) => None,
            None => self
                .fabric
                .suspicion_timeout()
                .map(|t| suspicion_jitter(self.rank, t)),
        };
        let effective = deadline.or_else(|| suspicion.map(|t| Instant::now() + t));
        use crate::mailbox::RecvOutcome;
        match self.mailbox.pop_matching(
            from,
            tag,
            || src_alive.load(Ordering::SeqCst),
            || self.alive.load(Ordering::SeqCst),
            should_stop,
            effective,
        ) {
            RecvOutcome::Message(data) => {
                self.fabric.telem.msgs_recvd.incr();
                self.fabric.telem.bytes_recvd.add(data.len() as u64);
                Ok(data)
            }
            RecvOutcome::SrcDead => Err(TransportError::PeerDead(from)),
            RecvOutcome::SelfDead => Err(TransportError::SelfDied),
            RecvOutcome::Stopped => Err(TransportError::Stopped),
            RecvOutcome::TimedOut => {
                if suspicion.is_some() {
                    // The stall exceeded the failure detector's deadline:
                    // declare the silent peer dead and report it as such.
                    self.fabric.suspect(from);
                    return Err(TransportError::PeerDead(from));
                }
                self.fabric.telem.recv_timeouts.incr();
                Err(TransportError::Timeout)
            }
        }
    }

    fn try_recv(&self, from: RankId, tag: u64) -> Option<Vec<u8>> {
        self.mailbox.try_pop(from, tag)
    }

    fn probe(&self, from: RankId, tag: u64) -> bool {
        self.mailbox.probe(from, tag)
    }

    fn purge_tags(&self, pred: &dyn Fn(u64) -> bool) -> usize {
        let purged = self.mailbox.purge_where(pred);
        self.fabric.telem.purged_msgs.add(purged as u64);
        purged
    }

    fn set_perturbation(&self, plan: PerturbPlan) {
        self.fabric.set_perturbation(plan);
    }

    fn set_suspicion_timeout(&self, timeout: Option<Duration>) {
        self.fabric.set_suspicion_timeout(timeout);
    }

    fn suspicion_timeout(&self) -> Option<Duration> {
        self.fabric.suspicion_timeout()
    }

    fn last_suspicion(&self) -> Option<Instant> {
        self.fabric.last_suspicion()
    }

    fn suspicion_batch_window(&self) -> Option<Duration> {
        self.fabric.suspicion_batch_window()
    }

    fn set_suspicion_batch_window(&self, window: Option<Duration>) {
        self.fabric.set_suspicion_batch_window(window);
    }

    fn broadcast_signal(&self, _payload: &[u8]) {
        // The in-process control plane *is* shared memory: revocation state
        // lives in one `Shared` and death wakes travel via `wake_all`.
    }

    fn set_signal_handler(&self, _handler: SignalHandler) {
        // No out-of-band signals in process; nothing will ever invoke it.
    }

    fn stats(&self) -> FabricStats {
        self.fabric.stats()
    }

    fn shutdown(&self) {
        // The fabric is shared by every rank in the job; it is torn down by
        // dropping the last Arc, not by any single rank's endpoint.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Endpoint;
    use crate::fault::FaultPlan;

    fn fabric_with(n: usize) -> (Arc<Fabric>, Vec<Endpoint>) {
        let f = Fabric::without_faults(Topology::flat());
        let ranks = f.register_ranks(n);
        let eps = ranks
            .into_iter()
            .map(|r| Endpoint::new(Arc::clone(&f), r))
            .collect();
        (f, eps)
    }

    #[test]
    fn send_recv_roundtrip() {
        let (_f, eps) = fabric_with(2);
        eps[0].send(RankId(1), 9, b"hello").unwrap();
        assert_eq!(eps[1].recv(RankId(0), 9).unwrap(), b"hello");
    }

    #[test]
    fn send_to_dead_peer_reports_proc_failed() {
        let (f, eps) = fabric_with(2);
        f.kill_rank(RankId(1));
        assert_eq!(
            eps[0].send(RankId(1), 0, b"x"),
            Err(TransportError::PeerDead(RankId(1)))
        );
    }

    #[test]
    fn recv_from_dead_peer_after_drain() {
        let (f, eps) = fabric_with(2);
        eps[1].send(RankId(0), 3, b"last words").unwrap();
        f.kill_rank(RankId(1));
        // Buffered message first ...
        assert_eq!(eps[0].recv(RankId(1), 3).unwrap(), b"last words");
        // ... then the failure is reported.
        assert_eq!(
            eps[0].recv(RankId(1), 3),
            Err(TransportError::PeerDead(RankId(1)))
        );
    }

    #[test]
    fn blocked_recv_is_woken_by_death() {
        let (f, eps) = fabric_with(2);
        let e0 = eps[0].clone();
        let t = std::thread::spawn(move || e0.recv(RankId(1), 1));
        std::thread::sleep(Duration::from_millis(30));
        f.kill_rank(RankId(1));
        assert_eq!(t.join().unwrap(), Err(TransportError::PeerDead(RankId(1))));
    }

    #[test]
    fn scripted_death_at_op_count() {
        let plan = FaultPlan::none().kill_at_op(RankId(0), 2);
        let f = Fabric::new(Topology::flat(), FaultInjector::new(plan));
        let ranks = f.register_ranks(2);
        let e0 = Endpoint::new(Arc::clone(&f), ranks[0]);
        assert!(e0.send(RankId(1), 0, b"a").is_ok());
        assert_eq!(e0.send(RankId(1), 0, b"b"), Err(TransportError::SelfDied));
        assert!(!f.is_alive(RankId(0)));
    }

    #[test]
    fn scripted_death_at_fault_point() {
        let plan = FaultPlan::none().kill_at_point(RankId(0), "allreduce.step", 1);
        let f = Fabric::new(Topology::flat(), FaultInjector::new(plan));
        let r = f.register_rank();
        let e = Endpoint::new(Arc::clone(&f), r);
        assert_eq!(e.fault_point("other"), Ok(()));
        assert_eq!(
            e.fault_point("allreduce.step"),
            Err(TransportError::SelfDied)
        );
        assert!(!e.is_self_alive());
    }

    #[test]
    fn dead_rank_cannot_operate() {
        let (f, eps) = fabric_with(2);
        f.kill_rank(RankId(0));
        assert_eq!(
            eps[0].send(RankId(1), 0, b"x"),
            Err(TransportError::SelfDied)
        );
        assert_eq!(eps[0].recv(RankId(1), 0), Err(TransportError::SelfDied));
    }

    #[test]
    fn kill_node_kills_colocated_ranks_only() {
        let f = Fabric::without_faults(Topology::new(3));
        f.register_ranks(6);
        f.kill_node(NodeId(0));
        assert_eq!(f.alive_ranks(), vec![RankId(3), RankId(4), RankId(5)]);
        assert_eq!(f.dead_ranks(), vec![RankId(0), RankId(1), RankId(2)]);
        assert_eq!(f.stats().deaths, 3);
    }

    #[test]
    fn kill_is_idempotent() {
        let (f, _) = fabric_with(2);
        f.kill_rank(RankId(1));
        f.kill_rank(RankId(1));
        assert_eq!(f.stats().deaths, 1);
    }

    #[test]
    fn unknown_rank_errors() {
        let (_f, eps) = fabric_with(1);
        assert_eq!(
            eps[0].send(RankId(42), 0, b"x"),
            Err(TransportError::UnknownRank(RankId(42)))
        );
        assert_eq!(
            eps[0].recv(RankId(42), 0),
            Err(TransportError::UnknownRank(RankId(42)))
        );
    }

    #[test]
    fn dynamic_registration_grows_fabric() {
        let (f, eps) = fabric_with(2);
        let newcomer = f.register_rank();
        assert_eq!(newcomer, RankId(2));
        let e2 = Endpoint::new(Arc::clone(&f), newcomer);
        e2.send(RankId(0), 5, b"joined").unwrap();
        assert_eq!(eps[0].recv(newcomer, 5).unwrap(), b"joined");
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let (f, eps) = fabric_with(2);
        eps[0].send(RankId(1), 0, &[0u8; 10]).unwrap();
        eps[0].send(RankId(1), 0, &[0u8; 32]).unwrap();
        let s = f.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes, 42);
    }

    #[test]
    fn recv_timeout_expires() {
        let (_f, eps) = fabric_with(2);
        assert_eq!(
            eps[0].recv_timeout(RankId(1), 0, Duration::from_millis(15)),
            Err(TransportError::Timeout)
        );
    }

    #[test]
    fn retire_marks_self_dead() {
        let (f, eps) = fabric_with(2);
        eps[1].retire();
        assert!(!f.is_alive(RankId(1)));
        assert!(f.is_alive(RankId(0)));
    }

    #[test]
    fn lossy_link_heals_via_retransmission() {
        use crate::perturb::{LinkPerturb, PerturbPlan, RetryPolicy};
        let (f, eps) = fabric_with(2);
        f.set_perturbation(
            PerturbPlan::seeded(11)
                .all_links(LinkPerturb::clean().drop(0.4).duplicate(0.2).corrupt(0.2))
                .retry(RetryPolicy {
                    max_retries: 32,
                    base: Duration::from_micros(20),
                    cap: Duration::from_micros(500),
                }),
        );
        for i in 0..100u64 {
            eps[0].send(RankId(1), 9, &i.to_le_bytes()).unwrap();
        }
        for i in 0..100u64 {
            assert_eq!(eps[1].recv(RankId(0), 9).unwrap(), i.to_le_bytes());
        }
        let s = f.stats();
        assert!(s.retransmits > 0, "a 40% drop rate must force retransmits");
        assert_eq!(s.messages, 100, "every payload delivered exactly once");
        assert_eq!(s.deaths, 0);
    }

    #[test]
    fn total_link_loss_turns_into_suspicion() {
        use crate::perturb::{LinkPerturb, PerturbPlan, RetryPolicy};
        let (f, eps) = fabric_with(2);
        f.set_perturbation(
            PerturbPlan::seeded(5)
                .link(RankId(0), RankId(1), LinkPerturb::clean().drop(1.0))
                .retry(RetryPolicy {
                    max_retries: 4,
                    base: Duration::from_micros(50),
                    cap: Duration::from_micros(200),
                }),
        );
        assert_eq!(
            eps[0].send(RankId(1), 0, b"void"),
            Err(TransportError::PeerDead(RankId(1)))
        );
        assert!(!f.is_alive(RankId(1)), "unreachable peer must be suspected");
        assert_eq!(f.stats().suspicions, 1);
    }

    #[test]
    fn stalled_recv_suspects_silent_peer() {
        let (f, eps) = fabric_with(2);
        f.set_suspicion_timeout(Some(Duration::from_millis(20)));
        let start = Instant::now();
        // Rank 1 never sends: the stall converts to a PeerDead report.
        assert_eq!(
            eps[0].recv(RankId(1), 3),
            Err(TransportError::PeerDead(RankId(1)))
        );
        assert!(start.elapsed() < Duration::from_secs(1));
        assert!(!f.is_alive(RankId(1)));
        assert_eq!(f.stats().suspicions, 1);
    }

    #[test]
    fn explicit_recv_timeout_does_not_suspect() {
        let (f, eps) = fabric_with(2);
        f.set_suspicion_timeout(Some(Duration::from_millis(5)));
        // An explicit deadline is the caller's own polling timeout (the gloo
        // op-timeout path); it must stay a plain Timeout with no kill.
        assert_eq!(
            eps[0].recv_timeout(RankId(1), 0, Duration::from_millis(10)),
            Err(TransportError::Timeout)
        );
        assert!(f.is_alive(RankId(1)));
        assert_eq!(f.stats().suspicions, 0);
    }

    #[test]
    fn suspected_rank_observes_own_death_while_blocked() {
        let (f, eps) = fabric_with(3);
        f.set_suspicion_timeout(Some(Duration::from_millis(15)));
        // Rank 1 blocks forever on a channel nobody serves; rank 0 suspects
        // it in parallel. The blocked thread must wake with SelfDied.
        let e1 = eps[1].clone();
        let t = std::thread::spawn(move || e1.recv(RankId(2), 99));
        std::thread::sleep(Duration::from_millis(5));
        f.suspect(RankId(1));
        assert_eq!(t.join().unwrap(), Err(TransportError::SelfDied));
    }

    #[test]
    fn suspicion_jitter_is_deterministic_and_bounded() {
        let base = Duration::from_millis(40);
        for r in 0..256 {
            let j = suspicion_jitter(RankId(r), base);
            // Deterministic: same rank, same stretch.
            assert_eq!(j, suspicion_jitter(RankId(r), base));
            assert!(j >= base, "jitter must never shrink the timeout");
            assert!(j <= base + base.mul_f64(0.25), "jitter bounded at +25%");
        }
        // Neighboring ranks land on different deadlines (the whole point:
        // no synchronized suspicion storm on a node-level death).
        assert_ne!(
            suspicion_jitter(RankId(1), base),
            suspicion_jitter(RankId(2), base)
        );
    }

    #[test]
    fn repeat_suspicion_is_coalesced() {
        let (f, _eps) = fabric_with(3);
        let coalesced = telemetry::counter("transport.suspicion.coalesced");
        let before = coalesced.get();
        f.suspect(RankId(2));
        assert_eq!(f.stats().suspicions, 1);
        assert!(f.last_suspicion().is_some());
        // Every further observer of the same death coalesces: no new
        // suspicion count, no new revoke trigger.
        f.suspect(RankId(2));
        f.suspect(RankId(2));
        assert_eq!(f.stats().suspicions, 1);
        assert_eq!(coalesced.get() - before, 2);
    }

    #[test]
    fn settle_suspicions_waits_out_the_batch_window() {
        let (f, eps) = fabric_with(3);
        // No window configured: settle is a no-op even after a suspicion.
        f.suspect(RankId(1));
        let t0 = Instant::now();
        eps[0].settle_suspicions();
        assert!(t0.elapsed() < Duration::from_millis(10));
        // With a window, settling blocks until the last suspicion is at
        // least a window old.
        f.set_suspicion_batch_window(Some(Duration::from_millis(25)));
        f.suspect(RankId(2));
        let t1 = Instant::now();
        eps[0].settle_suspicions();
        assert!(t1.elapsed() >= Duration::from_millis(20));
        // Already settled: a second call returns immediately.
        let t2 = Instant::now();
        eps[0].settle_suspicions();
        assert!(t2.elapsed() < Duration::from_millis(10));
    }

    #[test]
    fn gated_perturbation_activates_at_fault_point() {
        use crate::perturb::{LinkPerturb, PerturbPlan, RetryPolicy};
        let (f, eps) = fabric_with(2);
        f.set_perturbation(
            PerturbPlan::seeded(3)
                .all_links(LinkPerturb::clean().drop(1.0))
                .retry(RetryPolicy {
                    max_retries: 2,
                    base: Duration::from_micros(20),
                    cap: Duration::from_micros(50),
                })
                .active_from_point("phase.two"),
        );
        eps[0].send(RankId(1), 0, b"clean").unwrap();
        eps[0].fault_point("phase.two").unwrap();
        assert_eq!(
            eps[0].send(RankId(1), 0, b"lost"),
            Err(TransportError::PeerDead(RankId(1)))
        );
    }
}

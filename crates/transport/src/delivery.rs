//! The delivery engine: the reliable-delivery contract of [`Backend`],
//! written once over a small private [`Link`] trait.
//!
//! Everything that makes the transport *reliable and fault-aware* lives
//! here and nowhere else: the scripted fault hooks, sequence numbering,
//! perturbation of each transmission, the ack / retransmit / backoff loop
//! with its retry budget, both suspicion rules (send-retry exhaustion and a
//! stalled open-ended receive) with their count-once-else-coalesce
//! accounting, receive-side corrupt / duplicate accounting, and the traffic
//! counters. A backend is only the *link* underneath — how a frame copy
//! gets to a peer, how its ack comes back, how liveness is learnt and how a
//! death is carried out — and gets its whole [`Backend`] implementation
//! from the one blanket `impl` at the bottom of this file.

use crate::backend::{Backend, SignalHandler};
use crate::error::TransportError;
use crate::fault::FaultInjector;
use crate::ids::{RankId, Topology};
use crate::mailbox::{FrameAck, Mailbox, RecvOutcome};
use crate::perturb::{PerturbPlan, Perturber};
use crate::wire;
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::borrow::{Borrow, Cow};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::{Counter, Histogram};

/// Cached telemetry handles — resolved once per engine so the hot
/// send/recv paths pay one relaxed atomic add, not a registry lookup.
/// Every backend reports under the same `transport.*` metric names.
struct Telemetry {
    msgs_sent: Arc<Counter>,
    bytes_sent: Arc<Counter>,
    msgs_recvd: Arc<Counter>,
    bytes_recvd: Arc<Counter>,
    deaths: Arc<Counter>,
    fault_point_hits: Arc<Counter>,
    op_fault_hits: Arc<Counter>,
    purged_msgs: Arc<Counter>,
    recv_timeouts: Arc<Counter>,
    retransmits: Arc<Counter>,
    corrupt_frames: Arc<Counter>,
    dup_suppressed: Arc<Counter>,
    frames_dropped: Arc<Counter>,
    frames_delayed: Arc<Counter>,
    frames_duplicated: Arc<Counter>,
    frames_reordered: Arc<Counter>,
    suspicions: Arc<Counter>,
    suspicion_coalesced: Arc<Counter>,
    delay_hist: Arc<Histogram>,
    backoff_hist: Arc<Histogram>,
}

impl Telemetry {
    fn new() -> Self {
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

/// One rank in an engine's peer table: the liveness flag plus whatever the
/// link keeps per peer — its mailbox in process, its connection over
/// sockets. Slots are only ever appended (death is a permanent state, as in
/// ULFM), so the table can grow while collectives run and a holder of an
/// `Arc` never sees a slot disappear.
pub(crate) struct Slot<P> {
    alive: AtomicBool,
    pub(crate) port: P,
}

impl<P> Slot<P> {
    pub(crate) fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }
}

/// The engine's state: one view of the job — who is in it and who is still
/// alive — with the fault plans, suspicion configuration, sender sequence
/// numbers and traffic counters that go with that view. The in-process
/// fabric holds one, shared by all its ranks (so [`crate::Fabric::stats`]
/// and the alive table are job-wide); a socket backend holds its own.
pub(crate) struct Engine<P> {
    pub(crate) topology: Topology,
    /// Peer table indexed by rank.
    table: RwLock<Vec<Arc<Slot<P>>>>,
    pub(crate) injector: FaultInjector,
    pub(crate) perturber: RwLock<Arc<Perturber>>,
    /// Sender-side sequence counters per (src, dst, tag) channel.
    tx_seq: Mutex<HashMap<(RankId, RankId, u64), u64>>,
    /// If set, a blocking receive with no explicit deadline that stalls past
    /// this duration suspects the silent peer dead (timeout-based failure
    /// detection). `None` (the default) models a perfect, hang-free network.
    pub(crate) suspicion: RwLock<Option<Duration>>,
    /// Suspicion batching window: after a suspicion lands, further
    /// suspicions within this window belong to the same burst, and
    /// recovery (via `Endpoint::settle_suspicions`) waits the window out
    /// before agreeing on the failed set. `None` disables batching.
    pub(crate) suspicion_batch: RwLock<Option<Duration>>,
    /// When the most recent alive→dead suspicion transition was recorded.
    pub(crate) last_suspicion: Mutex<Option<Instant>>,
    messages: AtomicU64,
    bytes: AtomicU64,
    deaths: AtomicU64,
    retransmits: AtomicU64,
    corrupt_frames: AtomicU64,
    dup_suppressed: AtomicU64,
    suspicions: AtomicU64,
    telem: Telemetry,
}

impl<P> Engine<P> {
    pub(crate) fn new(topology: Topology, injector: FaultInjector) -> Self {
        Self {
            topology,
            table: RwLock::new(Vec::new()),
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
            telem: Telemetry::new(),
        }
    }

    /// Append one rank (alive) and return its id. Ids are dense and
    /// permanent.
    pub(crate) fn push(&self, port: P) -> RankId {
        let mut table = self.table.write();
        table.push(Arc::new(Slot {
            alive: AtomicBool::new(true),
            port,
        }));
        RankId(table.len() - 1)
    }

    /// Grow the table until `rank` has a slot (new slots are alive, with a
    /// `vacant` port). Idempotent; existing slots are untouched.
    pub(crate) fn ensure(&self, rank: RankId, vacant: impl Fn() -> P) -> Arc<Slot<P>> {
        loop {
            if let Some(slot) = self.slot(rank) {
                return slot;
            }
            self.push(vacant());
        }
    }

    /// `rank`'s slot; `None` if it was never part of the job.
    pub(crate) fn slot(&self, rank: RankId) -> Option<Arc<Slot<P>>> {
        self.table.read().get(rank.0).cloned()
    }

    /// The whole table, in id order, under its read lock: clone it before
    /// calling anything that looks slots up again.
    pub(crate) fn slots(&self) -> RwLockReadGuard<'_, Vec<Arc<Slot<P>>>> {
        self.table.read()
    }

    pub(crate) fn total_ranks(&self) -> usize {
        self.table.read().len()
    }

    pub(crate) fn is_alive(&self, rank: RankId) -> bool {
        self.table.read().get(rank.0).is_some_and(|s| s.is_alive())
    }

    /// Snapshot of the ranks currently alive (or dead), in id order.
    pub(crate) fn ranks_where(&self, alive: bool) -> Vec<RankId> {
        let table = self.table.read();
        let ids = (0..table.len()).filter(|&r| table[r].is_alive() == alive);
        ids.map(RankId).collect()
    }

    /// Record `rank`'s death in this view. True iff this call made the
    /// alive→dead transition — the caller then owes the wake-ups and
    /// whatever teardown its link needs; false if the rank is unknown or
    /// was dead already.
    pub(crate) fn mark_dead(&self, rank: RankId) -> bool {
        let died = self
            .slot(rank)
            .is_some_and(|s| s.alive.swap(false, Ordering::SeqCst));
        if died {
            self.deaths.fetch_add(1, Ordering::Relaxed);
            self.telem.deaths.incr();
        }
        died
    }

    pub(crate) fn set_perturbation(&self, plan: PerturbPlan) {
        *self.perturber.write() = Arc::new(Perturber::new(plan));
    }

    pub(crate) fn stats(&self) -> FabricStats {
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

    /// The one suspicion rule. A verdict against a rank still `alive` in
    /// the caller's view counts once, stamps the burst clock and is carried
    /// out by `condemn`; a verdict against a rank already dead is
    /// *coalesced* (counted under `transport.suspicion.coalesced`,
    /// otherwise a no-op), which is what keeps a node-level burst from
    /// fanning out into a storm of redundant revokes.
    pub(crate) fn suspect(&self, alive: bool, condemn: impl FnOnce()) {
        if alive {
            self.suspicions.fetch_add(1, Ordering::Relaxed);
            self.telem.suspicions.incr();
            *self.last_suspicion.lock() = Some(Instant::now());
            condemn();
        } else {
            self.telem.suspicion_coalesced.incr();
        }
    }

    /// The one receive path for an encoded frame: verify it (checksum fused
    /// into the payload copy), run `on_valid` — where a wire link sends its
    /// ack *before* delivery can wake anyone — then hand it to `mailbox`,
    /// counting corrupt and duplicate copies. Returns the link-layer ack.
    pub(crate) fn receive(
        &self,
        bytes: &[u8],
        mailbox: &Mailbox,
        on_valid: impl FnOnce(&wire::Frame),
    ) -> FrameAck {
        let ack = match wire::decode_frame(bytes) {
            Ok(frame) => {
                on_valid(&frame);
                mailbox.accept(frame)
            }
            Err(e) => FrameAck::Corrupt(e),
        };
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
        ack
    }

    fn next_tx_seq(&self, src: RankId, dst: RankId, tag: u64) -> u64 {
        let mut seqs = self.tx_seq.lock();
        let s = seqs.entry((src, dst, tag)).or_insert(0);
        let seq = *s;
        *s += 1;
        seq
    }
}

/// What a backend actually is: one rank's link to its peers. The engine
/// owns the contract and the view of who is alive; a link has four
/// obligations — [`Link::hand_off`], [`Link::await_ack`], [`Link::die`] and
/// [`Link::condemn`] — plus the control plane, which genuinely differs per
/// fabric and passes through from [`Backend`] under the same names.
pub(crate) trait Link: Send + Sync {
    /// What the engine's peer table keeps per rank for this link.
    type Port;
    /// The encoded frame as the link keeps it across attempts, so a clean
    /// link never copies it again: read in place (`Vec<u8>`) or shared with
    /// service threads (`Arc<Vec<u8>>`).
    type Frame: From<Vec<u8>> + Borrow<Vec<u8>>;
    /// What one attempt's hand-offs leave behind for [`Link::await_ack`].
    type Sent: Default;

    fn rank(&self) -> RankId;
    /// The engine this link reports into.
    fn engine(&self) -> &Engine<Self::Port>;
    /// The local rank's mailbox.
    fn mailbox(&self) -> &Mailbox;
    fn self_alive(&self) -> bool {
        self.engine().is_alive(self.rank())
    }

    /// Hand one copy of the frame toward `to`: `copy` is `frame` itself when
    /// borrowed, a mangled or stashed version when owned. A link that is a
    /// function call (in process, or any rank to itself) delivers through
    /// [`Engine::receive`] and returns the ack; a link with a wire in
    /// between queues the copy, notes it in `sent` and returns `None`.
    fn hand_off(
        &self,
        to: RankId,
        peer: &Slot<Self::Port>,
        frame: &Self::Frame,
        copy: Cow<'_, [u8]>,
        sent: &mut Self::Sent,
    ) -> Option<FrameAck>;

    /// No copy of `(to, tag, seq)` was acked at hand-off: wait for its ack
    /// up to `backoff` (plus whatever grace the link's round trip needs).
    /// `Err(spent)` is "unacked, and `spent` of the backoff already went by
    /// waiting" — the engine sleeps the remainder before it retransmits.
    /// The default is the function-call link's: nothing is ever in flight,
    /// so an unacked copy is lost and none of the backoff is spent yet.
    fn await_ack(
        &self,
        _to: RankId,
        _peer: &Slot<Self::Port>,
        _tag: u64,
        _seq: u64,
        _sent: Self::Sent,
        _backoff: Duration,
    ) -> Result<(), Duration> {
        Err(Duration::ZERO)
    }

    /// Die now, like a crash: a scripted fault fired, or this rank was
    /// asked to suspect itself.
    fn die(&self);
    /// Carry out a suspicion verdict on `rank`: mark it dead in my view,
    /// release everyone blocked on it, and make sure the suspect itself
    /// observes its death if it is still there to observe anything.
    fn condemn(&self, rank: RankId);
    /// Voluntary, clean departure. Where peers learn of a death from shared
    /// state there is no goodbye to say: it is [`Link::die`].
    fn kill_self(&self) {
        self.die();
    }
    fn wake_all(&self);
    /// A control plane that *is* shared memory has nothing to send …
    fn broadcast_signal(&self, _payload: &[u8]) {}
    /// … and nothing will ever invoke a handler.
    fn set_signal_handler(&self, _handler: SignalHandler) {}
    /// One shared peer table already knows every rank.
    fn expect_rank(&self, _rank: RankId) {}
    /// A link that needs no connection is always up.
    fn connect_peer(&self, _rank: RankId, _addr: &str) -> bool {
        true
    }
    /// Without threads or sockets of its own a link is torn down by
    /// dropping it.
    fn shutdown(&self) {}
}

/// The one implementation of the transport contract: every link is a
/// backend. `Link` is crate-private, so this adds no way to *make* a
/// backend from outside — other crates still implement [`Backend`] itself
/// for their own types (decorators, test fakes).
impl<L: Link> Backend for L {
    fn rank(&self) -> RankId {
        Link::rank(self)
    }

    fn topology(&self) -> Topology {
        self.engine().topology
    }

    fn total_ranks(&self) -> usize {
        self.engine().total_ranks()
    }

    fn is_alive(&self, rank: RankId) -> bool {
        self.engine().is_alive(rank)
    }

    fn alive_ranks(&self) -> Vec<RankId> {
        self.engine().ranks_where(true)
    }

    fn suspect(&self, rank: RankId) {
        if rank == Link::rank(self) {
            // Suspecting yourself is dying: a death, not a suspicion.
            return self.die();
        }
        let eng = self.engine();
        eng.suspect(eng.is_alive(rank), || self.condemn(rank));
    }

    fn kill_self(&self) {
        Link::kill_self(self);
    }

    fn wake_all(&self) {
        Link::wake_all(self);
    }

    fn check_op_fault(&self) -> Result<(), TransportError> {
        if !self.self_alive() {
            return Err(TransportError::SelfDied);
        }
        let eng = self.engine();
        if eng.injector.hit_op(Link::rank(self)) {
            eng.telem.op_fault_hits.incr();
            self.die();
            return Err(TransportError::SelfDied);
        }
        Ok(())
    }

    fn fault_point(&self, name: &str) -> Result<(), TransportError> {
        if !self.self_alive() {
            return Err(TransportError::SelfDied);
        }
        let eng = self.engine();
        eng.perturber.read().notify_point(name);
        if eng.injector.hit_point(Link::rank(self), name) {
            eng.telem.fault_point_hits.incr();
            self.die();
            return Err(TransportError::SelfDied);
        }
        Ok(())
    }

    fn send(&self, to: RankId, tag: u64, data: &[u8]) -> Result<(), TransportError> {
        self.check_op_fault()?;
        let (eng, me) = (self.engine(), Link::rank(self));
        let Some(peer) = eng.slot(to) else {
            return Err(TransportError::UnknownRank(to));
        };
        if !peer.is_alive() {
            return Err(TransportError::PeerDead(to));
        }
        let seq = eng.next_tx_seq(me, to, tag);
        // Encoded once; every (re)transmission on a clean link hands off
        // this same buffer.
        let frame = L::Frame::from(wire::encode_frame(me, tag, seq, data));
        let mut perturber = Arc::clone(&eng.perturber.read());
        let policy = perturber.plan().retry_policy();
        let mut attempt = 0u32;
        loop {
            // One physical transmission attempt under the perturbation plan.
            let verdict = perturber.transmit(me, to, frame.borrow());
            if verdict.dropped {
                eng.telem.frames_dropped.incr();
            }
            if verdict.duplicated {
                eng.telem.frames_duplicated.incr();
            }
            if verdict.reordered {
                eng.telem.frames_reordered.incr();
            }
            // Only a copy of the *current* frame acks it: stashed flushes
            // ack on behalf of older frames, which already retransmit
            // independently.
            let mut acked = false;
            let mut sent = L::Sent::default();
            for d in verdict.deliveries {
                if let Some(delay) = d.delay {
                    // The "propagation delay" runs on the sender thread: a
                    // slow link is a slow hand-off, whatever carries it.
                    eng.telem.frames_delayed.incr();
                    eng.telem.delay_hist.record_duration(delay);
                    std::thread::sleep(delay);
                }
                let ack = self.hand_off(to, &peer, &frame, d.bytes, &mut sent);
                acked |= d.current && ack.is_some_and(|a| a.is_acked());
            }
            if acked {
                break;
            }
            let salt = perturber.backoff_salt(me, to, tag, seq, attempt);
            let backoff = policy.backoff(attempt, salt);
            let Err(spent) = self.await_ack(to, &peer, tag, seq, sent, backoff) else {
                break;
            };
            // Unacked: the frame (or every copy of it) was lost. Re-check
            // liveness between attempts — death reports beat link errors.
            if !self.self_alive() {
                return Err(TransportError::SelfDied);
            }
            if !peer.is_alive() {
                return Err(TransportError::PeerDead(to));
            }
            if attempt >= policy.max_retries {
                // The link is silent past the retry budget: suspect the
                // peer, feeding the ULFM revoke → agree → shrink path.
                Backend::suspect(self, to);
                return Err(TransportError::PeerDead(to));
            }
            eng.telem.backoff_hist.record_duration(backoff);
            std::thread::sleep(backoff.saturating_sub(spent));
            attempt += 1;
            eng.retransmits.fetch_add(1, Ordering::Relaxed);
            eng.telem.retransmits.incr();
            // A plan installed mid-send takes effect from the next attempt.
            perturber = Arc::clone(&eng.perturber.read());
        }
        eng.messages.fetch_add(1, Ordering::Relaxed);
        eng.bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        eng.telem.msgs_sent.incr();
        eng.telem.bytes_sent.add(data.len() as u64);
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
        let eng = self.engine();
        let Some(src) = eng.slot(from) else {
            return Err(TransportError::UnknownRank(from));
        };
        // Without an explicit deadline, an open-ended wait is bounded by the
        // suspicion timeout (when configured): a peer silent past it is
        // treated as failed, not merely slow. Per-rank jitter desynchronizes
        // the deadlines so a node-level death is suspected once and
        // coalesced everywhere else.
        let suspicion = match deadline {
            Some(_) => None,
            None => (*eng.suspicion.read()).map(|t| suspicion_jitter(Link::rank(self), t)),
        };
        let effective = deadline.or_else(|| suspicion.map(|t| Instant::now() + t));
        match self.mailbox().pop_matching(
            from,
            tag,
            || src.is_alive(),
            || self.self_alive(),
            should_stop,
            effective,
        ) {
            RecvOutcome::Message(data) => {
                eng.telem.msgs_recvd.incr();
                eng.telem.bytes_recvd.add(data.len() as u64);
                Ok(data)
            }
            RecvOutcome::SrcDead => Err(TransportError::PeerDead(from)),
            RecvOutcome::SelfDead => Err(TransportError::SelfDied),
            RecvOutcome::Stopped => Err(TransportError::Stopped),
            RecvOutcome::TimedOut if suspicion.is_some() => {
                // The stall exceeded the failure detector's deadline:
                // declare the silent peer dead and report it as such.
                Backend::suspect(self, from);
                Err(TransportError::PeerDead(from))
            }
            RecvOutcome::TimedOut => {
                eng.telem.recv_timeouts.incr();
                Err(TransportError::Timeout)
            }
        }
    }

    fn try_recv(&self, from: RankId, tag: u64) -> Option<Vec<u8>> {
        self.mailbox().try_pop(from, tag)
    }

    fn probe(&self, from: RankId, tag: u64) -> bool {
        self.mailbox().probe(from, tag)
    }

    fn purge_tags(&self, pred: &dyn Fn(u64) -> bool) -> usize {
        let purged = self.mailbox().purge_where(pred);
        self.engine().telem.purged_msgs.add(purged as u64);
        purged
    }

    fn set_perturbation(&self, plan: PerturbPlan) {
        self.engine().set_perturbation(plan);
    }

    fn set_suspicion_timeout(&self, timeout: Option<Duration>) {
        *self.engine().suspicion.write() = timeout;
    }

    fn suspicion_timeout(&self) -> Option<Duration> {
        *self.engine().suspicion.read()
    }

    fn last_suspicion(&self) -> Option<Instant> {
        *self.engine().last_suspicion.lock()
    }

    fn suspicion_batch_window(&self) -> Option<Duration> {
        *self.engine().suspicion_batch.read()
    }

    fn set_suspicion_batch_window(&self, window: Option<Duration>) {
        *self.engine().suspicion_batch.write() = window;
    }

    fn broadcast_signal(&self, payload: &[u8]) {
        Link::broadcast_signal(self, payload);
    }

    fn set_signal_handler(&self, handler: SignalHandler) {
        Link::set_signal_handler(self, handler);
    }

    fn stats(&self) -> FabricStats {
        self.engine().stats()
    }

    fn shutdown(&self) {
        Link::shutdown(self);
    }

    fn expect_rank(&self, rank: RankId) {
        Link::expect_rank(self, rank);
    }

    fn connect_peer(&self, rank: RankId, addr: &str) -> bool {
        Link::connect_peer(self, rank, addr)
    }
}

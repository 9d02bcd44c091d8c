//! The delivery engine: the reliable-delivery contract of [`Backend`],
//! written once over a small private [`Link`] trait.
//!
//! Everything that makes the transport *fault-aware* lives here: the
//! scripted fault hooks, both suspicion rules (send-retry exhaustion and a
//! stalled open-ended receive) with their count-once-else-coalesce
//! accounting, receive-side corrupt / duplicate accounting, and the traffic
//! counters. What makes it *reliable* over a lossy link — sequence numbers,
//! dedup, reorder and the ack / retransmit / backoff loop — is
//! [`crate::reliable`], which a send goes through only where loss exists:
//! from the first installed plan that perturbs a link ([`Engine::lossy`]),
//! on every link alike. A clean send is encoded, handed over once and done.
//! A backend is only the *link* underneath — how a frame copy gets to a
//! peer, how liveness is learnt and how a death is carried out — and gets
//! its whole [`Backend`] implementation from the one blanket `impl` at the
//! bottom of this file.

use crate::backend::{Backend, SignalHandler};
use crate::error::TransportError;
use crate::fabric::HAND_OVER_MIN;
use crate::fault::{FaultInjector, RankFaults};
use crate::ids::{RankId, Topology};
use crate::mailbox::{FrameAck, Mailbox, RecvOutcome};
use crate::perturb::{PerturbPlan, Perturber, RetryPolicy};
use crate::reliable::{self, Cursors};
use crate::wire::{self, Fill, Payload, FRAME_HEADER, FRAME_TRAILER};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Telemetry handles, resolved once per process (not per engine): the hot
/// send/recv paths pay one relaxed atomic add, not a registry lookup, and
/// building a world looks nothing up. Every backend reports under the same
/// `transport.*` metric names.
pub(crate) mod telem {
    use telemetry::{Counter, Lazy};
    pub(super) static MSGS_SENT: Lazy<Counter> = Lazy::counter("transport.msgs_sent");
    pub(super) static BYTES_SENT: Lazy<Counter> = Lazy::counter("transport.bytes_sent");
    pub(super) static MSGS_RECVD: Lazy<Counter> = Lazy::counter("transport.msgs_recvd");
    pub(super) static BYTES_RECVD: Lazy<Counter> = Lazy::counter("transport.bytes_recvd");
    pub(super) static DEATHS: Lazy<Counter> = Lazy::counter("transport.deaths");
    pub(super) static FAULT_POINT_HITS: Lazy<Counter> = Lazy::counter("transport.fault_point_hits");
    pub(super) static OP_FAULT_HITS: Lazy<Counter> = Lazy::counter("transport.op_fault_hits");
    pub(super) static PURGED_MSGS: Lazy<Counter> = Lazy::counter("transport.purged_msgs");
    pub(super) static RECV_TIMEOUTS: Lazy<Counter> = Lazy::counter("transport.recv_timeouts");
    pub(super) static CORRUPT_FRAMES: Lazy<Counter> = Lazy::counter("transport.corrupt_frames");
    pub(super) static DUP_SUPPRESSED: Lazy<Counter> = Lazy::counter("transport.dup_suppressed");
    pub(super) static SUSPICIONS: Lazy<Counter> = Lazy::counter("transport.suspicions");
    pub(super) static SUSPICION_COALESCED: Lazy<Counter> =
        Lazy::counter("transport.suspicion.coalesced");
    pub(crate) static FRAMES_RECYCLED: Lazy<Counter> = Lazy::counter("transport.frames_recycled");
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
    /// Duplicate frames suppressed by the receiver's per-link cursors.
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

/// An `Option<Duration>` setting that the message path reads: whole
/// nanoseconds in one word (`u64::MAX` is `None`), so reading it takes no
/// lock. Durations past 584 years read back as `None`.
pub(crate) struct AtomicTimeout(AtomicU64);

impl AtomicTimeout {
    fn none() -> Self {
        Self(AtomicU64::new(u64::MAX))
    }

    pub(crate) fn get(&self) -> Option<Duration> {
        let nanos = self.0.load(Ordering::SeqCst);
        (nanos != u64::MAX).then(|| Duration::from_nanos(nanos))
    }

    pub(crate) fn set(&self, timeout: Option<Duration>) {
        let nanos = timeout.map_or(u64::MAX, |t| {
            u64::try_from(t.as_nanos()).unwrap_or(u64::MAX)
        });
        self.0.store(nanos, Ordering::SeqCst);
    }
}

/// What only a rank's *own* sends and receives write: traffic counts, a
/// spare frame. On cache lines of its own, so a sender never invalidates a
/// line its peers read (`alive`) or write (the mailbox in `port`).
#[derive(Default)]
#[repr(align(64))]
struct Tx {
    /// Messages this rank got delivered.
    messages: AtomicU64,
    /// Payload bytes of those.
    bytes: AtomicU64,
    /// The last frame handed to this rank whole, once lent: its next large
    /// send is encoded into it (DESIGN §10, "Which buffer crosses threads").
    spare: Mutex<Vec<u8>>,
}

impl Tx {
    /// The buffer to encode a `len`-byte payload into: the spare, if the
    /// payload may be handed over and the spare fits its frame; a spare that
    /// does not fit is dropped, never grown.
    fn frame_buffer(&self, len: usize) -> Vec<u8> {
        if len < HAND_OVER_MIN {
            return Vec::new();
        }
        let spare = std::mem::take(&mut *self.spare.lock());
        if spare.capacity() < FRAME_HEADER + len + FRAME_TRAILER {
            return Vec::new();
        }
        telem::FRAMES_RECYCLED.incr();
        spare
    }
}

/// One rank in an engine's peer table: the liveness flag, the sender-side
/// state of the rank's own traffic, the rank's per-link cursors for when its
/// frames are numbered, plus whatever the link keeps per peer — its mailbox
/// in process, its connection over sockets. Slots are only ever appended
/// (death is a permanent state, as in ULFM) and never move, so the table
/// can grow while collectives run and a `&Slot` stays good for as long as
/// the engine does.
pub(crate) struct Slot<P> {
    alive: AtomicBool,
    tx: Tx,
    pub(crate) cursors: Cursors,
    pub(crate) port: P,
}

impl<P> Slot<P> {
    pub(crate) fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }
}

/// A run of slots, each set once when its rank is pushed.
type Bucket<P> = Box<[OnceLock<Slot<P>>]>;

/// The peer table: append-only, read without a lock. Bucket `b` holds ranks
/// `2ᵇ − 1 .. 2ᵇ⁺¹ − 1` and is allocated when the first of them is pushed,
/// so nothing is sized before the ranks exist and no slot is ever moved.
struct Table<P> {
    buckets: [OnceLock<Bucket<P>>; usize::BITS as usize],
    /// Slots pushed so far; a slot is published before it is counted.
    len: AtomicUsize,
    /// Serialises `push`.
    grow: Mutex<()>,
}

impl<P> Table<P> {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicUsize::new(0),
            grow: Mutex::new(()),
        }
    }

    /// (bucket, index within it) of a rank below `usize::MAX`.
    fn locate(rank: usize) -> (usize, usize) {
        let bucket = (rank + 1).ilog2() as usize;
        (bucket, rank + 1 - (1 << bucket))
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    fn get(&self, rank: usize) -> Option<&Slot<P>> {
        if rank >= self.len() {
            return None;
        }
        let (bucket, i) = Self::locate(rank);
        self.buckets[bucket].get()?[i].get()
    }

    fn push(&self, slot: Slot<P>) -> usize {
        let _one_at_a_time = self.grow.lock();
        let rank = self.len.load(Ordering::Relaxed);
        let (bucket, i) = Self::locate(rank);
        let bucket = self.buckets[bucket]
            .get_or_init(|| (0..1usize << bucket).map(|_| OnceLock::new()).collect());
        assert!(bucket[i].set(slot).is_ok(), "slot {rank} pushed twice");
        self.len.store(rank + 1, Ordering::Release);
        rank
    }
}

/// The engine's state: one view of the job — who is in it and who is still
/// alive — with the fault plans and suspicion configuration that go with
/// that view. The in-process fabric holds one, shared by all its ranks (so
/// [`crate::Fabric::stats`] and the alive table are job-wide); a socket
/// backend holds its own.
///
/// The sharing rule: a message on a clean link takes no lock and writes no
/// cache line here that another rank's `send` / `recv` also takes or writes.
/// What a message changes lives with its one writer — traffic counts
/// ([`Slot`]) and fault counters ([`RankFaults`]) with the sending rank —
/// and what it only reads (the table, `lossy`, the suspicion timeout) is
/// written at set-up or on a failure.
pub(crate) struct Engine<P> {
    pub(crate) topology: Topology,
    /// Peer table indexed by rank.
    table: Table<P>,
    pub(crate) injector: FaultInjector,
    /// The installed perturbation plan's executor; `None` until a plan is
    /// installed.
    perturber: RwLock<Option<Arc<Perturber>>>,
    /// Raised with the first plan that perturbs some link, never lowered;
    /// until then the lock above is left alone.
    lossy: AtomicBool,
    /// If set, a blocking receive with no explicit deadline that stalls past
    /// this duration suspects the silent peer dead (timeout-based failure
    /// detection). `None` (the default) models a perfect, hang-free network.
    pub(crate) suspicion: AtomicTimeout,
    /// Suspicion batching window: after a suspicion lands, further
    /// suspicions within this window belong to the same burst, and
    /// recovery (via `Endpoint::settle_suspicions`) waits the window out
    /// before agreeing on the failed set. `None` disables batching.
    pub(crate) suspicion_batch: AtomicTimeout,
    /// When the most recent alive→dead suspicion transition was recorded.
    pub(crate) last_suspicion: Mutex<Option<Instant>>,
    deaths: AtomicU64,
    retransmits: AtomicU64,
    corrupt_frames: AtomicU64,
    dup_suppressed: AtomicU64,
    suspicions: AtomicU64,
}

impl<P> Engine<P> {
    pub(crate) fn new(topology: Topology, injector: FaultInjector) -> Self {
        Self {
            topology,
            table: Table::new(),
            injector,
            perturber: RwLock::new(None),
            lossy: AtomicBool::new(false),
            suspicion: AtomicTimeout::none(),
            suspicion_batch: AtomicTimeout::none(),
            last_suspicion: Mutex::new(None),
            deaths: AtomicU64::new(0),
            retransmits: AtomicU64::new(0),
            corrupt_frames: AtomicU64::new(0),
            dup_suppressed: AtomicU64::new(0),
            suspicions: AtomicU64::new(0),
        }
    }

    /// Append one rank (alive) and return its id. Ids are dense and
    /// permanent.
    pub(crate) fn push(&self, port: P) -> RankId {
        RankId(self.table.push(Slot {
            alive: AtomicBool::new(true),
            tx: Tx::default(),
            cursors: Cursors::default(),
            port,
        }))
    }

    /// Grow the table until `rank` has a slot (new slots are alive, with a
    /// `vacant` port). Idempotent; existing slots are untouched.
    pub(crate) fn ensure(&self, rank: RankId, vacant: impl Fn() -> P) -> &Slot<P> {
        loop {
            if let Some(slot) = self.slot(rank) {
                return slot;
            }
            self.push(vacant());
        }
    }

    /// `rank`'s slot; `None` if it was never part of the job.
    pub(crate) fn slot(&self, rank: RankId) -> Option<&Slot<P>> {
        self.table.get(rank.0)
    }

    /// Every slot pushed so far, in id order.
    pub(crate) fn slots(&self) -> impl Iterator<Item = &Slot<P>> {
        (0..self.total_ranks()).filter_map(|r| self.table.get(r))
    }

    pub(crate) fn total_ranks(&self) -> usize {
        self.table.len()
    }

    pub(crate) fn is_alive(&self, rank: RankId) -> bool {
        self.slot(rank).is_some_and(|s| s.is_alive())
    }

    /// Snapshot of the ranks currently alive (or dead), in id order.
    pub(crate) fn ranks_where(&self, alive: bool) -> Vec<RankId> {
        let ids = self
            .slots()
            .enumerate()
            .filter(|(_, s)| s.is_alive() == alive);
        ids.map(|(r, _)| RankId(r)).collect()
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
            telem::DEATHS.incr();
        }
        died
    }

    /// Install `plan`; one that perturbs no link (a retry policy alone)
    /// leaves a clean engine clean.
    pub(crate) fn set_perturbation(&self, plan: PerturbPlan) {
        let perturbs = !plan.is_inert();
        *self.perturber.write() = Some(Arc::new(Perturber::new(plan)));
        self.lossy.fetch_or(perturbs, Ordering::SeqCst);
    }

    /// Can a link lose, duplicate, corrupt or reorder a frame? Only under a
    /// plan: a stream socket and an in-process hand-off are both reliable
    /// and ordered. Every send is then numbered and acked.
    pub(crate) fn lossy(&self) -> bool {
        self.lossy.load(Ordering::SeqCst)
    }

    /// The installed plan's retry policy; the default without a plan.
    pub(crate) fn retry_policy(&self) -> RetryPolicy {
        let perturber = self.perturber.read();
        perturber
            .as_ref()
            .map_or_else(RetryPolicy::default, |p| p.plan().retry_policy())
    }

    /// The installed plan's executor, once the engine is lossy.
    pub(crate) fn perturber(&self) -> Option<Arc<Perturber>> {
        if !self.lossy() {
            return None;
        }
        self.perturber.read().clone()
    }

    pub(crate) fn stats(&self) -> FabricStats {
        let (mut messages, mut bytes) = (0, 0);
        for s in self.slots() {
            messages += s.tx.messages.load(Ordering::Relaxed);
            bytes += s.tx.bytes.load(Ordering::Relaxed);
        }
        FabricStats {
            messages,
            bytes,
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
            telem::SUSPICIONS.incr();
            *self.last_suspicion.lock() = Some(Instant::now());
            condemn();
        } else {
            telem::SUSPICION_COALESCED.incr();
        }
    }

    /// Count one retransmission of a numbered frame.
    pub(crate) fn count_retransmit(&self) {
        self.retransmits.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a receive-side ack that is not a clean acceptance.
    pub(crate) fn count(&self, ack: FrameAck) -> FrameAck {
        match ack {
            FrameAck::Corrupt(_) => {
                self.corrupt_frames.fetch_add(1, Ordering::Relaxed);
                telem::CORRUPT_FRAMES.incr();
            }
            FrameAck::Duplicate => {
                self.dup_suppressed.fetch_add(1, Ordering::Relaxed);
                telem::DUP_SUPPRESSED.incr();
            }
            FrameAck::Accepted => {}
        }
        ack
    }
}

/// What a backend actually is: one rank's link to its peers. The engine
/// owns the contract, the view of who is alive and whether a frame can be
/// lost ([`Engine::lossy`]); a link delivers a clean frame
/// ([`Link::hand_over`]) or one numbered copy for [`reliable::send`]
/// ([`Link::hand_off`]), and carries out deaths ([`Link::die`],
/// [`Link::condemn`]) — plus the control plane, which genuinely differs per
/// fabric and passes through from [`Backend`] under the same names.
pub(crate) trait Link: Send + Sync {
    /// What the engine's peer table keeps per rank for this link.
    type Port;

    fn rank(&self) -> RankId;
    /// The engine this link reports into.
    fn engine(&self) -> &Engine<Self::Port>;
    /// The local rank's mailbox.
    fn mailbox(&self) -> &Mailbox;
    /// The local rank's share of the engine's fault injector.
    fn faults(&self) -> &RankFaults;
    /// The local rank's own slot: a link is only ever built for a rank its
    /// engine already holds.
    fn me(&self) -> &Slot<Self::Port> {
        let me = self.engine().slot(self.rank());
        me.expect("a link's own rank has a slot")
    }
    fn self_alive(&self) -> bool {
        self.me().is_alive()
    }

    /// Deliver the unnumbered frame of a clean send to `to`, once. False
    /// if the link refused it: the receiver found it corrupt, the link is
    /// closing or closed, or the peer never connected. Called only while
    /// the engine is not lossy.
    fn hand_over(&self, to: RankId, peer: &Slot<Self::Port>, frame: Vec<u8>) -> bool;

    /// Hand one copy of a numbered frame to `to`, synchronously: `copy` is
    /// `None` for `frame` itself, `Some` for a mangled or stashed version.
    /// True is the ack: the copy passed its checksum and reached the
    /// receiver's [`Cursors::receive`] (a function call) or left on a stream
    /// that delivers exactly the bytes written. False if it was corrupt or
    /// the link refused it.
    fn hand_off(
        &self,
        to: RankId,
        peer: &Slot<Self::Port>,
        frame: &[u8],
        copy: Option<Vec<u8>>,
    ) -> bool;

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
    /// Deliver a control-plane signal to every other live rank, once each.
    fn broadcast_signal(&self, payload: &[u8]);
    /// Install the handler this rank's signals from peers go to.
    fn set_signal_handler(&self, handler: SignalHandler);
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
        self.mailbox().wake_waiters();
    }

    fn check_op_fault(&self) -> Result<(), TransportError> {
        if !self.self_alive() {
            return Err(TransportError::SelfDied);
        }
        if self.faults().hit_op() {
            telem::OP_FAULT_HITS.incr();
            self.die();
            return Err(TransportError::SelfDied);
        }
        Ok(())
    }

    fn fault_point(&self, name: &str) -> Result<(), TransportError> {
        if !self.self_alive() {
            return Err(TransportError::SelfDied);
        }
        if let Some(perturber) = self.engine().perturber() {
            perturber.notify_point(name);
        }
        if self.faults().hit_point(name) {
            telem::FAULT_POINT_HITS.incr();
            self.die();
            return Err(TransportError::SelfDied);
        }
        Ok(())
    }

    fn send(&self, to: RankId, tag: u64, data: &[u8]) -> Result<(), TransportError> {
        self.send_with(to, tag, data.len(), &mut |at, chunk| {
            chunk.copy_from_slice(&data[at..at + chunk.len()]);
        })
    }

    fn send_with(
        &self,
        to: RankId,
        tag: u64,
        len: usize,
        f: Fill<'_>,
    ) -> Result<(), TransportError> {
        self.check_op_fault()?;
        let (eng, me) = (self.engine(), Link::rank(self));
        let Some(peer) = eng.slot(to) else {
            return Err(TransportError::UnknownRank(to));
        };
        if !peer.is_alive() {
            return Err(TransportError::PeerDead(to));
        }
        let mine = self.me();
        // Encoded once, the payload written straight into it.
        let buf = mine.tx.frame_buffer(len);
        if eng.lossy() {
            reliable::send(self, to, peer, tag, len, f, buf)?;
        } else {
            let frame = wire::encode_frame_with(buf, me, tag, 0, len, f);
            if !self.hand_over(to, peer, frame) {
                // A link that cannot lose a frame refused one: this rank is
                // leaving, or the peer is broken and the failure detector
                // reports it (coalesced if it is known dead).
                if !self.self_alive() {
                    return Err(TransportError::SelfDied);
                }
                Backend::suspect(self, to);
                return Err(TransportError::PeerDead(to));
            }
        }
        mine.tx.messages.fetch_add(1, Ordering::Relaxed);
        mine.tx.bytes.fetch_add(len as u64, Ordering::Relaxed);
        telem::MSGS_SENT.incr();
        telem::BYTES_SENT.add(len as u64);
        Ok(())
    }

    fn recv(
        &self,
        from: RankId,
        tag: u64,
        should_stop: &dyn Fn() -> bool,
        deadline: Option<Instant>,
    ) -> Result<Vec<u8>, TransportError> {
        receive(self, from, tag, should_stop, deadline).map(Payload::into_vec)
    }

    fn recv_with(
        &self,
        from: RankId,
        tag: u64,
        should_stop: &dyn Fn() -> bool,
        deadline: Option<Instant>,
        f: &mut dyn FnMut(&[u8]),
    ) -> Result<(), TransportError> {
        let payload = receive(self, from, tag, should_stop, deadline)?;
        f(&payload);
        // A frame handed over whole, lent and done with, is this rank's next
        // send buffer; a copied payload has no frame to give.
        if let Some(frame) = payload.into_frame() {
            *self.me().tx.spare.lock() = frame;
        }
        Ok(())
    }

    fn try_recv(&self, from: RankId, tag: u64) -> Option<Vec<u8>> {
        self.mailbox().try_pop(from, tag)
    }

    fn probe(&self, from: RankId, tag: u64) -> bool {
        self.mailbox().probe(from, tag)
    }

    fn purge_tags(&self, pred: &dyn Fn(u64) -> bool) -> usize {
        // Waiting frames first: one released in between is still purged.
        let purged = self.me().cursors.purge(pred) + self.mailbox().purge_where(pred);
        telem::PURGED_MSGS.add(purged as u64);
        purged
    }

    fn set_perturbation(&self, plan: PerturbPlan) {
        self.engine().set_perturbation(plan);
    }

    fn set_suspicion_timeout(&self, timeout: Option<Duration>) {
        self.engine().suspicion.set(timeout);
    }

    fn suspicion_timeout(&self) -> Option<Duration> {
        self.engine().suspicion.get()
    }

    fn last_suspicion(&self) -> Option<Instant> {
        *self.engine().last_suspicion.lock()
    }

    fn suspicion_batch_window(&self) -> Option<Duration> {
        self.engine().suspicion_batch.get()
    }

    fn set_suspicion_batch_window(&self, window: Option<Duration>) {
        self.engine().suspicion_batch.set(window);
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

/// The blocking matched receive under [`Backend::recv`] and
/// [`Backend::recv_with`]: the payload as it lies in the buffer it arrived in.
fn receive<L: Link>(
    link: &L,
    from: RankId,
    tag: u64,
    should_stop: &dyn Fn() -> bool,
    deadline: Option<Instant>,
) -> Result<Payload, TransportError> {
    link.check_op_fault()?;
    let eng = link.engine();
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
        None => eng
            .suspicion
            .get()
            .map(|t| suspicion_jitter(Link::rank(link), t)),
    };
    let effective = deadline.or_else(|| suspicion.map(|t| Instant::now() + t));
    match link.mailbox().pop_matching(
        from,
        tag,
        || src.is_alive(),
        || link.self_alive(),
        should_stop,
        effective,
    ) {
        RecvOutcome::Message(data) => {
            telem::MSGS_RECVD.incr();
            telem::BYTES_RECVD.add(data.len() as u64);
            Ok(data)
        }
        RecvOutcome::SrcDead => Err(TransportError::PeerDead(from)),
        RecvOutcome::SelfDead => Err(TransportError::SelfDied),
        RecvOutcome::Stopped => Err(TransportError::Stopped),
        RecvOutcome::TimedOut if suspicion.is_some() => {
            // The stall exceeded the failure detector's deadline:
            // declare the silent peer dead and report it as such.
            Backend::suspect(link, from);
            Err(TransportError::PeerDead(from))
        }
        RecvOutcome::TimedOut => {
            telem::RECV_TIMEOUTS.incr();
            Err(TransportError::Timeout)
        }
    }
}

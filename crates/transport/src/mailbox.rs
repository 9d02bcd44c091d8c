//! Per-rank mailboxes with MPI-style (source, tag) matching.
//!
//! Frames arrive through [`Mailbox::accept`] (already verified) or
//! [`Mailbox::accept_frame`] (encoded: verified first) in the order their
//! link delivers them, and queue FIFO per (source, tag) until a matching
//! receive pops them. Matching is all a mailbox does: where a link can lose,
//! duplicate or reorder frames, the transport's reliability layer numbers
//! them and puts them back in order before they get here. A message stays
//! in the buffer it arrived in (a [`Payload`] view) until it is popped.

use crate::ids::RankId;
use crate::wait::{WaitLock, YieldBudget};
use crate::wire::{self, Frame, FrameError, Payload};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;
use telemetry::{Counter, Lazy};

/// Result of a blocking [`Mailbox::pop_matching`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecvOutcome {
    /// A matching message was delivered, still in the buffer it arrived in.
    Message(Payload),
    /// The source died and no matching message is buffered.
    SrcDead,
    /// The receiving rank itself was marked dead (e.g. suspected by a peer)
    /// while blocked.
    SelfDead,
    /// The external stop condition fired (e.g. communicator revoked).
    Stopped,
    /// The deadline elapsed.
    TimedOut,
}

/// Link-layer acknowledgement for one delivered frame. Where the "network"
/// is a function call on the sender's thread, this return value is the ack a
/// real NIC would send back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameAck {
    /// The frame is new; the receiver now holds it.
    Accepted,
    /// The receiver already holds this numbered frame — a retransmission or
    /// duplicated copy. Still an ack: the data is safe.
    Duplicate,
    /// The frame failed checksum/structure validation and was discarded.
    Corrupt(FrameError),
}

impl FrameAck {
    /// Does this ack confirm the receiver holds the frame's payload?
    pub fn is_acked(&self) -> bool {
        matches!(self, FrameAck::Accepted | FrameAck::Duplicate)
    }
}

/// The messages of one (source, tag) channel, oldest first. The oldest
/// sits inline: collectives use a fresh tag per step, so most queues hold
/// one message in their whole life and never allocate.
#[derive(Default)]
struct Queue {
    /// The oldest message; `None` only while the queue is empty.
    head: Option<Payload>,
    rest: VecDeque<Payload>,
}

impl Queue {
    fn push_back(&mut self, data: Payload) {
        match self.head {
            Some(_) => self.rest.push_back(data),
            None => self.head = Some(data),
        }
    }

    fn pop_front(&mut self) -> Option<Payload> {
        let data = self.head.take();
        self.head = self.rest.pop_front();
        data
    }

    fn len(&self) -> usize {
        usize::from(self.head.is_some()) + self.rest.len()
    }
}

#[derive(Default)]
struct Inner {
    /// FIFO queue per (source, tag). FIFO per channel matches MPI's
    /// non-overtaking guarantee. An entry lives only while it holds a
    /// message: collectives use fresh tags, so drained queues would pile up.
    queues: HashMap<(RankId, u64), Queue>,
}

impl Inner {
    /// Pop the oldest message of `(src, tag)`, dropping the queue's entry
    /// with its last one.
    fn pop(&mut self, src: RankId, tag: u64) -> Option<Payload> {
        let Entry::Occupied(mut q) = self.queues.entry((src, tag)) else {
            return None;
        };
        let data = q.get_mut().pop_front();
        if q.get().head.is_none() {
            q.remove();
        }
        data
    }
}

/// A rank's incoming-message buffer.
///
/// `accept` never blocks (the fabric is an infinite-buffer network, like an
/// eager-protocol MPI for the message sizes we inject). `pop_matching`
/// blocks until a matching message arrives or the waker is notified of a
/// death event, at which point the caller re-checks the alive table.
#[derive(Default)]
pub struct Mailbox {
    inner: WaitLock<Inner>,
}

static PUSHES: Lazy<Counter> = Lazy::counter("transport.mailbox.pushes");
static DEATH_WAKES: Lazy<Counter> = Lazy::counter("transport.mailbox.death_wakes");

impl Mailbox {
    /// An empty mailbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accept one encoded link frame: verify the checksum
    /// ([`wire::decode_frame`]), then [`Mailbox::accept`] it. The return
    /// value is the link-layer ack.
    pub fn accept_frame(&self, bytes: &[u8]) -> FrameAck {
        match wire::decode_frame(bytes) {
            Ok(frame) => self.accept(frame),
            Err(e) => FrameAck::Corrupt(e),
        }
    }

    /// Accept one encoded link frame whole, verified where it lies and
    /// queued with no copy: how both links take a frame of 4 KiB or more.
    pub(crate) fn accept_whole(&self, frame: Vec<u8>) -> FrameAck {
        wire::verify_frame(frame).map_or_else(|(_, e)| FrameAck::Corrupt(e), |f| self.accept(f))
    }

    /// Accept one already-verified frame: queue its payload behind the
    /// earlier messages of its (source, tag) and wake the waiters. Its
    /// sequence number is not looked at. Always [`FrameAck::Accepted`].
    pub fn accept(&self, frame: Frame) -> FrameAck {
        let mut inner = self.inner.lock();
        let queue = inner.queues.entry((frame.src, frame.tag)).or_default();
        queue.push_back(frame.payload);
        self.inner.notify(inner);
        PUSHES.incr();
        FrameAck::Accepted
    }

    /// Non-blocking probe: is a message from `(src, tag)` available?
    pub fn probe(&self, src: RankId, tag: u64) -> bool {
        let inner = self.inner.lock();
        inner.queues.contains_key(&(src, tag))
    }

    /// Try to pop a matching message without blocking.
    pub fn try_pop(&self, src: RankId, tag: u64) -> Option<Vec<u8>> {
        self.inner.lock().pop(src, tag).map(Payload::into_vec)
    }

    /// Blocking pop with liveness and external-stop re-checks.
    ///
    /// Checked in priority order on every wakeup:
    /// 1. `should_stop` — an external interrupt (ULFM's communicator
    ///    revocation); wins even over a buffered message, because operations
    ///    on a revoked communicator must fail;
    /// 2. a buffered matching message — drained *before* liveness so that
    ///    messages sent by a peer shortly before its death are still
    ///    delivered (ULFM requires already-matched traffic to complete);
    /// 3. death of the receiving rank itself (a peer's suspicion can kill a
    ///    rank that is blocked here; without this check it would hang);
    /// 4. source death;
    /// 5. the optional deadline.
    ///
    /// Waits are precise: every producer path (`accept`, `wake_waiters`)
    /// takes the inner lock before notifying, so a waiter that observed
    /// "nothing to do" under the lock is guaranteed to be registered on the
    /// condvar before any state change can complete — no polling backstop
    /// is needed, and a deadline of 5 ms fires in ≈5 ms.
    /// Between checks the thread blocks in `WaitLock::wait`: it yields for
    /// one bounded budget per call, then parks.
    pub fn pop_matching(
        &self,
        src: RankId,
        tag: u64,
        is_src_alive: impl Fn() -> bool,
        is_self_alive: impl Fn() -> bool,
        should_stop: impl Fn() -> bool,
        deadline: Option<Instant>,
    ) -> RecvOutcome {
        let mut inner = self.inner.lock();
        let mut budget = YieldBudget::default();
        loop {
            if should_stop() {
                return RecvOutcome::Stopped;
            }
            if let Some(data) = inner.pop(src, tag) {
                return RecvOutcome::Message(data);
            }
            if !is_self_alive() {
                return RecvOutcome::SelfDead;
            }
            if !is_src_alive() {
                return RecvOutcome::SrcDead;
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return RecvOutcome::TimedOut;
            }
            inner = self.inner.wait(inner, &mut budget, deadline);
        }
    }

    /// Wake all blocked receivers so they re-check liveness and stop
    /// conditions. Called by the fabric whenever any rank dies or a
    /// communicator is revoked.
    pub fn wake_waiters(&self) {
        self.inner.notify(self.inner.lock());
        DEATH_WAKES.incr();
    }

    /// Total number of buffered messages (diagnostics only).
    pub fn buffered(&self) -> usize {
        let inner = self.inner.lock();
        inner.queues.values().map(|q| q.len()).sum()
    }

    /// `(source, tag)` queues currently tracked (diagnostics only): zero
    /// once every buffered message has been popped.
    pub fn tracked_queues(&self) -> usize {
        self.inner.lock().queues.len()
    }

    /// Times a blocked receiver has parked rather than yielded (diagnostics
    /// only).
    pub fn parks(&self) -> u64 {
        self.inner.parks()
    }

    /// Drop all buffered messages carrying `tag_pred`-matching tags.
    /// Used when a communicator is revoked to flush stale traffic.
    pub fn purge_where(&self, tag_pred: impl Fn(u64) -> bool) -> usize {
        let mut inner = self.inner.lock();
        let mut dropped = 0;
        inner.queues.retain(|(_, tag), q| {
            if tag_pred(*tag) {
                dropped += q.len();
                false
            } else {
                true
            }
        });
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// Deliver the one-byte message `seq` of channel `(src, tag)`.
    fn put(mb: &Mailbox, src: usize, tag: u64, seq: u64, byte: u8) {
        let ack = mb.accept_frame(&frame(src, tag, seq, &[byte]));
        assert_eq!(ack, FrameAck::Accepted);
    }

    #[test]
    fn push_pop_fifo_per_channel() {
        let mb = Mailbox::new();
        put(&mb, 1, 7, 0, 0xaa);
        put(&mb, 1, 7, 1, 0xbb);
        assert_eq!(mb.try_pop(RankId(1), 7), Some(vec![0xaa]));
        assert_eq!(mb.try_pop(RankId(1), 7), Some(vec![0xbb]));
        assert_eq!(mb.try_pop(RankId(1), 7), None);
    }

    #[test]
    fn channels_are_independent() {
        let mb = Mailbox::new();
        put(&mb, 1, 7, 0, 1);
        put(&mb, 2, 7, 0, 2);
        put(&mb, 1, 8, 0, 3);
        assert_eq!(mb.try_pop(RankId(2), 7), Some(vec![2]));
        assert_eq!(mb.try_pop(RankId(1), 8), Some(vec![3]));
        assert_eq!(mb.try_pop(RankId(1), 7), Some(vec![1]));
    }

    #[test]
    fn probe_does_not_consume() {
        let mb = Mailbox::new();
        put(&mb, 0, 1, 0, 9);
        assert!(mb.probe(RankId(0), 1));
        assert!(mb.probe(RankId(0), 1));
        assert_eq!(mb.try_pop(RankId(0), 1), Some(vec![9]));
        assert!(!mb.probe(RankId(0), 1));
    }

    #[test]
    fn blocking_pop_wakes_on_push() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let t = std::thread::spawn(move || {
            mb2.pop_matching(RankId(5), 42, || true, || true, || false, None)
        });
        std::thread::sleep(Duration::from_millis(30));
        put(&mb, 5, 42, 0, 77);
        assert_eq!(t.join().unwrap(), RecvOutcome::Message(vec![77].into()));
    }

    #[test]
    fn blocking_pop_reports_source_death() {
        let mb = Arc::new(Mailbox::new());
        let alive = Arc::new(AtomicBool::new(true));
        let (mb2, alive2) = (Arc::clone(&mb), Arc::clone(&alive));
        let t = std::thread::spawn(move || {
            mb2.pop_matching(
                RankId(5),
                42,
                || alive2.load(Ordering::SeqCst),
                || true,
                || false,
                None,
            )
        });
        std::thread::sleep(Duration::from_millis(20));
        alive.store(false, Ordering::SeqCst);
        mb.wake_waiters();
        assert_eq!(t.join().unwrap(), RecvOutcome::SrcDead);
    }

    #[test]
    fn blocking_pop_reports_own_death() {
        // A rank killed by a peer's suspicion while blocked in recv must
        // observe its own death instead of hanging.
        let mb = Arc::new(Mailbox::new());
        let alive = Arc::new(AtomicBool::new(true));
        let (mb2, alive2) = (Arc::clone(&mb), Arc::clone(&alive));
        let t = std::thread::spawn(move || {
            mb2.pop_matching(
                RankId(5),
                42,
                || true,
                || alive2.load(Ordering::SeqCst),
                || false,
                None,
            )
        });
        std::thread::sleep(Duration::from_millis(20));
        alive.store(false, Ordering::SeqCst);
        mb.wake_waiters();
        assert_eq!(t.join().unwrap(), RecvOutcome::SelfDead);
    }

    #[test]
    fn blocking_pop_interrupted_by_stop_condition() {
        let mb = Arc::new(Mailbox::new());
        let stop = Arc::new(AtomicBool::new(false));
        let (mb2, stop2) = (Arc::clone(&mb), Arc::clone(&stop));
        let t = std::thread::spawn(move || {
            mb2.pop_matching(
                RankId(5),
                42,
                || true,
                || true,
                || stop2.load(Ordering::SeqCst),
                None,
            )
        });
        std::thread::sleep(Duration::from_millis(20));
        stop.store(true, Ordering::SeqCst);
        mb.wake_waiters();
        assert_eq!(t.join().unwrap(), RecvOutcome::Stopped);
    }

    #[test]
    fn stop_condition_beats_buffered_message() {
        // A revoked communicator must fail even if a message is waiting.
        let mb = Mailbox::new();
        put(&mb, 5, 1, 0, 3);
        let got = mb.pop_matching(RankId(5), 1, || true, || true, || true, None);
        assert_eq!(got, RecvOutcome::Stopped);
    }

    #[test]
    fn messages_sent_before_death_are_still_delivered() {
        let mb = Mailbox::new();
        put(&mb, 5, 1, 0, 3);
        // Source is dead, but the buffered message must be drained first.
        let got = mb.pop_matching(RankId(5), 1, || false, || true, || false, None);
        assert_eq!(got, RecvOutcome::Message(vec![3].into()));
        let got = mb.pop_matching(RankId(5), 1, || false, || true, || false, None);
        assert_eq!(got, RecvOutcome::SrcDead);
    }

    #[test]
    fn deadline_expires() {
        let mb = Mailbox::new();
        let r = mb.pop_matching(
            RankId(1),
            1,
            || true,
            || true,
            || false,
            Some(Instant::now() + Duration::from_millis(10)),
        );
        assert_eq!(r, RecvOutcome::TimedOut);
    }

    #[test]
    fn short_deadline_is_not_quantized() {
        // Regression: waits used to be chunked into 20 ms polls; a 5 ms
        // deadline must fire in ≈5 ms, not a scheduler quantum multiple.
        let mb = Mailbox::new();
        let start = Instant::now();
        let r = mb.pop_matching(
            RankId(1),
            1,
            || true,
            || true,
            || false,
            Some(start + Duration::from_millis(5)),
        );
        let elapsed = start.elapsed();
        assert_eq!(r, RecvOutcome::TimedOut);
        assert!(
            elapsed >= Duration::from_millis(5),
            "woke before the deadline: {elapsed:?}"
        );
        assert!(
            elapsed < Duration::from_millis(15),
            "5 ms deadline took {elapsed:?}"
        );
    }

    // ---- the wait under `pop_matching` ----------------------------------
    //
    // Each outcome is delivered twice: while the waiter is still yielding
    // (the event fires ≈ 5 µs after it went in) and after it has parked
    // (the event fires once `parks()` says so, at least 5 ms in).

    /// When the event behind an outcome fires, relative to the waiter.
    enum Phase {
        Yielding,
        Parked,
    }

    /// Block a waiter on `(5, 42)`, fire `event` in `phase`, and return what
    /// the waiter got plus whether it parked on the way.
    fn wait_outcome(
        phase: Phase,
        event: impl FnOnce(&Mailbox, &AtomicBool, &AtomicBool, &AtomicBool),
    ) -> (RecvOutcome, bool) {
        let mb = Arc::new(Mailbox::new());
        let flags: [Arc<AtomicBool>; 4] = std::array::from_fn(|_| Arc::new(AtomicBool::new(false)));
        let [entered, src_dead, self_dead, stop] = flags.clone();
        let waiter = {
            let mb = Arc::clone(&mb);
            std::thread::spawn(move || {
                entered.store(true, Ordering::SeqCst);
                mb.pop_matching(
                    RankId(5),
                    42,
                    || !src_dead.load(Ordering::SeqCst),
                    || !self_dead.load(Ordering::SeqCst),
                    || stop.load(Ordering::SeqCst),
                    None,
                )
            })
        };
        let [entered, src_dead, self_dead, stop] = &flags;
        while !entered.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let t0 = Instant::now();
        match phase {
            Phase::Yielding => while t0.elapsed() < Duration::from_micros(5) {},
            Phase::Parked => {
                std::thread::sleep(Duration::from_millis(5));
                while mb.parks() == 0 {
                    assert!(
                        t0.elapsed() < Duration::from_secs(30),
                        "waiter never parked"
                    );
                    std::thread::yield_now();
                }
            }
        }
        event(&mb, src_dead, self_dead, stop);
        let got = waiter.join().unwrap();
        (got, mb.parks() > 0)
    }

    /// The four event-driven outcomes, as (name, expected, event).
    type Event = fn(&Mailbox, &AtomicBool, &AtomicBool, &AtomicBool);
    fn wait_cases() -> [(&'static str, RecvOutcome, Event); 4] {
        [
            (
                "message",
                RecvOutcome::Message(vec![77].into()),
                |mb, _, _, _| put(mb, 5, 42, 0, 77),
            ),
            ("src death", RecvOutcome::SrcDead, |mb, src_dead, _, _| {
                src_dead.store(true, Ordering::SeqCst);
                mb.wake_waiters();
            }),
            (
                "self death",
                RecvOutcome::SelfDead,
                |mb, _, self_dead, _| {
                    self_dead.store(true, Ordering::SeqCst);
                    mb.wake_waiters();
                },
            ),
            ("stop", RecvOutcome::Stopped, |mb, _, _, stop| {
                stop.store(true, Ordering::SeqCst);
                mb.wake_waiters();
            }),
        ]
    }

    #[test]
    fn wait_delivers_every_outcome_to_a_yielding_waiter() {
        for (name, want, event) in wait_cases() {
            // The waiter parks only if this thread loses the core for the
            // whole budget between `entered` and the event; over 50 tries
            // at least one must be caught awake.
            let mut caught_awake = false;
            for _ in 0..50 {
                let (got, parked) = wait_outcome(Phase::Yielding, event);
                assert_eq!(got, want, "{name}");
                caught_awake |= !parked;
            }
            assert!(caught_awake, "{name}: every waiter parked within 5 µs");
        }
    }

    #[test]
    fn wait_delivers_every_outcome_to_a_parked_waiter() {
        for (name, want, event) in wait_cases() {
            let (got, parked) = wait_outcome(Phase::Parked, event);
            assert_eq!(got, want, "{name}");
            assert!(parked, "{name}");
        }
    }

    #[test]
    fn wait_times_out_inside_the_yield_budget_and_after_parking() {
        // 20 µs is shorter than the budget: the yield loop itself must watch
        // the deadline. 5 ms is longer: the parked wait must carry it.
        for (timeout, parks) in [
            (Duration::from_micros(20), false),
            (Duration::from_millis(5), true),
        ] {
            let mb = Mailbox::new();
            let start = Instant::now();
            let r = mb.pop_matching(
                RankId(1),
                1,
                || true,
                || true,
                || false,
                Some(start + timeout),
            );
            let elapsed = start.elapsed();
            assert_eq!(r, RecvOutcome::TimedOut);
            assert!(elapsed >= timeout, "{timeout:?} fired after {elapsed:?}");
            assert!(
                elapsed < timeout + Duration::from_millis(10),
                "{timeout:?} deadline took {elapsed:?}"
            );
            if parks {
                assert!(mb.parks() > 0, "a 5 ms wait never parked");
            }
        }
    }

    /// CPU time this thread has run, from the scheduler's own account.
    #[cfg(target_os = "linux")]
    fn thread_cpu() -> Option<Duration> {
        let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
        Some(Duration::from_nanos(
            stat.split_whitespace().next()?.parse().ok()?,
        ))
    }

    #[test]
    fn wait_parks_a_long_waiter_instead_of_burning_its_core() {
        let mb = Mailbox::new();
        #[cfg(target_os = "linux")]
        let cpu0 = thread_cpu();
        let deadline = Instant::now() + Duration::from_millis(50);
        let r = mb.pop_matching(RankId(1), 1, || true, || true, || false, Some(deadline));
        assert_eq!(r, RecvOutcome::TimedOut);
        assert!(mb.parks() > 0, "blocked for 50 ms without parking");
        #[cfg(target_os = "linux")]
        if let (Some(a), Some(b)) = (cpu0, thread_cpu()) {
            let burnt = b.saturating_sub(a);
            assert!(
                burnt < Duration::from_millis(5),
                "50 ms blocked cost {burnt:?} of CPU"
            );
        }
    }

    #[test]
    fn wait_token_ring_survives_oversubscription() {
        // Eight threads pass one token round four mailboxes (two waiters per
        // mailbox, so every push also wakes a waiter it is not for) on
        // however many cores there are: yielding waiters must hand the core
        // to whoever holds the token, never livelock.
        const THREADS: usize = 8;
        const LAPS: usize = 2_000;
        let boxes: Arc<[Mailbox; 4]> = Arc::new(std::array::from_fn(|_| Mailbox::new()));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for me in 0..THREADS {
            let (boxes, done_tx) = (Arc::clone(&boxes), done_tx.clone());
            std::thread::spawn(move || {
                let prev = RankId((me + THREADS - 1) % THREADS);
                let mut sent = 0;
                for lap in 0..LAPS {
                    if !(me == 0 && lap == 0) {
                        let got =
                            boxes[me % 4].pop_matching(prev, 9, || true, || true, || false, None);
                        assert_eq!(got, RecvOutcome::Message(vec![lap as u8].into()));
                    }
                    // Thread 0 starts each lap; the last hop closes it.
                    let next_lap = if me == THREADS - 1 { lap + 1 } else { lap };
                    if next_lap < LAPS {
                        put(&boxes[(me + 1) % 4], me, 9, sent, next_lap as u8);
                        sent += 1;
                    }
                }
                done_tx.send(me).unwrap();
            });
        }
        for _ in 0..THREADS {
            done_rx
                .recv_timeout(Duration::from_secs(60))
                .expect("token ring stalled");
        }
        assert!(boxes.iter().all(|mb| mb.tracked_queues() == 0));
    }

    #[test]
    fn drained_queues_are_not_tracked() {
        // Regression: collectives use a fresh tag per operation, and every
        // drained queue used to stay in the map for the mailbox's lifetime.
        let mb = Mailbox::new();
        for tag in 0..5_000u64 {
            put(&mb, 1, tag, 0, 1);
            assert_eq!(mb.try_pop(RankId(1), tag), Some(vec![1]));
            mb.accept_frame(&frame(2, tag, 0, b"x"));
            let got = mb.pop_matching(RankId(2), tag, || true, || true, || false, None);
            assert_eq!(got, RecvOutcome::Message(b"x".to_vec().into()));
        }
        assert_eq!(mb.tracked_queues(), 0);
        // A queue holding several messages goes with its last one.
        put(&mb, 1, 7, 1, 1);
        put(&mb, 1, 7, 2, 2);
        assert_eq!(mb.try_pop(RankId(1), 7), Some(vec![1]));
        assert_eq!(mb.tracked_queues(), 1);
        assert_eq!(mb.try_pop(RankId(1), 7), Some(vec![2]));
        assert_eq!(mb.tracked_queues(), 0);
        assert_eq!(mb.try_pop(RankId(1), 7), None);
    }

    fn frame(src: usize, tag: u64, seq: u64, payload: &[u8]) -> Vec<u8> {
        crate::wire::encode_frame(RankId(src), tag, seq, payload)
    }

    #[test]
    fn accept_frame_delivers_in_order() {
        let mb = Mailbox::new();
        assert_eq!(mb.accept_frame(&frame(1, 7, 0, b"a")), FrameAck::Accepted);
        assert_eq!(mb.accept_frame(&frame(1, 7, 1, b"b")), FrameAck::Accepted);
        assert_eq!(mb.try_pop(RankId(1), 7), Some(b"a".to_vec()));
        assert_eq!(mb.try_pop(RankId(1), 7), Some(b"b".to_vec()));
    }

    #[test]
    fn accept_frame_rejects_corruption() {
        let mb = Mailbox::new();
        let mut f = frame(1, 7, 0, b"payload");
        let n = f.len();
        f[n - 3] ^= 0x40;
        assert!(matches!(mb.accept_frame(&f), FrameAck::Corrupt(_)));
        // Nothing was delivered; the intact copy that follows is.
        assert_eq!(mb.try_pop(RankId(1), 7), None);
        assert_eq!(
            mb.accept_frame(&frame(1, 7, 0, b"payload")),
            FrameAck::Accepted
        );
        assert_eq!(mb.try_pop(RankId(1), 7), Some(b"payload".to_vec()));
    }

    #[test]
    fn accept_frame_channels_are_independent() {
        let mb = Mailbox::new();
        assert_eq!(mb.accept_frame(&frame(1, 7, 0, b"a")), FrameAck::Accepted);
        assert_eq!(mb.accept_frame(&frame(2, 7, 0, b"b")), FrameAck::Accepted);
        assert_eq!(mb.accept_frame(&frame(1, 8, 0, b"c")), FrameAck::Accepted);
        assert_eq!(mb.try_pop(RankId(2), 7), Some(b"b".to_vec()));
        assert_eq!(mb.try_pop(RankId(1), 8), Some(b"c".to_vec()));
        assert_eq!(mb.try_pop(RankId(1), 7), Some(b"a".to_vec()));
    }

    #[test]
    fn purge_drops_only_matching_tags() {
        let mb = Mailbox::new();
        put(&mb, 0, 0x10, 0, 1);
        put(&mb, 0, 0x10, 1, 2);
        put(&mb, 0, 0x20, 0, 3);
        let dropped = mb.purge_where(|t| t == 0x10);
        assert_eq!(dropped, 2);
        assert_eq!(mb.buffered(), 1);
        assert_eq!(mb.try_pop(RankId(0), 0x20), Some(vec![3]));
    }
}

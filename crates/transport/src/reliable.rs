//! Reliability where loss exists: per-link sequence numbers, the receiver's
//! dedup and reorder, and the ack / retransmit / backoff loop.
//!
//! Both real links are reliable and ordered — an in-process hand-off is a
//! function call into the receiver's mailbox, and a stream socket is
//! ordered and reliable in the kernel — so on a clean link a lost message
//! is a failure, and reporting it is the failure detector's job (the
//! end-to-end argument: Saltzer, Reed and Clark, 1984). Loss, duplication,
//! corruption and reordering come from a [`crate::PerturbPlan`], and this
//! module is what heals them. The engine sends through it from the first
//! installed plan that perturbs a link onward, over either link; a clean
//! send bypasses it entirely.
//!
//! Frames are numbered per ordered `(src, dst)` link, however many tags the
//! link carries, so a rank keeps one cursor per peer on each side: O(p)
//! state, not one entry per tag ever used.

use crate::backend::Backend;
use crate::delivery::{Engine, Link, Slot};
use crate::error::TransportError;
use crate::ids::RankId;
use crate::mailbox::{FrameAck, Mailbox};
use crate::perturb::{Perturber, Verdict};
use crate::wire::{self, Fill, Frame};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};

mod telem {
    use telemetry::{Counter, Histogram, Lazy};
    pub(super) static RETRANSMITS: Lazy<Counter> = Lazy::counter("transport.retransmits");
    pub(super) static FRAMES_DROPPED: Lazy<Counter> =
        Lazy::counter("transport.perturb.frames_dropped");
    pub(super) static FRAMES_DELAYED: Lazy<Counter> =
        Lazy::counter("transport.perturb.frames_delayed");
    pub(super) static FRAMES_DUPLICATED: Lazy<Counter> =
        Lazy::counter("transport.perturb.frames_duplicated");
    pub(super) static FRAMES_REORDERED: Lazy<Counter> =
        Lazy::counter("transport.perturb.frames_reordered");
    pub(super) static DELAY_HIST: Lazy<Histogram> = Lazy::histogram("transport.perturb.delay_ns");
    pub(super) static BACKOFF_HIST: Lazy<Histogram> =
        Lazy::histogram("transport.retransmit.backoff_ns");
}

/// The receive side of one link: the next sequence number to release, and
/// the frames that arrived ahead of it.
#[derive(Default)]
struct Inbound {
    next: u64,
    /// `None` is a purged frame's tombstone: the cursor passes it without
    /// delivering, and a retransmission of it is still a duplicate.
    ahead: BTreeMap<u64, Option<Frame>>,
}

/// One rank's per-link cursors: the next number of its frames to each
/// destination, and the receive side of its links from each source. Both
/// maps gain an entry the first time a link carries a numbered frame, so a
/// rank that only ever sends clean frames keeps neither.
#[derive(Default)]
pub(crate) struct Cursors {
    send: Mutex<HashMap<RankId, u64>>,
    recv: Mutex<HashMap<RankId, Inbound>>,
}

impl Cursors {
    fn next_seq(&self, to: RankId) -> u64 {
        let mut send = self.send.lock();
        let next = send.entry(to).or_insert(0);
        *next += 1;
        *next - 1
    }

    /// Accept one verified numbered frame: a duplicate acks without being
    /// delivered, a frame ahead of its link's cursor waits, and a frame at
    /// the cursor goes to `mailbox` with every waiting frame it unblocks.
    fn accept(&self, frame: Frame, mailbox: &Mailbox) -> FrameAck {
        let mut recv = self.recv.lock();
        let link = recv.entry(frame.src).or_default();
        if frame.seq < link.next || link.ahead.contains_key(&frame.seq) {
            return FrameAck::Duplicate;
        }
        if frame.seq != link.next {
            link.ahead.insert(frame.seq, Some(frame));
            return FrameAck::Accepted;
        }
        // Released under the lock, so a link's frames reach the mailbox in
        // order whichever thread filled the gap.
        mailbox.accept(frame);
        link.next += 1;
        while let Some(waiting) = link.ahead.remove(&link.next) {
            if let Some(frame) = waiting {
                mailbox.accept(frame);
            }
            link.next += 1;
        }
        FrameAck::Accepted
    }

    /// The one receive path of a numbered frame: verify it (checksum fused
    /// into the payload copy), then dedup and reorder it into `mailbox`.
    /// Returns the link-layer ack, with corrupt and duplicate copies counted
    /// in `eng`.
    pub(crate) fn receive<P>(&self, eng: &Engine<P>, mailbox: &Mailbox, bytes: &[u8]) -> FrameAck {
        let ack = match wire::decode_frame(bytes) {
            Ok(frame) => self.accept(frame, mailbox),
            Err(e) => FrameAck::Corrupt(e),
        };
        eng.count(ack)
    }

    /// Drop every waiting frame whose tag matches, leaving a tombstone so
    /// the cursor still passes its number. Returns how many were dropped.
    pub(crate) fn purge(&self, pred: &dyn Fn(u64) -> bool) -> usize {
        let mut recv = self.recv.lock();
        let waiting = recv.values_mut().flat_map(|link| link.ahead.values_mut());
        let purged = waiting.filter(|w| w.as_ref().is_some_and(|f| pred(f.tag)));
        purged.map(Option::take).count()
    }

    /// (destinations numbered, sources being reassembled).
    #[cfg(test)]
    fn entries(&self) -> (usize, usize) {
        (self.send.lock().len(), self.recv.lock().len())
    }
}

/// Send one numbered frame to `to` and retransmit it until a copy of it is
/// acked, the budget of the installed plan's [`crate::RetryPolicy`] runs out (the
/// peer is then suspected), or either end dies.
pub(crate) fn send<L: Link>(
    link: &L,
    to: RankId,
    peer: &Slot<L::Port>,
    tag: u64,
    len: usize,
    f: Fill<'_>,
    buf: Vec<u8>,
) -> Result<(), TransportError> {
    let (eng, me) = (link.engine(), link.rank());
    let seq = link.me().cursors.next_seq(to);
    // Encoded once; every (re)transmission hands off this same frame.
    let frame = wire::encode_frame_with(buf, me, tag, seq, len, f);
    let mut perturber = eng.perturber();
    let policy = eng.retry_policy();
    let mut attempt = 0u32;
    loop {
        // One physical transmission attempt, under the plan if there is one.
        let verdict = match &perturber {
            Some(p) => p.transmit(me, to, &frame),
            None => Verdict::clean(),
        };
        if verdict.dropped {
            telem::FRAMES_DROPPED.incr();
        }
        if verdict.duplicated {
            telem::FRAMES_DUPLICATED.incr();
        }
        if verdict.reordered {
            telem::FRAMES_REORDERED.incr();
        }
        // Only a copy of the *current* frame acks it: stashed flushes ack on
        // behalf of older frames, which already retransmit independently.
        // Every hand-off is synchronous, so an unacked attempt is lost on
        // every link alike.
        let mut acked = false;
        for d in verdict.deliveries.into_iter().flatten() {
            if let Some(delay) = d.delay {
                // The "propagation delay" runs on the sender thread: a slow
                // link is a slow hand-off, whatever carries it.
                telem::FRAMES_DELAYED.incr();
                telem::DELAY_HIST.record_duration(delay);
                std::thread::sleep(delay);
            }
            acked |= link.hand_off(to, peer, &frame, d.bytes) && d.current;
        }
        if acked {
            return Ok(());
        }
        // Unacked: the frame (or every copy of it) was lost. Re-check
        // liveness between attempts — death reports beat link errors.
        if !link.self_alive() {
            return Err(TransportError::SelfDied);
        }
        if !peer.is_alive() {
            return Err(TransportError::PeerDead(to));
        }
        if attempt >= policy.max_retries {
            // The link is silent past the retry budget: suspect the peer,
            // feeding the ULFM revoke → agree → shrink path.
            Backend::suspect(link, to);
            return Err(TransportError::PeerDead(to));
        }
        let salt = match &perturber {
            Some(p) => p.backoff_salt(me, to, tag, seq, attempt),
            None => Perturber::inert().backoff_salt(me, to, tag, seq, attempt),
        };
        let backoff = policy.backoff(attempt, salt);
        telem::BACKOFF_HIST.record_duration(backoff);
        std::thread::sleep(backoff);
        attempt += 1;
        eng.count_retransmit();
        telem::RETRANSMITS.incr();
        // A plan installed mid-send takes effect from the next attempt.
        perturber = eng.perturber();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendKind, Endpoint};
    use crate::fabric::{Fabric, InProcBackend};
    use crate::fault::FaultPlan;
    use crate::ids::Topology;
    use crate::perturb::{LinkPerturb, PerturbPlan, RetryPolicy};
    use crate::socket::SocketBackend;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn frame(src: usize, tag: u64, seq: u64, payload: &[u8]) -> Frame {
        let payload = payload.to_vec().into();
        Frame {
            src: RankId(src),
            tag,
            seq,
            payload,
        }
    }

    #[test]
    fn duplicates_are_suppressed() {
        let (rx, mb) = (Cursors::default(), Mailbox::new());
        assert_eq!(rx.accept(frame(1, 7, 0, b"a"), &mb), FrameAck::Accepted);
        assert_eq!(rx.accept(frame(1, 7, 0, b"a"), &mb), FrameAck::Duplicate);
        assert_eq!(mb.try_pop(RankId(1), 7), Some(b"a".to_vec()));
        assert_eq!(mb.try_pop(RankId(1), 7), None);
    }

    #[test]
    fn out_of_order_frames_are_released_in_order() {
        let (rx, mb) = (Cursors::default(), Mailbox::new());
        // One link carries every tag: frame 1 (tag 8) waits for frame 0
        // (tag 7), however the tags differ.
        assert_eq!(rx.accept(frame(1, 8, 1, b"b"), &mb), FrameAck::Accepted);
        assert_eq!(rx.accept(frame(1, 7, 2, b"c"), &mb), FrameAck::Accepted);
        assert_eq!(mb.buffered(), 0, "nothing visible until the gap fills");
        assert_eq!(rx.accept(frame(1, 7, 0, b"a"), &mb), FrameAck::Accepted);
        assert_eq!(mb.try_pop(RankId(1), 7), Some(b"a".to_vec()));
        assert_eq!(mb.try_pop(RankId(1), 7), Some(b"c".to_vec()));
        assert_eq!(mb.try_pop(RankId(1), 8), Some(b"b".to_vec()));
        // Links from different sources are independent.
        assert_eq!(rx.accept(frame(2, 7, 0, b"d"), &mb), FrameAck::Accepted);
        assert_eq!(mb.try_pop(RankId(2), 7), Some(b"d".to_vec()));
    }

    #[test]
    fn a_waiting_frame_dedups_its_copy() {
        let (rx, mb) = (Cursors::default(), Mailbox::new());
        assert_eq!(rx.accept(frame(1, 7, 1, b"b"), &mb), FrameAck::Accepted);
        assert_eq!(rx.accept(frame(1, 7, 1, b"b"), &mb), FrameAck::Duplicate);
    }

    #[test]
    fn purge_leaves_a_tombstone_the_cursor_passes() {
        let (rx, mb) = (Cursors::default(), Mailbox::new());
        // Frames 1 (tag 7) and 2 (tag 9) wait for frame 0 when tag 7 is
        // purged.
        assert_eq!(rx.accept(frame(1, 7, 1, b"b"), &mb), FrameAck::Accepted);
        assert_eq!(rx.accept(frame(1, 9, 2, b"c"), &mb), FrameAck::Accepted);
        assert_eq!(rx.purge(&|t| t == 7), 1);
        // A late retransmission of the purged frame acks as a duplicate ...
        assert_eq!(rx.accept(frame(1, 7, 1, b"b"), &mb), FrameAck::Duplicate);
        // ... and when the gap fills, the cursor passes the tombstone.
        assert_eq!(rx.accept(frame(1, 7, 0, b"a"), &mb), FrameAck::Accepted);
        assert_eq!(mb.try_pop(RankId(1), 7), Some(b"a".to_vec()));
        assert_eq!(mb.try_pop(RankId(1), 7), None);
        assert_eq!(mb.try_pop(RankId(1), 9), Some(b"c".to_vec()));
        assert_eq!(rx.accept(frame(1, 7, 3, b"d"), &mb), FrameAck::Accepted);
        assert_eq!(mb.try_pop(RankId(1), 7), Some(b"d".to_vec()));
    }

    /// One numbered frame of the reference, as it first arrived.
    struct Arrived {
        tag: u64,
        payload: Vec<u8>,
        /// Popped or purged.
        gone: bool,
    }

    /// The reference receiver: one ordered stream per link, carrying many
    /// tags. A frame is new iff its number never arrived on its link
    /// before; a link delivers the longest run of numbers from 0 that all
    /// arrived, and a matching receive takes the oldest delivered frame of
    /// its tag that is not gone.
    #[derive(Default)]
    struct Model(HashMap<usize, BTreeMap<u64, Arrived>>);

    impl Model {
        fn accept(&mut self, src: usize, seq: u64, tag: u64, payload: Vec<u8>) -> FrameAck {
            let link = self.0.entry(src).or_default();
            if link.contains_key(&seq) {
                return FrameAck::Duplicate;
            }
            let gone = false;
            link.insert(seq, Arrived { tag, payload, gone });
            FrameAck::Accepted
        }

        /// The frames of `src`'s link that are delivered.
        fn delivered(&mut self, src: usize) -> impl Iterator<Item = &mut Arrived> {
            let link = self.0.entry(src).or_default();
            let run = (0..).take_while(|s| link.contains_key(s)).count();
            link.values_mut().take(run)
        }

        fn pop(&mut self, src: usize, tag: u64) -> Option<Vec<u8>> {
            let oldest = self.delivered(src).find(|a| a.tag == tag && !a.gone)?;
            oldest.gone = true;
            Some(oldest.payload.clone())
        }

        /// Waiting or delivered, a frame of `tag` goes.
        fn purge(&mut self, tag: u64) -> usize {
            let all = self.0.values_mut().flat_map(|link| link.values_mut());
            let hit = all.filter(|a| a.tag == tag && !a.gone);
            hit.map(|a| a.gone = true).count()
        }

        fn buffered(&mut self) -> usize {
            let srcs: Vec<usize> = self.0.keys().copied().collect();
            let live = |s| self.delivered(s).filter(|a| !a.gone).count();
            srcs.into_iter().map(live).sum()
        }
    }

    const SRCS: u64 = 2;
    const SEQS: u64 = 8;
    const TAGS: u64 = 3;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn accept_matches_the_one_stream_per_link_reference(
            // The tag each link's sender gave each of its frames.
            tags in proptest::collection::vec(0..TAGS, (SRCS * SEQS) as usize),
            // Each draw is (kind, source, x) in mixed radix 10·2·8, where x
            // is the frame's number for an arrival and a tag otherwise: a
            // small space, so duplicates, gaps that fill, purges inside a
            // gap and retransmissions of purged frames all come up.
            ops in proptest::collection::vec(0..10 * SRCS * SEQS, 1..48),
        ) {
            let (rx, mb, mut model) = (Cursors::default(), Mailbox::new(), Model::default());
            let mut tags_seen = BTreeSet::new();
            for (step, op) in ops.into_iter().enumerate() {
                let (kind, src, x) = (op % 10, op / 10 % SRCS, op / 20);
                let tag_of = |seq: u64| tags[(src * SEQS + seq) as usize];
                let src = src as usize;
                match kind {
                    0..=6 => {
                        // A retransmission carries the payload of the first
                        // copy, so the payload is a function of the number.
                        let (tag, payload) = (tag_of(x), vec![src as u8, x as u8]);
                        tags_seen.insert(tag);
                        prop_assert_eq!(
                            rx.accept(frame(src, tag, x, &payload), &mb),
                            model.accept(src, x, tag, payload),
                            "step {}", step);
                    }
                    7 | 8 => prop_assert_eq!(
                        mb.try_pop(RankId(src), x % TAGS), model.pop(src, x % TAGS),
                        "step {}", step),
                    _ => prop_assert_eq!(
                        rx.purge(&|t| t == x % TAGS) + mb.purge_where(|t| t == x % TAGS),
                        model.purge(x % TAGS),
                        "step {}", step),
                }
                prop_assert_eq!(mb.buffered(), model.buffered(), "step {}", step);
            }
            // Drain: the same messages in the same order on every channel.
            for src in 0..SRCS as usize {
                for &tag in &tags_seen {
                    loop {
                        let got = mb.try_pop(RankId(src), tag);
                        prop_assert_eq!(&got, &model.pop(src, tag));
                        if got.is_none() {
                            break;
                        }
                    }
                }
            }
            prop_assert!(rx.entries().1 <= SRCS as usize);
        }
    }

    // ---- bounded state --------------------------------------------------

    const MESSAGES: u64 = 100_000;

    /// Both ranks send message `i` to each other on tag `i` — a fresh tag
    /// per message, as collectives use — and receive the other's.
    fn exchange(eps: &[Endpoint]) {
        std::thread::scope(|s| {
            for ep in eps {
                s.spawn(move || {
                    let peer = RankId(1 - ep.rank().0);
                    for i in 0..MESSAGES {
                        ep.send(peer, i, &i.to_le_bytes()).unwrap();
                        assert_eq!(ep.recv(peer, i).unwrap(), i.to_le_bytes());
                    }
                });
            }
        });
    }

    /// Per slot of `link`'s engine: (destinations numbered, sources being
    /// reassembled).
    fn cursor_entries<L: Link>(link: &L) -> Vec<(usize, usize)> {
        link.engine().slots().map(|s| s.cursors.entries()).collect()
    }

    fn in_process(plan: Option<PerturbPlan>) -> Vec<(usize, usize)> {
        let fabric = Fabric::without_faults(Topology::flat());
        if let Some(plan) = plan {
            fabric.set_perturbation(plan);
        }
        let ranks = fabric.register_ranks(2);
        let eps: Vec<Endpoint> = ranks
            .iter()
            .map(|&r| Endpoint::new(Arc::clone(&fabric), r))
            .collect();
        exchange(&eps);
        let link = InProcBackend::new(fabric, RankId(0));
        for slot in link.engine().slots() {
            assert_eq!(slot.port.tracked_queues(), 0);
        }
        cursor_entries(&link)
    }

    #[test]
    fn bounded_state_clean_in_process_sends_are_never_numbered() {
        assert_eq!(in_process(None), vec![(0, 0); 2]);
    }

    /// Every link duplicates half its frames: lossy, with nothing to wait
    /// for.
    fn duplicating() -> PerturbPlan {
        PerturbPlan::seeded(3).all_links(LinkPerturb::clean().duplicate(0.5))
    }

    #[test]
    fn an_in_process_fabric_numbers_its_sends_from_its_first_plan_on() {
        let fabric = Fabric::without_faults(Topology::flat());
        let ranks = fabric.register_ranks(2);
        let ep = |r: RankId| Endpoint::new(Arc::clone(&fabric), r);
        let (a, b) = (ep(ranks[0]), ep(ranks[1]));
        let link = InProcBackend::new(Arc::clone(&fabric), ranks[0]);
        a.send(ranks[1], 5, b"clean").unwrap();
        assert_eq!(cursor_entries(&link), vec![(0, 0); 2]);
        // A plan installed mid-run finds nothing in flight: the next frame
        // on the same channel is numbered 0 and queues behind the clean one.
        fabric.set_perturbation(duplicating());
        a.send(ranks[1], 5, b"numbered").unwrap();
        assert_eq!(cursor_entries(&link), vec![(1, 0), (0, 1)]);
        assert_eq!(b.recv(ranks[0], 5).unwrap(), b"clean");
        assert_eq!(b.recv(ranks[0], 5).unwrap(), b"numbered");
    }

    #[test]
    fn a_plan_that_perturbs_no_link_numbers_nothing() {
        let fabric = Fabric::without_faults(Topology::flat());
        let ranks = fabric.register_ranks(2);
        let ep = |r: RankId| Endpoint::new(Arc::clone(&fabric), r);
        let (a, b) = (ep(ranks[0]), ep(ranks[1]));
        let link = InProcBackend::new(Arc::clone(&fabric), ranks[0]);
        // A retry policy alone, or links set clean, cannot lose a frame.
        let patient = RetryPolicy {
            max_retries: 800,
            ..RetryPolicy::default()
        };
        fabric.set_perturbation(PerturbPlan::none().retry(patient));
        fabric.set_perturbation(PerturbPlan::seeded(1).all_links(LinkPerturb::clean()));
        a.send(ranks[1], 5, b"still clean").unwrap();
        assert_eq!(cursor_entries(&link), vec![(0, 0); 2]);
        assert_eq!(b.recv(ranks[0], 5).unwrap(), b"still clean");
    }

    #[test]
    fn bounded_state_perturbed_in_process_keeps_one_cursor_per_link() {
        let lossy = LinkPerturb::clean()
            .drop(0.01)
            .duplicate(0.01)
            .reorder(0.01);
        let plan = PerturbPlan::seeded(9).all_links(lossy);
        for (send, recv) in in_process(Some(plan)) {
            assert!(
                send <= 2 && recv <= 2,
                "{send} numbered, {recv} reassembled"
            );
        }
    }

    fn socket(plan: Option<PerturbPlan>) -> Vec<(usize, usize)> {
        let mesh =
            SocketBackend::local_mesh(BackendKind::Unix, Topology::flat(), 2, FaultPlan::none())
                .expect("mesh");
        let eps: Vec<Endpoint> = mesh
            .iter()
            .map(|b| Endpoint::from_backend(Arc::clone(b) as Arc<dyn crate::Backend>))
            .collect();
        if let Some(plan) = plan {
            for ep in &eps {
                ep.set_perturbation(plan.clone());
            }
        }
        exchange(&eps);
        let mut entries = Vec::new();
        for b in &mesh {
            assert_eq!(Link::mailbox(&**b).tracked_queues(), 0);
            entries.extend(cursor_entries(&**b));
            crate::Backend::shutdown(&**b);
        }
        entries
    }

    #[test]
    fn bounded_state_clean_socket_sends_are_never_numbered() {
        assert_eq!(socket(None), vec![(0, 0); 4]);
    }

    #[test]
    fn bounded_state_socket_keeps_one_cursor_per_link() {
        for (send, recv) in socket(Some(duplicating())) {
            assert!(
                send <= 2 && recv <= 2,
                "{send} numbered, {recv} reassembled"
            );
        }
    }
}

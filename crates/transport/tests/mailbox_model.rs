//! Model-based test of the mailbox's receive side: whatever order frames
//! arrive in — in order, ahead of the cursor, twice, around a purge —
//! `Mailbox` acks, delivers and drops exactly as a reference that sends
//! *every* frame through the reassembly map and keeps every queue on the
//! heap, which is how the mailbox itself worked before in-order frames went
//! straight to their queue.

use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap, VecDeque};
use transport::wire::Frame;
use transport::{FrameAck, Mailbox, RankId};

#[derive(Default)]
struct Channel {
    next_seq: u64,
    pending: BTreeMap<u64, Vec<u8>>,
    queue: VecDeque<Vec<u8>>,
}

/// The reference: one ordered channel per (source, tag).
#[derive(Default)]
struct Model(HashMap<(usize, u64), Channel>);

impl Model {
    fn accept(&mut self, src: usize, tag: u64, seq: u64, payload: Vec<u8>) -> FrameAck {
        let ch = self.0.entry((src, tag)).or_default();
        if seq < ch.next_seq || ch.pending.contains_key(&seq) {
            return FrameAck::Duplicate;
        }
        ch.pending.insert(seq, payload);
        while let Some(ready) = ch.pending.remove(&ch.next_seq) {
            ch.queue.push_back(ready);
            ch.next_seq += 1;
        }
        FrameAck::Accepted
    }

    fn pop(&mut self, src: usize, tag: u64) -> Option<Vec<u8>> {
        self.0.get_mut(&(src, tag))?.queue.pop_front()
    }

    fn purge(&mut self, tag: u64) -> usize {
        let mut dropped = 0;
        for ch in self
            .0
            .iter_mut()
            .filter(|(k, _)| k.1 == tag)
            .map(|(_, ch)| ch)
        {
            dropped += ch.queue.len() + ch.pending.len();
            ch.queue.clear();
            if let Some((&max, _)) = ch.pending.last_key_value() {
                ch.next_seq = ch.next_seq.max(max + 1);
            }
            ch.pending.clear();
        }
        dropped
    }

    fn buffered(&self) -> usize {
        self.0.values().map(|ch| ch.queue.len()).sum()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn accept_matches_the_always_pending_reference(
        // Each draw is (kind, source, tag, seq) in mixed radix 10·2·3·6: a
        // small space, so duplicates, gaps that fill and gaps that a purge
        // jumps all come up in 40 steps.
        ops in proptest::collection::vec(0u64..360, 1..40),
    ) {
        let (mb, mut model) = (Mailbox::new(), Model::default());
        for (step, op) in ops.into_iter().enumerate() {
            let (kind, src, tag, seq) = (op % 10, (op / 10 % 2) as usize, op / 20 % 3, op / 60);
            match kind {
                0..=6 => {
                    let payload = vec![step as u8, seq as u8];
                    let frame = Frame { src: RankId(src), tag, seq, payload: payload.clone().into() };
                    prop_assert_eq!(
                        mb.accept(frame), model.accept(src, tag, seq, payload), "step {}", step);
                }
                7 | 8 => prop_assert_eq!(
                    mb.try_pop(RankId(src), tag), model.pop(src, tag), "step {}", step),
                _ => prop_assert_eq!(
                    mb.purge_where(|t| t == tag), model.purge(tag), "step {}", step),
            }
            prop_assert_eq!(mb.buffered(), model.buffered(), "step {}", step);
            prop_assert_eq!(
                mb.probe(RankId(src), tag), model.0.get(&(src, tag)).is_some_and(|c| !c.queue.is_empty()));
        }
        // Drain: the same messages in the same order on every channel, and
        // no queue left tracked once they are gone.
        for src in 0..2 {
            for tag in 0..3 {
                loop {
                    let got = mb.try_pop(RankId(src), tag);
                    prop_assert_eq!(&got, &model.pop(src, tag));
                    if got.is_none() {
                        break;
                    }
                }
            }
        }
        prop_assert_eq!(mb.tracked_queues(), 0);
    }
}

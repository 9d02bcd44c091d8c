//! Model-based test of the mailbox through its public API: it only
//! matches. Whatever frames arrive — any sequence numbers, repeated, in any
//! order — each is queued FIFO per (source, tag) exactly as a reference of
//! one plain queue per (source, tag) holds it, and a purge drops exactly the
//! matching queues. Numbering, dedup and reorder are the reliability
//! layer's, and are modelled with it.

use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};
use transport::wire::{encode_frame, Frame};
use transport::{FrameAck, Mailbox, RankId};

/// The reference: one FIFO queue per (source, tag).
#[derive(Default)]
struct Model(HashMap<(usize, u64), VecDeque<Vec<u8>>>);

impl Model {
    fn push(&mut self, src: usize, tag: u64, payload: Vec<u8>) {
        self.0.entry((src, tag)).or_default().push_back(payload);
    }

    fn pop(&mut self, src: usize, tag: u64) -> Option<Vec<u8>> {
        self.0.get_mut(&(src, tag))?.pop_front()
    }

    fn purge(&mut self, tag: u64) -> usize {
        let hit = self.0.iter_mut().filter(|(k, _)| k.1 == tag);
        hit.map(|(_, q)| q.drain(..).count()).sum()
    }

    fn buffered(&self) -> usize {
        self.0.values().map(VecDeque::len).sum()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mailbox_is_fifo_per_source_and_tag(
        // Each draw is (kind, source, tag, seq) in mixed radix 10·2·3·6.
        ops in proptest::collection::vec(0u64..360, 1..40),
    ) {
        let (mb, mut model) = (Mailbox::new(), Model::default());
        for (step, op) in ops.into_iter().enumerate() {
            let (kind, src, tag, seq) = (op % 10, (op / 10 % 2) as usize, op / 20 % 3, op / 60);
            let payload = vec![step as u8, seq as u8];
            match kind {
                0..=3 => {
                    let frame = Frame { src: RankId(src), tag, seq, payload: payload.clone().into() };
                    prop_assert_eq!(mb.accept(frame), FrameAck::Accepted, "step {}", step);
                    model.push(src, tag, payload);
                }
                4..=6 => {
                    let bytes = encode_frame(RankId(src), tag, seq, &payload);
                    prop_assert_eq!(mb.accept_frame(&bytes), FrameAck::Accepted, "step {}", step);
                    model.push(src, tag, payload);
                }
                7 | 8 => prop_assert_eq!(
                    mb.try_pop(RankId(src), tag), model.pop(src, tag), "step {}", step),
                _ => prop_assert_eq!(
                    mb.purge_where(|t| t == tag), model.purge(tag), "step {}", step),
            }
            prop_assert_eq!(mb.buffered(), model.buffered(), "step {}", step);
            prop_assert_eq!(
                mb.probe(RankId(src), tag),
                model.0.get(&(src, tag)).is_some_and(|q| !q.is_empty()));
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

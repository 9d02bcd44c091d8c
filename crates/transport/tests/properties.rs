//! Property tests for the transport layer: wire codec, topology algebra,
//! and ordering/liveness invariants of the fabric — including exactly-once
//! in-order delivery over adversarially perturbed links.

use proptest::prelude::*;
use proptest::TestCaseError;
use std::sync::Arc;
use std::time::{Duration, Instant};
use transport::wire::{
    decode_frame, encode_frame, fnv1a64, verify_frame, FRAME_HEADER, FRAME_TRAILER,
};
use transport::{
    Endpoint, Fabric, FrameAck, LinkPerturb, Mailbox, PerturbPlan, RankId, RetryPolicy,
    StreamDecoder, StreamKind, Topology, TransportError, Wire,
};

/// Everything the frame decoders of the transport make of `bytes`: none of
/// them may panic, and none may accept bytes that are not exactly the
/// encoding of what they report.
fn decoders_reject_or_roundtrip(bytes: &[u8]) -> Result<(), TestCaseError> {
    let decoded = decode_frame(bytes);
    if let Ok(f) = &decoded {
        prop_assert_eq!(&encode_frame(f.src, f.tag, f.seq, &f.payload)[..], bytes);
    }
    // The in-place verifier decides exactly as the copying decoder does,
    // and hands a refused buffer back untouched.
    let in_place = verify_frame(bytes.to_vec()).map_err(|(back, e)| (back == bytes, e));
    prop_assert_eq!(in_place, decoded.clone().map_err(|e| (true, e)));
    let mb = Mailbox::new();
    match (&decoded, mb.accept_frame(bytes)) {
        (Ok(f), FrameAck::Accepted) => {
            // Delivered only once it is in order on its channel.
            let got = mb.try_pop(f.src, f.tag);
            prop_assert_eq!(got, (f.seq == 0).then(|| f.payload.to_vec()));
        }
        (Err(e), FrameAck::Corrupt(got)) => prop_assert_eq!(*e, got),
        (d, ack) => prop_assert!(false, "decode {d:?} but mailbox {ack:?}"),
    }
    // The socket reader's path: the same bytes as a stream, every envelope
    // decoded in place out of the stream decoder's buffer.
    let mut dec = StreamDecoder::new();
    dec.push(bytes);
    while let Ok(Some((kind, payload))) = dec.next_borrowed() {
        if kind == StreamKind::Data {
            if let Ok(f) = decode_frame(payload) {
                prop_assert_eq!(&encode_frame(f.src, f.tag, f.seq, &f.payload)[..], payload);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wire_roundtrip_f32(xs in proptest::collection::vec(any::<f32>(), 0..128)) {
        let bytes = f32::encode_slice(&xs);
        prop_assert_eq!(bytes.len(), xs.len() * 4);
        let back = f32::decode_slice(&bytes);
        for (a, b) in xs.iter().zip(&back) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn wire_roundtrip_u64(xs in proptest::collection::vec(any::<u64>(), 0..64)) {
        prop_assert_eq!(u64::decode_slice(&u64::encode_slice(&xs)), xs);
    }

    #[test]
    fn wire_roundtrip_mixed_ints(
        a in any::<i32>(),
        b in any::<u16>(),
        c in any::<i64>(),
    ) {
        let mut buf = Vec::new();
        a.write(&mut buf);
        b.write(&mut buf);
        c.write(&mut buf);
        prop_assert_eq!(i32::read(&buf[0..4]), a);
        prop_assert_eq!(u16::read(&buf[4..6]), b);
        prop_assert_eq!(i64::read(&buf[6..14]), c);
    }

    /// node_of and ranks_on_node are mutually consistent for any topology.
    #[test]
    fn topology_partition_invariants(rpn in 1usize..=16, total in 0usize..=128) {
        let t = Topology::new(rpn);
        // Every rank appears on exactly one node, its own.
        for r in 0..total {
            let node = t.node_of(RankId(r));
            let ranks = t.ranks_on_node(node, total);
            prop_assert!(ranks.contains(&RankId(r)));
            prop_assert!(ranks.len() <= rpn);
        }
        // Node lists tile the rank space exactly.
        let nodes = t.nodes_for(total);
        let mut all: Vec<RankId> = Vec::new();
        for nd in 0..nodes {
            all.extend(t.ranks_on_node(transport::NodeId(nd), total));
        }
        prop_assert_eq!(all.len(), total);
        for (i, r) in all.iter().enumerate() {
            prop_assert_eq!(r.0, i);
        }
    }

    /// FIFO per (sender, tag) channel: any interleaving of sends arrives in
    /// order when received from the same channel.
    #[test]
    fn fabric_fifo_per_channel(msgs in proptest::collection::vec(0u8..4, 1..40)) {
        let fabric = Fabric::without_faults(Topology::flat());
        let ranks = fabric.register_ranks(2);
        let tx = Endpoint::new(Arc::clone(&fabric), ranks[0]);
        let rx = Endpoint::new(Arc::clone(&fabric), ranks[1]);
        // Sends interleave across 4 tags; per tag the payload sequence is
        // the subsequence of `msgs` with that tag.
        for (i, &tag) in msgs.iter().enumerate() {
            tx.send(ranks[1], tag as u64, &[i as u8]).unwrap();
        }
        for tag in 0u8..4 {
            let expected: Vec<u8> = msgs
                .iter()
                .enumerate()
                .filter(|(_, &t)| t == tag)
                .map(|(i, _)| i as u8)
                .collect();
            for want in expected {
                let got = rx.recv(ranks[0], tag as u64).unwrap();
                prop_assert_eq!(got, vec![want]);
            }
        }
    }

    /// Killing any subset of ranks leaves exactly the complement alive.
    #[test]
    fn alive_set_is_complement_of_killed(
        total in 1usize..=32,
        kills in proptest::collection::vec(any::<usize>(), 0..16),
    ) {
        let fabric = Fabric::without_faults(Topology::flat());
        fabric.register_ranks(total);
        let mut killed: Vec<usize> = kills.iter().map(|k| k % total).collect();
        for &k in &killed {
            fabric.kill_rank(RankId(k));
        }
        killed.sort_unstable();
        killed.dedup();
        let alive = fabric.alive_ranks();
        prop_assert_eq!(alive.len(), total - killed.len());
        for r in alive {
            prop_assert!(!killed.contains(&r.0));
        }
        prop_assert_eq!(fabric.stats().deaths, killed.len() as u64);
    }

    /// Exactly-once, in-order delivery survives any random perturbation
    /// seed: drops, duplicates, corruption, and reordering on every link
    /// are healed by checksums + sequence numbers + retransmission, and the
    /// receiver observes each payload exactly once, in send order.
    #[test]
    fn perturbed_links_deliver_exactly_once_in_order(
        seed in any::<u64>(),
        msgs in proptest::collection::vec(0u8..3, 1..30),
    ) {
        let fabric = Fabric::without_faults(Topology::flat());
        fabric.set_perturbation(
            PerturbPlan::seeded(seed)
                .all_links(
                    LinkPerturb::clean()
                        .drop(0.25)
                        .duplicate(0.25)
                        .corrupt(0.15)
                        .reorder(0.10),
                )
                .retry(RetryPolicy {
                    max_retries: 48,
                    base: Duration::from_micros(10),
                    cap: Duration::from_micros(200),
                }),
        );
        let ranks = fabric.register_ranks(2);
        let tx = Endpoint::new(Arc::clone(&fabric), ranks[0]);
        let rx = Endpoint::new(Arc::clone(&fabric), ranks[1]);
        for (i, &tag) in msgs.iter().enumerate() {
            tx.send(ranks[1], tag as u64, &[i as u8]).unwrap();
        }
        // Per tag channel: the exact subsequence, in order, nothing extra.
        for tag in 0u8..3 {
            let expected: Vec<u8> = msgs
                .iter()
                .enumerate()
                .filter(|(_, &t)| t == tag)
                .map(|(i, _)| i as u8)
                .collect();
            for want in expected {
                let got = rx.recv(ranks[0], tag as u64).unwrap();
                prop_assert_eq!(got, vec![want]);
            }
            // Channel must now be empty: duplicates were all suppressed.
            prop_assert_eq!(
                rx.recv_timeout(ranks[0], tag as u64, Duration::from_millis(1)),
                Err(TransportError::Timeout)
            );
        }
        prop_assert_eq!(fabric.stats().deaths, 0);
    }

    /// A link that never delivers exhausts the retry budget and surfaces
    /// `PeerDead` (the ULFM suspicion signal) in bounded time — it must
    /// never hang or return a bare timeout.
    #[test]
    fn exhausted_retries_surface_peer_dead(seed in any::<u64>()) {
        let fabric = Fabric::without_faults(Topology::flat());
        let policy = RetryPolicy {
            max_retries: 4,
            base: Duration::from_micros(20),
            cap: Duration::from_micros(100),
        };
        fabric.set_perturbation(
            PerturbPlan::seeded(seed)
                .link(RankId(0), RankId(1), LinkPerturb::clean().drop(1.0))
                .retry(policy),
        );
        let ranks = fabric.register_ranks(2);
        let tx = Endpoint::new(Arc::clone(&fabric), ranks[0]);
        let start = Instant::now();
        prop_assert_eq!(
            tx.send(ranks[1], 0, b"into the void"),
            Err(TransportError::PeerDead(ranks[1]))
        );
        prop_assert!(start.elapsed() < Duration::from_secs(2), "bounded failure");
        prop_assert_eq!(fabric.stats().suspicions, 1);
        // The suspicion is sticky: later traffic fails fast.
        prop_assert_eq!(
            tx.send(ranks[1], 1, b"again"),
            Err(TransportError::PeerDead(ranks[1]))
        );
    }

    /// Two buffers that differ inside exactly one aligned 8-byte word (the
    /// partial last word included) never collide: every checksum step is a
    /// bijection, so this is a theorem, and with it single-bit detection.
    #[test]
    fn checksum_separates_any_one_word_difference(
        bytes in proptest::collection::vec(any::<u8>(), 1..300),
        at in any::<usize>(),
        delta in 1u64..=u64::MAX,
    ) {
        let word = at % bytes.len() / 8 * 8;
        let end = (word + 8).min(bytes.len());
        let mut other = bytes.clone();
        let mut diff = delta.to_le_bytes();
        if diff[..end - word].iter().all(|&b| b == 0) {
            diff[0] = 1; // keep the difference inside the buffer
        }
        for (b, d) in other[word..end].iter_mut().zip(diff) {
            *b ^= d;
        }
        prop_assert!(bytes != other);
        prop_assert!(fnv1a64(&bytes) != fnv1a64(&other));
    }

    /// The length is folded in: appending zero bytes changes the checksum.
    #[test]
    fn checksum_changes_when_zeros_are_appended(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
        extra in 1usize..100,
    ) {
        let mut longer = bytes.clone();
        longer.resize(bytes.len() + extra, 0);
        prop_assert!(fnv1a64(&bytes) != fnv1a64(&longer));
    }

    /// The checksum computed inside `encode_frame`'s copy is the checksum of
    /// the bytes it produced, and `decode_frame`'s fused copy returns them.
    #[test]
    fn fused_frame_codec_agrees_with_the_plain_checksum(
        src in 0usize..1024,
        tag in any::<u64>(),
        seq in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..5000),
    ) {
        let frame = encode_frame(RankId(src), tag, seq, &payload);
        prop_assert_eq!(frame.len(), FRAME_HEADER + payload.len() + FRAME_TRAILER);
        let (body, trailer) = frame.split_at(frame.len() - FRAME_TRAILER);
        prop_assert_eq!(u64::read(trailer), fnv1a64(body));
        let back = decode_frame(&frame).unwrap();
        prop_assert_eq!((back.src, back.tag, back.seq), (RankId(src), tag, seq));
        prop_assert_eq!(&verify_frame(frame).unwrap(), &back);
        prop_assert_eq!(back.payload.into_vec(), payload);
    }

    /// Garbage never panics a decoder and is never accepted.
    #[test]
    fn garbage_never_panics_and_never_decodes(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        decoders_reject_or_roundtrip(&bytes)?;
    }

    /// Near-frames: a valid frame cut or padded around the header and
    /// trailer boundaries, with its length field overwritten (`u32::MAX`
    /// included) or one byte damaged.
    #[test]
    fn damaged_frames_never_panic_and_never_decode_wrongly(
        payload in proptest::collection::vec(any::<u8>(), 0..80),
        cut in 0usize..130,
        len_field in prop_oneof![Just(u32::MAX), Just(0u32), any::<u32>()],
        damage in 0usize..130,
        how in 0u8..4,
    ) {
        let mut frame = encode_frame(RankId(3), 11, 0, &payload);
        match how {
            0 => frame.truncate(cut.min(frame.len())),
            1 => frame.resize(frame.len() + cut, 0),
            2 => frame[28..32].copy_from_slice(&len_field.to_le_bytes()),
            _ => {
                let at = damage % frame.len();
                frame[at] = frame[at].wrapping_add(1 + (cut % 255) as u8);
            }
        }
        decoders_reject_or_roundtrip(&frame)?;
        // And as the payload of a well-formed Data envelope.
        decoders_reject_or_roundtrip(&transport::encode_envelope(StreamKind::Data, &frame))?;
    }

    /// Verify-once: handing the mailbox a frame decoded by the caller is
    /// the same as handing it the bytes — the same ack for every arrival
    /// and the same delivered order, under any arrival order with
    /// duplicates on one (src, tag) channel.
    #[test]
    fn accept_of_decoded_frame_equals_accept_frame(
        arrivals in proptest::collection::vec(0u64..12, 1..60),
    ) {
        let frames: Vec<Vec<u8>> = (0..12u64)
            .map(|seq| encode_frame(RankId(1), 7, seq, &seq.to_le_bytes()))
            .collect();
        let (by_bytes, by_frame) = (Mailbox::new(), Mailbox::new());
        for &seq in &arrivals {
            let bytes = &frames[seq as usize];
            let ack = by_bytes.accept_frame(bytes);
            prop_assert_eq!(by_frame.accept(decode_frame(bytes).unwrap()), ack);
            prop_assert!(ack.is_acked());
        }
        loop {
            let got = by_bytes.try_pop(RankId(1), 7);
            prop_assert_eq!(&by_frame.try_pop(RankId(1), 7), &got);
            if got.is_none() {
                break;
            }
        }
    }
}

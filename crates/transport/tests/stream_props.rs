//! Property tests for the socket stream layer: arbitrary envelope
//! sequences, split and coalesced at arbitrary byte boundaries, must
//! reassemble exactly; a stream truncated mid-envelope must yield a clean
//! [`StreamError::TruncatedStream`] from `finish()` — never a panic, never
//! a partial envelope. The socket reader's path for a large envelope —
//! take the payload's buffered prefix, read the rest straight from the
//! stream — must give the same envelopes as decoding everything.

use proptest::prelude::*;
use transport::{encode_envelope, StreamDecoder, StreamEnvelope, StreamError, StreamKind};

const KINDS: [StreamKind; 6] = [
    StreamKind::Data,
    StreamKind::Hello,
    StreamKind::Signal,
    StreamKind::Die,
    StreamKind::Bye,
    StreamKind::Clean,
];

/// Build an envelope sequence from independently generated kind indices
/// and payloads (the proptest shim has no tuple strategies).
fn zip_envelopes(kinds: &[usize], payloads: &[Vec<u8>]) -> Vec<StreamEnvelope> {
    kinds
        .iter()
        .zip(payloads)
        .map(|(k, payload)| StreamEnvelope {
            kind: KINDS[k % KINDS.len()],
            payload: payload.clone(),
        })
        .collect()
}

/// Concatenate the wire encoding of a sequence of envelopes.
fn encode_all(envs: &[StreamEnvelope]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for e in envs {
        bytes.extend_from_slice(&encode_envelope(e.kind, &e.payload));
    }
    bytes
}

/// Feed `bytes` to a decoder in chunks cut at the given boundaries,
/// draining complete envelopes after every push (as the reader loop does).
fn decode_chunked(bytes: &[u8], cuts: &[usize]) -> (Vec<StreamEnvelope>, StreamDecoder) {
    let mut dec = StreamDecoder::new();
    let mut out = Vec::new();
    let mut prev = 0usize;
    let mut cutpoints: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
    cutpoints.sort_unstable();
    cutpoints.push(bytes.len());
    for cut in cutpoints {
        if cut > prev {
            dec.push(&bytes[prev..cut]);
            prev = cut;
        }
        while let Some(env) = dec.next_envelope().expect("valid stream must decode") {
            out.push(env);
        }
    }
    (out, dec)
}

/// A byte stream that returns at most up to its next cut per read, as a
/// socket returns whatever has arrived.
struct Source<'a> {
    bytes: &'a [u8],
    cuts: Vec<usize>,
    pos: usize,
}

impl<'a> Source<'a> {
    fn new(bytes: &'a [u8], cuts: &[usize]) -> Self {
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
        cuts.sort_unstable();
        Self {
            bytes,
            cuts,
            pos: 0,
        }
    }

    /// 0 at the end of the stream.
    fn read(&mut self, out: &mut [u8]) -> usize {
        let next = self.cuts.iter().find(|&&c| c > self.pos);
        let n = (next.copied().unwrap_or(self.bytes.len()) - self.pos).min(out.len());
        out[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        n
    }
}

/// Read `bytes` as the socket reader does: an envelope whose payload is at
/// least `min` bytes long is taken whole into a buffer that starts out as
/// `junk`, and the rest of its payload read straight from the stream; any
/// other is decoded. A stream that ends inside a taken payload delivers
/// nothing of it.
fn decode_taking_large(
    bytes: &[u8],
    cuts: &[usize],
    min: usize,
    junk: &[u8],
) -> (Vec<StreamEnvelope>, StreamDecoder) {
    let mut src = Source::new(bytes, cuts);
    let mut dec = StreamDecoder::new();
    let mut out = Vec::new();
    let mut chunk = [0u8; 64];
    'stream: loop {
        loop {
            let taken = dec.take_large(min, |_| junk.to_vec());
            if let Some((kind, mut payload, mut filled)) = taken.expect("valid stream must decode")
            {
                while filled < payload.len() {
                    match src.read(&mut payload[filled..]) {
                        0 => break 'stream,
                        n => filled += n,
                    }
                }
                out.push(StreamEnvelope { kind, payload });
                continue;
            }
            match dec.next_envelope().expect("valid stream must decode") {
                Some(env) => out.push(env),
                None => break,
            }
        }
        match src.read(&mut chunk) {
            0 => break,
            n => dec.push(&chunk[..n]),
        }
    }
    (out, dec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Taking every envelope of at least `min` payload bytes whole, its
    /// buffered prefix from the decoder and the rest from the stream, gives
    /// the same envelopes, byte for byte and in order, as decoding them all
    /// — whatever the split into reads and whatever the buffer held before.
    #[test]
    fn taking_large_envelopes_whole_matches_decoding(
        kinds in proptest::collection::vec(0usize..7, 0..12),
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..160), 0..12),
        cuts in proptest::collection::vec(any::<usize>(), 0..24),
        min in 0usize..128,
        junk in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let n = kinds.len().min(payloads.len());
        let envs = zip_envelopes(&kinds[..n], &payloads[..n]);
        let bytes = encode_all(&envs);
        let (taken, dec) = decode_taking_large(&bytes, &cuts, min, &junk);
        prop_assert_eq!(&taken, &decode_chunked(&bytes, &cuts).0);
        prop_assert_eq!(taken, envs);
        prop_assert_eq!(dec.finish(), Ok(()));
    }

    /// A stream cut anywhere inside its last envelope delivers every
    /// envelope before it and nothing of the torn one, taken whole or not.
    #[test]
    fn a_torn_envelope_taken_whole_delivers_nothing(
        kinds in proptest::collection::vec(0usize..7, 1..8),
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..160), 1..8),
        cuts in proptest::collection::vec(any::<usize>(), 0..16),
        cut_back in any::<usize>(),
        min in 0usize..128,
    ) {
        let n = kinds.len().min(payloads.len());
        let envs = zip_envelopes(&kinds[..n], &payloads[..n]);
        let bytes = encode_all(&envs);
        let last = envs.last().unwrap();
        let last_len = encode_envelope(last.kind, &last.payload).len();
        let torn = &bytes[..bytes.len() - (1 + cut_back % (last_len - 1))];
        let (taken, _) = decode_taking_large(torn, &cuts, min, &[]);
        prop_assert_eq!(taken.as_slice(), &envs[..envs.len() - 1]);
    }

    /// Any envelope sequence, split/coalesced at any byte boundaries,
    /// round-trips exactly and ends on a clean boundary.
    #[test]
    fn arbitrary_splits_reassemble_exactly(
        kinds in proptest::collection::vec(0usize..6, 0..12),
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..96), 0..12),
        cuts in proptest::collection::vec(any::<usize>(), 0..24),
    ) {
        let n = kinds.len().min(payloads.len());
        let envs = zip_envelopes(&kinds[..n], &payloads[..n]);
        let bytes = encode_all(&envs);
        let (decoded, dec) = decode_chunked(&bytes, &cuts);
        prop_assert_eq!(decoded, envs);
        prop_assert_eq!(dec.finish(), Ok(()));
        prop_assert_eq!(dec.pending(), 0);
    }

    /// A stream truncated anywhere strictly inside its final envelope
    /// decodes every whole envelope before the tear, then reports
    /// TruncatedStream from finish() — and never panics or yields a
    /// partial envelope.
    #[test]
    fn truncated_tail_is_a_clean_error(
        kinds in proptest::collection::vec(0usize..6, 1..8),
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..96), 1..8),
        cuts in proptest::collection::vec(any::<usize>(), 0..16),
        cut_back in any::<usize>(),
    ) {
        let n = kinds.len().min(payloads.len());
        let envs = zip_envelopes(&kinds[..n], &payloads[..n]);
        let bytes = encode_all(&envs);
        let last = envs.last().unwrap();
        let last_len = encode_envelope(last.kind, &last.payload).len();
        // Truncate somewhere strictly inside the final envelope: dropping
        // all `last_len` bytes would leave a clean boundary, so keep at
        // least one byte of it (headers are 5 bytes, so last_len > 1).
        let drop = 1 + cut_back % (last_len - 1);
        let torn = &bytes[..bytes.len() - drop];
        let (decoded, mut dec) = decode_chunked(torn, &cuts);
        // Every envelope before the torn one still decodes, in order.
        prop_assert_eq!(decoded.as_slice(), &envs[..envs.len() - 1]);
        prop_assert_eq!(dec.next_envelope(), Ok(None));
        match dec.finish() {
            Err(StreamError::TruncatedStream { leftover }) => {
                prop_assert_eq!(leftover, last_len - drop);
            }
            other => prop_assert!(false, "expected TruncatedStream, got {:?}", other),
        }
    }

    /// Hostile bytes never panic the decoder: it either produces envelopes
    /// or reports a fatal error, and once it errors it stays errored.
    #[test]
    fn garbage_never_panics(
        junk in proptest::collection::vec(any::<u8>(), 0..256),
        cuts in proptest::collection::vec(any::<usize>(), 0..8),
    ) {
        let mut dec = StreamDecoder::new();
        let mut prev = 0usize;
        let mut cutpoints: Vec<usize> = cuts.iter().map(|c| c % (junk.len() + 1)).collect();
        cutpoints.sort_unstable();
        cutpoints.push(junk.len());
        'outer: for cut in cutpoints {
            if cut > prev {
                dec.push(&junk[prev..cut]);
                prev = cut;
            }
            loop {
                match dec.next_envelope() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(e) => {
                        // Fatal and sticky: the same error again, forever.
                        prop_assert_eq!(dec.next_envelope(), Err(e));
                        break 'outer;
                    }
                }
            }
        }
    }
}

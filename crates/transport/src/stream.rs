//! Byte-stream framing for the socket backend.
//!
//! A stream socket delivers a byte *stream*: one `write` on the sender can
//! arrive torn across many `read`s, and many writes can coalesce into one.
//! This module defines the envelope layout the socket backend speaks on a
//! connection and a [`StreamDecoder`] that reassembles envelopes from
//! arbitrarily-split reads, or lets a large one be read straight into a
//! buffer of its own ([`StreamDecoder::take_large`]).
//!
//! Envelope layout (little-endian):
//!
//! ```text
//! ┌────────┬───────────┬───────────────┐
//! │ kind u8│ len u32 LE│ payload (len) │
//! └────────┴───────────┴───────────────┘
//! ```
//!
//! For [`StreamKind::Clean`] and [`StreamKind::Data`] the payload is a full
//! wire frame ([`crate::wire`]) — magic, sequence number and checksum
//! included; only a `Data` frame is numbered. The outer length
//! prefix is *trusted transport state* (a TCP/Unix stream does not corrupt
//! bytes in practice), while the inner frame is the layer the seeded
//! [`crate::PerturbPlan`] perturbs; keeping the two separate means a
//! simulated bit-flip can never desynchronize the stream itself, exactly
//! like a corrupted packet payload doesn't desynchronize TCP.
//!
//! The decoder never panics on hostile input: an unknown kind or an
//! oversized length yields a [`StreamError`], and a connection that ends in
//! the middle of an envelope yields [`StreamError::TruncatedStream`] from
//! [`StreamDecoder::finish`] — never a partial envelope.

/// Envelope kinds carried on a socket connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum StreamKind {
    /// A numbered wire frame, sent under a plan that may lose it.
    Data = 1,
    /// First envelope on a dialed connection: payload is `[rank u64]`.
    Hello = 3,
    /// Out-of-band control-plane signal (opaque to the transport).
    Signal = 4,
    /// "You have been suspected dead" — the receiver marks *itself* dead.
    Die = 5,
    /// Clean goodbye: the sender is retiring voluntarily.
    Bye = 6,
    /// An unnumbered wire frame on a link no plan perturbs: delivered
    /// straight to the receiver's mailbox.
    Clean = 7,
}

impl StreamKind {
    fn from_u8(b: u8) -> Option<Self> {
        match b {
            1 => Some(Self::Data),
            3 => Some(Self::Hello),
            4 => Some(Self::Signal),
            5 => Some(Self::Die),
            6 => Some(Self::Bye),
            7 => Some(Self::Clean),
            _ => None,
        }
    }
}

/// One decoded envelope.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamEnvelope {
    /// What the payload is.
    pub kind: StreamKind,
    /// The payload bytes (a wire frame for [`StreamKind::Clean`] and
    /// [`StreamKind::Data`]).
    pub payload: Vec<u8>,
}

/// Decoding failures. All are fatal for the connection: the stream can no
/// longer be trusted to be in sync.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamError {
    /// The kind byte is not a known [`StreamKind`].
    UnknownKind(u8),
    /// The length prefix exceeds [`MAX_ENVELOPE_LEN`].
    Oversized(u32),
    /// The stream ended mid-envelope (a torn final frame).
    TruncatedStream {
        /// Bytes of the incomplete envelope left in the buffer.
        leftover: usize,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::UnknownKind(k) => write!(f, "unknown stream envelope kind {k}"),
            StreamError::Oversized(n) => write!(f, "envelope length {n} exceeds limit"),
            StreamError::TruncatedStream { leftover } => {
                write!(f, "stream ended mid-envelope ({leftover} bytes leftover)")
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// Upper bound on a single envelope's payload. Far above any frame the
/// collectives produce; its purpose is to turn a desynchronized (or
/// hostile) length prefix into an error instead of an unbounded allocation.
pub const MAX_ENVELOPE_LEN: u32 = 64 * 1024 * 1024;

/// Bytes of envelope header (kind + length prefix).
pub const ENVELOPE_HEADER: usize = 5;

/// The header that precedes a `len`-byte payload of `kind` on the stream.
/// Writing it and then the payload is the same as writing
/// [`encode_envelope`]'s result, without copying the payload.
///
/// # Panics
/// Panics if `len` exceeds [`MAX_ENVELOPE_LEN`].
pub(crate) fn envelope_header(kind: StreamKind, len: usize) -> [u8; ENVELOPE_HEADER] {
    assert!(
        len <= MAX_ENVELOPE_LEN as usize,
        "envelope payload too large"
    );
    let [a, b, c, d] = (len as u32).to_le_bytes();
    [kind as u8, a, b, c, d]
}

/// Encode one envelope.
pub fn encode_envelope(kind: StreamKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_HEADER + payload.len());
    out.extend_from_slice(&envelope_header(kind, payload.len()));
    out.extend_from_slice(payload);
    out
}

/// Incremental envelope reassembler for one connection.
///
/// Feed it whatever the socket read returned ([`StreamDecoder::push`]),
/// then drain complete envelopes with [`StreamDecoder::next_envelope`].
/// When the connection closes, [`StreamDecoder::finish`] distinguishes a
/// clean boundary from a torn final envelope.
#[derive(Debug, Default)]
pub struct StreamDecoder {
    buf: Vec<u8>,
    /// Read cursor into `buf`; consumed prefix is compacted away lazily.
    pos: usize,
}

impl StreamDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append freshly-read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing so the buffer stays bounded by the largest
        // in-flight envelope, not the connection's lifetime traffic.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered but not yet decoded.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Try to decode the next complete envelope. `Ok(None)` means "need
    /// more bytes"; errors are fatal for the connection.
    pub fn next_envelope(&mut self) -> Result<Option<StreamEnvelope>, StreamError> {
        Ok(self.next_borrowed()?.map(|(kind, payload)| StreamEnvelope {
            kind,
            payload: payload.to_vec(),
        }))
    }

    /// [`StreamDecoder::next_envelope`] without the copy: the payload is a
    /// view into the decoder's own buffer, valid until the next `push`.
    pub fn next_borrowed(&mut self) -> Result<Option<(StreamKind, &[u8])>, StreamError> {
        let whole = |&(_, len): &(StreamKind, usize)| self.pending() >= ENVELOPE_HEADER + len;
        let Some((kind, len)) = self.header()?.filter(whole) else {
            return Ok(None);
        };
        let start = self.pos + ENVELOPE_HEADER;
        self.pos = start + len;
        Ok(Some((kind, &self.buf[start..self.pos])))
    }

    /// The next envelope, if its header is here and its payload is at least
    /// `min` bytes long: its kind, and its payload's `filled` buffered bytes
    /// copied to the front of `buffer(len)`, resized to the payload's `len`
    /// (grown by zeroes only past its old length). The caller reads the
    /// rest from the stream into the back. `Ok(None)` takes nothing.
    pub fn take_large(
        &mut self,
        min: usize,
        buffer: impl FnOnce(usize) -> Vec<u8>,
    ) -> Result<Option<(StreamKind, Vec<u8>, usize)>, StreamError> {
        let Some((kind, len)) = self.header()?.filter(|&(_, len)| len >= min) else {
            return Ok(None);
        };
        let start = self.pos + ENVELOPE_HEADER;
        let filled = len.min(self.buf.len() - start);
        let mut payload = buffer(len);
        payload.resize(len, 0);
        payload[..filled].copy_from_slice(&self.buf[start..start + filled]);
        self.pos = start + filled;
        Ok(Some((kind, payload, filled)))
    }

    /// The next envelope's kind and payload length, once its header is here.
    fn header(&self) -> Result<Option<(StreamKind, usize)>, StreamError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < ENVELOPE_HEADER {
            return Ok(None);
        }
        let kind = StreamKind::from_u8(avail[0]).ok_or(StreamError::UnknownKind(avail[0]))?;
        let len = u32::from_le_bytes([avail[1], avail[2], avail[3], avail[4]]);
        if len > MAX_ENVELOPE_LEN {
            return Err(StreamError::Oversized(len));
        }
        Ok(Some((kind, len as usize)))
    }

    /// The connection closed: a clean close must land exactly on an
    /// envelope boundary. Leftover bytes mean the final envelope was torn
    /// off mid-flight — reported as an error, never as a partial envelope.
    pub fn finish(&self) -> Result<(), StreamError> {
        match self.pending() {
            0 => Ok(()),
            leftover => Err(StreamError::TruncatedStream { leftover }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single() {
        let mut d = StreamDecoder::new();
        d.push(&encode_envelope(StreamKind::Data, b"payload"));
        let e = d.next_envelope().unwrap().unwrap();
        assert_eq!(e.kind, StreamKind::Data);
        assert_eq!(e.payload, b"payload");
        assert!(d.next_envelope().unwrap().is_none());
        d.finish().unwrap();
    }

    #[test]
    fn torn_and_coalesced_reads() {
        let a = encode_envelope(StreamKind::Signal, &[1; 16]);
        let b = encode_envelope(StreamKind::Data, &[2; 300]);
        let mut joined = a.clone();
        joined.extend_from_slice(&b);
        let mut d = StreamDecoder::new();
        // Feed one byte at a time: every envelope must still come out whole.
        let mut out = Vec::new();
        for byte in joined {
            d.push(&[byte]);
            while let Some(e) = d.next_envelope().unwrap() {
                out.push(e);
            }
        }
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].payload, vec![1; 16]);
        assert_eq!(out[1].payload, vec![2; 300]);
        d.finish().unwrap();
    }

    #[test]
    fn empty_payload_ok() {
        let mut d = StreamDecoder::new();
        d.push(&encode_envelope(StreamKind::Bye, b""));
        let e = d.next_envelope().unwrap().unwrap();
        assert_eq!(e.kind, StreamKind::Bye);
        assert!(e.payload.is_empty());
    }

    #[test]
    fn unknown_kind_is_error() {
        for kind in [2, 99] {
            let mut d = StreamDecoder::new();
            d.push(&[kind, 0, 0, 0, 0]);
            assert_eq!(d.next_envelope(), Err(StreamError::UnknownKind(kind)));
        }
    }

    #[test]
    fn oversized_length_is_error() {
        let mut d = StreamDecoder::new();
        let mut bytes = vec![StreamKind::Data as u8];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        d.push(&bytes);
        assert_eq!(d.next_envelope(), Err(StreamError::Oversized(u32::MAX)));
    }

    #[test]
    fn truncated_tail_reported_on_finish() {
        let full = encode_envelope(StreamKind::Data, &[7; 32]);
        let mut d = StreamDecoder::new();
        d.push(&full[..full.len() - 5]);
        assert!(d.next_envelope().unwrap().is_none());
        assert!(matches!(
            d.finish(),
            Err(StreamError::TruncatedStream { leftover }) if leftover > 0
        ));
    }
}

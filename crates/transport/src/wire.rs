//! Byte-level encoding helpers and the link-layer frame codec.
//!
//! Collectives and control protocols exchange typed values over a byte
//! transport; `Wire` gives the handful of primitive types we need a
//! stable little-endian encoding without pulling in a serialization
//! framework on the hot path.
//!
//! The frame codec ([`encode_frame_with`] / [`decode_frame`] /
//! [`verify_frame`]) wraps every fabric message in a checksummed envelope so
//! the transport can detect corruption. Where a link can lose frames —
//! under an adversarial [`crate::PerturbPlan`] — the envelope also carries
//! a per-link sequence number, by which the receiver suppresses duplicates
//! and restores the link's order.

use crate::ids::RankId;
use std::ops::Deref;

/// Fixed-width little-endian encoding for primitive scalars.
///
/// The per-element methods are `#[inline]` in every impl: the slice codecs
/// here and in `collectives::elem` are generic, so they are instantiated in
/// the *calling* crate, and an element method that cannot be inlined there
/// is one cross-crate call per element instead of a vectorised loop.
pub trait Wire: Copy + Send + Sync + 'static {
    /// Encoded size in bytes.
    const WIDTH: usize;
    /// Append the encoding of `self` to `out`.
    fn write(&self, out: &mut Vec<u8>);
    /// Write the encoding of `self` over `out`; panics unless `out` is
    /// exactly [`Self::WIDTH`] bytes.
    fn write_to(&self, out: &mut [u8]);
    /// Decode from exactly [`Self::WIDTH`] bytes.
    fn read(bytes: &[u8]) -> Self;

    /// Encode a slice.
    fn encode_slice(vals: &[Self]) -> Vec<u8> {
        let mut out = vec![0; vals.len() * Self::WIDTH];
        for (v, chunk) in vals.iter().zip(out.chunks_exact_mut(Self::WIDTH)) {
            v.write_to(chunk);
        }
        out
    }

    /// Decode a whole buffer into a vector; `None` if `bytes.len()` is not a
    /// multiple of [`Self::WIDTH`]. The form for bytes a peer chose.
    fn decode_checked(bytes: &[u8]) -> Option<Vec<Self>> {
        bytes
            .len()
            .is_multiple_of(Self::WIDTH)
            .then(|| bytes.chunks_exact(Self::WIDTH).map(Self::read).collect())
    }

    /// Decode a whole buffer into a vector.
    ///
    /// # Panics
    /// Panics if `bytes.len()` is not a multiple of [`Self::WIDTH`].
    fn decode_slice(bytes: &[u8]) -> Vec<Self> {
        Self::decode_checked(bytes).unwrap_or_else(|| {
            panic!(
                "buffer length {} is not a multiple of element width {}",
                bytes.len(),
                Self::WIDTH
            )
        })
    }
}

macro_rules! impl_wire {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            #[inline]
            fn write(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn write_to(&self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes[..Self::WIDTH].try_into().expect("sliced to WIDTH"))
            }
        }
    )*};
}

impl_wire!(f32, f64, u8, u16, u32, u64, i32, i64);

/// Encode a slice of `f32` as little-endian bytes.
pub fn f32s_to_bytes(vals: &[f32]) -> Vec<u8> {
    f32::encode_slice(vals)
}

/// Decode little-endian bytes into `f32`s.
pub fn bytes_to_f32s(bytes: &[u8]) -> Vec<f32> {
    f32::decode_slice(bytes)
}

// ---------------------------------------------------------------------------
// Link-layer frame codec.
// ---------------------------------------------------------------------------

/// Frame layout (all little-endian):
///
/// ```text
/// offset  0  u32  magic  "ELFR"
/// offset  4  u64  src rank
/// offset 12  u64  tag
/// offset 20  u64  per-link sequence number (0 where the link is clean)
/// offset 28  u32  payload length
/// offset 32  ...  payload
/// tail       u64  checksum ([`fnv1a64`]) over every preceding byte
/// ```
const FRAME_MAGIC: u32 = 0x454c_4652; // "ELFR"
/// Fixed bytes before the payload: exactly one checksum block, so the
/// payload starts on a block boundary.
pub const FRAME_HEADER: usize = CHECKSUM_BLOCK;
/// Checksum trailer size.
pub const FRAME_TRAILER: usize = 8;

/// A decoded, checksum-verified link frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Sender of the frame.
    pub src: RankId,
    /// Application tag (the (src, tag) pair names the ordered channel).
    pub tag: u64,
    /// Sequence number within the ordered (src, dst) link, starting at 0,
    /// shared by every tag the link carries. A clean in-process frame is
    /// not numbered and carries 0.
    pub seq: u64,
    /// Application payload.
    pub payload: Payload,
}

/// A message payload as a view of the buffer it arrived in: all of a
/// payload [`decode_frame`] copied out, or the body of a frame
/// [`verify_frame`] checked where it lies. Reads as the payload bytes.
#[derive(Clone, Debug, Default)]
pub struct Payload {
    buf: Vec<u8>,
    /// Where the payload starts in `buf`; it runs to the end.
    start: usize,
}

impl Payload {
    /// The payload as a vector of its own: the buffer it arrived in, a
    /// frame's header drained off the front.
    pub fn into_vec(mut self) -> Vec<u8> {
        self.buf.drain(..self.start);
        self.buf
    }

    /// The whole frame this payload was verified in, for
    /// [`encode_frame_with`] to write over; `None` for a payload copied out.
    pub(crate) fn into_frame(self) -> Option<Vec<u8>> {
        (self.start == FRAME_HEADER).then_some(self.buf)
    }
}

impl From<Vec<u8>> for Payload {
    fn from(buf: Vec<u8>) -> Self {
        Self { buf, start: 0 }
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[self.start..]
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Payload {}

/// Why a byte buffer failed to decode as a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than header + trailer.
    TooShort,
    /// Magic word mismatch.
    BadMagic,
    /// Declared payload length disagrees with the buffer length.
    LengthMismatch,
    /// Checksum mismatch (bit corruption in transit).
    BadChecksum,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooShort => write!(f, "frame shorter than header + trailer"),
            FrameError::BadMagic => write!(f, "frame magic mismatch"),
            FrameError::LengthMismatch => write!(f, "frame length field disagrees with buffer"),
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
        }
    }
}

/// Bytes absorbed per checksum block: one 8-byte word into each lane.
const CHECKSUM_BLOCK: usize = 32;
/// Odd, so [`mix`] is a bijection of the state for a fixed word and of the
/// word for a fixed state.
const CHECKSUM_MUL: u64 = 0x9e37_79b1_85eb_ca87;
/// Bytes a payload is written or copied in between two checksum passes:
/// small enough that the pass reads them back from L1, large enough for
/// `memcpy`, and a whole number of elements of every [`Wire`] width.
pub const FILL_CHUNK: usize = 1024;
const _: () = assert!(FILL_CHUNK.is_multiple_of(CHECKSUM_BLOCK));

/// `bytes` as its whole checksum blocks and the sub-block tail after them.
fn split_blocks(bytes: &[u8]) -> (&[u8], &[u8]) {
    bytes.split_at(bytes.len() - bytes.len() % CHECKSUM_BLOCK)
}

/// One checksum step: xor the word in, multiply.
#[inline(always)]
fn mix(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(CHECKSUM_MUL)
}

/// Running state of the frame checksum: four independent multiply–xor
/// lanes, so consecutive multiplies overlap instead of waiting on each
/// other.
struct Checksum([u64; 4]);

impl Checksum {
    fn new() -> Self {
        Self([
            0xcbf2_9ce4_8422_2325,
            0x6c62_272e_07bb_0142,
            0x62b8_2175_6295_c58d,
            0x8422_2325_cbf2_9ce4,
        ])
    }

    /// Absorb whole blocks; `bytes.len()` is a multiple of [`CHECKSUM_BLOCK`].
    #[inline]
    fn absorb(&mut self, bytes: &[u8]) {
        debug_assert!(bytes.len().is_multiple_of(CHECKSUM_BLOCK));
        let [mut a, mut b, mut c, mut d] = self.0;
        for blk in bytes.chunks_exact(CHECKSUM_BLOCK) {
            a = mix(a, u64::read(&blk[0..8]));
            b = mix(b, u64::read(&blk[8..16]));
            c = mix(c, u64::read(&blk[16..24]));
            d = mix(d, u64::read(&blk[24..32]));
        }
        self.0 = [a, b, c, d];
    }

    /// Append `src` to `out` and absorb its whole blocks on the way, a
    /// cache-resident chunk at a time, so the bytes come from memory once.
    /// Returns the unabsorbed tail (shorter than one block).
    fn absorb_copy<'a>(&mut self, src: &'a [u8], out: &mut Vec<u8>) -> &'a [u8] {
        let (blocks, tail) = split_blocks(src);
        for chunk in blocks.chunks(FILL_CHUNK) {
            out.extend_from_slice(chunk);
            self.absorb(chunk);
        }
        out.extend_from_slice(tail);
        tail
    }

    /// Fold the lanes together, then the sub-block `tail` (whole words, then
    /// the last bytes zero-padded to a word), then the total length `len`.
    fn finish(self, tail: &[u8], len: usize) -> u64 {
        let [a, b, c, d] = self.0;
        let mut h = mix(mix(mix(a, b), c), d);
        let mut words = tail.chunks_exact(8);
        for w in &mut words {
            h = mix(h, u64::read(w));
        }
        let mut last = [0u8; 8];
        last[..words.remainder().len()].copy_from_slice(words.remainder());
        h = mix(h, u64::from_le_bytes(last));
        h = mix(h, len as u64);
        h ^ (h >> 32)
    }
}

/// The link checksum. (The name is historical: it was a byte-serial
/// FNV-1a-64 loop once.) A word-wise multiply–xor hash: the buffer is read
/// as little-endian 8-byte words, word *i* of every 32-byte block goes into
/// lane *i* as `h = (h ^ w) · M` with `M` odd, and the four lanes, the
/// sub-block tail and the buffer length are folded into one word by the
/// same step.
///
/// Every step is a bijection of the running state for a fixed word and of
/// the word for a fixed state, and so is the final `h ^ (h >> 32)`. Two
/// buffers of equal length that differ inside a single aligned 8-byte word
/// therefore never collide — in particular any single-bit flip is caught,
/// always, which is what a link checksum must guarantee. Beyond that it is
/// an ordinary 64-bit hash, not a CRC: errors spanning several words are
/// caught with overwhelming probability, not by construction.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let (blocks, tail) = split_blocks(bytes);
    let mut sum = Checksum::new();
    sum.absorb(blocks);
    sum.finish(tail, bytes.len())
}

/// A `len`-byte payload as `fill(at, chunk)` writes it into the chunks
/// [`encode_frame_with`] would ask for: consecutive [`FILL_CHUNK`]s (the
/// last may be shorter) at offset `at`.
pub fn fill_payload(len: usize, mut fill: impl FnMut(usize, &mut [u8])) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    for at in (0..len).step_by(FILL_CHUNK) {
        out.extend_from_slice(&ZEROS[..FILL_CHUNK.min(len - at)]);
        fill(at, &mut out[at..]);
    }
    out
}

/// What writes a payload in place: called as [`fill_payload`] calls it. It
/// must write every byte of its chunk, which may hold a spent frame's bytes.
pub type Fill<'a> = &'a mut dyn FnMut(usize, &mut [u8]);

/// Zeroes to grow a payload by, a chunk at a time, before it is written
/// there: cheaper than `Vec::resize`, and than `vec![0; n]`, whose `calloc`
/// skips glibc's per-thread cache.
static ZEROS: [u8; FILL_CHUNK] = [0; FILL_CHUNK];

/// `out[at..at + n]`, grown by zeroes past `out`'s end (`at <= out.len()`,
/// `n <= FILL_CHUNK`).
fn place(out: &mut Vec<u8>, at: usize, n: usize) -> &mut [u8] {
    if out.len() < at + n {
        out.extend_from_slice(&ZEROS[..at + n - out.len()]);
    }
    &mut out[at..at + n]
}

/// Encode one link frame into `out` (a spent frame, or `Vec::new()`) whose
/// `len`-byte payload `fill(at, chunk)` writes in place a [`FILL_CHUNK`] at a
/// time; the checksum absorbs each chunk while it is in L1, so producing the
/// payload and framing it are one pass. Bytes in `out` are written over, not
/// zeroed first. Panics if `len` exceeds `u32::MAX`.
pub fn encode_frame_with(
    mut out: Vec<u8>,
    src: RankId,
    tag: u64,
    seq: u64,
    len: usize,
    mut fill: impl FnMut(usize, &mut [u8]),
) -> Vec<u8> {
    let len32 = u32::try_from(len).expect("frame payload exceeds u32::MAX bytes");
    let total = FRAME_HEADER + len + FRAME_TRAILER;
    out.truncate(total);
    out.reserve_exact(total - out.len());
    let header = place(&mut out, 0, FRAME_HEADER);
    FRAME_MAGIC.write_to(&mut header[0..4]);
    (src.0 as u64).write_to(&mut header[4..12]);
    tag.write_to(&mut header[12..20]);
    seq.write_to(&mut header[20..28]);
    len32.write_to(&mut header[28..32]);
    let mut sum = Checksum::new();
    sum.absorb(header);
    for at in (0..len).step_by(FILL_CHUNK) {
        let chunk = place(&mut out, FRAME_HEADER + at, FILL_CHUNK.min(len - at));
        fill(at, chunk);
        sum.absorb(split_blocks(chunk).0);
    }
    let tail = split_blocks(&out[FRAME_HEADER..FRAME_HEADER + len]).1;
    let check = sum.finish(tail, FRAME_HEADER + len);
    check.write_to(place(&mut out, FRAME_HEADER + len, FRAME_TRAILER));
    out
}

/// Encode one link frame around a copy of `payload`; see
/// [`encode_frame_with`].
pub fn encode_frame(src: RankId, tag: u64, seq: u64, payload: &[u8]) -> Vec<u8> {
    encode_frame_with(Vec::new(), src, tag, seq, payload.len(), |at, chunk| {
        chunk.copy_from_slice(&payload[at..at + chunk.len()]);
    })
}

/// The header of an encoded frame whose size, magic and length field
/// agree, with an empty payload: the check both decoders share.
fn check_header(bytes: &[u8]) -> Result<Frame, FrameError> {
    if bytes.len() < FRAME_HEADER + FRAME_TRAILER {
        return Err(FrameError::TooShort);
    }
    if u32::read(&bytes[0..4]) != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    if u32::read(&bytes[28..32]) as usize != bytes.len() - FRAME_HEADER - FRAME_TRAILER {
        return Err(FrameError::LengthMismatch);
    }
    Ok(Frame {
        src: RankId(u64::read(&bytes[4..12]) as usize),
        tag: u64::read(&bytes[12..20]),
        seq: u64::read(&bytes[20..28]),
        payload: Payload::default(),
    })
}

/// Decode and verify one link frame out of a borrowed buffer, the checksum
/// computed inside the one copy of the payload out of `bytes`.
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, FrameError> {
    let mut frame = check_header(bytes)?;
    let (header, rest) = bytes.split_at(FRAME_HEADER);
    let (body, trailer) = rest.split_at(rest.len() - FRAME_TRAILER);
    let mut sum = Checksum::new();
    sum.absorb(header);
    let mut payload = Vec::with_capacity(body.len());
    let tail = sum.absorb_copy(body, &mut payload);
    if sum.finish(tail, FRAME_HEADER + body.len()) != u64::read(trailer) {
        return Err(FrameError::BadChecksum);
    }
    frame.payload = payload.into();
    Ok(frame)
}

/// Verify an owned link frame where it lies: no copy, the payload stays a
/// view of `bytes`. A refused buffer comes back unchanged with the reason.
pub fn verify_frame(mut bytes: Vec<u8>) -> Result<Frame, (Vec<u8>, FrameError)> {
    let mut frame = match check_header(&bytes) {
        Ok(frame) => frame,
        Err(e) => return Err((bytes, e)),
    };
    let end = bytes.len() - FRAME_TRAILER;
    if fnv1a64(&bytes[..end]) != u64::read(&bytes[end..]) {
        return Err((bytes, FrameError::BadChecksum));
    }
    bytes.truncate(end);
    frame.payload = Payload {
        buf: bytes,
        start: FRAME_HEADER,
    };
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_roundtrip() {
        let xs = vec![0.0f32, -1.5, 3.25e7, f32::INFINITY, f32::MIN_POSITIVE];
        assert_eq!(bytes_to_f32s(&f32s_to_bytes(&xs)), xs);
    }

    #[test]
    fn u64_roundtrip() {
        let xs = vec![0u64, 1, u64::MAX, 0xdead_beef];
        assert_eq!(u64::decode_slice(&u64::encode_slice(&xs)), xs);
    }

    #[test]
    fn nan_payload_survives() {
        let xs = vec![f32::NAN];
        let back = bytes_to_f32s(&f32s_to_bytes(&xs));
        assert!(back[0].is_nan());
    }

    #[test]
    fn mixed_widths() {
        let mut buf = Vec::new();
        42u16.write(&mut buf);
        (-7i32).write(&mut buf);
        assert_eq!(u16::read(&buf[0..2]), 42);
        assert_eq!(i32::read(&buf[2..6]), -7);
    }

    #[test]
    fn write_to_writes_what_write_appends() {
        let mut appended = Vec::new();
        0x0102_0304_0506_0708u64.write(&mut appended);
        (-1.5f32).write(&mut appended);
        let mut placed = vec![0xff; 12];
        0x0102_0304_0506_0708u64.write_to(&mut placed[..8]);
        (-1.5f32).write_to(&mut placed[8..]);
        assert_eq!(placed, appended);
    }

    #[test]
    fn decode_checked_refuses_a_ragged_buffer() {
        let bytes = u32::encode_slice(&[7, 9]);
        assert_eq!(u32::decode_checked(&bytes), Some(vec![7, 9]));
        assert_eq!(u32::decode_checked(&[]), Some(vec![]));
        assert_eq!(u32::decode_checked(&bytes[..7]), None);
        assert_eq!(u32::decode_checked(&bytes[..1]), None);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn decode_rejects_ragged_buffer() {
        bytes_to_f32s(&[0u8; 5]);
    }

    #[test]
    fn empty_slices() {
        assert!(f32s_to_bytes(&[]).is_empty());
        assert!(bytes_to_f32s(&[]).is_empty());
    }

    #[test]
    fn frame_roundtrip() {
        let enc = encode_frame(RankId(3), 0xdead, 42, b"payload");
        let f = decode_frame(&enc).unwrap();
        assert_eq!(f.src, RankId(3));
        assert_eq!(f.tag, 0xdead);
        assert_eq!(f.seq, 42);
        assert_eq!(&*f.payload, b"payload");
        assert_eq!(verify_frame(enc).unwrap(), f);
    }

    #[test]
    fn frame_roundtrip_empty_payload() {
        let enc = encode_frame(RankId(0), 0, 0, b"");
        assert_eq!(&*decode_frame(&enc).unwrap().payload, b"");
        assert_eq!(verify_frame(enc).unwrap().payload.into_vec(), b"");
    }

    /// The pattern the golden vectors and the flip sweeps are made of.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8).collect()
    }

    #[test]
    fn frame_rejects_any_single_bit_flip() {
        // Every payload length up to three blocks: each lane, each tail
        // word, the partial last word, and every header and trailer bit —
        // through both decoders, the in-place one handing a refused buffer
        // back exactly as it came.
        for len in 0..=96 {
            let enc = encode_frame(RankId(1), 7, 9, &pattern(len));
            for byte in 0..enc.len() {
                for bit in 0..8 {
                    let mut bad = enc.clone();
                    bad[byte] ^= 1 << bit;
                    assert!(
                        decode_frame(&bad).is_err(),
                        "payload {len}: flip at byte {byte} bit {bit} went undetected"
                    );
                    let (back, _) = verify_frame(bad.clone()).expect_err("flip verified in place");
                    assert_eq!(back, bad, "payload {len}: refused buffer changed");
                }
            }
        }
    }

    #[test]
    fn frame_trailer_is_the_checksum_of_what_precedes_it() {
        for len in [0, 1, 31, 32, 33, 1023, 1024, 1025, 5000] {
            let enc = encode_frame(RankId(2), 5, 3, &pattern(len));
            let (body, trailer) = enc.split_at(enc.len() - FRAME_TRAILER);
            assert_eq!(u64::read(trailer), fnv1a64(body), "payload {len}");
            assert_eq!(decode_frame(&enc).unwrap().payload.into_vec(), pattern(len));
            assert_eq!(verify_frame(enc).unwrap().payload.into_vec(), pattern(len));
        }
    }

    /// A frame as the layout above documents it, built without the encoder.
    fn documented_frame(src: usize, tag: u64, seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        FRAME_MAGIC.write(&mut out);
        (src as u64).write(&mut out);
        tag.write(&mut out);
        seq.write(&mut out);
        (payload.len() as u32).write(&mut out);
        out.extend_from_slice(payload);
        fnv1a64(&out).write(&mut out);
        out
    }

    #[test]
    fn a_frame_filled_in_place_is_the_frame_of_a_copy() {
        // Every length across three fill chunks and a ragged tail: each
        // chunk boundary, each partial last block — into a fresh buffer and
        // over a spent frame that is dirty, too small or too large. A buffer
        // that holds the frame is written where it lies.
        for len in 0..=3 * FILL_CHUNK + 33 {
            let payload = pattern(len);
            let want = documented_frame(4, 11, 2, &payload);
            let total = want.len();
            let mut calls = Vec::new();
            let filled = encode_frame_with(Vec::new(), RankId(4), 11, 2, len, |at, chunk| {
                calls.push((at, chunk.len()));
                chunk.copy_from_slice(&payload[at..at + chunk.len()]);
            });
            assert_eq!(filled, want, "length {len}");
            assert_eq!(
                filled,
                encode_frame(RankId(4), 11, 2, &payload),
                "length {len}"
            );
            for (what, spent) in [
                ("dirty", vec![0xab; total]),
                ("too small", vec![0xcd; total / 2]),
                ("too large", vec![0xef; total + 3 * FILL_CHUNK + 7]),
            ] {
                let (fits, at) = (spent.capacity() >= total, spent.as_ptr());
                let over = encode_frame_with(spent, RankId(4), 11, 2, len, |at, chunk| {
                    chunk.copy_from_slice(&payload[at..at + chunk.len()]);
                });
                assert_eq!(over, want, "length {len}, {what} buffer");
                assert!(!fits || over.as_ptr() == at, "length {len}: {what} moved");
            }
            let mut plain_calls = Vec::new();
            let plain = fill_payload(len, |at, chunk| {
                plain_calls.push((at, chunk.len()));
                chunk.copy_from_slice(&payload[at..at + chunk.len()]);
            });
            assert_eq!((calls, plain), (plain_calls, payload), "length {len}");
        }
    }

    #[test]
    fn frame_rejects_truncation_and_extension() {
        let enc = encode_frame(RankId(1), 7, 9, b"abcdef");
        assert!(decode_frame(&enc[..enc.len() - 1]).is_err());
        let mut long = enc.clone();
        long.push(0);
        assert!(decode_frame(&long).is_err());
        assert_eq!(decode_frame(&[]), Err(FrameError::TooShort));
    }

    #[test]
    fn frame_rejects_bad_magic() {
        let mut enc = encode_frame(RankId(1), 7, 9, b"x");
        enc[0] = 0;
        // Magic is checked before the checksum, so the error is specific.
        assert_eq!(decode_frame(&enc), Err(FrameError::BadMagic));
    }

    #[test]
    fn checksum_is_stable() {
        // The checksum is part of the wire format. These vectors come from
        // an independent implementation of `fnv1a64` as documented, run
        // over `pattern(len)`.
        let golden: [(usize, u64); 8] = [
            (0, 0x8f84_c150_6dd8_4a70),
            (1, 0x184e_f3b1_6ab6_f541),
            (7, 0x6c73_6d34_c336_292e),
            (8, 0xb2ff_9817_1ae0_b9ee),
            (31, 0x851c_8b6a_e9b4_2557),
            (32, 0x545f_910a_cee6_8ef8),
            (33, 0xafed_4dd6_d425_5148),
            (1 << 20, 0x2112_edab_acf6_668b),
        ];
        for (len, want) in golden {
            assert_eq!(fnv1a64(&pattern(len)), want, "length {len}");
        }
    }
}

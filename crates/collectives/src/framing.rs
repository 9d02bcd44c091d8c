//! Framing of multiple indexed byte blocks into a single message.
//!
//! Allgather-style collectives move *per-rank blocks* that may differ in
//! size (an `allgatherv`). Blocks travel as `(origin index, bytes)` frames
//! packed into one message.

use crate::error::CollError;
use transport::Wire;

/// Encode `(index, block)` pairs into one buffer.
pub fn encode_blocks<'a>(blocks: impl Iterator<Item = (usize, &'a [u8])>) -> Vec<u8> {
    // The count slot goes first and is patched once the blocks are in.
    let mut out = vec![0; 8];
    let mut count = 0u64;
    for (idx, block) in blocks {
        (idx as u64).write(&mut out);
        (block.len() as u64).write(&mut out);
        out.extend_from_slice(block);
        count += 1;
    }
    out[..8].copy_from_slice(&count.to_le_bytes());
    out
}

/// Split `n` bytes off the front of `rest`, if it holds that many.
fn take<'a>(rest: &mut &'a [u8], n: u64) -> Option<&'a [u8]> {
    let (head, tail) = rest.split_at_checked(usize::try_from(n).ok()?)?;
    *rest = tail;
    Some(head)
}

fn parse(mut rest: &[u8]) -> Option<Vec<(usize, Vec<u8>)>> {
    let count = u64::read(take(&mut rest, 8)?);
    // A block costs at least its 16-byte header, so a count the remaining
    // bytes cannot hold is refused before anything is allocated for it.
    if count > (rest.len() / 16) as u64 {
        return None;
    }
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let idx = usize::try_from(u64::read(take(&mut rest, 8)?)).ok()?;
        let len = u64::read(take(&mut rest, 8)?);
        out.push((idx, take(&mut rest, len)?.to_vec()));
    }
    rest.is_empty().then_some(out)
}

/// Decode a buffer received from group-local `peer`, as produced by
/// [`encode_blocks`].
///
/// The transport's checksum proves these are the bytes the peer *sent*, not
/// that the peer framed them well (a different build, a bug), so every
/// count and length read off the wire is checked against the bytes that
/// remain before it is sliced by or allocated for. A buffer that does not
/// parse exactly is [`CollError::Malformed`], never a panic.
pub fn decode_blocks(bytes: &[u8], peer: usize) -> Result<Vec<(usize, Vec<u8>)>, CollError> {
    parse(bytes).ok_or(CollError::Malformed { peer })
}

/// Decode a message that must carry exactly one block, with origin `idx`.
pub fn decode_one(bytes: &[u8], peer: usize, idx: usize) -> Result<Vec<u8>, CollError> {
    match <[_; 1]>::try_from(decode_blocks(bytes, peer)?) {
        Ok([(got, block)]) if got == idx => Ok(block),
        _ => Err(CollError::Malformed { peer }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_empty() {
        let buf = encode_blocks(std::iter::empty());
        assert!(decode_blocks(&buf, 0).unwrap().is_empty());
    }

    #[test]
    fn roundtrip_mixed_sizes() {
        let blocks: Vec<(usize, Vec<u8>)> =
            vec![(3, vec![1, 2, 3]), (0, vec![]), (7, vec![0xff; 100])];
        let buf = encode_blocks(blocks.iter().map(|(i, b)| (*i, b.as_slice())));
        assert_eq!(decode_blocks(&buf, 0).unwrap(), blocks);
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut buf = encode_blocks(std::iter::once((0usize, &b"x"[..])));
        buf.push(0);
        assert_eq!(
            decode_blocks(&buf, 5),
            Err(CollError::Malformed { peer: 5 })
        );
    }

    #[test]
    fn lengths_off_the_wire_are_never_trusted() {
        let good = encode_blocks(std::iter::once((2usize, &b"abc"[..])));
        assert_eq!(decode_one(&good, 1, 2).unwrap(), b"abc");
        assert!(decode_one(&good, 1, 3).is_err(), "wrong origin");
        for cut in 0..good.len() {
            assert!(decode_blocks(&good[..cut], 1).is_err(), "cut at {cut}");
        }
        // A count, then a length, far past the end of the buffer (and of
        // memory): refused without allocating for either.
        let mut huge_count = good.clone();
        huge_count[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_blocks(&huge_count, 1).is_err());
        let mut huge_len = good.clone();
        huge_len[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_blocks(&huge_len, 1).is_err());
    }
}

//! Tag-space layout.
//!
//! The transport matches messages on a single 64-bit tag. Communicators
//! namespace their traffic so that no two operations — on the same or
//! different communicators, normal or recovery — can ever confuse their
//! messages:
//!
//! ```text
//!  bits 63..62   bits 61..43        bits 42..20        bits 19..0
//! ┌───────────┬──────────────────┬──────────────────┬───────────────┐
//! │ class     │ communicator id  │ sequence number  │ algo offset   │
//! └───────────┴──────────────────┴──────────────────┴───────────────┘
//!   00 = collective   01 = point-to-point   10 = recovery
//! ```
//!
//! * communicator ids are interned consecutively by the [`crate::Universe`]
//!   (all members derive the same id from the same construction key);
//! * every collective call advances the communicator's sequence number —
//!   collective calls are SPMD-ordered, so all members agree on it. The
//!   field keeps its low [`SEQ_BITS`] bits, so the number wraps instead of
//!   running out: a tag needs to be unique only among the operations that
//!   can be in flight together, and blocking collectives complete in order
//!   (DESIGN §6, "Why a sequence number may wrap");
//! * the algorithm consumes offsets below [`collectives::TAG_SPAN`];
//! * recovery operations (`agree`, and the protocols inside `shrink`) use
//!   their own class and an independent sequence counter, so recovery
//!   traffic can never collide with application traffic even while an
//!   interrupted collective's stale messages are still in flight;
//! * point-to-point traffic carries the user tag in the low bits under its
//!   own class and never advances the collective sequence.

/// Bits for the per-collective algorithm offset.
pub const OFFSET_BITS: u32 = 20;
/// Bits for the per-communicator sequence number.
pub const SEQ_BITS: u32 = 23;
/// Bits for the communicator id.
pub const ID_BITS: u32 = 19;

const CLASS_COLL: u64 = 0;
const CLASS_P2P: u64 = 1;
const CLASS_RECOVERY: u64 = 2;

const _: () = assert!(2 + ID_BITS + SEQ_BITS + OFFSET_BITS == 64);

/// Tag base for a normal collective: `(comm, seq)` with offset 0.
pub fn coll_base(comm_id: u64, seq: u64) -> u64 {
    pack(CLASS_COLL, comm_id, seq, 0)
}

/// Tag base for a recovery operation (agreement, shrink sync).
pub fn recovery_base(comm_id: u64, rec_seq: u64) -> u64 {
    pack(CLASS_RECOVERY, comm_id, rec_seq, 0)
}

/// Tag for a point-to-point message with a user tag.
pub fn p2p(comm_id: u64, user_tag: u64) -> u64 {
    assert!(user_tag < (1 << OFFSET_BITS), "user tag too large");
    pack(CLASS_P2P, comm_id, 0, user_tag)
}

/// Does `tag` belong to communicator `comm_id` (any class)?
pub fn belongs_to(tag: u64, comm_id: u64) -> bool {
    (tag >> (SEQ_BITS + OFFSET_BITS)) & ((1 << ID_BITS) - 1) == comm_id
}

/// Sequence numbers per wrap: `seq` and `seq + SEQ_SPACE` pack to one tag.
pub const SEQ_SPACE: u64 = 1 << SEQ_BITS;

fn pack(class: u64, comm_id: u64, seq: u64, offset: u64) -> u64 {
    // Ids are never reused, so running out of them is an error; sequence
    // numbers wrap.
    assert!(comm_id < (1 << ID_BITS), "communicator id space exhausted");
    let seq = seq % SEQ_SPACE;
    (class << 62) | (comm_id << (SEQ_BITS + OFFSET_BITS)) | (seq << OFFSET_BITS) | offset
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_disjoint() {
        assert_ne!(coll_base(1, 1), recovery_base(1, 1));
        assert_ne!(coll_base(1, 0), p2p(1, 0));
        assert_ne!(recovery_base(1, 0), p2p(1, 0));
    }

    #[test]
    fn sequences_are_disjoint() {
        assert_ne!(coll_base(1, 1), coll_base(1, 2));
        assert_ne!(coll_base(1, 1), coll_base(2, 1));
    }

    #[test]
    fn offsets_do_not_bleed_into_seq() {
        let base = coll_base(3, 7);
        assert!(belongs_to(base + collectives::TAG_SPAN - 1, 3));
        assert_eq!(
            (base + collectives::TAG_SPAN - 1) >> OFFSET_BITS,
            base >> OFFSET_BITS
        );
    }

    #[test]
    fn belongs_to_sees_all_classes() {
        assert!(belongs_to(recovery_base(5, 0) + 17, 5));
        assert!(belongs_to(p2p(5, 3), 5));
        assert!(!belongs_to(recovery_base(5, 0), 6));
    }

    #[test]
    fn sequence_numbers_wrap_within_their_communicator() {
        assert_eq!(coll_base(3, SEQ_SPACE + 5), coll_base(3, 5));
        assert_eq!(recovery_base(3, SEQ_SPACE), recovery_base(3, 0));
        assert!(belongs_to(
            coll_base(3, SEQ_SPACE - 1) + collectives::TAG_SPAN - 1,
            3
        ));
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn overflow_is_caught() {
        coll_base(1 << ID_BITS, 0);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn p2p_user_tag_bounded() {
        p2p(0, 1 << OFFSET_BITS);
    }
}

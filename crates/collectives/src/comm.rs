//! The peer-communication abstraction algorithms are written against.

use crate::error::CollError;
use transport::wire::{self, Fill};

/// A group of peers with dense local indices `0..size()`, over which an
/// algorithm can send and receive tagged byte messages.
///
/// Implementations translate local indices to whatever global identity the
/// runtime uses, enforce liveness semantics, and map transport failures to
/// [`CollError`]:
///
/// * the ULFM communicator maps a dead peer to `PeerFailed` and keeps the
///   communicator usable (recovery happens above);
/// * the Gloo context maps *any* failure to a poisoned context.
///
/// Sends must be non-blocking (buffered); receives block until a matching
/// message arrives or the peer is detected dead.
pub trait PeerComm {
    /// Number of peers in the group.
    fn size(&self) -> usize;
    /// This rank's index within the group (`0..size()`).
    fn rank(&self) -> usize;
    /// Send `data` to group-local `peer` under `tag`.
    fn send(&self, peer: usize, tag: u64, data: &[u8]) -> Result<(), CollError>;
    /// Receive the next message from group-local `peer` under `tag`.
    fn recv(&self, peer: usize, tag: u64) -> Result<Vec<u8>, CollError>;
    /// Send a `len`-byte payload that `f` writes where it travels (see
    /// `transport::Backend::send_with`). Default: build it, then send it.
    fn send_with(&self, peer: usize, tag: u64, len: usize, f: Fill<'_>) -> Result<(), CollError> {
        self.send(peer, tag, &wire::fill_payload(len, f))
    }
    /// [`PeerComm::recv`], lending the message to `f` (once, iff `Ok`).
    fn recv_with(&self, peer: usize, tag: u64, f: &mut dyn FnMut(&[u8])) -> Result<(), CollError> {
        f(&self.recv(peer, tag)?);
        Ok(())
    }
    /// Protocol-level fault point; lets a fault plan kill this rank between
    /// steps of a collective. Default: never dies.
    fn fault_point(&self, _name: &str) -> Result<(), CollError> {
        Ok(())
    }
}

/// Blanket impl so algorithms can take `&C` where helpers hold `&C`.
impl<C: PeerComm + ?Sized> PeerComm for &C {
    fn size(&self) -> usize {
        (**self).size()
    }
    fn rank(&self) -> usize {
        (**self).rank()
    }
    fn send(&self, peer: usize, tag: u64, data: &[u8]) -> Result<(), CollError> {
        (**self).send(peer, tag, data)
    }
    fn recv(&self, peer: usize, tag: u64) -> Result<Vec<u8>, CollError> {
        (**self).recv(peer, tag)
    }
    fn send_with(&self, peer: usize, tag: u64, len: usize, f: Fill<'_>) -> Result<(), CollError> {
        (**self).send_with(peer, tag, len, f)
    }
    fn recv_with(&self, peer: usize, tag: u64, f: &mut dyn FnMut(&[u8])) -> Result<(), CollError> {
        (**self).recv_with(peer, tag, f)
    }
    fn fault_point(&self, name: &str) -> Result<(), CollError> {
        (**self).fault_point(name)
    }
}

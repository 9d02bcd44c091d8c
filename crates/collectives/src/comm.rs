//! The peer-communication abstraction algorithms are written against, and
//! its one implementation over a transport [`Endpoint`].

use crate::error::CollError;
use std::time::{Duration, Instant};
use transport::wire::{self, Fill};
use transport::{Endpoint, RankId, TransportError};

/// A group of peers with dense local indices `0..size()`, over which an
/// algorithm can send and receive tagged byte messages.
///
/// Over a transport the implementation is [`EndpointGroup`]: it translates
/// local indices to global ranks and maps transport failures to
/// [`CollError`], the same way for both runtimes. What happens *after* a
/// failure is the runtime's business:
///
/// * the ULFM communicator reports a dead peer for that operation and keeps
///   the communicator usable (recovery happens above);
/// * the Gloo context poisons itself on *any* failure.
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

/// The [`PeerComm`] over a transport [`Endpoint`]: `members` are the
/// group's global ranks in group order and `rank` is this process's index
/// among them. A view: it borrows the endpoint and the member list, so a
/// runtime builds one per operation at the cost of a few words.
///
/// Two receive parameters are what the runtimes choose, and the only thing
/// they choose here:
///
/// * a **stop predicate** ([`EndpointGroup::stop_when`]; ULFM passes its
///   revocation flag). Once it has fired, every send and receive fails with
///   [`CollError::Revoked`] before it touches the transport, and a receive
///   blocked when it fires is released the same way. A fault point is not
///   gated: a fault plan counts the same hits whether or not the group was
///   revoked.
/// * an optional **deadline per receive** ([`EndpointGroup::recv_timeout`];
///   Gloo passes its operation timeout). A receive that outlives it is the
///   awaited peer's suspected failure.
///
/// Everything else — the one map from a [`TransportError`] to a
/// [`CollError`] — is fixed:
///
/// | transport | collective |
/// |---|---|
/// | `PeerDead(g)`, `UnknownRank(g)` | `PeerFailed` naming `g`'s index |
/// | `SelfDied` | `SelfDied` |
/// | `Stopped` | `Revoked` |
/// | `Timeout` | `PeerFailed` naming the awaited peer |
///
/// `send_with` / `recv_with` go straight to the endpoint's lending calls.
pub struct EndpointGroup<'a, S = fn() -> bool> {
    ep: &'a Endpoint,
    members: &'a [RankId],
    rank: usize,
    stop: S,
    timeout: Option<Duration>,
}

impl<'a> EndpointGroup<'a> {
    /// A view of `members` from `ep`, which must be `members[rank]`; no stop
    /// predicate, no receive deadline.
    pub fn new(ep: &'a Endpoint, members: &'a [RankId], rank: usize) -> Self {
        debug_assert_eq!(members[rank], ep.rank(), "rank must locate the endpoint");
        Self {
            ep,
            members,
            rank,
            stop: || false,
            timeout: None,
        }
    }
}

impl<'a, S: Fn() -> bool> EndpointGroup<'a, S> {
    /// The same view, its sends and receives failing with `Revoked` once
    /// `stop` returns true.
    pub fn stop_when<T: Fn() -> bool>(self, stop: T) -> EndpointGroup<'a, T> {
        EndpointGroup {
            ep: self.ep,
            members: self.members,
            rank: self.rank,
            stop,
            timeout: self.timeout,
        }
    }

    /// The same view, each receive bounded by `timeout` (`None`: unbounded).
    pub fn recv_timeout(self, timeout: Option<Duration>) -> Self {
        Self { timeout, ..self }
    }

    fn stopped(&self) -> Result<(), CollError> {
        if (self.stop)() {
            return Err(CollError::Revoked);
        }
        Ok(())
    }

    /// The one transport → collective error map. `peer` is the member the
    /// operation addressed or awaited; a fault point addresses this rank.
    fn error(&self, peer: usize, e: TransportError) -> CollError {
        match e {
            // The transport names the rank it was asked about, which is a
            // member; an unknown rank is dead in the alive table, so the
            // failure agreement removes it like any other.
            TransportError::PeerDead(g) | TransportError::UnknownRank(g) => CollError::PeerFailed {
                peer: self.members.iter().position(|&m| m == g).unwrap_or(peer),
            },
            TransportError::SelfDied => CollError::SelfDied,
            TransportError::Stopped => CollError::Revoked,
            TransportError::Timeout => CollError::PeerFailed { peer },
        }
    }

    fn deadline(&self) -> Option<Instant> {
        self.timeout.map(|t| Instant::now() + t)
    }
}

impl<S: Fn() -> bool> PeerComm for EndpointGroup<'_, S> {
    fn size(&self) -> usize {
        self.members.len()
    }
    fn rank(&self) -> usize {
        self.rank
    }
    fn send(&self, peer: usize, tag: u64, data: &[u8]) -> Result<(), CollError> {
        self.stopped()?;
        self.ep
            .send(self.members[peer], tag, data)
            .map_err(|e| self.error(peer, e))
    }
    fn recv(&self, peer: usize, tag: u64) -> Result<Vec<u8>, CollError> {
        self.stopped()?;
        self.ep
            .backend()
            .recv(self.members[peer], tag, &self.stop, self.deadline())
            .map_err(|e| self.error(peer, e))
    }
    fn send_with(&self, peer: usize, tag: u64, len: usize, f: Fill<'_>) -> Result<(), CollError> {
        self.stopped()?;
        self.ep
            .send_with(self.members[peer], tag, len, f)
            .map_err(|e| self.error(peer, e))
    }
    fn recv_with(&self, peer: usize, tag: u64, f: &mut dyn FnMut(&[u8])) -> Result<(), CollError> {
        self.stopped()?;
        self.ep
            .recv_with(self.members[peer], tag, &self.stop, self.deadline(), f)
            .map_err(|e| self.error(peer, e))
    }
    fn fault_point(&self, name: &str) -> Result<(), CollError> {
        self.ep
            .fault_point(name)
            .map_err(|e| self.error(self.rank, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use transport::TransportError::*;
    use transport::{Backend, FabricStats, PerturbPlan, SignalHandler, Topology};

    /// A transport whose every send, receive and fault point fails with one
    /// scripted error.
    struct Refusing(TransportError);

    impl Backend for Refusing {
        fn rank(&self) -> RankId {
            RankId(0)
        }
        fn topology(&self) -> Topology {
            Topology::flat()
        }
        fn total_ranks(&self) -> usize {
            3
        }
        fn is_alive(&self, _: RankId) -> bool {
            true
        }
        fn alive_ranks(&self) -> Vec<RankId> {
            Vec::new()
        }
        fn suspect(&self, _: RankId) {}
        fn kill_self(&self) {}
        fn wake_all(&self) {}
        fn check_op_fault(&self) -> Result<(), TransportError> {
            Ok(())
        }
        fn fault_point(&self, _: &str) -> Result<(), TransportError> {
            Err(self.0.clone())
        }
        fn send(&self, _: RankId, _: u64, _: &[u8]) -> Result<(), TransportError> {
            Err(self.0.clone())
        }
        fn recv(
            &self,
            _: RankId,
            _: u64,
            _: &dyn Fn() -> bool,
            _: Option<Instant>,
        ) -> Result<Vec<u8>, TransportError> {
            Err(self.0.clone())
        }
        fn try_recv(&self, _: RankId, _: u64) -> Option<Vec<u8>> {
            None
        }
        fn probe(&self, _: RankId, _: u64) -> bool {
            false
        }
        fn purge_tags(&self, _: &dyn Fn(u64) -> bool) -> usize {
            0
        }
        fn set_perturbation(&self, _: PerturbPlan) {}
        fn set_suspicion_timeout(&self, _: Option<Duration>) {}
        fn suspicion_timeout(&self) -> Option<Duration> {
            None
        }
        fn broadcast_signal(&self, _: &[u8]) {}
        fn set_signal_handler(&self, _: SignalHandler) {}
        fn stats(&self) -> FabricStats {
            FabricStats::default()
        }
        fn shutdown(&self) {}
    }

    #[test]
    fn every_transport_error_is_one_collective_error_on_every_operation() {
        // This rank is member 1 of three. Every operation addresses or
        // awaits member 2; a failure that names a rank names member 0.
        let members = [RankId(7), RankId(0), RankId(9)];
        let failed = |peer| CollError::PeerFailed { peer };
        let (died, revoked) = (CollError::SelfDied, CollError::Revoked);
        let cases = [
            // (transport, send, receive, fault point)
            (PeerDead(RankId(7)), failed(0), failed(0), failed(0)),
            (UnknownRank(RankId(7)), failed(0), failed(0), failed(0)),
            (SelfDied, died.clone(), died.clone(), died),
            (Stopped, revoked.clone(), revoked.clone(), revoked.clone()),
            (Timeout, failed(2), failed(2), failed(1)),
        ];
        for (e, sent, received, faulted) in cases {
            let ep = Endpoint::from_backend(Arc::new(Refusing(e.clone())));
            let group = || EndpointGroup::new(&ep, &members, 1);
            let stoppable = group().stop_when(|| false);
            let timed = group().recv_timeout(Some(Duration::from_secs(3600)));
            // A fired stop predicate fails sends and receives before they
            // reach the transport; a fault point still reaches it, so a
            // fault plan counts the same hits on a revoked group.
            let stopped = group().stop_when(|| true);
            let groups: [(&str, &dyn PeerComm, _, _); 3] = [
                ("stop", &stoppable, &sent, &received),
                ("deadline", &timed, &sent, &received),
                ("stopped", &stopped, &revoked, &revoked),
            ];
            for (how, g, sent, received) in groups {
                let ctx = format!("{how}, {e}");
                assert_eq!(g.send(2, 5, b"x").as_ref(), Err(sent), "send: {ctx}");
                let filled = g.send_with(2, 5, 1, &mut |_, b| b.fill(0));
                assert_eq!(filled.as_ref(), Err(sent), "send_with: {ctx}");
                assert_eq!(g.recv(2, 5).as_ref(), Err(received), "recv: {ctx}");
                let lent = g.recv_with(2, 5, &mut |_| panic!("lent a failed receive"));
                assert_eq!(lent.as_ref(), Err(received), "recv_with: {ctx}");
                assert_eq!(
                    g.fault_point("p"),
                    Err(faulted.clone()),
                    "fault point: {ctx}"
                );
            }
        }
    }
}

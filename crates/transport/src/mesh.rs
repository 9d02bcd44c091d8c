//! The one world builder: a job's ranks over one link, and the only code
//! above the links that knows which link it is.

use crate::backend::{Backend, BackendKind, Endpoint};
use crate::delivery::FabricStats;
use crate::fabric::Fabric;
use crate::fault::{FaultInjector, FaultPlan};
use crate::ids::{RankId, Topology};
use crate::perturb::PerturbPlan;
use crate::socket::SocketBackend;
use parking_lot::Mutex;
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// Socket ranks share no alive table: one that never touches a dead peer's
/// link learns of the death only by suspicion.
const SOCKET_SUSPICION: Duration = Duration::from_secs(5);

/// How long a socket newcomer may dial a rank before giving up on it.
const NEWCOMER_DIAL: Duration = Duration::from_secs(10);

enum Link {
    InProc(Arc<Fabric>),
    Sockets { kind: BackendKind, plan: FaultPlan },
}

#[derive(Default)]
struct Ranks {
    /// Every rank built so far, in rank order.
    eps: Vec<Endpoint>,
    /// Over sockets, every rank's backend, in rank order.
    sockets: Vec<Arc<SocketBackend>>,
    /// How many ranks [`Mesh::next_rank`] has handed out.
    handed: usize,
    /// What a socket newcomer is tuned with.
    perturb: Option<PerturbPlan>,
    suspicion: Option<Duration>,
}

/// A job's ranks over one link, named by [`BackendKind`]: `p` members built
/// at once, then newcomers one at a time. Every world of rank threads is
/// built here, so the code above runs over either link unchanged.
///
/// In process every rank is registered on one [`Fabric`], whose alive
/// table is the failure detector. Over sockets every rank is its own
/// [`SocketBackend`] — a multi-process launch minus the process boundary —
/// and a newcomer binds a listener and dials every rank before it.
pub struct Mesh {
    link: Link,
    topology: Topology,
    members: usize,
    ranks: Mutex<Ranks>,
}

impl Mesh {
    /// `p` ranks of `kind` over `topology`, all under the fault `plan`.
    /// Fails only when a socket cannot bind or dial.
    pub fn new(
        kind: BackendKind,
        topology: Topology,
        p: usize,
        plan: FaultPlan,
    ) -> io::Result<Self> {
        let mut ranks = Ranks::default();
        let link = match kind {
            BackendKind::InProc => {
                let fabric = Fabric::new(topology, FaultInjector::new(plan));
                for rank in fabric.register_ranks(p) {
                    ranks.eps.push(Endpoint::new(Arc::clone(&fabric), rank));
                }
                Link::InProc(fabric)
            }
            kind => {
                ranks.sockets = SocketBackend::local_mesh(kind, topology, p, plan.clone())?;
                for b in &ranks.sockets {
                    b.set_suspicion_timeout(Some(SOCKET_SUSPICION));
                    ranks.eps.push(Endpoint::from_backend(Arc::clone(b) as _));
                }
                ranks.suspicion = Some(SOCKET_SUSPICION);
                Link::Sockets { kind, plan }
            }
        };
        Ok(Self {
            link,
            topology,
            members: p,
            ranks: Mutex::new(ranks),
        })
    }

    /// The next rank's endpoint and dialable contact (`None` in process):
    /// the members first, then a newcomer. Fails only when a newcomer's
    /// socket cannot bind or reaches no rank before it.
    pub fn next_rank(&self) -> io::Result<(Endpoint, Option<String>)> {
        let ranks = &mut *self.ranks.lock();
        let rank = RankId(ranks.handed);
        if rank.0 == ranks.eps.len() {
            match &self.link {
                Link::InProc(fabric) => {
                    let registered = fabric.register_rank();
                    debug_assert_eq!(registered, rank, "newcomers register in rank order");
                    ranks.eps.push(Endpoint::new(Arc::clone(fabric), rank));
                }
                Link::Sockets { kind, plan } => {
                    let listener = SocketBackend::bind(*kind)?;
                    let peers: Vec<(RankId, String)> = (ranks.sockets.iter())
                        .map(|b| (b.rank(), b.local_addr().to_string()))
                        .collect();
                    let injector = FaultInjector::new(plan.clone());
                    let b = SocketBackend::establish_joiner(
                        rank,
                        self.topology,
                        listener,
                        &peers,
                        injector,
                        NEWCOMER_DIAL,
                    )?;
                    // The ranks before it learn of it now, not when its dial
                    // is accepted: a send or a signal to it waits for the
                    // link instead of failing on an unknown rank.
                    for ep in &ranks.eps {
                        ep.expect_rank(rank);
                    }
                    if let Some(plan) = &ranks.perturb {
                        b.set_perturbation(plan.clone());
                    }
                    b.set_suspicion_timeout(ranks.suspicion);
                    ranks.eps.push(Endpoint::from_backend(Arc::clone(&b) as _));
                    ranks.sockets.push(b);
                }
            }
        }
        ranks.handed += 1;
        let contact = ranks
            .sockets
            .get(rank.0)
            .map(|b| b.local_addr().to_string());
        Ok((ranks.eps[rank.0].clone(), contact))
    }

    /// Every rank's endpoint built so far, in rank order.
    pub fn endpoints(&self) -> Vec<Endpoint> {
        self.ranks.lock().eps.clone()
    }

    /// Run `f` on every member's endpoint, one scoped thread each; results
    /// in rank order. A rank whose `f` returned has exited
    /// ([`Mesh::exited`]), and a panic in `f` is raised again here.
    pub fn run<R: Send>(&self, f: impl Fn(Endpoint) -> R + Sync) -> Vec<R> {
        let members = self.endpoints().into_iter().take(self.members);
        let f = &f;
        std::thread::scope(|s| {
            let handles: Vec<_> = members
                .map(|ep| {
                    s.spawn(move || {
                        let rank = ep.rank();
                        let out = f(ep);
                        self.exited(rank);
                        out
                    })
                })
                .collect();
            (handles.into_iter())
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    }

    /// `rank`'s worker returned. In process the rank is killed on the
    /// fabric, as an exited process is gone, so peers blocked on it see a
    /// failure; over sockets it stays up until teardown.
    pub fn exited(&self, rank: RankId) {
        if let Link::InProc(fabric) = &self.link {
            fabric.kill_rank(rank);
        }
    }

    /// Install a perturbation plan on every link, current and future.
    pub fn set_perturbation(&self, plan: PerturbPlan) {
        let mut ranks = self.ranks.lock();
        match &self.link {
            Link::InProc(fabric) => fabric.set_perturbation(plan),
            Link::Sockets { .. } => {
                ranks
                    .eps
                    .iter()
                    .for_each(|ep| ep.set_perturbation(plan.clone()));
                ranks.perturb = Some(plan);
            }
        }
    }

    /// Set the suspicion deadline of open-ended receives on every link,
    /// current and future. The default is none in process, 5 s on sockets.
    pub fn set_suspicion_timeout(&self, timeout: Option<Duration>) {
        let mut ranks = self.ranks.lock();
        match &self.link {
            Link::InProc(fabric) => fabric.set_suspicion_timeout(timeout),
            Link::Sockets { .. } => {
                ranks
                    .eps
                    .iter()
                    .for_each(|ep| ep.set_suspicion_timeout(timeout));
                ranks.suspicion = timeout;
            }
        }
    }

    /// The traffic counters. Over sockets each rank counts its own, so this
    /// is their sum, and one death counts once per rank that observed it.
    pub fn stats(&self) -> FabricStats {
        match &self.link {
            Link::InProc(fabric) => fabric.stats(),
            Link::Sockets { .. } => {
                (self.endpoints().iter()).fold(FabricStats::default(), |mut sum, ep| {
                    sum += ep.stats();
                    sum
                })
            }
        }
    }

    /// The shared fabric, for tests whose subject is the in-process link
    /// (an external kill, the alive table); `None` over sockets.
    pub fn fabric(&self) -> Option<&Arc<Fabric>> {
        match &self.link {
            Link::InProc(fabric) => Some(fabric),
            Link::Sockets { .. } => None,
        }
    }

    /// Tear every link down, telling every socket rank first so none counts
    /// a peer's teardown as a death. Idempotent; done on drop.
    pub fn shutdown(&self) {
        let sockets = self.ranks.lock().sockets.clone();
        sockets.iter().for_each(|b| b.expect_teardown());
        sockets.iter().for_each(|b| b.shutdown());
    }
}

impl Drop for Mesh {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TransportError;

    const LINKS: [BackendKind; 3] = [BackendKind::InProc, BackendKind::Unix, BackendKind::Tcp];

    fn mesh(kind: BackendKind, p: usize) -> Mesh {
        Mesh::new(kind, Topology::flat(), p, FaultPlan::none()).expect("mesh")
    }

    #[test]
    fn a_newcomer_exchanges_a_message_with_every_member() {
        for kind in LINKS {
            let mesh = mesh(kind, 3);
            let members: Vec<Endpoint> = (0..3).map(|_| mesh.next_rank().unwrap().0).collect();
            let (newcomer, contact) = mesh.next_rank().unwrap();
            assert_eq!(newcomer.rank(), RankId(3), "{kind}");
            assert_eq!(contact.is_some(), kind != BackendKind::InProc, "{kind}");
            for m in &members {
                m.send(newcomer.rank(), 1, b"welcome").unwrap();
                newcomer.send(m.rank(), 2, b"hello").unwrap();
                assert_eq!(newcomer.recv(m.rank(), 1).unwrap(), b"welcome", "{kind}");
                assert_eq!(m.recv(newcomer.rank(), 2).unwrap(), b"hello", "{kind}");
            }
        }
    }

    #[test]
    fn one_message_reads_one_message_in_the_stats() {
        for kind in LINKS {
            let mesh = mesh(kind, 2);
            mesh.run(|ep| match ep.rank() {
                RankId(0) => ep.send(RankId(1), 3, b"one").unwrap(),
                _ => assert_eq!(ep.recv(RankId(0), 3).unwrap(), b"one"),
            });
            assert_eq!(mesh.stats().messages, 1, "{kind}");
        }
    }

    #[test]
    fn in_process_a_peer_blocked_on_a_returned_rank_sees_it_dead() {
        let mesh = mesh(BackendKind::InProc, 2);
        let got = mesh.run(|ep| (ep.rank() == RankId(0)).then(|| ep.recv(RankId(1), 4)));
        assert_eq!(got[0], Some(Err(TransportError::PeerDead(RankId(1)))));
    }

    #[test]
    fn over_sockets_teardown_is_no_death() {
        for kind in [BackendKind::Unix, BackendKind::Tcp] {
            let mesh = mesh(kind, 3);
            mesh.next_rank().unwrap();
            let eps = mesh.endpoints();
            mesh.run(|ep| ep.send(RankId((ep.rank().0 + 1) % 3), 5, b"ring").unwrap());
            drop(mesh);
            let deaths: u64 = eps.iter().map(|ep| ep.stats().deaths).sum();
            assert_eq!(deaths, 0, "{kind}");
        }
    }
}

//! The shared fabric: the in-process job's peer table, external kill hooks
//! and control plane — plus [`InProcBackend`], the in-process link under
//! the delivery engine ([`crate::delivery`]).

use crate::backend::SignalHandler;
use crate::delivery::{Engine, FabricStats, Link, Slot};
use crate::fault::{FaultInjector, RankFaults};
use crate::ids::{NodeId, RankId, Topology};
use crate::mailbox::Mailbox;
use crate::perturb::PerturbPlan;
use crate::wire::{FRAME_HEADER, FRAME_TRAILER};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Smallest payload whose frame an in-process send gives to the receiver
/// rather than a copy of its payload: below it the copy is cheaper (DESIGN
/// §10, "Which buffer crosses threads"). Also the smallest send that is
/// encoded into the last frame its rank was given.
pub(crate) const HAND_OVER_MIN: usize = 4 << 10;

/// The encoded length of a frame with a [`HAND_OVER_MIN`]-byte payload: a
/// frame at least this long reaches its receiver whole, over either link.
pub(crate) const HAND_OVER_FRAME: usize = FRAME_HEADER + HAND_OVER_MIN + FRAME_TRAILER;

/// The shared interconnect + runtime failure detector.
///
/// One `Fabric` models one job allocation. Ranks are registered dynamically
/// (elastic upscaling spawns new ranks into a running fabric) and are never
/// unregistered — death is a permanent state, as in ULFM.
pub struct Fabric {
    /// One engine for the whole job: every rank's backend reports into it,
    /// so the alive table, plans and failure counters are fabric-wide. A
    /// rank's slot holds its mailbox, its traffic counts and, once a plan
    /// perturbs a link, its per-link cursors.
    engine: Engine<Mailbox>,
    /// Each rank's control-plane signal handler, which a broadcast calls
    /// where a socket link would send a `Signal` frame.
    signals: Mutex<BTreeMap<RankId, Arc<SignalHandler>>>,
}

impl Fabric {
    /// A fabric with the given node topology and fault schedule.
    pub fn new(topology: Topology, injector: FaultInjector) -> Arc<Self> {
        Arc::new(Self {
            engine: Engine::new(topology, injector),
            signals: Mutex::new(BTreeMap::new()),
        })
    }

    /// A fault-free fabric (convenience for tests).
    pub fn without_faults(topology: Topology) -> Arc<Self> {
        Self::new(topology, FaultInjector::inert())
    }

    /// The fault injector driving scripted failures.
    pub fn injector(&self) -> &FaultInjector {
        &self.engine.injector
    }

    /// Install a message-perturbation plan. Replaces any previous plan;
    /// normally called once before traffic starts. From the first that
    /// perturbs a link on, every send is numbered and acked.
    pub fn set_perturbation(&self, plan: PerturbPlan) {
        self.engine.set_perturbation(plan);
    }

    /// Enable (`Some`) or disable (`None`) timeout-based failure suspicion
    /// for blocking receives without an explicit deadline.
    pub fn set_suspicion_timeout(&self, timeout: Option<Duration>) {
        self.engine.suspicion.set(timeout);
    }

    /// Enable (`Some`) or disable (`None`) the suspicion batching window.
    pub fn set_suspicion_batch_window(&self, window: Option<Duration>) {
        self.engine.suspicion_batch.set(window);
    }

    /// When the most recent alive→dead suspicion transition was recorded.
    pub fn last_suspicion(&self) -> Option<Instant> {
        *self.engine.last_suspicion.lock()
    }

    /// Declare `rank` dead on suspicion (retry exhaustion or a stalled
    /// receive past the suspicion deadline). Idempotent; counts once — a
    /// re-suspicion of an already-dead rank is coalesced.
    pub fn suspect(&self, rank: RankId) {
        self.engine
            .suspect(self.is_alive(rank), || self.kill_rank(rank));
    }

    /// Register one new rank and return its id. Ids are dense and permanent.
    pub fn register_rank(self: &Arc<Self>) -> RankId {
        self.engine.push(Mailbox::new())
    }

    /// Register `n` ranks at once.
    pub fn register_ranks(self: &Arc<Self>, n: usize) -> Vec<RankId> {
        (0..n).map(|_| self.register_rank()).collect()
    }

    /// Total ranks ever registered (alive or dead).
    pub fn total_ranks(&self) -> usize {
        self.engine.total_ranks()
    }

    /// Is `rank` registered and alive?
    pub fn is_alive(&self, rank: RankId) -> bool {
        self.engine.is_alive(rank)
    }

    /// Snapshot of all currently-alive ranks, in id order.
    pub fn alive_ranks(&self) -> Vec<RankId> {
        self.engine.ranks_where(true)
    }

    /// Snapshot of all dead ranks, in id order.
    pub fn dead_ranks(&self) -> Vec<RankId> {
        self.engine.ranks_where(false)
    }

    /// Kill a single rank. Idempotent. Wakes every blocked receiver so the
    /// failure is observed promptly (this is the runtime failure detector).
    pub fn kill_rank(&self, rank: RankId) {
        if self.engine.mark_dead(rank) {
            for s in self.engine.slots() {
                s.port.wake_waiters();
            }
        }
    }

    /// Kill every rank on `node` (the paper's node-level failure).
    pub fn kill_node(&self, node: NodeId) {
        let total = self.total_ranks();
        for rank in self.engine.topology.ranks_on_node(node, total) {
            self.kill_rank(rank);
        }
    }

    /// The node hosting `rank`.
    pub fn node_of(&self, rank: RankId) -> NodeId {
        self.engine.topology.node_of(rank)
    }

    /// Aggregate traffic counters.
    pub fn stats(&self) -> FabricStats {
        self.engine.stats()
    }
}

/// The in-process link: one rank's view of a shared [`Fabric`], where
/// ranks are threads and a hand-off is a function call into the
/// destination's mailbox on the sender's thread — so the ack is the return
/// value and there is never anything to wait for. Such a call cannot lose a
/// frame, so the link is lossy only once a plan perturbs one, and the
/// receive side follows the sender's choice: the sender's thread runs it.
/// A control-plane signal is a call too: the sender's thread runs every
/// receiver's handler.
/// The [`crate::Endpoint`] wrapper constructs it via
/// [`crate::Endpoint::new`].
pub(crate) struct InProcBackend {
    fabric: Arc<Fabric>,
    rank: RankId,
    /// This rank's fault counters and triggers.
    faults: Arc<RankFaults>,
}

impl InProcBackend {
    /// The backend for `rank` (which must be registered with `fabric`).
    pub(crate) fn new(fabric: Arc<Fabric>, rank: RankId) -> Self {
        assert!(
            fabric.engine.slot(rank).is_some(),
            "rank {rank} not registered with the fabric"
        );
        let faults = fabric.engine.injector.rank(rank);
        Self {
            fabric,
            rank,
            faults,
        }
    }
}

impl Link for InProcBackend {
    type Port = Mailbox;

    fn rank(&self) -> RankId {
        self.rank
    }

    fn engine(&self) -> &Engine<Mailbox> {
        &self.fabric.engine
    }

    fn mailbox(&self) -> &Mailbox {
        &self.me().port
    }

    fn faults(&self) -> &RankFaults {
        &self.faults
    }

    /// A large frame is given to the receiver whole, verified where it lies;
    /// a small one is copied out of it.
    fn hand_over(&self, _to: RankId, peer: &Slot<Mailbox>, frame: Vec<u8>) -> bool {
        let ack = if frame.len() >= HAND_OVER_FRAME {
            peer.port.accept_whole(frame)
        } else {
            peer.port.accept_frame(&frame)
        };
        self.fabric.engine.count(ack).is_acked()
    }

    fn hand_off(
        &self,
        _to: RankId,
        peer: &Slot<Mailbox>,
        frame: &[u8],
        copy: Option<Vec<u8>>,
    ) -> bool {
        let (eng, bytes) = (&self.fabric.engine, copy.as_deref().unwrap_or(frame));
        peer.cursors.receive(eng, &peer.port, bytes).is_acked()
    }

    fn die(&self) {
        self.fabric.kill_rank(self.rank);
    }

    fn condemn(&self, rank: RankId) {
        // The shared alive table makes the suspect observe its own death.
        self.fabric.kill_rank(rank);
    }

    fn broadcast_signal(&self, payload: &[u8]) {
        if !self.self_alive() {
            return;
        }
        // Unlocked while a handler runs: a handler may broadcast in turn.
        let peers: Vec<_> = (self.fabric.signals.lock().iter())
            .filter(|&(&r, _)| r != self.rank)
            .map(|(&r, h)| (r, Arc::clone(h)))
            .collect();
        for (r, handler) in peers {
            if self.fabric.is_alive(r) {
                handler(payload);
            }
        }
    }

    fn set_signal_handler(&self, handler: SignalHandler) {
        (self.fabric.signals.lock()).insert(self.rank, Arc::new(handler));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Endpoint;
    use crate::delivery::suspicion_jitter;
    use crate::error::TransportError;
    use crate::fault::FaultPlan;

    fn fabric_with(n: usize) -> (Arc<Fabric>, Vec<Endpoint>) {
        let f = Fabric::without_faults(Topology::flat());
        let ranks = f.register_ranks(n);
        let eps = ranks
            .into_iter()
            .map(|r| Endpoint::new(Arc::clone(&f), r))
            .collect();
        (f, eps)
    }

    #[test]
    fn send_recv_roundtrip() {
        let (_f, eps) = fabric_with(2);
        eps[0].send(RankId(1), 9, b"hello").unwrap();
        assert_eq!(eps[1].recv(RankId(0), 9).unwrap(), b"hello");
    }

    #[test]
    fn send_to_dead_peer_reports_proc_failed() {
        let (f, eps) = fabric_with(2);
        f.kill_rank(RankId(1));
        assert_eq!(
            eps[0].send(RankId(1), 0, b"x"),
            Err(TransportError::PeerDead(RankId(1)))
        );
    }

    #[test]
    fn recv_from_dead_peer_after_drain() {
        let (f, eps) = fabric_with(2);
        eps[1].send(RankId(0), 3, b"last words").unwrap();
        f.kill_rank(RankId(1));
        // Buffered message first ...
        assert_eq!(eps[0].recv(RankId(1), 3).unwrap(), b"last words");
        // ... then the failure is reported.
        assert_eq!(
            eps[0].recv(RankId(1), 3),
            Err(TransportError::PeerDead(RankId(1)))
        );
    }

    #[test]
    fn blocked_recv_is_woken_by_death() {
        let (f, eps) = fabric_with(2);
        let e0 = eps[0].clone();
        let t = std::thread::spawn(move || e0.recv(RankId(1), 1));
        std::thread::sleep(Duration::from_millis(30));
        f.kill_rank(RankId(1));
        assert_eq!(t.join().unwrap(), Err(TransportError::PeerDead(RankId(1))));
    }

    #[test]
    fn scripted_death_at_op_count() {
        let plan = FaultPlan::none().kill_at_op(RankId(0), 2);
        let f = Fabric::new(Topology::flat(), FaultInjector::new(plan));
        let ranks = f.register_ranks(2);
        let e0 = Endpoint::new(Arc::clone(&f), ranks[0]);
        assert!(e0.send(RankId(1), 0, b"a").is_ok());
        assert_eq!(e0.send(RankId(1), 0, b"b"), Err(TransportError::SelfDied));
        assert!(!f.is_alive(RankId(0)));
    }

    #[test]
    fn scripted_death_at_fault_point() {
        let plan = FaultPlan::none().kill_at_point(RankId(0), "allreduce.step", 1);
        let f = Fabric::new(Topology::flat(), FaultInjector::new(plan));
        let r = f.register_rank();
        let e = Endpoint::new(Arc::clone(&f), r);
        assert_eq!(e.fault_point("other"), Ok(()));
        assert_eq!(
            e.fault_point("allreduce.step"),
            Err(TransportError::SelfDied)
        );
        assert!(!e.is_self_alive());
    }

    #[test]
    fn dead_rank_cannot_operate() {
        let (f, eps) = fabric_with(2);
        f.kill_rank(RankId(0));
        assert_eq!(
            eps[0].send(RankId(1), 0, b"x"),
            Err(TransportError::SelfDied)
        );
        assert_eq!(eps[0].recv(RankId(1), 0), Err(TransportError::SelfDied));
    }

    #[test]
    fn kill_node_kills_colocated_ranks_only() {
        let f = Fabric::without_faults(Topology::new(3));
        f.register_ranks(6);
        f.kill_node(NodeId(0));
        assert_eq!(f.alive_ranks(), vec![RankId(3), RankId(4), RankId(5)]);
        assert_eq!(f.dead_ranks(), vec![RankId(0), RankId(1), RankId(2)]);
        assert_eq!(f.stats().deaths, 3);
    }

    #[test]
    fn kill_is_idempotent() {
        let (f, _) = fabric_with(2);
        f.kill_rank(RankId(1));
        f.kill_rank(RankId(1));
        assert_eq!(f.stats().deaths, 1);
    }

    #[test]
    fn unknown_rank_errors() {
        let (_f, eps) = fabric_with(1);
        assert_eq!(
            eps[0].send(RankId(42), 0, b"x"),
            Err(TransportError::UnknownRank(RankId(42)))
        );
        assert_eq!(
            eps[0].recv(RankId(42), 0),
            Err(TransportError::UnknownRank(RankId(42)))
        );
    }

    #[test]
    fn dynamic_registration_grows_fabric() {
        let (f, eps) = fabric_with(2);
        let newcomer = f.register_rank();
        assert_eq!(newcomer, RankId(2));
        let e2 = Endpoint::new(Arc::clone(&f), newcomer);
        e2.send(RankId(0), 5, b"joined").unwrap();
        assert_eq!(eps[0].recv(newcomer, 5).unwrap(), b"joined");
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let (f, eps) = fabric_with(2);
        eps[0].send(RankId(1), 0, &[0u8; 10]).unwrap();
        eps[0].send(RankId(1), 0, &[0u8; 32]).unwrap();
        let s = f.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes, 42);
    }

    #[test]
    fn recv_timeout_expires() {
        let (_f, eps) = fabric_with(2);
        assert_eq!(
            eps[0].recv_timeout(RankId(1), 0, Duration::from_millis(15)),
            Err(TransportError::Timeout)
        );
    }

    #[test]
    fn retire_marks_self_dead() {
        let (f, eps) = fabric_with(2);
        eps[1].retire();
        assert!(!f.is_alive(RankId(1)));
        assert!(f.is_alive(RankId(0)));
    }

    #[test]
    fn total_link_loss_turns_into_suspicion() {
        use crate::perturb::{LinkPerturb, PerturbPlan, RetryPolicy};
        let (f, eps) = fabric_with(2);
        f.set_perturbation(
            PerturbPlan::seeded(5)
                .link(RankId(0), RankId(1), LinkPerturb::clean().drop(1.0))
                .retry(RetryPolicy {
                    max_retries: 4,
                    base: Duration::from_micros(50),
                    cap: Duration::from_micros(200),
                }),
        );
        assert_eq!(
            eps[0].send(RankId(1), 0, b"void"),
            Err(TransportError::PeerDead(RankId(1)))
        );
        assert!(!f.is_alive(RankId(1)), "unreachable peer must be suspected");
        assert_eq!(f.stats().suspicions, 1);
    }

    #[test]
    fn stalled_recv_suspects_silent_peer() {
        let (f, eps) = fabric_with(2);
        f.set_suspicion_timeout(Some(Duration::from_millis(20)));
        let start = Instant::now();
        // Rank 1 never sends: the stall converts to a PeerDead report.
        assert_eq!(
            eps[0].recv(RankId(1), 3),
            Err(TransportError::PeerDead(RankId(1)))
        );
        assert!(start.elapsed() < Duration::from_secs(1));
        assert!(!f.is_alive(RankId(1)));
        assert_eq!(f.stats().suspicions, 1);
    }

    #[test]
    fn explicit_recv_timeout_does_not_suspect() {
        let (f, eps) = fabric_with(2);
        f.set_suspicion_timeout(Some(Duration::from_millis(5)));
        // An explicit deadline is the caller's own polling timeout (the gloo
        // op-timeout path); it must stay a plain Timeout with no kill.
        assert_eq!(
            eps[0].recv_timeout(RankId(1), 0, Duration::from_millis(10)),
            Err(TransportError::Timeout)
        );
        assert!(f.is_alive(RankId(1)));
        assert_eq!(f.stats().suspicions, 0);
    }

    #[test]
    fn suspicion_jitter_is_deterministic_and_bounded() {
        let base = Duration::from_millis(40);
        for r in 0..256 {
            let j = suspicion_jitter(RankId(r), base);
            // Deterministic: same rank, same stretch.
            assert_eq!(j, suspicion_jitter(RankId(r), base));
            assert!(j >= base, "jitter must never shrink the timeout");
            assert!(j <= base + base.mul_f64(0.25), "jitter bounded at +25%");
        }
        // Neighboring ranks land on different deadlines (the whole point:
        // no synchronized suspicion storm on a node-level death).
        assert_ne!(
            suspicion_jitter(RankId(1), base),
            suspicion_jitter(RankId(2), base)
        );
    }

    #[test]
    fn repeat_suspicion_is_coalesced() {
        let (f, _eps) = fabric_with(3);
        let coalesced = telemetry::counter("transport.suspicion.coalesced");
        let before = coalesced.get();
        f.suspect(RankId(2));
        assert_eq!(f.stats().suspicions, 1);
        assert!(f.last_suspicion().is_some());
        // Every further observer of the same death coalesces: no new
        // suspicion count, no new revoke trigger.
        f.suspect(RankId(2));
        f.suspect(RankId(2));
        assert_eq!(f.stats().suspicions, 1);
        assert_eq!(coalesced.get() - before, 2);
    }

    #[test]
    fn settle_suspicions_waits_out_the_batch_window() {
        let (f, eps) = fabric_with(3);
        // No window configured: settle is a no-op even after a suspicion.
        f.suspect(RankId(1));
        let t0 = Instant::now();
        eps[0].settle_suspicions();
        assert!(t0.elapsed() < Duration::from_millis(10));
        // With a window, settling blocks until the last suspicion is at
        // least a window old.
        f.set_suspicion_batch_window(Some(Duration::from_millis(25)));
        f.suspect(RankId(2));
        let t1 = Instant::now();
        eps[0].settle_suspicions();
        assert!(t1.elapsed() >= Duration::from_millis(20));
        // Already settled: a second call returns immediately.
        let t2 = Instant::now();
        eps[0].settle_suspicions();
        assert!(t2.elapsed() < Duration::from_millis(10));
    }

    #[test]
    fn a_signal_reaches_every_live_peer_once_and_nobody_else() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let (f, eps) = fabric_with(4);
        let hits: Arc<Vec<AtomicU64>> = Arc::new((0..4).map(|_| AtomicU64::new(0)).collect());
        for (r, ep) in eps.iter().enumerate() {
            let hits = Arc::clone(&hits);
            ep.set_signal_handler(Box::new(move |payload| {
                assert_eq!(payload, b"revoke:7");
                hits[r].fetch_add(1, Ordering::SeqCst);
            }));
        }
        let counts = || {
            hits.iter()
                .map(|h| h.load(Ordering::SeqCst))
                .collect::<Vec<_>>()
        };
        f.kill_rank(RankId(3));
        // Delivery is a call on the sender's thread: done when it returns.
        eps[0].broadcast_signal(b"revoke:7");
        assert_eq!(counts(), vec![0, 1, 1, 0]);
        // A dead sender reaches nobody.
        eps[3].broadcast_signal(b"revoke:7");
        assert_eq!(counts(), vec![0, 1, 1, 0]);
        assert_eq!(f.stats().messages, 0, "a signal is not a message");
    }

    #[test]
    fn forwarding_signal_handlers_finish_without_deadlock() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::mpsc;
        // Every rank forwards the first signal it sees, as a revocation
        // does, from inside its handler: 7 deliveries, then 7 forwards of 7.
        const P: usize = 8;
        let (_f, eps) = fabric_with(P);
        let peers = Arc::new(Mutex::new(eps.clone()));
        let seen: Arc<Vec<AtomicBool>> = Arc::new((0..P).map(|_| AtomicBool::new(false)).collect());
        let calls = Arc::new(AtomicU64::new(0));
        for r in 0..P {
            let (peers, seen, calls) = (Arc::clone(&peers), Arc::clone(&seen), Arc::clone(&calls));
            eps[r].set_signal_handler(Box::new(move |payload| {
                calls.fetch_add(1, Ordering::SeqCst);
                if !seen[r].swap(true, Ordering::SeqCst) {
                    let me = peers.lock().get(r).cloned();
                    if let Some(me) = me {
                        me.broadcast_signal(payload);
                    }
                }
            }));
        }
        let (done, finished) = mpsc::channel();
        let origin = eps[0].clone();
        let first = Arc::clone(&seen);
        std::thread::spawn(move || {
            first[0].store(true, Ordering::SeqCst);
            origin.broadcast_signal(b"revoke");
            done.send(()).unwrap();
        });
        let ended = finished.recv_timeout(Duration::from_secs(10));
        // The handlers hold endpoints, which hold the fabric: let go.
        peers.lock().clear();
        assert!(ended.is_ok(), "forwarding broadcast deadlocked");
        assert!(seen.iter().all(|s| s.load(Ordering::SeqCst)));
        assert_eq!(
            calls.load(Ordering::SeqCst),
            ((P - 1) + (P - 1) * (P - 1)) as u64
        );
    }

    #[test]
    fn gated_perturbation_activates_at_fault_point() {
        use crate::perturb::{LinkPerturb, PerturbPlan, RetryPolicy};
        let (f, eps) = fabric_with(2);
        f.set_perturbation(
            PerturbPlan::seeded(3)
                .all_links(LinkPerturb::clean().drop(1.0))
                .retry(RetryPolicy {
                    max_retries: 2,
                    base: Duration::from_micros(20),
                    cap: Duration::from_micros(50),
                })
                .active_from_point("phase.two"),
        );
        eps[0].send(RankId(1), 0, b"clean").unwrap();
        eps[0].fault_point("phase.two").unwrap();
        assert_eq!(
            eps[0].send(RankId(1), 0, b"lost"),
            Err(TransportError::PeerDead(RankId(1)))
        );
    }
}

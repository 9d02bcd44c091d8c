//! Tracing from outside the program under test: spans around the
//! benchmark's own calls into each layer, plus a [`TracedBackend`]
//! decorator that records every `transport` send and receive.
//!
//! Spans live in a per-thread vector while a run is in flight and are
//! merged once the rank thread is done, so recording takes no lock. A
//! span's parent is the span open on the same thread when it started; all
//! spans of one workload op share an op id.

use crate::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use transport::{
    Backend, FabricStats, PerturbPlan, RankId, SignalHandler, Topology, TransportError,
};

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id (process-wide).
    pub id: u64,
    /// Id of the enclosing span on the same thread; 0 for a root.
    pub parent: u64,
    /// Workload op this span belongs to (0 outside any op).
    pub op: u64,
    /// Rank whose thread recorded the span.
    pub rank: usize,
    /// Layer boundary, e.g. `transport.send` or `ulfm.allreduce`.
    pub name: &'static str,
    /// Start, ns since the process-wide trace epoch.
    pub start_ns: u64,
    /// End, ns since the trace epoch.
    pub end_ns: u64,
    /// Peer rank for transport spans.
    pub peer: Option<usize>,
    /// Message tag for transport spans.
    pub tag: Option<u64>,
    /// Payload bytes for transport spans.
    pub bytes: Option<usize>,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct ThreadRec {
    rank: usize,
    op: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

thread_local! {
    static REC: RefCell<Option<ThreadRec>> = const { RefCell::new(None) };
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Start recording on this thread as `rank`. Until this is called (the
/// untraced runs never call it) every span is a no-op; after it, spans are
/// kept from the moment a [`root`] span opens, so set-up and warm-up stay
/// out of the trace and every span kept descends from a root.
pub fn begin_thread(rank: usize) {
    epoch();
    REC.with(|r| {
        *r.borrow_mut() = Some(ThreadRec {
            rank,
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        })
    });
}

/// Stop recording on this thread and hand back its spans.
pub fn end_thread() -> Vec<Span> {
    REC.with(|r| r.borrow_mut().take())
        .map(|t| t.spans)
        .unwrap_or_default()
}

/// Mark the start of workload op `op`: spans opened from now on carry it.
pub fn set_op(op: u64) {
    REC.with(|r| {
        if let Some(t) = r.borrow_mut().as_mut() {
            t.op = op;
        }
    });
}

/// An open span; records its end when dropped.
pub struct SpanGuard {
    idx: Option<usize>,
}

/// Open the span that covers a rank's timed region.
pub fn root(name: &'static str) -> SpanGuard {
    open(name, true, None, None, None)
}

/// Open a span named `name` inside the enclosing span on this thread.
pub fn span(name: &'static str) -> SpanGuard {
    open(name, false, None, None, None)
}

fn span_io(name: &'static str, peer: usize, tag: u64, bytes: Option<usize>) -> SpanGuard {
    open(name, false, Some(peer), Some(tag), bytes)
}

fn open(
    name: &'static str,
    is_root: bool,
    peer: Option<usize>,
    tag: Option<u64>,
    bytes: Option<usize>,
) -> SpanGuard {
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        let t = r.as_mut()?;
        if t.open.is_empty() != is_root {
            return None;
        }
        let parent = t.open.last().map_or(0, |&i| t.spans[i].id);
        let idx = t.spans.len();
        t.spans.push(Span {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            parent,
            op: t.op,
            rank: t.rank,
            name,
            start_ns: now_ns(),
            end_ns: 0,
            peer,
            tag,
            bytes,
        });
        t.open.push(idx);
        Some(idx)
    });
    SpanGuard { idx }
}

impl SpanGuard {
    /// Attach the payload size once it is known (a receive learns it late).
    pub fn set_bytes(&self, bytes: usize) {
        if let Some(idx) = self.idx {
            REC.with(|r| {
                if let Some(t) = r.borrow_mut().as_mut() {
                    t.spans[idx].bytes = Some(bytes);
                }
            });
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            let end = now_ns();
            REC.with(|r| {
                if let Some(t) = r.borrow_mut().as_mut() {
                    t.spans[idx].end_ns = end;
                    let top = t.open.pop();
                    debug_assert_eq!(top, Some(idx), "spans must close innermost first");
                }
            });
        }
    }
}

/// Self time per span name: each span's duration minus the part of it its
/// child spans cover (children are clipped to the parent and overlapping
/// children are counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        *out.entry(s.name).or_insert(0) += s.dur() - covered;
    }
    out
}

/// Total duration of root spans — the traced wall summed over rank threads.
pub fn root_wall(spans: &[Span]) -> u64 {
    spans.iter().filter(|s| s.parent == 0).map(Span::dur).sum()
}

/// Where a traced run's time went, as shares of the traced wall.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerShares {
    /// Self time of `transport.send` spans.
    pub transport_send: f64,
    /// Self time of `transport.recv` spans (mostly waiting for the peer).
    pub transport_recv_wait: f64,
    /// Everything above the transport boundary.
    pub above_transport: f64,
    /// Sum of all self times ÷ traced wall; 1 when the spans reconcile.
    pub reconciled: f64,
    /// Self time per span name, ns.
    pub by_name: BTreeMap<&'static str, u64>,
}

/// Attribute a traced run's wall time to layers.
pub fn layer_shares(spans: &[Span]) -> LayerShares {
    let by_name = self_times(spans);
    let wall = root_wall(spans).max(1) as f64;
    let of = |n: &str| by_name.get(n).copied().unwrap_or(0) as f64;
    let total: u64 = by_name.values().sum();
    let (send, recv) = (of("transport.send"), of("transport.recv"));
    LayerShares {
        transport_send: send / wall,
        transport_recv_wait: recv / wall,
        above_transport: (total as f64 - send - recv) / wall,
        reconciled: total as f64 / wall,
        by_name,
    }
}

/// Render spans for `out/trace-<workload>.json`. Only the first `limit`
/// spans are written in full; the per-name totals cover all of them.
pub fn to_json(workload: &str, spans: &[Span], limit: usize) -> Json {
    let shares = layer_shares(spans);
    let opt = |v: Option<u64>| v.map_or(Json::Null, |x| Json::Num(x as f64));
    Json::obj([
        ("workload", Json::Str(workload.into())),
        ("spans_total", Json::Num(spans.len() as f64)),
        ("traced_wall_ns", Json::Num(root_wall(spans) as f64)),
        (
            "self_ns_by_name",
            Json::obj(
                shares
                    .by_name
                    .iter()
                    .map(|(k, v)| (*k, Json::Num(*v as f64))),
            ),
        ),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .take(limit)
                    .map(|s| {
                        Json::obj([
                            ("id", Json::Num(s.id as f64)),
                            ("parent", Json::Num(s.parent as f64)),
                            ("op", Json::Num(s.op as f64)),
                            ("rank", Json::Num(s.rank as f64)),
                            ("name", Json::Str(s.name.into())),
                            ("start_ns", Json::Num(s.start_ns as f64)),
                            ("end_ns", Json::Num(s.end_ns as f64)),
                            ("peer", opt(s.peer.map(|p| p as u64))),
                            ("tag", opt(s.tag)),
                            ("bytes", opt(s.bytes.map(|b| b as u64))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// In-process stand-in for the socket backends' control plane. A
/// peer-mode `Universe` relays revocations through
/// `Backend::broadcast_signal`, which the in-process backend leaves a no-op
/// (its universe shares the revocation board instead). A traced in-process
/// run is peer-mode — that is the only public way to install a decorator —
/// so the decorator carries the signals itself.
#[derive(Default)]
pub struct SignalHub {
    handlers: Mutex<BTreeMap<usize, Arc<SignalHandler>>>,
}

/// Decorator over any [`Backend`] that records `transport.send` and
/// `transport.recv` spans and forwards everything else untouched.
pub struct TracedBackend {
    inner: Arc<dyn Backend>,
    hub: Option<Arc<SignalHub>>,
}

impl TracedBackend {
    /// Wrap `inner`. Pass a shared `hub` for in-process backends (see
    /// [`SignalHub`]); socket backends carry their own signals.
    pub fn new(inner: Arc<dyn Backend>, hub: Option<Arc<SignalHub>>) -> Self {
        Self { inner, hub }
    }
}

impl Backend for TracedBackend {
    fn rank(&self) -> RankId {
        self.inner.rank()
    }
    fn topology(&self) -> Topology {
        self.inner.topology()
    }
    fn total_ranks(&self) -> usize {
        self.inner.total_ranks()
    }
    fn is_alive(&self, rank: RankId) -> bool {
        self.inner.is_alive(rank)
    }
    fn alive_ranks(&self) -> Vec<RankId> {
        self.inner.alive_ranks()
    }
    fn suspect(&self, rank: RankId) {
        self.inner.suspect(rank)
    }
    fn kill_self(&self) {
        self.inner.kill_self()
    }
    fn wake_all(&self) {
        self.inner.wake_all()
    }
    fn check_op_fault(&self) -> Result<(), TransportError> {
        self.inner.check_op_fault()
    }
    fn fault_point(&self, name: &str) -> Result<(), TransportError> {
        self.inner.fault_point(name)
    }
    fn send(&self, to: RankId, tag: u64, data: &[u8]) -> Result<(), TransportError> {
        let _s = span_io("transport.send", to.0, tag, Some(data.len()));
        self.inner.send(to, tag, data)
    }
    fn recv(
        &self,
        from: RankId,
        tag: u64,
        should_stop: &dyn Fn() -> bool,
        deadline: Option<Instant>,
    ) -> Result<Vec<u8>, TransportError> {
        let s = span_io("transport.recv", from.0, tag, None);
        let out = self.inner.recv(from, tag, should_stop, deadline);
        if let Ok(data) = &out {
            s.set_bytes(data.len());
        }
        out
    }
    fn try_recv(&self, from: RankId, tag: u64) -> Option<Vec<u8>> {
        self.inner.try_recv(from, tag)
    }
    fn probe(&self, from: RankId, tag: u64) -> bool {
        self.inner.probe(from, tag)
    }
    fn purge_tags(&self, pred: &dyn Fn(u64) -> bool) -> usize {
        self.inner.purge_tags(pred)
    }
    fn set_perturbation(&self, plan: PerturbPlan) {
        self.inner.set_perturbation(plan)
    }
    fn set_suspicion_timeout(&self, timeout: Option<Duration>) {
        self.inner.set_suspicion_timeout(timeout)
    }
    fn suspicion_timeout(&self) -> Option<Duration> {
        self.inner.suspicion_timeout()
    }
    fn broadcast_signal(&self, payload: &[u8]) {
        match &self.hub {
            Some(hub) => {
                let me = self.inner.rank().0;
                let peers: Vec<Arc<SignalHandler>> = hub
                    .handlers
                    .lock()
                    .expect("signal hub lock")
                    .iter()
                    .filter(|(r, _)| **r != me)
                    .map(|(_, h)| Arc::clone(h))
                    .collect();
                for h in peers {
                    h(payload);
                }
            }
            None => self.inner.broadcast_signal(payload),
        }
    }
    fn set_signal_handler(&self, handler: SignalHandler) {
        match &self.hub {
            Some(hub) => {
                hub.handlers
                    .lock()
                    .expect("signal hub lock")
                    .insert(self.inner.rank().0, Arc::new(handler));
            }
            None => self.inner.set_signal_handler(handler),
        }
    }
    fn stats(&self) -> FabricStats {
        self.inner.stats()
    }
    fn shutdown(&self) {
        self.inner.shutdown()
    }
    fn expect_rank(&self, rank: RankId) {
        self.inner.expect_rank(rank)
    }
    fn connect_peer(&self, rank: RankId, addr: &str) -> bool {
        self.inner.connect_peer(rank, addr)
    }
    fn last_suspicion(&self) -> Option<Instant> {
        self.inner.last_suspicion()
    }
    fn suspicion_batch_window(&self) -> Option<Duration> {
        self.inner.suspicion_batch_window()
    }
    fn set_suspicion_batch_window(&self, window: Option<Duration>) {
        self.inner.set_suspicion_batch_window(window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, rank: usize, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            rank,
            name,
            start_ns: a,
            end_ns: b,
            peer: None,
            tag: None,
            bytes: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100 ⊃ coll 10..90 ⊃ {send 20..30, recv 30..70}
        let spans = [
            sp(1, 0, 0, "workload", 0, 100),
            sp(2, 1, 0, "ulfm.allreduce", 10, 90),
            sp(3, 2, 0, "transport.send", 20, 30),
            sp(4, 2, 0, "transport.recv", 30, 70),
        ];
        let t = self_times(&spans);
        assert_eq!(t["workload"], 20);
        assert_eq!(t["ulfm.allreduce"], 30);
        assert_eq!(t["transport.send"], 10);
        assert_eq!(t["transport.recv"], 40);
        assert_eq!(t.values().sum::<u64>(), root_wall(&spans));
    }

    #[test]
    fn cross_thread_spans_add_up_per_thread() {
        // Two rank threads with overlapping wall-clock intervals: parents
        // are per thread, so the walls add and nothing is subtracted twice.
        let spans = [
            sp(1, 0, 0, "workload", 0, 100),
            sp(2, 1, 0, "transport.recv", 10, 60),
            sp(3, 0, 1, "workload", 5, 95),
            sp(4, 3, 1, "transport.recv", 20, 50),
            sp(5, 3, 1, "transport.send", 50, 55),
        ];
        let t = self_times(&spans);
        assert_eq!(root_wall(&spans), 190);
        assert_eq!(t["workload"], 50 + 55);
        assert_eq!(t["transport.recv"], 80);
        assert_eq!(t["transport.send"], 5);
        let shares = layer_shares(&spans);
        assert!((shares.reconciled - 1.0).abs() < 1e-12);
        assert!((shares.transport_recv_wait - 80.0 / 190.0).abs() < 1e-12);
        assert!((shares.above_transport - 105.0 / 190.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        // Children recorded on helper threads may overlap each other or
        // outlive the parent; the parent's self time never goes negative.
        let spans = [
            sp(1, 0, 0, "parent", 0, 100),
            sp(2, 1, 1, "child", 10, 60),
            sp(3, 1, 2, "child", 40, 120),
        ];
        let t = self_times(&spans);
        assert_eq!(t["parent"], 10);
    }

    #[test]
    fn recorder_links_parents_and_ops_on_a_thread() {
        std::thread::spawn(|| {
            begin_thread(3);
            drop(span("warm-up, before any root: not kept"));
            {
                let _root = root("workload");
                set_op(7);
                let _op = span("ulfm.allreduce");
                drop(span_io("transport.send", 1, 9, Some(64)));
            }
            let spans = end_thread();
            assert_eq!(spans.len(), 3);
            assert_eq!(spans[0].parent, 0);
            assert_eq!(spans[1].parent, spans[0].id);
            assert_eq!(spans[2].parent, spans[1].id);
            assert_eq!((spans[2].op, spans[2].rank), (7, 3));
            assert_eq!(spans[2].bytes, Some(64));
            assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
            // Recording is off again: spans are no-ops.
            drop(span("ignored"));
            assert!(end_thread().is_empty());
        })
        .join()
        .unwrap();
    }
}

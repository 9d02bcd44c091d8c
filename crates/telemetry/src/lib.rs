//! Dependency-free metrics/tracing runtime for the elastic-ulfm stack.
//!
//! Everything lives in one process-global [`Registry`]:
//!
//! * [`Counter`] — a named monotonic count; the hot-path cost of an
//!   increment is one relaxed atomic add. Call sites that fire per-message
//!   cache the `Arc<Counter>` instead of re-resolving the name.
//! * [`Histogram`] — 64 fixed log₂ buckets plus count/sum/min/max, all
//!   atomics, no locks on the record path. Durations are recorded in
//!   nanoseconds; byte sizes and round counts record raw values.
//!
//!   Both are *striped*: a thread adds into one of a few cache-line-padded
//!   copies and a read sums them, so ranks that bump the same metric in the
//!   same instant do not pass its cache line back and forth.
//! * [`span`] — an RAII guard that times a scope into the histogram of the
//!   same name (`drop` records). [`time`] is the closure-shaped variant.
//! * [`Lazy`] — a `static` handle on a counter or histogram, for call sites
//!   that cannot hold an `Arc`: resolved on first use, lock-free after.
//! * [`Episode`] — one recovery episode (forward redo, backward rollback,
//!   or join) with its per-phase durations; mirrors
//!   `elastic::profiler::RecoveryBreakdown` so the two reconcile exactly.
//!
//! [`snapshot`] captures the registry as plain data and renders it as JSON
//! (hand-rolled writer, no serde) for `telemetry.json`. [`reset`] zeroes
//! every metric in place — registered `Arc`s stay live — which is what the
//! determinism tests lean on to compare two runs inside one process.
//!
//! Naming convention: dot-separated `layer.object.metric`, e.g.
//! `transport.msgs_sent`, `coll.allreduce.ring.latency_ns`,
//! `ulfm.agree.rounds`, `gloo.rendezvous.duration_ns`, `elastic.step_ns`.

mod json;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

pub use json::JsonWriter;

/// Stripes per metric. Every rank thread of an in-process world bumps the
/// same few metrics in the same instant; one word per metric would make each
/// bump a cache-line transfer between cores. A thread writes only its own
/// stripe; reads sum (or merge) all of them.
const STRIPES: usize = 4;

/// One stripe, alone on its cache lines.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Stripe<T>(T);

/// The calling thread's stripe: handed out round-robin at a thread's first
/// metric, so threads that start together land on different stripes.
fn stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static MINE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    // A metric bumped from a thread-local destructor may find `MINE` gone.
    MINE.try_with(|s| *s).unwrap_or(0)
}

/// A named monotonic counter.
#[derive(Debug, Default)]
pub struct Counter {
    stripes: [Stripe<AtomicU64>; STRIPES],
}

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.stripes[stripe()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        let stripes = self.stripes.iter();
        stripes.map(|s| s.0.load(Ordering::Relaxed)).sum()
    }

    fn reset(&self) {
        for s in &self.stripes {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

const BUCKETS: usize = 64;

/// Lock-free histogram over `u64` values with fixed log₂ buckets.
///
/// Bucket `i` holds values whose bit length is `i` (bucket 0 holds the
/// value 0), i.e. bucket boundaries are powers of two. That is coarse but
/// stable, cheap, and good enough to separate "microseconds" from
/// "milliseconds" — the resolution the paper's breakdowns need.
#[derive(Debug, Default)]
pub struct Histogram {
    stripes: [Stripe<HistogramStripe>; STRIPES],
}

/// One thread-group's share of a [`Histogram`]. The count is not stored: it
/// is the sum of the buckets.
#[derive(Debug)]
struct HistogramStripe {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramStripe {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one raw value.
    pub fn record(&self, value: u64) {
        let s = &self.stripes[stripe()].0;
        let idx = (64 - value.leading_zeros() as usize).min(BUCKETS - 1);
        s.buckets[idx].fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(value, Ordering::Relaxed);
        // Both only ever tighten, so a stale read can only cost a retry of
        // the update, never skip one that was needed.
        if value < s.min.load(Ordering::Relaxed) {
            s.min.fetch_min(value, Ordering::Relaxed);
        }
        if value > s.max.load(Ordering::Relaxed) {
            s.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Record a duration, in nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        let buckets = self.stripes.iter().flat_map(|s| &s.0.buckets);
        buckets.map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        let sums = self.stripes.iter().map(|s| s.0.sum.load(Ordering::Relaxed));
        sums.fold(0, u64::wrapping_add)
    }

    /// Plain-data copy of the current state: the stripes merged.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; BUCKETS];
        let (mut sum, mut min, mut max) = (0u64, u64::MAX, 0u64);
        for Stripe(s) in &self.stripes {
            for (total, b) in counts.iter_mut().zip(&s.buckets) {
                *total += b.load(Ordering::Relaxed);
            }
            sum = sum.wrapping_add(s.sum.load(Ordering::Relaxed));
            min = min.min(s.min.load(Ordering::Relaxed));
            max = max.max(s.max.load(Ordering::Relaxed));
        }
        let count = counts.iter().sum();
        HistogramSnapshot {
            count,
            sum,
            min: if count == 0 { 0 } else { min },
            max,
            buckets: counts
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, &n)| BucketCount {
                    floor: if i == 0 { 0 } else { 1u64 << (i - 1) },
                    count: n,
                })
                .collect(),
        }
    }

    fn reset(&self) {
        for Stripe(s) in &self.stripes {
            for b in &s.buckets {
                b.store(0, Ordering::Relaxed);
            }
            s.sum.store(0, Ordering::Relaxed);
            s.min.store(u64::MAX, Ordering::Relaxed);
            s.max.store(0, Ordering::Relaxed);
        }
    }
}

/// One non-empty histogram bucket: `floor` is the inclusive lower bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketCount {
    /// Inclusive lower bound of the bucket (a power of two, or 0).
    pub floor: u64,
    /// Number of values that fell in the bucket.
    pub count: u64,
}

/// Plain-data copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Non-empty buckets, ascending by floor.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// Arithmetic mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One phase of a recovery episode (mirrors `profiler::Phase`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpisodePhase {
    /// Phase name, e.g. `revoke`, `agree`, `rendezvous`.
    pub name: &'static str,
    /// Phase duration in nanoseconds.
    pub ns: u64,
}

/// One traced recovery episode: what kind, where, and its cost breakdown.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Episode {
    /// Episode kind: `forward`, `backward`, or `join`.
    pub kind: &'static str,
    /// Rank that recorded the episode.
    pub rank: usize,
    /// Training step at which the episode began.
    pub at_step: u64,
    /// Recovery arm committed by the policy layer for this episode
    /// (`"shrink"`, `"spare"`, `"rollback"`, or a fallback chain like
    /// `"spare->shrink"`). `None` when no policy round ran.
    pub policy: Option<&'static str>,
    /// Ordered per-phase costs.
    pub phases: Vec<EpisodePhase>,
}

impl Episode {
    /// Total episode cost in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.ns).sum()
    }
}

/// The process-global metric registry.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    episodes: Mutex<Vec<Episode>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Get or create the counter named `name`. Cache the `Arc` on hot paths.
pub fn counter(name: &str) -> Arc<Counter> {
    let mut map = registry().counters.lock().expect("telemetry lock");
    if let Some(c) = map.get(name) {
        return Arc::clone(c);
    }
    let c = Arc::new(Counter::default());
    map.insert(name.to_string(), Arc::clone(&c));
    c
}

/// Get or create the histogram named `name`. Cache the `Arc` on hot paths.
pub fn histogram(name: &str) -> Arc<Histogram> {
    let mut map = registry().histograms.lock().expect("telemetry lock");
    if let Some(h) = map.get(name) {
        return Arc::clone(h);
    }
    let h = Arc::new(Histogram::default());
    map.insert(name.to_string(), Arc::clone(&h));
    h
}

/// A metric handle for a `static`: `static OPS: Lazy<Counter> =
/// Lazy::counter("coll.barrier.ops")`. The name is resolved in the registry
/// on first use — so it appears in [`snapshot`] exactly when a by-name call
/// site's would — and every later use is one atomic load: no lock, no
/// string. [`reset`] zeroes metrics in place, so the handle stays valid.
pub struct Lazy<M: 'static> {
    name: &'static str,
    resolve: fn(&str) -> Arc<M>,
    cell: OnceLock<Arc<M>>,
}

impl Lazy<Counter> {
    /// A handle on the counter named `name`.
    pub const fn counter(name: &'static str) -> Self {
        Self {
            name,
            resolve: counter,
            cell: OnceLock::new(),
        }
    }
}

impl Lazy<Histogram> {
    /// A handle on the histogram named `name`.
    pub const fn histogram(name: &'static str) -> Self {
        Self {
            name,
            resolve: histogram,
            cell: OnceLock::new(),
        }
    }
}

impl<M> std::ops::Deref for Lazy<M> {
    type Target = M;
    fn deref(&self) -> &M {
        self.cell.get_or_init(|| (self.resolve)(self.name))
    }
}

/// Record a completed recovery episode.
pub fn record_episode(episode: Episode) {
    registry()
        .episodes
        .lock()
        .expect("telemetry lock")
        .push(episode);
}

/// RAII scope timer: `drop` records the elapsed time (ns) into the
/// histogram named at construction.
pub struct SpanGuard {
    hist: Arc<Histogram>,
    start: Instant,
}

impl SpanGuard {
    /// Elapsed time so far.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.hist.record_duration(self.start.elapsed());
    }
}

/// Start timing a scope into the histogram `name`.
pub fn span(name: &str) -> SpanGuard {
    SpanGuard {
        hist: histogram(name),
        start: Instant::now(),
    }
}

/// Time a closure into the histogram `name` and return its result.
pub fn time<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let _guard = span(name);
    f()
}

/// Plain-data copy of the whole registry at one instant.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Recovery episodes in record order.
    pub episodes: Vec<Episode>,
}

impl Snapshot {
    /// Sum of `total_ns` over episodes of the given kind.
    pub fn episode_total_ns(&self, kind: &str) -> u64 {
        self.episodes
            .iter()
            .filter(|e| e.kind == kind)
            .map(Episode::total_ns)
            .sum()
    }

    /// Render as a JSON document (see EXPERIMENTS.md for the schema).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("version");
        w.uint(1);
        w.key("counters");
        w.begin_object();
        for (name, value) in &self.counters {
            w.key(name);
            w.uint(*value);
        }
        w.end_object();
        w.key("histograms");
        w.begin_object();
        for (name, h) in &self.histograms {
            w.key(name);
            w.begin_object();
            w.key("count");
            w.uint(h.count);
            w.key("sum");
            w.uint(h.sum);
            w.key("min");
            w.uint(h.min);
            w.key("max");
            w.uint(h.max);
            w.key("buckets");
            w.begin_array();
            for b in &h.buckets {
                w.begin_array();
                w.uint(b.floor);
                w.uint(b.count);
                w.end_array();
            }
            w.end_array();
            w.end_object();
        }
        w.end_object();
        w.key("episodes");
        w.begin_array();
        for e in &self.episodes {
            w.begin_object();
            w.key("kind");
            w.string(e.kind);
            w.key("rank");
            w.uint(e.rank as u64);
            w.key("at_step");
            w.uint(e.at_step);
            if let Some(p) = e.policy {
                w.key("policy");
                w.string(p);
            }
            w.key("total_ns");
            w.uint(e.total_ns());
            w.key("phases");
            w.begin_array();
            for p in &e.phases {
                w.begin_object();
                w.key("name");
                w.string(p.name);
                w.key("ns");
                w.uint(p.ns);
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

/// Capture the registry as plain data.
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let counters = reg
        .counters
        .lock()
        .expect("telemetry lock")
        .iter()
        .map(|(k, v)| (k.clone(), v.get()))
        .collect();
    let histograms = reg
        .histograms
        .lock()
        .expect("telemetry lock")
        .iter()
        .map(|(k, v)| (k.clone(), v.snapshot()))
        .collect();
    let episodes = reg.episodes.lock().expect("telemetry lock").clone();
    Snapshot {
        counters,
        histograms,
        episodes,
    }
}

/// Zero every metric in place and clear the episode log. Previously
/// returned `Arc<Counter>`/`Arc<Histogram>` handles stay registered, so
/// call sites that cached them keep reporting into the same names.
pub fn reset() {
    let reg = registry();
    for c in reg.counters.lock().expect("telemetry lock").values() {
        c.reset();
    }
    for h in reg.histograms.lock().expect("telemetry lock").values() {
        h.reset();
    }
    reg.episodes.lock().expect("telemetry lock").clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests in this binary share the global registry; serialize them.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let _g = lock();
        reset();
        let c = counter("test.counter");
        c.incr();
        c.add(4);
        assert_eq!(counter("test.counter").get(), 5);
        reset();
        assert_eq!(c.get(), 0);
        // The cached Arc still reports into the registry after reset.
        c.add(2);
        assert_eq!(snapshot().counters["test.counter"], 2);
    }

    #[test]
    fn lazy_handle_registers_on_first_use_and_survives_reset() {
        let _g = lock();
        static C: Lazy<Counter> = Lazy::counter("test.lazy.counter");
        static H: Lazy<Histogram> = Lazy::histogram("test.lazy.hist");
        reset();
        // Declared but never used: not in the registry.
        assert!(!snapshot().counters.contains_key("test.lazy.counter"));
        assert!(!snapshot().histograms.contains_key("test.lazy.hist"));
        C.add(3);
        H.record(7);
        assert_eq!(counter("test.lazy.counter").get(), 3);
        assert_eq!(histogram("test.lazy.hist").sum(), 7);
        reset();
        C.incr();
        assert_eq!(snapshot().counters["test.lazy.counter"], 1);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let _g = lock();
        reset();
        let h = histogram("test.hist");
        for v in [0u64, 1, 1, 3, 900, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1905);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        // 0 -> bucket floor 0; 1,1 -> floor 1; 3 -> floor 2; 900,1000 -> floor 512.
        assert_eq!(
            s.buckets,
            vec![
                BucketCount { floor: 0, count: 1 },
                BucketCount { floor: 1, count: 2 },
                BucketCount { floor: 2, count: 1 },
                BucketCount {
                    floor: 512,
                    count: 2
                },
            ]
        );
        assert!((s.mean() - 1905.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn span_records_into_histogram() {
        let _g = lock();
        reset();
        {
            let _s = span("test.span");
            std::thread::sleep(Duration::from_millis(2));
        }
        let got = time("test.span", || 7);
        assert_eq!(got, 7);
        let s = histogram("test.span").snapshot();
        assert_eq!(s.count, 2);
        assert!(
            s.max >= 1_000_000,
            "sleep should register >= 1ms, got {s:?}"
        );
    }

    #[test]
    fn episodes_round_trip_through_snapshot() {
        let _g = lock();
        reset();
        record_episode(Episode {
            kind: "forward",
            rank: 3,
            at_step: 7,
            policy: None,
            phases: vec![
                EpisodePhase {
                    name: "revoke",
                    ns: 10,
                },
                EpisodePhase {
                    name: "agree",
                    ns: 30,
                },
            ],
        });
        let s = snapshot();
        assert_eq!(s.episodes.len(), 1);
        assert_eq!(s.episodes[0].total_ns(), 40);
        assert_eq!(s.episode_total_ns("forward"), 40);
        assert_eq!(s.episode_total_ns("backward"), 0);
    }

    #[test]
    fn json_snapshot_is_well_formed() {
        let _g = lock();
        reset();
        counter("json.counter").add(3);
        histogram("json.hist").record(5);
        record_episode(Episode {
            kind: "backward",
            rank: 0,
            at_step: 2,
            policy: Some("spare"),
            phases: vec![EpisodePhase {
                name: "rendezvous",
                ns: 99,
            }],
        });
        let doc = snapshot().to_json();
        assert!(doc.starts_with('{') && doc.ends_with('}'));
        assert!(doc.contains("\"json.counter\":3"));
        assert!(doc.contains("\"kind\":\"backward\""));
        assert!(doc.contains("\"total_ns\":99"));
        // Balanced braces/brackets (no string in the doc contains them).
        let opens = doc.matches('{').count() + doc.matches('[').count();
        let closes = doc.matches('}').count() + doc.matches(']').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let _g = lock();
        reset();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    let c = counter("test.concurrent");
                    let h = histogram("test.concurrent.h");
                    for i in 0..1000u64 {
                        c.incr();
                        h.record(i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("no panics");
        }
        assert_eq!(counter("test.concurrent").get(), 8000);
        assert_eq!(histogram("test.concurrent.h").count(), 8000);
    }

    #[test]
    fn stripes_merge_exactly_and_reset_together() {
        let _g = lock();
        reset();
        let (c, h) = (counter("test.striped"), histogram("test.striped.h"));
        // Eight fresh threads take stripes round-robin, so every stripe is
        // written; thread `t` records `t·1000 .. t·1000 + 1000`.
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let (c, h) = (&c, &h);
                s.spawn(move || {
                    for v in t * 1000..(t + 1) * 1000 {
                        c.add(v);
                        h.record(v);
                    }
                });
            }
        });
        let sum: u64 = (0..8000).sum();
        assert_eq!(c.get(), sum);
        let snap = h.snapshot();
        assert_eq!(
            (snap.count, snap.sum, snap.min, snap.max),
            (8000, sum, 0, 7999)
        );
        assert_eq!((h.count(), h.sum()), (8000, sum));
        // Bucket floors 0, 1, 2, 4, …, 4096 hold 1, 1, 2, 4, …, 8000 − 4096.
        let want: Vec<BucketCount> = std::iter::once(BucketCount { floor: 0, count: 1 })
            .chain((0..13).map(|i| BucketCount {
                floor: 1 << i,
                count: (2u64 << i).min(8000) - (1 << i),
            }))
            .collect();
        assert_eq!(snap.buckets, want);

        reset();
        assert_eq!(c.get(), 0);
        let cleared = h.snapshot();
        assert_eq!(
            (cleared.count, cleared.sum, cleared.min, cleared.max),
            (0, 0, 0, 0)
        );
        assert!(cleared.buckets.is_empty());
        // A stripe left dirty would show through a single new value's min.
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| h.record(5000));
            }
        });
        let again = h.snapshot();
        assert_eq!((again.count, again.min, again.max), (8, 5000, 5000));
    }
}

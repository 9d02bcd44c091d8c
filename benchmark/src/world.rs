//! One *world*: a fresh universe or socket mesh with one thread per rank.
//!
//! Every round of every workload runs in a world of its own, because thread
//! placement on a two-core box is bimodal and a long-lived pair of threads
//! would sample one mode only.

use crate::trace::{self, SignalHub, Span, TracedBackend};
use std::sync::Arc;
use std::time::{Duration, Instant};
use transport::{
    Backend, BackendKind, Endpoint, Fabric, FabricStats, FaultInjector, FaultPlan, PerturbPlan,
    RankId, RetryPolicy, SocketBackend, Topology,
};
use ulfm::{Proc, Universe};

/// Failure-detection deadline for socket worlds, as `elastic::scenario`
/// runs them: socket peers have no global wakeup, so a worker that never
/// touches a dead rank's link learns of the death by suspicion.
const SOCKET_SUSPICION: Duration = Duration::from_secs(5);

/// Retransmissions a socket world allows before a silent peer is suspected.
/// The default budget (16 retries, ≈ 80 ms) is shorter than the stalls this
/// shared sandbox inflicts on a whole VM: a training run over Unix sockets
/// now and then declared a live peer dead and finished on one rank. Backoff
/// per attempt is the default's, so retransmit counts and timings in normal
/// operation are unchanged; only the give-up point moves out to about the
/// receive-side deadline above. The default policy's own limit is measured
/// by `transport.unix.max_ok_msg_bytes`.
const SOCKET_MAX_RETRIES: u32 = 800;

/// What a rank thread runs.
pub type Worker<R> = Arc<dyn Fn(&Proc) -> R + Send + Sync>;

/// Pin the calling rank thread to core `rank mod cores`.
///
/// Left to the scheduler, two threads that hand a message back and forth
/// end up either on one core or on two, and which one sticks for the life
/// of the process: identical 1 KiB allreduce rounds ran at 18 µs or 38 µs
/// per op on the two-core sandbox. A rank per core is the placement a
/// multi-process job has, so that is the one measured. Threads the program
/// under test starts (socket service threads) are created before this call
/// and stay unpinned.
pub(crate) fn pin_rank_thread(rank: usize) {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        let cores = cores().min(64);
        let mask: u64 = 1 << (rank % cores);
        // SAFETY: `mask` is a live 8-byte CPU set and the size passed is its
        // size; pid 0 names the calling thread. Failure leaves the thread
        // unpinned, which only costs steadiness.
        unsafe {
            sched_setaffinity(0, std::mem::size_of::<u64>(), &mask);
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = rank;
}

/// Cores available to this process, read once before any thread is pinned.
pub fn cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Add `s` into `total`, counter by counter.
pub fn add_stats(total: &mut FabricStats, s: FabricStats) {
    total.messages += s.messages;
    total.bytes += s.bytes;
    total.deaths += s.deaths;
    total.retransmits += s.retransmits;
    total.corrupt_frames += s.corrupt_frames;
    total.dup_suppressed += s.dup_suppressed;
    total.suspicions += s.suspicions;
}

/// What a world produced.
pub struct WorldOut<R> {
    /// Per-rank results, in rank order.
    pub results: Vec<R>,
    /// When world construction began (the workload's set-up clock starts
    /// here).
    pub t0: Instant,
    /// Transport counters summed over the world.
    pub stats: FabricStats,
    /// Spans recorded by the rank threads (empty unless traced).
    pub spans: Vec<Span>,
}

/// Build a `p`-rank world on `kind`, run `worker` on every rank, tear the
/// world down. Untraced in-process worlds are the product path
/// (`Universe::new` + `spawn_batch`); socket worlds are a `local_mesh` with
/// one peer-mode universe per rank, the shape a multi-process launch has.
/// A traced world puts a [`TracedBackend`] under every endpoint.
pub fn run_world<R: Send + 'static>(
    kind: BackendKind,
    p: usize,
    plan: FaultPlan,
    traced: bool,
    worker: Worker<R>,
) -> WorldOut<R> {
    cores();
    let t0 = Instant::now();
    let topology = Topology::flat();
    let worker: Worker<R> = Arc::new(move |proc: &Proc| {
        pin_rank_thread(proc.rank().0);
        worker(proc)
    });
    if kind == BackendKind::InProc && !traced {
        let universe = Universe::new(topology, plan);
        let handles = universe
            .spawn_batch(p, move |proc| worker(&proc))
            .expect("in-process universe");
        let results = handles.into_iter().map(|h| h.join()).collect();
        let stats = universe.fabric().expect("in-process universe").stats();
        return WorldOut {
            results,
            t0,
            stats,
            spans: Vec::new(),
        };
    }

    // One backend per rank, plus how to model process exit / teardown.
    let group: Vec<RankId> = (0..p).map(RankId).collect();
    let fabric = (kind == BackendKind::InProc)
        .then(|| Fabric::new(topology, FaultInjector::new(plan.clone())));
    let sockets = match &fabric {
        Some(f) => {
            f.register_ranks(p);
            Vec::new()
        }
        None => {
            let mesh = SocketBackend::local_mesh(kind, topology, p, plan).expect("socket mesh");
            let patient = PerturbPlan::none().retry(RetryPolicy {
                max_retries: SOCKET_MAX_RETRIES,
                ..RetryPolicy::default()
            });
            for b in &mesh {
                b.set_suspicion_timeout(Some(SOCKET_SUSPICION));
                b.set_perturbation(patient.clone());
            }
            mesh
        }
    };
    let hub = fabric.as_ref().map(|_| Arc::new(SignalHub::default()));
    let backends: Vec<Arc<dyn Backend>> = group
        .iter()
        .map(|&r| match &fabric {
            Some(f) => Arc::clone(Endpoint::new(Arc::clone(f), r).backend()),
            None => Arc::clone(&sockets[r.0]) as Arc<dyn Backend>,
        })
        .collect();

    let per_rank: Vec<(R, Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = backends
            .into_iter()
            .map(|inner| {
                let (group, worker, hub, fabric) = (
                    group.clone(),
                    Arc::clone(&worker),
                    hub.clone(),
                    fabric.clone(),
                );
                s.spawn(move || {
                    let rank = inner.rank();
                    let backend: Arc<dyn Backend> = if traced {
                        trace::begin_thread(rank.0);
                        Arc::new(TracedBackend::new(inner, hub))
                    } else {
                        inner
                    };
                    let (_universe, proc) =
                        Universe::for_backend(Endpoint::from_backend(backend), group);
                    let out = worker(&proc);
                    if let Some(f) = fabric {
                        // Model process exit, as `spawn_batch` does.
                        f.kill_rank(rank);
                    }
                    (out, trace::end_thread())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    });

    let stats = match &fabric {
        Some(f) => f.stats(),
        None => {
            // Each socket backend observes its own traffic; the sum is the
            // mesh total.
            let mut total = FabricStats::default();
            for b in &sockets {
                add_stats(&mut total, b.stats());
            }
            for b in &sockets {
                b.shutdown();
            }
            total
        }
    };
    let mut results = Vec::with_capacity(p);
    let mut spans = Vec::new();
    for (r, s) in per_rank {
        results.push(r);
        spans.extend(s);
    }
    WorldOut {
        results,
        t0,
        stats,
        spans,
    }
}

//! The `layers` pass: single- and two-thread microbenchmarks behind the
//! per-layer metrics, all timed from here around public calls of the crate
//! the metric is named after. None of them is gated; they exist so that a
//! change in an end-to-end metric can be traced to the layer it came from.

use crate::stats::{self, Summary};
use crate::workloads::{self, train_spec};
use crate::world::{pin_rank_thread, run_world, Worker};
use collectives::{
    allreduce, binomial_bcast, dissemination_barrier, hier_allreduce, rabenseifner_allreduce,
    recursive_doubling_allreduce, ring_allreduce, AllreduceAlgo, CollError, FusionBuffer, NodeMap,
    PeerComm, ReduceOp, TAG_SPAN,
};
use elastic::scenario::Engine;
use elastic::{
    run_forward_worker, run_scenario, ForwardConfig, RecoveryKind, ScenarioConfig, ScenarioKind,
    TrainSpec,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use transport::{
    wire, Backend, BackendKind, Endpoint, Fabric, FaultPlan, Mailbox, RankId, SocketBackend,
    StreamDecoder, StreamKind, Topology, TransportError,
};
use ulfm::{AgreeImpl, Hierarchy, Proc};

/// Every per-layer metric: name, unit, and which direction is better.
/// `BENCHMARK.json` lists exactly these (a unit test holds the two together)
/// and a traced run must emit every one of them.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("transport.wire.fnv1a64_gbps", "GB/s", "higher"),
    ("transport.wire.encode_frame_gbps", "GB/s", "higher"),
    ("transport.wire.decode_frame_gbps", "GB/s", "higher"),
    ("transport.wire.f32s_to_bytes_gbps", "GB/s", "higher"),
    ("transport.wire.bytes_to_f32s_gbps", "GB/s", "higher"),
    ("transport.stream.encode_envelope_gbps", "GB/s", "higher"),
    ("transport.stream.decode_gbps", "GB/s", "higher"),
    ("transport.mailbox.accept_pop_ns", "ns", "lower"),
    ("transport.inproc.pingpong_us", "us", "lower"),
    ("transport.inproc.alpha_us", "us", "lower"),
    ("transport.inproc.beta_ns_per_byte", "ns/B", "lower"),
    ("transport.inproc.stream_gbps", "GB/s", "higher"),
    ("transport.unix.pingpong_us", "us", "lower"),
    ("transport.unix.alpha_us", "us", "lower"),
    ("transport.unix.beta_ns_per_byte", "ns/B", "lower"),
    ("transport.unix.stream_gbps", "GB/s", "higher"),
    ("transport.unix.retransmits_per_msg", "1/msg", "lower"),
    ("transport.unix.max_ok_msg_bytes", "B", "higher"),
    ("transport.tcp.pingpong_us", "us", "lower"),
    ("transport.tcp.stream_gbps", "GB/s", "higher"),
    ("transport.sock.mesh_setup_ms", "ms", "lower"),
    ("collectives.ring.small_us", "us", "lower"),
    ("collectives.ring.large_ms", "ms", "lower"),
    ("collectives.rd.small_us", "us", "lower"),
    ("collectives.rd.large_ms", "ms", "lower"),
    ("collectives.rabenseifner.small_us", "us", "lower"),
    ("collectives.rabenseifner.large_ms", "ms", "lower"),
    ("collectives.auto.crossover_bytes_measured", "B", "lower"),
    ("collectives.hier.ratio_vs_flat", "ratio", "lower"),
    ("collectives.fusion.pack_unpack_gbps", "GB/s", "higher"),
    ("collectives.bcast.1mib_ms", "ms", "lower"),
    ("collectives.barrier_us", "us", "lower"),
    ("ulfm.allreduce.wrapper_overhead_us", "us", "lower"),
    ("ulfm.agree.flood_us", "us", "lower"),
    ("ulfm.agree.lattice_us", "us", "lower"),
    ("ulfm.revoke_us", "us", "lower"),
    ("ulfm.shrink_us", "us", "lower"),
    ("ulfm.hierarchy.build_us", "us", "lower"),
    ("ulfm.recover.detect_us", "us", "lower"),
    ("ulfm.recover.revoke_us", "us", "lower"),
    ("ulfm.recover.shrink_us", "us", "lower"),
    ("ulfm.recover.redo_us", "us", "lower"),
    ("ulfm.recover.p_high_us", "us", "lower"),
    ("ulfm.recover.lattice_p50_us", "us", "lower"),
    ("gloo.rendezvous_ms", "ms", "lower"),
    ("gloo.context.rebuild_ms", "ms", "lower"),
    ("gloo.allreduce.large_ms", "ms", "lower"),
    ("dnn.forward_ms", "ms", "lower"),
    ("dnn.backward_ms", "ms", "lower"),
    ("dnn.sgd_step_ms", "ms", "lower"),
    ("dnn.checkpoint.capture_ms", "ms", "lower"),
    ("dnn.checkpoint.restore_ms", "ms", "lower"),
    ("elastic.single_worker_steps_per_s", "1/s", "higher"),
    ("elastic.scaling_eff", "ratio", "higher"),
    ("elastic.step.compute_share", "ratio", "lower"),
    ("elastic.step.comm_share", "ratio", "lower"),
    ("elastic.step.overhead_share", "ratio", "lower"),
    ("elastic.train.bytes_per_step", "B", "lower"),
    ("elastic.train.msgs_per_step", "count", "lower"),
    ("elastic.backward.steps_per_s", "1/s", "higher"),
    ("elastic.forward.recovery_us", "us", "lower"),
    ("elastic.backward.recovery_ms", "ms", "lower"),
    ("telemetry.counter_lookup_ns", "ns", "lower"),
    ("telemetry.span_ns", "ns", "lower"),
    ("telemetry.snapshot_ms", "ms", "lower"),
    ("trace.transport_send_share", "ratio", "lower"),
    ("trace.transport_recv_wait_share", "ratio", "lower"),
    ("trace.above_transport_share", "ratio", "lower"),
    ("trace.reconciled_share", "ratio", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
];

/// One measured per-layer metric.
pub struct LayerMetric {
    /// Metric name, `<crate>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value (the median where there are samples).
    pub value: f64,
    /// Sample count, median and supported tail, where there are samples.
    pub summary: Option<Summary>,
}

/// Collects metrics as the pass produces them.
#[derive(Default)]
pub struct Layers {
    /// Metrics in the order they were measured.
    pub metrics: Vec<LayerMetric>,
}

impl Layers {
    /// Record a single derived value under a name from [`PER_LAYER`].
    pub fn value(&mut self, name: &str, value: f64) {
        let &(name, unit, _) = PER_LAYER
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"));
        self.metrics.push(LayerMetric {
            name,
            unit,
            value,
            summary: None,
        });
    }

    /// Record the median of `samples` (already in the metric's unit).
    pub fn samples(&mut self, name: &str, samples: &[f64]) {
        let summary = Summary::of(samples);
        self.value(name, summary.median);
        self.metrics.last_mut().expect("just pushed").summary = Some(summary);
    }
}

// ---- timing helpers -----------------------------------------------------------

/// Call `f` once untimed, then time calls until `budget` is spent (at least
/// `min` samples). Returns seconds per call.
fn time_calls(budget: Duration, min: usize, mut f: impl FnMut()) -> Vec<f64> {
    f();
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || t0.elapsed() < budget {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_secs_f64());
    }
    out
}

/// Like [`time_calls`], but each sample is the mean of `batch` calls — for
/// operations too short for one `Instant` pair to resolve.
fn time_batched(budget: Duration, batch: usize, mut f: impl FnMut()) -> Vec<f64> {
    time_calls(budget, 10, || {
        for _ in 0..batch {
            f();
        }
    })
    .into_iter()
    .map(|s| s / batch as f64)
    .collect()
}

fn gbps(bytes: usize, secs: &[f64]) -> Vec<f64> {
    secs.iter().map(|s| bytes as f64 / s / 1e9).collect()
}

fn scaled(secs: &[f64], factor: f64) -> Vec<f64> {
    secs.iter().map(|s| s * factor).collect()
}

const MS: Duration = Duration::from_millis(1);

// ---- a benchmark-owned PeerComm over raw endpoints -------------------------------

/// The raw collective algorithms run over this, so what is measured is
/// `collectives` + `transport` with no ULFM wrapper in between.
pub struct RawComm {
    ep: Endpoint,
    p: usize,
}

impl RawComm {
    fn map(e: TransportError) -> CollError {
        match e {
            TransportError::PeerDead(r) => CollError::PeerFailed { peer: r.0 },
            TransportError::SelfDied => CollError::SelfDied,
            _ => CollError::Aborted,
        }
    }
}

impl PeerComm for RawComm {
    fn size(&self) -> usize {
        self.p
    }
    fn rank(&self) -> usize {
        self.ep.rank().0
    }
    fn send(&self, peer: usize, tag: u64, data: &[u8]) -> Result<(), CollError> {
        self.ep.send(RankId(peer), tag, data).map_err(Self::map)
    }
    fn recv(&self, peer: usize, tag: u64) -> Result<Vec<u8>, CollError> {
        self.ep.recv(RankId(peer), tag).map_err(Self::map)
    }
}

/// Run `f` on `p` pinned rank threads over raw endpoints of `kind`
/// (`ranks_per_node` shapes the topology); returns per-rank results.
fn raw_group<R: Send>(
    kind: BackendKind,
    p: usize,
    ranks_per_node: usize,
    f: impl Fn(RawComm) -> R + Sync,
) -> Vec<R> {
    let topology = Topology::new(ranks_per_node);
    let (eps, sockets): (Vec<Endpoint>, Vec<Arc<SocketBackend>>) = if kind == BackendKind::InProc {
        let fabric = Fabric::without_faults(topology);
        let ranks = fabric.register_ranks(p);
        let eps = ranks
            .iter()
            .map(|&r| Endpoint::new(Arc::clone(&fabric), r))
            .collect();
        (eps, Vec::new())
    } else {
        let mesh =
            SocketBackend::local_mesh(kind, topology, p, FaultPlan::none()).expect("socket mesh");
        let eps = mesh
            .iter()
            .map(|b| Endpoint::from_backend(Arc::clone(b) as Arc<dyn Backend>))
            .collect();
        (eps, mesh)
    };
    let f = &f;
    let out = std::thread::scope(|s| {
        let handles: Vec<_> = eps
            .into_iter()
            .map(|ep| {
                s.spawn(move || {
                    pin_rank_thread(ep.rank().0);
                    f(RawComm { ep, p })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    });
    for b in &sockets {
        b.shutdown();
    }
    out
}

/// Rank 0's samples from a group run where every rank returns samples.
fn rank0<T>(mut per_rank: Vec<T>) -> T {
    per_rank.swap_remove(0)
}

// ---- transport ------------------------------------------------------------------

fn transport_codecs(l: &mut Layers) {
    const N: usize = 1 << 20;
    let bytes: Vec<u8> = (0..N).map(|i| (i * 31) as u8).collect();
    let floats: Vec<f32> = (0..N / 4).map(|i| i as f32).collect();
    let b = 30 * MS;

    let s = time_calls(b, 5, || {
        black_box(wire::fnv1a64(black_box(&bytes)));
    });
    l.samples("transport.wire.fnv1a64_gbps", &gbps(N, &s));
    let s = time_calls(b, 5, || {
        black_box(wire::encode_frame(RankId(0), 7, 1, black_box(&bytes)));
    });
    l.samples("transport.wire.encode_frame_gbps", &gbps(N, &s));
    let frame = wire::encode_frame(RankId(0), 7, 1, &bytes);
    let s = time_calls(b, 5, || {
        black_box(wire::decode_frame(black_box(&frame)).expect("valid frame"));
    });
    l.samples("transport.wire.decode_frame_gbps", &gbps(N, &s));
    let s = time_calls(b, 5, || {
        black_box(transport::f32s_to_bytes(black_box(&floats)));
    });
    l.samples("transport.wire.f32s_to_bytes_gbps", &gbps(N, &s));
    let s = time_calls(b, 5, || {
        black_box(transport::bytes_to_f32s(black_box(&bytes)));
    });
    l.samples("transport.wire.bytes_to_f32s_gbps", &gbps(N, &s));
    let s = time_calls(b, 5, || {
        black_box(transport::encode_envelope(
            StreamKind::Data,
            black_box(&bytes),
        ));
    });
    l.samples("transport.stream.encode_envelope_gbps", &gbps(N, &s));
    // Reassembly as a reader thread does it: the envelope arrives in
    // 64 KiB reads.
    let envelope = transport::encode_envelope(StreamKind::Data, &bytes);
    let s = time_calls(b, 5, || {
        let mut d = StreamDecoder::new();
        for chunk in envelope.chunks(64 << 10) {
            d.push(chunk);
        }
        black_box(d.next_envelope().expect("well formed").expect("complete"));
    });
    l.samples("transport.stream.decode_gbps", &gbps(N, &s));

    // One 64-byte message through a mailbox: accept (checksum, dedup,
    // reorder) and matched pop, on one thread.
    let mailbox = Mailbox::new();
    let payload = [5u8; 64];
    let mut seq = 0u64;
    let s = time_batched(b, 200, || {
        let frame = wire::encode_frame(RankId(1), 9, seq, &payload);
        seq += 1;
        black_box(mailbox.accept_frame(&frame));
        black_box(mailbox.try_pop(RankId(1), 9));
    });
    l.samples("transport.mailbox.accept_pop_ns", &scaled(&s, 1e9));
}

/// Half the round trip of a `bytes`-sized message between two ranks.
fn pingpong(kind: BackendKind, sizes: &[usize], budget: Duration) -> Vec<Vec<f64>> {
    let sizes = sizes.to_vec();
    rank0(raw_group(kind, 2, 1, move |c| {
        let peer = 1 - c.rank();
        sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let (tag, data) = (100 + i as u64, vec![3u8; n]);
                // Rank 1 echoes exactly as many messages as rank 0 decides
                // to send: a zero-length message ends the size.
                if c.rank() == 0 {
                    let s = time_calls(budget, 20, || {
                        c.send(peer, tag, &data).expect("send");
                        black_box(c.recv(peer, tag).expect("recv"));
                    });
                    c.send(peer, tag, &[]).expect("send");
                    scaled(&s, 0.5)
                } else {
                    loop {
                        let m = c.recv(peer, tag).expect("recv");
                        if m.is_empty() {
                            break Vec::new();
                        }
                        c.send(peer, tag, &m).expect("send");
                    }
                }
            })
            .collect()
    }))
}

/// Rank 0 streams `count` messages of `bytes` to rank 1, which confirms the
/// last one. Returns seconds per batch.
fn stream(kind: BackendKind, bytes: usize, count: usize, batches: usize) -> Vec<f64> {
    rank0(raw_group(kind, 2, 1, move |c| {
        let peer = 1 - c.rank();
        let data = vec![9u8; bytes];
        let mut secs = Vec::new();
        for _ in 0..batches {
            let t = Instant::now();
            for _ in 0..count {
                if c.rank() == 0 {
                    c.send(peer, 7, &data).expect("send");
                } else {
                    black_box(c.recv(peer, 7).expect("recv"));
                }
            }
            if c.rank() == 0 {
                c.recv(peer, 8).expect("recv");
            } else {
                c.send(peer, 8, &[1]).expect("send");
            }
            secs.push(t.elapsed().as_secs_f64());
        }
        secs
    }))
}

/// Both ranks send `bytes` to each other at once, `count` times over — the
/// traffic shape of an allreduce step. Returns retransmits per message.
fn exchange_retransmits(kind: BackendKind, bytes: usize, count: usize) -> f64 {
    rank0(raw_group(kind, 2, 1, move |c| {
        let peer = 1 - c.rank();
        let data = vec![9u8; bytes];
        for _ in 0..count {
            c.send(peer, 7, &data).expect("send");
            black_box(c.recv(peer, 7).expect("recv"));
        }
        let st = c.ep.stats();
        st.retransmits as f64 / st.messages.max(1) as f64
    }))
}

/// Largest power-of-two message a Unix mesh delivers with no suspicion,
/// from 256 KiB up to 16 MiB.
fn unix_max_ok_msg_bytes() -> f64 {
    let best = raw_group(BackendKind::Unix, 2, 1, |c| {
        let peer = 1 - c.rank();
        let mut best = 0usize;
        for shift in 18..=24 {
            let n = 1usize << shift;
            let ok = if c.rank() == 0 {
                c.ep.send(RankId(peer), 5, &vec![1u8; n]).is_ok()
            } else {
                c.ep.recv_timeout(RankId(peer), 5, Duration::from_secs(2))
                    .is_ok_and(|m| m.len() == n)
            };
            if !ok || c.ep.stats().suspicions > 0 {
                break;
            }
            best = n;
        }
        best
    });
    // Both sides must have seen the message through cleanly.
    best.into_iter().min().unwrap_or(0) as f64
}

fn transport_links(l: &mut Layers) {
    const SIZES: [usize; 5] = [64, 1 << 10, 16 << 10, 64 << 10, 256 << 10];
    for kind in [BackendKind::InProc, BackendKind::Unix, BackendKind::Tcp] {
        let (sizes, budget): (&[usize], _) = if kind == BackendKind::Tcp {
            (&SIZES[..1], 60 * MS)
        } else {
            (&SIZES, 40 * MS)
        };
        let per_size = pingpong(kind, sizes, budget);
        l.samples(
            &format!("transport.{kind}.pingpong_us"),
            &scaled(&per_size[0], 1e6),
        );
        if per_size.len() > 1 {
            // One-way time = α + β·bytes, fitted over the size medians.
            let xs: Vec<f64> = sizes.iter().map(|&n| n as f64).collect();
            let ys: Vec<f64> = per_size.iter().map(|s| stats::median(s)).collect();
            let (a, b) = stats::least_squares(&xs, &ys);
            l.value(&format!("transport.{kind}.alpha_us"), a * 1e6);
            l.value(&format!("transport.{kind}.beta_ns_per_byte"), b * 1e9);
        }
        let secs = stream(kind, 256 << 10, 16, 5);
        l.samples(
            &format!("transport.{kind}.stream_gbps"),
            &gbps(16 * (256 << 10), &secs),
        );
    }
    l.value(
        "transport.unix.retransmits_per_msg",
        exchange_retransmits(BackendKind::Unix, 256 << 10, 60),
    );
    l.value("transport.unix.max_ok_msg_bytes", unix_max_ok_msg_bytes());
    let s = time_calls(20 * MS, 3, || {
        let mesh =
            SocketBackend::local_mesh(BackendKind::Unix, Topology::flat(), 2, FaultPlan::none())
                .expect("socket mesh");
        for b in &mesh {
            b.shutdown();
        }
    });
    l.samples("transport.sock.mesh_setup_ms", &scaled(&s, 1e3));
}

// ---- collectives -------------------------------------------------------------------

type Algo = fn(&RawComm, &mut [f32], u64) -> Result<(), CollError>;

fn algos() -> [(&'static str, Algo); 3] {
    [
        ("ring", |c, b, t| ring_allreduce(c, b, ReduceOp::Sum, t)),
        ("rd", |c, b, t| {
            recursive_doubling_allreduce(c, b, ReduceOp::Sum, t)
        }),
        ("rabenseifner", |c, b, t| {
            rabenseifner_allreduce(c, b, ReduceOp::Sum, t)
        }),
    ]
}

/// Seconds per in-process p = 2 allreduce of `elems` f32 with `algo`:
/// `warm` untimed calls, then `count` timed ones.
fn raw_allreduce(algo: Algo, elems: usize, warm: u64, count: u64) -> Vec<f64> {
    rank0(raw_group(BackendKind::InProc, 2, 1, move |c| {
        let mut buf = vec![1.0f32; elems];
        (1..=warm + count)
            .map(|k| {
                let t = Instant::now();
                algo(&c, &mut buf, k * TAG_SPAN).expect("allreduce");
                t.elapsed().as_secs_f64()
            })
            .skip(warm as usize)
            .collect()
    }))
}

fn collectives_layer(l: &mut Layers) {
    for (name, algo) in algos() {
        let s = raw_allreduce(algo, 256, 200, 1500);
        l.samples(&format!("collectives.{name}.small_us"), &scaled(&s, 1e6));
        let s = raw_allreduce(algo, 4 << 20, 1, 2);
        l.samples(&format!("collectives.{name}.large_ms"), &scaled(&s, 1e3));
    }

    // Where the bandwidth algorithm Auto would pick for two ranks starts to
    // beat recursive doubling: the first size of a 4× ladder where it wins,
    // or twice the ladder's top when it never does.
    let [_, (_, rd), (_, rab)] = algos();
    let ladder = [
        4usize << 10,
        16 << 10,
        64 << 10,
        256 << 10,
        1 << 20,
        4 << 20,
    ];
    let crossover = ladder
        .iter()
        .find(|&&bytes| {
            let t = |a| stats::median(&raw_allreduce(a, bytes / 4, 1, 5));
            t(rab) < t(rd)
        })
        .map_or(2 * ladder[ladder.len() - 1], |&b| b);
    l.value(
        "collectives.auto.crossover_bytes_measured",
        crossover as f64,
    );

    // Hierarchical vs flat, 4 ranks as 2 nodes of 2, 1 MiB. Four threads on
    // two cores: a count-grade figure, not a timing to lean on.
    let map = NodeMap::from_colors(&[0, 0, 1, 1]);
    let per_rank = raw_group(BackendKind::InProc, 4, 2, |c| {
        let mut buf = vec![1.0f32; 256 << 10];
        let mut run = |hier: bool, k: u64| {
            let t = Instant::now();
            if hier {
                hier_allreduce(
                    &c,
                    &map,
                    &mut buf,
                    ReduceOp::Sum,
                    AllreduceAlgo::auto(),
                    k * TAG_SPAN,
                )
            } else {
                allreduce(
                    &c,
                    &mut buf,
                    ReduceOp::Sum,
                    AllreduceAlgo::auto(),
                    k * TAG_SPAN,
                )
            }
            .expect("allreduce");
            t.elapsed().as_secs_f64()
        };
        let flat: Vec<f64> = (1..=4).map(|k| run(false, k)).collect();
        let hier: Vec<f64> = (5..=8).map(|k| run(true, k)).collect();
        stats::median(&hier[1..]) / stats::median(&flat[1..])
    });
    l.value("collectives.hier.ratio_vs_flat", per_rank[0]);

    // Pack + unpack of the training model's gradient tensors.
    let model = train_spec(1, 1).build_model();
    let grads: Vec<Vec<f32>> = model.grads().iter().map(|g| g.data().to_vec()).collect();
    let views: Vec<&[f32]> = grads.iter().map(Vec::as_slice).collect();
    let bytes = 2 * 4 * grads.iter().map(Vec::len).sum::<usize>();
    let s = time_calls(30 * MS, 5, || {
        black_box(FusionBuffer::pack(black_box(&views)).unpack());
    });
    l.samples("collectives.fusion.pack_unpack_gbps", &gbps(bytes, &s));

    let s = rank0(raw_group(BackendKind::InProc, 2, 1, |c| {
        (1..=12u64)
            .map(|k| {
                let mut buf = if c.rank() == 0 {
                    vec![7u8; 1 << 20]
                } else {
                    Vec::new()
                };
                let t = Instant::now();
                binomial_bcast(&c, 0, &mut buf, k * TAG_SPAN).expect("bcast");
                // The root returns once its sends are buffered; the
                // barrier makes the sample cover delivery.
                dissemination_barrier(&c, k * TAG_SPAN + 1000).expect("barrier");
                t.elapsed().as_secs_f64()
            })
            .skip(2)
            .collect::<Vec<f64>>()
    }));
    l.samples("collectives.bcast.1mib_ms", &scaled(&s, 1e3));
    let s = rank0(raw_group(BackendKind::InProc, 2, 1, |c| {
        (1..=1200u64)
            .map(|k| {
                let t = Instant::now();
                dissemination_barrier(&c, k * TAG_SPAN).expect("barrier");
                t.elapsed().as_secs_f64()
            })
            .skip(200)
            .collect::<Vec<f64>>()
    }));
    l.samples("collectives.barrier_us", &scaled(&s, 1e6));
}

// ---- ulfm ------------------------------------------------------------------------

/// Run `f` on every rank of a fresh in-process universe of `p` ranks;
/// rank 0's result.
fn universe<R: Send + 'static>(p: usize, f: impl Fn(&Proc) -> R + Send + Sync + 'static) -> R {
    let worker: Worker<R> = Arc::new(f);
    rank0(run_world(BackendKind::InProc, p, FaultPlan::none(), false, worker).results)
}

fn ulfm_layer(l: &mut Layers, seed: u64) {
    // The wrapper's share of a 1 KiB allreduce: `Communicator::allreduce`
    // (Auto picks recursive doubling) against the bare algorithm on the same
    // endpoints, in alternating blocks so both see the same machine state;
    // the figure is the difference of the median block means.
    let (wrapped, raw) = universe(2, |proc| {
        const BLOCK: u64 = 250;
        let comm = proc.init_comm();
        let bare = RawComm {
            ep: comm.endpoint().clone(),
            p: 2,
        };
        let mut buf = vec![1.0f32; 256];
        let (mut wrapped, mut raw) = (Vec::new(), Vec::new());
        for block in 0..14u64 {
            let t = Instant::now();
            for i in 0..BLOCK {
                if block % 2 == 0 {
                    comm.allreduce(&mut buf, ReduceOp::Max, AllreduceAlgo::auto())
                } else {
                    // Tags far from any the communicator derives from its id.
                    let tag = (1 << 62) + (block * BLOCK + i) * TAG_SPAN;
                    recursive_doubling_allreduce(&bare, &mut buf, ReduceOp::Max, tag)
                        .map_err(|_| ulfm::UlfmError::Revoked)
                }
                .expect("allreduce");
            }
            let mean = t.elapsed().as_secs_f64() / BLOCK as f64;
            // The first pair of blocks warms up.
            match block {
                0 | 1 => {}
                b if b % 2 == 0 => wrapped.push(mean),
                _ => raw.push(mean),
            }
        }
        (wrapped, raw)
    });
    l.value(
        "ulfm.allreduce.wrapper_overhead_us",
        (stats::median(&wrapped) - stats::median(&raw)) * 1e6,
    );

    for (name, imp) in [("flood", AgreeImpl::Flood), ("lattice", AgreeImpl::Lattice)] {
        let s = universe(3, move |proc| {
            let comm = proc.init_comm();
            comm.set_agree_impl(imp);
            (0..250)
                .map(|_| {
                    let t = Instant::now();
                    comm.agree(u64::MAX, 1).expect("agree");
                    t.elapsed().as_secs_f64()
                })
                .skip(50)
                .collect::<Vec<f64>>()
        });
        l.samples(&format!("ulfm.agree.{name}_us"), &scaled(&s, 1e6));
    }

    // Revoke, then shrink 3 → 2 around a rank that has already left; a
    // fresh universe per sample, since a communicator is revoked for good.
    let (mut revoke, mut shrink) = (Vec::new(), Vec::new());
    for _ in 0..30 {
        let (r, s) = universe(3, |proc| {
            let comm = proc.init_comm();
            if comm.rank() == 1 {
                return (0.0, 0.0);
            }
            while comm.alive_members().len() == 3 {
                std::thread::yield_now();
            }
            // The survivors line up on each other before the clock starts
            // (the slower one may find the communicator revoked already).
            let peer = 2 - comm.rank();
            let _ = comm.send(peer, 1, &[]);
            let _ = comm.recv(peer, 1);
            let t = Instant::now();
            comm.revoke();
            let revoked = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let shrunk = comm.shrink().expect("shrink");
            assert_eq!(shrunk.size(), 2);
            (revoked, t.elapsed().as_secs_f64())
        });
        revoke.push(r * 1e6);
        shrink.push(s * 1e6);
    }
    l.samples("ulfm.revoke_us", &revoke);
    l.samples("ulfm.shrink_us", &shrink);

    let s = universe(4, |proc| {
        let comm = proc.init_comm();
        time_batched(5 * MS, 20, || {
            black_box(Hierarchy::build(&comm).expect("hierarchy"));
        })
    });
    l.samples("ulfm.hierarchy.build_us", &scaled(&s, 1e6));

    // Phases of the benchmark's own recovery loop, and the lattice variant.
    let m = workloads::recover(BackendKind::InProc, AgreeImpl::Flood, seed, 0.6, false);
    for (i, phase) in ["detect", "revoke", "shrink", "redo"].iter().enumerate() {
        l.samples(&format!("ulfm.recover.{phase}_us"), &m.phases_us[i]);
    }
    let s = Summary::of(&m.samples_us);
    l.value(
        "ulfm.recover.p_high_us",
        s.high.map_or(s.median, |(_, v)| v),
    );
    let m = workloads::recover(BackendKind::InProc, AgreeImpl::Lattice, seed, 0.4, false);
    l.samples("ulfm.recover.lattice_p50_us", &m.samples_us);
}

// ---- gloo -------------------------------------------------------------------------

fn gloo_layer(l: &mut Layers) {
    use gloo::{rendezvous, Context, KvStore, RendezvousConfig};
    // p = 3: KV rendezvous alone, then rendezvous + full-mesh connect — what
    // the baseline pays to rebuild its context after any failure.
    let (mut rdv, mut rebuild) = (Vec::new(), Vec::new());
    for epoch in 0..8u64 {
        let store = KvStore::shared();
        let per_rank = raw_group(BackendKind::InProc, 3, 1, |c| {
            let cfg = RendezvousConfig {
                run_id: "perfbench".into(),
                epoch,
                expected: 3,
                timeout: Duration::from_secs(10),
            };
            let t = Instant::now();
            let rep = rendezvous(&*store, &cfg, c.ep.rank(), Topology::flat()).expect("rendezvous");
            let rdv = t.elapsed().as_secs_f64();
            let ctx = Context::connect(c.ep.clone(), epoch + 1, rep.members, rep.my_rank)
                .expect("connect");
            black_box(ctx.size());
            (rdv, t.elapsed().as_secs_f64())
        });
        // The context is usable once the slowest rank has it.
        rdv.push(per_rank.iter().map(|r| r.0).fold(0.0, f64::max) * 1e3);
        rebuild.push(per_rank.iter().map(|r| r.1).fold(0.0, f64::max) * 1e3);
    }
    l.samples("gloo.rendezvous_ms", &rdv);
    l.samples("gloo.context.rebuild_ms", &rebuild);

    let s = rank0(raw_group(BackendKind::InProc, 2, 1, |c| {
        let group = vec![RankId(0), RankId(1)];
        let ctx = Context::connect(c.ep.clone(), 1, group, c.rank()).expect("connect");
        let mut buf = vec![1.0f32; 4 << 20];
        (0..3)
            .map(|_| {
                let t = Instant::now();
                ctx.allreduce(&mut buf, ReduceOp::Sum, AllreduceAlgo::auto())
                    .expect("allreduce");
                t.elapsed().as_secs_f64() * 1e3
            })
            .skip(1)
            .collect::<Vec<f64>>()
    }));
    l.samples("gloo.allreduce.large_ms", &s);
}

// ---- dnn ---------------------------------------------------------------------------

fn dnn_layer(l: &mut Layers, spec: &TrainSpec) {
    let mut model = spec.build_model();
    let mut opt = spec.build_optimizer();
    let batch = spec.build_dataset().shard(0, spec.global_batch, 0, 2);
    let b = 60 * MS;
    let fwd = time_calls(b, 5, || {
        black_box(model.forward(&batch.inputs));
    });
    l.samples("dnn.forward_ms", &scaled(&fwd, 1e3));
    let both = time_calls(b, 5, || {
        model.zero_grads();
        black_box(model.compute_gradients(&batch));
    });
    // `compute_gradients` runs forward then backward; backward alone is the
    // difference of the medians.
    l.value(
        "dnn.backward_ms",
        (stats::median(&both) - stats::median(&fwd)) * 1e3,
    );
    let s = time_calls(b / 2, 5, || opt.step(&mut model.params_mut()));
    l.samples("dnn.sgd_step_ms", &scaled(&s, 1e3));
    let s = time_calls(b / 2, 5, || {
        black_box(dnn::Checkpoint::capture(&model, &opt));
    });
    l.samples("dnn.checkpoint.capture_ms", &scaled(&s, 1e3));
    let ckpt = dnn::Checkpoint::capture(&model, &opt);
    let s = time_calls(b / 2, 5, || ckpt.restore(&mut model, &mut opt));
    l.samples("dnn.checkpoint.restore_ms", &scaled(&s, 1e3));
}

// ---- elastic -----------------------------------------------------------------------

/// Seconds per step of `run_forward_worker` on `p` in-process ranks, plus
/// the fabric counters of the run.
fn engine_step_secs(spec: &TrainSpec, p: usize) -> (f64, transport::FabricStats) {
    let cfg = ForwardConfig::new(spec.clone());
    let worker: Worker<f64> = Arc::new(move |proc: &Proc| {
        let t = Instant::now();
        assert!(run_forward_worker(proc, &cfg, false).exit.completed());
        t.elapsed().as_secs_f64()
    });
    let w = run_world(BackendKind::InProc, p, FaultPlan::none(), false, worker);
    let slowest = w.results.iter().copied().fold(0.0, f64::max);
    (slowest / spec.total_steps as f64, w.stats)
}

/// The benchmark-owned shadow step: the same `dnn`, fusion and
/// `Communicator::fused_allreduce` calls the engine makes, one after the
/// other with nothing overlapped. Returns (compute, comm) seconds per step.
fn shadow_step_secs(spec: &TrainSpec) -> (f64, f64) {
    let spec = spec.clone();
    universe(2, move |proc| {
        let comm = proc.init_comm();
        let mut model = spec.build_model();
        let mut opt = spec.build_optimizer();
        let ds = spec.build_dataset();
        let cap = spec.fusion.expect("the training workload fuses");
        let (mut compute, mut comm_secs) = (0.0, 0.0);
        for step in 0..spec.total_steps {
            let t = Instant::now();
            let shard = ds.shard(step, spec.global_batch, comm.rank(), comm.size());
            let weight = shard.labels.len() as f32 / spec.global_batch as f32;
            model.zero_grads();
            model.compute_gradients(&shard);
            let mut grads: Vec<Vec<f32>> = model
                .grads()
                .iter()
                .map(|g| g.data().iter().map(|v| v * weight).collect())
                .collect();
            compute += t.elapsed().as_secs_f64();
            let t = Instant::now();
            comm.fused_allreduce(&mut grads, ReduceOp::Sum, spec.algo, cap)
                .expect("allreduce");
            comm.barrier().expect("barrier");
            comm_secs += t.elapsed().as_secs_f64();
            let t = Instant::now();
            model.set_grads(&grads);
            opt.step(&mut model.params_mut());
            compute += t.elapsed().as_secs_f64();
        }
        let n = spec.total_steps as f64;
        (compute / n, comm_secs / n)
    })
}

fn elastic_layer(l: &mut Layers, seed: u64) {
    let spec = train_spec(seed, 20);
    let (single, _) = engine_step_secs(&spec, 1);
    let (pair, stats) = engine_step_secs(&spec, 2);
    l.value("elastic.single_worker_steps_per_s", 1.0 / single);
    // Fixed global batch: perfect scaling halves the step time.
    l.value("elastic.scaling_eff", single / (2.0 * pair));
    let (compute, comm) = shadow_step_secs(&spec);
    l.value("elastic.step.compute_share", compute / pair);
    l.value("elastic.step.comm_share", comm / pair);
    // Negative when the engine's overlap of backward and allreduce saves
    // more than its bookkeeping costs.
    l.value("elastic.step.overhead_share", 1.0 - (compute + comm) / pair);
    let steps = spec.total_steps as f64;
    l.value("elastic.train.bytes_per_step", stats.bytes as f64 / steps);
    l.value("elastic.train.msgs_per_step", stats.messages as f64 / steps);

    // The paper's comparison, measured: forward (ULFM) vs backward (Gloo +
    // checkpoint) recovery of one failure among three workers. The backward
    // engine's exception-catch timeout alone is 600 ms, so one episode.
    let scenario = |engine, kind, total_steps| {
        let mut cfg = ScenarioConfig::quick(engine, kind);
        cfg.spec = TrainSpec {
            total_steps,
            ..train_spec(seed, total_steps)
        };
        (
            cfg.workers,
            cfg.ranks_per_node,
            cfg.victim,
            cfg.fail_at_op,
            cfg.joiners,
        ) = (3, 1, 1, 9, 0);
        run_scenario(&cfg)
    };
    let r = scenario(Engine::GlooBackward, ScenarioKind::Upscale, 8);
    l.value("elastic.backward.steps_per_s", 8.0 / r.wall.as_secs_f64());
    let forward: Vec<f64> = (0..3)
        .flat_map(|_| scenario(Engine::UlfmForward, ScenarioKind::Downscale, 4).breakdowns)
        .filter(|b| b.kind == RecoveryKind::Forward)
        .map(|b| b.total().as_secs_f64() * 1e6)
        .collect();
    l.samples("elastic.forward.recovery_us", &forward);
    let backward: Vec<f64> = scenario(Engine::GlooBackward, ScenarioKind::Downscale, 4)
        .breakdowns
        .iter()
        .filter(|b| b.kind == RecoveryKind::Backward)
        .map(|b| b.total().as_secs_f64() * 1e3)
        .collect();
    l.samples("elastic.backward.recovery_ms", &backward);
}

// ---- telemetry -----------------------------------------------------------------------

fn telemetry_layer(l: &mut Layers) {
    let b = 20 * MS;
    // The hot-path idiom the collectives use today: format a name, look it
    // up in the registry, bump it.
    let s = time_batched(b, 200, || {
        telemetry::counter(&format!("{}.ops", black_box("perfbench.lookup"))).incr();
    });
    l.samples("telemetry.counter_lookup_ns", &scaled(&s, 1e9));
    let s = time_batched(b, 200, || drop(telemetry::span("perfbench.span_ns")));
    l.samples("telemetry.span_ns", &scaled(&s, 1e9));
    let s = time_calls(b, 5, || {
        black_box(telemetry::snapshot());
    });
    l.samples("telemetry.snapshot_ms", &scaled(&s, 1e3));
}

/// Run the whole pass.
pub fn run(seed: u64) -> Layers {
    let mut l = Layers::default();
    transport_codecs(&mut l);
    transport_links(&mut l);
    collectives_layer(&mut l);
    ulfm_layer(&mut l, seed);
    gloo_layer(&mut l);
    dnn_layer(&mut l, &train_spec(seed, 1));
    elastic_layer(&mut l, seed);
    telemetry_layer(&mut l);
    l
}

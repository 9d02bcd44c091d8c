//! The seven closed-loop workloads.
//!
//! Load shape, common to all: SPMD ranks are threads of this process and
//! each issues its next call when the previous one returns. Every workload
//! runs *rounds*, each in a fresh world ([`crate::world`]) with its rank
//! threads pinned; a workload's op time is the median over rounds of the
//! round's timed seconds ÷ timed ops. `seed` drives the payloads, `TrainSpec::seed` and the
//! kill schedule — the program under test sees only the generated inputs.

use crate::stats::{self, Summary};
use crate::trace::{self, Span};
use crate::world::{add_stats, run_world, Worker};
use collectives::{AllreduceAlgo, ReduceOp};
use elastic::{run_forward_worker, ForwardConfig, TrainSpec, WorkerExit};
use std::sync::Arc;
use std::time::{Duration, Instant};
use transport::{BackendKind, FabricStats, FaultPlan, RankId};
use ulfm::{AgreeImpl, Communicator, Proc, UlfmError};

/// A workload's name and the one-line reason it exists.
pub struct WorkloadInfo {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Why it was chosen.
    pub why: &'static str,
}

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [WorkloadInfo; 7] = [
    WorkloadInfo {
        name: "ar-bw",
        why: "16 MiB allreduce, 2 in-process ranks: per-byte work (checksums, frame and element copies) dominates",
    },
    WorkloadInfo {
        name: "ar-lat",
        why: "1 KiB allreduce, 2 in-process ranks: per-message work (mailbox wake, tags, telemetry lookups) dominates",
    },
    WorkloadInfo {
        name: "ar-unix",
        why: "256 KiB allreduce over a Unix-socket mesh: same Backend contract through stream framing, service threads and ack timers",
    },
    WorkloadInfo {
        name: "train",
        why: "forward engine training a 402k-parameter MLP on 2 in-process ranks: compute, fusion and mixed-size allreduces together",
    },
    WorkloadInfo {
        name: "train-unix",
        why: "the same training over a Unix-socket mesh, as multi-process users run it: an in-process gain that costs sockets shows here",
    },
    WorkloadInfo {
        name: "recover",
        why: "kill 1 of 3 in-process ranks mid-allreduce, then revoke, shrink and redo: many tiny messages, bypasses the bandwidth path",
    },
    WorkloadInfo {
        name: "recover-unix",
        why: "the same recovery over a Unix-socket mesh: detection by EOF and revocation by control frames, the socket recovery path",
    },
];

/// One workload's measurements.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    /// Ops attempted (allreduces, training steps, recovery episodes).
    pub attempted: u64,
    /// Ops that failed or produced a wrong output.
    pub failed: u64,
    /// Headline: time of one op in µs. Median over rounds of the round mean
    /// for the allreduce and training workloads, median over episodes for
    /// recovery.
    pub op_time_us: f64,
    /// Median over rounds of (world construction began → first timed op).
    pub setup_s: f64,
    /// The headline in the unit a user of this workload thinks in.
    pub derived: Option<(&'static str, f64, &'static str)>,
    /// Per-op time samples in µs, where ops are timed one by one.
    pub samples_us: Vec<f64>,
    /// Per round `(timed ops, timed seconds)` (allreduce and training).
    pub rounds: Vec<(u64, f64)>,
    /// Model fingerprint of the training workloads.
    pub fingerprint: Option<u64>,
    /// Transport counters summed over all rounds.
    pub stats: FabricStats,
    /// Recovery phase samples in µs: detect, revoke, shrink, redo.
    pub phases_us: [Vec<f64>; 4],
    /// Spans of a traced run.
    pub spans: Vec<Span>,
}

/// Run workload `name` for about `seconds`: rounds (set-up included) start
/// until that much wall time has passed.
pub fn run(name: &str, seed: u64, seconds: f64, traced: bool) -> Option<Measured> {
    use BackendKind::{InProc, Unix};
    Some(match name {
        "ar-bw" => allreduce(InProc, 4 << 20, 6, 1, seed, seconds, traced),
        "ar-lat" => allreduce(InProc, 256, 5000, 500, seed, seconds, traced),
        // 256 KiB is the largest power of two the default RetryPolicy
        // carries cleanly over sockets today; see README "findings".
        "ar-unix" => allreduce(Unix, 64 << 10, 100, 10, seed, seconds, traced),
        "train" => train(InProc, seed, seconds, traced),
        "train-unix" => train(Unix, seed, seconds, traced),
        "recover" => recover(InProc, AgreeImpl::Flood, seed, seconds, traced),
        // Unix, not TCP: a TCP episode leaves six loopback sockets in
        // TIME_WAIT, and back-to-back runs (≈ 110 episodes/s) fill the
        // 28 000-port ephemeral range within a minute — mesh set-up then
        // climbed from 1.8 ms to 9 ms and the recovery median crept up 20 %.
        // Pacing the episodes instead let the vCPUs idle between them and
        // tripled the spread. The socket backend's detection and revocation
        // code is the same for both kinds.
        "recover-unix" => recover(Unix, AgreeImpl::Flood, seed, seconds, traced),
        _ => return None,
    })
}

fn secs_since(t0: Instant, t: Instant) -> f64 {
    t.duration_since(t0).as_secs_f64()
}

// ---- payloads -------------------------------------------------------------

/// Rank `rank`'s allreduce input: integer-valued f32 in [-510, 510], so sums
/// over a few ranks are exact and the output check can demand equality.
pub fn payload(seed: u64, rank: usize, len: usize) -> Vec<f32> {
    let base = seed
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(rank as u64 * 389);
    (0..len as u64)
        .map(|i| (i.wrapping_mul(2_654_435_761).wrapping_add(base) % 1021) as f32 - 510.0)
        .collect()
}

/// Element-wise sum of the payloads of `ranks`.
pub fn expected_sum(seed: u64, ranks: &[usize], len: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; len];
    for &r in ranks {
        for (o, v) in out.iter_mut().zip(payload(seed, r, len)) {
            *o += v;
        }
    }
    out
}

// ---- allreduce workloads ----------------------------------------------------

struct ArRank {
    t_first: Instant,
    timed: Duration,
    attempted: u64,
    failed: u64,
    samples_us: Vec<f64>,
}

/// p = 2 ranks loop `Communicator::allreduce(.., Sum, AllreduceAlgo::auto())`
/// on `elems` f32; every result is compared with the exact expected sum.
pub fn allreduce(
    kind: BackendKind,
    elems: usize,
    ops_per_round: u64,
    warmup: u64,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Measured {
    const P: usize = 2;
    // Inputs are the benchmark's work, not the program's set-up: made once.
    let inputs = [payload(seed, 0, elems), payload(seed, 1, elems)];
    let expected = expected_sum(seed, &[0, 1], elems);
    let worker: Worker<ArRank> = Arc::new(move |proc: &Proc| {
        let comm = proc.init_comm();
        let input = &inputs[comm.rank()];
        let mut buf = input.clone();
        let mut out = ArRank {
            t_first: Instant::now(),
            timed: Duration::ZERO,
            attempted: 0,
            failed: 0,
            samples_us: Vec::with_capacity(ops_per_round as usize),
        };
        let op = |buf: &mut [f32]| {
            let _s = trace::span("ulfm.allreduce");
            comm.allreduce(buf, ReduceOp::Sum, AllreduceAlgo::auto())
        };
        for _ in 0..warmup {
            buf.copy_from_slice(input);
            if op(&mut buf).is_err() {
                break;
            }
        }
        let _ = comm.barrier();
        out.t_first = Instant::now();
        let _root = trace::root("workload");
        for k in 0..ops_per_round {
            buf.copy_from_slice(input);
            trace::set_op(k + 1);
            let t = Instant::now();
            let res = op(&mut buf);
            let dt = t.elapsed();
            out.timed += dt;
            out.samples_us.push(dt.as_secs_f64() * 1e6);
            out.attempted += 1;
            if res.is_err() || buf != expected {
                out.failed += 1;
            }
            if res.is_err() {
                // With two ranks a failed collective leaves no group to
                // carry on with; the rest of the round is not attempted.
                break;
            }
        }
        out
    });

    let mut m = Measured::default();
    let mut setups = Vec::new();
    let t_run = Instant::now();
    loop {
        let w = run_world(kind, P, FaultPlan::none(), traced, Arc::clone(&worker));
        let secs = w
            .results
            .iter()
            .map(|r| r.timed.as_secs_f64())
            .fold(0.0, f64::max);
        let attempted = w.results.iter().map(|r| r.attempted).max().unwrap_or(0);
        let failed = w.results.iter().map(|r| r.failed).max().unwrap_or(0);
        // A round cut short by an error still owes its planned ops.
        m.attempted += ops_per_round;
        m.failed += failed + (ops_per_round - attempted);
        m.rounds.push((attempted.max(1), secs));
        setups.push(secs_since(w.t0, w.results[0].t_first));
        add_stats(&mut m.stats, w.stats);
        m.spans.extend(w.spans);
        let mut results = w.results;
        m.samples_us.append(&mut results[0].samples_us);
        if t_run.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let secs_per_op = stats::secs_per_op(&m.rounds);
    m.op_time_us = secs_per_op * 1e6;
    m.setup_s = stats::median(&setups);
    let bytes = (elems * 4) as f64;
    m.derived = Some(if bytes >= 65536.0 {
        // Bus bandwidth: 2(p-1)/p · payload bytes ÷ op time.
        let busbw = 2.0 * (P as f64 - 1.0) / P as f64 * bytes / secs_per_op / 1e9;
        ("busbw_gbps", busbw, "GB/s")
    } else {
        ("allreduce_per_s", 1.0 / secs_per_op, "1/s")
    });
    m
}

// ---- training workloads ---------------------------------------------------------

/// Set-up-only worlds a training run builds on top of its rounds.
const SETUP_TRIALS: usize = 40;

/// Steps per round. Both training workloads run the same count so their
/// fingerprints must agree for a given seed.
pub const TRAIN_STEPS: usize = 30;

/// The training workload: MLP 256→512→512→16 (402 448 parameters, 1.6 MB of
/// gradients per step), fused into 256 KiB buckets, size-adaptive allreduce.
pub fn train_spec(seed: u64, total_steps: usize) -> TrainSpec {
    TrainSpec {
        features: 256,
        hidden: vec![512, 512],
        classes: 16,
        seed,
        global_batch: 64,
        steps_per_epoch: 15,
        total_steps,
        algo: AllreduceAlgo::auto(),
        fusion: Some(256 << 10),
        ..TrainSpec::default()
    }
}

/// What `world` data-parallel replicas must hold after `spec.total_steps`
/// steps, computed on one thread from `dnn` calls alone: per step, each
/// shard's weighted gradients summed element-wise, then one SGD update.
/// Exact for two ranks, where the order of an IEEE sum cannot matter.
pub fn reference_fingerprint(spec: &TrainSpec, world: usize) -> u64 {
    let mut model = spec.build_model();
    let mut opt = spec.build_optimizer();
    let ds = spec.build_dataset();
    for step in 0..spec.total_steps {
        let mut sum: Vec<Vec<f32>> = Vec::new();
        for rank in 0..world {
            let shard = ds.shard(step, spec.global_batch, rank, world);
            let weight = shard.labels.len() as f32 / spec.global_batch as f32;
            model.zero_grads();
            model.compute_gradients(&shard);
            let grads = model.grads();
            if sum.is_empty() {
                sum = grads.iter().map(|g| vec![0.0; g.len()]).collect();
            }
            for (acc, g) in sum.iter_mut().zip(grads) {
                for (a, v) in acc.iter_mut().zip(g.data()) {
                    *a += v * weight;
                }
            }
        }
        model.set_grads(&sum);
        opt.step(&mut model.params_mut());
    }
    elastic::config::state_fingerprint(&model.state_flat())
}

/// p = 2 ranks each run `elastic::run_forward_worker` to completion. Checked:
/// every rank `Completed`, replicas bit-identical, and equal to the
/// single-thread reference.
fn train(kind: BackendKind, seed: u64, seconds: f64, traced: bool) -> Measured {
    const P: usize = 2;
    let spec = train_spec(seed, TRAIN_STEPS);
    let want = reference_fingerprint(&spec, P);
    let cfg = ForwardConfig::new(spec);
    let worker: Worker<(Instant, Duration, WorkerExit)> = Arc::new(move |proc: &Proc| {
        let t = Instant::now();
        let _root = trace::root("workload");
        let out = {
            let _s = trace::span("elastic.run_forward_worker");
            run_forward_worker(proc, &cfg, false)
        };
        (t, t.elapsed(), out.exit)
    });

    let mut m = Measured {
        fingerprint: Some(want),
        ..Measured::default()
    };
    // The engine builds its model inside the timed call, so a training
    // world's set-up is world construction and thread spawn alone — well
    // under a millisecond in process, and a run has too few rounds for a
    // steady median of that. Worlds whose ranks only report in add samples.
    let report_in: Worker<Instant> = Arc::new(|_: &Proc| Instant::now());
    let mut setups: Vec<f64> = (0..SETUP_TRIALS)
        .map(|_| {
            let w = run_world(kind, P, FaultPlan::none(), false, Arc::clone(&report_in));
            secs_since(w.t0, w.results.into_iter().max().expect("two ranks"))
        })
        .collect();
    let t_run = Instant::now();
    loop {
        let w = run_world(kind, P, FaultPlan::none(), traced, Arc::clone(&worker));
        // Steps per second is total steps over the slowest rank's wall.
        let secs = w
            .results
            .iter()
            .map(|r| r.1.as_secs_f64())
            .fold(0.0, f64::max);
        let ok = w.results.iter().all(|(_, _, exit)| match exit {
            WorkerExit::Completed(s) => {
                s.state_fingerprint == want && s.steps_done == TRAIN_STEPS as u64
            }
            _ => false,
        });
        m.attempted += TRAIN_STEPS as u64;
        if !ok {
            m.failed += TRAIN_STEPS as u64;
            let exits: Vec<_> = w.results.iter().map(|r| &r.2).collect();
            eprintln!(
                "train round failed its checks (want {want:#x}): {exits:?}; {:?}",
                w.stats
            );
        }
        m.rounds.push((TRAIN_STEPS as u64, secs));
        let entered = w.results.iter().map(|r| r.0).max().expect("two ranks");
        setups.push(secs_since(w.t0, entered));
        add_stats(&mut m.stats, w.stats);
        m.spans.extend(w.spans);
        if t_run.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let secs_per_step = stats::secs_per_op(&m.rounds);
    m.op_time_us = secs_per_step * 1e6;
    m.setup_s = stats::median(&setups);
    m.derived = Some(("steps_per_s", 1.0 / secs_per_step, "1/s"));
    m
}

// ---- recovery workloads ---------------------------------------------------------

const RECOVER_ELEMS: usize = 4096; // 16 KiB
const VICTIM: usize = 1;
/// Ops a survivor runs after the redone one before the episode ends.
const OPS_AFTER_REDO: u64 = 2;

/// The three ranks' inputs and the sums to check against, made once.
struct RecoverData {
    inputs: [Vec<f32>; 3],
    full: Vec<f32>,
    survivors: Vec<f32>,
}

enum RecoverRank {
    /// The victim: when its call returned `SelfDied`.
    Died(Instant),
    /// A survivor that resumed on the shrunk group.
    Resumed {
        t_first: Instant,
        /// Error seen, revoked, shrunk, redone allreduce returned.
        marks: [Instant; 4],
        new_size: usize,
        wrong: bool,
    },
    /// Anything else: the episode failed.
    Failed,
}

/// The benchmark's own minimal forward-recovery loop over the `ulfm` API:
/// loop a 16 KiB allreduce; on a recoverable error `revoke()` → `shrink()` →
/// agree on the restart op → redo. Inputs are the same every op, so the
/// retained input of any op is the input itself.
fn recover_rank(comm: Communicator, data: &RecoverData) -> RecoverRank {
    let algo = AllreduceAlgo::auto();
    let RecoverData {
        inputs,
        full,
        survivors,
    } = data;
    let input = &inputs[comm.rank()];
    let mut buf = input.clone();
    if comm.allreduce(&mut buf, ReduceOp::Sum, algo).is_err() || comm.barrier().is_err() {
        return RecoverRank::Failed;
    }
    let t_first = Instant::now();
    let _root = trace::root("workload");
    let mut comm = comm;
    let mut op: u64 = 0;
    let mut resumed: Option<(u64, [Instant; 4])> = None;
    let mut wrong = false;
    loop {
        buf.copy_from_slice(input);
        let res = {
            let _s = trace::span("ulfm.allreduce");
            comm.allreduce(&mut buf, ReduceOp::Sum, algo)
        };
        match res {
            Ok(()) => {
                let want = if resumed.is_some() { survivors } else { full };
                wrong |= &buf != want;
                op += 1;
            }
            Err(UlfmError::SelfDied) => return RecoverRank::Died(Instant::now()),
            Err(e) if e.is_recoverable() && resumed.is_none() => {
                let t_err = Instant::now();
                {
                    let _s = trace::span("ulfm.revoke");
                    comm.revoke();
                }
                let t_revoked = Instant::now();
                let shrunk = {
                    let _s = trace::span("ulfm.shrink");
                    comm.shrink()
                };
                let Ok(shrunk) = shrunk else {
                    return RecoverRank::Failed;
                };
                let t_shrunk = Instant::now();
                comm = shrunk;
                // A survivor may have finished the struck op before the
                // failure surfaced; all restart from the earliest one.
                let mut restart = [op];
                buf.copy_from_slice(input);
                let redo = {
                    let _s = trace::span("ulfm.redo");
                    comm.allreduce(&mut restart, ReduceOp::Min, algo)
                        .and_then(|()| comm.allreduce(&mut buf, ReduceOp::Sum, algo))
                };
                if redo.is_err() {
                    return RecoverRank::Failed;
                }
                wrong |= &buf != survivors;
                op = restart[0] + 1;
                resumed = Some((restart[0], [t_err, t_revoked, t_shrunk, Instant::now()]));
            }
            Err(_) => return RecoverRank::Failed,
        }
        if let Some((restart, marks)) = resumed {
            if op > restart + OPS_AFTER_REDO {
                return RecoverRank::Resumed {
                    t_first,
                    marks,
                    new_size: comm.size(),
                    wrong,
                };
            }
        }
    }
}

/// Episodes of: p = 3 ranks, rank 1 is killed at its n-th `allreduce.step`
/// fault point (seeded n ∈ [20, 33)), the two survivors recover. The timed
/// quantity is (last survivor's redone allreduce returns) − (victim's call
/// returns `SelfDied`). Checked: exactly two ranks resume, on a group of
/// two, with the exact survivor sum.
pub fn recover(
    kind: BackendKind,
    agree: AgreeImpl,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Measured {
    const P: usize = 3;
    let data = RecoverData {
        inputs: [0, 1, 2].map(|r| payload(seed, r, RECOVER_ELEMS)),
        full: expected_sum(seed, &[0, 1, 2], RECOVER_ELEMS),
        survivors: expected_sum(seed, &[0, 2], RECOVER_ELEMS),
    };
    let worker: Worker<RecoverRank> = Arc::new(move |proc: &Proc| {
        let comm = proc.init_comm();
        comm.set_agree_impl(agree);
        recover_rank(comm, &data)
    });
    let mut m = Measured::default();
    let mut setups = Vec::new();
    let t_run = Instant::now();
    let mut episode: u64 = 0;
    while episode == 0 || t_run.elapsed().as_secs_f64() < seconds {
        let n = 20 + splitmix(seed ^ episode.wrapping_mul(0xA24B_AED4_963E_E407)) % 13;
        let plan = FaultPlan::none().kill_at_point(RankId(VICTIM), "allreduce.step", n);
        let w = run_world(kind, P, plan, traced, Arc::clone(&worker));
        episode += 1;
        m.attempted += 1;
        add_stats(&mut m.stats, w.stats);
        m.spans.extend(w.spans);
        let died = w.results.iter().find_map(|r| match r {
            RecoverRank::Died(t) => Some(*t),
            _ => None,
        });
        let resumed: Vec<_> = w
            .results
            .iter()
            .filter_map(|r| match r {
                RecoverRank::Resumed {
                    t_first,
                    marks,
                    new_size: 2,
                    wrong: false,
                } => Some((*t_first, *marks)),
                _ => None,
            })
            .collect();
        let (Some(t_died), 2) = (died, resumed.len()) else {
            m.failed += 1;
            continue;
        };
        let last = resumed
            .iter()
            .map(|(_, marks)| marks[3])
            .max()
            .expect("two survivors");
        m.samples_us.push(secs_since(t_died, last) * 1e6);
        setups.push(secs_since(w.t0, resumed[0].0));
        for (_, [t_err, t_revoked, t_shrunk, t_redone]) in &resumed {
            // A survivor can see the error a hair before the victim's own
            // call has returned; that is a detect time of zero.
            m.phases_us[0].push(t_err.saturating_duration_since(t_died).as_secs_f64() * 1e6);
            m.phases_us[1].push(secs_since(*t_err, *t_revoked) * 1e6);
            m.phases_us[2].push(secs_since(*t_revoked, *t_shrunk) * 1e6);
            m.phases_us[3].push(secs_since(*t_shrunk, *t_redone) * 1e6);
        }
    }
    if m.samples_us.is_empty() {
        // Every episode failed; the run is reported incorrect, but the
        // metrics still need a number.
        m.samples_us.push(f64::MAX);
        setups.push(f64::MAX);
    }
    let s = Summary::of(&m.samples_us);
    m.op_time_us = s.median;
    m.setup_s = stats::median(&setups);
    m.derived = Some(("recovery_p50_us", s.median, "us"));
    m
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_sums_are_exact_integers() {
        for seed in [1, 2, 99] {
            let want = expected_sum(seed, &[0, 1, 2], 4096);
            assert!(want.iter().all(|v| v.fract() == 0.0 && v.abs() <= 1530.0));
            assert_ne!(payload(seed, 0, 64), payload(seed, 1, 64));
            assert_ne!(payload(seed, 0, 64), payload(seed + 1, 0, 64));
            assert_eq!(payload(seed, 2, 64), payload(seed, 2, 64));
        }
    }

    #[test]
    fn every_workload_name_is_runnable_and_well_formed() {
        for w in &WORKLOADS {
            assert!(crate::metric_name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(run("no-such-workload", 1, 0.0, false).is_none());
    }
}

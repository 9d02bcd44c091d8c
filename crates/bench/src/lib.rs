//! Shared helpers for the `repro` binary and the Criterion benches:
//! plain-text table rendering and the capability matrix derived from the
//! paper's Table 2.

#![warn(missing_docs)]

pub mod multiproc;
pub mod policy_regret;

use elastic::scenario::{Engine, ScenarioKind};
use elastic::{run_scenario, RecoveryPolicy, ScenarioConfig, TrainSpec, WorkerExit};
use transport::{LinkPerturb, PerturbPlan};

/// Parse a `--perturb` rate-spec into a [`PerturbPlan`] applied to every
/// link. The spec is comma-separated `key=value` pairs:
///
/// ```text
/// drop=0.01,corrupt=0.001,dup=0.005,reorder=0.01,delay=0.05,seed=42
/// ```
///
/// All rate keys are optional probabilities in `[0, 1]`; `seed` (default 0)
/// fixes the deterministic schedule. `delay` holds frames for 50–500 µs.
pub fn parse_perturb_spec(spec: &str) -> Result<PerturbPlan, String> {
    let mut link = LinkPerturb::clean();
    let mut seed = 0u64;
    for pair in spec.split(',').filter(|s| !s.is_empty()) {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| format!("perturb spec `{pair}` is not key=value"))?;
        let rate = || -> Result<f64, String> {
            let v: f64 = value
                .parse()
                .map_err(|_| format!("perturb rate `{value}` is not a number"))?;
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("perturb rate `{key}={v}` outside [0, 1]"));
            }
            Ok(v)
        };
        match key {
            "drop" => link = link.drop(rate()?),
            "dup" | "duplicate" => link = link.duplicate(rate()?),
            "corrupt" => link = link.corrupt(rate()?),
            "reorder" => link = link.reorder(rate()?),
            "delay" => {
                link = link.delay(
                    rate()?,
                    std::time::Duration::from_micros(50),
                    std::time::Duration::from_micros(500),
                )
            }
            "seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("perturb seed `{value}` is not a u64"))?
            }
            _ => return Err(format!("unknown perturb key `{key}`")),
        }
    }
    Ok(PerturbPlan::seeded(seed).all_links(link))
}

/// Render an aligned text table: `header` then `rows`.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = String::new();
    out.push_str(&line(
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row));
        out.push('\n');
    }
    out
}

/// One cell of the paper's Table 2: is the combination supported by the
/// *real* system, and did our reproduction demonstrate it?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CapabilityCell {
    /// What the paper's Table 2 claims for the real system.
    pub paper_supported: bool,
    /// Whether executing the scenario on our reproduction succeeded
    /// (`None` if not executed because the real system does not support it).
    pub demonstrated: Option<bool>,
}

/// Row labels of Table 2, in paper order.
pub const TABLE2_ROWS: [&str; 4] = [
    "Recovery by process",
    "Recovery by node",
    "Autoscaling by process",
    "Autoscaling by node",
];

/// What the paper's Table 2 claims: Elastic Horovod = node-level only.
pub fn paper_capability(row: usize, ulfm: bool) -> bool {
    ulfm || row == 1 || row == 3
}

/// Execute one Table 2 cell on the threaded runtime and report whether the
/// scenario completed as expected.
pub fn demonstrate_cell(row: usize, ulfm: bool) -> bool {
    let engine = if ulfm {
        Engine::UlfmForward
    } else {
        Engine::GlooBackward
    };
    let (kind, policy) = match row {
        0 => (ScenarioKind::Downscale, RecoveryPolicy::DropProcess),
        1 => (ScenarioKind::Downscale, RecoveryPolicy::DropNode),
        2 => (ScenarioKind::Upscale, RecoveryPolicy::DropProcess),
        3 => (ScenarioKind::Upscale, RecoveryPolicy::DropNode),
        _ => unreachable!("Table 2 has four rows"),
    };
    let joiners = match row {
        2 => 1, // grow by one process
        3 => 3, // grow by one (3-rank) node
        _ => 0,
    };
    let cfg = ScenarioConfig {
        spec: TrainSpec {
            total_steps: 8,
            steps_per_epoch: 4,
            ..TrainSpec::default()
        },
        policy,
        victim: 4,
        joiners,
        ..ScenarioConfig::quick(engine, kind)
    };
    let res = run_scenario(&cfg);
    let expected_completed = match (kind, policy) {
        (ScenarioKind::Downscale, RecoveryPolicy::DropProcess) => cfg.workers - 1,
        (ScenarioKind::Downscale, RecoveryPolicy::DropNode) => cfg.workers - cfg.ranks_per_node,
        (ScenarioKind::Upscale, _) => cfg.workers + joiners,
        _ => unreachable!(),
    };
    let ok = res.completed() == expected_completed
        && res
            .exits
            .iter()
            .filter(|e| e.completed())
            .all(|e| matches!(e, WorkerExit::Completed(_)));
    if ok {
        res.assert_consistent_state();
    }
    ok
}

/// One row of the fused-vs-unfused comparison emitted by `repro fusion`
/// into `BENCH_fusion.json`.
#[derive(Clone, Debug)]
pub struct FusionRow {
    /// Model profile name (paper Table 1).
    pub model: &'static str,
    /// Trainable tensors = allreduce launches per step, unfused.
    pub tensors: usize,
    /// Fused buckets = allreduce launches per step, fused.
    pub buckets: usize,
    /// Message-reduction ratio `tensors / buckets`.
    pub reduction: f64,
    /// Mean per-step wall time, per-tensor ring allreduce (seconds).
    pub unfused_ring_s: f64,
    /// Mean per-step wall time, fused buckets with `AllreduceAlgo::Auto`
    /// (seconds).
    pub fused_auto_s: f64,
}

impl FusionRow {
    /// Unfused-over-fused speedup factor.
    pub fn speedup(&self) -> f64 {
        self.unfused_ring_s / self.fused_auto_s
    }
}

/// The deterministic part of the fused-vs-unfused comparison: the tensor
/// mix of a (scaled-down) model profile and its bucket plan under the
/// fusion byte cap. Shared by the timed report, the Criterion bench, and
/// the count-based shape smoke test.
pub fn fusion_schedule(
    profile: &dnn::ModelProfile,
    cap_bytes: usize,
) -> (Vec<usize>, Vec<std::ops::Range<usize>>) {
    let sizes: Vec<usize> = profile.tensor_sizes().iter().map(|&s| s as usize).collect();
    let plan = collectives::plan_buckets(&sizes, std::mem::size_of::<f32>(), cap_bytes);
    (sizes, plan)
}

/// Run one timed configuration: `workers` ranks allreduce the given buffer
/// lengths once per step for `steps` steps. Returns mean per-step seconds.
fn timed_allreduce_steps(
    workers: usize,
    steps: usize,
    lens: &[usize],
    algo: collectives::AllreduceAlgo,
) -> f64 {
    use collectives::ReduceOp;
    use ulfm::{Proc, Topology, Universe};

    let u = Universe::without_faults(Topology::flat());
    let lens: Vec<usize> = lens.to_vec();
    let t0 = std::time::Instant::now();
    let handles = u.spawn_batch(workers, move |p: Proc| {
        let comm = p.init_comm();
        let mut sink = 0.0f32;
        for _ in 0..steps {
            for &n in &lens {
                let mut buf = vec![1.0f32; n];
                comm.allreduce(&mut buf, ReduceOp::Sum, algo).unwrap();
                sink += buf.first().copied().unwrap_or(0.0);
            }
        }
        sink
    });
    let handles = handles.expect("in-process universe");
    let _: f32 = handles.into_iter().map(|h| h.join()).sum();
    t0.elapsed().as_secs_f64() / steps as f64
}

/// Measure fused-vs-unfused per-step allreduce cost for the paper's three
/// model profiles (scaled down 1000× so the threaded runtime stays fast).
/// Unfused = one ring allreduce per tensor; fused = one `Auto`-algorithm
/// allreduce per bucket under [`collectives::DEFAULT_FUSION_BYTES`].
pub fn fusion_report(workers: usize, steps: usize) -> Vec<FusionRow> {
    // Warm up the threaded runtime (thread spawning, allocator, fabric
    // init) so the first measured profile isn't charged the cold start.
    let _ = timed_allreduce_steps(workers, 1, &[1024], collectives::AllreduceAlgo::Ring);
    dnn::paper_models()
        .iter()
        .map(|profile| {
            let scaled = profile.scaled_down(1000);
            let (sizes, plan) = fusion_schedule(&scaled, collectives::DEFAULT_FUSION_BYTES);
            let bucket_lens: Vec<usize> =
                plan.iter().map(|r| sizes[r.clone()].iter().sum()).collect();
            let unfused_ring_s =
                timed_allreduce_steps(workers, steps, &sizes, collectives::AllreduceAlgo::Ring);
            let fused_auto_s = timed_allreduce_steps(
                workers,
                steps,
                &bucket_lens,
                collectives::AllreduceAlgo::auto(),
            );
            FusionRow {
                model: profile.name,
                tensors: sizes.len(),
                buckets: bucket_lens.len(),
                reduction: sizes.len() as f64 / bucket_lens.len() as f64,
                unfused_ring_s,
                fused_auto_s,
            }
        })
        .collect()
}

/// Format seconds compactly for the figure tables.
pub fn fmt_s(v: f64) -> String {
    if v == 0.0 {
        "-".to_string()
    } else if v < 0.01 {
        format!("{:.4}", v)
    } else {
        format!("{:.2}", v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["a", "bbbb"],
            &[
                vec!["x".into(), "y".into()],
                vec!["longer".into(), "z".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a       bbbb"));
    }

    #[test]
    fn paper_capability_matches_table2() {
        // Elastic Horovod: only node-level rows.
        assert!(!paper_capability(0, false));
        assert!(paper_capability(1, false));
        assert!(!paper_capability(2, false));
        assert!(paper_capability(3, false));
        // ULFM: everything.
        for row in 0..4 {
            assert!(paper_capability(row, true));
        }
    }

    #[test]
    fn fmt_s_handles_ranges() {
        assert_eq!(fmt_s(0.0), "-");
        assert_eq!(fmt_s(0.001), "0.0010");
        assert_eq!(fmt_s(12.345), "12.35");
    }

    #[test]
    fn perturb_spec_parses_all_keys() {
        let plan =
            parse_perturb_spec("drop=0.01,corrupt=0.001,dup=0.005,reorder=0.01,delay=0.05,seed=42")
                .unwrap();
        assert_eq!(plan.seed(), 42);
        assert!(!plan.is_inert());
    }

    #[test]
    fn perturb_spec_rejects_garbage() {
        assert!(parse_perturb_spec("drop").is_err());
        assert!(parse_perturb_spec("drop=2.0").is_err());
        assert!(parse_perturb_spec("warp=0.1").is_err());
        assert!(parse_perturb_spec("seed=abc").is_err());
    }

    #[test]
    fn empty_perturb_spec_is_inert() {
        assert!(parse_perturb_spec("").unwrap().is_inert());
    }

    /// The expected shape of the fused-vs-unfused comparison, asserted
    /// count-based (deterministic — no timing): fusion collapses every
    /// profile's tensors into fewer buckets, and the message-reduction
    /// ratio is greatest for NasNetMobile, whose 1126 tiny tensors are
    /// exactly the workload Horovod's fusion threshold was built for.
    #[test]
    fn fusion_helps_small_tensor_models_most() {
        let mut reductions = Vec::new();
        for profile in dnn::paper_models() {
            let scaled = profile.scaled_down(1000);
            let (sizes, plan) = fusion_schedule(&scaled, collectives::DEFAULT_FUSION_BYTES);
            assert_eq!(sizes.len(), profile.trainable_tensors);
            assert!(
                plan.len() < sizes.len(),
                "{}: fusion must batch",
                profile.name
            );
            reductions.push((profile.name, sizes.len() as f64 / plan.len() as f64));
        }
        let nasnet = reductions
            .iter()
            .find(|(n, _)| n.contains("NasNet"))
            .expect("NasNetMobile in paper models");
        for (name, r) in &reductions {
            assert!(
                nasnet.1 >= *r,
                "NasNet reduction {} must dominate {name}'s {r}",
                nasnet.1
            );
        }
        assert!(nasnet.1 > 100.0, "NasNet fuses >100 tensors per message");
    }
}

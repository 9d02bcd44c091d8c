//! Empirical Eq. (1): the backward engine's recompute cost grows with the
//! checkpoint interval, while forward recovery recomputes nothing — the
//! trade-off the paper's §2.2 formalizes.

use elastic::{
    run_backward_worker, BackwardConfig, ElasticDriver, RecoveryPolicy, TrainSpec, WorkerExit,
};
use transport::{BackendKind, FaultPlan, Mesh, RankId, Topology};

/// Train `spec` with the backward engine on four in-process ranks under
/// `plan`, checkpointing every `checkpoint_every` steps; every rank's exit.
fn run_backward(spec: TrainSpec, plan: FaultPlan, checkpoint_every: u64) -> Vec<WorkerExit> {
    let topology = Topology::flat();
    let mesh = Mesh::new(BackendKind::InProc, topology, 4, plan).expect("in-process mesh");
    let driver = ElasticDriver::new(topology, (0..4).map(RankId).collect());
    let cfg = BackwardConfig {
        spec,
        policy: RecoveryPolicy::DropProcess,
        checkpoint_every,
        expected_new_workers: 0,
    };
    mesh.run(|ep| run_backward_worker(&ep, &cfg, &driver, false).0)
}

fn run_with_interval(checkpoint_every: u64) -> (u64, usize) {
    let spec = TrainSpec {
        total_steps: 10,
        steps_per_epoch: 5,
        ..TrainSpec::default()
    };
    // Victim dies mid-allreduce somewhere in step 3-4 (after a few
    // checkpoints have or haven't been taken, depending on the interval).
    let plan = FaultPlan::none().kill_at_point(RankId(2), "allreduce.step", 130);
    let mut max_recomputed = 0;
    let mut completed = 0;
    for exit in &run_backward(spec, plan, checkpoint_every) {
        if let WorkerExit::Completed(stats) = exit {
            completed += 1;
            max_recomputed = max_recomputed.max(stats.steps_recomputed);
        }
    }
    (max_recomputed, completed)
}

#[test]
fn recompute_grows_with_checkpoint_interval() {
    let (r1, c1) = run_with_interval(1);
    let (r4, c4) = run_with_interval(4);
    assert_eq!(c1, 3, "survivors complete at interval 1");
    assert_eq!(c4, 3, "survivors complete at interval 4");
    // Per-step checkpoints: at most ~1 step lost. 4-step interval: up to 4.
    assert!(r1 <= 1, "interval 1 recomputed {r1} steps");
    assert!(r4 > r1, "larger interval must recompute more: {r4} vs {r1}");
}

#[test]
fn per_batch_checkpoints_bound_rollback_to_one_step() {
    // The paper's "minimum checkpoint interval of one mini-batch": with
    // per-step checkpoints, no survivor ever recomputes more than the
    // in-flight step.
    for fail_at in [40u64, 90, 160] {
        let spec = TrainSpec {
            total_steps: 8,
            steps_per_epoch: 4,
            ..TrainSpec::default()
        };
        let plan = FaultPlan::none().kill_at_point(RankId(1), "allreduce.step", fail_at);
        for exit in run_backward(spec, plan, 1) {
            if let WorkerExit::Completed(stats) = exit {
                assert!(
                    stats.steps_recomputed <= 1,
                    "fail_at {fail_at}: recomputed {}",
                    stats.steps_recomputed
                );
            }
        }
    }
}

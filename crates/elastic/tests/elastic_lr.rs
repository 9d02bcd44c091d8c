//! Elastic learning-rate scaling and multi-failure stress tests for the
//! forward engine, driven directly through the ULFM universe.

use elastic::{run_forward_worker, ForwardConfig, LrScaling, TrainSpec, WorkerExit};
use transport::{FaultPlan, RankId, Topology};
use ulfm::Universe;

fn spec() -> TrainSpec {
    TrainSpec {
        total_steps: 12,
        steps_per_epoch: 4,
        ..TrainSpec::default()
    }
}

#[test]
fn lr_tracks_world_size_after_downscale() {
    let mut cfg = ForwardConfig::new(spec());
    cfg.lr_scaling = Some(LrScaling {
        base_world: 4,
        warmup_steps: 2,
    });
    // 8 workers → base target lr = 0.05 × 8/4 = 0.1; after losing one,
    // 0.05 × 7/4 = 0.0875.
    let plan = FaultPlan::none().kill_at_point(RankId(3), "allreduce.step", 5);
    let u = Universe::new(Topology::flat(), plan);
    let c = cfg.clone();
    let handles = u
        .spawn_batch(8, move |p| run_forward_worker(&p, &c, false))
        .unwrap();
    let mut survivors = 0;
    for h in handles {
        match h.join().exit {
            WorkerExit::Completed(s) => {
                survivors += 1;
                assert_eq!(s.final_world, 7);
                assert!(
                    (s.final_lr - 0.0875).abs() < 1e-6,
                    "lr should settle at 0.0875, got {}",
                    s.final_lr
                );
            }
            WorkerExit::Died => {}
            other => panic!("unexpected exit {other:?}"),
        }
    }
    assert_eq!(survivors, 7);
}

#[test]
fn lr_constant_without_policy() {
    let cfg = ForwardConfig::new(spec());
    let u = Universe::without_faults(Topology::flat());
    let c = cfg.clone();
    let handles = u
        .spawn_batch(4, move |p| run_forward_worker(&p, &c, false))
        .unwrap();
    for h in handles {
        let s = match h.join().exit {
            WorkerExit::Completed(s) => s,
            other => panic!("{other:?}"),
        };
        assert!((s.final_lr - 0.05).abs() < 1e-7);
    }
}

/// Two failures in the same run, at different steps: the engine recovers
/// twice, survivors stay consistent.
#[test]
fn survives_two_sequential_failures() {
    let cfg = ForwardConfig::new(spec());
    // Victim 1 dies in the first step's allreduces; victim 5 a couple of
    // hundred protocol steps later (well into a later step).
    let plan = FaultPlan::none()
        .kill_at_point(RankId(1), "allreduce.step", 6)
        .kill_at_point(RankId(5), "allreduce.step", 160);
    let u = Universe::new(Topology::flat(), plan);
    let c = cfg.clone();
    let handles = u
        .spawn_batch(7, move |p| run_forward_worker(&p, &c, false))
        .unwrap();
    let mut fps = Vec::new();
    let mut died = 0;
    for h in handles {
        match h.join().exit {
            WorkerExit::Completed(s) => {
                assert_eq!(s.final_world, 5);
                assert_eq!(s.steps_done, 12);
                assert!(
                    s.recoveries >= 2,
                    "expected ≥2 recoveries, got {}",
                    s.recoveries
                );
                fps.push(s.state_fingerprint);
            }
            WorkerExit::Died => died += 1,
            other => panic!("{other:?}"),
        }
    }
    assert_eq!(died, 2);
    assert_eq!(fps.len(), 5);
    assert!(fps.windows(2).all(|w| w[0] == w[1]), "replicas diverged");
}

/// Failure storm: three victims with overlapping schedules, including one
/// dying during another's recovery window (agreement round).
#[test]
fn survives_overlapping_failure_storm() {
    let cfg = ForwardConfig::new(spec());
    let plan = FaultPlan::none()
        .kill_at_point(RankId(0), "allreduce.step", 8)
        .kill_at_point(RankId(2), "agree.round", 2)
        .kill_at_point(RankId(4), "allreduce.step", 90);
    let u = Universe::new(Topology::flat(), plan);
    let c = cfg.clone();
    let handles = u
        .spawn_batch(8, move |p| run_forward_worker(&p, &c, false))
        .unwrap();
    let mut fps = Vec::new();
    for h in handles {
        if let WorkerExit::Completed(s) = h.join().exit {
            assert_eq!(s.steps_done, 12);
            fps.push(s.state_fingerprint);
        }
    }
    assert_eq!(fps.len(), 5, "exactly the three victims die");
    assert!(fps.windows(2).all(|w| w[0] == w[1]));
}

/// Node-level storm: two victims on *different* nodes under drop-node —
/// both nodes evicted, the remaining node finishes alone.
#[test]
fn drop_node_with_two_failed_nodes() {
    let mut cfg = ForwardConfig::new(spec());
    cfg.policy = elastic::RecoveryPolicy::DropNode;
    let plan = FaultPlan::none()
        .kill_at_point(RankId(1), "allreduce.step", 5) // node 0
        .kill_at_point(RankId(7), "allreduce.step", 80); // node 2
    let u = Universe::new(Topology::new(3), plan);
    let c = cfg.clone();
    let handles = u
        .spawn_batch(9, move |p| run_forward_worker(&p, &c, false))
        .unwrap();
    let mut completed = 0;
    let mut excluded = 0;
    let mut died = 0;
    for h in handles {
        match h.join().exit {
            WorkerExit::Completed(s) => {
                completed += 1;
                assert_eq!(s.final_world, 3, "only node 1 remains");
            }
            WorkerExit::Excluded(_) => excluded += 1,
            WorkerExit::Died => died += 1,
            WorkerExit::Aborted(_) => panic!("default min_workers must never abort"),
        }
    }
    assert_eq!((completed, excluded, died), (3, 4, 2));
}

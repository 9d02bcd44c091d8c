//! End-to-end engine tests: both engines train through the paper's three
//! scenarios, at both recovery levels, and the replicas stay consistent.

use collectives::AllreduceAlgo;
use elastic::scenario::{Engine, ScenarioKind};
use elastic::{
    run_scenario, HierMode, RecoveryKind, RecoveryPolicy, ScenarioConfig, TrainSpec, WorkerExit,
};
use transport::{FaultPlan, RankId};

fn spec() -> TrainSpec {
    TrainSpec {
        total_steps: 10,
        steps_per_epoch: 3,
        ..TrainSpec::default()
    }
}

fn quick(engine: Engine, kind: ScenarioKind) -> ScenarioConfig {
    ScenarioConfig {
        spec: spec(),
        ..ScenarioConfig::quick(engine, kind)
    }
}

// ---------------------------------------------------------------- forward

#[test]
fn forward_downscale_process_level() {
    let cfg = quick(Engine::UlfmForward, ScenarioKind::Downscale);
    let res = run_scenario(&cfg);
    // Victim died; the other five completed.
    assert_eq!(res.completed(), cfg.workers - 1);
    assert_eq!(
        res.exits.iter().filter(|e| **e == WorkerExit::Died).count(),
        1
    );
    res.assert_consistent_state();
    // Survivors trained all steps at the reduced world size.
    for e in res.exits.iter().filter(|e| e.completed()) {
        let s = e.stats().unwrap();
        assert_eq!(s.steps_done, cfg.spec.total_steps as u64);
        assert_eq!(s.final_world, cfg.workers - 1);
        assert!(s.recoveries >= 1, "survivor must have recovered");
    }
    // At least one forward-recovery breakdown with the expected phases.
    let fwd = res
        .mean_breakdown(RecoveryKind::Forward)
        .expect("forward episodes recorded");
    for phase in ["revoke", "agree", "shrink"] {
        assert!(
            fwd.phases.iter().any(|p| p.name == phase),
            "missing phase {phase}"
        );
    }
}

#[test]
fn forward_downscale_node_level_excludes_peers() {
    let mut cfg = quick(Engine::UlfmForward, ScenarioKind::Downscale);
    cfg.policy = RecoveryPolicy::DropNode;
    cfg.victim = 4; // node 1 hosts ranks 3,4,5 (3 ranks per node)
    let res = run_scenario(&cfg);
    let excluded = res
        .exits
        .iter()
        .filter(|e| matches!(e, WorkerExit::Excluded(_)))
        .count();
    assert_eq!(
        excluded, 2,
        "two healthy node-mates evicted: {:?}",
        res.exits
    );
    assert_eq!(res.completed(), 3);
    res.assert_consistent_state();
    for e in res.exits.iter().filter(|e| e.completed()) {
        assert_eq!(e.stats().unwrap().final_world, 3);
    }
}

#[test]
fn forward_replacement_restores_world_size() {
    let mut cfg = quick(Engine::UlfmForward, ScenarioKind::Replace);
    cfg.joiners = 1;
    let res = run_scenario(&cfg);
    // 5 survivors + 1 joiner complete.
    assert_eq!(res.completed(), cfg.workers, "{:?}", res.exits);
    res.assert_consistent_state();
    // The joiner must have synced state (Join breakdown present).
    assert!(
        res.breakdowns
            .iter()
            .any(|b| b.kind == RecoveryKind::Join
                && b.phase("state_sync") > std::time::Duration::ZERO)
    );
    // World size recovered to the original count.
    for e in res.exits.iter().filter(|e| e.completed()) {
        assert_eq!(e.stats().unwrap().final_world, cfg.workers);
    }
}

#[test]
fn forward_upscale_grows_world() {
    let mut cfg = quick(Engine::UlfmForward, ScenarioKind::Upscale);
    cfg.joiners = 2;
    let res = run_scenario(&cfg);
    assert_eq!(res.completed(), cfg.workers + 2);
    res.assert_consistent_state();
    for e in res.exits.iter().filter(|e| e.completed()) {
        assert_eq!(e.stats().unwrap().final_world, cfg.workers + 2);
        assert_eq!(e.stats().unwrap().recoveries, 0, "no failure in upscale");
    }
}

#[test]
fn forward_renormalization_keeps_replicas_consistent() {
    let run = |renormalize| {
        let mut cfg = quick(Engine::UlfmForward, ScenarioKind::Downscale);
        cfg.renormalize = renormalize;
        let res = run_scenario(&cfg);
        assert_eq!(res.completed(), cfg.workers - 1);
        res.assert_consistent_state()
    };
    // The knob is live: under the same fault, rescaling the redone
    // gradients trains to a different (and still consistent) state.
    assert_ne!(run(true), run(false), "renormalization changed nothing");
}

#[test]
fn forward_different_allreduce_algorithms_survive_failures() {
    for algo in [
        AllreduceAlgo::RecursiveDoubling,
        AllreduceAlgo::Rabenseifner,
    ] {
        let mut cfg = quick(Engine::UlfmForward, ScenarioKind::Downscale);
        cfg.spec.algo = algo;
        let res = run_scenario(&cfg);
        assert_eq!(res.completed(), cfg.workers - 1, "{algo:?}");
        res.assert_consistent_state();
    }
}

#[test]
fn forward_loss_decreases_despite_failure() {
    let mut cfg = quick(Engine::UlfmForward, ScenarioKind::Downscale);
    cfg.spec.total_steps = 24;
    cfg.spec.steps_per_epoch = 6;
    let res = run_scenario(&cfg);
    let final_loss = res
        .exits
        .iter()
        .find_map(|e| e.stats().filter(|_| e.completed()))
        .unwrap()
        .final_loss;
    // Initial loss ≈ ln(4) ≈ 1.386 for 4 classes; training must clearly
    // beat that even with a mid-run failure.
    assert!(
        final_loss < 1.0,
        "loss did not decrease enough: {final_loss}"
    );
}

/// `final_world` is the size of the last communicator the worker belonged
/// to on *every* exit path. Victim 0 dies in step 0 (4 → 3); at the step-4
/// epoch boundary rank 1 dies inside the joiner's admission and the
/// recovery lands below the floor, so the two members that trained steps
/// 0–3 in a world of 3 abort — as does the never-admitted joiner.
#[test]
fn forward_aborted_members_report_their_last_world() {
    let mut cfg = ScenarioConfig::quick(Engine::UlfmForward, ScenarioKind::Replace);
    cfg.spec = TrainSpec {
        total_steps: 8,
        steps_per_epoch: 4,
        min_workers: 3,
        ..TrainSpec::default()
    };
    cfg.workers = 4;
    cfg.ranks_per_node = 4;
    cfg.victim = 0;
    cfg.fail_at_op = 3;
    cfg.joiners = 1;
    cfg.extra_faults = FaultPlan::none().kill_at_point(RankId(1), "join.merge", 1);
    let res = run_scenario(&cfg);
    // `None`: died; `Some((final_world, steps_done))`: aborted.
    let seen: Vec<Option<(usize, u64)>> = res
        .exits
        .iter()
        .map(|e| match e {
            WorkerExit::Died => None,
            WorkerExit::Aborted(s) => Some((s.final_world, s.steps_done)),
            other => panic!("nobody may complete or be excluded: {other:?}"),
        })
        .collect();
    assert_eq!(seen, [None, None, Some((3, 4)), Some((3, 4)), Some((0, 0))]);
}

// --------------------------------------------------------------- backward

#[test]
fn backward_downscale_node_level() {
    let mut cfg = quick(Engine::GlooBackward, ScenarioKind::Downscale);
    cfg.policy = RecoveryPolicy::DropNode;
    cfg.victim = 4;
    let res = run_scenario(&cfg);
    // Node 1 (ranks 3,4,5): victim died; two node-mates evicted.
    assert_eq!(res.completed(), 3, "{:?}", res.exits);
    res.assert_consistent_state();
    // Backward recovery must include the Fig. 4 phases.
    let all_names: Vec<&str> = res
        .breakdowns
        .iter()
        .flat_map(|b| b.phases.iter().map(|p| p.name))
        .collect();
    for phase in [
        "catch_exception",
        "rendezvous",
        "reinit_gloo",
        "load_checkpoint",
    ] {
        assert!(all_names.contains(&phase), "missing phase {phase}");
    }
}

#[test]
fn backward_downscale_process_level() {
    // Real Elastic Horovod cannot do this (Table 2) — our baseline driver
    // supports it so the comparison matrix can be exercised symmetrically.
    let cfg = quick(Engine::GlooBackward, ScenarioKind::Downscale);
    let res = run_scenario(&cfg);
    assert_eq!(res.completed(), cfg.workers - 1, "{:?}", res.exits);
    res.assert_consistent_state();
}

#[test]
fn backward_replacement() {
    let mut cfg = quick(Engine::GlooBackward, ScenarioKind::Replace);
    cfg.joiners = 1;
    let res = run_scenario(&cfg);
    assert_eq!(res.completed(), cfg.workers, "{:?}", res.exits);
    res.assert_consistent_state();
    for e in res.exits.iter().filter(|e| e.completed()) {
        assert_eq!(e.stats().unwrap().final_world, cfg.workers);
    }
}

#[test]
fn backward_upscale() {
    let mut cfg = quick(Engine::GlooBackward, ScenarioKind::Upscale);
    cfg.joiners = 2;
    let res = run_scenario(&cfg);
    assert_eq!(res.completed(), cfg.workers + 2, "{:?}", res.exits);
    res.assert_consistent_state();
}

// ------------------------------------------------------------ equivalence

/// Fault-free training produces bit-identical models on both engines: they
/// run the same collectives in the same order on the same data.
#[test]
fn engines_agree_bit_exactly_without_faults() {
    let mut f_cfg = quick(Engine::UlfmForward, ScenarioKind::Upscale);
    f_cfg.joiners = 0;
    f_cfg.kind = ScenarioKind::Upscale; // no fault plan, no joiners
    let f_res = run_scenario(&f_cfg);
    let f_fp = f_res.assert_consistent_state();

    let mut b_cfg = quick(Engine::GlooBackward, ScenarioKind::Upscale);
    b_cfg.joiners = 0;
    let b_res = run_scenario(&b_cfg);
    let b_fp = b_res.assert_consistent_state();

    assert_eq!(f_fp, b_fp, "fault-free engines must agree bit-exactly");
}

// ---------------------------------------------------------------- fusion

/// A byte cap that splits the default MLP's four gradient tensors
/// (ready-order sizes 128, 4, 512, 32 f32s = 512, 16, 2048, 128 bytes)
/// into three buckets: {128, 4} fused, the 2048-byte tensor as an
/// oversized singleton, and the 32-element tail — so the fused path
/// exercises multi-tensor packing, the oversized escape hatch, and
/// scatter-back in one run.
const FUSION_CAP: usize = 600;

fn fused_spec() -> TrainSpec {
    TrainSpec {
        fusion: Some(FUSION_CAP),
        ..spec()
    }
}

#[test]
fn forward_fused_downscale_recovers_bit_identically() {
    let mut cfg = quick(Engine::UlfmForward, ScenarioKind::Downscale);
    cfg.spec = fused_spec();
    let res = run_scenario(&cfg);
    assert_eq!(res.completed(), cfg.workers - 1, "{:?}", res.exits);
    res.assert_consistent_state();
    for e in res.exits.iter().filter(|e| e.completed()) {
        let s = e.stats().unwrap();
        assert_eq!(s.steps_done, cfg.spec.total_steps as u64);
        assert_eq!(s.final_world, cfg.workers - 1);
        assert!(s.recoveries >= 1, "survivor must have recovered");
    }
    // The mid-bucket kill must drive the full ULFM protocol.
    let fwd = res
        .mean_breakdown(RecoveryKind::Forward)
        .expect("forward episodes recorded");
    for phase in ["revoke", "agree", "shrink"] {
        assert!(
            fwd.phases.iter().any(|p| p.name == phase),
            "missing phase {phase}"
        );
    }
}

/// Kill at several protocol-step offsets so the failure lands inside
/// different buckets (including the fused multi-tensor bucket and the
/// oversized singleton) and in different training steps.
#[test]
fn forward_fused_survives_kills_in_every_bucket() {
    for fail_at in [1, 4, 9, 14] {
        let mut cfg = quick(Engine::UlfmForward, ScenarioKind::Downscale);
        cfg.spec = fused_spec();
        cfg.fail_at_op = fail_at;
        let res = run_scenario(&cfg);
        assert_eq!(
            res.completed(),
            cfg.workers - 1,
            "fail_at_op={fail_at}: {:?}",
            res.exits
        );
        res.assert_consistent_state();
    }
}

#[test]
fn forward_fused_auto_algo_survives_failure() {
    let mut cfg = quick(Engine::UlfmForward, ScenarioKind::Downscale);
    cfg.spec = fused_spec();
    cfg.spec.algo = AllreduceAlgo::auto();
    let res = run_scenario(&cfg);
    assert_eq!(res.completed(), cfg.workers - 1, "{:?}", res.exits);
    res.assert_consistent_state();
}

#[test]
fn forward_fused_replacement_restores_world_size() {
    let mut cfg = quick(Engine::UlfmForward, ScenarioKind::Replace);
    cfg.spec = fused_spec();
    cfg.joiners = 1;
    let res = run_scenario(&cfg);
    assert_eq!(res.completed(), cfg.workers, "{:?}", res.exits);
    res.assert_consistent_state();
    for e in res.exits.iter().filter(|e| e.completed()) {
        assert_eq!(e.stats().unwrap().final_world, cfg.workers);
    }
}

#[test]
fn backward_fused_downscale() {
    let mut cfg = quick(Engine::GlooBackward, ScenarioKind::Downscale);
    cfg.spec = fused_spec();
    let res = run_scenario(&cfg);
    assert_eq!(res.completed(), cfg.workers - 1, "{:?}", res.exits);
    res.assert_consistent_state();
}

#[test]
fn backward_fused_upscale() {
    let mut cfg = quick(Engine::GlooBackward, ScenarioKind::Upscale);
    cfg.spec = fused_spec();
    cfg.joiners = 2;
    let res = run_scenario(&cfg);
    assert_eq!(res.completed(), cfg.workers + 2, "{:?}", res.exits);
    res.assert_consistent_state();
}

/// Both engines fuse by the same schedule and reduce the same fused
/// buffers with the same algorithm, so fault-free fused training is
/// bit-identical across engines — the fused analogue of
/// [`engines_agree_bit_exactly_without_faults`].
#[test]
fn fused_engines_agree_bit_exactly_without_faults() {
    let mut f_cfg = quick(Engine::UlfmForward, ScenarioKind::Upscale);
    f_cfg.spec = fused_spec();
    f_cfg.joiners = 0;
    let f_fp = run_scenario(&f_cfg).assert_consistent_state();

    let mut b_cfg = quick(Engine::GlooBackward, ScenarioKind::Upscale);
    b_cfg.spec = fused_spec();
    b_cfg.joiners = 0;
    let b_fp = run_scenario(&b_cfg).assert_consistent_state();

    assert_eq!(
        f_fp, b_fp,
        "fault-free fused engines must agree bit-exactly"
    );
}

/// Under recursive doubling the per-element reduction order depends only
/// on the group (pairwise butterfly), not on buffer layout — so packing
/// tensors into fused buckets must not change a single bit of the final
/// model. (Ring/Rabenseifner chunk by offset, so the same equality is not
/// guaranteed there; this pins the layout-independent case.)
#[test]
fn fusion_is_transparent_under_recursive_doubling() {
    let mut unfused = quick(Engine::UlfmForward, ScenarioKind::Upscale);
    unfused.spec.algo = AllreduceAlgo::RecursiveDoubling;
    unfused.joiners = 0;
    let u_fp = run_scenario(&unfused).assert_consistent_state();

    let mut fused = quick(Engine::UlfmForward, ScenarioKind::Upscale);
    fused.spec = fused_spec();
    fused.spec.algo = AllreduceAlgo::RecursiveDoubling;
    fused.joiners = 0;
    let f_fp = run_scenario(&fused).assert_consistent_state();

    assert_eq!(u_fp, f_fp, "fusion changed the trained model bits");
}

// ------------------------------------------------------- forward recovery

/// The paper's Fig. 2 contrast, measured: forward recovery completes the
/// failed step with the survivors' retained contributions instead of
/// rolling back — so the survivor-side model equals a reference run where
/// the dead worker's contribution simply vanishes from the failed tensor
/// onward of that step, and training *continues from there* rather than
/// recomputing the whole mini-batch.
#[test]
fn forward_recovery_uses_retained_contributions() {
    let mut cfg = quick(Engine::UlfmForward, ScenarioKind::Downscale);
    cfg.spec.total_steps = 6;
    // Fail during the very first step's allreduce sequence so the recovery
    // path dominates the run.
    cfg.fail_at_op = 3;
    let res = run_scenario(&cfg);
    assert_eq!(res.completed(), cfg.workers - 1);
    let fp = res.assert_consistent_state();
    assert_ne!(fp, 0);
}

// ----------------------------------------------------------- hierarchical

/// Force the two-level collective regardless of the cost model — the quick
/// scenario's 6 workers over 2 nodes are far below the crossover, so Auto
/// would (correctly) stay flat and never exercise the hierarchy.
fn hier_spec() -> TrainSpec {
    TrainSpec {
        hier: HierMode::Force,
        ..spec()
    }
}

/// A node *leader* dying inside the cross-node exchange must feed the same
/// revoke → agree → shrink path as a flat failure, and survivors must
/// rebuild the hierarchy (promoting the node's next rank to leader) before
/// retrying.
#[test]
fn forward_hier_downscale_survives_leader_death() {
    let routed_before = telemetry::counter("elastic.hier.routed_buckets").get();
    let mut cfg = quick(Engine::UlfmForward, ScenarioKind::Downscale);
    cfg.spec = hier_spec();
    cfg.victim = 3; // leader of node 1 (ranks 3,4,5)
    let res = run_scenario(&cfg);
    assert_eq!(res.completed(), cfg.workers - 1, "{:?}", res.exits);
    res.assert_consistent_state();
    for e in res.exits.iter().filter(|e| e.completed()) {
        let s = e.stats().unwrap();
        assert_eq!(s.final_world, cfg.workers - 1);
        assert!(s.recoveries >= 1, "survivor must have recovered");
    }
    assert!(
        telemetry::counter("elastic.hier.routed_buckets").get() > routed_before,
        "forced hierarchy must actually route gradient buckets"
    );
}

/// Killing a *non-leader* exercises the other tentpole fault case: the
/// victim dies inside the intra-node reduction, its leader notices in the
/// local phase, and the hierarchy rebuilt after shrink shows a smaller node.
#[test]
fn forward_hier_downscale_survives_non_leader_death() {
    let mut cfg = quick(Engine::UlfmForward, ScenarioKind::Downscale);
    cfg.spec = hier_spec();
    // Rank 4 never enters the cross ring, so the scenario's scripted
    // "allreduce.step" kill can never fire for it — inject the death at
    // the intra-node reduction instead.
    cfg.victim = 4;
    cfg.extra_faults = FaultPlan::none().kill_at_point(RankId(4), "reduce.step", 7);
    let res = run_scenario(&cfg);
    assert_eq!(res.completed(), cfg.workers - 1, "{:?}", res.exits);
    res.assert_consistent_state();
    for e in res.exits.iter().filter(|e| e.completed()) {
        assert_eq!(e.stats().unwrap().final_world, cfg.workers - 1);
    }
}

/// Hierarchy must be rebuilt across NetJoin epochs too: a leader dies, a
/// replacement joins, and the final world (and its node map) includes the
/// joiner.
#[test]
fn forward_hier_replacement_restores_world_size() {
    let mut cfg = quick(Engine::UlfmForward, ScenarioKind::Replace);
    cfg.spec = hier_spec();
    cfg.victim = 3;
    cfg.joiners = 1;
    let res = run_scenario(&cfg);
    assert_eq!(res.completed(), cfg.workers, "{:?}", res.exits);
    res.assert_consistent_state();
    for e in res.exits.iter().filter(|e| e.completed()) {
        assert_eq!(e.stats().unwrap().final_world, cfg.workers);
    }
}

/// Hierarchical routing composes with fusion: each fused bucket is
/// independently routed through the two-level collective, and recovery
/// still works when the leader dies mid-bucket-sequence.
#[test]
fn forward_hier_fused_downscale() {
    let mut cfg = quick(Engine::UlfmForward, ScenarioKind::Downscale);
    cfg.spec = TrainSpec {
        hier: HierMode::Force,
        ..fused_spec()
    };
    cfg.victim = 3;
    let res = run_scenario(&cfg);
    assert_eq!(res.completed(), cfg.workers - 1, "{:?}", res.exits);
    res.assert_consistent_state();
}

/// The backward engine rebuilds its node map at every rendezvous; node-level
/// eviction of a leader's node must converge to the 3 survivors on node 0.
#[test]
fn backward_hier_downscale_node_level() {
    let mut cfg = quick(Engine::GlooBackward, ScenarioKind::Downscale);
    cfg.spec = hier_spec();
    cfg.policy = RecoveryPolicy::DropNode;
    cfg.victim = 3; // node 1's leader takes the whole node down
    let res = run_scenario(&cfg);
    assert_eq!(res.completed(), 3, "{:?}", res.exits);
    res.assert_consistent_state();
}

/// Both engines route the identical two-level collective over the identical
/// node map, so fault-free hierarchical training must stay bit-identical
/// across engines — the same guarantee the flat path already pins.
#[test]
fn hier_engines_agree_bit_exactly_without_faults() {
    let mut f_cfg = quick(Engine::UlfmForward, ScenarioKind::Upscale);
    f_cfg.spec = hier_spec();
    f_cfg.joiners = 0;
    let f_fp = run_scenario(&f_cfg).assert_consistent_state();

    let mut b_cfg = quick(Engine::GlooBackward, ScenarioKind::Upscale);
    b_cfg.spec = hier_spec();
    b_cfg.joiners = 0;
    let b_fp = run_scenario(&b_cfg).assert_consistent_state();

    assert_eq!(
        f_fp, b_fp,
        "fault-free hierarchical engines must agree bit-exactly"
    );
}

//! Chaos suite: randomized-but-deterministic fault schedules through
//! `run_scenario`, for both engines.
//!
//! Every case is derived from a SplitMix64 stream seeded by its case
//! number, so a failing case is replayable by number alone. A watchdog
//! bounds each scenario: the property under test is *liveness plus
//! uniformity* — a scenario either completes or halts consistently
//! (every completed replica bit-identical), and it never deadlocks.

use collectives::AllreduceAlgo;
use elastic::scenario::{Engine, ScenarioKind};
use elastic::{
    run_scenario, HierMode, RecoveryKind, RecoveryPolicy, ScenarioConfig, TrainSpec, WorkerExit,
};
use std::sync::mpsc;
use std::time::Duration;
use transport::{FaultPlan, LinkPerturb, PerturbPlan, RankId, RetryPolicy};

/// Cases per engine (split across two test fns for parallelism).
const CASES: u64 = 56;

/// Per-scenario wall-clock budget. Overridable for slow CI machines (or
/// for patient local debugging) with `CHAOS_WATCHDOG_SECS`.
fn watchdog() -> Duration {
    let secs = std::env::var("CHAOS_WATCHDOG_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120u64);
    Duration::from_secs(secs)
}

/// CI runs the suite across a small seed matrix by exporting
/// `CHAOS_SEED_OFFSET`; locally the offset defaults to 0 so failures are
/// replayable by case number alone.
fn seed_offset() -> u64 {
    std::env::var("CHAOS_SEED_OFFSET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn splitmix64(s: &mut u64) -> u64 {
    *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *s;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive a valid, hang-free scenario from a case number.
///
/// Invariants that keep every case well-formed:
/// - `workers` is a multiple of `ranks_per_node`, so Replace joiners land
///   on a fresh node (never a node the DropNode policy blacklisted);
/// - Replace kills its victim within the first optimizer step
///   (`fail_at_op ≤ 5` < the ≥8 fault-point hits of one step), so the
///   epoch-boundary wait for joiners cannot precede the failure;
/// - Downscale may draw a `fail_at_op` beyond the run's fault-point hits:
///   the victim then never dies and the case degenerates to fault-free —
///   "completion" is the consistent halt we assert.
fn chaos_config(engine: Engine, case: u64) -> ScenarioConfig {
    let mut s = 0xC0FF_EE00 ^ ((case + (seed_offset() << 20)) << 1);
    let mut pick = |m: u64| splitmix64(&mut s) % m;
    let rpn = 1 + pick(3) as usize;
    let nodes = 2 + pick(3) as usize;
    let workers = rpn * nodes;
    let kind = match pick(3) {
        0 => ScenarioKind::Downscale,
        1 => ScenarioKind::Replace,
        _ => ScenarioKind::Upscale,
    };
    let policy = if pick(2) == 0 {
        RecoveryPolicy::DropProcess
    } else {
        RecoveryPolicy::DropNode
    };
    let victim = pick(workers as u64) as usize;
    let fail_at_op = match kind {
        ScenarioKind::Replace => 1 + pick(5),
        _ => 1 + pick(24),
    };
    let joiners = match kind {
        ScenarioKind::Downscale => 0,
        ScenarioKind::Replace => 1 + pick(2) as usize,
        ScenarioKind::Upscale => pick(3) as usize,
    };
    ScenarioConfig {
        spec: TrainSpec {
            total_steps: 6,
            steps_per_epoch: 3,
            seed: 1000 + case,
            ..TrainSpec::default()
        },
        workers,
        ranks_per_node: rpn,
        policy,
        victim,
        fail_at_op,
        joiners,
        ..ScenarioConfig::quick(engine, kind)
    }
}

/// Run one scenario under a watchdog; a case that neither returns nor
/// panics within the budget is reported as a deadlock.
fn run_with_watchdog(cfg: ScenarioConfig, label: &str) -> elastic::ScenarioResult {
    let (tx, rx) = mpsc::channel();
    let cfg2 = cfg.clone();
    std::thread::spawn(move || {
        let _ = tx.send(run_scenario(&cfg2));
    });
    match rx.recv_timeout(watchdog()) {
        Ok(r) => r,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!(
                "chaos {label} DEADLOCKED after {:?} (override with CHAOS_WATCHDOG_SECS)\n\
                 replay: CHAOS_SEED_OFFSET={} train-seed={} victim=rank{} fail_at_op={}\n\
                 full schedule: {cfg:?}",
                watchdog(),
                seed_offset(),
                cfg.spec.seed,
                cfg.victim,
                cfg.fail_at_op,
            )
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            panic!("chaos {label} worker panicked: {cfg:?}")
        }
    }
}

fn check_case(engine: Engine, case: u64) {
    let cfg = chaos_config(engine, case);
    let label = format!("{engine:?}/case{case}");
    let joiners = match cfg.kind {
        ScenarioKind::Downscale => 0,
        _ => cfg.joiners,
    };
    let total = cfg.workers + joiners;
    let res = run_with_watchdog(cfg.clone(), &label);

    assert_eq!(
        res.exits.len(),
        total,
        "{label}: lost a worker exit: {cfg:?}"
    );
    let died = res
        .exits
        .iter()
        .filter(|e| matches!(e, WorkerExit::Died))
        .count();
    let completed = res.completed();
    let excluded = total - died - completed;

    // Only the scripted victim ever dies.
    assert!(died <= 1, "{label}: {died} deaths: {cfg:?}");
    // Exclusion is a DropNode-only outcome.
    if cfg.policy == RecoveryPolicy::DropProcess {
        assert_eq!(
            excluded, 0,
            "{label}: exclusions under DropProcess: {cfg:?}"
        );
    }
    match cfg.kind {
        ScenarioKind::Upscale => {
            // Fault-free: everyone (including joiners) must finish.
            assert_eq!(completed, total, "{label}: fault-free loss: {cfg:?}");
        }
        _ => {
            if died == 1 {
                // The failure fired: some survivor must still finish.
                assert!(completed >= 1, "{label}: no survivor completed: {cfg:?}");
            } else {
                // Failure never fired (late fail_at_op): fault-free run.
                assert_eq!(
                    completed, total,
                    "{label}: unfired fault lost workers: {cfg:?}"
                );
            }
        }
    }
    // Uniformity: every completed replica holds bit-identical state.
    if completed > 0 {
        res.assert_consistent_state();
    }
}

#[test]
fn forward_chaos_first_half() {
    for case in 0..CASES / 2 {
        check_case(Engine::UlfmForward, case);
    }
}

#[test]
fn forward_chaos_second_half() {
    for case in CASES / 2..CASES {
        check_case(Engine::UlfmForward, case);
    }
}

#[test]
fn backward_chaos_first_half() {
    for case in 0..CASES / 2 {
        check_case(Engine::GlooBackward, case);
    }
}

#[test]
fn backward_chaos_second_half() {
    for case in CASES / 2..CASES {
        check_case(Engine::GlooBackward, case);
    }
}

// ---------------------------------------------------------------------------
// Perturbation schedules: adversarial links healed by the wire protocol.
// ---------------------------------------------------------------------------

/// A fault-free multi-step training run (no scripted kill) over a perturbed
/// fabric: every worker must finish, replicas must stay bit-identical.
fn perturbed_config(engine: Engine, plan: PerturbPlan) -> ScenarioConfig {
    ScenarioConfig {
        spec: TrainSpec {
            total_steps: 6,
            steps_per_epoch: 3,
            seed: 4242,
            ..TrainSpec::default()
        },
        victim: 0,
        fail_at_op: u64::MAX,
        joiners: 0,
        perturb: Some(plan),
        ..ScenarioConfig::quick(engine, ScenarioKind::Upscale)
    }
}

fn check_perturbed_completion(
    engine: Engine,
    plan: PerturbPlan,
    label: &str,
) -> elastic::ScenarioResult {
    let cfg = perturbed_config(engine, plan);
    let total = cfg.workers;
    let res = run_with_watchdog(cfg, label);
    assert_eq!(
        res.completed(),
        total,
        "{label}: perturbation cost a worker (exits: {:?})",
        res.exits
    );
    // Uniformity is the "no corrupt frame was silently delivered" proof:
    // a payload that slipped past the checksum would diverge the replicas.
    res.assert_consistent_state();
    res
}

/// ISSUE acceptance: 1% drop + 0.1% corruption under a fixed seed — both
/// engines finish multi-step training with bitwise-identical replicas and
/// nonzero retransmission work.
#[test]
fn acceptance_drop_and_corrupt_forward() {
    let plan =
        PerturbPlan::seeded(0xACCE_0001).all_links(LinkPerturb::clean().drop(0.01).corrupt(0.001));
    let res = check_perturbed_completion(Engine::UlfmForward, plan, "accept/forward");
    assert!(
        res.fabric_stats.retransmits > 0,
        "1% drop must force retransmissions (stats: {:?})",
        res.fabric_stats
    );
    assert_eq!(
        res.fabric_stats.suspicions, 0,
        "a lossy-but-live link must not be suspected"
    );
}

#[test]
fn acceptance_drop_and_corrupt_backward() {
    let plan =
        PerturbPlan::seeded(0xACCE_0002).all_links(LinkPerturb::clean().drop(0.01).corrupt(0.001));
    let res = check_perturbed_completion(Engine::GlooBackward, plan, "accept/backward");
    assert!(
        res.fabric_stats.retransmits > 0,
        "1% drop must force retransmissions (stats: {:?})",
        res.fabric_stats
    );
    assert_eq!(
        res.fabric_stats.suspicions, 0,
        "a lossy-but-live link must not be suspected"
    );
}

/// Drop-heavy schedule: 10% loss + 10% duplication on every link.
#[test]
fn drop_heavy_schedule_both_engines() {
    for (engine, label) in [
        (Engine::UlfmForward, "drop-heavy/forward"),
        (Engine::GlooBackward, "drop-heavy/backward"),
    ] {
        let plan = PerturbPlan::seeded(0xD20_0001)
            .all_links(LinkPerturb::clean().drop(0.10).duplicate(0.10));
        let res = check_perturbed_completion(engine, plan, label);
        assert!(res.fabric_stats.retransmits > 0, "{label}: no retransmits");
        assert!(
            res.fabric_stats.dup_suppressed > 0,
            "{label}: duplicated frames must be suppressed by seq tracking"
        );
    }
}

/// Drop-heavy schedule over the *fused* gradient pipeline: the same 10%
/// loss + 10% duplication, but with gradients packed into Horovod-style
/// buckets reduced by size-adaptive `Auto` allreduces, and a scripted
/// mid-training kill on top. Fused buckets carry larger frames over fewer
/// collectives, so this exercises retransmission and revoke → agree →
/// shrink recovery on the fused path specifically.
#[test]
fn fused_drop_heavy_schedule_both_engines() {
    for (engine, label) in [
        (Engine::UlfmForward, "fused-drop-heavy/forward"),
        (Engine::GlooBackward, "fused-drop-heavy/backward"),
    ] {
        let plan = PerturbPlan::seeded(0xF05E_0004)
            .all_links(LinkPerturb::clean().drop(0.10).duplicate(0.10));
        let mut cfg = perturbed_config(engine, plan);
        // 600 bytes splits the default MLP's ready-order gradients into a
        // multi-tensor bucket, an oversized singleton, and a tail bucket.
        cfg.spec.fusion = Some(600);
        cfg.spec.algo = AllreduceAlgo::auto();
        cfg.kind = ScenarioKind::Downscale;
        cfg.victim = 3;
        cfg.fail_at_op = 5;
        let total = cfg.workers;
        let res = run_with_watchdog(cfg, label);
        let died = res
            .exits
            .iter()
            .filter(|e| matches!(e, WorkerExit::Died))
            .count();
        assert_eq!(died, 1, "{label}: scripted victim must die exactly once");
        assert_eq!(
            res.completed(),
            total - 1,
            "{label}: survivors lost (exits: {:?})",
            res.exits
        );
        assert!(res.fabric_stats.retransmits > 0, "{label}: no retransmits");
        assert!(
            res.fabric_stats.dup_suppressed > 0,
            "{label}: duplicated frames must be suppressed by seq tracking"
        );
        res.assert_consistent_state();
    }
}

/// Corrupt-heavy schedule: 5% of frames bit-flipped in flight. Every one
/// must be caught by the checksum (counted) and healed by retransmission —
/// never delivered upward.
#[test]
fn corrupt_heavy_schedule_both_engines() {
    for (engine, label) in [
        (Engine::UlfmForward, "corrupt-heavy/forward"),
        (Engine::GlooBackward, "corrupt-heavy/backward"),
    ] {
        let plan = PerturbPlan::seeded(0xC0 + 2).all_links(LinkPerturb::clean().corrupt(0.05));
        let res = check_perturbed_completion(engine, plan, label);
        assert!(
            res.fabric_stats.corrupt_frames > 0,
            "{label}: corruption schedule never fired"
        );
        assert!(res.fabric_stats.retransmits > 0, "{label}: no retransmits");
    }
}

/// Delay + kill: a jittery (delayed) fabric combined with a scripted
/// mid-training process failure. The failure must still be recovered and
/// survivor replicas stay uniform.
#[test]
fn delay_plus_kill_schedule_both_engines() {
    for (engine, label) in [
        (Engine::UlfmForward, "delay+kill/forward"),
        (Engine::GlooBackward, "delay+kill/backward"),
    ] {
        let plan = PerturbPlan::seeded(0xDE1A_0003).all_links(LinkPerturb::clean().delay(
            0.2,
            Duration::from_micros(50),
            Duration::from_micros(500),
        ));
        let mut cfg = perturbed_config(engine, plan);
        cfg.kind = ScenarioKind::Downscale;
        cfg.victim = 4;
        cfg.fail_at_op = 9;
        let total = cfg.workers;
        let res = run_with_watchdog(cfg, label);
        let died = res
            .exits
            .iter()
            .filter(|e| matches!(e, WorkerExit::Died))
            .count();
        assert_eq!(died, 1, "{label}: scripted victim must die exactly once");
        assert_eq!(
            res.completed(),
            total - 1,
            "{label}: survivors lost (exits: {:?})",
            res.exits
        );
        res.assert_consistent_state();
    }
}

/// ISSUE acceptance: total loss of a rank's inbound links makes it fall
/// silent. Instead of hanging, its peers' retransmission budgets run dry,
/// the rank is *suspected* dead, and the stack runs the ordinary ULFM
/// revoke → agree → shrink recovery within the configured deadline.
#[test]
fn total_link_loss_becomes_suspicion_recovery() {
    let workers = 4;
    let victim = 2;
    let plan = PerturbPlan::seeded(0x51_1E47)
        .links_into(RankId(victim), workers, LinkPerturb::clean().drop(1.0))
        .retry(RetryPolicy {
            max_retries: 6,
            base: Duration::from_micros(200),
            cap: Duration::from_millis(2),
        });
    let cfg = ScenarioConfig {
        spec: TrainSpec {
            total_steps: 6,
            steps_per_epoch: 3,
            seed: 7,
            ..TrainSpec::default()
        },
        workers,
        ranks_per_node: 2,
        victim,
        fail_at_op: u64::MAX, // the scripted fault never fires: death comes from suspicion
        joiners: 0,
        perturb: Some(plan),
        suspicion_timeout: Some(Duration::from_millis(500)),
        ..ScenarioConfig::quick(Engine::UlfmForward, ScenarioKind::Downscale)
    };
    let res = run_with_watchdog(cfg, "suspicion/total-loss");
    let died = res
        .exits
        .iter()
        .filter(|e| matches!(e, WorkerExit::Died))
        .count();
    assert_eq!(died, 1, "only the silenced rank may die: {:?}", res.exits);
    assert_eq!(
        res.completed(),
        workers - 1,
        "survivors must finish after suspicion recovery: {:?}",
        res.exits
    );
    assert!(
        res.fabric_stats.suspicions >= 1,
        "death must come from the failure detector (stats: {:?})",
        res.fabric_stats
    );
    res.assert_consistent_state();
}

// ---------------------------------------------------------------------------
// Cascade schedules: a second kill inside the recovery machinery itself.
// CI's seed matrix (CHAOS_SEED_OFFSET) rotates the world size and the fault
// point each schedule targets; `tests/tests/cascade_sweep.rs` covers the
// full point × engine × p grid deterministically.
// ---------------------------------------------------------------------------

fn cascade_base(engine: Engine, kind: ScenarioKind, workers: usize) -> ScenarioConfig {
    ScenarioConfig {
        spec: TrainSpec {
            total_steps: 6,
            steps_per_epoch: 3,
            seed: 9000 + seed_offset(),
            ..TrainSpec::default()
        },
        workers,
        ranks_per_node: 1,
        victim: 0,
        fail_at_op: 3,
        joiners: if kind == ScenarioKind::Downscale {
            0
        } else {
            1
        },
        ..ScenarioConfig::quick(engine, kind)
    }
}

/// Double-kill: the primary victim triggers recovery, a second victim dies
/// inside it. Survivors must converge on a uniform group and state.
#[test]
fn cascade_double_kill_both_engines() {
    let off = seed_offset() as usize;
    let p = 4 + off % 2;
    for (engine, point) in [
        // ULFM points rotate with the seed matrix; the backward engine's
        // only recovery fault point is its checkpoint.
        (
            Engine::UlfmForward,
            ["agree.round", "shrink.attempt"][off % 2],
        ),
        (Engine::GlooBackward, "ckpt.sync"),
    ] {
        let occurrence = if point == "agree.round" { 2 } else { 1 };
        let mut cfg = cascade_base(engine, ScenarioKind::Downscale, p);
        cfg.extra_faults = FaultPlan::none().kill_at_point(RankId(1), point, occurrence);
        let label = format!("cascade-double/{engine:?}/{point}");
        let res = run_with_watchdog(cfg, &label);
        let died = res
            .exits
            .iter()
            .filter(|e| matches!(e, WorkerExit::Died))
            .count();
        assert_eq!(died, 2, "{label}: both scripted victims must die");
        assert_eq!(res.completed(), p - 2, "{label}: survivors lost");
        res.assert_consistent_state();
    }
}

/// Kill-during-join: the second death lands on the join path — the
/// accepting leader (`join.merge`) or the joiner itself (`join.ticket`).
/// The group must still converge; a dead leader's pending joiner is
/// re-ticketed by the surviving lowest rank.
#[test]
fn cascade_kill_during_join() {
    let off = seed_offset() as usize;
    let p = 4 + off % 2;
    let (point, second) = [("join.merge", 1), ("join.ticket", p)][off % 2];
    let mut cfg = cascade_base(Engine::UlfmForward, ScenarioKind::Replace, p);
    cfg.extra_faults = FaultPlan::none().kill_at_point(RankId(second), point, 1);
    let label = format!("cascade-join/{point}");
    let res = run_with_watchdog(cfg, &label);
    let died = res
        .exits
        .iter()
        .filter(|e| matches!(e, WorkerExit::Died))
        .count();
    assert_eq!(died, 2, "{label}: both scripted victims must die");
    // p + 1 participants, two dead — whether the joiner is among the
    // completers depends on which join-path rank was the second victim.
    assert_eq!(res.completed(), p - 1, "{label}: survivors lost");
    res.assert_consistent_state();
}

/// Shrink-to-floor: the cascade drains the group below `min_workers`.
/// Every survivor must return `WorkerExit::Aborted` — watchdog-provably no
/// hang — and the abort must be traced as a recovery episode.
#[test]
fn cascade_shrink_to_floor_aborts() {
    for (engine, point) in [
        (Engine::UlfmForward, "shrink.attempt"),
        (Engine::GlooBackward, "ckpt.sync"),
    ] {
        let mut cfg = cascade_base(engine, ScenarioKind::Downscale, 4);
        cfg.spec.min_workers = 3;
        cfg.extra_faults = FaultPlan::none().kill_at_point(RankId(1), point, 1);
        let label = format!("cascade-floor/{engine:?}");
        let res = run_with_watchdog(cfg, &label);
        let died = res
            .exits
            .iter()
            .filter(|e| matches!(e, WorkerExit::Died))
            .count();
        let aborted = res
            .exits
            .iter()
            .filter(|e| matches!(e, WorkerExit::Aborted(_)))
            .count();
        assert_eq!(
            (died, aborted, res.completed()),
            (2, 2, 0),
            "{label}: every survivor must abort below the floor (exits: {:?})",
            res.exits
        );
        assert!(
            res.breakdowns.iter().any(|b| b.kind == RecoveryKind::Abort),
            "{label}: abort must be recorded as a recovery episode"
        );
    }
}

// ---------------------------------------------------------------------------
// Hierarchical schedules: deaths inside the two-level collective. The kill
// lands in a specific phase of the reduce-scatter → cross-ring → bcast
// pipeline; recovery must still run the ordinary revoke → agree → shrink
// path and rebuild the hierarchy from the agreed survivor set. CI's seed
// matrix rotates the fault occurrence each schedule targets.
// ---------------------------------------------------------------------------

fn hier_chaos_base(engine: Engine) -> ScenarioConfig {
    ScenarioConfig {
        spec: TrainSpec {
            total_steps: 6,
            steps_per_epoch: 3,
            seed: 9500 + seed_offset(),
            hier: HierMode::Force,
            ..TrainSpec::default()
        },
        victim: 3,
        fail_at_op: 3 + seed_offset() % 5,
        joiners: 0,
        ..ScenarioConfig::quick(engine, ScenarioKind::Downscale)
    }
}

/// Kill a node leader mid-cross-ring. With 6 workers on 3-rank nodes the
/// leaders are ranks 0 and 3; in Force-hier mode only leaders execute the
/// cross exchange, so a scripted "allreduce.step" kill on rank 3 lands
/// inside the leader ring while rank 3's node-mates block in the bcast
/// phase. Recovery must reach those blocked non-leaders (flat-comm revoke),
/// shrink, promote a new leader, and converge bit-identically.
#[test]
fn hier_chaos_leader_death_mid_cross_ring() {
    for (engine, label) in [
        (Engine::UlfmForward, "hier-leader/forward"),
        (Engine::GlooBackward, "hier-leader/backward"),
    ] {
        let routed_before = telemetry::counter("elastic.hier.routed_buckets").get();
        let cfg = hier_chaos_base(engine);
        let total = cfg.workers;
        let res = run_with_watchdog(cfg, label);
        let died = res
            .exits
            .iter()
            .filter(|e| matches!(e, WorkerExit::Died))
            .count();
        assert_eq!(died, 1, "{label}: scripted leader must die exactly once");
        assert_eq!(
            res.completed(),
            total - 1,
            "{label}: survivors lost (exits: {:?})",
            res.exits
        );
        res.assert_consistent_state();
        if engine == Engine::UlfmForward {
            assert!(
                telemetry::counter("elastic.hier.routed_buckets").get() > routed_before,
                "{label}: the two-level path must actually have been exercised"
            );
        }
    }
}

/// Kill the last non-leader on a node, collapsing it to size 1. With 4
/// workers on 2-rank nodes ({0,1} and {2,3}), rank 3 is the only
/// non-leader of node 1 — it never enters the cross ring, so the kill is
/// scripted at "reduce.step" (the intra-node reduction) via extra_faults.
/// After the shrink, node 1 is just its leader: the rebuilt hierarchy has
/// a singleton node whose intra phases are no-ops, and the run must still
/// converge bit-identically.
#[test]
fn hier_chaos_node_collapses_to_leader_only() {
    for (engine, label) in [
        (Engine::UlfmForward, "hier-collapse/forward"),
        (Engine::GlooBackward, "hier-collapse/backward"),
    ] {
        let mut cfg = hier_chaos_base(engine);
        cfg.workers = 4;
        cfg.ranks_per_node = 2;
        cfg.victim = 3;
        // The scripted allreduce.step kill can never fire for a non-leader
        // in Force-hier mode; the real kill is the reduce.step schedule.
        cfg.fail_at_op = u64::MAX;
        cfg.extra_faults =
            FaultPlan::none().kill_at_point(RankId(3), "reduce.step", 3 + seed_offset() % 5);
        let total = cfg.workers;
        let res = run_with_watchdog(cfg, label);
        let died = res
            .exits
            .iter()
            .filter(|e| matches!(e, WorkerExit::Died))
            .count();
        assert_eq!(
            died, 1,
            "{label}: scripted non-leader must die exactly once"
        );
        assert_eq!(
            res.completed(),
            total - 1,
            "{label}: survivors lost (exits: {:?})",
            res.exits
        );
        res.assert_consistent_state();
    }
}

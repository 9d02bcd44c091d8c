//! Chaos schedules for the recovery-policy layer ("Chameleon mode"):
//! every arm exercised end-to-end, and every edge of the fallback chain
//! driven by killing the *preferred* arm mid-recovery. The invariant
//! throughout is the engine's usual one — survivors either complete with
//! bit-identical replicas or halt uniformly — plus the policy-specific
//! telemetry that proves which path actually ran.
//!
//! Fault points used (see DESIGN.md §12):
//! - `allreduce.step`  — the scripted primary victim;
//! - `join.ticket`     — a spare dying right after announcing (cold pool);
//! - `join.merge`      — a spare dying with a committed promotion ticket;
//! - `ckpt.sync`       — a survivor dying inside the state-sync broadcast;
//! - `policy.round`    — a survivor dying inside the policy commit itself.

use elastic::scenario::{Engine, ScenarioKind};
use elastic::{run_scenario, PolicyMode, ScenarioConfig, WorkerExit};
use std::sync::mpsc;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;
use transport::{FaultPlan, RankId};
use ulfm::RecoveryArm;

/// Telemetry counters are process-global; every test that reads deltas
/// serializes through this lock.
fn lock() -> MutexGuard<'static, ()> {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    M.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn watchdog() -> Duration {
    let secs = std::env::var("CHAOS_WATCHDOG_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120u64);
    Duration::from_secs(secs)
}

fn run_with_watchdog(cfg: ScenarioConfig, label: &str) -> elastic::ScenarioResult {
    let (tx, rx) = mpsc::channel();
    let cfg2 = cfg.clone();
    std::thread::spawn(move || {
        let _ = tx.send(run_scenario(&cfg2));
    });
    match rx.recv_timeout(watchdog()) {
        Ok(r) => r,
        Err(_) => panic!("{label}: scenario deadlocked (watchdog expired)"),
    }
}

/// Counter delta helper: snapshot on construction, assert later.
struct Delta {
    counter: std::sync::Arc<telemetry::Counter>,
    before: u64,
}

impl Delta {
    fn new(name: &str) -> Self {
        let counter = telemetry::counter(name);
        let before = counter.get();
        Self { counter, before }
    }

    fn get(&self) -> u64 {
        self.counter.get() - self.before
    }
}

/// The shared baseline: six workers on two nodes, victim 2 dies at its
/// 7th `allreduce.step` hit (inside training step 0), no joiners.
fn base(policy_mode: PolicyMode, spares: usize) -> ScenarioConfig {
    let mut cfg = ScenarioConfig {
        spares,
        policy_mode,
        ..ScenarioConfig::quick(Engine::UlfmForward, ScenarioKind::Downscale)
    };
    // Each schedule kills a rank just *before* a bcast + agree. Flood-set
    // freezes failure knowledge on entry, so an untouched corpse lets that
    // commit pass and the scripted fallback edge legitimately never fires;
    // lattice widens on any death seen mid-exchange, so it fires every run.
    cfg.spec.agree = ulfm::AgreeImpl::Lattice;
    cfg
}

/// With the default ring algorithm a 6-rank allreduce crosses the
/// `allreduce.step` fault point 10 times, and the default model has 4
/// tensors — 40 hits per training step. Occurrence 125 therefore kills
/// the victim early in training step 3.
const FAIL_IN_STEP_3: u64 = 125;

#[test]
fn static_promotion_absorbs_failure_without_shrink() {
    let _g = lock();
    let promoted = Delta::new("elastic.policy.outcome.promoted");
    let decided = Delta::new("elastic.policy.decision.spare");
    let cfg = base(PolicyMode::Static(RecoveryArm::PromoteSpares), 1);
    let res = run_with_watchdog(cfg.clone(), "static promotion");
    // The spare fills the dead victim's slot: all five survivors plus the
    // promoted spare complete, at full strength.
    assert_eq!(
        res.completed(),
        cfg.workers,
        "spare must replace the victim"
    );
    for e in res.exits.iter().filter(|e| e.completed()) {
        assert_eq!(
            e.stats().unwrap().final_world,
            cfg.workers,
            "promotion must restore the world size"
        );
    }
    res.assert_consistent_state();
    assert!(decided.get() >= 1, "policy must have scored promotion");
    assert!(promoted.get() >= 1, "promotion must have completed");
    assert!(
        res.breakdowns.iter().any(|b| b.policy == Some("spare")),
        "some recovery episode must record the spare arm"
    );
}

#[test]
fn adaptive_with_cold_pool_commits_shrink() {
    let _g = lock();
    let shrunk = Delta::new("elastic.policy.decision.shrink");
    let promoted = Delta::new("elastic.policy.outcome.promoted");
    let cfg = base(PolicyMode::Adaptive, 0);
    let res = run_with_watchdog(cfg.clone(), "adaptive cold pool");
    // No spares, no checkpoint: the only feasible arm is the paper's
    // forward shrink, and the run looks exactly like the seed engine's.
    assert_eq!(res.completed(), cfg.workers - 1);
    res.assert_consistent_state();
    assert!(shrunk.get() >= 1, "adaptive must have committed shrink");
    assert_eq!(promoted.get(), 0, "nothing to promote");
}

#[test]
fn static_rollback_recomputes_from_checkpoint() {
    let _g = lock();
    let decided = Delta::new("elastic.policy.decision.rollback");
    let mut cfg = base(PolicyMode::Static(RecoveryArm::Rollback), 0);
    cfg.ckpt_every = 2;
    cfg.fail_at_op = FAIL_IN_STEP_3;
    let res = run_with_watchdog(cfg.clone(), "static rollback");
    assert_eq!(res.completed(), cfg.workers - 1);
    res.assert_consistent_state();
    assert!(decided.get() >= 1, "policy must have committed rollback");
    assert!(
        res.breakdowns.iter().any(|b| b.policy == Some("rollback")),
        "some recovery episode must record the rollback arm"
    );
    // The failure struck training step 3 with the newest checkpoint at
    // step 2: at least the victim's ring neighbours were already inside
    // step 3 and must therefore have re-executed it after the restore —
    // the recompute cost forward recovery exists to avoid.
    let recomputed: u64 = res
        .exits
        .iter()
        .filter_map(|e| e.stats())
        .map(|s| s.steps_recomputed)
        .sum();
    assert!(
        recomputed >= 1,
        "rollback must recompute the work since the checkpoint"
    );
}

#[test]
fn spare_dead_before_ticket_downgrades_to_shrink_in_commit() {
    let _g = lock();
    let unavailable = Delta::new("ulfm.policy.spare_unavailable");
    let decided = Delta::new("elastic.policy.decision.spare");
    let mut cfg = base(PolicyMode::Static(RecoveryArm::PromoteSpares), 1);
    // The spare announces (so members start training) and dies before it
    // can ever consume a ticket: the pool looks warm to the scorer but is
    // cold at commit time.
    cfg.extra_faults = FaultPlan::none().kill_at_point(RankId(cfg.workers), "join.ticket", 1);
    let res = run_with_watchdog(cfg.clone(), "spare dead before ticket");
    assert_eq!(res.completed(), cfg.workers - 1);
    res.assert_consistent_state();
    assert!(decided.get() >= 1, "the scorer saw a (stale) warm pool");
    assert!(
        unavailable.get() >= 1,
        "the commit must downgrade an empty pool to shrink"
    );
}

#[test]
fn spare_killed_with_committed_ticket_falls_back_to_shrink() {
    let _g = lock();
    let fallback = Delta::new("elastic.policy.fallback.spare_to_shrink");
    let mut cfg = base(PolicyMode::Static(RecoveryArm::PromoteSpares), 1);
    // The promotion commits — the spare holds its ticket — and then the
    // spare dies before the state sync can reach it: the sync's
    // RanksAlive bound trips and survivors fall back to the shrink redo.
    cfg.extra_faults = FaultPlan::none().kill_at_point(RankId(cfg.workers), "join.merge", 1);
    let res = run_with_watchdog(cfg.clone(), "spare killed mid-promotion");
    assert_eq!(
        res.completed(),
        cfg.workers - 1,
        "survivors must converge shrunk after the failed promotion"
    );
    res.assert_consistent_state();
    assert!(
        fallback.get() >= 1,
        "the failed promotion must fall back to shrink"
    );
    assert!(
        res.breakdowns
            .iter()
            .any(|b| b.policy == Some("spare->shrink")),
        "some episode must record the chained arm"
    );
}

#[test]
fn survivor_killed_during_rollback_sync_falls_back_to_shrink() {
    let _g = lock();
    let fallback = Delta::new("elastic.policy.fallback.rollback_to_shrink");
    let mut cfg = base(PolicyMode::Static(RecoveryArm::Rollback), 0);
    cfg.ckpt_every = 2;
    cfg.fail_at_op = FAIL_IN_STEP_3;
    // A second survivor dies inside the checkpoint broadcast: the rollback
    // arm's single-shot bound trips and the (re-shrunk) survivors redo
    // from retained inputs instead.
    cfg.extra_faults = FaultPlan::none().kill_at_point(RankId(1), "ckpt.sync", 1);
    let res = run_with_watchdog(cfg.clone(), "cascade into rollback sync");
    assert_eq!(res.completed(), cfg.workers - 2);
    res.assert_consistent_state();
    assert!(
        fallback.get() >= 1,
        "the broken rollback must fall back to shrink"
    );
    assert!(
        res.breakdowns
            .iter()
            .any(|b| b.policy == Some("rollback->shrink")),
        "some episode must record the chained arm"
    );
}

#[test]
fn death_inside_policy_round_falls_back_to_shrink() {
    let _g = lock();
    let fallback = Delta::new("elastic.policy.fallback.round_to_shrink");
    let mut cfg = base(PolicyMode::Adaptive, 0);
    // A survivor dies inside the policy commit itself — before any arm is
    // even decided. The round's failed commit is the fallback edge here.
    cfg.extra_faults = FaultPlan::none().kill_at_point(RankId(1), "policy.round", 1);
    let res = run_with_watchdog(cfg.clone(), "death inside policy round");
    assert_eq!(res.completed(), cfg.workers - 2);
    res.assert_consistent_state();
    assert!(
        fallback.get() >= 1,
        "a failed policy round must fall back to shrink"
    );
}

#[test]
fn cascade_below_floor_during_promotion_aborts_uniformly() {
    let _g = lock();
    let aborted = Delta::new("elastic.policy.fallback.to_abort");
    let mut cfg = base(PolicyMode::Static(RecoveryArm::PromoteSpares), 1);
    cfg.workers = 5;
    cfg.ranks_per_node = 5;
    cfg.spec.min_workers = 4;
    // The full chain: promotion commits, then the cascade kills both the
    // ticketed spare and a survivor during the sync, shrinking the group
    // below the floor — the chain's terminal edge.
    cfg.extra_faults = FaultPlan::none()
        .kill_at_point(RankId(cfg.workers), "join.merge", 1)
        .kill_at_point(RankId(1), "ckpt.sync", 1);
    let res = run_with_watchdog(cfg.clone(), "cascade below floor");
    assert_eq!(res.completed(), 0, "below the floor nobody may complete");
    let aborts = res
        .exits
        .iter()
        .filter(|e| matches!(e, WorkerExit::Aborted(_)))
        .count();
    assert_eq!(
        aborts, 3,
        "every survivor of the cascade must abort cleanly (got {:?})",
        res.exits
    );
    assert!(
        aborted.get() >= 1,
        "the chain's terminal abort edge must be recorded"
    );
}

#[test]
fn unneeded_spares_are_dismissed_at_completion() {
    let _g = lock();
    let dismissed = Delta::new("elastic.spare.dismissed");
    let mut cfg = ScenarioConfig {
        spares: 1,
        policy_mode: PolicyMode::Static(RecoveryArm::PromoteSpares),
        ..ScenarioConfig::quick(Engine::UlfmForward, ScenarioKind::Upscale)
    };
    cfg.joiners = 0; // fault-free run: the pool is never needed
    let res = run_with_watchdog(cfg.clone(), "spare dismissal");
    assert_eq!(res.completed(), cfg.workers);
    res.assert_consistent_state();
    assert!(dismissed.get() >= 1, "the unused spare must be dismissed");
    // The spare's exit rides after members and joiners: a clean non-event.
    let spare_exit = res.exits.last().expect("spare exit present");
    assert!(
        matches!(spare_exit, WorkerExit::Aborted(s) if s.steps_done == 0),
        "a dismissed spare leaves quietly with zero steps (got {spare_exit:?})"
    );
}

/// Deterministic replay: the same policy schedule twice gives bit-identical
/// final state, including through a fallback edge.
#[test]
fn policy_recovery_is_reproducible() {
    let _g = lock();
    let run = || {
        let mut cfg = base(PolicyMode::Static(RecoveryArm::PromoteSpares), 1);
        cfg.extra_faults = FaultPlan::none().kill_at_point(RankId(cfg.workers), "join.merge", 1);
        let res = run_with_watchdog(cfg, "reproducible fallback");
        res.assert_consistent_state()
    };
    assert_eq!(run(), run(), "fallback recovery must be deterministic");
}

//! Cascade sweep: a *second* kill landing at every named fault point
//! inside the recovery machinery itself (`agree.round`, `shrink.attempt`,
//! `join.ticket`, `join.merge`, `ckpt.sync`), for both engines and
//! p ∈ {3, 4, 5}.
//!
//! The property under test is the tentpole claim: recovery paths are
//! re-entrant. A rank dying mid-agreement, mid-shrink, mid-join-handshake
//! or mid-checkpoint-broadcast must not hang the group or diverge the
//! replicas — every completing worker ends on the same agreed group with a
//! bit-identical model. A schedule that shrinks the world below
//! `min_workers` must instead end with every survivor returning
//! `WorkerExit::Aborted` under the watchdog, with the abort episode
//! visible in telemetry.
//!
//! ULFM-only points (`agree.round`, `shrink.attempt`, `join.*`) never fire
//! on the Gloo backward engine; those schedules degenerate to the
//! single-failure case there, which must still complete consistently —
//! scheduling a fault at a point an engine never reaches is a no-op, not
//! an error.

use elastic::scenario::{Engine, ScenarioKind};
use elastic::{run_scenario, RecoveryKind, ScenarioConfig, TrainSpec, WorkerExit};
use std::sync::mpsc;
use std::time::Duration;
use transport::{FaultPlan, RankId};

/// Per-scenario wall-clock budget. Overridable for slow CI machines (or
/// for patient local debugging) with `CHAOS_WATCHDOG_SECS`.
fn watchdog() -> Duration {
    let secs = std::env::var("CHAOS_WATCHDOG_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120u64);
    Duration::from_secs(secs)
}

/// The named fault points inside the recovery machinery (tentpole §1).
const RECOVERY_POINTS: [&str; 5] = [
    "agree.round",
    "shrink.attempt",
    "join.ticket",
    "join.merge",
    "ckpt.sync",
];

/// The fault points inside the lattice-agreement fast path. Scheduling a
/// kill at one of these switches the scenario to `AgreeImpl::Lattice` (the
/// flood protocol never passes them); on the Gloo backward engine they
/// never fire at all and the schedule degenerates to a single failure.
const LATTICE_POINTS: [&str; 3] = ["lattice.propose", "lattice.ack", "lattice.decide"];

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
                "cascade {label} DEADLOCKED after {:?} (override with CHAOS_WATCHDOG_SECS)\n\
                 replay: train-seed={} victim=rank{} fail_at_op={} extra_faults={:?}\n\
                 full schedule: {cfg:?}",
                watchdog(),
                cfg.spec.seed,
                cfg.victim,
                cfg.fail_at_op,
                cfg.extra_faults,
            )
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            panic!("cascade {label} worker panicked: {cfg:?}")
        }
    }
}

/// Derive the double-fault schedule for one (engine, point, p) cell.
///
/// The primary victim is always rank 0, killed inside the first step's
/// allreduce so recovery machinery is guaranteed to run. The second kill
/// then lands *inside* that machinery:
/// - `agree.round` occurrence 2 — between flood-set rounds of the
///   recovery agreement;
/// - `shrink.attempt` occurrence 1 — at the start of the victim's first
///   shrink generation;
/// - `join.merge` occurrence 1 — on the post-shrink join leader (rank 1),
///   at the handshake entry (Replace, so a joiner is pending);
/// - `join.ticket` occurrence 1 — on the joiner itself (global rank p),
///   right after it announces and before its ticket is consumed;
/// - `ckpt.sync` occurrence 1 — during the post-merge checkpoint
///   broadcast (forward) / at the rank's first checkpoint (backward).
fn cascade_config(engine: Engine, point: &'static str, p: usize) -> ScenarioConfig {
    let (kind, joiners) = match point {
        "join.ticket" | "join.merge" | "ckpt.sync" => (ScenarioKind::Replace, 1),
        _ => (ScenarioKind::Downscale, 0),
    };
    let (second, occurrence) = match point {
        "join.ticket" => (p, 1), // the joiner registers as global rank p
        "agree.round" => (1, 2),
        _ => (1, 1),
    };
    // A kill scheduled inside the lattice protocol only fires when that
    // protocol is the active agreement implementation.
    let agree = if point.starts_with("lattice.") {
        ulfm::AgreeImpl::Lattice
    } else {
        ulfm::AgreeImpl::Flood
    };
    ScenarioConfig {
        spec: TrainSpec {
            total_steps: 6,
            steps_per_epoch: 3,
            seed: 7700 + p as u64,
            agree,
            ..TrainSpec::default()
        },
        workers: p,
        ranks_per_node: 1,
        victim: 0,
        fail_at_op: 3,
        joiners,
        extra_faults: FaultPlan::none().kill_at_point(RankId(second), point, occurrence),
        ..ScenarioConfig::quick(engine, kind)
    }
}

fn check_cell(engine: Engine, point: &'static str, p: usize) {
    let cfg = cascade_config(engine, point, p);
    let label = format!("{engine:?}/{point}/p{p}");
    let total = cfg.workers
        + match cfg.kind {
            ScenarioKind::Downscale => 0,
            _ => cfg.joiners,
        };
    let res = run_with_watchdog(cfg.clone(), &label);

    assert_eq!(res.exits.len(), total, "{label}: lost a worker exit");
    let died = res
        .exits
        .iter()
        .filter(|e| matches!(e, WorkerExit::Died))
        .count();
    assert!(died <= 2, "{label}: {died} deaths, only two are scripted");
    let completed = res.completed();
    assert!(completed >= 1, "{label}: no survivor completed");
    assert!(
        !res.exits
            .iter()
            .any(|e| matches!(e, WorkerExit::Aborted(_))),
        "{label}: default min_workers must never abort"
    );

    // Survivor state is keyed to the final agreed group: every completing
    // worker must report the same final world, that world must equal the
    // completer count (dead ranks are out, everyone else is in), and the
    // model replicas must be bit-identical.
    let worlds: Vec<usize> = res
        .exits
        .iter()
        .filter(|e| e.completed())
        .filter_map(|e| e.stats().map(|s| s.final_world))
        .collect();
    assert!(
        worlds.iter().all(|&w| w == completed),
        "{label}: final worlds {worlds:?} disagree with {completed} completers"
    );
    res.assert_consistent_state();
}

#[test]
fn forward_cascade_sweep() {
    for point in RECOVERY_POINTS {
        for p in 3..=5 {
            check_cell(Engine::UlfmForward, point, p);
        }
    }
}

#[test]
fn backward_cascade_sweep() {
    for point in RECOVERY_POINTS {
        for p in 3..=5 {
            check_cell(Engine::GlooBackward, point, p);
        }
    }
}

#[test]
fn forward_lattice_cascade_sweep() {
    // The second kill lands *inside* the lattice agreement itself: at a
    // round entry (widened into the in-flight proposal), between a round's
    // send and receive phases, or right before the decide echo. Survivors
    // must converge to one view with bit-identical replicas.
    for point in LATTICE_POINTS {
        for p in 3..=5 {
            check_cell(Engine::UlfmForward, point, p);
        }
    }
}

#[test]
fn backward_lattice_cascade_sweep() {
    // The Gloo backward engine never runs ULFM agreement, so `lattice.*`
    // points never fire there — the cell must degenerate to a clean
    // single-failure recovery, not an error.
    for point in LATTICE_POINTS {
        for p in 3..=5 {
            check_cell(Engine::GlooBackward, point, p);
        }
    }
}

// ---------------------------------------------------------------------------
// Below-minimum shutdown: the cascade drains the group past the floor.
// ---------------------------------------------------------------------------

/// Two kills against a `min_workers = 3` floor on a 4-worker group: the
/// second death lands inside the recovery machinery, the shrunk world (2)
/// is below the floor, and every survivor must return
/// `WorkerExit::Aborted` — no hang, no degenerate training.
fn below_floor_config(engine: Engine, second_point: &'static str) -> ScenarioConfig {
    ScenarioConfig {
        spec: TrainSpec {
            total_steps: 6,
            steps_per_epoch: 3,
            seed: 8800,
            min_workers: 3,
            ..TrainSpec::default()
        },
        workers: 4,
        ranks_per_node: 1,
        victim: 0,
        fail_at_op: 3,
        joiners: 0,
        extra_faults: FaultPlan::none().kill_at_point(RankId(1), second_point, 1),
        ..ScenarioConfig::quick(engine, ScenarioKind::Downscale)
    }
}

fn check_below_floor(engine: Engine, second_point: &'static str) {
    let label = format!("{engine:?}/below-floor");
    let res = run_with_watchdog(below_floor_config(engine, second_point), &label);
    assert_eq!(res.exits.len(), 4, "{label}: lost a worker exit");
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
    assert_eq!(died, 2, "{label}: both scripted victims must die");
    assert_eq!(
        aborted, 2,
        "{label}: every survivor must abort below the floor (exits: {:?})",
        res.exits
    );
    assert_eq!(
        res.completed(),
        0,
        "{label}: nobody may train below the floor"
    );
    assert!(
        res.breakdowns.iter().any(|b| b.kind == RecoveryKind::Abort),
        "{label}: the abort must be recorded as a recovery episode"
    );
    let snap = telemetry::snapshot();
    assert!(
        snap.counters
            .get("elastic.abort.below_min")
            .copied()
            .unwrap_or(0)
            >= 2,
        "{label}: below-min aborts must be counted in telemetry"
    );
}

#[test]
fn forward_below_floor_aborts_all_survivors() {
    // The second victim dies mid-shrink: the cascade completes inside one
    // recovery episode and lands straight on the floor check.
    check_below_floor(Engine::UlfmForward, "shrink.attempt");
}

#[test]
fn backward_below_floor_aborts_all_survivors() {
    // The backward engine never runs ULFM shrink; its second victim dies
    // at its first checkpoint instead.
    check_below_floor(Engine::GlooBackward, "ckpt.sync");
}

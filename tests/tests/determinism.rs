//! Reproducibility across the whole stack: identical seeds and fault
//! schedules give identical training outcomes — and identical telemetry
//! counter values — run to run.

use elastic::scenario::{Engine, ScenarioKind};
use elastic::{run_scenario, PolicyMode, ScenarioConfig, TrainSpec};
use std::sync::{Mutex, MutexGuard, OnceLock};
use ulfm::RecoveryArm;

/// The telemetry registry is process-global, so every test in this binary
/// serializes through one lock; the telemetry test below can then reset
/// and snapshot the registry without interference.
fn lock() -> MutexGuard<'static, ()> {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    M.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn cfg(engine: Engine, kind: ScenarioKind) -> ScenarioConfig {
    ScenarioConfig {
        spec: TrainSpec {
            total_steps: 8,
            steps_per_epoch: 4,
            ..TrainSpec::default()
        },
        ..ScenarioConfig::quick(engine, kind)
    }
}

#[test]
fn forward_scenario_is_reproducible() {
    let _g = lock();
    let a = run_scenario(&cfg(Engine::UlfmForward, ScenarioKind::Downscale));
    let b = run_scenario(&cfg(Engine::UlfmForward, ScenarioKind::Downscale));
    assert_eq!(
        a.assert_consistent_state(),
        b.assert_consistent_state(),
        "same seed + same fault schedule must give the same final model"
    );
    assert_eq!(a.completed(), b.completed());
}

#[test]
fn backward_scenario_is_reproducible() {
    let _g = lock();
    let a = run_scenario(&cfg(Engine::GlooBackward, ScenarioKind::Downscale));
    let b = run_scenario(&cfg(Engine::GlooBackward, ScenarioKind::Downscale));
    assert_eq!(a.assert_consistent_state(), b.assert_consistent_state());
}

#[test]
fn different_seeds_give_different_models() {
    let _g = lock();
    let mut c1 = cfg(Engine::UlfmForward, ScenarioKind::Downscale);
    let mut c2 = cfg(Engine::UlfmForward, ScenarioKind::Downscale);
    c1.spec.seed = 1;
    c2.spec.seed = 2;
    let a = run_scenario(&c1);
    let b = run_scenario(&c2);
    assert_ne!(a.assert_consistent_state(), b.assert_consistent_state());
}

/// Victim identity does not affect the *survivors'* convergence guarantee:
/// every choice of victim yields a consistent surviving replica set.
#[test]
fn any_victim_keeps_replicas_consistent() {
    let _g = lock();
    for victim in [0usize, 1, 3, 5] {
        let mut c = cfg(Engine::UlfmForward, ScenarioKind::Downscale);
        c.victim = victim;
        let res = run_scenario(&c);
        assert_eq!(res.completed(), c.workers - 1, "victim {victim}");
        res.assert_consistent_state();
    }
}

/// Fault timing sweep: failures injected at different protocol steps all
/// recover consistently (early, mid, late in the allreduce sequence).
#[test]
fn any_fault_timing_recovers() {
    let _g = lock();
    for fail_at in [1u64, 2, 5, 9, 14, 20] {
        let mut c = cfg(Engine::UlfmForward, ScenarioKind::Downscale);
        c.fail_at_op = fail_at;
        let res = run_scenario(&c);
        assert_eq!(res.completed(), c.workers - 1, "fail_at {fail_at}");
        res.assert_consistent_state();
    }
}

/// Telemetry determinism: an identical fault-free run produces identical
/// counter values and identical histogram/episode *counts* (durations are
/// wall-clock and therefore excluded). Fault-free, because failure timing
/// is racy by design: which worker observes PeerFailed vs Revoked varies,
/// and with it the retry counters.
#[test]
fn telemetry_counters_are_deterministic() {
    let _g = lock();
    let run = || {
        telemetry::reset();
        let mut c = cfg(Engine::UlfmForward, ScenarioKind::Upscale);
        c.joiners = 0; // no join service polling; fully deterministic
        let res = run_scenario(&c);
        assert_eq!(res.completed(), c.workers);
        res.assert_consistent_state();
        let snap = telemetry::snapshot();
        let hist_counts: Vec<(String, u64)> = snap
            .histograms
            .iter()
            .map(|(name, h)| (name.clone(), h.count))
            .collect();
        (snap.counters.clone(), hist_counts, snap.episodes.len())
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "counter values diverged between identical runs");
    assert_eq!(a.1, b.1, "span counts diverged between identical runs");
    assert_eq!(a.2, b.2, "episode counts diverged between identical runs");
}

/// One row of the cross-commit characterization table below.
struct Golden {
    label: &'static str,
    cfg: ScenarioConfig,
    /// Common state fingerprint of the workers that completed.
    fingerprint: u64,
    /// Distinct `Kind: phase,phase,…` sequences over all recorded episodes,
    /// sorted.
    phases: &'static [&'static str],
    /// Distinct `RecoveryBreakdown::policy` labels, sorted.
    policies: &'static [&'static str],
}

fn policy_cfg(mode: PolicyMode, spares: usize) -> ScenarioConfig {
    let mut c = cfg(Engine::UlfmForward, ScenarioKind::Downscale);
    c.policy_mode = mode;
    c.spares = spares;
    // Lattice agreement, as in `policy_chaos.rs::base()`.
    c.spec.agree = ulfm::AgreeImpl::Lattice;
    c
}

/// Behaviour pinned *across commits*: the tests above only compare a run
/// with itself, so a refactor that changed the recovery protocol for every
/// run alike would pass them. These constants were captured from the engine
/// before its step drivers were restructured; a change that moves one has
/// changed what the survivors compute or which phases an episode runs.
#[test]
fn golden_fingerprints_and_phase_sequences() {
    let _g = lock();
    const FWD: &str = "Forward: revoke,agree,shrink";
    let mut fused = cfg(Engine::UlfmForward, ScenarioKind::Downscale);
    fused.spec.fusion = Some(1024);
    let mut rollback = policy_cfg(PolicyMode::Static(RecoveryArm::Rollback), 0);
    rollback.ckpt_every = 2;
    rollback.fail_at_op = 125; // policy_chaos.rs::FAIL_IN_STEP_3
    let table = [
        Golden {
            label: "forward downscale",
            cfg: cfg(Engine::UlfmForward, ScenarioKind::Downscale),
            fingerprint: 0x98153630be905e82,
            phases: &[FWD],
            policies: &[],
        },
        Golden {
            label: "forward replace",
            cfg: cfg(Engine::UlfmForward, ScenarioKind::Replace),
            fingerprint: 0x823cc264903a6e5e,
            phases: &[FWD, "Join: state_sync"],
            policies: &[],
        },
        Golden {
            label: "forward upscale",
            cfg: cfg(Engine::UlfmForward, ScenarioKind::Upscale),
            fingerprint: 0x2f26c2fdf46df2f6,
            phases: &["Join: state_sync"],
            policies: &[],
        },
        Golden {
            label: "backward downscale",
            cfg: cfg(Engine::GlooBackward, ScenarioKind::Downscale),
            fingerprint: 0xa7b78dcb05afec23,
            phases: &[
                "Backward: catch_exception,shutdown,reinit_elastic,rendezvous,reinit_gloo,\
                 load_checkpoint",
                "Join: rendezvous,reinit_gloo,load_checkpoint",
            ],
            policies: &[],
        },
        Golden {
            label: "forward downscale, fused 1 KiB",
            cfg: fused,
            fingerprint: 0x0190d763f135a5a1,
            phases: &[FWD],
            policies: &[],
        },
        Golden {
            label: "policy: adaptive, cold pool (shrink arm)",
            cfg: policy_cfg(PolicyMode::Adaptive, 0),
            fingerprint: 0x98153630be905e82,
            phases: &["Forward: revoke,agree,shrink,policy_commit"],
            policies: &["shrink"],
        },
        Golden {
            label: "policy: static promotion (spare arm)",
            cfg: policy_cfg(PolicyMode::Static(RecoveryArm::PromoteSpares), 1),
            fingerprint: 0x501e0593a30ca52b,
            phases: &[
                "Forward: revoke,agree,shrink,policy_commit,state_sync",
                "Join: state_sync",
            ],
            policies: &["spare"],
        },
        Golden {
            label: "policy: static rollback (rollback arm)",
            cfg: rollback,
            fingerprint: 0x0a4617901fa27e99,
            phases: &["Forward: revoke,agree,shrink,policy_commit,state_sync"],
            policies: &["rollback"],
        },
    ];
    let mut wrong = Vec::new();
    for row in &table {
        let res = run_scenario(&row.cfg);
        let fp = res.assert_consistent_state();
        let mut phases: Vec<String> = res
            .breakdowns
            .iter()
            .map(|b| {
                let names: Vec<&str> = b.phases.iter().map(|p| p.name).collect();
                format!("{:?}: {}", b.kind, names.join(","))
            })
            .collect();
        phases.sort();
        phases.dedup();
        let mut policies: Vec<&str> = res.breakdowns.iter().filter_map(|b| b.policy).collect();
        policies.sort_unstable();
        policies.dedup();
        if fp != row.fingerprint {
            wrong.push(format!("{}: fingerprint {fp:016x}", row.label));
        }
        if phases != row.phases {
            wrong.push(format!("{}: phases {phases:?}", row.label));
        }
        if policies != row.policies {
            wrong.push(format!("{}: policies {policies:?}", row.label));
        }
    }
    assert!(
        wrong.is_empty(),
        "golden table moved:\n{}",
        wrong.join("\n")
    );
}

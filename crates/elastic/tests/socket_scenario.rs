//! Scenario runs on the socket backends, in-process edition: every rank
//! is a thread, but bytes travel through real TCP / Unix-domain sockets
//! and failure detection goes through EOF/suspicion instead of the shared
//! alive table. The scenario runner is the same one the in-process fabric
//! uses, so the last test holds every scenario kind to the in-process
//! fingerprint. The multi-*process* version of the same story lives in
//! `crates/bench/tests/multiproc.rs`; this test keeps the socket path in
//! the ordinary `cargo test` loop, where it is cheap and debuggable.

use elastic::scenario::{Engine, ScenarioKind};
use elastic::{run_scenario, ScenarioConfig, TrainSpec, WorkerExit};
use transport::BackendKind;

fn socket_cfg(backend: BackendKind, victim_dies: bool) -> ScenarioConfig {
    ScenarioConfig {
        spec: TrainSpec {
            total_steps: 12,
            steps_per_epoch: 4,
            min_workers: 2,
            ..TrainSpec::default()
        },
        workers: 3,
        ranks_per_node: 3,
        victim: 1,
        // A fail_at_op beyond the run's fault-point hits never fires — the
        // standard way to express "nobody dies" in a scenario config.
        fail_at_op: if victim_dies { 5 } else { u64::MAX },
        backend,
        ..ScenarioConfig::quick(Engine::UlfmForward, ScenarioKind::Downscale)
    }
}

#[test]
fn tcp_downscale_survivors_agree_and_finish() {
    let res = run_scenario(&socket_cfg(BackendKind::Tcp, true));
    assert_eq!(res.completed(), 2, "exits: {:?}", res.exits);
    assert!(
        matches!(res.exits[1], WorkerExit::Died),
        "victim must die: {:?}",
        res.exits[1]
    );
    res.assert_consistent_state();
}

#[test]
fn unix_downscale_survivors_agree_and_finish() {
    let res = run_scenario(&socket_cfg(BackendKind::Unix, true));
    assert_eq!(res.completed(), 2, "exits: {:?}", res.exits);
    res.assert_consistent_state();
}

#[test]
fn tcp_upscale_admits_network_joiner() {
    // Scenario III over sockets: a fresh worker binds its own listener,
    // discovers the members through the rendezvous store, dials in, and is
    // admitted at an epoch boundary. All four replicas must converge.
    let cfg = ScenarioConfig {
        kind: ScenarioKind::Upscale,
        joiners: 1,
        ..socket_cfg(BackendKind::Tcp, false)
    };
    let res = run_scenario(&cfg);
    assert_eq!(res.completed(), 4, "exits: {:?}", res.exits);
    res.assert_consistent_state();
}

#[test]
fn unix_replace_swaps_dead_worker_for_joiner() {
    // Scenario II over Unix sockets: the victim dies mid-allreduce (EOF on
    // its links), survivors shrink, and a replacement joiner restores the
    // worker count.
    let cfg = ScenarioConfig {
        kind: ScenarioKind::Replace,
        joiners: 1,
        ..socket_cfg(BackendKind::Unix, true)
    };
    let res = run_scenario(&cfg);
    assert_eq!(res.completed(), 3, "exits: {:?}", res.exits);
    assert!(
        matches!(res.exits[1], WorkerExit::Died),
        "victim must die: {:?}",
        res.exits[1]
    );
    res.assert_consistent_state();
}

/// A kill point that `fail_at_op` never reaches: nobody dies.
const NEVER: u64 = u64::MAX;

/// The victim's third protocol step, inside the run's first allreduce
/// (four steps at p = 3): no survivor can finish that op, so every survivor
/// restarts at op 0 whatever the timing. After a later kill a slow survivor
/// can still be an op behind the victim when the revocation reaches it, and
/// the agreed restart op, with the fingerprint, then depends on timing on
/// either link.
const FIRST_OP: u64 = 3;

/// Run one scenario kind over `backend` and in process, the victim dying
/// at `fail_at_op`: both must finish with `completed` workers and the same
/// model fingerprint.
fn matches_inproc_fingerprint(
    kind: ScenarioKind,
    backend: BackendKind,
    fail_at_op: u64,
    completed: usize,
) {
    let cfg = |backend| ScenarioConfig {
        kind,
        joiners: 1,
        fail_at_op,
        ..socket_cfg(backend, true)
    };
    let sock = run_scenario(&cfg(backend));
    let inproc = run_scenario(&cfg(BackendKind::InProc));
    assert_eq!(
        sock.completed(),
        completed,
        "{kind:?}: exits: {:?}",
        sock.exits
    );
    assert_eq!(
        inproc.completed(),
        completed,
        "{kind:?}: exits: {:?}",
        inproc.exits
    );
    assert_eq!(
        sock.assert_consistent_state(),
        inproc.assert_consistent_state(),
        "{kind:?} over {backend:?}: transport choice leaked into training state"
    );
}

#[test]
fn tcp_clean_run_matches_inproc_fingerprint() {
    // Same seed, same membership, same fault schedule: the model fingerprint
    // must not depend on which transport carried the gradients — in a clean
    // run, and in each scenario kind.
    matches_inproc_fingerprint(ScenarioKind::Downscale, BackendKind::Tcp, NEVER, 3);
    for (kind, fail_at_op, completed) in [
        (ScenarioKind::Downscale, FIRST_OP, 2),
        (ScenarioKind::Replace, FIRST_OP, 3),
        (ScenarioKind::Upscale, NEVER, 4),
    ] {
        matches_inproc_fingerprint(kind, BackendKind::Unix, fail_at_op, completed);
    }
}

//! Scenario orchestration: scripts the paper's three elasticity scenarios
//! (§3.3) over either engine and collects per-worker outcomes and recovery
//! breakdowns. Used by the integration tests, the examples, and the
//! benches that regenerate the paper's figures.
//!
//! One runner serves every backend and both engines: a scenario is three
//! [`Universe::spawn_batch`] calls — members, warm spares, joiners — on a
//! universe over a [`Mesh`], and only the mesh knows whether the ranks sit
//! on the in-process fabric or on a socket mesh.

use crate::backward::{run_backward_worker, BackwardConfig, ElasticDriver};
use crate::config::{RecoveryPolicy, TrainSpec, WorkerExit};
use crate::forward::{run_forward_role, ForwardConfig, Role};
use crate::policy::PolicyMode;
use crate::profiler::{mean_breakdown, RecoveryBreakdown, RecoveryKind};
use std::sync::Arc;
use std::time::{Duration, Instant};
use transport::{BackendKind, FabricStats, FaultPlan, Mesh, PerturbPlan, RankId, Topology};
use ulfm::{Proc, Universe, WorkerHandle};

/// Which of the paper's dynamic-training scenarios to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Scenario I — "Down": drop the failed process/node and continue with
    /// the survivors.
    Downscale,
    /// Scenario II — "Same": replace the failed capacity with fresh
    /// workers so the worker count recovers.
    Replace,
    /// Scenario III — "Up": no failure; new workers join mid-run and the
    /// group grows.
    Upscale,
}

/// Which engine to run the scenario on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// ULFM forward recovery (the paper's approach).
    UlfmForward,
    /// Gloo + checkpoint backward recovery (Elastic Horovod baseline).
    GlooBackward,
}

/// Full scenario description.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Engine under test.
    pub engine: Engine,
    /// The training workload.
    pub spec: TrainSpec,
    /// Initial worker count.
    pub workers: usize,
    /// Workers per node (Summit: 6).
    pub ranks_per_node: usize,
    /// Eviction policy.
    pub policy: RecoveryPolicy,
    /// The scenario to script.
    pub kind: ScenarioKind,
    /// Victim of the injected failure (Downscale/Replace). Dies at its
    /// `fail_at_op`-th allreduce protocol step.
    pub victim: usize,
    /// Which occurrence of the victim's `allreduce.step` fault point kills
    /// it (lets tests target a specific step/tensor).
    pub fail_at_op: u64,
    /// How many joiners to add (Replace: usually = evicted count;
    /// Upscale: the growth amount).
    pub joiners: usize,
    /// Forward engine: renormalize degraded steps.
    pub renormalize: bool,
    /// Optional adversarial link schedule (drops/dups/corruption/reorder/
    /// delay), healed by the transport's retransmission layer.
    pub perturb: Option<PerturbPlan>,
    /// Optional engine-level failure-detection deadline: a collective that
    /// stalls on a silent peer past this converts the hang into a peer-death
    /// report (ULFM suspicion) instead of blocking forever. `None` keeps
    /// the [`Mesh`]'s default: no deadline in process, and 5 s over sockets,
    /// whose peers share no alive table.
    pub suspicion_timeout: Option<Duration>,
    /// Extra fault triggers merged into the scripted victim's plan — lets
    /// tests and `repro` express multi-victim and during-recovery cascades
    /// (e.g. a second kill at `shrink.attempt` or `ckpt.sync`).
    pub extra_faults: FaultPlan,
    /// Transport backend the workers communicate over. `InProc` (the
    /// default) is the shared-memory fabric; `Tcp`/`Unix` run every worker
    /// over a real socket mesh. Joins rendezvous through the universe's one
    /// KV store ([`ulfm::NetJoin`]) on every backend, so the forward engine
    /// runs all three scenarios on all of them. The backward engine runs
    /// in process only, and panics on a socket backend.
    pub backend: BackendKind,
    /// Warm spares to pre-join the pool (forward engine; the backward
    /// engine panics on any): started at launch, promoted only by a
    /// recovery's policy round, dismissed at completion. They are numbered
    /// before the joiners, and their exits append after members and joiners.
    pub spares: usize,
    /// Recovery-arm selection for the forward engine's policy layer. The
    /// default (static shrink) keeps the seed behavior.
    pub policy_mode: PolicyMode,
    /// Forward engine: capture a local checkpoint every this many steps
    /// (the rollback arm's restore source); 0 disables.
    pub ckpt_every: u64,
}

impl ScenarioConfig {
    /// A small, fast default scenario (used by tests/examples).
    pub fn quick(engine: Engine, kind: ScenarioKind) -> Self {
        Self {
            engine,
            spec: TrainSpec::default(),
            workers: 6,
            ranks_per_node: 3,
            policy: RecoveryPolicy::DropProcess,
            kind,
            victim: 2,
            fail_at_op: 7,
            joiners: 1,
            renormalize: false,
            perturb: None,
            suspicion_timeout: None,
            extra_faults: FaultPlan::none(),
            backend: BackendKind::InProc,
            spares: 0,
            policy_mode: PolicyMode::default(),
            ckpt_every: 0,
        }
    }
}

/// What a scenario produced.
#[derive(Debug)]
pub struct ScenarioResult {
    /// Exit of every worker: initial workers first, then joiners, then
    /// warm spares.
    pub exits: Vec<WorkerExit>,
    /// All recovery breakdowns from all workers.
    pub breakdowns: Vec<RecoveryBreakdown>,
    /// Wall-clock duration of the whole scenario.
    pub wall: Duration,
    /// Transport-layer counters for this scenario's links (retransmits,
    /// corrupt frames, suspicions, ...) — per-run, unlike the process-global
    /// telemetry registry. Over sockets, the sum over every rank's backend.
    pub fabric_stats: FabricStats,
}

impl ScenarioResult {
    /// Workers that trained to completion.
    pub fn completed(&self) -> usize {
        self.exits.iter().filter(|e| e.completed()).count()
    }

    /// Mean breakdown over workers for a given episode kind.
    pub fn mean_breakdown(&self, kind: RecoveryKind) -> Option<RecoveryBreakdown> {
        let of_kind: Vec<RecoveryBreakdown> = self
            .breakdowns
            .iter()
            .filter(|b| b.kind == kind)
            .cloned()
            .collect();
        mean_breakdown(&of_kind)
    }

    /// Assert that every completed worker holds bit-identical model state.
    /// Returns the common fingerprint.
    pub fn assert_consistent_state(&self) -> u64 {
        let fps: Vec<u64> = self
            .exits
            .iter()
            .filter(|e| e.completed())
            .filter_map(|e| e.stats().map(|s| s.state_fingerprint))
            .collect();
        assert!(!fps.is_empty(), "no worker completed");
        for w in fps.windows(2) {
            assert_eq!(w[0], w[1], "model replicas diverged");
        }
        fps[0]
    }
}

/// Run a scripted scenario to completion.
pub fn run_scenario(cfg: &ScenarioConfig) -> ScenarioResult {
    let metric = match cfg.engine {
        Engine::UlfmForward => "elastic.scenario.forward",
        Engine::GlooBackward => "elastic.scenario.backward",
    };
    telemetry::counter(&format!("{metric}.runs")).incr();
    let _span = telemetry::span(&format!("{metric}.wall_ns"));
    match cfg.engine {
        Engine::UlfmForward => run_forward(cfg),
        Engine::GlooBackward => run_backward(cfg),
    }
}

fn fault_plan(cfg: &ScenarioConfig) -> FaultPlan {
    let scripted = match cfg.kind {
        ScenarioKind::Upscale => FaultPlan::none(),
        _ => FaultPlan::none().kill_at_point(RankId(cfg.victim), "allreduce.step", cfg.fail_at_op),
    };
    scripted.merge(cfg.extra_faults.clone())
}

fn joiner_count(cfg: &ScenarioConfig) -> usize {
    match cfg.kind {
        ScenarioKind::Downscale => 0,
        _ => cfg.joiners,
    }
}

/// How long members wait at a boundary for an expected joiner or spare,
/// and a joiner or spare for its ticket: a newcomer that never comes ends
/// in a typed exit, not a hang.
const JOIN_WAIT: Duration = Duration::from_secs(10);

/// Forward recovery: every rank is a universe rank over its mesh endpoint,
/// and spares and joiners enter through the universe's join store exactly
/// as a fresh process does.
fn run_forward(cfg: &ScenarioConfig) -> ScenarioResult {
    let fwd_cfg = Arc::new(ForwardConfig {
        policy: cfg.policy,
        renormalize_after_loss: cfg.renormalize,
        policy_mode: cfg.policy_mode,
        expected_joiners: joiner_count(cfg),
        join_wait: Some(JOIN_WAIT),
        expected_spares: cfg.spares,
        ckpt_every: cfg.ckpt_every,
        ..ForwardConfig::new(cfg.spec.clone())
    });
    run_batches(cfg, |role| {
        let fwd_cfg = Arc::clone(&fwd_cfg);
        move |proc: Proc| {
            let out = run_forward_role(&proc, &fwd_cfg, role);
            (out.exit, out.breakdowns)
        }
    })
}

/// Backward recovery, in process only: the Gloo engine rendezvouses through
/// its driver's in-process store and has no warm spare pool.
fn run_backward(cfg: &ScenarioConfig) -> ScenarioResult {
    assert_eq!(
        cfg.backend,
        BackendKind::InProc,
        "the Gloo backward engine rendezvouses through the in-process store"
    );
    assert_eq!(cfg.spares, 0, "the Gloo backward engine has no spare pool");
    let initial = (0..cfg.workers).map(RankId).collect();
    let driver = ElasticDriver::new(Topology::new(cfg.ranks_per_node), initial);
    driver.set_min_workers(cfg.spec.min_workers);
    let bwd_cfg = Arc::new(BackwardConfig {
        spec: cfg.spec.clone(),
        policy: cfg.policy,
        checkpoint_every: 1,
        expected_new_workers: joiner_count(cfg),
    });
    run_batches(cfg, |role| {
        let (driver, bwd_cfg) = (Arc::clone(&driver), Arc::clone(&bwd_cfg));
        move |proc: Proc| {
            run_backward_worker(proc.endpoint(), &bwd_cfg, &driver, role == Role::Joiner)
        }
    })
}

/// Run a scenario's ranks as three batches of a universe over the mesh
/// `cfg.backend` names; `worker` gives each role its rank function. Members
/// and spares start at once; joiners wait for the trigger: a member's
/// worker returned (Replace — a scripted death always returns its worker)
/// or a dwell (Upscale). Newcomers are numbered spares first, then joiners;
/// exits come back members first, then joiners, then spares.
fn run_batches<W>(cfg: &ScenarioConfig, worker: impl Fn(Role) -> W) -> ScenarioResult
where
    W: Fn(Proc) -> (WorkerExit, Vec<RecoveryBreakdown>) + Send + Sync + Clone + 'static,
{
    let t0 = Instant::now();
    let topology = Topology::new(cfg.ranks_per_node);
    let mesh =
        Mesh::new(cfg.backend, topology, cfg.workers, fault_plan(cfg)).expect("scenario mesh");
    if let Some(plan) = &cfg.perturb {
        mesh.set_perturbation(plan.clone());
    }
    if cfg.suspicion_timeout.is_some() {
        mesh.set_suspicion_timeout(cfg.suspicion_timeout);
    }
    let universe = Universe::over(mesh);
    let spawn = |n, role| -> Vec<WorkerHandle<_>> {
        (universe.spawn_batch(n, worker(role))).expect("a universe over a mesh spawns")
    };
    let members = spawn(cfg.workers, Role::Member);
    let spares = spawn(cfg.spares, Role::Spare);
    let joiners = match joiner_count(cfg) {
        0 => Vec::new(),
        n if cfg.kind == ScenarioKind::Upscale => {
            std::thread::sleep(Duration::from_millis(10));
            spawn(n, Role::Joiner)
        }
        n => {
            while !members.iter().any(WorkerHandle::is_finished) {
                std::thread::sleep(Duration::from_millis(1));
            }
            spawn(n, Role::Joiner)
        }
    };
    let (exits, breakdowns): (Vec<_>, Vec<_>) = (members.into_iter().chain(joiners).chain(spares))
        .map(WorkerHandle::join)
        .unzip();
    ScenarioResult {
        exits,
        breakdowns: breakdowns.into_iter().flatten().collect(),
        wall: t0.elapsed(),
        fabric_stats: universe.mesh().expect("a universe over a mesh").stats(),
    }
}

//! Scenario orchestration: scripts the paper's three elasticity scenarios
//! (§3.3) over either engine and collects per-worker outcomes and recovery
//! breakdowns. Used by the integration tests, the examples, and the
//! benches that regenerate the paper's figures.
//!
//! One runner serves every backend and both engines: each rank is a thread
//! over its own endpoint (a peer-mode [`Universe`] for the forward engine),
//! and only a private `Mesh` knows whether the endpoints sit on the
//! in-process fabric or on a socket mesh.

use crate::backward::{run_backward_worker, BackwardConfig, ElasticDriver};
use crate::config::{RecoveryPolicy, TrainSpec, WorkerExit};
use crate::forward::{run_forward_role, ForwardConfig, Role};
use crate::policy::PolicyMode;
use crate::profiler::{mean_breakdown, RecoveryBreakdown, RecoveryKind};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};
use transport::{
    Backend, BackendKind, Endpoint, Fabric, FabricStats, FaultInjector, FaultPlan, PerturbPlan,
    RankId, SocketBackend, Topology,
};
use ulfm::{NetJoin, Universe};

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
    /// report (ULFM suspicion) instead of blocking forever. `None` means no
    /// deadline in process and 5 s over sockets, whose peers share no alive
    /// table.
    pub suspicion_timeout: Option<Duration>,
    /// Extra fault triggers merged into the scripted victim's plan — lets
    /// tests and `repro` express multi-victim and during-recovery cascades
    /// (e.g. a second kill at `shrink.attempt` or `ckpt.sync`).
    pub extra_faults: FaultPlan,
    /// Transport backend the workers communicate over. `InProc` (the
    /// default) is the shared-memory fabric; `Tcp`/`Unix` run every worker
    /// over a real socket mesh. Joins rendezvous through one shared KV
    /// store ([`ulfm::NetJoin`]) on every backend, so the forward engine
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

/// Hold the joiners back until the scenario's trigger condition: a fixed
/// dwell has passed (Upscale), or the failure has been seen (Replace).
fn await_join_trigger(kind: ScenarioKind, failure_seen: impl Fn() -> bool) {
    if kind == ScenarioKind::Upscale {
        std::thread::sleep(Duration::from_millis(10));
    } else {
        while !failure_seen() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// How long members wait at a boundary for an expected joiner or spare,
/// and a joiner or spare for its ticket: a newcomer that never comes ends
/// in a typed exit, not a hang.
const JOIN_WAIT: Duration = Duration::from_secs(10);

/// Forward recovery: every rank is a peer-mode universe over its mesh
/// endpoint, and all of them share one [`NetJoin`] over one in-memory store
/// (the stand-in for a launcher's store server), so spares and joiners
/// enter exactly as a fresh process does.
fn run_forward(cfg: &ScenarioConfig) -> ScenarioResult {
    let fwd_cfg = ForwardConfig {
        policy: cfg.policy,
        renormalize_after_loss: cfg.renormalize,
        policy_mode: cfg.policy_mode,
        expected_joiners: joiner_count(cfg),
        join_wait: Some(JOIN_WAIT),
        expected_spares: cfg.spares,
        ckpt_every: cfg.ckpt_every,
        ..ForwardConfig::new(cfg.spec.clone())
    };
    let fwd_cfg = &fwd_cfg;
    let store = gloo::KvStore::shared();
    let group: Vec<RankId> = (0..cfg.workers).map(RankId).collect();
    run_ranks(cfg, move |ep, contact, role| {
        let join = NetJoin::new(Arc::clone(&store), "scn/");
        let join = Arc::new(match contact {
            Some(addr) => join.with_contact(addr),
            None => join,
        });
        let (_universe, proc) = if role == Role::Member {
            join.publish_contact(ep.rank());
            Universe::for_backend_with_join(ep, group.clone(), join)
        } else {
            Universe::joiner_for_backend(ep, join)
        };
        move || {
            let out = run_forward_role(&proc, fwd_cfg, role);
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
    let bwd_cfg = BackwardConfig {
        spec: cfg.spec.clone(),
        policy: cfg.policy,
        checkpoint_every: 1,
        op_timeout: Duration::from_millis(600),
        rendezvous_timeout: Duration::from_secs(30),
        worker_init_delay: Duration::from_millis(5),
        expected_new_workers: joiner_count(cfg),
    };
    let (driver, bwd_cfg) = (&*driver, &bwd_cfg);
    run_ranks(cfg, move |ep, _, role| {
        move || run_backward_worker(&ep, bwd_cfg, driver, role == Role::Joiner)
    })
}

/// Run a scenario's ranks, one thread each, over the mesh `cfg.backend`
/// names. `launch` prepares a rank from its endpoint, contact and role
/// before its thread starts, and returns what the thread runs. Members and
/// spares are all prepared before any thread runs; joiners wait for the
/// trigger: the first death or exit among the members, as their own
/// endpoints and threads report it (Replace), or a dwell (Upscale).
/// Newcomers are numbered spares first, then joiners; exits come back
/// members first, then joiners, then spares.
fn run_ranks<J>(
    cfg: &ScenarioConfig,
    launch: impl Fn(Endpoint, Option<String>, Role) -> J,
) -> ScenarioResult
where
    J: FnOnce() -> (WorkerExit, Vec<RecoveryBreakdown>) + Send,
{
    let t0 = Instant::now();
    let mut mesh = match cfg.backend {
        BackendKind::InProc => Mesh::in_process(cfg),
        kind => Mesh::sockets(cfg, kind),
    };
    let watch: Vec<Endpoint> = mesh.members.iter().map(|(ep, _)| ep.clone()).collect();
    let members: Vec<_> = std::mem::take(&mut mesh.members)
        .into_iter()
        .map(|(ep, contact)| (ep.rank(), launch(ep, contact, Role::Member)))
        .collect();
    let newcomers = |ranks: std::ops::Range<usize>, role| -> Vec<_> {
        ranks
            .map(|r| {
                let (ep, contact) = (mesh.newcomer)(RankId(r));
                (RankId(r), launch(ep, contact, role))
            })
            .collect()
    };
    let first_joiner = cfg.workers + cfg.spares;
    let spares = newcomers(cfg.workers..first_joiner, Role::Spare);
    let (exits, breakdowns): (Vec<_>, Vec<_>) = std::thread::scope(|s| {
        let spawn = |ranks: Vec<(RankId, J)>| -> Vec<_> {
            let exited = &mesh.exited;
            (ranks.into_iter())
                .map(|(rank, work)| {
                    s.spawn(move || {
                        let out = work();
                        exited(rank);
                        out
                    })
                })
                .collect()
        };
        let members = spawn(members);
        let spares = spawn(spares);
        let joiners = match joiner_count(cfg) {
            0 => Vec::new(),
            n => {
                await_join_trigger(cfg.kind, || {
                    watch.iter().any(|ep| !ep.is_self_alive())
                        || members.iter().any(|h| h.is_finished())
                });
                spawn(newcomers(first_joiner..first_joiner + n, Role::Joiner))
            }
        };
        (members.into_iter().chain(joiners).chain(spares))
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .unzip()
    });
    ScenarioResult {
        exits,
        breakdowns: breakdowns.into_iter().flatten().collect(),
        wall: t0.elapsed(),
        fabric_stats: (mesh.finish)(),
    }
}

/// The links a scenario runs over: all the code that differs between the
/// in-process fabric and a socket mesh.
struct Mesh {
    /// The initial members' endpoints and dialable contacts, in rank order.
    members: Vec<(Endpoint, Option<String>)>,
    /// A spare's or joiner's endpoint and contact; called in rank order.
    newcomer: Box<dyn Fn(RankId) -> (Endpoint, Option<String>) + Sync>,
    /// Called on a rank's thread when its worker returns.
    exited: Box<dyn Fn(RankId) + Sync>,
    /// Tears the links down and returns the run's transport counters.
    finish: Box<dyn FnOnce() -> FabricStats + Sync>,
}

impl Mesh {
    /// Every rank a thread on one shared fabric, whose alive table is the
    /// failure detector. A rank whose worker returns is killed on it, as an
    /// exited process is gone, so peers blocked on it see a failure instead
    /// of hanging.
    fn in_process(cfg: &ScenarioConfig) -> Self {
        let topology = Topology::new(cfg.ranks_per_node);
        let fabric = Fabric::new(topology, FaultInjector::new(fault_plan(cfg)));
        if let Some(plan) = &cfg.perturb {
            fabric.set_perturbation(plan.clone());
        }
        fabric.set_suspicion_timeout(cfg.suspicion_timeout);
        let members = (fabric.register_ranks(cfg.workers).into_iter())
            .map(|rank| (Endpoint::new(Arc::clone(&fabric), rank), None))
            .collect();
        let (joins, exits) = (Arc::clone(&fabric), Arc::clone(&fabric));
        Self {
            members,
            newcomer: Box::new(move |rank| {
                let registered = joins.register_rank();
                debug_assert_eq!(registered, rank, "newcomers register in rank order");
                (Endpoint::new(Arc::clone(&joins), registered), None)
            }),
            exited: Box::new(move |rank| exits.kill_rank(rank)),
            finish: Box::new(move || fabric.stats()),
        }
    }

    /// One socket backend per rank, connected only by byte streams: a
    /// multi-process launch minus the process boundary. A newcomer binds a
    /// listener and dials the members, as a fresh process does. Peers share
    /// no alive table, so a rank that never touches a dead peer's link
    /// learns of the death only by suspicion: the deadline defaults to 5 s.
    fn sockets(cfg: &ScenarioConfig, kind: BackendKind) -> Self {
        let (topology, plan) = (Topology::new(cfg.ranks_per_node), fault_plan(cfg));
        let (perturb, suspicion) = (cfg.perturb.clone(), cfg.suspicion_timeout);
        let tune = move |b: &SocketBackend| {
            if let Some(plan) = &perturb {
                b.set_perturbation(plan.clone());
            }
            b.set_suspicion_timeout(Some(suspicion.unwrap_or(Duration::from_secs(5))));
        };
        let backends = SocketBackend::local_mesh(kind, topology, cfg.workers, plan.clone())
            .expect("socket mesh");
        let addrs: Vec<(RankId, String)> = (backends.iter())
            .map(|b| (b.rank(), b.local_addr().to_string()))
            .collect();
        let members = (backends.iter().zip(&addrs))
            .map(|(b, (_, addr))| {
                tune(b);
                (
                    Endpoint::from_backend(Arc::clone(b) as _),
                    Some(addr.clone()),
                )
            })
            .collect();
        let all = Arc::new(Mutex::new(backends));
        let joined = Arc::clone(&all);
        Self {
            members,
            newcomer: Box::new(move |rank| {
                let listener = SocketBackend::bind(kind).expect("bind newcomer listener");
                let contact = listener.addr().to_string();
                let injector = FaultInjector::new(plan.clone());
                let timeout = Duration::from_secs(10);
                let b = SocketBackend::establish_joiner(
                    rank, topology, listener, &addrs, injector, timeout,
                )
                .expect("newcomer could not reach any member");
                tune(&b);
                joined.lock().push(Arc::clone(&b));
                (Endpoint::from_backend(b), Some(contact))
            }),
            exited: Box::new(|_| {}),
            // Each backend counts its own traffic, so `deaths` and
            // `suspicions` count every rank's observation of one event.
            finish: Box::new(move || {
                let all = std::mem::take(&mut *all.lock());
                let mut stats = FabricStats::default();
                for b in &all {
                    stats += b.stats();
                }
                for b in &all {
                    b.shutdown();
                }
                stats
            }),
        }
    }
}

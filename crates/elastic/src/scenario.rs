//! Scenario orchestration: scripts the paper's three elasticity scenarios
//! (§3.3) over either engine and collects per-worker outcomes and recovery
//! breakdowns. Used by the integration tests, the examples, and the
//! benches that regenerate the paper's figures.

use crate::backward::{run_backward_worker, BackwardConfig, ElasticDriver};
use crate::config::{RecoveryPolicy, TrainSpec, WorkerExit};
use crate::forward::{run_forward_role, run_forward_worker, ForwardConfig, Role};
use crate::policy::PolicyMode;
use crate::profiler::{mean_breakdown, RecoveryBreakdown, RecoveryKind};
use std::sync::Arc;
use std::time::{Duration, Instant};
use transport::{
    Backend, BackendKind, Endpoint, Fabric, FaultInjector, FaultPlan, PerturbPlan, RankId,
    SocketBackend, Topology,
};
use ulfm::Universe;

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
    /// report (ULFM suspicion) instead of blocking forever.
    pub suspicion_timeout: Option<Duration>,
    /// Extra fault triggers merged into the scripted victim's plan — lets
    /// tests and `repro` express multi-victim and during-recovery cascades
    /// (e.g. a second kill at `shrink.attempt` or `ckpt.sync`).
    pub extra_faults: FaultPlan,
    /// Transport backend the workers communicate over. `InProc` (the
    /// default) is the shared-memory fabric; `Tcp`/`Unix` run every worker
    /// over a real socket mesh (forward engine). Socket joins rendezvous
    /// through a shared KV store ([`ulfm::NetJoin`]), so all three
    /// scenarios run on all backends.
    pub backend: BackendKind,
    /// Warm spares to pre-join the pool (forward engine): spawned at
    /// launch, promoted only by a recovery's policy round, dismissed at
    /// completion. Their exits append after members and joiners.
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
    /// Transport-layer counters for this scenario's fabric (retransmits,
    /// corrupt frames, suspicions, ...) — per-run, unlike the process-global
    /// telemetry registry.
    pub fabric_stats: transport::FabricStats,
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
        Engine::UlfmForward => run_forward_scenario(cfg),
        Engine::GlooBackward => run_backward_scenario(cfg),
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

/// Hold the joiners back until the scenario's trigger condition: the
/// scripted failure has been observed (Replace), or a fixed dwell has
/// passed (Upscale).
fn await_join_trigger(kind: ScenarioKind, failure_seen: impl Fn() -> bool) {
    match kind {
        ScenarioKind::Replace => {
            while !failure_seen() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        ScenarioKind::Upscale => std::thread::sleep(Duration::from_millis(10)),
        ScenarioKind::Downscale => unreachable!("downscale scenarios have no joiners"),
    }
}

/// The scenario's forward-engine settings, minus what the backends differ
/// in (how many joiners to expect, and how long to wait for them).
fn forward_config(cfg: &ScenarioConfig) -> ForwardConfig {
    ForwardConfig {
        policy: cfg.policy,
        renormalize_after_loss: cfg.renormalize,
        policy_mode: cfg.policy_mode,
        expected_spares: cfg.spares,
        ckpt_every: cfg.ckpt_every,
        ..ForwardConfig::new(cfg.spec.clone())
    }
}

fn run_forward_scenario(cfg: &ScenarioConfig) -> ScenarioResult {
    if cfg.backend != BackendKind::InProc {
        return run_forward_scenario_sockets(cfg);
    }
    let t0 = Instant::now();
    let topology = Topology::new(cfg.ranks_per_node);
    let universe = Universe::new(topology, fault_plan(cfg));
    if let Some(plan) = &cfg.perturb {
        universe.set_perturbation(plan.clone());
    }
    if let Some(t) = cfg.suspicion_timeout {
        universe.set_suspicion_timeout(t);
    }
    let fwd_cfg = ForwardConfig {
        expected_joiners: joiner_count(cfg),
        ..forward_config(cfg)
    };

    let c1 = fwd_cfg.clone();
    let initial = universe
        .spawn_batch(cfg.workers, move |proc| {
            let out = run_forward_worker(&proc, &c1, false);
            (out.exit, out.breakdowns)
        })
        .expect("in-process universe");

    // Warm spares park in the pool immediately — members wait for their
    // announcements before training, so the pool is warm before the
    // scripted failure can hit.
    let spare_handles = if cfg.spares > 0 {
        let cs = fwd_cfg.clone();
        universe
            .spawn_joiners(cfg.spares, move |proc| {
                let out = run_forward_role(&proc, &cs, Role::Spare);
                (out.exit, out.breakdowns)
            })
            .expect("in-process universe")
    } else {
        Vec::new()
    };

    // Spawn joiners once the trigger condition holds: after the failure
    // (Replace) or after a fixed dwell (Upscale).
    let joiners = joiner_count(cfg);
    let joiner_handles = if joiners > 0 {
        let fabric = universe.fabric().expect("in-process universe");
        await_join_trigger(cfg.kind, || !fabric.dead_ranks().is_empty());
        let c2 = fwd_cfg.clone();
        universe
            .spawn_joiners(joiners, move |proc| {
                let out = run_forward_worker(&proc, &c2, true);
                (out.exit, out.breakdowns)
            })
            .expect("in-process universe")
    } else {
        Vec::new()
    };

    let mut exits = Vec::new();
    let mut breakdowns = Vec::new();
    for h in initial
        .into_iter()
        .chain(joiner_handles)
        .chain(spare_handles)
    {
        let (exit, bd) = h.join();
        exits.push(exit);
        breakdowns.extend(bd);
    }
    ScenarioResult {
        exits,
        breakdowns,
        wall: t0.elapsed(),
        fabric_stats: universe.fabric().expect("in-process universe").stats(),
    }
}

/// Forward recovery over a real socket mesh: one backend (and one
/// `Universe`) per worker, connected only by byte streams — the same shape
/// a multi-process launch has, minus the process boundary. All three
/// scenarios run here: joins rendezvous through a [`gloo::KvStore`] via
/// [`ulfm::NetJoin`] (the in-process stand-in for the launcher's TCP store
/// server), and joiners bootstrap exactly like a fresh OS process — bind a
/// listener, scan the members' published addresses, dial in, announce.
fn run_forward_scenario_sockets(cfg: &ScenarioConfig) -> ScenarioResult {
    let t0 = Instant::now();
    let topology = Topology::new(cfg.ranks_per_node);
    let plan = fault_plan(cfg);
    let backends = SocketBackend::local_mesh(cfg.backend, topology, cfg.workers, plan.clone())
        .expect("socket mesh");
    // Socket peers have no global wakeup: a worker that never touches
    // the dead rank's link must learn of the death by suspicion, so the
    // scenario always runs with a detection deadline here.
    let suspicion = cfg.suspicion_timeout.unwrap_or(Duration::from_secs(5));
    for b in &backends {
        if let Some(plan) = &cfg.perturb {
            b.set_perturbation(plan.clone());
        }
        b.set_suspicion_timeout(Some(suspicion));
    }
    let joiners = joiner_count(cfg);
    let store = gloo::KvStore::shared();
    let prefix = "scn/";
    let addr_prefix = format!("{prefix}addr/");
    let fwd_cfg = ForwardConfig {
        accept_joiners: joiners > 0,
        expected_joiners: joiners,
        // Bounded so a crashed joiner degrades the group to running shrunk
        // instead of wedging the epoch boundary (and an orphaned joiner
        // exits instead of polling the store forever).
        join_wait: Some(Duration::from_secs(10)),
        ..forward_config(cfg)
    };
    let group: Vec<RankId> = (0..cfg.workers).map(RankId).collect();
    // Newcomer backends surface here for stats aggregation and shutdown.
    let joined_backends: parking_lot::Mutex<Vec<Arc<SocketBackend>>> =
        parking_lot::Mutex::new(Vec::new());
    // Joiners and warm spares bootstrap alike, and exactly like a fresh OS
    // process: wait until every member address is published, bind a
    // listener, scan the addresses, dial the mesh — then run in `role`.
    let newcomer = |rank: RankId, role: Role| {
        while store.count_prefix(&addr_prefix) < cfg.workers {
            std::thread::sleep(Duration::from_millis(1));
        }
        let member_addrs: Vec<(RankId, String)> = store
            .scan_prefix(&addr_prefix)
            .into_iter()
            .filter_map(|(k, v)| {
                let rank = k.rsplit('/').next()?.parse::<usize>().ok()?;
                Some((RankId(rank), String::from_utf8(v).ok()?))
            })
            .collect();
        let listener = SocketBackend::bind(cfg.backend).expect("bind newcomer listener");
        let contact = listener.addr().to_string();
        let b = SocketBackend::establish_joiner(
            rank,
            topology,
            listener,
            &member_addrs,
            FaultInjector::new(plan.clone()),
            Duration::from_secs(10),
        )
        .expect("newcomer could not reach any member");
        if let Some(plan) = &cfg.perturb {
            b.set_perturbation(plan.clone());
        }
        b.set_suspicion_timeout(Some(suspicion));
        joined_backends.lock().push(Arc::clone(&b));
        let join = ulfm::NetJoin::new(Arc::clone(&store), prefix).with_contact(contact);
        let ep = Endpoint::from_backend(b as Arc<dyn Backend>);
        let (_universe, proc) = Universe::joiner_for_backend(ep, Arc::new(join));
        let out = run_forward_role(&proc, &fwd_cfg, role);
        (out.exit, out.breakdowns)
    };
    let newcomer = &newcomer;
    let (exits, breakdowns) = std::thread::scope(|s| {
        let member_handles: Vec<_> = backends
            .iter()
            .cloned()
            .map(|b| {
                let group = group.clone();
                let fwd_cfg = fwd_cfg.clone();
                let store = Arc::clone(&store);
                s.spawn(move || {
                    let rank = b.rank();
                    let join =
                        ulfm::NetJoin::new(store, prefix).with_contact(b.local_addr().to_string());
                    join.publish_contact(rank);
                    let ep = Endpoint::from_backend(b as Arc<dyn Backend>);
                    let (_universe, proc) =
                        Universe::for_backend_with_join(ep, group, Arc::new(join));
                    let out = run_forward_worker(&proc, &fwd_cfg, false);
                    (out.exit, out.breakdowns)
                })
            })
            .collect();

        let joiner_handles: Vec<_> = (0..joiners)
            .map(|i| {
                // A surviving member's backend doubles as the failure
                // observer triggering Replace joiners.
                let watch = Arc::clone(&backends[(cfg.victim + 1) % cfg.workers]);
                s.spawn(move || {
                    await_join_trigger(cfg.kind, || !watch.is_alive(RankId(cfg.victim)));
                    newcomer(RankId(cfg.workers + i), Role::Joiner)
                })
            })
            .collect();

        // Warm spares start immediately — the pool must be warm before the
        // scripted failure — and join the spare namespace.
        let spare_handles: Vec<_> = (0..cfg.spares)
            .map(|i| s.spawn(move || newcomer(RankId(cfg.workers + joiners + i), Role::Spare)))
            .collect();

        let mut exits = Vec::new();
        let mut breakdowns = Vec::new();
        for h in member_handles
            .into_iter()
            .chain(joiner_handles)
            .chain(spare_handles)
        {
            let (exit, bd) = h.join().expect("worker thread panicked");
            exits.push(exit);
            breakdowns.extend(bd);
        }
        (exits, breakdowns)
    });
    // Each backend observes its own traffic; the sum is the mesh total.
    // (Unlike the shared fabric, `deaths`/`suspicions` count per-rank
    // observations of the same event.)
    let mut fabric_stats = transport::FabricStats::default();
    let all_backends: Vec<Arc<SocketBackend>> = backends
        .into_iter()
        .chain(std::mem::take(&mut *joined_backends.lock()))
        .collect();
    for b in &all_backends {
        fabric_stats += b.stats();
    }
    for b in &all_backends {
        b.shutdown();
    }
    ScenarioResult {
        exits,
        breakdowns,
        wall: t0.elapsed(),
        fabric_stats,
    }
}

fn run_backward_scenario(cfg: &ScenarioConfig) -> ScenarioResult {
    assert_eq!(
        cfg.backend,
        BackendKind::InProc,
        "the Gloo backward engine rendezvouses through the in-process store"
    );
    let t0 = Instant::now();
    let topology = Topology::new(cfg.ranks_per_node);
    let fabric = Fabric::new(topology, FaultInjector::new(fault_plan(cfg)));
    if let Some(plan) = &cfg.perturb {
        fabric.set_perturbation(plan.clone());
    }
    fabric.set_suspicion_timeout(cfg.suspicion_timeout);
    let initial_ranks = fabric.register_ranks(cfg.workers);
    let driver = ElasticDriver::new(topology, initial_ranks.clone());
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

    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for &rank in &initial_ranks {
            let fabric = Arc::clone(&fabric);
            let driver = Arc::clone(&driver);
            let bwd_cfg = bwd_cfg.clone();
            handles.push(s.spawn(move || {
                let ep = Endpoint::new(Arc::clone(&fabric), rank);
                let out = run_backward_worker(&ep, &bwd_cfg, &driver, false);
                fabric.kill_rank(rank); // model process exit
                out
            }));
        }

        // Joiners.
        let joiners = joiner_count(cfg);
        let joiner_handles: Vec<_> = if joiners > 0 {
            await_join_trigger(cfg.kind, || !fabric.dead_ranks().is_empty());
            let new_ranks = fabric.register_ranks(joiners);
            new_ranks
                .into_iter()
                .map(|rank| {
                    let fabric = Arc::clone(&fabric);
                    let driver = Arc::clone(&driver);
                    let bwd_cfg = bwd_cfg.clone();
                    s.spawn(move || {
                        let ep = Endpoint::new(Arc::clone(&fabric), rank);
                        let out = run_backward_worker(&ep, &bwd_cfg, &driver, true);
                        fabric.kill_rank(rank); // model process exit
                        out
                    })
                })
                .collect()
        } else {
            Vec::new()
        };

        let mut exits = Vec::new();
        let mut breakdowns = Vec::new();
        for h in handles.into_iter().chain(joiner_handles) {
            let (exit, bd) = h.join().expect("worker thread panicked");
            exits.push(exit);
            breakdowns.extend(bd);
        }
        ScenarioResult {
            exits,
            breakdowns,
            wall: t0.elapsed(),
            fabric_stats: fabric.stats(),
        }
    })
}

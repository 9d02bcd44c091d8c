//! Backward recovery: the Elastic-Horovod-style baseline.
//!
//! Reproduces the recovery pipeline the paper profiles in Fig. 4 (left),
//! phase by phase:
//!
//! 1. **catch exception** — a Gloo collective raises on a dead peer, or a
//!    receive times out (Gloo has no failure detector; silence *is* the
//!    signal);
//! 2. **shutdown** — the context is poisoned; the worker abandons the
//!    configuration and reports to the elastic driver;
//! 3. **re-init elastic mode** — the driver blacklists the failed node (or
//!    just the process — included for symmetric comparison, even though
//!    real Elastic Horovod only supports node granularity, cf. Table 2),
//!    bumps the configuration epoch, and publishes the new member list;
//! 4. **rendezvous** — all members run the global + node-local KV-store
//!    rendezvous for the new epoch;
//! 5. **reinit Gloo** — a fresh full-mesh context;
//! 6. **load checkpoint + recompute** — training state rolls back to the
//!    last per-batch in-memory checkpoint and the lost steps are redone.
//!
//! New workers (replacement/upscale) register with the driver, pay a
//! simulated initialization delay (library loading on real systems), and
//! are adopted at the next reconfiguration or epoch boundary.

use crate::config::{
    state_fingerprint, HierMode, RecoveryPolicy, TrainSpec, WorkerExit, WorkerStats,
};
use crate::profiler::{RecoveryBreakdown, RecoveryKind};
use collectives::{NodeMap, ReduceOp};
use dnn::{Checkpoint, InMemoryCheckpointStore};
use gloo::{rendezvous, Context, GlooError, KvStore, RendezvousConfig};
use parking_lot::{Condvar, Mutex};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;
use transport::{Endpoint, RankId, Topology};

/// Configuration of the backward-recovery engine.
#[derive(Clone, Debug)]
pub struct BackwardConfig {
    /// The shared training workload.
    pub spec: TrainSpec,
    /// Eviction policy (Elastic Horovod itself only supports
    /// [`RecoveryPolicy::DropNode`]; process granularity is provided for
    /// the comparison matrix).
    pub policy: RecoveryPolicy,
    /// Save an in-memory checkpoint every N steps (the paper's minimum —
    /// and our default — is every step).
    pub checkpoint_every: u64,
    /// Gloo receive timeout (exception-catch latency for silent peers).
    pub op_timeout: Duration,
    /// Rendezvous timeout.
    pub rendezvous_timeout: Duration,
    /// Simulated new-worker initialization delay (library loading etc.).
    pub worker_init_delay: Duration,
    /// How many new workers this run expects over its lifetime. Until that
    /// many have *registered*, workers hold at epoch boundaries so the
    /// leader can adopt them — deterministic admission, mirroring the
    /// forward engine's `expected_joiners`. Zero never waits.
    pub expected_new_workers: usize,
}

impl BackwardConfig {
    /// Defaults mirroring the paper's setup.
    pub fn new(spec: TrainSpec) -> Self {
        Self {
            spec,
            policy: RecoveryPolicy::DropNode,
            checkpoint_every: 1,
            op_timeout: Duration::from_millis(800),
            rendezvous_timeout: Duration::from_secs(20),
            worker_init_delay: Duration::ZERO,
            expected_new_workers: 0,
        }
    }
}

struct DriverState {
    epoch: u64,
    members: BTreeSet<RankId>,
    blacklisted_nodes: BTreeSet<usize>,
    removed: BTreeSet<RankId>,
    pending_new: BTreeSet<RankId>,
    /// Minimum world size; falling below it aborts the run.
    min_workers: usize,
    /// Set once the member count drops below `min_workers`: the run is
    /// over, every surviving worker exits with [`WorkerExit::Aborted`].
    aborted: bool,
}

/// What [`ElasticDriver::wait_for_membership`] resolved for a worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Membership {
    /// The worker is a member of configuration `epoch`; rendezvous with
    /// `members`.
    Active {
        /// Configuration epoch to rendezvous under.
        epoch: u64,
        /// Sorted member list of the configuration.
        members: Vec<RankId>,
    },
    /// The worker was evicted (blacklisted node or reported failure) and
    /// must exit.
    Removed,
    /// The run shut down because membership fell below the driver's
    /// minimum world size; every survivor must exit cleanly.
    Aborted,
}

/// The elastic driver: the central coordinator Elastic Horovod runs on the
/// launch host. Tracks membership epochs, blacklists failures, adopts new
/// workers, and owns the shared KV store and checkpoint store.
pub struct ElasticDriver {
    topology: Topology,
    store: Arc<KvStore>,
    ckpts: InMemoryCheckpointStore,
    state: Mutex<DriverState>,
    cv: Condvar,
    /// Monotone count of successful new-worker registrations.
    announced: std::sync::atomic::AtomicU64,
}

impl ElasticDriver {
    /// A driver whose initial membership is `initial` workers.
    pub fn new(topology: Topology, initial: Vec<RankId>) -> Arc<Self> {
        Arc::new(Self {
            topology,
            store: KvStore::shared(),
            ckpts: InMemoryCheckpointStore::new(),
            state: Mutex::new(DriverState {
                epoch: 0,
                members: initial.into_iter().collect(),
                blacklisted_nodes: BTreeSet::new(),
                removed: BTreeSet::new(),
                pending_new: BTreeSet::new(),
                min_workers: 1,
                aborted: false,
            }),
            cv: Condvar::new(),
            announced: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// The shared rendezvous store.
    pub fn store(&self) -> &Arc<KvStore> {
        &self.store
    }

    /// The shared in-memory checkpoint store.
    pub fn checkpoints(&self) -> &InMemoryCheckpointStore {
        &self.ckpts
    }

    /// Current configuration epoch.
    pub fn epoch(&self) -> u64 {
        self.state.lock().epoch
    }

    /// Set the minimum world size (Elastic Horovod's `--min-np`). A
    /// failure report that drops membership below this floor aborts the
    /// run instead of reconfiguring onto a degenerate group. Default 1.
    pub fn set_min_workers(&self, n: usize) {
        self.state.lock().min_workers = n.max(1);
    }

    /// Has the run shut down below its minimum world size?
    pub fn aborted(&self) -> bool {
        self.state.lock().aborted
    }

    /// Current member list (sorted).
    pub fn members(&self) -> Vec<RankId> {
        self.state.lock().members.iter().copied().collect()
    }

    /// A worker reports a failure it observed (or suspected via timeout).
    /// The driver removes the victim — and, under the node policy, its
    /// whole node — and starts a new configuration epoch. Idempotent per
    /// victim, so every member can report the same failure.
    pub fn report_failure(&self, victim: RankId, policy: RecoveryPolicy) {
        self.report_failures(&[victim], policy);
    }

    /// Batched failure report: every victim of a concurrent burst is
    /// evicted under one configuration-epoch bump, so the burst costs one
    /// reconfiguration instead of one per discovery — the backward-engine
    /// counterpart of the lattice view change. Stale victims (already
    /// handled, or never part of the job) are skipped; if none remain the
    /// call is a no-op.
    pub fn report_failures(&self, victims: &[RankId], policy: RecoveryPolicy) {
        let mut st = self.state.lock();
        let fresh: Vec<RankId> = victims
            .iter()
            .copied()
            .filter(|v| {
                !st.removed.contains(v) && (st.members.contains(v) || st.pending_new.contains(v))
            })
            .collect();
        if fresh.is_empty() {
            return;
        }
        telemetry::histogram("elastic.recovery.batch_size").record(fresh.len() as u64);
        for victim in fresh {
            let evicted: Vec<RankId> = match policy {
                RecoveryPolicy::DropProcess => vec![victim],
                RecoveryPolicy::DropNode => {
                    let node = self.topology.node_of(victim);
                    st.blacklisted_nodes.insert(node.0);
                    let max = st
                        .members
                        .iter()
                        .chain(st.pending_new.iter())
                        .map(|r| r.0 + 1)
                        .max()
                        .unwrap_or(0);
                    self.topology.ranks_on_node(node, max)
                }
            };
            for r in evicted {
                st.members.remove(&r);
                st.pending_new.remove(&r);
                st.removed.insert(r);
            }
        }
        st.epoch += 1;
        if st.members.len() < st.min_workers {
            // Below the floor: the run is over. Survivors observe the
            // abort at their next configuration check and exit cleanly.
            st.aborted = true;
        }
        self.cv.notify_all();
    }

    /// A new worker announces itself (after its init delay). It is adopted
    /// at the next epoch boundary / reconfiguration.
    pub fn register_new_worker(&self, rank: RankId) {
        let mut st = self.state.lock();
        let node = self.topology.node_of(rank);
        if st.blacklisted_nodes.contains(&node.0) || st.removed.contains(&rank) {
            return; // blacklisted hosts are not re-admitted
        }
        st.pending_new.insert(rank);
        self.announced
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        self.cv.notify_all();
    }

    /// Total new workers that have ever registered (monotone).
    pub fn announced_new_workers(&self) -> u64 {
        self.announced.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Adopt all pending new workers (called by the leader at epoch
    /// boundaries — Horovod's periodic host-discovery check). Returns true
    /// if membership changed (a new configuration epoch started).
    pub fn adopt_pending(&self) -> bool {
        let mut st = self.state.lock();
        if st.pending_new.is_empty() || st.aborted {
            return false;
        }
        let pending = std::mem::take(&mut st.pending_new);
        st.members.extend(pending);
        st.epoch += 1;
        self.cv.notify_all();
        true
    }

    /// Are any new workers waiting for adoption?
    pub fn has_pending(&self) -> bool {
        !self.state.lock().pending_new.is_empty()
    }

    /// Block until `me`'s fate is decided: a member of the current
    /// configuration ([`Membership::Active`]), evicted
    /// ([`Membership::Removed`]), or the run shut down below its minimum
    /// world size ([`Membership::Aborted`] — also delivered to registered
    /// new workers still waiting for adoption, so nobody blocks forever on
    /// a computation that no longer exists).
    pub fn wait_for_membership(&self, me: RankId) -> Membership {
        let mut st = self.state.lock();
        loop {
            if st.removed.contains(&me) {
                return Membership::Removed;
            }
            if st.aborted {
                return Membership::Aborted;
            }
            if st.members.contains(&me) {
                return Membership::Active {
                    epoch: st.epoch,
                    members: st.members.iter().copied().collect(),
                };
            }
            self.cv.wait(&mut st);
        }
    }
}

/// Gradient-allreduce router for the Gloo baseline: flat (the seed
/// behaviour) or hierarchical, decided per bucket by
/// [`TrainSpec::hier_route`] exactly as in the forward engine. The node map
/// is the per-rendezvous-epoch one, so it is always current for `ctx`.
fn gloo_grad_allreduce(
    ctx: &Context,
    map: &Option<NodeMap>,
    spec: &TrainSpec,
    buf: &mut [f32],
) -> Result<(), GlooError> {
    if let Some(map) = map {
        if let Some(algo) = spec.hier_route(map, ctx.size(), std::mem::size_of_val(buf)) {
            return ctx.hier_allreduce(map, buf, ReduceOp::Sum, algo);
        }
    }
    ctx.allreduce(buf, ReduceOp::Sum, spec.algo)
}

/// Run one worker under backward recovery. Returns its exit plus the
/// per-episode phase breakdowns.
pub fn run_backward_worker(
    ep: &Endpoint,
    cfg: &BackwardConfig,
    driver: &ElasticDriver,
    is_new_worker: bool,
) -> (WorkerExit, Vec<RecoveryBreakdown>) {
    let spec = &cfg.spec;
    let me = ep.rank();
    let mut breakdowns: Vec<RecoveryBreakdown> = Vec::new();

    if is_new_worker {
        // Library loading / framework init on a fresh host.
        std::thread::sleep(cfg.worker_init_delay);
        driver.register_new_worker(me);
    }

    let mut model = spec.build_model();
    let mut opt = spec.build_optimizer();
    let ds = spec.build_dataset();
    // Fusion schedule (architecture-determined, so computed once): fused
    // buckets launch during the backward pass; on failure Gloo's poisoned
    // context aborts the remaining buckets and the normal exception path
    // reconfigures — fused steps need no special recovery handling.
    let fusion = spec
        .fusion
        .map(|cap| crate::fusion::FusionSetup::new(&model, cap));
    let mut step: u64 = 0;
    let mut recoveries = 0usize;
    let mut last_loss = f32::NAN;
    let mut steps_recomputed: u64 = 0;
    // Set when re-entering the configuration loop because of a failure
    // (used to attribute rollback phases to a Backward episode).
    let mut failure_episode: Option<RecoveryBreakdown> = None;

    // Size of the last Gloo context this worker was a member of.
    let mut world = 0usize;

    let exit: fn(WorkerStats) -> WorkerExit = 'config: loop {
        // --- configuration epoch ------------------------------------------
        let (epoch, members) = match driver.wait_for_membership(me) {
            Membership::Active { epoch, members } => (epoch, members),
            // Evicted (e.g. healthy worker on a blacklisted node).
            Membership::Removed => break 'config WorkerExit::Excluded,
            Membership::Aborted => {
                // The cascade dropped the world below min_workers: exit
                // cleanly with the progress so far, leaving a traceable
                // abort episode.
                telemetry::counter("elastic.abort.below_min").incr();
                let mut episode = RecoveryBreakdown::new(RecoveryKind::Abort, step);
                episode.time("below_min", || ep.retire());
                episode.publish(me.0);
                breakdowns.push(episode);
                break 'config WorkerExit::Aborted;
            }
        };

        let mut episode = failure_episode
            .take()
            .unwrap_or_else(|| RecoveryBreakdown::new(RecoveryKind::Join, step));

        // --- rendezvous (global + node-local) -----------------------------
        let rdv_cfg = RendezvousConfig {
            run_id: "horovod".into(),
            epoch,
            expected: members.len(),
            timeout: cfg.rendezvous_timeout,
        };
        let rdv = episode.time("rendezvous", || {
            rendezvous(driver.store(), &rdv_cfg, me, driver.topology)
        });
        let rdv = match rdv {
            Ok(r) => r,
            Err(_) => {
                // Membership changed under us (another failure during
                // rendezvous): re-read the configuration.
                if driver.epoch() != epoch {
                    failure_episode = Some(episode);
                    continue 'config;
                }
                panic!("rendezvous timed out without a configuration change");
            }
        };

        // --- reinit Gloo (full-mesh context) -------------------------------
        let ctx = episode.time("reinit_gloo", || {
            Context::connect(ep.clone(), epoch, rdv.members.clone(), rdv.my_rank)
                .map(|c| c.with_op_timeout(cfg.op_timeout))
        });
        let ctx = match ctx {
            Ok(c) => c,
            Err(GlooError::SelfDied) => return (WorkerExit::Died, breakdowns),
            Err(_) => {
                // A member died between rendezvous and connect.
                report_any_death(driver, ep, &rdv.members, cfg.policy);
                failure_episode = Some(episode);
                continue 'config;
            }
        };

        // Per-epoch node map for hierarchical routing: rebuilt at every
        // rendezvous epoch (i.e. after every membership change, including
        // adoption of new workers), from the agreed member list and the
        // static topology — local and identical on every member.
        let hier_map: Option<NodeMap> = if spec.hier != HierMode::Off {
            let colors: Vec<u64> = rdv
                .members
                .iter()
                .map(|&g| driver.topology.node_of(g).0 as u64)
                .collect();
            telemetry::counter("elastic.hier.rebuilds").incr();
            Some(NodeMap::from_colors(&colors))
        } else {
            None
        };

        // --- load checkpoint (rollback) ------------------------------------
        let rolled_back = episode.time("load_checkpoint", || {
            if let Some(ck) = driver.checkpoints().load() {
                let lost = step.saturating_sub(ck.step);
                // Fits: this run's own store, captured from a model of this spec.
                ck.restore(&mut model, &mut opt);
                step = ck.step;
                lost
            } else {
                let lost = step;
                // No checkpoint yet: restart training state from scratch.
                model = spec.build_model();
                opt = spec.build_optimizer();
                step = 0;
                lost
            }
        });
        steps_recomputed += rolled_back;
        episode.publish(me.0);
        breakdowns.push(episode);

        // --- training under this configuration ----------------------------
        world = ctx.size();
        let my_rank = ctx.rank();
        while (step as usize) < spec.total_steps {
            telemetry::counter("elastic.backward.steps").incr();
            let _step_span = telemetry::span("elastic.backward.step_ns");
            // Another failure elsewhere may have bumped the epoch while we
            // were computing; bail out to reconfigure.
            if driver.epoch() != epoch {
                recoveries += 1;
                let mut ep_rec = RecoveryBreakdown::new(RecoveryKind::Backward, step);
                ep_rec.push("catch_exception", Duration::ZERO);
                failure_episode = Some(ep_rec);
                continue 'config;
            }

            let shard = ds.shard(step as usize, spec.global_batch, my_rank, world);
            let shard_weight = shard.labels.len() as f32 / spec.global_batch as f32;
            model.zero_grads();

            let mut failed: Option<GlooError> = None;
            let catch_t0 = std::time::Instant::now();
            let grads: Vec<Vec<f32>> = if let Some(fs) = &fusion {
                // Ready-queue path: scatter gradients into bucket buffers
                // as layers finish their backward pass; launch each fused
                // allreduce the moment its bucket fills.
                let (report, bufs) =
                    fs.backward_pass(&mut model, &shard, shard_weight, |_, buf| {
                        if failed.is_none() {
                            if let Err(e) = gloo_grad_allreduce(&ctx, &hier_map, spec, buf) {
                                failed = Some(e);
                            }
                        }
                    });
                last_loss = report.loss;
                fs.unpack(&bufs)
            } else {
                let report = model.compute_gradients(&shard);
                last_loss = report.loss;
                let mut grads: Vec<Vec<f32>> = model
                    .grads()
                    .iter()
                    .map(|g| g.data().iter().map(|v| v * shard_weight).collect())
                    .collect();
                for g in grads.iter_mut() {
                    match gloo_grad_allreduce(&ctx, &hier_map, spec, g) {
                        Ok(()) => {}
                        Err(e) => {
                            failed = Some(e);
                            break;
                        }
                    }
                }
                grads
            };
            if matches!(failed, Some(GlooError::SelfDied)) {
                return (WorkerExit::Died, breakdowns);
            }
            if let Some(err) = failed {
                // --- exception path (paper Fig. 4 phases 1–3) -------------
                recoveries += 1;
                let mut ep_rec = RecoveryBreakdown::new(RecoveryKind::Backward, step);
                ep_rec.push("catch_exception", catch_t0.elapsed());
                ep_rec.time("shutdown", || {
                    debug_assert!(ctx.is_poisoned());
                });
                ep_rec.time("reinit_elastic", || match err {
                    // A timeout only *suspects* the awaited peer; it may be
                    // alive and simply stuck behind the real victim. Confirm
                    // against the runtime's dead list before blacklisting —
                    // as Horovod's driver confirms via host discovery.
                    GlooError::PeerFailure { global }
                        if global.0 < usize::MAX && !ep.is_peer_alive(global) =>
                    {
                        driver.report_failure(global, cfg.policy)
                    }
                    _ => report_any_death(driver, ep, ctx.group(), cfg.policy),
                });
                failure_episode = Some(ep_rec);
                continue 'config;
            }

            model.set_grads(&grads);
            opt.step(&mut model.params_mut());
            step += 1;

            // Per-batch in-memory checkpoint (the paper's minimum interval).
            // Every rank passes the named fault point, so schedules can
            // kill the saver (rank 0) right before it checkpoints — the
            // survivors roll back to the previous checkpoint and recompute
            // — or a receiver, exercising the ordinary exception path.
            if step.is_multiple_of(cfg.checkpoint_every) {
                if ep.fault_point("ckpt.sync").is_err() {
                    return (WorkerExit::Died, breakdowns);
                }
                if my_rank == 0 {
                    driver.checkpoints().save(Checkpoint::capture(&model, &opt));
                }
            }

            // Epoch boundary: hold for expected new workers, then the
            // leader adopts them (bumping the configuration epoch; the
            // check at the top of the loop reconfigures everyone).
            if (step as usize).is_multiple_of(spec.steps_per_epoch) {
                while driver.announced_new_workers() < cfg.expected_new_workers as u64
                    && driver.epoch() == epoch
                {
                    std::thread::sleep(Duration::from_micros(300));
                }
                if my_rank == 0 && driver.has_pending() {
                    driver.adopt_pending();
                }
            }
        }
        break 'config WorkerExit::Completed;
    };
    let stats = WorkerStats {
        steps_done: step,
        final_loss: last_loss,
        recoveries,
        final_world: world,
        state_fingerprint: state_fingerprint(&model.state_flat()),
        final_lr: opt.current_lr(),
        steps_recomputed,
    };
    (exit(stats), breakdowns)
}

/// When the failed peer is unknown (timeout), consult the runtime's dead
/// list — the moral equivalent of Horovod's driver noticing a host went
/// silent.
fn report_any_death(
    driver: &ElasticDriver,
    ep: &Endpoint,
    group: &[RankId],
    policy: RecoveryPolicy,
) {
    // One batched report: a burst that killed several members costs one
    // configuration epoch, not one per dead peer. With a suspicion batch
    // window configured, first wait the burst out so the tail is included.
    ep.settle_suspicions();
    let dead: Vec<RankId> = group
        .iter()
        .copied()
        .filter(|&g| !ep.is_peer_alive(g))
        .collect();
    if !dead.is_empty() {
        driver.report_failures(&dead, policy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_drop_process_removes_only_victim() {
        let d = ElasticDriver::new(Topology::new(3), (0..6).map(RankId).collect());
        d.report_failure(RankId(4), RecoveryPolicy::DropProcess);
        assert_eq!(d.epoch(), 1);
        let m = d.members();
        assert_eq!(m.len(), 5);
        assert!(!m.contains(&RankId(4)));
    }

    #[test]
    fn driver_drop_node_blacklists_whole_node() {
        let d = ElasticDriver::new(Topology::new(3), (0..6).map(RankId).collect());
        d.report_failure(RankId(4), RecoveryPolicy::DropNode);
        let m = d.members();
        assert_eq!(m, vec![RankId(0), RankId(1), RankId(2)]);
        // Workers from the blacklisted node cannot re-register.
        d.register_new_worker(RankId(5));
        assert!(!d.has_pending());
    }

    #[test]
    fn report_failure_is_idempotent() {
        let d = ElasticDriver::new(Topology::flat(), (0..4).map(RankId).collect());
        d.report_failure(RankId(1), RecoveryPolicy::DropProcess);
        d.report_failure(RankId(1), RecoveryPolicy::DropProcess);
        assert_eq!(d.epoch(), 1);
    }

    #[test]
    fn adopt_pending_bumps_epoch_once() {
        let d = ElasticDriver::new(Topology::flat(), (0..2).map(RankId).collect());
        assert!(!d.adopt_pending());
        d.register_new_worker(RankId(2));
        d.register_new_worker(RankId(3));
        assert!(d.adopt_pending());
        assert_eq!(d.epoch(), 1);
        assert_eq!(d.members().len(), 4);
        assert!(!d.adopt_pending());
    }

    #[test]
    fn wait_for_membership_reports_removed() {
        let d = ElasticDriver::new(Topology::flat(), (0..2).map(RankId).collect());
        d.report_failure(RankId(1), RecoveryPolicy::DropProcess);
        assert_eq!(d.wait_for_membership(RankId(1)), Membership::Removed);
        match d.wait_for_membership(RankId(0)) {
            Membership::Active { epoch, members } => {
                assert_eq!(epoch, 1);
                assert_eq!(members, vec![RankId(0)]);
            }
            other => panic!("expected Active, got {other:?}"),
        }
    }

    #[test]
    fn wait_for_membership_blocks_until_adopted() {
        let d = ElasticDriver::new(Topology::flat(), vec![RankId(0)]);
        let d2 = Arc::clone(&d);
        let t = std::thread::spawn(move || d2.wait_for_membership(RankId(1)));
        std::thread::sleep(Duration::from_millis(20));
        assert!(!t.is_finished());
        d.register_new_worker(RankId(1));
        d.adopt_pending();
        match t.join().unwrap() {
            Membership::Active { members, .. } => assert!(members.contains(&RankId(1))),
            other => panic!("expected Active, got {other:?}"),
        }
    }

    #[test]
    fn shrink_below_floor_aborts_survivors_and_pending() {
        let d = ElasticDriver::new(Topology::flat(), (0..4).map(RankId).collect());
        d.set_min_workers(3);
        d.report_failure(RankId(3), RecoveryPolicy::DropProcess);
        assert!(!d.aborted(), "3 survivors is still at the floor");
        // A new worker registers, then the cascade continues below floor.
        d.register_new_worker(RankId(9));
        d.report_failure(RankId(2), RecoveryPolicy::DropProcess);
        assert!(d.aborted());
        // Survivors, the evicted, and the never-adopted all resolve.
        assert_eq!(d.wait_for_membership(RankId(0)), Membership::Aborted);
        assert_eq!(d.wait_for_membership(RankId(2)), Membership::Removed);
        assert_eq!(d.wait_for_membership(RankId(9)), Membership::Aborted);
        // No adoption after the shutdown.
        assert!(!d.adopt_pending());
    }
}

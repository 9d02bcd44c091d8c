//! Forward recovery over ULFM: the paper's contribution.
//!
//! ## The protocol (paper §3.1–3.2)
//!
//! Each optimizer step issues `T` gradient allreduces (one per trainable
//! tensor) followed by a **commit barrier**, then applies the optimizer.
//! Every operation carries a global id `step·(T+1) + local`. On any
//! failure:
//!
//! 1. **revoke** the communicator (interrupts members blocked in other
//!    operations — they join recovery via their own `Revoked` error);
//! 2. **agree** — a fault-tolerant agreement whose `min` merge yields the
//!    earliest failed operation id across survivors (the *restart point*),
//!    and whose failed-set union identifies the victims;
//! 3. **shrink** with the recovery policy (drop-process or drop-node;
//!    evicted healthy ranks leave with [`WorkerExit::Excluded`]);
//! 4. **redo** operations from the restart point on the shrunk
//!    communicator, *from retained inputs* — each worker still holds the
//!    gradient it contributed, so the re-executed allreduce aggregates the
//!    survivors' contributions. No rollback, no checkpoint.
//!
//! ## Why the restart point is safe
//!
//! The commit barrier gates the optimizer: a worker applies step `S` only
//! after its barrier completes, and barrier completion at *any* worker
//! implies *every* worker entered it (dissemination property) — hence no
//! worker failed inside step `S`'s allreduces. Consequently the agreed
//! restart point can only reach back to the latest uncommitted work: a
//! tensor allreduce of the current step, or the previous step's barrier.
//! Both are idempotent to redo (allreduces are re-fed from saved inputs;
//! the barrier carries no data), so replicas stay bit-identical — which
//! the tests assert via state fingerprints.
//!
//! ## The policy layer ("Chameleon mode")
//!
//! When [`ForwardConfig::policy_mode`] departs from pure shrink or a warm
//! spare pool is expected, step 3 gains a *policy round*: after the
//! shrink, the survivors uniformly commit one recovery arm
//! ([`ulfm::Communicator::commit_recovery_policy`]) —
//!
//! * **shrink** — the paper's retained-inputs redo above, unchanged;
//! * **spare** — promote pre-joined warm spares ([`Role::Spare`]) into the
//!   gap, synchronize them from live state, and restart the interrupted
//!   step at full strength: no capacity lost, no rollback;
//! * **rollback** — restore *every* survivor from the newest local
//!   checkpoint ([`ForwardConfig::ckpt_every`]) and recompute from there
//!   (the classic engine, available per-failure instead of per-run).
//!
//! The arm is chosen by [`PolicyEngine`](crate::policy::PolicyEngine) from
//! live [`PolicyInputs`], but only the leader's choice matters — it rides
//! inside the committed proposal, so locally-diverging inputs can never
//! diverge the SPMD control flow. If the committed arm itself dies
//! mid-recovery (a spare killed during promotion, a checkpoint sync broken
//! by a cascade), survivors fall down a deterministic chain — spare →
//! shrink → abort-below-floor — whose backstop, the retained-inputs redo,
//! has no preconditions and therefore always applies.

use crate::config::{
    policy_evictions, state_fingerprint, HierMode, RecoveryPolicy, TrainSpec, WorkerExit,
    WorkerStats, LR,
};
use crate::cost_model::PolicyInputs;
use crate::fusion::FusionSetup;
use crate::policy::{PolicyEngine, PolicyMode};
use crate::profiler::{RecoveryBreakdown, RecoveryKind};
use collectives::ReduceOp;
use dnn::Checkpoint;
use transport::RankId;
use ulfm::{
    Commit, Communicator, Hierarchy, JoinOutcome, PolicyCommit, Proc, RecoveryArm, ShrinkOutcome,
    UlfmError,
};

/// Configuration of the forward-recovery engine.
#[derive(Clone, Debug)]
pub struct ForwardConfig {
    /// The shared training workload.
    pub spec: TrainSpec,
    /// Eviction policy on failure.
    pub policy: RecoveryPolicy,
    /// How many joiners this run *expects* over its lifetime. Until that
    /// many have been admitted, workers block at epoch boundaries for
    /// pending announcements — making replacement/upscale admission
    /// deterministic instead of racing training speed against joiner
    /// startup. Zero (the default) never waits.
    pub expected_joiners: usize,
    /// Upper bound on the epoch-boundary wait for expected joiners, and on
    /// a joiner's own wait for its admission ticket. `None` (the default)
    /// waits forever. A bound lets a crashed joiner degrade the group to
    /// running shrunk instead of stalling it (scripted scenarios use 10 s
    /// on every backend, launches a configurable bound); the give-up
    /// decision travels inside the committed join proposal, so members
    /// never diverge on local clocks.
    pub join_wait: Option<std::time::Duration>,
    /// Rescale redone gradients by the lost contribution fraction so the
    /// degraded step keeps the same expected gradient magnitude.
    pub renormalize_after_loss: bool,
    /// Optional Goyal-style learning-rate re-scaling on membership change:
    /// after a shrink or join, ramp the rate to
    /// `0.05 × world / base_world` over `warmup_steps` (paper §5's
    /// convergence techniques [16][22], applied elastically).
    pub lr_scaling: Option<LrScaling>,
    /// How the recovery arm is picked at each failure. The default —
    /// static forward-shrink — reproduces the seed engine bit-identically
    /// (with no spare pool, no policy round runs at all).
    pub policy_mode: PolicyMode,
    /// Warm spares this run expects ([`Role::Spare`] workers). Members
    /// wait for that many pool announcements before training starts, so
    /// the pool is warm before the first failure can hit. Zero (the
    /// default) disables the wait.
    pub expected_spares: usize,
    /// Capture a local in-memory checkpoint every this many steps — the
    /// rollback arm's restore source. Zero (the default) disables capture,
    /// which makes rollback infeasible and degrades it to shrink.
    pub ckpt_every: u64,
}

/// Elastic learning-rate policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LrScaling {
    /// World size at which the fixed rate, 0.05, is the reference rate.
    pub base_world: usize,
    /// Ramp length after each membership change.
    pub warmup_steps: u64,
}

impl ForwardConfig {
    /// Defaults: drop-process policy, no expected joiners or spares, no
    /// renormalization, static forward-shrink (no policy layer). Joiners are
    /// always admitted at epoch boundaries, as in the paper's engine.
    pub fn new(spec: TrainSpec) -> Self {
        Self {
            spec,
            policy: RecoveryPolicy::DropProcess,
            expected_joiners: 0,
            join_wait: None,
            renormalize_after_loss: false,
            lr_scaling: None,
            policy_mode: PolicyMode::default(),
            expected_spares: 0,
            ckpt_every: 0,
        }
    }

    /// Does recovery run the policy round at all? Pure static shrink with
    /// no spare pool skips it entirely, keeping the seed engine's exact
    /// recovery sequence (and cost). Uniform across workers because `cfg`
    /// is shared — the round is a collective, so all survivors must agree
    /// on whether it runs.
    pub fn policy_active(&self) -> bool {
        self.policy_mode != PolicyMode::Static(RecoveryArm::Shrink) || self.expected_spares > 0
    }
}

/// How a worker participates in the computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Founding member: starts in the initial communicator.
    Member,
    /// Joins a running group at an epoch boundary (replacement/upscale).
    Joiner,
    /// Pre-joins the warm spare pool and waits for a promotion ticket; it
    /// enters the group only when a recovery's policy round commits a
    /// promotion (never at epoch boundaries). Dismissed spares exit with
    /// [`WorkerExit::Aborted`] and zeroed stats.
    Spare,
}

/// Outcome plus per-episode breakdowns (for the figure benches).
pub struct ForwardOutcome {
    /// How the worker ended.
    pub exit: WorkerExit,
    /// Recovery/join episodes recorded at this worker.
    pub breakdowns: Vec<RecoveryBreakdown>,
}

/// Internal: terminal conditions that end the worker's run. Each
/// propagates by `?` to the single conversion in [`Worker::exit`].
enum Fatal {
    Died,
    Excluded,
    /// The run ends for every member alike, for the named cause.
    Aborted(Abort),
    /// A spare or joiner the group never needed: dismissed at completion,
    /// or never ticketed. A clean non-event — crucially not a
    /// below-minimum abort.
    Unneeded,
}

/// Why a run aborts. Names the `elastic.abort.*` counter and the phase of
/// the abort episode.
#[derive(Clone, Copy)]
enum Abort {
    /// The surviving world shrank below `TrainSpec::min_workers`, or no
    /// member holding the state survived.
    BelowMin,
    /// A peer's agreement proposal could not be decoded, or the committed
    /// state a member was to install is not a checkpoint of this model.
    Malformed,
    /// The run shut down before this joiner was admitted.
    ShutDown,
}

impl Abort {
    fn name(self) -> &'static str {
        match self {
            Abort::BelowMin => "below_min",
            Abort::Malformed => "malformed",
            Abort::ShutDown => "shut_down",
        }
    }
}

/// What the op loop does after a recovery episode resolves.
enum Flow {
    /// Redo from the agreed restart operation on the shrunk group (the
    /// paper's forward path).
    Redo(u64),
    /// Restart the step loop at this step — state was re-synchronized by a
    /// committed promotion or rollback.
    Restart(u64),
}

/// Gradient-allreduce router: flat (the seed behaviour) or hierarchical,
/// decided per bucket by [`TrainSpec::hier`]. The cached [`Hierarchy`] is
/// rebuilt lazily whenever the communicator epoch changed — a shrink,
/// join, or promotion replaced `comm` — which keeps it correct at *every*
/// comm-reassignment site in the engine (failure arm, epoch joins, policy
/// arms, checkpoint-sync recovery) without threading explicit rebuild
/// calls through them. The rebuild itself is local and deterministic in
/// the agreed membership, so replicas stay aligned.
fn grad_allreduce(
    comm: &Communicator,
    hier: &mut Option<Hierarchy>,
    spec: &TrainSpec,
    buf: &mut [f32],
) -> Result<(), UlfmError> {
    if spec.hier != HierMode::Off {
        if hier.as_ref().is_none_or(|h| !h.is_current_for(comm)) {
            // A failed build (no node color for a member) falls back to
            // flat collectives instead of aborting the step.
            *hier = Hierarchy::build(comm).ok();
            if hier.is_some() {
                telemetry::counter("elastic.hier.rebuilds").incr();
            }
        }
        if let Some(h) = hier.as_ref() {
            if let Some(algo) = spec.hier_route(h.map(), comm.size()) {
                return comm.hier_allreduce(h, buf, ReduceOp::Sum, algo);
            }
        }
    }
    comm.allreduce(buf, ReduceOp::Sum, spec.algo)
}

/// Run one worker under forward recovery. `is_joiner` workers attach to a
/// running group via the join service instead of the initial communicator.
pub fn run_forward_worker(proc: &Proc, cfg: &ForwardConfig, is_joiner: bool) -> ForwardOutcome {
    run_forward_role(
        proc,
        cfg,
        if is_joiner {
            Role::Joiner
        } else {
            Role::Member
        },
    )
}

/// Run one worker in the given [`Role`]. Members and joiners behave as in
/// [`run_forward_worker`]; spares park in the warm pool until a policy
/// round promotes them (after which they train as full members) or the run
/// ends and dismisses them.
pub fn run_forward_role(proc: &Proc, cfg: &ForwardConfig, role: Role) -> ForwardOutcome {
    let mut worker = Worker::new(proc, cfg);
    let run = worker.run(role);
    let exit = worker.exit(run);
    ForwardOutcome {
        exit,
        breakdowns: worker.breakdowns,
    }
}

/// Everything one worker carries through a run.
struct Worker<'a> {
    proc: &'a Proc,
    cfg: &'a ForwardConfig,
    /// The communicator this worker belongs to, replaced by every shrink,
    /// join and promotion; `None` only until a joiner or spare is admitted.
    comm: Option<Communicator>,
    model: dnn::Model,
    opt: dnn::Sgd,
    ds: dnn::SyntheticDataset,
    /// Fusion schedule (if enabled): gradients pack into buckets in ready
    /// order and each bucket allreduces as one resilient collective. The
    /// per-step op sequence becomes `n_ops` bucket allreduces + the commit
    /// barrier, instead of one allreduce per tensor + barrier; op ids and
    /// the restart-point protocol are otherwise identical.
    fusion: Option<FusionSetup>,
    /// Gradient allreduces per step (buckets, or tensors when unfused).
    n_ops: i64,
    /// The step this worker's state is ready to compute.
    step: u64,
    last_loss: f32,
    recoveries: usize,
    steps_recomputed: u64,
    /// Does this worker hold training state? Founding members do from
    /// admission; a joiner or spare only once its bootstrap
    /// [`Worker::checkpoint_sync`] commits.
    has_state: bool,
    /// Rollback arm's restore source (captured every `ckpt_every` steps).
    local_ckpt: Option<Checkpoint>,
    /// Per-step wall time estimate feeding the policy cost model.
    step_time_ema: f64,
    /// Per-epoch hierarchical routing state; see [`grad_allreduce`].
    hier_cache: Option<Hierarchy>,
    /// World size the LR schedule is currently anchored to.
    lr_world: usize,
    /// Recovery/join/abort episodes recorded so far.
    breakdowns: Vec<RecoveryBreakdown>,
}

/// One step attempt's collectives: what is sent, what is kept, what the
/// eager path already did.
struct StepOps {
    /// The collective payloads — fused buckets (ready order) or per-tensor
    /// gradients (declaration order).
    bufs: Vec<Vec<f32>>,
    /// The retained inputs of §3.2 — what makes forward recovery work.
    saved: Vec<Vec<f32>>,
    /// Ops already completed by the eager (ready-queue) launch path…
    done: Vec<bool>,
    /// …and the first error it encountered, if any.
    pending_err: Option<(usize, UlfmError)>,
}

const ADMITTED: &str = "the worker trains only after it was admitted";

impl<'a> Worker<'a> {
    fn new(proc: &'a Proc, cfg: &'a ForwardConfig) -> Self {
        let spec = &cfg.spec;
        let model = spec.build_model();
        let fusion = spec.fusion.map(|cap| FusionSetup::new(&model, cap));
        Self {
            proc,
            cfg,
            comm: None,
            opt: spec.build_optimizer(),
            ds: spec.build_dataset(),
            n_ops: fusion
                .as_ref()
                .map_or(model.num_tensors() as i64, |f| f.n_buckets() as i64),
            fusion,
            model,
            step: 0,
            last_loss: f32::NAN,
            recoveries: 0,
            steps_recomputed: 0,
            has_state: false,
            local_ckpt: None,
            step_time_ema: 0.0,
            hier_cache: None,
            lr_world: 0,
            breakdowns: Vec::new(),
        }
    }

    /// The current communicator. Where another field is borrowed mutably
    /// alongside it (the model during the backward pass, the hierarchy
    /// cache in the op loop) the field is borrowed directly instead.
    fn comm(&self) -> &Communicator {
        self.comm.as_ref().expect(ADMITTED)
    }

    /// The whole run: admission, then step after step with joiner
    /// admission at the epoch boundaries.
    fn run(&mut self, role: Role) -> Result<(), Fatal> {
        let (proc, cfg, spec) = (self.proc, self.cfg, &self.cfg.spec);
        self.admit(role)?;

        // Warm-pool determinism: like expected_joiners, members block until
        // every expected spare has announced itself, so the first failure
        // already sees a warm pool instead of racing spare startup. The
        // counter is monotone and global; `join_wait` bounds the stall, and
        // a lost store ends it (nothing more can be counted).
        if role == Role::Member && cfg.expected_spares > 0 {
            let deadline = cfg.join_wait.map(|w| std::time::Instant::now() + w);
            while proc
                .announced_spares()
                .is_some_and(|n| n < cfg.expected_spares as u64)
                && deadline.is_none_or(|d| std::time::Instant::now() < d)
            {
                std::thread::sleep(std::time::Duration::from_micros(300));
            }
        }

        self.lr_world = self.comm().size();
        if let Some(policy) = cfg.lr_scaling {
            let target = LR * self.lr_world as f32 / policy.base_world as f32;
            self.opt.set_schedule(dnn::LrSchedule::PiecewiseRamp {
                from: LR,
                to: target,
                start: self.step,
                ramp: policy.warmup_steps,
            });
        }

        while (self.step as usize) < spec.total_steps {
            telemetry::counter("elastic.forward.steps").incr();
            let _step_span = telemetry::span("elastic.forward.step_ns");
            self.train_step()?;
            if (self.step as usize).is_multiple_of(spec.steps_per_epoch) {
                self.admit_joiners()?;
            }
        }
        Ok(())
    }

    /// The one exit path: every way a run ends becomes a [`WorkerExit`]
    /// here, and [`WorkerStats`] is built here and nowhere else.
    fn exit(&mut self, run: Result<(), Fatal>) -> WorkerExit {
        let proc = self.proc;
        let kind: fn(WorkerStats) -> WorkerExit = match run {
            Err(Fatal::Died) => return WorkerExit::Died,
            Ok(()) => {
                // Leaving the computation cleanly: dismiss spares the run
                // never needed (idempotent — racing completers may all call
                // it), then mark ourselves gone so that any concurrent
                // recovery among slower workers does not wait for us.
                proc.dismiss_spares();
                proc.retire();
                WorkerExit::Completed
            }
            // Evicted by the drop-node policy.
            Err(Fatal::Excluded) => {
                proc.retire();
                WorkerExit::Excluded
            }
            // Leave quietly — crucially *without* abort_joins, which would
            // dismiss other still-viable joiners.
            Err(Fatal::Unneeded) => {
                proc.retire();
                WorkerExit::Aborted
            }
            // Graceful shutdown: release waiting joiners, record the abort
            // episode under its cause, and leave with the progress so far.
            Err(Fatal::Aborted(cause)) => {
                telemetry::counter(&format!("elastic.abort.{}", cause.name())).incr();
                let mut episode = RecoveryBreakdown::new(RecoveryKind::Abort, self.step);
                episode.time(cause.name(), || {
                    // Joiners (and spares) still blocked on the ticket
                    // service would otherwise wait for a computation that
                    // no longer exists; dismiss them, then leave so
                    // concurrent recoveries observe the departure instead
                    // of hanging on our silence.
                    proc.abort_joins();
                    proc.retire();
                });
                self.finish_episode(episode);
                WorkerExit::Aborted
            }
        };
        kind(WorkerStats {
            steps_done: self.step,
            final_loss: self.last_loss,
            recoveries: self.recoveries,
            // `recover` leaves `comm` untouched when it fails, so this is
            // the last group the worker was a member of.
            final_world: self.comm.as_ref().map_or(0, Communicator::size),
            state_fingerprint: state_fingerprint(&self.model.state_flat()),
            final_lr: self.opt.current_lr(),
            steps_recomputed: self.steps_recomputed,
        })
    }

    /// Close an episode: mirror it into telemetry and keep it for the
    /// caller, always together — the two views must reconcile.
    fn finish_episode(&mut self, episode: RecoveryBreakdown) {
        episode.publish(self.proc.rank().0);
        self.breakdowns.push(episode);
    }

    /// Acquire membership. Founding members start in the initial
    /// communicator; joiners and spares wait for their ticket and then
    /// receive the training state.
    fn admit(&mut self, role: Role) -> Result<(), Fatal> {
        let (proc, cfg) = (self.proc, self.cfg);
        let comm = match role {
            Role::Member => proc.init_comm(),
            Role::Joiner | Role::Spare => {
                let joined = if role == Role::Spare {
                    proc.join_training_as_spare(cfg.join_wait)
                } else {
                    proc.join_training_deadline(cfg.join_wait)
                };
                match joined {
                    Ok(c) => c,
                    Err(UlfmError::SelfDied) => return Err(Fatal::Died),
                    Err(UlfmError::Aborted) if role == Role::Spare => {
                        // Dismissed: the run finished (or aborted) without
                        // needing this spare.
                        telemetry::counter("elastic.spare.dismissed").incr();
                        return Err(Fatal::Unneeded);
                    }
                    // The run shut down before this joiner was admitted.
                    Err(UlfmError::Aborted) => return Err(Fatal::Aborted(Abort::ShutDown)),
                    Err(UlfmError::JoinTimeout) => {
                        // Orphaned: the group completed, degraded to running
                        // shrunk, or partitioned away without ever ticketing
                        // us — or the join store itself was lost.
                        telemetry::counter(if role == Role::Spare {
                            "elastic.spare.ticket_timeouts"
                        } else {
                            "elastic.join.ticket_timeouts"
                        })
                        .incr();
                        return Err(Fatal::Unneeded);
                    }
                    Err(e) => unreachable!("join_training failed unexpectedly: {e}"),
                }
            }
        };
        // Select the agreement protocol for every recovery on this (and, via
        // inheritance, every derived) communicator. A joiner's ticket cannot
        // carry the setting, so each worker installs it from its own spec —
        // identical across the SPMD group by construction.
        comm.set_agree_impl(cfg.spec.agree);
        self.comm = Some(comm);
        if role == Role::Member {
            self.has_state = true;
            return Ok(());
        }
        // Receive (state, step) from the group; the paper's "reinitializing
        // the training state for the new workers". The sync survives sender
        // deaths: it retries on the recovered group until a state-holder
        // commits the broadcast (or none survives and the run aborts). A
        // promoted spare bootstraps exactly like a joiner — the members'
        // side of its promotion is this same sync.
        self.step = self.join_sync()?;
        Ok(())
    }

    /// The live, unbounded state sync of a join, as its own episode — run
    /// by the newcomers (bootstrap) and by the members admitting them.
    /// Returns the step the synced state is ready to compute; a sync with
    /// no state-holder left aborts the run, as there is nothing to fall
    /// back to.
    fn join_sync(&mut self) -> Result<u64, Fatal> {
        let mut episode = RecoveryBreakdown::new(RecoveryKind::Join, self.step);
        let synced = self.checkpoint_sync(
            SyncOpts {
                source: SyncSource::Live,
                restore_all: false,
                bound: SyncBound::Unbounded,
            },
            &mut episode,
        );
        self.finish_episode(episode);
        match synced? {
            SyncOutcome::Synced(step) => Ok(step),
            SyncOutcome::GaveUp => Err(Fatal::Aborted(Abort::BelowMin)),
        }
    }

    /// One optimizer step: attempt it until its commit barrier passes, then
    /// apply the update.
    fn train_step(&mut self) -> Result<(), Fatal> {
        let cfg = self.cfg;
        let step_t0 = std::time::Instant::now();
        let recoveries_before = self.recoveries;
        // The step body may be re-attempted from scratch: if this worker had
        // raced ahead into step S+1 when a failure struck step S's commit
        // barrier, it redoes that barrier and then *recomputes* its S+1
        // gradients with the post-recovery membership (its pre-failure
        // shard was cut for the old world). A committed promotion or
        // rollback also restarts here, at the re-synchronized step.
        let grads = loop {
            if let Some(grads) = self.attempt()? {
                break grads;
            }
        };

        // --- committed: apply the update ---------------------------------
        let cascade = (self.recoveries - recoveries_before) as u64;
        if cascade > 0 {
            telemetry::histogram("elastic.recovery.cascade_depth").record(cascade);
        }
        self.model.set_grads(&grads);
        if let Some(policy) = cfg.lr_scaling {
            // Re-anchor the rate whenever the world changed this step.
            let world = self.comm().size();
            if world != self.lr_world {
                let target = LR * world as f32 / policy.base_world as f32;
                self.opt.set_schedule(dnn::LrSchedule::PiecewiseRamp {
                    from: self.opt.current_lr(),
                    to: target,
                    start: self.step,
                    ramp: policy.warmup_steps,
                });
                self.lr_world = world;
            }
        }
        self.opt.step(&mut self.model.params_mut());
        self.step += 1;
        if cfg.ckpt_every > 0 && self.step.is_multiple_of(cfg.ckpt_every) {
            let mut ck = Checkpoint::capture(&self.model, &self.opt);
            // Anchor to the training step (state is ready to compute it),
            // which the rollback arm uses for the restart point and age.
            ck.step = self.step;
            self.local_ckpt = Some(ck);
        }
        let dt = step_t0.elapsed().as_secs_f64();
        self.step_time_ema = if self.step_time_ema > 0.0 {
            0.8 * self.step_time_ema + 0.2 * dt
        } else {
            dt
        };
        Ok(())
    }

    /// Local gradient computation for one attempt at `self.step`. Weighted
    /// gradients: allreduce(SUM) of per-shard means × weights equals the
    /// global-batch mean.
    fn local_gradients(&mut self) -> StepOps {
        let spec = &self.cfg.spec;
        let comm = self.comm.as_ref().expect(ADMITTED);
        let step = self.step as usize;
        let shard = self
            .ds
            .shard(step, spec.global_batch, comm.rank(), comm.size());
        let shard_weight = shard.labels.len() as f32 / spec.global_batch as f32;
        self.model.zero_grads();

        let mut done: Vec<bool> = vec![false; self.n_ops as usize];
        let mut pending_err: Option<(usize, UlfmError)> = None;
        let (report, bufs, saved) = if let Some(fs) = &self.fusion {
            let mut saved: Vec<Vec<f32>> = vec![Vec::new(); fs.n_buckets()];
            let hier = &mut self.hier_cache;
            let (report, bufs) =
                fs.backward_pass(&mut self.model, &shard, shard_weight, |b, buf| {
                    // Bucket filled: save its input, then launch the fused
                    // allreduce immediately — later layers are still
                    // differentiating (the ready-queue overlap).
                    saved[b] = buf.clone();
                    if pending_err.is_none() {
                        match grad_allreduce(comm, hier, spec, buf) {
                            Ok(()) => done[b] = true,
                            // Stop launching; the op loop drives the recovery
                            // from this recorded error.
                            Err(e) => pending_err = Some((b, e)),
                        }
                    }
                });
            (report, bufs, saved)
        } else {
            let report = self.model.compute_gradients(&shard);
            let grads: Vec<Vec<f32>> = self
                .model
                .grads()
                .iter()
                .map(|g| g.data().iter().map(|v| v * shard_weight).collect())
                .collect();
            let saved = grads.clone();
            (report, grads, saved)
        };
        self.last_loss = report.loss;
        StepOps {
            bufs,
            saved,
            done,
            pending_err,
        }
    }

    /// One attempt at the current step: local gradients, then the
    /// resilient collective phase. `Ok(None)` abandons the attempt — a
    /// committed promotion or rollback moved `self.step`, or this worker
    /// redid the previous step's barrier — and the step is recomputed with
    /// the post-recovery membership.
    fn attempt(&mut self) -> Result<Option<Vec<Vec<f32>>>, Fatal> {
        let (cfg, spec, n_ops) = (self.cfg, &self.cfg.spec, self.n_ops);
        let world = self.comm().size();
        let step_group: Vec<RankId> = self.comm().group().to_vec();
        let mut ops = self.local_gradients();

        // local_op ∈ [0, n_ops]: gradient allreduces (per bucket or per
        // tensor), then the commit barrier. Ops the eager path already
        // completed are skipped; its recorded error surfaces at the op it
        // struck, feeding the same recovery protocol. Op −1 is the
        // *previous* step's commit barrier, entered only when recovery
        // finds this worker had raced ahead of it.
        let mut local_op: i64 = 0;
        let mut redo_from: Option<usize> = None;
        while local_op <= n_ops {
            let comm = self.comm.as_ref().expect(ADMITTED);
            let lo = local_op as usize;
            let result = if local_op < 0 || local_op == n_ops {
                comm.barrier()
            } else if ops.done[lo] {
                Ok(())
            } else if ops.pending_err.as_ref().is_some_and(|(b, _)| *b == lo) {
                Err(ops.pending_err.take().expect("just checked").1)
            } else {
                grad_allreduce(comm, &mut self.hier_cache, spec, &mut ops.bufs[lo])
            };
            let restart = match result {
                // The raced-over barrier is redone; recompute this step
                // from scratch.
                Ok(()) if local_op < 0 => return Ok(None),
                Ok(()) => {
                    local_op += 1;
                    continue;
                }
                Err(UlfmError::SelfDied) => return Err(Fatal::Died),
                Err(UlfmError::Excluded) => unreachable!("collectives never exclude"),
                Err(_) => {
                    let my_global = global_op(self.step, n_ops, local_op);
                    match self.failure_arm(my_global, world)? {
                        Flow::Redo(restart) => {
                            if local_op < 0 {
                                assert_eq!(
                                    restart, my_global,
                                    "nested restart must stay at the redone barrier"
                                );
                            }
                            restart
                        }
                        Flow::Restart(s) => {
                            // Promotion or rollback re-synchronized the
                            // state; recompute from step `s` (racing
                            // workers count their rewound applies as
                            // recomputation).
                            if s < self.step {
                                self.steps_recomputed += self.step - s;
                            }
                            self.step = s;
                            return Ok(None);
                        }
                    }
                }
            };
            let first_of_step = global_op(self.step, n_ops, 0);
            if restart >= first_of_step {
                // Restart within this step: restore the retained inputs and
                // redo from there. Ops the eager path completed on the old
                // communicator are redone too — their `done` marks are void.
                let rlocal = (restart - first_of_step) as usize;
                assert!(rlocal as i64 <= n_ops);
                for (i, s) in ops.saved.iter().enumerate().skip(rlocal) {
                    ops.bufs[i].copy_from_slice(s);
                }
                for d in ops.done.iter_mut().skip(rlocal) {
                    *d = false;
                }
                ops.pending_err = None;
                redo_from = Some(redo_from.map_or(rlocal, |r| r.min(rlocal)));
                local_op = rlocal as i64;
            } else {
                // This worker raced ahead: the agreed restart is the
                // previous step's commit barrier. Redo it as op −1 (its own
                // failures ride the same failure arm).
                assert_eq!(
                    restart,
                    first_of_step - 1,
                    "restart cannot reach into committed work"
                );
                local_op = -1;
            }
        }

        // Degraded-step renormalization: contributions of evicted workers
        // are gone from redone tensors; optionally scale back up. The
        // factor derives from the step's original sharding, so every
        // survivor applies the identical scale.
        if let (Some(rfrom), true) = (redo_from, cfg.renormalize_after_loss) {
            let surviving: f32 = self
                .comm()
                .group()
                .iter()
                .map(|g| {
                    step_group
                        .iter()
                        .position(|&x| x == *g)
                        .map(|idx| shard_len(idx, step_group.len(), spec.global_batch))
                        .unwrap_or(0) as f32
                })
                .sum::<f32>()
                / spec.global_batch as f32;
            if surviving > 0.0 && surviving < 1.0 {
                let scale = 1.0 / surviving;
                let from = rfrom.min(ops.bufs.len());
                for g in ops.bufs.iter_mut().skip(from) {
                    for v in g.iter_mut() {
                        *v *= scale;
                    }
                }
            }
        }
        // Fused buckets scatter back to declaration-order tensors; the
        // unfused payloads already are the per-tensor gradients.
        Ok(Some(match &self.fusion {
            Some(fs) => fs.unpack(&ops.bufs),
            None => ops.bufs,
        }))
    }

    /// The failure arm — the one place a failed operation turns back into
    /// progress: recover, then — if the policy layer is on — run the policy
    /// round, and record the episode. *Every* survivor of the shrink runs
    /// the round (racing workers included: they align here before diverging
    /// into their redo paths, and a worker redoing the previous step's
    /// barrier passes through here like everyone else), so the commit's
    /// collectives stay collective. This is the round's only caller, so no
    /// failure site can forget it.
    fn failure_arm(&mut self, my_global: u64, world_before: usize) -> Result<Flow, Fatal> {
        self.recoveries += 1;
        let mut episode = RecoveryBreakdown::new(RecoveryKind::Forward, self.step);
        let flow = match self.recover(my_global, &mut episode) {
            Ok(restart) if self.cfg.policy_active() => {
                self.policy_round(world_before, restart, &mut episode)
            }
            Ok(restart) => Ok(Flow::Redo(restart)),
            Err(f) => Err(f),
        };
        self.finish_episode(episode);
        flow
    }

    /// Epoch boundary: accept joiners (scenarios II & III).
    fn admit_joiners(&mut self) -> Result<(), Fatal> {
        let (proc, cfg) = (self.proc, self.cfg);
        // Scenario II/III determinism: no epoch boundary passes until every
        // expected joiner has announced itself. The counter is monotone and
        // global, so all members unblock on the same condition regardless
        // of who drains the pending list when. `join_wait` bounds the
        // stall: past the deadline the group gives up and continues shrunk
        // rather than waiting on a joiner that crashed before announcing.
        // A lost store reads as arrived: nothing more can be counted.
        // Spares are a different namespace entirely: epoch boundaries never
        // drain the pool.
        let wait_deadline = cfg.join_wait.map(|w| std::time::Instant::now() + w);
        let all_announced = || {
            let expected = cfg.expected_joiners as u64;
            proc.announced_joiners().is_none_or(|n| n >= expected)
        };
        while !all_announced() && wait_deadline.is_none_or(|d| std::time::Instant::now() < d) {
            std::thread::sleep(std::time::Duration::from_micros(300));
        }
        // The admission itself is re-entrant: a death mid-handshake (leader
        // included) fails the commit uniformly, the survivors shrink, and
        // the shrunk group's new rank 0 re-proposes the still-pending
        // joiners. The give-up hint below is only the *leader's* input —
        // the decision every member acts on rides in the committed
        // proposal, so deadline clocks cannot diverge the SPMD control flow.
        loop {
            let arrived = all_announced();
            let expired = wait_deadline.is_some_and(|d| std::time::Instant::now() >= d);
            match self.comm().accept_joiners_directed(arrived || expired) {
                Ok(JoinOutcome::Merged(merged)) => {
                    self.comm = Some(merged);
                    self.join_sync()?;
                    return Ok(());
                }
                Ok(JoinOutcome::NoneYet) => {
                    // Leader asked the group to keep waiting: nobody had
                    // announced when it proposed. Poll again shortly.
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Ok(JoinOutcome::StopWaiting) => {
                    if expired && !arrived {
                        // Degradation to a shrunk-but-progressing group:
                        // the expected joiner never came and the leader
                        // committed giving up on it.
                        telemetry::counter("elastic.join.wait_timeouts").incr();
                    }
                    return Ok(());
                }
                Err(UlfmError::SelfDied) => return Err(Fatal::Died),
                Err(_) => {
                    // Failed admission commit (or a death observed on
                    // entry): recover on the *old* communicator — the
                    // pending joiners stayed pending — and retry. Recover
                    // only: the policy round belongs to the step's failure
                    // arm; here the group just needs a live communicator to
                    // re-propose on.
                    self.recoveries += 1;
                    let mut episode = RecoveryBreakdown::new(RecoveryKind::Forward, self.step);
                    let recovered = self.recover(u64::MAX, &mut episode);
                    self.finish_episode(episode);
                    recovered?;
                }
            }
        }
    }

    /// One recovery episode: revoke → agree(min) → shrink(policy), then the
    /// `min_workers` floor check — a group that shrank below the floor
    /// aborts uniformly (every survivor of the same shrink sees the same
    /// size). Installs the shrunk communicator and returns the agreed
    /// restart operation; on any error `self.comm` is left as it was.
    fn recover(
        &mut self,
        my_global_op: u64,
        episode: &mut RecoveryBreakdown,
    ) -> Result<u64, Fatal> {
        let (cfg, ep) = (self.cfg, self.proc.endpoint());
        let comm = self.comm();
        telemetry::counter("elastic.recovery.attempts").incr();
        episode.time("revoke", || comm.revoke());

        let agreed = episode.time("agree", || comm.agree(u64::MAX, my_global_op));
        let agreed = match agreed {
            Ok(a) => a,
            Err(UlfmError::SelfDied) => return Err(Fatal::Died),
            // A peer's proposal this rank cannot decode: bytes it chose.
            Err(_) => return Err(Fatal::Aborted(Abort::Malformed)),
        };
        // How many failures this episode handles as one batch: with suspicion
        // batching + lattice agreement a whole burst lands here at once and the
        // eviction policy dispatches on the full set in one view change.
        telemetry::histogram("elastic.recovery.batch_size").record(agreed.failed.len() as u64);

        let (topology, total_ranks) = (ep.topology(), ep.total_ranks());
        let shrunk = episode.time("shrink", || {
            comm.shrink_with(|failed| policy_evictions(cfg.policy, failed, topology, total_ranks))
        });
        match shrunk {
            Ok(ShrinkOutcome::Member(c)) => {
                if c.size() < cfg.spec.min_workers {
                    return Err(Fatal::Aborted(Abort::BelowMin));
                }
                self.comm = Some(c);
                Ok(agreed.min)
            }
            Ok(ShrinkOutcome::Excluded) => Err(Fatal::Excluded),
            Err(UlfmError::SelfDied) => Err(Fatal::Died),
            // Its agreement could not decode a peer's proposal.
            Err(_) => Err(Fatal::Aborted(Abort::Malformed)),
        }
    }

    /// The policy round: score the arms, commit one uniformly, execute it,
    /// and fall down the deterministic fallback chain if it dies
    /// mid-recovery. Runs on the *already-shrunk* group; `world_before` is
    /// the size the failed attempt started with and `restart` the agreed
    /// redo point every shrink edge resumes from.
    fn policy_round(
        &mut self,
        world_before: usize,
        restart: u64,
        episode: &mut RecoveryBreakdown,
    ) -> Result<Flow, Fatal> {
        let (proc, cfg) = (self.proc, self.cfg);
        // Live inputs, gathered locally. Only the leader's copy decides — the
        // decision rides inside the committed proposal, so divergent local
        // views (clocks, fabric stats, pool races) cannot split the SPMD flow.
        let fabric = proc.endpoint().stats();
        let world = self.comm().size();
        let inputs = PolicyInputs {
            world,
            lost: world_before.saturating_sub(world).max(1),
            spares: proc.waiting_spares(),
            has_ckpt: self.local_ckpt.is_some(),
            ckpt_age_steps: self
                .local_ckpt
                .as_ref()
                .map_or(0, |c| self.step.saturating_sub(c.step)),
            remaining_steps: (cfg.spec.total_steps as u64).saturating_sub(self.step),
            step_time: self.step_time_ema.max(1e-6),
            state_bytes: (self.model.state_flat().len() * 8) as f64,
            perturb_rate: fabric.retransmits as f64 / fabric.messages.max(1) as f64,
        };
        let hint = PolicyEngine::new(cfg.policy_mode).choose(&inputs);
        telemetry::counter(match hint {
            RecoveryArm::Shrink => "elastic.policy.decision.shrink",
            RecoveryArm::PromoteSpares => "elastic.policy.decision.spare",
            RecoveryArm::Rollback => "elastic.policy.decision.rollback",
        })
        .incr();

        let group_before: Vec<RankId> = self.comm().group().to_vec();
        let committed = episode.time("policy_commit", || {
            self.comm().commit_recovery_policy(hint, inputs.lost)
        });
        let flow = match committed {
            Err(UlfmError::SelfDied) => Err(Fatal::Died),
            Err(_) => {
                // The policy round itself died (a member or spare lost during
                // the proposal): recover once more and fall back to plain
                // shrink — the arm with no preconditions.
                telemetry::counter("elastic.policy.fallback.round_to_shrink").incr();
                self.recoveries += 1;
                self.recover(u64::MAX, episode).map(|_| {
                    episode.policy = Some("shrink");
                    Flow::Redo(restart)
                })
            }
            Ok(PolicyCommit::Shrink) => {
                episode.policy = Some("shrink");
                Ok(Flow::Redo(restart))
            }
            Ok(PolicyCommit::Promoted(merged)) => {
                // The spares hold their promotion tickets; synchronize them
                // from live state. `restore_all` reconciles racing survivors
                // (divergent by at most one optimizer apply) onto rank 0's
                // state; the bound gives up — uniformly, since post-recovery
                // membership is agreed — if no promoted spare survives the
                // sync, falling back to the shrink redo.
                let promoted: Vec<RankId> = merged
                    .group()
                    .iter()
                    .copied()
                    .filter(|r| !group_before.contains(r))
                    .collect();
                self.comm = Some(merged);
                let opts = SyncOpts {
                    source: SyncSource::Live,
                    restore_all: true,
                    bound: SyncBound::RanksAlive(&promoted),
                };
                self.checkpoint_sync(opts, episode)
                    .map(|synced| match synced {
                        SyncOutcome::Synced(s) => {
                            telemetry::counter("elastic.policy.outcome.promoted").incr();
                            episode.policy = Some("spare");
                            Flow::Restart(s)
                        }
                        SyncOutcome::GaveUp => {
                            telemetry::counter("elastic.policy.fallback.spare_to_shrink").incr();
                            episode.policy = Some("spare->shrink");
                            Flow::Redo(restart)
                        }
                    })
            }
            Ok(PolicyCommit::Rollback) => {
                // One shot: broadcast rank 0's local checkpoint and restore
                // every survivor from it. Any failure inside the attempt —
                // including the post-shrink root lacking a checkpoint — gives
                // up and falls back to the shrink redo (retained inputs are
                // still held).
                let opts = SyncOpts {
                    source: SyncSource::Ckpt,
                    restore_all: true,
                    bound: SyncBound::Attempts(1),
                };
                self.checkpoint_sync(opts, episode)
                    .map(|synced| match synced {
                        SyncOutcome::Synced(s) => {
                            episode.policy = Some("rollback");
                            Flow::Restart(s)
                        }
                        SyncOutcome::GaveUp => {
                            telemetry::counter("elastic.policy.fallback.rollback_to_shrink").incr();
                            episode.policy = Some("rollback->shrink");
                            Flow::Redo(restart)
                        }
                    })
            }
        };
        if matches!(flow, Err(Fatal::Aborted(_))) {
            // The chain's last edge: whatever arm was running, a cascade drove
            // the group below the floor and the run aborts.
            telemetry::counter("elastic.policy.fallback.to_abort").incr();
        }
        flow
    }

    /// Resilient (step ‖ state) synchronization, shared by the joiner/spare
    /// bootstrap, the epoch-boundary admission, and the promotion and
    /// rollback policy arms. Group rank 0 commits its state (live or
    /// checkpointed per [`SyncOpts`]) through [`Communicator::commit`]; on
    /// a lost round the group recovers (revoke → agree → shrink → floor
    /// check) and — within the bound — retries with the shrunk group's
    /// rank 0 as the new sender.
    ///
    /// The sender is always a state-holder while one survives: state-holders
    /// form a prefix of the merged group (members before joiners, and shrink
    /// preserves relative order), so rank 0 lacking state means *no* original
    /// member survives — which the round reports uniformly as
    /// [`Commit::NoHolder`], and the sync gives up under every bound.
    fn checkpoint_sync(
        &mut self,
        opts: SyncOpts<'_>,
        episode: &mut RecoveryBreakdown,
    ) -> Result<SyncOutcome, Fatal> {
        let mut attempt = 0u64;
        let mut failed_attempts = 0u32;
        loop {
            if attempt > 0 {
                telemetry::counter("elastic.ckpt_sync.retries").incr();
            }
            attempt += 1;
            let comm = self.comm();
            // Named fault point: scripts can kill the sender (or any receiver)
            // between checkpoint-broadcast attempts.
            if comm.endpoint().fault_point("ckpt.sync").is_err() {
                return Err(Fatal::Died);
            }
            let committed = episode.time("state_sync", || {
                let provides = match opts.source {
                    SyncSource::Live => self.has_state,
                    SyncSource::Ckpt => self.local_ckpt.is_some(),
                };
                let payload = match opts.source {
                    // Only a root that holds the state sends any.
                    _ if comm.rank() != 0 || !provides => Vec::new(),
                    SyncSource::Live => {
                        let ck = Checkpoint::capture(&self.model, &self.opt);
                        [&self.step.to_le_bytes()[..], &ck.bytes].concat()
                    }
                    SyncSource::Ckpt => {
                        let ck = self.local_ckpt.as_ref().expect("provides checked");
                        [&ck.step.to_le_bytes()[..], &ck.bytes].concat()
                    }
                };
                comm.commit(payload, provides)
            });
            match committed {
                Ok(Commit::Committed(payload)) => {
                    if opts.restore_all || !self.has_state {
                        // The payload was broadcast and agreed, so every
                        // member refuses a malformed one alike.
                        let Some((step, image)) = payload.split_first_chunk::<8>() else {
                            return Err(Fatal::Aborted(Abort::Malformed));
                        };
                        let ck = Checkpoint {
                            step: u64::from_le_bytes(*step),
                            bytes: image.to_vec(),
                        };
                        if ck.try_restore(&mut self.model, &mut self.opt).is_err() {
                            return Err(Fatal::Aborted(Abort::Malformed));
                        }
                        self.has_state = true;
                        return Ok(SyncOutcome::Synced(ck.step));
                    }
                    return Ok(SyncOutcome::Synced(self.step));
                }
                // No state-holder of the requested source is left. The
                // agreement that reported it is uniform, so every survivor
                // gives up here together.
                Ok(Commit::NoHolder) => return Ok(SyncOutcome::GaveUp),
                Ok(Commit::Lost(_)) => {
                    self.recoveries += 1;
                    self.recover(u64::MAX, episode)?;
                    failed_attempts += 1;
                    let group = self.comm().group();
                    let give_up = match opts.bound {
                        SyncBound::Unbounded => false,
                        SyncBound::Attempts(n) => failed_attempts >= n,
                        SyncBound::RanksAlive(ranks) => !ranks.iter().any(|r| group.contains(r)),
                    };
                    if give_up {
                        return Ok(SyncOutcome::GaveUp);
                    }
                }
                Err(UlfmError::SelfDied) => return Err(Fatal::Died),
                // A peer's proposal this rank cannot decode.
                Err(_) => return Err(Fatal::Aborted(Abort::Malformed)),
            }
        }
    }
}

fn global_op(step: u64, n_tensors: i64, local_op: i64) -> u64 {
    (step as i64 * (n_tensors + 1) + local_op) as u64
}

fn shard_len(rank: usize, world: usize, global: usize) -> usize {
    (rank + 1) * global / world - rank * global / world
}

/// What the sender broadcasts in [`Worker::checkpoint_sync`].
enum SyncSource {
    /// Live training state, captured fresh at the root.
    Live,
    /// The root's most recent local checkpoint (the rollback arm).
    Ckpt,
}

/// When a bounded [`Worker::checkpoint_sync`] stops retrying. Every variant
/// is SPMD-uniform: per-attempt outcomes and post-recovery membership are
/// both agreed, so all survivors count attempts and see the group
/// identically.
enum SyncBound<'a> {
    /// Retry until committed or no state-holder survives (joiner
    /// bootstrap and epoch-boundary admission).
    Unbounded,
    /// Give up after this many *failed* attempts (the rollback arm's
    /// single shot).
    Attempts(u32),
    /// Give up once none of these ranks remains in the group (the
    /// promotion arm: stop once every promoted spare is dead).
    RanksAlive(&'a [RankId]),
}

/// How a [`Worker::checkpoint_sync`] behaves.
struct SyncOpts<'a> {
    /// What the root broadcasts.
    source: SyncSource,
    /// Restore *every* member from the payload, not just state-less ones —
    /// rollback semantics, and the racing-survivor reconciliation under
    /// promotion.
    restore_all: bool,
    /// Retry bound.
    bound: SyncBound<'a>,
}

/// How a [`Worker::checkpoint_sync`] ended.
enum SyncOutcome {
    /// Committed; the step the synchronized state is ready to compute.
    Synced(u64),
    /// The bound tripped, or no state-holder was left, before a commit.
    /// Nobody restored anything (the restore only happens on a committed
    /// round), so the caller can fall back safely.
    GaveUp,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainSpec;

    #[test]
    fn global_op_encoding() {
        // T = 4 tensors → 5 ops per step.
        assert_eq!(global_op(0, 4, 0), 0);
        assert_eq!(global_op(0, 4, 4), 4); // barrier of step 0
        assert_eq!(global_op(1, 4, 0), 5);
        assert_eq!(global_op(1, 4, -1), 4); // redo of step 0's barrier
    }

    #[test]
    fn shard_len_tiles() {
        let total: usize = (0..5).map(|r| shard_len(r, 5, 64)).sum();
        assert_eq!(total, 64);
    }

    /// Rank 1 agrees by the lattice protocol, rank 0 by flood-set: each is
    /// sent a proposal it cannot decode. Rank 0's recovery ends the worker
    /// as aborted instead of panicking, and its abort is counted and
    /// recorded as malformed input, not as a group below its floor.
    #[test]
    fn an_undecodable_proposal_in_recovery_aborts_the_worker() {
        let malformed = telemetry::counter("elastic.abort.malformed");
        let before = malformed.get();
        let universe = ulfm::Universe::without_faults(transport::Topology::flat());
        let handles = universe.spawn_batch(2, |proc| {
            let comm = proc.init_comm();
            if proc.endpoint().rank() == RankId(1) {
                comm.set_agree_impl(ulfm::AgreeImpl::Lattice);
                return comm.agree(u64::MAX, u64::MAX) == Err(UlfmError::Aborted);
            }
            let cfg = ForwardConfig::new(TrainSpec::default());
            let mut worker = Worker::new(&proc, &cfg);
            worker.comm = Some(comm);
            let mut episode = RecoveryBreakdown::new(RecoveryKind::Forward, 0);
            let recovered = worker.recover(u64::MAX, &mut episode);
            let aborted = matches!(worker.exit(recovered.map(|_| ())), WorkerExit::Aborted(_));
            let phases: Vec<_> = worker.breakdowns.iter().flat_map(|b| &b.phases).collect();
            assert!(phases.iter().any(|p| p.name == "malformed"), "{phases:?}");
            assert!(!phases.iter().any(|p| p.name == "below_min"), "{phases:?}");
            aborted
        });
        for h in handles.expect("in-process batch") {
            assert!(h.join());
        }
        assert!(
            malformed.get() > before,
            "the abort was not counted as malformed"
        );
    }

    #[test]
    fn policy_inactive_by_default() {
        // The seed configuration must not grow a policy round.
        let cfg = ForwardConfig::new(TrainSpec::default());
        assert!(!cfg.policy_active());
        let mut adaptive = ForwardConfig::new(TrainSpec::default());
        adaptive.policy_mode = PolicyMode::Adaptive;
        assert!(adaptive.policy_active());
        let mut spared = ForwardConfig::new(TrainSpec::default());
        spared.expected_spares = 1;
        assert!(spared.policy_active());
    }
}

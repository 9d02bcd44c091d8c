//! The paper's Eq. (1): the analytic cost of checkpoint-based fault
//! recovery.
//!
//! ```text
//! C_fault_recovery = C_checkpoint_saving × freq_saving
//!                  + Count_fault × ( C_checkpoint_loading
//!                                  + C_re-configuration
//!                                  + C_re-compute_from_checkpoint
//!                                  + C_new_worker_init )
//! ```
//!
//! The forward-recovery approach removes every term except the
//! reconfiguration (shrink) and replaces recompute-from-checkpoint with a
//! single redone collective — which is the paper's core claim. The model
//! here backs the checkpoint-interval ablation bench and cross-checks the
//! simulated breakdowns.

/// Parameters of Eq. (1). All costs in seconds; `saving_freq` is the number
/// of checkpoint saves over the window being modelled.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Eq1Params {
    /// Cost of saving one checkpoint.
    pub ckpt_save: f64,
    /// Number of checkpoint saves in the window.
    pub saving_freq: f64,
    /// Number of faults in the window.
    pub fault_count: f64,
    /// Cost of loading a checkpoint on recovery.
    pub ckpt_load: f64,
    /// Cost of rebuilding the communication context (rendezvous + Gloo).
    pub reconfiguration: f64,
    /// Cost of recomputing the work lost since the last checkpoint.
    pub recompute: f64,
    /// Cost of initializing any replacement workers.
    pub new_worker_init: f64,
}

impl Eq1Params {
    /// Evaluate Eq. (1).
    pub fn total(&self) -> f64 {
        self.ckpt_save * self.saving_freq
            + self.fault_count
                * (self.ckpt_load + self.reconfiguration + self.recompute + self.new_worker_init)
    }

    /// Model a training window of `steps` steps with a checkpoint every
    /// `interval` steps: saving cost scales with `steps / interval`, while
    /// expected recompute per fault is half an interval of step time —
    /// the inverse relationship §2.2 describes.
    #[allow(clippy::too_many_arguments)]
    pub fn with_interval(
        steps: f64,
        interval: f64,
        step_time: f64,
        ckpt_save: f64,
        faults: f64,
        ckpt_load: f64,
        reconfiguration: f64,
        new_worker_init: f64,
    ) -> Self {
        assert!(interval >= 1.0, "interval must be at least one step");
        Self {
            ckpt_save,
            saving_freq: steps / interval,
            fault_count: faults,
            ckpt_load,
            reconfiguration,
            recompute: (interval / 2.0) * step_time,
            new_worker_init,
        }
    }
}

/// An α–β point-to-point network model, used to calibrate the size-adaptive
/// allreduce selection ([`collectives::AllreduceAlgo::Auto`]).
///
/// * ring allreduce: `2(p−1)·α + 2·((p−1)/p)·n·β` — bandwidth-optimal,
///   latency grows linearly with the group;
/// * recursive doubling: `⌈log₂ p⌉·(α + n·β)` — latency-optimal, ships the
///   whole vector every round.
///
/// The curves intersect at
/// `n* = α·(2(p−1) − ⌈log₂ p⌉) / (β·(⌈log₂ p⌉ − 2(p−1)/p))`:
/// below `n*` the α (startup) term dominates and recursive doubling wins;
/// above it the β (bandwidth) term dominates and ring/Rabenseifner win.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommModel {
    /// Per-message startup latency, seconds.
    pub alpha: f64,
    /// Per-byte transfer time, seconds (1 / bandwidth).
    pub beta: f64,
}

impl CommModel {
    /// Summit-like constants (the paper's evaluation platform): 1.5 µs
    /// startup, 23 GB/s injection bandwidth. `simnet::ClusterModel::summit`
    /// takes its link constants from here.
    pub fn summit() -> Self {
        Self {
            alpha: 1.5e-6,
            beta: 1.0 / 23e9,
        }
    }

    /// Predicted ring-allreduce time for `n_bytes` over `p` ranks.
    pub fn ring_time(&self, n_bytes: f64, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let pf = p as f64;
        2.0 * (pf - 1.0) * self.alpha + 2.0 * ((pf - 1.0) / pf) * n_bytes * self.beta
    }

    /// Predicted recursive-doubling-allreduce time for `n_bytes` over `p`.
    pub fn recursive_doubling_time(&self, n_bytes: f64, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        (p as f64).log2().ceil() * (self.alpha + n_bytes * self.beta)
    }

    /// The payload size where ring and recursive doubling cost the same.
    /// Saturates to `u32::MAX` when recursive doubling is never beaten
    /// (e.g. `p = 2`, where both move `n` bytes but ring pays 2α).
    pub fn crossover_bytes(&self, p: usize) -> u32 {
        if p <= 1 {
            return u32::MAX;
        }
        let pf = p as f64;
        let rounds = pf.log2().ceil();
        let alpha_gap = 2.0 * (pf - 1.0) - rounds;
        let beta_gap = rounds - 2.0 * (pf - 1.0) / pf;
        if beta_gap <= 0.0 || alpha_gap <= 0.0 {
            return u32::MAX;
        }
        let n = self.alpha * alpha_gap / (self.beta * beta_gap);
        n.min(u32::MAX as f64) as u32
    }

    /// A size-adaptive allreduce selection calibrated from this model for
    /// a group of `p` ranks.
    pub fn auto_algo(&self, p: usize) -> collectives::AllreduceAlgo {
        collectives::AllreduceAlgo::auto_with(self.crossover_bytes(p))
    }

    /// Best (minimum) predicted flat-allreduce time over the algorithms
    /// the size-adaptive selection can pick.
    pub fn best_time(&self, n_bytes: f64, p: usize) -> f64 {
        self.ring_time(n_bytes, p)
            .min(self.recursive_doubling_time(n_bytes, p))
    }
}

/// Two-tier α–β model: separate constants for intra-node (NVLink-class)
/// and cross-node (injection-network) links, so the allreduce routes —
/// flat over all `p` ranks vs. hierarchical (intra-node reduce → exchange
/// among node leaders → intra-node bcast) — can be compared per bucket
/// size *and* per topology (`simnet`'s sweep does; the engines route by
/// [`crate::HierMode`], an on/off switch).
///
/// Predicted hierarchical time for `p` ranks on nodes of (at most)
/// `local` ranks, with `nodes` leaders:
///
/// ```text
/// T_hier = 2·⌈log₂ local⌉·(α_intra + n·β_intra)   # binomial reduce + bcast
///        + T_flat_best(n, nodes; α_cross, β_cross) # leader exchange
/// ```
///
/// versus `T_flat_best(n, p; α_cross, β_cross)` for the flat route. The
/// regimes this produces on Summit-like constants: at the paper's 192
/// workers the flat ring's latency term is still small, so flat wins at
/// every size; by O(10k) workers `2(p−1)·α_cross` dominates and the
/// hierarchy — whose cross latency scales with nodes, not ranks — wins at
/// large buckets, while tiny buckets still prefer flat recursive
/// doubling. One-rank-per-node topologies degenerate to flat exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HierModel {
    /// Intra-node (NVLink-class) link model.
    pub intra: CommModel,
    /// Cross-node (injection-network) link model.
    pub cross: CommModel,
}

impl HierModel {
    /// Summit-like constants: NVLink 2.0 intra-node (≈1 µs launch,
    /// 150 GB/s per direction) over the cross-node model of
    /// [`CommModel::summit`].
    pub fn summit() -> Self {
        Self {
            intra: CommModel {
                alpha: 1.0e-6,
                beta: 1.0 / 150e9,
            },
            cross: CommModel::summit(),
        }
    }

    /// Predicted flat-route time (best flat algorithm over cross-node
    /// constants — every hop may cross the node boundary).
    pub fn flat_time(&self, n_bytes: f64, p: usize) -> f64 {
        self.cross.best_time(n_bytes, p)
    }

    /// Predicted hierarchical-route time for `p` ranks spread over
    /// `nodes` nodes of at most `local` ranks each.
    pub fn hier_time(&self, n_bytes: f64, nodes: usize, local: usize) -> f64 {
        let rounds = if local <= 1 {
            0.0
        } else {
            (local as f64).log2().ceil()
        };
        let intra = 2.0 * rounds * (self.intra.alpha + n_bytes * self.intra.beta);
        intra + self.cross.best_time(n_bytes, nodes)
    }

    /// The size-adaptive selection for the cross-node exchange among
    /// `nodes` leaders — the second tier of the crossover: the Auto
    /// threshold is computed from the *leader* count and the cross-node
    /// constants, not the flat world size.
    pub fn cross_auto_algo(&self, nodes: usize) -> collectives::AllreduceAlgo {
        self.cross.auto_algo(nodes)
    }
}

/// Live inputs the recovery-policy engine scores the arms with, gathered
/// at the failure site: group state from the communicator, training state
/// from the engine, timing from the profiler's per-step EMA, and link
/// health from the transport's fabric stats.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PolicyInputs {
    /// Surviving world size (after the shrink that detected the failure).
    pub world: usize,
    /// Ranks lost in this failure (pre-shrink minus post-shrink size).
    pub lost: usize,
    /// Live warm spares observed in the pool (leader's local view; the
    /// committed decision re-validates against the pool atomically).
    pub spares: usize,
    /// Does a local checkpoint exist to roll back to?
    pub has_ckpt: bool,
    /// Steps of work since that checkpoint (recompute distance).
    pub ckpt_age_steps: u64,
    /// Steps of training still ahead (the window a throughput deficit
    /// accrues over).
    pub remaining_steps: u64,
    /// Smoothed seconds per training step at the current world size.
    pub step_time: f64,
    /// Bytes of model + optimizer state (sync payload for promotion and
    /// rollback broadcasts).
    pub state_bytes: f64,
    /// Observed perturbation rate: retransmits per delivered message on
    /// this worker's links, `[0, 1]`-ish. Inflates every communication
    /// term — a lossy fabric makes sync-heavy arms relatively costlier.
    pub perturb_rate: f64,
}

/// Analytic cost of each recovery arm, extending [`Eq1Params`] with the
/// α–β [`CommModel`] so the arms are comparable *per failure* from live
/// inputs (Eq. (1) models a whole window; the policy engine needs the
/// marginal cost of the next recovery).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryCostModel {
    /// Point-to-point network model for the collective terms.
    pub comm: CommModel,
    /// Seconds to load a checkpoint from storage (rollback only).
    pub ckpt_load: f64,
    /// Seconds a promoted spare needs to become step-ready beyond the
    /// state broadcast (framework re-init; Eq. (1)'s `new_worker_init`).
    pub spare_init: f64,
}

impl Default for RecoveryCostModel {
    fn default() -> Self {
        Self {
            comm: CommModel::summit(),
            ckpt_load: 0.5,
            spare_init: 0.2,
        }
    }
}

impl RecoveryCostModel {
    /// Flood-set agreement over `p` ranks: `⌈log₂ p⌉` rounds, each an α
    /// startup per peer (the threaded runtime's agreement is p-round, but
    /// the *model* uses ERA's logarithmic cost like `simnet`).
    pub fn agree_time(&self, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        (p as f64).log2().ceil() * self.comm.alpha * p as f64
    }

    /// Reconfiguration (revoke + agree-on-failed + shrink commit): two
    /// agreements plus a communicator rebuild's worth of startups. Strictly
    /// increasing in `p`.
    pub fn reconfig_time(&self, p: usize) -> f64 {
        2.0 * self.agree_time(p) + self.comm.alpha * p as f64
    }

    /// Direct cost of *executing* `arm` once, given `inputs`. Infeasible
    /// arms (promotion with a cold pool, rollback without a checkpoint)
    /// cost `f64::INFINITY`, so `choose` can argmin without special cases.
    pub fn recovery_cost(&self, arm: ulfm::RecoveryArm, inputs: &PolicyInputs) -> f64 {
        use ulfm::RecoveryArm::*;
        let p = inputs.world.max(1);
        // A lossy fabric retransmits: every communication term pays the
        // observed overhead.
        let lossy = 1.0 + inputs.perturb_rate.max(0.0);
        match arm {
            // Forward-shrink: reconfigure, then redo the interrupted
            // collective from retained inputs (one step's comm volume).
            Shrink => lossy * (self.reconfig_time(p) + self.comm.ring_time(inputs.state_bytes, p)),
            // Promotion: reconfigure, run the policy-commit round (a
            // broadcast + agreement), broadcast full state to the merged
            // group, and pay the spare's init.
            PromoteSpares => {
                if inputs.spares == 0 {
                    return f64::INFINITY;
                }
                let merged = p + inputs.lost.min(inputs.spares);
                lossy
                    * (self.reconfig_time(p)
                        + self.agree_time(p)
                        + self
                            .comm
                            .recursive_doubling_time(inputs.state_bytes, merged))
                    + self.spare_init
            }
            // Rollback: reconfigure, load + broadcast the checkpoint, then
            // recompute everything since it was taken.
            Rollback => {
                if !inputs.has_ckpt {
                    return f64::INFINITY;
                }
                lossy
                    * (self.reconfig_time(p)
                        + self.comm.recursive_doubling_time(inputs.state_bytes, p))
                    + self.ckpt_load
                    + inputs.ckpt_age_steps as f64 * inputs.step_time
            }
        }
    }

    /// Throughput deficit an arm leaves behind: shrink and rollback both
    /// continue on `world` survivors, losing `lost/world` of aggregate
    /// throughput over the remaining steps; promotion restores the world
    /// and forfeits nothing. (First-order model: per-step time is taken as
    /// world-size-independent, which is exact for the fixed-per-worker
    /// shard the engines train.)
    pub fn deficit(&self, arm: ulfm::RecoveryArm, inputs: &PolicyInputs) -> f64 {
        use ulfm::RecoveryArm::*;
        match arm {
            PromoteSpares => 0.0,
            Shrink | Rollback => {
                let p = inputs.world.max(1) as f64;
                inputs.remaining_steps as f64 * inputs.step_time * inputs.lost as f64 / p
            }
        }
    }

    /// Total score of an arm: execution cost plus the deficit it leaves.
    pub fn score(&self, arm: ulfm::RecoveryArm, inputs: &PolicyInputs) -> f64 {
        self.recovery_cost(arm, inputs) + self.deficit(arm, inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Eq1Params {
        Eq1Params {
            ckpt_save: 0.1,
            saving_freq: 100.0,
            fault_count: 2.0,
            ckpt_load: 0.5,
            reconfiguration: 3.0,
            recompute: 1.0,
            new_worker_init: 10.0,
        }
    }

    #[test]
    fn total_matches_hand_computation() {
        // 0.1×100 + 2×(0.5+3+1+10) = 10 + 29 = 39
        assert!((base().total() - 39.0).abs() < 1e-9);
    }

    #[test]
    fn zero_faults_leaves_only_saving_cost() {
        let p = Eq1Params {
            fault_count: 0.0,
            ..base()
        };
        assert!((p.total() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn recompute_and_saving_tradeoff_is_inverse() {
        // Shorter interval ⇒ more saving cost, less recompute (paper §2.2).
        let short = Eq1Params::with_interval(1000.0, 1.0, 0.5, 0.05, 1.0, 0.5, 3.0, 0.0);
        let long = Eq1Params::with_interval(1000.0, 100.0, 0.5, 0.05, 1.0, 0.5, 3.0, 0.0);
        assert!(short.saving_freq > long.saving_freq);
        assert!(short.recompute < long.recompute);
    }

    #[test]
    fn optimal_interval_is_interior() {
        // The classic checkpoint-interval tradeoff has an interior optimum.
        let cost =
            |i: f64| Eq1Params::with_interval(1000.0, i, 0.5, 0.05, 2.0, 0.5, 3.0, 0.0).total();
        let c1 = cost(1.0);
        let c10 = cost(10.0);
        let c500 = cost(500.0);
        assert!(c10 < c1, "10-step interval should beat every-step saving");
        assert!(c10 < c500, "10-step interval should beat huge intervals");
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn interval_below_one_rejected() {
        Eq1Params::with_interval(10.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0);
    }

    #[test]
    fn crossover_separates_the_regimes() {
        let m = CommModel::summit();
        for p in [3usize, 4, 5, 8, 16] {
            let x = m.crossover_bytes(p) as f64;
            assert!(x.is_finite() && x > 0.0);
            // Below the crossover recursive doubling must be cheaper, above
            // it ring must be — that is the definition of the crossover.
            assert!(
                m.recursive_doubling_time(x / 4.0, p) < m.ring_time(x / 4.0, p),
                "p={p}: recursive doubling should win below the crossover"
            );
            assert!(
                m.ring_time(x * 4.0, p) < m.recursive_doubling_time(x * 4.0, p),
                "p={p}: ring should win above the crossover"
            );
        }
    }

    #[test]
    fn p2_never_prefers_ring() {
        // At p = 2 both algorithms move n bytes but ring pays twice the
        // startup cost; the crossover saturates.
        assert_eq!(CommModel::summit().crossover_bytes(2), u32::MAX);
    }

    #[test]
    fn default_crossover_matches_summit_calibration() {
        // The collectives crate's baked-in default (used when no model is
        // supplied) must sit in the Summit model's crossover range for the
        // group sizes the benches run (within 2×).
        let m = CommModel::summit();
        let default = collectives::AllreduceAlgo::DEFAULT_CROSSOVER_BYTES as f64;
        let x4 = m.crossover_bytes(4) as f64;
        assert!(
            default / x4 < 2.0 && x4 / default < 2.0,
            "default {default} vs model {x4}"
        );
    }

    #[test]
    fn auto_algo_resolves_against_model() {
        let m = CommModel::summit();
        let algo = m.auto_algo(4);
        let x = m.crossover_bytes(4) as usize;
        assert_eq!(
            algo.resolve(x / 2, 4),
            collectives::AllreduceAlgo::RecursiveDoubling
        );
        assert_eq!(
            algo.resolve(x * 2, 4),
            collectives::AllreduceAlgo::Rabenseifner
        );
        assert_eq!(algo.resolve(x * 2, 5), collectives::AllreduceAlgo::Ring);
    }

    #[test]
    fn cross_auto_algo_uses_leader_count() {
        let m = HierModel::summit();
        // The second-tier Auto threshold comes from the *leader* group:
        // with 2 leaders recursive doubling is never beaten, regardless of
        // what the flat world size would have chosen.
        let algo = m.cross_auto_algo(2);
        assert_eq!(
            algo.resolve(1 << 30, 2),
            collectives::AllreduceAlgo::RecursiveDoubling
        );
        // With many leaders the calibrated crossover separates regimes.
        let x = m.cross.crossover_bytes(32) as usize;
        let algo = m.cross_auto_algo(32);
        assert_eq!(
            algo.resolve(x / 2, 32),
            collectives::AllreduceAlgo::RecursiveDoubling
        );
        assert_eq!(
            algo.resolve(x * 2, 32),
            collectives::AllreduceAlgo::Rabenseifner
        );
    }

    #[test]
    fn hier_time_degenerates_cleanly() {
        let m = HierModel::summit();
        // local = 1 → no intra rounds: exactly the flat time over `nodes`.
        assert_eq!(m.hier_time(1e6, 8, 1), m.flat_time(1e6, 8));
        // One node → pure intra cost, no cross term.
        assert!(m.hier_time(1e6, 1, 6) < m.flat_time(1e6, 6));
    }
}

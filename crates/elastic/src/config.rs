//! Shared configuration and outcome types for both engines.

use collectives::AllreduceAlgo;
use transport::RankId;

/// What to evict when a worker fails (paper §3.1: "we offer users a runtime
/// command line flag that allows them to choose whether to drop a single
/// process or the entire node").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RecoveryPolicy {
    /// Evict only the failed process(es). ULFM-only capability in the
    /// paper's Table 2.
    DropProcess,
    /// Evict every process on a node that hosts a failure (Elastic
    /// Horovod's behaviour; also supported by the ULFM path).
    DropNode,
}

/// SGD learning rate of every run: no workload varies it. Elastic LR
/// scaling ([`crate::LrScaling`]) ramps from this reference rate.
pub(crate) const LR: f32 = 0.05;

/// SGD momentum of every run: no workload varies it.
const MOMENTUM: f32 = 0.9;

/// The training workload both engines run: a small MLP on the synthetic
/// dataset. Identical across all workers (deterministic seeds).
#[derive(Clone, Debug)]
pub struct TrainSpec {
    /// Input feature dimension.
    pub features: usize,
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// Number of classes.
    pub classes: usize,
    /// Model/init/data seed.
    pub seed: u64,
    /// Global mini-batch size (sharded over current workers).
    pub global_batch: usize,
    /// Steps per epoch (joins happen at epoch boundaries).
    pub steps_per_epoch: usize,
    /// Total optimizer steps to run.
    pub total_steps: usize,
    /// Allreduce algorithm for gradient aggregation.
    pub algo: AllreduceAlgo,
    /// Tensor-fusion byte cap: `Some(cap)` packs gradients into fused
    /// buckets of at most `cap` bytes (Horovod's fusion threshold) and
    /// allreduces each bucket as one collective, launched as soon as the
    /// bucket fills during the backward pass. `None` (the default)
    /// allreduces each tensor individually after the full backward pass —
    /// the pre-fusion protocol.
    pub fusion: Option<usize>,
    /// Minimum world size the run tolerates. When a failure cascade shrinks
    /// the surviving group below this floor, every survivor aborts cleanly
    /// ([`WorkerExit::Aborted`]) instead of training on a degenerate group
    /// (Elastic Horovod's `--min-np`). The default of 1 never aborts —
    /// training continues down to a single worker, the seed behaviour.
    pub min_workers: usize,
    /// Hierarchical (topology-aware) routing for gradient allreduces. Both
    /// engines keep a per-epoch node map — rebuilt after every
    /// shrink/join/promotion — and consult this mode per bucket.
    pub hier: HierMode,
    /// Which uniform-agreement protocol recovery uses to decide the failed
    /// set: the seed flood-set ([`ulfm::AgreeImpl::Flood`], p rounds,
    /// conformance oracle) or the incremental lattice-agreement fast path
    /// ([`ulfm::AgreeImpl::Lattice`], constant rounds failure-free,
    /// mid-protocol deaths absorbed by widening). The engines install this
    /// on every communicator they acquire — initial, joined, shrunk, or
    /// promoted.
    pub agree: ulfm::AgreeImpl,
}

/// How gradient buckets choose between the flat and the hierarchical
/// (intra-node reduce → leader exchange → intra-node bcast) allreduce: an
/// on/off switch, as Elastic Horovod's `HOROVOD_HIERARCHICAL_ALLREDUCE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HierMode {
    /// Always flat collectives (the seed behaviour).
    Off,
    /// Always hierarchical whenever the topology has a multi-rank node
    /// (benchmarks and fault-injection tests that must exercise the
    /// hierarchical path regardless of scale).
    Force,
}

impl HierMode {
    /// Route one bucket: should it take the hierarchical path? `nodes` and
    /// `local` describe the current communicator epoch's node map
    /// (`n_nodes`, `max_node_size`).
    pub fn use_hier(self, p: usize, nodes: usize, local: usize) -> bool {
        match self {
            HierMode::Off => false,
            // A hierarchy over one-rank nodes (or a single node spanning
            // the world is fine — it degenerates to a local reduce+bcast)
            // buys nothing when every node is a singleton.
            HierMode::Force => local > 1 && nodes < p,
        }
    }
}

impl TrainSpec {
    /// Route one gradient bucket — the flat-vs-hierarchical decision both
    /// engines share. `Some(algo)` means take the two-level path over `map`
    /// (the current epoch's node map) with `algo` for the cross-node
    /// exchange; `None` means the flat allreduce. With a
    /// size-adaptive ([`AllreduceAlgo::Auto`]) spec the cross-node exchange
    /// resolves against the two-tier model's *leader-count* crossover
    /// ([`crate::cost_model::HierModel::cross_auto_algo`]), not the flat
    /// world's.
    pub(crate) fn hier_route(
        &self,
        map: &collectives::NodeMap,
        world: usize,
    ) -> Option<AllreduceAlgo> {
        let (nodes, local) = (map.n_nodes(), map.max_node_size());
        if !self.hier.use_hier(world, nodes, local) {
            return None;
        }
        telemetry::counter("elastic.hier.routed_buckets").incr();
        Some(if matches!(self.algo, AllreduceAlgo::Auto { .. }) {
            crate::cost_model::HierModel::summit().cross_auto_algo(nodes)
        } else {
            self.algo
        })
    }
}

impl Default for TrainSpec {
    fn default() -> Self {
        Self {
            features: 16,
            hidden: vec![32],
            classes: 4,
            seed: 42,
            global_batch: 64,
            steps_per_epoch: 4,
            total_steps: 12,
            algo: AllreduceAlgo::Ring,
            fusion: None,
            min_workers: 1,
            hier: HierMode::Off,
            agree: ulfm::AgreeImpl::Flood,
        }
    }
}

impl TrainSpec {
    /// Build the (deterministic, replica-identical) model for this spec.
    pub fn build_model(&self) -> dnn::Model {
        dnn::Model::mlp(self.features, &self.hidden, self.classes, self.seed)
    }

    /// Build the optimizer: SGD at the fixed rate 0.05 and momentum 0.9.
    pub fn build_optimizer(&self) -> dnn::Sgd {
        dnn::Sgd::new(LR, MOMENTUM)
    }

    /// Build the dataset.
    pub fn build_dataset(&self) -> dnn::SyntheticDataset {
        dnn::SyntheticDataset::new(self.features, self.classes, self.seed ^ 0x5EED)
    }
}

/// Per-worker statistics accumulated over a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkerStats {
    /// Optimizer steps this worker participated in.
    pub steps_done: u64,
    /// Loss at the last step this worker saw.
    pub final_loss: f32,
    /// Recovery episodes this worker went through.
    pub recoveries: usize,
    /// Size of the last communicator (forward engine) or Gloo context
    /// (backward engine) this worker was a member of — on every exit path,
    /// so a worker that shrank 4 → 3 and later aborts reports 3. Zero for a
    /// joiner or spare that was never admitted.
    pub final_world: usize,
    /// Flattened model state hash for cross-worker consistency checks.
    pub state_fingerprint: u64,
    /// Learning rate in effect when the worker finished or left (elastic
    /// LR scaling makes this world-size dependent).
    pub final_lr: f32,
    /// Optimizer steps this worker re-executed because of checkpoint
    /// rollbacks. Always 0 under pure forward recovery — that is the
    /// point; nonzero only when the policy layer commits a rollback arm
    /// (or a promotion rewinds a raced-ahead worker by one apply).
    pub steps_recomputed: u64,
}

/// How a worker's run ended.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkerExit {
    /// Trained to `total_steps`.
    Completed(WorkerStats),
    /// Killed by the fault plan / driver.
    Died,
    /// Evicted by the recovery policy (healthy rank on a failed node).
    Excluded(WorkerStats),
    /// The run shut down because a failure cascade shrank the world below
    /// [`TrainSpec::min_workers`]; this worker exited cleanly with its
    /// progress so far.
    Aborted(WorkerStats),
}

impl WorkerExit {
    /// Stats if the worker finished, was excluded, or aborted.
    pub fn stats(&self) -> Option<&WorkerStats> {
        match self {
            WorkerExit::Completed(s) | WorkerExit::Excluded(s) | WorkerExit::Aborted(s) => Some(s),
            WorkerExit::Died => None,
        }
    }

    /// Did this worker train to the end?
    pub fn completed(&self) -> bool {
        matches!(self, WorkerExit::Completed(_))
    }
}

/// FNV-1a over the model's flattened f32 state: a cheap fingerprint used to
/// assert that all replicas hold bit-identical parameters.
pub fn state_fingerprint(flat: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in flat {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Compute the additional ranks to evict for a policy, given the failed set.
/// Deterministic: every survivor computes the same eviction list locally.
pub fn policy_evictions(
    policy: RecoveryPolicy,
    failed: &[RankId],
    topology: transport::Topology,
    total_ranks: usize,
) -> Vec<RankId> {
    match policy {
        RecoveryPolicy::DropProcess => Vec::new(),
        RecoveryPolicy::DropNode => {
            let mut evicted = Vec::new();
            for &f in failed {
                evicted.extend(topology.node_peers(f, total_ranks));
            }
            evicted.sort_unstable();
            evicted.dedup();
            evicted
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transport::Topology;

    #[test]
    fn fingerprint_detects_divergence() {
        let a = state_fingerprint(&[1.0, 2.0, 3.0]);
        let b = state_fingerprint(&[1.0, 2.0, 3.0]);
        let c = state_fingerprint(&[1.0, 2.0, 3.001]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn drop_process_evicts_nothing_extra() {
        let e = policy_evictions(
            RecoveryPolicy::DropProcess,
            &[RankId(4)],
            Topology::new(3),
            9,
        );
        assert!(e.is_empty());
    }

    #[test]
    fn drop_node_evicts_whole_node() {
        let e = policy_evictions(RecoveryPolicy::DropNode, &[RankId(4)], Topology::new(3), 9);
        assert_eq!(e, vec![RankId(3), RankId(4), RankId(5)]);
    }

    #[test]
    fn drop_node_dedups_across_failures() {
        let e = policy_evictions(
            RecoveryPolicy::DropNode,
            &[RankId(3), RankId(5)],
            Topology::new(3),
            9,
        );
        assert_eq!(e, vec![RankId(3), RankId(4), RankId(5)]);
    }

    #[test]
    fn spec_builders_are_deterministic() {
        let spec = TrainSpec::default();
        let a = spec.build_model().state_flat();
        let b = spec.build_model().state_flat();
        assert_eq!(a, b);
    }

    #[test]
    fn worker_exit_accessors() {
        let s = WorkerStats::default();
        assert!(WorkerExit::Completed(s.clone()).completed());
        assert!(!WorkerExit::Died.completed());
        assert!(WorkerExit::Died.stats().is_none());
        assert!(WorkerExit::Excluded(s.clone()).stats().is_some());
        assert!(!WorkerExit::Aborted(s.clone()).completed());
        assert!(WorkerExit::Aborted(s).stats().is_some());
    }

    #[test]
    fn default_min_workers_never_aborts() {
        // The seed behaviour: a default spec tolerates shrinking to one.
        assert_eq!(TrainSpec::default().min_workers, 1);
    }
}

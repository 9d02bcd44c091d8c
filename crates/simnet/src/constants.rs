//! Summit-calibrated cluster constants.
//!
//! Every number here has a stated provenance. Absolute values are
//! order-of-magnitude calibrations (we are reproducing cost *shapes* and
//! ratios, per DESIGN.md §1), anchored to (a) Summit's published hardware
//! numbers, (b) the magnitudes visible on the paper's own Fig. 4 axes, and
//! (c) well-known defaults of the software involved.

/// Per-model per-minibatch GPU compute time (forward+backward), seconds.
/// Order-of-magnitude V100 throughput for batch ≈ 32–64 images: VGG-16 is
/// the heaviest, NasNetMobile the lightest.
pub fn minibatch_compute_s(model: &dnn::ModelProfile) -> f64 {
    match model.name {
        "VGG-16" => 0.35,
        "ResNet50V2" => 0.25,
        "NasNetMobile" => 0.20,
        // Fallback: scale with parameter count relative to ResNet50V2.
        _ => 0.25 * (model.total_params as f64 / 25.6e6),
    }
}

/// The cluster + software cost model. Defaults are Summit-like.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusterModel {
    /// Per-message latency α (s). HPC interconnect (EDR IB on Summit):
    /// ~1.5 µs MPI latency.
    pub alpha: f64,
    /// Per-byte time β (s/B). Summit node injection bandwidth: 23 GB/s
    /// (paper §4.1).
    pub beta: f64,
    /// Per-message latency α *inside a node* (s). NVLink hops between
    /// Summit's V100s: ~1 µs software latency.
    pub alpha_intra: f64,
    /// Per-byte time β *inside a node* (s/B). NVLink 2.0 link bandwidth:
    /// ~150 GB/s aggregate per GPU on Summit.
    pub beta_intra: f64,
    /// Workers per node: 6 V100 GPUs on Summit (paper §4.1).
    pub ranks_per_node: usize,
    /// One KV-store round trip against Horovod's rendezvous server
    /// (HTTP over the management network): ~1 ms.
    pub kv_rtt: f64,
    /// One Gloo pairwise TCP connection setup: ~2 ms (connect + handshake
    /// over the management fabric).
    pub conn_setup: f64,
    /// Host memory bandwidth for checkpoint serialize/deserialize:
    /// ~10 GB/s effective single-stream.
    pub mem_bw: f64,
    /// Gloo/Elastic-Horovod exception-catch latency: the time between the
    /// fault and the Python layer holding a `HorovodInternalError` —
    /// dominated by Gloo's communication timeout residue and stack
    /// unwinding. Fig. 4-scale: ~0.6 s.
    pub catch_exception: f64,
    /// Shutting down ongoing operations and destroying the old context
    /// (Fig. 4 "shut down ongoing operations"): ~0.3 s.
    pub shutdown: f64,
    /// Re-initializing Horovod's elastic driver state (blacklist update,
    /// host discovery round): ~0.2 s.
    pub reinit_elastic: f64,
    /// ULFM/RTE failure-detection latency (heartbeat timeout): ~50 ms —
    /// ULFM's detector is tunable; this is a conservative HPC setting.
    pub ulfm_detect: f64,
    /// Per-hop software overhead of the revoke reliable broadcast: ~0.2 ms.
    pub revoke_hop: f64,
    /// Per-round cost of the ERA agreement protocol (logarithmic rounds):
    /// ~0.5 ms per round including software overhead.
    pub agree_round: f64,
    /// Fixed cost of allocating/duplicating a communicator after shrink:
    /// ~5 ms.
    pub comm_dup: f64,
    /// Loading + initializing frameworks on a *new* worker (Python, CUDA,
    /// TensorFlow/Horovod imports on Summit's parallel FS): ~15 s. The
    /// paper notes this cost is incurred once per joining worker and
    /// dominates replacement/upscale for both systems.
    pub lib_init: f64,
    /// `MPI_Comm_spawn`/connect-accept cost for ULFM joiners: ~1 s.
    pub mpi_spawn: f64,
    /// Horovod tensor-fusion buffer (bytes): 64 MiB default — the unit of
    /// in-flight allreduce data a forward recovery re-executes.
    pub fusion_buffer: f64,
}

impl Default for ClusterModel {
    fn default() -> Self {
        // Link constants: the runtime's Summit model, not a second copy.
        let links = elastic::HierModel::summit();
        Self {
            alpha: links.cross.alpha,
            beta: links.cross.beta,
            alpha_intra: links.intra.alpha,
            beta_intra: links.intra.beta,
            ranks_per_node: 6,
            kv_rtt: 1.0e-3,
            conn_setup: 2.0e-3,
            mem_bw: 10.0e9,
            catch_exception: 0.6,
            shutdown: 0.3,
            reinit_elastic: 0.2,
            ulfm_detect: 0.05,
            revoke_hop: 2.0e-4,
            agree_round: 5.0e-4,
            comm_dup: 5.0e-3,
            lib_init: 15.0,
            mpi_spawn: 1.0,
            fusion_buffer: 64.0 * 1024.0 * 1024.0,
        }
    }
}

impl ClusterModel {
    /// Summit as configured in the paper.
    pub fn summit() -> Self {
        Self::default()
    }

    /// Number of nodes hosting `workers` workers.
    pub fn nodes_for(&self, workers: usize) -> usize {
        workers.div_ceil(self.ranks_per_node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_physical() {
        let c = ClusterModel::summit();
        assert!(c.alpha > 0.0 && c.alpha < 1e-4);
        // 23 GB/s.
        assert!((1.0 / c.beta - 23.0e9).abs() < 1.0);
        assert_eq!(c.ranks_per_node, 6);
    }

    #[test]
    fn intra_node_fabric_is_faster() {
        let c = ClusterModel::summit();
        assert!(c.alpha_intra < c.alpha);
        assert!(c.beta_intra < c.beta);
    }

    #[test]
    fn nodes_for_rounds_up() {
        let c = ClusterModel::summit();
        assert_eq!(c.nodes_for(24), 4);
        assert_eq!(c.nodes_for(25), 5);
    }

    #[test]
    fn minibatch_ordering_matches_model_size() {
        let m = dnn::paper_models();
        let vgg = minibatch_compute_s(&m[0]);
        let rn = minibatch_compute_s(&m[1]);
        let nas = minibatch_compute_s(&m[2]);
        assert!(vgg > rn && rn > nas);
    }

    #[test]
    fn fallback_scales_with_params() {
        let custom = dnn::ModelProfile {
            name: "Custom",
            trainable_tensors: 10,
            depth: 10,
            total_params: 51_200_000,
            size_mb: 195.0,
        };
        let t = minibatch_compute_s(&custom);
        assert!((t - 0.5).abs() < 1e-9);
    }
}

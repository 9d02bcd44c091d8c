//! Collective-communication algorithms over an abstract point-to-point
//! transport.
//!
//! Distributed data-parallel training spends most of its communication time
//! in **allreduce** (gradient aggregation) and **allgather** (tensor-shape
//! negotiation, state distribution), as the paper's §3.2 notes. This crate
//! implements the classic algorithms for those collectives — and the
//! supporting broadcast / reduce / barrier / gather / scatter — generically
//! over the [`PeerComm`] trait, so the same code serves:
//!
//! * the resilient ULFM runtime (`ulfm` crate), where a collective must
//!   surface a peer failure as a per-operation error and leave survivors in
//!   a recoverable state; and
//! * the non-resilient Gloo-style contexts (`gloo` crate), where the first
//!   failure poisons the whole context (the Elastic-Horovod baseline).
//!
//! Both run their collectives through [`EndpointGroup`], the one
//! `PeerComm` over a transport endpoint, which holds the one map from a
//! transport failure to a [`CollError`]. The runtimes differ only in what
//! they do with that error.
//!
//! All algorithms are deterministic: for a fixed group size and input, the
//! result is bit-identical across runs (floating-point reduction order is
//! fixed by the algorithm).
//!
//! ## Tag discipline
//!
//! Every entry point takes a `tag_base`. An algorithm uses tags in
//! `[tag_base, tag_base + TAG_SPAN)`; the caller must ensure that no two
//! concurrent collectives on overlapping groups share that window. The MPI
//! layer achieves this by encoding (communicator id, per-communicator
//! sequence number) into `tag_base`.

#![warn(missing_docs)]

use telemetry::{Counter, Histogram, Lazy};

/// Telemetry handles of one collective, `<metric>.{ops,latency_ns,failures}`:
/// each name is resolved in the registry once, at its first use.
pub(crate) struct OpMetrics {
    ops: Lazy<Counter>,
    latency_ns: Lazy<Histogram>,
    failures: Lazy<Counter>,
}

/// The `&'static` [`OpMetrics`] of the collective named by a literal.
macro_rules! op_metrics {
    ($metric:literal) => {{
        static M: $crate::OpMetrics = $crate::OpMetrics {
            ops: telemetry::Lazy::counter(concat!($metric, ".ops")),
            latency_ns: telemetry::Lazy::histogram(concat!($metric, ".latency_ns")),
            failures: telemetry::Lazy::counter(concat!($metric, ".failures")),
        };
        &M
    }};
}

impl OpMetrics {
    /// Wrap one invocation: times the call into `<metric>.latency_ns` and
    /// bumps `<metric>.ops`, plus `<metric>.failures` when the collective
    /// surfaces an error (peer failure, revocation, ...).
    pub(crate) fn observe<T, E>(&self, f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
        self.ops.incr();
        let start = std::time::Instant::now();
        let out = f();
        self.latency_ns.record_duration(start.elapsed());
        if out.is_err() {
            self.failures.incr();
        }
        out
    }
}

mod allgather;
mod allreduce;
mod barrier;
mod bcast;
mod comm;
mod elem;
mod error;
mod framing;
mod fusion;
mod hier;
mod reduce;

pub use allgather::{allgather, bruck_allgather, ring_allgather, AllgatherAlgo};
pub use allreduce::{
    allreduce, rabenseifner_allreduce, recursive_doubling_allreduce, ring_allreduce, AllreduceAlgo,
};
pub use barrier::dissemination_barrier;
pub use bcast::binomial_bcast;
pub use comm::{EndpointGroup, PeerComm};
pub use elem::{copy_from_le, reduce_from_le, Elem, ReduceOp, SEGMENT_BYTES};
pub use error::CollError;
pub use fusion::{
    fused_allreduce, observe_bucket, plan_buckets, FusionBuffer, DEFAULT_FUSION_BYTES,
};
pub use hier::{hier_allreduce, hier_fused_allreduce, two_tier_chunk_range, NodeMap};
pub use reduce::{binomial_reduce, gather, scatter};

/// Maximum number of tags any single collective in this crate may consume.
/// Callers advance their sequence numbers by at least this much between
/// collectives on the same communicator.
pub const TAG_SPAN: u64 = 1 << 20;

#[cfg(test)]
mod testutil;

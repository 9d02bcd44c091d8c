//! A ULFM-style resilient MPI runtime over the in-memory transport.
//!
//! This crate reproduces, in Rust, the User-Level Failure Mitigation
//! extension of MPI that the paper builds on (§2.3): MPI programs keep
//! running across process failures, errors are reported *per operation* at
//! the local rank, and a small set of recovery constructs restores full
//! collective capability:
//!
//! | ULFM construct | Here |
//! |---|---|
//! | `MPI_ERR_PROC_FAILED` per operation | [`UlfmError::ProcFailed`] returned by the failing operation only |
//! | `MPIX_Comm_revoke` | [`Communicator::revoke`] — poisons the communicator for all members and interrupts pending operations |
//! | `MPIX_Comm_agree` | [`Communicator::agree`] — fault-tolerant uniform agreement (bitwise AND of flags + union of known failures) |
//! | `MPIX_Comm_shrink` | [`Communicator::shrink`] — agreement on the failed set, then a new, dense, working communicator of survivors |
//! | `MPIX_Comm_failure_ack` / `get_acked` | [`Communicator::failure_ack`] / [`Communicator::get_acked`] |
//! | `mpirun` / `MPI_Comm_spawn` + merge (for replacement/upscale) | [`Universe::spawn_batch`] over a [`transport::Mesh`] + [`Communicator::accept_joiners`] / [`Proc::join_training`] |
//!
//! Ranks are OS threads inside a [`Universe`] over a [`transport::Mesh`],
//! in process or over sockets alike; the transport provides the reliable
//! links and the failure detector. Collective
//! algorithms come from the `collectives` crate and surface peer death as
//! per-operation errors, which is all the recovery machinery above needs.
//! Each rank keeps its own revocation flags and communicator ids, as an MPI
//! process does, and a revocation is a transport signal that every
//! receiver forwards once — in process exactly as across processes.
//!
//! ## Divergences from real ULFM, and why they are harmless here
//!
//! * **Failure detection is perfect and immediate** (a shared alive table),
//!   where Open MPI's RTE detector is eventually-perfect with a tunable
//!   timeout. This shifts *when* recovery starts by a constant, not the
//!   recovery protocol itself; the `simnet` crate models detection latency
//!   explicitly for the paper-scale figures.
//! * **Agreement is a p-round flood-set protocol**, simple and obviously
//!   uniform under crash faults with a perfect detector, where ULFM
//!   implementations use the logarithmic ERA protocol. The threaded
//!   runtime cares about correctness, not message counts; `simnet` uses
//!   ERA's logarithmic cost for timing.

#![warn(missing_docs)]

mod agree;
mod comm;
mod error;
mod hierarchy;
mod lattice;
mod netjoin;
mod tags;
mod universe;

pub use agree::AgreeResult;
pub use comm::{Commit, Communicator, JoinOutcome, PolicyCommit, RecoveryArm, ShrinkOutcome};
pub use error::UlfmError;
pub use hierarchy::Hierarchy;
pub use lattice::{lattice_agree, AgreeImpl, Proposal};
pub use netjoin::NetJoin;
pub use universe::{JoinTicket, Proc, Universe, WorkerHandle};

pub use transport::{NodeId, RankId, Topology};

/// What a decoder of `u64` words must refuse, derived from a payload it
/// accepts: empty, one word short, one word long, and ragged both ways.
#[cfg(test)]
pub(crate) fn malformed_variants(valid: &[u8]) -> Vec<Vec<u8>> {
    vec![
        Vec::new(),
        valid[..valid.len() - 8].to_vec(),
        [valid, &[0; 8]].concat(),
        valid[..valid.len() - 1].to_vec(),
        [valid, &[0]].concat(),
    ]
}

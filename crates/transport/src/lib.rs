//! In-memory, fault-injectable message transport.
//!
//! This crate is the lowest layer of the elastic-training reproduction. It
//! plays the role that the network fabric plus the MPI runtime's failure
//! detector play on a real machine:
//!
//! * every *rank* (worker process in the paper) owns a [`Mailbox`] and is
//!   addressed by a [`RankId`];
//! * ranks exchange tagged byte messages through a shared [`Fabric`];
//! * ranks can *fail* — abruptly, possibly in the middle of a collective —
//!   either because a test killed them from the outside
//!   ([`Fabric::kill_rank`] / [`Fabric::kill_node`]) or because a scripted
//!   [`FaultPlan`] told the rank to die at a specific operation count;
//! * surviving ranks observe failures exactly the way ULFM prescribes:
//!   an operation that needs a dead peer returns an error *for that
//!   operation*; nothing is torn down globally.
//!
//! The transport presents a reliable, FIFO-per-(sender, receiver, tag)
//! channel to its users, matching MPI's ordering guarantees — but it no
//! longer *assumes* a perfect link underneath. Every message travels as a
//! checksummed, sequence-numbered frame (see [`wire`]); a seeded
//! [`PerturbPlan`] can drop, delay, duplicate, reorder, or bit-flip frames
//! per link, and the fabric heals those with receiver-side deduplication
//! plus bounded retransmission under exponential backoff
//! ([`RetryPolicy`]). Failure detection is likewise two-tiered:
//!
//! * the alive table still gives the instantaneous, "perfect-detector" view
//!   used for clean fail-stop deaths;
//! * timeout-based *suspicion* ([`Fabric::set_suspicion_timeout`]) covers
//!   silent failures: a send whose retries exhaust, or a blocking receive
//!   that stalls past the deadline, declares the unresponsive peer dead and
//!   reports [`TransportError::PeerDead`] — the eventually-perfect detector
//!   ULFM actually requires.
//!
//! All of the above sits behind the [`Backend`] trait: the in-process
//! fabric is one implementation ([`Endpoint::new`]), and [`SocketBackend`]
//! provides the same contract across OS processes over TCP or Unix-domain
//! stream sockets (see [`backend`] and [`socket`]).

#![warn(missing_docs)]

pub mod backend;
mod error;
mod fabric;
mod fault;
mod ids;
mod mailbox;
mod perturb;
pub mod socket;
pub mod stream;
mod wait;
pub mod wire;

pub use backend::{Backend, BackendKind, Endpoint, SignalHandler};
pub use error::TransportError;
pub use fabric::{Fabric, FabricStats};
pub use fault::{FaultInjector, FaultPlan, FaultTrigger};
pub use ids::{NodeId, RankId, Topology};
pub use mailbox::{Envelope, FrameAck, Mailbox, RecvOutcome};
pub use perturb::{LinkPerturb, PerturbPlan, Perturber, RetryPolicy};
pub use socket::{SocketBackend, SocketListener};
pub use stream::{encode_envelope, StreamDecoder, StreamEnvelope, StreamError, StreamKind};
pub use wire::{bytes_to_f32s, bytes_to_u64s, f32s_to_bytes, u64s_to_bytes, Wire};

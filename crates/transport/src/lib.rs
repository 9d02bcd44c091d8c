//! Fault-injectable message transport: one delivery engine over
//! interchangeable links.
//!
//! This crate is the lowest layer of the elastic-training reproduction. It
//! plays the role that the network fabric plus the MPI runtime's failure
//! detector play on a real machine:
//!
//! * every *rank* (worker process in the paper) owns a [`Mailbox`] and is
//!   addressed by a [`RankId`]; ranks exchange tagged byte messages through
//!   an [`Endpoint`];
//! * ranks can *fail* — abruptly, possibly in the middle of a collective —
//!   because a test killed them from the outside ([`Fabric::kill_rank`] /
//!   [`Fabric::kill_node`], or a real `SIGKILL`), or because a scripted
//!   [`FaultPlan`] told the rank to die at a specific operation count or
//!   named fault point;
//! * surviving ranks observe failures exactly the way ULFM prescribes:
//!   an operation that needs a dead peer returns an error *for that
//!   operation*; nothing is torn down globally.
//!
//! That contract — reliable FIFO-per-(sender, receiver, tag) channels of
//! checksummed frames ([`wire`]), and a two-tier failure detector, the
//! alive table for clean fail-stop deaths plus timeout-based *suspicion*
//! for silent ones — is implemented once, by the delivery engine behind
//! the [`Backend`] trait (see [`backend`]). Reliability is a layer that
//! exists only where loss can: once a seeded [`PerturbPlan`] perturbs a
//! link, frames are numbered per link, and deduplication, reordering and
//! bounded retransmission ([`RetryPolicy`]) heal the loss. Until then a
//! send is one hand-over of an unnumbered frame, with no ack and no
//! retransmit, and a [`Mailbox`] only matches. What varies is the link under
//! it: function calls between threads of one process ([`Fabric`],
//! [`Endpoint::new`]) or TCP / Unix-domain stream sockets between OS
//! processes ([`SocketBackend`], see [`socket`]).
//!
//! A job of rank threads in one process is built by [`Mesh`], the one
//! world builder: [`Mesh::new`] names the link by [`BackendKind`], and the
//! mesh alone answers what the links differ in — how a newcomer joins,
//! what a rank whose worker returned means, the suspicion default, the
//! traffic counters and teardown — so the same code runs over either.

#![warn(missing_docs)]

pub mod backend;
mod delivery;
mod error;
mod fabric;
mod fault;
mod ids;
mod mailbox;
mod mesh;
mod perturb;
mod poll;
mod reliable;
pub mod socket;
pub mod stream;
mod wait;
pub mod wire;

pub use backend::{Backend, BackendKind, Endpoint, SignalHandler};
pub use delivery::FabricStats;
pub use error::TransportError;
pub use fabric::Fabric;
pub use fault::{FaultInjector, FaultPlan, FaultTrigger};
pub use ids::{NodeId, RankId, Topology};
pub use mailbox::{FrameAck, Mailbox, RecvOutcome};
pub use mesh::Mesh;
pub use perturb::{LinkPerturb, PerturbPlan, Perturber, RetryPolicy};
pub use socket::{SocketBackend, SocketListener};
pub use stream::{encode_envelope, StreamDecoder, StreamEnvelope, StreamError, StreamKind};
pub use wire::{bytes_to_f32s, f32s_to_bytes, Wire};

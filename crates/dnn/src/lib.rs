//! A minimal-but-real deep-learning framework.
//!
//! The paper trains Keras image models (VGG-16, ResNet50V2, NasNetMobile)
//! on ImageNet across data-parallel workers. Neither Keras nor ImageNet is
//! available here, so this crate provides the two things the evaluation
//! actually depends on:
//!
//! 1. **A trainable network** — real tensors, dense/conv/ReLU layers,
//!    softmax cross-entropy, SGD with momentum, and in-memory checkpoints —
//!    so the elastic engines in the `elastic` crate train something whose
//!    loss genuinely decreases, and whose gradients are real data flowing
//!    through the resilient collectives.
//! 2. **Model profiles** ([`profiles`]) replicating the paper's Table 1
//!    models in the quantities that drive the evaluation: trainable-tensor
//!    count, parameter count, and checkpoint size. Those determine the
//!    number and sizes of allreduce operations per step and the cost of
//!    checkpoint save/load/broadcast — which is all the recovery
//!    experiments measure.
//!
//! Everything is deterministic under a `u64` seed.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod data;
pub mod layers;
pub mod loss;
pub mod model;
pub mod optim;
pub mod profiles;
pub mod tensor;

pub use checkpoint::{Checkpoint, InMemoryCheckpointStore, RestoreError};
pub use data::{Batch, SyntheticDataset};
pub use layers::{Conv2d, Dense, Flatten, Layer, ReLU};
pub use model::{Model, TrainReport};
pub use optim::{LrSchedule, Sgd};
pub use profiles::{paper_models, ModelProfile};
pub use tensor::Tensor;

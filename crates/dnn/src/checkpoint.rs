//! In-memory checkpoints of the full training state.
//!
//! The paper's baseline (Elastic Horovod) recovers by rolling back to a
//! checkpoint taken at minimum every mini-batch (§3.2, Fig. 2); for
//! comparability its evaluation uses **memory** checkpoints, excluding
//! parallel-file-system cost (§4.1). We reproduce that: a checkpoint is a
//! serialized byte image of (step, model parameters, optimizer state), and
//! the store is a shared in-memory slot.

use crate::model::Model;
use crate::optim::Sgd;
use crate::tensor::Tensor;
use std::sync::{Arc, Mutex};
use transport::Wire;

/// A serialized training-state snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Optimizer step at which the snapshot was taken.
    pub step: u64,
    /// Serialized payload.
    pub bytes: Vec<u8>,
}

impl Checkpoint {
    /// Capture model + optimizer into a checkpoint.
    pub fn capture(model: &Model, opt: &Sgd) -> Self {
        let (step, velocity) = opt.state_vec();
        let flat = model.state_flat();
        let mut payload: Vec<u8> = Vec::new();
        // Header: step, #param floats, #velocity tensors.
        step.write(&mut payload);
        (flat.len() as u64).write(&mut payload);
        (velocity.len() as u64).write(&mut payload);
        payload.extend_from_slice(&f32::encode_slice(&flat));
        for v in &velocity {
            (v.len() as u64).write(&mut payload);
            payload.extend_from_slice(&f32::encode_slice(v.data()));
        }
        Self {
            step,
            bytes: payload,
        }
    }

    /// Restore model + optimizer from this checkpoint, or say why the image
    /// cannot be — a joiner or a rollback installs an image a peer sent, so
    /// every count in it is checked against the bytes and the model before
    /// anything is changed. On `Err`, `model` and `opt` are untouched.
    pub fn try_restore(&self, model: &mut Model, opt: &mut Sgd) -> Result<(), RestoreError> {
        let mut image = Image(&self.bytes);
        let step = image.u64()?;
        let n_flat = image.u64()?;
        let n_vel = image.u64()?;
        let flat = image.f32s(n_flat)?;
        let sizes: Vec<usize> = model.params().iter().map(|p| p.value.len()).collect();
        if flat.len() != sizes.iter().sum::<usize>() {
            return Err(RestoreError::Shape);
        }
        // No velocity yet, or one per parameter tensor: never more tensors
        // than the model has, whatever the count claims.
        if n_vel != 0 && n_vel != sizes.len() as u64 {
            return Err(RestoreError::Shape);
        }
        let mut velocity = Vec::with_capacity(n_vel as usize);
        for &size in sizes.iter().take(n_vel as usize) {
            let len = image.u64()?;
            let vals = image.f32s(len)?;
            if vals.len() != size {
                return Err(RestoreError::Shape);
            }
            velocity.push(Tensor::from_vec(&[size], vals));
        }
        if !image.0.is_empty() {
            return Err(RestoreError::Trailing);
        }
        model.load_state_flat(&flat);
        opt.restore(step, velocity);
        Ok(())
    }

    /// Restore model + optimizer from a checkpoint this run took itself.
    ///
    /// # Panics
    /// Panics if the byte image does not match the model's architecture —
    /// see [`Checkpoint::try_restore`] for an image a peer sent.
    pub fn restore(&self, model: &mut Model, opt: &mut Sgd) {
        if let Err(e) = self.try_restore(model, opt) {
            panic!("checkpoint does not fit the model: {e}");
        }
    }

    /// Size of the serialized image in bytes (drives the cost model).
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }
}

/// Why a checkpoint image cannot be restored into a model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestoreError {
    /// The image ends before a count in it says it should: short, ragged,
    /// or a count larger than the bytes.
    Truncated,
    /// Bytes follow the last velocity tensor.
    Trailing,
    /// Well formed, but not shaped like the model it is restored into.
    Shape,
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RestoreError::Truncated => "image shorter than its counts",
            RestoreError::Trailing => "trailing bytes after the image",
            RestoreError::Shape => "image shaped for another model",
        })
    }
}

/// The unread rest of a checkpoint image.
struct Image<'a>(&'a [u8]);

impl Image<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], RestoreError> {
        if n > self.0.len() {
            return Err(RestoreError::Truncated);
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u64(&mut self) -> Result<u64, RestoreError> {
        self.take(8).map(u64::read)
    }

    /// `count` f32s, the byte length checked before anything is sliced.
    fn f32s(&mut self, count: u64) -> Result<Vec<f32>, RestoreError> {
        let len = usize::try_from(count)
            .ok()
            .and_then(|c| c.checked_mul(f32::WIDTH))
            .ok_or(RestoreError::Truncated)?;
        f32::decode_checked(self.take(len)?).ok_or(RestoreError::Truncated)
    }
}

/// A shared single-slot in-memory checkpoint store (latest wins), as the
/// paper's memory-checkpoint setup uses.
#[derive(Clone, Default)]
pub struct InMemoryCheckpointStore {
    slot: Arc<Mutex<Option<Checkpoint>>>,
}

impl InMemoryCheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Save (replacing any previous checkpoint).
    pub fn save(&self, ckpt: Checkpoint) {
        *self.slot.lock().unwrap() = Some(ckpt);
    }

    /// Load the most recent checkpoint, if any.
    pub fn load(&self) -> Option<Checkpoint> {
        self.slot.lock().unwrap().clone()
    }

    /// The step of the most recent checkpoint.
    pub fn latest_step(&self) -> Option<u64> {
        self.slot.lock().unwrap().as_ref().map(|c| c.step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticDataset;

    fn trained_pair() -> (Model, Sgd, SyntheticDataset) {
        let mut m = Model::mlp(6, &[12], 3, 5);
        let mut o = Sgd::new(0.05, 0.9);
        let ds = SyntheticDataset::new(6, 3, 8);
        for step in 0..5 {
            m.compute_gradients(&ds.batch(step, 16));
            o.step(&mut m.params_mut());
        }
        (m, o, ds)
    }

    #[test]
    fn capture_restore_roundtrip_bitexact() {
        let (mut m, mut o, ds) = trained_pair();
        let ckpt = Checkpoint::capture(&m, &o);
        assert_eq!(ckpt.step, 5);

        // Continue training the original for 3 steps → trajectory A.
        let mut trajectory_a = Vec::new();
        for step in 5..8 {
            let r = m.compute_gradients(&ds.batch(step, 16));
            o.step(&mut m.params_mut());
            trajectory_a.push(r.loss);
        }

        // Restore into fresh objects and replay → must match bit-exactly.
        let mut m2 = Model::mlp(6, &[12], 3, 999);
        let mut o2 = Sgd::new(0.05, 0.9);
        ckpt.restore(&mut m2, &mut o2);
        assert_eq!(o2.step_count(), 5);
        let mut trajectory_b = Vec::new();
        for step in 5..8 {
            let r = m2.compute_gradients(&ds.batch(step, 16));
            o2.step(&mut m2.params_mut());
            trajectory_b.push(r.loss);
        }
        assert_eq!(trajectory_a, trajectory_b);
    }

    #[test]
    fn checkpoint_size_scales_with_params() {
        let (m, o, _) = trained_pair();
        let ckpt = Checkpoint::capture(&m, &o);
        let params = m.num_params();
        // params + velocities ≈ 2× params of f32, plus small headers.
        let expected = params * 4 * 2;
        assert!(
            ckpt.size_bytes() >= expected && ckpt.size_bytes() < expected + 256,
            "size {} vs expected ≈{}",
            ckpt.size_bytes(),
            expected
        );
    }

    #[test]
    fn store_keeps_latest() {
        let store = InMemoryCheckpointStore::new();
        assert!(store.load().is_none());
        let (m, o, _) = trained_pair();
        let c1 = Checkpoint::capture(&m, &o);
        store.save(c1.clone());
        assert_eq!(store.latest_step(), Some(5));
        let c2 = Checkpoint {
            step: 9,
            bytes: c1.bytes.clone(),
        };
        store.save(c2);
        assert_eq!(store.latest_step(), Some(9));
    }

    #[test]
    fn a_malformed_image_is_an_error_not_a_panic() {
        let (m, o, _) = trained_pair();
        let good = Checkpoint::capture(&m, &o).bytes;
        let put = |at: usize, v: u64| {
            let mut b = good.clone();
            b[at..at + 8].copy_from_slice(&v.to_le_bytes());
            b
        };
        let n_flat = u64::read(&good[8..16]);
        // The first velocity tensor's length field follows the parameters.
        let vel0 = 24 + n_flat as usize * 4;
        let mut bad: Vec<(String, Vec<u8>)> = Vec::new();
        // Empty, short and ragged: every proper prefix.
        for cut in 0..good.len() {
            bad.push((format!("cut to {cut}"), good[..cut].to_vec()));
        }
        // Long: trailing bytes of every size up to a word and past it.
        for extra in [1, 3, 4, 8, 12] {
            let long = [good.as_slice(), &vec![0; extra]].concat();
            bad.push((format!("{extra} trailing"), long));
        }
        // Lying counts: too few, too many, and ones whose byte length wraps.
        for lie in [0, 1, n_flat - 1, n_flat + 1, u64::MAX / 4 + 1, u64::MAX] {
            bad.push((format!("n_flat {lie}"), put(8, lie)));
            bad.push((format!("velocity len {lie}"), put(vel0, lie)));
        }
        for lie in [1, 3, 5, u64::MAX] {
            bad.push((format!("n_vel {lie}"), put(16, lie)));
        }
        for (what, bytes) in bad {
            let ck = Checkpoint { step: 0, bytes };
            let mut m2 = Model::mlp(6, &[12], 3, 999);
            let mut o2 = Sgd::new(0.05, 0.9);
            let before = m2.state_flat();
            assert!(
                ck.try_restore(&mut m2, &mut o2).is_err(),
                "{what}: accepted"
            );
            assert_eq!(m2.state_flat(), before, "{what}: model touched");
            assert_eq!(o2.state_vec().0, 0, "{what}: optimizer touched");
            assert!(o2.state_vec().1.is_empty(), "{what}: optimizer touched");
        }
        // A well-formed image of another architecture fits nothing here.
        let other = Checkpoint::capture(&Model::mlp(6, &[11], 3, 5), &o);
        let mut m2 = Model::mlp(6, &[12], 3, 999);
        let mut o2 = Sgd::new(0.05, 0.9);
        assert_eq!(
            other.try_restore(&mut m2, &mut o2),
            Err(RestoreError::Shape)
        );
    }

    #[test]
    fn restore_before_any_velocity_works() {
        // Checkpoint taken before the first optimizer step has no velocity.
        let m = Model::mlp(4, &[], 2, 1);
        let o = Sgd::new(0.1, 0.9);
        let ckpt = Checkpoint::capture(&m, &o);
        let mut m2 = Model::mlp(4, &[], 2, 2);
        let mut o2 = Sgd::new(0.1, 0.9);
        ckpt.restore(&mut m2, &mut o2);
        assert_eq!(m2.state_flat(), m.state_flat());
        assert_eq!(o2.step_count(), 0);
    }
}

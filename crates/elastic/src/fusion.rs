//! Engine-side fusion bookkeeping: mapping a model's tensors onto fused
//! allreduce buckets.
//!
//! The collectives crate owns the mechanics (bucket partitioning, packing,
//! the fused allreduce itself); this module owns the *schedule*: tensors
//! fill buckets in the order the backward pass produces them
//! ([`dnn::Model::ready_order`], last layer first), buckets therefore fill
//! strictly in sequence, and each bucket's allreduce can launch the moment
//! it fills — while earlier layers are still differentiating. Because the
//! ready order and the bucket plan are pure functions of the (replica-
//! identical) model architecture and the byte cap, every rank derives the
//! same schedule and the SPMD collective contract holds.

use std::ops::Range;

/// Precomputed fusion schedule for one model architecture.
///
/// Buckets partition the *ready-order* tensor sequence under the byte cap;
/// `slot` maps a declaration-order tensor index to its bucket and offset so
/// the backward hook can scatter gradients straight into bucket buffers.
#[derive(Clone, Debug)]
pub struct FusionSetup {
    /// Declaration-order element count of each tensor.
    decl_sizes: Vec<usize>,
    /// Buckets as ranges over ready-order positions.
    plan: Vec<Range<usize>>,
    /// Ready-order tensor sequence (declaration indices).
    ready_order: Vec<usize>,
    /// Declaration index → (bucket, element offset within bucket).
    slot: Vec<(usize, usize)>,
    /// Elements per bucket.
    bucket_lens: Vec<usize>,
}

impl FusionSetup {
    /// Build the schedule for `model` under a fusion byte cap (gradients
    /// are f32, 4 bytes each).
    pub fn new(model: &dnn::Model, cap_bytes: usize) -> Self {
        let decl_sizes: Vec<usize> = model.grads().iter().map(|g| g.len()).collect();
        let ready_order = model.ready_order();
        let ready_sizes: Vec<usize> = ready_order.iter().map(|&i| decl_sizes[i]).collect();
        let plan = collectives::plan_buckets(&ready_sizes, std::mem::size_of::<f32>(), cap_bytes);

        let mut slot = vec![(0usize, 0usize); decl_sizes.len()];
        let mut bucket_lens = Vec::with_capacity(plan.len());
        for (b, range) in plan.iter().enumerate() {
            let mut off = 0usize;
            for pos in range.clone() {
                slot[ready_order[pos]] = (b, off);
                off += ready_sizes[pos];
            }
            bucket_lens.push(off);
        }
        Self {
            decl_sizes,
            plan,
            ready_order,
            slot,
            bucket_lens,
        }
    }

    /// Number of fused buckets (= resilient collectives per step, before
    /// the commit barrier).
    pub fn n_buckets(&self) -> usize {
        self.plan.len()
    }

    /// Elements in bucket `b`'s buffer.
    pub fn bucket_len(&self, b: usize) -> usize {
        self.bucket_lens[b]
    }

    /// How many tensors bucket `b` fuses (its fill target).
    pub fn bucket_tensors(&self, b: usize) -> usize {
        self.plan[b].len()
    }

    /// Where tensor `decl_idx` lives: (bucket, element offset, length).
    pub fn slot(&self, decl_idx: usize) -> (usize, usize, usize) {
        let (b, off) = self.slot[decl_idx];
        (b, off, self.decl_sizes[decl_idx])
    }

    /// The fused backward pass both engines run: differentiate `batch`
    /// with the ready-queue hook installed, scattering each gradient
    /// (× `weight`) into its bucket as its layer finishes, and fire
    /// `on_full(b, bucket)` the moment bucket `b` fills — later layers are
    /// still differentiating, so a fused allreduce launched from there
    /// overlaps the rest of the pass. Returns the report and the buckets.
    pub(crate) fn backward_pass(
        &self,
        model: &mut dnn::Model,
        batch: &dnn::Batch,
        weight: f32,
        mut on_full: impl FnMut(usize, &mut Vec<f32>),
    ) -> (dnn::TrainReport, Vec<Vec<f32>>) {
        let mut bufs = self.bucket_buffers();
        let mut filled = vec![0usize; self.n_buckets()];
        let mut fill_start: Vec<Option<std::time::Instant>> = vec![None; self.n_buckets()];
        let report = model.compute_gradients_with(batch, |idx, g| {
            let (b, off, len) = self.slot(idx);
            if fill_start[b].is_none() {
                fill_start[b] = Some(std::time::Instant::now());
            }
            for (d, s) in bufs[b][off..off + len].iter_mut().zip(g.data()) {
                *d = s * weight;
            }
            filled[b] += 1;
            if filled[b] < self.bucket_tensors(b) {
                return;
            }
            if let Some(t0) = fill_start[b].take() {
                telemetry::histogram("elastic.fusion.fill_latency_ns")
                    .record(t0.elapsed().as_nanos() as u64);
            }
            collectives::observe_bucket(
                bufs[b].len() * std::mem::size_of::<f32>(),
                self.bucket_tensors(b),
            );
            on_full(b, &mut bufs[b]);
        });
        (report, bufs)
    }

    /// Fresh zeroed bucket buffers.
    pub fn bucket_buffers(&self) -> Vec<Vec<f32>> {
        self.bucket_lens.iter().map(|&n| vec![0.0; n]).collect()
    }

    /// Scatter reduced bucket buffers back into declaration-order
    /// per-tensor gradients (the layout [`dnn::Model::set_grads`] expects).
    pub fn unpack(&self, buckets: &[Vec<f32>]) -> Vec<Vec<f32>> {
        assert_eq!(buckets.len(), self.n_buckets(), "bucket count mismatch");
        let mut out: Vec<Vec<f32>> = self.decl_sizes.iter().map(|&n| vec![0.0; n]).collect();
        for &decl_idx in &self.ready_order {
            let (b, off, len) = self.slot(decl_idx);
            out[decl_idx].copy_from_slice(&buckets[b][off..off + len]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> dnn::Model {
        // Tensors (decl order): 0: 8×16 W, 1: 16 b, 2: 16×4 W, 3: 4 b.
        dnn::Model::mlp(8, &[16], 4, 1)
    }

    #[test]
    fn schedule_covers_every_tensor_once() {
        let m = model();
        let fs = FusionSetup::new(&m, 64); // 16 f32 per bucket
        let total: usize = (0..fs.n_buckets()).map(|b| fs.bucket_tensors(b)).sum();
        assert_eq!(total, m.num_tensors());
        let elems: usize = (0..fs.n_buckets()).map(|b| fs.bucket_len(b)).sum();
        assert_eq!(elems, m.num_params());
    }

    #[test]
    fn huge_cap_fuses_everything_into_one_bucket() {
        let m = model();
        let fs = FusionSetup::new(&m, 64 << 20);
        assert_eq!(fs.n_buckets(), 1);
        assert_eq!(fs.bucket_tensors(0), 4);
    }

    #[test]
    fn zero_cap_degenerates_to_per_tensor() {
        let m = model();
        let fs = FusionSetup::new(&m, 0);
        assert_eq!(fs.n_buckets(), m.num_tensors());
    }

    #[test]
    fn pack_unpack_roundtrip_in_ready_order() {
        let m = model();
        let fs = FusionSetup::new(&m, 128);
        // Fill bucket buffers through the slot map from synthetic
        // declaration-order tensors...
        let decl: Vec<Vec<f32>> = m
            .grads()
            .iter()
            .enumerate()
            .map(|(i, g)| (0..g.len()).map(|j| (i * 1000 + j) as f32).collect())
            .collect();
        let mut bufs = fs.bucket_buffers();
        for (idx, t) in decl.iter().enumerate() {
            let (b, off, len) = fs.slot(idx);
            bufs[b][off..off + len].copy_from_slice(t);
        }
        // ...and unpacking must reproduce them exactly.
        assert_eq!(fs.unpack(&bufs), decl);
    }
}

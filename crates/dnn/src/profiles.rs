//! The paper's Table 1 model profiles.
//!
//! The evaluation's dependence on the Keras models reduces to three
//! quantities per model: how many trainable tensors a step must allreduce,
//! how many parameters they hold in total (⇒ bytes moved per step and per
//! checkpoint), and the network depth. A [`ModelProfile`] captures exactly
//! those, plus a deterministic synthetic tensor-size distribution that
//! matches the totals, so benches can drive the real collective stack with
//! the real message-size mix without instantiating a 549 MB Keras model.

/// A named model profile (one row of the paper's Table 1).
#[derive(Clone, Debug, PartialEq)]
pub struct ModelProfile {
    /// Model name as in the paper.
    pub name: &'static str,
    /// Number of trainable tensors ("Trainable" column) — the number of
    /// allreduce buffers per step before fusion.
    pub trainable_tensors: usize,
    /// Network depth ("Depth" column).
    pub depth: usize,
    /// Total trainable parameters.
    pub total_params: u64,
    /// Checkpoint/state size in MiB ("Size (MB)" column): `params × 4 B`.
    pub size_mb: f64,
}

impl ModelProfile {
    /// VGG-16: few tensors, huge ones (143.7 M parameters, 549 MB).
    pub fn vgg16() -> Self {
        Self {
            name: "VGG-16",
            trainable_tensors: 32,
            depth: 16,
            total_params: 143_700_000,
            size_mb: 549.0,
        }
    }

    /// ResNet50V2: mid-size (25.6 M parameters, 98 MB, 272 tensors).
    pub fn resnet50v2() -> Self {
        Self {
            name: "ResNet50V2",
            trainable_tensors: 272,
            depth: 307,
            total_params: 25_600_000,
            size_mb: 98.0,
        }
    }

    /// NasNetMobile: many tiny tensors (5.3 M parameters, 23 MB, 1126).
    pub fn nasnet_mobile() -> Self {
        Self {
            name: "NasNetMobile",
            trainable_tensors: 1126,
            depth: 389,
            total_params: 5_300_000,
            size_mb: 23.0,
        }
    }

    /// State bytes (f32 parameters).
    pub fn state_bytes(&self) -> u64 {
        self.total_params * 4
    }

    /// Deterministic per-tensor parameter counts: a geometric size ladder
    /// (few large tensors, many small — the shape real CNNs have), scaled
    /// to sum exactly to `total_params`.
    pub fn tensor_sizes(&self) -> Vec<u64> {
        let n = self.trainable_tensors;
        assert!(
            self.total_params >= n as u64,
            "fewer parameters than tensors"
        );
        // Every tensor gets one guaranteed parameter; the remaining budget
        // is split along a geometric ladder whose largest rung is ≈ 1000×
        // the smallest (roughly VGG's fc1-vs-bias spread). Floors keep the
        // split exact-summable; the rounding remainder tops up the largest
        // tensor. The construction is exact, positive, and weakly
        // descending after the final reverse — for any total ≥ n.
        let ratio = 1000.0_f64.powf(1.0 / (n.max(2) - 1) as f64);
        let weights: Vec<f64> = (0..n).map(|i| ratio.powi(i as i32)).collect();
        let total_w: f64 = weights.iter().sum();
        let budget = self.total_params - n as u64;
        let mut sizes: Vec<u64> = weights
            .iter()
            .map(|w| 1 + ((w / total_w) * budget as f64).floor() as u64)
            .collect();
        let assigned: u64 = sizes.iter().sum();
        let largest = sizes.len() - 1;
        sizes[largest] += self.total_params - assigned;
        sizes.reverse(); // largest first, as frameworks typically register
        sizes
    }

    /// A down-scaled copy (for wall-clock benches on the threaded runtime):
    /// divides parameter counts by `factor`, keeping the tensor-count mix.
    pub fn scaled_down(&self, factor: u64) -> ModelProfile {
        assert!(factor >= 1);
        ModelProfile {
            name: self.name,
            trainable_tensors: self.trainable_tensors,
            depth: self.depth,
            total_params: (self.total_params / factor).max(self.trainable_tensors as u64),
            size_mb: self.size_mb / factor as f64,
        }
    }
}

/// The three paper models, in Table 1 order.
pub fn paper_models() -> Vec<ModelProfile> {
    vec![
        ModelProfile::vgg16(),
        ModelProfile::resnet50v2(),
        ModelProfile::nasnet_mobile(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let m = paper_models();
        assert_eq!(m[0].name, "VGG-16");
        assert_eq!(m[0].trainable_tensors, 32);
        assert_eq!(m[0].depth, 16);
        assert_eq!(m[0].total_params, 143_700_000);
        assert_eq!(m[1].name, "ResNet50V2");
        assert_eq!(m[1].trainable_tensors, 272);
        assert_eq!(m[2].name, "NasNetMobile");
        assert_eq!(m[2].trainable_tensors, 1126);
    }

    #[test]
    fn size_mb_consistent_with_params() {
        // Table 1's MB column should be ≈ params × 4 B in MiB.
        for m in paper_models() {
            let mib = m.state_bytes() as f64 / (1024.0 * 1024.0);
            // Keras's quoted sizes include small non-trainable buffers, so
            // allow a modest tolerance (NasNetMobile is ~12% off pure-f32).
            let rel = (mib - m.size_mb).abs() / m.size_mb;
            assert!(
                rel < 0.15,
                "{}: {mib:.1} MiB vs quoted {}",
                m.name,
                m.size_mb
            );
        }
    }

    #[test]
    fn tensor_sizes_sum_exactly() {
        for m in paper_models() {
            let sizes = m.tensor_sizes();
            assert_eq!(sizes.len(), m.trainable_tensors, "{}", m.name);
            assert_eq!(sizes.iter().sum::<u64>(), m.total_params, "{}", m.name);
            assert!(sizes.iter().all(|&s| s >= 1));
        }
    }

    #[test]
    fn tensor_sizes_are_skewed_largest_first() {
        let sizes = ModelProfile::vgg16().tensor_sizes();
        assert!(sizes[0] > sizes[sizes.len() - 1] * 100, "not skewed enough");
        for w in sizes.windows(2) {
            assert!(w[0] >= w[1], "not sorted descending");
        }
    }

    #[test]
    fn scaled_down_preserves_mix() {
        let m = ModelProfile::vgg16().scaled_down(1000);
        assert_eq!(m.trainable_tensors, 32);
        assert_eq!(m.total_params, 143_700);
        assert_eq!(m.tensor_sizes().len(), 32);
        assert_eq!(m.tensor_sizes().iter().sum::<u64>(), 143_700);
    }

    #[test]
    fn profiles_are_deterministic() {
        assert_eq!(
            ModelProfile::nasnet_mobile().tensor_sizes(),
            ModelProfile::nasnet_mobile().tensor_sizes()
        );
    }
}

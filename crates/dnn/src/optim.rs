//! SGD with momentum, plus the learning-rate schedules elastic training
//! uses: a constant rate, and the re-warming ramp after a membership change
//! (linear scaling + warmup, paper §5's citations [16][22]).

use crate::layers::Param;
use crate::tensor::Tensor;

/// Learning-rate schedule.
#[derive(Clone, Debug, PartialEq)]
pub enum LrSchedule {
    /// Fixed learning rate.
    Constant(f32),
    /// A ramp anchored at an absolute step: `from` until `start`, then
    /// linear to `to` over `ramp` steps, then `to`. Elastic training uses
    /// this to re-warm the rate after a membership change mid-run.
    PiecewiseRamp {
        /// Rate before (and at) `start`.
        from: f32,
        /// Rate after the ramp.
        to: f32,
        /// Step at which the ramp begins.
        start: u64,
        /// Ramp length in steps (0 = jump immediately).
        ramp: u64,
    },
}

impl LrSchedule {
    /// The learning rate at optimizer step `step` (0-based).
    pub fn at(&self, step: u64) -> f32 {
        match *self {
            LrSchedule::Constant(lr) => lr,
            LrSchedule::PiecewiseRamp {
                from,
                to,
                start,
                ramp,
            } => {
                if step <= start {
                    from
                } else if step >= start + ramp {
                    to
                } else {
                    let t = (step - start) as f32 / ramp as f32;
                    from + (to - from) * t
                }
            }
        }
    }
}

/// SGD with classical momentum. Velocity buffers live here, keyed by
/// parameter order — which makes them part of the training state that
/// checkpoints (and new-worker state transfers) must capture.
pub struct Sgd {
    schedule: LrSchedule,
    momentum: f32,
    step: u64,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD at a constant rate; [`Sgd::set_schedule`] replaces the
    /// schedule mid-run.
    pub fn new(lr: f32, momentum: f32) -> Self {
        Self {
            schedule: LrSchedule::Constant(lr),
            momentum,
            step: 0,
            velocity: Vec::new(),
        }
    }

    /// Optimizer steps taken so far.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// The current learning rate.
    pub fn current_lr(&self) -> f32 {
        self.schedule.at(self.step)
    }

    /// Replace the schedule mid-run (elastic LR re-scaling after a
    /// membership change). Velocities and the step counter are preserved.
    pub fn set_schedule(&mut self, schedule: LrSchedule) {
        self.schedule = schedule;
    }

    /// Apply one update from the accumulated gradients, then zero them.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        if self.velocity.is_empty() {
            self.velocity = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape()))
                .collect();
        }
        assert_eq!(
            self.velocity.len(),
            params.len(),
            "parameter count changed under the optimizer"
        );
        let lr = self.schedule.at(self.step);
        for (p, v) in params.iter_mut().zip(self.velocity.iter_mut()) {
            for ((vv, pv), g) in v
                .data_mut()
                .iter_mut()
                .zip(p.value.data_mut())
                .zip(p.grad.data())
            {
                *vv = self.momentum * *vv + g;
                *pv -= lr * *vv;
            }
            // Zero the gradient for the next accumulation.
            for g in p.grad.data_mut() {
                *g = 0.0;
            }
        }
        self.step += 1;
    }

    /// Serialize optimizer state (step count + velocities) for checkpoints.
    pub fn state_vec(&self) -> (u64, Vec<Tensor>) {
        (self.step, self.velocity.clone())
    }

    /// Restore optimizer state from a checkpoint.
    pub fn restore(&mut self, step: u64, velocity: Vec<Tensor>) {
        self.step = step;
        self.velocity = velocity;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn param(vals: Vec<f32>, grads: Vec<f32>) -> Param {
        let n = vals.len();
        Param {
            value: Tensor::from_vec(&[n], vals),
            grad: Tensor::from_vec(&[n], grads),
        }
    }

    #[test]
    fn plain_sgd_descends() {
        let mut p = param(vec![1.0], vec![0.5]);
        let mut opt = Sgd::new(0.1, 0.0);
        opt.step(&mut [&mut p]);
        assert!((p.value.data()[0] - 0.95).abs() < 1e-6);
        assert_eq!(p.grad.data()[0], 0.0, "grad must be zeroed");
    }

    #[test]
    fn momentum_accumulates() {
        let mut p = param(vec![0.0], vec![1.0]);
        let mut opt = Sgd::new(0.1, 0.9);
        opt.step(&mut [&mut p]);
        // v=1, x=-0.1
        p.grad.data_mut()[0] = 1.0;
        opt.step(&mut [&mut p]);
        // v=1.9, x=-0.1-0.19=-0.29
        assert!((p.value.data()[0] + 0.29).abs() < 1e-6);
    }

    #[test]
    fn piecewise_ramp_anchors_at_start() {
        let s = LrSchedule::PiecewiseRamp {
            from: 0.1,
            to: 0.4,
            start: 10,
            ramp: 6,
        };
        assert_eq!(s.at(0), 0.1);
        assert_eq!(s.at(10), 0.1);
        assert!((s.at(13) - 0.25).abs() < 1e-6);
        assert_eq!(s.at(16), 0.4);
        assert_eq!(s.at(100), 0.4);
    }

    #[test]
    fn piecewise_ramp_zero_length_jumps() {
        let s = LrSchedule::PiecewiseRamp {
            from: 0.1,
            to: 0.3,
            start: 5,
            ramp: 0,
        };
        assert_eq!(s.at(5), 0.1);
        assert_eq!(s.at(6), 0.3);
    }

    #[test]
    fn set_schedule_preserves_velocity_and_step() {
        let mut p = param(vec![0.0], vec![1.0]);
        let mut opt = Sgd::new(0.1, 0.9);
        opt.step(&mut [&mut p]);
        opt.set_schedule(LrSchedule::Constant(0.2));
        assert_eq!(opt.step_count(), 1);
        assert!((opt.current_lr() - 0.2).abs() < 1e-7);
        p.grad.data_mut()[0] = 0.0;
        opt.step(&mut [&mut p]);
        // Momentum carried over: v = 0.9, update = 0.2 * 0.9.
        assert!((p.value.data()[0] - (-0.1 - 0.18)).abs() < 1e-6);
    }

    #[test]
    fn state_roundtrip_preserves_trajectory() {
        let run = |restore: bool| {
            let mut p = param(vec![1.0], vec![0.3]);
            let mut opt = Sgd::new(0.05, 0.9);
            opt.step(&mut [&mut p]);
            if restore {
                let (step, vel) = opt.state_vec();
                let mut opt2 = Sgd::new(0.05, 0.9);
                opt2.restore(step, vel);
                opt = opt2;
            }
            p.grad.data_mut()[0] = 0.3;
            opt.step(&mut [&mut p]);
            p.value.data()[0]
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    #[should_panic(expected = "parameter count changed")]
    fn param_count_change_detected() {
        let mut p1 = param(vec![1.0], vec![0.1]);
        let mut p2 = param(vec![1.0], vec![0.1]);
        let mut opt = Sgd::new(0.1, 0.0);
        opt.step(&mut [&mut p1]);
        opt.step(&mut [&mut p1, &mut p2]);
    }
}

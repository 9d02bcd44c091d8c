//! Scenario III economics: start-with-available vs wait-for-all.
//!
//! The paper's §3.3.3 argues that when distributed resources become ready
//! at inconsistent times, "a more effective strategy is to start training
//! with the available workers and synchronize with the remaining resources
//! as they become ready". This module quantifies that claim: given a
//! stochastic worker-arrival process, it compares
//!
//! * **wait-for-all** — training begins when the last worker arrives;
//! * **elastic start** — training begins with whatever arrived by the
//!   start deadline; later arrivals are admitted at epoch boundaries
//!   (paying the join cost from the recovery model).
//!
//! The output is aggregate useful work (worker-seconds of training) over a
//! fixed horizon, and the effective speedup of starting early.

use crate::constants::ClusterModel;
use crate::network::bcast_time;

/// A deterministic pseudo-random arrival schedule: `workers` arrival times
/// in `[0, spread]`, seeded.
pub fn arrival_times(workers: usize, spread: f64, seed: u64) -> Vec<f64> {
    (0..workers)
        .map(|i| {
            let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z ^= z >> 30;
            z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^= z >> 27;
            (z as f64 / u64::MAX as f64) * spread
        })
        .collect()
}

/// Outcome of one Scenario III simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario3Outcome {
    /// Useful worker-seconds accumulated by the elastic-start strategy.
    pub elastic_work: f64,
    /// Useful worker-seconds accumulated by wait-for-all.
    pub wait_work: f64,
    /// Time at which the last worker arrived.
    pub last_arrival: f64,
    /// Number of join events the elastic strategy performed.
    pub joins: usize,
}

impl Scenario3Outcome {
    /// Elastic-start advantage as a work ratio (> 1 means elastic wins).
    pub fn advantage(&self) -> f64 {
        if self.wait_work == 0.0 {
            f64::INFINITY
        } else {
            self.elastic_work / self.wait_work
        }
    }
}

/// Simulate a training horizon of `horizon` seconds with workers arriving
/// at `arrivals` (seconds). The elastic strategy admits pending arrivals
/// every `epoch_len` seconds, paying `join_overhead(joining, world)` of
/// whole-group stall per join event.
pub fn simulate_scenario3(
    arrivals: &[f64],
    horizon: f64,
    epoch_len: f64,
    cluster: &ClusterModel,
    state_bytes: f64,
) -> Scenario3Outcome {
    assert!(!arrivals.is_empty(), "need at least one worker");
    assert!(epoch_len > 0.0, "epoch length must be positive");
    let mut sorted = arrivals.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let last = *sorted.last().unwrap();

    // Wait-for-all: everyone idles until the last arrival.
    let wait_work = (horizon - last).max(0.0) * arrivals.len() as f64;

    // Elastic: start with everyone already present at the first arrival
    // instant; admit later arrivals at epoch boundaries.
    let start = sorted[0];
    let mut next_arrival_idx = sorted.iter().take_while(|&&a| a <= start).count();
    let mut world = next_arrival_idx;
    let mut t = start;
    let mut work = 0.0;
    let mut joins = 0usize;
    while t < horizon {
        let boundary = (t + epoch_len).min(horizon);
        work += (boundary - t) * world as f64;
        t = boundary;
        // Admit everyone who arrived by now.
        let mut joining = 0usize;
        while next_arrival_idx < sorted.len() && sorted[next_arrival_idx] <= t {
            joining += 1;
            next_arrival_idx += 1;
        }
        if joining > 0 {
            world += joining;
            joins += 1;
            // Join stall: state broadcast over the merged group (library
            // init overlaps the waiting period, so it is not charged here).
            let stall =
                bcast_time(state_bytes, world, cluster.alpha, cluster.beta) + cluster.mpi_spawn;
            let stall = stall.min(horizon - t);
            // The whole group stalls during the merge.
            t += stall;
        }
    }
    Scenario3Outcome {
        elastic_work: work,
        wait_work,
        last_arrival: last,
        joins,
    }
}

/// A printable sweep over arrival spreads (for the `repro` harness).
pub fn scenario3_sweep(
    workers: usize,
    horizon: f64,
    cluster: &ClusterModel,
    state_bytes: f64,
) -> Vec<(f64, Scenario3Outcome)> {
    [60.0, 300.0, 900.0, 1800.0]
        .iter()
        .map(|&spread| {
            let arr = arrival_times(workers, spread, 42);
            (
                spread,
                simulate_scenario3(&arr, horizon, 30.0, cluster, state_bytes),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> ClusterModel {
        ClusterModel::summit()
    }

    #[test]
    fn arrivals_are_deterministic_and_bounded() {
        let a = arrival_times(16, 600.0, 7);
        let b = arrival_times(16, 600.0, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|&t| (0.0..=600.0).contains(&t)));
        let c = arrival_times(16, 600.0, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn elastic_beats_waiting_when_spread_is_large() {
        let arr = arrival_times(24, 1200.0, 3);
        let o = simulate_scenario3(&arr, 3600.0, 30.0, &cluster(), 100e6);
        assert!(
            o.advantage() > 1.05,
            "elastic should win with a 20-minute spread: {:?}",
            o
        );
        assert!(o.joins >= 1);
    }

    #[test]
    fn strategies_converge_when_everyone_is_ready() {
        // Zero spread: all arrive at t=0; both strategies do full work.
        let arr = vec![0.0; 8];
        let o = simulate_scenario3(&arr, 1000.0, 30.0, &cluster(), 100e6);
        assert_eq!(o.joins, 0);
        let rel = (o.elastic_work - o.wait_work).abs() / o.wait_work;
        assert!(rel < 0.01, "{o:?}");
    }

    #[test]
    fn waiting_wins_nothing_ever() {
        // Elastic work ≥ wait work minus join stalls: for realistic stall
        // costs, elastic is never materially worse.
        for seed in 0..10 {
            let arr = arrival_times(12, 600.0, seed);
            let o = simulate_scenario3(&arr, 3600.0, 30.0, &cluster(), 575e6);
            assert!(o.elastic_work > o.wait_work * 0.99, "seed {seed}: {o:?}");
        }
    }

    #[test]
    fn work_is_capped_by_horizon() {
        let arr = arrival_times(8, 120.0, 1);
        let o = simulate_scenario3(&arr, 600.0, 30.0, &cluster(), 1e6);
        assert!(o.elastic_work <= 8.0 * 600.0);
        assert!(o.wait_work <= 8.0 * 600.0);
    }

    #[test]
    fn sweep_is_monotone_in_spread() {
        // The wider the arrival spread, the bigger elastic's advantage.
        let rows = scenario3_sweep(24, 3600.0, &cluster(), 100e6);
        let advantages: Vec<f64> = rows.iter().map(|(_, o)| o.advantage()).collect();
        for w in advantages.windows(2) {
            assert!(w[1] >= w[0] * 0.98, "{advantages:?}");
        }
    }
}

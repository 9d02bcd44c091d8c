//! α–β collective cost models, closed-form and discrete-event.
//!
//! Closed forms are the standard LogP-style expressions used to reason
//! about collective algorithms; the DES variants execute the same protocol
//! event by event and are cross-checked against the closed forms in tests
//! (equal in the homogeneous case, and strictly more informative with
//! per-rank start skews, e.g. stragglers re-entering after recovery).

use crate::des::Simulator;
use elastic::{CommModel, HierModel};

/// Ring allreduce time: `2(w-1)·α + 2·((w-1)/w)·n·β` (reduce-scatter +
/// allgather, bandwidth-optimal) — [`CommModel::ring_time`].
pub fn ring_allreduce_time(n_bytes: f64, w: usize, alpha: f64, beta: f64) -> f64 {
    CommModel { alpha, beta }.ring_time(n_bytes, w)
}

/// Recursive-doubling allreduce time: `⌈log₂ w⌉·(α + n·β)` —
/// [`CommModel::recursive_doubling_time`].
pub fn recursive_doubling_allreduce_time(n_bytes: f64, w: usize, alpha: f64, beta: f64) -> f64 {
    CommModel { alpha, beta }.recursive_doubling_time(n_bytes, w)
}

/// Binomial broadcast time: `⌈log₂ w⌉·(α + n·β)`.
pub fn bcast_time(n_bytes: f64, w: usize, alpha: f64, beta: f64) -> f64 {
    if w <= 1 {
        return 0.0;
    }
    (w as f64).log2().ceil() * (alpha + n_bytes * beta)
}

/// Best flat allreduce time: the runtime's `AllreduceAlgo::Auto` picks
/// whichever of ring / recursive doubling is cheaper, so the flat baseline
/// in any comparison is the min of the two closed forms —
/// [`CommModel::best_time`].
pub fn flat_allreduce_best_time(n_bytes: f64, w: usize, alpha: f64, beta: f64) -> f64 {
    CommModel { alpha, beta }.best_time(n_bytes, w)
}

/// Two-level (hierarchical) allreduce time, mirroring
/// `collectives::hier_allreduce`: a binomial reduce to the node leader over
/// the intra-node fabric, the best flat allreduce among the `nodes` leaders
/// over the cross-node fabric, then a binomial broadcast back down. The
/// intra phases each cost `⌈log₂ local⌉·(α_i + n·β_i)` with
/// `local = ⌈w/nodes⌉` (the largest node gates the phase).
///
/// Evaluates [`HierModel::hier_time`] — the runtime's selection model and
/// the simulator's sweep agree on what "hierarchical" costs because they
/// are one expression.
pub fn hier_allreduce_time(
    n_bytes: f64,
    w: usize,
    nodes: usize,
    alpha_intra: f64,
    beta_intra: f64,
    alpha_cross: f64,
    beta_cross: f64,
) -> f64 {
    if w <= 1 {
        return 0.0;
    }
    let nodes = nodes.clamp(1, w);
    let model = HierModel {
        intra: CommModel {
            alpha: alpha_intra,
            beta: beta_intra,
        },
        cross: CommModel {
            alpha: alpha_cross,
            beta: beta_cross,
        },
    };
    model.hier_time(n_bytes, nodes, w.div_ceil(nodes))
}

/// ERA-style agreement time: two sweeps of a binary tree, i.e.
/// `2·⌈log₂ w⌉` rounds of `round_cost`.
pub fn era_agree_time(w: usize, round_cost: f64) -> f64 {
    if w <= 1 {
        return 0.0;
    }
    2.0 * (w as f64).log2().ceil() * round_cost
}

/// Flood-set agreement time: the runtime's conformance-oracle protocol
/// floods the merged state for `w` all-to-all rounds (one per member, so
/// at most `w-1` crashes still leave one failure-free round).
pub fn flood_agree_time(w: usize, round_cost: f64) -> f64 {
    if w <= 1 {
        return 0.0;
    }
    w as f64 * round_cost
}

/// Lattice-agreement view-change time: failure-free the protocol decides in
/// two exchange rounds plus the decide echo, **independent of `w`**; every
/// concurrent death widens the in-flight proposal and costs at most one
/// extra exchange wave (`waves`), instead of restarting the agreement.
pub fn lattice_agree_time(w: usize, waves: usize, round_cost: f64) -> f64 {
    if w <= 1 {
        return 0.0;
    }
    (3.0 + waves as f64) * round_cost
}

#[derive(Clone)]
struct RingWorld {
    /// completion[r][s]: when rank r finished protocol step s.
    completion: Vec<Vec<Option<f64>>>,
    /// delivery[r][s]: when the step-s message from the left neighbour
    /// arrived at rank r.
    delivery: Vec<Vec<Option<f64>>>,
    steps: usize,
    msg_time: f64,
    finish: f64,
}

/// Discrete-event simulation of a ring allreduce with per-rank start times
/// (skews model stragglers — e.g. a rank that spent longer in recovery).
/// Returns the time the *last* rank completes.
pub fn simulate_ring_allreduce(starts: &[f64], n_bytes: f64, alpha: f64, beta: f64) -> f64 {
    let w = starts.len();
    if w <= 1 {
        return starts.first().copied().unwrap_or(0.0);
    }
    let steps = 2 * (w - 1);
    let chunk = n_bytes / w as f64;
    let msg_time = alpha + chunk * beta;

    let mut world = RingWorld {
        completion: vec![vec![None; steps + 1]; w],
        delivery: vec![vec![None; steps + 1]; w],
        steps,
        msg_time,
        finish: 0.0,
    };
    let mut sim = Simulator::<RingWorld>::new();

    // "Step 0 completion" = the rank is ready to start (has its input).
    for (r, &t) in starts.iter().enumerate() {
        sim.schedule(t, move |sim, w| complete_step(sim, w, r, 0));
    }
    sim.run(&mut world);
    world.finish
}

fn complete_step(sim: &mut Simulator<RingWorld>, world: &mut RingWorld, rank: usize, step: usize) {
    let now = sim.now();
    world.completion[rank][step] = Some(now);
    if step == world.steps {
        world.finish = world.finish.max(now);
        return;
    }
    // Send this step's chunk to the right neighbour; it arrives msg_time
    // later and enables the neighbour's step+1.
    let w = world.completion.len();
    let right = (rank + 1) % w;
    let msg_time = world.msg_time;
    sim.schedule(msg_time, move |sim, world| {
        world.delivery[right][step + 1] = Some(sim.now());
        try_advance(sim, world, right, step + 1);
    });
    // Also check whether our own next step is already enabled (the message
    // from the left may have arrived while we were still busy).
    try_advance(sim, world, rank, step + 1);
}

fn try_advance(sim: &mut Simulator<RingWorld>, world: &mut RingWorld, rank: usize, step: usize) {
    if world.completion[rank][step].is_some() {
        return;
    }
    let self_ready = world.completion[rank][step - 1];
    let msg_ready = world.delivery[rank][step];
    if let (Some(a), Some(b)) = (self_ready, msg_ready) {
        let at = a.max(b);
        let delay = at - sim.now();
        sim.schedule(delay.max(0.0), move |sim, w| {
            complete_step(sim, w, rank, step)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: f64 = 1.5e-6;
    const B: f64 = 1.0 / 23.0e9;

    #[test]
    fn ring_closed_form_basics() {
        assert_eq!(ring_allreduce_time(1e6, 1, A, B), 0.0);
        let t4 = ring_allreduce_time(1e6, 4, A, B);
        let t8 = ring_allreduce_time(1e6, 8, A, B);
        // Bandwidth term saturates at 2nβ: t8 grows sublinearly vs t4.
        assert!(t8 > t4);
        assert!(t8 < t4 * 1.5);
    }

    #[test]
    fn ring_bandwidth_term_dominates_large_messages() {
        let n = 575e6; // VGG-16 gradients
        let t = ring_allreduce_time(n, 24, A, B);
        let pure_bw = 2.0 * n * B;
        assert!(t > 0.9 * pure_bw && t < 1.2 * pure_bw, "t = {t}");
    }

    #[test]
    fn recursive_doubling_beats_ring_for_tiny_messages() {
        let n = 1024.0;
        let w = 64;
        assert!(recursive_doubling_allreduce_time(n, w, A, B) < ring_allreduce_time(n, w, A, B));
    }

    #[test]
    fn ring_beats_recursive_doubling_for_huge_messages() {
        let n = 100e6;
        let w = 64;
        assert!(ring_allreduce_time(n, w, A, B) < recursive_doubling_allreduce_time(n, w, A, B));
    }

    #[test]
    fn des_matches_closed_form_homogeneous() {
        for &w in &[2usize, 3, 4, 8, 13] {
            let n = 4.0e6;
            let des = simulate_ring_allreduce(&vec![0.0; w], n, A, B);
            let formula = ring_allreduce_time(n, w, A, B);
            assert!(
                (des - formula).abs() < 1e-12 + formula * 1e-9,
                "w={w}: des {des} vs formula {formula}"
            );
        }
    }

    #[test]
    fn des_straggler_delays_completion() {
        let n = 4.0e6;
        let mut starts = vec![0.0; 8];
        let base = simulate_ring_allreduce(&starts, n, A, B);
        starts[3] = 0.5; // one rank enters half a second late
        let delayed = simulate_ring_allreduce(&starts, n, A, B);
        assert!(delayed >= 0.5 + base * 0.5, "straggler must gate the ring");
        assert!(delayed <= 0.5 + base + 1e-9);
    }

    #[test]
    fn des_single_rank_trivial() {
        assert_eq!(simulate_ring_allreduce(&[7.0], 1e6, A, B), 7.0);
    }

    const AI: f64 = 1.0e-6;
    const BI: f64 = 1.0 / 150.0e9;

    #[test]
    fn hier_beats_flat_at_scale_with_large_messages() {
        // 2048 nodes × 6 GPUs, 256 MB bucket: the flat ring's 2(w-1)α
        // latency term alone is ~37 ms; the hierarchy pays two cheap NVLink
        // phases and runs the ring over 2048 leaders instead.
        let n = 256.0 * 1024.0 * 1024.0;
        let w = 12_288;
        let hier = hier_allreduce_time(n, w, w / 6, AI, BI, A, B);
        let flat = flat_allreduce_best_time(n, w, A, B);
        assert!(hier < flat, "hier {hier} vs flat {flat}");
    }

    #[test]
    fn flat_wins_at_paper_scale_in_the_bandwidth_bound_regime() {
        // At the paper's 192 GPUs the flat ring's latency term is
        // negligible, so for large bandwidth-bound buckets the hierarchy
        // only adds intra-node rounds on the same β-bound data. (Mid-size
        // latency-bound buckets can still flip even at 192 — the sweep
        // covers that — but the training-dominant large buckets do not.)
        for &n in &[1024.0, 256.0e6] {
            let hier = hier_allreduce_time(n, 192, 32, AI, BI, A, B);
            let flat = flat_allreduce_best_time(n, 192, A, B);
            assert!(flat <= hier, "n={n}: flat {flat} vs hier {hier}");
        }
    }

    #[test]
    fn flat_recursive_doubling_wins_tiny_messages_everywhere() {
        let n = 1024.0;
        for &w in &[192usize, 12_288] {
            let hier = hier_allreduce_time(n, w, w / 6, AI, BI, A, B);
            let flat = flat_allreduce_best_time(n, w, A, B);
            assert!(flat <= hier, "w={w}");
        }
    }

    #[test]
    fn hier_degenerates_to_flat_when_nodes_are_singletons() {
        let n = 4.0e6;
        let w = 64;
        assert_eq!(
            hier_allreduce_time(n, w, w, AI, BI, A, B),
            flat_allreduce_best_time(n, w, A, B)
        );
        assert_eq!(hier_allreduce_time(n, 1, 1, AI, BI, A, B), 0.0);
    }

    #[test]
    fn era_time_is_logarithmic() {
        let t24 = era_agree_time(24, 5e-4);
        let t192 = era_agree_time(192, 5e-4);
        assert!(t192 < t24 * 2.0, "agreement must scale logarithmically");
        assert!(t192 > t24);
    }

    #[test]
    fn lattice_beats_flood_and_is_scale_free() {
        let rc = 5e-4;
        for &w in &[192usize, 1536, 12_288] {
            // Failure-free: 3 rounds vs w rounds.
            assert!(lattice_agree_time(w, 0, rc) < flood_agree_time(w, rc));
            // Even a 32-death burst (≤32 widening waves) stays far below
            // one flood pass at scale.
            assert!(lattice_agree_time(w, 32, rc) < flood_agree_time(w, rc));
        }
        // Lattice cost is independent of w; flood grows linearly.
        assert_eq!(
            lattice_agree_time(192, 2, rc),
            lattice_agree_time(12_288, 2, rc)
        );
        assert!(flood_agree_time(12_288, rc) > flood_agree_time(192, rc) * 60.0);
        // Degenerate group: nothing to agree on.
        assert_eq!(flood_agree_time(1, rc), 0.0);
        assert_eq!(lattice_agree_time(1, 5, rc), 0.0);
    }

    #[test]
    fn bcast_time_scales_log() {
        let n = 100e6;
        let t12 = bcast_time(n, 12, A, B);
        let t192 = bcast_time(n, 192, A, B);
        assert!(t192 / t12 < 2.1);
    }
}

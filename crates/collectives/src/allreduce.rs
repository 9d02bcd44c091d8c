//! Allreduce algorithms: ring, recursive doubling, and Rabenseifner.
//!
//! Allreduce dominates data-parallel training traffic (every gradient tensor
//! of every mini-batch), so we provide the three classic algorithms used by
//! MPI implementations and Horovod:
//!
//! * **ring** — bandwidth-optimal, `2(p-1)` steps; what NCCL/Horovod use for
//!   large tensors;
//! * **recursive doubling** — latency-optimal, `⌈log₂ p⌉` steps on the full
//!   vector; best for small tensors;
//! * **Rabenseifner** — reduce-scatter by recursive halving + allgather by
//!   recursive doubling; bandwidth-optimal with logarithmic step count.
//!
//! All three place a `"allreduce.step"` fault point before every
//! communication step, so a [`transport::FaultPlan`] can kill a rank at any
//! point inside the collective — the scenario at the heart of the paper's
//! forward-recovery argument.

use crate::comm::PeerComm;
use crate::elem::{exchange, recv_elems, send_elems, Elem, Leg, ReduceOp};
use crate::error::CollError;
use telemetry::{Counter, Lazy};

/// Which allreduce algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum AllreduceAlgo {
    /// Bandwidth-optimal ring (default; Horovod's choice for large tensors).
    #[default]
    Ring,
    /// Latency-optimal recursive doubling.
    RecursiveDoubling,
    /// Rabenseifner's reduce-scatter + allgather.
    Rabenseifner,
    /// Size-adaptive: per call, picks recursive doubling for payloads at or
    /// below `crossover_bytes` (latency-bound regime) and a
    /// bandwidth-optimal algorithm above it — Rabenseifner when the group
    /// size is a power of two (its fold phase otherwise ships whole
    /// buffers, wasting bandwidth), ring otherwise. The crossover is where
    /// the α–β cost of ring and recursive doubling intersect; the
    /// `elastic::cost_model` crate derives it for a calibrated network via
    /// `CommModel::crossover_bytes`.
    Auto {
        /// Payload size (bytes) at which the bandwidth-bound algorithms
        /// take over from recursive doubling.
        crossover_bytes: u32,
    },
}

impl AllreduceAlgo {
    /// Size-adaptive selection with the default crossover,
    /// [`AllreduceAlgo::DEFAULT_CROSSOVER_BYTES`].
    pub fn auto() -> Self {
        Self::auto_with(Self::DEFAULT_CROSSOVER_BYTES)
    }

    /// Size-adaptive selection with an explicit crossover (typically
    /// calibrated from a cost model for the actual network).
    pub fn auto_with(crossover_bytes: u32) -> Self {
        AllreduceAlgo::Auto { crossover_bytes }
    }

    /// Default ring-vs-recursive-doubling crossover: 256 KiB, the
    /// intersection of the two α–β cost curves for a Summit-like network
    /// (α = 1.5 µs, β = 1/23 GB/s) at small-to-mid group sizes. The
    /// `elastic` crate cross-checks this constant against its cost model.
    /// Measured in process at p = 2 (`collectives.auto.crossover_bytes_measured`:
    /// first rung of a 4× ladder where Rabenseifner wins; ten runs each):
    /// median 16 KiB before PR 24's bulk codec, 160 KiB after it (256 KiB in
    /// five runs of ten). The constant stays; re-fitting is ROADMAP 1(c).
    pub const DEFAULT_CROSSOVER_BYTES: u32 = 256 << 10;

    /// Resolve `self` to a concrete (non-`Auto`) algorithm for a payload of
    /// `payload_bytes` on a group of `p` ranks. Non-`Auto` values return
    /// themselves.
    pub fn resolve(self, payload_bytes: usize, p: usize) -> AllreduceAlgo {
        match self {
            AllreduceAlgo::Auto { crossover_bytes } => {
                if payload_bytes <= crossover_bytes as usize {
                    AllreduceAlgo::RecursiveDoubling
                } else if p.is_power_of_two() {
                    AllreduceAlgo::Rabenseifner
                } else {
                    AllreduceAlgo::Ring
                }
            }
            concrete => concrete,
        }
    }
}

/// Element range of logical chunk `i` when `n` elements are split `p` ways.
/// Balanced to within one element; empty chunks are legal and common when
/// `n < p` (a 1-element buffer on a 5-rank ring has four empty chunks that
/// travel as zero-byte messages). Widened arithmetic so `i·n` cannot wrap
/// for huge buffers.
pub(crate) fn chunk_range(n: usize, p: usize, i: usize) -> std::ops::Range<usize> {
    debug_assert!(i <= p, "chunk index {i} out of range for {p} chunks");
    let lo = (i as u128 * n as u128 / p as u128) as usize;
    let hi = ((i as u128 + 1) * n as u128 / p as u128) as usize;
    lo..hi
}

/// In-place allreduce of `buf` across the group, using `algo`.
///
/// On success every surviving rank holds the identical element-wise
/// reduction of all ranks' inputs. On [`CollError::PeerFailed`] the local
/// buffer holds a partially-reduced value; the ULFM recovery path in the
/// `elastic` crate re-runs the collective from the *saved input* on the
/// shrunk communicator, so partial state here is never observed by training.
pub fn allreduce<E: Elem, C: PeerComm>(
    comm: &C,
    buf: &mut [E],
    op: ReduceOp,
    algo: AllreduceAlgo,
    tag_base: u64,
) -> Result<(), CollError> {
    let auto = matches!(algo, AllreduceAlgo::Auto { .. });
    /// Run one algorithm under its [`crate::OpMetrics`], counting it under
    /// its `.auto_picked` counter too when `Auto` picked it.
    macro_rules! run {
        ($metric:literal, $algo:ident) => {{
            static AUTO_PICKED: Lazy<Counter> = Lazy::counter(concat!($metric, ".auto_picked"));
            if auto {
                AUTO_PICKED.incr();
            }
            op_metrics!($metric).observe(|| $algo(comm, buf, op, tag_base))
        }};
    }
    // Wire bytes, not in-memory bytes: the crossover models network cost.
    match algo.resolve(buf.len() * E::WIDTH, comm.size()) {
        AllreduceAlgo::Ring => run!("coll.allreduce.ring", ring_allreduce),
        AllreduceAlgo::Rabenseifner => run!("coll.allreduce.rabenseifner", rabenseifner_allreduce),
        // `resolve` answers `Auto` with a concrete algorithm, so only
        // `RecursiveDoubling` itself takes this arm.
        AllreduceAlgo::RecursiveDoubling | AllreduceAlgo::Auto { .. } => {
            run!(
                "coll.allreduce.recursive_doubling",
                recursive_doubling_allreduce
            )
        }
    }
}

/// Bandwidth-optimal ring allreduce (reduce-scatter ring + allgather ring).
pub fn ring_allreduce<E: Elem, C: PeerComm>(
    comm: &C,
    buf: &mut [E],
    op: ReduceOp,
    tag_base: u64,
) -> Result<(), CollError> {
    let p = comm.size();
    let r = comm.rank();
    if p == 1 {
        return Ok(());
    }
    let n = buf.len();
    let right = (r + 1) % p;
    let left = (r + p - 1) % p;

    // One walk round the ring twice: at step s rank r forwards chunk r-s and
    // receives chunk r-s-1. The first p-1 steps reduce-scatter (rank r ends
    // up holding the fully reduced chunk r+1), the rest allgather, each rank
    // starting by forwarding the chunk it owns.
    paired_steps(comm, buf, 2 * (p as u64 - 1), |s| {
        let step = s as usize;
        let chunk = |i| chunk_range(n, p, (r + 2 * p - i) % p);
        let (send, recv, op) = (chunk(step), chunk(step + 1), (step < p - 1).then_some(op));
        (tag_base + s, (right, send), (left, recv, op))
    })
}

/// Run paired steps `leg(0..steps)`, the first half reduce-scatter, the rest
/// allgather; the last reduce-scatter step and the first allgather step are
/// one turnaround in [`exchange`].
fn paired_steps<E: Elem, C: PeerComm>(
    comm: &C,
    buf: &mut [E],
    steps: u64,
    leg: impl Fn(u64) -> Leg,
) -> Result<(), CollError> {
    let turn = steps / 2 - 1;
    for step in 0..steps {
        if step == turn {
            exchange(comm, buf, &[leg(step), leg(step + 1)])?;
        } else if step != turn + 1 {
            exchange(comm, buf, &[leg(step)])?;
        }
    }
    Ok(())
}

/// Map a virtual rank (dense `0..pof2`) back to a real group index, given
/// `rem = p - pof2` folded pairs at the front of the group.
fn unmap_vrank(v: usize, rem: usize) -> usize {
    if v < rem {
        2 * v + 1
    } else {
        v + rem
    }
}

/// Fold phase shared by the logarithmic algorithms: ranks in the first
/// `2*rem` positions pair up (even sends to odd, odd reduces), leaving a
/// power-of-two set of active virtual ranks. Returns `Some(vrank)` if this
/// rank stays active.
fn fold<E: Elem, C: PeerComm>(
    comm: &C,
    buf: &mut [E],
    op: ReduceOp,
    rem: usize,
    tag: u64,
) -> Result<Option<usize>, CollError> {
    let r = comm.rank();
    if r < 2 * rem {
        comm.fault_point("allreduce.step")?;
        if r.is_multiple_of(2) {
            send_elems(comm, r + 1, tag, buf)?;
            Ok(None)
        } else {
            recv_elems(comm, r - 1, tag, Some(op), buf)?;
            Ok(Some(r / 2))
        }
    } else {
        Ok(Some(r - rem))
    }
}

/// Unfold phase: active odd ranks push the final result back to their folded
/// even partner.
fn unfold<E: Elem, C: PeerComm>(
    comm: &C,
    buf: &mut [E],
    rem: usize,
    vrank: Option<usize>,
    tag: u64,
) -> Result<(), CollError> {
    let r = comm.rank();
    if r < 2 * rem {
        comm.fault_point("allreduce.step")?;
        if vrank.is_some() {
            send_elems(comm, r - 1, tag, buf)?;
        } else {
            recv_elems(comm, r + 1, tag, None, buf)?;
        }
    }
    Ok(())
}

/// Latency-optimal recursive-doubling allreduce; handles non-power-of-two
/// group sizes with the standard fold/unfold.
pub fn recursive_doubling_allreduce<E: Elem, C: PeerComm>(
    comm: &C,
    buf: &mut [E],
    op: ReduceOp,
    tag_base: u64,
) -> Result<(), CollError> {
    let p = comm.size();
    if p == 1 {
        return Ok(());
    }
    let pof2 = p.next_power_of_two() >> usize::from(!p.is_power_of_two());
    let rem = p - pof2;

    let vrank = fold(comm, buf, op, rem, tag_base)?;

    if let Some(v) = vrank {
        let mut mask = 1usize;
        let mut step = 0u64;
        while mask < pof2 {
            let partner = unmap_vrank(v ^ mask, rem);
            let (tag, all) = (tag_base + 1 + step, 0..buf.len());
            let leg = (tag, (partner, all.clone()), (partner, all, Some(op)));
            exchange(comm, buf, &[leg])?;
            mask <<= 1;
            step += 1;
        }
    }

    unfold(comm, buf, rem, vrank, tag_base + 100)
}

/// Rabenseifner's allreduce: recursive-halving reduce-scatter followed by a
/// recursive-doubling allgather. Bandwidth-optimal at `O(log p)` steps.
pub fn rabenseifner_allreduce<E: Elem, C: PeerComm>(
    comm: &C,
    buf: &mut [E],
    op: ReduceOp,
    tag_base: u64,
) -> Result<(), CollError> {
    let p = comm.size();
    if p == 1 {
        return Ok(());
    }
    let pof2 = p.next_power_of_two() >> usize::from(!p.is_power_of_two());
    let rem = p - pof2;
    let n = buf.len();

    // Element range covered by logical chunks [a, b) of the pof2 split;
    // empty when `n < pof2` leaves chunk [a, b) without elements.
    let block = |a, b| chunk_range(n, pof2, a).start..chunk_range(n, pof2, b).start;

    let vrank = fold(comm, buf, op, rem, tag_base)?;

    if let Some(v) = vrank {
        // Reduce-scatter by recursive halving, then its mirror image, an
        // allgather by recursive doubling. At distance `mask` the active
        // block is the aligned run of 2·mask chunks around v, and the
        // partner holds the other half of it: halving keeps (reduces into)
        // my half and gives theirs away, down to the one fully reduced
        // chunk v; doubling sends my half back out and copies theirs in. At
        // mask 1 the last halving and the first doubling are the turnaround.
        let halvings = u64::from(pof2.trailing_zeros());
        paired_steps(comm, buf, 2 * halvings, |step| {
            let halving = step < halvings;
            let mask = if halving {
                pof2 >> (step + 1)
            } else {
                1 << (step - halvings)
            };
            let partner = unmap_vrank(v ^ mask, rem);
            let lo = v & !(2 * mask - 1);
            // Mine is the lower half when v & mask == 0.
            let (mut send, mut recv) = (block(lo + mask, lo + 2 * mask), block(lo, lo + mask));
            if (v & mask != 0) == halving {
                std::mem::swap(&mut send, &mut recv);
            }
            let tag = tag_base + step + if halving { 1 } else { 200 };
            (tag, (partner, send), (partner, recv, halving.then_some(op)))
        })?;
    }

    unfold(comm, buf, rem, vrank, tag_base + 500)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{expected_sum, input_for, run_group};
    use transport::FaultPlan;

    fn check_allreduce(algo: AllreduceAlgo, p: usize, n: usize) {
        let results = run_group(p, FaultPlan::none(), |comm| {
            let mut buf = input_for(comm.rank(), n);
            allreduce(&comm, &mut buf, ReduceOp::Sum, algo, 0).map(|()| buf)
        });
        let want = expected_sum(0..p, n);
        for (r, got) in results.into_iter().enumerate() {
            let got = got.unwrap_or_else(|e| panic!("rank {r} failed: {e}"));
            assert_eq!(got, want, "rank {r} result mismatch (p={p}, n={n})");
        }
    }

    #[test]
    fn ring_various_sizes() {
        for &p in &[1, 2, 3, 4, 5, 8] {
            for &n in &[0, 1, 7, 64, 1000] {
                check_allreduce(AllreduceAlgo::Ring, p, n);
            }
        }
    }

    #[test]
    fn recursive_doubling_various_sizes() {
        for &p in &[1, 2, 3, 4, 5, 6, 7, 8] {
            for &n in &[0, 1, 16, 257] {
                check_allreduce(AllreduceAlgo::RecursiveDoubling, p, n);
            }
        }
    }

    #[test]
    fn rabenseifner_various_sizes() {
        for &p in &[1, 2, 3, 4, 5, 6, 7, 8, 16] {
            for &n in &[0, 1, 16, 64, 1000] {
                check_allreduce(AllreduceAlgo::Rabenseifner, p, n);
            }
        }
    }

    #[test]
    fn max_and_min_ops() {
        let p = 4;
        let results = run_group(p, FaultPlan::none(), |comm| {
            let mut buf = vec![comm.rank() as f32, -(comm.rank() as f32)];
            ring_allreduce(&comm, &mut buf, ReduceOp::Max, 0).unwrap();
            buf
        });
        for got in results {
            assert_eq!(got, vec![3.0, 0.0]);
        }
        let results = run_group(p, FaultPlan::none(), |comm| {
            let mut buf = vec![comm.rank() as f32];
            recursive_doubling_allreduce(&comm, &mut buf, ReduceOp::Min, 0).unwrap();
            buf
        });
        for got in results {
            assert_eq!(got, vec![0.0]);
        }
    }

    #[test]
    fn bitand_over_u64_for_agreement() {
        // The agreement protocol reduces flags with BitAnd.
        let results = run_group(5, FaultPlan::none(), |comm| {
            let mut buf = vec![if comm.rank() == 3 { 0b1101u64 } else { 0b1111 }];
            recursive_doubling_allreduce(&comm, &mut buf, ReduceOp::BitAnd, 0).unwrap();
            buf[0]
        });
        for got in results {
            assert_eq!(got, 0b1101);
        }
    }

    #[test]
    fn failure_mid_ring_is_reported_to_survivors() {
        let p = 4;
        let n = 64;
        // Rank 2 dies at its second allreduce step.
        let plan = FaultPlan::none().kill_at_point(transport::RankId(2), "allreduce.step", 2);
        let results = run_group(p, plan, |comm| {
            let mut buf = input_for(comm.rank(), n);
            ring_allreduce(&comm, &mut buf, ReduceOp::Sum, 0)
        });
        assert_eq!(results[2], Err(CollError::SelfDied));
        // At least the ring neighbours of rank 2 must observe the failure.
        let failures = results
            .iter()
            .enumerate()
            .filter(|(r, res)| *r != 2 && res.is_err())
            .count();
        assert!(
            failures > 0,
            "no survivor observed the failure: {results:?}"
        );
        for (r, res) in results.iter().enumerate() {
            if r != 2 {
                assert!(
                    matches!(res, Ok(()) | Err(CollError::PeerFailed { .. })),
                    "rank {r}: unexpected outcome {res:?}"
                );
            }
        }
    }

    #[test]
    fn failure_mid_recursive_doubling_is_reported() {
        let p = 8;
        let plan = FaultPlan::none().kill_at_point(transport::RankId(5), "allreduce.step", 2);
        let results = run_group(p, plan, |comm| {
            let mut buf = input_for(comm.rank(), 32);
            recursive_doubling_allreduce(&comm, &mut buf, ReduceOp::Sum, 0)
        });
        assert_eq!(results[5], Err(CollError::SelfDied));
        let failures = results
            .iter()
            .enumerate()
            .filter(|(r, res)| *r != 5 && res.is_err())
            .count();
        assert!(failures > 0);
    }

    #[test]
    fn auto_resolution_is_size_and_group_adaptive() {
        let auto = AllreduceAlgo::auto_with(1024);
        // Small payloads: latency-optimal.
        assert_eq!(auto.resolve(16, 4), AllreduceAlgo::RecursiveDoubling);
        assert_eq!(auto.resolve(1024, 5), AllreduceAlgo::RecursiveDoubling);
        // Large payloads: bandwidth-optimal, Rabenseifner only on
        // power-of-two groups.
        assert_eq!(auto.resolve(4096, 4), AllreduceAlgo::Rabenseifner);
        assert_eq!(auto.resolve(4096, 5), AllreduceAlgo::Ring);
        // Concrete algorithms resolve to themselves.
        assert_eq!(AllreduceAlgo::Ring.resolve(0, 2), AllreduceAlgo::Ring);
    }

    #[test]
    fn auto_various_sizes() {
        // Crossover at 64 B: n ≤ 16 f32 goes recursive doubling, larger
        // payloads go ring/Rabenseifner. Both regimes must agree with the
        // reference sum.
        for &p in &[1, 2, 3, 4, 5, 8] {
            for &n in &[0, 1, 7, 16, 17, 300] {
                check_allreduce(AllreduceAlgo::auto_with(64), p, n);
            }
        }
        check_allreduce(AllreduceAlgo::auto(), 4, 1000);
    }

    #[test]
    fn tiny_buffers_every_algorithm() {
        // Regression for the `n < p` empty-chunk edge: 0- and 1-element
        // buffers through every algorithm at every small group size.
        let algos = [
            AllreduceAlgo::Ring,
            AllreduceAlgo::RecursiveDoubling,
            AllreduceAlgo::Rabenseifner,
            AllreduceAlgo::auto_with(0),
            AllreduceAlgo::auto(),
        ];
        for algo in algos {
            for p in 1..=6 {
                for n in 0..=2 {
                    check_allreduce(algo, p, n);
                }
            }
        }
    }

    #[test]
    fn chunk_ranges_partition_exactly() {
        for &(n, p) in &[(10usize, 3usize), (0, 4), (5, 8), (1000, 7)] {
            let mut covered = 0;
            for i in 0..p {
                let r = chunk_range(n, p, i);
                assert_eq!(r.start, covered);
                covered = r.end;
            }
            assert_eq!(covered, n);
        }
    }
}

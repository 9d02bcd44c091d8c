//! Paired steps that stream their chunks as segments (`collectives::
//! SEGMENT_BYTES`), end to end through `ulfm::Communicator::allreduce`: a
//! rank that dies between two segments of one step, an adversarial link
//! inside a stream, and the frames a clean in-process stream recycles.
//!
//! The tests read the process-wide `transport.frames_recycled` counter, so
//! they take turns.

use collectives::{AllreduceAlgo, ReduceOp, SEGMENT_BYTES};
use std::sync::Mutex;
use std::time::Duration;
use transport::{FaultPlan, LinkPerturb, PerturbPlan, RankId, RetryPolicy, Topology};
use ulfm::{Proc, UlfmError, Universe};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn recycled() -> u64 {
    telemetry::counter("transport.frames_recycled").get()
}

/// 2 MiB of `f32`: at p = 3 each ring step moves a chunk of three segments.
const STREAM: usize = (2 << 20) / 4;

/// Quarter-integer inputs: every partial sum is exact in `f32`, so a sum
/// over any set of ranks is bit-identical whatever the order.
fn input(rank: usize) -> Vec<f32> {
    (0..STREAM)
        .map(|i| ((rank * 31 + i * 7 + 13) % 101) as f32 * 0.25 - 12.0)
        .collect()
}

fn sum_over(ranks: &[usize]) -> Vec<f32> {
    let mut out = vec![0.0f32; STREAM];
    for &r in ranks {
        for (o, v) in out.iter_mut().zip(input(r)) {
            *o += v;
        }
    }
    out
}

/// What a survivor saw of one run: the error of each failed attempt, the
/// failed set each agreement returned, and its replica.
type Seen = (Vec<UlfmError>, Vec<Vec<RankId>>, Vec<f32>);

/// Each member allreduces its input from scratch until an agreement says
/// every member succeeded, revoking and shrinking after a failed round (the
/// forward engine's redo). `None` for a member that died.
fn allreduce_until_agreed(proc: Proc) -> Option<Seen> {
    let me = proc.rank().0;
    let mut comm = proc.init_comm();
    let (mut errors, mut failed) = (Vec::new(), Vec::new());
    loop {
        let mut buf = input(me);
        let ok = match comm.allreduce(&mut buf, ReduceOp::Sum, AllreduceAlgo::Ring) {
            Ok(()) => true,
            Err(UlfmError::SelfDied) => return None,
            Err(e) => {
                errors.push(e);
                comm.revoke();
                false
            }
        };
        let agreed = comm.agree(ok as u64, 0).ok()?;
        failed.push(agreed.failed.clone());
        if agreed.flags == 1 {
            return Some((errors, failed, buf));
        }
        comm = comm.shrink().ok()?;
    }
}

#[test]
fn mid_stream_death_fails_the_collective_once_and_the_redo_is_exact() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let chunk_bytes = STREAM / 3 * 4;
    assert!(
        chunk_bytes.div_ceil(SEGMENT_BYTES) == 3,
        "three segments a step"
    );
    // A ring step is send, receive per segment, and at p = 3 the second and
    // third steps are one turnaround: send, fold, send, overwrite per
    // segment. Rank 1's ninth operation is its first allgather send, of
    // segment 0, one segment into the turnaround.
    let plan = FaultPlan::none().kill_at_op(RankId(1), 9);
    let u = Universe::new(Topology::flat(), plan);
    let handles = u.spawn_batch(3, allreduce_until_agreed).unwrap();
    let seen: Vec<Option<Seen>> = handles.into_iter().map(|h| h.join()).collect();
    assert!(seen[1].is_none(), "the victim survived");
    let want = sum_over(&[0, 2]);
    let mut saw_death = 0;
    for r in [0, 2] {
        let (errors, failed, replica) = seen[r].as_ref().expect("a survivor died");
        // One failed collective, not one per segment: the death itself, or
        // the revoke of the survivor that saw it first.
        assert_eq!(errors.len(), 1, "rank {r}: {errors:?}");
        let death = UlfmError::ProcFailed {
            peer: 1,
            global: RankId(1),
        };
        assert!(
            errors[0] == death || errors[0] == UlfmError::Revoked,
            "rank {r}: {errors:?}"
        );
        saw_death += usize::from(errors[0] == death);
        assert_eq!(failed, &[vec![RankId(1)], vec![]], "rank {r}: agreements");
        assert!(
            replica == &want,
            "rank {r}: the redo is not the survivors' sum"
        );
    }
    assert!(saw_death >= 1, "nobody observed the death itself");
}

#[test]
fn a_death_at_the_allgather_fault_point_inside_the_turnaround_fails_once_and_the_redo_is_exact() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // At p = 3 the ring's steps 1 (the last reduce-scatter) and 2 (the first
    // allgather) are one turnaround of three segments. Rank 1's third
    // `allreduce.step` fault point is step 2's: it fires after segment 0 of
    // step 1 is folded, before the first allgather send.
    let plan = FaultPlan::none().kill_at_point(RankId(1), "allreduce.step", 3);
    let u = Universe::new(Topology::flat(), plan);
    let handles = u.spawn_batch(3, allreduce_until_agreed).unwrap();
    let seen: Vec<Option<Seen>> = handles.into_iter().map(|h| h.join()).collect();
    assert!(seen[1].is_none(), "the victim survived");
    let want = sum_over(&[0, 2]);
    for r in [0, 2] {
        let (errors, failed, replica) = seen[r].as_ref().expect("a survivor died");
        assert_eq!(errors.len(), 1, "rank {r}: {errors:?}");
        let death = UlfmError::ProcFailed {
            peer: 1,
            global: RankId(1),
        };
        assert!(
            errors[0] == death || errors[0] == UlfmError::Revoked,
            "rank {r}: {errors:?}"
        );
        assert_eq!(failed, &[vec![RankId(1)], vec![]], "rank {r}: agreements");
        assert!(
            replica == &want,
            "rank {r}: the redo is not the survivors' sum"
        );
    }
}

#[test]
fn mid_stream_perturbation_is_exact_and_recycles_nothing() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let before = recycled();
    let u = Universe::new(Topology::flat(), FaultPlan::none());
    let lossy = LinkPerturb::clean()
        .drop(0.1)
        .duplicate(0.1)
        .corrupt(0.1)
        .reorder(0.1);
    u.fabric()
        .unwrap()
        .set_perturbation(PerturbPlan::seeded(28).all_links(lossy).retry(RetryPolicy {
            max_retries: 64,
            base: Duration::from_micros(200),
            cap: Duration::from_millis(2),
        }));
    let handles = u.spawn_batch(3, allreduce_until_agreed).unwrap();
    let want = sum_over(&[0, 1, 2]);
    for (r, h) in handles.into_iter().enumerate() {
        let (errors, _, replica) = h.join().expect("nobody dies");
        assert!(errors.is_empty(), "rank {r}: {errors:?}");
        assert!(replica == want, "rank {r}: not the exact sum");
    }
    let stats = u.fabric().unwrap().stats();
    assert!(stats.retransmits > 0 && stats.corrupt_frames > 0 && stats.dup_suppressed > 0);
    assert_eq!(recycled(), before, "a frame was recycled under a plan");
}

#[test]
fn a_clean_stream_recycles_every_large_frame_but_each_ranks_first() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    const OPS: usize = 3;
    const N: usize = (16 << 20) / 4;
    let before = recycled();
    let u = Universe::new(Topology::flat(), FaultPlan::none());
    let handles = u
        .spawn_batch(2, |proc: Proc| {
            let comm = proc.init_comm();
            let mut buf = vec![proc.rank().0 as f32; N];
            for _ in 0..OPS {
                comm.allreduce(&mut buf, ReduceOp::Sum, AllreduceAlgo::auto())
                    .unwrap();
            }
            buf[N - 1]
        })
        .unwrap();
    for h in handles {
        assert_eq!(h.join(), 2f32.powi(OPS as i32 - 1));
    }
    // Rabenseifner at p = 2: a halving and a doubling step, each 8 MiB of
    // 256 KiB segments, per rank per op, run as one turnaround.
    let frames = 2 * OPS * 2 * (N * 4 / 2).div_ceil(SEGMENT_BYTES);
    assert_eq!(u.fabric().unwrap().stats().messages, frames as u64);
    assert_eq!(recycled() - before, frames as u64 - 2);
}

//! Exhaustive fault-point sweep over every collective algorithm.
//!
//! For every collective variant (allreduce ×3 algorithms, allgather ×2,
//! bcast, reduce, barrier) × every victim rank × every fault-point index ×
//! group sizes p ∈ {2,3,4,5}, kill the victim at exactly that protocol
//! step and drive the survivors through the paper's revoke → agree →
//! shrink → retry cycle. Survivors must converge to *bit-identical*
//! replicas that equal the sequential specification over the surviving
//! ranks' (deterministically regenerable) inputs. Fault indices past the
//! last protocol step of a variant degenerate into fault-free runs, which
//! must reproduce the full-group result — so the matrix also pins the
//! no-failure path of every algorithm.
//!
//! The worker protocol mirrors the elastic forward engine: run the
//! collective from retained inputs, AND-agree on group-wide success, and
//! on disagreement revoke + shrink and re-execute the whole collective
//! from the retained inputs on the shrunk communicator.

use collectives::{AllgatherAlgo, AllreduceAlgo, ReduceOp};
use transport::{BackendKind, FaultPlan, Mesh, RankId, Topology};
use ulfm::{Proc, UlfmError, Universe};

/// Every cell of both matrices runs over each link: in process, and over
/// Unix sockets, where a death reaches the survivors as an EOF or a
/// suspicion and a revocation as a transport signal.
const LINKS: [BackendKind; 2] = [BackendKind::InProc, BackendKind::Unix];

/// A universe over a fresh `kind` mesh of `p` ranks under `plan`.
fn universe(kind: BackendKind, topology: Topology, p: usize, plan: FaultPlan) -> Universe {
    Universe::over(Mesh::new(kind, topology, p, plan).expect("mesh"))
}

/// Elements per reduction buffer. Deliberately not divisible by any tested
/// group size, so ring/Rabenseifner chunking hits uneven remainders.
const LEN: usize = 19;

/// Quarter-integer inputs: sums of any subset are exact in f32, so the
/// "bit-identical to the sequential spec" assertion below is watertight.
fn grad_input(rank: usize, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((rank * 31 + i * 7 + 13) % 101) as f32 * 0.25 - 12.0)
        .collect()
}

fn sum_over(ranks: &[usize], len: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; len];
    for &r in ranks {
        for (o, v) in out.iter_mut().zip(grad_input(r, len)) {
            *o += v;
        }
    }
    out
}

fn f32_bytes(buf: &[f32]) -> Vec<u8> {
    buf.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Allgather block for a rank: variable length (allgatherv) and keyed by
/// the *original* rank so retries regenerate it bit-identically.
fn block_for(rank: usize, case: u64) -> Vec<u8> {
    (0..3 + rank % 3)
        .map(|i| (rank * 17 + i * 5 + case as usize) as u8)
        .collect()
}

/// Broadcast payload: a function of the *case*, not of the root's rank —
/// whoever is group-local rank 0 after a shrink can regenerate it.
fn payload(case: u64) -> Vec<u8> {
    (0..23u64).map(|i| (case * 31 + i * 7) as u8).collect()
}

/// One collective variant under sweep.
#[derive(Clone, Copy, Debug)]
enum Coll {
    Allreduce(AllreduceAlgo),
    Allgather(AllgatherAlgo),
    Bcast,
    Reduce,
    Barrier,
}

impl Coll {
    fn variants() -> Vec<Coll> {
        vec![
            Coll::Allreduce(AllreduceAlgo::Ring),
            Coll::Allreduce(AllreduceAlgo::RecursiveDoubling),
            Coll::Allreduce(AllreduceAlgo::Rabenseifner),
            Coll::Allgather(AllgatherAlgo::Ring),
            Coll::Allgather(AllgatherAlgo::Bruck),
            Coll::Bcast,
            Coll::Reduce,
            Coll::Barrier,
        ]
    }

    fn point(&self) -> &'static str {
        match self {
            Coll::Allreduce(_) => "allreduce.step",
            Coll::Allgather(_) => "allgather.step",
            Coll::Bcast => "bcast.step",
            Coll::Reduce => "reduce.step",
            Coll::Barrier => "barrier.step",
        }
    }

    /// Upper bound (plus one) on how many times any rank hits this
    /// variant's fault point, so the sweep covers every protocol step and
    /// one index past the end (the fault-free degenerate case).
    fn max_fault_index(&self, p: usize) -> u64 {
        let lg = (usize::BITS - (p - 1).leading_zeros()) as u64; // ⌈log₂ p⌉
        match self {
            Coll::Allreduce(_) => 2 * (p as u64 - 1) + 2,
            Coll::Allgather(_) => p as u64 + 1,
            Coll::Bcast | Coll::Reduce | Coll::Barrier => lg + 2,
        }
    }

    /// Run the collective once from regenerable inputs and serialize this
    /// rank's replica view of the result.
    fn execute(
        &self,
        comm: &ulfm::Communicator,
        orig: usize,
        case: u64,
    ) -> Result<Vec<u8>, UlfmError> {
        match *self {
            Coll::Allreduce(algo) => {
                let mut buf = grad_input(orig, LEN);
                comm.allreduce(&mut buf, ReduceOp::Sum, algo)?;
                Ok(f32_bytes(&buf))
            }
            Coll::Allgather(algo) => {
                let blocks = comm.allgather(&block_for(orig, case), algo)?;
                Ok(blocks.concat())
            }
            Coll::Bcast => {
                let mut buf = if comm.rank() == 0 {
                    payload(case)
                } else {
                    vec![0u8; payload(case).len()]
                };
                comm.bcast(0, &mut buf)?;
                Ok(buf)
            }
            Coll::Reduce => {
                let mut buf = grad_input(orig, LEN);
                comm.reduce(0, &mut buf, ReduceOp::Sum)?;
                // Only the root's buffer is defined after a reduce.
                Ok(if comm.rank() == 0 {
                    f32_bytes(&buf)
                } else {
                    Vec::new()
                })
            }
            Coll::Barrier => {
                comm.barrier()?;
                Ok(Vec::new())
            }
        }
    }

    /// Sequential specification: what a member holding final group rank
    /// `frank` must hold, given the ascending original ranks of the
    /// *contributing* group (the group of the accepted attempt).
    fn expected(&self, contributing: &[usize], frank: usize, case: u64) -> Vec<u8> {
        match *self {
            Coll::Allreduce(_) => f32_bytes(&sum_over(contributing, LEN)),
            Coll::Allgather(_) => contributing
                .iter()
                .flat_map(|&r| block_for(r, case))
                .collect(),
            Coll::Bcast => payload(case),
            Coll::Reduce => {
                // Only group rank 0 (the root) holds the reduction.
                if frank == 0 {
                    f32_bytes(&sum_over(contributing, LEN))
                } else {
                    Vec::new()
                }
            }
            Coll::Barrier => Vec::new(),
        }
    }
}

/// Run one (link, p, victim, variant, fault index) cell of the matrix.
fn run_case(kind: BackendKind, p: usize, victim: usize, coll: Coll, fault_index: u64, case: u64) {
    let plan = FaultPlan::none().kill_at_point(RankId(victim), coll.point(), fault_index);
    let u = universe(kind, Topology::flat(), p, plan);
    let handles = u
        .spawn_batch(p, move |proc: Proc| {
            let orig = proc.rank().0;
            let mut cur = proc.init_comm();
            loop {
                // Attempt the collective from (re)generated inputs.
                let attempt = coll.execute(&cur, orig, case);
                let ok = match &attempt {
                    Ok(_) => true,
                    Err(UlfmError::SelfDied) => return None,
                    Err(_) => {
                        // Wake peers blocked on the dead rank's silence.
                        cur.revoke();
                        false
                    }
                };
                // Uniform agreement on group-wide success (AND over flags):
                // a raced-ahead rank may hold a completed result while a peer
                // failed, and must discard it and join the retry.
                let agreed = match cur.agree(ok as u64, 0) {
                    Ok(r) => r,
                    Err(UlfmError::SelfDied) => return None,
                    Err(e) => panic!("agree must tolerate peer death: {e}"),
                };
                if agreed.flags == 1 {
                    let replica = attempt.expect("agreement said every rank succeeded");
                    return Some((cur.size(), cur.rank(), replica));
                }
                cur.revoke();
                cur = match cur.shrink() {
                    Ok(c) => c,
                    Err(UlfmError::SelfDied) => return None,
                    Err(e) => panic!("survivor shrink failed: {e}"),
                };
            }
        })
        .unwrap();

    type Outcome = Option<(usize, usize, Vec<u8>)>;
    let results: Vec<Outcome> = handles.into_iter().map(|h| h.join()).collect();
    let survivors: Vec<usize> = results
        .iter()
        .enumerate()
        .filter(|(_, r)| r.is_some())
        .map(|(i, _)| i)
        .collect();
    assert!(
        survivors.len() >= p - 1,
        "{kind} {coll:?} p={p} victim={victim} fault_index={fault_index}: \
         more than the victim died: {survivors:?}"
    );
    // Uniform agreement forces every survivor to accept the *same* attempt,
    // so they must all report the same final group size: either the full
    // group (nobody failed, or the victim died after its last contribution
    // — e.g. a reduce root dying after every child's fire-and-forget send)
    // or the shrunk group after a revoke → agree → shrink → retry cycle.
    let world = results[survivors[0]].as_ref().map(|(s, _, _)| *s).unwrap();
    let contributing: Vec<usize> = if world == p {
        (0..p).collect()
    } else {
        assert_eq!(world, survivors.len(), "single scripted failure");
        survivors.clone()
    };
    for (i, r) in results.iter().enumerate() {
        let ctx = format!(
            "{kind} {coll:?} p={p} victim={victim} fault_index={fault_index} rank={i} world={world}"
        );
        match r {
            None => assert_eq!(i, victim, "unscripted death: {ctx}"),
            Some((size, frank, replica)) => {
                assert_eq!(*size, world, "survivors disagree on group: {ctx}");
                assert_eq!(
                    replica,
                    &coll.expected(&contributing, *frank, case),
                    "{ctx}"
                );
            }
        }
    }
}

fn sweep(p: usize) {
    for (vi, coll) in Coll::variants().into_iter().enumerate() {
        for victim in 0..p {
            for fault_index in 1..=coll.max_fault_index(p) {
                let case = ((vi * 1000 + p * 100 + victim * 10) as u64) + fault_index;
                for kind in LINKS {
                    run_case(kind, p, victim, coll, fault_index, case);
                }
            }
        }
    }
}

// ----------------------------------------------------------- hierarchical
//
// The same exhaustive matrix for the two-level allreduce: every phase of
// the hierarchical pipeline (intra-node reduce → cross-node exchange among
// leaders → intra-node broadcast) × every victim rank × every fault index ×
// p ∈ {2..6} × node shapes {1, 2, 3 ranks per node} (dense packing gives
// mixed shapes, e.g. p=5 at 2/node → nodes of 2, 2, 1). Fault semantics
// must be identical to the flat path: any death feeds the unchanged
// revoke → agree → shrink cycle, the hierarchy is rebuilt from the agreed
// survivor set, and the accepted replicas equal the sequential sum over the
// contributing ranks bit-identically (quarter-integer inputs are exact in
// f32, so "equals the sum" *is* "bit-identical to flat").

/// Which phase of the two-level allreduce the scripted kill targets. Ranks
/// that never execute a phase (singleton-node ranks never run the intra
/// phases; non-leaders never run the cross exchange) simply never die —
/// those cells degenerate into fault-free runs of the full group, pinning
/// the no-failure path of every shape.
#[derive(Clone, Copy, Debug)]
enum HierPhase {
    /// Intra-node binomial reduce onto the leader (`reduce.step`).
    Local,
    /// Cross-node ring among the leaders (`allreduce.step`).
    Cross,
    /// Intra-node binomial broadcast of the result (`bcast.step`).
    Bcast,
}

impl HierPhase {
    fn all() -> [HierPhase; 3] {
        [HierPhase::Local, HierPhase::Cross, HierPhase::Bcast]
    }

    fn point(&self) -> &'static str {
        match self {
            HierPhase::Local => "reduce.step",
            HierPhase::Cross => "allreduce.step",
            HierPhase::Bcast => "bcast.step",
        }
    }

    /// Upper bound (plus one) on how many times any rank hits this phase's
    /// fault point in one two-level allreduce, so the sweep covers every
    /// protocol step and one index past the end.
    fn max_fault_index(&self, p: usize, rpn: usize) -> u64 {
        let lg = |x: usize| {
            if x <= 1 {
                0
            } else {
                (usize::BITS - (x - 1).leading_zeros()) as u64
            }
        };
        let local = rpn.min(p);
        let nodes = p.div_ceil(rpn);
        match self {
            HierPhase::Cross => 2 * (nodes as u64).saturating_sub(1) + 2,
            HierPhase::Local | HierPhase::Bcast => lg(local) + 2,
        }
    }
}

/// One (link, p, ranks-per-node, victim, phase, fault index) cell: kill
/// the victim at exactly that step of the two-level allreduce and drive the
/// survivors through rebuild-hierarchy → retry until uniform agreement.
fn run_hier_case(
    kind: BackendKind,
    p: usize,
    rpn: usize,
    victim: usize,
    phase: HierPhase,
    fault_index: u64,
) {
    let plan = FaultPlan::none().kill_at_point(RankId(victim), phase.point(), fault_index);
    let u = universe(kind, Topology::new(rpn), p, plan);
    let handles = u
        .spawn_batch(p, move |proc: Proc| {
            let orig = proc.rank().0;
            let mut cur = proc.init_comm();
            loop {
                // The hierarchy is rebuilt from the *current* membership on
                // every attempt — after a shrink this is where a dead
                // leader's node promotes its next rank.
                let h = ulfm::Hierarchy::build(&cur).expect("member maps onto a node");
                let mut buf = grad_input(orig, LEN);
                let attempt = cur.hier_allreduce(&h, &mut buf, ReduceOp::Sum, AllreduceAlgo::Ring);
                let ok = match &attempt {
                    Ok(_) => true,
                    Err(UlfmError::SelfDied) => return None,
                    Err(_) => {
                        cur.revoke();
                        false
                    }
                };
                let agreed = match cur.agree(ok as u64, 0) {
                    Ok(r) => r,
                    Err(UlfmError::SelfDied) => return None,
                    Err(e) => panic!("agree must tolerate peer death: {e}"),
                };
                if agreed.flags == 1 {
                    attempt.expect("agreement said every rank succeeded");
                    return Some((cur.size(), cur.rank(), f32_bytes(&buf)));
                }
                cur.revoke();
                cur = match cur.shrink() {
                    Ok(c) => c,
                    Err(UlfmError::SelfDied) => return None,
                    Err(e) => panic!("survivor shrink failed: {e}"),
                };
            }
        })
        .unwrap();

    type Outcome = Option<(usize, usize, Vec<u8>)>;
    let results: Vec<Outcome> = handles.into_iter().map(|h| h.join()).collect();
    let survivors: Vec<usize> = results
        .iter()
        .enumerate()
        .filter(|(_, r)| r.is_some())
        .map(|(i, _)| i)
        .collect();
    assert!(
        survivors.len() >= p - 1,
        "{kind} {phase:?} p={p} rpn={rpn} victim={victim} fault_index={fault_index}: \
         more than the victim died: {survivors:?}"
    );
    let world = results[survivors[0]].as_ref().map(|(s, _, _)| *s).unwrap();
    let contributing: Vec<usize> = if world == p {
        (0..p).collect()
    } else {
        assert_eq!(world, survivors.len(), "single scripted failure");
        survivors.clone()
    };
    let expected = f32_bytes(&sum_over(&contributing, LEN));
    for (i, r) in results.iter().enumerate() {
        let ctx = format!(
            "{kind} {phase:?} p={p} rpn={rpn} victim={victim} fault_index={fault_index} \
             rank={i} world={world}"
        );
        match r {
            None => assert_eq!(i, victim, "unscripted death: {ctx}"),
            Some((size, _, replica)) => {
                assert_eq!(*size, world, "survivors disagree on group: {ctx}");
                assert_eq!(replica, &expected, "{ctx}");
            }
        }
    }
}

fn hier_sweep(p: usize) {
    for rpn in [1usize, 2, 3] {
        for phase in HierPhase::all() {
            for victim in 0..p {
                for fault_index in 1..=phase.max_fault_index(p, rpn) {
                    for kind in LINKS {
                        run_hier_case(kind, p, rpn, victim, phase, fault_index);
                    }
                }
            }
        }
    }
}

#[test]
fn hier_sweep_every_phase_every_fault_point_p2() {
    hier_sweep(2);
}

#[test]
fn hier_sweep_every_phase_every_fault_point_p3() {
    hier_sweep(3);
}

#[test]
fn hier_sweep_every_phase_every_fault_point_p4() {
    hier_sweep(4);
}

#[test]
fn hier_sweep_every_phase_every_fault_point_p5() {
    hier_sweep(5);
}

#[test]
fn hier_sweep_every_phase_every_fault_point_p6() {
    hier_sweep(6);
}

#[test]
fn sweep_every_collective_every_fault_point_p2() {
    sweep(2);
}

#[test]
fn sweep_every_collective_every_fault_point_p3() {
    sweep(3);
}

#[test]
fn sweep_every_collective_every_fault_point_p4() {
    sweep(4);
}

#[test]
fn sweep_every_collective_every_fault_point_p5() {
    sweep(5);
}

//! `split` keeps every member's communicator-id interner in step, and gives
//! each color its own id. Each rank interns on its own, so a member that
//! interned one key fewer than its peers would give every later
//! communicator a different id — different tags — and its first collective
//! there would never match; and two colors that shared an id would share a
//! revocation, which names its communicator by id alone. Both run in
//! process and over Unix sockets, and a suspicion deadline turns a mismatch
//! into a failure instead of a hang.

use std::sync::Arc;
use std::time::Duration;

use collectives::{AllreduceAlgo, ReduceOp};
use transport::{Backend, BackendKind, Endpoint, FaultPlan, RankId, SocketBackend, Topology};
use ulfm::{Communicator, Proc, UlfmError, Universe};

const N: usize = 3;
const DEADLINE: Duration = Duration::from_secs(2);

/// Run `scenario` on every rank of an in-process universe.
fn in_process<R: Send + 'static>(scenario: fn(&Proc) -> R) -> Vec<R> {
    let universe = Universe::without_faults(Topology::flat());
    universe.set_suspicion_timeout(DEADLINE);
    let handles = universe
        .spawn_batch(N, move |proc| scenario(&proc))
        .expect("in-process universe");
    handles.into_iter().map(|h| h.join()).collect()
}

/// Run `scenario` on every rank of a Unix-socket mesh, one peer-mode
/// universe per rank.
fn over_unix_sockets<R: Send + 'static>(scenario: fn(&Proc) -> R) -> Vec<R> {
    let backends =
        SocketBackend::local_mesh(BackendKind::Unix, Topology::flat(), N, FaultPlan::none())
            .expect("mesh");
    let group: Vec<RankId> = (0..N).map(RankId).collect();
    let handles: Vec<_> = backends
        .iter()
        .cloned()
        .map(|b| {
            b.set_suspicion_timeout(Some(DEADLINE));
            let group = group.clone();
            std::thread::spawn(move || {
                let ep = Endpoint::from_backend(b as Arc<dyn Backend>);
                let (_universe, proc) = Universe::for_backend(ep, group);
                scenario(&proc)
            })
        })
        .collect();
    let out = handles
        .into_iter()
        .map(|h| h.join().expect("rank thread"))
        .collect();
    for b in &backends {
        b.shutdown();
    }
    out
}

/// Rank 2 passes `SPLIT_UNDEFINED` to the first split, then all three split
/// into one color and allreduce on it.
fn undefined_then_all(proc: &Proc) -> Result<Vec<f32>, UlfmError> {
    let world = proc.init_comm();
    let me = world.rank();
    let color = if me == 2 {
        Communicator::SPLIT_UNDEFINED
    } else {
        0
    };
    let pair = world.split(color, 0)?;
    assert_eq!(pair.map(|c| c.size()), (me != 2).then_some(2), "rank {me}");
    let all = world
        .split(1, me as u64)?
        .expect("every rank passes a color");
    let mut buf = vec![me as f32 + 1.0; 4];
    all.allreduce(&mut buf, ReduceOp::Sum, AllreduceAlgo::Ring)?;
    Ok(buf)
}

fn check_in_step(results: Vec<Result<Vec<f32>, UlfmError>>) {
    for (rank, got) in results.into_iter().enumerate() {
        assert_eq!(got, Ok(vec![6.0; 4]), "rank {rank}");
    }
}

/// Ranks 0 and 2 split into color 0, rank 1 into color 1: the id of the
/// communicator each rank got.
fn two_colors(proc: &Proc) -> u64 {
    let world = proc.init_comm();
    let color = (world.rank() % 2) as u64;
    let split = world.split(color, 0).expect("split");
    split.expect("every rank passes a color").id()
}

fn check_two_ids(ids: Vec<u64>) {
    assert_eq!(ids[0], ids[2], "one color, one id");
    assert_ne!(ids[0], ids[1], "two colors, two ids");
}

#[test]
fn an_undefined_member_stays_in_step_in_process() {
    check_in_step(in_process(undefined_then_all));
}

#[test]
fn an_undefined_member_stays_in_step_over_unix_sockets() {
    check_in_step(over_unix_sockets(undefined_then_all));
}

#[test]
fn each_color_gets_its_own_id_in_process() {
    check_two_ids(in_process(two_colors));
}

#[test]
fn each_color_gets_its_own_id_over_unix_sockets() {
    check_two_ids(over_unix_sockets(two_colors));
}

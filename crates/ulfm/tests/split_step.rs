//! `split` keeps every member's communicator-id interner in step, and gives
//! each color its own id. Each rank interns on its own, so a member that
//! interned one key fewer than its peers would give every later
//! communicator a different id — different tags — and its first collective
//! there would never match; and two colors that shared an id would share a
//! revocation, which names its communicator by id alone. Both run in
//! process and over Unix sockets, and a suspicion deadline turns a mismatch
//! into a failure instead of a hang.

use std::time::Duration;

use collectives::{AllreduceAlgo, ReduceOp};
use transport::{BackendKind, FaultPlan, Mesh, Topology};
use ulfm::{Communicator, Proc, UlfmError, Universe};

const N: usize = 3;
const DEADLINE: Duration = Duration::from_secs(2);

/// Run `scenario` on every rank of a universe over a fresh `kind` mesh.
fn run<R: Send + 'static>(kind: BackendKind, scenario: fn(&Proc) -> R) -> Vec<R> {
    let mesh = Mesh::new(kind, Topology::flat(), N, FaultPlan::none()).expect("mesh");
    mesh.set_suspicion_timeout(Some(DEADLINE));
    let universe = Universe::over(mesh);
    let handles = universe
        .spawn_batch(N, move |proc| scenario(&proc))
        .expect("a universe over a mesh spawns");
    handles.into_iter().map(|h| h.join()).collect()
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
    check_in_step(run(BackendKind::InProc, undefined_then_all));
}

#[test]
fn an_undefined_member_stays_in_step_over_unix_sockets() {
    check_in_step(run(BackendKind::Unix, undefined_then_all));
}

#[test]
fn each_color_gets_its_own_id_in_process() {
    check_two_ids(run(BackendKind::InProc, two_colors));
}

#[test]
fn each_color_gets_its_own_id_over_unix_sockets() {
    check_two_ids(run(BackendKind::Unix, two_colors));
}

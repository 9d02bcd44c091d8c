//! ULFM recovery between hand-built peer universes over sockets: each rank
//! builds its own `Universe` with `Universe::for_backend`, as one process of
//! a multi-process launch would, and revoke crosses rank boundaries as a
//! transport signal instead of shared memory. `resilience.rs` replays the
//! same story through `spawn_batch`; the recovery protocol is unchanged.

use std::time::Duration;

use collectives::{AllreduceAlgo, ReduceOp};
use transport::{BackendKind, FaultPlan, Mesh, RankId, Topology};
use ulfm::{UlfmError, Universe};

fn input_for(rank: usize, len: usize) -> Vec<f32> {
    (0..len).map(|i| (rank * 13 + i) as f32 * 0.5).collect()
}

fn sum_over(ranks: &[usize], len: usize) -> Vec<f32> {
    let mut acc = vec![0.0; len];
    for &r in ranks {
        for (a, v) in acc.iter_mut().zip(input_for(r, len)) {
            *a += v;
        }
    }
    acc
}

/// One thread per socket rank, each running its own `Universe`. The victim
/// dies at a fault point mid-allreduce; survivors revoke (the revoke crosses
/// rank boundaries as a transport signal), shrink, and finish the allreduce
/// on the smaller communicator.
fn recovery_over_sockets(kind: BackendKind) {
    const N: usize = 3;
    const VICTIM: usize = 1;
    const LEN: usize = 32;
    let plan = FaultPlan::none().kill_at_point(RankId(VICTIM), "allreduce.step", 2);
    let mesh = Mesh::new(kind, Topology::flat(), N, plan).expect("mesh");
    // Socket peers have no shared memory: a rank that never touches the dead
    // link must learn of the death via suspicion, not global wakeup.
    mesh.set_suspicion_timeout(Some(Duration::from_secs(2)));
    let group: Vec<RankId> = (0..N).map(RankId).collect();

    let results = mesh.run(|ep| -> Option<Vec<f32>> {
        let rank = ep.rank().0;
        let (_u, proc) = Universe::for_backend(ep, group.clone());
        let comm = proc.init_comm();
        let mut buf = input_for(rank, LEN);
        match comm.allreduce(&mut buf, ReduceOp::Sum, AllreduceAlgo::Ring) {
            Ok(()) => panic!("rank {rank}: allreduce must fail under the kill"),
            Err(UlfmError::SelfDied) => return None,
            Err(e) => assert!(e.is_recoverable(), "rank {rank}: unexpected {e:?}"),
        }
        comm.revoke();
        let shrunk = comm.shrink().expect("survivor must shrink");
        assert_eq!(shrunk.size(), N - 1);
        let mut buf = input_for(rank, LEN);
        shrunk
            .allreduce(&mut buf, ReduceOp::Sum, AllreduceAlgo::Ring)
            .expect("allreduce on shrunk communicator");
        Some(buf)
    });

    let expected = sum_over(&[0, 2], LEN);
    let mut survivors = 0;
    for (rank, result) in results.into_iter().enumerate() {
        match result {
            Some(buf) => {
                assert_eq!(buf, expected, "rank {rank} result mismatch");
                survivors += 1;
            }
            None => assert_eq!(rank, VICTIM, "only the victim may die"),
        }
    }
    assert_eq!(survivors, N - 1);
}

#[test]
fn recovery_over_tcp_sockets() {
    recovery_over_sockets(BackendKind::Tcp);
}

#[test]
fn recovery_over_unix_sockets() {
    recovery_over_sockets(BackendKind::Unix);
}

/// A revoke issued by one rank must interrupt a peer that is blocked in an
/// unrelated recv on another universe instance — that is exactly what the
/// cross-process SIGNAL path exists for.
#[test]
fn revoke_signal_interrupts_remote_recv() {
    const N: usize = 2;
    let mesh = Mesh::new(BackendKind::Tcp, Topology::flat(), N, FaultPlan::none()).expect("mesh");
    let group: Vec<RankId> = (0..N).map(RankId).collect();
    let mut eps = mesh.endpoints().into_iter();
    let (_u0, p0) = Universe::for_backend(eps.next().expect("rank 0"), group.clone());
    let (_u1, p1) = Universe::for_backend(eps.next().expect("rank 1"), group);

    let blocked = std::thread::spawn(move || {
        let comm = p1.init_comm();
        // Nobody ever sends on this channel; only the revoke can end it.
        let got = comm.recv(0, 7);
        (comm.is_revoked(), got)
    });
    let comm0 = p0.init_comm();
    // Give the peer time to actually block.
    std::thread::sleep(Duration::from_millis(50));
    comm0.revoke();
    let (revoked, got) = blocked.join().expect("blocked rank panicked");
    assert!(revoked, "revoke signal did not reach the remote universe");
    assert!(
        matches!(got, Err(UlfmError::Revoked)),
        "blocked recv must observe revocation, got {got:?}"
    );
}

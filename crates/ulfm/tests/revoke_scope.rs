//! A revocation reaches exactly its communicator: a member blocked in a
//! receive on it is released with `Revoked`, a member blocked on a sibling
//! communicator over the same ranks is woken, finds its own flag clear and
//! goes back to waiting. Every rank keeps its own flag, and the revoker's
//! control-plane signal writes it: in process the revoker's thread runs
//! each receiver's handler, over sockets the receiver's reader thread does.
//! The same holds whether the universe spawned the ranks or each rank built
//! its own peer-mode universe over a shared in-process fabric.

use std::time::Duration;

use transport::{BackendKind, FaultPlan, Mesh, RankId, Topology};
use ulfm::{Proc, UlfmError, Universe};

const N: usize = 3;
const READY: u64 = 1;
const NEVER_SENT: u64 = 7;

/// What one rank saw: the outcome of its blocked receive, then whether it
/// finds the world and the sibling revoked.
type Seen = (Option<Result<Vec<u8>, UlfmError>>, bool, bool);

/// Rank 0 revokes the world once ranks 1 and 2 are about to block — rank 1
/// on the world, rank 2 on a sibling split off it — then releases rank 2
/// with an ordinary message on the sibling.
fn scenario(proc: &Proc) -> Seen {
    let world = proc.init_comm();
    let sibling = world
        .split(0, world.rank() as u64)
        .expect("split")
        .expect("every rank passes a color");
    assert_ne!(world.id(), sibling.id());
    let blocked = match world.rank() {
        0 => {
            for peer in 1..N {
                sibling.recv(peer, READY).expect("ready");
            }
            // Let both peers actually block; the outcome does not depend on
            // it (a receive posted after the revocation fails the same way).
            std::thread::sleep(Duration::from_millis(30));
            world.revoke();
            sibling
                .send(2, NEVER_SENT, b"still open")
                .expect("send on sibling");
            None
        }
        1 => {
            sibling.send(0, READY, b"").expect("ready");
            Some(world.recv(0, NEVER_SENT))
        }
        _ => {
            sibling.send(0, READY, b"").expect("ready");
            Some(sibling.recv(0, NEVER_SENT))
        }
    };
    (blocked, world.is_revoked(), sibling.is_revoked())
}

fn check(seen: Vec<Seen>) {
    assert!(
        matches!(seen[1].0, Some(Err(UlfmError::Revoked))),
        "blocked on the revoked world: {:?}",
        seen[1].0
    );
    assert_eq!(
        seen[2].0,
        Some(Ok(b"still open".to_vec())),
        "blocked on the sibling"
    );
    // Rank 2's release travelled behind the revocation on the same link,
    // so by now every rank has seen the world revoked — and nobody the
    // sibling.
    for (rank, (_, world, sibling)) in seen.iter().enumerate() {
        assert!(world, "rank {rank} missed the revocation");
        assert!(!sibling, "rank {rank} sees the sibling revoked");
    }
}

/// Every rank of a universe over a fresh `kind` mesh runs [`scenario`].
fn spawned(kind: BackendKind) -> Vec<Seen> {
    let mesh = Mesh::new(kind, Topology::flat(), N, FaultPlan::none()).expect("mesh");
    let universe = Universe::over(mesh);
    let handles = universe
        .spawn_batch(N, |proc| scenario(&proc))
        .expect("a universe over a mesh spawns");
    handles.into_iter().map(|h| h.join()).collect()
}

#[test]
fn revoke_reaches_its_communicator_only_in_process() {
    check(spawned(BackendKind::InProc));
}

#[test]
fn revoke_reaches_its_communicator_only_over_unix_sockets() {
    check(spawned(BackendKind::Unix));
}

/// In process only: over sockets every universe rank is already a
/// peer-mode rank of its own, the case above.
#[test]
fn revoke_reaches_its_communicator_only_between_peer_universes_in_process() {
    let mesh = Mesh::new(BackendKind::InProc, Topology::flat(), N, FaultPlan::none())
        .expect("in-process mesh");
    // A revocation that never arrives would leave rank 1 blocked for good;
    // suspicion turns that into a failed check instead of a hang.
    mesh.set_suspicion_timeout(Some(Duration::from_secs(2)));
    let group: Vec<RankId> = (0..N).map(RankId).collect();
    // Rank 0 revokes only once both peers have built their universe and
    // said so, so every handler is installed before the revocation.
    check(mesh.run(|ep| scenario(&Universe::for_backend(ep, group.clone()).1)));
}

//! A revocation reaches exactly its communicator: a member blocked in a
//! receive on it is released with `Revoked`, a member blocked on a sibling
//! communicator over the same ranks is woken, finds its own flag clear and
//! goes back to waiting. In process the members share the flag; over
//! sockets the control-plane signal writes the flag of the receiving
//! process.

use std::sync::Arc;
use std::time::Duration;

use transport::{Backend, BackendKind, Endpoint, FaultPlan, RankId, SocketBackend, Topology};
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

#[test]
fn revoke_reaches_its_communicator_only_in_process() {
    let universe = Universe::without_faults(Topology::flat());
    let handles = universe
        .spawn_batch(N, |proc| scenario(&proc))
        .expect("in-process universe");
    check(handles.into_iter().map(|h| h.join()).collect());
}

#[test]
fn revoke_reaches_its_communicator_only_over_unix_sockets() {
    let backends =
        SocketBackend::local_mesh(BackendKind::Unix, Topology::flat(), N, FaultPlan::none())
            .expect("mesh");
    let group: Vec<RankId> = (0..N).map(RankId).collect();
    let handles: Vec<_> = backends
        .iter()
        .cloned()
        .map(|b| {
            let group = group.clone();
            std::thread::spawn(move || {
                let ep = Endpoint::from_backend(b as Arc<dyn Backend>);
                let (_universe, proc) = Universe::for_backend(ep, group);
                scenario(&proc)
            })
        })
        .collect();
    check(
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread"))
            .collect(),
    );
    for b in &backends {
        b.shutdown();
    }
}

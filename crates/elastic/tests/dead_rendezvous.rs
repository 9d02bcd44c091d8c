//! The join rendezvous dies: a socket-mesh run whose join store denies
//! every call from the start. One member is killed mid-allreduce, a
//! joiner and a warm spare try to enter, and nothing can reach the store.
//! Members must recover and finish at their current size with identical
//! replicas; the joiner and the spare must leave with a typed error even
//! though neither has a deadline; and nothing may hang. Each store call
//! costs one full retry budget (≈ 3 s) before it gives up, and the
//! members sit through five of them in turn, so a run takes about
//! eighteen seconds.

use std::sync::Arc;
use std::time::Duration;

use elastic::{run_forward_role, ForwardConfig, PolicyMode, Role, TrainSpec, WorkerExit};
use gloo::{KvStore, StoreFaults};
use transport::{BackendKind, FaultPlan, Mesh, RankId, Topology};
use ulfm::{NetJoin, RecoveryArm, UlfmError, Universe};

const MEMBERS: usize = 3;
const VICTIM: usize = 1;
const JOINER: usize = MEMBERS;
const SPARE: usize = MEMBERS + 1;

#[test]
fn a_dead_join_store_leaves_members_training_and_newcomers_exit_typed() {
    let plan = FaultPlan::none().kill_at_point(RankId(VICTIM), "allreduce.step", 5);
    // The joiner and the spare hold links in the mesh from the start, but
    // belong to no group until admitted — and admission never comes.
    let mesh = Mesh::new(BackendKind::Unix, Topology::flat(), SPARE + 1, plan).expect("mesh");
    // Longer than one store retry budget, so a member stalled on the store
    // is never suspected by the peers waiting for it.
    mesh.set_suspicion_timeout(Some(Duration::from_secs(5)));
    let store = KvStore::shared_flaky(StoreFaults {
        fail_rate: 1.0,
        seed: 7,
        max_consecutive: u32::MAX,
    });
    let join = || Arc::new(NetJoin::new(Arc::clone(&store), "dead/"));
    let group: Vec<RankId> = (0..MEMBERS).map(RankId).collect();
    // Members accept joiners at the epoch boundary and try to promote a
    // spare after the failure. They expect no announcement: counting
    // announcements goes through the store too.
    let cfg = ForwardConfig {
        policy_mode: PolicyMode::Static(RecoveryArm::PromoteSpares),
        ..ForwardConfig::new(TrainSpec {
            total_steps: 8,
            steps_per_epoch: 8,
            min_workers: 2,
            ..TrainSpec::default()
        })
    };

    // Members return their exit, the joiner and the spare their join.
    let mut ranks = mesh.run(|ep| {
        let rank = ep.rank().0;
        if rank < MEMBERS {
            let (_universe, proc) = Universe::for_backend_with_join(ep, group.clone(), join());
            Ok(run_forward_role(&proc, &cfg, Role::Member).exit)
        } else {
            let (_universe, proc) = Universe::joiner_for_backend(ep, join());
            Err(match rank {
                JOINER => proc.join_training().map(|c| c.size()),
                _ => proc.join_training_as_spare(None).map(|c| c.size()),
            })
        }
    });
    let newcomers = ranks.split_off(MEMBERS);
    let exits: Vec<WorkerExit> = ranks.into_iter().map(|r| r.unwrap()).collect();
    assert!(matches!(exits[VICTIM], WorkerExit::Died), "{exits:?}");
    let fingerprints: Vec<u64> = [0, 2]
        .iter()
        .map(|&r| match &exits[r] {
            WorkerExit::Completed(s) => {
                assert_eq!(s.final_world, MEMBERS - 1, "rank {r} grew or shrank: {s:?}");
                assert_eq!(s.steps_done, 8, "rank {r}");
                s.state_fingerprint
            }
            other => panic!("rank {r} did not complete: {other:?}"),
        })
        .collect();
    assert_eq!(fingerprints[0], fingerprints[1], "replicas diverged");
    for (got, who) in newcomers.into_iter().zip(["joiner", "spare"]) {
        let got = got.expect_err("a newcomer returns its join");
        assert_eq!(got, Err(UlfmError::JoinTimeout), "{who}");
    }
    assert!(
        store.denied() > 0,
        "the store must have been asked, and refused"
    );
}

/// Members that *expect* one joiner and one warm spare, with no join
/// deadline, while the store is dead. Counting announcements goes through
/// the store, so a lost count has to end both waits — for the pool before
/// the first step and for the joiner at the epoch boundary — or the run
/// never finishes. The newcomers' side is the case above.
#[test]
fn members_expecting_newcomers_stop_waiting_on_a_dead_store() {
    let plan = FaultPlan::none().kill_at_point(RankId(VICTIM), "allreduce.step", 5);
    let mesh = Mesh::new(BackendKind::Unix, Topology::flat(), MEMBERS, plan).expect("mesh");
    mesh.set_suspicion_timeout(Some(Duration::from_secs(5)));
    let store = KvStore::shared_flaky(StoreFaults {
        fail_rate: 1.0,
        seed: 11,
        max_consecutive: u32::MAX,
    });
    let group: Vec<RankId> = (0..MEMBERS).map(RankId).collect();
    let cfg = ForwardConfig {
        policy_mode: PolicyMode::Static(RecoveryArm::PromoteSpares),
        expected_joiners: 1,
        expected_spares: 1,
        join_wait: None,
        ..ForwardConfig::new(TrainSpec {
            total_steps: 8,
            steps_per_epoch: 8,
            min_workers: 2,
            ..TrainSpec::default()
        })
    };
    let exits: Vec<WorkerExit> = mesh.run(|ep| {
        let join = Arc::new(NetJoin::new(Arc::clone(&store), "dead/"));
        let (_universe, proc) = Universe::for_backend_with_join(ep, group.clone(), join);
        run_forward_role(&proc, &cfg, Role::Member).exit
    });
    assert!(matches!(exits[VICTIM], WorkerExit::Died), "{exits:?}");
    let fingerprints: Vec<u64> = [0, 2]
        .iter()
        .map(|&r| match &exits[r] {
            WorkerExit::Completed(s) => {
                assert_eq!(s.final_world, MEMBERS - 1, "rank {r}: {s:?}");
                assert_eq!(s.steps_done, 8, "rank {r}");
                s.state_fingerprint
            }
            other => panic!("rank {r} did not complete: {other:?}"),
        })
        .collect();
    assert_eq!(fingerprints[0], fingerprints[1], "replicas diverged");
}

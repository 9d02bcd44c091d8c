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
use transport::{Backend, BackendKind, Endpoint, FaultPlan, RankId, SocketBackend, Topology};
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
    let backends = SocketBackend::local_mesh(BackendKind::Unix, Topology::flat(), SPARE + 1, plan)
        .expect("mesh");
    for b in &backends {
        // Longer than one store retry budget, so a member stalled on the
        // store is never suspected by the peers waiting for it.
        b.set_suspicion_timeout(Some(Duration::from_secs(5)));
    }
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

    let endpoint =
        |rank: usize| Endpoint::from_backend(Arc::clone(&backends[rank]) as Arc<dyn Backend>);
    let members: Vec<_> = (0..MEMBERS)
        .map(|rank| {
            let (ep, join, group, cfg) = (endpoint(rank), join(), group.clone(), cfg.clone());
            std::thread::spawn(move || {
                let (_universe, proc) = Universe::for_backend_with_join(ep, group, join);
                run_forward_role(&proc, &cfg, Role::Member).exit
            })
        })
        .collect();
    let newcomers: Vec<_> = [JOINER, SPARE]
        .into_iter()
        .map(|rank| {
            let (ep, join) = (endpoint(rank), join());
            std::thread::spawn(move || {
                let (_universe, proc) = Universe::joiner_for_backend(ep, join);
                if rank == SPARE {
                    proc.join_training_as_spare(None).map(|c| c.size())
                } else {
                    proc.join_training().map(|c| c.size())
                }
            })
        })
        .collect();

    let exits: Vec<WorkerExit> = members
        .into_iter()
        .map(|h| h.join().expect("member panicked"))
        .collect();
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
    for (h, who) in newcomers.into_iter().zip(["joiner", "spare"]) {
        let got = h.join().expect("newcomer panicked");
        assert_eq!(got, Err(UlfmError::JoinTimeout), "{who}");
    }
    assert!(
        store.denied() > 0,
        "the store must have been asked, and refused"
    );
    for b in &backends {
        b.shutdown();
    }
}

/// Members that *expect* one joiner and one warm spare, with no join
/// deadline, while the store is dead. Counting announcements goes through
/// the store, so a lost count has to end both waits — for the pool before
/// the first step and for the joiner at the epoch boundary — or the run
/// never finishes. The newcomers' side is the case above.
#[test]
fn members_expecting_newcomers_stop_waiting_on_a_dead_store() {
    let plan = FaultPlan::none().kill_at_point(RankId(VICTIM), "allreduce.step", 5);
    let backends = SocketBackend::local_mesh(BackendKind::Unix, Topology::flat(), MEMBERS, plan)
        .expect("mesh");
    for b in &backends {
        b.set_suspicion_timeout(Some(Duration::from_secs(5)));
    }
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
    let members: Vec<_> = backends
        .iter()
        .map(|b| {
            let ep = Endpoint::from_backend(Arc::clone(b) as Arc<dyn Backend>);
            let join = Arc::new(NetJoin::new(Arc::clone(&store), "dead/"));
            let (group, cfg) = (group.clone(), cfg.clone());
            std::thread::spawn(move || {
                let (_universe, proc) = Universe::for_backend_with_join(ep, group, join);
                run_forward_role(&proc, &cfg, Role::Member).exit
            })
        })
        .collect();
    let exits: Vec<WorkerExit> = members
        .into_iter()
        .map(|h| h.join().expect("member panicked"))
        .collect();
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
    for b in &backends {
        b.shutdown();
    }
}

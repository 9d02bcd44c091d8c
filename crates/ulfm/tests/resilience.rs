//! End-to-end tests of the ULFM runtime: failures mid-collective, the
//! revoke → agree → shrink → retry cycle, recovery policies, and dynamic
//! joins. These exercise the exact mechanism the paper's §3 builds on.
//!
//! Every case runs in process and over Unix sockets, where ranks share no
//! memory: a revocation travels as a transport signal, a death as an EOF
//! or a suspicion, and a joiner dials in. The recovery protocol is the
//! same on both. A case whose subject is the shared fabric says so and
//! runs in process only; two keep a TCP row too.

use collectives::{AllgatherAlgo, AllreduceAlgo, ReduceOp};
use transport::{BackendKind, FaultPlan, LinkPerturb, Mesh, PerturbPlan, RetryPolicy};
use ulfm::{Commit, Proc, RankId, ShrinkOutcome, Topology, UlfmError, Universe};

/// The links every case runs over.
const LINKS: [BackendKind; 2] = [BackendKind::InProc, BackendKind::Unix];

/// Recovery mid-allreduce and a revocation waking a remote receive run
/// over TCP as well.
const LINKS_AND_TCP: [BackendKind; 3] = [BackendKind::InProc, BackendKind::Unix, BackendKind::Tcp];

/// A universe over a fresh `kind` mesh of `members` ranks under `plan`:
/// its first batch, and newcomers after.
fn universe(kind: BackendKind, topology: Topology, members: usize, plan: FaultPlan) -> Universe {
    Universe::over(Mesh::new(kind, topology, members, plan).expect("mesh"))
}

fn input_for(rank: usize, len: usize) -> Vec<f32> {
    (0..len).map(|i| (rank * 13 + i) as f32 * 0.5).collect()
}

fn sum_over(ranks: &[usize], len: usize) -> Vec<f32> {
    let mut out = vec![0.0; len];
    for &r in ranks {
        for (o, v) in out.iter_mut().zip(input_for(r, len)) {
            *o += v;
        }
    }
    out
}

#[test]
fn fault_free_allreduce_all_algorithms() {
    for algo in [
        AllreduceAlgo::Ring,
        AllreduceAlgo::RecursiveDoubling,
        AllreduceAlgo::Rabenseifner,
    ] {
        for kind in LINKS {
            let u = universe(kind, Topology::flat(), 6, FaultPlan::none());
            let handles = u
                .spawn_batch(6, move |p: Proc| {
                    let comm = p.init_comm();
                    let mut buf = input_for(comm.rank(), 40);
                    comm.allreduce(&mut buf, ReduceOp::Sum, algo).unwrap();
                    buf
                })
                .unwrap();
            let want = sum_over(&[0, 1, 2, 3, 4, 5], 40);
            for h in handles {
                assert_eq!(h.join(), want, "{kind}: {algo:?}");
            }
        }
    }
}

#[test]
fn sequence_of_collectives_stays_matched() {
    for kind in LINKS {
        let u = universe(kind, Topology::flat(), 4, FaultPlan::none());
        let handles = u
            .spawn_batch(4, |p: Proc| {
                let comm = p.init_comm();
                let mut a = vec![comm.rank() as f32];
                comm.allreduce(&mut a, ReduceOp::Sum, AllreduceAlgo::Ring)
                    .unwrap();
                comm.barrier().unwrap();
                let mut b = vec![1u8 + comm.rank() as u8];
                let blocks = comm.allgather(&b, AllgatherAlgo::Bruck).unwrap();
                comm.bcast(2, &mut b).unwrap();
                (a[0], blocks, b)
            })
            .unwrap();
        for h in handles {
            let (sum, blocks, b) = h.join();
            assert_eq!(sum, 6.0, "{kind}");
            assert_eq!(blocks, vec![vec![1], vec![2], vec![3], vec![4]], "{kind}");
            assert_eq!(b, vec![3], "{kind}");
        }
    }
}

/// The paper's core mechanism (§3.2): a worker dies mid-allreduce; the
/// survivors revoke, shrink, and *re-execute the failed allreduce from
/// their retained inputs* on the shrunk communicator — no rollback.
#[test]
fn forward_recovery_after_death_mid_allreduce() {
    for kind in LINKS_AND_TCP {
        let n = 6;
        let victim = 3usize;
        let plan = FaultPlan::none().kill_at_point(RankId(victim), "allreduce.step", 3);
        let u = universe(kind, Topology::flat(), n, plan);
        let handles = u
            .spawn_batch(n, move |p: Proc| {
                let comm = p.init_comm();
                let saved = input_for(comm.rank(), 48); // retained input (the gradient)
                let mut buf = saved.clone();
                match comm.allreduce(&mut buf, ReduceOp::Sum, AllreduceAlgo::Ring) {
                    Ok(()) => {
                        // This rank did not observe the failure; it will observe the
                        // revocation on its next operation and must join recovery.
                        match comm.barrier() {
                            Ok(()) => {} // possible if it raced ahead of the revoke
                            Err(e) => assert!(e.is_recoverable(), "{e:?}"),
                        }
                    }
                    Err(UlfmError::SelfDied) => return None,
                    Err(e) => assert!(e.is_recoverable(), "{e:?}"),
                }
                // Recovery: revoke, shrink, retry from the retained input.
                comm.revoke();
                let shrunk = comm.shrink().expect("survivor must shrink");
                assert_eq!(shrunk.size(), n - 1);
                let mut buf = saved;
                shrunk
                    .allreduce(&mut buf, ReduceOp::Sum, AllreduceAlgo::Ring)
                    .expect("retry on shrunk communicator must succeed");
                Some((shrunk.rank(), buf))
            })
            .unwrap();
        let want = sum_over(&[0, 1, 2, 4, 5], 48);
        let mut seen_ranks = Vec::new();
        for (i, h) in handles.into_iter().enumerate() {
            match h.join() {
                None => assert_eq!(i, victim, "{kind}"),
                Some((new_rank, buf)) => {
                    assert_eq!(buf, want, "{kind}: survivor {i} retry result");
                    seen_ranks.push(new_rank);
                }
            }
        }
        seen_ranks.sort_unstable();
        assert_eq!(seen_ranks, vec![0, 1, 2, 3, 4], "{kind}: dense re-ranking");
    }
}

/// Timeout-based failure suspicion: no process ever *crashes* here — one
/// rank merely falls silent (total inbound link loss). Its peers' retry
/// budgets run dry, the silence is converted into `ProcFailed`, and the
/// ordinary revoke → agree → shrink recovery runs instead of a hang.
#[test]
fn silent_peer_is_suspected_and_shrunk_away() {
    for kind in LINKS {
        let n = 4;
        let victim = 2usize;
        let u = universe(kind, Topology::flat(), n, FaultPlan::none());
        u.mesh().unwrap().set_perturbation(
            PerturbPlan::seeded(0x51_1E47)
                .links_into(RankId(victim), n, LinkPerturb::clean().drop(1.0))
                .retry(RetryPolicy {
                    max_retries: 6,
                    base: std::time::Duration::from_micros(100),
                    cap: std::time::Duration::from_millis(1),
                }),
        );
        u.mesh()
            .unwrap()
            .set_suspicion_timeout(Some(std::time::Duration::from_millis(500)));
        let handles = u
            .spawn_batch(n, move |p: Proc| {
                let comm = p.init_comm();
                let saved = input_for(comm.rank(), 32);
                let mut buf = saved.clone();
                match comm.allreduce(&mut buf, ReduceOp::Sum, AllreduceAlgo::Ring) {
                    // The silenced rank is eventually suspected (killed) and must
                    // observe its own declared death rather than block forever.
                    Err(UlfmError::SelfDied) => return None,
                    Ok(()) => match comm.barrier() {
                        Ok(()) | Err(UlfmError::Revoked) => {}
                        Err(UlfmError::SelfDied) => return None,
                        Err(e) => assert!(e.is_recoverable(), "{e:?}"),
                    },
                    Err(e) => assert!(
                        e.is_recoverable(),
                        "suspicion must map to ProcFailed: {e:?}"
                    ),
                }
                // The victim can reach this point too (a survivor's revoke wakes
                // its blocked receive before the suspicion lands), so every
                // recovery stage must tolerate SelfDied.
                comm.revoke();
                let mut cur = match comm.shrink() {
                    Ok(c) => c,
                    Err(UlfmError::SelfDied) => return None,
                    Err(e) => panic!("{e}"),
                };
                assert_eq!(cur.size(), n - 1, "suspected rank must be excluded");
                loop {
                    let mut buf = saved.clone();
                    match cur.allreduce(&mut buf, ReduceOp::Sum, AllreduceAlgo::Ring) {
                        Ok(()) => return Some(buf),
                        Err(UlfmError::SelfDied) => return None,
                        Err(_) => {
                            cur.revoke();
                            cur = match cur.shrink() {
                                Ok(c) => c,
                                Err(UlfmError::SelfDied) => return None,
                                Err(e) => panic!("{e}"),
                            };
                        }
                    }
                }
            })
            .unwrap();
        let want = sum_over(&[0, 1, 3], 32);
        for (i, h) in handles.into_iter().enumerate() {
            match h.join() {
                None => assert_eq!(i, victim, "{kind}: only the silenced rank may die"),
                Some(buf) => assert_eq!(buf, want, "{kind}: survivor {i}"),
            }
        }
        assert!(
            u.mesh().unwrap().stats().suspicions >= 1,
            "death must have come from the failure detector"
        );
    }
}

#[test]
fn revoke_interrupts_blocked_receiver() {
    for kind in LINKS_AND_TCP {
        // Rank 1 blocks receiving a p2p message that will never come; rank 0
        // revokes; rank 1 must unblock with Revoked.
        let u = universe(kind, Topology::flat(), 2, FaultPlan::none());
        let handles = u
            .spawn_batch(2, |p: Proc| {
                let comm = p.init_comm();
                if comm.rank() == 1 {
                    comm.recv(0, 7).map(|_| ())
                } else {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    comm.revoke();
                    Ok(())
                }
            })
            .unwrap();
        let results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        assert_eq!(results[0], Ok(()), "{kind}");
        assert_eq!(results[1], Err(UlfmError::Revoked), "{kind}");
    }
}

#[test]
fn operations_on_revoked_comm_fail_but_shrink_works() {
    for kind in LINKS {
        let u = universe(kind, Topology::flat(), 3, FaultPlan::none());
        let handles = u
            .spawn_batch(3, |p: Proc| {
                let comm = p.init_comm();
                // (No pre-revoke collective: a peer's revoke may interrupt it —
                // that interruption semantics is covered by other tests.)
                comm.revoke();
                let mut buf = vec![0.0f32; 4];
                assert_eq!(
                    comm.allreduce(&mut buf, ReduceOp::Sum, AllreduceAlgo::Ring),
                    Err(UlfmError::Revoked)
                );
                // Nobody failed: shrink must return a same-size working communicator.
                let shrunk = comm.shrink().unwrap();
                assert_eq!(shrunk.size(), 3);
                let mut buf = vec![1.0f32];
                shrunk
                    .allreduce(&mut buf, ReduceOp::Sum, AllreduceAlgo::Ring)
                    .unwrap();
                buf[0]
            })
            .unwrap();
        for h in handles {
            assert_eq!(h.join(), 3.0, "{kind}");
        }
    }
}

/// Drop-node policy (§3.3.1): healthy ranks sharing a node with the victim
/// are excluded and must retire; the shrunk comm holds only other nodes.
#[test]
fn shrink_with_drop_node_policy() {
    for kind in LINKS {
        let rpn = 3; // 3 ranks per node, 9 ranks = 3 nodes
        let topo = Topology::new(rpn);
        let victim = RankId(4); // node 1 (ranks 3,4,5)
        let plan = FaultPlan::none().kill_at_point(victim, "allreduce.step", 2);
        let u = universe(kind, topo, 9, plan);
        let handles = u
            .spawn_batch(9, move |p: Proc| {
                let comm = p.init_comm();
                let mut buf = vec![1.0f32; 16];
                match comm.allreduce(&mut buf, ReduceOp::Sum, AllreduceAlgo::Ring) {
                    Err(UlfmError::SelfDied) => return "died",
                    r => {
                        if r.is_ok() {
                            let _ = comm.barrier();
                        }
                    }
                }
                comm.revoke();
                let outcome = comm
                    .shrink_with(|failed| {
                        // Evict every rank co-located with a failure.
                        let mut evicted = Vec::new();
                        for &f in failed {
                            evicted.extend(topo.node_peers(f, 9));
                        }
                        evicted
                    })
                    .expect("shrink_with failed");
                match outcome {
                    ShrinkOutcome::Excluded => {
                        p.retire();
                        "excluded"
                    }
                    ShrinkOutcome::Member(c) => {
                        assert_eq!(c.size(), 6, "two full nodes remain");
                        let mut b = vec![1.0f32];
                        c.allreduce(&mut b, ReduceOp::Sum, AllreduceAlgo::Ring)
                            .unwrap();
                        assert_eq!(b[0], 6.0);
                        "member"
                    }
                }
            })
            .unwrap();
        let results: Vec<&str> = handles.into_iter().map(|h| h.join()).collect();
        assert_eq!(results[4], "died", "{kind}");
        assert_eq!(results[3], "excluded", "{kind}");
        assert_eq!(results[5], "excluded", "{kind}");
        for r in [0, 1, 2, 6, 7, 8] {
            assert_eq!(results[r], "member", "{kind}: rank {r}");
        }
    }
}

/// Replacement / upscale (§3.3.2–3.3.3): new workers join through the join
/// service and the merged communicator spans old + new.
#[test]
fn joiners_merge_into_running_group() {
    for kind in LINKS {
        let u = universe(kind, Topology::flat(), 3, FaultPlan::none());
        let old = u
            .spawn_batch(3, |p: Proc| {
                let comm = p.init_comm();
                // Epoch boundary: wait until *both* joiners have announced (the
                // monotone counter makes this deterministic), then everyone calls
                // accept_joiners collectively.
                while p.announced_joiners() < Some(2) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                let merged = comm.accept_joiners().unwrap().expect("joiners pending");
                let mut buf = vec![1.0f32];
                merged
                    .allreduce(&mut buf, ReduceOp::Sum, AllreduceAlgo::RecursiveDoubling)
                    .unwrap();
                (merged.size(), buf[0], merged.rank())
            })
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let new = u
            .spawn_batch(2, |p: Proc| {
                let merged = p.join_training().expect("fault-free join must succeed");
                let mut buf = vec![1.0f32];
                merged
                    .allreduce(&mut buf, ReduceOp::Sum, AllreduceAlgo::RecursiveDoubling)
                    .unwrap();
                (merged.size(), buf[0], merged.rank())
            })
            .unwrap();
        let mut ranks = Vec::new();
        for h in old.into_iter().chain(new) {
            let (size, sum, rank) = h.join();
            assert_eq!(size, 5, "{kind}");
            assert_eq!(sum, 5.0, "{kind}");
            ranks.push(rank);
        }
        ranks.sort_unstable();
        assert_eq!(ranks, vec![0, 1, 2, 3, 4], "{kind}");
    }
}

#[test]
fn accept_joiners_with_nobody_waiting_returns_none() {
    for kind in LINKS {
        let u = universe(kind, Topology::flat(), 2, FaultPlan::none());
        let handles = u
            .spawn_batch(2, |p: Proc| {
                let comm = p.init_comm();
                comm.accept_joiners().unwrap().is_none()
            })
            .unwrap();
        for h in handles {
            assert!(h.join(), "{kind}");
        }
    }
}

#[test]
fn agree_min_supports_restart_index() {
    for kind in LINKS {
        // Survivors agree on the earliest failed collective index: the elastic
        // layer uses the min-merge to decide where to resume.
        let u = universe(kind, Topology::flat(), 4, FaultPlan::none());
        let handles = u
            .spawn_batch(4, |p: Proc| {
                let comm = p.init_comm();
                let my_failed_op = 10 + comm.rank() as u64 * 3;
                let res = comm.agree(u64::MAX, my_failed_op).unwrap();
                (res.min, res.flags)
            })
            .unwrap();
        for h in handles {
            let (min, flags) = h.join();
            assert_eq!(min, 10, "{kind}");
            assert_eq!(flags, u64::MAX, "{kind}");
        }
    }
}

/// One `commit` round over `n` members under `plan`: the root offers
/// `payload`, holding it or not. Each member's outcome, by rank.
fn commit_round(
    kind: BackendKind,
    n: usize,
    plan: FaultPlan,
    payload: &'static [u8],
    holds: bool,
) -> Vec<Result<Commit, UlfmError>> {
    let u = universe(kind, Topology::flat(), n, plan);
    let handles = u
        .spawn_batch(n, move |p: Proc| {
            let comm = p.init_comm();
            let mine = if comm.rank() == 0 {
                payload.to_vec()
            } else {
                Vec::new()
            };
            comm.commit(mine, holds)
        })
        .unwrap();
    handles.into_iter().map(|h| h.join()).collect()
}

#[test]
fn commit_delivers_the_roots_exact_bytes_to_every_member() {
    for kind in LINKS {
        let got = commit_round(kind, 5, FaultPlan::none(), b"\x00state\xff", true);
        for (i, c) in got.into_iter().enumerate() {
            assert_eq!(
                c,
                Ok(Commit::Committed(b"\x00state\xff".to_vec())),
                "{kind}: rank {i}"
            );
        }
    }
}

#[test]
fn commit_without_a_holding_root_is_no_holder_everywhere() {
    for kind in LINKS {
        let got = commit_round(kind, 4, FaultPlan::none(), b"", false);
        for (i, c) in got.into_iter().enumerate() {
            assert_eq!(c, Ok(Commit::NoHolder), "{kind}: rank {i}");
        }
    }
}

/// Rank 2 dies before it receives the broadcast, so its child in the
/// binomial tree, rank 3, never gets the payload: no survivor may commit,
/// and all of them agree on the same loss.
#[test]
fn commit_that_loses_a_member_mid_broadcast_is_lost_everywhere() {
    for kind in LINKS {
        let plan = FaultPlan::none().kill_at_point(RankId(2), "bcast.step", 1);
        let got = commit_round(kind, 4, plan, b"proposal", true);
        for (i, c) in got.into_iter().enumerate() {
            let want = if i == 2 {
                Err(UlfmError::SelfDied)
            } else {
                Ok(Commit::Lost(vec![RankId(2)]))
            };
            assert_eq!(c, want, "{kind}: rank {i}");
        }
    }
}

#[test]
fn double_failure_shrink_iterates() {
    for kind in LINKS {
        // Two victims die at different points; a single recovery episode must
        // still converge to a working communicator of the 4 survivors.
        let plan = FaultPlan::none()
            .kill_at_point(RankId(1), "allreduce.step", 2)
            .kill_at_point(RankId(4), "agree.round", 2);
        let u = universe(kind, Topology::flat(), 6, plan);
        let handles = u
            .spawn_batch(6, |p: Proc| {
                let comm = p.init_comm();
                let mut buf = input_for(comm.rank(), 24);
                match comm.allreduce(&mut buf, ReduceOp::Sum, AllreduceAlgo::Ring) {
                    Err(UlfmError::SelfDied) => return None,
                    r => {
                        if r.is_ok() {
                            if let Err(UlfmError::SelfDied) = comm.barrier() {
                                return None;
                            }
                        }
                    }
                }
                comm.revoke();
                let mut cur = match comm.shrink() {
                    Ok(c) => c,
                    Err(UlfmError::SelfDied) => return None,
                    Err(e) => panic!("{e}"),
                };
                // Retry until the collective completes (additional failures during
                // recovery trigger further shrinks).
                loop {
                    let mut retry = input_for(p.rank().0, 24);
                    match cur.allreduce(&mut retry, ReduceOp::Sum, AllreduceAlgo::Ring) {
                        Ok(()) => return Some((cur.size(), retry)),
                        Err(UlfmError::SelfDied) => return None,
                        Err(_) => {
                            cur.revoke();
                            cur = match cur.shrink() {
                                Ok(c) => c,
                                Err(UlfmError::SelfDied) => return None,
                                Err(e) => panic!("{e}"),
                            };
                        }
                    }
                }
            })
            .unwrap();
        let want = sum_over(&[0, 2, 3, 5], 24);
        let mut survivors = 0;
        for (i, h) in handles.into_iter().enumerate() {
            if let Some((size, buf)) = h.join() {
                assert_eq!(size, 4, "{kind}: rank {i}");
                assert_eq!(buf, want, "{kind}: rank {i}");
                survivors += 1;
            }
        }
        assert_eq!(survivors, 4, "{kind}");
    }
}

/// A member dies at its `shrink.attempt` fault point — i.e. *inside* the
/// recovery it was supposed to take part in. When the death is observed
/// before the candidate verification, a single `shrink()` call iterates
/// generations and excludes both victims; when it races the verification
/// (ULFM semantics: shrink may return a communicator containing members
/// that failed *concurrently*), the corpse surfaces on the next
/// collective and one more revoke → shrink round lands on the clean
/// group. Either way every survivor must converge to the same 4-member
/// communicator with the same reduction.
#[test]
fn shrink_iterates_when_member_dies_mid_shrink() {
    for kind in LINKS {
        let plan = FaultPlan::none()
            .kill_at_point(RankId(1), "allreduce.step", 2)
            .kill_at_point(RankId(2), "shrink.attempt", 1);
        let u = universe(kind, Topology::flat(), 6, plan);
        let handles = u
            .spawn_batch(6, |p: Proc| {
                let comm = p.init_comm();
                let saved = input_for(comm.rank(), 24);
                let mut buf = saved.clone();
                match comm.allreduce(&mut buf, ReduceOp::Sum, AllreduceAlgo::Ring) {
                    Err(UlfmError::SelfDied) => return None,
                    r => {
                        if r.is_ok() {
                            if let Err(UlfmError::SelfDied) = comm.barrier() {
                                return None;
                            }
                        }
                    }
                }
                let mut cur = comm;
                loop {
                    cur.revoke();
                    cur = match cur.shrink() {
                        Ok(c) => c,
                        Err(UlfmError::SelfDied) => return None,
                        Err(e) => panic!("{e}"),
                    };
                    let mut retry = input_for(p.rank().0, 24);
                    match cur.allreduce(&mut retry, ReduceOp::Sum, AllreduceAlgo::Ring) {
                        Ok(()) => return Some((cur.size(), retry)),
                        Err(UlfmError::SelfDied) => return None,
                        // The mid-shrink death raced the candidate verification
                        // and leaked into the shrunk group; go around again.
                        Err(_) => {}
                    }
                }
            })
            .unwrap();
        let want = sum_over(&[0, 3, 4, 5], 24);
        let mut survivors = 0;
        for (i, h) in handles.into_iter().enumerate() {
            if let Some((size, buf)) = h.join() {
                assert_eq!(size, 4, "{kind}: rank {i} must land on the clean group");
                assert_eq!(buf, want, "{kind}: rank {i}");
                survivors += 1;
            }
        }
        assert_eq!(survivors, 4, "{kind}");
    }
}

/// Cascade on the join path: the join *leader* (lowest surviving rank)
/// dies at the `join.merge` fault point, mid-handshake. The uniform commit
/// aborts the half-delivered admission on every survivor; they revoke →
/// shrink, and the new lowest rank re-runs the handshake — the pending
/// joiner's ticket is re-issued and the merge still completes.
#[test]
fn join_leader_death_mid_handshake_reissues_tickets() {
    for kind in LINKS {
        let plan = FaultPlan::none().kill_at_point(RankId(0), "join.merge", 1);
        let u = universe(kind, Topology::flat(), 4, plan);
        let old = u
            .spawn_batch(4, |p: Proc| {
                let comm = p.init_comm();
                while p.announced_joiners() < Some(1) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                let mut cur = comm;
                let merged = loop {
                    match cur.accept_joiners() {
                        Ok(Some(m)) => break m,
                        Ok(None) => panic!("pending joiner lost without being admitted"),
                        Err(UlfmError::SelfDied) => return None,
                        Err(e) => {
                            assert!(e.is_recoverable(), "{e:?}");
                            cur.revoke();
                            cur = match cur.shrink() {
                                Ok(c) => c,
                                Err(UlfmError::SelfDied) => return None,
                                Err(e) => panic!("{e}"),
                            };
                        }
                    }
                };
                let mut buf = vec![1.0f32];
                merged
                    .allreduce(&mut buf, ReduceOp::Sum, AllreduceAlgo::RecursiveDoubling)
                    .unwrap();
                Some((merged.size(), buf[0]))
            })
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        let new = u
            .spawn_batch(1, |p: Proc| {
                let merged = p
                    .join_training()
                    .expect("surviving members must re-issue the ticket");
                let mut buf = vec![1.0f32];
                merged
                    .allreduce(&mut buf, ReduceOp::Sum, AllreduceAlgo::RecursiveDoubling)
                    .unwrap();
                Some((merged.size(), buf[0]))
            })
            .unwrap();
        let mut admitted = 0;
        for (i, h) in old.into_iter().chain(new).enumerate() {
            match h.join() {
                None => assert_eq!(i, 0, "{kind}: only the scripted leader may die"),
                Some((size, sum)) => {
                    assert_eq!(size, 4, "{kind}: worker {i}: three survivors + one joiner");
                    assert_eq!(sum, 4.0, "{kind}: worker {i}");
                    admitted += 1;
                }
            }
        }
        assert_eq!(admitted, 4, "{kind}");
    }
}

/// A joiner announces itself and then dies *before* its ticket is issued.
/// The admission snapshot filters the corpse, so the group proceeds with
/// only the live joiner — nobody blocks on a ticket the dead rank will
/// never collect. In process only: the gate polls the shared fabric's
/// dead ranks.
#[test]
fn dead_joiner_is_filtered_from_admission() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    // Ranks 0..2 are the running batch; the first joiner registers as
    // rank 3 and is killed right after announcing (`join.ticket`).
    let plan = FaultPlan::none().kill_at_point(RankId(3), "join.ticket", 1);
    let u = Universe::new(Topology::flat(), plan);
    let gate = Arc::new(AtomicBool::new(false));
    let g = Arc::clone(&gate);
    let old = u
        .spawn_batch(3, move |p: Proc| {
            let comm = p.init_comm();
            // Wait until both joiners have announced *and* the main thread has
            // confirmed the doomed one is dead, so the snapshot must filter it.
            while p.announced_joiners() < Some(2) || !g.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let merged = comm
                .accept_joiners()
                .expect("admission with a live joiner must commit")
                .expect("live joiner must be pending");
            let mut buf = vec![1.0f32];
            merged
                .allreduce(&mut buf, ReduceOp::Sum, AllreduceAlgo::RecursiveDoubling)
                .unwrap();
            Some((merged.size(), buf[0]))
        })
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(5));
    let new = u
        .spawn_batch(2, |p: Proc| match p.join_training() {
            Ok(merged) => {
                let mut buf = vec![1.0f32];
                merged
                    .allreduce(&mut buf, ReduceOp::Sum, AllreduceAlgo::RecursiveDoubling)
                    .unwrap();
                Some((merged.size(), buf[0]))
            }
            Err(UlfmError::SelfDied) => None,
            Err(e) => panic!("unexpected joiner exit: {e:?}"),
        })
        .unwrap();
    while u.fabric().unwrap().dead_ranks().is_empty() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    gate.store(true, Ordering::SeqCst);
    let mut results = Vec::new();
    for h in old.into_iter().chain(new) {
        results.push(h.join());
    }
    assert_eq!(results[3], None, "the doomed joiner must observe its death");
    for (i, r) in results.iter().enumerate() {
        if i == 3 {
            continue;
        }
        assert_eq!(
            *r,
            Some((4, 4.0)),
            "worker {i}: three members + the live joiner"
        );
    }
}

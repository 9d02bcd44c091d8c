//! Backend-generic transport conformance suite.
//!
//! Every [`transport::Backend`] implementation must present the same
//! contract to the layers above it — the ULFM communicator and the elastic
//! engines never know whether bytes move through an in-process mailbox or
//! a real socket. Each case below therefore runs identically on all three
//! backends: the in-process fabric, TCP sockets, and Unix-domain sockets.
//!
//! Covered contract points:
//!  * per-channel FIFO delivery under concurrent traffic,
//!  * checksummed-frame rejection (corrupt frames are never delivered),
//!  * ack/retransmit healing under seeded drop/duplicate/reorder, every
//!    payload counted exactly once, and one seeded plan repaired the same
//!    way on every link,
//!  * timeout-based failure suspicion on silent peers (and the absence of
//!    suspicion for explicit caller deadlines),
//!  * total link loss: the retry budget spent exactly, one suspicion, later
//!    verdicts on the same rank coalesced,
//!  * a suspected rank blocked in an open-ended receive observes its own
//!    death,
//!  * scripted deaths (operation count, named fault point): `SelfDied` to
//!    the victim, `PeerDead` to a peer blocked on it,
//!  * self-sends run the whole frame path, perturbed or not,
//!  * clean teardown with no spurious deaths,
//!  * buffered messages surviving the sender's voluntary retirement,
//!  * elastic joins surviving joiner deaths at the `join.ticket` and
//!    `join.merge` fault points (socket flavors — the join rendezvous and
//!    link establishment are what differ per backend).

use std::time::Duration;
use transport::{
    BackendKind, Endpoint, FaultPlan, LinkPerturb, Mesh, PerturbPlan, RankId, RetryPolicy,
    Topology, TransportError,
};

const ALL_FLAVORS: [BackendKind; 3] = [BackendKind::InProc, BackendKind::Tcp, BackendKind::Unix];

#[test]
fn p2p_delivery_is_fifo_per_channel() {
    for flavor in ALL_FLAVORS {
        let mesh = Mesh::new(flavor, Topology::flat(), 2, FaultPlan::none()).expect("mesh");
        let eps = mesh.endpoints();
        let n_msgs = 64u64;
        std::thread::scope(|s| {
            let sender = &eps[0];
            s.spawn(move || {
                // Interleave two tags: FIFO must hold per (source, tag)
                // channel, not just globally.
                for i in 0..n_msgs {
                    sender.send(RankId(1), 7, &i.to_le_bytes()).unwrap();
                    sender.send(RankId(1), 9, &(i * 3).to_le_bytes()).unwrap();
                }
            });
            let receiver = &eps[1];
            s.spawn(move || {
                for i in 0..n_msgs {
                    let a = receiver.recv(RankId(0), 7).unwrap();
                    assert_eq!(a, i.to_le_bytes(), "{flavor:?}: tag 7 out of order");
                }
                for i in 0..n_msgs {
                    let b = receiver.recv(RankId(0), 9).unwrap();
                    assert_eq!(b, (i * 3).to_le_bytes(), "{flavor:?}: tag 9 out of order");
                }
            });
        });
    }
}

#[test]
fn corrupt_frames_are_rejected_then_healed_by_retransmit() {
    for flavor in ALL_FLAVORS {
        let mesh = Mesh::new(flavor, Topology::flat(), 2, FaultPlan::none()).expect("mesh");
        let eps = mesh.endpoints();
        let plan = PerturbPlan::seeded(42)
            .all_links(LinkPerturb::clean().corrupt(0.4))
            .retry(RetryPolicy {
                max_retries: 64,
                base: Duration::from_micros(200),
                cap: Duration::from_millis(2),
            });
        for ep in &eps {
            ep.set_perturbation(plan.clone());
        }
        std::thread::scope(|s| {
            let sender = &eps[0];
            s.spawn(move || {
                for i in 0..32u64 {
                    sender.send(RankId(1), 5, &i.to_le_bytes()).unwrap();
                }
            });
            let receiver = &eps[1];
            s.spawn(move || {
                for i in 0..32u64 {
                    let got = receiver.recv(RankId(0), 5).unwrap();
                    assert_eq!(got, i.to_le_bytes(), "{flavor:?}: corrupted payload leaked");
                }
            });
        });
        assert!(
            mesh.stats().corrupt_frames > 0,
            "{flavor:?}: the seeded plan should have corrupted at least one frame"
        );
        assert!(
            mesh.stats().retransmits > 0,
            "{flavor:?}: rejected frames must be healed by retransmission"
        );
    }
}

#[test]
fn lossy_links_heal_via_ack_retransmit() {
    for flavor in ALL_FLAVORS {
        let mesh = Mesh::new(flavor, Topology::flat(), 2, FaultPlan::none()).expect("mesh");
        let eps = mesh.endpoints();
        let plan = PerturbPlan::seeded(7)
            .all_links(LinkPerturb::clean().drop(0.3).duplicate(0.25).reorder(0.25))
            .retry(RetryPolicy {
                max_retries: 64,
                base: Duration::from_micros(200),
                cap: Duration::from_millis(2),
            });
        for ep in &eps {
            ep.set_perturbation(plan.clone());
        }
        std::thread::scope(|s| {
            let sender = &eps[0];
            s.spawn(move || {
                for i in 0..48u64 {
                    sender.send(RankId(1), 3, &i.to_le_bytes()).unwrap();
                }
            });
            let receiver = &eps[1];
            s.spawn(move || {
                // Exactly-once, in-order delivery despite drop/dup/reorder:
                // sequence numbers reassemble the channel.
                for i in 0..48u64 {
                    let got = receiver.recv(RankId(0), 3).unwrap();
                    assert_eq!(
                        got,
                        i.to_le_bytes(),
                        "{flavor:?}: lossy channel broke order"
                    );
                }
            });
        });
        assert!(
            mesh.stats().retransmits > 0,
            "{flavor:?}: dropped frames must retransmit"
        );
        // Retransmissions and duplicates never count as messages, and a
        // lossy-but-live link never costs a rank its life.
        assert_eq!(eps[0].stats().messages, 48, "{flavor:?}");
        assert_eq!(mesh.stats().deaths, 0, "{flavor:?}");
    }
}

#[test]
fn silent_peer_is_suspected_but_explicit_deadline_is_not() {
    for flavor in ALL_FLAVORS {
        let mesh = Mesh::new(flavor, Topology::flat(), 2, FaultPlan::none()).expect("mesh");
        let eps = mesh.endpoints();

        // An explicit caller deadline is the caller's own timeout: it must
        // report Timeout and *not* declare the peer failed.
        let r = eps[0].recv_timeout(RankId(1), 11, Duration::from_millis(50));
        assert_eq!(r, Err(TransportError::Timeout), "{flavor:?}");
        assert!(eps[0].is_peer_alive(RankId(1)), "{flavor:?}");
        assert_eq!(mesh.stats().suspicions, 0, "{flavor:?}");

        // An open-ended receive bounded by the suspicion timeout is the
        // failure detector: silence past it means the peer is dead.
        eps[0].set_suspicion_timeout(Some(Duration::from_millis(100)));
        let r = eps[0].recv(RankId(1), 11);
        assert_eq!(r, Err(TransportError::PeerDead(RankId(1))), "{flavor:?}");
        assert!(!eps[0].is_peer_alive(RankId(1)), "{flavor:?}");
        assert!(mesh.stats().suspicions > 0, "{flavor:?}");
    }
}

/// A retry policy quick enough to exhaust in milliseconds.
fn impatient(max_retries: u32) -> RetryPolicy {
    RetryPolicy {
        max_retries,
        base: Duration::from_micros(200),
        cap: Duration::from_millis(1),
    }
}

/// Poll until `ep` sees `rank` dead. In process the alive table is shared,
/// so this returns at once; over sockets the news travels as an EOF.
fn await_death(ep: &Endpoint, rank: RankId, flavor: BackendKind) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while ep.is_peer_alive(rank) {
        assert!(
            std::time::Instant::now() < deadline,
            "{flavor:?}: rank {} never learnt that rank {rank} died",
            ep.rank()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn total_link_loss_spends_the_budget_then_suspects_once() {
    let coalesced = telemetry::counter("transport.suspicion.coalesced");
    for flavor in ALL_FLAVORS {
        let mesh = Mesh::new(flavor, Topology::flat(), 3, FaultPlan::none()).expect("mesh");
        let eps = mesh.endpoints();
        let plan = PerturbPlan::seeded(5)
            .links_into(RankId(1), 3, LinkPerturb::clean().drop(1.0))
            .retry(impatient(4));
        for ep in &eps {
            ep.set_perturbation(plan.clone());
        }
        assert_eq!(
            eps[0].send(RankId(1), 0, b"void"),
            Err(TransportError::PeerDead(RankId(1))),
            "{flavor:?}"
        );
        let tx = eps[0].stats();
        assert_eq!(tx.retransmits, 4, "{flavor:?}: the budget, exactly");
        assert_eq!(tx.suspicions, 1, "{flavor:?}");
        assert_eq!(tx.messages, 0, "{flavor:?}: nothing was delivered");
        assert!(!eps[0].is_peer_alive(RankId(1)), "{flavor:?}");

        // A second observer of the same death: its send fails fast on the
        // known-dead peer, and its own verdict is coalesced, not counted.
        await_death(&eps[2], RankId(1), flavor);
        let (suspicions, folded) = (eps[2].stats().suspicions, coalesced.get());
        assert_eq!(
            eps[2].send(RankId(1), 0, b"late"),
            Err(TransportError::PeerDead(RankId(1))),
            "{flavor:?}"
        );
        eps[2].backend().suspect(RankId(1));
        assert_eq!(eps[2].stats().suspicions, suspicions, "{flavor:?}");
        assert!(coalesced.get() > folded, "{flavor:?}: not coalesced");
    }
}

#[test]
fn suspected_rank_blocked_in_recv_observes_its_own_death() {
    for flavor in ALL_FLAVORS {
        let mesh = Mesh::new(flavor, Topology::flat(), 3, FaultPlan::none()).expect("mesh");
        mesh.set_suspicion_timeout(None);
        let eps = mesh.endpoints();
        let plan = PerturbPlan::seeded(5)
            .link(RankId(0), RankId(1), LinkPerturb::clean().drop(1.0))
            .retry(impatient(2));
        for ep in &eps {
            ep.set_perturbation(plan.clone());
        }
        std::thread::scope(|s| {
            // Rank 1 blocks on a channel nobody serves, with no suspicion
            // timeout: only a verdict against itself can end the wait. (If
            // the verdict wins the race to the receive, the receive's own
            // entry check reports the same thing.)
            let blocked = s.spawn(|| eps[1].recv(RankId(2), 99));
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(
                eps[0].send(RankId(1), 0, b"anyone there?"),
                Err(TransportError::PeerDead(RankId(1))),
                "{flavor:?}"
            );
            assert_eq!(
                blocked.join().unwrap(),
                Err(TransportError::SelfDied),
                "{flavor:?}: the suspect must observe its death, not hang"
            );
        });
    }
}

#[test]
fn scripted_death_is_selfdied_to_the_victim_and_peerdead_to_a_blocked_peer() {
    for flavor in ALL_FLAVORS {
        for at_point in [false, true] {
            let plan = if at_point {
                FaultPlan::none().kill_at_point(RankId(1), "allreduce.step", 1)
            } else {
                FaultPlan::none().kill_at_op(RankId(1), 2)
            };
            let mesh = Mesh::new(flavor, Topology::flat(), 2, plan).expect("mesh");
            mesh.set_suspicion_timeout(None);
            let eps = mesh.endpoints();
            std::thread::scope(|s| {
                // No suspicion timeout: only the death can end this wait.
                let peer = s.spawn(|| eps[0].recv(RankId(1), 8));
                let died = if at_point {
                    assert_eq!(eps[1].fault_point("some.other.point"), Ok(()));
                    eps[1].fault_point("allreduce.step")
                } else {
                    eps[1].send(RankId(0), 7, b"op 1").unwrap();
                    eps[1].send(RankId(0), 7, b"op 2")
                };
                let ctx = format!("{flavor:?}, at_point={at_point}");
                assert_eq!(died, Err(TransportError::SelfDied), "{ctx}");
                assert!(!eps[1].is_self_alive(), "{ctx}");
                assert_eq!(
                    peer.join().unwrap(),
                    Err(TransportError::PeerDead(RankId(1))),
                    "{ctx}"
                );
                // Dead stays dead: every later operation says so.
                assert_eq!(
                    eps[1].recv(RankId(0), 1),
                    Err(TransportError::SelfDied),
                    "{ctx}"
                );
            });
        }
    }
}

#[test]
fn self_send_runs_the_whole_frame_path() {
    let mut healed = Vec::new();
    for flavor in ALL_FLAVORS {
        let mesh = Mesh::new(flavor, Topology::flat(), 2, FaultPlan::none()).expect("mesh");
        let eps = mesh.endpoints();
        let me = RankId(0);
        let roundtrip = |n: u64| {
            for i in 0..n {
                eps[0].send(me, 4, &i.to_le_bytes()).unwrap();
            }
            for i in 0..n {
                assert_eq!(eps[0].recv(me, 4).unwrap(), i.to_le_bytes(), "{flavor:?}");
            }
        };
        roundtrip(4);
        assert_eq!(eps[0].stats().retransmits, 0, "{flavor:?}");

        // One rule on every backend: a rank's link to itself is a link. A
        // spec on it perturbs self-sends, and they heal like any others.
        eps[0].set_perturbation(
            PerturbPlan::seeded(9)
                .link(
                    me,
                    me,
                    LinkPerturb::clean().drop(0.5).duplicate(0.3).corrupt(0.2),
                )
                .retry(impatient(64)),
        );
        roundtrip(32);
        let st = eps[0].stats();
        assert_eq!(st.messages, 36, "{flavor:?}");
        assert!(
            st.retransmits > 0,
            "{flavor:?}: half the copies were dropped"
        );
        healed.push((st.retransmits, st.corrupt_frames, st.dup_suppressed));
    }
    // Same seed, same link, same engine: the adversary's verdicts — and so
    // the repair work — are identical whatever carries the bytes.
    assert!(healed.iter().all(|h| *h == healed[0]), "{healed:?}");
}

/// Message sizes either side of the in-process hand-over threshold, and one
/// far past it. The largest goes first: once the small ones behind it have
/// arrived, every copy of it has been received and counted.
const LENDING_SIZES: [usize; 6] = [8 << 20, 0, 1, 4095, 4096, 4097];

/// Traffic counters once they hold still: a duplicate of the last message
/// may still be on its way over a socket.
fn held_still<T: PartialEq>(read: impl Fn() -> T) -> T {
    let mut last = read();
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let now = read();
        if now == last {
            return now;
        }
        last = now;
    }
}

/// Send every [`LENDING_SIZES`] payload from rank 0 to rank 1 — through
/// `send_with` / `recv_with` if `lending`, else `send` / `recv` — and return
/// what arrived plus each endpoint's settled traffic counters.
fn exchange(
    flavor: BackendKind,
    plan: Option<&PerturbPlan>,
    lending: bool,
) -> (Vec<Vec<u8>>, Vec<transport::FabricStats>) {
    let mesh = Mesh::new(flavor, Topology::flat(), 2, FaultPlan::none()).expect("mesh");
    let eps = mesh.endpoints();
    if let Some(plan) = plan {
        for ep in &eps {
            ep.set_perturbation(plan.clone());
        }
    }
    let payloads: Vec<Vec<u8>> = LENDING_SIZES
        .iter()
        .map(|&n| (0..n).map(|i| (i * 31 + n) as u8).collect())
        .collect();
    for (tag, data) in payloads.iter().enumerate() {
        let tag = tag as u64;
        if lending {
            let mut fill = |at: usize, chunk: &mut [u8]| {
                chunk.copy_from_slice(&data[at..at + chunk.len()]);
            };
            eps[0].send_with(RankId(1), tag, data.len(), &mut fill)
        } else {
            eps[0].send(RankId(1), tag, data)
        }
        .unwrap_or_else(|e| panic!("{flavor:?}: send of {} bytes: {e}", data.len()));
    }
    let got = (0..payloads.len() as u64)
        .map(|tag| {
            let mut got = Vec::new();
            if lending {
                let lend = &mut |bytes: &[u8]| got = bytes.to_vec();
                eps[1].recv_with(RankId(0), tag, &|| false, None, lend)
            } else {
                eps[1].recv(RankId(0), tag).map(|bytes| got = bytes)
            }
            .unwrap_or_else(|e| panic!("{flavor:?}: recv of tag {tag}: {e}"));
            got
        })
        .collect();
    let stats = held_still(|| eps.iter().map(|ep| ep.stats()).collect::<Vec<_>>());
    assert_eq!(got, payloads, "{flavor:?}, lending={lending}: bytes differ");
    (got, stats)
}

#[test]
fn lending_send_and_recv_move_what_send_and_recv_move() {
    // Patient enough that a socket never retransmits a frame whose ack is
    // merely slow (an 8 MiB frame in an unoptimised build), so repair work
    // is the adversary's verdicts alone — identical on both paths.
    let patient = RetryPolicy {
        max_retries: 64,
        base: Duration::from_millis(400),
        cap: Duration::from_millis(400),
    };
    let lossy = PerturbPlan::seeded(4)
        .all_links(
            LinkPerturb::clean()
                .drop(0.1)
                .duplicate(0.2)
                .corrupt(0.1)
                .reorder(0.1),
        )
        .retry(patient);
    for flavor in ALL_FLAVORS {
        // In process a clean fabric has no plan at all: that is the fabric
        // whose large frames are handed over whole.
        let clean = (flavor != BackendKind::InProc).then(|| PerturbPlan::none().retry(patient));
        for plan in [clean.as_ref(), Some(&lossy)] {
            let (_, plain) = exchange(flavor, plan, false);
            let (_, lent) = exchange(flavor, plan, true);
            let ctx = format!(
                "{flavor:?}, perturbed={}",
                plan.is_some_and(|p| !p.is_inert())
            );
            assert_eq!(lent, plain, "{ctx}: traffic counters differ");
            let sender = lent[0];
            assert_eq!(sender.messages, LENDING_SIZES.len() as u64, "{ctx}");
            let bytes: usize = LENDING_SIZES.iter().sum();
            assert_eq!(sender.bytes, bytes as u64, "{ctx}");
            let sum = |f: fn(&transport::FabricStats) -> u64| lent.iter().map(f).sum::<u64>();
            assert_eq!(sum(|s| s.deaths + s.suspicions), 0, "{ctx}");
            if plan == Some(&lossy) {
                // The seed exercises every kind of repair.
                assert!(sum(|s| s.retransmits) > 0, "{ctx}: nothing was lost");
                assert!(
                    sum(|s| s.corrupt_frames) > 0,
                    "{ctx}: nothing was corrupted"
                );
                assert!(
                    sum(|s| s.dup_suppressed) > 0,
                    "{ctx}: nothing was duplicated"
                );
            }
        }
    }
}

/// `n` sends of `len` bytes from rank 0 to rank 1 under `plan`, received
/// in order; the mesh's settled `(retransmits, corrupt_frames,
/// dup_suppressed)`.
fn repairs(flavor: BackendKind, plan: &PerturbPlan, n: u64, len: usize) -> (u64, u64, u64) {
    let mesh = Mesh::new(flavor, Topology::flat(), 2, FaultPlan::none()).expect("mesh");
    let eps = mesh.endpoints();
    for ep in &eps {
        ep.set_perturbation(plan.clone());
    }
    for i in 0..n {
        eps[0].send(RankId(1), 1, &vec![i as u8; len]).unwrap();
    }
    for i in 0..n {
        let got = eps[1].recv(RankId(0), 1).unwrap();
        assert!(got == vec![i as u8; len], "{flavor:?}: message {i} damaged");
    }
    let stats = held_still(|| mesh.stats());
    assert_eq!(stats.deaths + stats.suspicions, 0, "{flavor:?}");
    (
        stats.retransmits,
        stats.corrupt_frames,
        stats.dup_suppressed,
    )
}

#[test]
fn one_seeded_plan_repairs_the_same_way_on_every_link() {
    // Every hand-off of a numbered copy is synchronous, so which copies a
    // seeded plan drops, corrupts, duplicates or reorders, and what it takes
    // to repair them, depends on the seed alone: not on the link, and not
    // on timing.
    let plan = PerturbPlan::seeded(4).all_links(
        LinkPerturb::clean()
            .drop(0.1)
            .duplicate(0.2)
            .corrupt(0.1)
            .reorder(0.1),
    );
    for (n, len) in [(300, 64), (60, 256 << 10)] {
        let counts: Vec<_> = ALL_FLAVORS
            .iter()
            .map(|&flavor| repairs(flavor, &plan, n, len))
            .collect();
        let (retransmits, corrupt, dups) = counts[0];
        assert!(retransmits > 0 && corrupt > 0 && dups > 0, "{counts:?}");
        assert!(
            counts.iter().all(|c| *c == counts[0]),
            "{n} × {len} B: (retransmits, corrupt, dups) per {ALL_FLAVORS:?}: {counts:?}"
        );
    }
}

#[test]
fn clean_teardown_is_prompt_and_never_a_suspicion() {
    for flavor in ALL_FLAVORS {
        let mesh = Mesh::new(flavor, Topology::flat(), 3, FaultPlan::none()).expect("mesh");
        let eps = mesh.endpoints();
        for ep in &eps {
            ep.set_suspicion_timeout(Some(Duration::from_secs(30)));
        }
        // A full round of traffic, then teardown. What a clean teardown
        // must never produce is a *suspicion* (a silence verdict) or a hang
        // waiting for drains that cannot complete.
        for (i, ep) in eps.iter().enumerate() {
            ep.send(RankId((i + 1) % 3), 1, b"ring").unwrap();
        }
        for (i, ep) in eps.iter().enumerate() {
            let from = RankId((i + 2) % 3);
            assert_eq!(ep.recv(from, 1).unwrap(), b"ring", "{flavor:?}");
        }
        let start = std::time::Instant::now();
        mesh.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "{flavor:?}: teardown must not stall on drains"
        );
        assert_eq!(
            mesh.stats().suspicions,
            0,
            "{flavor:?}: clean teardown must not look like a silent failure"
        );
    }
}

// ---------------------------------------------------------------------------
// Elastic-join conformance: a joiner death at either join fault point must
// leave the group progressing, on every backend. The join store and link
// bootstrap are exactly what differ per backend (NetJoin over the
// universe's private in-memory store in-process, over one shared store
// plus socket dials for Tcp/Unix), so these run the full scenario harness
// rather than raw endpoints.
// ---------------------------------------------------------------------------

use elastic::scenario::{Engine, ScenarioKind};
use elastic::{run_scenario, ScenarioConfig, TrainSpec, WorkerExit};

fn join_fault_cfg(
    flavor: BackendKind,
    joiners: usize,
    dead_joiner: usize,
    point: &str,
) -> ScenarioConfig {
    ScenarioConfig {
        spec: TrainSpec {
            total_steps: 12,
            steps_per_epoch: 4,
            min_workers: 2,
            ..TrainSpec::default()
        },
        workers: 3,
        ranks_per_node: 3,
        // Upscale schedules no member faults; the only scripted death is
        // the joiner's, at the requested join fault point.
        joiners,
        extra_faults: FaultPlan::none().kill_at_point(RankId(dead_joiner), point, 1),
        backend: flavor,
        ..ScenarioConfig::quick(Engine::UlfmForward, ScenarioKind::Upscale)
    }
}

#[test]
fn joiner_killed_at_ticket_does_not_block_its_peer() {
    // Two joiners announce; one is killed right after announcing (before its
    // ticket lands). The members must not wedge on the corpse: the surviving
    // joiner is admitted and all four live replicas converge. Depending on
    // when the leader's failure detector catches the death, the corpse is
    // either filtered from the proposal or merged-then-shrunk — both end in
    // the same live membership.
    for flavor in ALL_FLAVORS {
        let res = run_scenario(&join_fault_cfg(flavor, 2, 4, "join.ticket"));
        assert_eq!(res.completed(), 4, "{flavor:?}: exits: {:?}", res.exits);
        assert!(
            matches!(res.exits[4], WorkerExit::Died),
            "{flavor:?}: killed joiner must report Died: {:?}",
            res.exits[4]
        );
        res.assert_consistent_state();
    }
}

#[test]
fn joiner_killed_at_merge_is_shrunk_back_out() {
    // The joiner holds a committed ticket — every member has already agreed
    // to the merge — and dies before its first synced step. The members'
    // next collective hits the corpse, revokes, and shrinks back to the
    // original three, which finish the run in agreement.
    for flavor in ALL_FLAVORS {
        let res = run_scenario(&join_fault_cfg(flavor, 1, 3, "join.merge"));
        assert_eq!(res.completed(), 3, "{flavor:?}: exits: {:?}", res.exits);
        assert!(
            matches!(res.exits[3], WorkerExit::Died),
            "{flavor:?}: killed joiner must report Died: {:?}",
            res.exits[3]
        );
        res.assert_consistent_state();
    }
}

#[test]
fn buffered_messages_survive_voluntary_retirement() {
    for flavor in ALL_FLAVORS {
        let mesh = Mesh::new(flavor, Topology::flat(), 2, FaultPlan::none()).expect("mesh");
        let eps = mesh.endpoints();
        eps[1].send(RankId(0), 2, b"last words").unwrap();
        eps[1].retire();
        // ULFM requires already-matched traffic to complete: the buffered
        // message is delivered first, the failure is reported after.
        assert_eq!(
            eps[0].recv(RankId(1), 2).unwrap(),
            b"last words",
            "{flavor:?}"
        );
        assert_eq!(
            eps[0].recv(RankId(1), 2),
            Err(TransportError::PeerDead(RankId(1))),
            "{flavor:?}"
        );
    }
}

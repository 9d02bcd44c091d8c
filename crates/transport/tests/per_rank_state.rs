//! What moved to the sending rank — sequence numbers, traffic counts, fault
//! counters — seen through the public API: under eight concurrent senders
//! on one fabric the totals are exact, every channel arrives whole and in
//! order, and scripted triggers fire at the same absolute index they always
//! did, whenever they were armed.

use std::sync::Arc;
use transport::{
    Endpoint, Fabric, FaultInjector, FaultPlan, FaultTrigger, RankId, Topology, TransportError,
};

const RANKS: usize = 8;

fn endpoints(fabric: &Arc<Fabric>, n: usize) -> Vec<Endpoint> {
    let ranks = fabric.register_ranks(n).into_iter();
    ranks
        .map(|r| Endpoint::new(Arc::clone(fabric), r))
        .collect()
}

/// Run `f` on one thread per endpoint and collect the results in rank order.
fn on_every_rank<R: Send>(eps: &[Endpoint], f: impl Fn(&Endpoint) -> R + Sync) -> Vec<R> {
    std::thread::scope(|s| {
        let handles: Vec<_> = eps.iter().map(|ep| s.spawn(|| f(ep))).collect();
        let results = handles.into_iter().map(|h| h.join().expect("rank thread"));
        results.collect()
    })
}

#[test]
fn concurrent_senders_count_exactly_and_leave_no_gap() {
    const SENDS: u32 = 100_000;
    const TAGS: u32 = 4;
    let fabric = Fabric::without_faults(Topology::flat());
    let eps = endpoints(&fabric, RANKS);
    // A ring: message `i` goes right on tag `i mod 4`, so each of the 32
    // (source, destination, tag) channels carries every fourth index. A
    // sequence number handed out twice would be dropped as a duplicate and
    // one skipped would hold the channel back for good: either way the
    // left neighbour's `i` would not be what arrives next.
    on_every_rank(&eps, |ep| {
        let me = ep.rank().0;
        let (right, left) = (RankId((me + 1) % RANKS), RankId((me + RANKS - 1) % RANKS));
        for i in 0..SENDS {
            let tag = u64::from(i % TAGS);
            ep.send(right, tag, &i.to_le_bytes()).unwrap();
            assert_eq!(ep.recv(left, tag).unwrap(), i.to_le_bytes(), "rank {me}");
        }
    });
    let stats = fabric.stats();
    assert_eq!(stats.messages, RANKS as u64 * u64::from(SENDS));
    assert_eq!(stats.bytes, stats.messages * 4);
    assert_eq!(
        (stats.retransmits, stats.dup_suppressed, stats.deaths),
        (0, 0, 0)
    );
}

/// Successful self-sends by `ep` before one fails; the failure must be the
/// scripted death.
fn sends_until_death(ep: &Endpoint, limit: u64) -> u64 {
    for done in 0..limit {
        match ep.send(ep.rank(), 0, b"x") {
            Ok(()) => {}
            Err(e) => {
                assert_eq!(e, TransportError::SelfDied);
                return done;
            }
        }
    }
    limit
}

#[test]
fn op_triggers_fire_at_their_own_ranks_absolute_count() {
    // Every rank has its own trigger and hammers its own counter while the
    // other seven hammer theirs: each dies at exactly its own count.
    let at = |r: usize| 1_000 + 137 * r as u64;
    let plan = (0..RANKS).fold(FaultPlan::none(), |p, r| p.kill_at_op(RankId(r), at(r)));
    let fabric = Fabric::new(Topology::flat(), FaultInjector::new(plan));
    let eps = endpoints(&fabric, RANKS);
    let done = on_every_rank(&eps, |ep| sends_until_death(ep, 10_000));
    for (r, done) in done.into_iter().enumerate() {
        assert_eq!(done, at(r) - 1, "rank {r}");
    }
    assert_eq!(fabric.injector().fired().len(), RANKS);
    assert_eq!(fabric.stats().deaths, RANKS as u64);
}

#[test]
fn a_trigger_armed_mid_run_counts_from_world_start() {
    let fabric = Fabric::without_faults(Topology::flat());
    let eps = endpoints(&fabric, 4);
    let inj = fabric.injector();
    let op = |rank, count| FaultTrigger::AtOpCount {
        rank: RankId(rank),
        count,
    };
    let point = |rank, occurrence| FaultTrigger::AtPoint {
        rank: RankId(rank),
        point: "step".into(),
        occurrence,
    };

    // Still ahead: ten operations done, armed for the fifteenth.
    assert_eq!(sends_until_death(&eps[0], 10), 10);
    assert!(!inj.is_armed_for(RankId(0)));
    inj.arm(op(0, 15));
    assert!(inj.is_armed_for(RankId(0)));
    assert_eq!(sends_until_death(&eps[0], 100), 4);
    assert!(!fabric.is_alive(RankId(0)));

    // Already behind: never fires, however long the rank goes on.
    assert_eq!(sends_until_death(&eps[1], 10), 10);
    inj.arm(op(1, 5));
    inj.arm(op(1, 10));
    assert_eq!(sends_until_death(&eps[1], 1_000), 1_000);
    assert!(fabric.is_alive(RankId(1)));

    // The same two cases at a named point; other points and other ranks'
    // hits of the same point do not count.
    for _ in 0..3 {
        eps[2].fault_point("step").unwrap();
        eps[3].fault_point("step").unwrap();
        eps[2].fault_point("other").unwrap();
    }
    inj.arm(point(2, 5));
    inj.arm(point(3, 2));
    assert_eq!(eps[2].fault_point("step"), Ok(()));
    assert_eq!(eps[2].fault_point("other"), Ok(()));
    assert_eq!(eps[2].fault_point("step"), Err(TransportError::SelfDied));
    for _ in 0..100 {
        assert_eq!(eps[3].fault_point("step"), Ok(()));
    }
    assert_eq!(inj.fired(), vec![op(0, 15), point(2, 5)]);
}

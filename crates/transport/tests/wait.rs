//! The blocked-rank wait seen through the public API: every way a blocked
//! `Endpoint::recv` can end arrives both while the receiver is still
//! yielding (event ≈ 5 µs in) and after it has parked (event 5 ms in); and
//! a numbered socket send, which waits for no ack, never retransmits while
//! its peer competes for the same cores.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use transport::{
    Backend, BackendKind, Endpoint, Fabric, FaultPlan, LinkPerturb, PerturbPlan, RankId,
    SocketBackend, Topology, TransportError,
};

const TAG: u64 = 7;

/// Rank 1 blocks in a receive from rank 0; `event` fires `after` it went in.
fn blocked_recv(
    after: Duration,
    recv: impl FnOnce(&Endpoint, &AtomicBool) -> Result<Vec<u8>, TransportError> + Send + 'static,
    event: impl FnOnce(&Fabric, &[Endpoint], &AtomicBool),
) -> Result<Vec<u8>, TransportError> {
    let fabric = Fabric::without_faults(Topology::flat());
    let eps: Vec<Endpoint> = fabric
        .register_ranks(2)
        .into_iter()
        .map(|r| Endpoint::new(Arc::clone(&fabric), r))
        .collect();
    let entered = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let waiter = {
        let (ep, entered, stop) = (eps[1].clone(), Arc::clone(&entered), Arc::clone(&stop));
        std::thread::spawn(move || {
            entered.store(true, Ordering::SeqCst);
            recv(&ep, &stop)
        })
    };
    while !entered.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    let t0 = Instant::now();
    if after < Duration::from_millis(1) {
        while t0.elapsed() < after {}
    } else {
        std::thread::sleep(after);
    }
    event(&fabric, &eps, &stop);
    waiter.join().unwrap()
}

#[test]
fn wait_blocked_recv_ends_every_way_early_and_late() {
    for after in [Duration::from_micros(5), Duration::from_millis(5)] {
        for _ in 0..20 {
            let plain = |ep: &Endpoint, _: &AtomicBool| ep.recv(RankId(0), TAG);
            let got = blocked_recv(after, plain, |_, eps, _| {
                eps[0].send(RankId(1), TAG, b"hi").unwrap()
            });
            assert_eq!(got, Ok(b"hi".to_vec()), "message after {after:?}");

            let got = blocked_recv(after, plain, |f, _, _| f.kill_rank(RankId(0)));
            assert_eq!(got, Err(TransportError::PeerDead(RankId(0))), "{after:?}");

            let got = blocked_recv(after, plain, |f, _, _| f.kill_rank(RankId(1)));
            assert_eq!(got, Err(TransportError::SelfDied), "{after:?}");

            let got = blocked_recv(
                after,
                |ep, stop| {
                    let stop = || stop.load(Ordering::SeqCst);
                    ep.backend().recv(RankId(0), TAG, &stop, None)
                },
                |_, eps, stop| {
                    stop.store(true, Ordering::SeqCst);
                    eps[1].wake_all();
                },
            );
            assert_eq!(got, Err(TransportError::Stopped), "{after:?}");

            // The deadline is the event: nothing else happens.
            let t0 = Instant::now();
            let got = blocked_recv(
                Duration::ZERO,
                move |ep, _| ep.recv_timeout(RankId(0), TAG, after),
                |_, _, _| {},
            );
            assert_eq!(got, Err(TransportError::Timeout), "{after:?}");
            assert!(t0.elapsed() >= after);
        }
    }
}

#[test]
fn wait_numbered_socket_sends_never_retransmit() {
    // 10,000 small sends under the default `RetryPolicy` while both ranks
    // read their own links on the same cores. A plan that can lose frames,
    // gated on a point nobody crosses, numbers every send and loses none:
    // a written copy is its own ack, so however stalled the machine, no
    // send waits for a reply and none is sent twice.
    const SENDS: u64 = 10_000;
    let mesh = SocketBackend::local_mesh(BackendKind::Unix, Topology::flat(), 2, FaultPlan::none())
        .expect("unix pair");
    let lossy = PerturbPlan::seeded(1)
        .all_links(LinkPerturb::clean().drop(1.0))
        .active_from_point("never.crossed");
    for b in &mesh {
        b.set_perturbation(lossy.clone());
    }
    let receiver = {
        let b = Arc::clone(&mesh[1]);
        std::thread::spawn(move || {
            for i in 0..SENDS {
                let got = b.recv(RankId(0), TAG, &|| false, None).expect("recv");
                assert_eq!(got, [i as u8; 64]);
            }
        })
    };
    for i in 0..SENDS {
        mesh[0].send(RankId(1), TAG, &[i as u8; 64]).expect("send");
    }
    receiver.join().unwrap();
    let stats = mesh[0].stats();
    for b in &mesh {
        b.shutdown();
    }
    assert_eq!(stats.messages, SENDS);
    assert_eq!(stats.suspicions, 0);
    assert_eq!(stats.retransmits, 0);
}

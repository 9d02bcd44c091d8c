//! The socket link's thread model, seen from outside: one service thread
//! per rank and no other thread; two ranks writing large frames to each
//! other before either receives, which completes with no helper thread; a
//! rank out of the transport, whose service thread reads a large frame for
//! it; and a steady exchange, read by the rank threads that wait for it.
//!
//! The tests count this process's threads and read process-wide telemetry
//! counters, so they take turns.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use transport::{
    Backend, BackendKind, FaultPlan, LinkPerturb, PerturbPlan, RankId, SocketBackend, Topology,
};

static SERIAL: Mutex<()> = Mutex::new(());

fn take_turn() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn unix_mesh(p: usize) -> Vec<Arc<SocketBackend>> {
    SocketBackend::local_mesh(BackendKind::Unix, Topology::flat(), p, FaultPlan::none())
        .expect("unix mesh")
}

fn teardown(mesh: &[Arc<SocketBackend>]) {
    for b in mesh {
        b.shutdown();
    }
}

/// Threads of this process whose name starts with `sock-`.
#[cfg(target_os = "linux")]
fn service_threads() -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task");
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("sock-"))
        .count()
}

/// A p-rank mesh that has carried a message on every link runs p service
/// threads, one per rank (a thread per link would be 2p(p−1) more), and
/// shutdown leaves none.
#[cfg(target_os = "linux")]
#[test]
fn a_unix_mesh_runs_one_service_thread_per_rank() {
    let _turn = take_turn();
    for p in [2, 3, 8] {
        let mesh = unix_mesh(p);
        std::thread::scope(|s| {
            for (me, b) in mesh.iter().enumerate() {
                s.spawn(move || {
                    for to in (0..p).filter(|&to| to != me) {
                        b.send(RankId(to), 1, &[me as u8; 64]).expect("send");
                    }
                    for from in (0..p).filter(|&from| from != me) {
                        let got = b.recv(RankId(from), 1, &|| false, None);
                        assert_eq!(got.expect("recv"), [from as u8; 64]);
                    }
                });
            }
        });
        // A thread takes its name once it first runs, which on a busy
        // machine may be after the mesh is up.
        let deadline = Instant::now() + Duration::from_secs(10);
        while service_threads() < p && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(service_threads(), p, "p = {p}");
        teardown(&mesh);
        assert_eq!(
            service_threads(),
            0,
            "p = {p}: a service thread outlived shutdown"
        );
    }
}

/// A plan that can lose any frame, so every send is numbered, gated on a
/// point no rank crosses: nothing is ever lost.
fn numbered() -> PerturbPlan {
    PerturbPlan::seeded(1)
        .all_links(LinkPerturb::clean().drop(1.0))
        .active_from_point("never.crossed")
}

/// Each rank sends an 8 MiB frame to the other before either posts a
/// receive: far more than both socket buffers hold, so each write finishes
/// only because its writer reads what the other writes meanwhile. Clean and
/// numbered.
#[test]
fn two_ranks_each_send_8_mib_before_either_receives() {
    const LEN: usize = 8 << 20;
    let _turn = take_turn();
    for plan in [None, Some(numbered())] {
        let mesh = unix_mesh(2);
        if let Some(plan) = &plan {
            mesh.iter().for_each(|b| b.set_perturbation(plan.clone()));
        }
        let frame = |r: usize| -> Vec<u8> { (0..LEN).map(|i| (i * 13 + r) as u8).collect() };
        std::thread::scope(|s| {
            for (me, b) in mesh.iter().enumerate() {
                let frame = &frame;
                s.spawn(move || {
                    let peer = RankId(1 - me);
                    b.send(peer, 2, &frame(me)).expect("send");
                    let got = b.recv(peer, 2, &|| false, None).expect("recv");
                    assert!(got == frame(peer.0), "payload damaged");
                });
            }
        });
        for b in &mesh {
            assert_eq!(b.stats().suspicions, 0);
        }
        teardown(&mesh);
    }
}

/// Rank 1 makes no transport call for twice its 200 ms suspicion timeout
/// while rank 0 writes it a 4 MiB frame. The send completes meanwhile:
/// rank 1's service thread reads the frame, and nobody is suspected.
#[test]
fn a_rank_out_of_the_transport_has_its_service_thread_read_for_it() {
    const LEN: usize = 4 << 20;
    let _turn = take_turn();
    let timeout = Duration::from_millis(200);
    let mesh = unix_mesh(2);
    mesh.iter()
        .for_each(|b| b.set_suspicion_timeout(Some(timeout)));
    let by_service = telemetry::counter("transport.sock.read_by_service");
    let before = by_service.get();
    let big = vec![9u8; LEN];
    let t0 = Instant::now();
    let sent = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let sent = mesh[0].send(RankId(1), 5, &big);
            (sent, t0.elapsed())
        });
        std::thread::sleep(2 * timeout);
        sender.join().expect("sender")
    });
    assert_eq!(
        sent.0,
        Ok(()),
        "a rank out of the transport was given up on"
    );
    assert!(
        sent.1 < 2 * timeout,
        "the send waited {:?} for its receiver",
        sent.1
    );
    assert!(
        by_service.get() > before,
        "no service thread read the frame"
    );
    let got = mesh[1].recv(RankId(0), 5, &|| false, None).expect("recv");
    assert!(got == big, "payload damaged");
    assert_eq!(mesh[0].stats().suspicions + mesh[1].stats().suspicions, 0);
    teardown(&mesh);
}

/// In a steady 256 KiB two-rank exchange the rank thread waiting for a
/// frame reads it: at least 95 % of envelopes, and the service threads
/// wake far less than once per message.
#[test]
fn a_steady_exchange_is_read_by_the_ranks_that_wait_for_it() {
    const LEN: usize = 256 << 10;
    const WARM_UP: u64 = 50;
    const ROUNDS: u64 = 400;
    let _turn = take_turn();
    let counters = ["read_by_rank", "read_by_service", "service_wakes"]
        .map(|name| telemetry::counter(&format!("transport.sock.{name}")));
    let mesh = unix_mesh(2);
    // Both ranks and this thread, which reads the counters in between.
    let warm = std::sync::Barrier::new(3);
    let at = std::thread::scope(|s| {
        for (me, b) in mesh.iter().enumerate() {
            let warm = &warm;
            s.spawn(move || {
                let peer = RankId(1 - me);
                for i in 0..WARM_UP + ROUNDS {
                    if i == WARM_UP {
                        warm.wait();
                        warm.wait();
                    }
                    b.send_with(peer, i, LEN, &mut |_, chunk| chunk.fill(i as u8))
                        .expect("send");
                    b.recv_with(peer, i, &|| false, None, &mut |got| {
                        assert_eq!(got[LEN - 1], i as u8)
                    })
                    .expect("recv");
                }
            });
        }
        warm.wait();
        let at = counters.each_ref().map(|c| c.get());
        warm.wait();
        at
    });
    let [by_rank, by_service, wakes] = [0, 1, 2].map(|i| counters[i].get() - at[i]);
    let messages = 2 * ROUNDS;
    println!("{by_rank} read by rank threads, {by_service} by service threads, {wakes} service wakes, {messages} messages");
    assert!(by_rank + by_service >= messages, "envelopes went unread");
    assert!(
        by_rank * 100 >= 95 * (by_rank + by_service),
        "{by_service} of {} envelopes read by a service thread",
        by_rank + by_service
    );
    assert!(
        wakes * 4 < messages,
        "{wakes} service wakes for {messages} messages"
    );
    teardown(&mesh);
}

//! Heap allocations per steady-state round: each of `p` ranks sends one
//! message with `send_with` to the rank on its right and receives the one
//! from its left with `recv_with` — an exchange for two ranks, a ring step
//! for three — over an in-process mesh and over a Unix-socket one. Counted
//! by a `#[global_allocator]` that forwards to the system allocator,
//! across every thread of the process (socket service threads included),
//! over `ROUNDS` rounds after a warm-up.
//!
//! The bounds are what the code does today. A frame of at least 4 KiB of
//! payload is encoded into the last frame its rank received, and over a
//! socket it is read into a frame its rank wrote before (to any peer), so
//! from 16 KiB up a round allocates nothing, whether a rank reads from the
//! peer it writes to or from another; a 1 KiB message is copied, one frame
//! and one payload per message. Run with `--nocapture` to see the counts.
//!
//! This file is its own test binary, with one test: the counter is global,
//! and anything else running at the same time would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use transport::{BackendKind, FaultPlan, Mesh, RankId, Topology};

struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Allocations of at least `FRAME_MIN` bytes: a message's size or more.
static FRAMES: AtomicU64 = AtomicU64::new(0);
static FRAME_MIN: AtomicU64 = AtomicU64::new(u64::MAX);

impl Counting {
    fn count(size: usize) {
        if ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(size as u64, Ordering::Relaxed);
            if size as u64 >= FRAME_MIN.load(Ordering::Relaxed) {
                FRAMES.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

// SAFETY: every call forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const WARM_UP: u64 = 500;
const ROUNDS: u64 = 400;

/// What `ROUNDS` rounds allocated.
#[derive(Debug)]
struct Count {
    allocs: u64,
    bytes: u64,
    /// Of those, allocations at least the message's size.
    frames: u64,
}

/// Count the allocations of `ROUNDS` steady-state rounds of `len`-byte
/// messages around the `p` ranks of a fresh mesh of `kind`.
fn measure(kind: BackendKind, p: usize, len: usize) -> Count {
    let mesh = Mesh::new(kind, Topology::flat(), p, FaultPlan::none()).expect("mesh");
    let eps = mesh.endpoints();
    let (warm, done) = (Barrier::new(p), Barrier::new(p));
    FRAME_MIN.store(len as u64, Ordering::SeqCst);
    std::thread::scope(|s| {
        for (me, ep) in eps.iter().enumerate() {
            let (warm, done) = (&warm, &done);
            s.spawn(move || {
                let (right, left) = (RankId((me + 1) % p), RankId((me + p - 1) % p));
                let mut sum = 0u64;
                for i in 0..WARM_UP + ROUNDS {
                    if i == WARM_UP {
                        warm.wait();
                        if me == 0 {
                            for counter in [&ALLOCS, &BYTES, &FRAMES] {
                                counter.store(0, Ordering::SeqCst);
                            }
                            ON.store(true, Ordering::SeqCst);
                        }
                        warm.wait();
                    }
                    let byte = (i as usize + me) as u8;
                    ep.send_with(right, i, len, &mut |_, chunk| chunk.fill(byte))
                        .expect("send");
                    ep.recv_with(left, i, &|| false, None, &mut |got| {
                        sum += u64::from(got[len - 1]);
                    })
                    .expect("recv");
                }
                done.wait();
                ON.store(false, Ordering::SeqCst);
                assert!(sum > 0);
            });
        }
    });
    Count {
        allocs: ALLOCS.load(Ordering::SeqCst),
        bytes: BYTES.load(Ordering::SeqCst),
        frames: FRAMES.load(Ordering::SeqCst),
    }
}

#[test]
fn a_steady_exchange_allocates_within_budget() {
    // (link, ranks, payload, most allocations and bytes per round)
    let budget = [
        (BackendKind::InProc, 2, 1 << 10, 4, 4_200),
        (BackendKind::InProc, 2, 16 << 10, 0, 0),
        (BackendKind::InProc, 2, 256 << 10, 0, 0),
        (BackendKind::Unix, 2, 1 << 10, 4, 4_200),
        (BackendKind::Unix, 2, 16 << 10, 0, 0),
        (BackendKind::Unix, 2, 256 << 10, 0, 0),
        (BackendKind::Unix, 3, 256 << 10, 0, 0),
    ];
    // A stray allocation now and then is a buffer pool still filling after
    // the scheduler shifted a send against a receive, not a per-round cost:
    // up to one round in twenty may allocate one frame.
    let stray = ROUNDS / 20;
    let mut over = Vec::new();
    for (kind, p, len, allocs, bytes) in budget {
        let got = measure(kind, p, len);
        println!(
            "{kind:?} p={p} {len:>6} B: {:.2} allocations, {} bytes, {:.3} message-sized per round",
            got.allocs as f64 / ROUNDS as f64,
            got.bytes / ROUNDS,
            got.frames as f64 / ROUNDS as f64,
        );
        let frame = len as u64 + 64;
        if got.allocs > allocs * ROUNDS + stray || got.bytes > bytes * ROUNDS + stray * frame {
            over.push(format!(
                "{kind:?} p={p} {len} B: {got:?} over {ROUNDS} rounds"
            ));
        }
        // A 256 KiB socket message is read into a frame its rank wrote.
        if kind == BackendKind::Unix && len >= 256 << 10 && got.frames > ROUNDS / 100 {
            over.push(format!(
                "{kind:?} p={p} {len} B allocated message-sized buffers: {got:?}"
            ));
        }
    }
    assert!(over.is_empty(), "over budget: {over:#?}");
}

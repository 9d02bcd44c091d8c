//! In-crate test harness: runs a closure on `n` rank threads over the
//! in-memory transport, with an optional fault plan.

use crate::comm::EndpointGroup;
use std::sync::Arc;
use transport::{Endpoint, Fabric, FaultInjector, FaultPlan, Topology};

/// Run `f` on `n` rank threads sharing one fabric, each with the group of
/// all registered ranks; returns per-rank results in rank order.
pub fn run_group<R, F>(n: usize, plan: FaultPlan, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(EndpointGroup<'_>) -> R + Send + Sync,
{
    let fabric = Fabric::new(Topology::flat(), FaultInjector::new(plan));
    let group = fabric.register_ranks(n);
    let f = &f;
    let group_ref = &group;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let fabric = Arc::clone(&fabric);
                s.spawn(move || {
                    let ep = Endpoint::new(Arc::clone(&fabric), group_ref[i]);
                    let out = f(EndpointGroup::new(&ep, group_ref, i));
                    // Model process exit: a rank that returned (e.g. after
                    // observing a failure) stops participating; peers
                    // blocked on it must see PeerDead rather than hang.
                    fabric.kill_rank(group_ref[i]);
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Deterministic pseudo-random input vector for rank `r`.
pub fn input_for(rank: usize, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((rank * 31 + i * 7 + 13) % 101) as f32 * 0.25 - 12.0)
        .collect()
}

/// The element-wise sum of `input_for(r, len)` over ranks `rs`.
pub fn expected_sum(rs: impl Iterator<Item = usize> + Clone, len: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; len];
    for r in rs {
        for (o, v) in out.iter_mut().zip(input_for(r, len)) {
            *o += v;
        }
    }
    out
}

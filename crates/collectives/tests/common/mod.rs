//! The harness of the collectives integration tests: `n` rank threads over
//! one in-process fabric, each handed an [`EndpointGroup`] of every rank.

use collectives::EndpointGroup;
use std::sync::Arc;
use transport::{Endpoint, Fabric, FaultInjector, FaultPlan, Topology};

/// Run `f` on `n` rank threads under `plan`; per-rank results in rank
/// order. A rank whose `f` returned is killed, as a process that exits
/// is: a peer still blocked on it sees it dead instead of hanging.
pub fn run_group<R: Send>(
    n: usize,
    plan: FaultPlan,
    f: impl Fn(EndpointGroup<'_>) -> R + Send + Sync,
) -> Vec<R> {
    let fabric = Fabric::new(Topology::flat(), FaultInjector::new(plan));
    let group = fabric.register_ranks(n);
    let (f, group) = (&f, &group);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let fabric = Arc::clone(&fabric);
                s.spawn(move || {
                    let ep = Endpoint::new(Arc::clone(&fabric), group[i]);
                    let out = f(EndpointGroup::new(&ep, group, i));
                    fabric.kill_rank(group[i]);
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

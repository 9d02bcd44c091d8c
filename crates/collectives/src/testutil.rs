//! In-crate test harness: runs a closure on `n` rank threads of an
//! in-process [`transport::Mesh`], with an optional fault plan.

use crate::comm::EndpointGroup;
use transport::{BackendKind, FaultPlan, Mesh, RankId, Topology};

/// Run `f` on `n` rank threads of one in-process mesh, each with the group
/// of all its ranks; returns per-rank results in rank order. A rank whose
/// `f` returned has exited: a peer still blocked on it sees it dead.
pub fn run_group<R, F>(n: usize, plan: FaultPlan, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(EndpointGroup<'_>) -> R + Send + Sync,
{
    let mesh = Mesh::new(BackendKind::InProc, Topology::flat(), n, plan).expect("in-process mesh");
    let group: Vec<RankId> = (0..n).map(RankId).collect();
    mesh.run(|ep| f(EndpointGroup::new(&ep, &group, ep.rank().0)))
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

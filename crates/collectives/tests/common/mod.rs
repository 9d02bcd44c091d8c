//! The harness of the collectives integration tests: `n` rank threads of
//! one in-process mesh, each handed an [`EndpointGroup`] of every rank.

use collectives::EndpointGroup;
use transport::{BackendKind, FaultPlan, Mesh, RankId, Topology};

/// Run `f` on `n` rank threads under `plan`; per-rank results in rank
/// order. A rank whose `f` returned has exited, as a process that exits
/// has: a peer still blocked on it sees it dead instead of hanging.
pub fn run_group<R: Send>(
    n: usize,
    plan: FaultPlan,
    f: impl Fn(EndpointGroup<'_>) -> R + Send + Sync,
) -> Vec<R> {
    let mesh = Mesh::new(BackendKind::InProc, Topology::flat(), n, plan).expect("in-process mesh");
    let group: Vec<RankId> = (0..n).map(RankId).collect();
    mesh.run(|ep| f(EndpointGroup::new(&ep, &group, ep.rank().0)))
}

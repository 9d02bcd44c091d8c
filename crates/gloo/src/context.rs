//! Gloo-style collective context: fixed membership, full-mesh connection
//! setup, poison-on-failure.

use crate::error::GlooError;
use collectives::{
    allgather, allreduce, binomial_bcast, dissemination_barrier, hier_allreduce, AllgatherAlgo,
    AllreduceAlgo, CollError, Elem, NodeMap, PeerComm, ReduceOp,
};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use transport::wire::Fill;
use transport::{Endpoint, RankId, TransportError};

/// Traffic/operation counters for one context.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContextStats {
    /// Pairwise connections set up at context creation.
    pub connections: u64,
    /// Collectives completed successfully.
    pub collectives: u64,
}

/// A fixed-membership collective context.
///
/// Creation performs a full-mesh pairwise handshake, mirroring Gloo's
/// context initialization (every pair of ranks establishes a connection) —
/// this is precisely the "reinitializing Gloo" cost segment of paper Fig. 4.
/// Any failure poisons the context permanently; there is no revoke/shrink.
pub struct Context {
    ep: Endpoint,
    group: Vec<RankId>,
    my_idx: usize,
    ctx_id: u64,
    seq: Cell<u64>,
    poisoned: Arc<AtomicBool>,
    connections: u64,
    collectives: Cell<u64>,
    /// Per-receive timeout: Gloo's failure "detector". A worker blocked on
    /// a peer that silently left (poisoned context, went to re-rendezvous)
    /// only discovers the problem when this expires — a real and
    /// paper-relevant component of the baseline's exception-catch latency.
    op_timeout: Option<Duration>,
}

/// Tag layout: `[ctx_id: 23][seq: 20][offset: 20]`, with bit 63 marking
/// connection handshakes. Context ids come from the rendezvous epoch, which
/// the elastic layer bumps on every reconfiguration, and are never reused;
/// the sequence field keeps the low bits of the context's operation count,
/// since a tag needs to be unique only among the operations in flight
/// together and a context's collectives complete in order.
fn tag_base(ctx_id: u64, seq: u64) -> u64 {
    assert!(ctx_id < 1 << 23, "context id space exhausted");
    (ctx_id << 40) | ((seq % SEQ_SPACE) << 20)
}

/// Operation counts per wrap of the tag's sequence field.
const SEQ_SPACE: u64 = 1 << 20;

const CONNECT_BIT: u64 = 1 << 63;

impl Context {
    /// Build the context: store membership and run the full-mesh
    /// connection handshake. `ctx_id` must be unique per (re)configuration
    /// (use the rendezvous epoch).
    pub fn connect(
        ep: Endpoint,
        ctx_id: u64,
        group: Vec<RankId>,
        my_idx: usize,
    ) -> Result<Self, GlooError> {
        assert_eq!(group[my_idx], ep.rank(), "my_idx must locate self in group");
        let ctx = Self {
            ep,
            group,
            my_idx,
            ctx_id,
            seq: Cell::new(0),
            poisoned: Arc::new(AtomicBool::new(false)),
            connections: 0,
            collectives: Cell::new(0),
            op_timeout: None,
        };
        let mut ctx = ctx;
        telemetry::counter("gloo.context.connects").incr();
        let _span = telemetry::span("gloo.context.connect_ns");
        // Full mesh: exchange a SYN with every peer and wait for theirs.
        let tag = CONNECT_BIT | tag_base(ctx.ctx_id, 0);
        for peer in 0..ctx.group.len() {
            if peer == ctx.my_idx {
                continue;
            }
            ctx.ep
                .send(ctx.group[peer], tag, &[])
                .map_err(|e| ctx.map_transport(e))?;
        }
        for peer in 0..ctx.group.len() {
            if peer == ctx.my_idx {
                continue;
            }
            ctx.ep
                .recv(ctx.group[peer], tag)
                .map_err(|e| ctx.map_transport(e))?;
            ctx.connections += 1;
        }
        Ok(ctx)
    }

    /// Dense rank within the context.
    pub fn rank(&self) -> usize {
        self.my_idx
    }

    /// Context size.
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// Member list.
    pub fn group(&self) -> &[RankId] {
        &self.group
    }

    /// Has a failure poisoned this context?
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Set the per-receive timeout (Gloo's `GLOO_TIMEOUT` analogue). A
    /// receive exceeding it is treated as a suspected peer failure and
    /// poisons the context.
    pub fn with_op_timeout(mut self, timeout: Duration) -> Self {
        self.op_timeout = Some(timeout);
        self
    }

    /// Operation counters.
    pub fn stats(&self) -> ContextStats {
        ContextStats {
            connections: self.connections,
            collectives: self.collectives.get(),
        }
    }

    fn map_transport(&self, e: TransportError) -> GlooError {
        telemetry::counter("gloo.context.poisonings").incr();
        self.poisoned.store(true, Ordering::SeqCst);
        match e {
            // A rank the fabric never registered is as unreachable as a dead one.
            TransportError::PeerDead(g) | TransportError::UnknownRank(g) => {
                GlooError::PeerFailure { global: g }
            }
            TransportError::SelfDied => GlooError::SelfDied,
            // The handshake's receives pass neither a deadline nor a stop
            // condition; were either to fire, the context is unusable.
            TransportError::Timeout | TransportError::Stopped => GlooError::Poisoned,
        }
    }

    fn map_coll(&self, e: CollError) -> GlooError {
        telemetry::counter("gloo.context.poisonings").incr();
        self.poisoned.store(true, Ordering::SeqCst);
        match e {
            CollError::PeerFailed { peer } | CollError::Malformed { peer } => {
                GlooError::PeerFailure {
                    global: self.group.get(peer).copied().unwrap_or(RankId(usize::MAX)),
                }
            }
            CollError::SelfDied => GlooError::SelfDied,
            CollError::Revoked | CollError::Aborted => GlooError::Poisoned,
        }
    }

    fn begin_op(&self) -> Result<u64, GlooError> {
        if self.is_poisoned() {
            return Err(GlooError::Poisoned);
        }
        let s = self.seq.get();
        self.seq.set(s + 1);
        Ok(tag_base(self.ctx_id, s))
    }

    /// In-place allreduce. On failure the context is poisoned for good.
    pub fn allreduce<E: Elem>(
        &self,
        buf: &mut [E],
        op: ReduceOp,
        algo: AllreduceAlgo,
    ) -> Result<(), GlooError> {
        let base = self.begin_op()?;
        allreduce(&GlooAdapter { ctx: self }, buf, op, algo, base).map_err(|e| self.map_coll(e))?;
        self.collectives.set(self.collectives.get() + 1);
        Ok(())
    }

    /// In-place hierarchical (two-level) allreduce: intra-node reduce onto
    /// each node leader, flat `algo` exchange among leaders, intra-node
    /// broadcast back. `map` must describe this context's dense ranks
    /// (size match is asserted); the backward engine rebuilds it at every
    /// rendezvous epoch. Runs on this flat context through subgroup index
    /// views, so any failure poisons the whole context exactly like a flat
    /// collective — the baseline's all-or-nothing semantics are preserved.
    pub fn hier_allreduce<E: Elem>(
        &self,
        map: &NodeMap,
        buf: &mut [E],
        op: ReduceOp,
        algo: AllreduceAlgo,
    ) -> Result<(), GlooError> {
        let base = self.begin_op()?;
        hier_allreduce(&GlooAdapter { ctx: self }, map, buf, op, algo, base)
            .map_err(|e| self.map_coll(e))?;
        self.collectives.set(self.collectives.get() + 1);
        Ok(())
    }

    /// Broadcast from dense rank `root`.
    pub fn bcast(&self, root: usize, buf: &mut Vec<u8>) -> Result<(), GlooError> {
        let base = self.begin_op()?;
        binomial_bcast(&GlooAdapter { ctx: self }, root, buf, base)
            .map_err(|e| self.map_coll(e))?;
        self.collectives.set(self.collectives.get() + 1);
        Ok(())
    }

    /// Allgather byte blocks.
    pub fn allgather(&self, mine: &[u8], algo: AllgatherAlgo) -> Result<Vec<Vec<u8>>, GlooError> {
        let base = self.begin_op()?;
        let out = allgather(&GlooAdapter { ctx: self }, mine, algo, base)
            .map_err(|e| self.map_coll(e))?;
        self.collectives.set(self.collectives.get() + 1);
        Ok(out)
    }

    /// Barrier.
    pub fn barrier(&self) -> Result<(), GlooError> {
        let base = self.begin_op()?;
        dissemination_barrier(&GlooAdapter { ctx: self }, base).map_err(|e| self.map_coll(e))?;
        self.collectives.set(self.collectives.get() + 1);
        Ok(())
    }
}

struct GlooAdapter<'a> {
    ctx: &'a Context,
}

impl PeerComm for GlooAdapter<'_> {
    fn size(&self) -> usize {
        self.ctx.group.len()
    }
    fn rank(&self) -> usize {
        self.ctx.my_idx
    }
    fn send(&self, peer: usize, tag: u64, data: &[u8]) -> Result<(), CollError> {
        self.ctx
            .ep
            .send(self.ctx.group[peer], tag, data)
            .map_err(|e| send_failure(peer, e))
    }
    fn recv(&self, peer: usize, tag: u64) -> Result<Vec<u8>, CollError> {
        let r = match self.ctx.op_timeout {
            Some(t) => self.ctx.ep.recv_timeout(self.ctx.group[peer], tag, t),
            None => self.ctx.ep.recv(self.ctx.group[peer], tag),
        };
        r.map_err(|e| recv_failure(peer, e))
    }
    fn send_with(&self, peer: usize, tag: u64, len: usize, f: Fill<'_>) -> Result<(), CollError> {
        self.ctx
            .ep
            .send_with(self.ctx.group[peer], tag, len, f)
            .map_err(|e| send_failure(peer, e))
    }
    fn recv_with(&self, peer: usize, tag: u64, f: &mut dyn FnMut(&[u8])) -> Result<(), CollError> {
        let deadline = self.ctx.op_timeout.map(|t| Instant::now() + t);
        self.ctx
            .ep
            .recv_with(self.ctx.group[peer], tag, &|| false, deadline, f)
            .map_err(|e| recv_failure(peer, e))
    }
    fn fault_point(&self, name: &str) -> Result<(), CollError> {
        self.ctx.ep.fault_point(name).map_err(map_transport_to_coll)
    }
}

/// A send to `peer` failed: its death is that peer's failure.
fn send_failure(peer: usize, e: TransportError) -> CollError {
    match e {
        TransportError::PeerDead(_) => CollError::PeerFailed { peer },
        other => map_transport_to_coll(other),
    }
}

/// A receive from `peer` failed. A timed-out receive is a *suspected*
/// failure of the awaited peer — exactly how Gloo turns silence into an
/// exception.
fn recv_failure(peer: usize, e: TransportError) -> CollError {
    match e {
        TransportError::Timeout => CollError::PeerFailed { peer },
        other => map_transport_to_coll(other),
    }
}

/// The transport error of one message — a whole payload or one segment of
/// a paired step — as the collective's error.
fn map_transport_to_coll(e: TransportError) -> CollError {
    match e {
        TransportError::PeerDead(_) | TransportError::UnknownRank(_) => {
            CollError::PeerFailed { peer: usize::MAX }
        }
        TransportError::SelfDied => CollError::SelfDied,
        // `recv_failure` takes a receive's timeout, and no gloo receive
        // passes a stop condition; were either to reach here, the context
        // is unusable, which is what `Aborted` poisons it as.
        TransportError::Timeout | TransportError::Stopped => CollError::Aborted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use transport::{Fabric, FaultInjector, FaultPlan, Topology};

    fn run_ctx<R, F>(n: usize, plan: FaultPlan, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Result<Context, GlooError>) -> R + Send + Sync,
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
                        let out = f(Context::connect(ep, 1, group_ref.clone(), i));
                        // Model process exit so peers blocked on this rank
                        // observe PeerDead instead of hanging.
                        fabric.kill_rank(group_ref[i]);
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn every_transport_error_is_a_typed_collective_error() {
        use TransportError::*;
        let failed = |peer| CollError::PeerFailed { peer };
        let cases = [
            (PeerDead(RankId(1)), failed(2), failed(usize::MAX)),
            (
                UnknownRank(RankId(9)),
                failed(usize::MAX),
                failed(usize::MAX),
            ),
            (SelfDied, CollError::SelfDied, CollError::SelfDied),
            (Timeout, CollError::Aborted, failed(2)),
            (Stopped, CollError::Aborted, CollError::Aborted),
        ];
        for (e, sent, received) in cases {
            assert_eq!(send_failure(2, e.clone()), sent, "send: {e}");
            assert_eq!(recv_failure(2, e), received, "recv");
        }
    }

    #[test]
    fn connect_builds_full_mesh() {
        let results = run_ctx(4, FaultPlan::none(), |ctx| ctx.unwrap().stats().connections);
        for c in results {
            assert_eq!(c, 3);
        }
    }

    #[test]
    fn hier_allreduce_matches_flat_for_integers() {
        // 6 ranks as 3 nodes × 2: exact values, so hier == flat bitwise.
        let results = run_ctx(6, FaultPlan::none(), |ctx| {
            let ctx = ctx.unwrap();
            let colors: Vec<u64> = (0..6).map(|r| (r / 2) as u64).collect();
            let map = NodeMap::from_colors(&colors);
            let mut hier: Vec<f32> = (0..9).map(|i| (ctx.rank() * 7 + i) as f32).collect();
            ctx.hier_allreduce(&map, &mut hier, ReduceOp::Sum, AllreduceAlgo::Ring)
                .unwrap();
            let mut flat: Vec<f32> = (0..9).map(|i| (ctx.rank() * 7 + i) as f32).collect();
            ctx.allreduce(&mut flat, ReduceOp::Sum, AllreduceAlgo::Ring)
                .unwrap();
            (hier, flat)
        });
        for (hier, flat) in results {
            assert_eq!(hier, flat);
        }
    }

    #[test]
    fn sequence_numbers_wrap_instead_of_running_out() {
        // Eight collectives short of the ceiling, then sixteen.
        let results = run_ctx(3, FaultPlan::none(), |ctx| {
            let ctx = ctx.unwrap();
            ctx.seq.set(SEQ_SPACE - 8);
            for i in 0..16 {
                let mut buf = vec![(ctx.rank() + i) as f32; 5];
                ctx.allreduce(&mut buf, ReduceOp::Sum, AllreduceAlgo::Ring)
                    .unwrap();
                assert_eq!(buf, vec![(3 + 3 * i) as f32; 5], "allreduce {i}");
            }
            ctx.seq.get()
        });
        assert_eq!(results, vec![SEQ_SPACE + 8; 3]);
    }

    #[test]
    fn allreduce_works_when_healthy() {
        let results = run_ctx(5, FaultPlan::none(), |ctx| {
            let ctx = ctx.unwrap();
            let mut buf = vec![ctx.rank() as f32; 8];
            ctx.allreduce(&mut buf, ReduceOp::Sum, AllreduceAlgo::Ring)
                .unwrap();
            buf[0]
        });
        for v in results {
            assert_eq!(v, 10.0);
        }
    }

    #[test]
    fn failure_poisons_context_permanently() {
        let plan = FaultPlan::none().kill_at_point(RankId(2), "allreduce.step", 2);
        let results = run_ctx(4, plan, |ctx| {
            let ctx = ctx.unwrap();
            let mut buf = vec![1.0f32; 32];
            let first = ctx.allreduce(&mut buf, ReduceOp::Sum, AllreduceAlgo::Ring);
            if first.is_ok() {
                // Raced ahead; the next op must observe the dead peer.
                let r = ctx.barrier();
                (first.is_ok(), r.is_err(), ctx.is_poisoned())
            } else {
                // Once poisoned, everything fails fast with Poisoned.
                let again = ctx.barrier();
                (false, again == Err(GlooError::Poisoned), ctx.is_poisoned())
            }
        });
        let mut poisoned_count = 0;
        for (i, (_, followup_failed, poisoned)) in results.iter().enumerate() {
            if i == 2 {
                continue; // the victim
            }
            assert!(*followup_failed, "rank {i}");
            if *poisoned {
                poisoned_count += 1;
            }
        }
        assert!(poisoned_count >= 2);
    }

    #[test]
    fn connect_fails_against_dead_peer() {
        let fabric = Fabric::without_faults(Topology::flat());
        let group = fabric.register_ranks(3);
        fabric.kill_rank(RankId(1));
        let group2 = group.clone();
        let fabric2 = Arc::clone(&fabric);
        let t = std::thread::spawn(move || {
            let ep = Endpoint::new(fabric2, group2[0]);
            Context::connect(ep, 7, group2.clone(), 0).err()
        });
        assert_eq!(
            t.join().unwrap(),
            Some(GlooError::PeerFailure { global: RankId(1) })
        );
    }

    #[test]
    fn bcast_and_allgather() {
        let results = run_ctx(4, FaultPlan::none(), |ctx| {
            let ctx = ctx.unwrap();
            let mut b = if ctx.rank() == 1 { vec![42u8] } else { vec![] };
            ctx.bcast(1, &mut b).unwrap();
            let blocks = ctx
                .allgather(&[ctx.rank() as u8], AllgatherAlgo::Ring)
                .unwrap();
            (b, blocks)
        });
        for (b, blocks) in results {
            assert_eq!(b, vec![42]);
            assert_eq!(blocks, vec![vec![0], vec![1], vec![2], vec![3]]);
        }
    }
}

//! Scripted fault injection.
//!
//! Experiments in the paper kill a worker (or a whole node) at a chosen
//! moment — for example in the middle of the gradient allreduce of some
//! mini-batch. [`FaultPlan`] expresses such schedules deterministically:
//! a rank dies when its *operation counter* reaches a value, or at the
//! n-th occurrence of a *named fault point* (e.g. `"allreduce.step"`).
//! Deterministic schedules make every failure test reproducible.

use crate::ids::RankId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// One scripted failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultTrigger {
    /// Kill `rank` when its transport-operation counter (sends + receives)
    /// reaches `count` (1-based: `count == 1` dies on the first operation).
    AtOpCount {
        /// Victim rank.
        rank: RankId,
        /// Operation index at which the rank dies.
        count: u64,
    },
    /// Kill `rank` at the `occurrence`-th (1-based) hit of the named fault
    /// point. Upper layers place fault points at semantically meaningful
    /// spots (collective entry, per-step boundaries, ...).
    AtPoint {
        /// Victim rank.
        rank: RankId,
        /// Fault-point name, e.g. `"allreduce.step"`.
        point: String,
        /// Which occurrence of the point triggers death (1-based).
        occurrence: u64,
    },
}

/// A deterministic failure schedule.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    triggers: Vec<FaultTrigger>,
}

impl FaultPlan {
    /// An empty plan: nobody dies.
    pub fn none() -> Self {
        Self::default()
    }

    /// Add a kill-at-op-count trigger.
    pub fn kill_at_op(mut self, rank: RankId, count: u64) -> Self {
        self.triggers.push(FaultTrigger::AtOpCount { rank, count });
        self
    }

    /// Add a kill-at-named-point trigger.
    pub fn kill_at_point(
        mut self,
        rank: RankId,
        point: impl Into<String>,
        occurrence: u64,
    ) -> Self {
        self.triggers.push(FaultTrigger::AtPoint {
            rank,
            point: point.into(),
            occurrence,
        });
        self
    }

    /// All triggers in the plan.
    pub fn triggers(&self) -> &[FaultTrigger] {
        &self.triggers
    }

    /// Absorb every trigger of `other`. Lets callers compose schedules —
    /// e.g. a scenario's scripted victim plus extra cascade kills injected
    /// during recovery.
    pub fn merge(mut self, other: FaultPlan) -> Self {
        self.triggers.extend(other.triggers);
        self
    }

    /// Does the plan script anything at all?
    pub fn is_empty(&self) -> bool {
        self.triggers.is_empty()
    }
}

/// One rank's share of a [`FaultInjector`]: its counters, absolute from
/// world start, and the triggers that name it. Nothing here is touched by
/// any other rank's operations — it sits on cache lines of its own — so
/// counting costs no shared lock and no shared line; the triggers are
/// looked at only once the rank has some.
#[repr(align(64))]
pub(crate) struct RankFaults {
    ops: AtomicU64,
    /// Set with the rank's first trigger, never cleared.
    armed: AtomicBool,
    state: Mutex<RankState>,
    /// The injector's log of fired triggers.
    fired: Arc<Mutex<Vec<FaultTrigger>>>,
}

#[derive(Default)]
struct RankState {
    points: HashMap<String, u64>,
    triggers: Vec<FaultTrigger>,
}

impl RankFaults {
    fn arm(&self, trigger: FaultTrigger) {
        self.state.lock().triggers.push(trigger);
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Record one transport operation; `true` if the rank must die at it.
    pub(crate) fn hit_op(&self) -> bool {
        let count = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        self.armed.load(Ordering::SeqCst)
            && self.fire(
                &self.state.lock(),
                |t| matches!(t, FaultTrigger::AtOpCount { count: k, .. } if *k == count),
            )
    }

    /// Record a hit of the named fault point; `true` if the rank must die
    /// here.
    pub(crate) fn hit_point(&self, point: &str) -> bool {
        let mut st = self.state.lock();
        let occ = match st.points.get_mut(point) {
            Some(c) => {
                *c += 1;
                *c
            }
            None => {
                st.points.insert(point.to_string(), 1);
                1
            }
        };
        self.armed.load(Ordering::SeqCst)
            && self.fire(&st, |t| {
                matches!(t, FaultTrigger::AtPoint { point: p, occurrence, .. }
                    if p == point && *occurrence == occ)
            })
    }

    /// Log the first of this rank's triggers that `due` selects, if any.
    fn fire(&self, st: &RankState, due: impl Fn(&FaultTrigger) -> bool) -> bool {
        let hit = st.triggers.iter().find(|t| due(t));
        if let Some(t) = hit {
            self.fired.lock().push(t.clone());
        }
        hit.is_some()
    }
}

/// Shared runtime state evaluating a [`FaultPlan`].
///
/// The fabric consults the injector on every send/receive; higher layers
/// additionally call [`FaultInjector::hit_point`] at protocol-level fault
/// points. A `true` return means "this rank dies *now*": the caller must
/// mark the rank dead and unwind.
///
/// Counters and triggers are kept per rank ([`RankFaults`]); the table below
/// is only walked to find a rank's share, which a link does once.
pub struct FaultInjector {
    ranks: Mutex<HashMap<RankId, Arc<RankFaults>>>,
    fired: Arc<Mutex<Vec<FaultTrigger>>>,
}

impl FaultInjector {
    /// Build an injector for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let inj = Self {
            ranks: Mutex::new(HashMap::new()),
            fired: Arc::default(),
        };
        plan.triggers.into_iter().for_each(|t| inj.arm(t));
        inj
    }

    /// An injector that never fires.
    pub fn inert() -> Self {
        Self::new(FaultPlan::none())
    }

    /// `rank`'s share, created at its first mention.
    pub(crate) fn rank(&self, rank: RankId) -> Arc<RankFaults> {
        let mut ranks = self.ranks.lock();
        let share = ranks.entry(rank).or_insert_with(|| {
            Arc::new(RankFaults {
                ops: AtomicU64::new(0),
                armed: AtomicBool::new(false),
                state: Mutex::default(),
                fired: Arc::clone(&self.fired),
            })
        });
        Arc::clone(share)
    }

    /// Add more triggers while the system is running (used by elastic
    /// drivers that script multiple failures over a training run). Counts
    /// are absolute from world start: a trigger whose count the rank has
    /// already passed never fires.
    pub fn arm(&self, trigger: FaultTrigger) {
        let (FaultTrigger::AtOpCount { rank, .. } | FaultTrigger::AtPoint { rank, .. }) = &trigger;
        self.rank(*rank).arm(trigger);
    }

    /// Record one transport operation by `rank`; returns `true` if the rank
    /// must die at this operation.
    pub fn hit_op(&self, rank: RankId) -> bool {
        self.rank(rank).hit_op()
    }

    /// Record a hit of the named fault point by `rank`; returns `true` if the
    /// rank must die here.
    pub fn hit_point(&self, rank: RankId, point: &str) -> bool {
        self.rank(rank).hit_point(point)
    }

    /// Triggers that have fired so far (for test assertions).
    pub fn fired(&self) -> Vec<FaultTrigger> {
        self.fired.lock().clone()
    }

    /// Does the plan contain any trigger for `rank`?
    pub fn is_armed_for(&self, rank: RankId) -> bool {
        let ranks = self.ranks.lock();
        ranks
            .get(&rank)
            .is_some_and(|r| r.armed.load(Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_trigger_fires_exactly_once_at_count() {
        let inj = FaultInjector::new(FaultPlan::none().kill_at_op(RankId(2), 3));
        assert!(!inj.hit_op(RankId(2)));
        assert!(!inj.hit_op(RankId(2)));
        assert!(inj.hit_op(RankId(2)));
        assert!(!inj.hit_op(RankId(2)));
        assert_eq!(inj.fired().len(), 1);
    }

    #[test]
    fn op_counters_are_per_rank() {
        let inj = FaultInjector::new(FaultPlan::none().kill_at_op(RankId(1), 2));
        assert!(!inj.hit_op(RankId(0)));
        assert!(!inj.hit_op(RankId(0)));
        assert!(!inj.hit_op(RankId(1)));
        assert!(inj.hit_op(RankId(1)));
    }

    #[test]
    fn point_trigger_counts_occurrences() {
        let inj =
            FaultInjector::new(FaultPlan::none().kill_at_point(RankId(0), "allreduce.step", 2));
        assert!(!inj.hit_point(RankId(0), "allreduce.step"));
        assert!(!inj.hit_point(RankId(0), "other"));
        assert!(inj.hit_point(RankId(0), "allreduce.step"));
    }

    #[test]
    fn arm_adds_triggers_at_runtime() {
        let inj = FaultInjector::inert();
        assert!(!inj.is_armed_for(RankId(4)));
        inj.arm(FaultTrigger::AtOpCount {
            rank: RankId(4),
            count: 1,
        });
        assert!(inj.is_armed_for(RankId(4)));
        assert!(inj.hit_op(RankId(4)));
    }

    #[test]
    fn merge_composes_schedules() {
        let a = FaultPlan::none().kill_at_op(RankId(0), 5);
        let b = FaultPlan::none().kill_at_point(RankId(1), "shrink.attempt", 1);
        let merged = a.merge(b);
        assert_eq!(merged.triggers().len(), 2);
        assert!(!merged.is_empty());
        assert!(FaultPlan::none().is_empty());
        let inj = FaultInjector::new(merged);
        assert!(inj.is_armed_for(RankId(0)));
        assert!(inj.is_armed_for(RankId(1)));
        assert!(inj.hit_point(RankId(1), "shrink.attempt"));
    }

    #[test]
    fn inert_never_fires() {
        let inj = FaultInjector::inert();
        for i in 0..100 {
            assert!(!inj.hit_op(RankId(i % 4)));
        }
        assert!(inj.fired().is_empty());
    }
}

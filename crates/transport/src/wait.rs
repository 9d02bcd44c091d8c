//! How a blocked rank waits: yield for a bounded time, then park.
//!
//! [`WaitLock`] is a mutex + condvar + *version word*. Every producer
//! changes the state under the lock and hands its guard to
//! [`WaitLock::notify`], which bumps the version before unlocking. A waiter
//! that found nothing to do under the lock calls [`WaitLock::wait`]: while
//! its call's [`YieldBudget`] lasts it drops the lock and loops on
//! `yield_now` until the version moves, then re-locks and lets the caller
//! re-check; once the budget is spent it parks on the condvar. A sleeping
//! thread costs its producer a futex wake of a halted core (≈ 20 µs here);
//! a yielding one keeps the core awake and, unlike a `spin_loop` pause,
//! hands it over when its producer shares it.
//!
//! No wake-up is lost: the version is read under the same lock hold as the
//! caller's check, so any later change moves it; and `parked` is raised
//! under the lock before `Condvar::wait` releases it, so a producer that
//! locks afterwards sees the sleeper and pays the notify — and only then.

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Yield time one blocking call may spend before it parks: about two
/// cross-core wake-ups, so a reply that is already on its way is caught
/// awake and a long wait burns next to nothing.
const YIELD_BUDGET: Duration = Duration::from_micros(50);

/// One blocking call's yield allowance; the clock starts at its first wait.
#[derive(Default)]
pub(crate) struct YieldBudget(Option<Instant>);

/// A mutex whose holders can publish a change and wait for the next one.
#[derive(Default)]
pub(crate) struct WaitLock<T> {
    state: Mutex<T>,
    cv: Condvar,
    /// Bumped under the lock by every `notify`.
    version: AtomicU64,
    /// Waiters inside `Condvar::wait`; changed only under the lock.
    parked: AtomicUsize,
    /// Times a waiter has parked (diagnostics only).
    parks: AtomicU64,
}

impl<T> WaitLock<T> {
    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        self.state.lock()
    }

    /// Publish the change made under `guard` and release it. The futex
    /// syscall is paid only when a waiter is parked.
    pub(crate) fn notify(&self, guard: MutexGuard<'_, T>) {
        self.version.fetch_add(1, Ordering::Release);
        let parked = self.parked.load(Ordering::Relaxed) > 0;
        drop(guard);
        if parked {
            self.cv.notify_all();
        }
    }

    /// Give up `guard` until a `notify`, `deadline`, or (while `budget`
    /// lasts) the end of the budget; returns with the lock re-taken. May
    /// return early — callers re-check their condition in a loop.
    pub(crate) fn wait<'a>(
        &'a self,
        mut guard: MutexGuard<'a, T>,
        budget: &mut YieldBudget,
        deadline: Option<Instant>,
    ) -> MutexGuard<'a, T> {
        let now = Instant::now();
        let yield_until = *budget.0.get_or_insert(now + YIELD_BUDGET);
        let stop = deadline.map_or(yield_until, |d| d.min(yield_until));
        if now < stop {
            let seen = self.version.load(Ordering::Relaxed);
            drop(guard);
            while self.version.load(Ordering::Acquire) == seen && Instant::now() < stop {
                std::thread::yield_now();
            }
            return self.state.lock();
        }
        self.parks.fetch_add(1, Ordering::Relaxed);
        self.parked.fetch_add(1, Ordering::Relaxed);
        match deadline.map(|d| d.saturating_duration_since(now)) {
            Some(left) => drop(self.cv.wait_for(&mut guard, left)),
            None => self.cv.wait(&mut guard),
        }
        self.parked.fetch_sub(1, Ordering::Relaxed);
        guard
    }

    /// Times a waiter has parked rather than yielded (diagnostics only).
    pub(crate) fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }
}

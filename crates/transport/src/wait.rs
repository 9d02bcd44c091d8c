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
//! a yielding one keeps the core awake and sees a change within one
//! `yield_now`. Yielding does not hand the core over to whoever would make
//! that change: the scheduler may run the yielder again and again while
//! the producer waits its turn. In a three-rank Unix recovery, ranks 0 and
//! 2 share a core (rank *r* is pinned to core *r* mod 2); a frame already
//! written to one of them sat unread for 50–75 µs while it yielded, until
//! its budget ran out and it parked, and only then did the link's reader
//! thread (sockets then had one per link) run to deliver it. So a waiter with bytes to move moves them
//! itself (the [`Pump`] it hands [`WaitLock::wait`]): in its yield loop it
//! reads its own links, and it parks in `poll(2)` on them and on a
//! [`Bell`], which `notify` rings where it would pay the futex wake.
//!
//! No wake-up is lost: the version is read under the same lock hold as the
//! caller's check, so any later change moves it; and `parked` is raised
//! under the lock before the waiter sleeps, so a producer that locks
//! afterwards sees the sleeper and pays the wake — and only then.

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::io::{Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Yield time one blocking call may spend before it parks: about two
/// cross-core wake-ups, so a reply that is already on its way is caught
/// awake and a long wait burns next to nothing.
const YIELD_BUDGET: Duration = Duration::from_micros(50);

/// One blocking call's yield allowance; the clock starts at its first wait.
#[derive(Default)]
pub(crate) struct YieldBudget(Option<Instant>);

impl YieldBudget {
    /// The end of the allowance, starting the clock at `now`.
    fn until(&mut self, now: Instant) -> Instant {
        *self.0.get_or_insert(now + YIELD_BUDGET)
    }

    /// Does the allowance last? Starts the clock on the first call.
    pub(crate) fn lasts(&mut self) -> bool {
        let now = Instant::now();
        now < self.until(now)
    }
}

/// A wake pair: one byte written to one end wakes the thread asleep in
/// `poll` on the other. A ring nobody waits for is read by the next sleeper,
/// which then wakes at once and looks again.
pub(crate) struct Bell {
    tx: UnixStream,
    rx: UnixStream,
}

impl Bell {
    pub(crate) fn new() -> std::io::Result<Self> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Self { tx, rx })
    }

    pub(crate) fn ring(&self) {
        // A full pair already holds a ring.
        let _ = (&self.tx).write(&[1]);
    }

    /// The end to sleep on.
    pub(crate) fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Take every ring so far.
    pub(crate) fn drain(&self) {
        let mut rings = [0u8; 64];
        while matches!((&self.rx).read(&mut rings), Ok(n) if n > 0) {}
    }
}

/// What a blocked waiter can do besides yield and sleep: move the bytes it
/// waits for itself. In process a sender's call delivers and there is
/// nothing to move: `()`, with which a wait is exactly the plain one.
pub(crate) trait Pump {
    /// Does this pump move anything?
    const MOVES: bool = false;
    /// A blocking call starts (`true`) or stops (`false`) waiting.
    fn waiting(&self, _on: bool) {}
    /// Move what has arrived, without blocking; true if anything moved.
    fn advance(&self) -> bool {
        false
    }
    /// Sleep in `poll` until `deadline`, a ring of the wait's [`Bell`] or
    /// something to move; call `woke`, then move it. False, at once, if
    /// another thread is moving these bytes.
    fn park(&self, _deadline: Option<Instant>, _woke: &dyn Fn()) -> bool {
        false
    }
}

impl Pump for () {}

/// A mutex whose holders can publish a change and wait for the next one.
#[derive(Default)]
pub(crate) struct WaitLock<T> {
    state: Mutex<T>,
    cv: Condvar,
    /// Bumped under the lock by every `notify`.
    version: AtomicU64,
    /// Waiters asleep; raised only under the lock. This and `parks` are
    /// 32-bit so that `bell` leaves every mailbox its old size: 8 bytes
    /// more read the in-process `recover` workload 5 % slower.
    parked: AtomicU32,
    /// Times a waiter has parked (diagnostics only; wraps).
    parks: AtomicU32,
    /// Rung with the condvar: a waiter asleep in `poll` hears this instead.
    bell: Option<Arc<Bell>>,
}

impl<T> WaitLock<T> {
    /// A lock whose `notify` also rings `bell`.
    pub(crate) fn with_bell(state: T, bell: Arc<Bell>) -> Self {
        Self {
            state: Mutex::new(state),
            cv: Condvar::new(),
            version: AtomicU64::new(0),
            parked: AtomicU32::new(0),
            parks: AtomicU32::new(0),
            bell: Some(bell),
        }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        self.state.lock()
    }

    /// Publish the change made under `guard` and release it. The futex
    /// syscall (or the ring) is paid only when a waiter is asleep.
    pub(crate) fn notify(&self, guard: MutexGuard<'_, T>) {
        self.version.fetch_add(1, Ordering::Release);
        let parked = self.parked.load(Ordering::Relaxed) > 0;
        drop(guard);
        if parked {
            self.cv.notify_all();
            if let Some(bell) = &self.bell {
                bell.ring();
            }
        }
    }

    /// Give up `guard` until a `notify`, `deadline`, or (while `budget`
    /// lasts) the end of the budget; returns with the lock re-taken. May
    /// return early — callers re-check their condition in a loop. Each yield
    /// first tries `pump`'s [`Pump::advance`], and the sleep is its
    /// [`Pump::park`] where the pump can take it, the condvar where not.
    pub(crate) fn wait<'a, P: Pump>(
        &'a self,
        mut guard: MutexGuard<'a, T>,
        budget: &mut YieldBudget,
        deadline: Option<Instant>,
        pump: &P,
    ) -> MutexGuard<'a, T> {
        let now = Instant::now();
        let yield_until = budget.until(now);
        let stop = deadline.map_or(yield_until, |d| d.min(yield_until));
        let seen = self.version.load(Ordering::Relaxed);
        if now < stop {
            drop(guard);
            while self.version.load(Ordering::Acquire) == seen && Instant::now() < stop {
                if !pump.advance() {
                    std::thread::yield_now();
                }
            }
            return self.state.lock();
        }
        self.parks.fetch_add(1, Ordering::Relaxed);
        self.parked.fetch_add(1, Ordering::Relaxed);
        if P::MOVES {
            drop(guard);
            let woke = || {
                self.parked.fetch_sub(1, Ordering::Relaxed);
            };
            let polled = pump.park(deadline, &woke);
            guard = self.state.lock();
            if polled {
                return guard;
            }
            if self.version.load(Ordering::Relaxed) != seen {
                woke();
                return guard;
            }
        }
        match deadline.map(|d| d.saturating_duration_since(now)) {
            Some(left) => drop(self.cv.wait_for(&mut guard, left)),
            None => self.cv.wait(&mut guard),
        }
        self.parked.fetch_sub(1, Ordering::Relaxed);
        guard
    }

    /// Times a waiter has parked rather than yielded (diagnostics only).
    pub(crate) fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed).into()
    }
}

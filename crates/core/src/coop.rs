//! Cooperative-scheduling hooks.
//!
//! Some runs drive the *real* engine through chosen interleavings: the
//! schedule explorer in `htm-model`, the deterministic svc service cells
//! and replays. All run on `htm_runtime::sched`, and rather than fork the
//! engine, the substrate exposes a thin per-thread hook layer for it: when
//! a scheduler's hooks are installed on a thread, the engine calls
//! [`point`] at its scheduling points (block start, pre-commit, each
//! write-back store, and every spin that waits on another thread) and
//! [`access`] on every line-granular memory access. The scheduler parks
//! the thread at each point until it grants it the next step, and hands
//! each step's accesses to its policy (the explorer keeps them as the
//! footprint dynamic partial-order reduction needs).
//!
//! When no hooks are installed (every ordinary run), [`enabled`] is a
//! thread-local boolean read and both entry points are no-ops, so the
//! engine's hot path stays unperturbed.
//!
//! The module also owns the engine's only OS-thread yields: every wait on
//! another thread is a [`Wait`], and simulated-time pacing calls [`pace`].
//! Under a scheduler only the granted thread runs engine code, so a wait
//! pauses at [`CoopPoint::Blocked`] and pacing does nothing; a free-running
//! thread spins and yields its OS thread instead.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Sentinel "line" reported for accesses to the hybrid-TM commit epoch
/// (a process-global sequence lock, not a simulated memory line). Using an
/// out-of-band id lets the explorer treat epoch bumps and epoch reads as
/// ordinary conflicting accesses.
pub const EPOCH_LINE: u64 = u64::MAX;

/// Sentinel "line" a phase barrier's last arrival reports as a write when
/// it releases the waiters, so a scheduler sees the release as progress.
pub const BARRIER_LINE: u64 = u64::MAX - 1;

/// Where in the engine a cooperative pause happens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoopPoint {
    /// An atomic block is about to start its first attempt.
    BlockStart,
    /// A transactional attempt finished its body and is about to try to
    /// commit (hardware, STM, or ROT commit protocol).
    PreCommit,
    /// A committing transaction is about to flush one buffered store to the
    /// arena (fires once per store, so torn write-backs are explorable).
    WriteBack,
    /// The thread is spinning on a condition only another thread can change
    /// (a held lock, a committing slot, an odd epoch). Granting it again
    /// only re-checks the condition. The scheduler's policy decides when:
    /// round-robin probes it in its turn, the model checker only once no
    /// other thread is runnable.
    Blocked,
}

/// Scheduler interface installed per worker thread.
pub trait CoopHooks {
    /// Called at each scheduling point; blocks until the scheduler grants
    /// this thread the right to continue.
    fn pause(&self, point: CoopPoint);
    /// Reports one line-granular access (line id, is-write) for footprint
    /// capture. [`EPOCH_LINE`] is used for the hybrid commit epoch. Must
    /// not park: it runs while the thread's hook slot is borrowed.
    fn access(&self, line: u64, write: bool);
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static HOOKS: RefCell<Option<Rc<dyn CoopHooks>>> = const { RefCell::new(None) };
}

/// Installs `hooks` on the current thread, returning a guard that removes
/// them on drop (including on unwind, so an aborted schedule cannot leak
/// hooks into a reused thread).
///
/// # Panics
///
/// Panics if hooks are already installed: a worker runs under one
/// scheduler, and replacing its hooks would hand its pauses to another.
pub fn install(hooks: Rc<dyn CoopHooks>) -> CoopGuard {
    HOOKS.with(|h| {
        let mut h = h.borrow_mut();
        assert!(h.is_none(), "a worker cannot enter a second scheduler");
        *h = Some(hooks);
    });
    ACTIVE.with(|a| a.set(true));
    CoopGuard { _priv: () }
}

/// Uninstall-on-drop guard returned by [`install`].
pub struct CoopGuard {
    _priv: (),
}

impl Drop for CoopGuard {
    fn drop(&mut self) {
        ACTIVE.with(|a| a.set(false));
        HOOKS.with(|h| *h.borrow_mut() = None);
    }
}

/// Exchanges the hooks installed on this thread with `hooks` (`None`: no
/// hooks). A fiber driver keeps one slot per fiber and swaps it in and out
/// at every resume, so each fiber sees only the hooks it installed.
pub fn swap(hooks: &mut Option<Rc<dyn CoopHooks>>) {
    HOOKS.with(|h| std::mem::swap(&mut *h.borrow_mut(), hooks));
    ACTIVE.with(|a| a.set(HOOKS.with(|h| h.borrow().is_some())));
}

/// Whether cooperative hooks are installed on this thread.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Pauses at a scheduling point (no-op unless hooks are installed).
#[inline]
pub fn point(p: CoopPoint) {
    if enabled() {
        point_slow(p);
    }
}

#[cold]
fn point_slow(p: CoopPoint) {
    // Clone the handle out of the RefCell before calling: the pause may park
    // for a long time and must not hold the borrow.
    let hooks = HOOKS.with(|h| h.borrow().clone());
    if let Some(hooks) = hooks {
        hooks.pause(p);
    }
}

/// Reports a line-granular access (no-op unless hooks are installed).
#[inline]
pub fn access(line: u64, write: bool) {
    if enabled() {
        access_slow(line, write);
    }
}

#[cold]
fn access_slow(line: u64, write: bool) {
    // Called through the borrow: an access report never parks, so no other
    // fiber can swap the hooks while it runs.
    HOOKS.with(|h| {
        if let Some(hooks) = &*h.borrow() {
            hooks.access(line, write);
        }
    });
}

/// A wait on a condition only another thread can change (a held lock, a
/// committing slot, an odd epoch, a drained pool), one [`round`] per poll.
///
/// Under a scheduler the condition can change only while another thread
/// holds the grant, so each round pauses at [`CoopPoint::Blocked`] and
/// makes no system call. A free-running thread issues a spin hint instead
/// and yields its OS thread every `yield_every` rounds, so a peer sharing
/// its core can run.
///
/// [`round`]: Wait::round
pub struct Wait {
    rounds: u64,
    yield_every: u64,
}

impl Wait {
    /// A wait that, free-running, yields the OS thread every `yield_every`
    /// (at least 1) rounds.
    pub const fn new(yield_every: u64) -> Wait {
        assert!(yield_every > 0, "a wait must yield at some cadence");
        Wait { rounds: 0, yield_every }
    }

    /// Waits one round; returns the rounds waited so far, this one included.
    #[inline]
    pub fn round(&mut self) -> u64 {
        self.rounds += 1;
        if enabled() {
            point_slow(CoopPoint::Blocked);
        } else {
            std::hint::spin_loop();
            if self.rounds.is_multiple_of(self.yield_every) {
                std::thread::yield_now();
            }
        }
        self.rounds
    }
}

/// Yields the OS thread to pace a free-running worker against its peers.
/// Does nothing under a scheduler, where only a grant lets another worker
/// run.
#[inline]
pub fn pace() {
    if !enabled() {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell as StdRefCell;

    struct Log {
        pauses: StdRefCell<Vec<CoopPoint>>,
        accesses: StdRefCell<Vec<(u64, bool)>>,
    }

    impl CoopHooks for Log {
        fn pause(&self, p: CoopPoint) {
            self.pauses.borrow_mut().push(p);
        }
        fn access(&self, line: u64, write: bool) {
            self.accesses.borrow_mut().push((line, write));
        }
    }

    #[test]
    fn disabled_by_default_and_guard_restores() {
        assert!(!enabled());
        point(CoopPoint::BlockStart); // must be a no-op
        access(3, true);
        let log =
            Rc::new(Log { pauses: StdRefCell::new(vec![]), accesses: StdRefCell::new(vec![]) });
        {
            let _guard = install(Rc::clone(&log) as Rc<dyn CoopHooks>);
            assert!(enabled());
            point(CoopPoint::PreCommit);
            access(7, false);
        }
        assert!(!enabled());
        point(CoopPoint::WriteBack); // dropped guard: no-op again
        assert_eq!(*log.pauses.borrow(), vec![CoopPoint::PreCommit]);
        assert_eq!(*log.accesses.borrow(), vec![(7, false)]);
    }

    #[test]
    fn waits_pause_blocked_only_while_hooks_are_installed() {
        // No hooks: a wait spins (and yields) without pausing, and returns.
        let mut wait = Wait::new(1);
        assert_eq!(wait.round(), 1);
        let log =
            Rc::new(Log { pauses: StdRefCell::new(vec![]), accesses: StdRefCell::new(vec![]) });
        {
            let _guard = install(Rc::clone(&log) as Rc<dyn CoopHooks>);
            pace(); // no pause and no OS yield under a scheduler
            let mut wait = Wait::new(4);
            for k in 1..=9 {
                assert_eq!(wait.round(), k);
            }
            assert_eq!(*log.pauses.borrow(), vec![CoopPoint::Blocked; 9]);
        }
        // Dropped guard: waits stop pausing.
        assert_eq!(wait.round(), 2);
        pace();
        assert_eq!(log.pauses.borrow().len(), 9);
        assert!(log.accesses.borrow().is_empty());
    }

    #[test]
    fn guard_uninstalls_on_unwind() {
        let log =
            Rc::new(Log { pauses: StdRefCell::new(vec![]), accesses: StdRefCell::new(vec![]) });
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = install(Rc::clone(&log) as Rc<dyn CoopHooks>);
            panic!("boom");
        }));
        assert!(r.is_err());
        assert!(!enabled(), "guard must uninstall during unwind");
    }
}

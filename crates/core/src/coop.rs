//! Cooperative-scheduling hooks.
//!
//! Two kinds of run drive the *real* engine through chosen interleavings:
//! the schedule explorer in `htm-model` and the deterministic svc service
//! cells. Both run on `htm_runtime::sched`, and rather than fork the
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

use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Sentinel "line" reported for accesses to the hybrid-TM commit epoch
/// (a process-global sequence lock, not a simulated memory line). Using an
/// out-of-band id lets the explorer treat epoch bumps and epoch reads as
/// ordinary conflicting accesses.
pub const EPOCH_LINE: u64 = u64::MAX;

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
    /// capture. [`EPOCH_LINE`] is used for the hybrid commit epoch.
    fn access(&self, line: u64, write: bool);
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static HOOKS: RefCell<Option<Rc<dyn CoopHooks>>> = const { RefCell::new(None) };
}

/// Installs `hooks` on the current thread, returning a guard that removes
/// them on drop (including on unwind, so an aborted schedule cannot leak
/// hooks into a reused thread).
pub fn install(hooks: Rc<dyn CoopHooks>) -> CoopGuard {
    HOOKS.with(|h| *h.borrow_mut() = Some(hooks));
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
    let hooks = HOOKS.with(|h| h.borrow().clone());
    if let Some(hooks) = hooks {
        hooks.access(line, write);
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

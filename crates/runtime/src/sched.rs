//! The cooperative scheduler: one worker runs at a time, and a [`Policy`]
//! decides which.
//!
//! Runs that must interleave the same way every time drive the real
//! engine through the `htm_core::coop` hooks: the runs of a cooperative
//! `Sim` (the svc service cells, under [`RoundRobin`], bit-identical per
//! seed), replays of recorded runs (`Sim::replay`, also under
//! [`RoundRobin`]) and the `htm-model` schedule explorer
//! (`Sim::try_run_scheduled`). The executor enters every worker of such a
//! run with [`Scheduler::enter`], which installs the worker's [`Hooks`],
//! takes its [`FinishGuard`] and [`register`](Scheduler::register)s it;
//! from then on the worker runs only while it holds the grant. A *step* is
//! everything a thread executes between two of its own pauses. At each
//! scheduling point the running thread ends its step, marks itself Ready
//! (or Blocked, at [`CoopPoint::Blocked`]), grants the thread the policy
//! picks, and waits until it is granted again. A worker running as a fiber
//! (every scheduled run's, see [`crate::fiber`]) waits by suspending to its
//! driver, naming the granted thread, which the driver resumes: a register
//! switch. A worker on its own OS thread (on targets without fibers, or
//! where a caller enters workers on threads it spawned) parks on a condvar. A
//! finishing fiber only records the next grant, since it may be unwinding;
//! the driver resumes that thread once the fiber's body has returned.
//!
//! A Blocked thread observed a condition only another thread can change (a
//! held lock, a committing slot, an odd epoch). It stays grantable: a grant
//! to a Blocked thread is a *probe* that re-checks the condition. Probes
//! are how conflict chains unwind, because the engine's claim protocol
//! dooms a line owner and then spins until the owner *runs* its rollback.
//! [`Rotation`] probes a Blocked thread in its rotation turn, even while
//! other threads are Ready; the model checker probes only when no thread
//! is Ready. The scheduler counts *all-blocked rounds*, consecutive grants
//! made while no thread was Ready. A Ready pause, a finish, a grant with a
//! Ready thread, or a step the policy counts as progress resets the count,
//! and the policy declares deadlock from it.
//!
//! Line accesses are collected per step in the thread's own hook handle
//! and handed to the policy when the step ends. When the policy gives a
//! verdict instead of a thread (deadlock, step bound), every parked
//! thread, and every thread that pauses later, unwinds with the policy's
//! diagnostic as its panic payload, so no worker hangs on a grant that
//! will never come.
//!
//! Simulated time is unaffected: one-at-a-time *host* execution does not
//! move the simulated clocks.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use htm_core::coop::{CoopGuard, CoopHooks, CoopPoint};

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
use crate::fiber;

/// Without the fiber switch routine every worker is an OS thread.
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod fiber {
    pub fn current() -> Option<usize> {
        None
    }
    pub fn suspend(_next: Option<usize>) {}
    pub fn hand_over(_next: usize) {}
    pub fn unwind_all(_diagnostic: String) {}
}

/// A worker's entry in the scheduler's thread table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadState {
    /// Runnable.
    Ready,
    /// Paused at [`CoopPoint::Blocked`]; a grant to it is a probe.
    Blocked,
    /// Finished or unwound; never granted again.
    Done,
}

/// The decision rule of a [`Scheduler`]: which thread gets the next grant,
/// and when the run is stuck.
pub trait Policy: Send + 'static {
    /// What a hook handle collects from one step's line accesses.
    type Step: Default + 'static;
    /// Adds one line access (line id, is-write) to the running step.
    fn record(step: &mut Self::Step, line: u64, write: bool);
    /// Thread `tid` ended a step at `point` (`None`: the thread finished)
    /// after the accesses in `step`. Returns whether the step counts as
    /// progress, which resets the all-blocked count.
    fn end_step(&mut self, tid: u32, point: Option<CoopPoint>, step: Self::Step) -> bool;
    /// Picks the thread to grant; it must not be Done. At least one thread
    /// is live, and `prev` is the thread that ran last. `blocked_rounds`
    /// counts consecutive all-blocked rounds including this one (0 when a
    /// thread is Ready). `Err` aborts the run with that diagnostic.
    fn pick(
        &mut self,
        status: &[ThreadState],
        prev: Option<u32>,
        blocked_rounds: u32,
    ) -> Result<u32, String>;
}

struct State<P> {
    policy: P,
    status: Vec<ThreadState>,
    registered: u32,
    /// Thread holding the grant (`None` between a pause and the next grant,
    /// before the first grant, and once all threads are done).
    current: Option<u32>,
    /// Thread that held the grant last.
    prev: Option<u32>,
    blocked_rounds: u32,
    /// The policy's verdict, once it aborted the run.
    abort: Option<String>,
}

/// Shared scheduler for one run of `nthreads` workers.
pub struct Scheduler<P: Policy> {
    state: Mutex<State<P>>,
    /// One condvar per thread, so a grant wakes only the granted thread
    /// (workers on OS threads; fibers suspend to their driver instead).
    wake: Vec<Condvar>,
}

thread_local! {
    /// The handle [`Scheduler::hooks`] made on this thread, waiting for
    /// [`Scheduler::finish_guard`] to take it.
    static HANDLE: RefCell<Option<Rc<dyn Any>>> = const { RefCell::new(None) };
}

impl<P: Policy> Scheduler<P> {
    /// A scheduler for `nthreads` workers that grants by `policy`.
    pub fn with_policy(nthreads: u32, policy: P) -> Arc<Scheduler<P>> {
        Arc::new(Scheduler {
            state: Mutex::new(State {
                policy,
                status: vec![ThreadState::Ready; nthreads as usize],
                registered: 0,
                current: None,
                prev: None,
                blocked_rounds: 0,
                abort: None,
            }),
            wake: (0..nthreads).map(|_| Condvar::new()).collect(),
        })
    }

    /// The number of workers the scheduler runs.
    pub fn threads(&self) -> u32 {
        self.wake.len() as u32
    }

    /// Enters worker `tid`: installs its [`hooks`](Scheduler::hooks), takes
    /// its [`finish_guard`](Scheduler::finish_guard) and
    /// [`register`](Scheduler::register)s it, in that order, so it returns
    /// at the worker's first grant. The worker runs under the scheduler
    /// until the pair drops: the finish guard first, while the hooks are
    /// still installed.
    ///
    /// # Panics
    ///
    /// Panics if the thread already runs under a scheduler, or with the
    /// policy's verdict if the run was aborted before the first grant.
    pub fn enter(self: &Arc<Self>, tid: u32) -> (FinishGuard<P>, CoopGuard) {
        let hooks = htm_core::coop::install(self.hooks(tid));
        let done = self.finish_guard(tid);
        self.register(tid);
        (done, hooks)
    }

    /// Per-thread hook handle for [`htm_core::coop::install`].
    pub fn hooks(self: &Arc<Self>, tid: u32) -> Rc<Hooks<P>> {
        let hooks = Rc::new(Hooks { sched: Arc::clone(self), tid, step: RefCell::default() });
        HANDLE.with(|h| *h.borrow_mut() = Some(Rc::clone(&hooks) as Rc<dyn Any>));
        hooks
    }

    /// RAII completion guard: marks the thread done on drop (normal exit
    /// *and* unwind), so a panicking worker cannot strand its siblings.
    /// Create it after [`Scheduler::hooks`] on the same thread: it hands
    /// the last step's accesses over from that handle.
    pub fn finish_guard(self: &Arc<Self>, tid: u32) -> FinishGuard<P> {
        let hooks = HANDLE
            .with(|h| h.borrow_mut().take())
            .and_then(|h| h.downcast::<Hooks<P>>().ok())
            .filter(|h| h.tid == tid && Arc::ptr_eq(&h.sched, self));
        FinishGuard { sched: Arc::clone(self), tid, hooks }
    }

    /// Registers thread `tid` and parks until the first grant. Every worker
    /// must call this exactly once, before touching shared state.
    pub fn register(&self, tid: u32) {
        let mut s = self.lock();
        s.registered += 1;
        if s.registered as usize == self.wake.len() {
            self.grant(&mut s);
        }
        self.wait_for_grant(s, tid);
    }

    /// Runs `f` on the policy, e.g. to drain its record after the run.
    pub fn policy<R>(&self, f: impl FnOnce(&mut P) -> R) -> R {
        f(&mut self.lock().policy)
    }

    fn lock(&self) -> MutexGuard<'_, State<P>> {
        // `finish` runs in a drop guard, which must not panic while its
        // worker unwinds; every update to the table is a plain field store,
        // so a poisoned table is still valid.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn pause(&self, tid: u32, point: CoopPoint, step: P::Step) {
        let mut s = self.lock();
        let progress = s.policy.end_step(tid, Some(point), step);
        s.status[tid as usize] =
            if point == CoopPoint::Blocked { ThreadState::Blocked } else { ThreadState::Ready };
        if progress || point != CoopPoint::Blocked {
            s.blocked_rounds = 0;
        }
        if s.current == Some(tid) {
            s.prev = Some(tid);
            s.current = None;
            self.grant(&mut s);
        }
        self.wait_for_grant(s, tid);
    }

    fn finish(&self, tid: u32, step: P::Step) {
        let mut s = self.lock();
        s.policy.end_step(tid, None, step);
        s.status[tid as usize] = ThreadState::Done;
        s.blocked_rounds = 0;
        if s.current == Some(tid) || s.current.is_none() {
            s.prev = Some(tid);
            s.current = None;
            self.grant(&mut s);
        }
        // This runs in a drop guard, possibly while unwinding, so a fiber
        // must not switch here: the driver resumes the grant once this
        // fiber's body has returned.
        if let Some(t) = s.current {
            fiber::hand_over(t as usize);
        }
    }

    /// Grants the policy's pick, or records its verdict and wakes every
    /// thread to unwind. Caller holds the state lock.
    fn grant(&self, s: &mut State<P>) {
        if s.abort.is_some() || s.status.iter().all(|&t| t == ThreadState::Done) {
            return;
        }
        if s.status.contains(&ThreadState::Ready) {
            s.blocked_rounds = 0;
        } else {
            s.blocked_rounds += 1;
        }
        match s.policy.pick(&s.status, s.prev, s.blocked_rounds) {
            Ok(t) => {
                debug_assert_ne!(s.status[t as usize], ThreadState::Done, "granted a done thread");
                s.status[t as usize] = ThreadState::Ready;
                s.current = Some(t);
                if fiber::current().is_none() {
                    self.wake[t as usize].notify_one();
                }
            }
            Err(diagnostic) => {
                fiber::unwind_all(diagnostic.clone());
                s.abort = Some(diagnostic);
                self.wake.iter().for_each(Condvar::notify_one);
            }
        }
    }

    fn wait_for_grant<'s>(&'s self, mut s: MutexGuard<'s, State<P>>, tid: u32) {
        loop {
            if let Some(diagnostic) = s.abort.clone() {
                drop(s);
                // Unwind through the engine; the executor's worker-panic
                // recovery rolls the open transaction back.
                std::panic::panic_any(diagnostic);
            }
            if s.current == Some(tid) {
                return;
            }
            if fiber::current().is_some() {
                let granted = s.current;
                drop(s);
                fiber::suspend(granted.map(|t| t as usize));
                s = self.lock();
            } else {
                s = self.wake[tid as usize].wait(s).unwrap_or_else(|p| p.into_inner());
            }
        }
    }
}

/// A worker's coop hook handle (see [`Scheduler::hooks`]): collects the
/// running step's accesses and hands them over at the next pause.
pub struct Hooks<P: Policy> {
    sched: Arc<Scheduler<P>>,
    tid: u32,
    step: RefCell<P::Step>,
}

impl<P: Policy> CoopHooks for Hooks<P> {
    fn pause(&self, point: CoopPoint) {
        self.sched.pause(self.tid, point, self.step.take());
    }
    fn access(&self, line: u64, write: bool) {
        P::record(&mut self.step.borrow_mut(), line, write);
    }
}

/// Marks a thread done on drop (see [`Scheduler::finish_guard`]).
pub struct FinishGuard<P: Policy> {
    sched: Arc<Scheduler<P>>,
    tid: u32,
    hooks: Option<Rc<Hooks<P>>>,
}

impl<P: Policy> Drop for FinishGuard<P> {
    fn drop(&mut self) {
        let last_step = self.hooks.as_ref().map(|h| h.step.take()).unwrap_or_default();
        self.sched.finish(self.tid, last_step);
    }
}

/// Round-robin policy: the next grant goes to the first thread after the
/// previous one, in cyclic order, that has not finished, whether Ready or
/// Blocked. A Blocked thread is therefore probed in its turn even while
/// others are Ready; skipping it would let one thread that never blocks
/// (svc's compaction loop) hold the schedule while doomed workers wait to
/// be probed. A probed thread that unwinds a conflict (rollback, retry,
/// lock hand-off) makes a line access before it can block again, so a
/// step with an access is progress, and deadlock is declared only after
/// `64n + 256` all-blocked rounds without one.
#[derive(Clone, Copy, Debug)]
pub struct Rotation;

/// The round-robin scheduler: the runs of a cooperative `Sim` (the svc
/// cells) and every replay run under it.
pub type RoundRobin = Scheduler<Rotation>;

impl RoundRobin {
    /// Creates a round-robin scheduler for `nthreads` workers.
    pub fn new(nthreads: u32) -> Arc<RoundRobin> {
        Scheduler::with_policy(nthreads, Rotation)
    }
}

impl Policy for Rotation {
    /// Whether the step made any line access.
    type Step = bool;

    fn record(step: &mut bool, _line: u64, _write: bool) {
        *step = true;
    }

    fn end_step(&mut self, _tid: u32, _point: Option<CoopPoint>, accessed: bool) -> bool {
        accessed
    }

    fn pick(
        &mut self,
        status: &[ThreadState],
        prev: Option<u32>,
        blocked_rounds: u32,
    ) -> Result<u32, String> {
        let n = status.len() as u32;
        if blocked_rounds > 64 * n + 256 {
            return Err(format!(
                "round-robin scheduler deadlock: all live threads stayed blocked through \
                 {blocked_rounds} probe rounds with no line access from any thread"
            ));
        }
        let prev = prev.unwrap_or(n - 1);
        let live =
            (1..=n).map(|d| (prev + d) % n).find(|&t| status[t as usize] != ThreadState::Done);
        Ok(live.expect("the scheduler asks only while a thread is live"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    type Body = Box<dyn FnOnce() + Send>;
    type Ends = Vec<std::thread::Result<()>>;
    /// Runs one worker per body under a scheduler; returns how each ended.
    type Runner = fn(&Arc<RoundRobin>, Vec<Body>) -> Ends;

    /// A worker: enters the scheduler, then runs `body`.
    fn worker(sched: &Arc<RoundRobin>, tid: u32, body: Body) {
        let _entered = sched.enter(tid);
        body();
    }

    /// One scoped OS thread per worker.
    fn on_threads(sched: &Arc<RoundRobin>, bodies: Vec<Body>) -> Ends {
        std::thread::scope(|scope| {
            let handles: Vec<_> = bodies
                .into_iter()
                .enumerate()
                .map(|(tid, body)| scope.spawn(move || worker(sched, tid as u32, body)))
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        })
    }

    /// One fiber per worker, on this thread.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    fn on_fibers(sched: &Arc<RoundRobin>, bodies: Vec<Body>) -> Ends {
        fiber::run(
            bodies
                .into_iter()
                .enumerate()
                .map(|(tid, body)| {
                    Box::new(move || worker(sched, tid as u32, body)) as Box<dyn FnOnce() + '_>
                })
                .collect(),
        )
    }

    /// Every runner a worker can wait on: OS threads (the condvar grant)
    /// and, where the switch routine exists, fibers.
    fn runners() -> Vec<(&'static str, Runner)> {
        let mut runners: Vec<(&'static str, Runner)> = vec![("threads", on_threads)];
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        runners.push(("fibers", on_fibers));
        runners
    }

    /// Like `run`, but re-raises a worker's panic payload.
    fn run_to_completion(run: Runner, sched: &Arc<RoundRobin>, bodies: Vec<Body>) {
        for r in run(sched, bodies) {
            if let Err(p) = r {
                std::panic::resume_unwind(p);
            }
        }
    }

    /// The panic message every worker unwound with; fails if one exited
    /// normally.
    fn unwound(ends: Ends) -> Vec<String> {
        ends.into_iter()
            .enumerate()
            .map(|(tid, r)| {
                let p = r.expect_err(&format!("thread {tid} exited instead of unwinding"));
                *p.downcast::<String>().expect("string payload")
            })
            .collect()
    }

    fn blocked_forever() -> Body {
        Box::new(|| loop {
            htm_core::coop::point(CoopPoint::Blocked);
        })
    }

    /// A body that logs `tid` and then pauses at `point`, `rounds` times.
    fn logging(tid: u32, point: CoopPoint, rounds: usize, order: &Arc<Mutex<Vec<u32>>>) -> Body {
        let order = Arc::clone(order);
        Box::new(move || {
            for _ in 0..rounds {
                order.lock().unwrap().push(tid);
                htm_core::coop::point(point);
            }
        })
    }

    #[test]
    fn rotates_grants_between_threads() {
        for (name, run) in runners() {
            let sched = RoundRobin::new(3);
            let order = Arc::new(Mutex::new(Vec::new()));
            run_to_completion(
                run,
                &sched,
                (0..3).map(|t| logging(t, CoopPoint::BlockStart, 3, &order)).collect(),
            );
            let order = order.lock().unwrap().clone();
            // Round-robin interleaves instead of running one thread to
            // completion: thread 0 runs first (prev starts at n-1), and
            // each slice rotates.
            assert_eq!(order, vec![0, 1, 2, 0, 1, 2, 0, 1, 2], "{name}");
        }
    }

    #[test]
    fn blocked_threads_are_granted_in_their_rotation_turn() {
        for (name, run) in runners() {
            let sched = RoundRobin::new(3);
            let order = Arc::new(Mutex::new(Vec::new()));
            run_to_completion(
                run,
                &sched,
                vec![
                    logging(0, CoopPoint::BlockStart, 3, &order),
                    logging(1, CoopPoint::Blocked, 3, &order),
                    logging(2, CoopPoint::BlockStart, 3, &order),
                ],
            );
            // Thread 1 is Blocked at every grant after its first, while 0
            // and 2 are Ready; it still gets its turn instead of being
            // skipped.
            assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 0, 1, 2, 0, 1, 2], "{name}");
        }
    }

    #[test]
    fn blocked_threads_are_probed_not_starved() {
        for (name, run) in runners() {
            let sched = RoundRobin::new(2);
            let flag = Arc::new(Mutex::new(false));
            let f0 = Arc::clone(&flag);
            let t0 = Box::new(move || {
                // Spin until thread 1 sets the flag; pause Blocked per poll.
                loop {
                    if *f0.lock().unwrap() {
                        break;
                    }
                    htm_core::coop::point(CoopPoint::Blocked);
                }
            }) as Body;
            let f1 = Arc::clone(&flag);
            let t1 = Box::new(move || {
                htm_core::coop::point(CoopPoint::BlockStart);
                *f1.lock().unwrap() = true;
            }) as Body;
            run_to_completion(run, &sched, vec![t0, t1]);
            assert!(*flag.lock().unwrap(), "{name}");
        }
    }

    #[test]
    fn all_blocked_forever_is_a_deadlock() {
        for (name, run) in runners() {
            let sched = RoundRobin::new(1);
            let msgs = unwound(run(&sched, vec![blocked_forever()]));
            assert!(msgs[0].contains("round-robin scheduler deadlock"), "{name}: {msgs:?}");
        }
    }

    #[test]
    fn deadlock_unwinds_every_parked_thread() {
        for (name, run) in runners() {
            let sched = RoundRobin::new(3);
            let msgs = unwound(run(&sched, (0..3).map(|_| blocked_forever()).collect()));
            for msg in msgs {
                assert!(msg.contains("round-robin scheduler deadlock"), "{name}: {msg}");
            }
        }
    }

    #[test]
    fn a_step_with_a_line_access_resets_the_deadlock_count() {
        for (name, run) in runners() {
            // Both threads stay Blocked; thread 0 touches a line on each of
            // its first 600 steps, more than the 64n + 256 = 384 round
            // bound.
            let sched = RoundRobin::new(2);
            let polls = Arc::new(AtomicU32::new(0));
            let p0 = Arc::clone(&polls);
            let t0 = Box::new(move || loop {
                if p0.fetch_add(1, Ordering::Relaxed) < 600 {
                    htm_core::coop::access(7, false);
                }
                htm_core::coop::point(CoopPoint::Blocked);
            }) as Body;
            let msgs = unwound(run(&sched, vec![t0, blocked_forever()]));
            assert!(
                msgs.iter().all(|m| m.contains("round-robin scheduler deadlock")),
                "{name}: {msgs:?}"
            );
            // The count restarts at thread 0's last access and grows by one
            // per grant after it, so the 385th round is thread 0's 192nd
            // poll without an access.
            assert_eq!(polls.load(Ordering::Relaxed), 600 + 192, "{name}");
        }
    }
}

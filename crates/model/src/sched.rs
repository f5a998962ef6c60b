//! The model checker's schedule policy.
//!
//! One [`Controller`] drives one execution of a kernel. It is the shared
//! cooperative scheduler of `htm_runtime::sched` (one runnable thread,
//! per-thread grants, per-step access collection, one abort path) with the
//! [`Explorer`] policy deciding every grant: it obeys a forced schedule
//! prefix when the explorer replays or extends a path, and past it keeps
//! the previously running thread.
//!
//! A *step* is everything a thread executes between two of its own pauses.
//! The explorer records, per step, the chosen thread, the candidate set
//! the choice was made from, and the line-granular access footprint: the
//! inputs dynamic partial-order reduction needs.
//!
//! Threads that pause at [`CoopPoint::Blocked`] observed a condition only
//! another thread can change (a held lock, a committing slot, an odd
//! epoch). They are *disabled*: the explorer grants them only when no
//! thread is Ready, and then probes them in turn. Scheduling a blocked
//! thread earlier would only re-run its spin poll, so excluding it loses no
//! behaviors. When every live thread stays blocked through 16n+16
//! consecutive probe rounds the schedule is a deadlock; a global step bound
//! catches livelock/starvation.

use std::collections::BTreeMap;

use htm_core::coop::CoopPoint;
use htm_runtime::sched::{Policy, Scheduler, ThreadState};

/// Line-granular step footprint: line id → whether the step wrote it.
/// [`htm_core::coop::EPOCH_LINE`] stands in for the hybrid commit epoch.
pub type Footprint = BTreeMap<u64, bool>;

/// Whether two step footprints conflict (both touch a line, at least one
/// write).
pub fn conflicts(a: &Footprint, b: &Footprint) -> bool {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    small.iter().any(|(line, &w)| match large.get(line) {
        Some(&w2) => w || w2,
        None => false,
    })
}

/// One scheduling decision: which thread was granted a step, out of which
/// candidates, and what the step touched.
#[derive(Clone, Debug)]
pub struct Decision {
    /// Thread granted the step.
    pub chosen: u32,
    /// Runnable candidates the choice was made from. For grants that only
    /// re-enabled blocked threads this is just `[chosen]` (no real branch).
    pub candidates: Vec<u32>,
    /// The candidates were blocked threads re-enabled for a deadlock probe.
    pub promoted: bool,
    /// Access footprint of the step (filled when the thread next pauses).
    pub fp: Footprint,
    /// The point that ended the step; `None` means the thread finished.
    pub end_point: Option<CoopPoint>,
}

/// Why the controller aborted a schedule before it ran to completion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedAbort {
    /// Every live thread stayed blocked across repeated probe rounds.
    Deadlock(String),
    /// The schedule exceeded the global step bound (livelock/starvation).
    StepBound(String),
    /// A forced schedule did not match the execution (internal error or a
    /// trace replayed against the wrong kernel/config).
    Divergence(String),
}

impl SchedAbort {
    pub fn message(&self) -> &str {
        match self {
            SchedAbort::Deadlock(m) | SchedAbort::StepBound(m) | SchedAbort::Divergence(m) => m,
        }
    }
}

/// Distinctive prefix of the panic the controller raises to tear a doomed
/// schedule down through the executor's worker-panic recovery.
pub const ABORT_PANIC_PREFIX: &str = "htm-model schedule abort";

/// The shared cooperative scheduler driven by the [`Explorer`] policy.
pub type Controller = Scheduler<Explorer>;

/// The explorer's grant policy and decision log for one execution.
pub struct Explorer {
    max_steps: u64,
    preemption_bound: Option<u32>,
    forced: Vec<u32>,
    log: Vec<Decision>,
    /// Index into `log` of each thread's open (unfinished) step.
    open: Vec<Option<usize>>,
    preemptions: u32,
    abort: Option<SchedAbort>,
}

impl Explorer {
    /// `forced` pins the first `forced.len()` grants; past the prefix the
    /// default policy picks (deterministically) the previously running
    /// thread if still runnable, else the lowest-numbered runnable thread.
    /// A `preemption_bound` caps preemptive context switches: a switch away
    /// from a still-runnable thread consumes one unit; once exhausted, a
    /// runnable thread keeps running until it blocks or finishes.
    pub fn new(
        nthreads: u32,
        forced: Vec<u32>,
        max_steps: u64,
        preemption_bound: Option<u32>,
    ) -> Explorer {
        Explorer {
            max_steps,
            preemption_bound,
            forced,
            log: Vec::new(),
            open: vec![None; nthreads as usize],
            preemptions: 0,
            abort: None,
        }
    }

    /// Drains the decision log and the abort verdict after the run.
    pub fn take_result(&mut self) -> (Vec<Decision>, Option<SchedAbort>) {
        (std::mem::take(&mut self.log), self.abort.clone())
    }

    /// Records `verdict` and returns the diagnostic every thread unwinds
    /// with; the explorer reads the structured verdict afterwards.
    fn abort(&mut self, verdict: SchedAbort) -> Result<u32, String> {
        let msg = format!("{ABORT_PANIC_PREFIX}: {}", verdict.message());
        self.abort = Some(verdict);
        Err(msg)
    }
}

impl Policy for Explorer {
    type Step = Footprint;

    fn record(fp: &mut Footprint, line: u64, write: bool) {
        *fp.entry(line).or_insert(false) |= write;
    }

    fn end_step(&mut self, tid: u32, point: Option<CoopPoint>, fp: Footprint) -> bool {
        // Accesses of a thread with no open step belong to no step.
        if let Some(i) = self.open[tid as usize].take() {
            self.log[i].fp = fp;
            self.log[i].end_point = point;
        }
        false
    }

    fn pick(
        &mut self,
        status: &[ThreadState],
        prev: Option<u32>,
        blocked_rounds: u32,
    ) -> Result<u32, String> {
        let n = status.len() as u32;
        let in_state = |want| (0..n).filter(|&t| status[t as usize] == want).collect::<Vec<u32>>();
        let ready = in_state(ThreadState::Ready);
        let promoted = ready.is_empty();
        let mut candidates = if promoted {
            let blocked = in_state(ThreadState::Blocked);
            if blocked_rounds > 16 * n + 16 {
                return self.abort(SchedAbort::Deadlock(format!(
                    "deadlock: threads {blocked:?} stayed blocked through {blocked_rounds} probe \
                     rounds"
                )));
            }
            // Probe one blocked thread (it will re-check its condition and
            // re-block if nothing changed); the others stay blocked so the
            // count of fruitless rounds keeps growing.
            blocked
        } else {
            ready
        };
        // A spent preemption budget pins the schedule to the running thread
        // until it blocks or finishes. Probe rounds are exempt: a probe is
        // not a preemption, and pinning it would starve the other blocked
        // threads of their re-check.
        if !promoted {
            if let Some(bound) = self.preemption_bound {
                if self.preemptions >= bound {
                    if let Some(p) = prev {
                        if candidates.contains(&p) {
                            candidates = vec![p];
                        }
                    }
                }
            }
        }
        let pos = self.log.len();
        let chosen = if pos < self.forced.len() {
            let t = self.forced[pos];
            if t >= n || status[t as usize] == ThreadState::Done {
                return self.abort(SchedAbort::Divergence(format!(
                    "forced schedule picks thread {t} at step {pos}, but it is not runnable"
                )));
            }
            t
        } else if promoted {
            // Rotate the probe across every blocked thread: one thread's
            // condition may hinge on another blocked thread being granted
            // first (a spin whose owner has since released), so declaring
            // deadlock is sound only after each thread re-checked
            // fruitlessly. Sticking with `prev` here would probe one
            // thread forever and report phantom deadlocks.
            candidates[(blocked_rounds - 1) as usize % candidates.len()]
        } else if let Some(p) = prev.filter(|p| candidates.contains(p)) {
            p
        } else {
            candidates[0]
        };
        if let Some(p) = prev {
            if chosen != p && status[p as usize] == ThreadState::Ready {
                self.preemptions += 1;
            }
        }
        if self.log.len() as u64 >= self.max_steps {
            return self.abort(SchedAbort::StepBound(format!(
                "starvation/livelock: schedule exceeded the {}-step bound",
                self.max_steps
            )));
        }
        // Re-enabled blocked threads carry no real branch: record the grant
        // as forced so the explorer does not branch over spin polls.
        let candidates = if promoted { vec![chosen] } else { candidates };
        self.log.push(Decision {
            chosen,
            candidates,
            promoted,
            fp: Footprint::new(),
            end_point: None,
        });
        self.open[chosen as usize] = Some(self.log.len() - 1);
        Ok(chosen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn controller(nthreads: u32, forced: Vec<u32>, max_steps: u64) -> Arc<Controller> {
        Controller::with_policy(nthreads, Explorer::new(nthreads, forced, max_steps, None))
    }

    type Body = Box<dyn FnOnce() + Send>;
    /// Runs one worker per body under a controller; returns the abort
    /// message each worker's body unwound with, if any.
    type Runner = fn(&Arc<Controller>, Vec<Body>) -> Vec<Option<String>>;

    /// A worker: hooks, finish guard and registration, then `body`.
    fn worker(ctrl: &Arc<Controller>, tid: u32, body: Body) -> Option<String> {
        let hooks = ctrl.hooks(tid);
        let _g = htm_core::coop::install(hooks);
        let _f = ctrl.finish_guard(tid);
        ctrl.register(tid);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
        // Swallow the abort panic: the tests assert on the structured
        // verdict instead.
        r.err().and_then(|p| p.downcast::<String>().ok()).map(|m| *m)
    }

    /// One scoped OS thread per worker.
    fn on_threads(ctrl: &Arc<Controller>, bodies: Vec<Body>) -> Vec<Option<String>> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = bodies
                .into_iter()
                .enumerate()
                .map(|(tid, body)| scope.spawn(move || worker(ctrl, tid as u32, body)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker exits")).collect()
        })
    }

    /// One fiber per worker, on this thread.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    fn on_fibers(ctrl: &Arc<Controller>, bodies: Vec<Body>) -> Vec<Option<String>> {
        let bodies = bodies
            .into_iter()
            .enumerate()
            .map(|(tid, body)| {
                Box::new(move || worker(ctrl, tid as u32, body))
                    as Box<dyn FnOnce() -> Option<String> + '_>
            })
            .collect();
        htm_runtime::fiber::run(bodies).into_iter().map(|r| r.expect("worker exits")).collect()
    }

    /// Every runner a worker can wait on: OS threads and, where the switch
    /// routine exists, fibers.
    fn runners() -> Vec<(&'static str, Runner)> {
        let mut runners: Vec<(&'static str, Runner)> = vec![("threads", on_threads)];
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        runners.push(("fibers", on_fibers));
        runners
    }

    #[test]
    fn serializes_two_threads_and_logs_footprints() {
        for (name, run) in runners() {
            let ctrl = controller(2, Vec::new(), 1000);
            let mk = |_tid: u32| {
                Box::new(move || {
                    htm_core::coop::access(7, false);
                    htm_core::coop::point(CoopPoint::BlockStart);
                    htm_core::coop::access(7, true);
                    htm_core::coop::point(CoopPoint::PreCommit);
                }) as Body
            };
            run(&ctrl, vec![mk(0), mk(1)]);
            let (log, abort) = ctrl.policy(Explorer::take_result);
            assert!(abort.is_none(), "{name}: clean run: {abort:?}");
            // Each thread: preamble-to-BlockStart, BlockStart-to-PreCommit,
            // PreCommit-to-done = 3 steps.
            assert_eq!(log.len(), 6, "{name}");
            let t0_writes: Vec<&Decision> =
                log.iter().filter(|d| d.chosen == 0 && d.fp.get(&7) == Some(&true)).collect();
            assert_eq!(t0_writes.len(), 1, "{name}: exactly one step carries thread 0's write");
            // Default policy without a forced prefix keeps running one
            // thread to completion before switching.
            let order: Vec<u32> = log.iter().map(|d| d.chosen).collect();
            assert_eq!(order, vec![0, 0, 0, 1, 1, 1], "{name}");
        }
    }

    #[test]
    fn forced_prefix_steers_the_interleaving() {
        for (name, run) in runners() {
            let ctrl = controller(2, vec![0, 1, 0, 1, 0, 1], 1000);
            let mk = |_tid: u32| {
                Box::new(move || {
                    htm_core::coop::point(CoopPoint::BlockStart);
                    htm_core::coop::point(CoopPoint::PreCommit);
                }) as Body
            };
            run(&ctrl, vec![mk(0), mk(1)]);
            let (log, abort) = ctrl.policy(Explorer::take_result);
            assert!(abort.is_none(), "{name}: clean run: {abort:?}");
            let order: Vec<u32> = log.iter().map(|d| d.chosen).collect();
            assert_eq!(order, vec![0, 1, 0, 1, 0, 1], "{name}");
        }
    }

    fn blocked_forever(_tid: u32) -> Body {
        Box::new(move || loop {
            htm_core::coop::point(CoopPoint::Blocked);
        })
    }

    #[test]
    fn all_blocked_threads_is_reported_as_deadlock() {
        for (name, run) in runners() {
            let ctrl = controller(2, Vec::new(), 10_000);
            run(&ctrl, (0..2).map(blocked_forever).collect());
            let (_, abort) = ctrl.policy(Explorer::take_result);
            assert!(matches!(abort, Some(SchedAbort::Deadlock(_))), "{name}: got {abort:?}");
        }
    }

    #[test]
    fn deadlock_unwinds_every_parked_thread() {
        for (name, run) in runners() {
            let ctrl = controller(3, Vec::new(), 10_000);
            let ends = run(&ctrl, (0..3).map(blocked_forever).collect());
            for (tid, msg) in ends.iter().enumerate() {
                let msg = msg.as_deref().unwrap_or_else(|| panic!("{name}: {tid} did not unwind"));
                assert!(msg.starts_with(ABORT_PANIC_PREFIX), "{name}: thread {tid}: {msg}");
            }
            let (_, abort) = ctrl.policy(Explorer::take_result);
            assert!(matches!(abort, Some(SchedAbort::Deadlock(_))), "{name}: got {abort:?}");
        }
    }

    #[test]
    fn runaway_schedule_hits_the_step_bound() {
        for (name, run) in runners() {
            let ctrl = controller(1, Vec::new(), 64);
            let body = Box::new(move || loop {
                htm_core::coop::point(CoopPoint::BlockStart);
            }) as Body;
            run(&ctrl, vec![body]);
            let (_, abort) = ctrl.policy(Explorer::take_result);
            assert!(matches!(abort, Some(SchedAbort::StepBound(_))), "{name}: got {abort:?}");
        }
    }

    #[test]
    fn footprint_conflict_is_symmetric_and_write_sensitive() {
        let fp = |entries: &[(u64, bool)]| entries.iter().copied().collect::<Footprint>();
        let r7 = fp(&[(7, false)]);
        let w7 = fp(&[(7, true)]);
        let w9 = fp(&[(9, true)]);
        assert!(!conflicts(&r7, &r7), "read-read never conflicts");
        assert!(conflicts(&r7, &w7) && conflicts(&w7, &r7));
        assert!(conflicts(&w7, &w7));
        assert!(!conflicts(&w7, &w9), "distinct lines never conflict");
    }
}

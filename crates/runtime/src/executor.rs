//! Experiment executor: builds a simulation instance and runs workloads
//! sequentially or across worker threads.
//!
//! The measurement protocol mirrors the paper's: for each (platform ×
//! benchmark × thread count), the workload runs once sequentially (the
//! speed-up baseline) and once with N workers under the retry mechanism;
//! speed-up = sequential cycles / max worker cycles.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use htm_core::{
    check_opacity, detect_races, panic_message, AbortedAttempt, ConflictPolicy, Geometry, Segment,
    SimAlloc, SimError, SimResult, SyncClock, ThreadAlloc, TxEvent, TxMemory, WordAddr,
};
use htm_hytm::FallbackPolicy;
use htm_machine::{Machine, MachineConfig};

use crate::ctx::{RetryPolicy, ThreadCtx, WatchdogConfig};
use crate::faults::{FaultPlan, FaultState};
use crate::lock::GlobalLock;
use crate::replay::{BlockRecord, ScheduleTrace, Turnstile};
use crate::stats::{RunStats, ThreadStats};
use crate::trace::SeqTracer;
use crate::tx::{ExecMode, TxnEngine};

/// Configuration of one simulation instance.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The platform model.
    pub machine: MachineConfig,
    /// Size of the simulated memory in 64-bit words.
    pub mem_words: u32,
    /// Conflict-resolution policy (requester-wins unless ablating).
    pub conflict_policy: ConflictPolicy,
    /// Base seed for the per-thread deterministic RNGs.
    pub seed: u64,
    /// Record per-transaction footprints in run statistics (costs memory).
    pub trace_footprints: bool,
    /// Deterministic fault-injection plan (empty by default: injects
    /// nothing, costs nothing, leaves runs bit-identical).
    pub faults: FaultPlan,
    /// Livelock-watchdog configuration (the default never fires under the
    /// default retry policies; see [`WatchdogConfig`]).
    pub watchdog: WatchdogConfig,
    /// What runs when the retry counters are exhausted: the global lock
    /// (irrevocable execution, the paper's mechanism), a NOrec-style
    /// software transaction, or a POWER8 rollback-only transaction with
    /// software-validated loads. See [`FallbackPolicy`].
    pub fallback: FallbackPolicy,
    /// Run the online correctness certifier: committed atomic blocks record
    /// their read/write sets and commit order, and each parallel run's
    /// [`RunStats`] carries a [`CertifyReport`](htm_core::CertifyReport)
    /// checking conflict-serializability and read freshness.
    pub certify: bool,
    /// Run the happens-before race sanitizer: every thread captures its
    /// accesses into vector-clocked segments, conflict aborts are
    /// attributed to their aggressor, and each parallel run's [`RunStats`]
    /// carries a [`RaceReport`](htm_core::RaceReport).
    pub sanitize: bool,
    /// Known initial memory image for the opacity check (addresses written
    /// by setup phases before the certified window). Addresses absent here
    /// are treated conservatively (any pre-first-write value passes); the
    /// model checker supplies its kernels' full working set so torn reads
    /// of initial values are caught too. Only consulted when `certify` is
    /// on.
    pub certify_init: Vec<(WordAddr, u64)>,
}

impl SimConfig {
    /// A configuration with workspace defaults (32 MiB simulated memory).
    pub fn new(machine: MachineConfig) -> SimConfig {
        SimConfig {
            machine,
            mem_words: 1 << 22,
            conflict_policy: ConflictPolicy::RequesterWins,
            seed: 0x5EED_0001,
            trace_footprints: false,
            faults: FaultPlan::none(),
            watchdog: WatchdogConfig::default(),
            fallback: FallbackPolicy::Lock,
            certify: false,
            sanitize: false,
            certify_init: Vec::new(),
        }
    }

    /// Sets the simulated memory size in words.
    pub fn mem_words(mut self, words: u32) -> SimConfig {
        self.mem_words = words;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> SimConfig {
        self.seed = seed;
        self
    }

    /// Sets the conflict-resolution policy.
    pub fn conflict_policy(mut self, p: ConflictPolicy) -> SimConfig {
        self.conflict_policy = p;
        self
    }

    /// Enables footprint tracing in worker statistics.
    pub fn trace_footprints(mut self, on: bool) -> SimConfig {
        self.trace_footprints = on;
        self
    }

    /// Sets the fault-injection plan.
    pub fn faults(mut self, plan: FaultPlan) -> SimConfig {
        self.faults = plan;
        self
    }

    /// Sets the livelock-watchdog configuration.
    pub fn watchdog(mut self, watchdog: WatchdogConfig) -> SimConfig {
        self.watchdog = watchdog;
        self
    }

    /// Sets the fallback policy (see [`SimConfig::fallback`]).
    pub fn fallback(mut self, fallback: FallbackPolicy) -> SimConfig {
        self.fallback = fallback;
        self
    }

    /// Enables the online correctness certifier (see [`SimConfig::certify`]).
    pub fn certify(mut self, on: bool) -> SimConfig {
        self.certify = on;
        self
    }

    /// Enables the happens-before race sanitizer (see
    /// [`SimConfig::sanitize`]).
    pub fn sanitize(mut self, on: bool) -> SimConfig {
        self.sanitize = on;
        self
    }

    /// Declares known initial memory values for the opacity check (see
    /// [`SimConfig::certify_init`]).
    pub fn certify_init(mut self, init: Vec<(WordAddr, u64)>) -> SimConfig {
        self.certify_init = init;
        self
    }
}

/// How a parallel run executes: normally, recording a schedule trace, or
/// replaying one.
#[derive(Clone, Copy)]
enum RunMode<'t> {
    Normal,
    Record,
    Replay(&'t ScheduleTrace),
}

/// What one worker thread hands back to the executor.
struct WorkerOut {
    stats: ThreadStats,
    cert: Option<(Vec<TxEvent>, Vec<AbortedAttempt>, bool)>,
    hb: Option<(Vec<Segment>, bool)>,
    recording: Vec<BlockRecord>,
    replay_leftover: usize,
}

/// How one worker ended: its result, or the payload of a panic that
/// escaped [`run_worker`].
type WorkerEnd = std::thread::Result<SimResult<WorkerOut>>;

/// One worker's body on either runner: runs `work`, then hands back the
/// worker's outputs, or cleans up after a panic and reports it; then
/// unregisters the worker from its core.
fn run_worker<F>(mut ctx: ThreadCtx, work: &F, machine: &Machine) -> SimResult<WorkerOut>
where
    F: Fn(&mut ThreadCtx),
{
    let tid = ctx.thread_id();
    let result = match catch_unwind(AssertUnwindSafe(|| work(&mut ctx))) {
        Ok(()) => Ok(WorkerOut {
            cert: ctx.engine_mut().take_cert(),
            hb: ctx.engine_mut().take_hb(),
            recording: ctx.take_recording(),
            replay_leftover: ctx.replay_leftover(),
            stats: ctx.take_stats(),
        }),
        Err(payload) => {
            // Clean up what the dead worker left behind so the siblings can
            // finish; a second panic here must not escape either.
            let _ = catch_unwind(AssertUnwindSafe(|| ctx.panic_cleanup()));
            Err(SimError::WorkerPanicked { thread: tid, message: panic_message(payload.as_ref()) })
        }
    };
    machine.cores().thread_stopped(machine.config().core_of(tid));
    result
}

/// One simulation instance: memory + platform + allocator + global lock.
///
/// Benchmarks build their data structures through [`Sim::seq_ctx`] (or an
/// initial parallel phase) and then run measurement phases with
/// [`Sim::run_parallel`].
pub struct Sim {
    mem: Arc<TxMemory>,
    machine: Arc<Machine>,
    alloc: Arc<SimAlloc>,
    lock: GlobalLock,
    cfg: SimConfig,
    constrained_arbiter: Arc<Mutex<()>>,
    /// Set by [`Sim::declare_cooperative`].
    cooperative: AtomicBool,
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("machine", &self.machine.config().name)
            .field("mem_words", &self.cfg.mem_words)
            .finish()
    }
}

impl Sim {
    /// Builds a simulation instance, validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the fault plan contains a
    /// probability outside `[0, 1]`.
    pub fn try_new(cfg: SimConfig) -> SimResult<Sim> {
        cfg.faults.validate()?;
        let geometry = Geometry::new(cfg.machine.granularity);
        let mem = Arc::new(TxMemory::new(cfg.mem_words, geometry));
        let machine = Arc::new(Machine::new(cfg.machine.clone()));
        if cfg.faults.spec_id_drain > 0 {
            if let Some(pool) = machine.spec_ids() {
                pool.drain(cfg.faults.spec_id_drain);
            }
        }
        let alloc = Arc::new(SimAlloc::new(1, cfg.mem_words));
        let lock = GlobalLock::new(&alloc, cfg.machine.granularity);
        Ok(Sim {
            mem,
            machine,
            alloc,
            lock,
            cfg,
            constrained_arbiter: Arc::new(Mutex::new(())),
            cooperative: AtomicBool::new(false),
        })
    }

    /// Builds a simulation instance.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; use [`Sim::try_new`] where the
    /// caller wants to handle that as an error.
    pub fn new(cfg: SimConfig) -> Sim {
        Sim::try_new(cfg).unwrap_or_else(|e| panic!("Sim::new: {e}"))
    }

    /// Convenience: a simulation of `machine` with default settings.
    pub fn of(machine: MachineConfig) -> Sim {
        Sim::new(SimConfig::new(machine))
    }

    /// Declares this simulation's parallel runs cooperative: every worker
    /// runs under one [`sched::Scheduler`](crate::sched::Scheduler), so one
    /// worker runs at a time and none waits for another except through a
    /// scheduler grant. Its runs then execute their workers as fibers on
    /// the calling thread ([`fiber`](crate::fiber)), where a grant is a
    /// register switch instead of an OS-thread wake; simulated results do
    /// not change. [`Sim::replay`] keeps OS threads, as does every run on
    /// targets other than x86_64 Linux.
    ///
    /// Workers that wait for each other any other way (a spin on shared
    /// memory without a scheduler pause) would hang on fibers: free-running
    /// workloads must not declare this.
    pub fn declare_cooperative(&self) {
        self.cooperative.store(true, Ordering::Relaxed);
    }

    /// The simulated memory.
    pub fn mem(&self) -> &Arc<TxMemory> {
        &self.mem
    }

    /// The global allocator.
    pub fn alloc(&self) -> &Arc<SimAlloc> {
        &self.alloc
    }

    /// The platform model.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// The global fallback lock.
    pub fn lock(&self) -> GlobalLock {
        self.lock
    }

    /// Reads a word of simulated memory (setup/verification).
    pub fn read_word(&self, addr: WordAddr) -> u64 {
        self.mem.read_word(addr)
    }

    /// Writes a word of simulated memory (setup/verification).
    pub fn write_word(&self, addr: WordAddr, value: u64) {
        self.mem.write_word(addr, value)
    }

    fn make_ctx(
        &self,
        thread_id: u32,
        num_threads: u32,
        mode: ExecMode,
        policy: RetryPolicy,
        inject_faults: bool,
    ) -> ThreadCtx {
        // The sequential baseline is never fault-injected: it defines
        // correct output and the speed-up denominator. Replay strips faults
        // too — the recorded abort stream already contains their effects.
        let faults = if mode == ExecMode::Hardware && inject_faults {
            FaultState::new(&self.cfg.faults, thread_id)
        } else {
            None
        };
        let eng = TxnEngine::new(
            Arc::clone(&self.mem),
            Arc::clone(&self.machine),
            ThreadAlloc::new(Arc::clone(&self.alloc)),
            thread_id,
            num_threads,
            mode,
            self.cfg.conflict_policy,
            self.cfg.seed,
            self.cfg.trace_footprints,
            mode == ExecMode::Hardware && num_threads > 1,
            faults,
        );
        ThreadCtx::new(
            eng,
            self.lock,
            policy,
            self.cfg.fallback,
            Arc::clone(&self.constrained_arbiter),
            self.cfg.watchdog,
        )
    }

    /// A sequential-mode context on the calling thread (baseline runs and
    /// setup phases). Its `atomic` runs bodies directly with no
    /// transactional overhead.
    pub fn seq_ctx(&self) -> ThreadCtx {
        self.make_ctx(0, 1, ExecMode::Sequential, RetryPolicy::default(), false)
    }

    /// A sequential context that records per-block footprints at the given
    /// line granularities (the Figure 10/11 trace tool).
    pub fn seq_ctx_traced(&self, granularities: &[u32]) -> ThreadCtx {
        let mut ctx = self.seq_ctx();
        ctx.engine_mut().tracer = Some(SeqTracer::new(granularities));
        ctx
    }

    /// Like [`Sim::seq_ctx_traced`], but the tracer also keeps each
    /// block's distinct line IDs ([`SeqTracer::line_sets`]) for static
    /// capacity prediction.
    pub fn seq_ctx_traced_sets(&self, granularities: &[u32]) -> ThreadCtx {
        let mut ctx = self.seq_ctx();
        ctx.engine_mut().tracer = Some(SeqTracer::new(granularities).keep_line_sets());
        ctx
    }

    /// Takes the footprint tracer out of a traced context after the run, or
    /// `None` if the context was not created with [`Sim::seq_ctx_traced`]
    /// (or the tracer was already taken).
    pub fn try_take_tracer(&self, ctx: &mut ThreadCtx) -> Option<SeqTracer> {
        ctx.engine_mut().tracer.take()
    }

    /// Takes the footprint tracer out of a traced context after the run.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` was not created with [`Sim::seq_ctx_traced`].
    pub fn take_tracer(&self, ctx: &mut ThreadCtx) -> SeqTracer {
        self.try_take_tracer(ctx).expect("context has no tracer")
    }

    /// FNV-1a digest of the simulated memory (cheap cross-run equality
    /// check for the differential oracle and replay tests).
    ///
    /// The global lock's simulated-release-timestamp and acquisition-count
    /// slots are excluded: both record *instrumentation* (timing, and how
    /// often the lock was taken — a failed STM validation acquires it
    /// without committing anything), which legitimately differs between a
    /// run and its replay, not program data.
    pub fn memory_digest(&self) -> u64 {
        self.mem.digest_excluding(&[self.lock.time_slot(), self.lock.count_slot()])
    }

    /// Runs `work` on `num_threads` workers under the Figure-1 retry
    /// mechanism with the given policy, returning aggregated statistics.
    ///
    /// `work` receives each worker's [`ThreadCtx`]; the join at the end is
    /// the phase barrier.
    ///
    /// # Panics
    ///
    /// Panics on any error [`Sim::try_run_parallel`] reports: too many
    /// workers for the platform, or a worker panic.
    pub fn run_parallel<F>(&self, num_threads: u32, policy: RetryPolicy, work: F) -> RunStats
    where
        F: Fn(&mut ThreadCtx) + Sync,
    {
        self.try_run_parallel(num_threads, policy, work)
            .unwrap_or_else(|e| panic!("run_parallel: {e}"))
    }

    /// Like [`Sim::run_parallel`], but reports failures as structured
    /// errors instead of panicking.
    ///
    /// A panicking worker cannot hang the run: the panic is caught, the
    /// worker's in-flight transaction is rolled back, a global lock it held
    /// is force-released (so sibling workers still terminate), and the first
    /// panic is reported as [`SimError::WorkerPanicked`].
    ///
    /// # Errors
    ///
    /// [`SimError::TooManyThreads`] when `num_threads` exceeds the
    /// platform's hardware threads or the simulator's slot limit;
    /// [`SimError::InvalidConfig`] when `num_threads` is 0;
    /// [`SimError::WorkerPanicked`] when a worker panicked.
    pub fn try_run_parallel<F>(
        &self,
        num_threads: u32,
        policy: RetryPolicy,
        work: F,
    ) -> SimResult<RunStats>
    where
        F: Fn(&mut ThreadCtx) + Sync,
    {
        self.run_parallel_core(num_threads, policy, work, RunMode::Normal).map(|(stats, _)| stats)
    }

    /// Runs `work` like [`Sim::try_run_parallel`] while recording every
    /// thread's atomic-block decision stream, returning the statistics plus
    /// a [`ScheduleTrace`] that [`Sim::replay`] can re-execute
    /// deterministically.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Sim::try_run_parallel`].
    pub fn record_parallel<F>(
        &self,
        num_threads: u32,
        policy: RetryPolicy,
        work: F,
    ) -> SimResult<(RunStats, ScheduleTrace)>
    where
        F: Fn(&mut ThreadCtx) + Sync,
    {
        self.run_parallel_core(num_threads, policy, work, RunMode::Record)
            .map(|(stats, trace)| (stats, trace.expect("record mode produces a trace")))
    }

    /// Re-executes a recorded run: `work` must be the same workload the
    /// trace was recorded from, on a freshly-built identical `Sim`. Aborted
    /// attempts are re-applied from the trace (not re-executed) and the
    /// committing bodies run serialized in recorded commit order, so the
    /// deterministic [`RunStats`] counters (commits, aborts, injected
    /// faults, watchdog trips) and the final memory image match the
    /// recorded run. Fault injection, the watchdog and zEC12 restriction
    /// draws are disabled — those decisions are already in the trace.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Sim::try_run_parallel`], plus
    /// [`SimError::InvalidConfig`] when the workload does not consume
    /// exactly the recorded blocks (replay divergence).
    pub fn replay<F>(
        &self,
        trace: &ScheduleTrace,
        policy: RetryPolicy,
        work: F,
    ) -> SimResult<RunStats>
    where
        F: Fn(&mut ThreadCtx) + Sync,
    {
        self.run_parallel_core(trace.threads(), policy, work, RunMode::Replay(trace))
            .map(|(stats, _)| stats)
    }

    fn run_parallel_core<F>(
        &self,
        num_threads: u32,
        policy: RetryPolicy,
        work: F,
        mode: RunMode<'_>,
    ) -> SimResult<(RunStats, Option<ScheduleTrace>)>
    where
        F: Fn(&mut ThreadCtx) + Sync,
    {
        if num_threads < 1 {
            return Err(SimError::InvalidConfig("need at least one worker".into()));
        }
        if num_threads > self.machine.config().hw_threads() {
            return Err(SimError::TooManyThreads {
                requested: num_threads,
                available: self.machine.config().hw_threads(),
                limit: format!("{} (hardware threads)", self.machine.config().name),
            });
        }
        if num_threads as usize > htm_core::MAX_SLOTS {
            return Err(SimError::TooManyThreads {
                requested: num_threads,
                available: htm_core::MAX_SLOTS as u32,
                limit: "the simulator slot table".into(),
            });
        }
        let record = matches!(mode, RunMode::Record);
        let replay = matches!(mode, RunMode::Replay(_));
        // One commit clock per run: certification and recording both stamp
        // each commit's position in the global serialization order. In the
        // default configuration neither is active and the engines keep their
        // zero-overhead path.
        let commit_clock = (self.cfg.certify || record).then(|| Arc::new(AtomicU64::new(1)));
        // One vector clock for the global fallback lock (sanitizer runs
        // only): irrevocable sections release/acquire through it.
        let lock_sync = self.cfg.sanitize.then(|| Arc::new(SyncClock::new()));
        // One hybrid epoch (a sequence lock over in-place write-backs) per
        // run, shared by every engine, created only when a software fallback
        // tier can run: with the default lock fallback the epoch stays
        // `None` and every engine keeps its zero-overhead read path.
        let hybrid_epoch =
            self.cfg.fallback.uses_software_commits().then(|| Arc::new(AtomicU64::new(0)));
        let turnstile = Turnstile::new();
        let ctxs: Vec<ThreadCtx> = (0..num_threads)
            .map(|tid| {
                let mut ctx = self.make_ctx(tid, num_threads, ExecMode::Hardware, policy, !replay);
                if let Some(clock) = &commit_clock {
                    ctx.engine_mut().set_commit_clock(Arc::clone(clock));
                }
                if let Some(epoch) = &hybrid_epoch {
                    ctx.engine_mut().set_hybrid_epoch(Arc::clone(epoch));
                }
                if self.cfg.certify {
                    ctx.engine_mut().enable_certify();
                }
                if let Some(sync) = &lock_sync {
                    ctx.enable_sanitize(Arc::clone(sync));
                }
                match mode {
                    RunMode::Normal => {}
                    RunMode::Record => ctx.enable_recording(),
                    RunMode::Replay(trace) => {
                        ctx.enable_replay(trace.thread_blocks(tid), turnstile.clone());
                    }
                }
                ctx
            })
            .collect();
        let ends = match () {
            // A cooperative run's workers take turns under one scheduler, so
            // they run as fibers on this thread. Replay's turnstile spins
            // across threads, so replays keep OS threads.
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            () if self.cooperative.load(Ordering::Relaxed) && !replay => {
                self.run_on_fibers(ctxs, &work)
            }
            () => self.run_on_threads(ctxs, &work),
        };
        let mut outs: Vec<WorkerOut> = Vec::with_capacity(num_threads as usize);
        let mut first_error: Option<SimError> = None;
        for end in ends {
            // The worker body catches worker panics, so a worker only ends
            // in a panic if the *cleanup* path itself died; surface that as
            // a panic message rather than unwinding.
            match end {
                Ok(Ok(o)) => outs.push(o),
                Ok(Err(e)) => {
                    first_error.get_or_insert(e);
                }
                Err(payload) => {
                    first_error.get_or_insert(SimError::WorkerPanicked {
                        thread: u32::MAX,
                        message: panic_message(payload.as_ref()),
                    });
                }
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        let leftover: usize = outs.iter().map(|o| o.replay_leftover).sum();
        if leftover > 0 {
            return Err(SimError::InvalidConfig(format!(
                "replay diverged: {leftover} recorded atomic blocks were never consumed \
                 (the workload does not match the trace)"
            )));
        }
        let mut threads = Vec::with_capacity(outs.len());
        let mut per_thread = Vec::with_capacity(outs.len());
        let mut events: Vec<TxEvent> = Vec::new();
        let mut aborted: Vec<AbortedAttempt> = Vec::new();
        let mut truncated = false;
        let mut segments: Vec<Segment> = Vec::new();
        let mut hb_truncated = false;
        for o in outs {
            threads.push(o.stats);
            per_thread.push(o.recording);
            if let Some((ev, ab, tr)) = o.cert {
                events.extend(ev);
                aborted.extend(ab);
                truncated |= tr;
            }
            if let Some((segs, tr)) = o.hb {
                segments.extend(segs);
                hb_truncated |= tr;
            }
        }
        let mut stats = RunStats::new(threads);
        if self.cfg.certify {
            stats.opacity =
                Some(check_opacity(&events, &aborted, &self.cfg.certify_init, truncated));
            stats.certify =
                Some(crate::certify::certify(events, truncated, self.lock.acquisitions(&self.mem)));
        }
        if self.cfg.sanitize {
            stats.race = Some(detect_races(segments, hb_truncated));
        }
        let trace = record.then(|| ScheduleTrace::assemble(self.cfg.seed, per_thread));
        Ok((stats, trace))
    }

    /// Runs one OS thread per worker context.
    fn run_on_threads<F>(&self, ctxs: Vec<ThreadCtx>, work: &F) -> Vec<WorkerEnd>
    where
        F: Fn(&mut ThreadCtx) + Sync,
    {
        // All workers start together: without this, thread-spawn skew lets
        // early workers finish short workloads before any concurrency (and
        // hence any conflict) materializes.
        let start = std::sync::Barrier::new(ctxs.len());
        let (start, machine) = (&start, &*self.machine);
        std::thread::scope(|scope| {
            let handles: Vec<_> = ctxs
                .into_iter()
                .map(|ctx| {
                    scope.spawn(move || {
                        machine.cores().thread_started(machine.config().core_of(ctx.thread_id()));
                        start.wait();
                        run_worker(ctx, work, machine)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        })
    }

    /// Runs every worker context as a fiber on the calling thread (see
    /// [`Sim::declare_cooperative`]).
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    fn run_on_fibers<F>(&self, ctxs: Vec<ThreadCtx>, work: &F) -> Vec<WorkerEnd>
    where
        F: Fn(&mut ThreadCtx) + Sync,
    {
        // Every worker is running before the first one starts, as behind
        // the OS-thread runner's start barrier.
        let machine = &*self.machine;
        for ctx in &ctxs {
            machine.cores().thread_started(machine.config().core_of(ctx.thread_id()));
        }
        crate::fiber::run(
            ctxs.into_iter()
                .map(|ctx| {
                    Box::new(move || run_worker(ctx, work, machine))
                        as Box<dyn FnOnce() -> SimResult<WorkerOut> + '_>
                })
                .collect(),
        )
    }

    /// Runs `work` once sequentially (the speed-up denominator), returning
    /// the simulated cycles consumed.
    pub fn run_sequential<F>(&self, work: F) -> u64
    where
        F: FnOnce(&mut ThreadCtx),
    {
        let mut ctx = self.seq_ctx();
        work(&mut ctx);
        ctx.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm_core::AbortCategory;
    use htm_machine::Platform;

    fn sim(p: Platform) -> Sim {
        Sim::new(SimConfig::new(p.config()).mem_words(1 << 18))
    }

    #[test]
    fn sequential_counter_increment() {
        let s = sim(Platform::IntelCore);
        let a = s.alloc().alloc(1);
        let cycles = s.run_sequential(|ctx| {
            for _ in 0..100 {
                ctx.atomic(|tx| {
                    let v = tx.load(a)?;
                    tx.store(a, v + 1)
                });
            }
        });
        assert_eq!(s.read_word(a), 100);
        assert!(cycles > 0);
    }

    #[test]
    fn parallel_counter_is_exact_on_every_platform() {
        for p in Platform::ALL {
            let s = sim(p);
            let a = s.alloc().alloc(1);
            let stats = s.run_parallel(4, RetryPolicy::default(), |ctx| {
                for _ in 0..500 {
                    ctx.atomic(|tx| {
                        let v = tx.load(a)?;
                        tx.store(a, v + 1)
                    });
                }
            });
            assert_eq!(s.read_word(a), 2000, "{p}: lost updates");
            assert_eq!(stats.committed_blocks(), 2000, "{p}");
        }
    }

    #[test]
    fn contended_counter_records_aborts() {
        let s = sim(Platform::IntelCore);
        let a = s.alloc().alloc(1);
        let stats = s.run_parallel(4, RetryPolicy::default(), |ctx| {
            for _ in 0..2000 {
                ctx.atomic(|tx| {
                    let v = tx.load(a)?;
                    tx.store(a, v + 1)
                });
            }
        });
        assert_eq!(s.read_word(a), 8000);
        assert!(stats.total_aborts() > 0, "a single hot word must conflict");
        assert!(stats.aborts_in(AbortCategory::DataConflict) > 0);
    }

    #[test]
    fn disjoint_work_scales_without_aborts_or_serialization() {
        let s = sim(Platform::Zec12);
        let n = 4u32;
        // One isolated line (256 B = 32 words) per thread.
        let base = s.alloc().alloc_aligned(32 * n, 256);
        let stats = s.run_parallel(n, RetryPolicy::default(), |ctx| {
            let a = base.offset(32 * ctx.thread_id());
            for _ in 0..1000 {
                ctx.atomic(|tx| {
                    let v = tx.load(a)?;
                    tx.store(a, v + 1)
                });
            }
        });
        // zEC12's modelled "cache-fetch-related" transient aborts can fire
        // even on disjoint data; what must be zero are data conflicts and
        // capacity overflows.
        assert_eq!(
            stats.aborts_in(AbortCategory::DataConflict),
            0,
            "disjoint lines must not conflict"
        );
        assert_eq!(stats.aborts_in(AbortCategory::Capacity), 0);
        for t in 0..n {
            assert_eq!(s.read_word(base.offset(32 * t)), 1000);
        }
    }

    #[test]
    fn capacity_bound_workload_falls_back_to_lock_on_power8() {
        let s = sim(Platform::Power8);
        // 200 lines of 128 B — way over the 64-entry TMCAM.
        let big = s.alloc().alloc_aligned(200 * 16, 128);
        // Single worker: with more, a concurrent holder of the fallback
        // lock can re-classify the capacity abort as a lock conflict.
        let stats = s.run_parallel(1, RetryPolicy::default(), |ctx| {
            for _ in 0..20 {
                ctx.atomic(|tx| {
                    for i in 0..200u32 {
                        let addr = big.offset(i * 16);
                        let v = tx.load(addr)?;
                        tx.store(addr, v + 1)?;
                    }
                    Ok(())
                });
            }
        });
        assert!(stats.aborts_in(AbortCategory::Capacity) > 0, "TMCAM must overflow");
        assert!(stats.irrevocable_commits() > 0, "must serialize to make progress");
        assert_eq!(s.read_word(big), 20, "updates must not be lost");
    }

    #[test]
    fn same_workload_fits_in_zec12_load_capacity() {
        let s = sim(Platform::Zec12);
        let big = s.alloc().alloc_aligned(200 * 32, 256);
        let stats = s.run_parallel(1, RetryPolicy::default(), |ctx| {
            for _ in 0..20 {
                ctx.atomic(|tx| {
                    // 200 lines read-only: fits the 1 MB read capacity and
                    // stays under the 8 KB store budget with 8 stores.
                    let mut sum = 0u64;
                    for i in 0..200u32 {
                        sum = sum.wrapping_add(tx.load(big.offset(i * 32))?);
                    }
                    for i in 0..8u32 {
                        tx.store(big.offset(i * 32), sum)?;
                    }
                    Ok(())
                });
            }
        });
        assert_eq!(stats.aborts_in(AbortCategory::Capacity), 0);
    }

    #[test]
    fn thread_count_respects_hardware_limit() {
        let s = sim(Platform::IntelCore);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.run_parallel(16, RetryPolicy::default(), |_| {});
        }));
        assert!(r.is_err(), "Intel Core has only 8 hardware threads");
    }

    #[test]
    fn try_run_parallel_reports_thread_limit_as_error() {
        let s = sim(Platform::IntelCore);
        match s.try_run_parallel(16, RetryPolicy::default(), |_| {}) {
            Err(SimError::TooManyThreads { requested: 16, available: 8, .. }) => {}
            other => panic!("expected TooManyThreads, got {other:?}"),
        }
        assert!(matches!(
            s.try_run_parallel(0, RetryPolicy::default(), |_| {}),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn worker_panic_is_caught_and_siblings_complete() {
        let s = sim(Platform::IntelCore);
        let a = s.alloc().alloc(1);
        let err = s
            .try_run_parallel(4, RetryPolicy::default(), |ctx| {
                if ctx.thread_id() == 2 {
                    panic!("injected test panic");
                }
                for _ in 0..200 {
                    ctx.atomic(|tx| {
                        let v = tx.load(a)?;
                        tx.store(a, v + 1)
                    });
                }
            })
            .unwrap_err();
        match err {
            SimError::WorkerPanicked { thread: 2, ref message } => {
                assert!(message.contains("injected test panic"), "{message}");
            }
            other => panic!("expected WorkerPanicked from thread 2, got {other:?}"),
        }
        // The three surviving workers finished their full workload: the
        // dead thread wedged neither the lock nor the conflict tables.
        assert_eq!(s.read_word(a), 600);
    }

    #[test]
    fn panicking_lock_holder_does_not_hang_siblings() {
        let s = sim(Platform::IntelCore);
        let a = s.alloc().alloc(1);
        // Thread 0 panics *inside* an irrevocable section (forced by a
        // zero-retry policy under guaranteed contention on one word), i.e.
        // while holding the global lock.
        let err = s
            .try_run_parallel(4, RetryPolicy::uniform(0), |ctx| {
                for i in 0..200u64 {
                    ctx.atomic(|tx| {
                        let v = tx.load(a)?;
                        tx.store(a, v + 1)
                    });
                    if ctx.thread_id() == 0 && i == 50 {
                        panic!("holder dies");
                    }
                }
            })
            .unwrap_err();
        assert!(matches!(err, SimError::WorkerPanicked { thread: 0, .. }), "{err:?}");
        assert!(!s.lock().is_locked(s.mem()), "panic recovery must free the global lock");
    }

    /// Runs `body` on `n` workers of a cooperative `Sim` under a round-robin
    /// scheduler (fibers on x86_64 Linux).
    fn cooperative_run(
        s: &Sim,
        n: u32,
        body: impl Fn(&mut ThreadCtx) + Sync,
    ) -> SimResult<RunStats> {
        let sched = crate::sched::RoundRobin::new(n);
        s.declare_cooperative();
        s.try_run_parallel(n, RetryPolicy::default(), |ctx| {
            let tid = ctx.thread_id();
            let _hooks = htm_core::coop::install(sched.hooks(tid));
            let _done = sched.finish_guard(tid);
            sched.register(tid);
            body(ctx);
        })
    }

    #[test]
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    fn cooperative_workers_run_as_fibers_on_the_calling_thread() {
        let s = sim(Platform::IntelCore);
        let caller = std::thread::current().id();
        let on_caller = std::sync::atomic::AtomicU32::new(0);
        cooperative_run(&s, 4, |_| {
            if std::thread::current().id() == caller {
                on_caller.fetch_add(1, Ordering::Relaxed);
            }
        })
        .expect("run");
        assert_eq!(on_caller.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn worker_panic_on_fibers_is_named_and_siblings_finish() {
        let s = sim(Platform::IntelCore);
        let a = s.alloc().alloc(1);
        let err = cooperative_run(&s, 4, |ctx| {
            for i in 0..200 {
                ctx.atomic(|tx| {
                    let v = tx.load(a)?;
                    tx.store(a, v + 1)
                });
                if ctx.thread_id() == 2 && i == 50 {
                    panic!("injected fiber panic");
                }
            }
        })
        .unwrap_err();
        match err {
            SimError::WorkerPanicked { thread: 2, ref message } => {
                assert!(message.contains("injected fiber panic"), "{message}");
            }
            other => panic!("expected WorkerPanicked from thread 2, got {other:?}"),
        }
        // The three siblings ran their full workload, and the dead worker
        // committed 51 blocks before it panicked.
        assert_eq!(s.read_word(a), 3 * 200 + 51);
    }

    #[test]
    fn round_robin_deadlock_on_fibers_returns_its_diagnostic() {
        let s = sim(Platform::IntelCore);
        let err = cooperative_run(&s, 3, |_| loop {
            htm_core::coop::point(htm_core::coop::CoopPoint::Blocked);
        })
        .unwrap_err();
        match err {
            SimError::WorkerPanicked { message, .. } => {
                assert!(message.contains("svc scheduler deadlock"), "{message}");
            }
            other => panic!("expected the scheduler's deadlock diagnostic, got {other:?}"),
        }
    }

    #[test]
    fn invalid_fault_plan_is_rejected_at_build() {
        let cfg = SimConfig::new(Platform::IntelCore.config())
            .faults(crate::FaultPlan::none().doom_at_commit(2.0));
        assert!(matches!(Sim::try_new(cfg), Err(SimError::InvalidConfig(_))));
    }

    fn faulty_sim(p: Platform, plan: crate::FaultPlan) -> Sim {
        Sim::new(SimConfig::new(p.config()).mem_words(1 << 18).faults(plan))
    }

    #[test]
    fn all_fault_kinds_preserve_correct_results() {
        let plan = crate::FaultPlan::none()
            .transient_abort_per_begin(0.2)
            .capacity_abort_per_begin(0.1)
            .transient_abort_per_access(0.05)
            .doom_at_commit(0.1)
            .lock_release_delay(200);
        for p in Platform::ALL {
            let s = faulty_sim(p, plan);
            let a = s.alloc().alloc(1);
            let stats = s.run_parallel(4, RetryPolicy::default(), |ctx| {
                for _ in 0..300 {
                    ctx.atomic(|tx| {
                        let v = tx.load(a)?;
                        tx.store(a, v + 1)
                    });
                }
            });
            assert_eq!(s.read_word(a), 1200, "{p}: faults must not corrupt results");
            assert_eq!(stats.committed_blocks(), 1200, "{p}");
            assert!(stats.injected_faults() > 0, "{p}: plan must actually fire");
        }
    }

    #[test]
    fn persistent_abort_storm_degrades_to_lock_and_completes() {
        // 100% capacity aborts: no hardware transaction can ever commit, so
        // every block must reach the irrevocable fallback.
        let plan = crate::FaultPlan::none().capacity_abort_per_begin(1.0);
        let s = faulty_sim(Platform::IntelCore, plan);
        let a = s.alloc().alloc(1);
        let stats = s.run_parallel(4, RetryPolicy::default(), |ctx| {
            for _ in 0..100 {
                ctx.atomic(|tx| {
                    let v = tx.load(a)?;
                    tx.store(a, v + 1)
                });
            }
        });
        assert_eq!(s.read_word(a), 400);
        assert_eq!(stats.hw_commits(), 0, "no hardware commit can survive the storm");
        assert_eq!(stats.irrevocable_commits(), 400);
    }

    #[test]
    fn abort_storm_trips_the_watchdog_under_huge_retry_budgets() {
        // With effectively unbounded retries the Figure-1 counters would
        // spin ~forever on a 100% abort plan; the watchdog must cut in.
        let plan = crate::FaultPlan::none().transient_abort_per_begin(1.0);
        let cfg =
            SimConfig::new(Platform::IntelCore.config()).mem_words(1 << 18).faults(plan).watchdog(
                WatchdogConfig { starvation_bound: 16, degraded_blocks: 4, escalation_cap: 3 },
            );
        let s = Sim::new(cfg);
        let a = s.alloc().alloc(1);
        let stats = s.run_parallel(2, RetryPolicy::uniform(1_000_000), |ctx| {
            for _ in 0..50 {
                ctx.atomic(|tx| {
                    let v = tx.load(a)?;
                    tx.store(a, v + 1)
                });
            }
        });
        assert_eq!(s.read_word(a), 100);
        assert!(stats.watchdog_trips() > 0, "the watchdog must have fired");
        assert!(stats.degraded_commits() > 0);
        assert!(stats.degraded_cycles() > 0);
        assert_eq!(stats.committed_blocks(), 100);
    }

    #[test]
    fn spec_id_faults_only_affect_platforms_with_a_pool() {
        let plan = crate::FaultPlan::none()
            .spec_id_abort_per_begin(0.3)
            .spec_id_stall_per_begin(0.3)
            .spec_id_drain(120);
        for p in [Platform::BlueGeneQ, Platform::IntelCore] {
            let s = faulty_sim(p, plan);
            let a = s.alloc().alloc(1);
            let stats = s.run_parallel(4, RetryPolicy::default(), |ctx| {
                for _ in 0..200 {
                    ctx.atomic(|tx| {
                        let v = tx.load(a)?;
                        tx.store(a, v + 1)
                    });
                }
            });
            assert_eq!(s.read_word(a), 800, "{p}");
            if p == Platform::BlueGeneQ {
                assert!(stats.injected_faults() > 0);
                assert!(
                    stats.threads.iter().map(|t| t.spec_id_wait_cycles).sum::<u64>() > 0,
                    "drained pool + forced stalls must cost spec-id wait time"
                );
            }
        }
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_default() {
        let run = |with_explicit_empty_plan: bool| {
            let mut cfg = SimConfig::new(Platform::IntelCore.config()).mem_words(1 << 18).seed(7);
            if with_explicit_empty_plan {
                cfg = cfg.faults(crate::FaultPlan::none());
            }
            let s = Sim::new(cfg);
            let a = s.alloc().alloc(1);
            let stats = s.run_parallel(4, RetryPolicy::default(), |ctx| {
                for _ in 0..300 {
                    ctx.atomic(|tx| {
                        let v = tx.load(a)?;
                        tx.store(a, v + 1)
                    });
                }
            });
            (stats.committed_blocks(), stats.injected_faults(), s.read_word(a))
        };
        // Committed blocks and results must agree exactly; cycle counts are
        // schedule-dependent under real threads, so they are not compared.
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn traced_sequential_run_yields_footprints() {
        let s = sim(Platform::IntelCore);
        let a = s.alloc().alloc(64);
        let mut ctx = s.seq_ctx_traced(&[64, 256]);
        ctx.atomic(|tx| {
            for i in 0..16u32 {
                let v = tx.load(a.offset(i))?;
                tx.store(a.offset(i), v + 1)?;
            }
            Ok(())
        });
        let tracer = s.take_tracer(&mut ctx);
        // 16 words = 128 bytes: 2 lines at 64 B, 1 line at 256 B.
        assert_eq!(tracer.samples(0).last(), Some(&(2, 2)));
        assert_eq!(tracer.samples(1).last(), Some(&(1, 1)));
    }

    #[test]
    fn footprint_stats_record_committed_sizes() {
        let s = Sim::new(
            SimConfig::new(Platform::IntelCore.config()).mem_words(1 << 18).trace_footprints(true),
        );
        // Leave a gap after the lock line so the stride prefetcher cannot
        // pull an extra line into the monitored set.
        let _gap = s.alloc().alloc_aligned(64, 64);
        let a = s.alloc().alloc_aligned(32, 64);
        let stats = s.run_parallel(1, RetryPolicy::default(), |ctx| {
            ctx.atomic(|tx| {
                let v = tx.load(a)?;
                tx.store(a, v + 1)
            });
        });
        let fps: Vec<_> = stats.footprints().collect();
        assert_eq!(fps.len(), 1);
        // Lock subscription adds one read line beside the data line.
        assert_eq!(fps[0].1, 1, "one store line");
        assert_eq!(fps[0].0, 2, "data line + lock line");
    }

    #[test]
    fn hle_works_end_to_end() {
        let s = sim(Platform::IntelCore);
        let a = s.alloc().alloc(1);
        let stats = s.run_parallel(4, RetryPolicy::default(), |ctx| {
            for _ in 0..500 {
                ctx.atomic_hle(|tx| {
                    let v = tx.load(a)?;
                    tx.store(a, v + 1)
                });
            }
        });
        assert_eq!(s.read_word(a), 2000);
        // HLE has no retries: contended aborts go straight to the lock.
        assert!(stats.irrevocable_commits() > 0);
    }

    #[test]
    fn constrained_transactions_always_commit_in_hardware() {
        let s = sim(Platform::Zec12);
        let a = s.alloc().alloc_aligned(1, 256);
        let stats = s.run_parallel(4, RetryPolicy::default(), |ctx| {
            for _ in 0..500 {
                ctx.atomic_constrained(|tx| {
                    let v = tx.load(a)?;
                    tx.store(a, v + 1)
                });
            }
        });
        assert_eq!(s.read_word(a), 2000);
        assert_eq!(stats.irrevocable_commits(), 0, "constrained txs never take a lock");
        assert_eq!(stats.hw_commits(), 2000);
    }

    #[test]
    fn rollback_only_speculation() {
        let s = sim(Platform::Power8);
        let a = s.alloc().alloc(1);
        let _ = s.run_parallel(1, RetryPolicy::default(), |ctx| {
            let r = ctx.try_rollback_only(|tx| {
                let v = tx.load(a)?;
                tx.store(a, v + 1)?;
                Ok(v)
            });
            assert_eq!(r, Some(0));
        });
        assert_eq!(s.read_word(a), 1);
    }

    #[test]
    fn stm_fallback_preserves_counter_exactness_on_every_platform() {
        for p in Platform::ALL {
            let s = Sim::new(
                SimConfig::new(p.config()).mem_words(1 << 18).fallback(FallbackPolicy::Stm),
            );
            let a = s.alloc().alloc(1);
            // Zero retries: every hardware abort drops straight into the
            // software tier, so hardware and software commits interleave on
            // the same hot word.
            let stats = s.run_parallel(4, RetryPolicy::uniform(0), |ctx| {
                for _ in 0..500 {
                    ctx.atomic(|tx| {
                        let v = tx.load(a)?;
                        tx.store(a, v + 1)
                    });
                }
            });
            assert_eq!(s.read_word(a), 2000, "{p}: lost updates under STM fallback");
            assert_eq!(stats.committed_blocks(), 2000, "{p}");
            assert!(stats.stm_commits() > 0, "{p}: contention must reach the software tier");
        }
    }

    #[test]
    fn rot_fallback_commits_on_power8() {
        let s = Sim::new(
            SimConfig::new(Platform::Power8.config())
                .mem_words(1 << 18)
                .fallback(FallbackPolicy::Rot),
        );
        let a = s.alloc().alloc(1);
        let stats = s.run_parallel(4, RetryPolicy::uniform(0), |ctx| {
            for _ in 0..500 {
                ctx.atomic(|tx| {
                    let v = tx.load(a)?;
                    tx.store(a, v + 1)
                });
            }
        });
        assert_eq!(s.read_word(a), 2000, "lost updates under ROT fallback");
        assert_eq!(stats.committed_blocks(), 2000);
        assert!(stats.rot_commits() > 0, "contention must reach the ROT tier");
    }

    #[test]
    fn rot_fallback_degrades_to_lock_without_rollback_only_support() {
        let s = Sim::new(
            SimConfig::new(Platform::IntelCore.config())
                .mem_words(1 << 18)
                .fallback(FallbackPolicy::Rot),
        );
        let a = s.alloc().alloc(1);
        let stats = s.run_parallel(4, RetryPolicy::uniform(0), |ctx| {
            for _ in 0..300 {
                ctx.atomic(|tx| {
                    let v = tx.load(a)?;
                    tx.store(a, v + 1)
                });
            }
        });
        assert_eq!(s.read_word(a), 1200);
        assert_eq!(stats.rot_commits(), 0, "Intel Core has no rollback-only transactions");
        assert!(stats.irrevocable_commits() > 0, "degraded blocks serialize under the lock");
    }

    #[test]
    fn stm_fallback_survives_a_persistent_abort_storm() {
        // 100% capacity aborts kill every hardware attempt; the begin fault
        // also fires on software begins, so blocks fall through STM to the
        // irrevocable tier — results must still be exact.
        let plan = crate::FaultPlan::none().capacity_abort_per_begin(1.0);
        let s = Sim::new(
            SimConfig::new(Platform::IntelCore.config())
                .mem_words(1 << 18)
                .faults(plan)
                .fallback(FallbackPolicy::Stm),
        );
        let a = s.alloc().alloc(1);
        let stats = s.run_parallel(4, RetryPolicy::default(), |ctx| {
            for _ in 0..100 {
                ctx.atomic(|tx| {
                    let v = tx.load(a)?;
                    tx.store(a, v + 1)
                });
            }
        });
        assert_eq!(s.read_word(a), 400);
        assert_eq!(stats.committed_blocks(), 400);
        assert_eq!(stats.hw_commits(), 0, "no hardware commit can survive the storm");
        assert!(stats.injected_faults() > 0);
    }

    #[test]
    fn determinism_of_sequential_runs() {
        let run = || {
            let s = sim(Platform::IntelCore);
            let a = s.alloc().alloc(4);
            s.run_sequential(|ctx| {
                for i in 0..50u64 {
                    ctx.atomic(|tx| tx.store(a.offset((i % 4) as u32), i));
                }
            })
        };
        assert_eq!(run(), run(), "sequential cycle counts must be deterministic");
    }
}

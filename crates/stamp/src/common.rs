//! Benchmark framework shared by all eight STAMP ports.
//!
//! The measurement protocol replicates the paper's (Section 5): for one
//! (platform × benchmark × thread count) cell, the workload is built and run
//! once *sequentially* (no transactional overhead — the speed-up baseline)
//! and once with N worker threads under the Figure-1 retry mechanism; the
//! speed-up ratio is sequential cycles over the slowest worker's cycles, and
//! the abort statistics come from the parallel run.
//!
//! [`BenchParams`] is the one description of a run, and [`run_instance`]
//! the one parallel phase sequence: every runner here ([`measure`],
//! [`run_parallel`], [`run_oracle`]) composes it with the sequential
//! baseline, and the crate's `workload_factory` is the one registry that
//! builds the workloads they run.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use htm_core::{coop, SyncClock};
use htm_machine::MachineConfig;
use htm_runtime::{
    FallbackPolicy, FaultPlan, RetryPolicy, RunStats, SeqTracer, Sim, SimConfig, ThreadCtx,
};

/// Input scale for a benchmark.
///
/// `Sim` keeps full-figure regeneration to minutes while preserving the
/// contention and footprint regimes that drive the paper's findings; `Full`
/// approaches the paper's non-simulator inputs; `Tiny` is for unit tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Scale {
    /// Minimal inputs for fast unit tests.
    Tiny,
    /// Reduced inputs for figure regeneration (default).
    #[default]
    Sim,
    /// Paper-scale inputs (slow).
    Full,
}

/// Common parameters of one benchmark run.
#[derive(Clone, Copy, Debug)]
pub struct BenchParams {
    /// Worker threads for the parallel run.
    pub threads: u32,
    /// Retry-counter maxima (tuned per cell, as in the paper).
    pub policy: RetryPolicy,
    /// Input scale.
    pub scale: Scale,
    /// Input-generation seed.
    pub seed: u64,
    /// Run atomic blocks through Intel hardware lock elision instead of
    /// RTM (the Figure-7 comparison; Intel Core only).
    pub use_hle: bool,
    /// Fault-injection plan for the parallel run (empty by default; the
    /// sequential baseline is never injected).
    pub faults: FaultPlan,
    /// Run the parallel phase under the correctness certifier and panic if
    /// the committed schedule is not conflict-serializable (the report also
    /// lands in [`RunStats::certify`]).
    pub certify: bool,
    /// Run the parallel phase under the happens-before race sanitizer; the
    /// report lands in [`RunStats::race`] (not asserted here — the lint
    /// layer decides severity).
    pub sanitize: bool,
    /// What exhausted retry counters fall back to: the global lock (the
    /// paper's mechanism), a NOrec-style software transaction, or a POWER8
    /// rollback-only commit (see [`FallbackPolicy`]).
    pub fallback: FallbackPolicy,
}

impl Default for BenchParams {
    fn default() -> BenchParams {
        BenchParams {
            threads: 4,
            policy: RetryPolicy::default(),
            scale: Scale::Sim,
            seed: 42,
            use_hle: false,
            faults: FaultPlan::none(),
            certify: false,
            sanitize: false,
            fallback: FallbackPolicy::Lock,
        }
    }
}

/// Result of measuring one benchmark cell.
#[derive(Debug)]
pub struct BenchResult {
    /// Simulated cycles of the sequential baseline.
    pub seq_cycles: u64,
    /// Statistics of the parallel run (cycles, aborts, serialization).
    pub stats: RunStats,
}

impl BenchResult {
    /// Speed-up of transactional execution over sequential execution.
    pub fn speedup(&self) -> f64 {
        let par = self.stats.cycles();
        if par == 0 {
            return 0.0;
        }
        self.seq_cycles as f64 / par as f64
    }

    /// The run's transaction-abort ratio (Figure 3 definition).
    pub fn abort_ratio(&self) -> f64 {
        self.stats.abort_ratio()
    }
}

/// One STAMP workload instance: built fresh for every run.
///
/// `work` is executed by every worker; it partitions by
/// `ctx.thread_id()` / `ctx.num_threads()`. Multi-phase benchmarks
/// synchronize phases on the [`PhaseBarrier`] installed by the framework.
pub trait Workload: Sync {
    /// Human-readable benchmark name (e.g. `"genome (modified)"`).
    fn name(&self) -> String;

    /// Words of simulated memory this workload needs.
    fn mem_words(&self) -> u32 {
        1 << 22
    }

    /// Builds inputs and shared structures (runs on one thread, before
    /// timing starts).
    fn setup(&self, sim: &Sim);

    /// Called once per run with the worker count, before `work` starts on
    /// any thread (multi-phase workloads size their [`PhaseBarrier`] here).
    fn prepare(&self, threads: u32) {
        let _ = threads;
    }

    /// Per-thread measured work.
    fn work(&self, ctx: &mut ThreadCtx);

    /// Checks the run's result; panics on corruption.
    fn verify(&self, sim: &Sim);

    /// Optional *schedule-independent* digest of the workload's result,
    /// used by the differential oracle ([`run_oracle`]) to cross-check a
    /// sequential and a parallel run of the same inputs. `None` (the
    /// default) skips the cross-check: most workloads' raw memory images
    /// legitimately depend on commit order (e.g. insertion order inside a
    /// bucket), so the digest must hash an order-normalized view.
    fn result_digest(&self, sim: &Sim) -> Option<u64> {
        let _ = sim;
        None
    }
}

impl Workload for Box<dyn Workload> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn mem_words(&self) -> u32 {
        (**self).mem_words()
    }
    fn setup(&self, sim: &Sim) {
        (**self).setup(sim)
    }
    fn prepare(&self, threads: u32) {
        (**self).prepare(threads)
    }
    fn work(&self, ctx: &mut ThreadCtx) {
        (**self).work(ctx)
    }
    fn verify(&self, sim: &Sim) {
        (**self).verify(sim)
    }
    fn result_digest(&self, sim: &Sim) -> Option<u64> {
        (**self).result_digest(sim)
    }
}

/// Re-usable inter-phase barrier for multi-phase workloads (kmeans'
/// iterations, genome's phases). Sized by the framework before each run.
///
/// Waiters poll through [`coop::Wait`], so the barrier works for
/// free-running OS threads and for a cooperative `Sim`'s fibers alike.
#[derive(Debug, Default)]
pub struct PhaseBarrier {
    /// Workers per phase (0 until sized).
    threads: AtomicU32,
    /// Workers arrived in the current phase.
    arrived: AtomicU32,
    /// Completed phases: the last arrival bumps it to release the waiters.
    generation: AtomicU64,
    /// Latest arrival clock so far. Every worker leaves a phase at that
    /// phase's maximum, so the running maximum at a phase's last arrival is
    /// that phase's maximum and never needs resetting.
    max_clock: AtomicU64,
    /// Release clock of the last two phases, by generation parity. A waiter
    /// reads its phase's slot, which the next phase's last arrival cannot
    /// overwrite: that phase cannot complete before the waiter arrives.
    release: [AtomicU64; 2],
    /// Vector clock of the barrier for the race sanitizer: every thread
    /// releases into it before waiting and acquires from it after, so all
    /// pre-barrier accesses happen-before all post-barrier accesses.
    sync: SyncClock,
}

impl PhaseBarrier {
    /// Creates an unsized barrier (sized by [`PhaseBarrier::size_for`]).
    pub fn new() -> PhaseBarrier {
        PhaseBarrier::default()
    }

    /// Sizes the barrier for `threads` workers.
    pub fn size_for(&self, threads: u32) {
        self.arrived.store(0, Ordering::SeqCst);
        self.threads.store(threads, Ordering::SeqCst);
    }

    /// Waits for all workers (no-op when sized for one thread).
    ///
    /// # Panics
    ///
    /// Panics if the barrier was never sized.
    pub fn wait(&self) {
        self.arrive(0);
    }

    /// Waits for all workers and synchronizes simulated clocks: every
    /// thread resumes at the latest arrival clock of its own phase, which
    /// the phase's last arrival publishes (without this, time spent waiting
    /// at a barrier would be free and serial sections would not cost
    /// simulated time).
    ///
    /// # Panics
    ///
    /// Panics if the barrier was never sized.
    pub fn wait_sync(&self, ctx: &ThreadCtx) {
        ctx.hb_release(&self.sync);
        let release = self.arrive(ctx.now());
        ctx.hb_acquire(&self.sync);
        ctx.advance_clock_to(release);
    }

    /// Arrives at simulated time `clock` and waits for the phase's last
    /// arrival; returns the phase's release clock.
    fn arrive(&self, clock: u64) -> u64 {
        let threads = self.threads.load(Ordering::SeqCst);
        assert!(threads > 0, "phase barrier not sized");
        // The generation cannot move before this thread arrives.
        let phase = self.generation.load(Ordering::SeqCst);
        let slot = &self.release[(phase % 2) as usize];
        self.max_clock.fetch_max(clock, Ordering::SeqCst);
        if self.arrived.fetch_add(1, Ordering::SeqCst) + 1 == threads {
            slot.store(self.max_clock.load(Ordering::SeqCst), Ordering::SeqCst);
            self.arrived.store(0, Ordering::SeqCst);
            self.generation.store(phase + 1, Ordering::SeqCst);
            // The release is progress a round-robin scheduler must see, or
            // a loop of barrier-only phases would look deadlocked.
            coop::access(coop::BARRIER_LINE, true);
        } else {
            let mut wait = coop::Wait::new(1);
            while self.generation.load(Ordering::SeqCst) == phase {
                wait.round();
            }
        }
        slot.load(Ordering::SeqCst)
    }
}

fn sim_config(w: &dyn Workload, machine: &MachineConfig, seed: u64) -> SimConfig {
    // Floor of 1 M words (8 MiB): per-thread allocator chunks and retry
    // churn need headroom beyond the workload's own estimate.
    SimConfig::new(machine.clone()).mem_words(w.mem_words().max(1 << 20)).seed(seed)
}

/// The sequential phase sequence of `w` on the context `ctx_of` builds:
/// `setup`, `prepare(1)`, `work`, `verify`. Never fault-injected: the
/// sequential run defines correct output and the speed-up baseline.
fn sequential<W: Workload>(
    w: &W,
    machine: &MachineConfig,
    seed: u64,
    ctx_of: impl FnOnce(&Sim) -> ThreadCtx,
) -> (Sim, ThreadCtx) {
    let sim = Sim::new(sim_config(w, machine, seed));
    w.setup(&sim);
    w.prepare(1);
    let mut ctx = ctx_of(&sim);
    w.work(&mut ctx);
    w.verify(&sim);
    (sim, ctx)
}

/// Runs `make()`'s workload once sequentially; returns its cycles.
pub fn run_sequential<W: Workload>(
    make: &dyn Fn() -> W,
    machine: &MachineConfig,
    seed: u64,
) -> u64 {
    sequential(&make(), machine, seed, Sim::seq_ctx).1.now()
}

/// The parallel phase sequence of one workload instance, the one every
/// runner composes: builds the `Sim` with `params`' faults, certifier,
/// sanitizer and fallback; `setup`, then `prepare(threads)`; runs
/// `params.threads` workers under the Figure-1 retry mechanism (through
/// HLE when `params.use_hle`); `verify`; and, when certified, asserts the
/// committed schedule is conflict-serializable. Returns the run's
/// statistics and the `Sim`, for callers that inspect the result.
///
/// # Panics
///
/// Panics on workload corruption or certifier violations.
pub fn run_instance<W: Workload>(
    w: &W,
    machine: &MachineConfig,
    params: &BenchParams,
) -> (RunStats, Sim) {
    let sim = Sim::new(
        sim_config(w, machine, params.seed)
            .faults(params.faults)
            .certify(params.certify)
            .sanitize(params.sanitize)
            .fallback(params.fallback),
    );
    w.setup(&sim);
    w.prepare(params.threads);
    let stats = sim.run_parallel(params.threads, params.policy, |ctx| {
        ctx.set_hle(params.use_hle);
        w.work(ctx)
    });
    w.verify(&sim);
    if let Some(report) = &stats.certify {
        assert!(report.ok(), "{}: certifier found violations:\n{report}", w.name());
    }
    (stats, sim)
}

/// Runs `make()`'s workload once in parallel as `params` describe.
pub fn run_parallel<W: Workload>(
    make: &dyn Fn() -> W,
    machine: &MachineConfig,
    params: &BenchParams,
) -> RunStats {
    run_instance(&make(), machine, params).0
}

/// Full measurement of one cell: sequential baseline + parallel run.
pub fn measure<W: Workload>(
    make: &dyn Fn() -> W,
    machine: &MachineConfig,
    params: &BenchParams,
) -> BenchResult {
    let seq_cycles = run_sequential(make, machine, params.seed);
    BenchResult { seq_cycles, stats: run_parallel(make, machine, params) }
}

/// Differential oracle for one cell: runs the workload sequentially (the
/// reference), then in parallel as `params` describe with the correctness
/// certifier on. Both runs pass the workload's own `verify`, the parallel
/// schedule must be conflict-serializable, and — when the workload defines
/// a schedule-independent [`Workload::result_digest`] — the two results
/// must hash identically. With a software fallback in `params` this is the
/// hybrid-TM differential oracle: the reference stays tier-free. Returns
/// the certified parallel statistics.
///
/// # Panics
///
/// Panics on any oracle failure: workload corruption, certifier
/// violations, or a sequential/parallel digest mismatch.
pub fn run_oracle<W: Workload>(
    make: &dyn Fn() -> W,
    machine: &MachineConfig,
    params: &BenchParams,
) -> RunStats {
    let w = make();
    let seq_digest = w.result_digest(&sequential(&w, machine, params.seed, Sim::seq_ctx).0);
    let w = make();
    let (stats, sim) = run_instance(&w, machine, &BenchParams { certify: true, ..*params });
    if let (Some(s), Some(p)) = (seq_digest, w.result_digest(&sim)) {
        assert_eq!(s, p, "{}: sequential and parallel result digests differ", w.name());
    }
    stats
}

/// Runs the workload sequentially under the footprint tracer, recording
/// per-transaction load/store sizes at each granularity (Figures 10–11).
pub fn trace_footprints<W: Workload>(
    make: &dyn Fn() -> W,
    machine: &MachineConfig,
    granularities: &[u32],
    seed: u64,
) -> SeqTracer {
    let (sim, mut ctx) = sequential(&make(), machine, seed, |s| s.seq_ctx_traced(granularities));
    sim.take_tracer(&mut ctx)
}

/// Like [`trace_footprints`], but also keeps each block's distinct line
/// IDs ([`SeqTracer::line_sets`]) so the capacity analyzer can replay the
/// footprints against each platform's tracking-structure model.
pub fn trace_line_sets<W: Workload>(
    make: &dyn Fn() -> W,
    machine: &MachineConfig,
    granularities: &[u32],
    seed: u64,
) -> SeqTracer {
    let (sim, mut ctx) =
        sequential(&make(), machine, seed, |s| s.seq_ctx_traced_sets(granularities));
    sim.take_tracer(&mut ctx)
}

/// Deterministically splits `0..total` into `num_threads` contiguous chunks
/// and returns the half-open range of `thread_id`.
pub fn partition(total: u64, thread_id: u32, num_threads: u32) -> std::ops::Range<u64> {
    let n = num_threads as u64;
    let t = thread_id as u64;
    let base = total / n;
    let extra = total % n;
    let start = t * base + t.min(extra);
    let len = base + (t < extra) as u64;
    start..start + len
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm_machine::Platform;

    #[test]
    fn partition_covers_everything_disjointly() {
        for total in [0u64, 1, 7, 100, 101] {
            for threads in [1u32, 2, 3, 8] {
                let mut covered = Vec::new();
                for t in 0..threads {
                    covered.extend(partition(total, t, threads));
                }
                assert_eq!(covered, (0..total).collect::<Vec<_>>(), "{total}/{threads}");
            }
        }
    }

    #[test]
    fn phase_barrier_single_thread_is_noop() {
        let b = PhaseBarrier::new();
        b.size_for(1);
        b.wait();
        b.wait();
    }

    #[test]
    fn phase_barrier_synchronizes_threads() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let b = std::sync::Arc::new(PhaseBarrier::new());
        b.size_for(4);
        let phase1_done = std::sync::Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let b = std::sync::Arc::clone(&b);
            let p = std::sync::Arc::clone(&phase1_done);
            handles.push(std::thread::spawn(move || {
                p.fetch_add(1, Ordering::SeqCst);
                b.wait();
                assert_eq!(p.load(Ordering::SeqCst), 4, "phase 1 incomplete after barrier");
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn phase_barrier_resumes_each_thread_at_its_own_phase_max() {
        // Thread 0 reaches phase k at exactly k * 1000 cycles, thread 1
        // earlier, so every phase's maximum is k * 1000. A thread that
        // leaves first runs on into the next phase while its peer is still
        // waking; the peer must still resume at its own phase's maximum.
        const PHASES: u64 = 2000;
        let sim = Sim::new(SimConfig::new(Platform::IntelCore.config()).mem_words(1 << 16));
        let b = PhaseBarrier::new();
        b.size_for(2);
        let late = AtomicU64::new(0);
        sim.run_parallel(2, RetryPolicy::default(), |ctx| {
            for k in 1..=PHASES {
                if ctx.thread_id() == 0 {
                    ctx.advance_clock_to(k * 1000);
                }
                b.wait_sync(ctx);
                if ctx.now() != k * 1000 {
                    late.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        assert_eq!(late.load(Ordering::Relaxed), 0, "phases resumed past their own maximum");
    }

    /// `inner` on a cooperative `Sim`, whose workers the runtime runs under
    /// a round-robin scheduler, so the run is exact.
    struct RoundRobinRun<W> {
        inner: W,
    }

    impl<W: Workload> Workload for RoundRobinRun<W> {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn mem_words(&self) -> u32 {
            self.inner.mem_words()
        }
        fn setup(&self, sim: &Sim) {
            self.inner.setup(sim);
            sim.declare_cooperative();
        }
        fn prepare(&self, threads: u32) {
            self.inner.prepare(threads);
        }
        fn work(&self, ctx: &mut ThreadCtx) {
            self.inner.work(ctx);
        }
        fn verify(&self, sim: &Sim) {
            self.inner.verify(sim)
        }
    }

    #[test]
    fn cooperative_kmeans_crosses_its_barriers_and_is_exact() {
        use crate::kmeans::{Kmeans, KmeansConfig, KmeansVariant};
        let machine = Platform::IntelCore.config();
        let run = || {
            let cfg = KmeansConfig::high(Scale::Tiny, KmeansVariant::Modified, machine.granularity);
            let w = RoundRobinRun { inner: Kmeans::new(cfg, 7) };
            let params = BenchParams { threads: 2, scale: Scale::Tiny, ..Default::default() };
            let (stats, _) = run_instance(&w, &machine, &params);
            let cycles: Vec<u64> = stats.threads.iter().map(|t| t.cycles).collect();
            (stats.counters().collect::<Vec<_>>(), cycles)
        };
        let first = run();
        assert!(first.0.iter().any(|&(_, v)| v > 0), "the run must commit blocks");
        assert_eq!(first, run());
    }

    #[test]
    fn bench_result_speedup() {
        let r = BenchResult {
            seq_cycles: 1000,
            stats: RunStats::new(vec![htm_runtime::ThreadStats {
                cycles: 250,
                ..Default::default()
            }]),
        };
        assert!((r.speedup() - 4.0).abs() < 1e-12);
    }
}

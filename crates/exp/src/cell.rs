//! The cell vocabulary: every kind of independent measurement the specs
//! schedule, plus the serializable per-cell result.
//!
//! A cell is **self-contained**: all parameters (including the seed derived
//! from the root seed at build time) live inside the [`CellKind`], so a
//! cell computes identically on any OS thread, in any order, in any
//! process — which is what makes the parallel scheduler and the
//! content-addressed cache sound. [`CellKind::key`] is the stable content
//! encoding the cache hashes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use htm_analyze::{lint, predict_capacity, Json, Thresholds};
use htm_core::{panic_message, ConflictPolicy};
use htm_machine::{BgqMode, MachineConfig, Platform, TrackerKind};
use htm_runtime::{FallbackPolicy, FaultPlan, RetryPolicy, RunStats, Sim, SimConfig};
use stamp::{BenchId, BenchParams, BenchResult, Scale, Variant};

use crate::grid::{machine_for, tuned_policy, Cell};

/// One schedulable cell: a stable identifier plus its parameters.
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// Unique id within the spec (progress display, `--filter`, and
    /// render-side lookup).
    pub id: String,
    /// What to compute.
    pub kind: CellKind,
}

impl CellSpec {
    /// Builds a cell.
    pub fn new(id: impl Into<String>, kind: CellKind) -> CellSpec {
        CellSpec { id: id.into(), kind }
    }
}

/// A machine-configuration override applied on top of the platform's stock
/// configuration (the ablation dimensions).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MachineTweak {
    /// The stock per-benchmark configuration ([`machine_for`]).
    None,
    /// Force a Blue Gene/Q running mode (the lock-subscription ablation).
    Bgq(BgqMode),
    /// Resize the POWER8 TMCAM (entries at 128-byte lines).
    TmcamEntries(u32),
    /// Set the zEC12 per-store restriction-abort probability.
    RestrictionPerStore(f64),
    /// Toggle the Intel Core hardware prefetcher.
    Prefetcher(bool),
}

impl MachineTweak {
    fn key(&self) -> String {
        match self {
            MachineTweak::None => "none".into(),
            MachineTweak::Bgq(BgqMode::ShortRunning) => "bgq:short".into(),
            MachineTweak::Bgq(BgqMode::LongRunning) => "bgq:long".into(),
            MachineTweak::TmcamEntries(n) => format!("tmcam:{n}"),
            MachineTweak::RestrictionPerStore(p) => format!("restrict:{p:?}"),
            MachineTweak::Prefetcher(b) => format!("prefetch:{b}"),
        }
    }
}

/// One STAMP measurement cell: (platform × benchmark × variant × threads)
/// under an explicit retry policy, optional machine tweak, and optional
/// injected-fault rate.
#[derive(Clone, Debug)]
pub struct StampCell {
    /// Platform under test.
    pub platform: Platform,
    /// Benchmark.
    pub bench: BenchId,
    /// Original or modified STAMP shape.
    pub variant: Variant,
    /// Worker threads.
    pub threads: u32,
    /// Retry-counter maxima (resolved at build time, usually
    /// [`tuned_policy`]).
    pub policy: RetryPolicy,
    /// Machine override.
    pub tweak: MachineTweak,
    /// Injected transient-abort probability per begin (0 = no faults).
    pub fault_transient_per_begin: f64,
    /// Input scale.
    pub scale: Scale,
    /// Cell seed (derived from the root seed at build time; repetition `r`
    /// runs at `seed + r * 7919`).
    pub seed: u64,
    /// Repetitions averaged into the cell.
    pub reps: u32,
    /// Run under the serializability certifier.
    pub certify: bool,
    /// Fallback tier when the retry counters are exhausted (the hytm
    /// comparison dimension).
    pub fallback: FallbackPolicy,
}

impl StampCell {
    /// A plain tuned-policy cell at `seed`, 1 repetition, no tweaks.
    pub fn tuned(
        platform: Platform,
        bench: BenchId,
        variant: Variant,
        threads: u32,
        scale: Scale,
        seed: u64,
    ) -> StampCell {
        StampCell {
            platform,
            bench,
            variant,
            threads,
            policy: tuned_policy(platform, bench),
            tweak: MachineTweak::None,
            fault_transient_per_begin: 0.0,
            scale,
            seed,
            reps: 1,
            certify: false,
            fallback: FallbackPolicy::Lock,
        }
    }

    /// The machine configuration this cell runs on.
    pub fn machine(&self) -> MachineConfig {
        match self.tweak {
            MachineTweak::None => machine_for(self.platform, self.bench),
            MachineTweak::Bgq(mode) => MachineConfig::blue_gene_q(mode),
            MachineTweak::TmcamEntries(entries) => {
                let mut m = self.platform.config();
                m.tracker = TrackerKind::Tmcam { entries, line_bytes: 128 };
                m
            }
            MachineTweak::RestrictionPerStore(p) => {
                let mut m = self.platform.config();
                m.restriction_abort_per_store = p;
                m
            }
            MachineTweak::Prefetcher(on) => {
                let mut m = self.platform.config();
                m.prefetcher = on;
                m
            }
        }
    }

    fn params(&self, rep: u32, certify: bool) -> BenchParams {
        BenchParams {
            threads: self.threads,
            policy: self.policy,
            scale: self.scale,
            seed: self.seed.wrapping_add(rep as u64 * 7919),
            use_hle: false,
            faults: FaultPlan::none().transient_abort_per_begin(self.fault_transient_per_begin),
            certify,
            sanitize: false,
            fallback: self.fallback,
        }
    }

    fn key(&self) -> String {
        let p = self.policy;
        format!(
            "{}|{}|{}|{}t|pol{},{},{},{}|{}|f{:?}|{}|s{}|r{}|c{}|fb{}",
            platform_key(self.platform),
            self.bench.label(),
            variant_key(self.variant),
            self.threads,
            p.lock_retries,
            p.persistent_retries,
            p.transient_retries,
            p.bgq_retries,
            self.tweak.key(),
            self.fault_transient_per_begin,
            scale_key(self.scale),
            self.seed,
            self.reps,
            self.certify as u8,
            self.fallback.key(),
        )
    }

    /// Runs the cell's repetitions and returns the averaged summary plus
    /// the rep-merged statistics.
    fn run(&self) -> (Cell, RunStats) {
        let machine = self.machine();
        let mut results: Vec<BenchResult> = Vec::new();
        for rep in 0..self.reps.max(1) {
            let params = self.params(rep, self.certify);
            results.push(stamp::run_bench(self.bench, self.variant, &machine, &params));
        }
        let merged = RunStats::merged(results.iter().map(|r| &r.stats));
        (Cell::summarize(&results), merged)
    }
}

/// Stable key fragment for a platform.
pub fn platform_key(p: Platform) -> &'static str {
    match p {
        Platform::BlueGeneQ => "bgq",
        Platform::Zec12 => "zec12",
        Platform::IntelCore => "intel",
        Platform::Power8 => "power8",
    }
}

/// Stable key fragment for a variant.
pub fn variant_key(v: Variant) -> &'static str {
    match v {
        Variant::Original => "orig",
        Variant::Modified => "mod",
    }
}

/// Stable key fragment for a scale.
pub fn scale_key(s: Scale) -> &'static str {
    match s {
        Scale::Tiny => "tiny",
        Scale::Sim => "sim",
        Scale::Full => "full",
    }
}

/// What one service-traffic cell computes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SvcMode {
    /// Throughput and latency percentiles from a measured run.
    Measure,
    /// A sanitized run whose conflict lines are resolved back to the hot
    /// keys behind the latency tail.
    Blame,
    /// A brutal-contention cell (tiny key space, extreme skew) feeding the
    /// lint rule engine.
    Lint,
}

impl SvcMode {
    fn key(self) -> &'static str {
        match self {
            SvcMode::Measure => "measure",
            SvcMode::Blame => "blame",
            SvcMode::Lint => "lint",
        }
    }
}

/// One service-traffic cell: (platform × fallback tier × Zipf skew) at a
/// scale, run as [`htm_svc::SvcWorkload`] under the deterministic
/// round-robin scheduler (so the cell caches and shards like any other).
#[derive(Clone, Debug)]
pub struct SvcCell {
    /// Platform under test.
    pub platform: Platform,
    /// Fallback tier when the retry counters are exhausted.
    pub fallback: FallbackPolicy,
    /// Zipf exponent in permille (`600` = s 0.6).
    pub skew_permille: u32,
    /// Input scale (sessions per cell via [`htm_svc::params_for`]).
    pub scale: Scale,
    /// Session-count override (`--sessions`); `None` = the scale default.
    pub sessions: Option<u64>,
    /// Cell seed (derived from the root seed at build time).
    pub seed: u64,
    /// What to compute.
    pub mode: SvcMode,
}

impl SvcCell {
    fn params(&self) -> htm_svc::SvcParams {
        let mut p = match self.mode {
            // Lint cells always run the brutal-contention shape; the skew
            // field is kept in the key for honesty, not consulted here.
            SvcMode::Lint => htm_svc::lint_params(),
            _ => htm_svc::params_for(self.scale, self.skew_permille),
        };
        if let Some(n) = self.sessions {
            p.sessions = n;
        }
        p
    }

    fn key(&self) -> String {
        format!(
            "svc|{}|fb{}|z{}|{}|n{}|s{}|{}",
            platform_key(self.platform),
            self.fallback.key(),
            self.skew_permille,
            scale_key(self.scale),
            self.sessions.unwrap_or(0),
            self.seed,
            self.mode.key(),
        )
    }

    fn run_measure(&self) -> CellResult {
        let machine = self.platform.config();
        let params = self.params();
        let make = || htm_svc::SvcWorkload::new(params, self.seed);
        let bench = BenchParams {
            threads: htm_svc::threads_for(&params),
            scale: self.scale,
            seed: self.seed,
            fallback: self.fallback,
            ..BenchParams::default()
        };
        let r = stamp::measure(&make, &machine, &bench);
        let mut out = stamp_result(&Cell::summarize(std::slice::from_ref(&r)), &r.stats);
        let lat = r.stats.latency();
        out.put("sessions", params.sessions as f64);
        out.put("requests", lat.count() as f64);
        out.put("cycles", r.stats.cycles() as f64);
        out.put("seq_cycles", r.seq_cycles as f64);
        // Offered work completed per million simulated cycles.
        out.put("throughput_rpmc", lat.count() as f64 * 1e6 / r.stats.cycles().max(1) as f64);
        out.put("p50", lat.value_at(50.0) as f64);
        out.put("p90", lat.value_at(90.0) as f64);
        out.put("p99", lat.value_at(99.0) as f64);
        out.put("p999", lat.value_at(99.9) as f64);
        out
    }

    fn run_blame(&self) -> CellResult {
        let machine = self.platform.config();
        let params = self.params();
        let (stats, hot) = htm_svc::blame_hot_keys(
            &params,
            &machine,
            RetryPolicy::default(),
            self.seed,
            self.fallback,
        );
        let matrix = htm_analyze::ConflictMatrix::from_stats(&stats);
        let mut out = CellResult::new();
        out.put("requests", stats.latency().count() as f64);
        out.put("aborts", stats.total_aborts() as f64);
        out.put("conflicts", matrix.total() as f64);
        out.put("hot_keys", hot.len() as f64);
        out.note("hot_keys", hot_keys_note(&hot));
        out
    }

    fn run_lint(&self) -> CellResult {
        let machine = self.platform.config();
        let params = self.params();
        let (stats, hot) = htm_svc::blame_hot_keys(
            &params,
            &machine,
            RetryPolicy::default(),
            self.seed,
            self.fallback,
        );
        // No sequential footprint trace for the service workload (the
        // interesting rules — races, hot-line, excessive-retry — come from
        // the sanitized stats); false sharing cannot arise anyway, since
        // every key node sits on its own line. The hot-line share is tuned
        // below the STAMP default: multi-key order transactions always
        // spread a fraction of conflicts across their secondary keys, so
        // even a maximally skewed service mix concentrates ~70% (not 75%+)
        // of conflicts on the Zipf head's line.
        let thresholds = Thresholds { hot_line_share: 0.6, ..Thresholds::default() };
        let violations = lint::lint_cell(
            "svc",
            platform_key(self.platform),
            &stats,
            None,
            &[],
            machine.granularity.max(8) / 8,
            &thresholds,
        );
        let mut out = CellResult::new();
        out.put("commits", stats.committed_blocks() as f64);
        out.put("aborts", stats.total_aborts() as f64);
        out.put("races", stats.race.as_ref().map_or(0, |r| r.races.len()) as f64);
        out.put("hot_keys", hot.len() as f64);
        out.put("violations", violations.len() as f64);
        out.note("violations", lint::report_to_json(&violations).to_string());
        out.note("hot_keys", hot_keys_note(&hot));
        out
    }
}

/// The blame excerpt carried in svc cell results: the hottest keys, one
/// per line, ready for the render pass to print verbatim.
fn hot_keys_note(hot: &[htm_analyze::HotKey]) -> String {
    hot.iter().take(8).map(|h| h.to_string()).collect::<Vec<_>>().join("\n")
}

/// Figure-6 queue implementation under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueSpec {
    /// Michael–Scott lock-free baseline.
    LockFree,
    /// One transactional attempt, then the lock-free path.
    NoRetry,
    /// Tuned transactional retries, then the lock-free path.
    OptRetry(u32),
    /// zEC12 constrained transactions.
    Constrained,
}

impl QueueSpec {
    fn to_impl(self) -> htm_apps::QueueImpl {
        match self {
            QueueSpec::LockFree => htm_apps::QueueImpl::LockFree,
            QueueSpec::NoRetry => htm_apps::QueueImpl::NoRetryTm,
            QueueSpec::OptRetry(retries) => htm_apps::QueueImpl::OptRetryTm { retries },
            QueueSpec::Constrained => htm_apps::QueueImpl::ConstrainedTm,
        }
    }

    fn key(self) -> String {
        match self {
            QueueSpec::LockFree => "lockfree".into(),
            QueueSpec::NoRetry => "noretry".into(),
            QueueSpec::OptRetry(r) => format!("optretry{r}"),
            QueueSpec::Constrained => "constrained".into(),
        }
    }
}

/// Figure-9 TLS kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TlsKernelId {
    /// The milc-like loop.
    Milc,
    /// The sphinx-like loop.
    Sphinx,
}

impl TlsKernelId {
    fn to_kernel(self) -> htm_apps::TlsKernel {
        match self {
            TlsKernelId::Milc => htm_apps::TlsKernel::Milc,
            TlsKernelId::Sphinx => htm_apps::TlsKernel::Sphinx,
        }
    }

    fn key(self) -> &'static str {
        match self {
            TlsKernelId::Milc => "milc",
            TlsKernelId::Sphinx => "sphinx",
        }
    }
}

/// What one cell computes.
#[derive(Clone, Debug)]
pub enum CellKind {
    /// A STAMP measurement (tuned or explicit policy, optional tweaks).
    Stamp(StampCell),
    /// A STAMP measurement through Intel hardware lock elision.
    Hle(StampCell),
    /// A plain run *and* a certified run of the same cell, recording the
    /// certifier's event counts and host-time overhead. Panics if the
    /// certified schedule fails to serialize (the legacy binaries
    /// asserted the same).
    CertifyPair(StampCell),
    /// A traced sequential run recording p90 footprints at every
    /// platform's conflict granularity (Figures 10 & 11).
    Trace {
        /// Benchmark to trace.
        bench: BenchId,
        /// STAMP shape.
        variant: Variant,
        /// Input scale.
        scale: Scale,
        /// Input seed.
        seed: u64,
    },
    /// A Figure-6 queue run on zEC12.
    Queue {
        /// Implementation under test.
        imp: QueueSpec,
        /// Worker threads.
        threads: u32,
        /// Enqueue/dequeue pairs per thread.
        ops: u64,
    },
    /// A Figure-9 TLS run on POWER8 (`threads == 0` is the sequential
    /// baseline).
    Tls {
        /// Loop kernel.
        kernel: TlsKernelId,
        /// Worker threads (0 = sequential baseline).
        threads: u32,
        /// Use the POWER8 suspend/resume instructions.
        suspend: bool,
        /// Loop iterations.
        iters: u32,
    },
    /// The requester-wins vs requester-loses contended-counter
    /// micro-benchmark (Intel model, 4 threads).
    PolicyMicro {
        /// Conflict-resolution policy under test.
        requester_wins: bool,
        /// Operations per thread.
        n_ops: u64,
    },
    /// One model-checker cell: exhaustive DPOR exploration of a suite
    /// kernel under one fallback tier, checking opacity, serializability,
    /// serial equivalence, and deadlock on every schedule.
    Model {
        /// Suite kernel name (see `htm_model::kernel::suite`).
        kernel: &'static str,
        /// Platform.
        platform: Platform,
        /// Fallback tier under check.
        tier: htm_model::Tier,
    },
    /// One service-traffic cell (measure, blame, or lint — see
    /// [`SvcMode`]).
    Svc(SvcCell),
    /// One `htm-lint` cell: a sanitized run plus footprint traces, the
    /// static capacity prediction, and the rule engine.
    Lint {
        /// Benchmark.
        bench: BenchId,
        /// Platform.
        platform: Platform,
        /// STAMP shape.
        variant: Variant,
        /// Worker threads.
        threads: u32,
        /// Input scale.
        scale: Scale,
        /// Input seed.
        seed: u64,
        /// Fallback tier the sanitized run exercises (the HyTM gate).
        fallback: FallbackPolicy,
    },
}

impl CellKind {
    /// The stable content key the cache hashes. Two cells with equal keys
    /// compute identical results (all inputs are part of the key).
    pub fn key(&self) -> String {
        match self {
            CellKind::Stamp(c) => format!("stamp|{}", c.key()),
            CellKind::Hle(c) => format!("hle|{}", c.key()),
            CellKind::CertifyPair(c) => format!("certpair|{}", c.key()),
            CellKind::Trace { bench, variant, scale, seed } => format!(
                "trace|{}|{}|{}|s{}",
                bench.label(),
                variant_key(*variant),
                scale_key(*scale),
                seed
            ),
            CellKind::Queue { imp, threads, ops } => {
                format!("queue|{}|{}t|o{}", imp.key(), threads, ops)
            }
            CellKind::Tls { kernel, threads, suspend, iters } => {
                format!("tls|{}|{}t|susp{}|i{}", kernel.key(), threads, suspend, iters)
            }
            CellKind::PolicyMicro { requester_wins, n_ops } => {
                format!("policymicro|rw{requester_wins}|o{n_ops}")
            }
            CellKind::Model { kernel, platform, tier } => {
                format!("model|{}|{}|{}", kernel, platform_key(*platform), tier.key())
            }
            CellKind::Svc(c) => c.key(),
            CellKind::Lint { bench, platform, variant, threads, scale, seed, fallback } => {
                format!(
                    "lint|{}|{}|{}|{}t|{}|s{}|fb{}",
                    bench.label(),
                    platform_key(*platform),
                    variant_key(*variant),
                    threads,
                    scale_key(*scale),
                    seed,
                    fallback.key()
                )
            }
        }
    }

    /// [`CellKind::compute`] with a panic caught and returned as its
    /// message, so one failing cell cannot take down the pool thread or
    /// fabric worker that runs it.
    pub fn try_compute(&self) -> Result<CellResult, String> {
        catch_unwind(AssertUnwindSafe(|| self.compute())).map_err(|p| panic_message(p.as_ref()))
    }

    /// Computes the cell. Pure with respect to process state: builds its
    /// own `Sim`(s), touches no globals, and is safe to run concurrently
    /// with any other cell.
    pub fn compute(&self) -> CellResult {
        match self {
            CellKind::Stamp(c) => {
                let (cell, merged) = c.run();
                stamp_result(&cell, &merged)
            }
            CellKind::Hle(c) => {
                let machine = machine_for(Platform::IntelCore, c.bench);
                let params = c.params(0, false);
                let r = stamp::hle::run_bench_hle(c.bench, &machine, &params);
                let mut out = CellResult::new();
                out.put("speedup", r.speedup());
                out.put("abort_ratio", r.abort_ratio());
                out
            }
            CellKind::CertifyPair(c) => {
                let machine = c.machine();
                let plain_start = Instant::now();
                let r = stamp::run_bench(c.bench, c.variant, &machine, &c.params(0, false));
                let plain_host = plain_start.elapsed().as_secs_f64();
                assert!(r.stats.certify.is_none());

                let cert_start = Instant::now();
                let cert = stamp::run_bench(c.bench, c.variant, &machine, &c.params(0, true));
                let cert_host = cert_start.elapsed().as_secs_f64();
                let report = cert.stats.certify.as_ref().expect("certified run carries a report");
                assert!(report.ok(), "{} {}:\n{report}", platform_key(c.platform), c.bench);

                let mut out = stamp_result(&Cell::summarize(std::slice::from_ref(&r)), &r.stats);
                out.put("cert_events", report.events as f64);
                out.put("cert_edges", report.edges as f64);
                out.put("cert_violations", report.violations.len() as f64);
                out.put("plain_host_s", plain_host);
                out.put("cert_host_s", cert_host);
                out.put("cert_overhead_pct", (cert_host / plain_host.max(1e-9) - 1.0) * 100.0);
                out
            }
            CellKind::Trace { bench, variant, scale, seed } => {
                // One traced sequential run records footprints at all four
                // platforms' conflict granularities simultaneously.
                let grans: Vec<u32> =
                    Platform::ALL.iter().map(|p| machine_for(*p, *bench).granularity).collect();
                let tracer = stamp::trace_bench(
                    *bench,
                    *variant,
                    &machine_for(Platform::IntelCore, *bench),
                    *scale,
                    &grans,
                    *seed,
                );
                let mut out = CellResult::new();
                for (i, p) in Platform::ALL.iter().enumerate() {
                    out.put(
                        &format!("p90_load_{}", platform_key(*p)),
                        tracer.p90_load_bytes(i) as f64,
                    );
                    out.put(
                        &format!("p90_store_{}", platform_key(*p)),
                        tracer.p90_store_bytes(i) as f64,
                    );
                }
                out
            }
            CellKind::Queue { imp, threads, ops } => {
                let sim = Sim::of(Platform::Zec12.config());
                let r = htm_apps::run_queue_bench(&sim, imp.to_impl(), *threads, *ops);
                let mut out = CellResult::new();
                out.put("cycles", r.cycles as f64);
                out.put("operations", r.operations as f64);
                out
            }
            CellKind::Tls { kernel, threads, suspend, iters } => {
                let sim = Sim::of(Platform::Power8.config());
                let l = htm_apps::TlsLoop::create(&sim, kernel.to_kernel(), *iters);
                let mut out = CellResult::new();
                if *threads == 0 {
                    let (cycles, sum) = l.run_sequential(&sim);
                    out.put("cycles", cycles as f64);
                    out.note("sum", sum.to_string());
                } else {
                    let (cycles, sum, aborts) = l.run_tls(&sim, *threads, *suspend);
                    out.put("cycles", cycles as f64);
                    out.put("abort_ratio", aborts);
                    out.note("sum", sum.to_string());
                }
                out
            }
            CellKind::PolicyMicro { requester_wins, n_ops } => {
                policy_micro(*requester_wins, *n_ops)
            }
            CellKind::Model { kernel, platform, tier } => model_cell(kernel, *platform, *tier),
            CellKind::Svc(c) => match c.mode {
                SvcMode::Measure => c.run_measure(),
                SvcMode::Blame => c.run_blame(),
                SvcMode::Lint => c.run_lint(),
            },
            CellKind::Lint { bench, platform, variant, threads, scale, seed, fallback } => {
                lint_cell(*bench, *platform, *variant, *threads, *scale, *seed, *fallback)
            }
        }
    }
}

fn stamp_result(cell: &Cell, merged: &RunStats) -> CellResult {
    let mut out = CellResult::new();
    out.put("speedup", cell.speedup);
    out.put("abort_ratio", cell.abort_ratio);
    for (i, cat) in ["capacity", "conflict", "other", "lock", "unclassified"].iter().enumerate() {
        out.put(&format!("share_{cat}"), cell.abort_shares[i]);
    }
    out.put("serialization", cell.serialization);
    out.put("total_aborts", merged.total_aborts() as f64);
    for (name, total) in merged.counters() {
        out.put(name, total as f64);
    }
    out
}

/// The requester-wins/-loses contended-counter ablation body (one policy).
fn policy_micro(requester_wins: bool, n_ops: u64) -> CellResult {
    let policy =
        if requester_wins { ConflictPolicy::RequesterWins } else { ConflictPolicy::RequesterLoses };
    // Contended counter array: 64 hot words on 8 lines.
    let sim = Sim::new(
        SimConfig::new(Platform::IntelCore.config()).mem_words(1 << 20).conflict_policy(policy),
    );
    let base = sim.alloc().alloc_aligned(64, 64);
    let seq = sim.run_sequential(|ctx| {
        for i in 0..n_ops * 4 {
            ctx.atomic(|tx| {
                let a = base.offset((i % 64) as u32);
                let v = tx.load(a)?;
                tx.tick(50);
                tx.store(a, v + 1)
            });
        }
    });
    let sim = Sim::new(
        SimConfig::new(Platform::IntelCore.config()).mem_words(1 << 20).conflict_policy(policy),
    );
    let base = sim.alloc().alloc_aligned(64, 64);
    let stats = sim.run_parallel(4, RetryPolicy::default(), |ctx| {
        let t = ctx.thread_id() as u64;
        for i in 0..n_ops {
            ctx.atomic(|tx| {
                let a = base.offset(((i * 7 + t * 13) % 64) as u32);
                let v = tx.load(a)?;
                tx.tick(50);
                tx.store(a, v + 1)
            });
        }
    });
    let mut out = CellResult::new();
    out.put("speedup", seq as f64 / stats.cycles() as f64);
    out.put("abort_ratio", stats.abort_ratio());
    out
}

/// One model-checker cell: exhaustive exploration (DPOR mode) of one suite
/// kernel under one tier, reporting the explored/pruned counts and carrying
/// any counterexamples as lint violations (JSON note) plus a replayable
/// trace (`htm-exp replay` consumes it).
fn model_cell(kernel: &str, platform: Platform, tier: htm_model::Tier) -> CellResult {
    let k = htm_model::kernel::by_name(kernel).expect("model cell names a suite kernel");
    let cfg = htm_model::ModelConfig::new(k, platform, tier);
    let r = htm_model::explore(&cfg);
    assert!(!r.truncated, "model-check cells must explore exhaustively:\n{r}");
    let mut out = CellResult::new();
    out.put("schedules", r.schedules as f64);
    out.put("steps", r.steps_total as f64);
    out.put("max_depth", r.max_depth as f64);
    out.put("sleep_pruned", r.sleep_pruned as f64);
    out.put("states", r.digests.len() as f64);
    out.put("violating", r.violating_schedules as f64);
    let violations: Vec<lint::Violation> = r
        .counterexamples
        .iter()
        .map(|cx| {
            lint::model_violation(
                kernel,
                platform_key(platform),
                cx.class.key(),
                &cx.detail,
                r.violating_schedules,
            )
        })
        .collect();
    out.note("violations", lint::report_to_json(&violations).to_string());
    let trace = r
        .counterexamples
        .first()
        .map(|cx| htm_model::ModelTrace::from_counterexample(&cfg, cx).to_text())
        .unwrap_or_default();
    out.note("trace", trace);
    out
}

/// One `htm-lint` cell: sanitized run, footprint traces at the conflict
/// line size and at word granularity, static capacity prediction, and the
/// rule engine. Violations are carried in the result as JSON.
#[allow(clippy::too_many_arguments)]
fn lint_cell(
    bench: BenchId,
    platform: Platform,
    variant: Variant,
    threads: u32,
    scale: Scale,
    seed: u64,
    fallback: FallbackPolicy,
) -> CellResult {
    let machine = machine_for(platform, bench);
    let policy = tuned_policy(platform, bench);
    let make = stamp::workload_factory(bench, variant, &machine, scale, seed);

    let run = BenchParams {
        threads,
        policy,
        scale,
        seed,
        sanitize: true,
        fallback,
        ..Default::default()
    };
    let stats = stamp::run_parallel(&*make, &machine, &run);

    let kind = machine.tracker;
    let line_bytes = kind.line_bytes();
    // One traced run records both granularities: the conflict line size
    // (capacity prediction) and 8-byte words (false-sharing check — blocks
    // whose words never overlap cannot truly conflict).
    let tracer = stamp::trace_line_sets(&*make, &machine, &[line_bytes, 8], seed);
    let blocks = tracer.line_sets(0).to_vec();
    let word_blocks = tracer.line_sets(1).to_vec();
    // Threads share a tracking structure once they outnumber cores; the
    // lock-subscription read occupies one extra line (u32::MAX cannot
    // collide with a real traced line).
    let share = threads.div_ceil(machine.cores).max(1);
    let capacity = predict_capacity(kind, share, &blocks, Some(u32::MAX));

    let violations = lint::lint_cell(
        bench.label(),
        platform_key(platform),
        &stats,
        Some(&capacity),
        &word_blocks,
        machine.granularity / 8,
        &Thresholds::default(),
    );

    let mut out = CellResult::new();
    out.put("commits", stats.committed_blocks() as f64);
    out.put("aborts", stats.total_aborts() as f64);
    out.put("races", stats.race.as_ref().map_or(0, |r| r.races.len()) as f64);
    out.put("cap_fraction", capacity.fraction());
    out.put("violations", violations.len() as f64);
    out.note("violations", lint::report_to_json(&violations).to_string());
    out
}

/// The serializable result of one cell: named scalar metrics plus named
/// free-form notes (exact integers, violation JSON).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellResult {
    /// Named metrics, in insertion order.
    pub metrics: Vec<(String, f64)>,
    /// Named notes, in insertion order.
    pub notes: Vec<(String, String)>,
}

impl CellResult {
    /// An empty result.
    pub fn new() -> CellResult {
        CellResult::default()
    }

    /// Adds a metric.
    pub fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Adds a note.
    pub fn note(&mut self, name: &str, value: String) {
        self.notes.push((name.into(), value));
    }

    /// Looks up a metric, panicking with the name if absent (a spec bug,
    /// not a user error).
    pub fn get(&self, name: &str) -> f64 {
        self.try_get(name).unwrap_or_else(|| panic!("missing metric {name:?} in {self:?}"))
    }

    /// Looks up a metric.
    pub fn try_get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a note.
    pub fn get_note(&self, name: &str) -> &str {
        self.notes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .unwrap_or_else(|| panic!("missing note {name:?}"))
    }

    /// Serializes to the `htm-analyze` JSON shape (numbers round-trip via
    /// shortest-form printing).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "metrics".into(),
                Json::Obj(self.metrics.iter().map(|(n, v)| (n.clone(), Json::Num(*v))).collect()),
            ),
            (
                "notes".into(),
                Json::Obj(self.notes.iter().map(|(n, v)| (n.clone(), Json::str(v))).collect()),
            ),
        ])
    }

    /// Deserializes from [`CellResult::to_json`]'s shape.
    pub fn from_json(v: &Json) -> Result<CellResult, String> {
        let obj = |j: &Json, what: &str| match j {
            Json::Obj(m) => Ok(m.clone()),
            _ => Err(format!("{what}: expected object")),
        };
        let mut out = CellResult::new();
        for (n, val) in obj(v.get("metrics").ok_or("missing metrics")?, "metrics")? {
            out.metrics.push((n, val.as_f64().ok_or("metric not a number")?));
        }
        for (n, val) in obj(v.get("notes").ok_or("missing notes")?, "notes")? {
            out.notes.push((n, val.as_str().ok_or("note not a string")?.to_string()));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm_runtime::ThreadStats;

    #[test]
    fn result_json_round_trips_exactly() {
        let mut r = CellResult::new();
        r.put("pi", std::f64::consts::PI);
        r.put("speedup", 3.0000000000000004);
        r.put("count", 123456789.0);
        r.note("sum", "18446744073709551615".into());
        let text = r.to_json().to_string();
        let back = CellResult::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn stamp_results_carry_every_run_counter_once() {
        let mut c = StampCell::tuned(
            Platform::IntelCore,
            BenchId::KmeansHigh,
            Variant::Modified,
            2,
            Scale::Tiny,
            7,
        );
        c.fallback = FallbackPolicy::Stm;
        let (cell, merged) = c.run();
        let out = stamp_result(&cell, &merged);
        let names: Vec<&str> = merged.counters().map(|(name, _)| name).collect();
        assert_eq!(names, ThreadStats::COUNTERS);
        for (name, total) in merged.counters() {
            assert_eq!(out.metrics.iter().filter(|(n, _)| n == name).count(), 1, "{name}");
            assert_eq!(out.get(name), total as f64, "{name}");
        }
    }

    #[test]
    fn keys_distinguish_all_inputs() {
        let base = StampCell::tuned(
            Platform::IntelCore,
            BenchId::Genome,
            Variant::Modified,
            4,
            Scale::Tiny,
            42,
        );
        let k = CellKind::Stamp(base.clone()).key();
        let mut other = base.clone();
        other.seed = 43;
        assert_ne!(k, CellKind::Stamp(other).key());
        let mut other = base.clone();
        other.certify = true;
        assert_ne!(k, CellKind::Stamp(other.clone()).key());
        assert_ne!(CellKind::Stamp(other.clone()).key(), CellKind::CertifyPair(other).key());
        let mut other = base.clone();
        other.tweak = MachineTweak::Prefetcher(false);
        assert_ne!(k, CellKind::Stamp(other).key());
        let mut other = base;
        other.fallback = FallbackPolicy::Stm;
        assert_ne!(k, CellKind::Stamp(other).key());
    }

    #[test]
    fn svc_keys_distinguish_all_inputs() {
        let base = SvcCell {
            platform: Platform::IntelCore,
            fallback: FallbackPolicy::Lock,
            skew_permille: 600,
            scale: Scale::Tiny,
            sessions: None,
            seed: 42,
            mode: SvcMode::Measure,
        };
        let k = CellKind::Svc(base.clone()).key();
        let vary = [
            SvcCell { platform: Platform::Power8, ..base.clone() },
            SvcCell { fallback: FallbackPolicy::Stm, ..base.clone() },
            SvcCell { skew_permille: 1100, ..base.clone() },
            SvcCell { scale: Scale::Sim, ..base.clone() },
            SvcCell { sessions: Some(500), ..base.clone() },
            SvcCell { seed: 43, ..base.clone() },
            SvcCell { mode: SvcMode::Blame, ..base.clone() },
            SvcCell { mode: SvcMode::Lint, ..base.clone() },
        ];
        for v in vary {
            assert_ne!(k, CellKind::Svc(v.clone()).key(), "{v:?}");
        }
    }

    #[test]
    fn svc_measure_cell_reports_latency_percentiles() {
        let c = SvcCell {
            platform: Platform::IntelCore,
            fallback: FallbackPolicy::Lock,
            skew_permille: 600,
            scale: Scale::Tiny,
            sessions: Some(60),
            seed: 7,
            mode: SvcMode::Measure,
        };
        let kind = CellKind::Svc(c);
        let r = kind.compute();
        assert!(r.get("requests") >= 60.0);
        assert!(r.get("throughput_rpmc") > 0.0);
        assert!(r.get("p999") >= r.get("p99"));
        assert!(r.get("p99") >= r.get("p50"));
        // Deterministic scheduler: the whole result is bit-identical.
        assert_eq!(r, kind.compute());
    }

    #[test]
    fn queue_cell_is_deterministic() {
        // One worker thread: multi-threaded runs race real OS threads.
        let kind = CellKind::Queue { imp: QueueSpec::NoRetry, threads: 1, ops: 5 };
        assert_eq!(kind.compute(), kind.compute());
        assert!(kind.compute().get("cycles") > 0.0);
    }
}

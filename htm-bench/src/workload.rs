//! The four benchmark workloads, their cells, and the phase-driven cell
//! runner.
//!
//! A STAMP or svc cell runs the same phase sequence as `stamp::measure`
//! (workload construction, `Sim::new`, `setup`, `prepare`, the simulated
//! run, `verify`) once sequentially and once in parallel, but times each
//! phase from outside. A model cell is one `htm_model::explore` call.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use htm_exp::cell::platform_key;
use htm_exp::{machine_for, tuned_policy};
use htm_machine::{MachineConfig, Platform};
use htm_runtime::{FallbackPolicy, RetryPolicy, RunStats, Sim, SimConfig};
use stamp::{BenchId, Scale, Variant, Workload as StampWorkload};

use crate::trace::Tracer;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// All STAMP benchmarks on all platforms at one thread: the
    /// uncontended transaction path, fully deterministic.
    Stamp1t,
    /// The same cells at two free-running threads: conflicts, rollback,
    /// the retry ladder and the lock fallback, racing the OS scheduler.
    Stamp2t,
    /// Write-heavy service traffic under the cooperative round-robin
    /// scheduler: hand-offs, hot-key rollbacks and STM validation.
    SvcHot,
    /// Exhaustive DPOR model checking of the suite kernels: controller
    /// grants and schedule re-execution on tiny transactions.
    ModelDpor,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] =
        [Workload::Stamp1t, Workload::Stamp2t, Workload::SvcHot, Workload::ModelDpor];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Stamp1t => "stamp-1t",
            Workload::Stamp2t => "stamp-2t",
            Workload::SvcHot => "svc-hot",
            Workload::ModelDpor => "model-dpor",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether the simulated results are a pure function of the seed, so
    /// every cell's digest can be compared exactly.
    pub fn deterministic(self) -> bool {
        self != Workload::Stamp2t
    }

    /// Distinct passes before the inputs repeat: pass `n` runs round
    /// `n % rounds`. Every STAMP and svc cell has inputs of its own, from
    /// seed `seed + k * 7919` with `k` the cell's position across all
    /// rounds. STAMP cycles through several rounds, because
    /// labyrinth, most of a STAMP pass's host time, varies ~10% in cost
    /// from one maze to the next; svc traffic costs about the same at
    /// every seed and the model kernels are fixed, so those repeat one
    /// round.
    pub fn rounds(self, size: &Size) -> u32 {
        match self {
            Workload::Stamp1t | Workload::Stamp2t => size.stamp_rounds,
            Workload::SvcHot | Workload::ModelDpor => 1,
        }
    }

    /// The cells of round `round` at root seed `seed`.
    pub fn cells(self, seed: u64, size: &Size, round: u32) -> Vec<Cell> {
        let cell_seed = |k: usize| seed.wrapping_add(k as u64 * 7919);
        match self {
            Workload::Stamp1t | Workload::Stamp2t => {
                let threads = if self == Workload::Stamp1t { 1 } else { 2 };
                let per_round = Platform::ALL.len() * BenchId::ALL.len();
                let mut out = Vec::new();
                for platform in Platform::ALL {
                    for bench in BenchId::ALL {
                        let k = round as usize * per_round + out.len();
                        out.push(Cell::Stamp(StampCell {
                            platform,
                            bench,
                            threads,
                            scale: size.stamp_scale,
                            round,
                            seed: cell_seed(k),
                        }));
                    }
                }
                out
            }
            Workload::SvcHot => {
                let mut out = Vec::new();
                for platform in Platform::ALL {
                    for fallback in SVC_TIERS {
                        let seed = cell_seed(out.len());
                        out.push(Cell::Svc(SvcCell {
                            platform,
                            fallback,
                            sessions: size.svc_sessions,
                            seed,
                        }));
                    }
                }
                out
            }
            Workload::ModelDpor => {
                let mut out = Vec::new();
                for kernel in htm_model::kernel::suite() {
                    for tier in htm_model::ALL_TIERS {
                        for platform in Platform::ALL {
                            out.push(Cell::Model(ModelCell {
                                kernel: kernel.name,
                                platform,
                                tier,
                                seed,
                            }));
                        }
                    }
                }
                out
            }
        }
    }
}

/// How much work one pass of each workload does.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// STAMP input scale.
    pub stamp_scale: Scale,
    /// STAMP rounds (input seeds).
    pub stamp_rounds: u32,
    /// Sessions per svc cell.
    pub svc_sessions: u64,
}

impl Size {
    /// The benchmark's fixed size.
    pub const FULL: Size = Size { stamp_scale: Scale::Sim, stamp_rounds: 6, svc_sessions: 3_300 };
    /// A seconds-fast size for tests (`--smoke`).
    pub const SMOKE: Size = Size { stamp_scale: Scale::Tiny, stamp_rounds: 1, svc_sessions: 2_000 };
}

/// One STAMP cell: modified variant, tuned policy, lock fallback.
#[derive(Clone, Copy, Debug)]
pub struct StampCell {
    /// Platform.
    pub platform: Platform,
    /// Benchmark.
    pub bench: BenchId,
    /// Worker threads.
    pub threads: u32,
    /// Input scale.
    pub scale: Scale,
    /// Round (input seed index).
    pub round: u32,
    /// Input seed.
    pub seed: u64,
}

/// One svc measure cell at Zipf 1.1.
#[derive(Clone, Copy, Debug)]
pub struct SvcCell {
    /// Platform.
    pub platform: Platform,
    /// Fallback tier.
    pub fallback: FallbackPolicy,
    /// Client sessions.
    pub sessions: u64,
    /// Traffic seed.
    pub seed: u64,
}

/// The svc-hot fallback tiers: the lock tier and the STM tier, whose
/// NOrec validation roughly doubles a request's host cost.
pub const SVC_TIERS: [FallbackPolicy; 2] = [FallbackPolicy::Lock, FallbackPolicy::Stm];

/// The svc-hot Zipf exponent in permille.
pub const SVC_SKEW_PERMILLE: u32 = 1100;

/// svc-hot service parameters at `sessions` client sessions.
pub fn svc_params(sessions: u64) -> htm_svc::SvcParams {
    htm_svc::SvcParams { sessions, ..htm_svc::params_for(Scale::Sim, SVC_SKEW_PERMILLE) }
}

/// One model-checker cell, explored in DPOR mode.
#[derive(Clone, Copy, Debug)]
pub struct ModelCell {
    /// Suite kernel name.
    pub kernel: &'static str,
    /// Platform.
    pub platform: Platform,
    /// Tier under check.
    pub tier: htm_model::Tier,
    /// Simulation seed.
    pub seed: u64,
}

/// One cell of a workload pass.
#[derive(Clone, Copy, Debug)]
pub enum Cell {
    /// A STAMP measurement.
    Stamp(StampCell),
    /// A service measurement.
    Svc(SvcCell),
    /// A model-checker exploration.
    Model(ModelCell),
}

impl Cell {
    /// Stable identifier, unique within a workload.
    pub fn id(&self) -> String {
        match self {
            Cell::Stamp(c) => format!("{}/{}/k{}", platform_key(c.platform), c.bench, c.round),
            Cell::Svc(c) => format!("{}/{}", platform_key(c.platform), c.fallback.key()),
            Cell::Model(c) => format!("{}/{}/{}", c.kernel, platform_key(c.platform), c.tier.key()),
        }
    }

    /// The STAMP benchmark label, for per-benchmark host-time shares.
    pub fn bench(&self) -> Option<BenchId> {
        match self {
            Cell::Stamp(c) => Some(c.bench),
            _ => None,
        }
    }

    /// Runs the cell, timing each phase. A panic (a failed `verify`, a
    /// scheduler deadlock, an engine bug) becomes [`Outcome::error`].
    pub fn run(&self, tracer: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let res = catch_unwind(AssertUnwindSafe(|| match self {
            Cell::Stamp(c) => {
                let machine = machine_for(c.platform, c.bench);
                let make =
                    stamp::workload_factory(c.bench, Variant::Modified, &machine, c.scale, c.seed);
                let spec = RunSpec {
                    machine: &machine,
                    threads: c.threads,
                    policy: tuned_policy(c.platform, c.bench),
                    seed: c.seed,
                    fallback: FallbackPolicy::Lock,
                };
                run_phases(&|| make(), &spec, &mut out, tracer)
            }
            Cell::Svc(c) => {
                let machine = c.platform.config();
                let params = svc_params(c.sessions);
                let spec = RunSpec {
                    machine: &machine,
                    threads: htm_svc::threads_for(&params),
                    policy: RetryPolicy::default(),
                    seed: c.seed,
                    fallback: c.fallback,
                };
                run_phases(&|| htm_svc::SvcWorkload::new(params, c.seed), &spec, &mut out, tracer)
            }
            Cell::Model(c) => run_model(c, &mut out, tracer),
        }));
        if let Err(p) = res {
            out.error = Some(htm_core::panic_message(&*p));
        }
        out
    }
}

/// What one cell measured.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Host seconds constructing the workload (inputs, traffic, kernels).
    pub construct_s: f64,
    /// Host seconds in `Sim::new`, `Workload::setup` and `prepare`.
    pub setup_s: f64,
    /// Host seconds in `Sim::run_sequential`.
    pub run_sequential_s: f64,
    /// Host seconds in `Sim::run_parallel` (model cells: `explore`).
    pub run_parallel_s: f64,
    /// Host seconds in `verify` and the result digest.
    pub verify_s: f64,
    /// Simulated cycles of the sequential run (STAMP and svc cells).
    pub seq_cycles: u64,
    /// Committed simulated atomic blocks of the parallel run (model cells:
    /// every block of every explored schedule).
    pub blocks: u64,
    /// Statistics of the parallel run (STAMP and svc cells).
    pub stats: Option<RunStats>,
    /// Served requests (svc cells).
    pub requests: u64,
    /// Explored schedules (model cells).
    pub schedules: u64,
    /// Scheduling steps across all explored schedules (model cells).
    pub steps: u64,
    /// Digest of the simulated results.
    pub digest: u64,
    /// Why the cell failed, if it did.
    pub error: Option<String>,
}

impl Outcome {
    /// Host seconds before the simulated run starts.
    pub fn setup_total_s(&self) -> f64 {
        self.construct_s + self.setup_s
    }
}

struct RunSpec<'a> {
    machine: &'a MachineConfig,
    threads: u32,
    policy: RetryPolicy,
    seed: u64,
    fallback: FallbackPolicy,
}

/// Times `f` into `acc` and records it as a span named `name`.
fn timed<R>(tracer: &mut Tracer, name: &'static str, acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    let end = Instant::now();
    *acc += (end - start).as_secs_f64();
    tracer.span(name, start, end);
    r
}

fn sim_config<W: StampWorkload>(w: &W, spec: &RunSpec<'_>) -> SimConfig {
    SimConfig::new(spec.machine.clone()).mem_words(w.mem_words().max(1 << 20)).seed(spec.seed)
}

/// The `stamp::measure` phase sequence, timed phase by phase.
fn run_phases<W: StampWorkload>(
    make: &dyn Fn() -> W,
    spec: &RunSpec<'_>,
    out: &mut Outcome,
    tr: &mut Tracer,
) {
    // Sequential baseline.
    let w = timed(tr, "construct", &mut out.construct_s, make);
    let sim = timed(tr, "sim_new", &mut out.setup_s, || Sim::new(sim_config(&w, spec)));
    timed(tr, "setup", &mut out.setup_s, || {
        w.setup(&sim);
        w.prepare(1);
    });
    let seq_cycles = timed(tr, "run_sequential", &mut out.run_sequential_s, || {
        sim.run_sequential(|ctx| w.work(ctx))
    });
    let seq_result = timed(tr, "verify", &mut out.verify_s, || {
        w.verify(&sim);
        w.result_digest(&sim)
    });
    drop(sim);

    // Parallel run on a fresh, identically seeded simulation.
    let w = timed(tr, "construct", &mut out.construct_s, make);
    let sim = timed(tr, "sim_new", &mut out.setup_s, || {
        Sim::new(sim_config(&w, spec).fallback(spec.fallback))
    });
    timed(tr, "setup", &mut out.setup_s, || {
        w.setup(&sim);
        w.prepare(spec.threads);
    });
    let stats = timed(tr, "run_parallel", &mut out.run_parallel_s, || {
        sim.run_parallel(spec.threads, spec.policy, |ctx| w.work(ctx))
    });
    timed(tr, "verify", &mut out.verify_s, || {
        w.verify(&sim);
        // The differential-oracle check: where the workload has a
        // schedule-independent result digest, both runs must agree.
        let par_result = w.result_digest(&sim);
        assert_eq!(seq_result, par_result, "sequential and parallel result digests differ");
        out.digest = stats_digest(seq_cycles, &stats, par_result);
    });
    out.seq_cycles = seq_cycles;
    out.blocks = stats.committed_blocks();
    out.requests = stats.latency().count();
    out.stats = Some(stats);
}

/// FNV-1a over a stream of words.
fn fnv64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    }
    h
}

/// Digest of a STAMP/svc cell's simulated results: both runs' cycles, the
/// parallel run's commit and abort counts and latency percentiles, and the
/// workload's result digest.
fn stats_digest(seq_cycles: u64, par: &RunStats, result: Option<u64>) -> u64 {
    let lat = par.latency();
    let mut words = vec![seq_cycles, par.cycles(), result.unwrap_or(0)];
    words.extend([
        par.hw_commits(),
        par.irrevocable_commits(),
        par.stm_commits(),
        par.stm_validation_aborts(),
        par.rot_commits(),
        par.spill_commits(),
        par.fallback_lock_waits(),
        par.total_aborts(),
    ]);
    words.extend(htm_core::AbortCategory::ALL.iter().map(|c| par.aborts_in(*c)));
    words.extend([
        lat.count(),
        lat.value_at(50.0),
        lat.value_at(90.0),
        lat.value_at(99.0),
        lat.value_at(99.9),
    ]);
    fnv64(words)
}

fn run_model(c: &ModelCell, out: &mut Outcome, tr: &mut Tracer) {
    let cfg = timed(tr, "construct", &mut out.construct_s, || {
        let kernel = htm_model::kernel::by_name(c.kernel).expect("suite kernel");
        let mut cfg = htm_model::ModelConfig::new(kernel, c.platform, c.tier);
        cfg.seed = c.seed;
        cfg
    });
    let r = timed(tr, "explore", &mut out.run_parallel_s, || htm_model::explore(&cfg));
    timed(tr, "verify", &mut out.verify_s, || {
        assert!(!r.truncated, "model exploration truncated:\n{r}");
        assert!(r.ok(), "model violation:\n{r}");
        out.digest = fnv64(
            [r.schedules, r.steps_total, r.max_depth as u64, r.sleep_pruned, r.violating_schedules]
                .into_iter()
                .chain(r.digests.iter().copied()),
        );
    });
    out.schedules = r.schedules;
    out.steps = r.steps_total;
    out.blocks = r.schedules * cfg.kernel.total_blocks() as u64;
}

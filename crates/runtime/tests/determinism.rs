//! Determinism regression tests (DESIGN.md §5).
//!
//! Three guarantees are pinned here:
//!
//! 1. With the empty fault plan and disjoint per-thread data, repeated runs
//!    of the same configuration are bit-identical in every
//!    schedule-independent counter and in the final memory image.
//! 2. A run recorded under a seeded fault plan replays bit-identically from
//!    its [`ScheduleTrace`]: same commits, aborts, injected faults,
//!    watchdog trips, and the same memory digest — including after a
//!    save/load round trip of the trace through disk. A replay whose
//!    workload cannot reach a recorded turn fails at once.
//! 3. Every commit path of every retry policy (the Figure-1 loop, the
//!    adaptive tiers, HLE, constrained transactions, watchdog trips and
//!    their replays) produces exactly the pinned counters, cycles and
//!    memory image, with the workers on OS threads and, on a cooperative
//!    `Sim`, as fibers.

use std::sync::Arc;

use htm_core::{SimError, WordAddr};
use htm_machine::{BgqMode, MachineConfig, Platform};
use htm_runtime::sched::RoundRobin;
use htm_runtime::{
    FallbackPolicy, FaultPlan, RetryPolicy, RunStats, ScheduleTrace, Sim, SimConfig, ThreadCtx, Tx,
    WatchdogConfig,
};

/// One thread's schedule-independent counters: commits (hardware,
/// irrevocable), the five abort classes, injected faults, watchdog trips,
/// degraded commits, and the software-tier triple (STM commits, STM
/// validation aborts, ROT commits).
type CounterRow = (u64, u64, [u64; 5], u64, u64, u64, [u64; 3]);

/// The schedule-independent slice of the statistics: everything except the
/// simulated clocks and lock-wait times, which legitimately vary with OS
/// scheduling.
fn deterministic_counters(stats: &RunStats) -> Vec<CounterRow> {
    stats
        .threads
        .iter()
        .map(|t| {
            (
                t.hw_commits,
                t.irrevocable_commits,
                t.aborts,
                t.injected_faults,
                t.watchdog_trips,
                t.degraded_commits,
                [t.stm_commits, t.stm_validation_aborts, t.rot_commits],
            )
        })
        .collect()
}

#[test]
fn empty_fault_plan_runs_are_bit_identical_across_three_runs() {
    let run = || {
        let cfg = SimConfig::new(Platform::IntelCore.config()).mem_words(1 << 18).seed(0xD5EED);
        let sim = Sim::new(cfg);
        // One isolated line per thread, pre-allocated before the parallel
        // phase, eight lines apart: Intel's streamer prefetches two lines
        // past a confirmed stride (and the lock-line-then-data-line access
        // pattern confirms one), so narrow spacing would let one thread's
        // prefetch land in the other's write set and race.
        let base = sim.alloc().alloc_aligned(2 * 64, 64);
        let stats = sim.run_parallel(2, RetryPolicy::default(), |ctx| {
            let a = base.offset(64 * ctx.thread_id());
            for i in 0..400u64 {
                ctx.atomic(|tx| {
                    let v = tx.load(a)?;
                    tx.store(a, v.wrapping_mul(31).wrapping_add(i))
                });
            }
        });
        (deterministic_counters(&stats), sim.memory_digest())
    };
    let first = run();
    assert_eq!(first, run());
    assert_eq!(first, run());
}

fn contended_sim(plan: FaultPlan, watchdog: WatchdogConfig) -> (Sim, WordAddr) {
    let cfg = SimConfig::new(Platform::IntelCore.config())
        .mem_words(1 << 18)
        .seed(0x7EC0)
        .faults(plan)
        .watchdog(watchdog);
    let sim = Sim::new(cfg);
    // Eight words on one conflict-detection line: every block conflicts.
    let base = sim.alloc().alloc_aligned(8, 64);
    (sim, base)
}

/// Schedule-sensitive workload: each block mixes the thread id into a
/// randomly chosen shared word, so the final memory image depends on the
/// exact commit interleaving — which is exactly what replay must reproduce.
/// The in-transaction RNG draw also exercises the recorded draw-skip logic
/// for aborted attempts.
fn contended_work(base: WordAddr) -> impl Fn(&mut ThreadCtx) + Sync {
    move |ctx: &mut ThreadCtx| {
        for _ in 0..150 {
            contended_block(ctx, base);
        }
    }
}

/// One atomic block of [`contended_work`].
fn contended_block(ctx: &mut ThreadCtx, base: WordAddr) {
    let tid = ctx.thread_id() as u64;
    ctx.atomic(|tx| {
        let idx = rand::Rng::gen_range(tx.rng(), 0..8u32);
        let v = tx.load(base.offset(idx))?;
        tx.store(base.offset(idx), v.wrapping_mul(31).wrapping_add(tid + 1))
    });
}

#[test]
fn recorded_fault_injected_run_replays_bit_identically() {
    let plan = FaultPlan::none()
        .transient_abort_per_begin(0.2)
        .capacity_abort_per_begin(0.05)
        .doom_at_commit(0.05);

    let (sim, base) = contended_sim(plan, WatchdogConfig::default());
    let (recorded, trace) =
        sim.record_parallel(4, RetryPolicy::default(), contended_work(base)).expect("record");
    let recorded_digest = sim.memory_digest();
    assert!(recorded.injected_faults() > 0, "the plan must actually fire");
    assert!(trace.blocks() == 600, "150 blocks x 4 threads");
    assert_eq!(trace.aborted_attempts() as u64, recorded.total_aborts());

    // Round-trip the trace through disk before replaying it.
    let path = std::env::temp_dir().join("htm-determinism-replay-trace.txt");
    trace.save(&path).expect("save trace");
    let trace = ScheduleTrace::load(&path).expect("load trace");
    let _ = std::fs::remove_file(&path);

    let (sim2, base2) = contended_sim(plan, WatchdogConfig::default());
    assert_eq!(base, base2, "identical setup must allocate identically");
    let replayed =
        sim2.replay(&trace, RetryPolicy::default(), contended_work(base2)).expect("replay");

    assert_eq!(deterministic_counters(&recorded), deterministic_counters(&replayed));
    assert_eq!(recorded_digest, sim2.memory_digest(), "memory images must match");
}

#[test]
fn watchdog_trips_and_degraded_blocks_replay_faithfully() {
    // 100% abort storm + huge retry budget: progress comes only from
    // watchdog trips and degraded execution — the rarest paths in the
    // retry machine, all of which must round-trip through the trace.
    let plan = FaultPlan::none().transient_abort_per_begin(1.0);
    let watchdog = WatchdogConfig { starvation_bound: 16, degraded_blocks: 4, escalation_cap: 3 };

    let (sim, base) = contended_sim(plan, watchdog);
    let (recorded, trace) = sim
        .record_parallel(2, RetryPolicy::uniform(1_000_000), contended_work(base))
        .expect("record");
    let recorded_digest = sim.memory_digest();
    assert!(recorded.watchdog_trips() > 0, "the storm must trip the watchdog");
    assert_eq!(recorded.hw_commits(), 0);

    let (sim2, base2) = contended_sim(plan, watchdog);
    let replayed = sim2
        .replay(&trace, RetryPolicy::uniform(1_000_000), contended_work(base2))
        .expect("replay");

    assert_eq!(deterministic_counters(&recorded), deterministic_counters(&replayed));
    assert_eq!(recorded_digest, sim2.memory_digest());
}

#[test]
fn replay_rejects_a_mismatched_workload() {
    let (sim, base) = contended_sim(FaultPlan::none(), WatchdogConfig::default());
    let (_, trace) =
        sim.record_parallel(2, RetryPolicy::default(), contended_work(base)).expect("record");

    // A workload that executes no atomic blocks leaves every recorded
    // block unconsumed — reported as divergence, not silently accepted.
    let (sim2, _) = contended_sim(FaultPlan::none(), WatchdogConfig::default());
    let err = sim2.replay(&trace, RetryPolicy::default(), |_ctx: &mut ThreadCtx| {}).unwrap_err();
    assert!(err.to_string().contains("replay diverged"), "{err}");

    // A workload that executes more atomic blocks than the trace recorded
    // runs off the end of its decision stream.
    let (sim3, base3) = contended_sim(FaultPlan::none(), WatchdogConfig::default());
    let err = sim3
        .replay(&trace, RetryPolicy::default(), |ctx: &mut ThreadCtx| {
            contended_work(base3)(ctx);
            ctx.atomic(|tx| {
                let v = tx.load(base3)?;
                tx.store(base3, v + 1)
            });
        })
        .unwrap_err();
    assert!(err.to_string().contains("replay diverged"), "{err}");
}

#[test]
fn a_stalled_replay_fails_at_once_with_the_deadlock_diagnostic() {
    // Recorded on a cooperative Sim, under the round-robin scheduler, the
    // two threads' blocks alternate in the commit order (free-running,
    // thread 0 could finish before thread 1's 11th block).
    let (sim, base) = contended_sim(FaultPlan::none(), WatchdogConfig::default());
    sim.declare_cooperative();
    let (_, trace) =
        sim.record_parallel(2, RetryPolicy::default(), contended_work(base)).expect("record");

    // Thread 1 stops after 10 of its 150 blocks, so thread 0 reaches a
    // block whose turn comes after thread 1's 11th and can never come. The
    // replay's scheduler sees every live thread blocked and ends the run.
    let (sim2, base2) = contended_sim(FaultPlan::none(), WatchdogConfig::default());
    let err = sim2
        .replay(&trace, RetryPolicy::default(), |ctx: &mut ThreadCtx| {
            let blocks = if ctx.thread_id() == 1 { 10 } else { 150 };
            for _ in 0..blocks {
                contended_block(ctx, base2);
            }
        })
        .unwrap_err();
    match err {
        SimError::WorkerPanicked { thread: 0, ref message } => {
            assert!(message.contains("round-robin scheduler deadlock"), "{message}");
        }
        other => panic!("expected thread 0's deadlock diagnostic, got {other:?}"),
    }
}

#[test]
fn a_worker_cannot_enter_a_second_scheduler() {
    // A cooperative Sim's workers already run under the scheduler the
    // runtime entered them into; entering another one fails the worker
    // instead of silently taking its pauses from the first.
    let (sim, _) = contended_sim(FaultPlan::none(), WatchdogConfig::default());
    sim.declare_cooperative();
    let err = sim
        .try_run_parallel(2, RetryPolicy::default(), |ctx: &mut ThreadCtx| {
            let _second = RoundRobin::new(2).enter(ctx.thread_id());
        })
        .unwrap_err();
    match err {
        SimError::WorkerPanicked { ref message, .. } => {
            assert!(message.contains("a worker cannot enter a second scheduler"), "{message}");
        }
        other => panic!("expected the second entry to fail its worker, got {other:?}"),
    }
}

#[test]
fn software_fallback_runs_replay_bit_identically() {
    // The hybrid tiers round-trip through the trace: recorded STM (and,
    // on POWER8, ROT) blocks replay as software commits with identical
    // counters and memory image, trace disk round trip included.
    for (platform, fallback) in
        [(Platform::IntelCore, FallbackPolicy::Stm), (Platform::Power8, FallbackPolicy::Rot)]
    {
        let plan = FaultPlan::none().transient_abort_per_begin(0.4).doom_at_commit(0.05);
        let make = || {
            let cfg = SimConfig::new(platform.config())
                .mem_words(1 << 18)
                .seed(0x50F7)
                .faults(plan)
                .fallback(fallback);
            let sim = Sim::new(cfg);
            let base = sim.alloc().alloc_aligned(8, 64);
            (sim, base)
        };

        let (sim, base) = make();
        let (recorded, trace) =
            sim.record_parallel(4, RetryPolicy::uniform(1), contended_work(base)).expect("record");
        let recorded_digest = sim.memory_digest();
        let soft = match fallback {
            FallbackPolicy::Rot => recorded.rot_commits(),
            _ => recorded.stm_commits(),
        };
        assert!(soft > 0, "{platform} {fallback}: the software tier must actually commit");

        let path =
            std::env::temp_dir().join(format!("htm-determinism-{}-trace.txt", fallback.key()));
        trace.save(&path).expect("save trace");
        let trace = ScheduleTrace::load(&path).expect("load trace");
        let _ = std::fs::remove_file(&path);

        let (sim2, base2) = make();
        assert_eq!(base, base2);
        let replayed =
            sim2.replay(&trace, RetryPolicy::uniform(1), contended_work(base2)).expect("replay");
        assert_eq!(
            deterministic_counters(&recorded),
            deterministic_counters(&replayed),
            "{platform} {fallback}"
        );
        assert_eq!(recorded_digest, sim2.memory_digest(), "{platform} {fallback}");
    }
}

#[test]
fn hle_and_constrained_blocks_replay_bit_identically() {
    // Neither interface goes through `atomic`'s retry loop: HLE re-elides
    // and constrained transactions arbitrate. Both still record every
    // block, and their commits replay through the shared attempt path.
    let plan = FaultPlan::none().seed(0xE11D).transient_abort_per_begin(0.3);
    for (platform, api) in
        [(Platform::Zec12, PinApi::Constrained), (Platform::IntelCore, PinApi::Hle)]
    {
        let machine = platform.config();
        for threads in [1, 2] {
            let (sim, counters, wide) = pin_sim(
                &machine,
                FallbackPolicy::Lock,
                plan,
                WatchdogConfig::default(),
                Runner::Threads,
            );
            let (recorded, trace) = sim
                .record_parallel(
                    threads,
                    RetryPolicy::default(),
                    pin_work(counters, wide, api, None),
                )
                .expect("record");
            let recorded_digest = sim.memory_digest();
            assert_eq!(trace.blocks() as u64, (threads * PIN_BLOCKS) as u64);

            let path = std::env::temp_dir()
                .join(format!("htm-determinism-{}-{threads}-trace.txt", platform.short_name()));
            trace.save(&path).expect("save trace");
            let trace = ScheduleTrace::load(&path).expect("load trace");
            let _ = std::fs::remove_file(&path);

            let (sim2, counters2, wide2) = pin_sim(
                &machine,
                FallbackPolicy::Lock,
                plan,
                WatchdogConfig::default(),
                Runner::Threads,
            );
            let replayed = sim2
                .replay(&trace, RetryPolicy::default(), pin_work(counters2, wide2, api, None))
                .expect("replay");
            let what = format!("{platform} x{threads}");
            assert_eq!(
                fold_replayable(0, &recorded),
                fold_replayable(0, &replayed),
                "{what}: replayed counters"
            );
            assert_eq!(recorded_digest, sim2.memory_digest(), "{what}: replayed memory");
        }
    }
}

#[test]
fn certified_record_and_replay_both_certify_clean() {
    // Certification composes with record/replay: the recorded schedule and
    // its serialized replay must both be conflict-serializable.
    let cfg =
        SimConfig::new(Platform::IntelCore.config()).mem_words(1 << 18).seed(0xCE47).certify(true);
    let sim = Sim::new(cfg.clone());
    let base = sim.alloc().alloc_aligned(8, 64);
    let (recorded, trace) =
        sim.record_parallel(4, RetryPolicy::default(), contended_work(base)).expect("record");
    let report = recorded.certify.as_ref().expect("certifier on");
    assert!(report.ok(), "{report}");

    let sim2 = Sim::new(cfg);
    let base2 = sim2.alloc().alloc_aligned(8, 64);
    let replayed =
        sim2.replay(&trace, RetryPolicy::default(), contended_work(base2)).expect("replay");
    let report = replayed.certify.as_ref().expect("certifier on");
    assert!(report.ok(), "{report}");
    assert_eq!(sim.memory_digest(), sim2.memory_digest());
}

// ---------------------------------------------------------------------
// Retry-path pin: every commit path of every retry policy, exactly
// ---------------------------------------------------------------------
//
// Each scenario runs one small workload and folds every `RunStats`
// counter total, each thread's abort categories and simulated cycles, and
// the memory digest into an FNV-64 hash per scenario group. Runs of more
// than one thread go through the round-robin cooperative scheduler, so
// every value, cycles included, is a pure function of the code. Every
// group runs twice, on OS threads and on a cooperative `Sim` (fibers),
// against the same hashes. The expected hashes were captured once and are
// not to be re-blessed: a change to the retry machinery that moves any
// simulated result fails here and names the group it moved.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: u64, v: u64) -> u64 {
    v.to_le_bytes().iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Folds one run: every counter total, each thread's five abort
/// categories and final cycles, and the memory digest.
fn fold_run(h: u64, stats: &RunStats, digest: u64) -> u64 {
    let mut h = stats.counters().fold(h, |h, (_, v)| fnv(h, v));
    for t in &stats.threads {
        h = t.aborts.iter().fold(h, |h, &a| fnv(h, a));
        h = fnv(h, t.cycles);
    }
    fnv(h, digest)
}

/// The counters a replay reproduces (replay re-runs only committing
/// bodies, so cycles, waits and spills of aborted attempts differ).
fn fold_replayable(h: u64, stats: &RunStats) -> u64 {
    stats.threads.iter().fold(h, |h, t| {
        [
            t.hw_commits,
            t.irrevocable_commits,
            t.stm_commits,
            t.stm_validation_aborts,
            t.rot_commits,
            t.spill_commits,
            t.injected_faults,
            t.watchdog_trips,
            t.degraded_commits,
        ]
        .iter()
        .chain(&t.aborts)
        .fold(h, |h, &v| fnv(h, v))
    })
}

fn pin_machines() -> [(&'static str, MachineConfig); 5] {
    [
        ("bgq-short", MachineConfig::blue_gene_q(BgqMode::ShortRunning)),
        ("bgq-long", MachineConfig::blue_gene_q(BgqMode::LongRunning)),
        ("zec12", Platform::Zec12.config()),
        ("intel", Platform::IntelCore.config()),
        ("power8", Platform::Power8.config()),
    ]
}

const PIN_TIERS: [FallbackPolicy; 4] =
    [FallbackPolicy::Lock, FallbackPolicy::Stm, FallbackPolicy::Rot, FallbackPolicy::Adaptive];

/// Begin, access and commit faults plus a delayed lock release.
fn pin_storm() -> FaultPlan {
    FaultPlan::none()
        .seed(0x5704)
        .transient_abort_per_begin(0.25)
        .capacity_abort_per_begin(0.05)
        .transient_abort_per_access(0.01)
        .doom_at_commit(0.05)
        .lock_release_delay(200)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum PinApi {
    Atomic,
    Hle,
    Constrained,
}

/// Words between two wide-block loads: 256 B, a separate
/// conflict-detection line on every platform.
const PIN_STRIDE: u32 = 32;
const PIN_WIDE: u32 = 80;
const PIN_BLOCKS: u32 = 40;

/// Where a pinned run's workers run.
#[derive(Clone, Copy, Debug)]
enum Runner {
    Threads,
    /// A cooperative `Sim`: its workers are fibers on the calling thread.
    Fibers,
}

const RUNNERS: [Runner; 2] = [Runner::Threads, Runner::Fibers];

fn pin_sim(
    machine: &MachineConfig,
    fallback: FallbackPolicy,
    plan: FaultPlan,
    watchdog: WatchdogConfig,
    runner: Runner,
) -> (Sim, WordAddr, WordAddr) {
    let cfg = SimConfig::new(machine.clone())
        .mem_words(1 << 18)
        .seed(0x9177)
        .faults(plan)
        .fallback(fallback)
        .watchdog(watchdog);
    let sim = Sim::new(cfg);
    if let Runner::Fibers = runner {
        sim.declare_cooperative();
    }
    let counters = sim.alloc().alloc_aligned(32, 256);
    let wide = sim.alloc().alloc_aligned(PIN_WIDE * PIN_STRIDE, 256);
    (sim, counters, wide)
}

/// Each block updates a counter at a random index; every 7th block (not
/// under constrained transactions, whose footprint is bounded) also loads
/// 80 separate lines and stores their sum, which overflows POWER8's
/// 64-entry TMCAM. With `sched`, the workers enter that round-robin
/// scheduler themselves: the OS-thread runner's test of condvar grants (a
/// cooperative `Sim` enters its workers into a scheduler of its own).
fn pin_work(
    counters: WordAddr,
    wide: WordAddr,
    api: PinApi,
    sched: Option<Arc<RoundRobin>>,
) -> impl Fn(&mut ThreadCtx) + Sync {
    move |ctx: &mut ThreadCtx| {
        let tid = ctx.thread_id();
        let _entered = sched.as_ref().map(|s| s.enter(tid));
        if api == PinApi::Hle {
            ctx.set_hle(true);
        }
        for i in 0..PIN_BLOCKS {
            let body = |tx: &mut Tx<'_>| {
                let a = counters.offset(rand::Rng::gen_range(tx.rng(), 0..32u32));
                let v = tx.load(a)?;
                tx.store(a, v.wrapping_mul(31).wrapping_add(tid as u64 + 1))?;
                if i % 7 == 0 && api != PinApi::Constrained {
                    let mut sum = 0u64;
                    for k in 0..PIN_WIDE {
                        sum = sum.wrapping_add(tx.load(wide.offset(k * PIN_STRIDE))?);
                    }
                    tx.store(wide.offset((i + tid) % PIN_WIDE * PIN_STRIDE), sum ^ v)?;
                }
                Ok(())
            };
            match api {
                PinApi::Constrained => ctx.atomic_constrained(body),
                PinApi::Atomic | PinApi::Hle => ctx.atomic(body),
            }
        }
    }
}

/// The scheduler a pinned run's workers enter themselves: on OS threads,
/// a round-robin one when there is more than one worker, so the run is
/// exact. A cooperative `Sim` runs its workers under its own.
fn sched(runner: Runner, threads: u32) -> Option<Arc<RoundRobin>> {
    (matches!(runner, Runner::Threads) && threads > 1).then(|| RoundRobin::new(threads))
}

/// Runs one scenario and folds it into `h`.
#[allow(clippy::too_many_arguments)]
fn pin_run(
    h: u64,
    machine: &MachineConfig,
    fallback: FallbackPolicy,
    plan: FaultPlan,
    watchdog: WatchdogConfig,
    policy: RetryPolicy,
    api: PinApi,
    threads: u32,
    runner: Runner,
) -> u64 {
    let (sim, counters, wide) = pin_sim(machine, fallback, plan, watchdog, runner);
    let stats =
        sim.run_parallel(threads, policy, pin_work(counters, wide, api, sched(runner, threads)));
    assert_eq!(stats.committed_blocks(), (threads * PIN_BLOCKS) as u64);
    fold_run(h, &stats, sim.memory_digest())
}

/// Compares computed group hashes against the pinned ones, naming every
/// group that moved.
fn check_pins(runner: Runner, actual: &[(String, u64)], expected: &[(&str, u64)]) {
    let moved: Vec<String> = actual
        .iter()
        .filter(|(g, h)| !expected.contains(&(g.as_str(), *h)))
        .map(|(g, h)| format!("    (\"{g}\", {h:#018x}),"))
        .collect();
    assert!(
        moved.is_empty() && actual.len() == expected.len(),
        "{runner:?}: {} of {} retry-path groups moved (computed values):\n{}",
        moved.len(),
        expected.len(),
        moved.join("\n")
    );
}

const TIER_PINS: &[(&str, u64)] = &[
    ("bgq-short/lock", 0x13adba20c2f2ea30),
    ("bgq-short/stm", 0x5e5375fad65bbeb1),
    ("bgq-short/rot", 0x13adba20c2f2ea30),
    ("bgq-short/adaptive", 0xe930ec292b91cba9),
    ("bgq-long/lock", 0xfd7ee205e9479867),
    ("bgq-long/stm", 0x360aab35ef9f9642),
    ("bgq-long/rot", 0xfd7ee205e9479867),
    ("bgq-long/adaptive", 0x5fe46176a9b620a2),
    ("zec12/lock", 0x1a484b9acd2314fd),
    ("zec12/stm", 0x0d50c6f302aec642),
    ("zec12/rot", 0x1a484b9acd2314fd),
    ("zec12/adaptive", 0x082d9f5d45dcef04),
    ("intel/lock", 0xdee916744c6bcc7e),
    ("intel/stm", 0x044d47055637e0db),
    ("intel/rot", 0xdee916744c6bcc7e),
    ("intel/adaptive", 0x800baf0f425ade62),
    ("power8/lock", 0x33f47cce5c5f45cd),
    ("power8/stm", 0x5ef8918232718e42),
    ("power8/rot", 0xba5e4a1d9f56c60f),
    ("power8/adaptive", 0x6505b3a1052eb7a2),
];

#[test]
fn every_tier_on_every_machine_is_pinned() {
    for runner in RUNNERS {
        let mut actual = Vec::new();
        for (name, machine) in pin_machines() {
            for fallback in PIN_TIERS {
                let mut h = FNV_OFFSET;
                for plan in [FaultPlan::none(), pin_storm()] {
                    for threads in [1, 2, 4] {
                        h = pin_run(
                            h,
                            &machine,
                            fallback,
                            plan,
                            WatchdogConfig::default(),
                            RetryPolicy::default(),
                            PinApi::Atomic,
                            threads,
                            runner,
                        );
                    }
                }
                actual.push((format!("{name}/{}", fallback.key()), h));
            }
        }
        check_pins(runner, &actual, TIER_PINS);
    }
}

const INTERFACE_PINS: &[(&str, u64)] =
    &[("intel/hle", 0x62d42b0533529120), ("zec12/constrained", 0xcabde541b0f01da9)];

#[test]
fn hle_and_constrained_interfaces_are_pinned() {
    let intel = Platform::IntelCore.config();
    let zec12 = Platform::Zec12.config();
    for runner in RUNNERS {
        let mut hle = FNV_OFFSET;
        let mut cx = FNV_OFFSET;
        for plan in [FaultPlan::none(), pin_storm()] {
            for threads in [1, 2, 4] {
                hle = pin_run(
                    hle,
                    &intel,
                    FallbackPolicy::Lock,
                    plan,
                    WatchdogConfig::default(),
                    RetryPolicy::default(),
                    PinApi::Hle,
                    threads,
                    runner,
                );
            }
            // One thread only, as first pinned: multi-thread constrained
            // runs are covered by the executor's cooperative-run test.
            cx = pin_run(
                cx,
                &zec12,
                FallbackPolicy::Lock,
                plan,
                WatchdogConfig::default(),
                RetryPolicy::default(),
                PinApi::Constrained,
                1,
                runner,
            );
        }
        let actual = [("intel/hle".into(), hle), ("zec12/constrained".into(), cx)];
        check_pins(runner, &actual, INTERFACE_PINS);
    }
}

const WATCHDOG_PINS: &[(&str, u64)] = &[
    ("bgq-short/lock/trip", 0x68241d5ad5bb7766),
    ("bgq-short/adaptive/trip", 0xdbdfe20009094256),
    ("bgq-long/lock/trip", 0x50be4bf83ec8475a),
    ("bgq-long/adaptive/trip", 0x2989084c3e71e3c4),
    ("zec12/lock/trip", 0x5dedd622bbbe54f4),
    ("zec12/adaptive/trip", 0x939412d2e5dd9a81),
    ("intel/lock/trip", 0x0b14e7bdc4b34d7b),
    ("intel/adaptive/trip", 0xd404ebcf7f7075cf),
    ("power8/lock/trip", 0xa01c9e925b8b40ff),
    ("power8/adaptive/trip", 0xd2bcc82ffdcdd040),
];

#[test]
fn watchdog_trips_are_pinned() {
    let storm = FaultPlan::none().transient_abort_per_begin(1.0);
    let watchdog = WatchdogConfig { starvation_bound: 16, degraded_blocks: 4, escalation_cap: 3 };
    for runner in RUNNERS {
        let mut actual = Vec::new();
        for (name, machine) in pin_machines() {
            for fallback in [FallbackPolicy::Lock, FallbackPolicy::Adaptive] {
                let mut h = FNV_OFFSET;
                for threads in [1, 2] {
                    h = pin_run(
                        h,
                        &machine,
                        fallback,
                        storm,
                        watchdog,
                        RetryPolicy::uniform(1_000_000),
                        PinApi::Atomic,
                        threads,
                        runner,
                    );
                }
                actual.push((format!("{name}/{}/trip", fallback.key()), h));
            }
        }
        check_pins(runner, &actual, WATCHDOG_PINS);
    }
}

const REPLAY_PINS: &[(&str, u64)] = &[
    ("bgq-short/replay", 0x727340d8052b2dcf),
    ("bgq-long/replay", 0x967dc743172cba42),
    ("zec12/replay", 0x018cd26fc03dd906),
    ("intel/replay", 0xe916f97a217f48ee),
    ("power8/replay", 0x3ad7aefcc2b735e3),
];

/// The recordings and the replays run on `runner`; every replay runs under
/// the round-robin scheduler the runtime enters its workers into, on a
/// cooperative `Sim` too.
#[test]
fn record_and_replay_of_every_tier_are_pinned() {
    for runner in RUNNERS {
        let mut actual = Vec::new();
        for (name, machine) in pin_machines() {
            let mut h = FNV_OFFSET;
            for fallback in PIN_TIERS {
                for threads in [1, 2] {
                    let storm = pin_storm();
                    let watchdog = WatchdogConfig::default();
                    let (sim, counters, wide) =
                        pin_sim(&machine, fallback, storm, watchdog, runner);
                    let work = pin_work(counters, wide, PinApi::Atomic, sched(runner, threads));
                    let (recorded, trace) =
                        sim.record_parallel(threads, RetryPolicy::default(), work).expect("record");
                    let digest = sim.memory_digest();
                    let trace = ScheduleTrace::from_text(&trace.to_text()).expect("trace text");

                    let (sim2, counters2, wide2) =
                        pin_sim(&machine, fallback, storm, watchdog, runner);
                    let work = pin_work(counters2, wide2, PinApi::Atomic, None);
                    let replayed =
                        sim2.replay(&trace, RetryPolicy::default(), work).expect("replay");
                    let what = format!("{runner:?}: {name} {fallback} x{threads}");
                    assert_eq!(
                        fold_replayable(0, &recorded),
                        fold_replayable(0, &replayed),
                        "{what}: replayed counters"
                    );
                    assert_eq!(digest, sim2.memory_digest(), "{what}: replayed memory");
                    h = fold_replayable(fold_run(h, &recorded, digest), &replayed);
                }
            }
            actual.push((format!("{name}/replay"), h));
        }
        check_pins(runner, &actual, REPLAY_PINS);
    }
}

// The same scenarios as `TIER_PINS`, certified and sanitized, on fibers:
// each group folds every run as `fold_run` does, plus what the certifier,
// the opacity check and the race sanitizer report, and every conflict the
// sanitizer blamed on an aggressor. The opacity check's violations are
// folded, not asserted away: the Blue Gene/Q long-running lock, stm and
// rot groups report some at four threads. Captured once; not to be
// re-blessed.

/// Folds the bytes of `text` (a report's violations, races or segments).
fn fold_text(h: u64, text: &str) -> u64 {
    text.bytes().fold(h, |h, b| fnv(h, b as u64))
}

/// Runs one `TIER_PINS` scenario certified and sanitized on fibers and
/// folds it, with its reports, into `h`.
fn instrumented_run(
    h: u64,
    machine: &MachineConfig,
    fallback: FallbackPolicy,
    plan: FaultPlan,
    threads: u32,
) -> u64 {
    let cfg = SimConfig::new(machine.clone())
        .mem_words(1 << 18)
        .seed(0x9177)
        .faults(plan)
        .fallback(fallback)
        .certify(true)
        .sanitize(true);
    let sim = Sim::new(cfg);
    sim.declare_cooperative();
    let counters = sim.alloc().alloc_aligned(32, 256);
    let wide = sim.alloc().alloc_aligned(PIN_WIDE * PIN_STRIDE, 256);
    let stats = sim.run_parallel(
        threads,
        RetryPolicy::default(),
        pin_work(counters, wide, PinApi::Atomic, None),
    );
    assert_eq!(stats.committed_blocks(), (threads * PIN_BLOCKS) as u64);
    if machine.platform == Platform::Power8 && fallback == FallbackPolicy::Adaptive {
        // The wide blocks overflow the TMCAM and commit on the spill tier,
        // whose events carry the spilled stores.
        assert!(stats.threads.iter().any(|t| t.spill_commits > 0), "no spilled commit");
    }
    let mut h = fold_run(h, &stats, sim.memory_digest());
    let c = stats.certify.as_ref().expect("certifier enabled");
    assert!(c.ok(), "{c}");
    for v in [c.events as u64, c.edges as u64, c.truncated as u64, c.lock_acquisitions] {
        h = fnv(h, v);
    }
    h = fold_text(h, &format!("{:?}", c.violations));
    let o = stats.opacity.as_ref().expect("certifier enabled");
    h = fnv(fnv(h, o.attempts as u64), o.reads_checked as u64);
    h = fold_text(h, &format!("{:?}", o.violations));
    let r = stats.race.as_ref().expect("sanitizer enabled");
    assert!(r.ok(), "{r}");
    h = fold_text(h, &format!("{:?}", r.races));
    h = fnv(fnv(h, r.words_checked as u64), r.truncated as u64);
    for s in &r.segments {
        h = fold_text(h, &format!("{} {:?} {:?}", s.thread, s.vc, s.accesses));
    }
    stats.conflicts().fold(h, |h, e| fold_text(h, &format!("{e:?}")))
}

const INSTRUMENTATION_PINS: &[(&str, u64)] = &[
    ("bgq-short/lock", 0x2b7e0b5d30cf0d8d),
    ("bgq-short/stm", 0x096085fad3d9d216),
    ("bgq-short/rot", 0x2b7e0b5d30cf0d8d),
    ("bgq-short/adaptive", 0x255e991854857b63),
    ("bgq-long/lock", 0x3ce976a96988a590),
    ("bgq-long/stm", 0xfd50c5042f9db0d7),
    ("bgq-long/rot", 0x3ce976a96988a590),
    ("bgq-long/adaptive", 0xd42673ca92bf70e5),
    ("zec12/lock", 0xfcd4dd2d80d19ab4),
    ("zec12/stm", 0xc60d79166aa3e4fb),
    ("zec12/rot", 0xfcd4dd2d80d19ab4),
    ("zec12/adaptive", 0x3530c3e662f19fd1),
    ("intel/lock", 0x66de5286d020d25c),
    ("intel/stm", 0x85c014ec71cc1182),
    ("intel/rot", 0x66de5286d020d25c),
    ("intel/adaptive", 0xea2af1dd265a64c3),
    ("power8/lock", 0x22091ebcd472d42d),
    ("power8/stm", 0x663aed195b6edc10),
    ("power8/rot", 0xd073d9ee0fe3de5a),
    ("power8/adaptive", 0x406dfa7bf5e2f3a9),
];

#[test]
fn instrumentation_is_pinned() {
    let mut actual = Vec::new();
    for (name, machine) in pin_machines() {
        for fallback in PIN_TIERS {
            let mut h = FNV_OFFSET;
            for plan in [FaultPlan::none(), pin_storm()] {
                for threads in [1, 2, 4] {
                    h = instrumented_run(h, &machine, fallback, plan, threads);
                }
            }
            actual.push((format!("{name}/{}", fallback.key()), h));
        }
    }
    check_pins(Runner::Fibers, &actual, INSTRUMENTATION_PINS);
}

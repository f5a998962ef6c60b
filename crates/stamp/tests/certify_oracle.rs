//! Differential-oracle acceptance matrix (DESIGN.md §5): every STAMP
//! benchmark, on every platform model, must produce a conflict-serializable
//! committed schedule — the certifier's conflict graph is acyclic and every
//! transactional read observed the most recent serialized writer — while
//! the workload's own `verify` passes and (where a workload defines a
//! schedule-independent digest) the parallel result hashes identically to
//! the sequential reference.

use htm_machine::Platform;
use htm_runtime::{FallbackPolicy, FaultPlan, RetryPolicy};
use stamp::{run_bench_oracle, BenchId, BenchParams, Scale, Variant};

fn oracle_params(threads: u32) -> BenchParams {
    BenchParams { threads, scale: Scale::Tiny, ..Default::default() }
}

#[test]
fn every_benchmark_certifies_on_every_platform() {
    for p in Platform::ALL {
        for id in BenchId::ALL {
            let stats = run_bench_oracle(id, Variant::Modified, &p.config(), &oracle_params(2));
            let report = stats.certify.as_ref().expect("oracle certifies");
            assert!(report.ok(), "{p}/{id}:\n{report}");
        }
    }
}

#[test]
fn certifier_handles_single_thread_and_high_thread_counts() {
    for threads in [1u32, 8] {
        for id in BenchId::ALL {
            let stats = run_bench_oracle(
                id,
                Variant::Modified,
                &Platform::IntelCore.config(),
                &oracle_params(threads),
            );
            assert!(stats.certify.as_ref().is_some_and(|r| r.ok()), "{id} @ {threads}");
        }
    }
}

#[test]
fn original_variants_certify_too() {
    for id in BenchId::MODIFIED_SET {
        let stats =
            run_bench_oracle(id, Variant::Original, &Platform::Power8.config(), &oracle_params(2));
        assert!(stats.certify.as_ref().is_some_and(|r| r.ok()), "{id} (original)");
    }
}

#[test]
fn certifier_passes_under_a_fault_storm() {
    // PR-1's fault storm forces heavy abort/fallback traffic through every
    // execution path; the committed schedule must still serialize.
    let storm = FaultPlan::none()
        .transient_abort_per_begin(0.3)
        .capacity_abort_per_begin(0.1)
        .transient_abort_per_access(0.02)
        .doom_at_commit(0.1)
        .lock_release_delay(100);
    for id in [BenchId::Ssca2, BenchId::Intruder, BenchId::Genome, BenchId::VacationHigh] {
        let params = BenchParams { faults: storm, ..oracle_params(4) };
        let stats = run_bench_oracle(id, Variant::Modified, &Platform::IntelCore.config(), &params);
        let report = stats.certify.as_ref().expect("oracle certifies");
        assert!(report.ok(), "{id} under storm:\n{report}");
        assert!(stats.injected_faults() > 0, "{id}: the storm must actually fire");
    }
}

#[test]
fn every_fallback_tier_certifies_and_matches_the_sequential_digest() {
    // The oracle anchors each run to the sequential reference (workload
    // `verify` plus digest equality where the workload defines one), so
    // passing under all three tiers proves lock, STM, and ROT runs agree
    // with the reference — and therefore with each other.
    for fb in FallbackPolicy::ALL {
        for id in BenchId::ALL {
            let params = BenchParams { fallback: fb, ..oracle_params(4) };
            let stats =
                run_bench_oracle(id, Variant::Modified, &Platform::Power8.config(), &params);
            let report = stats.certify.as_ref().expect("oracle certifies");
            assert!(report.ok(), "{id} under {fb} fallback:\n{report}");
        }
    }
}

#[test]
fn software_tiers_certify_under_a_fault_storm() {
    // A storm forces real traffic through the software commit protocols;
    // the committed schedule must still serialize and the digest must
    // still match the sequential reference. With no hardware retries,
    // every aborted hardware attempt (half of all begins) enters the
    // software tier, whatever the threads' interleaving.
    let storm = FaultPlan::none().transient_abort_per_begin(0.5).lock_release_delay(100);
    for (platform, fb) in [
        (Platform::IntelCore, FallbackPolicy::Stm),
        (Platform::Power8, FallbackPolicy::Stm),
        (Platform::Power8, FallbackPolicy::Rot),
    ] {
        for id in [BenchId::Ssca2, BenchId::Intruder, BenchId::Genome] {
            let params = BenchParams {
                faults: storm,
                fallback: fb,
                policy: RetryPolicy::uniform(0),
                ..oracle_params(4)
            };
            let stats = run_bench_oracle(id, Variant::Modified, &platform.config(), &params);
            let report = stats.certify.as_ref().expect("oracle certifies");
            assert!(report.ok(), "{platform}/{id} under {fb} storm:\n{report}");
            let soft = match fb {
                FallbackPolicy::Rot => stats.rot_commits(),
                _ => stats.stm_commits(),
            };
            assert!(soft > 0, "{platform}/{id}: the {fb} tier must actually commit");
        }
    }
}

#[test]
fn adaptive_fallback_certifies_and_matches_the_sequential_digest() {
    // The adaptive ladder on every platform: whatever mix of tiers the
    // controller picks per benchmark, the oracle's digest check anchors
    // the run to the sequential reference.
    for p in Platform::ALL {
        for id in BenchId::ALL {
            let params = BenchParams { fallback: FallbackPolicy::Adaptive, ..oracle_params(4) };
            let stats = run_bench_oracle(id, Variant::Modified, &p.config(), &params);
            let report = stats.certify.as_ref().expect("oracle certifies");
            assert!(report.ok(), "{p}/{id} under adaptive fallback:\n{report}");
        }
    }
}

#[test]
fn adaptive_spill_tier_certifies_under_a_capacity_storm() {
    // Injected capacity aborts push POWER8 blocks into the spill tier;
    // spilled commits must serialize and match the sequential digest like
    // every other tier.
    let storm = FaultPlan::none().transient_abort_per_begin(0.2).capacity_abort_per_begin(0.4);
    for id in [BenchId::Ssca2, BenchId::Intruder, BenchId::Genome] {
        let params =
            BenchParams { faults: storm, fallback: FallbackPolicy::Adaptive, ..oracle_params(4) };
        let stats = run_bench_oracle(id, Variant::Modified, &Platform::Power8.config(), &params);
        let report = stats.certify.as_ref().expect("oracle certifies");
        assert!(report.ok(), "{id} under adaptive capacity storm:\n{report}");
        assert!(
            stats.spill_commits() > 0,
            "{id}: the capacity storm must drive blocks through the spill tier"
        );
    }
}

#[test]
fn certified_measurement_populates_run_stats() {
    // The BenchParams::certify flag routes through `measure` and attaches
    // the report without disturbing the measured counters.
    let machine = Platform::Zec12.config();
    let base = oracle_params(2);
    let plain = stamp::run_bench(BenchId::Ssca2, Variant::Modified, &machine, &base);
    let certified = stamp::run_bench(
        BenchId::Ssca2,
        Variant::Modified,
        &machine,
        &BenchParams { certify: true, ..base },
    );
    assert!(plain.stats.certify.is_none());
    let report = certified.stats.certify.as_ref().expect("certify flag set");
    assert!(report.ok(), "{report}");
    assert!(report.events > 0, "committed blocks must have been captured");
    assert_eq!(plain.stats.committed_blocks(), certified.stats.committed_blocks());
}

//! Differential-oracle acceptance matrix for the service workload,
//! extending the `stamp` certify-oracle pattern (DESIGN.md §5): every svc
//! cell shape — 4 platforms × 4 fallback tiers × 2 Zipf skews, at a small
//! session count — must produce a conflict-serializable committed schedule
//! whose result digest matches the sequential reference, with the
//! workload's own `verify` (store totals, queue drain) passing. A fault
//! storm then forces heavy abort/fallback traffic through the same grid
//! and the oracle must still hold.

use htm_machine::Platform;
use htm_runtime::{FallbackPolicy, FaultPlan};
use htm_svc::{threads_for, SvcParams, SvcWorkload};
use stamp::{run_oracle, BenchParams};

/// The full fallback ladder the svc experiment crosses (the three
/// `FallbackPolicy::ALL` tiers plus the adaptive controller).
const TIERS: [FallbackPolicy; 4] =
    [FallbackPolicy::Lock, FallbackPolicy::Stm, FallbackPolicy::Rot, FallbackPolicy::Adaptive];

/// The two skews the default grid runs, in permille.
const SKEWS: [u32; 2] = [600, 1100];

fn small(skew_permille: u32) -> SvcParams {
    SvcParams {
        sessions: 150,
        keys_per_shard: 32,
        skew_permille,
        mean_gap: 200,
        ..Default::default()
    }
}

/// `run_oracle` runs the sequential reference, then the certified
/// parallel run, and panics internally if the committed schedule is not
/// conflict-serializable or the digests diverge — so each call here *is*
/// the assertion; the explicit check just documents what must hold.
fn oracle(
    platform: Platform,
    fb: FallbackPolicy,
    skew: u32,
    seed: u64,
    faults: FaultPlan,
) -> htm_runtime::RunStats {
    let params = small(skew);
    let run = BenchParams {
        threads: threads_for(&params),
        seed,
        faults,
        fallback: fb,
        ..Default::default()
    };
    let stats = run_oracle(&|| SvcWorkload::new(params, seed), &platform.config(), &run);
    assert!(
        stats.certify.as_ref().is_some_and(|r| r.ok()),
        "{platform}/{fb}/z{skew}: committed schedule must serialize"
    );
    stats
}

#[test]
fn every_svc_cell_shape_certifies_and_matches_the_sequential_digest() {
    for platform in Platform::ALL {
        for fb in TIERS {
            for skew in SKEWS {
                oracle(platform, fb, skew, 11, FaultPlan::none());
            }
        }
    }
}

#[test]
fn svc_cells_certify_under_a_fault_storm() {
    // The certify-oracle storm: transient and capacity aborts, doomed
    // commits, and a lagging fallback lock, all at once. Queue handoff,
    // order transactions, and compaction must still serialize and land on
    // the sequential digest while real faults fire.
    let storm = FaultPlan::none()
        .transient_abort_per_begin(0.3)
        .capacity_abort_per_begin(0.1)
        .transient_abort_per_access(0.02)
        .doom_at_commit(0.1)
        .lock_release_delay(100);
    for platform in [Platform::IntelCore, Platform::Power8] {
        for fb in TIERS {
            let stats = oracle(platform, fb, 1100, 23, storm);
            assert!(stats.injected_faults() > 0, "{platform}/{fb}: the storm must actually fire");
        }
    }
}

//! Property tests for the online serializability certifier (DESIGN.md §5).
//!
//! Two directions:
//!
//! * **Soundness of the runtime** — randomized workloads (random access
//!   patterns, thread counts, platforms) under randomized fault plans must
//!   always produce a conflict-serializable committed schedule: the
//!   certifier's conflict graph is acyclic and every transactional read
//!   observed the most recent serialized writer's value.
//! * **Sensitivity of the certifier** — a deliberately broken conflict
//!   policy (the `set_test_skip_reader_doom` hook leaves readers standing
//!   when a writer commits, manufacturing lost updates) must be *caught*,
//!   not certified.

use htm_machine::Platform;
use htm_runtime::{FaultPlan, RetryPolicy, Sim, SimConfig, ThreadCtx};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One randomized certified run: `threads` workers hammer `words` shared
/// words (all on a handful of conflict-detection lines) with random
/// read/write mixes per block.
fn random_certified_run(platform: Platform, master_seed: u64) -> htm_runtime::CertifyReport {
    let mut g = SmallRng::seed_from_u64(master_seed);
    let threads = g.gen_range(2..=4u32);
    let words = g.gen_range(4..=24u32);
    let blocks = g.gen_range(20..=80u64);
    let plan = FaultPlan::none()
        .transient_abort_per_begin(g.gen_range(0.0..0.4))
        .capacity_abort_per_begin(g.gen_range(0.0..0.1))
        .transient_abort_per_access(g.gen_range(0.0..0.03))
        .doom_at_commit(g.gen_range(0.0..0.15));
    let cfg = SimConfig::new(platform.config())
        .mem_words(1 << 16)
        .seed(master_seed)
        .faults(plan)
        .certify(true);
    let sim = Sim::new(cfg);
    let base = sim.alloc().alloc_aligned(words, 64);

    let stats = sim.run_parallel(threads, RetryPolicy::default(), |ctx: &mut ThreadCtx| {
        let tid = ctx.thread_id() as u64;
        for _ in 0..blocks {
            ctx.atomic(|tx| {
                // 1–4 read-modify-writes plus 0–2 pure reads per block,
                // all on random shared words.
                let writes = rand::Rng::gen_range(tx.rng(), 1..=4u32);
                for _ in 0..writes {
                    let w = rand::Rng::gen_range(tx.rng(), 0..words);
                    let v = tx.load(base.offset(w))?;
                    tx.store(
                        base.offset(w),
                        v.wrapping_mul(6364136223846793005).wrapping_add(tid),
                    )?;
                }
                let reads = rand::Rng::gen_range(tx.rng(), 0..=2u32);
                for _ in 0..reads {
                    let w = rand::Rng::gen_range(tx.rng(), 0..words);
                    let _ = tx.load(base.offset(w))?;
                }
                Ok(())
            });
        }
    });
    stats.certify.expect("certifier enabled")
}

#[test]
fn random_workloads_under_random_fault_plans_always_certify() {
    for (i, p) in [Platform::IntelCore, Platform::BlueGeneQ, Platform::Zec12, Platform::Power8]
        .into_iter()
        .enumerate()
    {
        for round in 0..6u64 {
            let seed = 0x5EED_0000 + (i as u64) * 100 + round;
            let report = random_certified_run(p, seed);
            assert!(report.ok(), "{p:?} seed {seed:#x}:\n{report}");
            assert!(report.events > 0, "{p:?} seed {seed:#x}: no events captured");
        }
    }
}

#[test]
fn a_broken_conflict_policy_is_caught() {
    // Disable reader dooming: a committing writer no longer invalidates
    // concurrent readers of its lines, so two increments of the same word
    // can both commit from the same observed value — the classic lost
    // update. The certifier must flag the schedule, not bless it.
    let cfg =
        SimConfig::new(Platform::IntelCore.config()).mem_words(1 << 16).seed(0xBAD).certify(true);
    let sim = Sim::new(cfg);
    let ctr = sim.alloc().alloc_aligned(1, 64);
    sim.mem().set_test_skip_reader_doom(true);

    let stats = sim.run_parallel(4, RetryPolicy::default(), |ctx: &mut ThreadCtx| {
        for _ in 0..2000 {
            ctx.atomic(|tx| {
                let v = tx.load(ctr)?;
                tx.store(ctr, v + 1)
            });
        }
    });
    sim.mem().set_test_skip_reader_doom(false);

    let report = stats.certify.expect("certifier enabled");
    let lost = 8000 - sim.read_word(ctr);
    assert!(lost > 0, "the broken policy failed to manufacture lost updates");
    assert!(!report.ok(), "certifier blessed a non-serializable schedule ({lost} lost updates)");
    assert!(!report.violations.is_empty(), "report must carry the witnesses:\n{report}");
}

#[test]
fn an_intact_policy_on_the_same_workload_certifies() {
    // The control for `a_broken_conflict_policy_is_caught`: identical
    // workload, hook left off — clean report and no lost updates.
    let cfg =
        SimConfig::new(Platform::IntelCore.config()).mem_words(1 << 16).seed(0xBAD).certify(true);
    let sim = Sim::new(cfg);
    let ctr = sim.alloc().alloc_aligned(1, 64);

    let stats = sim.run_parallel(4, RetryPolicy::default(), |ctx: &mut ThreadCtx| {
        for _ in 0..2000 {
            ctx.atomic(|tx| {
                let v = tx.load(ctr)?;
                tx.store(ctr, v + 1)
            });
        }
    });

    assert_eq!(sim.read_word(ctr), 8000);
    let report = stats.certify.expect("certifier enabled");
    assert!(report.ok(), "{report}");
}

/// What one single-worker certified and sanitized run leaves behind: the
/// certifier's `(events, edges, violations, lock acquisitions)`, the
/// opacity check's `(attempts, reads checked)`, and every race-sanitizer
/// segment's accesses as `(word name, write, transactional)`.
type Capture = ((usize, usize, usize, u64), (usize, usize), Vec<Vec<(&'static str, bool, bool)>>);

/// Runs `work` on one worker of a fresh certified and sanitized `Sim`.
/// `work` gets the context and two words, `x` and `y`, on lines of their
/// own; accesses are named `x`, `y` and `lock` (the global lock word).
fn capture(
    platform: Platform,
    fallback: htm_runtime::FallbackPolicy,
    work: fn(&mut ThreadCtx, htm_core::WordAddr, htm_core::WordAddr),
) -> Capture {
    let cfg = SimConfig::new(platform.config())
        .mem_words(1 << 16)
        .fallback(fallback)
        .certify(true)
        .sanitize(true);
    let sim = Sim::new(cfg);
    let x = sim.alloc().alloc_aligned(1, 256);
    let y = sim.alloc().alloc_aligned(1, 256);
    let stats = sim.run_parallel(1, RetryPolicy::default(), |ctx| work(ctx, x, y));
    let lock = sim.lock().addr();
    let name = |a| match a {
        a if a == x => "x",
        a if a == y => "y",
        a if a == lock => "lock",
        a => panic!("unexpected access to {a}"),
    };
    let c = stats.certify.expect("certifier enabled");
    let o = stats.opacity.expect("certifier enabled");
    let r = stats.race.expect("sanitizer enabled");
    assert!(!c.truncated && !o.truncated && o.violations.is_empty() && r.ok());
    let segments = r
        .segments
        .iter()
        .map(|s| s.accesses.iter().map(|a| (name(a.addr), a.write, a.tx)).collect())
        .collect();
    (
        (c.events, c.edges, c.violations.len(), c.lock_acquisitions),
        (o.attempts, o.reads_checked),
        segments,
    )
}

/// Each access kind's capture, pinned through the public API. Every
/// scenario first publishes `x = 7` and `y = 3` with plain stores (one
/// single-write certifier event each), so a captured transactional read of
/// either word adds a read-from edge, and a captured read of a value no
/// writer produced is a violation.
#[test]
fn each_access_kind_leaves_its_pinned_capture() {
    use htm_runtime::FallbackPolicy::{Lock, Stm};
    const W: bool = true;
    const R: bool = false;
    const TX: bool = true;
    const NONTX: bool = false;
    fn publish(ctx: &mut ThreadCtx, x: htm_core::WordAddr, y: htm_core::WordAddr) {
        ctx.write_word(x, 7);
        ctx.write_word(y, 3);
    }

    // A load forwarded from the block's own buffered store is neither a
    // certified read (8 was never published, so it would be a wild read)
    // nor a sanitizer access. The subscription load of the lock word is.
    let forwarded = capture(Platform::IntelCore, Lock, |ctx, x, y| {
        publish(ctx, x, y);
        ctx.atomic(|tx| {
            tx.store(x, 8)?;
            assert_eq!(tx.load(x)?, 8);
            Ok(())
        });
    });
    assert_eq!(
        forwarded,
        (
            (3, 1, 0, 0),
            (0, 0),
            vec![vec![("x", W, NONTX), ("y", W, NONTX), ("lock", R, TX), ("x", W, TX)]]
        )
    );

    // POWER8 rollback-only: the load is untracked, so the certifier takes
    // no read (no edge from `x = 7`, and an aborted attempt leaves no
    // opacity record), while the sanitizer counts it as transactional.
    // The store commits as a rollback-only hardware event.
    let rollback_only = capture(Platform::Power8, Lock, |ctx, x, y| {
        publish(ctx, x, y);
        let committed = ctx.try_rollback_only(|tx| {
            let v = tx.load(x)?;
            tx.store(y, v + 1)
        });
        assert_eq!(committed, Some(()));
        let aborted = ctx.try_rollback_only(|tx| {
            tx.load(x)?;
            tx.abort_tx::<()>(1)
        });
        assert_eq!(aborted, None);
    });
    assert_eq!(
        rollback_only,
        (
            (3, 1, 0, 0),
            (0, 0),
            vec![vec![("x", W, NONTX), ("y", W, NONTX), ("x", R, TX), ("y", W, TX)]]
        )
    );

    // Suspended accesses are non-transactional: the load is no certified
    // read (no edge from `x = 7`), the store publishes at once as its own
    // single-write event, and the sanitizer records both as they happen,
    // ahead of the committed subscription load. Only `x` is published.
    let suspended = capture(Platform::Power8, Lock, |ctx, x, y| {
        ctx.write_word(x, 7);
        ctx.atomic(|tx| {
            tx.suspend()?;
            let v = tx.load(x)?;
            tx.store(y, v + 1)?;
            tx.resume()
        });
    });
    assert_eq!(
        suspended,
        (
            (3, 0, 0, 0),
            (0, 0),
            vec![vec![("x", W, NONTX), ("x", R, NONTX), ("y", W, NONTX), ("lock", R, TX)]]
        )
    );

    // With no retries, an explicit abort sends the block to the global
    // lock. The aborted hardware attempt's two reads (the lock word and
    // `x`) go to the opacity check and nowhere else; the irrevocable run's
    // load of its own store is no certified read (3 would make it a wild
    // read of 5), while its load of `x` is. The lock's acquire and release
    // close the sanitizer's segments around the irrevocable section.
    let irrevocable = capture(Platform::IntelCore, Lock, |ctx, x, y| {
        publish(ctx, x, y);
        ctx.set_policy(RetryPolicy::uniform(0));
        let mut attempts = 0;
        ctx.atomic(|tx| {
            attempts += 1;
            if attempts == 1 {
                tx.load(x)?;
                return tx.abort_tx(1);
            }
            tx.store(y, 5)?;
            assert_eq!(tx.load(y)?, 5);
            assert_eq!(tx.load(x)?, 7);
            Ok(())
        });
    });
    assert_eq!(
        irrevocable,
        (
            (3, 2, 0, 1),
            (1, 2),
            vec![
                vec![("x", W, NONTX), ("y", W, NONTX)],
                vec![("y", W, TX), ("y", R, TX), ("x", R, TX)]
            ]
        )
    );

    // The STM fallback: loads are certified reads (value-checked) and
    // sanitizer reads, stores are buffered writes, a forwarded load is
    // neither; all of it lands when the commit holds the lock.
    let stm = capture(Platform::IntelCore, Stm, |ctx, x, y| {
        publish(ctx, x, y);
        ctx.set_policy(RetryPolicy::uniform(0));
        let mut attempts = 0;
        ctx.atomic(|tx| {
            attempts += 1;
            if attempts == 1 {
                return tx.abort_tx(1);
            }
            let v = tx.load(x)?;
            tx.store(y, v + 1)?;
            assert_eq!(tx.load(y)?, 8);
            Ok(())
        });
    });
    assert_eq!(
        stm,
        (
            (3, 2, 0, 1),
            (1, 1),
            vec![vec![("x", W, NONTX), ("y", W, NONTX)], vec![("x", R, TX), ("y", W, TX)]]
        )
    );
}

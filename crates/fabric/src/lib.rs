//! Fault-tolerant experiment fabric for `htm-exp`.
//!
//! The experiment engine computes grids of cells whose results are
//! content-addressed and cached. This crate adds the missing robustness
//! layer for long multi-hour regenerations: a **coordinator** process that
//! shards cells to **worker** processes over a loopback socket protocol,
//! and keeps the run alive through worker crashes, hangs, and kills.
//!
//! The guarantees, and where each lives:
//!
//! | Failure | Mechanism | Module |
//! |---|---|---|
//! | Worker crashes mid-cell | lease reclaim + capped randomized backoff retry | [`coordinator`] |
//! | Worker hangs mid-cell | per-cell wall-clock lease deadline → SIGKILL | [`coordinator`] |
//! | Worker dies silently | heartbeat liveness timeout | [`coordinator`], [`worker`] |
//! | Cell keeps failing | bounded attempts, then quarantine + partial report | [`coordinator`] |
//! | No worker spawns at all | graceful degradation to in-process execution | [`coordinator`] |
//! | Coordinator interrupted mid-grid | each result streams to the caller on arrival | [`coordinator`] |
//!
//! Failure handling is only trustworthy if it is *exercised*, so the crate
//! ships a deterministic chaos harness ([`chaos`]): seeded schedules of
//! worker-kills, stalls, and lost reports keyed on assignment sequence
//! numbers, mirroring the runtime's `FaultPlan` discipline. The pinned
//! invariant is that a chaos run finishes with results bit-identical to a
//! clean run — fault tolerance must never change *what* is computed, only
//! *how many times*.
//!
//! The crate is deliberately ignorant of experiment specifics: work items
//! are distinct content keys addressed by position, and results are
//! opaque [`Json`] payloads, so `htm-exp` owns serialization, caching and
//! cell semantics while this crate owns scheduling and recovery.
//!
//! [`Json`]: htm_analyze::Json

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod chaos;
pub mod coordinator;
pub mod proto;
pub mod worker;

pub use chaos::{ChaosAction, ChaosEvent, ChaosPlan};
pub use coordinator::{
    backoff_ms, run_fabric, run_fabric_with, FabricConfig, FabricOutcome, FabricStats,
};
pub use proto::{Directive, ToCoordinator, ToWorker};
pub use worker::{serve, CHAOS_EXIT};

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::channel;
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    use htm_analyze::Json;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    use super::*;

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("cell-{i}")).collect()
    }

    fn quick_cfg() -> FabricConfig {
        FabricConfig {
            workers: 2,
            heartbeat_ms: 10,
            liveness_timeout_ms: 1_000,
            cell_timeout_ms: 5_000,
            max_attempts: 4,
            backoff_base_ms: 1,
            backoff_cap_ms: 10,
            connect_wait_ms: 5_000,
            max_respawns: 4,
            seed: 42,
            chaos: ChaosPlan::none(),
            verbose: false,
        }
    }

    /// The result payload thread workers report: `{"key": <cell key>}`,
    /// so tests can check which cell a result belongs to.
    fn payload(key: &str) -> Json {
        Json::Obj(vec![("key".into(), Json::str(key))])
    }

    /// Files a result the callback received under its position; a
    /// position must never be reported twice.
    fn collect(results: &mut [Option<Json>], pos: usize, r: Json) {
        assert!(results[pos].replace(r).is_none(), "position {pos} reported twice");
    }

    /// [`run_fabric`] with the results collected by position.
    fn run_collected(
        work: &[String],
        worker_cmd: &[String],
        cfg: &FabricConfig,
    ) -> (FabricOutcome, Vec<Option<Json>>) {
        let mut results = vec![None; work.len()];
        let out = run_fabric(work, worker_cmd, cfg, |pos, r| collect(&mut results, pos, r));
        (out, results)
    }

    /// [`run_external_with`] with the results collected by position.
    fn run_external(
        work: &[String],
        cfg: &FabricConfig,
        n: usize,
        compute: impl Fn(u64, usize, &str) -> Result<Json, String> + Clone + Send + 'static,
    ) -> (FabricOutcome, Vec<Option<Json>>) {
        let mut results = vec![None; work.len()];
        let out = run_external_with(work, cfg, n, compute, |pos, r| collect(&mut results, pos, r));
        (out, results)
    }

    /// Runs the coordinator in external-worker mode with `n` in-thread
    /// [`serve`] workers attached at the listen address — the whole lease
    /// machinery over real sockets, no child processes.
    fn run_external_with(
        work: &[String],
        cfg: &FabricConfig,
        n: usize,
        compute: impl Fn(u64, usize, &str) -> Result<Json, String> + Clone + Send + 'static,
        on_result: impl FnMut(usize, Json),
    ) -> FabricOutcome {
        let (addr_tx, addr_rx) = channel::<String>();
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let wid = 100 + i as u64;
                let compute = compute.clone();
                let (tx, rx) = channel::<String>();
                let h = std::thread::spawn(move || {
                    let Ok(addr) = rx.recv() else {
                        return;
                    };
                    let _ = serve(&addr, wid, 10, |cell, key| compute(wid, cell, key));
                });
                (h, tx)
            })
            .collect();
        let relay = std::thread::spawn(move || {
            let Ok(addr) = addr_rx.recv() else {
                return;
            };
            for (_, tx) in &handles {
                let _ = tx.send(addr.clone());
            }
            for (h, _) in handles {
                let _ = h.join();
            }
        });
        let out = run_fabric_with(
            work,
            &[],
            cfg,
            move |addr| {
                let _ = addr_tx.send(addr.to_string());
            },
            on_result,
        );
        let _ = relay.join();
        out
    }

    #[test]
    fn empty_work_is_a_noop() {
        let (out, results) = run_collected(&[], &["true".into()], &quick_cfg());
        assert!(results.is_empty());
        assert!(!out.degraded);
        assert_eq!(out.stats, FabricStats::default());
    }

    #[test]
    fn unspawnable_worker_degrades_cleanly() {
        let (out, results) =
            run_collected(&keys(3), &["/nonexistent/htm-exp-worker-binary".into()], &quick_cfg());
        assert!(out.degraded, "missing binary must degrade, not hang");
        assert_eq!(out.unexecuted, vec![0, 1, 2]);
        assert!(out.errors.is_empty());
        assert!(results.iter().all(Option::is_none));
    }

    #[test]
    fn no_external_workers_degrades_after_connect_window() {
        let cfg = FabricConfig { connect_wait_ms: 100, ..quick_cfg() };
        let start = Instant::now();
        let (out, _) = run_collected(&keys(2), &[], &cfg);
        assert!(out.degraded);
        assert_eq!(out.unexecuted, vec![0, 1]);
        assert!(start.elapsed() < Duration::from_secs(5), "degradation must be prompt, not a hang");
    }

    #[test]
    fn clean_run_completes_all_cells() {
        let (out, results) = run_external(&keys(6), &quick_cfg(), 2, |_, _, key| Ok(payload(key)));
        assert!(!out.degraded);
        assert!(out.errors.is_empty());
        assert_eq!(results.len(), 6);
        for (i, r) in results.iter().enumerate() {
            let r = r.as_ref().expect("every cell computed");
            assert_eq!(r.get("key").and_then(Json::as_str), Some(format!("cell-{i}").as_str()));
        }
        assert_eq!(out.stats.retries, 0);
        assert_eq!(out.stats.assignments, 6);
    }

    #[test]
    fn each_result_reaches_the_callback_before_the_next_assignment() {
        // One worker computes the cells in order, and the coordinator
        // passes a result on before it hands out the next cell: when the
        // worker computes cell i, the callback has received exactly i.
        let received = Arc::new(AtomicUsize::new(0));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (r, s) = (Arc::clone(&received), Arc::clone(&seen));
        let out = run_external_with(
            &keys(5),
            &quick_cfg(),
            1,
            move |_, cell, key| {
                s.lock().unwrap().push((cell, r.load(Ordering::SeqCst)));
                Ok(payload(key))
            },
            |_, _| {
                received.fetch_add(1, Ordering::SeqCst);
            },
        );
        assert!(!out.degraded && out.errors.is_empty());
        assert_eq!(received.load(Ordering::SeqCst), 5);
        assert_eq!(*seen.lock().unwrap(), (0..5).map(|i| (i, i)).collect::<Vec<_>>());
    }

    #[test]
    fn transient_errors_are_retried_with_bounded_attempts() {
        let failures = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&failures);
        // cell-1 fails twice, then succeeds; everything else is clean.
        let (out, results) = run_external(&keys(3), &quick_cfg(), 2, move |_, _, key| {
            if key == "cell-1" && f.fetch_add(1, Ordering::SeqCst) < 2 {
                Err("transient".into())
            } else {
                Ok(payload(key))
            }
        });
        assert!(!out.degraded);
        assert!(out.errors.is_empty(), "transient failure recovered: {:?}", out.errors);
        assert!(results.iter().all(Option::is_some));
        assert_eq!(out.stats.retries, 2);
        assert!(out.stats.quarantined == 0);
    }

    #[test]
    fn persistent_failure_quarantines_with_partial_results() {
        let cfg = quick_cfg();
        let (out, results) = run_external(&keys(3), &cfg, 2, |_, _, key| {
            if key == "cell-2" {
                Err("deterministic bug".into())
            } else {
                Ok(payload(key))
            }
        });
        assert!(!out.degraded, "quarantine is not degradation");
        assert_eq!(out.errors.len(), 1);
        assert_eq!(out.errors[0].0, 2);
        assert!(out.errors[0].1.contains("deterministic bug"));
        assert_eq!(out.stats.quarantined, 1);
        // Bounded: exactly max_attempts assignments for the bad cell.
        assert_eq!(out.stats.retries as u32, cfg.max_attempts - 1);
        // The healthy cells still report (the partial-result guarantee).
        assert!(results[0].is_some() && results[1].is_some());
        assert!(results[2].is_none());
    }

    #[test]
    fn assign_phase_kill_is_recovered_by_surviving_worker() {
        // Chaos kills the assignee of assignment 0 (socket severed before
        // it can report); the surviving worker must complete everything.
        let cfg = FabricConfig {
            chaos: ChaosPlan::none().event(0, ChaosAction::KillAssignee),
            ..quick_cfg()
        };
        let (out, results) = run_external(&keys(4), &cfg, 2, |_, _, key| Ok(payload(key)));
        assert!(!out.degraded);
        assert!(out.errors.is_empty());
        assert!(results.iter().all(Option::is_some), "killed lease must be reclaimed");
        // No retry assertion: the dying worker's result can race in ahead
        // of the reassignment, legitimately completing the cell.
        assert!(out.stats.lost >= 1);
    }

    #[test]
    fn stalled_worker_is_reaped_by_lease_timeout() {
        // Assignment 0 carries a stall directive: the worker wedges while
        // heartbeating. Only the lease deadline can reclaim the cell.
        let cfg = FabricConfig {
            cell_timeout_ms: 150,
            chaos: ChaosPlan::none().event(0, ChaosAction::Stall),
            ..quick_cfg()
        };
        let (out, results) = run_external(&keys(3), &cfg, 2, |_, _, key| Ok(payload(key)));
        assert!(!out.degraded);
        assert!(out.errors.is_empty());
        assert!(results.iter().all(Option::is_some));
        assert_eq!(out.stats.timeouts, 1, "stall must be reclaimed by the lease deadline");
        assert!(out.stats.lost >= 1);
    }

    #[test]
    fn losing_all_but_one_worker_still_completes() {
        // Three kill events early in the schedule against four workers:
        // the last survivor must finish the whole grid.
        let cfg = FabricConfig {
            workers: 4,
            chaos: ChaosPlan::none()
                .event(0, ChaosAction::KillAssignee)
                .event(1, ChaosAction::KillAssignee)
                .event(2, ChaosAction::KillAssignee),
            ..quick_cfg()
        };
        let (out, results) = run_external(&keys(8), &cfg, 4, |_, _, key| Ok(payload(key)));
        assert!(!out.degraded);
        assert!(out.errors.is_empty());
        assert!(results.iter().all(Option::is_some));
        assert!(out.stats.lost >= 3);
    }

    #[test]
    fn losing_every_worker_degrades_with_unexecuted_remainder() {
        // One worker, killed at its first assignment, no respawn possible
        // (external mode): the rest of the grid must come back unexecuted
        // rather than hanging.
        let cfg = FabricConfig {
            workers: 1,
            connect_wait_ms: 200,
            chaos: ChaosPlan::none().event(0, ChaosAction::KillAssignee),
            ..quick_cfg()
        };
        let start = Instant::now();
        let (out, _) = run_external(&keys(4), &cfg, 1, |_, _, key| Ok(payload(key)));
        assert!(out.degraded, "no workers left and no respawn budget ⇒ degrade");
        assert!(!out.unexecuted.is_empty());
        assert!(start.elapsed() < Duration::from_secs(10), "degradation must not hang");
    }

    #[test]
    fn backoff_is_capped_and_nonzero() {
        let mut rng = SmallRng::seed_from_u64(1);
        for attempt in 1..=64 {
            let d = backoff_ms(10, 500, attempt, &mut rng);
            assert!((1..=500).contains(&d), "attempt {attempt}: {d}ms outside [1,500]");
        }
        // Early attempts stay near the base; jitter is at most 1.5x.
        let mut rng = SmallRng::seed_from_u64(2);
        let first = backoff_ms(10, 500, 1, &mut rng);
        assert!(first <= 15, "first retry delay {first}ms exceeds base*1.5");
    }

    #[test]
    fn backoff_is_deterministic_under_seed() {
        let seq = |seed: u64| -> Vec<u64> {
            let mut rng = SmallRng::seed_from_u64(seed);
            (1..=8).map(|a| backoff_ms(10, 500, a, &mut rng)).collect()
        };
        assert_eq!(seq(7), seq(7));
        assert_ne!(seq(7), seq(8));
    }
}

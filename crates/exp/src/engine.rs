//! The parallel cell scheduler.
//!
//! Cells are independent by construction (each builds its own `Sim`, owns
//! its seed, and touches no globals), so the engine spreads them over a
//! small work-stealing thread pool: every worker owns a deque seeded
//! round-robin, pops its own work from the back, and steals from other
//! deques' fronts when empty. Stealing keeps all cores busy even though
//! cell costs vary by orders of magnitude (yada at 16 threads vs a queue
//! micro-cell), which a static partition would not.
//!
//! Finished cells go through the [content-addressed cache](crate::cache)
//! before and after computation, so an interrupted run resumes and
//! overlapping specs share work.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use htm_fabric::{run_fabric, FabricConfig, FabricStats, WorkItem};

use crate::cache::{Load, ResultCache};
use crate::cell::{CellResult, CellSpec};
use crate::sink::Sink;
use crate::spec::{ExperimentSpec, ResultSet, RunOpts};

/// What a spec run did: cache hits vs computed cells and wall time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineReport {
    /// Cells scheduled (after `--filter`).
    pub total: usize,
    /// Cells actually computed this run.
    pub computed: usize,
    /// Cells served from the cache.
    pub cached: usize,
    /// Corrupt cache entries quarantined and regenerated this run.
    pub healed: usize,
    /// Wall-clock seconds spent computing cells.
    pub wall_s: f64,
    /// Fabric summary when the run went through `--fabric`.
    pub fabric: Option<FabricReport>,
}

/// What the fabric did during a `--fabric` run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricReport {
    /// Coordinator counters (spawns, losses, retries, timeouts, ...).
    pub stats: FabricStats,
    /// Whether the fabric degraded and the engine fell back in-process.
    pub degraded: bool,
    /// Cells computed in-process after degradation.
    pub local_cells: usize,
}

/// A finished spec run: the rendered sink plus the engine report.
pub struct SpecRun {
    /// Spec name.
    pub name: &'static str,
    /// Rendered output (tables, TSV, JSON, violations).
    pub sink: Sink,
    /// Scheduling summary.
    pub report: EngineReport,
}

/// Locks a scheduler mutex, recovering from poison: a cell panic is
/// caught per-cell, but a panic at an unlucky instant (OOM inside a
/// progress print, a broken cache write) can still poison a shared lock —
/// and the data under these locks (deques of indices, result slots, error
/// strings) stays valid regardless, so the poison carries no meaning.
/// Recovering keeps one dead cell from killing the whole spec run.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// The scheduler's worker count for `jobs` requested over `n` cells.
pub fn effective_jobs(jobs: usize, n_cells: usize) -> usize {
    let auto = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let j = if jobs == 0 { auto } else { jobs };
    j.clamp(1, n_cells.max(1))
}

/// Computes `cells` in parallel, cache-first. Returns one result per cell
/// (same order) plus the report. Panics (after all workers drain) if any
/// cell panicked, carrying the first failing cell's message.
pub fn compute_cells(
    spec_name: &str,
    cells: &[CellSpec],
    opts: &RunOpts,
) -> (Vec<CellResult>, EngineReport) {
    let cache = ResultCache::new(&opts.cache_dir, opts.use_cache);
    let n = cells.len();
    let jobs = effective_jobs(opts.jobs, n);
    let start = Instant::now();

    let slots: Mutex<Vec<Option<CellResult>>> = Mutex::new(vec![None; n]);
    let computed = AtomicUsize::new(0);
    let cached = AtomicUsize::new(0);
    let healed = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let store_warned = AtomicUsize::new(0);

    // Round-robin seeding; workers drain their own deque from the back and
    // steal from others' fronts, so the oldest (often largest) stranded
    // cells move first.
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, _) in cells.iter().enumerate() {
        relock(&deques[i % jobs]).push_back(i);
    }

    std::thread::scope(|scope| {
        for w in 0..jobs {
            let deques = &deques;
            let slots = &slots;
            let computed = &computed;
            let cached = &cached;
            let healed = &healed;
            let done = &done;
            let errors = &errors;
            let store_warned = &store_warned;
            let cache = &cache;
            scope.spawn(move || loop {
                let idx = {
                    let own = relock(&deques[w]).pop_back();
                    own.or_else(|| {
                        (0..jobs).filter(|o| *o != w).find_map(|o| relock(&deques[o]).pop_front())
                    })
                };
                let Some(idx) = idx else { break };
                let cell = &cells[idx];
                let key = cell.kind.key();
                let cell_start = Instant::now();
                let loaded = match cache.load_checked(&key) {
                    Load::Hit(r) => Some(r),
                    Load::Miss => None,
                    Load::Healed(why) => {
                        // Corrupt entry quarantined; recompute below and the
                        // store rewrites a clean one.
                        healed.fetch_add(1, Ordering::Relaxed);
                        eprintln!("[{spec_name}] warning: healed corrupt cache entry ({why})");
                        None
                    }
                };
                let (result, was_cached) = match loaded {
                    Some(r) => (Some(r), true),
                    None => {
                        let r = catch_unwind(AssertUnwindSafe(|| cell.kind.compute()));
                        match r {
                            Ok(r) => {
                                if let Err(e) = cache.store(&key, &cell.id, &r) {
                                    if store_warned.fetch_add(1, Ordering::Relaxed) == 0 {
                                        eprintln!(
                                            "[{spec_name}] warning: cache store failed ({e}); \
                                             results will not be reusable"
                                        );
                                    }
                                }
                                (Some(r), false)
                            }
                            Err(p) => {
                                let msg = p
                                    .downcast_ref::<String>()
                                    .cloned()
                                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                                    .unwrap_or_else(|| "non-string panic".into());
                                relock(errors).push(format!("cell {}: {msg}", cell.id));
                                (None, false)
                            }
                        }
                    }
                };
                if result.is_some() {
                    if was_cached {
                        cached.fetch_add(1, Ordering::Relaxed);
                    } else {
                        computed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                let k = done.fetch_add(1, Ordering::Relaxed) + 1;
                if !opts.quiet {
                    if was_cached {
                        eprintln!("[{spec_name}] ({k}/{n}) {} (cached)", cell.id);
                    } else {
                        eprintln!(
                            "[{spec_name}] ({k}/{n}) {} {:.1}s",
                            cell.id,
                            cell_start.elapsed().as_secs_f64()
                        );
                    }
                }
                relock(slots)[idx] = result;
            });
        }
    });

    let mut errors = errors.into_inner().unwrap_or_else(|p| p.into_inner());
    let slots = slots.into_inner().unwrap_or_else(|p| p.into_inner());
    // A missing slot with no recorded panic means a worker died without
    // reaching its per-cell recovery (e.g. killed mid-steal): report it as
    // a named failure rather than unwrapping into an anonymous panic.
    for (i, slot) in slots.iter().enumerate() {
        if slot.is_none() && !errors.iter().any(|e| e.contains(&cells[i].id)) {
            errors.push(format!("cell {}: no result produced", cells[i].id));
        }
    }
    if let Some(first) = errors.first() {
        panic!("{} cell(s) failed; first: {first}", errors.len());
    }
    let results: Vec<CellResult> = slots.into_iter().flatten().collect();
    let report = EngineReport {
        total: n,
        computed: computed.into_inner(),
        cached: cached.into_inner(),
        healed: healed.into_inner(),
        wall_s: start.elapsed().as_secs_f64(),
        fabric: None,
    };
    (results, report)
}

/// Computes `cells` over the multi-process fabric: cache-first scan, then
/// lease-based sharding of the misses to worker processes, then an
/// in-process fallback for anything the fabric could not execute
/// (degradation), preserving [`compute_cells`]' result order and panic
/// contract. Quarantined cells (bounded attempts exhausted) panic with
/// their ids — after every healthy cell's result has been stored, so the
/// partial run is preserved in the cache.
pub fn compute_cells_fabric(
    spec_name: &str,
    cells: &[CellSpec],
    opts: &RunOpts,
    fcfg: &FabricConfig,
) -> (Vec<CellResult>, EngineReport) {
    let cache = ResultCache::new(&opts.cache_dir, opts.use_cache);
    let n = cells.len();
    let start = Instant::now();

    let mut slots: Vec<Option<CellResult>> = vec![None; n];
    let mut cached = 0usize;
    let mut healed = 0usize;
    let mut pending: Vec<usize> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        match cache.load_checked(&cell.kind.key()) {
            Load::Hit(r) => {
                slots[i] = Some(r);
                cached += 1;
                if !opts.quiet {
                    eprintln!("[{spec_name}] ({}/{n}) {} (cached)", i + 1, cell.id);
                }
            }
            Load::Miss => pending.push(i),
            Load::Healed(why) => {
                healed += 1;
                eprintln!("[{spec_name}] warning: healed corrupt cache entry ({why})");
                pending.push(i);
            }
        }
    }

    let mut computed = 0usize;
    let mut errors: Vec<String> = Vec::new();
    let mut fabric_report = FabricReport::default();
    let mut local: Vec<usize> = Vec::new();

    if !pending.is_empty() {
        let worker_cmd = worker_command(spec_name, opts, fcfg);
        match worker_cmd {
            Some(cmd) => {
                let items: Vec<WorkItem> = pending
                    .iter()
                    .map(|&i| WorkItem { index: i, key: cells[i].kind.key() })
                    .collect();
                let outcome = run_fabric(&items, &cmd, fcfg);
                fabric_report.stats = outcome.stats;
                fabric_report.degraded = outcome.degraded;

                let mut store_seq = 0usize;
                let mut store_warned = false;
                for (pos, payload) in outcome.results.iter().enumerate() {
                    let Some(json) = payload else { continue };
                    let i = pending[pos];
                    match CellResult::from_json(json) {
                        Ok(r) => {
                            let key = cells[i].kind.key();
                            if let Err(e) = cache.store(&key, &cells[i].id, &r) {
                                if !store_warned {
                                    store_warned = true;
                                    eprintln!(
                                        "[{spec_name}] warning: cache store failed ({e}); \
                                         results will not be reusable"
                                    );
                                }
                            } else if fcfg.chaos.torn_store_at(store_seq) {
                                // Chaos: tear the entry we just committed, as
                                // a crash mid-write would. The next load must
                                // heal it.
                                tear_entry(&cache, &key);
                            }
                            store_seq += 1;
                            slots[i] = Some(r);
                            computed += 1;
                        }
                        Err(e) => {
                            errors.push(format!("cell {}: undecodable result ({e})", cells[i].id));
                        }
                    }
                }
                for (pos, err) in &outcome.errors {
                    errors.push(format!("cell {}: {err}", cells[pending[*pos]].id));
                }
                local = outcome.unexecuted.iter().map(|&pos| pending[pos]).collect();
            }
            None => {
                // No worker executable resolvable: everything runs local.
                fabric_report.degraded = true;
                local = pending.clone();
            }
        }
    }

    if !local.is_empty() {
        if !opts.quiet {
            eprintln!(
                "[{spec_name}] fabric degraded; computing {} cell(s) in-process",
                local.len()
            );
        }
        let subset: Vec<CellSpec> = local.iter().map(|&i| cells[i].clone()).collect();
        let (results, sub) = compute_cells(spec_name, &subset, opts);
        for (&i, r) in local.iter().zip(results) {
            slots[i] = Some(r);
        }
        computed += sub.computed;
        cached += sub.cached;
        healed += sub.healed;
        fabric_report.local_cells = local.len();
    }

    if let Some(first) = errors.first() {
        panic!("{} cell(s) failed; first: {first}", errors.len());
    }
    for (i, slot) in slots.iter().enumerate() {
        assert!(slot.is_some(), "cell {}: no result produced", cells[i].id);
    }
    let results: Vec<CellResult> = slots.into_iter().flatten().collect();
    if !opts.quiet {
        let s = &fabric_report.stats;
        eprintln!(
            "[{spec_name}] fabric: {} worker(s) spawned, {} lost, {} retries, \
             {} timeouts, {} stale, degraded={}",
            s.spawned, s.lost, s.retries, s.timeouts, s.stale_results, fabric_report.degraded
        );
    }
    let report = EngineReport {
        total: n,
        computed,
        cached,
        healed,
        wall_s: start.elapsed().as_secs_f64(),
        fabric: Some(fabric_report),
    };
    (results, report)
}

/// Builds the worker command line for a fabric run: the worker re-derives
/// the same cell grid from the spec registry, so everything that shapes
/// cell building must ride on the command line.
fn worker_command(spec_name: &str, opts: &RunOpts, fcfg: &FabricConfig) -> Option<Vec<String>> {
    let exe = match &opts.worker_exe {
        Some(p) => p.clone(),
        None => std::env::current_exe().ok()?,
    };
    let mut cmd = vec![
        exe.to_string_lossy().into_owned(),
        "worker".into(),
        "--spec".into(),
        spec_name.into(),
        "--scale".into(),
        crate::cell::scale_key(opts.scale).into(),
        "--seed".into(),
        opts.seed.to_string(),
        "--reps".into(),
        opts.reps.to_string(),
        "--heartbeat-ms".into(),
        fcfg.heartbeat_ms.to_string(),
    ];
    if opts.certify {
        cmd.push("--certify".into());
    }
    if let Some(f) = opts.fallback {
        cmd.push("--fallback".into());
        cmd.push(f.key().into());
    }
    if let Some(f) = &opts.filter {
        cmd.push("--filter".into());
        cmd.push(f.clone());
    }
    if let Some(n) = opts.svc_sessions {
        cmd.push("--sessions".into());
        cmd.push(n.to_string());
    }
    if let Some(z) = opts.svc_skew {
        cmd.push("--skew".into());
        cmd.push(z.to_string());
    }
    Some(cmd)
}

/// Truncates the cache entry for `key` in place (the chaos harness's torn
/// write).
fn tear_entry(cache: &ResultCache, key: &str) {
    let path = cache.path_for(key);
    if let Ok(text) = std::fs::read_to_string(&path) {
        let _ = std::fs::write(&path, &text[..text.len() / 2]);
    }
}

/// Runs one spec end to end: build cells (under the spec's effective
/// options), filter, compute in parallel through the cache, and render.
pub fn run_spec(spec: &ExperimentSpec, opts: &RunOpts) -> SpecRun {
    let eff = opts.effective_for(spec);
    let mut cells = (spec.build)(&eff);
    let filtered = eff.filter.is_some();
    if let Some(f) = &eff.filter {
        cells.retain(|c| c.id.contains(f.as_str()));
    }
    let (results, report) = match &eff.fabric {
        Some(fcfg) => compute_cells_fabric(spec.name, &cells, &eff, fcfg),
        None => compute_cells(spec.name, &cells, &eff),
    };
    let set = ResultSet { cells: &cells, results: &results };
    let mut sink = Sink::new();
    if filtered {
        // A partial grid can't render the figure; show raw metrics.
        render_generic(spec.name, &set, &mut sink);
    } else {
        (spec.render)(&eff, &set, &mut sink);
    }
    SpecRun { name: spec.name, sink, report }
}

/// Generic per-cell metrics table for `--filter` runs.
fn render_generic(name: &str, set: &ResultSet<'_>, sink: &mut Sink) {
    let headers: Vec<String> = ["cell", "metric", "value"].iter().map(|s| s.to_string()).collect();
    let mut rows = Vec::new();
    for (cell, result) in set.iter() {
        for (metric, value) in &result.metrics {
            rows.push(vec![cell.id.clone(), metric.clone(), format!("{value:.4}")]);
        }
    }
    sink.table(&format!("{name} (filtered cells)"), &headers, &rows);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellKind, QueueSpec};

    fn queue_cells(n: usize) -> Vec<CellSpec> {
        (0..n)
            .map(|i| {
                CellSpec::new(
                    format!("q{i}"),
                    CellKind::Queue { imp: QueueSpec::NoRetry, threads: 1, ops: 1 + i as u64 },
                )
            })
            .collect()
    }

    fn no_cache_opts() -> RunOpts {
        RunOpts { use_cache: false, quiet: true, ..RunOpts::default() }
    }

    #[test]
    fn effective_jobs_clamps() {
        assert_eq!(effective_jobs(4, 2), 2);
        assert_eq!(effective_jobs(3, 100), 3);
        assert_eq!(effective_jobs(7, 0), 1);
        assert!(effective_jobs(0, 100) >= 1);
    }

    #[test]
    fn parallel_matches_serial_in_order() {
        let cells = queue_cells(13);
        let serial = compute_cells("t", &cells, &RunOpts { jobs: 1, ..no_cache_opts() }).0;
        let parallel = compute_cells("t", &cells, &RunOpts { jobs: 4, ..no_cache_opts() }).0;
        assert_eq!(serial, parallel);
        // Results land at their cell's index regardless of execution order
        // (each of the `1 + i` pairs is an enqueue plus a dequeue).
        for (i, r) in serial.iter().enumerate() {
            assert_eq!(r.get("operations"), 2.0 * (1 + i) as f64);
        }
    }

    #[test]
    fn cache_serves_second_run_and_resumes_partial() {
        let dir = std::env::temp_dir().join(format!("htm-exp-engine-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RunOpts { jobs: 2, cache_dir: dir.clone(), quiet: true, ..RunOpts::default() };
        let cells = queue_cells(6);
        let (first, r1) = compute_cells("t", &cells, &opts);
        assert_eq!((r1.computed, r1.cached), (6, 0));
        let (second, r2) = compute_cells("t", &cells, &opts);
        assert_eq!((r2.computed, r2.cached), (0, 6));
        assert_eq!(first, second);
        // Interrupting a run leaves some cells cached; the next run computes
        // only the remainder.
        let mut entries: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap()).collect();
        entries.sort_by_key(|e| e.file_name());
        std::fs::remove_file(entries[0].path()).unwrap();
        std::fs::remove_file(entries[1].path()).unwrap();
        let (third, r3) = compute_cells("t", &cells, &opts);
        assert_eq!((r3.computed, r3.cached), (2, 4));
        assert_eq!(first, third);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_store_failure_warns_but_returns_results() {
        // A cache directory that is a file: the store fails, the engine
        // warns once, and the computed result is still returned.
        let cells = queue_cells(1);
        let file = std::env::temp_dir().join(format!("htm-exp-notdir-{}", std::process::id()));
        std::fs::write(&file, "x").unwrap();
        let opts = RunOpts { cache_dir: file.clone(), quiet: true, ..RunOpts::default() };
        let (results, report) = compute_cells("t", &cells, &opts);
        assert_eq!(results.len(), 1);
        assert_eq!(report.computed, 1);
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn panicking_cell_fails_the_run_with_its_id_after_healthy_cells_are_cached() {
        let dir = std::env::temp_dir().join(format!("htm-exp-engine-panic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RunOpts { jobs: 1, cache_dir: dir.clone(), quiet: true, ..RunOpts::default() };
        let queues = queue_cells(2);
        // An unknown suite kernel panics inside the model cell.
        let bogus = CellSpec::new(
            "bogus-model",
            CellKind::Model {
                kernel: "no-such-kernel",
                platform: htm_machine::Platform::IntelCore,
                tier: htm_model::Tier::Lock,
            },
        );
        let cells = [queues[0].clone(), bogus, queues[1].clone()];
        let panic = catch_unwind(AssertUnwindSafe(|| compute_cells("t", &cells, &opts)))
            .expect_err("a panicking cell fails the run");
        let msg = panic.downcast_ref::<String>().expect("formatted panic message");
        assert!(msg.contains("1 cell(s) failed") && msg.contains("bogus-model"), "{msg}");
        // Both healthy cells were stored before the run failed.
        let (_, rerun) = compute_cells("t", &queues, &opts);
        assert_eq!((rerun.computed, rerun.cached), (0, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

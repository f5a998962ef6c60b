//! The cell-execution path.
//!
//! [`compute_cells`] is the one way cells run. It reads each cell's entry
//! in the [content-addressed cache](crate::cache) once, so an interrupted
//! run resumes and overlapping specs share work, and hands the misses to
//! a backend. With `--fabric`, `htm-fabric`'s coordinator shards them to
//! worker processes. Every other miss, including whatever a degraded
//! fabric could not execute, goes to the in-process pool in the same call.
//!
//! Cells are independent by construction (each builds its own `Sim`, owns
//! its seed, and touches no globals), so the pool is a few scoped threads
//! that take the next cell index from one shared atomic cursor: cell costs
//! vary by orders of magnitude (yada at 16 threads vs a queue
//! micro-cell), and a thread that finishes a cheap cell just takes the
//! next one, which a static partition would not allow. The cache pass
//! runs on the same pool. Every computed cell, whichever backend ran it,
//! goes through one `finish` step, and one error-and-report path ends the
//! run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use htm_fabric::{run_fabric, FabricConfig, FabricStats};

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
/// and the data under these locks (result slots, errors) stays valid
/// regardless, so the poison carries no meaning. Recovering keeps one dead
/// cell from killing the whole spec run.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// The pool's thread count for `jobs` requested over `n_cells` cells.
pub fn effective_jobs(jobs: usize, n_cells: usize) -> usize {
    let auto = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let j = if jobs == 0 { auto } else { jobs };
    j.clamp(1, n_cells.max(1))
}

/// One [`compute_cells`] call: the cells, their result slots, and the
/// counters every backend reports into.
struct Run<'a> {
    spec_name: &'a str,
    cells: &'a [CellSpec],
    opts: &'a RunOpts,
    cache: ResultCache,
    slots: Mutex<Vec<Option<CellResult>>>,
    /// Failed cells as `(index, message)`.
    errors: Mutex<Vec<(usize, String)>>,
    done: AtomicUsize,
    stores: AtomicUsize,
    failed_stores: AtomicUsize,
}

impl Run<'_> {
    /// Takes cell `i`'s computed result: stores it (tearing the entry
    /// when the `--chaos` schedule says so), fills its slot, prints
    /// progress.
    fn finish(&self, i: usize, result: CellResult, how: &str) {
        let key = self.cells[i].kind.key();
        let seq = self.stores.fetch_add(1, Ordering::Relaxed);
        let torn = |f: &FabricConfig| f.chaos.torn_store_at(seq);
        match self.cache.store(&key, &self.cells[i].id, &result) {
            Ok(()) if self.opts.fabric.as_ref().is_some_and(torn) => {
                // Chaos: tear the entry just committed, as a crash
                // mid-write would. The next load must heal it.
                tear_entry(&self.cache, &key);
            }
            Ok(()) => {}
            Err(e) => {
                if self.failed_stores.fetch_add(1, Ordering::Relaxed) == 0 {
                    eprintln!(
                        "[{}] warning: cache store failed ({e}); results will not be reusable",
                        self.spec_name
                    );
                }
            }
        }
        relock(&self.slots)[i] = Some(result);
        self.progress(i, how);
    }

    fn fail(&self, i: usize, msg: String) {
        relock(&self.errors).push((i, msg));
    }

    fn progress(&self, i: usize, how: &str) {
        let k = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if !self.opts.quiet {
            let n = self.cells.len();
            eprintln!("[{}] ({k}/{n}) {} {how}", self.spec_name, self.cells[i].id);
        }
    }
}

/// Computes `cells`, cache-first, over the fabric when `opts.fabric` is
/// set and in-process otherwise. Returns one result per cell (same order)
/// plus the report. Panics, after every healthy cell's result is stored,
/// if any cell failed (panicked, or was quarantined by the fabric),
/// carrying the first failing cell's message.
pub fn compute_cells(
    spec_name: &str,
    cells: &[CellSpec],
    opts: &RunOpts,
) -> (Vec<CellResult>, EngineReport) {
    let start = Instant::now();
    let run = Run {
        spec_name,
        cells,
        opts,
        cache: ResultCache::new(&opts.cache_dir, opts.use_cache),
        slots: Mutex::new(vec![None; cells.len()]),
        errors: Mutex::new(Vec::new()),
        done: AtomicUsize::new(0),
        stores: AtomicUsize::new(0),
        failed_stores: AtomicUsize::new(0),
    };

    // One pass over the cache, on the pool: hits fill their slots, and
    // the misses go to a backend below.
    let misses = Mutex::new(Vec::new());
    let healed = AtomicUsize::new(0);
    on_pool(opts.jobs, &(0..cells.len()).collect::<Vec<_>>(), |i| {
        match run.cache.load_checked(&cells[i].kind.key()) {
            Load::Hit(r) => {
                relock(&run.slots)[i] = Some(r);
                run.progress(i, "(cached)");
            }
            Load::Miss => relock(&misses).push(i),
            Load::Healed(why) => {
                // Corrupt entry quarantined; the cell recomputes and its
                // store rewrites a clean entry.
                healed.fetch_add(1, Ordering::Relaxed);
                eprintln!("[{spec_name}] warning: healed corrupt cache entry ({why})");
                relock(&misses).push(i);
            }
        }
    });
    let mut misses = misses.into_inner().unwrap_or_else(|p| p.into_inner());
    misses.sort_unstable();
    let (cached, computed) = (cells.len() - misses.len(), misses.len());
    let (local, fabric) = match &opts.fabric {
        Some(fcfg) => {
            let (local, report) = on_fabric(&run, misses, fcfg);
            (local, Some(report))
        }
        None => (misses, None),
    };
    on_pool(opts.jobs, &local, |i| {
        let started = Instant::now();
        match cells[i].kind.try_compute() {
            Ok(r) => run.finish(i, r, &format!("{:.1}s", started.elapsed().as_secs_f64())),
            Err(msg) => run.fail(i, msg),
        }
    });

    if let (Some(f), false) = (&fabric, opts.quiet) {
        let s = &f.stats;
        eprintln!(
            "[{spec_name}] fabric: {} worker(s) spawned, {} lost, {} retries, \
             {} timeouts, {} stale, degraded={}",
            s.spawned, s.lost, s.retries, s.timeouts, s.stale_results, f.degraded
        );
    }
    let mut errors = run.errors.into_inner().unwrap_or_else(|p| p.into_inner());
    let slots = run.slots.into_inner().unwrap_or_else(|p| p.into_inner());
    // A missing slot with no recorded failure means a backend lost a cell
    // without reporting it: name it rather than unwrap anonymously.
    for (i, slot) in slots.iter().enumerate() {
        if slot.is_none() && !errors.iter().any(|(j, _)| *j == i) {
            errors.push((i, "no result produced".into()));
        }
    }
    if let Some((i, msg)) = errors.first() {
        panic!("{} cell(s) failed; first: cell {}: {msg}", errors.len(), cells[*i].id);
    }
    let report = EngineReport {
        total: cells.len(),
        // Every miss produced a result, or the run panicked above.
        computed,
        cached,
        healed: healed.into_inner(),
        wall_s: start.elapsed().as_secs_f64(),
        fabric,
    };
    (slots.into_iter().flatten().collect(), report)
}

/// The fabric backend: shards `misses` to worker processes, finishing
/// each result as it arrives. Returns the cells it could not execute (all
/// of them when no worker executable resolves) for the pool, plus the
/// fabric's report.
fn on_fabric(run: &Run<'_>, misses: Vec<usize>, fcfg: &FabricConfig) -> (Vec<usize>, FabricReport) {
    let mut report = FabricReport::default();
    let local = if misses.is_empty() {
        misses
    } else if let Some(cmd) = worker_command(run.spec_name, run.opts, fcfg) {
        let keys: Vec<String> = misses.iter().map(|&i| run.cells[i].kind.key()).collect();
        let out = run_fabric(&keys, &cmd, fcfg, |pos, json| match CellResult::from_json(&json) {
            Ok(r) => run.finish(misses[pos], r, "(fabric)"),
            Err(e) => run.fail(misses[pos], format!("undecodable result ({e})")),
        });
        for (pos, err) in out.errors {
            run.fail(misses[pos], err);
        }
        report.stats = out.stats;
        report.degraded = out.degraded;
        out.unexecuted.iter().map(|&pos| misses[pos]).collect()
    } else {
        // No worker executable resolves: everything runs in-process.
        report.degraded = true;
        misses
    };
    report.local_cells = local.len();
    if !local.is_empty() && !run.opts.quiet {
        eprintln!(
            "[{}] fabric degraded; computing {} cell(s) in-process",
            run.spec_name,
            local.len()
        );
    }
    (local, report)
}

/// The in-process pool: runs `step` on every index in `todo`, on up to
/// [`effective_jobs`] scoped threads sharing one cursor into `todo`.
fn on_pool(jobs: usize, todo: &[usize], step: impl Fn(usize) + Sync) {
    if todo.is_empty() {
        return;
    }
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..effective_jobs(jobs, todo.len()) {
            scope.spawn(|| {
                while let Some(&i) = todo.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    step(i);
                }
            });
        }
    });
}

/// Builds the worker command line for a fabric run: the worker re-derives
/// the same cell grid from the spec registry, so every grid flag rides
/// on the command line.
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
        "--heartbeat-ms".into(),
        fcfg.heartbeat_ms.to_string(),
    ];
    cmd.extend(opts.grid_flags());
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
    let (results, report) = compute_cells(spec.name, &cells, &eff);
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
    use std::panic::{catch_unwind, AssertUnwindSafe};

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
    fn degraded_fabric_run_reads_each_cache_entry_once() {
        // Cell 0 is cached. Each other cell's entry is stuck: a directory
        // that fails to load but cannot be quarantined aside (its
        // `.json.corrupt` name is taken by a non-empty directory), so every
        // read of it reports a heal. The unspawnable worker sends all
        // three misses back to the pool, and `healed == 3` shows that the
        // pool computed them without reading their entries again.
        let dir = std::env::temp_dir().join(format!("htm-exp-engine-once-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cells = queue_cells(4);
        let cache = ResultCache::new(&dir, true);
        cache.store(&cells[0].kind.key(), &cells[0].id, &cells[0].kind.compute()).unwrap();
        for cell in &cells[1..] {
            let path = cache.path_for(&cell.kind.key());
            std::fs::create_dir_all(&path).unwrap();
            std::fs::create_dir_all(path.with_extension("json.corrupt").join("taken")).unwrap();
        }
        let opts = RunOpts {
            cache_dir: dir.clone(),
            quiet: true,
            worker_exe: Some("/nonexistent/htm-exp".into()),
            fabric: Some(FabricConfig::default()),
            ..RunOpts::default()
        };
        let (results, report) = compute_cells("t", &cells, &opts);
        let fabric = report.fabric.expect("fabric report present");
        assert!(fabric.degraded);
        assert_eq!((report.cached, report.healed), (1, 3));
        assert_eq!((report.computed, fabric.local_cells), (3, 3));
        assert_eq!(results, compute_cells("t", &cells, &no_cache_opts()).0);
        let _ = std::fs::remove_dir_all(&dir);
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

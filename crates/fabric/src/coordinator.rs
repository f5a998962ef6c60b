//! The fabric coordinator: shards work items to worker processes under
//! lease-based assignment, and survives every way a worker can fail.
//!
//! Robustness model, in one place:
//!
//! * **Leases** — an assignment is a lease `(cell, attempt, deadline)`.
//!   A worker that crashes, hangs, or is killed never loses work: its
//!   lease is reclaimed and the cell is retried elsewhere after a capped,
//!   seeded-random backoff. Attempts are bounded; a cell that keeps
//!   failing is *quarantined* with its last error instead of hanging the
//!   run.
//! * **Timeouts** — each lease carries a wall-clock deadline. A wedged
//!   worker (stalled cell, livelocked simulator) is SIGKILLed when its
//!   lease expires; heartbeats catch workers that die without closing
//!   their socket.
//! * **Liveness** — workers heartbeat on a side thread even while a cell
//!   computes, so a long cell is distinguishable from a dead process.
//! * **Degradation** — if no worker can be spawned or every worker is
//!   lost with no respawn budget left, the coordinator returns the
//!   remaining items as *unexecuted* so the caller can fall back to
//!   in-process execution instead of failing the run.
//! * **Streaming** — each result goes to the caller's callback the moment
//!   it arrives, so a run interrupted mid-grid keeps everything it
//!   finished.
//!
//! The coordinator is transport-agnostic about who serves the work: it
//! spawns `worker_cmd` processes (appending `--fabric-addr`/`--fabric-id`)
//! when a command is given, and also accepts externally attached workers
//! on its listen address — which is how the in-crate tests drive the lease
//! machinery with misbehaving in-thread workers, no child processes
//! needed.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use htm_analyze::Json;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::chaos::{ChaosAction, ChaosPlan};
use crate::proto::{send, Directive, ToCoordinator, ToWorker};

/// Fabric tuning knobs. The defaults are production-shaped; chaos tests
/// shrink the timeouts to keep wall-clock down.
#[derive(Clone, Debug, PartialEq)]
pub struct FabricConfig {
    /// Worker processes to spawn (external workers may attach on top).
    pub workers: usize,
    /// Worker heartbeat interval.
    pub heartbeat_ms: u64,
    /// A worker whose last heartbeat is older than this is presumed dead.
    pub liveness_timeout_ms: u64,
    /// Per-cell wall-clock lease; expiry SIGKILLs the assignee.
    pub cell_timeout_ms: u64,
    /// Maximum assignments per cell before quarantine.
    pub max_attempts: u32,
    /// Base backoff before a reclaimed cell is retried.
    pub backoff_base_ms: u64,
    /// Backoff ceiling (the cap in "capped randomized backoff").
    pub backoff_cap_ms: u64,
    /// How long to wait for the first worker to connect before degrading
    /// (also the per-worker connect window after spawn).
    pub connect_wait_ms: u64,
    /// Replacement workers the coordinator may spawn after losses (failed
    /// spawn attempts burn budget too, so a broken worker binary degrades
    /// instead of retrying forever).
    pub max_respawns: usize,
    /// Seed for backoff jitter (and anything else the coordinator draws).
    pub seed: u64,
    /// Chaos schedule (empty outside the chaos harness).
    pub chaos: ChaosPlan,
    /// Let workers inherit stderr (debugging; chaos tests keep it off).
    pub verbose: bool,
}

impl Default for FabricConfig {
    fn default() -> FabricConfig {
        FabricConfig {
            workers: 2,
            heartbeat_ms: 100,
            liveness_timeout_ms: 3_000,
            cell_timeout_ms: 300_000,
            max_attempts: 4,
            backoff_base_ms: 10,
            backoff_cap_ms: 500,
            connect_wait_ms: 10_000,
            max_respawns: 8,
            seed: 42,
            chaos: ChaosPlan::none(),
            verbose: false,
        }
    }
}

/// Counters describing what the fabric did (surfaced through the engine
/// report and the chaos tests' bounded-retry assertions).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Worker processes spawned (including respawns).
    pub spawned: usize,
    /// Workers lost to crash, kill, or liveness timeout.
    pub lost: usize,
    /// Replacement spawns attempted after losses (budgeted).
    pub respawns: usize,
    /// Assignments handed out (retries included).
    pub assignments: usize,
    /// Assignments beyond each cell's first (the retry count).
    pub retries: usize,
    /// Leases reclaimed by wall-clock timeout (SIGKILL escalations).
    pub timeouts: usize,
    /// Results that arrived for already-completed cells (late duplicates
    /// from workers presumed dead; counted, ignored).
    pub stale_results: usize,
    /// Cells quarantined after exhausting their attempt bound.
    pub quarantined: usize,
}

/// How a fabric run ended. The results themselves went to the caller's
/// callback as they arrived.
#[derive(Clone, Debug, Default)]
pub struct FabricOutcome {
    /// Quarantined items as `(input position, last error)`.
    pub errors: Vec<(usize, String)>,
    /// Input positions never executed because the fabric degraded (no
    /// workers could be spawned or all were lost); the caller should run
    /// these in-process.
    pub unexecuted: Vec<usize>,
    /// Whether the run degraded (`unexecuted` is not empty).
    pub degraded: bool,
    /// Counters.
    pub stats: FabricStats,
}

/// Backoff before retry `attempt` (1-based): `base · 2^(attempt-1)` with a
/// seeded jitter factor in `[0.5, 1.5)`, capped at `cap`. Pure, so the
/// bound is testable: the delay never exceeds `cap` and never collapses to
/// zero.
pub fn backoff_ms(base: u64, cap: u64, attempt: u32, rng: &mut SmallRng) -> u64 {
    let exp = base.saturating_mul(1u64 << attempt.saturating_sub(1).min(20));
    let jitter = 0.5 + rng.gen_range(0.0..1.0);
    ((exp as f64 * jitter) as u64).clamp(1, cap.max(1))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TaskState {
    Ready,
    Delayed,
    Leased,
    Done,
    Quarantined,
}

/// One input item's scheduling state; its position in `Fabric::tasks` is
/// the wire-visible cell id.
struct Task {
    key: String,
    attempts: u32,
    state: TaskState,
    ready_at: Instant,
    last_error: String,
}

struct WorkerState {
    child: Option<Child>,
    conn: Option<TcpStream>,
    last_seen: Instant,
    /// `(task id, attempt, deadline)`.
    lease: Option<(usize, u32, Instant)>,
    spawned_at: Instant,
}

enum Event {
    Hello(u64, TcpStream),
    Msg(u64, ToCoordinator),
    Closed(u64),
}

/// The coordinator's mutable world, threaded through the helpers.
struct Fabric<'a> {
    cfg: &'a FabricConfig,
    worker_cmd: &'a [String],
    addr: String,
    tasks: Vec<Task>,
    workers: HashMap<u64, WorkerState>,
    next_worker_id: u64,
    open: usize,
    rng: SmallRng,
    stats: FabricStats,
    on_result: &'a mut dyn FnMut(usize, Json),
}

/// Runs the items with content keys `keys` over the fabric, passing each
/// result to `on_result(position, result)` as it arrives (at most once per
/// position; equal keys are not merged). `worker_cmd` is the worker
/// executable and its leading arguments (`--fabric-addr <addr>
/// --fabric-id <n>` are appended); an empty command spawns nothing and
/// serves only externally attached workers (the test harness), degrading
/// if none attach in time.
pub fn run_fabric(
    keys: &[String],
    worker_cmd: &[String],
    cfg: &FabricConfig,
    on_result: impl FnMut(usize, Json),
) -> FabricOutcome {
    run_fabric_with(keys, worker_cmd, cfg, |_| {}, on_result)
}

/// [`run_fabric`] with a hook that receives the coordinator's listen
/// address once it is bound — the rendezvous the in-crate chaos tests use
/// to attach in-thread protocol workers without child processes.
pub fn run_fabric_with(
    keys: &[String],
    worker_cmd: &[String],
    cfg: &FabricConfig,
    on_listen: impl FnOnce(&str),
    mut on_result: impl FnMut(usize, Json),
) -> FabricOutcome {
    if keys.is_empty() {
        return FabricOutcome::default();
    }
    let degraded = || FabricOutcome {
        unexecuted: (0..keys.len()).collect(),
        degraded: true,
        ..FabricOutcome::default()
    };
    let Ok(listener) = TcpListener::bind("127.0.0.1:0") else {
        return degraded();
    };
    let Ok(addr) = listener.local_addr().map(|a| a.to_string()) else {
        return degraded();
    };
    on_listen(&addr);

    let now = Instant::now();
    let mut fab = Fabric {
        cfg,
        worker_cmd,
        addr,
        tasks: keys
            .iter()
            .map(|key| Task {
                key: key.clone(),
                attempts: 0,
                state: TaskState::Ready,
                ready_at: now,
                last_error: String::new(),
            })
            .collect(),
        open: keys.len(),
        workers: HashMap::new(),
        next_worker_id: 0,
        rng: SmallRng::seed_from_u64(cfg.seed),
        stats: FabricStats::default(),
        on_result: &mut on_result,
    };

    let (tx, rx) = channel::<Event>();
    let stopped = Arc::new(AtomicBool::new(false));
    let accept_handle = spawn_acceptor(listener, tx, Arc::clone(&stopped));

    let spawn_target = cfg.workers.clamp(1, fab.tasks.len());
    if !worker_cmd.is_empty() {
        for _ in 0..spawn_target {
            fab.spawn_worker();
        }
    }

    let started = Instant::now();
    let mut ever_connected = false;
    let mut idle_since: Option<Instant> = None;

    // All spawns failing immediately (missing binary) is a clean degrade,
    // not a connect-window wait.
    let spawnable = worker_cmd.is_empty() || !fab.workers.is_empty();
    while fab.open > 0 && spawnable {
        let alive = fab.workers.values().any(|w| w.conn.is_some() || w.child.is_some());
        let can_respawn = !worker_cmd.is_empty() && fab.stats.respawns < cfg.max_respawns;
        if alive || can_respawn {
            idle_since = None;
        } else if ever_connected {
            // All workers lost with no respawn budget. A late attacher may
            // still arrive (a respawn mid-connect, an external worker), so
            // degrade only after a full connect window of emptiness.
            let window = Duration::from_millis(cfg.connect_wait_ms);
            match idle_since {
                None => idle_since = Some(Instant::now()),
                Some(t) if t.elapsed() >= window => break,
                Some(_) => {}
            }
        }
        if !ever_connected && started.elapsed() >= Duration::from_millis(cfg.connect_wait_ms) {
            break;
        }

        match rx.recv_timeout(Duration::from_millis(25)) {
            Ok(Event::Hello(wid, stream)) => {
                ever_connected = true;
                let w = fab.workers.entry(wid).or_insert_with(|| WorkerState {
                    child: None,
                    conn: None,
                    last_seen: Instant::now(),
                    lease: None,
                    spawned_at: Instant::now(),
                });
                w.conn = Some(stream);
                w.last_seen = Instant::now();
            }
            Ok(Event::Msg(wid, msg)) => fab.on_message(wid, msg),
            Ok(Event::Closed(wid)) => fab.lose_worker(wid, false),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }

        fab.tick();
        fab.assign_ready();
    }

    // Shutdown: ask live workers to exit, unblock the acceptor, reap.
    stopped.store(true, Ordering::SeqCst);
    for w in fab.workers.values_mut() {
        if let Some(conn) = &mut w.conn {
            let _ = send(conn, &ToWorker::Shutdown.to_json());
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }
    let _ = TcpStream::connect(&fab.addr); // unblock accept()
    let _ = accept_handle.join();
    let reap_deadline = Instant::now() + Duration::from_secs(2);
    for w in fab.workers.values_mut() {
        if let Some(child) = &mut w.child {
            while Instant::now() < reap_deadline {
                match child.try_wait() {
                    Ok(Some(_)) | Err(_) => break,
                    Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    // Classify what never finished.
    let mut out = FabricOutcome { stats: fab.stats, ..FabricOutcome::default() };
    for (pos, task) in fab.tasks.iter().enumerate() {
        match task.state {
            TaskState::Done => {}
            TaskState::Quarantined => out.errors.push((pos, task.last_error.clone())),
            _ => out.unexecuted.push(pos),
        }
    }
    out.degraded = !out.unexecuted.is_empty();
    out
}

fn spawn_acceptor(
    listener: TcpListener,
    tx: Sender<Event>,
    stopped: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        while let Ok((stream, _)) = listener.accept() {
            if stopped.load(Ordering::SeqCst) {
                break;
            }
            let tx = tx.clone();
            std::thread::spawn(move || read_worker(stream, tx));
        }
    })
}

/// Per-connection reader: the first line must be `hello` (it names the
/// worker); everything after is forwarded. EOF, I/O errors, and protocol
/// garbage all end in a `Closed` event — the lease layer handles the rest.
fn read_worker(stream: TcpStream, tx: Sender<Event>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let wid = match reader.read_line(&mut line) {
        Ok(n) if n > 0 => match ToCoordinator::parse(&line) {
            Some(ToCoordinator::Hello { worker, .. }) => worker,
            _ => return,
        },
        _ => return,
    };
    if tx.send(Event::Hello(wid, write_half)).is_err() {
        return;
    }
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => match ToCoordinator::parse(&line) {
                Some(msg) => {
                    if tx.send(Event::Msg(wid, msg)).is_err() {
                        return;
                    }
                }
                None => break,
            },
        }
    }
    let _ = tx.send(Event::Closed(wid));
}

impl Fabric<'_> {
    fn spawn_worker(&mut self) -> bool {
        let wid = self.next_worker_id;
        self.next_worker_id += 1;
        let mut cmd = Command::new(&self.worker_cmd[0]);
        cmd.args(&self.worker_cmd[1..])
            .arg("--fabric-addr")
            .arg(&self.addr)
            .arg("--fabric-id")
            .arg(wid.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        if !self.cfg.verbose {
            cmd.stderr(Stdio::null());
        }
        match cmd.spawn() {
            Ok(child) => {
                self.stats.spawned += 1;
                self.workers.insert(
                    wid,
                    WorkerState {
                        child: Some(child),
                        conn: None,
                        last_seen: Instant::now(),
                        lease: None,
                        spawned_at: Instant::now(),
                    },
                );
                true
            }
            Err(_) => false,
        }
    }

    fn on_message(&mut self, wid: u64, msg: ToCoordinator) {
        match msg {
            ToCoordinator::Hello { .. } => {}
            ToCoordinator::Heartbeat { .. } => {
                if let Some(w) = self.workers.get_mut(&wid) {
                    w.last_seen = Instant::now();
                }
            }
            ToCoordinator::Result { cell, result, .. } => {
                self.release_lease_for(wid, cell);
                match self.tasks.get(cell).map(|t| t.state) {
                    None | Some(TaskState::Done) => self.stats.stale_results += 1,
                    // A late result can even rescue a quarantined cell
                    // (its `open` slot was already closed).
                    Some(state) => self.complete(cell, result, state != TaskState::Quarantined),
                }
            }
            ToCoordinator::CellError { cell, error, .. } => {
                self.release_lease_for(wid, cell);
                if self.tasks.get(cell).is_some_and(|t| t.state == TaskState::Leased) {
                    self.requeue_or_quarantine(cell, error);
                }
            }
        }
    }

    fn release_lease_for(&mut self, wid: u64, cell: usize) {
        if let Some(w) = self.workers.get_mut(&wid) {
            w.last_seen = Instant::now();
            if matches!(w.lease, Some((t, _, _)) if t == cell) {
                w.lease = None;
            }
        }
    }

    fn complete(&mut self, t: usize, result: Json, count_open: bool) {
        self.tasks[t].state = TaskState::Done;
        (self.on_result)(t, result);
        if count_open {
            self.open -= 1;
        }
    }

    /// Bounded retry: requeue with capped randomized backoff, or
    /// quarantine once the attempt budget is spent.
    fn requeue_or_quarantine(&mut self, t: usize, error: String) {
        let task = &mut self.tasks[t];
        task.last_error = error;
        if task.attempts >= self.cfg.max_attempts {
            task.state = TaskState::Quarantined;
            self.stats.quarantined += 1;
            self.open -= 1;
        } else {
            let delay = backoff_ms(
                self.cfg.backoff_base_ms,
                self.cfg.backoff_cap_ms,
                task.attempts,
                &mut self.rng,
            );
            task.state = TaskState::Delayed;
            task.ready_at = Instant::now() + Duration::from_millis(delay);
        }
    }

    /// Removes a worker, reclaims its lease, and respawns a replacement
    /// while work remains and the budget allows.
    fn lose_worker(&mut self, wid: u64, timed_out: bool) {
        let Some(mut w) = self.workers.remove(&wid) else {
            return; // already handled (killed on timeout, late Closed event)
        };
        self.stats.lost += 1;
        if timed_out {
            self.stats.timeouts += 1;
        }
        if let Some(conn) = &w.conn {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        if let Some(child) = &mut w.child {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some((t, _, _)) = w.lease {
            if self.tasks[t].state == TaskState::Leased {
                self.requeue_or_quarantine(t, "worker lost mid-lease".into());
            }
        }
        if self.open > 0
            && !self.worker_cmd.is_empty()
            && self.stats.respawns < self.cfg.max_respawns
        {
            // Failed spawns burn budget too: a broken worker binary must
            // degrade, not spin.
            self.stats.respawns += 1;
            self.spawn_worker();
        }
    }

    /// Periodic maintenance: reap exited children, expire stale
    /// heartbeats, enforce lease deadlines (SIGKILL escalation), release
    /// delayed retries.
    fn tick(&mut self) {
        let now = Instant::now();
        let mut doomed: Vec<(u64, bool)> = Vec::new();
        for (&wid, w) in self.workers.iter_mut() {
            // A child that exited is dead even if its socket lingers.
            if let Some(child) = &mut w.child {
                if matches!(child.try_wait(), Ok(Some(_))) {
                    doomed.push((wid, false));
                    continue;
                }
            }
            // Spawned but never connected within the window.
            let connect_window = Duration::from_millis(self.cfg.connect_wait_ms);
            if w.conn.is_none() && now.duration_since(w.spawned_at) >= connect_window {
                doomed.push((wid, false));
                continue;
            }
            // Heartbeat staleness.
            let liveness = Duration::from_millis(self.cfg.liveness_timeout_ms);
            if w.conn.is_some() && now.duration_since(w.last_seen) >= liveness {
                doomed.push((wid, false));
                continue;
            }
            // Lease deadline: the wedged-worker SIGKILL escalation.
            if matches!(w.lease, Some((_, _, deadline)) if now >= deadline) {
                doomed.push((wid, true));
            }
        }
        for (wid, timed_out) in doomed {
            self.lose_worker(wid, timed_out);
        }
        for task in self.tasks.iter_mut() {
            if task.state == TaskState::Delayed && now >= task.ready_at {
                task.state = TaskState::Ready;
            }
        }
    }

    /// Hands ready tasks to idle connected workers, applying the chaos
    /// schedule at each assignment sequence number.
    fn assign_ready(&mut self) {
        loop {
            let Some(t) = self.tasks.iter().position(|task| task.state == TaskState::Ready) else {
                return;
            };
            // Deterministic idle-worker choice (lowest id) so chaos
            // schedules are as reproducible as OS scheduling allows.
            let mut idle: Vec<u64> = self
                .workers
                .iter()
                .filter(|(_, w)| w.conn.is_some() && w.lease.is_none())
                .map(|(&wid, _)| wid)
                .collect();
            idle.sort_unstable();
            let Some(&wid) = idle.first() else {
                return;
            };

            let seq = self.stats.assignments;
            let chaos = self.cfg.chaos.action_at(seq);
            let directive = match chaos {
                Some(ChaosAction::Stall) => Directive::Stall,
                Some(ChaosAction::DieBeforeReport) => Directive::DieBeforeReport,
                Some(ChaosAction::DieAfterReport) => Directive::DieAfterReport,
                _ => Directive::None,
            };

            self.tasks[t].attempts += 1;
            if self.tasks[t].attempts > 1 {
                self.stats.retries += 1;
            }
            let attempt = self.tasks[t].attempts;
            let msg = ToWorker::Assign {
                cell: t,
                attempt,
                key: self.tasks[t].key.clone(),
                chaos: directive,
            };
            self.stats.assignments += 1;
            self.tasks[t].state = TaskState::Leased;
            let deadline = Instant::now() + Duration::from_millis(self.cfg.cell_timeout_ms);
            let sent = match self.workers.get_mut(&wid) {
                Some(w) => {
                    w.lease = Some((t, attempt, deadline));
                    match w.conn.as_mut() {
                        Some(conn) => send(conn, &msg.to_json()).is_ok(),
                        None => false,
                    }
                }
                None => false,
            };
            if !sent {
                // Broken pipe at assignment time: the worker is gone; the
                // normal loss path reclaims the lease and respawns.
                self.lose_worker(wid, false);
                continue;
            }
            if matches!(chaos, Some(ChaosAction::KillAssignee)) {
                // Assign-phase crash: the worker dies with the lease held;
                // the loss path reclaims and retries the cell.
                self.lose_worker(wid, false);
            }
        }
    }
}

//! Per-thread execution context and the transaction-retry mechanism of
//! Figure 1.
//!
//! [`ThreadCtx::atomic`] is the workspace's `TM_BEGIN`/`TM_END`: it runs a
//! closure as a best-effort hardware transaction, retrying on aborts under
//! three tunable counters — lock-retry, persistent-retry and transient-retry
//! (Section 3) — and finally reverting to irrevocable execution under the
//! global lock. On Blue Gene/Q the paper could only use the system-provided
//! mechanism: a single retry counter with an adaptation heuristic and, in
//! long-running mode, *lazy* lock subscription; [`ThreadCtx::atomic`]
//! switches to that behaviour automatically when the platform model is
//! Blue Gene/Q.
//!
//! The context also exposes the processor-specific interfaces evaluated in
//! Section 6: [`ThreadCtx::atomic_hle`] (Intel hardware lock elision),
//! [`ThreadCtx::atomic_constrained`] (zEC12 constrained transactions) and
//! [`ThreadCtx::try_rollback_only`] (POWER8 rollback-only transactions).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use rand::rngs::SmallRng;

use htm_core::{Abort, AbortCategory, AbortCause, SyncClock, TxMemory, TxResult, WordAddr};
use htm_hytm::adapt::{AdaptSignal, AdaptiveController, Tier};
use htm_hytm::{FallbackPolicy, ROT_RETRIES, STM_COMMIT_RETRIES};
use htm_machine::{BgqMode, Machine, Platform};

use crate::lock::GlobalLock;
use crate::replay::{AttemptRecord, BlockRecord, Turnstile, TxPath};
use crate::stats::ThreadStats;
use crate::tx::{ExecMode, Tx, TxnEngine};

/// Explicit-abort code used when a transaction starts while the global lock
/// is held (Figure 1, line 27).
pub const LOCK_HELD_ABORT: u8 = 0xff;

/// Maximum retry counts for the three counters of Figure 1 (plus the single
/// Blue Gene/Q counter).
///
/// The paper tunes these per (platform × benchmark × thread count); the
/// experiment harness's tuner does the same grid search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// `MAX_LOCK_RETRY_COUNT`: retries after aborts caused by global-lock
    /// conflicts.
    pub lock_retries: u32,
    /// `MAX_PERSISTENT_RETRY_COUNT`: retries after aborts the platform
    /// reports as persistent (capacity overflows).
    pub persistent_retries: u32,
    /// `MAX_TRANSIENT_RETRY_COUNT`: retries after all other aborts.
    pub transient_retries: u32,
    /// Blue Gene/Q's single system-provided retry counter.
    pub bgq_retries: u32,
}

impl RetryPolicy {
    /// A policy with all counters set to `n` (coarse tuning knob).
    pub fn uniform(n: u32) -> RetryPolicy {
        RetryPolicy { lock_retries: n, persistent_retries: n, transient_retries: n, bgq_retries: n }
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { lock_retries: 4, persistent_retries: 2, transient_retries: 8, bgq_retries: 8 }
    }
}

/// The livelock/lemming watchdog: a last line of defence behind the retry
/// counters.
///
/// The Figure-1 mechanism already guarantees progress for a *single* block
/// (the counters are finite, so every block eventually reaches the
/// irrevocable fallback), but pathological schedules — and fault plans —
/// can still make a thread churn through aborts at full speed. The watchdog
/// tracks attempts per block and, past [`WatchdogConfig::starvation_bound`],
/// *trips*: the block and the next [`WatchdogConfig::degraded_blocks`]
/// blocks run irrevocably under the global lock (graceful degradation), and
/// the thread's retry backoff is escalated by one doubling (capped at
/// [`WatchdogConfig::escalation_cap`]).
///
/// The default bound (64) is far above what the default retry policies can
/// reach (≤ 15 attempts per block), so default-configured runs never trip
/// and stay bit-identical to a watchdog-free build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Attempts (per atomic block) after which the watchdog trips;
    /// 0 disables the watchdog entirely.
    pub starvation_bound: u32,
    /// Atomic blocks forced into irrevocable execution after a trip.
    pub degraded_blocks: u32,
    /// Maximum extra backoff doublings accumulated from repeated trips.
    pub escalation_cap: u32,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig { starvation_bound: 64, degraded_blocks: 8, escalation_cap: 3 }
    }
}

impl WatchdogConfig {
    /// A disabled watchdog (no bound, no degradation, no escalation).
    pub fn disabled() -> WatchdogConfig {
        WatchdogConfig { starvation_bound: 0, degraded_blocks: 0, escalation_cap: 0 }
    }

    /// Whether `attempt` attempts on one block means starvation.
    fn starved(&self, attempt: u32) -> bool {
        self.starvation_bound > 0 && attempt >= self.starvation_bound
    }
}

/// Blue Gene/Q's adaptation heuristic: transactions that fell back on the
/// global lock too frequently are not allowed to retry on the next abort
/// (Section 3 — the paper found it acts "too early" in intruder, driving a
/// 56% serialization ratio at 16 threads).
#[derive(Debug, Default)]
struct BgqAdapt {
    window: u64,
    len: u32,
}

impl BgqAdapt {
    const WINDOW: u32 = 32;

    fn record(&mut self, fell_back: bool) {
        self.window = (self.window << 1) | fell_back as u64;
        self.len = (self.len + 1).min(Self::WINDOW);
    }

    /// Whether retries are suppressed for the next transaction.
    fn suppress_retries(&self) -> bool {
        if self.len < 8 {
            return false;
        }
        let mask = if self.len >= 64 { u64::MAX } else { (1u64 << self.len) - 1 };
        let fallbacks = (self.window & mask).count_ones();
        // More than half of recent blocks serialized. (A lower threshold
        // is self-reinforcing: suppressed retries cause fallbacks, which
        // keep the window full — the heuristic can never recover.)
        fallbacks * 2 > self.len
    }
}

enum Outcome<R> {
    Committed(R),
    Aborted(AbortCause),
}

/// Replay state: this thread's recorded blocks plus the global turnstile
/// serializing commits in recorded order.
struct Replayer {
    blocks: VecDeque<BlockRecord>,
    turnstile: Turnstile,
}

/// Per-worker-thread execution context.
///
/// Owns the thread's [`TxnEngine`] plus the retry-mechanism state, and is
/// the API surface benchmark code uses outside transactions (allocation,
/// non-transactional access, compute-cost charging).
pub struct ThreadCtx {
    eng: TxnEngine,
    lock: GlobalLock,
    policy: RetryPolicy,
    fallback: FallbackPolicy,
    bgq_adapt: BgqAdapt,
    constrained_arbiter: Arc<Mutex<()>>,
    hle: bool,
    watchdog: WatchdogConfig,
    /// Atomic blocks remaining in degraded (forced-irrevocable) mode.
    degraded_left: u32,
    /// Extra backoff doublings from watchdog trips (0 until the first trip,
    /// so untripped runs are bit-identical to pre-watchdog behaviour).
    trip_shift: u32,
    /// Recorded atomic blocks (record mode only).
    recorder: Option<Vec<BlockRecord>>,
    /// Trace being replayed (replay mode only).
    replayer: Option<Replayer>,
    /// The global lock's vector clock (sanitizer runs only): irrevocable
    /// sections on the same lock are release/acquire-ordered.
    lock_sync: Option<Arc<SyncClock>>,
    /// The `htm-adapt` contention manager (present only under
    /// [`FallbackPolicy::Adaptive`]).
    adapt: Option<AdaptiveController>,
    /// Controller tier switches already mirrored into the stats counter.
    adapt_switches_seen: u64,
}

impl std::fmt::Debug for ThreadCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadCtx").field("thread_id", &self.thread_id()).finish()
    }
}

impl ThreadCtx {
    pub(crate) fn new(
        eng: TxnEngine,
        lock: GlobalLock,
        policy: RetryPolicy,
        fallback: FallbackPolicy,
        constrained_arbiter: Arc<Mutex<()>>,
        watchdog: WatchdogConfig,
    ) -> ThreadCtx {
        let adapt = make_adapt(&eng, fallback);
        ThreadCtx {
            eng,
            lock,
            policy,
            fallback,
            bgq_adapt: BgqAdapt::default(),
            constrained_arbiter,
            hle: false,
            watchdog,
            degraded_left: 0,
            trip_shift: 0,
            recorder: None,
            replayer: None,
            lock_sync: None,
            adapt,
            adapt_switches_seen: 0,
        }
    }

    /// Turns on the happens-before race sanitizer for this thread.
    /// `lock_sync` is the run-wide vector clock of the global lock.
    pub(crate) fn enable_sanitize(&mut self, lock_sync: Arc<SyncClock>) {
        self.eng.enable_sanitize();
        self.lock_sync = Some(lock_sync);
    }

    /// Starts recording this thread's atomic-block decision stream.
    pub(crate) fn enable_recording(&mut self) {
        self.recorder = Some(Vec::new());
        self.eng.set_log_allocs(true);
    }

    /// Takes the recorded blocks (end of a record-mode run).
    pub(crate) fn take_recording(&mut self) -> Vec<BlockRecord> {
        self.recorder.take().unwrap_or_default()
    }

    /// Puts this thread into replay mode, following `blocks` and the shared
    /// commit `turnstile`.
    pub(crate) fn enable_replay(&mut self, blocks: Vec<BlockRecord>, turnstile: Turnstile) {
        self.replayer = Some(Replayer { blocks: blocks.into(), turnstile });
        self.eng.set_replay_mode(true);
    }

    /// Recorded blocks the replayed workload did not consume (0 for a
    /// faithful replay).
    pub(crate) fn replay_leftover(&self) -> usize {
        self.replayer.as_ref().map_or(0, |r| r.blocks.len())
    }

    /// Routes subsequent [`ThreadCtx::atomic`] calls through hardware lock
    /// elision instead of the RTM retry mechanism (the Figure-7 comparison:
    /// same benchmark code, the HLE interface).
    ///
    /// # Panics
    ///
    /// Panics when enabling HLE on a platform without it.
    pub fn set_hle(&mut self, on: bool) {
        if on {
            assert!(
                self.eng.machine().config().has_hle,
                "{} has no hardware lock elision",
                self.eng.machine().config().name
            );
        }
        self.hle = on;
    }

    // ------------------------------------------------------------------
    // Non-transactional surface
    // ------------------------------------------------------------------

    /// This worker's thread id (0-based).
    pub fn thread_id(&self) -> u32 {
        self.eng.thread_id()
    }

    /// Number of worker threads in the run.
    pub fn num_threads(&self) -> u32 {
        self.eng.num_threads()
    }

    /// The simulated memory.
    pub fn mem(&self) -> &Arc<TxMemory> {
        self.eng.mem()
    }

    /// The platform model.
    pub fn machine(&self) -> &Arc<Machine> {
        self.eng.machine()
    }

    /// The retry policy in force.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Replaces the retry policy (tuning sweeps).
    pub fn set_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
    }

    /// The fallback policy in force (what runs when the retry counters are
    /// exhausted).
    pub fn fallback(&self) -> FallbackPolicy {
        self.fallback
    }

    /// Replaces the fallback policy (installing a fresh adaptive
    /// controller when switching to [`FallbackPolicy::Adaptive`]).
    pub fn set_fallback(&mut self, fallback: FallbackPolicy) {
        self.fallback = fallback;
        self.adapt = make_adapt(&self.eng, fallback);
        self.adapt_switches_seen = 0;
    }

    /// The fallback tier actually taken: [`FallbackPolicy::Rot`] needs
    /// POWER8-style rollback-only transactions and degrades to the global
    /// lock elsewhere.
    fn effective_fallback(&self) -> FallbackPolicy {
        match self.fallback {
            FallbackPolicy::Rot if !self.eng.machine().config().has_rollback_only => {
                FallbackPolicy::Lock
            }
            f => f,
        }
    }

    /// The livelock-watchdog configuration in force.
    pub fn watchdog(&self) -> WatchdogConfig {
        self.watchdog
    }

    /// Replaces the watchdog configuration (robustness experiments).
    pub fn set_watchdog(&mut self, watchdog: WatchdogConfig) {
        self.watchdog = watchdog;
    }

    /// Charges `cycles` of simulated compute to this thread (scaled by SMT
    /// co-residency).
    pub fn tick(&self, cycles: u64) {
        self.eng.charge(cycles);
        self.eng.maybe_yield();
    }

    /// Current simulated time.
    pub fn now(&self) -> u64 {
        self.eng.clock().now()
    }

    /// Advances this worker's simulated clock to at least `t` (used by
    /// synchronization constructs such as phase barriers: a thread resumes
    /// no earlier than the latest arriving thread).
    pub fn advance_clock_to(&self, t: u64) {
        self.eng.clock().advance_to(t);
    }

    /// Charges one cache-missing access (see `Tx::charge_miss`).
    pub fn charge_miss(&self) {
        let running = self.eng.machine().cores().threads_running().max(1) as usize;
        let c = self.eng.machine().config().cost.miss_cost(running);
        self.eng.charge(c);
    }

    /// Allocates simulated memory (non-transactional).
    pub fn alloc(&mut self, words: u32) -> WordAddr {
        self.eng.alloc_mut().alloc(words)
    }

    /// Allocates cache-line-aligned simulated memory (the kmeans fix).
    pub fn alloc_aligned(&mut self, words: u32, align_bytes: u32) -> WordAddr {
        self.eng.alloc_mut().alloc_aligned(words, align_bytes)
    }

    /// Allocates `words` on conflict-detection line(s) of their own: the
    /// start is line-aligned and the size is rounded up to whole lines, so
    /// no later allocation can share a line with this block. Use for hot
    /// structure headers that would otherwise falsely conflict with
    /// whatever happens to be allocated next to them.
    pub fn alloc_line(&mut self, words: u32) -> WordAddr {
        let gran = self.eng.machine().config().granularity.max(8);
        let wpl = gran / 8;
        let padded = words.div_ceil(wpl) * wpl;
        self.eng.alloc_mut().alloc_aligned(padded, gran)
    }

    /// Frees a block for reuse by this thread.
    pub fn free(&mut self, addr: WordAddr, words: u32) {
        self.eng.alloc_mut().free(addr, words);
    }

    /// Non-transactional load outside atomic blocks (charges one access).
    pub fn read_word(&self, addr: WordAddr) -> u64 {
        self.eng.charge(self.eng.machine().config().cost.load);
        self.eng.hb_nontx_access(addr, false);
        self.eng.mem().nontx_load(None, addr)
    }

    /// Non-transactional store outside atomic blocks.
    pub fn write_word(&self, addr: WordAddr, value: u64) {
        self.eng.charge(self.eng.machine().config().cost.store);
        self.eng.mem().nontx_store(None, addr, value);
        self.eng.cert_nontx_write(addr, value);
        self.eng.hb_nontx_access(addr, true);
    }

    /// Non-transactional CAS outside atomic blocks (lock-free baselines).
    ///
    /// # Errors
    ///
    /// Returns the observed value when it differs from `expected`.
    pub fn cas_word(&self, addr: WordAddr, expected: u64, new: u64) -> Result<u64, u64> {
        self.eng.clock().tick(self.eng.machine().config().cost.lock_op);
        let r = self.eng.mem().nontx_cas(None, addr, expected, new);
        if r.is_ok() {
            self.eng.cert_nontx_write(addr, new);
        }
        // A CAS is a write when it succeeds, and still a read when it fails.
        self.eng.hb_nontx_access(addr, r.is_ok());
        r
    }

    /// Non-transactional fetch-add outside atomic blocks (bounded-queue
    /// head/tail handoff in service workloads): retries the CAS until it
    /// installs `observed + delta` and returns the value it replaced.
    pub fn fetch_add_word(&self, addr: WordAddr, delta: u64) -> u64 {
        let mut cur = self.read_word(addr);
        loop {
            match self.cas_word(addr, cur, cur.wrapping_add(delta)) {
                Ok(_) => return cur,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Records one completed request's simulated-cycle latency into this
    /// thread's [`LatencyHistogram`](crate::LatencyHistogram) (folded into
    /// [`RunStats::latency`](crate::RunStats::latency) after the run).
    pub fn record_latency(&mut self, cycles: u64) {
        self.eng.stats.latency.record(cycles);
    }

    /// Release edge on `sync` for the race sanitizer (no-op when the
    /// sanitizer is off). Synchronization constructs built on host
    /// primitives — phase barriers, ad-hoc flags — call this *before* the
    /// host-side wait/publish.
    pub fn hb_release(&self, sync: &SyncClock) {
        self.eng.hb_release(sync);
    }

    /// Acquire edge on `sync` for the race sanitizer (no-op when the
    /// sanitizer is off); call *after* the host-side wait.
    pub fn hb_acquire(&self, sync: &SyncClock) {
        self.eng.hb_acquire(sync);
    }

    /// Deterministic per-thread random-number generator.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.eng.rng_mut()
    }

    /// A snapshot of this thread's statistics so far.
    pub fn stats(&self) -> &ThreadStats {
        &self.eng.stats
    }

    pub(crate) fn take_stats(&mut self) -> ThreadStats {
        self.eng.take_stats()
    }

    pub(crate) fn engine_mut(&mut self) -> &mut TxnEngine {
        &mut self.eng
    }

    // ------------------------------------------------------------------
    // The retry mechanism (Figure 1)
    // ------------------------------------------------------------------

    /// Executes `body` atomically: as a hardware transaction with retries,
    /// falling back to irrevocable execution under the global lock.
    ///
    /// `body` must be idempotent up to its transactional effects (it may run
    /// many times); all side effects on simulated memory go through the
    /// [`Tx`] handle and are rolled back on abort.
    ///
    /// # Panics
    ///
    /// Panics if called inside another atomic block (no nesting), or if
    /// `body` returns `Err` during irrevocable execution.
    pub fn atomic<R>(&mut self, mut body: impl FnMut(&mut Tx<'_>) -> TxResult<R>) -> R {
        if self.hle && self.eng.mode() != ExecMode::Sequential {
            return self.atomic_hle(body);
        }
        if self.eng.mode() == ExecMode::Sequential {
            self.eng.begin_sequential();
            let r =
                body(&mut Tx { eng: &mut self.eng }).expect("sequential execution cannot abort");
            self.eng.end_sequential();
            return r;
        }

        if self.replayer.is_some() {
            return self.replay_block(&mut body);
        }

        // Model-checker scheduling point: one pause per atomic block, before
        // any speculation starts (covers the degraded and adaptive paths too).
        htm_core::coop::point(htm_core::coop::CoopPoint::BlockStart);

        if self.fallback == FallbackPolicy::Adaptive && self.degraded_left == 0 {
            return self.atomic_adaptive(&mut body);
        }
        let is_bgq = self.eng.machine().config().platform == Platform::BlueGeneQ;
        let hw_commits = self.eng.stats.hw_commits;
        let r = if self.degraded_left > 0 {
            // Graceful degradation after a watchdog trip: skip speculation
            // entirely for a while instead of burning attempts a starved
            // thread has no hope of committing.
            self.degraded_left -= 1;
            self.irrevocable_block(&mut body, Vec::new(), true, false)
        } else {
            self.retry_hw(&mut body, is_bgq)
        };
        if is_bgq {
            // Blue Gene/Q's adaptation counts the blocks that did not commit
            // in hardware.
            self.bgq_adapt.record(self.eng.stats.hw_commits == hw_commits);
        }
        r
    }

    /// The Figure-1 retry loop: hardware attempts under the lock, persistent
    /// and transient retry counters (Blue Gene/Q: its single counter,
    /// throttled by the adaptation heuristic, with lazy subscription in
    /// long-running mode), then the configured fallback tier.
    fn retry_hw<R>(
        &mut self,
        body: &mut impl FnMut(&mut Tx<'_>) -> TxResult<R>,
        is_bgq: bool,
    ) -> R {
        let cfg = self.eng.machine().config();
        let lazy_subscription = is_bgq && cfg.bgq_mode == Some(BgqMode::LongRunning);
        let reports_persistence = cfg.reports_persistence;
        let mut lock_retries = self.policy.lock_retries;
        let mut persistent_retries = self.policy.persistent_retries;
        let mut transient_retries = self.policy.transient_retries;
        // Adaptation throttles rather than forbids retries: the real
        // mechanism recovers once transactions stop falling back, so it
        // must leave a path back to hardware execution.
        let mut bgq_retries = if self.bgq_adapt.suppress_retries() {
            1.min(self.policy.bgq_retries)
        } else {
            self.policy.bgq_retries
        };
        let mut attempt = 0u32;
        let mut rec = Vec::new();
        loop {
            // Figure 1 line 9: wait for the lock (lemming avoidance).
            if self.wait_for_lock() > 0 {
                // Jitter after a lock wait: all doomed waiters are released
                // at the same instant, and restarting them in lockstep
                // recreates the conflict that serialized them.
                let jitter = rand::Rng::gen_range(self.eng.sched_rng_mut(), 0..512u64);
                self.tick(jitter);
            }
            let snap = self.attempt_snapshot();
            let cause = match self.attempt(body, TxPath::Hw, lazy_subscription) {
                Outcome::Committed(r) => {
                    self.finish_block(rec, TxPath::Hw);
                    return r;
                }
                Outcome::Aborted(cause) => cause,
            };
            let (_, lock_related) = self.count_abort(&mut rec, snap, cause, TxPath::Hw, is_bgq);
            let retry = if is_bgq {
                consume(&mut bgq_retries)
            } else if lock_related {
                consume(&mut lock_retries)
            } else if reports_persistence && cause.is_capacity() {
                consume(&mut persistent_retries)
            } else {
                consume(&mut transient_retries)
            };
            if !retry {
                return self.run_fallback(body, rec);
            }
            // Randomized exponential backoff between retries (Blue Gene/Q's
            // system software and every practical retry handler do this);
            // the simulated delay also translates into real absence,
            // decorrelating the contenders.
            attempt += 1;
            if self.watchdog.starved(attempt) {
                return self.irrevocable_block(body, rec, true, true);
            }
            let ceiling = 32u64 << (attempt.min(7) + self.trip_shift);
            let pause = rand::Rng::gen_range(self.eng.sched_rng_mut(), 0..ceiling);
            self.tick(pause);
        }
    }

    /// Runs the fallback tier after the retry counters are exhausted,
    /// according to the configured [`FallbackPolicy`].
    fn run_fallback<R>(
        &mut self,
        body: &mut impl FnMut(&mut Tx<'_>) -> TxResult<R>,
        rec: Vec<AttemptRecord>,
    ) -> R {
        match self.effective_fallback() {
            FallbackPolicy::Lock => self.irrevocable_block(body, rec, false, false),
            FallbackPolicy::Rot => self.run_soft_block(body, rec, TxPath::Rot),
            // The adaptive path dispatches tiers itself and never reaches
            // this point; a direct caller gets the software tier, whose
            // bounded retries still end at the irrevocable path.
            FallbackPolicy::Stm | FallbackPolicy::Adaptive => {
                self.run_soft_block(body, rec, TxPath::Stm)
            }
        }
    }

    // ------------------------------------------------------------------
    // One attempt, one lock-held commit, one abort account, one record
    // ------------------------------------------------------------------

    /// One transactional attempt on `path`: begin, run the body, commit.
    ///
    /// Only a plain hardware attempt subscribes to the global lock (before
    /// the body, or after it under `lazy_subscription`). The software-
    /// validated paths (STM, ROT, spill) commit under the lock, so their
    /// own acquisition would doom a subscription; a constrained transaction
    /// has no fallback to subscribe to.
    fn attempt<R>(
        &mut self,
        body: &mut impl FnMut(&mut Tx<'_>) -> TxResult<R>,
        path: TxPath,
        lazy_subscription: bool,
    ) -> Outcome<R> {
        match path {
            TxPath::Hw => self.eng.begin_hw(false, false),
            TxPath::Constrained => self.eng.begin_hw(false, true),
            TxPath::Stm => self.eng.begin_soft(),
            TxPath::Rot => self.eng.begin_rot(),
            TxPath::Spill => self.eng.begin_spill(),
            TxPath::Irrevocable { .. } => unreachable!("irrevocable blocks make no attempts"),
        }
        let subscribes = path == TxPath::Hw;
        let lock_addr = self.lock.addr();
        let result = (|| -> TxResult<R> {
            if subscribes && !lazy_subscription {
                subscribe(&mut self.eng, lock_addr)?;
            }
            let r = body(&mut Tx { eng: &mut self.eng })?;
            if subscribes && lazy_subscription {
                subscribe(&mut self.eng, lock_addr)?;
            }
            Ok(r)
        })();
        match result {
            Ok(r) => {
                // Model-checker scheduling point: the body ran, the commit
                // (conflict check + write-back) has not started.
                htm_core::coop::point(htm_core::coop::CoopPoint::PreCommit);
                let committed = match path {
                    TxPath::Hw | TxPath::Constrained => self.eng.commit_hw(),
                    _ => self.commit_under_lock(path),
                };
                match committed {
                    Ok(()) => Outcome::Committed(r),
                    Err(cause) => Outcome::Aborted(cause),
                }
            }
            Err(abort) => {
                self.eng.rollback();
                Outcome::Aborted(abort.cause)
            }
        }
    }

    /// The commit critical section of the software-validated paths: acquire
    /// the global lock (the NOrec sequence lock; this dooms subscribed
    /// hardware transactions), wait out hardware commits already past their
    /// subscription check, then validate the software read log and write
    /// back. A ROT or spill commit leaves its own slot out of that wait: it
    /// *is* mid-commit. Read-only transactions take the lock too: their
    /// commit point must be ordered against every other commit for the
    /// serializability certifier.
    fn commit_under_lock(&mut self, path: TxPath) -> Result<(), AbortCause> {
        if self.acquire_lock() > 0 {
            self.eng.stats.fallback_lock_waits += 1;
        }
        let stm = path == TxPath::Stm;
        self.eng.quiesce_committers(!stm);
        let committed =
            if stm { self.eng.soft_commit_validated() } else { self.eng.validated_commit_hw() };
        self.release_lock(stm);
        committed
    }

    /// Acquires the global lock, counting the wait (and ordering this
    /// section after the previous holder's for the race sanitizer).
    /// Returns the simulated cycles waited.
    fn acquire_lock(&mut self) -> u64 {
        let cost = self.eng.machine().config().cost;
        let tag = self.thread_id() as u64 + 1;
        let waited = self.lock.acquire(self.eng.mem(), tag, self.eng.clock(), &cost);
        self.eng.stats.lock_wait_cycles += waited;
        if let Some(sync) = &self.lock_sync {
            self.eng.hb_acquire(sync);
        }
        waited
    }

    /// Releases the global lock. `convoy` first holds it for the fault
    /// plan's injected release delay (irrevocable and STM sections only).
    fn release_lock(&mut self, convoy: bool) {
        if convoy {
            self.eng.clock().tick(self.eng.fault_lock_release_delay());
        }
        if let Some(sync) = &self.lock_sync {
            self.eng.hb_release(sync);
        }
        let cost = self.eng.machine().config().cost;
        self.lock.release(self.eng.mem(), self.eng.clock(), &cost);
    }

    /// Spins until the global lock is observed free (lemming avoidance),
    /// counting the wait. Returns the simulated cycles waited.
    fn wait_for_lock(&mut self) -> u64 {
        let cost = self.eng.machine().config().cost;
        let waited = self.lock.wait_released(self.eng.mem(), self.eng.clock(), &cost);
        self.eng.stats.lock_wait_cycles += waited;
        waited
    }

    /// Accounts one aborted attempt on `path` and, when recording, appends
    /// it to `rec` with the workload-RNG draws, injected faults and
    /// allocations its body consumed since `snap`. Returns the abort's
    /// Figure-3 category and whether it is lock-related.
    ///
    /// A software-validation failure counts in
    /// [`ThreadStats::stm_validation_aborts`], outside the hardware
    /// categories. Every STM abort is one, whatever invalidated the read
    /// log; recording the uniform cause lets replay re-apply the same
    /// counter.
    fn count_abort(
        &mut self,
        rec: &mut Vec<AttemptRecord>,
        snap: Option<(u64, u64)>,
        cause: AbortCause,
        path: TxPath,
        is_bgq: bool,
    ) -> (AbortCategory, bool) {
        let cause = if path == TxPath::Stm { AbortCause::StmValidation } else { cause };
        let (category, lock_related) = if is_validation(cause) {
            self.eng.stats.stm_validation_aborts += 1;
            (AbortCategory::Other, false)
        } else {
            self.classify_and_record(cause, is_bgq)
        };
        if let Some((draws0, faults0)) = snap {
            rec.push(AttemptRecord {
                cause: cause.encode(),
                category: category.index() as u8,
                faults: (self.eng.stats.injected_faults - faults0) as u32,
                draws: self.eng.rng_draws() - draws0,
                allocs: self.eng.take_alloc_log(),
            });
        }
        (category, lock_related)
    }

    /// Classifies an abort into its Figure-3 category, records it, and
    /// returns the category plus whether the abort is lock-related (for the
    /// retry decision).
    fn classify_and_record(&mut self, cause: AbortCause, is_bgq: bool) -> (AbortCategory, bool) {
        let lock_held_now = self.lock.is_locked(self.eng.mem());
        let explicit_lock = cause == AbortCause::Explicit(LOCK_HELD_ABORT);
        let lock_related = explicit_lock || lock_held_now;
        let category = if is_bgq {
            AbortCategory::Unclassified
        } else if lock_related {
            AbortCategory::LockConflict
        } else if cause.is_capacity() {
            AbortCategory::Capacity
        } else if cause.is_conflict() {
            AbortCategory::DataConflict
        } else {
            AbortCategory::Other
        };
        self.eng.stats.record_abort(category);
        self.eng.record_conflict_blame(cause);
        (category, lock_related)
    }

    /// Records a finished block (record mode only): its aborted attempts
    /// and the path it committed on, stamped with its commit order.
    fn finish_block(&mut self, attempts: Vec<AttemptRecord>, path: TxPath) {
        if let Some(rec) = &mut self.recorder {
            rec.push(BlockRecord { attempts, path, order: self.eng.last_commit_seq() });
        }
    }

    /// Runs `body` irrevocably under the global lock and records the block.
    ///
    /// `trip` is a watchdog trip: it is counted, the thread's backoff
    /// escalates and the next blocks run degraded. `degraded` accounts the
    /// block's time and commit to the degradation counters.
    ///
    /// An `Err` from the body here is a program bug (irrevocable execution
    /// cannot abort), but it must not wedge the simulation: the lock is
    /// released *before* panicking, so sibling workers — and the executor's
    /// panic recovery — are never left spinning on a dead holder.
    fn irrevocable_block<R>(
        &mut self,
        body: &mut impl FnMut(&mut Tx<'_>) -> TxResult<R>,
        attempts: Vec<AttemptRecord>,
        degraded: bool,
        trip: bool,
    ) -> R {
        if trip {
            self.eng.stats.watchdog_trips += 1;
            self.trip_shift = (self.trip_shift + 1).min(self.watchdog.escalation_cap);
            self.degraded_left = self.watchdog.degraded_blocks;
        }
        let start = self.eng.clock().now();
        self.acquire_lock();
        self.eng.begin_irrevocable();
        let r = match body(&mut Tx { eng: &mut self.eng }) {
            Ok(r) => r,
            Err(abort) => {
                self.eng.abandon_irrevocable();
                self.release_lock(false);
                panic!("irrevocable execution cannot abort (body returned {abort})");
            }
        };
        self.eng.end_irrevocable();
        self.release_lock(true);
        if degraded {
            self.eng.stats.degraded_cycles += self.eng.clock().now() - start;
            self.eng.stats.degraded_commits += 1;
        }
        self.finish_block(attempts, TxPath::Irrevocable { degraded, trip });
        r
    }

    // ------------------------------------------------------------------
    // Record/replay plumbing
    // ------------------------------------------------------------------

    /// Snapshot taken before an attempt so an abort can be recorded with
    /// the workload-RNG draws and allocations its body consumed. `None`
    /// when not recording (the common case: zero overhead).
    fn attempt_snapshot(&mut self) -> Option<(u64, u64)> {
        if self.recorder.is_some() {
            // Drop allocation entries left over from the previous block's
            // committed attempt (committed bodies re-execute on replay).
            let _ = self.eng.take_alloc_log();
            Some((self.eng.rng_draws(), self.eng.stats.injected_faults))
        } else {
            None
        }
    }

    /// Replays one atomic block from the trace: re-applies the aborted
    /// attempts' bookkeeping (statistics, RNG draws, allocations) without
    /// re-executing their bodies, then executes the committing body once,
    /// serialized by the turnstile in recorded commit order.
    fn replay_block<R>(&mut self, body: &mut impl FnMut(&mut Tx<'_>) -> TxResult<R>) -> R {
        let rec = self
            .replayer
            .as_mut()
            .expect("replay_block without a replayer")
            .blocks
            .pop_front()
            .expect("replay diverged: the workload produced more atomic blocks than the trace");
        for a in &rec.attempts {
            if a.cause == AbortCause::StmValidation.encode()
                || a.cause == AbortCause::SpillValidation.encode()
            {
                // Software-validated attempts bypass the hardware abort
                // categories.
                self.eng.stats.stm_validation_aborts += 1;
            } else {
                self.eng.stats.record_abort(AbortCategory::ALL[a.category as usize]);
            }
            self.eng.stats.injected_faults += a.faults as u64;
            self.eng.skip_rng_draws(a.draws);
            for &words in &a.allocs {
                let _ = self.eng.alloc_mut().alloc(words);
            }
        }
        let turnstile = self.replayer.as_ref().expect("replayer present").turnstile.clone();
        turnstile.await_turn(rec.order);
        let r = match rec.path {
            TxPath::Irrevocable { degraded, trip } => {
                self.irrevocable_block(body, Vec::new(), degraded, trip)
            }
            path => self.replay_committed(body, path),
        };
        turnstile.advance();
        r
    }

    /// Executes a block recorded as a transactional commit on `path` by
    /// attempting it on that path until it commits. The turnstile
    /// serializes all replayed blocks, so the attempt cannot conflict with
    /// another transaction and commits on its recorded path; unexpected
    /// aborts (e.g. a racing non-transactional store from workload code
    /// outside any atomic block) are retried with the workload RNG restored
    /// so the body's draw stream stays identical.
    fn replay_committed<R>(
        &mut self,
        body: &mut impl FnMut(&mut Tx<'_>) -> TxResult<R>,
        path: TxPath,
    ) -> R {
        let mut tries = 0u32;
        loop {
            let saved_rng = self.eng.clone_workload_rng();
            match self.attempt(body, path, false) {
                Outcome::Committed(r) => return r,
                Outcome::Aborted(cause) => {
                    tries += 1;
                    assert!(
                        tries < 1024,
                        "replay diverged: a serialized attempt keeps aborting ({cause})"
                    );
                    self.eng.restore_workload_rng(saved_rng);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Hybrid-TM fallback tiers (htm-hytm)
    // ------------------------------------------------------------------

    /// The software-validated fallback tiers, `path` being
    /// [`TxPath::Stm`] or [`TxPath::Rot`]. Concurrent hardware
    /// transactions stay live the whole time: the lock acquisition at
    /// commit dooms the subscribed ones, exactly as an irrevocable section
    /// would, but only for the duration of validation plus write-back.
    ///
    /// - STM (NOrec-style): the body runs instrumented (buffered writes,
    ///   value-logged reads).
    /// - ROT (POWER8 rollback-only): stores go through the TMCAM (hardware
    ///   write buffering, writes-only capacity); loads are untracked and
    ///   value-logged, since rollback-only transactions detect no load
    ///   conflicts.
    ///
    /// A failed attempt costs one retry; after [`STM_COMMIT_RETRIES`] (STM)
    /// or [`ROT_RETRIES`] (ROT) of those the block degrades to the
    /// irrevocable path, so progress is never worse than the lock fallback.
    fn run_soft_block<R>(
        &mut self,
        body: &mut impl FnMut(&mut Tx<'_>) -> TxResult<R>,
        mut rec: Vec<AttemptRecord>,
        path: TxPath,
    ) -> R {
        let mut retries = if path == TxPath::Stm { STM_COMMIT_RETRIES } else { ROT_RETRIES };
        loop {
            self.wait_for_lock();
            let snap = self.attempt_snapshot();
            match self.attempt(body, path, false) {
                Outcome::Committed(r) => {
                    self.finish_block(rec, path);
                    return r;
                }
                Outcome::Aborted(cause) => {
                    self.count_abort(&mut rec, snap, cause, path, false);
                    if !consume(&mut retries) {
                        return self.irrevocable_block(body, rec, false, false);
                    }
                    let pause = rand::Rng::gen_range(self.eng.sched_rng_mut(), 0..256u64);
                    self.tick(pause);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Adaptive contention manager (htm-adapt)
    // ------------------------------------------------------------------

    /// Executes one atomic block under the adaptive contention manager: the
    /// controller picks the execution tier, the block runs on it (escalating
    /// within the block only toward stronger tiers), and the block's abort
    /// mix is fed back as observations at the block boundary.
    fn atomic_adaptive<R>(&mut self, body: &mut impl FnMut(&mut Tx<'_>) -> TxResult<R>) -> R {
        let tier = self.adapt.as_ref().map_or(Tier::Hw, |a| a.block_tier());
        let aborts0 = self.eng.stats.aborts;
        let validation0 = self.eng.stats.stm_validation_aborts;
        let stm0 = self.eng.stats.stm_commits;
        let irrevocable0 = self.eng.stats.irrevocable_commits;
        let r = match tier {
            Tier::Hw => self.run_adaptive_hw(body, TxPath::Hw),
            Tier::Spill => self.run_adaptive_hw(body, TxPath::Spill),
            Tier::Rot => self.run_soft_block(body, Vec::new(), TxPath::Rot),
            Tier::Stm => self.run_soft_block(body, Vec::new(), TxPath::Stm),
            Tier::Lock => self.irrevocable_block(body, Vec::new(), false, false),
        };
        if let Some(adapt) = &mut self.adapt {
            let aborts = self.eng.stats.aborts;
            for (i, cat) in AbortCategory::ALL.iter().enumerate() {
                for _ in aborts0[i]..aborts[i] {
                    adapt.observe_abort(AdaptSignal::from_category(*cat));
                }
            }
            // Software validation failures are conflicts by construction:
            // a concurrent committer invalidated the read log.
            for _ in validation0..self.eng.stats.stm_validation_aborts {
                adapt.observe_abort(AdaptSignal::Conflict);
            }
            // Did the block drain through its escape hatch? Hardware-class
            // tiers fall back when the block committed in STM or
            // irrevocably (a spilled commit from the Hw tier is still
            // partial-hardware, not a fallback); the STM tier falls back
            // only on irrevocability.
            let fell_back = match tier {
                Tier::Hw | Tier::Spill | Tier::Rot => {
                    self.eng.stats.stm_commits > stm0
                        || self.eng.stats.irrevocable_commits > irrevocable0
                }
                Tier::Stm => self.eng.stats.irrevocable_commits > irrevocable0,
                Tier::Lock => false,
            };
            adapt.block_done(fell_back);
            let switches = adapt.tier_switches();
            self.eng.stats.tier_switches += switches - self.adapt_switches_seen;
            self.adapt_switches_seen = switches;
        }
        r
    }

    /// The adaptive hardware tier: the Figure-1 retry loop under the
    /// contention manager's *capped* randomized backoff, starting on `path`
    /// ([`TxPath::Hw`], or [`TxPath::Spill`] for capacity-spill mode on
    /// POWER8). A capacity abort of a plain hardware attempt escalates to
    /// spill mode mid-block when the platform supports it, so a
    /// capacity-doomed block degrades to partial-hardware execution instead
    /// of burning its remaining retries on a footprint that can never fit.
    fn run_adaptive_hw<R>(
        &mut self,
        body: &mut impl FnMut(&mut Tx<'_>) -> TxResult<R>,
        mut path: TxPath,
    ) -> R {
        let cfg = self.eng.machine().config();
        let has_spill = cfg.has_suspend_resume;
        let reports_persistence = cfg.reports_persistence;
        let mut lock_retries = self.policy.lock_retries;
        let mut persistent_retries = self.policy.persistent_retries;
        let mut transient_retries = self.policy.transient_retries;
        let mut attempt = 0u32;
        let mut rec = Vec::new();
        loop {
            if self.wait_for_lock() > 0 {
                let jitter = rand::Rng::gen_range(self.eng.sched_rng_mut(), 0..512u64);
                self.tick(jitter);
            }
            let snap = self.attempt_snapshot();
            let cause = match self.attempt(body, path, false) {
                Outcome::Committed(r) => {
                    self.finish_block(rec, path);
                    return r;
                }
                Outcome::Aborted(cause) => cause,
            };
            let (category, lock_related) = self.count_abort(&mut rec, snap, cause, path, false);
            if path == TxPath::Hw && has_spill && cause.is_capacity() {
                path = TxPath::Spill;
            }
            let retry = if lock_related {
                consume(&mut lock_retries)
            } else if reports_persistence && cause.is_capacity() {
                consume(&mut persistent_retries)
            } else {
                consume(&mut transient_retries)
            };
            if !retry {
                // Within-block escalation always lands on a terminating
                // software tier.
                return self.run_soft_block(body, rec, TxPath::Stm);
            }
            // Backoff de-synchronizes *contending* threads; an injected
            // fault or a capacity overflow is not contention, and pausing
            // for it only burns cycles. This loop classifies aborts with
            // their causes on every platform, Blue Gene/Q included (whose
            // hardware reports none), so `Unclassified` never reaches this
            // test today; it would get the pause, since contention cannot
            // be ruled out.
            let contention = lock_related
                || matches!(category, AbortCategory::DataConflict | AbortCategory::Unclassified);
            attempt += 1;
            if self.watchdog.starved(attempt) {
                self.eng.stats.adapt_starvation_rescues += 1;
                if let Some(adapt) = &mut self.adapt {
                    adapt.starvation_rescue();
                }
                return self.irrevocable_block(body, rec, true, true);
            }
            if contention {
                let ceiling = AdaptiveController::backoff_ceiling(attempt, self.trip_shift);
                let pause = rand::Rng::gen_range(self.eng.sched_rng_mut(), 0..ceiling);
                self.eng.stats.backoff_cycles += pause;
                self.tick(pause);
            }
        }
    }

    /// Rolls back any in-flight transaction and force-releases the global
    /// lock if this thread holds it. Called by the executor after a worker
    /// panic so surviving workers cannot hang on state the dead thread left
    /// behind.
    pub(crate) fn panic_cleanup(&mut self) {
        self.eng.panic_cleanup();
        let cost = self.eng.machine().config().cost;
        let tag = self.thread_id() as u64 + 1;
        self.lock.force_release_if_held_by(self.eng.mem(), tag, self.eng.clock(), &cost);
    }

    // ------------------------------------------------------------------
    // Processor-specific interfaces (Section 6)
    // ------------------------------------------------------------------

    /// Intel hardware lock elision: one hardware attempt with the lock
    /// elided; on abort the lock is actually acquired — there is no
    /// software retry mechanism to tune (Section 6.2).
    ///
    /// # Panics
    ///
    /// Panics on platforms without HLE.
    pub fn atomic_hle<R>(&mut self, mut body: impl FnMut(&mut Tx<'_>) -> TxResult<R>) -> R {
        assert!(
            self.eng.machine().config().has_hle,
            "{} has no hardware lock elision",
            self.eng.machine().config().name
        );
        if self.eng.mode() == ExecMode::Sequential {
            return self.atomic(body);
        }
        if self.replayer.is_some() {
            return self.replay_block(&mut body);
        }
        if self.degraded_left > 0 {
            self.degraded_left -= 1;
            return self.irrevocable_block(&mut body, Vec::new(), true, false);
        }
        // Lock-busy aborts re-elide after the lock frees (as the standard
        // elision runtimes do); only a *data* abort re-executes with the
        // lock held. Without this, one fallback dooms every elided peer,
        // whose fallbacks doom the next wave — a permanent convoy.
        let mut attempts = 0u32;
        let mut rec = Vec::new();
        loop {
            self.wait_for_lock();
            let snap = self.attempt_snapshot();
            let cause = match self.attempt(&mut body, TxPath::Hw, false) {
                Outcome::Committed(r) => {
                    self.finish_block(rec, TxPath::Hw);
                    return r;
                }
                Outcome::Aborted(cause) => cause,
            };
            let (_, lock_related) = self.count_abort(&mut rec, snap, cause, TxPath::Hw, false);
            // Non-transactional conflicts come from a peer's irrevocable
            // section (the convoy), not from program data: re-elide those
            // too.
            if !lock_related && cause != AbortCause::ConflictNonTx {
                return self.irrevocable_block(&mut body, rec, false, false);
            }
            attempts += 1;
            if self.watchdog.starved(attempts) {
                // The re-elide loop has no retry counter of its own, so
                // under an injected abort storm the watchdog is its only
                // exit.
                return self.irrevocable_block(&mut body, rec, true, true);
            }
        }
    }

    /// zEC12 constrained transaction: guaranteed to eventually commit, no
    /// abort handler or fallback needed (Section 6.1). The body must respect
    /// the constrained limits (≤ 256 B footprint, ≤ 32 accesses) or the
    /// engine panics, mirroring the architecture's constraint checks.
    ///
    /// The hardware guarantee is modelled as bounded retries followed by
    /// acquisition of a hidden arbitration token that serialises the
    /// stragglers (standing in for the processor's internal fairness
    /// escalation).
    ///
    /// # Panics
    ///
    /// Panics on platforms without constrained transactions, or if the body
    /// violates the constrained limits.
    pub fn atomic_constrained<R>(&mut self, mut body: impl FnMut(&mut Tx<'_>) -> TxResult<R>) -> R {
        assert!(
            self.eng.machine().config().constrained.is_some(),
            "{} has no constrained transactions",
            self.eng.machine().config().name
        );
        if self.eng.mode() == ExecMode::Sequential {
            return self.atomic(body);
        }
        if self.replayer.is_some() {
            return self.replay_block(&mut body);
        }
        let mut attempts = 0u32;
        let mut rec = Vec::new();
        loop {
            let escalated = attempts >= 4;
            let _token = escalated.then(|| self.constrained_arbiter.clone());
            // A panicked peer may have poisoned the arbiter; the token is
            // just a serialization point, so the poison carries no meaning
            // and is safely discarded.
            let _guard = _token.as_ref().map(|t| t.lock().unwrap_or_else(|p| p.into_inner()));
            let snap = self.attempt_snapshot();
            let cause = match self.attempt(&mut body, TxPath::Constrained, false) {
                Outcome::Committed(r) => {
                    self.finish_block(rec, TxPath::Constrained);
                    return r;
                }
                Outcome::Aborted(cause) => cause,
            };
            self.count_abort(&mut rec, snap, cause, TxPath::Constrained, false);
            attempts += 1;
            if self.watchdog.starved(attempts) && attempts == self.watchdog.starvation_bound {
                // Constrained transactions have no fallback to degrade to
                // (the architecture forbids one); record the starvation so
                // diagnostics can see it even though the loop must keep
                // going.
                self.eng.stats.watchdog_trips += 1;
            }
            // Hardware-style exponential backoff.
            let cost = self.eng.machine().config().cost;
            self.eng.clock().tick(cost.spin_poll << attempts.min(5));
        }
    }

    /// POWER8 rollback-only transaction: store buffering without load
    /// conflict detection (Section 2.4). Returns `None` if the speculation
    /// aborted (the caller re-executes non-speculatively).
    ///
    /// # Panics
    ///
    /// Panics on platforms without rollback-only transactions.
    pub fn try_rollback_only<R>(
        &mut self,
        mut body: impl FnMut(&mut Tx<'_>) -> TxResult<R>,
    ) -> Option<R> {
        if self.eng.mode() == ExecMode::Sequential {
            return Some(self.atomic(body));
        }
        assert!(
            !self.eng.is_record_or_replay(),
            "record/replay does not support rollback-only transactions \
             (their untracked loads cannot be certified or re-ordered)"
        );
        self.eng.begin_hw(true, false);
        match body(&mut Tx { eng: &mut self.eng }) {
            Ok(r) => match self.eng.commit_hw() {
                Ok(()) => Some(r),
                Err(cause) => {
                    self.classify_and_record(cause, false);
                    None
                }
            },
            Err(abort) => {
                self.eng.rollback_hw();
                self.classify_and_record(abort.cause, false);
                None
            }
        }
    }

    /// Runs `body` as a *single* hardware attempt with explicit outcome,
    /// without lock subscription or fallback. Building block for ordered
    /// TLS (Section 6.3), where the caller manages retries.
    ///
    /// # Errors
    ///
    /// Returns the abort that ended the attempt.
    pub fn try_hardware<R>(
        &mut self,
        mut body: impl FnMut(&mut Tx<'_>) -> TxResult<R>,
    ) -> Result<R, Abort> {
        if self.eng.mode() == ExecMode::Sequential {
            return Ok(self.atomic(body));
        }
        assert!(
            !self.eng.is_record_or_replay(),
            "record/replay does not support bare hardware attempts \
             (caller-managed retries are not captured in the trace)"
        );
        self.eng.begin_hw(false, false);
        match body(&mut Tx { eng: &mut self.eng }) {
            Ok(r) => match self.eng.commit_hw() {
                Ok(()) => Ok(r),
                Err(cause) => {
                    self.classify_and_record(cause, false);
                    Err(Abort::new(cause))
                }
            },
            Err(abort) => {
                self.eng.rollback_hw();
                self.classify_and_record(abort.cause, false);
                Err(abort)
            }
        }
    }
}

/// Subscribes the running transaction to the global lock word: reads it
/// transactionally and explicitly aborts if it is held (Figure 1 lines
/// 26–27).
fn subscribe(eng: &mut TxnEngine, lock_addr: WordAddr) -> TxResult<()> {
    let v = Tx { eng: &mut *eng }.load(lock_addr)?;
    if v != 0 {
        return eng.user_abort(LOCK_HELD_ABORT);
    }
    Ok(())
}

/// Whether `cause` is a software-validation failure (STM, ROT or spill
/// read log), counted outside the Figure-3 hardware categories.
fn is_validation(cause: AbortCause) -> bool {
    matches!(cause, AbortCause::StmValidation | AbortCause::SpillValidation)
}

/// Builds the adaptive controller for [`FallbackPolicy::Adaptive`] (`None`
/// for every other policy). The tier ladder is shaped by the platform:
/// rollback-only transactions gate the ROT rung and suspend/resume gates
/// capacity spilling.
fn make_adapt(eng: &TxnEngine, fallback: FallbackPolicy) -> Option<AdaptiveController> {
    (fallback == FallbackPolicy::Adaptive).then(|| {
        let cfg = eng.machine().config();
        AdaptiveController::new(cfg.has_rollback_only, cfg.has_suspend_resume)
    })
}

fn consume(counter: &mut u32) -> bool {
    if *counter > 0 {
        *counter -= 1;
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bgq_adapt_suppresses_after_heavy_fallback() {
        let mut a = BgqAdapt::default();
        assert!(!a.suppress_retries(), "cold start allows retries");
        for _ in 0..8 {
            a.record(true);
        }
        assert!(a.suppress_retries());
        for _ in 0..32 {
            a.record(false);
        }
        assert!(!a.suppress_retries(), "recovers after successes");
    }

    #[test]
    fn retry_policy_uniform() {
        let p = RetryPolicy::uniform(3);
        assert_eq!(p.lock_retries, 3);
        assert_eq!(p.persistent_retries, 3);
        assert_eq!(p.transient_retries, 3);
        assert_eq!(p.bgq_retries, 3);
    }

    #[test]
    fn watchdog_defaults_never_trip_default_policies() {
        let w = WatchdogConfig::default();
        let p = RetryPolicy::default();
        // The most attempts a default-policy block can make before the
        // fallback: one per retry across all three counters.
        let max_attempts = p.lock_retries + p.persistent_retries + p.transient_retries;
        assert!(!w.starved(max_attempts), "default watchdog must not alter default runs");
        assert!(w.starved(w.starvation_bound));
        assert!(!WatchdogConfig::disabled().starved(u32::MAX));
    }

    #[test]
    fn consume_counts_down() {
        let mut c = 2;
        assert!(consume(&mut c));
        assert!(consume(&mut c));
        assert!(!consume(&mut c));
        assert!(!consume(&mut c));
    }
}

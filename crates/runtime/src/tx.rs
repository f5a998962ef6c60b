//! The transaction engine: per-thread machinery executing transactional
//! loads and stores against the simulated memory under a platform model.
//!
//! A [`TxnEngine`] belongs to one worker thread. Benchmark code never sees
//! it directly; it receives a [`Tx`] handle inside an atomic block (see
//! `crate::ctx::ThreadCtx::atomic`) and performs all simulated-memory
//! accesses through it. The engine:
//!
//! * routes accesses according to the execution [`ExecMode`] (hardware
//!   transaction, irrevocable global-lock mode, or sequential baseline),
//! * maintains the read/write line sets and the private write buffer,
//! * consults the platform's capacity [`Tracker`], prefetcher and
//!   speculation-ID pool,
//! * charges simulated cycles per the platform
//!   [`CostModel`](htm_core::CostModel),
//! * implements POWER8 suspend/resume and rollback-only transactions and
//!   zEC12 constrained-transaction limit checking.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use htm_core::{
    Abort, AbortCause, AbortedAttempt, Clock, ConflictPolicy, EventKind, FastMap, FastSet, LineId,
    Segment, SlotId, SyncClock, ThreadAlloc, TxEvent, TxMemory, TxResult, WordAddr,
};
use htm_hytm::{cost as hytm_cost, SoftLog, REVALIDATE_PERIOD, STM_MAX_ACCESSES};
use htm_machine::{Machine, Prefetcher, Tracker};

use crate::certify::CertCapture;
use crate::faults::FaultState;
use crate::line_set::LineSet;
use crate::sanitize::HbCapture;
use crate::stats::ThreadStats;
use crate::trace::SeqTracer;

/// How atomic blocks execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Best-effort hardware transactions with the Figure-1 retry mechanism.
    Hardware,
    /// Sequential baseline: direct access, no transactional overhead
    /// (the denominator of every speed-up ratio in the paper).
    Sequential,
}

/// Internal state of the current atomic block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BlockState {
    /// Not inside an atomic block.
    Idle,
    /// Inside a hardware transaction.
    HardwareTx,
    /// Inside a software (NOrec-style STM fallback) transaction.
    SoftwareTx,
    /// Inside an irrevocable global-lock section.
    Irrevocable,
    /// Inside a sequential-mode block.
    Sequential,
}

/// Limits enforced on a constrained transaction (zEC12).
#[derive(Clone, Debug)]
struct ConstrainedState {
    accesses_left: u32,
    max_bytes: u32,
    /// Distinct words touched (the architecture bounds accessed *bytes*,
    /// not conflict-detection lines).
    words: FastSet<WordAddr>,
}

/// Per-thread transaction engine.
pub struct TxnEngine {
    mem: Arc<TxMemory>,
    machine: Arc<Machine>,
    slot: SlotId,
    core: u32,
    thread_id: u32,
    num_threads: u32,
    mode: ExecMode,
    state: BlockState,
    policy: ConflictPolicy,
    clock: Clock,
    rng: SmallRng,
    alloc: ThreadAlloc,
    tracker: Tracker,
    prefetcher: Prefetcher,
    read_lines: LineSet,
    write_lines: LineSet,
    write_buf: FastMap<WordAddr, u64>,
    aborted: Option<AbortCause>,
    suspend_depth: u32,
    rollback_only: bool,
    constrained: Option<ConstrainedState>,
    holds_spec_id: bool,
    pending_frees: Vec<(WordAddr, u32)>,
    /// Fault-injection state; `None` under the empty plan (the default), in
    /// which case no injection code beyond this `Option` check runs.
    faults: Option<FaultState>,
    /// Yield the OS thread every ~[`TxnEngine::YIELD_INTERVAL`] simulated
    /// cycles.
    pace: bool,
    next_yield_at: std::cell::Cell<u64>,
    yield_rng: std::cell::Cell<u64>,
    /// Per-thread execution slowdown from SMT co-residency (lazily sampled
    /// once all workers have registered on their cores).
    smt_slowdown: std::cell::Cell<Option<f64>>,
    charge_frac: std::cell::Cell<f64>,
    trace_footprints: bool,
    /// Decorrelated scheduling RNG: retry backoff, jitter and the zEC12
    /// restriction draw come from here so the *workload* RNG stream depends
    /// only on body executions (a prerequisite for record/replay).
    sched_rng: SmallRng,
    /// Shared commit clock; set when certification or recording is on.
    /// Starts at 1 — seq 0 is reserved for the initial memory image.
    commit_clock: Option<Arc<AtomicU64>>,
    /// Seq of this engine's most recent committed block (0 = none yet).
    last_commit_seq: u64,
    /// Certifier capture state (RefCell: non-transactional stores are
    /// captured from `&self` contexts).
    cert: Option<RefCell<CertCapture>>,
    /// Race-sanitizer capture state (RefCell: non-transactional accesses
    /// are captured from `&self` contexts, like `cert`).
    hb: Option<RefCell<HbCapture>>,
    /// `Tx::alloc` sizes issued since the last snapshot (record mode only).
    alloc_log: Vec<u32>,
    log_allocs: bool,
    /// Replay mode: probabilistic scheduling decisions (zEC12 restriction
    /// draws) are disabled — the trace already contains their outcomes.
    replay_mode: bool,
    /// Value-based read log of the current software (STM) or software-
    /// validated rollback-only transaction.
    soft_log: SoftLog,
    /// Instrumented reads this software attempt (periodic-revalidation and
    /// log-fuel counter).
    soft_reads: u32,
    /// Epoch value the current soft read log is known consistent with.
    soft_epoch_seen: u64,
    /// Whether the current hardware transaction is a hytm ROT-tier one:
    /// its untracked loads are value-logged and revalidated in software
    /// under the sequence lock, so its commit certifies with the full read
    /// check.
    rot_soft: bool,
    /// Whether the current hardware transaction runs capacity-stretched
    /// (POWER8 spill tier): first accesses that overflow the TMCAM spill
    /// into the software side log instead of aborting, and the commit
    /// revalidates the spilled entries under the sequence lock.
    spill_mode: bool,
    /// Lines whose tracking overflowed and was spilled to software this
    /// attempt (their reads are value-logged, their stores buffered in
    /// [`TxnEngine::spill_writes`]).
    spilled_lines: LineSet,
    /// Buffered stores to spilled (untracked) lines; published with
    /// dooming non-transactional stores inside the commit's epoch window.
    spill_writes: FastMap<WordAddr, u64>,
    /// Shared hybrid-TM write epoch (a seqlock: odd while any committer is
    /// writing back in place). Installed only when the run's fallback
    /// policy is a software tier; `None` keeps the pure-HTM paths
    /// untouched.
    hybrid_epoch: Option<Arc<AtomicU64>>,
    pub(crate) stats: ThreadStats,
    pub(crate) tracer: Option<SeqTracer>,
}

impl std::fmt::Debug for TxnEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnEngine")
            .field("thread_id", &self.thread_id)
            .field("mode", &self.mode)
            .field("state", &self.state)
            .finish()
    }
}

impl TxnEngine {
    /// Creates an engine for worker `thread_id` of `num_threads`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        mem: Arc<TxMemory>,
        machine: Arc<Machine>,
        alloc: ThreadAlloc,
        thread_id: u32,
        num_threads: u32,
        mode: ExecMode,
        policy: ConflictPolicy,
        seed: u64,
        trace_footprints: bool,
        pace: bool,
        faults: Option<FaultState>,
    ) -> TxnEngine {
        assert!((thread_id as usize) < htm_core::MAX_SLOTS, "too many worker threads");
        let core = machine.config().core_of(thread_id);
        let tracker = machine.new_tracker();
        let prefetcher = machine.new_prefetcher();
        let lines = mem.len_lines();
        TxnEngine {
            mem,
            machine,
            slot: SlotId(thread_id as u8),
            core,
            thread_id,
            num_threads,
            mode,
            state: BlockState::Idle,
            policy,
            clock: Clock::new(),
            rng: SmallRng::seed_from_u64(
                seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(thread_id as u64 + 1)),
            ),
            alloc,
            tracker,
            prefetcher,
            read_lines: LineSet::new(lines),
            write_lines: LineSet::new(lines),
            write_buf: FastMap::default(),
            aborted: None,
            suspend_depth: 0,
            rollback_only: false,
            constrained: None,
            holds_spec_id: false,
            pending_frees: Vec::new(),
            faults,
            pace,
            next_yield_at: std::cell::Cell::new(0),
            yield_rng: std::cell::Cell::new(seed | 1),
            smt_slowdown: std::cell::Cell::new(None),
            charge_frac: std::cell::Cell::new(0.0),
            trace_footprints,
            sched_rng: SmallRng::seed_from_u64(
                seed ^ (0xA5A5_5A5A_C3C3_3C3Du64.wrapping_mul(thread_id as u64 + 1)),
            ),
            commit_clock: None,
            last_commit_seq: 0,
            cert: None,
            hb: None,
            alloc_log: Vec::new(),
            log_allocs: false,
            replay_mode: false,
            soft_log: SoftLog::new(),
            soft_reads: 0,
            soft_epoch_seen: 0,
            rot_soft: false,
            spill_mode: false,
            spilled_lines: LineSet::new(lines),
            spill_writes: FastMap::default(),
            hybrid_epoch: None,
            stats: ThreadStats::default(),
            tracer: None,
        }
    }

    /// The worker's simulated clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The platform model this engine runs under.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// The simulated memory.
    pub fn mem(&self) -> &Arc<TxMemory> {
        &self.mem
    }

    pub(crate) fn mode(&self) -> ExecMode {
        self.mode
    }

    pub(crate) fn thread_id(&self) -> u32 {
        self.thread_id
    }

    pub(crate) fn num_threads(&self) -> u32 {
        self.num_threads
    }

    pub(crate) fn rng_mut(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    pub(crate) fn sched_rng_mut(&mut self) -> &mut SmallRng {
        &mut self.sched_rng
    }

    pub(crate) fn alloc_mut(&mut self) -> &mut ThreadAlloc {
        &mut self.alloc
    }

    // ------------------------------------------------------------------
    // Certification and record/replay plumbing
    // ------------------------------------------------------------------

    pub(crate) fn set_commit_clock(&mut self, clock: Arc<AtomicU64>) {
        self.commit_clock = Some(clock);
    }

    /// Installs the shared hybrid-TM write epoch (software fallback tiers
    /// only).
    pub(crate) fn set_hybrid_epoch(&mut self, epoch: Arc<AtomicU64>) {
        self.hybrid_epoch = Some(epoch);
    }

    /// Waits out hardware commits already past their subscription check
    /// (see [`TxMemory::quiesce_committers`]). `exclude_self` skips this
    /// engine's own slot — a rollback-only commit holds the lock while its
    /// own slot is mid-commit.
    pub(crate) fn quiesce_committers(&self, exclude_self: bool) {
        self.mem.quiesce_committers(exclude_self.then_some(self.slot));
    }

    pub(crate) fn enable_certify(&mut self) {
        self.cert = Some(RefCell::new(CertCapture::new(self.thread_id)));
    }

    /// Takes the certifier capture, returning its events, its aborted
    /// attempts (for the opacity check), and whether any bound was hit.
    pub(crate) fn take_cert(&mut self) -> Option<(Vec<TxEvent>, Vec<AbortedAttempt>, bool)> {
        self.cert.take().map(|c| c.into_inner().take())
    }

    pub(crate) fn enable_sanitize(&mut self) {
        self.hb = Some(RefCell::new(HbCapture::new(self.thread_id)));
    }

    /// Takes the sanitizer capture, returning its segments and whether any
    /// bound was hit.
    pub(crate) fn take_hb(&mut self) -> Option<(Vec<Segment>, bool)> {
        self.hb.take().map(|h| h.into_inner().take())
    }

    /// Captures a non-transactional access from a `&self` context (plain
    /// `read_word`/`write_word`/`cas_word` on the thread context).
    pub(crate) fn hb_nontx_access(&self, addr: WordAddr, write: bool) {
        if let Some(hb) = &self.hb {
            let mut h = hb.borrow_mut();
            if write {
                h.nontx_write(addr);
            } else {
                h.nontx_read(addr);
            }
        }
    }

    /// Release edge on `sync` (no-op when the sanitizer is off).
    pub(crate) fn hb_release(&self, sync: &SyncClock) {
        if let Some(hb) = &self.hb {
            hb.borrow_mut().release(sync);
        }
    }

    /// Acquire edge on `sync` (no-op when the sanitizer is off).
    pub(crate) fn hb_acquire(&self, sync: &SyncClock) {
        if let Some(hb) = &self.hb {
            hb.borrow_mut().acquire(sync);
        }
    }

    /// Records who aborted this thread (and on which line) into the
    /// conflict log, from the blame word the aggressor left on our slot.
    /// No-op unless the sanitizer is on and the abort was a conflict.
    pub(crate) fn record_conflict_blame(&mut self, cause: AbortCause) {
        if self.hb.is_none() || !cause.is_conflict() {
            return;
        }
        if let Some((aggressor, line)) = self.mem.blame_of(self.slot) {
            self.stats.conflicts.push(htm_core::ConflictEvent {
                victim: self.thread_id,
                aggressor: aggressor.map(|s| s.0 as u32),
                line,
                cause,
            });
        }
    }

    pub(crate) fn set_log_allocs(&mut self, on: bool) {
        self.log_allocs = on;
    }

    pub(crate) fn take_alloc_log(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.alloc_log)
    }

    pub(crate) fn set_replay_mode(&mut self, on: bool) {
        self.replay_mode = on;
    }

    pub(crate) fn is_record_or_replay(&self) -> bool {
        self.log_allocs || self.replay_mode
    }

    pub(crate) fn rng_draws(&self) -> u64 {
        self.rng.draws()
    }

    pub(crate) fn skip_rng_draws(&mut self, n: u64) {
        self.rng.skip(n);
    }

    pub(crate) fn clone_workload_rng(&self) -> SmallRng {
        self.rng.clone()
    }

    pub(crate) fn restore_workload_rng(&mut self, rng: SmallRng) {
        self.rng = rng;
    }

    pub(crate) fn last_commit_seq(&self) -> u64 {
        self.last_commit_seq
    }

    /// Draws the next commit timestamp (0 when no clock is installed).
    fn draw_commit_seq(&self) -> u64 {
        self.commit_clock.as_ref().map_or(0, |c| c.fetch_add(1, Ordering::SeqCst))
    }

    /// Captures a non-transactional store as a single-write event. The seq
    /// is drawn right after the store executed: the store's invalidation
    /// dooms every in-flight reader of the line (and spins out committing
    /// ones), so all committed old-value readers already hold smaller seqs.
    pub(crate) fn cert_nontx_write(&self, addr: WordAddr, value: u64) {
        if let Some(cert) = &self.cert {
            let seq = self.draw_commit_seq();
            cert.borrow_mut().nontx_write(seq, addr, value);
        }
    }

    // ------------------------------------------------------------------
    // Block lifecycle (driven by the retry mechanism in ctx.rs)
    // ------------------------------------------------------------------

    /// Begins a hardware transaction (`tbegin`).
    ///
    /// `rollback_only` selects a POWER8 rollback-only transaction (store
    /// buffering without load conflict detection); `constrained` applies
    /// zEC12 constrained-transaction limits.
    pub(crate) fn begin_hw(&mut self, rollback_only: bool, constrained: bool) {
        assert_eq!(self.state, BlockState::Idle, "nested atomic blocks are not supported");
        let cfg = self.machine.config();
        if rollback_only {
            assert!(cfg.has_rollback_only, "{} has no rollback-only transactions", cfg.name);
        }
        self.aborted = None;
        self.suspend_depth = 0;
        self.rollback_only = rollback_only;
        self.constrained = constrained.then(|| {
            let lim = cfg
                .constrained
                .unwrap_or_else(|| panic!("{} has no constrained transactions", cfg.name));
            ConstrainedState {
                accesses_left: lim.max_accesses,
                max_bytes: lim.max_bytes,
                words: FastSet::default(),
            }
        });
        if let Some(pool) = self.machine.spec_ids() {
            let waited = pool.acquire();
            self.clock.tick(waited);
            self.stats.spec_id_wait_cycles += waited;
            self.holds_spec_id = true;
        }
        let share = self.machine.cores().enter_tx(self.core);
        self.tracker.begin(share);
        self.prefetcher.begin_tx();
        self.read_lines.clear();
        self.write_lines.clear();
        self.write_buf.clear();
        self.pending_frees.clear();
        self.mem.begin_slot(self.slot);
        self.charge(cfg.cost.tbegin);
        self.state = BlockState::HardwareTx;
        if let Some(c) = &mut self.cert {
            c.get_mut().begin_block();
        }
        // Fault injection (constrained transactions are exempt: the
        // architecture guarantees their completion). A begin fault
        // pre-dooms the transaction; it surfaces at the first access or at
        // the commit point, like a hardware abort delivered asynchronously.
        if self.constrained.is_none() && self.faults.is_some() {
            if self.faults.as_mut().is_some_and(|f| f.stall_spec_id()) {
                if let Some(pool) = self.machine.spec_ids() {
                    let waited = pool.forced_stall();
                    self.clock.tick(waited);
                    self.stats.spec_id_wait_cycles += waited;
                }
            }
            if let Some(cause) = self.faults.as_mut().and_then(|f| f.on_begin()) {
                self.stats.injected_faults += 1;
                self.aborted = Some(cause);
            }
        }
    }

    /// Attempts to commit the current hardware transaction (`tend`).
    ///
    /// # Errors
    ///
    /// Returns the doom cause if the transaction was aborted before the
    /// commit point; the engine has already rolled back.
    pub(crate) fn commit_hw(&mut self) -> Result<(), AbortCause> {
        assert_eq!(self.state, BlockState::HardwareTx, "commit outside hardware tx");
        assert_eq!(self.suspend_depth, 0, "commit while suspended");
        self.charge(self.machine.config().cost.tend);
        // The commit sequence takes real time during which the transaction
        // is still abortable: let a quantum boundary land here (this is
        // most of the post-access window for small transactions).
        self.maybe_yield();
        if let Some(cause) = self.aborted {
            self.rollback_hw();
            return Err(cause);
        }
        // Doomed-at-commit fault: the transaction survived its whole body
        // and dies at the commit point (the costliest abort timing).
        if self.constrained.is_none() {
            if let Some(cause) = self.faults.as_mut().and_then(|f| f.on_commit()) {
                self.stats.injected_faults += 1;
                self.rollback_hw();
                return Err(cause);
            }
        }
        if htm_core::coop::enabled() {
            // The commit sequence re-touches the transaction's whole tracked
            // footprint: start_commit checks the doom state the protocol
            // keeps per line, so a schedule explorer must see this step
            // conflict with any concurrent access to those lines.
            for line in self.read_lines.iter() {
                htm_core::coop::access(line.0 as u64, false);
            }
            for line in self.write_lines.iter() {
                htm_core::coop::access(line.0 as u64, true);
            }
            for &addr in self.spill_writes.keys() {
                htm_core::coop::access(self.mem.line_of(addr).0 as u64, true);
            }
        }
        match self.mem.start_commit(self.slot) {
            Ok(()) => {
                // Linearization point: the slot is COMMITTING and still
                // holds its lines; every non-transactional or irrevocable
                // access to them spins until the flush below completes, so
                // no observer can serialize between this draw and the flush.
                let seq = self.draw_commit_seq();
                if seq != 0 {
                    self.last_commit_seq = seq;
                }
                let spilled = self.has_spilled();
                if let Some(c) = &mut self.cert {
                    if spilled {
                        // Capacity-spilled commit: the spilled reads are
                        // software-validated, so the full read check
                        // applies, and the spilled stores join the write
                        // set the certifier replays.
                        let mut writes = self.write_buf.clone();
                        writes.extend(self.spill_writes.iter().map(|(&a, &v)| (a, v)));
                        c.get_mut().commit_soft(seq, &writes);
                    } else if self.rot_soft {
                        // Software-validated ROT: full read check applies.
                        c.get_mut().commit_soft(seq, &self.write_buf);
                    } else {
                        c.get_mut().commit_hw(seq, self.rollback_only, &self.write_buf);
                    }
                }
                if let Some(h) = &mut self.hb {
                    h.get_mut().commit_tx();
                }
                // Seeded bug #2 (model-checker regression corpus): the epoch
                // protocol guards *every* in-place write-back — skipping the
                // bumps here lets a software snapshot read this flush
                // mid-flight, a torn, non-opaque observation.
                let skip_epoch_bump = self.mem.test_skip_epoch_bump();
                if !skip_epoch_bump {
                    self.epoch_bump(); // odd: write-back in place (hybrid only)
                }
                if htm_core::coop::enabled() {
                    // Model-checked run: flush in address order (hash-table
                    // order depends on the table's insertion history, not
                    // on anything a counterexample schedule records) and
                    // pause before each store so torn write-backs are
                    // explorable interleavings.
                    let mut stores: Vec<(WordAddr, u64)> =
                        self.write_buf.iter().map(|(&a, &v)| (a, v)).collect();
                    stores.sort_unstable_by_key(|&(a, _)| a);
                    for (addr, value) in stores {
                        htm_core::coop::point(htm_core::coop::CoopPoint::WriteBack);
                        self.mem.write_word(addr, value);
                    }
                    let mut spills: Vec<(WordAddr, u64)> =
                        self.spill_writes.iter().map(|(&a, &v)| (a, v)).collect();
                    spills.sort_unstable_by_key(|&(a, _)| a);
                    for (addr, value) in spills {
                        htm_core::coop::point(htm_core::coop::CoopPoint::WriteBack);
                        self.mem.nontx_store(Some(self.slot), addr, value);
                    }
                } else {
                    for (&addr, &value) in &self.write_buf {
                        self.mem.write_word(addr, value);
                    }
                    // Spilled stores target lines this slot does not own, so
                    // they publish as dooming non-transactional stores (any
                    // hardware reader of a spilled line aborts), inside the
                    // same epoch window as the owned write-back.
                    for (&addr, &value) in &self.spill_writes {
                        self.mem.nontx_store(Some(self.slot), addr, value);
                    }
                }
                if !skip_epoch_bump {
                    self.epoch_bump(); // even: write-back published
                }
                let was_rot_soft = self.rot_soft;
                let was_spill = self.spill_mode;
                self.release_lines();
                self.mem.finish_slot(self.slot);
                // Deferred frees (STAMP's TM_FREE semantics): blocks become
                // reusable only once the freeing transaction commits.
                for (addr, words) in std::mem::take(&mut self.pending_frees) {
                    self.alloc.free(addr, words);
                }
                self.end_tx_bookkeeping();
                if was_spill {
                    self.stats.spill_commits += 1;
                } else if was_rot_soft {
                    self.stats.rot_commits += 1;
                } else {
                    self.stats.hw_commits += 1;
                }
                if self.trace_footprints {
                    self.stats.footprints.push((
                        self.tracker.load_lines() as u32,
                        self.tracker.store_lines() as u32,
                    ));
                }
                Ok(())
            }
            Err(cause) => {
                self.rollback_hw();
                Err(cause)
            }
        }
    }

    // ------------------------------------------------------------------
    // Hybrid-TM software tiers (STM fallback and validated ROT)
    // ------------------------------------------------------------------

    /// Advances the hybrid write epoch by one (odd = a write-back is in
    /// place). No-op when no software tier is active this run.
    #[inline]
    fn epoch_bump(&self) {
        if let Some(e) = &self.hybrid_epoch {
            htm_core::coop::access(htm_core::coop::EPOCH_LINE, true);
            e.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Waits until no in-place write-back is in progress and returns the
    /// (even) epoch value. Returns 0 when no epoch is installed.
    fn wait_epoch_even(&self) -> u64 {
        let Some(e) = &self.hybrid_epoch else {
            return 0;
        };
        let mut wait = htm_core::coop::Wait::new(1);
        loop {
            htm_core::coop::access(htm_core::coop::EPOCH_LINE, false);
            let v = e.load(Ordering::SeqCst);
            if v & 1 == 0 {
                return v;
            }
            wait.round();
        }
    }

    /// Reads one word consistently against the hybrid epoch: the value is
    /// only returned together with an even epoch that did not move across
    /// the read, so it cannot be a torn observation of an in-flight
    /// write-back.
    fn soft_consistent_read(&self, addr: WordAddr) -> (u64, u64) {
        let Some(e) = &self.hybrid_epoch else {
            return (self.mem.read_word(addr), 0);
        };
        let mut wait = htm_core::coop::Wait::new(1);
        loop {
            htm_core::coop::access(htm_core::coop::EPOCH_LINE, false);
            let e0 = e.load(Ordering::SeqCst);
            if e0 & 1 == 1 {
                wait.round();
                continue;
            }
            let v = self.mem.read_word(addr);
            if e.load(Ordering::SeqCst) == e0 {
                return (v, e0);
            }
        }
    }

    /// Revalidates the whole soft read log against current memory and,
    /// on success, adopts the epoch the validation was consistent with.
    ///
    /// # Errors
    ///
    /// Fails the transaction with [`AbortCause::StmValidation`] if any
    /// logged value changed (the snapshot is no longer atomic).
    fn soft_revalidate(&mut self) -> TxResult<()> {
        self.charge(hytm_cost::STM_VALIDATE_PER_WORD * self.soft_log.len() as u64);
        loop {
            let e0 = self.wait_epoch_even();
            let mismatch = self.soft_log.validate(|a| self.mem.read_word(a)).is_some();
            if let Some(e) = &self.hybrid_epoch {
                if e.load(Ordering::SeqCst) != e0 {
                    continue; // a write-back moved under us: re-run
                }
            }
            if mismatch {
                return self.fail(AbortCause::StmValidation);
            }
            self.soft_epoch_seen = e0;
            return Ok(());
        }
    }

    /// Reads `addr` on the software snapshot: consistent against the
    /// epoch, extending the snapshot (by revalidating the whole log) when
    /// a committer published since it was taken.
    fn soft_snapshot_read(&mut self, addr: WordAddr) -> TxResult<u64> {
        loop {
            let (raw, e0) = self.soft_consistent_read(addr);
            if e0 == self.soft_epoch_seen {
                return Ok(raw);
            }
            self.soft_revalidate()?;
        }
    }

    /// Begins a software (NOrec-style STM) transaction.
    pub(crate) fn begin_soft(&mut self) {
        assert_eq!(self.state, BlockState::Idle, "nested atomic blocks are not supported");
        self.aborted = None;
        self.write_buf.clear();
        self.pending_frees.clear();
        self.soft_log.clear();
        self.soft_reads = 0;
        self.charge(hytm_cost::STM_BEGIN);
        self.soft_epoch_seen = self.wait_epoch_even();
        self.state = BlockState::SoftwareTx;
        if let Some(c) = &mut self.cert {
            c.get_mut().begin_block();
        }
        // Fault injection: a begin fault aborts the software attempt. The
        // hardware cause is irrelevant to a software transaction, so every
        // injected failure surfaces as a validation abort.
        if self.faults.is_some() {
            if let Some(_cause) = self.faults.as_mut().and_then(|f| f.on_begin()) {
                self.stats.injected_faults += 1;
                self.aborted = Some(AbortCause::StmValidation);
            }
        }
    }

    /// Rolls back the current software transaction, discarding its
    /// buffered stores and read log.
    pub(crate) fn rollback_soft(&mut self) {
        assert_eq!(self.state, BlockState::SoftwareTx, "rollback outside software tx");
        self.charge(self.machine.config().cost.abort);
        if let Some(c) = &mut self.cert {
            c.get_mut().abort_attempt(EventKind::Software);
        }
        if let Some(h) = &mut self.hb {
            h.get_mut().rollback_tx();
        }
        self.write_buf.clear();
        self.pending_frees.clear();
        self.soft_log.clear();
        self.state = BlockState::Idle;
        self.aborted = None;
    }

    /// Commits the current software transaction. The caller holds the
    /// global sequence lock and has quiesced hardware committers
    /// ([`TxMemory::quiesce_committers`]), so plain reads are stable: the
    /// final validation decides, then buffered stores are written back in
    /// place (dooming conflicting hardware transactions like any
    /// non-transactional store).
    ///
    /// # Errors
    ///
    /// Returns the abort cause — and has already rolled back — if the
    /// attempt was doomed earlier or the read log fails validation.
    pub(crate) fn soft_commit_validated(&mut self) -> Result<(), AbortCause> {
        assert_eq!(self.state, BlockState::SoftwareTx, "commit outside software tx");
        if let Some(cause) = self.aborted {
            self.rollback_soft();
            return Err(cause);
        }
        self.charge(
            hytm_cost::STM_COMMIT_OVERHEAD
                + hytm_cost::STM_VALIDATE_PER_WORD * self.soft_log.len() as u64,
        );
        if self.soft_log.validate(|a| self.mem.read_word(a)).is_some() {
            self.rollback_soft();
            return Err(AbortCause::StmValidation);
        }
        // Serialization point: the sequence lock is held, no hardware
        // committer is in flight, and validation just passed.
        let seq = self.draw_commit_seq();
        if seq != 0 {
            self.last_commit_seq = seq;
        }
        if let Some(c) = &mut self.cert {
            c.get_mut().commit_soft(seq, &self.write_buf);
        }
        if let Some(h) = &mut self.hb {
            h.get_mut().commit_tx();
        }
        // Seeded bug #2 (model-checker regression corpus): skipping the
        // epoch bump lets concurrent software snapshots read the write-back
        // mid-flight — a torn, non-opaque observation.
        let skip_epoch_bump = self.mem.test_skip_epoch_bump();
        if !skip_epoch_bump {
            self.epoch_bump(); // odd: in-place write-back begins
        }
        if htm_core::coop::enabled() {
            // Address-ordered flush with a pause per store (see the
            // hardware commit path for why).
            let mut stores: Vec<(WordAddr, u64)> =
                self.write_buf.iter().map(|(&a, &v)| (a, v)).collect();
            stores.sort_unstable_by_key(|&(a, _)| a);
            for (addr, value) in stores {
                htm_core::coop::point(htm_core::coop::CoopPoint::WriteBack);
                self.mem.nontx_store(Some(self.slot), addr, value);
            }
        } else {
            for (&addr, &value) in &self.write_buf {
                self.mem.nontx_store(Some(self.slot), addr, value);
            }
        }
        if !skip_epoch_bump {
            self.epoch_bump(); // even: write-back published
        }
        if self.trace_footprints {
            // The hardware line sets are idle in a software transaction:
            // refill them to count the footprint's distinct lines.
            self.read_lines.clear();
            self.write_lines.clear();
            for &(addr, _) in self.soft_log.entries() {
                self.read_lines.insert(self.mem.line_of(addr));
            }
            for &addr in self.write_buf.keys() {
                self.write_lines.insert(self.mem.line_of(addr));
            }
            self.stats
                .footprints
                .push((self.read_lines.len() as u32, self.write_lines.len() as u32));
        }
        self.write_buf.clear();
        self.soft_log.clear();
        for (addr, words) in std::mem::take(&mut self.pending_frees) {
            self.alloc.free(addr, words);
        }
        self.stats.stm_commits += 1;
        self.state = BlockState::Idle;
        Ok(())
    }

    /// Begins a hytm ROT-tier transaction: a POWER8 rollback-only hardware
    /// transaction whose untracked loads are value-logged for software
    /// validation at commit.
    pub(crate) fn begin_rot(&mut self) {
        self.begin_hw(true, false);
        self.rot_soft = true;
        self.soft_log.clear();
        self.soft_reads = 0;
        self.soft_epoch_seen = self.wait_epoch_even();
    }

    /// Begins a capacity-stretched (spill-tier) hardware transaction:
    /// a full POWER8 transaction whose footprint overflow past the TMCAM
    /// spills into the software-validated side log instead of aborting
    /// (suspend/escape-style stretching, after arXiv 2003.03317).
    pub(crate) fn begin_spill(&mut self) {
        let cfg = self.machine.config();
        assert!(cfg.has_suspend_resume, "{} cannot spill (no suspend/resume)", cfg.name);
        self.begin_hw(false, false);
        self.spill_mode = true;
        self.spilled_lines.clear();
        self.spill_writes.clear();
        self.soft_log.clear();
        self.soft_reads = 0;
        self.soft_epoch_seen = self.wait_epoch_even();
    }

    /// Whether the current spill-tier attempt actually overflowed into the
    /// side log (decides the commit's validation work and cert path).
    fn has_spilled(&self) -> bool {
        !self.spilled_lines.is_empty()
    }

    /// Marks `line` as spilled, counting it once.
    fn spill_line(&mut self, line: LineId) {
        if self.spilled_lines.insert(line) {
            self.stats.capacity_spills += 1;
            // The spill itself models a suspend/log/resume round trip.
            self.charge(self.machine.config().cost.tbegin / 4);
        }
    }

    /// Commits a ROT-tier or spill-tier transaction. The caller holds the
    /// sequence lock and has quiesced other committers: the software read
    /// log is revalidated (restoring the serializability the untracked
    /// entries lost), then the hardware commit publishes the tracked
    /// stores and any spilled ones together. A ROT attempt always
    /// validates; a spill attempt only if it actually spilled.
    ///
    /// # Errors
    ///
    /// Returns the abort cause — and has already rolled back — on a failed
    /// validation or a hardware doom.
    pub(crate) fn validated_commit_hw(&mut self) -> Result<(), AbortCause> {
        let (validate, cause) = if self.rot_soft {
            // Seeded bug #3 (model-checker regression corpus): publishing
            // the write buffer before validation bypasses both conflict
            // detection (plain stores doom nobody) and the epoch, so a
            // failed validation leaves dirty never-committed values in the
            // arena.
            if self.mem.test_early_rot_publish() && self.aborted.is_none() {
                for (&addr, &value) in &self.write_buf {
                    self.mem.write_word(addr, value);
                }
            }
            (true, AbortCause::StmValidation)
        } else {
            assert!(self.spill_mode, "validated commit outside a ROT or spill transaction");
            (self.has_spilled(), AbortCause::SpillValidation)
        };
        if validate && self.aborted.is_none() {
            self.charge(
                hytm_cost::ROT_COMMIT_OVERHEAD
                    + hytm_cost::STM_VALIDATE_PER_WORD * self.soft_log.len() as u64,
            );
            if self.soft_log.validate(|a| self.mem.read_word(a)).is_some() {
                self.aborted = Some(cause);
            }
        }
        self.commit_hw()
    }

    pub(crate) fn in_software_tx(&self) -> bool {
        self.state == BlockState::SoftwareTx
    }

    /// Rolls back the current transaction, hardware or software (the
    /// abort exit of every attempt).
    pub(crate) fn rollback(&mut self) {
        if self.state == BlockState::SoftwareTx {
            self.rollback_soft();
        } else {
            self.rollback_hw();
        }
    }

    /// Rolls back the current hardware transaction, discarding buffered
    /// stores and releasing all lines.
    pub(crate) fn rollback_hw(&mut self) {
        assert_eq!(self.state, BlockState::HardwareTx, "rollback outside hardware tx");
        self.charge(self.machine.config().cost.abort);
        let kind = if self.rot_soft || self.has_spilled() {
            EventKind::Software
        } else {
            EventKind::Hardware { rot: self.rollback_only }
        };
        if let Some(c) = &mut self.cert {
            c.get_mut().abort_attempt(kind);
        }
        if let Some(h) = &mut self.hb {
            h.get_mut().rollback_tx();
        }
        self.write_buf.clear();
        self.pending_frees.clear(); // aborted frees never happened
        self.release_lines();
        self.mem.finish_slot(self.slot);
        self.end_tx_bookkeeping();
    }

    fn release_lines(&mut self) {
        for line in self.write_lines.iter() {
            self.mem.release_writer(line, self.slot);
        }
        for line in self.read_lines.iter() {
            self.mem.clear_reader(line, self.slot);
        }
    }

    fn end_tx_bookkeeping(&mut self) {
        self.machine.cores().exit_tx(self.core);
        if self.holds_spec_id {
            self.machine.spec_ids().expect("spec id held without pool").release();
            self.holds_spec_id = false;
        }
        self.state = BlockState::Idle;
        self.aborted = None;
        self.suspend_depth = 0;
        self.rollback_only = false;
        self.rot_soft = false;
        self.spill_mode = false;
        self.spilled_lines.clear();
        self.spill_writes.clear();
        self.constrained = None;
    }

    /// Begins an irrevocable (global-lock) block. The caller holds the lock.
    pub(crate) fn begin_irrevocable(&mut self) {
        assert_eq!(self.state, BlockState::Idle, "nested atomic blocks are not supported");
        self.read_lines.clear();
        self.write_lines.clear();
        // Hybrid runs: irrevocable writes land in place throughout the
        // body, so the whole section reads as one write-back to software
        // snapshots (the epoch stays odd until the section ends).
        self.epoch_bump();
        self.state = BlockState::Irrevocable;
        if let Some(c) = &mut self.cert {
            c.get_mut().begin_block();
        }
    }

    /// Ends an irrevocable block.
    pub(crate) fn end_irrevocable(&mut self) {
        assert_eq!(self.state, BlockState::Irrevocable);
        // Linearization point: the caller still holds the global lock.
        let seq = self.draw_commit_seq();
        if seq != 0 {
            self.last_commit_seq = seq;
        }
        if let Some(c) = &mut self.cert {
            c.get_mut().commit_irrevocable(seq);
        }
        self.stats.irrevocable_commits += 1;
        if self.trace_footprints {
            self.stats
                .footprints
                .push((self.read_lines.len() as u32, self.write_lines.len() as u32));
        }
        self.epoch_bump(); // even again: the section's writes are published
        self.state = BlockState::Idle;
    }

    /// Abandons an irrevocable block without counting a commit (the body
    /// failed; the caller releases the lock and reports the error).
    pub(crate) fn abandon_irrevocable(&mut self) {
        assert_eq!(self.state, BlockState::Irrevocable);
        self.epoch_bump(); // restore an even epoch for software readers
        self.state = BlockState::Idle;
    }

    /// Best-effort recovery after benchmark code panicked mid-block: rolls
    /// back an in-flight hardware transaction (releasing its lines, core
    /// registration and speculation ID) or abandons an irrevocable section,
    /// so sibling workers are not wedged on the dead worker's state. The
    /// caller additionally force-releases the global lock.
    pub(crate) fn panic_cleanup(&mut self) {
        match self.state {
            BlockState::HardwareTx | BlockState::SoftwareTx => self.rollback(),
            BlockState::Irrevocable => self.abandon_irrevocable(),
            BlockState::Sequential => {
                // A traced block died mid-flight: discard its partial
                // footprint instead of leaving the tracer wedged in-block.
                if let Some(t) = &mut self.tracer {
                    t.abandon_block();
                }
                self.state = BlockState::Idle;
            }
            BlockState::Idle => {}
        }
    }

    /// Begins a sequential-mode block (baseline runs and footprint traces).
    pub(crate) fn begin_sequential(&mut self) {
        assert_eq!(self.state, BlockState::Idle, "nested atomic blocks are not supported");
        if let Some(t) = &mut self.tracer {
            t.begin_block();
        }
        self.state = BlockState::Sequential;
    }

    /// Ends a sequential-mode block.
    pub(crate) fn end_sequential(&mut self) {
        assert_eq!(self.state, BlockState::Sequential);
        if let Some(t) = &mut self.tracer {
            t.end_block();
        }
        self.state = BlockState::Idle;
    }

    // ------------------------------------------------------------------
    // Access paths
    // ------------------------------------------------------------------

    fn fail<T>(&mut self, cause: AbortCause) -> TxResult<T> {
        self.aborted = Some(cause);
        Err(Abort::new(cause))
    }

    /// Draws a per-access injected fault, if fault injection is active and
    /// the current transaction is not constrained.
    fn injected_access_fault(&mut self) -> Option<AbortCause> {
        if self.constrained.is_some() {
            return None;
        }
        let cause = self.faults.as_mut().and_then(|f| f.on_access())?;
        self.stats.injected_faults += 1;
        Some(cause)
    }

    /// Extra cycles the fault plan asks irrevocable sections to hold the
    /// global lock after their body finishes (0 without fault injection).
    pub(crate) fn fault_lock_release_delay(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.lock_release_delay())
    }

    /// Charges `cycles` of execution time, scaled by the SMT co-residency
    /// slowdown: `n` threads sharing a core deliver `1 + (n-1)*eff` times
    /// one thread's throughput, so each runs `n / (1 + (n-1)*eff)` slower.
    /// Fractional cycles carry over between charges.
    pub(crate) fn charge(&self, cycles: u64) {
        let factor = match self.smt_slowdown.get() {
            Some(f) => f,
            None => {
                let cfg = self.machine.config();
                let n = self.machine.cores().threads_on(self.core).max(1) as f64;
                let f = if n <= 1.0 { 1.0 } else { n / (1.0 + (n - 1.0) * cfg.smt_efficiency) };
                self.smt_slowdown.set(Some(f));
                f
            }
        };
        if factor == 1.0 {
            self.clock.tick(cycles);
            return;
        }
        let scaled = cycles as f64 * factor + self.charge_frac.get();
        let whole = scaled as u64;
        self.charge_frac.set(scaled - whole as f64);
        self.clock.tick(whole);
    }

    /// Mean simulated cycles between forced yields (see
    /// [`TxnEngine::maybe_yield`]).
    const YIELD_INTERVAL: u64 = 160;

    /// Forced interleaving: on hosts with fewer cores than workers, OS
    /// threads only alternate at preemption quanta, so without this no two
    /// transactions would ever be in flight together. Pacing is by
    /// *simulated* cycles, so a worker's real-time presence (and hence its
    /// conflict exposure) is proportional to its simulated duration — a
    /// transaction that costs 10× the cycles stays in flight 10× as long.
    /// Only hardware-mode runs of more than one thread pace, and only while
    /// free-running: under a scheduler (svc cells, the model checker) only
    /// a grant lets another worker run, so [`htm_core::coop::pace`] makes
    /// no system call there.
    #[inline]
    pub(crate) fn maybe_yield(&self) {
        if self.pace {
            let now = self.clock.now();
            // Quantum boundaries form a renewal process anchored to
            // *cumulative* simulated cycles: a large single charge consumes
            // several boundaries (one pause each), and the next boundary
            // lands uniformly after it — never phase-locked to charge
            // sites. Resetting the phase at each yield would let any
            // code region shorter than the minimum quantum and preceded by
            // a big charge (a long tick, an expensive tbegin) execute
            // atomically on the host and never conflict.
            while now >= self.next_yield_at.get() {
                let mut x = self.yield_rng.get();
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                self.yield_rng.set(x);
                let iv = Self::YIELD_INTERVAL;
                // Randomized quantum in [iv/2, 3iv/2): fixed quanta
                // phase-lock with fixed-cost transaction sequences.
                let quantum = iv / 2 + x % iv;
                self.next_yield_at
                    .set(self.next_yield_at.get().max(now.saturating_sub(4 * iv)) + quantum);
                htm_core::coop::pace();
            }
        }
    }

    fn charge_constrained_access(&mut self, addr: WordAddr) {
        if let Some(c) = &mut self.constrained {
            assert!(c.accesses_left > 0, "constrained transaction exceeded its access limit");
            c.accesses_left -= 1;
            c.words.insert(addr);
            let bytes = c.words.len() as u32 * htm_core::WORD_BYTES as u32;
            assert!(
                bytes <= c.max_bytes,
                "constrained transaction footprint {bytes} B exceeds limit {} B",
                c.max_bytes
            );
        }
    }

    /// Transactional load of the `out.len()` consecutive words from `addr`
    /// on, in address order, with exactly the simulated effect of that many
    /// one-word loads ([`Tx::load`] is the one-word case).
    ///
    /// Work is done once per run, once per line or once per word:
    ///
    /// * *Per run:* the block-state dispatch. A sequential or irrevocable
    ///   run ticks the clock once for all its words, since nothing between
    ///   them reads the clock.
    /// * *Per line:* a run only loads, so nothing but the run itself can
    ///   change a line's read-set membership between two of its words. A
    ///   hardware run therefore settles each line once, at its first word
    ///   not forwarded from a buffered store: the read-set test, the
    ///   capacity tracker, `tx_read_line` and the prefetcher.
    /// * *Per word:* the hardware run's checks of the attempt's state (doom
    ///   flag, suspend depth, fault plan, ROT mode, certifier, sanitizer),
    ///   the cycle charge, the fault draw, store-to-load forwarding (the
    ///   write buffer, then the spilled side log in spill mode), the read,
    ///   the opacity doom re-check, capture and the pacing yield. Reading
    ///   that state once per run measured no faster on long runs and made
    ///   the one-word load, every other workload's common case, slower.
    ///
    /// # Errors
    ///
    /// Fails at the first word that aborts; `out` then holds the words
    /// before it and is untouched from it on.
    // Inline, with the sequential run: the sequential baseline and every
    // setup phase load one word at a time.
    #[inline]
    pub(crate) fn load_words(&mut self, addr: WordAddr, out: &mut [u64]) -> TxResult<()> {
        match self.state {
            BlockState::Idle => panic!("transactional access outside an atomic block"),
            BlockState::Sequential => {
                self.clock.tick(self.machine.config().cost.load * out.len() as u64);
                for (value, addr) in out.iter_mut().zip(run_from(addr)) {
                    if let Some(t) = &mut self.tracer {
                        t.record_load(addr);
                    }
                    *value = self.mem.read_word(addr);
                }
                Ok(())
            }
            BlockState::Irrevocable => {
                self.irrevocable_load_words(addr, out);
                Ok(())
            }
            BlockState::SoftwareTx => self.soft_load_words(addr, out),
            BlockState::HardwareTx => self.hw_load_words(addr, out),
        }
    }

    /// An irrevocable run.
    fn irrevocable_load_words(&mut self, addr: WordAddr, out: &mut [u64]) {
        self.clock.tick(self.machine.config().cost.load * out.len() as u64);
        for (value, addr) in out.iter_mut().zip(run_from(addr)) {
            if self.trace_footprints {
                self.read_lines.insert(self.mem.line_of(addr));
            }
            *value = self.mem.nontx_load(Some(self.slot), addr);
            if let Some(c) = &mut self.cert {
                c.get_mut().on_irr_read(addr, *value);
            }
            if let Some(h) = &mut self.hb {
                h.get_mut().irr_access(addr, false);
            }
        }
    }

    /// A software-transaction run.
    fn soft_load_words(&mut self, addr: WordAddr, out: &mut [u64]) -> TxResult<()> {
        for (value, addr) in out.iter_mut().zip(run_from(addr)) {
            *value = self.soft_load(addr)?;
        }
        Ok(())
    }

    /// A hardware-transaction run.
    fn hw_load_words(&mut self, addr: WordAddr, out: &mut [u64]) -> TxResult<()> {
        let mut settled = None;
        for (value, addr) in out.iter_mut().zip(run_from(addr)) {
            *value = self.hw_load(addr, &mut settled)?;
        }
        Ok(())
    }

    /// One word of a software-transaction run.
    fn soft_load(&mut self, addr: WordAddr) -> TxResult<u64> {
        if let Some(cause) = self.aborted {
            return Err(Abort::new(cause));
        }
        self.charge(self.machine.config().cost.load + hytm_cost::STM_LOAD_EXTRA);
        if self.injected_access_fault().is_some() {
            // Any injected hardware fault surfaces to a software
            // attempt as a validation abort.
            return self.fail(AbortCause::StmValidation);
        }
        if let Some(&v) = self.write_buf.get(&addr) {
            self.maybe_yield();
            return Ok(v); // store-to-load forwarding
        }
        self.soft_reads += 1;
        if self.soft_reads >= STM_MAX_ACCESSES {
            return self.fail(AbortCause::StmValidation);
        }
        let raw = self.soft_snapshot_read(addr)?;
        let value = self.soft_log.record(addr, raw);
        if self.soft_reads.is_multiple_of(REVALIDATE_PERIOD) {
            self.soft_revalidate()?;
        }
        if let Some(c) = &mut self.cert {
            c.get_mut().on_read(addr, value);
        }
        if let Some(h) = &mut self.hb {
            h.get_mut().tx_access(addr, false);
        }
        self.maybe_yield();
        Ok(value)
    }

    /// One word of a hardware-transaction run. `settled` is the line the
    /// run settled last and whether it spilled; a later word of that line
    /// skips the line work.
    #[inline]
    fn hw_load(&mut self, addr: WordAddr, settled: &mut Option<(LineId, bool)>) -> TxResult<u64> {
        if let Some(cause) = self.aborted {
            return Err(Abort::new(cause));
        }
        let cost = self.machine.config().cost;
        if self.suspend_depth > 0 {
            // Suspended-mode load: untracked, conflict-free for us.
            self.charge(cost.load);
            if let Some(h) = &mut self.hb {
                h.get_mut().nontx_read(addr);
            }
            return Ok(self.mem.nontx_load(Some(self.slot), addr));
        }
        self.charge(cost.load + cost.tx_load_extra);
        if let Some(cause) = self.injected_access_fault() {
            return self.fail(cause);
        }
        if let Some(&v) = self.write_buf.get(&addr) {
            self.maybe_yield();
            return Ok(v); // store-to-load forwarding
        }
        if self.spill_mode {
            if let Some(&v) = self.spill_writes.get(&addr) {
                self.maybe_yield();
                return Ok(v); // forwarding from the spilled side log
            }
        }
        let line = self.mem.line_of(addr);
        let line_spilled = match *settled {
            Some((l, spilled)) if l == line => {
                self.charge_constrained_access(addr);
                spilled
            }
            _ => {
                let spilled = self.settle_load_line(line, addr)?;
                *settled = Some((line, spilled));
                spilled
            }
        };
        let value = if line_spilled {
            // Spilled line: the read is untracked by the TMCAM, so it is
            // value-logged on the software snapshot and revalidated under
            // the sequence lock at commit.
            self.soft_reads += 1;
            if self.soft_reads >= STM_MAX_ACCESSES {
                return self.fail(AbortCause::SpillValidation);
            }
            let raw = match self.soft_snapshot_read(addr) {
                Ok(v) => v,
                Err(_) => return self.fail(AbortCause::SpillValidation),
            };
            self.soft_log.record(addr, raw)
        } else if self.rot_soft {
            // ROT tier: the load is untracked by the TMCAM, so it is
            // value-logged on the software snapshot instead and revalidated
            // under the sequence lock at commit.
            self.soft_reads += 1;
            if self.soft_reads >= STM_MAX_ACCESSES {
                return self.fail(AbortCause::StmValidation);
            }
            let raw = self.soft_snapshot_read(addr)?;
            self.soft_log.record(addr, raw)
        } else {
            self.mem.read_word(addr)
        };
        // Opacity: never return a value read after we were doomed.
        if let Some(cause) = self.mem.doom_cause(self.slot) {
            return self.fail(cause);
        }
        // Plain rollback-only loads are untracked by the hardware, so the
        // certifier's value check does not apply to them. ROT-tier loads
        // are software-validated, so it does.
        if !self.rollback_only || self.rot_soft {
            if let Some(c) = &mut self.cert {
                c.get_mut().on_read(addr, value);
            }
        }
        // Sanitizer: buffered until this attempt commits. Rollback-only
        // loads are still ordered by the transaction's commit, so they
        // count as transactional reads.
        if let Some(h) = &mut self.hb {
            h.get_mut().tx_access(addr, false);
        }
        // Yield *after* the access: quantum boundaries must be able to land
        // while the line is held, or transactions with expensive begins
        // execute atomically on the host and never conflict.
        self.maybe_yield();
        Ok(value)
    }

    /// The line work of a hardware load of `addr` on `line` (the read-set
    /// test, the capacity tracker, `tx_read_line` and the prefetcher),
    /// done once per line of a run. Returns whether the line is spilled to
    /// the software side log rather than tracked.
    fn settle_load_line(&mut self, line: LineId, addr: WordAddr) -> TxResult<bool> {
        let mut line_spilled = self.spill_mode && self.spilled_lines.contains(line);
        if !line_spilled && !self.rollback_only && !self.read_lines.contains(line) {
            let already_written = self.write_lines.contains(line);
            match self.tracker.on_first_load(line, already_written) {
                Ok(()) => {}
                // Spill tier: footprint overflow stretches into the software
                // side log instead of aborting.
                Err(c) if self.spill_mode && c.is_capacity() => {
                    self.spill_line(line);
                    line_spilled = true;
                }
                Err(c) => return self.fail(c),
            }
            if !line_spilled {
                if let Err(c) = self.mem.tx_read_line(self.slot, line, self.policy) {
                    return self.fail(c);
                }
                self.read_lines.insert(line);
                self.charge_constrained_access(addr);
                self.maybe_prefetch(line)?;
            }
        } else {
            self.charge_constrained_access(addr);
        }
        Ok(line_spilled)
    }

    /// Transactional store.
    pub(crate) fn store(&mut self, addr: WordAddr, value: u64) -> TxResult<()> {
        let restriction_p = self.machine.config().restriction_abort_per_store;
        let cost = self.machine.config().cost;
        match self.state {
            BlockState::Idle => panic!("transactional access outside an atomic block"),
            BlockState::Sequential => {
                self.clock.tick(cost.store);
                if let Some(t) = &mut self.tracer {
                    t.record_store(addr);
                }
                self.mem.write_word(addr, value);
                Ok(())
            }
            BlockState::Irrevocable => {
                self.clock.tick(cost.store);
                if self.trace_footprints {
                    self.write_lines.insert(self.mem.line_of(addr));
                }
                self.mem.nontx_store(Some(self.slot), addr, value);
                if let Some(c) = &mut self.cert {
                    c.get_mut().on_irr_write(addr, value);
                }
                if let Some(h) = &mut self.hb {
                    h.get_mut().irr_access(addr, true);
                }
                Ok(())
            }
            BlockState::SoftwareTx => {
                if let Some(cause) = self.aborted {
                    return Err(Abort::new(cause));
                }
                self.charge(cost.store + hytm_cost::STM_STORE_EXTRA);
                if self.injected_access_fault().is_some() {
                    return self.fail(AbortCause::StmValidation);
                }
                if let Some(h) = &mut self.hb {
                    h.get_mut().tx_access(addr, true);
                }
                self.write_buf.insert(addr, value);
                self.maybe_yield();
                Ok(())
            }
            BlockState::HardwareTx => {
                if let Some(cause) = self.aborted {
                    return Err(Abort::new(cause));
                }
                if self.suspend_depth > 0 {
                    self.charge(cost.store);
                    self.mem.nontx_store(Some(self.slot), addr, value);
                    // Suspended stores have non-transactional semantics:
                    // they publish immediately, outside this transaction's
                    // serialization point.
                    self.cert_nontx_write(addr, value);
                    if let Some(h) = &mut self.hb {
                        h.get_mut().nontx_write(addr);
                    }
                    return Ok(());
                }
                self.charge(cost.store + cost.tx_store_extra);
                if let Some(cause) = self.injected_access_fault() {
                    return self.fail(cause);
                }
                let line = self.mem.line_of(addr);
                let mut line_spilled = self.spill_mode && self.spilled_lines.contains(line);
                if !line_spilled && !self.write_lines.contains(line) {
                    let already_read = self.read_lines.contains(line);
                    match self.tracker.on_first_store(line, already_read) {
                        Ok(()) => {}
                        // Spill tier: the overflowing store is buffered in
                        // the side log and published (with dooming
                        // semantics) under the sequence lock at commit.
                        Err(c) if self.spill_mode && c.is_capacity() => {
                            self.spill_line(line);
                            line_spilled = true;
                        }
                        Err(c) => return self.fail(c),
                    }
                }
                if line_spilled {
                    if let Some(h) = &mut self.hb {
                        h.get_mut().tx_access(addr, true);
                    }
                    self.spill_writes.insert(addr, value);
                    self.maybe_yield();
                    return Ok(());
                }
                if !self.write_lines.contains(line) {
                    if let Err(c) = self.mem.tx_claim_line(self.slot, line, self.policy) {
                        return self.fail(c);
                    }
                    self.write_lines.insert(line);
                    self.charge_constrained_access(addr);
                    // zEC12's transient "cache-fetch-related" implementation
                    // restriction (Section 5.1) fires on store activity. The
                    // draw comes from the scheduling RNG (not the workload
                    // RNG) and is suppressed during replay: the recorded
                    // schedule already contains its outcomes.
                    if restriction_p > 0.0
                        && !self.replay_mode
                        && self.sched_rng.gen::<f64>() < restriction_p
                    {
                        return self.fail(AbortCause::Restriction);
                    }
                    self.maybe_prefetch(line)?;
                } else if self.constrained.is_some() {
                    self.charge_constrained_access(addr);
                }
                if let Some(h) = &mut self.hb {
                    h.get_mut().tx_access(addr, true);
                }
                self.write_buf.insert(addr, value);
                self.maybe_yield();
                Ok(())
            }
        }
    }

    /// Feeds the prefetcher model and passively monitors the prefetched
    /// line, if any (Intel Core).
    fn maybe_prefetch(&mut self, line: LineId) -> TxResult<()> {
        if !self.prefetcher.is_enabled() {
            return Ok(());
        }
        for pf in self.prefetcher.on_access(line).into_iter().flatten() {
            if !self.read_lines.contains(pf)
                && !self.write_lines.contains(pf)
                && self.mem.try_read_line_passive(self.slot, pf)
            {
                if self.tracker.on_first_load(pf, false).is_err() {
                    // No tracking capacity left: hardware drops the prefetch.
                    self.mem.clear_reader(pf, self.slot);
                    continue;
                }
                self.read_lines.insert(pf);
            }
        }
        Ok(())
    }

    /// Explicit program abort (`tabort`).
    pub(crate) fn user_abort<T>(&mut self, code: u8) -> TxResult<T> {
        match self.state {
            BlockState::HardwareTx | BlockState::SoftwareTx => {
                self.fail(AbortCause::Explicit(code))
            }
            BlockState::Irrevocable | BlockState::Sequential => {
                panic!("tabort in irrevocable/sequential execution")
            }
            BlockState::Idle => panic!("tabort outside an atomic block"),
        }
    }

    /// POWER8 `tsuspend`: subsequent accesses are non-transactional until
    /// [`TxnEngine::resume`].
    pub(crate) fn suspend(&mut self) -> TxResult<()> {
        let cfg = self.machine.config();
        assert!(cfg.has_suspend_resume, "{} has no suspend/resume", cfg.name);
        match self.state {
            BlockState::HardwareTx => {
                if let Some(cause) = self.aborted {
                    return Err(Abort::new(cause));
                }
                self.clock.tick(cfg.cost.tbegin / 8);
                self.suspend_depth += 1;
                Ok(())
            }
            // In irrevocable/sequential execution accesses are already
            // non-transactional; suspend is a no-op. A software transaction
            // is not a hardware one, so there is nothing to suspend either.
            BlockState::Irrevocable | BlockState::Sequential | BlockState::SoftwareTx => Ok(()),
            BlockState::Idle => panic!("suspend outside an atomic block"),
        }
    }

    /// POWER8 `tresume`.
    pub(crate) fn resume(&mut self) -> TxResult<()> {
        match self.state {
            BlockState::HardwareTx => {
                assert!(self.suspend_depth > 0, "resume without suspend");
                self.suspend_depth -= 1;
                self.clock.tick(self.machine.config().cost.tbegin / 8);
                if let Some(cause) = self.mem.doom_cause(self.slot) {
                    return self.fail(cause);
                }
                Ok(())
            }
            BlockState::Irrevocable | BlockState::Sequential | BlockState::SoftwareTx => Ok(()),
            BlockState::Idle => panic!("resume outside an atomic block"),
        }
    }

    /// Whether the current block runs as a hardware transaction (false in
    /// the irrevocable fallback and sequential mode).
    pub(crate) fn is_hardware_tx(&self) -> bool {
        self.state == BlockState::HardwareTx
    }

    #[allow(dead_code)] // exercised by unit tests
    pub(crate) fn is_suspended(&self) -> bool {
        self.suspend_depth > 0
    }

    /// Takes the accumulated statistics (end of run), stamping the final
    /// clock value.
    pub(crate) fn take_stats(&mut self) -> ThreadStats {
        let mut s = std::mem::take(&mut self.stats);
        s.cycles = self.clock.now();
        s
    }
}

/// The addresses of a run of consecutive words from `addr` on.
#[inline]
fn run_from(addr: WordAddr) -> impl Iterator<Item = WordAddr> {
    (0..).map(move |i| addr.offset(i))
}

/// Handle through which benchmark code accesses simulated memory inside an
/// atomic block.
///
/// Obtained from `ThreadCtx::atomic` (and friends); every method that can
/// abort returns a [`TxResult`] which the block body propagates with `?`.
pub struct Tx<'e> {
    pub(crate) eng: &'e mut TxnEngine,
}

impl std::fmt::Debug for Tx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tx(thread {})", self.eng.thread_id)
    }
}

impl Tx<'_> {
    /// Transactional load of one word.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if the transaction aborted (conflict, capacity,
    /// restriction, ...). Propagate with `?`.
    #[inline]
    pub fn load(&mut self, addr: WordAddr) -> TxResult<u64> {
        let mut word = [0];
        self.eng.load_words(addr, &mut word)?;
        Ok(word[0])
    }

    /// Transactional load of the `out.len()` consecutive words from `addr`
    /// on: the same values, simulated cycles and aborts as that many
    /// [`Tx::load`] calls in address order, with the conflict tracking of
    /// each line done once instead of once per word.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] at the first word that aborts; `out` then holds
    /// the words before it and is untouched from it on. Propagate with `?`.
    #[inline]
    pub fn load_words(&mut self, addr: WordAddr, out: &mut [u64]) -> TxResult<()> {
        self.eng.load_words(addr, out)
    }

    /// Transactional store of one word.
    ///
    /// # Errors
    ///
    /// See [`Tx::load`].
    #[inline]
    pub fn store(&mut self, addr: WordAddr, value: u64) -> TxResult<()> {
        self.eng.store(addr, value)
    }

    /// Loads a simulated pointer.
    ///
    /// # Errors
    ///
    /// See [`Tx::load`].
    #[inline]
    pub fn load_addr(&mut self, addr: WordAddr) -> TxResult<WordAddr> {
        Ok(WordAddr::from_repr(self.load(addr)?))
    }

    /// Stores a simulated pointer.
    ///
    /// # Errors
    ///
    /// See [`Tx::load`].
    #[inline]
    pub fn store_addr(&mut self, addr: WordAddr, value: WordAddr) -> TxResult<()> {
        self.store(addr, value.to_repr())
    }

    /// Loads an `f64` stored bit-exactly in a word.
    ///
    /// # Errors
    ///
    /// See [`Tx::load`].
    #[inline]
    pub fn load_f64(&mut self, addr: WordAddr) -> TxResult<f64> {
        Ok(htm_core::word_to_f64(self.load(addr)?))
    }

    /// Stores an `f64` bit-exactly into a word.
    ///
    /// # Errors
    ///
    /// See [`Tx::load`].
    #[inline]
    pub fn store_f64(&mut self, addr: WordAddr, value: f64) -> TxResult<()> {
        self.store(addr, htm_core::f64_to_word(value))
    }

    /// Explicitly aborts the transaction (`tabort`) with a user code.
    ///
    /// # Errors
    ///
    /// Always returns `Err`; the value is returned (rather than unwinding)
    /// so the caller writes `return tx.abort_tx(code)`.
    ///
    /// # Panics
    ///
    /// Panics if the block is running irrevocably (an irrevocable section
    /// cannot abort).
    pub fn abort_tx<T>(&mut self, code: u8) -> TxResult<T> {
        self.eng.user_abort(code)
    }

    /// Suspends transactional access (POWER8): until [`Tx::resume`],
    /// loads/stores are non-transactional — untracked and conflict-free for
    /// this transaction, but they doom *other* conflicting transactions.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if the transaction was already doomed.
    ///
    /// # Panics
    ///
    /// Panics on platforms without suspend/resume.
    pub fn suspend(&mut self) -> TxResult<()> {
        self.eng.suspend()
    }

    /// Resumes transactional access after [`Tx::suspend`], re-checking the
    /// transaction's doom flag.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if the transaction was doomed while suspended.
    pub fn resume(&mut self) -> TxResult<()> {
        self.eng.resume()
    }

    /// Charges `cycles` of simulated compute to this thread.
    #[inline]
    pub fn tick(&mut self, cycles: u64) {
        self.eng.charge(cycles);
        self.eng.maybe_yield();
    }

    /// Charges the cost of one access that misses the cache hierarchy,
    /// scaled by the machine's memory-concurrency penalty (ssca2's
    /// streaming inner loop).
    pub fn charge_miss(&mut self) {
        let running = self.eng.machine.cores().threads_running().max(1) as usize;
        let c = self.eng.machine.config().cost.miss_cost(running);
        self.eng.charge(c);
    }

    /// Allocates `words` of simulated memory (non-transactional, like
    /// STAMP's `TM_MALLOC`; never aborts).
    pub fn alloc(&mut self, words: u32) -> WordAddr {
        if self.eng.log_allocs {
            self.eng.alloc_log.push(words);
        }
        self.eng.alloc.alloc(words)
    }

    /// Frees a block for reuse by this thread (like STAMP's `TM_FREE`).
    ///
    /// Inside a hardware or software transaction the free is *deferred to
    /// commit*: an aborted transaction's frees never happen, since the
    /// rolled-back structure still references the block.
    pub fn free(&mut self, addr: WordAddr, words: u32) {
        if self.eng.is_hardware_tx() || self.eng.in_software_tx() {
            self.eng.pending_frees.push((addr, words));
        } else {
            self.eng.alloc.free(addr, words);
        }
    }

    /// This worker's thread id.
    pub fn thread_id(&self) -> u32 {
        self.eng.thread_id
    }

    /// Deterministic per-thread random-number generator.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.eng.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm_core::{Geometry, SimAlloc};
    use htm_machine::Platform;

    impl TxnEngine {
        /// A one-word load, as [`Tx::load`] makes it.
        fn load(&mut self, addr: WordAddr) -> TxResult<u64> {
            Tx { eng: self }.load(addr)
        }
    }

    fn engine(mode: ExecMode) -> TxnEngine {
        engine_on(Platform::IntelCore, mode)
    }

    fn engine_on(p: Platform, mode: ExecMode) -> TxnEngine {
        let cfg = p.config();
        let mem = Arc::new(TxMemory::new(1 << 16, Geometry::new(cfg.granularity)));
        let machine = Arc::new(Machine::new(cfg));
        let alloc = ThreadAlloc::new(Arc::new(SimAlloc::new(1, 1 << 16)));
        TxnEngine::new(
            mem,
            machine,
            alloc,
            0,
            1,
            mode,
            ConflictPolicy::RequesterWins,
            42,
            false,
            false,
            None,
        )
    }

    #[test]
    fn hardware_tx_read_write_commit() {
        let mut e = engine(ExecMode::Hardware);
        let a = WordAddr(100);
        e.begin_hw(false, false);
        assert_eq!(e.load(a).unwrap(), 0);
        e.store(a, 5).unwrap();
        assert_eq!(e.load(a).unwrap(), 5, "store-to-load forwarding");
        assert_eq!(e.mem.read_word(a), 0, "stores buffered until commit");
        e.commit_hw().unwrap();
        assert_eq!(e.mem.read_word(a), 5);
        assert_eq!(e.stats.hw_commits, 1);
    }

    #[test]
    fn rollback_discards_stores() {
        let mut e = engine(ExecMode::Hardware);
        let a = WordAddr(100);
        e.mem.write_word(a, 1);
        e.begin_hw(false, false);
        e.store(a, 99).unwrap();
        e.rollback_hw();
        assert_eq!(e.mem.read_word(a), 1);
        // Lines released: a fresh transaction can claim them.
        e.begin_hw(false, false);
        e.store(a, 2).unwrap();
        e.commit_hw().unwrap();
        assert_eq!(e.mem.read_word(a), 2);
    }

    #[test]
    fn doomed_tx_fails_all_accesses_and_commit() {
        let mut e = engine(ExecMode::Hardware);
        let a = WordAddr(100);
        e.begin_hw(false, false);
        e.load(a).unwrap();
        // A remote non-transactional store dooms us.
        e.mem.nontx_store(None, a, 7);
        let err = e.load(a).unwrap_err();
        assert_eq!(err.cause, AbortCause::ConflictNonTx);
        // Subsequent accesses keep failing with the same cause.
        assert_eq!(e.store(a, 1).unwrap_err().cause, AbortCause::ConflictNonTx);
        assert_eq!(e.commit_hw(), Err(AbortCause::ConflictNonTx));
    }

    #[test]
    fn capacity_abort_on_power8_tmcam() {
        let mut e = engine_on(Platform::Power8, ExecMode::Hardware);
        e.begin_hw(false, false);
        // 64 entries of 128 B = lines 16 words apart.
        let mut res = Ok(0);
        for i in 0..100u32 {
            res = e.load(WordAddr(i * 16));
            if res.is_err() {
                break;
            }
        }
        assert_eq!(res.unwrap_err().cause, AbortCause::CapacityRead);
        e.rollback_hw();
    }

    #[test]
    fn sequential_mode_is_direct() {
        let mut e = engine(ExecMode::Sequential);
        e.begin_sequential();
        e.store(WordAddr(5), 9).unwrap();
        assert_eq!(e.load(WordAddr(5)).unwrap(), 9);
        e.end_sequential();
        assert_eq!(e.mem.read_word(WordAddr(5)), 9);
        assert!(e.clock.now() > 0, "sequential accesses still cost cycles");
    }

    #[test]
    fn sequential_tracer_records_footprints() {
        let mut e = engine(ExecMode::Sequential);
        e.tracer = Some(SeqTracer::new(&[64]));
        e.begin_sequential();
        e.load(WordAddr(0)).unwrap();
        e.store(WordAddr(64), 1).unwrap();
        e.end_sequential();
        let t = e.tracer.as_ref().unwrap();
        assert_eq!(t.samples(0), &[(1, 1)]);
    }

    #[test]
    fn irrevocable_mode_dooms_conflicting_tx() {
        let cfg = Platform::IntelCore.config();
        let mem = Arc::new(TxMemory::new(1 << 16, Geometry::new(cfg.granularity)));
        let machine = Arc::new(Machine::new(cfg));
        let galloc = Arc::new(SimAlloc::new(1, 1 << 16));
        let mut e0 = TxnEngine::new(
            Arc::clone(&mem),
            Arc::clone(&machine),
            ThreadAlloc::new(Arc::clone(&galloc)),
            0,
            2,
            ExecMode::Hardware,
            ConflictPolicy::RequesterWins,
            1,
            false,
            false,
            None,
        );
        let mut e1 = TxnEngine::new(
            mem,
            machine,
            ThreadAlloc::new(galloc),
            1,
            2,
            ExecMode::Hardware,
            ConflictPolicy::RequesterWins,
            2,
            false,
            false,
            None,
        );
        let a = WordAddr(100);
        e0.begin_hw(false, false);
        e0.load(a).unwrap();
        // Thread 1 runs irrevocably and stores to the same line.
        e1.begin_irrevocable();
        e1.store(a, 3).unwrap();
        e1.end_irrevocable();
        assert_eq!(e0.load(a).unwrap_err().cause, AbortCause::ConflictNonTx);
        e0.rollback_hw();
        assert_eq!(e1.stats.irrevocable_commits, 1);
    }

    #[test]
    fn zec12_restriction_aborts_eventually_fire() {
        let mut e = engine_on(Platform::Zec12, ExecMode::Hardware);
        let mut saw_restriction = false;
        for round in 0..2000u32 {
            e.begin_hw(false, false);
            let r = e.store(WordAddr((round % 1000) * 64), 1);
            match r {
                Ok(()) => {
                    let _ = e.commit_hw();
                }
                Err(a) => {
                    assert_eq!(a.cause, AbortCause::Restriction);
                    saw_restriction = true;
                    e.rollback_hw();
                    break;
                }
            }
        }
        assert!(saw_restriction, "zEC12 cache-fetch aborts should fire within 2000 stores");
    }

    #[test]
    fn suspend_resume_accesses_do_not_grow_footprint() {
        let mut e = engine_on(Platform::Power8, ExecMode::Hardware);
        e.begin_hw(false, false);
        e.load(WordAddr(0)).unwrap();
        e.suspend().unwrap();
        assert!(e.is_suspended());
        // Suspended accesses bypass tracking entirely.
        e.store(WordAddr(1000), 9).unwrap();
        assert_eq!(e.load(WordAddr(1000)).unwrap(), 9, "suspended store hits memory");
        e.resume().unwrap();
        assert_eq!(e.tracker.store_lines(), 0);
        e.commit_hw().unwrap();
        assert_eq!(e.mem.read_word(WordAddr(1000)), 9);
    }

    #[test]
    fn suspended_self_conflict_is_harmless_but_remote_tx_gets_doomed() {
        let cfg = Platform::Power8.config();
        let mem = Arc::new(TxMemory::new(1 << 16, Geometry::new(cfg.granularity)));
        let machine = Arc::new(Machine::new(cfg));
        let galloc = Arc::new(SimAlloc::new(1, 1 << 16));
        let mk = |id: u32, mem: &Arc<TxMemory>, machine: &Arc<Machine>| {
            TxnEngine::new(
                Arc::clone(mem),
                Arc::clone(machine),
                ThreadAlloc::new(Arc::clone(&galloc)),
                id,
                2,
                ExecMode::Hardware,
                ConflictPolicy::RequesterWins,
                7,
                false,
                false,
                None,
            )
        };
        let mut e0 = mk(0, &mem, &machine);
        let mut e1 = mk(1, &mem, &machine);
        let shared = WordAddr(4096);
        e1.begin_hw(false, false);
        e1.load(shared).unwrap();
        e0.begin_hw(false, false);
        e0.suspend().unwrap();
        e0.store(shared, 1).unwrap(); // non-transactional store from suspension
        e0.resume().unwrap();
        e0.commit_hw().unwrap();
        assert_eq!(e1.load(shared).unwrap_err().cause, AbortCause::ConflictNonTx);
        e1.rollback_hw();
    }

    #[test]
    fn rollback_only_tx_skips_load_tracking() {
        let mut e = engine_on(Platform::Power8, ExecMode::Hardware);
        e.begin_hw(true, false);
        // Way more loads than the TMCAM holds: fine, loads are untracked.
        for i in 0..200u32 {
            e.load(WordAddr(i * 16)).unwrap();
        }
        assert_eq!(e.tracker.load_lines(), 0);
        e.store(WordAddr(0), 1).unwrap();
        e.commit_hw().unwrap();
    }

    #[test]
    fn constrained_limits_are_enforced() {
        let mut e = engine_on(Platform::Zec12, ExecMode::Hardware);
        e.begin_hw(false, true);
        // One 256-byte line footprint: fine.
        e.load(WordAddr(0)).unwrap();
        e.store(WordAddr(1), 2).unwrap();
        e.commit_hw().unwrap();
    }

    #[test]
    #[should_panic(expected = "constrained transaction footprint")]
    fn constrained_footprint_violation_panics() {
        // 33 distinct words = 264 bytes > the 256-byte limit; raise the
        // access budget so the byte check is what trips.
        let mut e = engine_on(Platform::Zec12, ExecMode::Hardware);
        e.begin_hw(false, true);
        if let Some(st) = e.constrained.as_mut() {
            st.accesses_left = 100;
        }
        for i in 0..33u32 {
            let _ = e.load(WordAddr(i));
        }
    }

    #[test]
    #[should_panic(expected = "access limit")]
    fn constrained_access_limit_panics() {
        let mut e = engine_on(Platform::Zec12, ExecMode::Hardware);
        e.begin_hw(false, true);
        for i in 0..33u32 {
            // Alternate between two words: the footprint stays tiny, but
            // the 33rd access exceeds the 32-instruction budget.
            let _ = e.load(WordAddr(i % 2));
        }
    }

    #[test]
    #[should_panic(expected = "nested atomic blocks")]
    fn nested_begin_panics() {
        let mut e = engine(ExecMode::Hardware);
        e.begin_hw(false, false);
        e.begin_hw(false, false);
    }

    #[test]
    fn bgq_spec_ids_are_acquired_and_released() {
        let mut e = engine_on(Platform::BlueGeneQ, ExecMode::Hardware);
        let pool_avail = e.machine.spec_ids().unwrap().available();
        e.begin_hw(false, false);
        assert_eq!(e.machine.spec_ids().unwrap().available(), pool_avail - 1);
        e.commit_hw().unwrap();
        // Released to pending (not immediately available).
        assert_eq!(e.machine.spec_ids().unwrap().available(), pool_avail - 1);
    }

    #[test]
    fn prefetcher_pollutes_read_set_on_intel() {
        let mut e = engine(ExecMode::Hardware);
        e.begin_hw(false, false);
        // Stream two consecutive lines: the prefetcher should add line 3.
        e.load(WordAddr(0)).unwrap();
        e.load(WordAddr(8)).unwrap();
        let prefetched_line = e.mem.line_of(WordAddr(16));
        assert!(e.read_lines.contains(prefetched_line), "prefetched line is monitored");
        e.commit_hw().unwrap();
    }

    #[test]
    fn no_prefetch_pollution_on_power8() {
        let mut e = engine_on(Platform::Power8, ExecMode::Hardware);
        e.begin_hw(false, false);
        e.load(WordAddr(0)).unwrap();
        e.load(WordAddr(16)).unwrap();
        assert_eq!(e.read_lines.len(), 2);
        e.commit_hw().unwrap();
    }

    fn engine_with_faults(p: Platform, plan: crate::faults::FaultPlan) -> TxnEngine {
        let cfg = p.config();
        let mem = Arc::new(TxMemory::new(1 << 16, Geometry::new(cfg.granularity)));
        let machine = Arc::new(Machine::new(cfg));
        let alloc = ThreadAlloc::new(Arc::new(SimAlloc::new(1, 1 << 16)));
        let faults = FaultState::new(&plan, 0);
        TxnEngine::new(
            mem,
            machine,
            alloc,
            0,
            1,
            ExecMode::Hardware,
            ConflictPolicy::RequesterWins,
            42,
            false,
            false,
            faults,
        )
    }

    #[test]
    fn injected_begin_fault_dooms_the_transaction() {
        let plan = crate::faults::FaultPlan::none().capacity_abort_per_begin(1.0);
        let mut e = engine_with_faults(Platform::IntelCore, plan);
        e.begin_hw(false, false);
        assert_eq!(e.load(WordAddr(8)).unwrap_err().cause, AbortCause::CapacityWrite);
        e.rollback_hw();
        assert_eq!(e.stats.injected_faults, 1);
    }

    #[test]
    fn injected_begin_fault_surfaces_at_commit_for_empty_bodies() {
        let plan = crate::faults::FaultPlan::none().transient_abort_per_begin(1.0);
        let mut e = engine_with_faults(Platform::IntelCore, plan);
        e.begin_hw(false, false);
        assert_eq!(e.commit_hw(), Err(AbortCause::Restriction), "even a no-access body aborts");
    }

    #[test]
    fn injected_commit_doom_rolls_back_buffered_stores() {
        let plan = crate::faults::FaultPlan::none().doom_at_commit(1.0);
        let mut e = engine_with_faults(Platform::IntelCore, plan);
        let a = WordAddr(64);
        e.begin_hw(false, false);
        e.store(a, 9).unwrap();
        assert_eq!(e.commit_hw(), Err(AbortCause::ConflictTxStore));
        assert_eq!(e.mem.read_word(a), 0, "doomed commit must not publish stores");
        assert_eq!(e.stats.hw_commits, 0);
        assert_eq!(e.stats.injected_faults, 1);
    }

    #[test]
    fn injected_access_faults_fire_on_loads_and_stores() {
        let plan = crate::faults::FaultPlan::none().transient_abort_per_access(1.0);
        let mut e = engine_with_faults(Platform::Power8, plan);
        e.begin_hw(false, false);
        assert_eq!(e.load(WordAddr(0)).unwrap_err().cause, AbortCause::Restriction);
        e.rollback_hw();
        e.begin_hw(false, false);
        assert_eq!(e.store(WordAddr(0), 1).unwrap_err().cause, AbortCause::Restriction);
        e.rollback_hw();
        assert_eq!(e.stats.injected_faults, 2);
    }

    #[test]
    fn constrained_transactions_are_exempt_from_injection() {
        let plan = crate::faults::FaultPlan::none()
            .capacity_abort_per_begin(1.0)
            .transient_abort_per_access(1.0)
            .doom_at_commit(1.0);
        let mut e = engine_with_faults(Platform::Zec12, plan);
        e.begin_hw(false, true);
        e.load(WordAddr(0)).unwrap();
        e.store(WordAddr(1), 2).unwrap();
        e.commit_hw().unwrap();
        assert_eq!(e.stats.injected_faults, 0);
    }

    #[test]
    fn panic_cleanup_releases_lines_and_state() {
        let mut e = engine(ExecMode::Hardware);
        let a = WordAddr(128);
        e.begin_hw(false, false);
        e.store(a, 5).unwrap();
        e.panic_cleanup();
        assert_eq!(e.mem.read_word(a), 0, "panic rollback discards stores");
        // The slot is clean: a fresh transaction on the same line works.
        e.begin_hw(false, false);
        e.store(a, 7).unwrap();
        e.commit_hw().unwrap();
        assert_eq!(e.mem.read_word(a), 7);
    }

    #[test]
    fn software_tx_read_write_commit() {
        let mut e = engine(ExecMode::Hardware);
        let a = WordAddr(100);
        e.begin_soft();
        assert_eq!(e.load(a).unwrap(), 0);
        e.store(a, 5).unwrap();
        assert_eq!(e.load(a).unwrap(), 5, "store-to-load forwarding");
        assert_eq!(e.mem.read_word(a), 0, "stores buffered until commit");
        e.soft_commit_validated().unwrap();
        assert_eq!(e.mem.read_word(a), 5);
        assert_eq!(e.stats.stm_commits, 1);
        assert_eq!(e.stats.hw_commits, 0);
        assert!(e.clock.now() > 0, "software instrumentation costs cycles");
    }

    #[test]
    fn software_tx_fails_validation_when_a_logged_value_changes() {
        let mut e = engine(ExecMode::Hardware);
        let a = WordAddr(100);
        e.begin_soft();
        assert_eq!(e.load(a).unwrap(), 0);
        e.store(WordAddr(200), 9).unwrap();
        // A concurrent committer changes the logged value before commit.
        e.mem.nontx_store(None, a, 7);
        assert_eq!(e.soft_commit_validated(), Err(AbortCause::StmValidation));
        assert_eq!(e.mem.read_word(WordAddr(200)), 0, "failed commit publishes nothing");
        assert_eq!(e.stats.stm_commits, 0);
    }

    #[test]
    fn software_tx_repeated_reads_return_the_logged_first_value() {
        let mut e = engine(ExecMode::Hardware);
        let a = WordAddr(64);
        e.mem.write_word(a, 3);
        e.begin_soft();
        assert_eq!(e.load(a).unwrap(), 3);
        // With no epoch installed the engine cannot notice the change
        // mid-body, but re-reads stay on the logged snapshot value...
        e.mem.nontx_store(None, a, 4);
        assert_eq!(e.load(a).unwrap(), 3, "snapshot value, not the fresh one");
        // ...and commit validation rejects the stale snapshot.
        assert_eq!(e.soft_commit_validated(), Err(AbortCause::StmValidation));
    }

    #[test]
    fn rot_tier_logs_untracked_reads_and_commits_as_rot() {
        let mut e = engine_on(Platform::Power8, ExecMode::Hardware);
        e.begin_rot();
        // Way more loads than the TMCAM holds: untracked, value-logged.
        for i in 0..200u32 {
            e.load(WordAddr(i * 16)).unwrap();
        }
        assert_eq!(e.tracker.load_lines(), 0);
        e.store(WordAddr(0), 1).unwrap();
        e.validated_commit_hw().unwrap();
        assert_eq!(e.mem.read_word(WordAddr(0)), 1);
        assert_eq!(e.stats.rot_commits, 1);
        assert_eq!(e.stats.hw_commits, 0);
    }

    #[test]
    fn rot_tier_validation_failure_rolls_back_buffered_stores() {
        let mut e = engine_on(Platform::Power8, ExecMode::Hardware);
        let a = WordAddr(100);
        e.begin_rot();
        e.load(a).unwrap();
        e.store(WordAddr(800), 9).unwrap();
        // An invisible read goes stale: only software validation can tell.
        e.mem.nontx_store(None, a, 7);
        assert_eq!(e.validated_commit_hw(), Err(AbortCause::StmValidation));
        assert_eq!(e.mem.read_word(WordAddr(800)), 0);
        assert_eq!(e.stats.rot_commits, 0);
    }

    #[test]
    fn spill_tier_validation_failure_is_a_spill_validation_abort() {
        let mut e = engine_on(Platform::Power8, ExecMode::Hardware);
        e.begin_spill();
        fill_tmcam(&mut e);
        // The TMCAM is full, so this line spills into the side log.
        let a = WordAddr(64 * 16);
        e.load(a).unwrap();
        assert!(e.has_spilled());
        e.store(WordAddr(0), 9).unwrap();
        // A spilled read goes stale: the hardware does not track it, so
        // only the commit's software validation can tell.
        e.mem.nontx_store(None, a, 7);
        assert_eq!(e.validated_commit_hw(), Err(AbortCause::SpillValidation));
        assert_eq!(e.mem.read_word(WordAddr(0)), 0);
        assert_eq!(e.stats.spill_commits, 0);
    }

    #[test]
    fn software_tx_defers_frees_to_commit() {
        let mut e = engine(ExecMode::Hardware);
        let addr = {
            let mut tx = Tx { eng: &mut e };
            tx.alloc(4)
        };
        e.begin_soft();
        {
            let mut tx = Tx { eng: &mut e };
            tx.free(addr, 4);
        }
        e.rollback_soft();
        e.begin_soft();
        {
            let mut tx = Tx { eng: &mut e };
            tx.free(addr, 4);
        }
        e.soft_commit_validated().unwrap();
        // The block was freed exactly once: it is reusable now.
        let again = {
            let mut tx = Tx { eng: &mut e };
            tx.alloc(4)
        };
        assert_eq!(again, addr, "freed block is recycled");
    }

    #[test]
    fn intel_prefetch_past_the_arena_end_is_dropped() {
        // 65 536 words of 64-byte lines: lines 0..8192. Streaming the last
        // two lines makes the prefetcher ask for lines 8192 and 8193.
        let mut e = engine(ExecMode::Hardware);
        e.begin_hw(false, false);
        e.load(WordAddr(65_520)).unwrap();
        e.load(WordAddr(65_528)).unwrap();
        assert_eq!(e.read_lines.iter().collect::<Vec<_>>(), [LineId(8190), LineId(8191)]);
        e.commit_hw().unwrap();
    }

    /// Marks the words of `out` a failed load left untouched; never a
    /// value the run-equivalence engines hold in memory or store.
    const UNTOUCHED: u64 = u64::MAX;

    /// Everything a sequence of loads leaves behind that a run must
    /// reproduce exactly.
    #[derive(Debug, PartialEq)]
    struct LoadOutcome {
        values: Vec<u64>,
        result: Result<(), AbortCause>,
        failed_at: Option<usize>,
        now: u64,
        stats: String,
        captures: String,
        read_lines: Vec<LineId>,
        write_lines: Vec<LineId>,
        spilled_lines: Vec<LineId>,
        tracker: (u64, u64),
        constrained: String,
        /// The next pacing boundary and the pacing RNG state.
        pacing: (u64, u64),
    }

    impl LoadOutcome {
        fn of(
            e: &TxnEngine,
            values: Vec<u64>,
            result: TxResult<()>,
            failed_at: Option<usize>,
        ) -> Self {
            LoadOutcome {
                values,
                result: result.map_err(|a| a.cause),
                failed_at,
                now: e.clock.now(),
                stats: format!("{:?}", e.stats),
                captures: format!(
                    "{:?} {:?}",
                    e.cert,
                    e.hb.as_ref().map(|h| h.borrow().ordered_state())
                ),
                read_lines: e.read_lines.iter().collect(),
                write_lines: e.write_lines.iter().collect(),
                spilled_lines: e.spilled_lines.iter().collect(),
                tracker: (e.tracker.load_lines(), e.tracker.store_lines()),
                constrained: format!("{:?}", e.constrained),
                pacing: (e.next_yield_at.get(), e.yield_rng.get()),
            }
        }
    }

    /// One run-equivalence case: how the engines are built and the state
    /// they are driven into before the `n` loads from `addr`.
    struct RunCase {
        name: &'static str,
        mode: ExecMode,
        trace_footprints: bool,
        faults: crate::faults::FaultPlan,
        /// Worker 0 of two, paced, sharing its core with a second worker
        /// (so every charge is scaled by the SMT slowdown).
        paced: bool,
        prelude: fn(&mut TxnEngine),
        addr: u32,
        n: usize,
    }

    impl RunCase {
        fn new(name: &'static str, prelude: fn(&mut TxnEngine), addr: u32, n: usize) -> Self {
            RunCase {
                name,
                mode: ExecMode::Hardware,
                trace_footprints: false,
                faults: crate::faults::FaultPlan::none(),
                paced: false,
                prelude,
                addr,
                n,
            }
        }

        /// An engine over a 65 536-word arena whose word `a` holds `3a + 1`,
        /// with certifier and sanitizer capture on or off, driven through
        /// the prelude.
        fn engine(&self, p: Platform, capture: bool) -> TxnEngine {
            let cfg = p.config();
            let mem = Arc::new(TxMemory::new(1 << 16, Geometry::new(cfg.granularity)));
            for a in 0..1u32 << 16 {
                mem.write_word(WordAddr(a), 3 * a as u64 + 1);
            }
            let alloc = ThreadAlloc::new(Arc::new(SimAlloc::new(1, 1 << 16)));
            let machine = Arc::new(Machine::new(cfg));
            if self.paced {
                machine.cores().thread_started(0);
                machine.cores().thread_started(0);
            }
            let mut e = TxnEngine::new(
                mem,
                machine,
                alloc,
                0,
                if self.paced { 2 } else { 1 },
                self.mode,
                ConflictPolicy::RequesterWins,
                42,
                self.trace_footprints,
                self.paced,
                FaultState::new(&self.faults, 0),
            );
            if capture {
                e.enable_certify();
                e.enable_sanitize();
            }
            (self.prelude)(&mut e);
            e
        }

        /// The outcomes of one `load_words` run and of `n` one-word loads
        /// on two identically built engines.
        fn outcomes(&self, p: Platform, capture: bool) -> (LoadOutcome, LoadOutcome) {
            let base = WordAddr(self.addr);
            let mut run = self.engine(p, capture);
            let mut values = vec![UNTOUCHED; self.n];
            let result = Tx { eng: &mut run }.load_words(base, &mut values);
            let failed_at = result.is_err().then(|| values.iter().position(|&v| v == UNTOUCHED));
            let run = LoadOutcome::of(&run, values, result, failed_at.flatten());

            let mut words = self.engine(p, capture);
            let mut values = vec![UNTOUCHED; self.n];
            let mut result = Ok(());
            let mut failed_at = None;
            for (i, v) in values.iter_mut().enumerate() {
                match words.load(base.offset(i as u32)) {
                    Ok(x) => *v = x,
                    Err(a) => {
                        result = Err(a);
                        failed_at = Some(i);
                        break;
                    }
                }
            }
            (run, LoadOutcome::of(&words, values, result, failed_at))
        }
    }

    /// Loads the first word of each of 64 POWER8 lines (fills the TMCAM).
    fn fill_tmcam(e: &mut TxnEngine) {
        for line in 0..64u32 {
            e.load(WordAddr(line * 16)).unwrap();
        }
    }

    /// Begins a hardware transaction already doomed by a conflict.
    fn doom(e: &mut TxnEngine) {
        e.begin_hw(false, false);
        e.aborted = Some(AbortCause::ConflictTxLoad);
    }

    #[test]
    fn a_run_equals_word_by_word_loads() {
        use crate::faults::FaultPlan;
        let cases = [
            RunCase {
                mode: ExecMode::Sequential,
                ..RunCase::new("sequential", |e| e.begin_sequential(), 100, 300)
            },
            RunCase {
                trace_footprints: true,
                ..RunCase::new("irrevocable", |e| e.begin_irrevocable(), 100, 300)
            },
            RunCase::new("irrevocable, untraced", |e| e.begin_irrevocable(), 100, 300),
            RunCase::new("hardware", |e| e.begin_hw(false, false), 100, 300),
            RunCase::new("hardware, doomed", doom, 100, 3),
            RunCase::new("hardware, doomed, empty", doom, 100, 0),
            RunCase {
                paced: true,
                ..RunCase::new("hardware, paced", |e| e.begin_hw(false, false), 100, 1500)
            },
            RunCase::new(
                "hardware, forwarding",
                |e| {
                    e.begin_hw(false, false);
                    e.store(WordAddr(104), 7).unwrap();
                    e.store(WordAddr(117), 8).unwrap();
                    e.store(WordAddr(160), 9).unwrap();
                },
                100,
                80,
            ),
            // Lines with stores (one of them read before its store) between
            // lines without, on 64- to 256-byte lines.
            RunCase::new(
                "hardware, lines with and without stores",
                |e| {
                    e.begin_hw(false, false);
                    e.load(WordAddr(200)).unwrap();
                    e.store(WordAddr(203), 11).unwrap();
                    e.store(WordAddr(260), 12).unwrap();
                    e.store(WordAddr(333), 13).unwrap();
                },
                190,
                200,
            ),
            // 1 500 words from a 128-byte line boundary: 94 POWER8 lines, so
            // the 65th line overflows the 64-entry TMCAM mid-run.
            RunCase::new("hardware, over the TMCAM", |e| e.begin_hw(false, false), 2048, 1500),
            RunCase {
                faults: FaultPlan::none().transient_abort_per_access(0.004),
                ..RunCase::new("hardware, access faults", |e| e.begin_hw(false, false), 100, 1500)
            },
            RunCase::new(
                "software",
                |e| {
                    e.begin_soft();
                    e.store(WordAddr(130), 5).unwrap();
                },
                100,
                300,
            ),
        ];
        let power8_cases = [
            RunCase::new("rollback-only", |e| e.begin_hw(true, false), 2048, 1500),
            RunCase::new(
                "rot",
                |e| {
                    e.begin_rot();
                    e.store(WordAddr(130), 5).unwrap();
                },
                100,
                300,
            ),
            RunCase::new(
                "suspended",
                |e| {
                    e.begin_hw(false, false);
                    e.load(WordAddr(0)).unwrap();
                    e.suspend().unwrap();
                },
                100,
                300,
            ),
            // The TMCAM is full before the run, and one spilled store sits
            // inside it: every line of the run spills, and one word
            // forwards from the side log.
            RunCase::new(
                "spill",
                |e| {
                    e.begin_spill();
                    fill_tmcam(e);
                    e.store(WordAddr(2100), 6).unwrap();
                },
                2048,
                300,
            ),
        ];
        let zec12_cases = [RunCase::new("constrained", |e| e.begin_hw(false, true), 100, 20)];
        let mut checked = 0;
        for p in Platform::ALL {
            let extra: &[RunCase] = match p {
                Platform::Power8 => &power8_cases,
                Platform::Zec12 => &zec12_cases,
                _ => &[],
            };
            for case in cases.iter().chain(extra) {
                for capture in [false, true] {
                    let (run, words) = case.outcomes(p, capture);
                    assert_eq!(run, words, "{p:?}, {}, capture {capture}", case.name);
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 2 * (12 * 4 + 4 + 1));

        // The cases reach the paths they are named for.
        let outcome = |p, name| {
            let all = cases.iter().chain(&power8_cases).chain(&zec12_cases);
            all.filter(|c| c.name == name).map(|c| c.outcomes(p, true).0).next().unwrap()
        };
        let tmcam = outcome(Platform::Power8, "hardware, over the TMCAM");
        assert_eq!((tmcam.result, tmcam.failed_at), (Err(AbortCause::CapacityRead), Some(64 * 16)));
        let faulted = outcome(Platform::IntelCore, "hardware, access faults");
        assert_eq!(faulted.result, Err(AbortCause::Restriction));
        assert!(faulted.failed_at.is_some_and(|i| i > 0), "{:?}", faulted.failed_at);
        let forwarded = outcome(Platform::IntelCore, "hardware, forwarding");
        assert_eq!(&forwarded.values[3..6], [3 * 103 + 1, 7, 3 * 105 + 1]);
        assert!(outcome(Platform::IntelCore, "hardware").read_lines.len() > 300 / 8, "prefetched");
        let spill = outcome(Platform::Power8, "spill");
        assert_eq!((spill.result, spill.values[52]), (Ok(()), 6));
        assert_eq!(spill.spilled_lines.len(), 300 / 16 + 1);
        assert_eq!(outcome(Platform::Power8, "rollback-only").tracker, (0, 0));
        assert_eq!(outcome(Platform::Power8, "suspended").read_lines, [LineId(0)]);
        assert_eq!(outcome(Platform::IntelCore, "irrevocable").read_lines.len(), 300 / 8 + 1);
        assert!(outcome(Platform::IntelCore, "irrevocable, untraced").read_lines.is_empty());
        let stored = outcome(Platform::Zec12, "hardware, lines with and without stores");
        assert_eq!([stored.values[13], stored.values[70], stored.values[143]], [11, 12, 13]);
        assert_eq!(stored.values[14], 3 * 204 + 1);
        let doomed = outcome(Platform::IntelCore, "hardware, doomed");
        assert_eq!((doomed.result, doomed.failed_at), (Err(AbortCause::ConflictTxLoad), Some(0)));
        assert_eq!(outcome(Platform::IntelCore, "hardware, doomed, empty").result, Ok(()));
        // Pacing crossed quantum boundaries, and every charge was scaled by
        // a fractional SMT slowdown.
        let paced = outcome(Platform::IntelCore, "hardware, paced");
        assert!(paced.pacing.0 > 0, "{:?}", paced.pacing);
        let slowdown = cases.iter().find(|c| c.paced).unwrap().engine(Platform::IntelCore, false);
        assert_eq!(slowdown.smt_slowdown.get(), Some(2.0 / 1.28));
    }

    #[test]
    fn take_stats_stamps_cycles() {
        let mut e = engine(ExecMode::Hardware);
        e.begin_hw(false, false);
        e.load(WordAddr(0)).unwrap();
        e.commit_hw().unwrap();
        let s = e.take_stats();
        assert!(s.cycles > 0);
        assert_eq!(s.hw_commits, 1);
    }
}

//! Simulated shared memory with line-granular conflict detection.
//!
//! All four HTM systems in the paper implement conflict detection on top of
//! their cache coherence protocols: the hardware tracks, per cache line,
//! which transactions have read it and which transaction (at most one) has
//! speculatively written it, and a coherence request that would violate that
//! state aborts a transaction. [`TxMemory`] models exactly that state:
//!
//! * an arena of 64-bit words (the simulated RAM),
//! * a *line table* with one entry per conflict-detection line holding a
//!   reader bitmask (up to [`MAX_SLOTS`] hardware threads) and a writer slot,
//! * a status word per hardware thread ("slot") through which transactions
//!   are *doomed* (asynchronously aborted) by conflicting accesses.
//!
//! Speculative stores are buffered by the transaction engine (in
//! `htm-runtime`) and only flushed to the arena at commit, so memory always
//! holds pre-transactional values for in-flight lines — which is what makes
//! requester-wins resolution safe: a reader that dooms a writer can
//! immediately read the committed value from the arena.
//!
//! # Opacity
//!
//! A doomed ("zombie") transaction must never observe a mix of pre- and
//! post-commit values, or benchmark code could loop or index out of bounds.
//! The protocol guarantees this: a committing transaction doomed every
//! conflicting reader *before* it flushes (dooms happen at access time,
//! flushes at commit), and the engine re-checks its own doom flag *after*
//! every value read. Therefore if a read ever returns a post-flush value,
//! the doom necessarily precedes the read and the re-check aborts the
//! transaction before the value escapes.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering::SeqCst};

use crate::abort::AbortCause;
use crate::addr::{Geometry, LineId, WordAddr};
use crate::coop::Wait;

/// Maximum number of hardware-thread slots (bounded by the reader bitmask).
pub const MAX_SLOTS: usize = 64;

/// Number of spin iterations after which the simulator assumes a protocol
/// deadlock and panics (a bug, not a benchmark condition).
const SPIN_LIMIT: u64 = 1 << 33;

/// A free-running conflict-protocol spin yields its OS thread once every
/// this many rounds.
const SPIN_YIELD_EVERY: u64 = 1024;

/// 64-bit FNV-1a parameters of [`TxMemory::digest`].
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Identifier of a hardware-thread slot participating in transactions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SlotId(pub u8);

impl SlotId {
    #[inline]
    fn mask(self) -> u64 {
        1u64 << self.0
    }
    #[inline]
    fn writer_tag(self) -> u32 {
        self.0 as u32 + 1
    }
}

/// How a conflict between a requesting access and an existing owner is
/// resolved.
///
/// All four real systems behave (to a first approximation) as
/// *requester-wins*: the transaction that receives the invalidating
/// coherence request is the one that aborts. `RequesterLoses` (self-abort on
/// conflict) is provided as an ablation (`htm-exp run ablation_policy`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ConflictPolicy {
    /// The requesting access dooms the current owner (hardware-like).
    #[default]
    RequesterWins,
    /// The requesting access aborts its own transaction.
    RequesterLoses,
}

/// Slot status states (low 8 bits); a doomed status carries the encoded
/// [`AbortCause`] in bits 8+.
const INACTIVE: u32 = 0;
const ACTIVE: u32 = 1;
const COMMITTING: u32 = 2;
const DOOMED: u32 = 3;
const STATE_MASK: u32 = 0xff;

#[inline]
fn doomed_status(cause: AbortCause) -> u32 {
    DOOMED | (cause.encode() << 8)
}

/// Blame-word layout: bit 0 = record valid, bit 1 = aggressor slot present,
/// bits 2..10 = aggressor slot, bits 32..64 = conflict line.
const BLAME_VALID: u64 = 1;
const BLAME_HAS_AGGRESSOR: u64 = 1 << 1;

/// Outcome of an attempt to doom another slot's transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DoomOutcome {
    /// We transitioned the victim from Active to Doomed.
    Doomed,
    /// The victim was already doomed by someone else.
    AlreadyDoomed,
    /// The victim is mid-commit and can no longer be aborted; the caller
    /// must wait for it to release its lines.
    Committing,
    /// The slot has no live transaction (a stale line-table bit).
    Inactive,
}

/// The simulated shared memory: word arena + conflict-detection line table +
/// per-slot transaction status.
///
/// One `TxMemory` is created per experiment run, parameterised with the
/// platform's conflict-detection [`Geometry`]. It is shared across worker
/// threads behind an `Arc` (all state is atomic).
///
/// The line table is two parallel arrays indexed by [`LineId`] rather than
/// one array of `(readers, writer)` structs: the struct pads to 16 bytes,
/// the split layout costs 12 bytes per line.
pub struct TxMemory {
    words: Vec<AtomicU64>,
    /// Per-line reader bitmask (bit `s` = slot `s` has the line in its
    /// read set).
    readers: Vec<AtomicU64>,
    /// Per-line writer tag: 0 = unowned, `s + 1` = owned by slot `s`.
    writers: Vec<AtomicU32>,
    slots: Vec<AtomicU32>,
    /// Per-slot blame word for the abort-blame analyzer: who doomed this
    /// slot last, and on which line (see [`TxMemory::blame_of`]).
    blame: Vec<AtomicU64>,
    geometry: Geometry,
    /// Test-only sabotage switch: when set, writers skip dooming concurrent
    /// readers, deliberately breaking conflict detection so the runtime
    /// certifier can be shown to catch real serializability violations.
    test_skip_reader_doom: AtomicBool,
    /// Test-only sabotage switch: when set, software commits skip bumping
    /// the hybrid commit epoch, so concurrent soft readers can observe torn
    /// write-backs (an opacity bug the model checker must catch).
    test_skip_epoch_bump: AtomicBool,
    /// Test-only sabotage switch: when set, POWER8 ROT commits publish
    /// their write buffer to the arena *before* validating their soft read
    /// log, leaking dirty values on validation failure (a model-checker
    /// seeded bug).
    test_early_rot_publish: AtomicBool,
}

impl std::fmt::Debug for TxMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxMemory")
            .field("words", &self.words.len())
            .field("lines", &self.readers.len())
            .field("geometry", &self.geometry)
            .finish()
    }
}

impl TxMemory {
    /// Creates a memory of `words` 64-bit words with the given
    /// conflict-detection geometry.
    ///
    /// # Panics
    ///
    /// Panics if `words` is zero.
    pub fn new(words: u32, geometry: Geometry) -> TxMemory {
        assert!(words > 0, "memory must have at least one word");
        let mut w = Vec::with_capacity(words as usize);
        w.resize_with(words as usize, || AtomicU64::new(0));
        let nlines = geometry.lines_for(words);
        let mut readers = Vec::with_capacity(nlines);
        readers.resize_with(nlines, || AtomicU64::new(0));
        let mut writers = Vec::with_capacity(nlines);
        writers.resize_with(nlines, || AtomicU32::new(0));
        let mut slots = Vec::with_capacity(MAX_SLOTS);
        slots.resize_with(MAX_SLOTS, || AtomicU32::new(INACTIVE));
        let mut blame = Vec::with_capacity(MAX_SLOTS);
        blame.resize_with(MAX_SLOTS, || AtomicU64::new(0));
        TxMemory {
            words: w,
            readers,
            writers,
            slots,
            blame,
            geometry,
            test_skip_reader_doom: AtomicBool::new(false),
            test_skip_epoch_bump: AtomicBool::new(false),
            test_early_rot_publish: AtomicBool::new(false),
        }
    }

    /// Deliberately disables writer-dooms-readers conflict detection.
    ///
    /// Certifier tests flip this on to prove that a broken conflict policy
    /// (lost updates, non-serializable histories) is detected; it must never
    /// be set outside tests.
    #[doc(hidden)]
    pub fn set_test_skip_reader_doom(&self, on: bool) {
        self.test_skip_reader_doom.store(on, SeqCst);
    }

    /// Deliberately skips the hybrid-epoch bump around software write-backs
    /// (model-checker seeded bug #2); must never be set outside tests.
    #[doc(hidden)]
    pub fn set_test_skip_epoch_bump(&self, on: bool) {
        self.test_skip_epoch_bump.store(on, SeqCst);
    }

    /// Whether [`TxMemory::set_test_skip_epoch_bump`] is active.
    #[doc(hidden)]
    pub fn test_skip_epoch_bump(&self) -> bool {
        self.test_skip_epoch_bump.load(SeqCst)
    }

    /// Deliberately publishes ROT write buffers before validation
    /// (model-checker seeded bug #3); must never be set outside tests.
    #[doc(hidden)]
    pub fn set_test_early_rot_publish(&self, on: bool) {
        self.test_early_rot_publish.store(on, SeqCst);
    }

    /// Whether [`TxMemory::set_test_early_rot_publish`] is active.
    #[doc(hidden)]
    pub fn test_early_rot_publish(&self) -> bool {
        self.test_early_rot_publish.load(SeqCst)
    }

    /// FNV-1a digest over the whole word arena.
    ///
    /// Used by the differential oracle (parallel vs sequential) and the
    /// determinism/replay tests to compare final memory states cheaply.
    pub fn digest(&self) -> u64 {
        self.digest_excluding(&[])
    }

    /// FNV-1a digest over the arena with the given words hashed as zero —
    /// for callers whose arenas contain instrumentation slots (e.g. a
    /// lock's simulated-time stamp) that are timing, not program data.
    pub fn digest_excluding(&self, skip: &[WordAddr]) -> u64 {
        let mut skip: Vec<usize> = skip.iter().map(|a| a.0 as usize).collect();
        skip.sort_unstable();
        skip.dedup();
        let mut skip = skip.into_iter().peekable();
        let mut h = FNV_OFFSET;
        // Hashing a zero word is `h = (h ^ 0) * FNV_PRIME`, so a run of
        // `zeros` of them is one multiply by `FNV_PRIME^zeros`.
        let mut zeros = 0u32;
        for (i, w) in self.words.iter().enumerate() {
            let v = if skip.next_if_eq(&i).is_some() { 0 } else { w.load(SeqCst) };
            if v == 0 {
                zeros += 1;
            } else {
                h = (h.wrapping_mul(FNV_PRIME.wrapping_pow(zeros)) ^ v).wrapping_mul(FNV_PRIME);
                zeros = 0;
            }
        }
        h.wrapping_mul(FNV_PRIME.wrapping_pow(zeros))
    }

    /// The conflict-detection geometry this memory was built with.
    #[inline]
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Number of words in the arena.
    #[inline]
    pub fn len_words(&self) -> u32 {
        self.words.len() as u32
    }

    /// Number of conflict-detection lines covering the arena; every line id
    /// of an arena word is below it.
    #[inline]
    pub fn len_lines(&self) -> usize {
        self.readers.len()
    }

    /// Maps a word address to its conflict-detection line.
    #[inline]
    pub fn line_of(&self, addr: WordAddr) -> LineId {
        self.geometry.line_of(addr)
    }

    #[inline]
    fn readers(&self, line: LineId) -> &AtomicU64 {
        &self.readers[line.0 as usize]
    }

    #[inline]
    fn writer(&self, line: LineId) -> &AtomicU32 {
        &self.writers[line.0 as usize]
    }

    #[inline]
    fn word(&self, addr: WordAddr) -> &AtomicU64 {
        &self.words[addr.0 as usize]
    }

    // ------------------------------------------------------------------
    // Plain word access (sequential mode, commit flush, verification)
    // ------------------------------------------------------------------

    /// Reads a word directly, bypassing conflict detection.
    ///
    /// Used by sequential (non-HTM) execution, by commit flushes, and by
    /// result verification after all workers have joined.
    #[inline]
    pub fn read_word(&self, addr: WordAddr) -> u64 {
        crate::coop::access(self.line_of(addr).0 as u64, false);
        self.word(addr).load(SeqCst)
    }

    /// Writes a word directly, bypassing conflict detection.
    ///
    /// See [`TxMemory::read_word`]; for non-transactional stores *during* a
    /// concurrent run use [`TxMemory::nontx_store`], which dooms conflicting
    /// transactions the way real coherence traffic would.
    #[inline]
    pub fn write_word(&self, addr: WordAddr, value: u64) {
        crate::coop::access(self.line_of(addr).0 as u64, true);
        self.word(addr).store(value, SeqCst);
    }

    // ------------------------------------------------------------------
    // Slot status management
    // ------------------------------------------------------------------

    /// Marks `slot` as running a transaction.
    ///
    /// # Panics
    ///
    /// Panics if the slot already has a live transaction (an engine bug).
    pub fn begin_slot(&self, slot: SlotId) {
        self.blame[slot.0 as usize].store(0, SeqCst);
        let prev = self.slots[slot.0 as usize].swap(ACTIVE, SeqCst);
        assert_eq!(prev & STATE_MASK, INACTIVE, "slot {slot:?} began while busy");
    }

    /// Returns the doom cause if `slot`'s transaction has been doomed.
    #[inline]
    pub fn doom_cause(&self, slot: SlotId) -> Option<AbortCause> {
        let s = self.slots[slot.0 as usize].load(SeqCst);
        if s & STATE_MASK == DOOMED {
            Some(AbortCause::decode(s >> 8))
        } else {
            None
        }
    }

    /// Attempts to doom the transaction on `victim` without recording blame.
    pub fn try_doom(&self, victim: SlotId, cause: AbortCause) -> DoomOutcome {
        self.doom_inner(victim, cause, 0)
    }

    /// Attempts to doom the transaction on `victim`, recording who did it
    /// and on which line for the abort-blame analyzer (retrieved with
    /// [`TxMemory::blame_of`]).
    pub fn try_doom_from(
        &self,
        victim: SlotId,
        cause: AbortCause,
        aggressor: Option<SlotId>,
        line: LineId,
    ) -> DoomOutcome {
        let blame = BLAME_VALID
            | (line.0 as u64) << 32
            | match aggressor {
                Some(a) => BLAME_HAS_AGGRESSOR | (a.0 as u64) << 2,
                None => 0,
            };
        self.doom_inner(victim, cause, blame)
    }

    fn doom_inner(&self, victim: SlotId, cause: AbortCause, blame: u64) -> DoomOutcome {
        let status = &self.slots[victim.0 as usize];
        loop {
            let s = status.load(SeqCst);
            match s & STATE_MASK {
                ACTIVE => {
                    if status.compare_exchange(s, doomed_status(cause), SeqCst, SeqCst).is_ok() {
                        if blame != 0 {
                            // Written after the doom CAS: a victim polling
                            // its status in this tiny window sees no blame
                            // (acceptable — the record is diagnostic only).
                            self.blame[victim.0 as usize].store(blame, SeqCst);
                        }
                        return DoomOutcome::Doomed;
                    }
                }
                DOOMED => return DoomOutcome::AlreadyDoomed,
                COMMITTING => return DoomOutcome::Committing,
                INACTIVE => return DoomOutcome::Inactive,
                other => unreachable!("corrupt slot status {other:#x}"),
            }
        }
    }

    /// Returns the blame recorded when `victim` was last doomed (since its
    /// last [`TxMemory::begin_slot`]): the aggressor's slot, if it had one,
    /// and the conflict line. `None` when the doom carried no blame (e.g.
    /// [`TxMemory::doom_all_active`]) or the slot was never doomed.
    pub fn blame_of(&self, victim: SlotId) -> Option<(Option<SlotId>, LineId)> {
        let b = self.blame[victim.0 as usize].load(SeqCst);
        if b & BLAME_VALID == 0 {
            return None;
        }
        let aggressor =
            if b & BLAME_HAS_AGGRESSOR != 0 { Some(SlotId(((b >> 2) & 0xff) as u8)) } else { None };
        Some((aggressor, LineId((b >> 32) as u32)))
    }

    /// Transitions `slot` from Active to Committing.
    ///
    /// # Errors
    ///
    /// Returns the doom cause if the transaction was doomed before it could
    /// commit (the caller must roll back).
    pub fn start_commit(&self, slot: SlotId) -> Result<(), AbortCause> {
        let status = &self.slots[slot.0 as usize];
        match status.compare_exchange(ACTIVE, COMMITTING, SeqCst, SeqCst) {
            Ok(_) => Ok(()),
            Err(s) => {
                assert_eq!(s & STATE_MASK, DOOMED, "commit from non-active non-doomed state");
                Err(AbortCause::decode(s >> 8))
            }
        }
    }

    /// Marks the slot's transaction finished (after commit-flush or
    /// rollback); the slot must have released all its lines first.
    pub fn finish_slot(&self, slot: SlotId) {
        self.slots[slot.0 as usize].store(INACTIVE, SeqCst);
    }

    /// Spins until no slot is mid-commit (`Committing`), ignoring `me`.
    ///
    /// Software-commit paths (the hybrid-TM STM fallback) call this after
    /// acquiring the sequence lock: a hardware transaction that passed
    /// `start_commit` before the lock CAS doomed the active subscribers can
    /// no longer be aborted, and its flush must not land in the middle of
    /// the software transaction's validation. Doomed transactions cannot
    /// enter `Committing`, so once this returns no new committer can appear
    /// while the caller holds the lock.
    pub fn quiesce_committers(&self, me: Option<SlotId>) {
        let mut wait = Wait::new(1);
        for (i, status) in self.slots.iter().enumerate() {
            if me.is_some_and(|s| s.0 as usize == i) {
                continue;
            }
            while status.load(SeqCst) & STATE_MASK == COMMITTING {
                wait.round();
            }
        }
    }

    // ------------------------------------------------------------------
    // Transactional line protocol
    // ------------------------------------------------------------------

    /// Acquires *read* permission on `line` for `slot`.
    ///
    /// Sets the reader bit, then resolves any conflict with a concurrent
    /// writer according to `policy`. On success the caller may read words of
    /// the line from the arena, but must re-check [`TxMemory::doom_cause`]
    /// after each value read (see the module docs on opacity).
    ///
    /// # Errors
    ///
    /// Returns the abort cause if the calling transaction loses the conflict
    /// or was doomed while waiting.
    pub fn tx_read_line(
        &self,
        slot: SlotId,
        line: LineId,
        policy: ConflictPolicy,
    ) -> Result<(), AbortCause> {
        crate::coop::access(line.0 as u64, false);
        let (readers, writer) = (self.readers(line), self.writer(line));
        readers.fetch_or(slot.mask(), SeqCst);
        let mut wait = Wait::new(SPIN_YIELD_EVERY);
        loop {
            if let Some(cause) = self.doom_cause(slot) {
                return Err(cause);
            }
            let w = writer.load(SeqCst);
            if w == 0 || w == slot.writer_tag() {
                return Ok(());
            }
            let owner = SlotId((w - 1) as u8);
            match policy {
                ConflictPolicy::RequesterLoses => return Err(AbortCause::ConflictTxStore),
                ConflictPolicy::RequesterWins => {
                    match self.try_doom_from(owner, AbortCause::ConflictTxLoad, Some(slot), line) {
                        DoomOutcome::Doomed | DoomOutcome::AlreadyDoomed => {
                            // The owner's stores are buffered; the arena still
                            // holds committed values, so reading is safe even
                            // before the owner rolls back.
                            return Ok(());
                        }
                        DoomOutcome::Committing => {
                            // Wait for the commit flush to finish, then read the
                            // committed value.
                            self.spin(&mut wait);
                        }
                        DoomOutcome::Inactive => {
                            // Stale tag about to be cleared; retry.
                            self.spin(&mut wait);
                        }
                    }
                }
            }
        }
    }

    /// Acquires *write* ownership of `line` for `slot`, dooming conflicting
    /// readers and writers according to `policy`.
    ///
    /// On success the caller buffers its store privately; the arena is not
    /// modified until commit.
    ///
    /// # Errors
    ///
    /// Returns the abort cause if the calling transaction loses the conflict
    /// or was doomed while waiting.
    pub fn tx_claim_line(
        &self,
        slot: SlotId,
        line: LineId,
        policy: ConflictPolicy,
    ) -> Result<(), AbortCause> {
        crate::coop::access(line.0 as u64, true);
        let (readers, writer) = (self.readers(line), self.writer(line));
        let mut wait = Wait::new(SPIN_YIELD_EVERY);
        loop {
            if let Some(cause) = self.doom_cause(slot) {
                return Err(cause);
            }
            match writer.compare_exchange(0, slot.writer_tag(), SeqCst, SeqCst) {
                Ok(_) => break,
                Err(w) if w == slot.writer_tag() => break,
                Err(w) => {
                    let owner = SlotId((w - 1) as u8);
                    match policy {
                        ConflictPolicy::RequesterLoses => {
                            return Err(AbortCause::ConflictTxStore);
                        }
                        ConflictPolicy::RequesterWins => {
                            match self.try_doom_from(
                                owner,
                                AbortCause::ConflictTxStore,
                                Some(slot),
                                line,
                            ) {
                                DoomOutcome::Doomed
                                | DoomOutcome::AlreadyDoomed
                                | DoomOutcome::Committing
                                | DoomOutcome::Inactive => {
                                    // In every case the owner will release
                                    // the line (rollback or commit-finish);
                                    // wait and retry the claim.
                                    self.spin(&mut wait);
                                }
                            }
                        }
                    }
                }
            }
        }
        // Ownership acquired: doom all other readers. New readers will see
        // our writer tag and resolve against us, so claim-then-scan plus
        // the readers' bit-then-check order misses no conflict.
        if self.test_skip_reader_doom.load(SeqCst) {
            return Ok(());
        }
        let others = readers.load(SeqCst) & !slot.mask();
        if others != 0 {
            for victim in BitIter(others) {
                // Committing/inactive readers linearize before our commit;
                // no need to wait for them.
                let _ = self.try_doom_from(victim, AbortCause::ConflictTxStore, Some(slot), line);
            }
        }
        Ok(())
    }

    /// Passively adds `line` to `slot`'s monitored read set *if no other
    /// transaction owns it for write*; never dooms anyone.
    ///
    /// Models a hardware prefetch pulling a line into the L1 during a
    /// transaction: the line becomes part of the monitored footprint (so a
    /// later remote store aborts this transaction — the paper's kmeans
    /// finding on Intel Core), but the prefetch itself is dropped if the
    /// line is speculatively owned elsewhere.
    ///
    /// Returns whether the line was added. A line past the end of the arena
    /// (a stream running off its last line) is never added. The caller must
    /// only use this for lines not already in its read or write set.
    pub fn try_read_line_passive(&self, slot: SlotId, line: LineId) -> bool {
        if line.0 as usize >= self.len_lines() {
            return false;
        }
        let (readers, writer) = (self.readers(line), self.writer(line));
        readers.fetch_or(slot.mask(), SeqCst);
        let w = writer.load(SeqCst);
        if w == 0 || w == slot.writer_tag() {
            true
        } else {
            readers.fetch_and(!slot.mask(), SeqCst);
            false
        }
    }

    /// Releases write ownership of `line` if held by `slot` (commit finish
    /// or rollback).
    pub fn release_writer(&self, line: LineId, slot: SlotId) {
        let _ = self.writer(line).compare_exchange(slot.writer_tag(), 0, SeqCst, SeqCst);
    }

    /// Clears `slot`'s reader bit on `line` (commit finish or rollback).
    pub fn clear_reader(&self, line: LineId, slot: SlotId) {
        self.readers(line).fetch_and(!slot.mask(), SeqCst);
    }

    /// Returns the slot currently owning `line` for write, if any.
    pub fn writer_of(&self, line: LineId) -> Option<SlotId> {
        match self.writer(line).load(SeqCst) {
            0 => None,
            w => Some(SlotId((w - 1) as u8)),
        }
    }

    /// Returns the reader bitmask of `line` (testing/diagnostics).
    pub fn readers_of(&self, line: LineId) -> u64 {
        self.readers(line).load(SeqCst)
    }

    // ------------------------------------------------------------------
    // Non-transactional (coherence-visible) accesses
    // ------------------------------------------------------------------

    /// Non-transactional load of `addr` by `by` (or by non-transactional
    /// code if `by` is `None`), dooming any conflicting transactional
    /// *writer* the way a coherence read request would.
    ///
    /// Used by the global-lock fallback path, by POWER8 suspended-mode code
    /// and by lock-free algorithms running alongside transactions.
    #[inline]
    pub fn nontx_load(&self, by: Option<SlotId>, addr: WordAddr) -> u64 {
        let line = self.line_of(addr);
        crate::coop::access(line.0 as u64, false);
        self.doom_writer(line, by);
        self.word(addr).load(SeqCst)
    }

    /// Non-transactional store to `addr` by `by`, dooming all conflicting
    /// transactional readers and writers.
    pub fn nontx_store(&self, by: Option<SlotId>, addr: WordAddr, value: u64) {
        crate::coop::access(self.line_of(addr).0 as u64, true);
        self.write_nontx(self.line_of(addr), by, || self.word(addr).store(value, SeqCst));
    }

    /// Non-transactional compare-and-swap on `addr` by `by`.
    ///
    /// # Errors
    ///
    /// Returns the observed value if it differed from `expected`.
    pub fn nontx_cas(
        &self,
        by: Option<SlotId>,
        addr: WordAddr,
        expected: u64,
        new: u64,
    ) -> Result<u64, u64> {
        crate::coop::access(self.line_of(addr).0 as u64, true);
        self.write_nontx(self.line_of(addr), by, || {
            self.word(addr).compare_exchange(expected, new, SeqCst, SeqCst)
        })
    }

    /// Non-transactional fetch-add on `addr` by `by`, returning the previous
    /// value.
    pub fn nontx_fetch_add(&self, by: Option<SlotId>, addr: WordAddr, delta: u64) -> u64 {
        crate::coop::access(self.line_of(addr).0 as u64, true);
        self.write_nontx(self.line_of(addr), by, || self.word(addr).fetch_add(delta, SeqCst))
    }

    /// Performs `write` to `line` as an invalidating coherence request
    /// would: waits out a committing writer, dooms every transaction (other
    /// than `by`'s) with `line` in its footprint, writes, and dooms the
    /// readers again.
    ///
    /// A reader sets its bit before it reads the value, so the sweep after
    /// the write catches every reader that arrived after the first sweep
    /// and may have read the old value; later readers read the new one.
    /// Without it, a transaction that subscribed to the global lock between
    /// a fallback's first sweep and its lock CAS saw the lock free and
    /// committed an update the irrevocable section then overwrote.
    fn write_nontx<R>(&self, line: LineId, by: Option<SlotId>, write: impl FnOnce() -> R) -> R {
        let readers = self.readers(line);
        self.doom_writer(line, by);
        let skip = by.map(|s| s.mask()).unwrap_or(0);
        let doom_readers = || {
            for victim in BitIter(readers.load(SeqCst) & !skip) {
                let _ = self.try_doom_from(victim, AbortCause::ConflictNonTx, by, line);
            }
        };
        doom_readers();
        let result = write();
        doom_readers();
        result
    }

    /// Dooms the transaction owning `line` for write, unless the line has
    /// no writer or `by` owns it, the way a coherence request for the line
    /// would. A committing writer is waited out, so the caller's access
    /// lands after its flush. The unowned case is the common one and stays
    /// inline.
    #[inline]
    fn doom_writer(&self, line: LineId, by: Option<SlotId>) {
        let w = self.writer(line).load(SeqCst);
        if w != 0 && Some(w) != by.map(SlotId::writer_tag) {
            self.doom_writer_contended(line, by, w);
        }
    }

    /// [`TxMemory::doom_writer`] once the line was seen owned by writer tag
    /// `w` of another slot.
    #[cold]
    fn doom_writer_contended(&self, line: LineId, by: Option<SlotId>, mut w: u32) {
        let mut wait = Wait::new(SPIN_YIELD_EVERY);
        loop {
            let owner = SlotId((w - 1) as u8);
            match self.try_doom_from(owner, AbortCause::ConflictNonTx, by, line) {
                DoomOutcome::Doomed | DoomOutcome::AlreadyDoomed | DoomOutcome::Inactive => return,
                DoomOutcome::Committing => self.spin(&mut wait),
            }
            w = self.writer(line).load(SeqCst);
            if w == 0 || Some(w) == by.map(SlotId::writer_tag) {
                return;
            }
        }
    }

    /// Dooms every live transaction (a big-hammer invalidation, available
    /// for modelling events that wipe all speculation — e.g. OS preemption
    /// or machine-wide barriers; the ordinary global-lock fallback does
    /// *not* need it, since irrevocable accesses doom conflicting
    /// transactions at line granularity).
    pub fn doom_all_active(&self, cause: AbortCause) {
        for slot in 0..MAX_SLOTS {
            let _ = self.try_doom(SlotId(slot as u8), cause);
        }
    }

    #[inline]
    fn spin(&self, wait: &mut Wait) {
        let spins = wait.round();
        assert!(spins < SPIN_LIMIT, "conflict-protocol deadlock (spin limit exceeded)");
    }
}

/// Iterator over set bit positions of a `u64`, yielding [`SlotId`]s.
struct BitIter(u64);

impl Iterator for BitIter {
    type Item = SlotId;
    fn next(&mut self) -> Option<SlotId> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(SlotId(bit as u8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Geometry;
    use std::sync::Arc;

    fn mem() -> TxMemory {
        TxMemory::new(1024, Geometry::new(64))
    }

    #[test]
    fn plain_read_write() {
        let m = mem();
        let a = WordAddr(10);
        assert_eq!(m.read_word(a), 0);
        m.write_word(a, 42);
        assert_eq!(m.read_word(a), 42);
    }

    #[test]
    fn slot_lifecycle() {
        let m = mem();
        let s = SlotId(0);
        m.begin_slot(s);
        assert_eq!(m.doom_cause(s), None);
        assert!(m.start_commit(s).is_ok());
        m.finish_slot(s);
    }

    #[test]
    #[should_panic(expected = "began while busy")]
    fn double_begin_panics() {
        let m = mem();
        m.begin_slot(SlotId(1));
        m.begin_slot(SlotId(1));
    }

    #[test]
    fn doom_prevents_commit() {
        let m = mem();
        let s = SlotId(2);
        m.begin_slot(s);
        assert_eq!(m.try_doom(s, AbortCause::ConflictNonTx), DoomOutcome::Doomed);
        assert_eq!(m.doom_cause(s), Some(AbortCause::ConflictNonTx));
        assert_eq!(m.start_commit(s), Err(AbortCause::ConflictNonTx));
        m.finish_slot(s);
    }

    #[test]
    fn doom_outcomes() {
        let m = mem();
        let s = SlotId(3);
        assert_eq!(m.try_doom(s, AbortCause::ConflictTxStore), DoomOutcome::Inactive);
        m.begin_slot(s);
        assert_eq!(m.try_doom(s, AbortCause::ConflictTxStore), DoomOutcome::Doomed);
        assert_eq!(m.try_doom(s, AbortCause::ConflictTxLoad), DoomOutcome::AlreadyDoomed);
        // Doom cause is first-writer-wins.
        assert_eq!(m.doom_cause(s), Some(AbortCause::ConflictTxStore));
        m.finish_slot(s);

        let t = SlotId(4);
        m.begin_slot(t);
        m.start_commit(t).unwrap();
        assert_eq!(m.try_doom(t, AbortCause::ConflictTxStore), DoomOutcome::Committing);
        m.finish_slot(t);
    }

    #[test]
    fn blame_records_aggressor_and_line() {
        let m = mem();
        let (r, w) = (SlotId(0), SlotId(1));
        m.begin_slot(r);
        m.begin_slot(w);
        let line = m.line_of(WordAddr(100));
        m.tx_read_line(r, line, ConflictPolicy::RequesterWins).unwrap();
        assert_eq!(m.blame_of(r), None, "no blame before any doom");
        m.tx_claim_line(w, line, ConflictPolicy::RequesterWins).unwrap();
        assert_eq!(m.blame_of(r), Some((Some(w), line)));
        assert_eq!(m.blame_of(w), None);
        m.finish_slot(r);
        m.finish_slot(w);
        // A fresh begin clears the record.
        m.begin_slot(r);
        assert_eq!(m.blame_of(r), None);
        m.finish_slot(r);
    }

    #[test]
    fn blame_from_nontx_access_has_no_aggressor() {
        let m = mem();
        let w = SlotId(3);
        m.begin_slot(w);
        let addr = WordAddr(200);
        m.tx_claim_line(w, m.line_of(addr), ConflictPolicy::RequesterWins).unwrap();
        m.nontx_store(None, addr, 1);
        assert_eq!(m.blame_of(w), Some((None, m.line_of(addr))));
        m.finish_slot(w);
    }

    #[test]
    fn blame_is_first_doom_wins() {
        let m = mem();
        let v = SlotId(0);
        m.begin_slot(v);
        let l1 = LineId(1);
        let l2 = LineId(2);
        assert_eq!(
            m.try_doom_from(v, AbortCause::ConflictTxStore, Some(SlotId(1)), l1),
            DoomOutcome::Doomed
        );
        assert_eq!(
            m.try_doom_from(v, AbortCause::ConflictTxLoad, Some(SlotId(2)), l2),
            DoomOutcome::AlreadyDoomed
        );
        assert_eq!(m.blame_of(v), Some((Some(SlotId(1)), l1)));
        m.finish_slot(v);
    }

    #[test]
    fn read_read_sharing_is_conflict_free() {
        let m = mem();
        let (a, b) = (SlotId(0), SlotId(1));
        m.begin_slot(a);
        m.begin_slot(b);
        let line = m.line_of(WordAddr(100));
        assert!(m.tx_read_line(a, line, ConflictPolicy::RequesterWins).is_ok());
        assert!(m.tx_read_line(b, line, ConflictPolicy::RequesterWins).is_ok());
        assert_eq!(m.doom_cause(a), None);
        assert_eq!(m.doom_cause(b), None);
    }

    #[test]
    fn writer_dooms_readers() {
        let m = mem();
        let (r, w) = (SlotId(0), SlotId(1));
        m.begin_slot(r);
        m.begin_slot(w);
        let line = m.line_of(WordAddr(100));
        m.tx_read_line(r, line, ConflictPolicy::RequesterWins).unwrap();
        m.tx_claim_line(w, line, ConflictPolicy::RequesterWins).unwrap();
        assert_eq!(m.doom_cause(r), Some(AbortCause::ConflictTxStore));
        assert_eq!(m.doom_cause(w), None);
    }

    #[test]
    fn reader_dooms_writer_requester_wins() {
        let m = mem();
        let (r, w) = (SlotId(0), SlotId(1));
        m.begin_slot(w);
        m.begin_slot(r);
        let line = m.line_of(WordAddr(100));
        m.tx_claim_line(w, line, ConflictPolicy::RequesterWins).unwrap();
        m.tx_read_line(r, line, ConflictPolicy::RequesterWins).unwrap();
        assert_eq!(m.doom_cause(w), Some(AbortCause::ConflictTxLoad));
        assert_eq!(m.doom_cause(r), None);
    }

    #[test]
    fn reader_self_aborts_requester_loses() {
        let m = mem();
        let (r, w) = (SlotId(0), SlotId(1));
        m.begin_slot(w);
        m.begin_slot(r);
        let line = m.line_of(WordAddr(100));
        m.tx_claim_line(w, line, ConflictPolicy::RequesterLoses).unwrap();
        assert_eq!(
            m.tx_read_line(r, line, ConflictPolicy::RequesterLoses),
            Err(AbortCause::ConflictTxStore)
        );
        assert_eq!(m.doom_cause(w), None);
    }

    #[test]
    fn same_slot_read_own_written_line() {
        let m = mem();
        let s = SlotId(5);
        m.begin_slot(s);
        let line = m.line_of(WordAddr(8));
        m.tx_claim_line(s, line, ConflictPolicy::RequesterWins).unwrap();
        assert!(m.tx_read_line(s, line, ConflictPolicy::RequesterWins).is_ok());
        assert!(m.tx_claim_line(s, line, ConflictPolicy::RequesterWins).is_ok());
        assert_eq!(m.doom_cause(s), None);
    }

    #[test]
    fn false_conflict_from_granularity() {
        // Words 0 and 7 share a 64-byte line: accesses to *different* words
        // must still conflict — the false-conflict mechanism behind the
        // paper's kmeans alignment fix.
        let m = mem();
        let (a, b) = (SlotId(0), SlotId(1));
        m.begin_slot(a);
        m.begin_slot(b);
        m.tx_read_line(a, m.line_of(WordAddr(0)), ConflictPolicy::RequesterWins).unwrap();
        m.tx_claim_line(b, m.line_of(WordAddr(7)), ConflictPolicy::RequesterWins).unwrap();
        assert_eq!(m.doom_cause(a), Some(AbortCause::ConflictTxStore));
    }

    #[test]
    fn fine_granularity_avoids_false_conflict() {
        let m = TxMemory::new(1024, Geometry::new(8));
        let (a, b) = (SlotId(0), SlotId(1));
        m.begin_slot(a);
        m.begin_slot(b);
        m.tx_read_line(a, m.line_of(WordAddr(0)), ConflictPolicy::RequesterWins).unwrap();
        m.tx_claim_line(b, m.line_of(WordAddr(7)), ConflictPolicy::RequesterWins).unwrap();
        assert_eq!(m.doom_cause(a), None, "distinct 8-byte lines must not conflict");
    }

    #[test]
    fn nontx_store_dooms_readers_and_writer() {
        let m = mem();
        let (r, w) = (SlotId(0), SlotId(1));
        m.begin_slot(r);
        m.begin_slot(w);
        let addr = WordAddr(100);
        m.tx_read_line(r, m.line_of(addr), ConflictPolicy::RequesterWins).unwrap();
        m.tx_claim_line(w, m.line_of(addr), ConflictPolicy::RequesterWins).unwrap();
        // The writer's claim already doomed the reader (same line); the
        // non-tx store must also doom the writer.
        m.nontx_store(None, addr, 7);
        assert!(m.doom_cause(r).is_some());
        assert_eq!(m.doom_cause(w), Some(AbortCause::ConflictNonTx));
        assert_eq!(m.read_word(addr), 7);
    }

    #[test]
    fn a_reader_arriving_during_a_nontx_write_is_doomed() {
        // A transaction subscribes to the line after the write's first
        // reader sweep and reads the old value before the write lands; the
        // sweep after the write must still doom it.
        let m = mem();
        let r = SlotId(0);
        let addr = WordAddr(100);
        let line = m.line_of(addr);
        let old = m.write_nontx(line, None, || {
            m.begin_slot(r);
            m.tx_read_line(r, line, ConflictPolicy::RequesterWins).unwrap();
            let old = m.read_word(addr);
            m.word(addr).store(7, SeqCst);
            old
        });
        assert_eq!(old, 0);
        assert_eq!(m.doom_cause(r), Some(AbortCause::ConflictNonTx));
    }

    #[test]
    fn nontx_store_by_self_slot_does_not_doom_self() {
        // POWER8 suspended-mode accesses by the transaction's own thread do
        // not abort the transaction.
        let m = mem();
        let s = SlotId(0);
        m.begin_slot(s);
        let addr = WordAddr(100);
        m.tx_read_line(s, m.line_of(addr), ConflictPolicy::RequesterWins).unwrap();
        m.nontx_store(Some(s), addr, 9);
        assert_eq!(m.doom_cause(s), None);
        assert_eq!(m.read_word(addr), 9);
    }

    #[test]
    fn nontx_load_dooms_only_writer() {
        let m = mem();
        let (r, w) = (SlotId(0), SlotId(1));
        m.begin_slot(r);
        m.begin_slot(w);
        let addr_r = WordAddr(100);
        let addr_w = WordAddr(200);
        m.tx_read_line(r, m.line_of(addr_r), ConflictPolicy::RequesterWins).unwrap();
        m.tx_claim_line(w, m.line_of(addr_w), ConflictPolicy::RequesterWins).unwrap();
        let _ = m.nontx_load(None, addr_r);
        assert_eq!(m.doom_cause(r), None, "read-read never conflicts");
        let _ = m.nontx_load(None, addr_w);
        assert_eq!(m.doom_cause(w), Some(AbortCause::ConflictNonTx));
    }

    #[test]
    fn nontx_cas_success_and_failure() {
        let m = mem();
        let a = WordAddr(50);
        m.write_word(a, 5);
        assert_eq!(m.nontx_cas(None, a, 5, 6), Ok(5));
        assert_eq!(m.nontx_cas(None, a, 5, 7), Err(6));
        assert_eq!(m.read_word(a), 6);
    }

    #[test]
    fn nontx_fetch_add_returns_previous() {
        let m = mem();
        let a = WordAddr(51);
        assert_eq!(m.nontx_fetch_add(None, a, 3), 0);
        assert_eq!(m.nontx_fetch_add(None, a, 4), 3);
        assert_eq!(m.read_word(a), 7);
    }

    #[test]
    fn release_clears_ownership() {
        let m = mem();
        let s = SlotId(0);
        m.begin_slot(s);
        let line = m.line_of(WordAddr(0));
        m.tx_claim_line(s, line, ConflictPolicy::RequesterWins).unwrap();
        assert_eq!(m.writer_of(line), Some(s));
        m.release_writer(line, s);
        assert_eq!(m.writer_of(line), None);
        m.tx_read_line(s, line, ConflictPolicy::RequesterWins).unwrap();
        assert_ne!(m.readers_of(line), 0);
        m.clear_reader(line, s);
        assert_eq!(m.readers_of(line), 0);
    }

    #[test]
    fn passive_read_skips_owned_lines_and_dooms_nobody() {
        let m = mem();
        let (a, b) = (SlotId(0), SlotId(1));
        m.begin_slot(a);
        m.begin_slot(b);
        let free_line = m.line_of(WordAddr(0));
        let owned_line = m.line_of(WordAddr(512));
        m.tx_claim_line(b, owned_line, ConflictPolicy::RequesterWins).unwrap();
        assert!(m.try_read_line_passive(a, free_line), "free line is monitored");
        assert!(!m.try_read_line_passive(a, owned_line), "owned line is skipped");
        assert_eq!(m.doom_cause(b), None, "prefetch must not abort the owner");
        assert_eq!(m.readers_of(owned_line) & 1, 0, "bit rolled back");
        // The passively monitored line now conflicts with a remote store.
        m.tx_claim_line(b, free_line, ConflictPolicy::RequesterWins).unwrap();
        assert_eq!(m.doom_cause(a), Some(AbortCause::ConflictTxStore));
    }

    #[test]
    fn passive_read_past_the_arena_is_dropped() {
        // 1024 words of 64-byte lines: lines 0..128. A stream over the last
        // lines prefetches ids past the end; they are dropped, not indexed.
        let m = mem();
        let s = SlotId(0);
        m.begin_slot(s);
        assert_eq!(m.len_lines(), 128);
        assert_eq!(m.line_of(WordAddr(1023)), LineId(127));
        assert!(m.try_read_line_passive(s, LineId(127)));
        assert!(!m.try_read_line_passive(s, LineId(128)));
        assert!(!m.try_read_line_passive(s, LineId(129)));
        assert!(!m.try_read_line_passive(s, LineId(u32::MAX)));
        m.finish_slot(s);
    }

    #[test]
    fn doom_all_active_dooms_every_live_tx() {
        let m = mem();
        m.begin_slot(SlotId(0));
        m.begin_slot(SlotId(1));
        m.begin_slot(SlotId(2));
        m.start_commit(SlotId(2)).unwrap(); // committing: immune
        m.doom_all_active(AbortCause::ConflictNonTx);
        assert!(m.doom_cause(SlotId(0)).is_some());
        assert!(m.doom_cause(SlotId(1)).is_some());
        assert_eq!(m.doom_cause(SlotId(2)), None, "committing txs cannot be doomed");
    }

    #[test]
    fn digest_tracks_word_contents() {
        let m = mem();
        let d0 = m.digest();
        m.write_word(WordAddr(3), 77);
        let d1 = m.digest();
        assert_ne!(d0, d1, "digest must change when memory changes");
        m.write_word(WordAddr(3), 0);
        assert_eq!(m.digest(), d0, "digest is a pure function of the words");
    }

    #[test]
    fn broken_policy_hook_skips_reader_dooms() {
        let m = mem();
        let (r, w) = (SlotId(0), SlotId(1));
        m.begin_slot(r);
        m.begin_slot(w);
        let line = m.line_of(WordAddr(100));
        m.tx_read_line(r, line, ConflictPolicy::RequesterWins).unwrap();
        m.set_test_skip_reader_doom(true);
        m.tx_claim_line(w, line, ConflictPolicy::RequesterWins).unwrap();
        assert_eq!(m.doom_cause(r), None, "sabotaged writer must leave the reader running");
        m.set_test_skip_reader_doom(false);
        m.finish_slot(r);
        m.release_writer(line, w);
        m.finish_slot(w);
    }

    /// Two threads hammer disjoint lines; no transaction may ever be doomed.
    #[test]
    fn concurrent_disjoint_transactions_never_doom() {
        let m = Arc::new(TxMemory::new(4096, Geometry::new(64)));
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                let slot = SlotId(t);
                // Each thread owns its own 64-byte-aligned region.
                let base = WordAddr(512 * t as u32);
                for _ in 0..2000 {
                    m.begin_slot(slot);
                    let line = m.line_of(base);
                    m.tx_read_line(slot, line, ConflictPolicy::RequesterWins).unwrap();
                    m.tx_claim_line(slot, line, ConflictPolicy::RequesterWins).unwrap();
                    assert_eq!(m.doom_cause(slot), None);
                    m.start_commit(slot).expect("disjoint tx must commit");
                    m.release_writer(line, slot);
                    m.clear_reader(line, slot);
                    m.finish_slot(slot);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Two threads race writes on the same line; the protocol must stay
    /// deadlock-free and every claim attempt must end in ownership or doom.
    #[test]
    fn concurrent_conflicting_writers_progress() {
        let m = Arc::new(TxMemory::new(1024, Geometry::new(64)));
        let mut handles = Vec::new();
        for t in 0..2u8 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                let slot = SlotId(t);
                let mut commits = 0u32;
                let mut aborts = 0u32;
                for _ in 0..2000 {
                    m.begin_slot(slot);
                    let line = m.line_of(WordAddr(0));
                    let claim = m.tx_claim_line(slot, line, ConflictPolicy::RequesterWins);
                    let committed = claim.is_ok() && m.start_commit(slot).is_ok();
                    if committed {
                        commits += 1;
                    } else {
                        aborts += 1;
                    }
                    m.release_writer(line, slot);
                    m.clear_reader(line, slot);
                    m.finish_slot(slot);
                }
                (commits, aborts)
            }));
        }
        let mut total_commits = 0;
        for h in handles {
            let (c, _) = h.join().unwrap();
            total_commits += c;
        }
        assert!(total_commits > 0, "at least some transactions must commit");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::addr::Geometry;
    use proptest::prelude::*;

    /// A random sequence of single-threaded protocol operations must keep
    /// the line table consistent: after every transaction finishes, all of
    /// its footprint is released and a fresh transaction can claim any line.
    #[derive(Clone, Debug)]
    enum Op {
        Read(u16),
        Write(u16),
    }

    /// The word-by-word FNV-1a loop that `digest_excluding` must match.
    fn digest_reference(m: &TxMemory, skip: &[WordAddr]) -> u64 {
        let mut h = FNV_OFFSET;
        for i in 0..m.len_words() {
            let v = if skip.iter().any(|a| a.0 == i) { 0 } else { m.read_word(WordAddr(i)) };
            h ^= v;
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            prop_oneof![(0u16..512).prop_map(Op::Read), (0u16..512).prop_map(Op::Write),],
            1..40,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn single_tx_footprint_always_fully_released(ops in ops(), commit in any::<bool>()) {
            let m = TxMemory::new(4096, Geometry::new(64));
            let s = SlotId(0);
            m.begin_slot(s);
            let mut read_lines = std::collections::HashSet::new();
            let mut write_lines = std::collections::HashSet::new();
            for op in &ops {
                match op {
                    Op::Read(w) => {
                        let line = m.line_of(WordAddr(*w as u32));
                        prop_assert!(m.tx_read_line(s, line, ConflictPolicy::RequesterWins).is_ok());
                        read_lines.insert(line);
                    }
                    Op::Write(w) => {
                        let line = m.line_of(WordAddr(*w as u32));
                        prop_assert!(m.tx_claim_line(s, line, ConflictPolicy::RequesterWins).is_ok());
                        write_lines.insert(line);
                    }
                }
            }
            if commit {
                prop_assert!(m.start_commit(s).is_ok());
            }
            for &l in &write_lines {
                m.release_writer(l, s);
            }
            for &l in &read_lines {
                m.clear_reader(l, s);
            }
            m.finish_slot(s);
            // Everything released: a second transaction can own any line.
            let t = SlotId(1);
            m.begin_slot(t);
            for &l in write_lines.iter().chain(read_lines.iter()) {
                prop_assert!(m.tx_claim_line(t, l, ConflictPolicy::RequesterWins).is_ok());
                prop_assert_eq!(m.writer_of(l), Some(t));
                prop_assert_eq!(m.doom_cause(t), None);
            }
            for &l in write_lines.iter().chain(read_lines.iter()) {
                m.release_writer(l, t);
            }
            m.finish_slot(t);
        }

        /// The zero-run digest equals the word-by-word loop on sparse
        /// arenas, whatever the skip list: duplicated, unsorted, or past the
        /// arena's end.
        #[test]
        fn digest_matches_word_by_word_reference(
            len in 1u32..600,
            writes in prop::collection::vec((0u32..600, any::<u64>(), any::<bool>()), 0..24),
            skip in prop::collection::vec(0u32..700, 0..6),
        ) {
            let m = TxMemory::new(len, Geometry::new(64));
            for &(a, v, zero) in writes.iter().filter(|w| w.0 < len) {
                m.write_word(WordAddr(a), if zero { 0 } else { v });
            }
            let skip: Vec<WordAddr> = skip.into_iter().map(WordAddr).collect();
            prop_assert_eq!(m.digest_excluding(&skip), digest_reference(&m, &skip));
            prop_assert_eq!(m.digest(), digest_reference(&m, &[]));
        }

        /// Randomized two-transaction interleavings: whatever the footprint
        /// overlap, either the protocol reports a conflict (one side doomed
        /// or self-aborted) or the footprints were disjoint at line level.
        #[test]
        fn overlap_implies_conflict_detection(
            a_words in prop::collection::vec(0u16..256, 1..12),
            b_words in prop::collection::vec(0u16..256, 1..12),
        ) {
            let m = TxMemory::new(4096, Geometry::new(64));
            let (a, b) = (SlotId(0), SlotId(1));
            m.begin_slot(a);
            m.begin_slot(b);
            // A reads its set, then B claims its set for write.
            for &w in &a_words {
                let _ = m.tx_read_line(a, m.line_of(WordAddr(w as u32)), ConflictPolicy::RequesterWins);
            }
            for &w in &b_words {
                let _ = m.tx_claim_line(b, m.line_of(WordAddr(w as u32)), ConflictPolicy::RequesterWins);
            }
            let a_lines: std::collections::HashSet<_> =
                a_words.iter().map(|&w| m.line_of(WordAddr(w as u32))).collect();
            let b_lines: std::collections::HashSet<_> =
                b_words.iter().map(|&w| m.line_of(WordAddr(w as u32))).collect();
            let overlap = a_lines.intersection(&b_lines).count() > 0;
            if overlap {
                prop_assert!(
                    m.doom_cause(a).is_some(),
                    "B wrote into A's read set: A must be doomed"
                );
            } else {
                prop_assert_eq!(m.doom_cause(a), None);
                prop_assert_eq!(m.doom_cause(b), None);
            }
            m.finish_slot(a);
            m.finish_slot(b);
        }
    }
}

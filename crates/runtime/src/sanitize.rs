//! Per-thread capture for the happens-before race sanitizer
//! ([`SimConfig::sanitize`](crate::SimConfig)).
//!
//! An `HbCapture` lives inside each worker's transaction engine and
//! mirrors the certifier's capture discipline: transactional accesses
//! accumulate in a per-attempt buffer that is folded into the record only
//! when the attempt commits (aborted attempts never happened), while
//! non-transactional accesses (plain `read_word`/`write_word`, POWER8
//! suspended-mode accesses) are recorded immediately. Synchronization
//! operations — global-lock hand-offs and phase barriers — close the
//! current [`Segment`] and move the thread's [`VectorClock`] through the
//! corresponding [`SyncClock`]. After the run,
//! [`detect_races`](htm_core::detect_races) post-processes all threads'
//! segments.

use std::collections::HashSet;

use htm_core::{Access, Segment, SyncClock, VectorClock, WordAddr};

/// Bound on segments kept per thread; beyond this the capture reports
/// itself truncated and stops recording.
pub(crate) const MAX_SEGMENTS_PER_THREAD: usize = 1 << 14;

/// Bound on deduplicated accesses kept per segment.
pub(crate) const MAX_ACCESSES_PER_SEGMENT: usize = 1 << 17;

/// Per-thread happens-before capture state.
#[derive(Debug)]
pub(crate) struct HbCapture {
    thread: u32,
    vc: VectorClock,
    segments: Vec<Segment>,
    cur: Vec<Access>,
    cur_set: HashSet<Access>,
    attempt: Vec<(WordAddr, bool)>,
    attempt_set: HashSet<(WordAddr, bool)>,
    truncated: bool,
}

impl HbCapture {
    pub(crate) fn new(thread: u32) -> HbCapture {
        let mut vc = VectorClock::new();
        // Epoch convention (see htm_core::hb::Segment): a thread's own
        // component starts at 1 so its first segment is never covered by
        // another thread's zero component.
        vc.tick(thread as usize);
        HbCapture {
            thread,
            vc,
            segments: Vec::new(),
            cur: Vec::new(),
            cur_set: HashSet::new(),
            attempt: Vec::new(),
            attempt_set: HashSet::new(),
            truncated: false,
        }
    }

    fn record(&mut self, addr: WordAddr, write: bool, tx: bool) {
        if self.cur.len() >= MAX_ACCESSES_PER_SEGMENT {
            self.truncated = true;
            return;
        }
        let a = Access { addr, write, tx };
        if self.cur_set.insert(a) {
            self.cur.push(a);
        }
    }

    /// Non-transactional read (plain `read_word`, suspended-mode load).
    pub(crate) fn nontx_read(&mut self, addr: WordAddr) {
        self.record(addr, false, false);
    }

    /// Non-transactional write (plain `write_word`/`cas_word`,
    /// suspended-mode store).
    pub(crate) fn nontx_write(&mut self, addr: WordAddr) {
        self.record(addr, true, false);
    }

    /// Access inside the current hardware-transaction attempt; buffered
    /// until [`HbCapture::commit_tx`] since aborted attempts roll back.
    pub(crate) fn tx_access(&mut self, addr: WordAddr, write: bool) {
        if self.attempt.len() >= MAX_ACCESSES_PER_SEGMENT {
            self.truncated = true;
            return;
        }
        if self.attempt_set.insert((addr, write)) {
            self.attempt.push((addr, write));
        }
    }

    /// Access inside an irrevocable block: transactional-side, and final
    /// immediately (irrevocable blocks cannot roll back).
    pub(crate) fn irr_access(&mut self, addr: WordAddr, write: bool) {
        self.record(addr, write, true);
    }

    /// The current attempt committed: its accesses become transactional
    /// accesses of the current segment.
    pub(crate) fn commit_tx(&mut self) {
        let attempt = std::mem::take(&mut self.attempt);
        self.attempt_set.clear();
        for (addr, write) in attempt {
            self.record(addr, write, true);
        }
    }

    /// The current attempt aborted: discard its accesses.
    pub(crate) fn rollback_tx(&mut self) {
        self.attempt.clear();
        self.attempt_set.clear();
    }

    fn close_segment(&mut self) {
        if self.cur.is_empty() {
            return;
        }
        if self.segments.len() >= MAX_SEGMENTS_PER_THREAD {
            self.truncated = true;
            self.cur.clear();
            self.cur_set.clear();
            return;
        }
        self.segments.push(Segment {
            thread: self.thread,
            vc: self.vc.clone(),
            accesses: std::mem::take(&mut self.cur),
        });
        self.cur_set.clear();
    }

    /// Release edge on `sync` (before unlocking / entering a barrier).
    pub(crate) fn release(&mut self, sync: &SyncClock) {
        self.close_segment();
        sync.release(&mut self.vc, self.thread as usize);
    }

    /// Acquire edge on `sync` (after locking / leaving a barrier).
    pub(crate) fn acquire(&mut self, sync: &SyncClock) {
        self.close_segment();
        sync.acquire(&mut self.vc);
    }

    /// Finishes the capture, returning all segments and whether any bound
    /// was hit.
    pub(crate) fn take(mut self) -> (Vec<Segment>, bool) {
        debug_assert!(self.attempt.is_empty(), "attempt left open at end of run");
        self.close_segment();
        (self.segments, self.truncated)
    }

    /// The capture's state in recording order, without the dedup sets
    /// (whose iteration order is random), for comparing two captures.
    #[cfg(test)]
    pub(crate) fn ordered_state(&self) -> String {
        let Self { thread, vc, segments, cur, attempt, truncated, .. } = self;
        format!("{thread} {vc:?} {segments:?} {cur:?} {attempt:?} {truncated}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm_core::detect_races;

    #[test]
    fn committed_attempt_is_tx_side() {
        let mut c = HbCapture::new(0);
        c.tx_access(WordAddr(1), true);
        c.commit_tx();
        let (segs, trunc) = c.take();
        assert!(!trunc);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].accesses, vec![Access { addr: WordAddr(1), write: true, tx: true }]);
    }

    #[test]
    fn aborted_attempt_is_discarded() {
        let mut c = HbCapture::new(0);
        c.tx_access(WordAddr(1), true);
        c.rollback_tx();
        c.nontx_read(WordAddr(2));
        let (segs, _) = c.take();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].accesses, vec![Access { addr: WordAddr(2), write: false, tx: false }]);
    }

    #[test]
    fn sync_ops_split_segments_and_order_them() {
        let sync = SyncClock::new();
        let mut t0 = HbCapture::new(0);
        let mut t1 = HbCapture::new(1);
        // Thread 0 writes, then releases; thread 1 acquires, then writes:
        // an ordered pair, no race.
        t0.nontx_write(WordAddr(9));
        t0.release(&sync);
        t1.acquire(&sync);
        t1.nontx_write(WordAddr(9));
        let (mut segs, _) = t0.take();
        let (s1, _) = t1.take();
        segs.extend(s1);
        assert_eq!(segs.len(), 2);
        assert!(detect_races(segs, false).ok());
    }

    #[test]
    fn unsynchronized_writes_race() {
        let mut t0 = HbCapture::new(0);
        let mut t1 = HbCapture::new(1);
        t0.nontx_write(WordAddr(9));
        t1.nontx_write(WordAddr(9));
        let (mut segs, _) = t0.take();
        let (s1, _) = t1.take();
        segs.extend(s1);
        let report = detect_races(segs, false);
        assert_eq!(report.races.len(), 1);
    }

    #[test]
    fn duplicate_accesses_dedup_within_segment() {
        let mut c = HbCapture::new(0);
        for _ in 0..100 {
            c.nontx_read(WordAddr(3));
        }
        let (segs, _) = c.take();
        assert_eq!(segs[0].accesses.len(), 1);
    }

    #[test]
    fn empty_segments_are_not_emitted() {
        let sync = SyncClock::new();
        let mut c = HbCapture::new(0);
        c.release(&sync);
        c.acquire(&sync);
        c.release(&sync);
        let (segs, trunc) = c.take();
        assert!(segs.is_empty());
        assert!(!trunc);
    }
}

//! Per-thread capture for the happens-before race sanitizer
//! ([`SimConfig::sanitize`](crate::SimConfig)).
//!
//! An `HbCapture` lives in each worker's observer (the transaction
//! engine's one instrumentation slot), which holds the global lock's
//! [`SyncClock`] and the conflict-blame log beside it. It mirrors the
//! certifier's capture discipline through one entry point,
//! `HbCapture::access`: a transaction's accesses accumulate in a
//! per-attempt buffer that is folded into the record only when the attempt
//! commits (aborted attempts never happened), while irrevocable and
//! non-transactional accesses (plain `read_word`/`write_word`, POWER8
//! suspended-mode accesses) are recorded immediately. Synchronization
//! operations — global-lock hand-offs and phase barriers — close the
//! current [`Segment`] and move the thread's [`VectorClock`] through the
//! corresponding [`SyncClock`]. After the run,
//! [`detect_races`](htm_core::detect_races) post-processes all threads'
//! segments.

use std::collections::HashSet;

use htm_core::{Access, Segment, SyncClock, VectorClock, WordAddr};

use crate::observe::AccessKind;

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
    attempt: Vec<Access>,
    attempt_set: HashSet<Access>,
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

    fn record(&mut self, a: Access) {
        if self.cur.len() >= MAX_ACCESSES_PER_SEGMENT {
            self.truncated = true;
            return;
        }
        if self.cur_set.insert(a) {
            self.cur.push(a);
        }
    }

    /// Records an access of `kind`. A transaction's accesses wait in its
    /// attempt, which [`HbCapture::commit`] folds into the segment and
    /// [`HbCapture::abort`] drops (aborted attempts never happened);
    /// irrevocable and non-transactional ones are final at once.
    pub(crate) fn access(&mut self, kind: AccessKind, addr: WordAddr, write: bool) {
        let a = Access { addr, write, tx: kind != AccessKind::NonTx };
        match kind {
            AccessKind::Irrevocable | AccessKind::NonTx => self.record(a),
            AccessKind::Sequential => {}
            AccessKind::Hardware | AccessKind::RollbackOnly | AccessKind::Software => {
                if self.attempt.len() >= MAX_ACCESSES_PER_SEGMENT {
                    self.truncated = true;
                } else if self.attempt_set.insert(a) {
                    self.attempt.push(a);
                }
            }
        }
    }

    /// The attempt committed: its accesses become transactional accesses of
    /// the current segment.
    pub(crate) fn commit(&mut self) {
        let attempt = std::mem::take(&mut self.attempt);
        self.attempt_set.clear();
        for a in attempt {
            self.record(a);
        }
    }

    /// The attempt aborted: discard its accesses.
    pub(crate) fn abort(&mut self) {
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
        c.access(AccessKind::Hardware, WordAddr(1), true);
        c.commit();
        let (segs, trunc) = c.take();
        assert!(!trunc);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].accesses, vec![Access { addr: WordAddr(1), write: true, tx: true }]);
    }

    #[test]
    fn aborted_attempt_is_discarded() {
        let mut c = HbCapture::new(0);
        c.access(AccessKind::Hardware, WordAddr(1), true);
        c.abort();
        c.access(AccessKind::NonTx, WordAddr(2), false);
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
        t0.access(AccessKind::NonTx, WordAddr(9), true);
        t0.release(&sync);
        t1.acquire(&sync);
        t1.access(AccessKind::NonTx, WordAddr(9), true);
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
        t0.access(AccessKind::NonTx, WordAddr(9), true);
        t1.access(AccessKind::NonTx, WordAddr(9), true);
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
            c.access(AccessKind::NonTx, WordAddr(3), false);
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

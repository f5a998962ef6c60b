//! The engine's one instrumentation slot.
//!
//! A worker's transaction engine holds at most one [`Observer`], which
//! carries whichever captures are on: the certifier's
//! ([`SimConfig::certify`]), the race sanitizer's ([`SimConfig::sanitize`])
//! and the footprint tracer ([`Sim::seq_ctx_traced`](crate::Sim)). With
//! nothing on, the slot is empty and each event site costs the engine one
//! branch.
//!
//! Every site reports one event: a block's [`begin`](Observer::begin), a
//! [`load`](Observer::load) or [`store`](Observer::store) tagged with its
//! [`AccessKind`], a [`commit`](Observer::commit) with its seq and
//! [`EventKind`], an [`abort`](Observer::abort) with its kind and cause, or
//! a [`release`](Observer::release) or [`acquire`](Observer::acquire) on a
//! [`SyncClock`]. The kind alone decides what each capture keeps of an
//! access:
//!
//! | kind | certifier | race sanitizer | tracer |
//! |---|---|---|---|
//! | `Hardware` | load: a value-checked read; store: in the commit's writes | transactional, kept if the attempt commits | — |
//! | `RollbackOnly` (loads only) | nothing: the hardware does not track the load | transactional, kept if the attempt commits | — |
//! | `Software` | as `Hardware` | as `Hardware` | — |
//! | `Irrevocable` | as `Hardware` | transactional, at once | — |
//! | `NonTx` | store: a single-write event of its own; load: nothing | non-transactional, at once | — |
//! | `Sequential` | — | — | the block's footprint |
//!
//! A checked load of a word the block already stored is not a read of the
//! pre-state: transactions forward such loads from their buffers before
//! reporting them, and irrevocable blocks, which store in place, report
//! them but are not checked against their own stores. An observer only
//! records: it never pauses the thread, so the scheduler's and model
//! checker's hook, `htm_core::coop::access`, stays a call of its own.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use htm_core::{
    check_opacity, detect_races, AbortCause, ConflictEvent, EventKind, FastMap, LineId, SlotId,
    SyncClock, WordAddr,
};

use crate::certify::{certify, CertCapture};
use crate::executor::SimConfig;
use crate::sanitize::HbCapture;
use crate::stats::RunStats;
use crate::trace::SeqTracer;

/// How an access executed; the module docs say what each capture keeps of
/// each kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AccessKind {
    /// In a hardware transaction: tracked by the hardware or, on the ROT
    /// tier and spilled lines, value-logged and revalidated in software.
    Hardware,
    /// A load in a plain POWER8 rollback-only transaction: untracked.
    RollbackOnly,
    /// In a software (STM) transaction.
    Software,
    /// In an irrevocable block, in place under the global lock.
    Irrevocable,
    /// Outside any transaction: a plain access, or a suspended one.
    NonTx,
    /// In a sequential block.
    Sequential,
}

/// One worker's captures.
pub(crate) struct Observer {
    thread: u32,
    /// The certifier's capture, and the run's commit clock that a
    /// non-transactional store's single-write event draws its seq from.
    cert: Option<(CertCapture, Arc<AtomicU64>)>,
    hb: Option<Sanitizer>,
    tracer: Option<SeqTracer>,
}

/// The race sanitizer's side of an observer.
struct Sanitizer {
    capture: HbCapture,
    /// The global lock's vector clock, shared by the run's workers:
    /// critical sections on the lock are release/acquire-ordered.
    lock: Arc<SyncClock>,
    /// Who doomed this thread, and on which line, per conflict abort.
    conflicts: Vec<ConflictEvent>,
}

impl Observer {
    /// Worker `thread`'s observer, boxed for the engine's slot: with the
    /// certifier's capture when `certify` carries the run's commit clock,
    /// and the race sanitizer's when `lock` carries the global lock's
    /// vector clock.
    pub(crate) fn new(
        thread: u32,
        certify: Option<&Arc<AtomicU64>>,
        lock: Option<&Arc<SyncClock>>,
    ) -> Box<RefCell<Observer>> {
        Box::new(RefCell::new(Observer {
            thread,
            cert: certify.map(|clock| (CertCapture::new(thread), Arc::clone(clock))),
            hb: lock.map(|lock| Sanitizer {
                capture: HbCapture::new(thread),
                lock: Arc::clone(lock),
                conflicts: Vec::new(),
            }),
            tracer: None,
        }))
    }

    /// A footprint tracer at the given line granularities, boxed for the
    /// engine's slot; `line_sets` keeps each block's line IDs too
    /// ([`SeqTracer::keep_line_sets`]).
    pub(crate) fn tracing(granularities: &[u32], line_sets: bool) -> Box<RefCell<Observer>> {
        let tracer = SeqTracer::new(granularities);
        let tracer = if line_sets { tracer.keep_line_sets() } else { tracer };
        Box::new(RefCell::new(Observer { thread: 0, cert: None, hb: None, tracer: Some(tracer) }))
    }

    /// The footprint tracer, if this observer traces.
    pub(crate) fn into_tracer(self) -> Option<SeqTracer> {
        self.tracer
    }

    /// A block begins: a transaction's attempt, an irrevocable or a
    /// sequential block.
    #[cold]
    pub(crate) fn begin(&mut self) {
        if let Some((c, _)) = &mut self.cert {
            c.begin();
        }
        if let Some(t) = &mut self.tracer {
            t.begin_block();
        }
    }

    /// A load of `value` from `addr`.
    #[cold]
    pub(crate) fn load(&mut self, kind: AccessKind, addr: WordAddr, value: u64) {
        use AccessKind::{Hardware, Irrevocable, Sequential, Software};
        if let (Some((c, _)), Hardware | Software | Irrevocable) = (&mut self.cert, kind) {
            c.load(addr, value);
        }
        if let Some(h) = &mut self.hb {
            h.capture.access(kind, addr, false);
        }
        if let (Some(t), Sequential) = (&mut self.tracer, kind) {
            t.record_load(addr);
        }
    }

    /// A store of `value` to `addr`.
    #[cold]
    pub(crate) fn store(&mut self, kind: AccessKind, addr: WordAddr, value: u64) {
        if let Some((c, clock)) = &mut self.cert {
            match kind {
                // A non-transactional store publishes at once, outside any
                // block's serialization point, so it is an event of its
                // own. Its seq is drawn right after it executed: the store
                // doomed every in-flight reader of the line (and spun out
                // committing ones), so all committed readers of the old
                // value already hold smaller seqs.
                AccessKind::NonTx => {
                    c.nontx_write(clock.fetch_add(1, Ordering::SeqCst), addr, value)
                }
                // An irrevocable store lands in place; a transaction's
                // stores reach the certifier in the buffers its commit
                // passes.
                AccessKind::Irrevocable => c.store(addr, value),
                _ => {}
            }
        }
        if let Some(h) = &mut self.hb {
            h.capture.access(kind, addr, true);
        }
        if let (Some(t), AccessKind::Sequential) = (&mut self.tracer, kind) {
            t.record_store(addr);
        }
    }

    /// The block committed at `seq` (0 without a commit clock) as a `kind`
    /// event; `buffered` are a transaction's write buffer and spilled
    /// stores, empty outside transactions. A sequential block ends as an
    /// irrevocable commit: it cannot abort, and its stores land in place.
    #[cold]
    pub(crate) fn commit(
        &mut self,
        seq: u64,
        kind: EventKind,
        buffered: [&FastMap<WordAddr, u64>; 2],
    ) {
        if let Some((c, _)) = &mut self.cert {
            c.commit(seq, kind, buffered);
        }
        if let Some(h) = &mut self.hb {
            h.capture.commit();
        }
        if let Some(t) = &mut self.tracer {
            t.end_block();
        }
    }

    /// The attempt aborted with `cause`. `blame` is what the aggressor left
    /// on the thread's slot when it doomed it: the conflict log's entry for
    /// a conflict abort.
    #[cold]
    pub(crate) fn abort(
        &mut self,
        kind: EventKind,
        cause: AbortCause,
        blame: Option<(Option<SlotId>, LineId)>,
    ) {
        if let Some((c, _)) = &mut self.cert {
            c.abort(kind);
        }
        if let Some(h) = &mut self.hb {
            h.capture.abort();
            if let (true, Some((aggressor, line))) = (cause.is_conflict(), blame) {
                let aggressor = aggressor.map(|s| s.0 as u32);
                h.conflicts.push(ConflictEvent { victim: self.thread, aggressor, line, cause });
            }
        }
    }

    /// A release edge on `sync`, or on the global lock's vector clock for
    /// `None` (before unlocking it).
    #[cold]
    pub(crate) fn release(&mut self, sync: Option<&SyncClock>) {
        if let Some(Sanitizer { capture, lock, .. }) = &mut self.hb {
            capture.release(sync.unwrap_or(lock));
        }
    }

    /// An acquire edge on `sync`, or on the global lock's vector clock for
    /// `None` (after locking it).
    #[cold]
    pub(crate) fn acquire(&mut self, sync: Option<&SyncClock>) {
        if let Some(Sanitizer { capture, lock, .. }) = &mut self.hb {
            capture.acquire(sync.unwrap_or(lock));
        }
    }
}

/// The observers of a parallel run's `threads` workers, one per worker,
/// or none when the run neither certifies nor sanitizes. A certified run's
/// workers draw single-write seqs from its `commit_clock`; a sanitized
/// run's share one vector clock for the global lock.
pub(crate) fn for_run<'a>(
    cfg: &SimConfig,
    commit_clock: Option<&'a Arc<AtomicU64>>,
    threads: u32,
) -> impl Iterator<Item = Option<Box<RefCell<Observer>>>> + 'a {
    let clock = commit_clock.filter(|_| cfg.certify);
    let lock = cfg.sanitize.then(|| Arc::new(SyncClock::new()));
    (0..threads).map(move |t| {
        (clock.is_some() || lock.is_some()).then(|| Observer::new(t, clock, lock.as_ref()))
    })
}

/// Builds a parallel run's reports from its workers' observers, given in
/// thread order: the certifier's and the opacity check's under
/// [`SimConfig::certify`], the race sanitizer's under
/// [`SimConfig::sanitize`]. Each worker's conflict log goes into its
/// statistics.
pub(crate) fn report(
    stats: &mut RunStats,
    observers: Vec<Option<Box<RefCell<Observer>>>>,
    cfg: &SimConfig,
    lock_acquisitions: u64,
) {
    let (mut events, mut aborted, mut cert_truncated) = (Vec::new(), Vec::new(), false);
    let (mut segments, mut hb_truncated) = (Vec::new(), false);
    for (thread, observer) in stats.threads.iter_mut().zip(observers) {
        let Some(observer) = observer else { continue };
        let Observer { cert, hb, .. } = observer.into_inner();
        if let Some((c, _)) = cert {
            let (ev, ab, truncated) = c.take();
            events.extend(ev);
            aborted.extend(ab);
            cert_truncated |= truncated;
        }
        if let Some(h) = hb {
            let (segs, truncated) = h.capture.take();
            segments.extend(segs);
            hb_truncated |= truncated;
            thread.conflicts = h.conflicts;
        }
    }
    if cfg.certify {
        stats.opacity = Some(check_opacity(&events, &aborted, &cfg.certify_init, cert_truncated));
        stats.certify = Some(certify(events, cert_truncated, lock_acquisitions));
    }
    if cfg.sanitize {
        stats.race = Some(detect_races(segments, hb_truncated));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Observer {
        /// The captures' state in recording order, for comparing two
        /// engines.
        pub(crate) fn ordered_state(&self) -> String {
            let cert = self.cert.as_ref().map(|(c, _)| c);
            format!("{cert:?} {:?}", self.hb.as_ref().map(|h| h.capture.ordered_state()))
        }
    }

    #[test]
    fn only_blamed_conflict_aborts_enter_the_conflict_log() {
        let o = Observer::new(1, None, Some(&Arc::default()));
        let mut o = o.into_inner();
        let line = LineId(7);
        let hw = EventKind::Hardware { rot: false };
        o.abort(hw, AbortCause::CapacityRead, Some((Some(SlotId(0)), line)));
        o.abort(hw, AbortCause::ConflictTxLoad, None);
        o.abort(hw, AbortCause::ConflictTxStore, Some((Some(SlotId(2)), line)));
        o.abort(hw, AbortCause::ConflictNonTx, Some((None, line)));
        let conflicts = o.hb.map(|h| h.conflicts).unwrap_or_default();
        let logged: Vec<_> = conflicts.iter().map(|e| (e.victim, e.aggressor, e.cause)).collect();
        assert_eq!(
            logged,
            [(1, Some(2), AbortCause::ConflictTxStore), (1, None, AbortCause::ConflictNonTx)]
        );
        assert!(conflicts.iter().all(|e| e.line == line));
    }
}

//! Blue Gene/Q speculation-ID pool (Section 2.1).
//!
//! Blue Gene/Q tags every transaction's L2 footprint with one of 128
//! hardware speculation IDs. An ID is not reusable immediately after the
//! transaction ends: the L2 must be scrubbed of the tag first, which the
//! hardware does lazily in batches. When the free pool is empty, the start
//! of a new transaction *blocks* until a reclaim completes — the paper found
//! this to be the scalability bottleneck for ssca2's many short
//! transactions.
//!
//! The model: [`SpecIdPool::acquire`] consumes a free ID or, when none is
//! free, performs/awaits a batched reclaim of all released IDs and reports
//! the simulated cycles spent blocked, which the transaction engine charges
//! to the thread's clock.

use std::sync::atomic::{AtomicU32, Ordering::SeqCst};

use crate::config::SpecIdConfig;

/// Shared pool of Blue Gene/Q speculation IDs.
#[derive(Debug)]
pub struct SpecIdPool {
    avail: AtomicU32,
    pending: AtomicU32,
    reclaim_cycles: u64,
    reclaims: AtomicU32,
}

impl SpecIdPool {
    /// Creates a pool with the given configuration.
    pub fn new(cfg: SpecIdConfig) -> SpecIdPool {
        SpecIdPool {
            avail: AtomicU32::new(cfg.total),
            pending: AtomicU32::new(0),
            reclaim_cycles: cfg.reclaim_cycles,
            reclaims: AtomicU32::new(0),
        }
    }

    /// Acquires a speculation ID for a new transaction, returning the
    /// simulated cycles the thread spent blocked waiting for IDs.
    ///
    /// Never fails: like the real machine, the begin blocks until an ID is
    /// available (every acquired ID is eventually released, so reclaim makes
    /// progress as long as transactions finish).
    pub fn acquire(&self) -> u64 {
        let mut waited = 0u64;
        let mut wait = htm_core::coop::Wait::new(1);
        loop {
            let a = self.avail.load(SeqCst);
            if a > 0 {
                if self.avail.compare_exchange(a, a - 1, SeqCst, SeqCst).is_ok() {
                    return waited;
                }
                continue;
            }
            // Free pool empty: batch-reclaim the released IDs.
            let p = self.pending.swap(0, SeqCst);
            if p > 0 {
                self.avail.fetch_add(p, SeqCst);
                self.reclaims.fetch_add(1, SeqCst);
                waited += self.reclaim_cycles;
            } else {
                // Nothing released yet; wait for other threads to finish.
                waited += self.reclaim_cycles / 8;
                wait.round();
            }
        }
    }

    /// Releases an ID after the transaction commits or aborts. The ID is
    /// not immediately reusable; it enters the pending (unscrubbed) set.
    pub fn release(&self) {
        self.pending.fetch_add(1, SeqCst);
    }

    /// Charges the cost of one batched reclaim as if the free pool had been
    /// found empty, without touching the pool (fault injection: forced
    /// speculation-ID starvation stalls). Returns the simulated cycles the
    /// caller must charge to its clock.
    pub fn forced_stall(&self) -> u64 {
        self.reclaims.fetch_add(1, SeqCst);
        self.reclaim_cycles
    }

    /// Permanently removes up to `n` free IDs from the pool (fault
    /// injection: speculation-ID starvation). At least one ID always
    /// remains, so [`SpecIdPool::acquire`] can still make progress — the
    /// pool degenerates into a serialization bottleneck, never a deadlock.
    /// Returns how many IDs were actually removed.
    pub fn drain(&self, n: u32) -> u32 {
        loop {
            let a = self.avail.load(SeqCst);
            let take = n.min(a.saturating_sub(1));
            if take == 0 {
                return 0;
            }
            if self.avail.compare_exchange(a, a - take, SeqCst, SeqCst).is_ok() {
                return take;
            }
        }
    }

    /// Number of batch reclaims performed so far (diagnostics).
    pub fn reclaim_count(&self) -> u32 {
        self.reclaims.load(SeqCst)
    }

    /// IDs currently free (diagnostics).
    pub fn available(&self) -> u32 {
        self.avail.load(SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(total: u32) -> SpecIdPool {
        SpecIdPool::new(SpecIdConfig { total, reclaim_cycles: 1000 })
    }

    #[test]
    fn acquire_is_free_while_ids_remain() {
        let p = pool(4);
        for _ in 0..4 {
            assert_eq!(p.acquire(), 0);
        }
        assert_eq!(p.available(), 0);
    }

    #[test]
    fn exhaustion_triggers_reclaim_and_charges_cycles() {
        let p = pool(2);
        assert_eq!(p.acquire(), 0);
        assert_eq!(p.acquire(), 0);
        p.release();
        p.release();
        // Pool empty, two pending: the next acquire reclaims and pays.
        let waited = p.acquire();
        assert_eq!(waited, 1000);
        assert_eq!(p.reclaim_count(), 1);
        // One ID left free after the batch (2 reclaimed - 1 taken).
        assert_eq!(p.available(), 1);
        assert_eq!(p.acquire(), 0);
    }

    #[test]
    fn drain_keeps_at_least_one_id() {
        let p = pool(8);
        assert_eq!(p.drain(4), 4);
        assert_eq!(p.available(), 4);
        assert_eq!(p.drain(100), 3, "drain stops at one remaining ID");
        assert_eq!(p.available(), 1);
        assert_eq!(p.drain(100), 0);
        // The surviving ID still cycles through acquire/release/reclaim.
        assert_eq!(p.acquire(), 0);
        p.release();
        assert_eq!(p.acquire(), 1000, "exhausted pool pays a reclaim");
    }

    #[test]
    fn forced_stall_charges_without_consuming_ids() {
        let p = pool(4);
        assert_eq!(p.forced_stall(), 1000);
        assert_eq!(p.available(), 4, "forced stall leaves the pool intact");
        assert_eq!(p.reclaim_count(), 1);
    }

    #[test]
    fn short_transactions_churn_reclaims() {
        let p = pool(8);
        let mut total_wait = 0;
        for _ in 0..100 {
            total_wait += p.acquire();
            p.release();
        }
        assert!(p.reclaim_count() >= 10, "reclaims: {}", p.reclaim_count());
        assert!(total_wait >= 10_000);
    }

    #[test]
    fn concurrent_acquire_release_preserves_ids() {
        use std::sync::Arc;
        let p = Arc::new(pool(16));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let p = Arc::clone(&p);
            handles.push(std::thread::spawn(move || {
                for _ in 0..5000 {
                    let _ = p.acquire();
                    p.release();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // All IDs are back in avail+pending.
        let total = p.available() + p.pending.load(SeqCst);
        assert_eq!(total, 16);
    }
}

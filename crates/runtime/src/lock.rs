//! The global fallback lock.
//!
//! When TM executes critical sections, the standard fallback guaranteeing
//! forward progress is a single global lock that makes a transaction
//! irrevocable (Section 3). The lock is *a word in simulated memory* on its
//! own conflict-detection line: transactions subscribe to it by reading it
//! transactionally, so a lock acquisition — a non-transactional CAS — dooms
//! all subscribed transactions through the ordinary conflict mechanism,
//! exactly as on real hardware.

use htm_core::coop::Wait;
use htm_core::{Clock, CostModel, SimAlloc, TxMemory, WordAddr};

/// A free-running lock waiter yields its OS thread once every this many
/// polls.
const LOCK_YIELD_EVERY: u64 = 512;

/// Handle to the global lock word (one per simulation).
///
/// The word after the lock holds the *simulated release timestamp*: a
/// waiter that acquires (or observes the release of) the lock advances its
/// own clock to that time, so lock serialization costs simulated time even
/// though worker clocks are otherwise independent. The timestamp is
/// simulation instrumentation, written with plain stores invisible to
/// conflict detection.
#[derive(Clone, Copy, Debug)]
pub struct GlobalLock {
    addr: WordAddr,
}

impl GlobalLock {
    /// Allocates the lock word on an isolated, granularity-aligned line so
    /// no program data shares its conflict-detection line.
    pub(crate) fn new(alloc: &SimAlloc, granularity: u32) -> GlobalLock {
        let align = granularity.max(64);
        let words = (align / htm_core::WORD_BYTES as u32).max(3);
        GlobalLock { addr: alloc.alloc_aligned(words, align) }
    }

    pub(crate) fn time_slot(&self) -> WordAddr {
        self.addr.offset(1)
    }

    pub(crate) fn count_slot(&self) -> WordAddr {
        self.addr.offset(2)
    }

    /// Number of successful acquisitions so far (certifier input: an upper
    /// bound on the irrevocable sections the conflict graph should contain).
    /// Like the timestamp, the counter is simulation instrumentation written
    /// with plain stores under the lock, invisible to conflict detection.
    pub fn acquisitions(&self, mem: &TxMemory) -> u64 {
        mem.read_word(self.count_slot())
    }

    /// Address of the lock word; transactions subscribe by loading it.
    pub fn addr(&self) -> WordAddr {
        self.addr
    }

    /// Whether the lock is currently held (plain peek; does not disturb any
    /// transaction).
    pub fn is_locked(&self, mem: &TxMemory) -> bool {
        mem.read_word(self.addr) != 0
    }

    /// Spins until the lock is free, then acquires it with a
    /// non-transactional CAS (dooming all subscribed transactions).
    /// Returns the simulated cycles spent waiting.
    pub(crate) fn acquire(
        &self,
        mem: &TxMemory,
        owner_tag: u64,
        clock: &Clock,
        cost: &CostModel,
    ) -> u64 {
        debug_assert_ne!(owner_tag, 0, "owner tag 0 means unlocked");
        let mut waited = 0u64;
        let mut wait = Wait::new(LOCK_YIELD_EVERY);
        loop {
            if mem.read_word(self.addr) == 0 {
                clock.tick(cost.lock_op);
                if mem.nontx_cas(None, self.addr, 0, owner_tag).is_ok() {
                    // Eagerly-subscribed transactions are doomed by the CAS
                    // itself (they read the lock line); lazily-subscribed
                    // (Blue Gene/Q long-running) ones keep running — they
                    // are safe because every irrevocable access dooms
                    // conflicting transactions at line granularity, and the
                    // end-of-transaction subscription blocks commits while
                    // the lock is held. That survival is lazy
                    // subscription's whole point: a fallback does not wipe
                    // out all concurrent speculation.
                    //
                    // Serialization costs simulated time: resume no earlier
                    // than the previous holder's release.
                    clock.advance_to(mem.read_word(self.time_slot()));
                    // Plain read-modify-write is race-free here: only the
                    // lock holder touches the counter.
                    let n = mem.read_word(self.count_slot());
                    mem.write_word(self.count_slot(), n + 1);
                    return waited;
                }
            }
            clock.tick(cost.spin_poll);
            waited += cost.spin_poll;
            wait.round();
        }
    }

    /// Releases the lock, stamping the holder's simulated time for the
    /// next acquirer.
    pub(crate) fn release(&self, mem: &TxMemory, clock: &Clock, cost: &CostModel) {
        clock.tick(cost.lock_op);
        mem.write_word(self.time_slot(), clock.now());
        mem.nontx_store(None, self.addr, 0);
    }

    /// Releases the lock only if `owner_tag` currently holds it. Recovery
    /// path after a worker panic: the dead holder can no longer release, and
    /// without this every sibling would spin on the lock forever. Returns
    /// whether a release happened.
    pub(crate) fn force_release_if_held_by(
        &self,
        mem: &TxMemory,
        owner_tag: u64,
        clock: &Clock,
        cost: &CostModel,
    ) -> bool {
        if mem.read_word(self.addr) == owner_tag {
            self.release(mem, clock, cost);
            true
        } else {
            false
        }
    }

    /// Spins until the lock is observed free (lemming-effect avoidance,
    /// Figure 1 line 9). Returns the simulated cycles spent waiting.
    pub(crate) fn wait_released(&self, mem: &TxMemory, clock: &Clock, cost: &CostModel) -> u64 {
        let mut waited = 0u64;
        let mut wait = Wait::new(LOCK_YIELD_EVERY);
        let mut waited_any = false;
        while self.is_locked(mem) {
            waited_any = true;
            clock.tick(cost.spin_poll);
            waited += cost.spin_poll;
            wait.round();
        }
        if waited_any {
            clock.advance_to(mem.read_word(self.time_slot()));
        }
        waited
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm_core::{ConflictPolicy, Geometry, SlotId};

    fn setup() -> (TxMemory, GlobalLock, Clock, CostModel) {
        let alloc = SimAlloc::new(1, 1024);
        let lock = GlobalLock::new(&alloc, 256);
        let mem = TxMemory::new(1024, Geometry::new(256));
        (mem, lock, Clock::new(), CostModel::uniform())
    }

    #[test]
    fn lock_word_is_line_aligned() {
        let (_, lock, _, _) = setup();
        assert_eq!(lock.addr().byte_addr() % 256, 0);
    }

    #[test]
    fn acquire_release_round_trip() {
        let (mem, lock, clock, cost) = setup();
        assert!(!lock.is_locked(&mem));
        lock.acquire(&mem, 1, &clock, &cost);
        assert!(lock.is_locked(&mem));
        lock.release(&mem, &clock, &cost);
        assert!(!lock.is_locked(&mem));
    }

    #[test]
    fn acquisition_dooms_subscribed_transactions() {
        let (mem, lock, clock, cost) = setup();
        let s = SlotId(0);
        mem.begin_slot(s);
        // Transaction subscribes by reading the lock line.
        mem.tx_read_line(s, mem.line_of(lock.addr()), ConflictPolicy::RequesterWins).unwrap();
        lock.acquire(&mem, 2, &clock, &cost);
        assert!(mem.doom_cause(s).is_some(), "subscriber must be doomed by acquisition");
        mem.finish_slot(s);
        lock.release(&mem, &clock, &cost);
    }

    #[test]
    fn force_release_only_affects_the_named_holder() {
        let (mem, lock, clock, cost) = setup();
        lock.acquire(&mem, 3, &clock, &cost);
        assert!(!lock.force_release_if_held_by(&mem, 2, &clock, &cost), "wrong tag: no-op");
        assert!(lock.is_locked(&mem));
        assert!(lock.force_release_if_held_by(&mem, 3, &clock, &cost));
        assert!(!lock.is_locked(&mem));
        assert!(!lock.force_release_if_held_by(&mem, 3, &clock, &cost), "already free");
    }

    #[test]
    fn acquisitions_count_successful_acquires() {
        let (mem, lock, clock, cost) = setup();
        assert_eq!(lock.acquisitions(&mem), 0);
        for _ in 0..3 {
            lock.acquire(&mem, 1, &clock, &cost);
            lock.release(&mem, &clock, &cost);
        }
        assert_eq!(lock.acquisitions(&mem), 3);
    }

    #[test]
    fn wait_released_returns_immediately_when_free() {
        let (mem, lock, clock, cost) = setup();
        assert_eq!(lock.wait_released(&mem, &clock, &cost), 0);
    }

    #[test]
    fn contended_acquire_serializes() {
        use std::sync::Arc;
        let alloc = SimAlloc::new(1, 4096);
        let lock = GlobalLock::new(&alloc, 64);
        let mem = Arc::new(TxMemory::new(4096, Geometry::new(64)));
        let counter = WordAddr(2048);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let mem = Arc::clone(&mem);
            handles.push(std::thread::spawn(move || {
                let clock = Clock::new();
                let cost = CostModel::uniform();
                for _ in 0..1000 {
                    lock.acquire(&mem, t + 1, &clock, &cost);
                    let v = mem.read_word(counter);
                    mem.write_word(counter, v + 1);
                    lock.release(&mem, &clock, &cost);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(mem.read_word(counter), 4000, "lock must provide mutual exclusion");
    }
}

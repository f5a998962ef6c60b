//! Allocation of simulated memory.
//!
//! STAMP benchmarks allocate heavily inside transactions (tree nodes, list
//! nodes, packet buffers). Like STAMP's `TM_MALLOC`, allocation here is
//! *non-transactional*: it only moves a bump pointer / recycles a per-thread
//! free list and never touches simulated words, so it cannot conflict or
//! abort. The allocator also provides the cache-line-aligned allocation used
//! by the paper's kmeans fix (Section 4: "align the clusters to cache line
//! boundaries").

use std::sync::atomic::{AtomicU32, Ordering::SeqCst};
use std::sync::Arc;

use crate::addr::{WordAddr, WORD_BYTES};
use crate::hash::FastMap;

/// Words handed to a thread cache in one refill.
const CHUNK_WORDS: u32 = 1 << 14;

/// Global bump allocator over the simulated arena.
///
/// Cheap enough to share directly, but worker threads should wrap it in a
/// [`ThreadAlloc`] to batch refills and recycle freed blocks.
#[derive(Debug)]
pub struct SimAlloc {
    next: AtomicU32,
    limit: u32,
}

impl SimAlloc {
    /// Creates an allocator over words `[first, limit)` of the arena.
    ///
    /// Word 0 is never handed out (it is the simulated null pointer), so
    /// `first` is clamped to at least 1.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn new(first: u32, limit: u32) -> SimAlloc {
        let first = first.max(1);
        assert!(first < limit, "empty allocation range {first}..{limit}");
        SimAlloc { next: AtomicU32::new(first), limit }
    }

    /// Allocates `words` contiguous words.
    ///
    /// # Panics
    ///
    /// Panics if the arena is exhausted — simulated OOM is a configuration
    /// error, not a recoverable condition.
    pub fn alloc(&self, words: u32) -> WordAddr {
        assert!(words > 0, "zero-sized allocation");
        let start = self.next.fetch_add(words, SeqCst);
        assert!(
            start.checked_add(words).is_some_and(|end| end <= self.limit),
            "simulated memory exhausted: need {words} words at {start}, limit {}",
            self.limit
        );
        WordAddr(start)
    }

    /// Allocates `words` contiguous words whose first byte address is a
    /// multiple of `align_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `align_bytes` is not a power of two ≥ 8, or on exhaustion.
    pub fn alloc_aligned(&self, words: u32, align_bytes: u32) -> WordAddr {
        assert!(
            align_bytes.is_power_of_two() && align_bytes >= WORD_BYTES as u32,
            "bad alignment {align_bytes}"
        );
        let align_words = align_bytes / WORD_BYTES as u32;
        loop {
            let cur = self.next.load(SeqCst);
            let aligned = cur.div_ceil(align_words) * align_words;
            let end = aligned.checked_add(words).expect("address overflow");
            assert!(end <= self.limit, "simulated memory exhausted (aligned alloc)");
            if self.next.compare_exchange(cur, end, SeqCst, SeqCst).is_ok() {
                return WordAddr(aligned);
            }
        }
    }

    /// Words still available (approximate under concurrency).
    pub fn remaining(&self) -> u32 {
        self.limit.saturating_sub(self.next.load(SeqCst))
    }

    /// Words handed out so far (high-water mark; freed blocks still count).
    pub fn used(&self) -> u32 {
        self.next.load(SeqCst).min(self.limit)
    }
}

/// Per-thread allocation cache: batches refills from the shared [`SimAlloc`]
/// and recycles freed blocks in exact-size free lists.
///
/// Mirrors STAMP's per-thread memory pools: `free` never returns memory to
/// the global allocator, it only makes the block reusable by the same
/// thread — which keeps allocation conflict-free under transactions.
#[derive(Debug)]
pub struct ThreadAlloc {
    global: Arc<SimAlloc>,
    chunk_next: u32,
    chunk_end: u32,
    free_lists: FastMap<u32, Vec<WordAddr>>,
}

impl ThreadAlloc {
    /// Creates a thread cache over the given global allocator.
    pub fn new(global: Arc<SimAlloc>) -> ThreadAlloc {
        ThreadAlloc { global, chunk_next: 0, chunk_end: 0, free_lists: FastMap::default() }
    }

    /// Allocates `words` contiguous words.
    ///
    /// # Panics
    ///
    /// Panics on simulated-memory exhaustion.
    pub fn alloc(&mut self, words: u32) -> WordAddr {
        assert!(words > 0, "zero-sized allocation");
        if let Some(list) = self.free_lists.get_mut(&words) {
            if let Some(addr) = list.pop() {
                return addr;
            }
        }
        if words > CHUNK_WORDS / 4 {
            // Large blocks go straight to the global allocator.
            return self.global.alloc(words);
        }
        if self.chunk_end - self.chunk_next < words {
            let chunk = self.global.alloc(CHUNK_WORDS);
            self.chunk_next = chunk.0;
            self.chunk_end = chunk.0 + CHUNK_WORDS;
        }
        let addr = WordAddr(self.chunk_next);
        self.chunk_next += words;
        addr
    }

    /// Allocates with byte alignment (bypasses the thread cache).
    ///
    /// # Panics
    ///
    /// See [`SimAlloc::alloc_aligned`].
    pub fn alloc_aligned(&mut self, words: u32, align_bytes: u32) -> WordAddr {
        self.global.alloc_aligned(words, align_bytes)
    }

    /// Returns a block previously obtained from *this thread's* allocator for
    /// reuse by later same-size allocations.
    pub fn free(&mut self, addr: WordAddr, words: u32) {
        debug_assert!(!addr.is_null());
        self.free_lists.entry(words).or_default().push(addr);
    }

    /// The shared global allocator.
    pub fn global(&self) -> &Arc<SimAlloc> {
        &self.global
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_allocates_word_zero() {
        let a = SimAlloc::new(0, 100);
        assert_ne!(a.alloc(1), WordAddr::NULL);
    }

    #[test]
    fn bump_is_contiguous_and_disjoint() {
        let a = SimAlloc::new(1, 1000);
        let x = a.alloc(10);
        let y = a.alloc(5);
        assert_eq!(y.0, x.0 + 10);
    }

    #[test]
    fn aligned_alloc_is_aligned() {
        let a = SimAlloc::new(1, 10_000);
        let _ = a.alloc(3); // misalign the bump pointer
        for align in [8u32, 64, 128, 256] {
            let p = a.alloc_aligned(4, align);
            assert_eq!(p.byte_addr() % align as u64, 0, "align {align}");
        }
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let a = SimAlloc::new(1, 10);
        let _ = a.alloc(20);
    }

    #[test]
    fn concurrent_allocations_are_disjoint() {
        let a = Arc::new(SimAlloc::new(1, 1 << 20));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let a = Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                for i in 1..200u32 {
                    got.push((a.alloc(i % 7 + 1), i % 7 + 1));
                }
                got
            }));
        }
        let mut ranges: Vec<(u32, u32)> = Vec::new();
        for h in handles {
            for (addr, n) in h.join().unwrap() {
                ranges.push((addr.0, addr.0 + n));
            }
        }
        ranges.sort_unstable();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlapping allocations {w:?}");
        }
    }

    #[test]
    fn thread_alloc_recycles_freed_blocks() {
        let g = Arc::new(SimAlloc::new(1, 1 << 20));
        let mut t = ThreadAlloc::new(Arc::clone(&g));
        let a = t.alloc(8);
        t.free(a, 8);
        let b = t.alloc(8);
        assert_eq!(a, b, "freed block must be recycled for same size");
        let c = t.alloc(4);
        assert_ne!(a, c, "different size class must not reuse");
    }

    #[test]
    fn thread_alloc_large_blocks_bypass_chunk() {
        let g = Arc::new(SimAlloc::new(1, 1 << 22));
        let mut t = ThreadAlloc::new(Arc::clone(&g));
        let big = t.alloc(CHUNK_WORDS);
        assert!(!big.is_null());
        let used_after_big = g.used();
        let _small = t.alloc(1);
        assert!(g.used() >= used_after_big);
    }

    #[test]
    fn thread_allocs_from_shared_global_are_disjoint() {
        let g = Arc::new(SimAlloc::new(1, 1 << 20));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let g = Arc::clone(&g);
            handles.push(std::thread::spawn(move || {
                let mut t = ThreadAlloc::new(g);
                let mut got = Vec::new();
                for i in 0..500u32 {
                    let n = i % 9 + 1;
                    got.push((t.alloc(n), n));
                }
                got
            }));
        }
        let mut ranges: Vec<(u32, u32)> = Vec::new();
        for h in handles {
            for (addr, n) in h.join().unwrap() {
                ranges.push((addr.0, addr.0 + n));
            }
        }
        ranges.sort_unstable();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlapping allocations {w:?}");
        }
    }
}

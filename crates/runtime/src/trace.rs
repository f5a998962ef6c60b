//! Transaction-footprint tracer (Figures 10 and 11).
//!
//! The paper collected the data addresses accessed in transactions with a
//! trace tool while running the STAMP benchmarks sequentially, then mapped
//! the addresses to each processor's cache lines and reported 90-percentile
//! transactional load/store sizes. [`SeqTracer`] does the same: attached to
//! a sequential execution, it records each atomic block's footprint at
//! several line granularities simultaneously.

use std::collections::HashSet;

use htm_core::{Geometry, WordAddr};

/// One atomic block's footprint: sorted distinct (load-line, store-line) IDs.
pub type BlockLines = (Vec<u32>, Vec<u32>);

/// Footprint recorder for sequential execution.
#[derive(Debug)]
pub struct SeqTracer {
    geoms: Vec<Geometry>,
    cur_loads: Vec<HashSet<u32>>,
    cur_stores: Vec<HashSet<u32>>,
    samples: Vec<Vec<(u32, u32)>>,
    line_sets: Option<Vec<Vec<BlockLines>>>,
    in_block: bool,
}

impl SeqTracer {
    /// Creates a tracer recording footprints at each of the given line
    /// granularities (bytes).
    ///
    /// # Panics
    ///
    /// Panics if `granularities` is empty or contains an invalid line size.
    pub fn new(granularities: &[u32]) -> SeqTracer {
        assert!(!granularities.is_empty(), "tracer needs at least one granularity");
        let geoms: Vec<Geometry> = granularities.iter().map(|&g| Geometry::new(g)).collect();
        SeqTracer {
            cur_loads: vec![HashSet::new(); geoms.len()],
            cur_stores: vec![HashSet::new(); geoms.len()],
            samples: vec![Vec::new(); geoms.len()],
            line_sets: None,
            geoms,
            in_block: false,
        }
    }

    /// Additionally keeps each block's distinct line IDs (sorted), not just
    /// their counts. Capacity prediction needs the IDs themselves: on a
    /// set-associative tracker two footprints of equal size can differ in
    /// set conflicts.
    pub fn keep_line_sets(mut self) -> SeqTracer {
        self.line_sets = Some(vec![Vec::new(); self.geoms.len()]);
        self
    }

    /// The granularities being traced, in creation order.
    pub fn granularities(&self) -> Vec<u32> {
        self.geoms.iter().map(|g| g.line_bytes()).collect()
    }

    /// Starts a new atomic block.
    pub fn begin_block(&mut self) {
        for s in self.cur_loads.iter_mut().chain(self.cur_stores.iter_mut()) {
            s.clear();
        }
        self.in_block = true;
    }

    /// Records a load inside the current block.
    // Cold: only footprint-tracing runs attach a tracer, and out of line it
    // leaves the engine's sequential load loop its registers.
    #[cold]
    pub fn record_load(&mut self, addr: WordAddr) {
        if !self.in_block {
            return;
        }
        for (i, g) in self.geoms.iter().enumerate() {
            self.cur_loads[i].insert(g.line_of(addr).0);
        }
    }

    /// Records a store inside the current block.
    pub fn record_store(&mut self, addr: WordAddr) {
        if !self.in_block {
            return;
        }
        for (i, g) in self.geoms.iter().enumerate() {
            self.cur_stores[i].insert(g.line_of(addr).0);
        }
    }

    /// Finishes the current block, appending one (load-lines, store-lines)
    /// sample per granularity.
    pub fn end_block(&mut self) {
        if !self.in_block {
            return;
        }
        for i in 0..self.geoms.len() {
            self.samples[i].push((self.cur_loads[i].len() as u32, self.cur_stores[i].len() as u32));
            if let Some(sets) = &mut self.line_sets {
                let mut loads: Vec<u32> = self.cur_loads[i].iter().copied().collect();
                let mut stores: Vec<u32> = self.cur_stores[i].iter().copied().collect();
                loads.sort_unstable();
                stores.sort_unstable();
                sets[i].push((loads, stores));
            }
        }
        self.in_block = false;
    }

    /// Abandons the current block without taking a sample (panic recovery:
    /// the body died mid-block, so its partial footprint is meaningless).
    pub fn abandon_block(&mut self) {
        for s in self.cur_loads.iter_mut().chain(self.cur_stores.iter_mut()) {
            s.clear();
        }
        self.in_block = false;
    }

    /// All samples recorded at granularity index `i` (same order as
    /// [`SeqTracer::granularities`]); empty for an out-of-range index.
    pub fn samples(&self, i: usize) -> &[(u32, u32)] {
        self.samples.get(i).map_or(&[], Vec::as_slice)
    }

    /// Per-block sorted (load-line, store-line) ID sets at granularity `i`;
    /// empty unless the tracer was built with [`SeqTracer::keep_line_sets`]
    /// (or for an out-of-range index).
    pub fn line_sets(&self, i: usize) -> &[BlockLines] {
        self.line_sets.as_ref().and_then(|s| s.get(i)).map_or(&[], Vec::as_slice)
    }

    /// 90-percentile transactional load size in bytes at granularity `i`
    /// (the x-axis of Figure 10); 0 for an out-of-range index.
    pub fn p90_load_bytes(&self, i: usize) -> u64 {
        let Some(geom) = self.geoms.get(i) else { return 0 };
        let mut v: Vec<u32> = self.samples[i].iter().map(|&(l, _)| l).collect();
        crate::stats::percentile(&mut v, 90.0) as u64 * geom.line_bytes() as u64
    }

    /// 90-percentile transactional store size in bytes at granularity `i`
    /// (the x-axis of Figure 11); 0 for an out-of-range index.
    pub fn p90_store_bytes(&self, i: usize) -> u64 {
        let Some(geom) = self.geoms.get(i) else { return 0 };
        let mut v: Vec<u32> = self.samples[i].iter().map(|&(_, s)| s).collect();
        crate::stats::percentile(&mut v, 90.0) as u64 * geom.line_bytes() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_distinct_lines_per_granularity() {
        let mut t = SeqTracer::new(&[8, 64]);
        t.begin_block();
        // Words 0 and 7: two 8-byte lines, one 64-byte line.
        t.record_load(WordAddr(0));
        t.record_load(WordAddr(7));
        t.record_store(WordAddr(0));
        t.end_block();
        assert_eq!(t.samples(0), &[(2, 1)]);
        assert_eq!(t.samples(1), &[(1, 1)]);
    }

    #[test]
    fn repeated_access_counts_once() {
        let mut t = SeqTracer::new(&[64]);
        t.begin_block();
        for _ in 0..10 {
            t.record_load(WordAddr(3));
        }
        t.end_block();
        assert_eq!(t.samples(0), &[(1, 0)]);
    }

    #[test]
    fn accesses_outside_blocks_are_ignored() {
        let mut t = SeqTracer::new(&[64]);
        t.record_load(WordAddr(0));
        t.begin_block();
        t.end_block();
        assert_eq!(t.samples(0), &[(0, 0)]);
    }

    #[test]
    fn p90_in_bytes() {
        let mut t = SeqTracer::new(&[64]);
        // 10 blocks touching 1..=10 distinct load lines.
        for n in 1..=10u32 {
            t.begin_block();
            for k in 0..n {
                t.record_load(WordAddr(k * 8));
            }
            t.end_block();
        }
        assert_eq!(t.p90_load_bytes(0), 9 * 64);
        assert_eq!(t.p90_store_bytes(0), 0);
    }

    #[test]
    fn abandoned_block_takes_no_sample() {
        let mut t = SeqTracer::new(&[64]);
        t.begin_block();
        t.record_load(WordAddr(0));
        t.abandon_block();
        assert!(t.samples(0).is_empty());
        // Recording resumes cleanly after the abandon.
        t.begin_block();
        t.end_block();
        assert_eq!(t.samples(0), &[(0, 0)]);
    }

    #[test]
    fn out_of_range_granularity_is_safe() {
        let t = SeqTracer::new(&[64]);
        assert!(t.samples(5).is_empty());
        assert_eq!(t.p90_load_bytes(5), 0);
        assert_eq!(t.p90_store_bytes(5), 0);
    }

    #[test]
    fn line_sets_are_kept_only_on_request() {
        let mut t = SeqTracer::new(&[8]);
        t.begin_block();
        t.record_load(WordAddr(0));
        t.end_block();
        assert!(t.line_sets(0).is_empty(), "off by default");

        let mut t = SeqTracer::new(&[8]).keep_line_sets();
        t.begin_block();
        t.record_load(WordAddr(9));
        t.record_load(WordAddr(0));
        t.record_store(WordAddr(0));
        t.end_block();
        assert_eq!(t.line_sets(0), &[(vec![0, 9], vec![0])]);
        assert!(t.line_sets(7).is_empty());
    }

    #[test]
    fn blocks_reset_between_samples() {
        let mut t = SeqTracer::new(&[64]);
        t.begin_block();
        t.record_store(WordAddr(0));
        t.end_block();
        t.begin_block();
        t.end_block();
        assert_eq!(t.samples(0), &[(0, 1), (0, 0)]);
    }
}

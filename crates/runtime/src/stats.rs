//! Run statistics: the measurement side of the reproduction.
//!
//! Collects per-thread counters that aggregate into exactly the metrics the
//! paper reports:
//!
//! * **speed-up ratio** — sequential cycles / max worker cycles (Figures 2,
//!   4, 5, 7, 9),
//! * **transaction-abort ratio** — aborted transactions as a percentage of
//!   all transactions excluding irrevocable ones, broken down into the four
//!   categories of Figure 3,
//! * **serialization ratio** — irrevocable (global-lock) commits as a
//!   percentage of all committed transactions (Section 5.1).
//!
//! The Figure 10/11 footprints are not run statistics: a traced sequential
//! run records them in a [`SeqTracer`](crate::SeqTracer).

use htm_core::{AbortCategory, CertifyReport, ConflictEvent, OpacityReport, RaceReport};

/// Sub-bucket resolution of [`LatencyHistogram`]: each power-of-two value
/// range is split into `2^SUB_BITS` linear sub-buckets, bounding the
/// relative quantization error at `2^-SUB_BITS` (12.5%).
const SUB_BITS: u32 = 3;

/// HDR-style log-bucketed histogram of simulated-cycle request latencies.
///
/// Values are placed into buckets whose width grows geometrically: exact
/// below `2^(SUB_BITS+1)`, then `2^SUB_BITS` linear sub-buckets per
/// power-of-two range. Recording is O(1), memory is O(log(max value)), and
/// two histograms merge by element-wise addition — so per-thread histograms
/// fold into a run-wide one exactly like the scalar counters on
/// [`ThreadStats`], and merging is associative and commutative.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Bucket counts, grown lazily to the highest index touched.
    buckets: Vec<u64>,
    /// Total recorded values.
    count: u64,
    /// Sum of recorded values (for mean latency).
    sum: u64,
}

impl LatencyHistogram {
    /// Bucket index for `v`: identity below `2^(SUB_BITS+1)`, then
    /// `shift * 2^SUB_BITS + (v >> shift)` where `shift` positions the
    /// top `SUB_BITS + 1` bits of `v`.
    fn index(v: u64) -> usize {
        if v < (1 << (SUB_BITS + 1)) {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        (shift as usize) * (1 << SUB_BITS) + (v >> shift) as usize
    }

    /// Largest value mapping to bucket `idx` (the reported quantile value:
    /// nearest-rank percentiles err on the conservative side).
    fn upper_bound(idx: usize) -> u64 {
        if idx < (1 << (SUB_BITS + 1)) {
            return idx as u64;
        }
        let shift = (idx >> SUB_BITS) as u32 - 1;
        let top = ((1 << SUB_BITS) + (idx & ((1 << SUB_BITS) - 1))) as u64;
        // The highest bucket's bound wraps past u64::MAX; wrapping_sub
        // turns the wrapped 0 into u64::MAX, which is the true cover.
        ((top + 1) << shift).wrapping_sub(1)
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        let idx = Self::index(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank `pct`-percentile (0–100) over bucket upper bounds, or 0
    /// when empty. `value_at(50.0)` is the median, `value_at(99.9)` the
    /// tail the service experiment reports.
    pub fn value_at(&self, pct: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((pct / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::upper_bound(idx);
            }
        }
        Self::upper_bound(self.buckets.len().saturating_sub(1))
    }

    /// Element-wise fold of `other` into `self`. Associative and
    /// commutative: merging per-thread histograms in any grouping yields
    /// identical percentiles.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// Declares the run counters once. The invocation below reads as the
/// [`ThreadStats`] struct, except that its scalar `u64` counters sit in a
/// `counters { .. }` block as `name,` entries with their docs. Each entry
/// becomes
///
/// * a `pub name: u64` field of `ThreadStats`,
/// * a line of [`ThreadStats::merge`],
/// * a [`RunStats`] method `name()` summing it over threads, and
/// * a name in [`ThreadStats::COUNTERS`] and a row of
///   [`RunStats::counters`], which cell results and the result-cache key
///   read instead of naming counters.
///
/// The fields after the block are passed through as written and merged by
/// hand.
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct ThreadStats {
            counters {
                $( $(#[doc = $doc:literal])+ $name:ident, )+
            }
            $( $(#[$fmeta:meta])* pub $field:ident: $fty:ty, )+
        }
    ) => {
        $(#[$meta])*
        pub struct ThreadStats {
            $( $(#[doc = $doc])+ pub $name: u64, )+
            $( $(#[$fmeta])* pub $field: $fty, )+
        }

        impl ThreadStats {
            /// The scalar counters' names, in declaration order.
            pub const COUNTERS: &'static [&'static str] = &[$(stringify!($name)),+];

            /// Adds `other`'s scalar counters to `self`'s.
            fn add_counters(&mut self, other: &ThreadStats) {
                $( self.$name += other.$name; )+
            }
        }

        impl RunStats {
            $(
                #[doc = concat!("[`ThreadStats::", stringify!($name), "`] summed over threads.")]
                pub fn $name(&self) -> u64 {
                    self.threads.iter().map(|t| t.$name).sum()
                }
            )+

            /// Every scalar counter's name and its sum over threads, in
            /// [`ThreadStats::COUNTERS`] order.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$( (stringify!($name), self.$name()) ),+].into_iter()
            }
        }
    };
}

counters! {
    /// Counters collected by one worker thread.
    #[derive(Clone, Debug, Default)]
    pub struct ThreadStats {
        counters {
            /// Hardware transactions that committed.
            hw_commits,
            /// Atomic blocks executed irrevocably under the global lock.
            irrevocable_commits,
            /// Software (NOrec-style STM fallback) transactions that committed,
            /// under [`FallbackPolicy::Stm`](htm_hytm::FallbackPolicy).
            stm_commits,
            /// Software-transaction attempts that failed value-based validation of
            /// their read log (at commit or at an incremental revalidation). Not
            /// part of the Figure-3 hardware abort categories: a validation
            /// failure is a software retry, not a hardware abort.
            stm_validation_aborts,
            /// POWER8 rollback-only transactions that committed, under
            /// [`FallbackPolicy::Rot`](htm_hytm::FallbackPolicy).
            rot_commits,
            /// Times a software-tier commit had to wait for the sequence lock
            /// (contended STM/ROT commits; lock-tier acquisitions are not counted
            /// here).
            fallback_lock_waits,
            /// Capacity-spilled POWER8 transactions that committed (hardware
            /// commits whose overflow footprint was validated through the side
            /// log). A subset of neither [`ThreadStats::hw_commits`] nor
            /// [`ThreadStats::stm_commits`]: spilled commits are their own tier.
            spill_commits,
            /// Overflow entries spilled past the TMCAM into the software side log
            /// (one per spilled first-access, summed over attempts).
            capacity_spills,
            /// Times the adaptive contention manager changed execution tier at an
            /// observation-window boundary (or on a starvation rescue).
            tier_switches,
            /// Simulated cycles spent in randomized exponential backoff between
            /// attempts under the adaptive policy.
            backoff_cycles,
            /// Watchdog trips under the adaptive policy that forced the controller
            /// into its lock-tier rescue window (a subset of
            /// [`ThreadStats::watchdog_trips`]).
            adapt_starvation_rescues,
            /// Simulated cycles spent blocked waiting for Blue Gene/Q speculation
            /// IDs.
            spec_id_wait_cycles,
            /// Simulated cycles spent spinning on the global lock (lemming
            /// avoidance + acquisition).
            lock_wait_cycles,
            /// Faults injected into this thread by the run's
            /// [`FaultPlan`](crate::FaultPlan) (0 under the empty plan).
            injected_faults,
            /// Times the livelock watchdog tripped: an atomic block exhausted its
            /// starvation bound and was forced into degraded (irrevocable)
            /// execution.
            watchdog_trips,
            /// Atomic blocks committed in degraded mode after a watchdog trip
            /// (a subset of [`ThreadStats::irrevocable_commits`]).
            degraded_commits,
            /// Simulated cycles spent executing in degraded mode.
            degraded_cycles,
        }
        /// Aborts per Figure-3 category (indexed by position in
        /// [`AbortCategory::ALL`]).
        pub aborts: [u64; 5],
        /// Final value of the thread's simulated clock.
        pub cycles: u64,
        /// Conflict aborts attributed to their aggressor thread and line,
        /// recorded only under [`SimConfig::sanitize`](crate::SimConfig).
        pub conflicts: Vec<ConflictEvent>,
        /// Per-request simulated-cycle latencies recorded by service workloads
        /// via [`ThreadCtx::record_latency`](crate::ThreadCtx::record_latency)
        /// (empty for workloads that never record).
        pub latency: LatencyHistogram,
    }
}

impl ThreadStats {
    /// Records one abort in `category`.
    pub fn record_abort(&mut self, category: AbortCategory) {
        self.aborts[category.index()] += 1;
    }

    /// Total aborts across categories.
    pub fn total_aborts(&self) -> u64 {
        self.aborts.iter().sum()
    }

    /// Folds `other` into `self` as if this thread had executed both runs
    /// back to back: counters sum, clocks add, and recorded conflict events
    /// concatenate.
    pub fn merge(&mut self, other: &ThreadStats) {
        self.add_counters(other);
        for (a, b) in self.aborts.iter_mut().zip(other.aborts.iter()) {
            *a += b;
        }
        self.cycles += other.cycles;
        self.conflicts.extend_from_slice(&other.conflicts);
        self.latency.merge(&other.latency);
    }
}

/// Aggregated statistics for a whole run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Per-thread statistics, indexed by thread id.
    pub threads: Vec<ThreadStats>,
    /// Correctness-certifier report, present when the run was executed with
    /// certification enabled ([`SimConfig::certify`](crate::SimConfig)).
    pub certify: Option<CertifyReport>,
    /// Happens-before race report, present when the run was executed with
    /// the sanitizer enabled ([`SimConfig::sanitize`](crate::SimConfig)).
    pub race: Option<RaceReport>,
    /// Opacity report over aborted attempts, present when the run was
    /// executed with certification enabled
    /// ([`SimConfig::certify`](crate::SimConfig)).
    pub opacity: Option<OpacityReport>,
}

impl RunStats {
    /// Builds aggregate stats from per-thread results.
    pub fn new(threads: Vec<ThreadStats>) -> RunStats {
        RunStats { threads, certify: None, race: None, opacity: None }
    }

    /// Folds another run into this one, thread by thread, as if each
    /// thread had executed both runs back to back: counters sum, clocks
    /// add, and attached certifier/race reports combine (event counts sum,
    /// violation and race lists concatenate, truncation is sticky).
    ///
    /// This is the central repeat-cell aggregator: harnesses that average
    /// a cell over repetitions merge the runs' stats here and compute
    /// ratio-of-averages metrics from the result, instead of summing
    /// counters ad hoc per binary.
    pub fn merge(&mut self, other: &RunStats) {
        if self.threads.len() < other.threads.len() {
            self.threads.resize_with(other.threads.len(), ThreadStats::default);
        }
        for (t, o) in self.threads.iter_mut().zip(other.threads.iter()) {
            t.merge(o);
        }
        self.certify = match (self.certify.take(), &other.certify) {
            (Some(mut a), Some(b)) => {
                a.events += b.events;
                a.edges += b.edges;
                a.violations.extend(b.violations.iter().cloned());
                a.truncated |= b.truncated;
                a.lock_acquisitions += b.lock_acquisitions;
                Some(a)
            }
            (a, b) => a.or_else(|| b.clone()),
        };
        self.race = match (self.race.take(), &other.race) {
            (Some(mut a), Some(b)) => {
                a.races.extend(b.races.iter().cloned());
                a.segments.extend(b.segments.iter().cloned());
                a.words_checked += b.words_checked;
                a.truncated |= b.truncated;
                Some(a)
            }
            (a, b) => a.or_else(|| b.clone()),
        };
        self.opacity = match (self.opacity.take(), &other.opacity) {
            (Some(mut a), Some(b)) => {
                a.attempts += b.attempts;
                a.reads_checked += b.reads_checked;
                a.violations.extend(b.violations.iter().cloned());
                a.truncated |= b.truncated;
                Some(a)
            }
            (a, b) => a.or_else(|| b.clone()),
        };
    }

    /// Merges a sequence of runs into one aggregate (empty input gives
    /// empty stats).
    pub fn merged<'a>(runs: impl IntoIterator<Item = &'a RunStats>) -> RunStats {
        let mut acc = RunStats::default();
        for r in runs {
            acc.merge(r);
        }
        acc
    }

    /// Parallel runtime: the maximum simulated clock over workers.
    pub fn cycles(&self) -> u64 {
        self.threads.iter().map(|t| t.cycles).max().unwrap_or(0)
    }

    /// Total aborts summed over threads.
    pub fn total_aborts(&self) -> u64 {
        self.threads.iter().map(|t| t.total_aborts()).sum()
    }

    /// Aborts in one Figure-3 category, summed over threads.
    pub fn aborts_in(&self, category: AbortCategory) -> u64 {
        let idx = category.index();
        self.threads.iter().map(|t| t.aborts[idx]).sum()
    }

    /// The paper's transaction-abort ratio: aborted transactions as a
    /// fraction of all transactions, excluding irrevocable ones.
    ///
    /// A transaction attempt that aborts and later commits counts once as
    /// an abort and once as a commit, matching hardware event counters.
    pub fn abort_ratio(&self) -> f64 {
        let aborts = self.total_aborts() as f64;
        let attempts = aborts + self.hw_commits() as f64;
        if attempts == 0.0 {
            0.0
        } else {
            aborts / attempts
        }
    }

    /// Share of one category within all aborts-plus-commits (the height of
    /// one segment of a Figure-3 stacked bar, as a fraction).
    pub fn abort_ratio_of(&self, category: AbortCategory) -> f64 {
        let aborts = self.aborts_in(category) as f64;
        let attempts = self.total_aborts() as f64 + self.hw_commits() as f64;
        if attempts == 0.0 {
            0.0
        } else {
            aborts / attempts
        }
    }

    /// The serialization ratio: irrevocable commits as a fraction of all
    /// committed atomic blocks. STM and ROT commits count as concurrent
    /// (non-serialized) executions, so switching the fallback policy away
    /// from the global lock lowers this ratio.
    pub fn serialization_ratio(&self) -> f64 {
        let irr = self.irrevocable_commits() as f64;
        let all = self.committed_blocks() as f64;
        if all == 0.0 {
            0.0
        } else {
            irr / all
        }
    }

    /// All committed atomic blocks (hardware + irrevocable + STM + ROT +
    /// capacity-spilled).
    pub fn committed_blocks(&self) -> u64 {
        self.hw_commits()
            + self.irrevocable_commits()
            + self.stm_commits()
            + self.rot_commits()
            + self.spill_commits()
    }

    /// Run-wide latency histogram: per-thread histograms merged (empty for
    /// workloads that never record latencies).
    pub fn latency(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::default();
        for t in &self.threads {
            h.merge(&t.latency);
        }
        h
    }

    /// All attributed conflict events, concatenated across threads
    /// (empty unless the run was sanitized).
    pub fn conflicts(&self) -> impl Iterator<Item = ConflictEvent> + '_ {
        self.threads.iter().flat_map(|t| t.conflicts.iter().copied())
    }
}

/// Returns the `pct`-percentile (0–100) of `values` using nearest-rank, or
/// 0 for an empty slice. Used for the 90-percentile transaction sizes of
/// Figures 10 and 11.
pub fn percentile(values: &mut [u32], pct: f64) -> u32 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((pct / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(commits: u64, irr: u64, aborts: &[(AbortCategory, u64)]) -> RunStats {
        let mut t =
            ThreadStats { hw_commits: commits, irrevocable_commits: irr, ..Default::default() };
        for &(cat, n) in aborts {
            for _ in 0..n {
                t.record_abort(cat);
            }
        }
        RunStats::new(vec![t])
    }

    #[test]
    fn abort_ratio_excludes_irrevocable() {
        let s = stats_with(75, 1000, &[(AbortCategory::DataConflict, 25)]);
        assert!((s.abort_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn serialization_ratio() {
        let s = stats_with(80, 20, &[]);
        assert!((s.serialization_ratio() - 0.2).abs() < 1e-12);
        assert_eq!(s.committed_blocks(), 100);
    }

    #[test]
    fn empty_run_has_zero_ratios() {
        let s = RunStats::new(vec![ThreadStats::default()]);
        assert_eq!(s.abort_ratio(), 0.0);
        assert_eq!(s.serialization_ratio(), 0.0);
        assert_eq!(s.cycles(), 0);
    }

    #[test]
    fn category_breakdown_sums_to_total() {
        let s = stats_with(
            10,
            0,
            &[
                (AbortCategory::Capacity, 3),
                (AbortCategory::DataConflict, 4),
                (AbortCategory::Other, 2),
                (AbortCategory::LockConflict, 1),
            ],
        );
        let sum: f64 = AbortCategory::ALL.iter().map(|c| s.abort_ratio_of(*c)).sum();
        assert!((sum - s.abort_ratio()).abs() < 1e-12);
        assert_eq!(s.aborts_in(AbortCategory::Capacity), 3);
        assert_eq!(s.total_aborts(), 10);
    }

    #[test]
    fn cycles_is_max_over_threads() {
        let a = ThreadStats { cycles: 100, ..Default::default() };
        let b = ThreadStats { cycles: 250, ..Default::default() };
        let s = RunStats::new(vec![a, b]);
        assert_eq!(s.cycles(), 250);
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut v = (1..=100u32).collect::<Vec<_>>();
        assert_eq!(percentile(&mut v, 90.0), 90);
        assert_eq!(percentile(&mut v, 100.0), 100);
        let mut single = vec![7u32];
        assert_eq!(percentile(&mut single, 90.0), 7);
        assert_eq!(percentile(&mut [], 90.0), 0);
        let mut v = vec![5, 1, 9, 3];
        assert_eq!(percentile(&mut v, 50.0), 3);
    }

    #[test]
    fn robustness_counters_sum_over_threads() {
        let a = ThreadStats {
            injected_faults: 3,
            watchdog_trips: 1,
            degraded_commits: 2,
            degraded_cycles: 500,
            ..Default::default()
        };
        let b = ThreadStats { injected_faults: 4, degraded_cycles: 100, ..Default::default() };
        let s = RunStats::new(vec![a, b]);
        assert_eq!(s.injected_faults(), 7);
        assert_eq!(s.watchdog_trips(), 1);
        assert_eq!(s.degraded_commits(), 2);
        assert_eq!(s.degraded_cycles(), 600);
    }

    #[test]
    fn hytm_counters_sum_and_count_as_concurrent_commits() {
        let a = ThreadStats {
            hw_commits: 6,
            irrevocable_commits: 1,
            stm_commits: 2,
            stm_validation_aborts: 5,
            fallback_lock_waits: 3,
            ..Default::default()
        };
        let b = ThreadStats { stm_commits: 1, rot_commits: 4, ..Default::default() };
        let mut s = RunStats::new(vec![a.clone()]);
        s.merge(&RunStats::new(vec![b]));
        assert_eq!(s.stm_commits(), 3);
        assert_eq!(s.stm_validation_aborts(), 5);
        assert_eq!(s.rot_commits(), 4);
        assert_eq!(s.fallback_lock_waits(), 3);
        assert_eq!(s.committed_blocks(), 6 + 1 + 3 + 4);
        // STM/ROT commits dilute the serialization ratio: only the
        // irrevocable path serializes.
        assert!((s.serialization_ratio() - 1.0 / 14.0).abs() < 1e-12);
        // Validation failures are not hardware aborts.
        assert_eq!(s.total_aborts(), 0);
    }

    #[test]
    fn adaptive_counters_sum_and_spills_count_as_commits() {
        let a = ThreadStats {
            hw_commits: 4,
            spill_commits: 2,
            capacity_spills: 9,
            tier_switches: 3,
            backoff_cycles: 120,
            watchdog_trips: 2,
            adapt_starvation_rescues: 1,
            ..Default::default()
        };
        let b = ThreadStats { spill_commits: 1, tier_switches: 2, ..Default::default() };
        let mut s = RunStats::new(vec![a]);
        s.merge(&RunStats::new(vec![b]));
        assert_eq!(s.spill_commits(), 3);
        assert_eq!(s.capacity_spills(), 9);
        assert_eq!(s.tier_switches(), 5);
        assert_eq!(s.backoff_cycles(), 120);
        assert_eq!(s.adapt_starvation_rescues(), 1);
        assert_eq!(s.committed_blocks(), 4 + 3, "spilled commits are commits");
    }

    #[test]
    fn merge_sums_counters_and_pads_threads() {
        let mut a = RunStats::new(vec![ThreadStats {
            hw_commits: 10,
            irrevocable_commits: 1,
            cycles: 100,
            injected_faults: 2,
            ..Default::default()
        }]);
        let mut bt = ThreadStats { hw_commits: 5, cycles: 30, ..Default::default() };
        bt.record_abort(AbortCategory::Capacity);
        let b = RunStats::new(vec![bt, ThreadStats { cycles: 70, ..Default::default() }]);
        a.merge(&b);
        assert_eq!(a.threads.len(), 2);
        assert_eq!(a.hw_commits(), 15);
        assert_eq!(a.irrevocable_commits(), 1);
        assert_eq!(a.threads[0].cycles, 130);
        assert_eq!(a.threads[1].cycles, 70);
        assert_eq!(a.aborts_in(AbortCategory::Capacity), 1);
        assert_eq!(a.injected_faults(), 2);
    }

    #[test]
    fn merged_over_reps_matches_manual_sums() {
        let one = |c: u64| {
            RunStats::new(vec![ThreadStats { hw_commits: c, cycles: 10 * c, ..Default::default() }])
        };
        let runs = [one(1), one(2), one(3)];
        let m = RunStats::merged(runs.iter());
        assert_eq!(m.hw_commits(), 6);
        assert_eq!(m.cycles(), 60);
        assert_eq!(RunStats::merged([].into_iter()).hw_commits(), 0);
    }

    #[test]
    fn merge_combines_reports() {
        let report = |events| CertifyReport {
            events,
            edges: 1,
            violations: Vec::new(),
            truncated: false,
            lock_acquisitions: 2,
        };
        let mut a = RunStats::new(vec![]);
        a.certify = Some(report(3));
        let mut b = RunStats::new(vec![]);
        b.certify = Some(report(4));
        a.merge(&b);
        let c = a.certify.as_ref().unwrap();
        assert_eq!((c.events, c.edges, c.lock_acquisitions), (7, 2, 4));

        // One-sided reports survive a merge in either direction.
        let mut lhs = RunStats::new(vec![]);
        lhs.merge(&b);
        assert_eq!(lhs.certify.as_ref().unwrap().events, 4);
        let mut rhs = b.clone();
        rhs.merge(&RunStats::new(vec![]));
        assert_eq!(rhs.certify.as_ref().unwrap().events, 4);
    }

    /// The value of field `name` read from `t`'s `Debug` text, so a test
    /// can look counters up by name without keeping a list of them.
    fn debug_field(t: &ThreadStats, name: &str) -> u64 {
        let text = format!("{t:?}");
        let key = format!(" {name}: ");
        let at = text.find(&key).unwrap_or_else(|| panic!("no field {name} in {text}"));
        let digits: String =
            text[at + key.len()..].chars().take_while(char::is_ascii_digit).collect();
        digits.parse().unwrap_or_else(|_| panic!("field {name} is not a number in {text}"))
    }

    #[test]
    fn counter_table_sums_every_field_and_merge_doubles_every_total() {
        use crate::{FallbackPolicy, FaultPlan, RetryPolicy, Sim, SimConfig};
        use htm_machine::Platform;

        // Two threads on one word, with injected aborts and a one-retry
        // budget, so the STM fallback commits and most counters are nonzero.
        let cfg = SimConfig::new(Platform::IntelCore.config())
            .mem_words(1 << 16)
            .seed(0x7AB1E)
            .faults(FaultPlan::none().transient_abort_per_begin(0.4))
            .fallback(FallbackPolicy::Stm);
        let sim = Sim::new(cfg);
        let base = sim.alloc().alloc_aligned(8, 64);
        let s = sim.run_parallel(2, RetryPolicy::uniform(1), |ctx| {
            for _ in 0..200 {
                ctx.atomic(|tx| {
                    let v = tx.load(base)?;
                    tx.store(base, v + 1)
                });
            }
        });
        assert!(s.stm_commits() > 0 && s.injected_faults() > 0, "{s:?}");

        let names: Vec<&str> = s.counters().map(|(name, _)| name).collect();
        assert_eq!(names, ThreadStats::COUNTERS);
        for (name, total) in s.counters() {
            let fields: u64 = s.threads.iter().map(|t| debug_field(t, name)).sum();
            assert_eq!(total, fields, "{name}");
        }
        let doubled = RunStats::merged([&s, &s]);
        for ((name, once), (_, twice)) in s.counters().zip(doubled.counters()) {
            assert_eq!(twice, 2 * once, "{name}");
        }
    }

    #[test]
    fn histogram_index_is_monotone_with_bounded_error() {
        let mut last = 0usize;
        for v in 0..10_000u64 {
            let idx = LatencyHistogram::index(v);
            assert!(idx >= last, "index not monotone at {v}");
            last = idx;
            let ub = LatencyHistogram::upper_bound(idx);
            assert!(ub >= v, "upper bound {ub} below value {v}");
            // Relative quantization error bounded by 2^-SUB_BITS.
            assert!(
                (ub - v) as f64 <= (v as f64) / (1 << SUB_BITS) as f64 + 1.0,
                "bucket too wide at {v}: upper {ub}"
            );
        }
        // Large values stay in range and monotone.
        let a = LatencyHistogram::index(u64::MAX / 2);
        let b = LatencyHistogram::index(u64::MAX);
        assert!(b >= a);
        assert!(LatencyHistogram::upper_bound(b) >= u64::MAX - u64::MAX / (1 << SUB_BITS));
    }

    #[test]
    fn histogram_percentiles_nearest_rank() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.value_at(99.0), 0);
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        // Bucketing rounds up to the bucket's upper bound; error <= 12.5%.
        let p50 = h.value_at(50.0);
        assert!((500..=570).contains(&p50), "p50 {p50}");
        let p99 = h.value_at(99.0);
        assert!((990..=1120).contains(&p99), "p99 {p99}");
        assert_eq!(h.value_at(100.0), h.value_at(99.99999));
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_merge_is_associative_and_matches_threadstats_merge() {
        let mk = |vals: &[u64]| {
            let mut h = LatencyHistogram::default();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let a = mk(&[1, 50, 900]);
        let b = mk(&[7, 7, 12_000]);
        let c = mk(&[3, 1_000_000]);
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);

        let mut ta = ThreadStats { latency: a, ..Default::default() };
        let tb = ThreadStats { latency: b, ..Default::default() };
        ta.merge(&tb);
        let s = RunStats::new(vec![ta, ThreadStats { latency: c, ..Default::default() }]);
        assert_eq!(s.latency(), ab_c);
    }
}

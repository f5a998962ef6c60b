//! Deterministic record/replay of parallel runs.
//!
//! `Sim::record_parallel` runs a workload normally while — per thread —
//! capturing the *decision stream* of every atomic block: how many hardware
//! attempts aborted (with cause, Figure-3 category, injected-fault count,
//! workload-RNG draws and allocation sizes each attempt consumed) and how
//! the block finally committed (hardware, constrained, or irrevocable /
//! degraded), stamped with its position in the global commit order. The
//! result is a [`ScheduleTrace`], serializable to disk as a small text
//! file.
//!
//! `Sim::replay` re-executes the same workload against the trace: aborted
//! attempts are *not* re-executed (re-running a doomed body against
//! already-moved memory would diverge) — their statistics are re-applied,
//! their RNG draws skipped and their allocations re-issued, so the workload
//! RNG stream and the per-thread allocator state stay bit-identical.
//! Committing bodies then execute once each, serialized by a global
//! turnstile in recorded commit order through the normal engine paths.
//! Serialized execution cannot conflict, so every replayed body commits on
//! its recorded path and observes exactly the values the original committed
//! execution observed (this is the opacity property the certifier checks).
//!
//! Replay disables fault injection, the watchdog, and zEC12's probabilistic
//! restriction aborts: those decisions are already baked into the trace.
//!
//! Bit-identical memory digests additionally require that the parallel
//! phase performs no allocation from the *shared* chunk allocator (per-
//! thread chunk grabs are schedule-ordered); workloads that pre-allocate in
//! their setup phase replay bit-identically.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One aborted hardware attempt inside an atomic block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct AttemptRecord {
    /// Encoded [`AbortCause`](htm_core::AbortCause) (diagnostics).
    pub cause: u32,
    /// Figure-3 category index the abort was recorded under.
    pub category: u8,
    /// Faults injected into this attempt.
    pub faults: u32,
    /// Workload-RNG draws the attempt's body consumed.
    pub draws: u64,
    /// `Tx::alloc` sizes (words) the attempt's body issued.
    pub allocs: Vec<u32>,
}

/// How an atomic block finally committed. `order` is the block's dense rank
/// in the global commit order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BlockOutcome {
    /// Committed as a hardware transaction.
    Hw { order: u64 },
    /// Committed as a zEC12 constrained transaction.
    Constrained { order: u64 },
    /// Committed as a software (STM fallback) transaction.
    Stm { order: u64 },
    /// Committed as a software-validated rollback-only (ROT tier)
    /// transaction.
    Rot { order: u64 },
    /// Committed as a capacity-stretched (spill tier) POWER8 transaction:
    /// a hardware commit under the sequence lock whose overflow footprint
    /// was validated through the software side log.
    Spilled { order: u64 },
    /// Committed irrevocably under the global lock. `degraded` marks
    /// watchdog-degraded blocks; `trip` marks the block that tripped it.
    Irrevocable { order: u64, degraded: bool, trip: bool },
}

impl BlockOutcome {
    pub(crate) fn order(&self) -> u64 {
        match *self {
            BlockOutcome::Hw { order }
            | BlockOutcome::Constrained { order }
            | BlockOutcome::Stm { order }
            | BlockOutcome::Rot { order }
            | BlockOutcome::Spilled { order }
            | BlockOutcome::Irrevocable { order, .. } => order,
        }
    }

    fn with_order(self, order: u64) -> BlockOutcome {
        match self {
            BlockOutcome::Hw { .. } => BlockOutcome::Hw { order },
            BlockOutcome::Constrained { .. } => BlockOutcome::Constrained { order },
            BlockOutcome::Stm { .. } => BlockOutcome::Stm { order },
            BlockOutcome::Rot { .. } => BlockOutcome::Rot { order },
            BlockOutcome::Spilled { .. } => BlockOutcome::Spilled { order },
            BlockOutcome::Irrevocable { degraded, trip, .. } => {
                BlockOutcome::Irrevocable { order, degraded, trip }
            }
        }
    }
}

/// One atomic block: its aborted attempts plus the final outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct BlockRecord {
    pub attempts: Vec<AttemptRecord>,
    pub outcome: BlockOutcome,
}

/// A recorded schedule of one parallel run (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleTrace {
    threads: u32,
    seed: u64,
    per_thread: Vec<Vec<BlockRecord>>,
}

impl ScheduleTrace {
    /// Assembles a trace from per-thread recordings, renumbering the raw
    /// commit-clock stamps into a dense global order (the commit clock is
    /// shared with non-transactional stores and certification, so raw
    /// stamps may have gaps).
    pub(crate) fn assemble(seed: u64, per_thread: Vec<Vec<BlockRecord>>) -> ScheduleTrace {
        let mut stamps: Vec<u64> = per_thread.iter().flatten().map(|b| b.outcome.order()).collect();
        stamps.sort_unstable();
        let rank = |s: u64| stamps.binary_search(&s).expect("stamp present") as u64;
        let per_thread: Vec<Vec<BlockRecord>> = per_thread
            .into_iter()
            .map(|blocks| {
                blocks
                    .into_iter()
                    .map(|b| BlockRecord {
                        attempts: b.attempts,
                        outcome: b.outcome.with_order(rank(b.outcome.order())),
                    })
                    .collect()
            })
            .collect();
        ScheduleTrace { threads: per_thread_len(&per_thread), seed, per_thread }
    }

    /// Worker threads the trace was recorded with (replay must use the
    /// same count).
    pub fn threads(&self) -> u32 {
        self.threads
    }

    /// The `SimConfig` seed of the recorded run (diagnostics; replay should
    /// use a simulation built with the same seed).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total atomic blocks recorded across all threads.
    pub fn blocks(&self) -> usize {
        self.per_thread.iter().map(Vec::len).sum()
    }

    /// Total aborted attempts recorded across all threads.
    pub fn aborted_attempts(&self) -> usize {
        self.per_thread.iter().flatten().map(|b| b.attempts.len()).sum()
    }

    pub(crate) fn thread_blocks(&self, thread: u32) -> Vec<BlockRecord> {
        self.per_thread[thread as usize].clone()
    }

    /// Serializes the trace to its text representation.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "htm-schedule-trace v1");
        let _ = writeln!(out, "threads {} seed {:#x}", self.threads, self.seed);
        for (t, blocks) in self.per_thread.iter().enumerate() {
            let _ = writeln!(out, "thread {t} blocks {}", blocks.len());
            for b in blocks {
                let _ = writeln!(out, "block attempts {}", b.attempts.len());
                for a in &b.attempts {
                    let _ = write!(
                        out,
                        "attempt cause {} cat {} faults {} draws {} allocs",
                        a.cause, a.category, a.faults, a.draws
                    );
                    for w in &a.allocs {
                        let _ = write!(out, " {w}");
                    }
                    let _ = writeln!(out);
                }
                match b.outcome {
                    BlockOutcome::Hw { order } => {
                        let _ = writeln!(out, "commit hw {order}");
                    }
                    BlockOutcome::Constrained { order } => {
                        let _ = writeln!(out, "commit cx {order}");
                    }
                    BlockOutcome::Stm { order } => {
                        let _ = writeln!(out, "commit stm {order}");
                    }
                    BlockOutcome::Rot { order } => {
                        let _ = writeln!(out, "commit rot {order}");
                    }
                    BlockOutcome::Spilled { order } => {
                        let _ = writeln!(out, "commit sp {order}");
                    }
                    BlockOutcome::Irrevocable { order, degraded, trip } => {
                        let _ =
                            writeln!(out, "commit irr {order} {} {}", degraded as u8, trip as u8);
                    }
                }
            }
        }
        out
    }

    /// Parses a trace from its text representation.
    ///
    /// Every count the text declares is checked: thread sections come in
    /// order and hold their declared number of blocks, each block holds its
    /// declared number of attempts and ends in one commit line, and the
    /// commit orders are exactly `0..blocks`, each once (anything else
    /// would stall or break the replay turnstile).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line or count.
    pub fn from_text(text: &str) -> Result<ScheduleTrace, String> {
        let mut lines = text.lines().enumerate();
        let bad = |n: usize, what: &str| format!("schedule trace line {}: {what}", n + 1);
        let (n, header) = lines.next().ok_or("empty schedule trace")?;
        if header.trim() != "htm-schedule-trace v1" {
            return Err(bad(n, "bad header"));
        }
        let (n, meta) = lines.next().ok_or("missing meta line")?;
        let meta_parts: Vec<&str> = meta.split_whitespace().collect();
        let (threads, seed) = match meta_parts.as_slice() {
            ["threads", t, "seed", s] => (
                t.parse::<u32>().map_err(|_| bad(n, "bad thread count"))?,
                parse_u64(s).ok_or_else(|| bad(n, "bad seed"))?,
            ),
            _ => return Err(bad(n, "expected `threads <n> seed <s>`")),
        };
        let mut per_thread: Vec<Vec<BlockRecord>> = Vec::new();
        // The open thread section and the open block, each with its
        // declared count.
        let mut thread: Option<(usize, Vec<BlockRecord>)> = None;
        let mut block: Option<(usize, Vec<AttemptRecord>)> = None;
        for (n, line) in lines {
            let parts: Vec<&str> = line.split_whitespace().collect();
            match parts.as_slice() {
                ["thread", t, "blocks", b] => {
                    if block.is_some() {
                        return Err(bad(n, "thread starts inside a block"));
                    }
                    close_thread(thread.take(), &mut per_thread)?;
                    if t.parse::<usize>().ok() != Some(per_thread.len()) {
                        return Err(bad(n, "thread sections out of order"));
                    }
                    thread = Some((b.parse().map_err(|_| bad(n, "bad block count"))?, Vec::new()));
                }
                ["block", "attempts", k] => {
                    if thread.is_none() {
                        return Err(bad(n, "block outside a thread"));
                    }
                    if block.is_some() {
                        return Err(bad(n, "block starts before the previous one committed"));
                    }
                    block = Some((k.parse().map_err(|_| bad(n, "bad attempt count"))?, Vec::new()));
                }
                ["attempt", "cause", c, "cat", k, "faults", f, "draws", d, "allocs", rest @ ..] => {
                    let (_, attempts) =
                        block.as_mut().ok_or_else(|| bad(n, "attempt outside a block"))?;
                    let mut allocs = Vec::with_capacity(rest.len());
                    for w in rest {
                        allocs.push(w.parse::<u32>().map_err(|_| bad(n, "bad alloc size"))?);
                    }
                    attempts.push(AttemptRecord {
                        cause: c.parse().map_err(|_| bad(n, "bad cause"))?,
                        category: k.parse().map_err(|_| bad(n, "bad category"))?,
                        faults: f.parse().map_err(|_| bad(n, "bad fault count"))?,
                        draws: d.parse().map_err(|_| bad(n, "bad draw count"))?,
                        allocs,
                    });
                }
                ["commit", kind, args @ ..] => {
                    let (declared, attempts) =
                        block.take().ok_or_else(|| bad(n, "commit outside a block"))?;
                    if attempts.len() != declared {
                        return Err(bad(
                            n,
                            &format!(
                                "block declares {declared} attempts but has {}",
                                attempts.len()
                            ),
                        ));
                    }
                    let order = |o: &str| o.parse::<u64>().map_err(|_| bad(n, "bad order"));
                    let outcome = match (*kind, args) {
                        ("hw", [o]) => BlockOutcome::Hw { order: order(o)? },
                        ("cx", [o]) => BlockOutcome::Constrained { order: order(o)? },
                        ("stm", [o]) => BlockOutcome::Stm { order: order(o)? },
                        ("rot", [o]) => BlockOutcome::Rot { order: order(o)? },
                        ("sp", [o]) => BlockOutcome::Spilled { order: order(o)? },
                        ("irr", [o, d, t]) => BlockOutcome::Irrevocable {
                            order: order(o)?,
                            degraded: *d == "1",
                            trip: *t == "1",
                        },
                        _ => return Err(bad(n, "bad commit line")),
                    };
                    let (_, blocks) = thread.as_mut().expect("an open block has an open thread");
                    blocks.push(BlockRecord { attempts, outcome });
                }
                [] => {}
                _ => return Err(bad(n, "unrecognized line")),
            }
        }
        if block.is_some() {
            return Err("schedule trace ends inside a block".into());
        }
        close_thread(thread, &mut per_thread)?;
        if per_thread.len() != threads as usize {
            return Err(format!(
                "schedule trace declares {threads} threads but contains {}",
                per_thread.len()
            ));
        }
        let mut orders: Vec<u64> = per_thread.iter().flatten().map(|b| b.outcome.order()).collect();
        orders.sort_unstable();
        for (i, &o) in (0u64..).zip(&orders) {
            if o < i {
                return Err(format!("schedule trace commit order {o} repeats"));
            }
            if o > i {
                return Err(format!(
                    "schedule trace commit order {i} is missing ({} blocks)",
                    orders.len()
                ));
            }
        }
        Ok(ScheduleTrace { threads, seed, per_thread })
    }

    /// Writes the trace to `path` (text format).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// Loads a trace saved by [`ScheduleTrace::save`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; malformed content surfaces as
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<ScheduleTrace> {
        let text = std::fs::read_to_string(path)?;
        ScheduleTrace::from_text(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

fn per_thread_len(per_thread: &[Vec<BlockRecord>]) -> u32 {
    per_thread.len() as u32
}

/// Ends the open thread section of a parse, checking its declared block
/// count.
fn close_thread(
    open: Option<(usize, Vec<BlockRecord>)>,
    per_thread: &mut Vec<Vec<BlockRecord>>,
) -> Result<(), String> {
    if let Some((declared, blocks)) = open {
        if blocks.len() != declared {
            return Err(format!(
                "schedule trace thread {} declares {declared} blocks but has {}",
                per_thread.len(),
                blocks.len()
            ));
        }
        per_thread.push(blocks);
    }
    Ok(())
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// The global turnstile serializing replayed commits in recorded order.
#[derive(Clone, Debug)]
pub(crate) struct Turnstile {
    turn: Arc<AtomicU64>,
}

impl Turnstile {
    pub(crate) fn new() -> Turnstile {
        Turnstile { turn: Arc::new(AtomicU64::new(0)) }
    }

    /// Blocks until the global turn reaches `order`.
    ///
    /// # Panics
    ///
    /// Panics if the turnstile stalls (replay divergence: the recorded
    /// predecessor never committed).
    pub(crate) fn await_turn(&self, order: u64) {
        let start = std::time::Instant::now();
        let mut spins = 0u64;
        while self.turn.load(Ordering::SeqCst) != order {
            spins += 1;
            std::hint::spin_loop();
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
                assert!(
                    start.elapsed() < std::time::Duration::from_secs(30),
                    "replay diverged: turnstile stalled waiting for commit order {order}"
                );
            }
        }
    }

    pub(crate) fn advance(&self) {
        self.turn.fetch_add(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> ScheduleTrace {
        ScheduleTrace::assemble(
            0xABCD,
            vec![
                vec![
                    BlockRecord {
                        attempts: vec![AttemptRecord {
                            cause: 2,
                            category: 1,
                            faults: 1,
                            draws: 3,
                            allocs: vec![4, 16],
                        }],
                        outcome: BlockOutcome::Hw { order: 10 },
                    },
                    BlockRecord {
                        attempts: vec![],
                        outcome: BlockOutcome::Irrevocable {
                            order: 17,
                            degraded: true,
                            trip: true,
                        },
                    },
                ],
                vec![
                    BlockRecord {
                        attempts: vec![],
                        outcome: BlockOutcome::Constrained { order: 12 },
                    },
                    BlockRecord { attempts: vec![], outcome: BlockOutcome::Stm { order: 14 } },
                    BlockRecord { attempts: vec![], outcome: BlockOutcome::Rot { order: 15 } },
                    BlockRecord { attempts: vec![], outcome: BlockOutcome::Spilled { order: 16 } },
                ],
            ],
        )
    }

    #[test]
    fn assemble_renumbers_commit_stamps_densely() {
        let t = sample_trace();
        let mut orders: Vec<u64> =
            (0..t.threads()).flat_map(|i| t.thread_blocks(i)).map(|b| b.outcome.order()).collect();
        orders.sort_unstable();
        assert_eq!(orders, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(t.blocks(), 6);
        assert_eq!(t.aborted_attempts(), 1);
    }

    #[test]
    fn text_round_trip_is_identity() {
        let t = sample_trace();
        let text = t.to_text();
        let back = ScheduleTrace::from_text(&text).expect("parse");
        assert_eq!(t, back);
    }

    #[test]
    fn save_load_round_trip() {
        let t = sample_trace();
        let dir = std::env::temp_dir().join("htm-replay-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.txt");
        t.save(&path).unwrap();
        let back = ScheduleTrace::load(&path).unwrap();
        assert_eq!(t, back);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_traces_are_rejected() {
        assert!(ScheduleTrace::from_text("").is_err());
        assert!(ScheduleTrace::from_text("htm-schedule-trace v2\nthreads 1 seed 0").is_err());
        assert!(ScheduleTrace::from_text("htm-schedule-trace v1\nthreads 2 seed 0x5\n").is_err());
        let garbage = "htm-schedule-trace v1\nthreads 1 seed 1\nthread 0 blocks 1\nwat\n";
        assert!(ScheduleTrace::from_text(garbage).is_err());

        let rejects = |body: &str, why: &str| {
            let text = format!("htm-schedule-trace v1\n{body}");
            let err = ScheduleTrace::from_text(&text).expect_err(body);
            assert!(err.contains(why), "{body:?}: {err}");
        };
        // A huge declared thread count is an error, not an allocation.
        rejects("threads 4000000000 seed 0\n", "declares 4000000000 threads but contains 0");
        rejects("threads 1 seed 0\nthread 1 blocks 0\n", "thread sections out of order");
        rejects(
            "threads 1 seed 0\nthread 0 blocks 2\nblock attempts 0\ncommit hw 0\n",
            "declares 2 blocks",
        );
        let attempt = "attempt cause 1 cat 1 faults 0 draws 0 allocs\n";
        rejects(
            &format!(
                "threads 1 seed 0\nthread 0 blocks 1\nblock attempts 2\n{attempt}commit hw 0\n"
            ),
            "declares 2 attempts but has 1",
        );
        rejects(
            &format!("threads 1 seed 0\nthread 0 blocks 1\n{attempt}"),
            "attempt outside a block",
        );
        rejects("threads 1 seed 0\nthread 0 blocks 1\ncommit hw 0\n", "commit outside a block");
        rejects("threads 1 seed 0\nthread 0 blocks 1\nblock attempts 0\n", "ends inside a block");
        // Commit orders must be exactly 0..blocks, each once.
        rejects(
            "threads 1 seed 0\nthread 0 blocks 1\nblock attempts 0\ncommit hw 1\n",
            "order 0 is missing",
        );
        let two = "threads 1 seed 0\nthread 0 blocks 2\nblock attempts 0\ncommit hw 0\nblock attempts 0\n";
        rejects(&format!("{two}commit stm 0\n"), "order 0 repeats");
        assert!(ScheduleTrace::from_text(&format!("htm-schedule-trace v1\n{two}commit stm 1\n"))
            .is_ok());
    }

    #[test]
    fn turnstile_orders_turns() {
        let t = Turnstile::new();
        t.await_turn(0);
        t.advance();
        t.await_turn(1);
    }
}

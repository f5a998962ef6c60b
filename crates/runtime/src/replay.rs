//! Deterministic record/replay of parallel runs.
//!
//! `Sim::record_parallel` runs a workload normally while — per thread —
//! capturing the *decision stream* of every atomic block: how many
//! attempts aborted (with cause, Figure-3 category, injected-fault count,
//! workload-RNG draws and allocation sizes each attempt consumed) and the
//! path the block committed on (hardware, constrained, STM, ROT, spill, or
//! irrevocable, watchdog-degraded or not), stamped with its position in the
//! global commit order. The result is a [`ScheduleTrace`], serializable to
//! disk as a small text file.
//!
//! `Sim::replay` re-executes the same workload against the trace: aborted
//! attempts are *not* re-executed (re-running a doomed body against
//! already-moved memory would diverge) — their statistics are re-applied,
//! their RNG draws skipped and their allocations re-issued, so the workload
//! RNG stream and the per-thread allocator state stay bit-identical.
//! Committing bodies then execute once each, one at a time in recorded
//! commit order, through the normal engine paths. The workers run under a
//! round-robin `sched` scheduler: a worker whose block has not come up
//! waits through `htm_core::coop::Wait`, pausing Blocked until a later
//! probe finds that its turn has come. Serialized execution cannot
//! conflict, so every replayed body commits on its recorded path and
//! observes exactly the values the original committed execution observed
//! (this is the opacity property the certifier checks). A turn that can
//! never come ends the run with the scheduler's deadlock diagnostic.
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

/// One aborted attempt inside an atomic block.
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

/// The path an atomic block's attempt, or its commit, takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TxPath {
    /// A hardware transaction.
    Hw,
    /// A zEC12 constrained transaction.
    Constrained,
    /// A software (STM fallback) transaction.
    Stm,
    /// A software-validated rollback-only (ROT tier) transaction.
    Rot,
    /// A capacity-stretched (spill tier) POWER8 transaction: a hardware
    /// commit under the sequence lock whose overflow footprint was
    /// validated through the software side log.
    Spill,
    /// Irrevocable execution under the global lock. `degraded` marks
    /// watchdog-degraded blocks; `trip` marks the block that tripped it.
    Irrevocable { degraded: bool, trip: bool },
}

impl TxPath {
    /// The paths a transaction attempt commits on (every one but
    /// irrevocable execution).
    const TRANSACTIONAL: [TxPath; 5] =
        [TxPath::Hw, TxPath::Constrained, TxPath::Stm, TxPath::Rot, TxPath::Spill];

    /// The path's key in the trace text.
    fn key(self) -> &'static str {
        match self {
            TxPath::Hw => "hw",
            TxPath::Constrained => "cx",
            TxPath::Stm => "stm",
            TxPath::Rot => "rot",
            TxPath::Spill => "sp",
            TxPath::Irrevocable { .. } => "irr",
        }
    }
}

/// One atomic block: its aborted attempts, the path it committed on, and
/// its dense rank in the global commit order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct BlockRecord {
    pub attempts: Vec<AttemptRecord>,
    pub path: TxPath,
    pub order: u64,
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
    pub(crate) fn assemble(seed: u64, mut per_thread: Vec<Vec<BlockRecord>>) -> ScheduleTrace {
        let mut stamps: Vec<u64> = per_thread.iter().flatten().map(|b| b.order).collect();
        stamps.sort_unstable();
        for b in per_thread.iter_mut().flatten() {
            b.order = stamps.binary_search(&b.order).expect("stamp present") as u64;
        }
        ScheduleTrace { threads: per_thread.len() as u32, seed, per_thread }
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
                let _ = write!(out, "commit {} {}", b.path.key(), b.order);
                if let TxPath::Irrevocable { degraded, trip } = b.path {
                    let _ = write!(out, " {} {}", degraded as u8, trip as u8);
                }
                let _ = writeln!(out);
            }
        }
        out
    }

    /// Parses a trace from its text representation.
    ///
    /// Every count the text declares is checked: thread sections come in
    /// order and hold their declared number of blocks, each block holds its
    /// declared number of attempts and ends in one commit line, and the
    /// commit orders are exactly `0..blocks`, each once (a missing or
    /// repeated order would leave the replay waiting for a turn that never
    /// comes).
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
                    let (path, order) = match (*kind, args) {
                        ("irr", [o, d, t]) => {
                            (TxPath::Irrevocable { degraded: *d == "1", trip: *t == "1" }, o)
                        }
                        (kind, [o]) => {
                            match TxPath::TRANSACTIONAL.into_iter().find(|p| p.key() == kind) {
                                Some(path) => (path, o),
                                None => return Err(bad(n, "bad commit line")),
                            }
                        }
                        _ => return Err(bad(n, "bad commit line")),
                    };
                    let order = order.parse().map_err(|_| bad(n, "bad order"))?;
                    let (_, blocks) = thread.as_mut().expect("an open block has an open thread");
                    blocks.push(BlockRecord { attempts, path, order });
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
        let mut orders: Vec<u64> = per_thread.iter().flatten().map(|b| b.order).collect();
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

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(path: TxPath, order: u64) -> BlockRecord {
        BlockRecord { attempts: vec![], path, order }
    }

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
                        path: TxPath::Hw,
                        order: 10,
                    },
                    committed(TxPath::Irrevocable { degraded: true, trip: true }, 17),
                ],
                vec![
                    committed(TxPath::Constrained, 12),
                    committed(TxPath::Stm, 14),
                    committed(TxPath::Rot, 15),
                    committed(TxPath::Spill, 16),
                ],
            ],
        )
    }

    #[test]
    fn assemble_renumbers_commit_stamps_densely() {
        let t = sample_trace();
        let mut orders: Vec<u64> =
            (0..t.threads()).flat_map(|i| t.thread_blocks(i)).map(|b| b.order).collect();
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
    fn trace_text_is_pinned() {
        // Saved traces must keep loading: the commit-path keys and field
        // order are a file format, not an implementation detail.
        let text = "htm-schedule-trace v1
threads 2 seed 0xabcd
thread 0 blocks 2
block attempts 1
attempt cause 2 cat 1 faults 1 draws 3 allocs 4 16
commit hw 0
block attempts 0
commit irr 5 1 1
thread 1 blocks 4
block attempts 0
commit cx 1
block attempts 0
commit stm 2
block attempts 0
commit rot 3
block attempts 0
commit sp 4
";
        assert_eq!(sample_trace().to_text(), text);
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
        let block = "threads 1 seed 0\nthread 0 blocks 1\nblock attempts 0\n";
        rejects(&format!("{block}commit xx 0\n"), "bad commit line");
        rejects(&format!("{block}commit irr 0\n"), "bad commit line");
        rejects(&format!("{block}commit hw 0 1 1\n"), "bad commit line");
        rejects(&format!("{block}commit sp x\n"), "bad order");
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
}

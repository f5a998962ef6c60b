//! Online opacity/conflict-serializability certifier.
//!
//! When [`SimConfig::certify`](crate::SimConfig) is enabled, every worker
//! engine records one [`TxEvent`] per committed atomic block: the *first*
//! value the block observed at each address it read (excluding reads served
//! from its own write buffer) and the final value it flushed per address,
//! stamped with a sequence number drawn from a shared commit clock at the
//! block's linearization point:
//!
//! * hardware transactions draw their seq right after `start_commit`
//!   succeeds — the slot is `COMMITTING` and still holds all its lines, and
//!   every non-transactional or irrevocable access to those lines spins
//!   until the flush completes, so no observer can serialize between the
//!   seq draw and the flush;
//! * irrevocable blocks draw theirs at block end, while still holding the
//!   global lock;
//! * non-transactional stores issued through the runtime draw one per store
//!   and appear as single-write events.
//!
//! After the run, [`certify`] sweeps the events in seq order keeping a
//! per-address *version history*. Each read must observe the value of the
//! most recent serialized writer (or the initial image); a read matching an
//! older version is a **stale read** and adds a backward read-write edge to
//! the overwriting writer, which — together with the forward
//! write-read/write-write/read-write edges every correct history produces —
//! turns any lost update into a conflict-graph **cycle**. A correct run
//! yields only forward edges (lower seq → higher seq), hence an acyclic
//! graph and an empty violation list.
//!
//! The check is value-based: two writers producing the same value at the
//! same address are indistinguishable, so a stale read of a duplicated
//! value passes. This is inherent to value-based certification and errs
//! toward no false positives.
//!
//! ## Known soundness boundary
//!
//! zEC12 constrained transactions do not subscribe to the global lock.
//! Mixing `atomic_constrained` with lock-fallback `atomic` blocks *on
//! overlapping data* can produce schedules the certifier flags even though
//! each primitive behaved as architected (this mirrors a real composition
//! hazard on the hardware). The STAMP port never mixes the two on shared
//! data, and neither should certified workloads.

use std::collections::{HashMap, HashSet};

use htm_core::{
    AbortedAttempt, CertifyReport, EventKind, FastMap, FastSet, TxEvent, Violation, WordAddr,
};

/// Per-thread bound on recorded events; past it the log drops events and
/// the report is marked truncated.
pub(crate) const MAX_EVENTS_PER_THREAD: usize = 1 << 16;
/// Per-event bound on captured reads/writes.
pub(crate) const MAX_ACCESSES_PER_EVENT: usize = 1 << 16;

/// Per-engine capture state for one worker thread.
#[derive(Debug)]
pub(crate) struct CertCapture {
    thread: u32,
    events: Vec<TxEvent>,
    truncated: bool,
    reads: Vec<(WordAddr, u64)>,
    read_addrs: FastSet<WordAddr>,
    irr_writes: FastMap<WordAddr, u64>,
    aborted: Vec<AbortedAttempt>,
}

impl CertCapture {
    pub(crate) fn new(thread: u32) -> CertCapture {
        CertCapture {
            thread,
            events: Vec::new(),
            truncated: false,
            reads: Vec::new(),
            read_addrs: FastSet::default(),
            irr_writes: FastMap::default(),
            aborted: Vec::new(),
        }
    }

    /// Resets the current-block capture state (block begin).
    pub(crate) fn begin_block(&mut self) {
        self.reads.clear();
        self.read_addrs.clear();
        self.irr_writes.clear();
    }

    /// Records the first value a hardware transaction observed at `addr`.
    pub(crate) fn on_read(&mut self, addr: WordAddr, value: u64) {
        if self.read_addrs.insert(addr) {
            if self.reads.len() < MAX_ACCESSES_PER_EVENT {
                self.reads.push((addr, value));
            } else {
                self.truncated = true;
            }
        }
    }

    /// Records the first value an irrevocable block observed at `addr`
    /// (reads of the block's own earlier stores are not pre-state).
    pub(crate) fn on_irr_read(&mut self, addr: WordAddr, value: u64) {
        if !self.irr_writes.contains_key(&addr) {
            self.on_read(addr, value);
        }
    }

    /// Records an irrevocable store (the last value per address wins).
    pub(crate) fn on_irr_write(&mut self, addr: WordAddr, value: u64) {
        if self.irr_writes.len() >= MAX_ACCESSES_PER_EVENT && !self.irr_writes.contains_key(&addr) {
            self.truncated = true;
            return;
        }
        self.irr_writes.insert(addr, value);
    }

    fn push_event(&mut self, kind: EventKind, seq: u64, writes: Vec<(WordAddr, u64)>) {
        if self.events.len() >= MAX_EVENTS_PER_THREAD {
            self.truncated = true;
            return;
        }
        let mut reads = std::mem::take(&mut self.reads);
        reads.sort_unstable_by_key(|&(a, _)| a);
        self.events.push(TxEvent { thread: self.thread, seq, kind, reads, writes });
    }

    /// Emits the event for a committed hardware transaction. `write_buf` is
    /// the buffered store set about to be flushed.
    pub(crate) fn commit_hw(&mut self, seq: u64, rot: bool, write_buf: &FastMap<WordAddr, u64>) {
        let mut writes: Vec<(WordAddr, u64)> = write_buf.iter().map(|(&a, &v)| (a, v)).collect();
        writes.sort_unstable_by_key(|&(a, _)| a);
        if writes.len() > MAX_ACCESSES_PER_EVENT {
            writes.truncate(MAX_ACCESSES_PER_EVENT);
            self.truncated = true;
        }
        self.push_event(EventKind::Hardware { rot }, seq, writes);
    }

    /// Emits the event for a committed software transaction or a
    /// software-validated ROT-tier transaction. The committer holds the
    /// sequence lock at `seq`, its read log just revalidated, so the full
    /// read check applies ([`EventKind::Software`]).
    pub(crate) fn commit_soft(&mut self, seq: u64, write_buf: &FastMap<WordAddr, u64>) {
        let mut writes: Vec<(WordAddr, u64)> = write_buf.iter().map(|(&a, &v)| (a, v)).collect();
        writes.sort_unstable_by_key(|&(a, _)| a);
        if writes.len() > MAX_ACCESSES_PER_EVENT {
            writes.truncate(MAX_ACCESSES_PER_EVENT);
            self.truncated = true;
        }
        self.push_event(EventKind::Software, seq, writes);
    }

    /// Emits the event for a completed irrevocable block (the caller still
    /// holds the global lock, so `seq` is its linearization point).
    pub(crate) fn commit_irrevocable(&mut self, seq: u64) {
        let mut writes: Vec<(WordAddr, u64)> = self.irr_writes.drain().collect();
        writes.sort_unstable_by_key(|&(a, _)| a);
        self.push_event(EventKind::Irrevocable, seq, writes);
    }

    /// Emits a single-store event for a non-transactional write.
    pub(crate) fn nontx_write(&mut self, seq: u64, addr: WordAddr, value: u64) {
        if self.events.len() >= MAX_EVENTS_PER_THREAD {
            self.truncated = true;
            return;
        }
        self.events.push(TxEvent {
            thread: self.thread,
            seq,
            kind: EventKind::NonTx,
            reads: Vec::new(),
            writes: vec![(addr, value)],
        });
    }

    /// Flushes the current attempt's captured reads as an [`AbortedAttempt`]
    /// for the opacity check (rollback paths call this instead of a
    /// `commit_*`), then clears the per-attempt state so retries start
    /// clean.
    pub(crate) fn abort_attempt(&mut self, kind: EventKind) {
        if !self.reads.is_empty() {
            if self.aborted.len() < MAX_EVENTS_PER_THREAD {
                let mut reads = std::mem::take(&mut self.reads);
                reads.sort_unstable_by_key(|&(a, _)| a);
                self.aborted.push(AbortedAttempt { thread: self.thread, kind, reads });
            } else {
                self.truncated = true;
            }
        }
        self.reads.clear();
        self.read_addrs.clear();
        self.irr_writes.clear();
    }

    /// Returns the recorded events, the aborted attempts, and whether any
    /// bound was hit.
    pub(crate) fn take(self) -> (Vec<TxEvent>, Vec<AbortedAttempt>, bool) {
        (self.events, self.aborted, self.truncated)
    }
}

/// Per-address sweep state: the inferred initial value, the version history
/// `(value, writer event index)`, and the readers of the current version.
#[derive(Default)]
struct AddrState {
    init: Option<u64>,
    versions: Vec<(u64, usize)>,
    cur_readers: Vec<usize>,
}

/// Certifies one run's committed events: builds the conflict graph, checks
/// every read against the version history, and detects cycles.
///
/// `truncated` and `lock_acquisitions` are carried into the report.
pub fn certify(mut events: Vec<TxEvent>, truncated: bool, lock_acquisitions: u64) -> CertifyReport {
    events.sort_by_key(|e| e.seq);
    let n = events.len();
    let mut addrs: HashMap<WordAddr, AddrState> = HashMap::new();
    let mut edges: HashSet<(usize, usize)> = HashSet::new();
    let mut violations: Vec<Violation> = Vec::new();

    for (i, e) in events.iter().enumerate() {
        let check_reads = !matches!(e.kind, EventKind::Hardware { rot: true });
        if check_reads {
            for &(addr, v) in &e.reads {
                let st = addrs.entry(addr).or_default();
                match st.versions.last() {
                    None => {
                        // Pre-writer read: the first one defines the initial
                        // image; later ones must agree with it.
                        match st.init {
                            None => st.init = Some(v),
                            Some(iv) if iv == v => {}
                            Some(_) => violations.push(Violation::WildRead {
                                reader_seq: e.seq,
                                reader_thread: e.thread,
                                addr,
                                observed: v,
                            }),
                        }
                        st.cur_readers.push(i);
                    }
                    Some(&(latest, lw)) if v == latest => {
                        edges.insert((lw, i));
                        st.cur_readers.push(i);
                    }
                    Some(&(latest, _)) => {
                        // Mismatch against the most recent writer: stale or
                        // wild. A stale read adds the backward edge to the
                        // overwriting writer, closing a cycle.
                        if let Some(j) = st.versions.iter().rposition(|&(val, _)| val == v) {
                            let (_, wj) = st.versions[j];
                            violations.push(Violation::StaleRead {
                                reader_seq: e.seq,
                                reader_thread: e.thread,
                                addr,
                                observed: v,
                                expected: latest,
                                stale_writer_seq: events[wj].seq,
                            });
                            edges.insert((wj, i));
                            let (_, overwriter) = st.versions[j + 1];
                            edges.insert((i, overwriter));
                        } else if st.init == Some(v) {
                            violations.push(Violation::StaleRead {
                                reader_seq: e.seq,
                                reader_thread: e.thread,
                                addr,
                                observed: v,
                                expected: latest,
                                stale_writer_seq: 0,
                            });
                            let (_, first_writer) = st.versions[0];
                            edges.insert((i, first_writer));
                        } else {
                            violations.push(Violation::WildRead {
                                reader_seq: e.seq,
                                reader_thread: e.thread,
                                addr,
                                observed: v,
                            });
                        }
                    }
                }
            }
        }
        for &(addr, v) in &e.writes {
            let st = addrs.entry(addr).or_default();
            if let Some(&(_, lw)) = st.versions.last() {
                if lw != i {
                    edges.insert((lw, i)); // write-write
                }
            }
            for &r in std::mem::take(&mut st.cur_readers).iter() {
                if r != i {
                    edges.insert((r, i)); // read-write (anti-dependency)
                }
            }
            st.versions.push((v, i));
        }
    }

    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in &edges {
        adj[a].push(b);
    }
    if let Some(cycle) = find_cycle(n, &adj) {
        violations.push(Violation::ConflictCycle {
            witness: cycle.into_iter().map(|i| events[i].seq).collect(),
        });
    }

    CertifyReport { events: n, edges: edges.len(), violations, truncated, lock_acquisitions }
}

/// Finds one cycle in the directed graph, if any, returning its node
/// indices in edge order (first node repeated at the end).
fn find_cycle(n: usize, adj: &[Vec<usize>]) -> Option<Vec<usize>> {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; n];
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if color[start] != WHITE {
            continue;
        }
        color[start] = GRAY;
        stack.push((start, 0));
        while let Some(&(u, i)) = stack.last() {
            if i < adj[u].len() {
                stack.last_mut().expect("stack nonempty").1 += 1;
                let v = adj[u][i];
                if color[v] == WHITE {
                    color[v] = GRAY;
                    stack.push((v, 0));
                } else if color[v] == GRAY {
                    let pos = stack
                        .iter()
                        .position(|&(x, _)| x == v)
                        .expect("gray node must be on the stack");
                    let mut cycle: Vec<usize> = stack[pos..].iter().map(|&(x, _)| x).collect();
                    cycle.push(v);
                    return Some(cycle);
                }
            } else {
                color[u] = BLACK;
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(thread: u32, seq: u64, reads: &[(u64, u64)], writes: &[(u64, u64)]) -> TxEvent {
        TxEvent {
            thread,
            seq,
            kind: EventKind::Hardware { rot: false },
            reads: reads.iter().map(|&(a, v)| (WordAddr(a as u32), v)).collect(),
            writes: writes.iter().map(|&(a, v)| (WordAddr(a as u32), v)).collect(),
        }
    }

    #[test]
    fn serial_counter_history_certifies_clean() {
        // Three increments of one word: 0 -> 1 -> 2 -> 3.
        let events = vec![
            ev(0, 1, &[(8, 0)], &[(8, 1)]),
            ev(1, 2, &[(8, 1)], &[(8, 2)]),
            ev(0, 3, &[(8, 2)], &[(8, 3)]),
        ];
        let r = certify(events, false, 0);
        assert!(r.ok(), "{r}");
        assert_eq!(r.events, 3);
        assert!(r.edges >= 2, "write-read chain must appear");
    }

    #[test]
    fn lost_update_is_stale_read_and_cycle() {
        // Both transactions read 0 and write 1: the second one lost the
        // first one's update.
        let events = vec![ev(0, 1, &[(8, 0)], &[(8, 1)]), ev(1, 2, &[(8, 0)], &[(8, 1)])];
        let r = certify(events, false, 0);
        assert!(!r.ok());
        assert!(r.violations.iter().any(|v| matches!(v, Violation::StaleRead { .. })), "{r}");
        assert!(r.violations.iter().any(|v| matches!(v, Violation::ConflictCycle { .. })), "{r}");
    }

    #[test]
    fn stale_read_of_an_older_written_version_names_the_writer() {
        let events =
            vec![ev(0, 1, &[], &[(8, 7)]), ev(1, 2, &[], &[(8, 9)]), ev(0, 3, &[(8, 7)], &[])];
        let r = certify(events, false, 0);
        match r.violations.first() {
            Some(Violation::StaleRead {
                stale_writer_seq: 1, expected: 9, observed: 7, ..
            }) => {}
            other => panic!("expected a stale read naming writer seq 1, got {other:?}"),
        }
    }

    #[test]
    fn wild_read_is_flagged() {
        let events = vec![ev(0, 1, &[(8, 5)], &[]), ev(1, 2, &[(8, 6)], &[])];
        let r = certify(events, false, 0);
        assert_eq!(r.violations.len(), 1);
        assert!(matches!(r.violations[0], Violation::WildRead { observed: 6, .. }));
    }

    #[test]
    fn rot_reads_are_exempt_from_value_checks() {
        let mut stale = ev(1, 2, &[(8, 0)], &[(8, 5)]);
        stale.kind = EventKind::Hardware { rot: true };
        let events = vec![ev(0, 1, &[(8, 0)], &[(8, 1)]), stale];
        let r = certify(events, false, 0);
        assert!(r.ok(), "rollback-only loads are untracked by hardware: {r}");
    }

    #[test]
    fn software_commits_get_the_full_read_check() {
        // Same lost-update shape as the rot exemption test, but as a
        // software commit: the stale read must be flagged.
        let mut stale = ev(1, 2, &[(8, 0)], &[(8, 5)]);
        stale.kind = EventKind::Software;
        let events = vec![ev(0, 1, &[(8, 0)], &[(8, 1)]), stale];
        let r = certify(events, false, 0);
        assert!(!r.ok(), "software reads are value-checked: {r}");
        assert!(r.violations.iter().any(|v| matches!(v, Violation::StaleRead { .. })), "{r}");
    }

    #[test]
    fn capture_emits_software_events_with_sorted_writes() {
        let mut c = CertCapture::new(1);
        c.begin_block();
        c.on_read(WordAddr(9), 3);
        let mut buf = FastMap::default();
        buf.insert(WordAddr(5), 50);
        buf.insert(WordAddr(2), 20);
        c.commit_soft(7, &buf);
        let (events, _aborted, truncated) = c.take();
        assert!(!truncated);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Software);
        assert_eq!(events[0].seq, 7);
        assert_eq!(events[0].reads, vec![(WordAddr(9), 3)]);
        assert_eq!(events[0].writes, vec![(WordAddr(2), 20), (WordAddr(5), 50)]);
    }

    #[test]
    fn capture_dedupes_first_reads_and_excludes_own_irrevocable_writes() {
        let mut c = CertCapture::new(3);
        c.begin_block();
        c.on_read(WordAddr(1), 10);
        c.on_read(WordAddr(1), 11); // repeat: ignored
        c.on_irr_write(WordAddr(2), 5);
        c.on_irr_read(WordAddr(2), 5); // own write: not pre-state
        c.on_irr_read(WordAddr(3), 7);
        c.commit_irrevocable(4);
        let (events, _aborted, truncated) = c.take();
        assert!(!truncated);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].reads, vec![(WordAddr(1), 10), (WordAddr(3), 7)]);
        assert_eq!(events[0].writes, vec![(WordAddr(2), 5)]);
        assert_eq!(events[0].thread, 3);
        assert_eq!(events[0].seq, 4);
    }

    #[test]
    fn event_log_bound_sets_truncated() {
        let mut c = CertCapture::new(0);
        for seq in 0..(MAX_EVENTS_PER_THREAD + 2) as u64 {
            c.nontx_write(seq, WordAddr(0), seq);
        }
        let (events, _aborted, truncated) = c.take();
        assert_eq!(events.len(), MAX_EVENTS_PER_THREAD);
        assert!(truncated);
    }
}

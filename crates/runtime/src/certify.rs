//! Online opacity/conflict-serializability certifier.
//!
//! When [`SimConfig::certify`](crate::SimConfig) is enabled, each worker's
//! observer (the transaction engine's one instrumentation slot) holds a
//! `CertCapture` that records one [`TxEvent`] per committed atomic block:
//! the *first* value the block observed at each address it read (excluding
//! reads of its own stores) and the final value it wrote per address,
//! stamped with a sequence number drawn from a shared commit clock at the
//! block's linearization point. The observer decides which loads are
//! reads: a plain POWER8 rollback-only transaction's loads and every
//! non-transactional load are not.
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

/// The certifier's capture for one worker thread: the events of its
/// committed blocks and the reads of its aborted attempts. Its observer
/// decides which accesses reach it.
#[derive(Debug)]
pub(crate) struct CertCapture {
    thread: u32,
    events: Vec<TxEvent>,
    truncated: bool,
    reads: Vec<(WordAddr, u64)>,
    read_addrs: FastSet<WordAddr>,
    writes: FastMap<WordAddr, u64>,
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
            writes: FastMap::default(),
            aborted: Vec::new(),
        }
    }

    /// A block begins: its reads and writes start empty.
    pub(crate) fn begin(&mut self) {
        self.reads.clear();
        self.read_addrs.clear();
        self.writes.clear();
    }

    /// Records the first value the block observed at `addr`; a load of the
    /// block's own store is not pre-state.
    pub(crate) fn load(&mut self, addr: WordAddr, value: u64) {
        if !self.writes.contains_key(&addr) && self.read_addrs.insert(addr) {
            if self.reads.len() < MAX_ACCESSES_PER_EVENT {
                self.reads.push((addr, value));
            } else {
                self.truncated = true;
            }
        }
    }

    /// Records an irrevocable block's store (the last value per address
    /// wins); a transaction's stores are in the buffers its commit passes.
    pub(crate) fn store(&mut self, addr: WordAddr, value: u64) {
        self.writes.insert(addr, value);
    }

    /// The block's reads in address order; none are left.
    fn take_reads(&mut self) -> Vec<(WordAddr, u64)> {
        let mut reads = std::mem::take(&mut self.reads);
        reads.sort_unstable_by_key(|&(a, _)| a);
        reads
    }

    fn push_event(&mut self, event: TxEvent) {
        if self.events.len() < MAX_EVENTS_PER_THREAD {
            self.events.push(event);
        } else {
            self.truncated = true;
        }
    }

    /// Emits the event of the block that committed at `seq`, its
    /// linearization point (see the module docs). `buffer` and `spilled`
    /// are a transaction's write buffer and its spilled stores; a spilled
    /// store shadows a buffered one to the same address.
    pub(crate) fn commit(
        &mut self,
        seq: u64,
        kind: EventKind,
        [buffer, spilled]: [&FastMap<WordAddr, u64>; 2],
    ) {
        let buffered = spilled.iter().chain(buffer).map(|(&a, &v)| (a, v));
        let mut writes: Vec<(WordAddr, u64)> = self.writes.drain().chain(buffered).collect();
        writes.sort_by_key(|&(a, _)| a); // stable: the first of equal addresses wins
        writes.dedup_by_key(|&mut (a, _)| a);
        if writes.len() > MAX_ACCESSES_PER_EVENT {
            writes.truncate(MAX_ACCESSES_PER_EVENT);
            self.truncated = true;
        }
        let reads = self.take_reads();
        self.push_event(TxEvent { thread: self.thread, seq, kind, reads, writes });
    }

    /// Emits a single-store event for a non-transactional write.
    pub(crate) fn nontx_write(&mut self, seq: u64, addr: WordAddr, value: u64) {
        let (thread, kind, writes) = (self.thread, EventKind::NonTx, vec![(addr, value)]);
        self.push_event(TxEvent { thread, seq, kind, reads: Vec::new(), writes });
    }

    /// The attempt aborted: its captured reads become an
    /// [`AbortedAttempt`] for the opacity check, and its state clears so a
    /// retry starts clean.
    pub(crate) fn abort(&mut self, kind: EventKind) {
        if !self.reads.is_empty() {
            if self.aborted.len() < MAX_EVENTS_PER_THREAD {
                let reads = self.take_reads();
                self.aborted.push(AbortedAttempt { thread: self.thread, kind, reads });
            } else {
                self.truncated = true;
            }
        }
        self.begin();
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

    // Successors in sorted order: the edge set iterates in a random order,
    // and the cycle witness must not depend on it.
    let mut sorted: Vec<(usize, usize)> = edges.iter().copied().collect();
    sorted.sort_unstable();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (a, b) in sorted {
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
    fn a_two_cycle_history_has_one_witness() {
        // Seq 1 writes both words; seqs 2 and 3 each read one of them
        // stale, closing two cycles through seq 1. The depth-first search
        // must take the same one every time, whatever the edge set's
        // hasher seed.
        let events = || {
            vec![
                ev(0, 1, &[(8, 0), (16, 0)], &[(8, 1), (16, 1)]),
                ev(1, 2, &[(8, 0)], &[(8, 2)]),
                ev(2, 3, &[(16, 0)], &[(16, 2)]),
            ]
        };
        let witnesses: HashSet<Vec<u64>> = (0..32)
            .map(|_| {
                let r = certify(events(), false, 0);
                let cycle = r.violations.iter().find_map(|v| match v {
                    Violation::ConflictCycle { witness } => Some(witness.clone()),
                    _ => None,
                });
                cycle.expect("the history has cycles")
            })
            .collect();
        assert_eq!(witnesses, HashSet::from([vec![1, 2, 1]]));
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
        c.begin();
        c.load(WordAddr(9), 3);
        let mut buf = FastMap::default();
        buf.insert(WordAddr(5), 50);
        buf.insert(WordAddr(2), 20);
        c.commit(7, EventKind::Software, [&buf, &FastMap::default()]);
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
        c.begin();
        c.load(WordAddr(1), 10);
        c.load(WordAddr(1), 11); // repeat: ignored
        c.store(WordAddr(2), 5);
        c.load(WordAddr(2), 5); // own write: not pre-state
        c.load(WordAddr(3), 7);
        c.commit(4, EventKind::Irrevocable, [&FastMap::default(), &FastMap::default()]);
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

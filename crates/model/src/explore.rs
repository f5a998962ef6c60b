//! The systematic schedule explorer.
//!
//! [`explore`] enumerates block-level interleavings of a [`Kernel`] running
//! on the *real* TM engine, one controlled execution per schedule: a fresh
//! [`Sim`] is built, a [`Controller`] serializes the workers, and the
//! forced schedule prefix steers execution down the next unexplored
//! branch. On every completed schedule the checker verifies
//!
//! * **serializability** — the runtime certifier's conflict-graph check
//!   over committed events
//!   ([`RunStats::certify`](htm_runtime::RunStats::certify));
//! * **opacity** — every read in every *aborted* attempt is justified by a
//!   consistent committed snapshot
//!   ([`RunStats::opacity`](htm_runtime::RunStats::opacity));
//! * **serial equivalence** — the final memory digest matches one of the
//!   kernel's block-level serial executions (a value-blind catch-all for
//!   lost updates and dirty publishes);
//! * **deadlock / starvation** — structured verdicts from the controller.
//!
//! Exploration modes: [`Mode::Naive`] branches over every runnable thread
//! at every step (the reference enumeration); [`Mode::Dpor`] prunes with
//! dynamic partial-order reduction — conflict-driven backtrack ("persistent")
//! sets plus sleep sets over line-granular step footprints — and must reach
//! the same violations and final states; [`Mode::BoundedPreemption`] caps
//! preemptive context switches (naive within the bound).

use std::collections::BTreeSet;
use std::fmt;

use htm_core::coop::EPOCH_LINE;
use htm_machine::{BgqMode, MachineConfig, Platform};
use htm_runtime::{FallbackPolicy, RetryPolicy, Sim, SimConfig};

use crate::kernel::Kernel;
use crate::sched::{conflicts, Controller, Decision, Explorer, Footprint, SchedAbort};

/// Which rung of the fallback ladder the kernel's blocks exercise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Hardware transactions with the default lock fallback.
    Hw,
    /// NOrec-style software fallback tier.
    Stm,
    /// POWER8 rollback-only fallback tier (capacity-spill sibling of the
    /// same software-validated commit path).
    Rot,
    /// Zero retries: every block goes straight to the irrevocable lock.
    Lock,
    /// The adaptive contention manager picks tiers online.
    Adaptive,
}

/// All five fallback tiers, the full model-checking ladder.
pub const ALL_TIERS: [Tier; 5] = [Tier::Hw, Tier::Stm, Tier::Rot, Tier::Lock, Tier::Adaptive];

impl Tier {
    pub fn key(self) -> &'static str {
        match self {
            Tier::Hw => "hw",
            Tier::Stm => "stm",
            Tier::Rot => "rot",
            Tier::Lock => "lock",
            Tier::Adaptive => "adaptive",
        }
    }

    pub fn parse(s: &str) -> Option<Tier> {
        ALL_TIERS.into_iter().find(|t| t.key() == s)
    }

    fn policy(self) -> (FallbackPolicy, RetryPolicy) {
        match self {
            // One retry keeps adversarial schedules short without hiding
            // any tier transition the checker cares about.
            Tier::Hw => (FallbackPolicy::Lock, RetryPolicy::uniform(1)),
            // No hardware retries: the first abort falls straight to the
            // software tier, the commit surface this rung exists to check.
            Tier::Stm => (FallbackPolicy::Stm, RetryPolicy::uniform(0)),
            Tier::Rot => (FallbackPolicy::Rot, RetryPolicy::uniform(1)),
            Tier::Lock => (FallbackPolicy::Lock, RetryPolicy::uniform(0)),
            Tier::Adaptive => (FallbackPolicy::Adaptive, RetryPolicy::uniform(1)),
        }
    }
}

/// Engine bugs the regression corpus seeds (test-only hooks in the
/// substrate; see `TxMemory::set_test_*`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeededBug {
    None,
    /// Writers stop dooming readers: classic lost update.
    SkipReaderDoom,
    /// Software commits skip the epoch bump: torn soft-read snapshots.
    SkipEpochBump,
    /// ROT commits publish the write buffer before validation: dirty
    /// never-committed values escape.
    EarlyRotPublish,
}

impl SeededBug {
    pub fn key(self) -> &'static str {
        match self {
            SeededBug::None => "none",
            SeededBug::SkipReaderDoom => "skip-reader-doom",
            SeededBug::SkipEpochBump => "skip-epoch-bump",
            SeededBug::EarlyRotPublish => "early-rot-publish",
        }
    }

    pub fn parse(s: &str) -> Option<SeededBug> {
        [
            SeededBug::None,
            SeededBug::SkipReaderDoom,
            SeededBug::SkipEpochBump,
            SeededBug::EarlyRotPublish,
        ]
        .into_iter()
        .find(|b| b.key() == s)
    }

    fn arm(self, mem: &htm_core::TxMemory) {
        match self {
            SeededBug::None => {}
            SeededBug::SkipReaderDoom => mem.set_test_skip_reader_doom(true),
            SeededBug::SkipEpochBump => mem.set_test_skip_epoch_bump(true),
            SeededBug::EarlyRotPublish => mem.set_test_early_rot_publish(true),
        }
    }
}

/// Exploration strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Full branching over every runnable thread at every step.
    Naive,
    /// Sleep sets + conflict-driven backtrack sets over step footprints.
    Dpor,
    /// At most `n` preemptive context switches (naive within the bound).
    BoundedPreemption(u32),
}

/// One model-checking job.
#[derive(Clone, Debug)]
pub struct ModelConfig {
    pub kernel: Kernel,
    pub platform: Platform,
    pub tier: Tier,
    pub seed: u64,
    pub bug: SeededBug,
    pub mode: Mode,
    /// Safety cap on executed schedules; hitting it marks the report
    /// truncated (never silently).
    pub max_schedules: u64,
    /// Per-schedule step bound (starvation/livelock verdict past it).
    pub max_steps: u64,
}

impl ModelConfig {
    pub fn new(kernel: Kernel, platform: Platform, tier: Tier) -> ModelConfig {
        ModelConfig {
            kernel,
            platform,
            tier,
            seed: 1,
            bug: SeededBug::None,
            mode: Mode::Dpor,
            max_schedules: 200_000,
            max_steps: 3_000,
        }
    }

    pub fn bug(mut self, bug: SeededBug) -> ModelConfig {
        self.bug = bug;
        self
    }

    pub fn mode(mut self, mode: Mode) -> ModelConfig {
        self.mode = mode;
        self
    }

    pub fn max_schedules(mut self, n: u64) -> ModelConfig {
        self.max_schedules = n;
        self
    }
}

/// Violation classes the checker reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViolationClass {
    /// Conflict-graph violation over committed events (stale read, lost
    /// update, wild read...).
    Certify,
    /// An aborted attempt observed no consistent snapshot.
    Opacity,
    /// All live threads blocked on each other.
    Deadlock,
    /// Schedule exceeded the step bound (livelock/starvation).
    Starvation,
    /// Final memory state matches no serial block-level execution.
    NonSerializable,
    /// A worker died outside the controller's own verdicts.
    Panic,
}

impl ViolationClass {
    pub fn key(self) -> &'static str {
        match self {
            ViolationClass::Certify => "certify",
            ViolationClass::Opacity => "opacity",
            ViolationClass::Deadlock => "deadlock",
            ViolationClass::Starvation => "starvation",
            ViolationClass::NonSerializable => "non-serializable",
            ViolationClass::Panic => "panic",
        }
    }

    pub fn parse(s: &str) -> Option<ViolationClass> {
        [
            ViolationClass::Certify,
            ViolationClass::Opacity,
            ViolationClass::Deadlock,
            ViolationClass::Starvation,
            ViolationClass::NonSerializable,
            ViolationClass::Panic,
        ]
        .into_iter()
        .find(|c| c.key() == s)
    }
}

impl fmt::Display for ViolationClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// A minimal reproducer: the exact schedule that exhibited the violation.
#[derive(Clone, Debug)]
pub struct Counterexample {
    pub class: ViolationClass,
    pub detail: String,
    /// Grant sequence (thread per step) to force for a deterministic
    /// replay.
    pub schedule: Vec<u32>,
    /// Human-readable interleaving diagram.
    pub diagram: String,
}

/// What one exploration found.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    pub kernel: String,
    pub platform: Platform,
    pub tier: Tier,
    pub mode: Mode,
    pub bug: SeededBug,
    /// Schedules actually executed.
    pub schedules: u64,
    /// Total scheduling decisions across all executed schedules.
    pub steps_total: u64,
    /// Longest schedule seen.
    pub max_depth: usize,
    /// Branch choices skipped by sleep-set pruning.
    pub sleep_pruned: u64,
    /// Distinct final memory digests across completed schedules (the
    /// explored state space's frontier).
    pub digests: BTreeSet<u64>,
    /// Schedules that exhibited at least one violation.
    pub violating_schedules: u64,
    /// First counterexample per violation class.
    pub counterexamples: Vec<Counterexample>,
    /// Exploration hit `max_schedules` before exhausting the space.
    pub truncated: bool,
}

impl ExploreReport {
    pub fn ok(&self) -> bool {
        self.counterexamples.is_empty()
    }

    pub fn has(&self, class: ViolationClass) -> bool {
        self.counterexamples.iter().any(|c| c.class == class)
    }
}

impl fmt::Display for ExploreReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "model-check {} on {:?}/{}: {} schedule(s), {} step(s), depth {}, \
             {} sleep-pruned, {} final state(s), {} violating{}",
            self.kernel,
            self.platform,
            self.tier.key(),
            self.schedules,
            self.steps_total,
            self.max_depth,
            self.sleep_pruned,
            self.digests.len(),
            self.violating_schedules,
            if self.truncated { " [TRUNCATED]" } else { "" },
        )?;
        for c in &self.counterexamples {
            writeln!(f, "  {}: {}", c.class, c.detail)?;
        }
        Ok(())
    }
}

struct Node {
    chosen: u32,
    candidates: Vec<u32>,
    promoted: bool,
    fp: Footprint,
    done: BTreeSet<u32>,
    todo: BTreeSet<u32>,
    /// Siblings already fully explored from this node, with the footprint
    /// of their first step (sleep-set currency).
    explored: Vec<(u32, Footprint)>,
    sleep: Vec<(u32, Footprint)>,
}

struct RunRecord {
    log: Vec<Decision>,
    abort: Option<SchedAbort>,
    error: Option<String>,
    stats: Option<htm_runtime::RunStats>,
    digest: Option<u64>,
}

fn machine_for(platform: Platform) -> MachineConfig {
    match platform {
        Platform::BlueGeneQ => MachineConfig::blue_gene_q(BgqMode::ShortRunning),
        Platform::Zec12 => MachineConfig::zec12(),
        Platform::IntelCore => MachineConfig::intel_core(),
        Platform::Power8 => MachineConfig::power8(),
    }
}

/// Builds the Sim for one controlled execution, allocating one isolated
/// 256-byte-aligned line per kernel variable so the layout (and hence the
/// memory digest) is identical across schedules and tiers.
fn build_sim(cfg: &ModelConfig, certify: bool) -> (Sim, Vec<htm_core::WordAddr>) {
    let (fallback, _) = cfg.tier.policy();
    // Allocation is deterministic, so a probe run of the allocator tells us
    // the variable addresses the real Sim will hand out — which the opacity
    // checker needs as explicit initial values *at construction time*.
    let mk = |init: Vec<(htm_core::WordAddr, u64)>| {
        Sim::new(
            SimConfig::new(machine_for(cfg.platform))
                .mem_words(1 << 12)
                .seed(cfg.seed)
                .fallback(fallback)
                .certify(certify)
                .certify_init(init),
        )
    };
    let alloc_vars = |sim: &Sim| -> Vec<htm_core::WordAddr> {
        (0..cfg.kernel.vars).map(|_| sim.alloc().alloc_aligned(1, 256)).collect()
    };
    let probe = mk(Vec::new());
    let addrs = alloc_vars(&probe);
    drop(probe);
    let init: Vec<(htm_core::WordAddr, u64)> =
        addrs.iter().enumerate().map(|(i, &a)| (a, cfg.kernel.init_of(i))).collect();
    let sim = mk(init);
    let real = alloc_vars(&sim);
    assert_eq!(real, addrs, "allocator must be deterministic");
    for (i, &a) in real.iter().enumerate() {
        sim.write_word(a, cfg.kernel.init_of(i));
    }
    (sim, real)
}

/// Final digests of every serial block-level execution (the reference set
/// any serializable interleaving must land in).
pub fn serial_digests(cfg: &ModelConfig) -> BTreeSet<u64> {
    let mut out = BTreeSet::new();
    for order in cfg.kernel.serial_orders() {
        let (sim, addrs) = build_sim(cfg, false);
        sim.run_sequential(|ctx| {
            for &(tid, idx) in &order {
                cfg.kernel.run_one_block(ctx, tid, idx, &addrs);
            }
        });
        out.insert(sim.memory_digest());
    }
    out
}

/// Runs one schedule: `forced` pins the grant sequence prefix, the
/// controller's deterministic default policy extends it.
fn execute(cfg: &ModelConfig, forced: &[u32]) -> RunRecord {
    let (sim, addrs) = build_sim(cfg, true);
    cfg.bug.arm(sim.mem());
    let n = cfg.kernel.nthreads();
    let (_, policy) = cfg.tier.policy();
    let bound = match cfg.mode {
        Mode::BoundedPreemption(b) => Some(b),
        _ => None,
    };
    let ctrl = Controller::with_policy(n, Explorer::new(n, forced.to_vec(), cfg.max_steps, bound));
    let kernel = &cfg.kernel;
    let result = sim.try_run_scheduled(&ctrl, policy, |ctx| {
        kernel.run_thread(ctx, ctx.thread_id(), &addrs);
    });
    let (log, abort) = ctrl.policy(Explorer::take_result);
    match result {
        Ok(stats) => RunRecord {
            log,
            abort,
            error: None,
            digest: Some(sim.memory_digest()),
            stats: Some(stats),
        },
        Err(e) => {
            let error = abort.is_none().then(|| e.to_string());
            RunRecord { log, abort, error, stats: None, digest: None }
        }
    }
}

fn check(rec: &RunRecord, serial: &BTreeSet<u64>) -> Vec<(ViolationClass, String)> {
    let mut out = Vec::new();
    match &rec.abort {
        Some(SchedAbort::Deadlock(m)) => out.push((ViolationClass::Deadlock, m.clone())),
        Some(SchedAbort::StepBound(m)) => out.push((ViolationClass::Starvation, m.clone())),
        Some(SchedAbort::Divergence(m)) => out.push((ViolationClass::Panic, m.clone())),
        None => {}
    }
    if let Some(e) = &rec.error {
        out.push((ViolationClass::Panic, e.clone()));
    }
    if let Some(stats) = &rec.stats {
        if let Some(c) = &stats.certify {
            if !c.ok() {
                let first = c.violations.first().map(|v| v.to_string()).unwrap_or_default();
                out.push((
                    ViolationClass::Certify,
                    format!("{} committed-event violation(s); first: {first}", c.violations.len()),
                ));
            }
        }
        if let Some(o) = &stats.opacity {
            if !o.ok() {
                let first = o.violations.first().map(|v| v.to_string()).unwrap_or_default();
                out.push((
                    ViolationClass::Opacity,
                    format!(
                        "{} aborted attempt(s) saw no consistent snapshot; first: {first}",
                        o.violations.len()
                    ),
                ));
            }
        }
    }
    if let Some(d) = rec.digest {
        if !serial.contains(&d) {
            out.push((
                ViolationClass::NonSerializable,
                format!(
                    "final memory digest {d:#x} matches none of the {} serial block orders",
                    serial.len()
                ),
            ));
        }
    }
    out
}

/// Replays one forced schedule (the trace-replay entry point): a single
/// controlled execution, returning the violations found and the
/// interleaving diagram.
pub fn replay_forced(cfg: &ModelConfig, forced: &[u32]) -> (Vec<(ViolationClass, String)>, String) {
    let serial = serial_digests(cfg);
    let rec = execute(cfg, forced);
    (check(&rec, &serial), diagram(&rec.log))
}

/// Renders a schedule log as a per-thread-column interleaving diagram.
pub fn diagram(log: &[Decision]) -> String {
    let mut out = String::new();
    for (i, d) in log.iter().enumerate() {
        let end = match d.end_point {
            Some(p) => format!("{p:?}"),
            None => "Done".to_string(),
        };
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        for (&line, &w) in &d.fp {
            let name = if line == EPOCH_LINE { "epoch".to_string() } else { format!("L{line}") };
            if w {
                writes.push(name);
            } else {
                reads.push(name);
            }
        }
        let mut fp = String::new();
        if !reads.is_empty() {
            fp.push_str(&format!(" r[{}]", reads.join(",")));
        }
        if !writes.is_empty() {
            fp.push_str(&format!(" w[{}]", writes.join(",")));
        }
        let pad = "                          ".repeat(d.chosen as usize % 4);
        let probe = if d.promoted { " (blocked-probe)" } else { "" };
        out.push_str(&format!("{i:>4} {pad}| T{} -> {end}{fp}{probe}\n", d.chosen));
    }
    out
}

fn inherit_sleep(parent: &Node) -> Vec<(u32, Footprint)> {
    let mut s = parent.sleep.clone();
    for (t, fp) in &parent.explored {
        s.push((*t, fp.clone()));
    }
    s.retain(|(t, fp)| *t != parent.chosen && !conflicts(fp, &parent.fp));
    s
}

/// Explores the schedule space of `cfg`, returning what it found. The
/// enumeration is exhaustive (up to the documented pruning of the chosen
/// mode) unless the report says `truncated`.
pub fn explore(cfg: &ModelConfig) -> ExploreReport {
    let serial = serial_digests(cfg);
    let naive_branching = !matches!(cfg.mode, Mode::Dpor);
    let dpor = matches!(cfg.mode, Mode::Dpor);
    let mut report = ExploreReport {
        kernel: cfg.kernel.name.to_string(),
        platform: cfg.platform,
        tier: cfg.tier,
        mode: cfg.mode,
        bug: cfg.bug,
        schedules: 0,
        steps_total: 0,
        max_depth: 0,
        sleep_pruned: 0,
        digests: BTreeSet::new(),
        violating_schedules: 0,
        counterexamples: Vec::new(),
        truncated: false,
    };
    let mut path: Vec<Node> = Vec::new();
    loop {
        if report.schedules >= cfg.max_schedules {
            report.truncated = true;
            break;
        }
        let forced: Vec<u32> = path.iter().map(|n| n.chosen).collect();
        let rec = execute(cfg, &forced);
        report.schedules += 1;
        report.steps_total += rec.log.len() as u64;
        report.max_depth = report.max_depth.max(rec.log.len());
        // Refresh the retained prefix (the branch node's step footprint is
        // new) and verify the execution is deterministic w.r.t. the forced
        // prefix.
        let mut diverged = false;
        for (i, n) in path.iter_mut().enumerate() {
            match rec.log.get(i) {
                Some(d) if d.chosen == n.chosen => {
                    n.fp = d.fp.clone();
                    n.candidates = d.candidates.clone();
                    n.promoted = d.promoted;
                }
                _ => {
                    diverged = true;
                    break;
                }
            }
        }
        if diverged {
            report.counterexamples.push(Counterexample {
                class: ViolationClass::Panic,
                detail: "nondeterministic re-execution: the forced schedule prefix \
                         produced a different decision log"
                    .to_string(),
                schedule: forced,
                diagram: diagram(&rec.log),
            });
            break;
        }
        let viols = check(&rec, &serial);
        if !viols.is_empty() {
            report.violating_schedules += 1;
        }
        for (class, detail) in viols {
            if !report.counterexamples.iter().any(|c| c.class == class) {
                report.counterexamples.push(Counterexample {
                    class,
                    detail,
                    schedule: rec.log.iter().map(|d| d.chosen).collect(),
                    diagram: diagram(&rec.log),
                });
            }
        }
        if let Some(d) = rec.digest {
            report.digests.insert(d);
        }
        // Extend the path with the newly executed suffix.
        for i in path.len()..rec.log.len() {
            let d = &rec.log[i];
            // Sleep sets are a DPOR device; naive and bounded-preemption
            // modes are reference enumerations and must not prune.
            let sleep = if dpor && i > 0 { inherit_sleep(&path[i - 1]) } else { Vec::new() };
            let mut node = Node {
                chosen: d.chosen,
                candidates: d.candidates.clone(),
                promoted: d.promoted,
                fp: d.fp.clone(),
                done: BTreeSet::from([d.chosen]),
                todo: BTreeSet::new(),
                explored: Vec::new(),
                sleep,
            };
            if naive_branching && !d.promoted {
                node.todo = d.candidates.iter().copied().collect();
            }
            path.push(node);
        }
        if dpor {
            // Conflict-driven backtrack sets: a later step of another thread
            // that conflicts with step i must be schedulable at i. No
            // happens-before refinement — conservative, hence a superset of
            // the minimal persistent sets (sound, merely less pruning).
            for j in 0..path.len() {
                if path[j].promoted {
                    continue;
                }
                let tj = path[j].chosen;
                for i in 0..j {
                    if path[i].promoted || path[i].chosen == tj {
                        continue;
                    }
                    if conflicts(&path[i].fp, &path[j].fp) {
                        if path[i].candidates.contains(&tj) {
                            path[i].todo.insert(tj);
                        } else {
                            let cands = path[i].candidates.clone();
                            path[i].todo.extend(cands);
                        }
                    }
                }
            }
        }
        // Backtrack to the deepest node with an unexplored, unslept choice.
        let mut advanced = false;
        while let Some(mut node) = path.pop() {
            let picks: Vec<u32> =
                node.todo.iter().copied().filter(|t| !node.done.contains(t)).collect();
            let mut next = None;
            for t in picks {
                if node.sleep.iter().any(|(s, _)| *s == t) {
                    node.done.insert(t);
                    report.sleep_pruned += 1;
                    continue;
                }
                next = Some(t);
                break;
            }
            if let Some(t) = next {
                node.explored.push((node.chosen, std::mem::take(&mut node.fp)));
                node.done.insert(t);
                node.chosen = t;
                path.push(node);
                advanced = true;
                break;
            }
        }
        if !advanced {
            break;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel;

    #[test]
    fn tier_and_bug_and_class_keys_round_trip() {
        for t in ALL_TIERS {
            assert_eq!(Tier::parse(t.key()), Some(t));
        }
        for b in [
            SeededBug::None,
            SeededBug::SkipReaderDoom,
            SeededBug::SkipEpochBump,
            SeededBug::EarlyRotPublish,
        ] {
            assert_eq!(SeededBug::parse(b.key()), Some(b));
        }
        for c in [
            ViolationClass::Certify,
            ViolationClass::Opacity,
            ViolationClass::Deadlock,
            ViolationClass::Starvation,
            ViolationClass::NonSerializable,
            ViolationClass::Panic,
        ] {
            assert_eq!(ViolationClass::parse(c.key()), Some(c));
        }
        assert_eq!(Tier::parse("warp"), None);
    }

    #[test]
    fn serial_digests_of_commuting_blocks_collapse() {
        // All three counter serial orders produce the same final state.
        let cfg = ModelConfig::new(kernel::counter(), Platform::IntelCore, Tier::Hw);
        assert_eq!(serial_digests(&cfg).len(), 1);
    }

    #[test]
    fn single_execution_is_deterministic() {
        let cfg = ModelConfig::new(kernel::counter(), Platform::IntelCore, Tier::Hw);
        let a = execute(&cfg, &[]);
        let b = execute(&cfg, &[]);
        assert!(a.abort.is_none() && b.abort.is_none());
        assert_eq!(a.digest, b.digest);
        assert_eq!(
            a.log.iter().map(|d| d.chosen).collect::<Vec<_>>(),
            b.log.iter().map(|d| d.chosen).collect::<Vec<_>>(),
        );
    }
}

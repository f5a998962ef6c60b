//! yada — Delaunay mesh refinement (STAMP `yada`).
//!
//! Workers repeatedly take a "bad" (skinny) element from a shared priority
//! queue and refine it: one big transaction collects the element's *cavity*
//! (a breadth-first neighbourhood of live elements), retires every cavity
//! element, allocates a ring of replacement elements, and re-queues any new
//! elements classified bad. Large read *and* write footprints per
//! transaction — the regime where only Blue Gene/Q's capacity suffices and
//! where the paper saw persistent capacity-overflow aborts on the other
//! three platforms (Section 5.1).
//!
//! Substitution note (see `DESIGN.md`): the geometric predicates of real
//! Delaunay refinement are replaced by a synthetic mesh with the same
//! *transactional* structure — BFS cavity reads, cavity-wide retirement
//! writes, allocation of new linked elements, probabilistic re-queueing —
//! which is what determines HTM behaviour.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use htm_core::WordAddr;
use htm_runtime::{Sim, ThreadCtx};
use tm_structs::TmHeap;

use crate::common::{Scale, Workload};

/// yada configuration.
#[derive(Clone, Copy, Debug)]
pub struct YadaConfig {
    /// Initial mesh elements (grid cells).
    pub side: u32,
    /// Fraction (percent) of initial elements classified bad.
    pub bad_pct: u32,
    /// Cavity radius in BFS layers.
    pub cavity_layers: u32,
    /// Percent chance each replacement element is itself bad.
    pub new_bad_pct: u32,
    /// Hard cap on refinements (keeps runs bounded).
    pub max_refinements: u32,
}

impl YadaConfig {
    /// Configuration for a scale.
    pub fn at(scale: Scale) -> YadaConfig {
        match scale {
            Scale::Tiny => YadaConfig {
                side: 12,
                bad_pct: 20,
                cavity_layers: 2,
                new_bad_pct: 10,
                max_refinements: 200,
            },
            // Mesh sized so a cavity is a small fraction of the mesh (as
            // in the paper's 600k-triangle inputs): concurrent cavities
            // rarely overlap, and conflicts stay in the paper's regime.
            Scale::Sim => YadaConfig {
                side: 128,
                bad_pct: 15,
                cavity_layers: 4,
                new_bad_pct: 12,
                max_refinements: 3000,
            },
            Scale::Full => YadaConfig {
                side: 320,
                bad_pct: 15,
                cavity_layers: 4,
                new_bad_pct: 15,
                max_refinements: 30_000,
            },
        }
    }
}

/// Element record: `[alive, n_neighbors, nb0, nb1, nb2, nb3]`
/// (neighbor slots hold element-record addresses, or 0).
const EL_ALIVE: u32 = 0;
const EL_NNB: u32 = 1;
const EL_NB: u32 = 2;
const MAX_NB: u32 = 4;
/// Element records are padded to 32 words (256 B): a real yada element
/// carries vertex coordinates, circumcenter, edge and neighbour data, and
/// the record size determines the cavity's line footprint — large enough
/// that a deep cavity overflows POWER8's TMCAM and zEC12's 8 KB store
/// cache, as the paper observed.
const EL_WORDS: u32 = 32;

struct Shared {
    work: TmHeap,
    /// Element budget guard (allocated elements counter, host side).
    refinements: AtomicU64,
}

/// The yada workload.
pub struct Yada {
    cfg: YadaConfig,
    seed: u64,
    shared: OnceLock<Shared>,
    initial_bad: AtomicU64,
}

impl Yada {
    /// Creates a yada workload.
    pub fn new(cfg: YadaConfig, seed: u64) -> Yada {
        Yada { cfg, seed, shared: OnceLock::new(), initial_bad: AtomicU64::new(0) }
    }
}

impl Workload for Yada {
    fn name(&self) -> String {
        "yada".to_string()
    }

    fn mem_words(&self) -> u32 {
        let initial = self.cfg.side * self.cfg.side;
        (initial + self.cfg.max_refinements * 16) * (EL_WORDS + 2) + (1 << 18)
    }

    fn setup(&self, sim: &Sim) {
        let cfg = self.cfg;
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut ctx = sim.seq_ctx();
        let n = cfg.side * cfg.side;
        // Grid mesh with 4-neighborhood.
        let base = ctx.alloc(n * EL_WORDS);
        let el = |i: u32| base.offset(i * EL_WORDS);
        for i in 0..n {
            sim.write_word(el(i).offset(EL_ALIVE), 1);
            let x = i % cfg.side;
            let y = i / cfg.side;
            let mut nbs = Vec::new();
            if x > 0 {
                nbs.push(el(i - 1));
            }
            if x + 1 < cfg.side {
                nbs.push(el(i + 1));
            }
            if y > 0 {
                nbs.push(el(i - cfg.side));
            }
            if y + 1 < cfg.side {
                nbs.push(el(i + cfg.side));
            }
            sim.write_word(el(i).offset(EL_NNB), nbs.len() as u64);
            for (s, nb) in nbs.iter().enumerate() {
                sim.write_word(el(i).offset(EL_NB + s as u32), nb.to_repr());
            }
        }
        let work = ctx.atomic(|tx| TmHeap::create(tx, n + cfg.max_refinements * 8));
        let mut bad = 0;
        for i in 0..n {
            if rng.gen_range(0..100) < cfg.bad_pct {
                let prio = rng.gen_range(1..1000u64);
                ctx.atomic(|tx| work.push(tx, prio, el(i).to_repr()).map(|_| ()));
                bad += 1;
            }
        }
        self.initial_bad.store(bad, Ordering::Relaxed);
        self.shared
            .set(Shared { work, refinements: AtomicU64::new(0) })
            .ok()
            .expect("setup ran twice");
    }

    fn work(&self, ctx: &mut ThreadCtx) {
        let cfg = self.cfg;
        let sh = self.shared.get().expect("setup not run");
        // Heap operations are tiny but permanently contended; falling back
        // to the global lock for them would doom every in-flight
        // refinement, so they get a patient retry budget of their own
        // (the per-site tuning the paper's methodology implies).
        let refine_policy = ctx.policy();
        let mut heap_policy = refine_policy;
        heap_policy.transient_retries = heap_policy.transient_retries.max(12);
        heap_policy.lock_retries = heap_policy.lock_retries.max(8);
        heap_policy.bgq_retries = heap_policy.bgq_retries.max(12);

        loop {
            if sh.refinements.load(Ordering::Relaxed) >= cfg.max_refinements as u64 {
                break;
            }
            ctx.set_policy(heap_policy);
            let popped = ctx.atomic(|tx| sh.work.pop(tx));
            ctx.set_policy(refine_policy);
            let Some((_prio, victim)) = popped else { break };
            let victim = WordAddr::from_repr(victim);
            // Pre-draw randomness so retries replay identically.
            let ring: u32 = ctx.rng().gen_range(3..=6);
            let bad_draws: Vec<bool> =
                (0..ring).map(|_| ctx.rng().gen_range(0..100) < cfg.new_bad_pct).collect();
            let prio_draws: Vec<u64> = (0..ring).map(|_| ctx.rng().gen_range(1..1000)).collect();

            let refined = ctx.atomic(|tx| {
                if tx.load(victim.offset(EL_ALIVE))? == 0 {
                    return Ok(None); // already consumed by another cavity
                }
                // Collect the cavity: BFS over live neighbors. Elements
                // reached one step beyond the layer limit form the cavity
                // *boundary*, which the replacement elements re-wire to.
                let mut cavity = vec![victim];
                let mut boundary: Vec<WordAddr> = Vec::new();
                let mut seen = std::collections::HashSet::new();
                seen.insert(victim);
                let mut frontier = vec![victim];
                for layer in 0..=cfg.cavity_layers {
                    let is_boundary_layer = layer == cfg.cavity_layers;
                    let mut next = Vec::new();
                    for &e in &frontier {
                        let nnb = tx.load(e.offset(EL_NNB))? as u32;
                        for s in 0..nnb.min(MAX_NB) {
                            let nb = tx.load_addr(e.offset(EL_NB + s))?;
                            if nb.is_null() || seen.contains(&nb) {
                                continue;
                            }
                            seen.insert(nb);
                            if tx.load(nb.offset(EL_ALIVE))? == 1 {
                                if is_boundary_layer {
                                    boundary.push(nb);
                                } else {
                                    cavity.push(nb);
                                    next.push(nb);
                                }
                            }
                        }
                    }
                    if is_boundary_layer {
                        break;
                    }
                    frontier = next;
                }
                // Geometry work proportional to the cavity size
                // (circumcircle tests, angle checks — the dominant cost of
                // real Delaunay refinement).
                tx.tick(cavity.len() as u64 * 600);
                // Retire the cavity.
                for &e in &cavity {
                    tx.store(e.offset(EL_ALIVE), 0)?;
                }
                // Allocate the replacement ring, linked cyclically.
                let mut fresh = Vec::with_capacity(ring as usize);
                for _ in 0..ring {
                    fresh.push(tx.alloc(EL_WORDS));
                }
                for (k, &e) in fresh.iter().enumerate() {
                    tx.store(e.offset(EL_ALIVE), 1)?;
                    let prev = fresh[(k + ring as usize - 1) % ring as usize];
                    let next = fresh[(k + 1) % ring as usize];
                    tx.store_addr(e.offset(EL_NB), prev)?;
                    tx.store_addr(e.offset(EL_NB + 1), next)?;
                    // Wire to the cavity boundary (real retriangulation
                    // attaches new triangles to the cavity's rim).
                    let mut nnb = 2u64;
                    if !boundary.is_empty() {
                        let b = boundary[k % boundary.len()];
                        tx.store_addr(e.offset(EL_NB + 2), b)?;
                        nnb = 3;
                    }
                    tx.store(e.offset(EL_NNB), nnb)?;
                    for s in nnb as u32..MAX_NB {
                        tx.store(e.offset(EL_NB + s), 0)?;
                    }
                }
                // Re-point one dead slot of each boundary element at a ring
                // element so the mesh stays connected (and the boundary
                // joins the write set, as in real cavity retriangulation).
                for (j, &b) in boundary.iter().enumerate() {
                    let nnb = tx.load(b.offset(EL_NNB))? as u32;
                    for s in 0..nnb.min(MAX_NB) {
                        let nb = tx.load_addr(b.offset(EL_NB + s))?;
                        if !nb.is_null() && tx.load(nb.offset(EL_ALIVE))? == 0 {
                            tx.store_addr(b.offset(EL_NB + s), fresh[j % fresh.len()])?;
                            break;
                        }
                    }
                }
                // Collect new bad elements (queued after commit, in small
                // separate transactions, so the hot heap root does not
                // serialize whole refinements).
                let mut new_bad = Vec::new();
                for (k, &e) in fresh.iter().enumerate() {
                    if bad_draws[k] {
                        new_bad.push((prio_draws[k], e));
                    }
                }
                Ok(Some(new_bad))
            });
            if let Some(new_bad) = refined {
                ctx.set_policy(heap_policy);
                for (prio, e) in new_bad {
                    ctx.atomic(|tx| sh.work.push(tx, prio, e.to_repr()).map(|_| ()));
                }
                ctx.set_policy(refine_policy);
                sh.refinements.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn verify(&self, sim: &Sim) {
        let sh = self.shared.get().expect("setup not run");
        let refinements = sh.refinements.load(Ordering::Relaxed);
        let capped = refinements >= self.cfg.max_refinements as u64;
        let mut ctx = sim.seq_ctx();
        let drained = ctx.atomic(|tx| sh.work.is_empty(tx));
        assert!(
            drained || capped,
            "work left ({refinements} refinements, cap {})",
            self.cfg.max_refinements
        );
        assert!(
            refinements > 0 || self.initial_bad.load(Ordering::Relaxed) == 0,
            "bad elements existed but nothing was refined"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{measure, BenchParams};
    use htm_machine::Platform;

    #[test]
    fn yada_refines_on_all_platforms() {
        for p in Platform::ALL {
            let r = measure(
                &|| Yada::new(YadaConfig::at(Scale::Tiny), 29),
                &p.config(),
                &BenchParams { threads: 2, scale: Scale::Tiny, ..Default::default() },
            );
            assert!(r.stats.committed_blocks() > 0, "{p}");
        }
    }

    #[test]
    fn cavities_overflow_power8_but_not_bgq() {
        // Deep cavities: 4 BFS layers reach ~41 padded (128 B) elements,
        // well past the 64-entry TMCAM once retire-writes and the ring are
        // counted; Blue Gene/Q's 1.25 MB budget shrugs it off.
        let cfg = YadaConfig {
            side: 24,
            bad_pct: 30,
            cavity_layers: 5,
            new_bad_pct: 10,
            max_refinements: 300,
        };
        let run = |machine: htm_machine::MachineConfig| {
            crate::common::run_parallel(
                &|| Yada::new(cfg, 29),
                &machine,
                &BenchParams { threads: 2, seed: 29, ..Default::default() },
            )
        };
        let p8 = run(Platform::Power8.config());
        let cap = p8.aborts_in(htm_core::AbortCategory::Capacity);
        assert!(cap > 0, "deep cavities must overflow the 64-entry TMCAM");
        let bgq = run(Platform::BlueGeneQ.config());
        // Blue Gene/Q reports no categories, but nothing should serialize
        // for capacity reasons: hardware commits dominate.
        assert!(bgq.hw_commits() > 0);
    }
}

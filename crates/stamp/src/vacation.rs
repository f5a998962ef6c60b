//! vacation — travel-reservation system (STAMP `vacation`).
//!
//! An in-memory reservation database: three resource tables (cars, flights,
//! rooms) plus customers with reservation lists. Each client task is *one*
//! transaction: make a reservation (query several resources, reserve the
//! cheapest available), cancel a customer's reservations, or update the
//! tables (add/price/remove resources).
//!
//! The original STAMP code backs the unordered resource tables with
//! red-black trees; the paper's Section-4 fix uses hash tables instead,
//! collapsing the per-query footprint from `O(log R)` chained lines to a
//! couple — the difference behind POWER8's capacity-overflow aborts in the
//! original (Sections 5.2 and 5.3).
//!
//! `high`/`low` mirrors STAMP: `vacation-high` = 4 queries per task over
//! 60 % of the relations with 90 % user tasks; `-low` = 2 queries over
//! 90 % with 98 % user tasks.

use std::sync::OnceLock;

use rand::Rng;

use htm_core::WordAddr;
use htm_runtime::{Sim, ThreadCtx};
use tm_structs::TmList;

use crate::common::{partition, Scale, Workload};
use crate::tmmap::TmMap;

/// Original (tree) vs modified (hash) resource tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VacationVariant {
    /// Red-black-tree tables (STAMP 0.9.10).
    Original,
    /// Hash-table tables (the paper's fix).
    Modified,
}

/// vacation configuration.
#[derive(Clone, Copy, Debug)]
pub struct VacationConfig {
    /// Rows per resource table (and number of customers).
    pub n_relations: u32,
    /// Client tasks (transactions) in total.
    pub n_tasks: u32,
    /// Resource queries per task (STAMP `-n`).
    pub queries_per_task: u32,
    /// Percentage of the id space each task may touch (STAMP `-q`).
    pub query_range_pct: u32,
    /// Percentage of tasks that are user reservations (STAMP `-u`).
    pub user_pct: u32,
    /// Table backend.
    pub variant: VacationVariant,
}

impl VacationConfig {
    /// High-contention configuration (STAMP `vacation-high`).
    pub fn high(scale: Scale, variant: VacationVariant) -> VacationConfig {
        let (n_relations, n_tasks) = match scale {
            Scale::Tiny => (128, 256),
            Scale::Sim => (8192, 8192),
            Scale::Full => (1 << 17, 1 << 17),
        };
        VacationConfig {
            n_relations,
            n_tasks,
            queries_per_task: 4,
            query_range_pct: 60,
            user_pct: 90,
            variant,
        }
    }

    /// Low-contention configuration (STAMP `vacation-low`).
    pub fn low(scale: Scale, variant: VacationVariant) -> VacationConfig {
        let mut c = VacationConfig::high(scale, variant);
        c.queries_per_task = 2;
        c.query_range_pct = 90;
        c.user_pct = 98;
        c
    }
}

/// Resource record: `[total, avail, price]`.
const RES_TOTAL: u32 = 0;
const RES_AVAIL: u32 = 1;
const RES_PRICE: u32 = 2;
const RES_WORDS: u32 = 3;

/// The three resource types.
const N_TYPES: u64 = 3;

struct Shared {
    /// One map per resource type: id → record address.
    tables: [TmMap; 3],
    /// Customer reservation lists: customer id → list header address.
    customers: Vec<TmList>,
}

/// The vacation workload.
pub struct Vacation {
    cfg: VacationConfig,
    shared: OnceLock<Shared>,
}

impl Vacation {
    /// Creates a vacation workload.
    ///
    /// The `seed` parameter is accepted for registry uniformity; vacation's
    /// table population is deterministic and per-thread task draws come
    /// from each worker's own seeded RNG.
    pub fn new(cfg: VacationConfig, _seed: u64) -> Vacation {
        Vacation { cfg, shared: OnceLock::new() }
    }
}

fn reservation_key(ty: u64, id: u64) -> u64 {
    (ty << 32) | id
}

impl Workload for Vacation {
    fn name(&self) -> String {
        format!(
            "vacation-{} ({})",
            if self.cfg.query_range_pct <= 60 { "high" } else { "low" },
            match self.cfg.variant {
                VacationVariant::Original => "original",
                VacationVariant::Modified => "modified",
            }
        )
    }

    fn mem_words(&self) -> u32 {
        self.cfg.n_relations * 64 + self.cfg.n_tasks * 16 + (1 << 18)
    }

    fn setup(&self, sim: &Sim) {
        let cfg = self.cfg;
        let mut ctx = sim.seq_ctx();
        let use_hash = cfg.variant == VacationVariant::Modified;
        let buckets = cfg.n_relations.max(16);
        let shared = ctx.atomic(|tx| {
            let tables = [
                TmMap::create(tx, use_hash, buckets)?,
                TmMap::create(tx, use_hash, buckets)?,
                TmMap::create(tx, use_hash, buckets)?,
            ];
            let mut customers = Vec::with_capacity(cfg.n_relations as usize);
            for _ in 0..cfg.n_relations {
                customers.push(TmList::create(tx)?);
            }
            Ok(Shared { tables, customers })
        });
        // Populate tables deterministically: total seats 100 + id % 100,
        // price 50 + (id * 7) % 100 (matches STAMP's random quantities in
        // spirit while keeping verification exact).
        let mut ctx = sim.seq_ctx();
        for ty in 0..3usize {
            for id in 0..cfg.n_relations as u64 {
                let rec = ctx.atomic(|tx| {
                    let rec = tx.alloc(RES_WORDS);
                    let total = 100 + id % 100;
                    tx.store(rec.offset(RES_TOTAL), total)?;
                    tx.store(rec.offset(RES_AVAIL), total)?;
                    tx.store(rec.offset(RES_PRICE), 50 + (id * 7) % 100)?;
                    shared.tables[ty].insert(tx, id, rec.to_repr())?;
                    Ok(rec)
                });
                let _ = rec;
            }
        }
        self.shared.set(shared).ok().expect("setup ran twice");
    }

    fn work(&self, ctx: &mut ThreadCtx) {
        let cfg = self.cfg;
        let sh = self.shared.get().expect("setup not run");
        let range = partition(cfg.n_tasks as u64, ctx.thread_id(), ctx.num_threads());
        let id_span = ((cfg.n_relations as u64 * cfg.query_range_pct as u64) / 100).max(1);

        for _task in range {
            // Pre-draw all random choices outside the transaction so a
            // retry replays the identical task.
            let action: u64 = ctx.rng().gen_range(0..100);
            let customer = ctx.rng().gen_range(0..cfg.n_relations as u64);
            let queries: Vec<(u64, u64)> = (0..cfg.queries_per_task)
                .map(|_| {
                    let ty = ctx.rng().gen_range(0..N_TYPES);
                    let id = ctx.rng().gen_range(0..id_span);
                    (ty, id)
                })
                .collect();
            let update_add: bool = ctx.rng().gen_bool(0.5);

            if action < cfg.user_pct as u64 {
                self.make_reservation(ctx, sh, customer, &queries);
            } else if action < cfg.user_pct as u64 + (100 - cfg.user_pct as u64) / 2 {
                self.cancel_customer(ctx, sh, customer);
            } else {
                self.update_tables(ctx, sh, &queries, update_add);
            }
        }
    }

    fn verify(&self, sim: &Sim) {
        let cfg = self.cfg;
        let sh = self.shared.get().expect("setup not run");
        let mut ctx = sim.seq_ctx();
        // Count reservations per (type, id) from all customer lists.
        let mut reserved = vec![0u64; (N_TYPES as usize) * cfg.n_relations as usize];
        ctx.atomic(|tx| {
            for list in &sh.customers {
                list.for_each(tx, |key, count| {
                    let ty = key >> 32;
                    let id = key & 0xffff_ffff;
                    // The list value is the reservation multiplicity.
                    reserved[(ty * cfg.n_relations as u64 + id) as usize] += count;
                    Ok(())
                })?;
            }
            Ok(())
        });
        // Every table row must satisfy avail + reserved == total.
        let mut ctx = sim.seq_ctx();
        ctx.atomic(|tx| {
            for ty in 0..N_TYPES {
                for id in 0..cfg.n_relations as u64 {
                    if let Some(rec) = sh.tables[ty as usize].get(tx, id)? {
                        let rec = WordAddr::from_repr(rec);
                        let total = tx.load(rec.offset(RES_TOTAL))?;
                        let avail = tx.load(rec.offset(RES_AVAIL))?;
                        let r = reserved[(ty * cfg.n_relations as u64 + id) as usize];
                        assert!(avail <= total, "type {ty} id {id}: avail {avail} > total {total}");
                        assert_eq!(
                            avail + r,
                            total,
                            "type {ty} id {id}: avail {avail} + reserved {r} != total {total}"
                        );
                    } else {
                        // Removed rows must have no outstanding reservations.
                        let r = reserved[(ty * cfg.n_relations as u64 + id) as usize];
                        assert_eq!(r, 0, "type {ty} id {id} removed with {r} reservations");
                    }
                }
            }
            Ok(())
        });
    }
}

impl Vacation {
    /// One MAKE_RESERVATION task: query the chosen resources, then reserve
    /// the cheapest available of each type (all in one transaction).
    fn make_reservation(
        &self,
        ctx: &mut ThreadCtx,
        sh: &Shared,
        customer: u64,
        queries: &[(u64, u64)],
    ) {
        ctx.atomic(|tx| {
            // Query phase: find the cheapest available resource per type.
            let mut best: [Option<(u64, WordAddr, u64)>; 3] = [None, None, None];
            for &(ty, id) in queries {
                tx.tick(40); // query parsing / manager logic
                if let Some(rec) = sh.tables[ty as usize].get(tx, id)? {
                    let rec = WordAddr::from_repr(rec);
                    let avail = tx.load(rec.offset(RES_AVAIL))?;
                    if avail == 0 {
                        continue;
                    }
                    let price = tx.load(rec.offset(RES_PRICE))?;
                    let better = match best[ty as usize] {
                        None => true,
                        Some((_, _, p)) => price < p,
                    };
                    if better {
                        best[ty as usize] = Some((id, rec, price));
                    }
                }
            }
            // Reservation phase.
            for (ty, choice) in best.iter().enumerate() {
                if let Some((id, rec, price)) = choice {
                    let avail = tx.load(rec.offset(RES_AVAIL))?;
                    if avail == 0 {
                        continue; // raced within the same task's queries
                    }
                    tx.store(rec.offset(RES_AVAIL), avail - 1)?;
                    let key = reservation_key(ty as u64, *id);
                    // A customer may hold several reservations of the same
                    // resource; encode multiplicity in the value.
                    match sh.customers[customer as usize].get(tx, key)? {
                        Some(count) => {
                            sh.customers[customer as usize].put(tx, key, count + 1)?;
                        }
                        None => {
                            sh.customers[customer as usize].insert(tx, key, 1)?;
                        }
                    }
                    let _ = price;
                }
            }
            Ok(())
        });
    }

    /// One DELETE_CUSTOMER task: release all the customer's reservations.
    fn cancel_customer(&self, ctx: &mut ThreadCtx, sh: &Shared, customer: u64) {
        ctx.atomic(|tx| {
            let list = &sh.customers[customer as usize];
            while let Some((key, count)) = list.pop_min(tx)? {
                let ty = key >> 32;
                let id = key & 0xffff_ffff;
                if let Some(rec) = sh.tables[ty as usize].get(tx, id)? {
                    let rec = WordAddr::from_repr(rec);
                    let avail = tx.load(rec.offset(RES_AVAIL))?;
                    tx.store(rec.offset(RES_AVAIL), avail + count)?;
                }
                // Row removal is blocked while reservations exist (see
                // update_tables), so the row is always found.
            }
            Ok(())
        });
    }

    /// One UPDATE_TABLES task: grow or shrink the queried resources.
    fn update_tables(&self, ctx: &mut ThreadCtx, sh: &Shared, queries: &[(u64, u64)], add: bool) {
        ctx.atomic(|tx| {
            for &(ty, id) in queries {
                tx.tick(40);
                let table = &sh.tables[ty as usize];
                match table.get(tx, id)? {
                    Some(rec) => {
                        let rec = WordAddr::from_repr(rec);
                        if add {
                            let total = tx.load(rec.offset(RES_TOTAL))?;
                            let avail = tx.load(rec.offset(RES_AVAIL))?;
                            tx.store(rec.offset(RES_TOTAL), total + 10)?;
                            tx.store(rec.offset(RES_AVAIL), avail + 10)?;
                        } else {
                            // Retire available seats only (reservations stay
                            // valid), removing the row when it empties and
                            // nothing is outstanding.
                            let total = tx.load(rec.offset(RES_TOTAL))?;
                            let avail = tx.load(rec.offset(RES_AVAIL))?;
                            let cut = avail.min(10);
                            tx.store(rec.offset(RES_TOTAL), total - cut)?;
                            tx.store(rec.offset(RES_AVAIL), avail - cut)?;
                            if total - cut == 0 {
                                table.remove(tx, id)?;
                                tx.free(rec, RES_WORDS);
                            }
                        }
                    }
                    None if add => {
                        let rec = tx.alloc(RES_WORDS);
                        tx.store(rec.offset(RES_TOTAL), 10)?;
                        tx.store(rec.offset(RES_AVAIL), 10)?;
                        tx.store(rec.offset(RES_PRICE), 75)?;
                        table.insert(tx, id, rec.to_repr())?;
                    }
                    None => {}
                }
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{measure, BenchParams};
    use htm_machine::Platform;

    #[test]
    fn vacation_high_verifies_on_all_platforms() {
        for p in Platform::ALL {
            for variant in [VacationVariant::Original, VacationVariant::Modified] {
                let r = measure(
                    &|| Vacation::new(VacationConfig::high(Scale::Tiny, variant), 9),
                    &p.config(),
                    &BenchParams { threads: 2, scale: Scale::Tiny, ..Default::default() },
                );
                assert!(r.stats.committed_blocks() >= 256, "{p} {variant:?}");
            }
        }
    }

    #[test]
    fn vacation_low_verifies() {
        let r = measure(
            &|| Vacation::new(VacationConfig::low(Scale::Tiny, VacationVariant::Modified), 5),
            &Platform::Zec12.config(),
            &BenchParams { threads: 4, scale: Scale::Tiny, ..Default::default() },
        );
        assert!(r.speedup() > 0.0);
    }

    #[test]
    fn original_has_larger_footprint_aborts_on_power8() {
        // The headline Section-4 effect: tree tables overflow the TMCAM
        // far more often than hash tables.
        let p = Platform::Power8.config();
        let run = |variant| {
            crate::common::run_parallel(
                &|| {
                    Vacation::new(
                        VacationConfig {
                            n_relations: 8192,
                            n_tasks: 512,
                            queries_per_task: 6,
                            ..VacationConfig::high(Scale::Tiny, variant)
                        },
                        13,
                    )
                },
                &p,
                &BenchParams { threads: 4, seed: 13, ..Default::default() },
            )
        };
        let orig = run(VacationVariant::Original);
        let modi = run(VacationVariant::Modified);
        let cap = |s: &htm_runtime::RunStats| s.aborts_in(htm_core::AbortCategory::Capacity);
        assert!(
            cap(&orig) > cap(&modi),
            "original capacity aborts ({}) must exceed modified ({})",
            cap(&orig),
            cap(&modi)
        );
    }
}

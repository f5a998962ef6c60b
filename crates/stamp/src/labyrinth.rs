//! labyrinth — transactional maze routing (STAMP `labyrinth`).
//!
//! Workers take point-to-point routing requests off a shared queue and
//! route them through a 3-D grid with Lee's algorithm. As in STAMP, the
//! *entire* routing attempt is one transaction: the worker reads a private
//! snapshot of the whole grid (every cell enters the read set!), computes a
//! path, and writes the path cells back. This produces the largest
//! transactional load footprints of the suite (Figure 10) and near-zero
//! scalability on every platform (Figure 5): only Blue Gene/Q's 1.25 MB
//! capacity even fits the snapshot, and any two concurrent routings
//! conflict through it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use htm_core::WordAddr;
use htm_runtime::{Sim, ThreadCtx};
use tm_structs::TmQueue;

use crate::common::{Scale, Workload};

/// labyrinth configuration.
#[derive(Clone, Copy, Debug)]
pub struct LabyrinthConfig {
    /// Grid width.
    pub x: u32,
    /// Grid height.
    pub y: u32,
    /// Grid depth (layers).
    pub z: u32,
    /// Number of routing requests.
    pub n_requests: u32,
    /// Percentage of cells that are walls.
    pub wall_pct: u32,
}

impl LabyrinthConfig {
    /// Configuration for a scale (STAMP defaults are 512×512×7; scaled to
    /// keep the per-transaction snapshot in the same *relative* regime).
    pub fn at(scale: Scale) -> LabyrinthConfig {
        match scale {
            Scale::Tiny => LabyrinthConfig { x: 12, y: 12, z: 2, n_requests: 8, wall_pct: 5 },
            // The grid snapshot (5 MB) exceeds every platform's
            // transactional-load capacity, as STAMP's 512x512x7 grid did
            // on the real machines.
            Scale::Sim => LabyrinthConfig { x: 640, y: 256, z: 4, n_requests: 24, wall_pct: 5 },
            Scale::Full => LabyrinthConfig { x: 640, y: 512, z: 7, n_requests: 128, wall_pct: 5 },
        }
    }

    fn cells(&self) -> u32 {
        self.x * self.y * self.z
    }
}

/// Grid cell values.
const FREE: u64 = 0;
const WALL: u64 = u64::MAX;

/// [`Router`] marks: a free cell not reached yet, and a cell no route may
/// enter (wall, earlier path or padding). Real distances stay below both.
const UNVISITED: u32 = u32::MAX;
const BLOCKED: u32 = u32::MAX - 1;

/// Request record: `[src, dst, routed_len]` (`routed_len` = path cells on
/// success, 0 if unrouted).
const REQ_SRC: u32 = 0;
const REQ_DST: u32 = 1;
const REQ_LEN: u32 = 2;
const REQ_WORDS: u32 = 3;

struct Shared {
    grid: WordAddr,
    queue: TmQueue,
    requests: Vec<WordAddr>,
}

/// The labyrinth workload.
pub struct Labyrinth {
    cfg: LabyrinthConfig,
    seed: u64,
    shared: OnceLock<Shared>,
    routed: AtomicU64,
    failed: AtomicU64,
}

impl Labyrinth {
    /// Creates a labyrinth workload.
    pub fn new(cfg: LabyrinthConfig, seed: u64) -> Labyrinth {
        Labyrinth {
            cfg,
            seed,
            shared: OnceLock::new(),
            routed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        }
    }
}

/// Lee's-algorithm router over one worker's private copy of the grid.
///
/// The copy is a `u32` distance grid padded with one blocked cell at the
/// end of every row and one blocked row at the end of every layer, so the
/// six neighbours of a cell are constant index offsets: a step off the grid
/// in x or y lands on padding (the row or layer before a cell also ends in
/// padding), and a step off in z falls outside the array. The search needs
/// no division and no per-axis bounds test. Neighbours are visited in the
/// order −x, +x, −y, +y, −z, +z.
struct Router {
    cfg: LabyrinthConfig,
    /// Padded row length (`x + 1`).
    row: u32,
    /// Padded layer size (`(x + 1) * (y + 1)`).
    layer: u32,
    dist: Vec<u32>,
    frontier: VecDeque<u32>,
    /// One grid row of loaded cell values (reused by [`Router::load`]).
    row_buf: Vec<u64>,
}

impl Router {
    fn new(cfg: LabyrinthConfig) -> Router {
        let row = cfg.x + 1;
        let layer = row * (cfg.y + 1);
        Router {
            cfg,
            row,
            layer,
            dist: vec![BLOCKED; (layer * cfg.z) as usize],
            frontier: VecDeque::new(),
            row_buf: vec![FREE; cfg.x as usize],
        }
    }

    /// Index offsets of the six neighbours, wrapping for negative steps (a
    /// wrapped index past the array end is off the grid).
    fn steps(&self) -> [u32; 6] {
        [
            1u32.wrapping_neg(),
            1,
            self.row.wrapping_neg(),
            self.row,
            self.layer.wrapping_neg(),
            self.layer,
        ]
    }

    /// Padded index of grid cell `i`.
    fn padded(&self, i: u32) -> u32 {
        let r = i / self.cfg.x; // row counted across layers
        (r + r / self.cfg.y) * self.row + i % self.cfg.x
    }

    /// Grid cell at padded index `p`.
    fn cell(&self, p: u32) -> u32 {
        let r = p / self.row;
        (r - r / (self.cfg.y + 1)) * self.cfg.x + p % self.row
    }

    /// Fills the grid copy one grid row at a time, in index order:
    /// `load_row(i, buf)` fills `buf` with the `x` cells from grid cell `i`
    /// on. A cell is open iff it loads as [`FREE`].
    fn load<E>(
        &mut self,
        mut load_row: impl FnMut(u32, &mut [u64]) -> Result<(), E>,
    ) -> Result<(), E> {
        let (x, y) = (self.cfg.x as usize, self.cfg.y as usize);
        let mut i = 0;
        for layer in self.dist.chunks_exact_mut(self.layer as usize) {
            for row in layer.chunks_exact_mut(self.row as usize).take(y) {
                load_row(i, &mut self.row_buf)?;
                for (d, &v) in row[..x].iter_mut().zip(&self.row_buf) {
                    *d = if v == FREE { UNVISITED } else { BLOCKED };
                }
                i += x as u32;
            }
        }
        Ok(())
    }

    /// Routes grid cell `src` to `dst` on the loaded copy.
    ///
    /// Returns `None`, without searching, if an endpoint is not free.
    /// Otherwise returns the number of cells the breadth-first search
    /// expanded, and fills `path` with the route's cells from `dst` back to
    /// `src` (left empty if `dst` is unreachable).
    fn route(&mut self, src: u32, dst: u32, path: &mut Vec<u32>) -> Option<u64> {
        path.clear();
        let (src, dst) = (self.padded(src), self.padded(dst));
        if self.dist[src as usize] != UNVISITED || self.dist[dst as usize] != UNVISITED {
            return None;
        }
        let steps = self.steps();
        let dist = &mut self.dist;
        dist[src as usize] = 0;
        self.frontier.clear();
        self.frontier.push_back(src);
        let mut expanded = 0u64;
        while let Some(c) = self.frontier.pop_front() {
            if c == dst {
                break;
            }
            expanded += 1;
            let next = dist[c as usize] + 1;
            for step in steps {
                let n = c.wrapping_add(step);
                if dist.get(n as usize) == Some(&UNVISITED) {
                    dist[n as usize] = next;
                    self.frontier.push_back(n);
                }
            }
        }
        if self.dist[dst as usize] != UNVISITED {
            // Trace back, always to the first neighbour one step closer.
            let mut cur = dst;
            path.push(self.cell(cur));
            while cur != src {
                let want = self.dist[cur as usize] - 1;
                cur = steps
                    .iter()
                    .map(|&step| cur.wrapping_add(step))
                    .find(|&n| self.dist.get(n as usize) == Some(&want))
                    .expect("broken BFS parent chain");
                path.push(self.cell(cur));
            }
        }
        Some(expanded)
    }
}

impl Workload for Labyrinth {
    fn name(&self) -> String {
        "labyrinth".to_string()
    }

    fn mem_words(&self) -> u32 {
        self.cfg.cells() + self.cfg.n_requests * 8 + (1 << 20)
    }

    fn setup(&self, sim: &Sim) {
        let cfg = self.cfg;
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut ctx = sim.seq_ctx();
        let grid = ctx.alloc(cfg.cells());
        for i in 0..cfg.cells() {
            let v = if rng.gen_range(0..100) < cfg.wall_pct { WALL } else { FREE };
            sim.write_word(grid.offset(i), v);
        }
        // Distinct free endpoints for every request.
        let mut taken = std::collections::HashSet::new();
        let mut pick_free = |rng: &mut SmallRng, sim: &Sim| loop {
            let i = rng.gen_range(0..cfg.cells());
            if sim.read_word(grid.offset(i)) == FREE && taken.insert(i) {
                return i;
            }
        };
        let queue = ctx.atomic(TmQueue::create);
        let mut requests = Vec::new();
        for _ in 0..cfg.n_requests {
            let src = pick_free(&mut rng, sim);
            let dst = pick_free(&mut rng, sim);
            let req = ctx.alloc(REQ_WORDS);
            sim.write_word(req.offset(REQ_SRC), src as u64);
            sim.write_word(req.offset(REQ_DST), dst as u64);
            sim.write_word(req.offset(REQ_LEN), 0);
            ctx.atomic(|tx| queue.push(tx, req.to_repr()));
            requests.push(req);
        }
        self.shared.set(Shared { grid, queue, requests }).ok().expect("setup ran twice");
    }

    fn work(&self, ctx: &mut ThreadCtx) {
        let sh = self.shared.get().expect("setup not run");
        let mut router = Router::new(self.cfg);
        let mut path = Vec::new();

        while let Some(req) = ctx.atomic(|tx| sh.queue.pop(tx)) {
            let req = WordAddr::from_repr(req);
            let routed_len = ctx.atomic(|tx| {
                let src = tx.load(req.offset(REQ_SRC))? as u32;
                let dst = tx.load(req.offset(REQ_DST))? as u32;
                // Snapshot the whole grid inside the transaction (STAMP's
                // grid_copy): the entire grid joins the read set.
                router.load(|i, row| tx.load_words(sh.grid.offset(i), row))?;
                // Endpoints may have been covered by an earlier path since
                // the request was generated; such a request is unroutable.
                let Some(expanded) = router.route(src, dst, &mut path) else {
                    return Ok(0u64);
                };
                tx.tick(expanded * 4);
                if path.is_empty() {
                    return Ok(0u64); // unroutable in this snapshot
                }
                // Write the path.
                let id = req.to_repr(); // unique nonzero path id
                for &c in &path {
                    tx.store(sh.grid.offset(c), id)?;
                }
                tx.store(req.offset(REQ_LEN), path.len() as u64)?;
                Ok(path.len() as u64)
            });
            if routed_len > 0 {
                self.routed.fetch_add(1, Ordering::Relaxed);
            } else {
                self.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn verify(&self, sim: &Sim) {
        let cfg = self.cfg;
        let sh = self.shared.get().expect("setup not run");
        assert_eq!(
            self.routed.load(Ordering::Relaxed) + self.failed.load(Ordering::Relaxed),
            cfg.n_requests as u64,
            "requests lost"
        );
        // Count grid cells per path id and check endpoints.
        let mut marked = std::collections::HashMap::new();
        for i in 0..cfg.cells() {
            let v = sim.read_word(sh.grid.offset(i));
            if v != FREE && v != WALL {
                *marked.entry(v).or_insert(0u64) += 1;
            }
        }
        let mut total_marked = 0u64;
        for req in &sh.requests {
            let len = sim.read_word(req.offset(REQ_LEN));
            let id = req.to_repr();
            if len > 0 {
                assert_eq!(
                    marked.get(&id).copied().unwrap_or(0),
                    len,
                    "path {id} cell count mismatch"
                );
                let src = sim.read_word(req.offset(REQ_SRC)) as u32;
                let dst = sim.read_word(req.offset(REQ_DST)) as u32;
                assert_eq!(sim.read_word(sh.grid.offset(src)), id, "path {id} lost its source");
                assert_eq!(sim.read_word(sh.grid.offset(dst)), id, "path {id} lost its target");
                total_marked += len;
            } else {
                assert!(!marked.contains_key(&id), "unrouted request {id} left marks");
            }
        }
        assert_eq!(
            total_marked,
            marked.values().sum::<u64>(),
            "grid contains cells of unknown paths"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{measure, BenchParams};
    use htm_machine::Platform;

    #[test]
    fn labyrinth_routes_and_verifies_on_all_platforms() {
        for p in Platform::ALL {
            let r = measure(
                &|| Labyrinth::new(LabyrinthConfig::at(Scale::Tiny), 17),
                &p.config(),
                &BenchParams { threads: 2, scale: Scale::Tiny, ..Default::default() },
            );
            assert!(r.stats.committed_blocks() > 0, "{p}");
        }
    }

    #[test]
    fn whole_grid_snapshot_overflows_power8() {
        // 24×24×2 cells = 9 KB of snapshot reads = 72 lines of 128 B, past
        // the 64-entry TMCAM: every hardware attempt capacity-aborts and
        // routing serializes on the lock.
        let cfg = LabyrinthConfig { x: 24, y: 24, z: 2, n_requests: 6, wall_pct: 5 };
        let stats = crate::common::run_parallel(
            &|| Labyrinth::new(cfg, 17),
            &Platform::Power8.config(),
            &BenchParams { threads: 2, seed: 17, ..Default::default() },
        );
        assert!(
            stats.irrevocable_commits() > 0,
            "grid snapshots cannot fit the TMCAM; must fall back"
        );
    }

    /// Neighbours of `idx` by coordinate arithmetic, in the router's order
    /// (the pre-padding implementation, kept as the reference).
    fn neighbors(cfg: &LabyrinthConfig, idx: u32) -> impl Iterator<Item = u32> {
        let (x, y, z) = (cfg.x, cfg.y, cfg.z);
        let cx = idx % x;
        let cy = (idx / x) % y;
        let cz = idx / (x * y);
        let mut out = Vec::with_capacity(6);
        if cx > 0 {
            out.push(idx - 1);
        }
        if cx + 1 < x {
            out.push(idx + 1);
        }
        if cy > 0 {
            out.push(idx - x);
        }
        if cy + 1 < y {
            out.push(idx + x);
        }
        if cz > 0 {
            out.push(idx - x * y);
        }
        if cz + 1 < z {
            out.push(idx + x * y);
        }
        out.into_iter()
    }

    /// The reference router: Lee's BFS over the raw snapshot, with the same
    /// contract as [`Router::route`] (`None` = an endpoint is not free;
    /// an empty path = unreachable).
    fn reference_route(
        cfg: &LabyrinthConfig,
        snapshot: &[u64],
        src: u32,
        dst: u32,
    ) -> Option<(u64, Vec<u32>)> {
        if snapshot[src as usize] != FREE || snapshot[dst as usize] != FREE {
            return None;
        }
        let mut dist = vec![u32::MAX; snapshot.len()];
        dist[src as usize] = 0;
        let mut frontier = VecDeque::from([src]);
        let mut expanded = 0u64;
        while let Some(c) = frontier.pop_front() {
            if c == dst {
                break;
            }
            expanded += 1;
            for n in neighbors(cfg, c) {
                if snapshot[n as usize] == FREE && dist[n as usize] == u32::MAX {
                    dist[n as usize] = dist[c as usize] + 1;
                    frontier.push_back(n);
                }
            }
        }
        if dist[dst as usize] == u32::MAX {
            return Some((expanded, Vec::new()));
        }
        let mut path = vec![dst];
        let mut cur = dst;
        while cur != src {
            let d = dist[cur as usize];
            cur = neighbors(cfg, cur).find(|&n| dist[n as usize] == d - 1).unwrap();
            path.push(cur);
        }
        Some((expanded, path))
    }

    #[test]
    fn router_matches_the_reference_bfs() {
        let mut rng = SmallRng::seed_from_u64(0x1ab);
        // Degenerate axes (x = 1, y = 1, z = 1) first, then random shapes.
        let mut dims = vec![(1, 1, 1), (1, 6, 1), (6, 1, 1), (1, 1, 5), (1, 5, 3), (5, 1, 3)];
        for _ in 0..40 {
            dims.push((rng.gen_range(1..8), rng.gen_range(1..8), rng.gen_range(1..4)));
        }
        let (mut blocked, mut unreachable, mut routed) = (0, 0, 0);
        let mut path = Vec::new();
        for &(x, y, z) in &dims {
            let cfg = LabyrinthConfig { x, y, z, n_requests: 0, wall_pct: 0 };
            let cells = cfg.cells();
            let wall_pct = rng.gen_range(0..50);
            let mut grid: Vec<u64> = (0..cells)
                .map(|_| match rng.gen_range(0..100) {
                    p if p < wall_pct => WALL,
                    p if p < wall_pct + 5 => 1000 + p as u64, // an earlier path
                    _ => FREE,
                })
                .collect();
            // One free cell walled in on every side.
            let walled = rng.gen_range(0..cells);
            for n in neighbors(&cfg, walled) {
                grid[n as usize] = WALL;
            }
            grid[walled as usize] = FREE;
            // Every cell (so every face and corner) as source and as target.
            let mut pairs = Vec::new();
            for c in 0..cells {
                pairs.extend([(c, rng.gen_range(0..cells)), (rng.gen_range(0..cells), c)]);
                pairs.extend([(walled, c), (c, walled)]);
            }
            // One router reused across routes, as a worker reuses it.
            let mut router = Router::new(cfg);
            for (src, dst) in pairs {
                router
                    .load(|i, row| {
                        let i = i as usize;
                        row.copy_from_slice(&grid[i..i + row.len()]);
                        Ok::<(), ()>(())
                    })
                    .unwrap();
                let got = router.route(src, dst, &mut path).map(|e| (e, path.clone()));
                let want = reference_route(&cfg, &grid, src, dst);
                assert_eq!(got, want, "{x}x{y}x{z} grid, {src} -> {dst}");
                match want {
                    None => blocked += 1,
                    Some((_, p)) if p.is_empty() => unreachable += 1,
                    Some(_) => routed += 1,
                }
            }
        }
        assert!(blocked > 0 && unreachable > 0 && routed > 0, "{blocked}/{unreachable}/{routed}");
    }

    #[test]
    fn routing_is_exact_sequentially() {
        let cycles = crate::common::run_sequential(
            &|| Labyrinth::new(LabyrinthConfig::at(Scale::Tiny), 17),
            &Platform::BlueGeneQ.config(),
            17,
        );
        assert!(cycles > 0);
    }
}

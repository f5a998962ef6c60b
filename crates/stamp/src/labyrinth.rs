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

/// [`Router`] labels: a free cell not reached yet, and a cell no route may
/// enter (wall, earlier path, padding or guard layer). A reached cell holds
/// its search level mod 3, plus 1, between the two.
const OPEN: u8 = 0;
const BLOCKED: u8 = 4;

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
/// The copy is a byte label per cell (see [`OPEN`], [`BLOCKED`]), padded
/// with one blocked cell at the end of every row, one blocked row at the
/// end of every layer and one blocked guard layer before and after the
/// grid. The six neighbours of a cell are then constant index offsets, and
/// a step off the grid in any direction lands on padding, so the search
/// needs no division and no bounds test of its own. Neighbours are visited
/// in the order −x, +x, −y, +y, −z, +z.
///
/// The breadth-first search expands one level at a time, in the FIFO order
/// of a single queue: it reads the level from one frontier buffer and
/// appends the cells it discovers to the other. A reached cell is labelled
/// with its level mod 3, plus 1. That is enough for the trace-back, since
/// two adjacent reached cells differ by at most one level: of a level-`d`
/// cell's reached neighbours, only those of level `d − 1` carry its label.
/// The grid copy takes one byte per cell, a quarter of a distance grid.
struct Router {
    cfg: LabyrinthConfig,
    /// Padded row length (`x + 1`).
    row: u32,
    /// Padded layer size (`(x + 1) * (y + 1)`).
    layer: u32,
    /// `z + 2` padded layers: a guard layer, the grid, a guard layer.
    labels: Vec<u8>,
    /// The level being expanded, and the next level as it is discovered.
    frontier: Vec<u32>,
    next: Vec<u32>,
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
            labels: vec![BLOCKED; (layer * (cfg.z + 2)) as usize],
            frontier: Vec::new(),
            next: Vec::new(),
            row_buf: vec![FREE; cfg.x as usize],
        }
    }

    /// Index offsets of the six neighbours (negative steps wrap).
    fn steps(&self) -> [usize; 6] {
        let (row, layer) = (self.row as usize, self.layer as usize);
        [1usize.wrapping_neg(), 1, row.wrapping_neg(), row, layer.wrapping_neg(), layer]
    }

    /// Padded index of grid cell `i`.
    fn padded(&self, i: u32) -> usize {
        let r = i / self.cfg.x; // row counted across layers
        (self.layer + (r + r / self.cfg.y) * self.row + i % self.cfg.x) as usize
    }

    /// Grid cell at padded index `p`.
    fn cell(&self, p: usize) -> u32 {
        let p = p as u32 - self.layer;
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
        let (x, y, z) = (self.cfg.x as usize, self.cfg.y as usize, self.cfg.z as usize);
        let layer = self.layer as usize;
        let mut i = 0;
        for labels in self.labels[layer..].chunks_exact_mut(layer).take(z) {
            for row in labels.chunks_exact_mut(self.row as usize).take(y) {
                load_row(i, &mut self.row_buf)?;
                for (l, &v) in row[..x].iter_mut().zip(&self.row_buf) {
                    *l = if v == FREE { OPEN } else { BLOCKED };
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
    /// expanded (every cell it took off its queue before `dst`), and fills
    /// `path` with the route's cells from `dst` back to `src` (left empty
    /// if `dst` is unreachable).
    fn route(&mut self, src: u32, dst: u32, path: &mut Vec<u32>) -> Option<u64> {
        path.clear();
        let (src, dst) = (self.padded(src), self.padded(dst));
        if self.labels[src] != OPEN || self.labels[dst] != OPEN {
            return None;
        }
        let steps = self.steps();
        let labels = &mut self.labels[..];
        // Neither buffer is ever truncated, so each is zero-filled only as
        // it grows; `len` counts the cells of `level`.
        let (mut level, mut next) = (&mut self.frontier, &mut self.next);
        if level.is_empty() {
            level.push(0);
        }
        level[0] = src as u32;
        let mut len = 1;
        labels[src] = 1;
        let mut label = 1;
        let mut expanded = 0u64;
        let reached = loop {
            if labels[dst] != OPEN {
                // `dst` was discovered onto this level: the queue would
                // expand the level's cells before it, and stop at it.
                expanded += level[..len].iter().position(|&c| c as usize == dst).unwrap() as u64;
                break true;
            }
            if len == 0 {
                break false;
            }
            expanded += len as u64;
            label = label % 3 + 1;
            // Every step writes the label and a frontier slot; only an open
            // cell keeps them (its label was 0, and the tail moves on).
            if next.len() < 6 * len {
                next.resize(6 * len, 0);
            }
            let slots = &mut next[..6 * len];
            let mut tail = 0;
            for &c in &level[..len] {
                for step in steps {
                    let n = (c as usize).wrapping_add(step);
                    let old = labels[n];
                    let open = old == OPEN;
                    labels[n] = old | (label * open as u8);
                    slots[tail] = n as u32;
                    tail += open as usize;
                }
            }
            len = tail;
            std::mem::swap(&mut level, &mut next);
        };
        if reached {
            // Trace back, always to the first neighbour one level closer.
            let mut cur = dst;
            path.push(self.cell(cur));
            while cur != src {
                label = if label == 1 { 3 } else { label - 1 };
                cur = steps
                    .iter()
                    .map(|&step| cur.wrapping_add(step))
                    .find(|&n| self.labels[n] == label)
                    .expect("broken BFS level chain");
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
        // A fresh allocation already reads FREE (0), so only the walls are
        // written; every cell still takes its draw, which keeps the
        // endpoint picks below on the same random stream.
        for i in 0..cfg.cells() {
            if rng.gen_range(0..100) < cfg.wall_pct {
                sim.write_word(grid.offset(i), WALL);
            } else {
                debug_assert_eq!(sim.read_word(grid.offset(i)), FREE, "fresh grid word {i}");
            }
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
    use std::collections::VecDeque;

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

    /// Routes outcomes by kind: an endpoint blocked, `dst` unreachable, and
    /// the lengths of the routed paths.
    #[derive(Default)]
    struct Routes {
        blocked: u32,
        unreachable: u32,
        routed: Vec<usize>,
    }

    /// A grid with `wall_pct` percent walls and 5% earlier-path cells.
    fn random_grid(rng: &mut SmallRng, cells: u32, wall_pct: u32) -> Vec<u64> {
        (0..cells)
            .map(|_| match rng.gen_range(0..100) {
                p if p < wall_pct => WALL,
                p if p < wall_pct + 5 => 1000 + p as u64, // an earlier path
                _ => FREE,
            })
            .collect()
    }

    /// Routes every pair on `grid` with one router, reloaded before each
    /// route and reused across them as a worker reuses it, and checks each
    /// route against [`reference_route`].
    fn check_routes(cfg: LabyrinthConfig, grid: &[u64], pairs: &[(u32, u32)], out: &mut Routes) {
        let mut router = Router::new(cfg);
        let mut path = Vec::new();
        for &(src, dst) in pairs {
            router
                .load(|i, row| {
                    let i = i as usize;
                    row.copy_from_slice(&grid[i..i + row.len()]);
                    Ok::<(), ()>(())
                })
                .unwrap();
            let got = router.route(src, dst, &mut path).map(|e| (e, path.clone()));
            let want = reference_route(&cfg, grid, src, dst);
            let LabyrinthConfig { x, y, z, .. } = cfg;
            assert_eq!(got, want, "{x}x{y}x{z} grid, {src} -> {dst}");
            match want {
                None => out.blocked += 1,
                Some((_, p)) if p.is_empty() => out.unreachable += 1,
                Some((_, p)) => out.routed.push(p.len()),
            }
        }
    }

    #[test]
    fn router_matches_the_reference_bfs() {
        let mut rng = SmallRng::seed_from_u64(0x1ab);
        // Degenerate axes (x = 1, y = 1, z = 1) first, then random shapes.
        let mut dims = vec![(1, 1, 1), (1, 6, 1), (6, 1, 1), (1, 1, 5), (1, 5, 3), (5, 1, 3)];
        for _ in 0..40 {
            dims.push((rng.gen_range(1..8), rng.gen_range(1..8), rng.gen_range(1..4)));
        }
        let mut routes = Routes::default();
        for &(x, y, z) in &dims {
            let cfg = LabyrinthConfig { x, y, z, n_requests: 0, wall_pct: 0 };
            let cells = cfg.cells();
            let wall_pct = rng.gen_range(0..50);
            let mut grid = random_grid(&mut rng, cells, wall_pct);
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
            check_routes(cfg, &grid, &pairs, &mut routes);
        }
        let Routes { blocked, unreachable, routed } = routes;
        assert!(blocked > 0 && unreachable > 0 && !routed.is_empty(), "{blocked}/{unreachable}");

        // Larger grids, with routes up to hundreds of levels long.
        let mut rng = SmallRng::seed_from_u64(0x1ab2);
        // A 64x48x4 grid with 5% walls and earlier paths.
        let cfg = LabyrinthConfig { x: 64, y: 48, z: 4, n_requests: 0, wall_pct: 0 };
        let grid = random_grid(&mut rng, cfg.cells(), 5);
        let mut pairs = layer_pairs(&mut rng, &cfg, 20);
        pairs.extend(
            (0..20).map(|_| (rng.gen_range(0..cfg.cells()), rng.gen_range(0..cfg.cells()))),
        );
        let mut open = Routes::default();
        check_routes(cfg, &grid, &pairs, &mut open);
        assert!(open.blocked > 0 && open.routed.len() > 40, "{}", open.blocked);
        assert!(open.routed.iter().any(|&n| n > 100), "{:?}", open.routed);
        assert!(open.routed.contains(&1), "src == dst routes one cell");

        // A serpentine maze, the same in every layer: every other row is a
        // wall with one gap, at alternating ends. Corner to corner is over
        // 400 cells, so the level labels wrap through 1, 2, 3 many times.
        let cfg = LabyrinthConfig { x: 40, y: 21, z: 3, n_requests: 0, wall_pct: 0 };
        let grid: Vec<u64> = (0..cfg.cells())
            .map(|i| {
                let (cx, cy) = (i % cfg.x, i / cfg.x % cfg.y);
                let gap = if cy % 4 == 1 { cfg.x - 1 } else { 0 };
                if cy % 2 == 1 && cx != gap {
                    WALL
                } else {
                    FREE
                }
            })
            .collect();
        let mut maze = Routes::default();
        check_routes(cfg, &grid, &layer_pairs(&mut rng, &cfg, 20), &mut maze);
        assert!(maze.routed.iter().any(|&n| n > 400), "{:?}", maze.routed);
    }

    /// Pairs from the first layer to the last and back (corners included,
    /// so next to the guard layers), plus every cell of the first row
    /// routed to itself.
    fn layer_pairs(rng: &mut SmallRng, cfg: &LabyrinthConfig, n: u32) -> Vec<(u32, u32)> {
        let (layer, cells) = (cfg.x * cfg.y, cfg.cells());
        let mut pairs = vec![(0, cells - 1), (cells - 1, 0), (layer - 1, cells - layer)];
        for _ in 0..n {
            let (a, b) = (rng.gen_range(0..layer), rng.gen_range(cells - layer..cells));
            pairs.extend([(a, b), (b, a)]);
        }
        pairs.extend((0..cfg.x).map(|c| (c, c)));
        pairs
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

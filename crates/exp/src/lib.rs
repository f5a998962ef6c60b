//! # htm-exp — the experiment engine
//!
//! The paper's results are a grid — benchmarks × platforms × thread counts
//! × retry policies (Figures 2–11, Table 1) — and this crate runs that grid
//! as *one system* instead of twenty hand-rolled binaries:
//!
//! * [`spec`] — an [`ExperimentSpec`] declares a figure/table as a list of
//!   independent [`CellSpec`]s plus a render function that turns cell
//!   results into the legacy tables and TSV, bit for bit.
//! * [`cell`] — the cell vocabulary: STAMP measurement cells, footprint
//!   traces, the Figure-6 queue and Figure-9 TLS application cells, the
//!   policy micro-benchmark, certifier-overhead pairs, and lint cells.
//!   Every cell is self-contained (its seed is derived from the root seed
//!   at build time) and computes without touching global state, so cells
//!   run on any OS thread in any order.
//! * [`engine`] — one cell-execution path with two backends: an
//!   in-process thread pool that spreads cells over host cores (each cell
//!   builds its own `Sim`) and, with `--fabric`, worker *processes* behind
//!   `htm-fabric`'s crash-recovering coordinator (lease-based retry,
//!   per-cell timeouts, and graceful degradation to the pool).
//! * [`cache`] — a content-addressed, self-healing result cache under
//!   `target/results/cache/`: re-running a spec reuses every finished
//!   cell, so an interrupted grid resumes where it stopped, and specs that
//!   share cells (Figure 3 re-measures Figure 2's grid) share results.
//!   Torn or bit-flipped entries fail their checksum on load and are
//!   quarantined and regenerated instead of poisoning the run.
//! * [`sink`] — the unified output layer: aligned text tables, TSV files
//!   (parent directories created, I/O errors reported), and
//!   `htm-analyze`-style JSON.
//! * [`specs`] — the registry porting all twenty legacy `htm-bench`
//!   binaries (`fig2`…`fig10_11`, `table1`, the ablations, `tune`,
//!   `lint`) to thin declarations.
//!
//! Run `htm-exp list` for the catalogue and `htm-exp run fig2 --smoke`
//! for a quick start.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod args;
pub mod cache;
pub mod cell;
pub mod engine;
pub mod grid;
pub mod sink;
pub mod spec;
pub mod specs;

pub use cache::{Load, ResultCache};
pub use cell::{CellKind, CellResult, CellSpec, MachineTweak, StampCell, SvcCell, SvcMode};
pub use engine::{run_spec, EngineReport, FabricReport, SpecRun};
pub use grid::{bgq_mode_for, geomean, machine_for, tuned_policy, Cell};
pub use sink::{render_table_string, save_tsv, Sink};
pub use spec::{ExperimentSpec, ResultSet, RunOpts};

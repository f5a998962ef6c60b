//! # stamp — Rust port of the STAMP benchmarks for the HTM simulator
//!
//! All eight STAMP programs (bayes, genome, intruder, kmeans, labyrinth,
//! ssca2, vacation, yada), each in the **original** STAMP 0.9.10 shape and,
//! where the paper modified it (Section 4), in the **modified** shape:
//!
//! | benchmark | Section-4 modification |
//! |-----------|------------------------|
//! | genome    | per-platform `CHUNK_STEP_1` dedup chunking |
//! | intruder  | hash table for the flow map, red-black tree for fragments |
//! | kmeans    | cluster accumulators aligned to conflict-detection lines |
//! | vacation  | hash tables for the resource tables |
//!
//! Use [`BenchId`]/[`run_bench`] for the harness-facing registry, or the
//! per-benchmark modules directly.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod adtree;
pub mod common;
pub mod kmeans;
pub mod ssca2;
pub mod tmmap;
pub mod vacation;

pub mod bayes;
pub mod genome;
pub mod hle;
pub mod intruder;
pub mod labyrinth;
pub mod yada;

pub use common::{
    measure, run_oracle, run_oracle_with, run_parallel, run_sanitized, run_sanitized_with,
    run_sequential, trace_footprints, trace_line_sets,
};
pub use common::{BenchParams, BenchResult, Scale, Workload};

use htm_machine::MachineConfig;

/// Identifier of one benchmark configuration, matching the x-axes of
/// Figures 2–5.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BenchId {
    /// bayes (excluded from paper averages: nondeterministic).
    Bayes,
    /// genome.
    Genome,
    /// intruder.
    Intruder,
    /// kmeans, high contention.
    KmeansHigh,
    /// kmeans, low contention.
    KmeansLow,
    /// labyrinth.
    Labyrinth,
    /// ssca2.
    Ssca2,
    /// vacation, high contention.
    VacationHigh,
    /// vacation, low contention.
    VacationLow,
    /// yada.
    Yada,
}

impl BenchId {
    /// All benchmarks in the paper's figure order.
    pub const ALL: [BenchId; 10] = [
        BenchId::Bayes,
        BenchId::Genome,
        BenchId::Intruder,
        BenchId::KmeansHigh,
        BenchId::KmeansLow,
        BenchId::Labyrinth,
        BenchId::Ssca2,
        BenchId::VacationHigh,
        BenchId::VacationLow,
        BenchId::Yada,
    ];

    /// The benchmarks included in the paper's averages (bayes excluded).
    pub const AVERAGED: [BenchId; 9] = [
        BenchId::Genome,
        BenchId::Intruder,
        BenchId::KmeansHigh,
        BenchId::KmeansLow,
        BenchId::Labyrinth,
        BenchId::Ssca2,
        BenchId::VacationHigh,
        BenchId::VacationLow,
        BenchId::Yada,
    ];

    /// The benchmarks the paper modified (the x-axis of Figure 4).
    pub const MODIFIED_SET: [BenchId; 6] = [
        BenchId::Genome,
        BenchId::Intruder,
        BenchId::KmeansHigh,
        BenchId::KmeansLow,
        BenchId::VacationHigh,
        BenchId::VacationLow,
    ];

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            BenchId::Bayes => "bayes",
            BenchId::Genome => "genome",
            BenchId::Intruder => "intruder",
            BenchId::KmeansHigh => "kmeans-high",
            BenchId::KmeansLow => "kmeans-low",
            BenchId::Labyrinth => "labyrinth",
            BenchId::Ssca2 => "ssca2",
            BenchId::VacationHigh => "vacation-high",
            BenchId::VacationLow => "vacation-low",
            BenchId::Yada => "yada",
        }
    }
}

impl std::fmt::Display for BenchId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Original STAMP 0.9.10 code vs the paper's Section-4 modified code.
///
/// Benchmarks the paper did not modify behave identically under both.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Variant {
    /// STAMP 0.9.10 as released.
    Original,
    /// With the paper's TM-friendliness fixes (default).
    #[default]
    Modified,
}

/// Runs one benchmark cell (sequential baseline + parallel run) and returns
/// its measurement.
pub fn run_bench(
    id: BenchId,
    variant: Variant,
    machine: &MachineConfig,
    params: &BenchParams,
) -> BenchResult {
    let seed = params.seed;
    let scale = params.scale;
    let gran = machine.granularity;
    let platform = machine.platform;
    match id {
        BenchId::KmeansHigh | BenchId::KmeansLow => {
            let kv = match variant {
                Variant::Original => kmeans::KmeansVariant::Original,
                Variant::Modified => kmeans::KmeansVariant::Modified,
            };
            let cfg = if id == BenchId::KmeansHigh {
                kmeans::KmeansConfig::high(scale, kv, gran)
            } else {
                kmeans::KmeansConfig::low(scale, kv, gran)
            };
            measure(&|| kmeans::Kmeans::new(cfg, seed), machine, params)
        }
        BenchId::Ssca2 => {
            let cfg = ssca2::Ssca2Config::at(scale);
            measure(&|| ssca2::Ssca2::new(cfg, seed), machine, params)
        }
        BenchId::VacationHigh | BenchId::VacationLow => {
            let vv = match variant {
                Variant::Original => vacation::VacationVariant::Original,
                Variant::Modified => vacation::VacationVariant::Modified,
            };
            let cfg = if id == BenchId::VacationHigh {
                vacation::VacationConfig::high(scale, vv)
            } else {
                vacation::VacationConfig::low(scale, vv)
            };
            measure(&|| vacation::Vacation::new(cfg, seed), machine, params)
        }
        BenchId::Genome => {
            let cfg = genome::GenomeConfig::at(
                scale,
                match variant {
                    Variant::Original => genome::GenomeVariant::Original,
                    Variant::Modified => genome::GenomeVariant::Modified { platform },
                },
            );
            measure(&|| genome::Genome::new(cfg, seed), machine, params)
        }
        BenchId::Intruder => {
            let iv = match variant {
                Variant::Original => intruder::IntruderVariant::Original,
                Variant::Modified => intruder::IntruderVariant::Modified,
            };
            let cfg = intruder::IntruderConfig::at(scale, iv);
            measure(&|| intruder::Intruder::new(cfg, seed), machine, params)
        }
        BenchId::Labyrinth => {
            let cfg = labyrinth::LabyrinthConfig::at(scale);
            measure(&|| labyrinth::Labyrinth::new(cfg, seed), machine, params)
        }
        BenchId::Yada => {
            let cfg = yada::YadaConfig::at(scale);
            measure(&|| yada::Yada::new(cfg, seed), machine, params)
        }
        BenchId::Bayes => {
            let cfg = bayes::BayesConfig::at(scale);
            measure(&|| bayes::Bayes::new(cfg, seed), machine, params)
        }
    }
}

/// Runs one benchmark cell through the differential oracle
/// ([`run_oracle_with`]): sequential reference + certified parallel run
/// under the cell's fallback policy, with result-digest cross-checking
/// where the workload supports it.
///
/// # Panics
///
/// Panics on workload corruption, certifier violations, or a
/// sequential/parallel digest mismatch.
pub fn run_bench_oracle(
    id: BenchId,
    variant: Variant,
    machine: &MachineConfig,
    params: &BenchParams,
) -> htm_runtime::RunStats {
    let make = workload_factory(id, variant, machine, params.scale, params.seed);
    run_oracle_with(
        &make,
        machine,
        params.threads,
        params.policy,
        params.seed,
        params.faults,
        params.fallback,
    )
}

/// Runs one benchmark sequentially under the footprint tracer, returning
/// per-transaction sizes at the given granularities (Figures 10–11).
pub fn trace_bench(
    id: BenchId,
    variant: Variant,
    machine: &MachineConfig,
    scale: Scale,
    granularities: &[u32],
    seed: u64,
) -> htm_runtime::SeqTracer {
    let gran = machine.granularity;
    let platform = machine.platform;
    match id {
        BenchId::KmeansHigh | BenchId::KmeansLow => {
            let kv = match variant {
                Variant::Original => kmeans::KmeansVariant::Original,
                Variant::Modified => kmeans::KmeansVariant::Modified,
            };
            let cfg = if id == BenchId::KmeansHigh {
                kmeans::KmeansConfig::high(scale, kv, gran)
            } else {
                kmeans::KmeansConfig::low(scale, kv, gran)
            };
            trace_footprints(&|| kmeans::Kmeans::new(cfg, seed), machine, granularities, seed)
        }
        BenchId::Ssca2 => trace_footprints(
            &|| ssca2::Ssca2::new(ssca2::Ssca2Config::at(scale), seed),
            machine,
            granularities,
            seed,
        ),
        BenchId::VacationHigh | BenchId::VacationLow => {
            let vv = match variant {
                Variant::Original => vacation::VacationVariant::Original,
                Variant::Modified => vacation::VacationVariant::Modified,
            };
            let cfg = if id == BenchId::VacationHigh {
                vacation::VacationConfig::high(scale, vv)
            } else {
                vacation::VacationConfig::low(scale, vv)
            };
            trace_footprints(&|| vacation::Vacation::new(cfg, seed), machine, granularities, seed)
        }
        BenchId::Genome => {
            let cfg = genome::GenomeConfig::at(
                scale,
                match variant {
                    Variant::Original => genome::GenomeVariant::Original,
                    Variant::Modified => genome::GenomeVariant::Modified { platform },
                },
            );
            trace_footprints(&|| genome::Genome::new(cfg, seed), machine, granularities, seed)
        }
        BenchId::Intruder => {
            let iv = match variant {
                Variant::Original => intruder::IntruderVariant::Original,
                Variant::Modified => intruder::IntruderVariant::Modified,
            };
            let cfg = intruder::IntruderConfig::at(scale, iv);
            trace_footprints(&|| intruder::Intruder::new(cfg, seed), machine, granularities, seed)
        }
        BenchId::Labyrinth => trace_footprints(
            &|| labyrinth::Labyrinth::new(labyrinth::LabyrinthConfig::at(scale), seed),
            machine,
            granularities,
            seed,
        ),
        BenchId::Yada => trace_footprints(
            &|| yada::Yada::new(yada::YadaConfig::at(scale), seed),
            machine,
            granularities,
            seed,
        ),
        BenchId::Bayes => trace_footprints(
            &|| bayes::Bayes::new(bayes::BayesConfig::at(scale), seed),
            machine,
            granularities,
            seed,
        ),
    }
}

/// The workload constructor selected by `(id, variant)`, type-erased.
///
/// Analysis drivers (`htm-lint`) run every benchmark through
/// [`run_sanitized`] and [`trace_line_sets`] with a single code path;
/// `Box<dyn Workload>` itself implements [`Workload`], so the returned
/// closure plugs straight into any `&dyn Fn() -> W` runner.
pub fn workload_factory(
    id: BenchId,
    variant: Variant,
    machine: &MachineConfig,
    scale: Scale,
    seed: u64,
) -> Box<dyn Fn() -> Box<dyn Workload>> {
    let gran = machine.granularity;
    let platform = machine.platform;
    match id {
        BenchId::KmeansHigh | BenchId::KmeansLow => {
            let kv = match variant {
                Variant::Original => kmeans::KmeansVariant::Original,
                Variant::Modified => kmeans::KmeansVariant::Modified,
            };
            let cfg = if id == BenchId::KmeansHigh {
                kmeans::KmeansConfig::high(scale, kv, gran)
            } else {
                kmeans::KmeansConfig::low(scale, kv, gran)
            };
            Box::new(move || Box::new(kmeans::Kmeans::new(cfg, seed)))
        }
        BenchId::Ssca2 => {
            let cfg = ssca2::Ssca2Config::at(scale);
            Box::new(move || Box::new(ssca2::Ssca2::new(cfg, seed)))
        }
        BenchId::VacationHigh | BenchId::VacationLow => {
            let vv = match variant {
                Variant::Original => vacation::VacationVariant::Original,
                Variant::Modified => vacation::VacationVariant::Modified,
            };
            let cfg = if id == BenchId::VacationHigh {
                vacation::VacationConfig::high(scale, vv)
            } else {
                vacation::VacationConfig::low(scale, vv)
            };
            Box::new(move || Box::new(vacation::Vacation::new(cfg, seed)))
        }
        BenchId::Genome => {
            let cfg = genome::GenomeConfig::at(
                scale,
                match variant {
                    Variant::Original => genome::GenomeVariant::Original,
                    Variant::Modified => genome::GenomeVariant::Modified { platform },
                },
            );
            Box::new(move || Box::new(genome::Genome::new(cfg, seed)))
        }
        BenchId::Intruder => {
            let iv = match variant {
                Variant::Original => intruder::IntruderVariant::Original,
                Variant::Modified => intruder::IntruderVariant::Modified,
            };
            let cfg = intruder::IntruderConfig::at(scale, iv);
            Box::new(move || Box::new(intruder::Intruder::new(cfg, seed)))
        }
        BenchId::Labyrinth => {
            let cfg = labyrinth::LabyrinthConfig::at(scale);
            Box::new(move || Box::new(labyrinth::Labyrinth::new(cfg, seed)))
        }
        BenchId::Yada => {
            let cfg = yada::YadaConfig::at(scale);
            Box::new(move || Box::new(yada::Yada::new(cfg, seed)))
        }
        BenchId::Bayes => {
            let cfg = bayes::BayesConfig::at(scale);
            Box::new(move || Box::new(bayes::Bayes::new(cfg, seed)))
        }
    }
}

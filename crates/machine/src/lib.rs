//! # htm-machine — the four platform models
//!
//! Encodes Table 1 of *Nakaike et al., ISCA 2015* as executable models: for
//! each of Blue Gene/Q, zEC12, Intel Core i7-4770 and POWER8 a declarative
//! [`MachineConfig`] (geometry, capacities, cycle costs, feature flags) plus
//! the stateful hardware structures the transaction engine consults at run
//! time:
//!
//! * [`tracker::Tracker`] — capacity tracking (L1 + extension, TMCAM, or
//!   byte budget),
//! * [`specid::SpecIdPool`] — Blue Gene/Q's 128 speculation IDs with batched
//!   lazy reclaim,
//! * [`prefetch::Prefetcher`] — Intel's stride prefetcher that pollutes the
//!   transactional read set,
//! * [`smt::CoreRegistry`] — SMT capacity sharing.
//!
//! ```
//! use htm_machine::{Machine, Platform};
//!
//! let m = Machine::new(Platform::Power8.config());
//! assert_eq!(m.config().load_capacity_bytes(), 8 * 1024); // the 8 KB TMCAM
//! let mut tracker = m.new_tracker();
//! tracker.begin(1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod config;
pub mod prefetch;
pub mod smt;
pub mod specid;
pub mod tracker;

pub use config::{BgqMode, ConstrainedLimits, MachineConfig, Platform, SpecIdConfig};
pub use prefetch::Prefetcher;
pub use smt::CoreRegistry;
pub use specid::SpecIdPool;
pub use tracker::{Tracker, TrackerKind};

/// A platform model instance: the configuration plus the shared hardware
/// state (core registry, speculation-ID pool) for one experiment run.
///
/// Shared across worker threads behind an `Arc`.
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    cores: CoreRegistry,
    spec_ids: Option<SpecIdPool>,
}

impl Machine {
    /// Instantiates the shared hardware state for `config`.
    pub fn new(config: MachineConfig) -> Machine {
        let cores = CoreRegistry::new(config.cores);
        let spec_ids = config.spec_ids.map(SpecIdPool::new);
        Machine { config, cores, spec_ids }
    }

    /// The platform configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The SMT core-occupancy registry.
    pub fn cores(&self) -> &CoreRegistry {
        &self.cores
    }

    /// The speculation-ID pool, if this platform has one (Blue Gene/Q).
    pub fn spec_ids(&self) -> Option<&SpecIdPool> {
        self.spec_ids.as_ref()
    }

    /// Creates a per-thread capacity tracker for this platform.
    pub fn new_tracker(&self) -> Tracker {
        Tracker::new(self.config.tracker)
    }

    /// Creates a per-thread prefetcher model for this platform.
    pub fn new_prefetcher(&self) -> Prefetcher {
        Prefetcher::new(self.config.prefetcher)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_wires_platform_features() {
        let bgq = Machine::new(Platform::BlueGeneQ.config());
        assert!(bgq.spec_ids().is_some());
        assert!(!bgq.new_prefetcher().is_enabled());

        let intel = Machine::new(Platform::IntelCore.config());
        assert!(intel.spec_ids().is_none());
        assert!(intel.new_prefetcher().is_enabled());
        assert_eq!(intel.cores().cores(), 4);
    }

    #[test]
    fn all_platforms_instantiate() {
        for p in Platform::ALL {
            let m = Machine::new(p.config());
            let mut t = m.new_tracker();
            t.begin(1);
            assert!(t.on_first_load(htm_core::LineId(0), false).is_ok(), "{p}");
        }
    }
}

//! # htm-compare — reproduction of the ISCA 2015 four-way HTM comparison
//!
//! Umbrella crate re-exporting the whole workspace: the simulation substrate
//! ([`core`]), the four platform models ([`machine`]), the transaction
//! engine and retry mechanism ([`runtime`]), the hybrid-TM fallback tiers
//! ([`hytm`]), transactional data structures ([`structs`]), the STAMP
//! benchmark port ([`stamp`]) and the processor-specific feature
//! applications ([`apps`]).
//!
//! See the repository `README.md` for a quickstart and `DESIGN.md` for the
//! full system inventory and experiment index.
//!
//! ```
//! use htm_compare::machine::Platform;
//!
//! // The four systems compared by the paper.
//! for p in Platform::ALL {
//!     println!("{p}");
//! }
//! ```

#![deny(unsafe_code)]

pub use htm_apps as apps;
pub use htm_core as core;
pub use htm_hytm as hytm;
pub use htm_machine as machine;
pub use htm_runtime as runtime;
pub use stamp;
pub use tm_structs as structs;

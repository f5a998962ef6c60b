//! Run a miniature STAMP benchmark (vacation-high) on all four platforms,
//! in both the original and the paper's modified variant.
//!
//! ```sh
//! cargo run --release --example stamp_mini
//! ```

use htm_compare::machine::Platform;
use htm_compare::stamp::{run_bench, BenchId, BenchParams, Scale, Variant};

fn main() {
    println!("vacation-high at Tiny scale, 4 threads:\n");
    println!("{:<20} {:>10} {:>10}", "platform", "original", "modified");
    for platform in Platform::ALL {
        let machine = platform.config();
        let params = BenchParams { threads: 4, scale: Scale::Tiny, ..Default::default() };
        let orig = run_bench(BenchId::VacationHigh, Variant::Original, &machine, &params);
        let modi = run_bench(BenchId::VacationHigh, Variant::Modified, &machine, &params);
        println!("{:<20} {:>9.2}x {:>9.2}x", platform.to_string(), orig.speedup(), modi.speedup());
    }
    println!("\nEvery run is verified: table rows satisfy avail + reserved == total.");
}

//! POWER8 thread-level speculation with suspend/resume (Section 6.3): an
//! ordered loop parallelized with transactions, with and without escaping
//! the transaction to spin on the commit-order variable.
//!
//! ```sh
//! cargo run --release --example tls_speculation
//! ```

use htm_compare::apps::{TlsKernel, TlsLoop};
use htm_compare::machine::Platform;
use htm_compare::runtime::Sim;

fn main() {
    for kernel in [TlsKernel::Milc, TlsKernel::Sphinx] {
        println!("TLS kernel {kernel} on POWER8 (512 iterations):");
        let sim = Sim::of(Platform::Power8.config());
        let l = TlsLoop::create(&sim, kernel, 512);
        let (seq, seq_sum) = l.run_sequential(&sim);
        for use_suspend in [false, true] {
            print!(
                "  {:<25}",
                if use_suspend { "with suspend/resume:" } else { "without suspend/resume:" }
            );
            for t in [2u32, 4, 6] {
                let sim2 = Sim::of(Platform::Power8.config());
                let l2 = TlsLoop::create(&sim2, kernel, 512);
                let (cycles, sum, aborts) = l2.run_tls(&sim2, t, use_suspend);
                assert_eq!(sum, seq_sum, "speculation must preserve semantics");
                print!("  {t}T {:.2}x ({:.0}% aborts)", seq as f64 / cycles as f64, aborts * 100.0);
            }
            println!();
        }
        println!();
    }
    println!("Suspending to wait for commit order avoids the data conflicts on");
    println!("the ordering variable — the paper measured 69% -> 0.1% aborts.");
}

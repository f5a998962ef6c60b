//! zEC12 constrained transactions on a concurrent queue (the paper's
//! Section 6.1 experiment in miniature): lock-free vs no-retry TM vs
//! tuned-retry TM vs constrained TM.
//!
//! ```sh
//! cargo run --release --example constrained_queue
//! ```

use htm_compare::apps::{run_queue_bench, QueueImpl};
use htm_compare::machine::Platform;
use htm_compare::runtime::Sim;

fn main() {
    println!("Alternating enqueue/dequeue on zEC12, relative to lock-free:\n");
    for threads in [1u32, 2, 4, 8] {
        let sim = Sim::of(Platform::Zec12.config());
        let base = run_queue_bench(&sim, QueueImpl::LockFree, threads, 1000);
        print!("{threads:>2} threads: ");
        for imp in
            [QueueImpl::NoRetryTm, QueueImpl::OptRetryTm { retries: 6 }, QueueImpl::ConstrainedTm]
        {
            let sim = Sim::of(Platform::Zec12.config());
            let r = run_queue_bench(&sim, imp, threads, 1000);
            print!("{imp} {:.2}x  ", r.cycles as f64 / base.cycles as f64);
        }
        println!();
    }
    println!("\n(values < 1 are faster than the lock-free baseline — constrained");
    println!("transactions need no abort handler, no fallback lock and no tuning.)");
}

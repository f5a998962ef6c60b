//! Thread-level speculation with suspend/resume — the POWER8 experiment
//! (Section 6.3, Figures 8 and 9).
//!
//! Ordered TLS executes loop iterations speculatively on several threads
//! but commits them in the original sequential order through a shared
//! `NextIterToCommit` variable. The paper's Figure-8 transformation comes
//! in two flavours:
//!
//! * **Without suspend/resume** (dark-grey code): the transaction checks
//!   `NextIterToCommit` transactionally; if the previous iteration has not
//!   finished, it must `tabort` and re-execute the whole body — and the
//!   predecessor's update of the variable aborts every waiting successor.
//! * **With suspend/resume** (light-grey code): the transaction suspends,
//!   spin-waits on the variable *non-transactionally* (no data conflict),
//!   resumes, and commits — reducing the abort ratio from 69 % to 0.1 % on
//!   482.sphinx3.
//!
//! The loop kernels stand in for the two SPEC CPU2006 benchmarks (see
//! `DESIGN.md`): `milc` iterations update neighbouring rows of a shared
//! lattice (residual false conflicts keep its improvement small), while
//! `sphinx` iterations write thread-private frames (conflict-free except
//! for the ordering variable).

use htm_core::{TxResult, WordAddr};
use htm_runtime::{RetryPolicy, Sim, ThreadCtx, Tx};

/// Which SPEC-like kernel the TLS loop executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TlsKernel {
    /// 433.milc stand-in: lattice updates touching neighbouring rows.
    Milc,
    /// 482.sphinx3 stand-in: per-iteration private frame scoring.
    Sphinx,
}

impl std::fmt::Display for TlsKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TlsKernel::Milc => write!(f, "433.milc"),
            TlsKernel::Sphinx => write!(f, "482.sphinx3"),
        }
    }
}

/// The TLS loop instance.
#[derive(Clone, Copy, Debug)]
pub struct TlsLoop {
    kernel: TlsKernel,
    /// Loop trip count.
    pub iterations: u32,
    /// `NextIterToCommit` (one isolated line).
    next_iter: WordAddr,
    /// Kernel data array.
    data: WordAddr,
    data_len: u32,
    /// Per-iteration compute cycles.
    work_cycles: u64,
}

impl TlsLoop {
    /// Words of data per loop iteration.
    const ROW_WORDS: u32 = 16;

    /// Builds the loop state for `kernel`.
    pub fn create(sim: &Sim, kernel: TlsKernel, iterations: u32) -> TlsLoop {
        let next_iter = sim.alloc().alloc_aligned(32, 256);
        let data_len = (iterations + 2) * Self::ROW_WORDS;
        let data = sim.alloc().alloc_aligned(data_len, 256);
        for i in 0..data_len {
            sim.write_word(data.offset(i), (i as u64).wrapping_mul(0x2545F4914F6CDD1D) >> 16);
        }
        let work_cycles = match kernel {
            TlsKernel::Milc => 600,
            TlsKernel::Sphinx => 900,
        };
        TlsLoop { kernel, iterations, next_iter, data, data_len, work_cycles }
    }

    fn row(&self, i: u32) -> WordAddr {
        self.data.offset((i % (self.data_len / Self::ROW_WORDS)) * Self::ROW_WORDS)
    }

    /// One loop-body execution inside a transaction (or directly, when
    /// sequential). Returns a checksum used for verification.
    fn body(&self, tx: &mut Tx<'_>, i: u32) -> TxResult<u64> {
        tx.tick(self.work_cycles);
        let mut acc = 0u64;
        match self.kernel {
            TlsKernel::Milc => {
                // Read own row and the next row (lattice neighbour), write
                // own row: successive iterations share a row — the residual
                // conflicts the paper saw (aborts 83 % → 10 %, not 0).
                let own = self.row(i);
                let next = self.row(i + 1);
                for w in 0..Self::ROW_WORDS {
                    let a = tx.load(own.offset(w))?;
                    let b = tx.load(next.offset(w))?;
                    let v = a.wrapping_mul(31).wrapping_add(b ^ (i as u64));
                    tx.store(own.offset(w), v)?;
                    acc = acc.wrapping_add(v);
                }
            }
            TlsKernel::Sphinx => {
                // Pure per-iteration frame: no cross-iteration data.
                let own = self.row(i);
                for w in 0..Self::ROW_WORDS {
                    let a = tx.load(own.offset(w))?;
                    let v = a.rotate_left(7) ^ (i as u64).wrapping_mul(0x9E3779B9);
                    tx.store(own.offset(w), v)?;
                    acc = acc.wrapping_add(v);
                }
            }
        }
        Ok(acc)
    }

    /// Runs the loop sequentially; returns (cycles, checksum).
    pub fn run_sequential(&self, sim: &Sim) -> (u64, u64) {
        let mut checksum = 0u64;
        let cycles = sim.run_sequential(|ctx| {
            for i in 0..self.iterations {
                checksum ^= ctx.atomic(|tx| self.body(tx, i));
            }
        });
        (cycles, checksum)
    }

    /// Runs the loop under ordered TLS on `threads` workers; returns
    /// (cycles, checksum, abort_ratio).
    ///
    /// `use_suspend` selects the light-grey (suspend/resume) variant of
    /// Figure 8; it requires a platform with suspend/resume.
    pub fn run_tls(&self, sim: &Sim, threads: u32, use_suspend: bool) -> (u64, u64, f64) {
        use std::sync::atomic::{AtomicU64, Ordering};
        let checksum = AtomicU64::new(0);
        let stats = sim.run_parallel(threads, RetryPolicy::default(), |ctx| {
            let mut local = 0u64;
            let mut i = ctx.thread_id();
            while i < self.iterations {
                local ^= self.run_iteration(ctx, i, use_suspend);
                i += ctx.num_threads();
            }
            checksum.fetch_xor(local, Ordering::Relaxed);
        });
        (stats.cycles(), checksum.load(Ordering::Relaxed), stats.abort_ratio())
    }

    /// Executes iteration `i` with ordered commit (the Figure-8(b) loop
    /// body).
    fn run_iteration(&self, ctx: &mut ThreadCtx, i: u32, use_suspend: bool) -> u64 {
        let i64v = i as u64;
        loop {
            // Fast path: it is already our turn — run non-speculatively
            // (Figure 8(b): no tbegin when `NextIterToCommit == i`).
            if ctx.read_word(self.next_iter) == i64v {
                let acc = ctx.atomic(|tx| self.body(tx, i));
                ctx.write_word(self.next_iter, i64v + 1);
                return acc;
            }
            let attempt = ctx.try_hardware(|tx| {
                let acc = self.body(tx, i)?;
                if use_suspend {
                    // Light grey: wait for our turn outside the
                    // transaction — reading the ordering variable
                    // non-transactionally causes no data conflict.
                    tx.suspend()?;
                    let mut wait = htm_core::coop::Wait::new(64);
                    loop {
                        let turn = tx.load(self.next_iter)?; // suspended: non-transactional
                        if turn == i64v {
                            break;
                        }
                        tx.tick(5);
                        wait.round();
                    }
                    tx.resume()?;
                    Ok(acc)
                } else {
                    // Dark grey: transactional check; abort if it is not
                    // our turn yet (and the predecessor's store will abort
                    // us anyway).
                    let turn = tx.load(self.next_iter)?;
                    if turn != i64v {
                        return tx.abort_tx(1);
                    }
                    Ok(acc)
                }
            });
            match attempt {
                Ok(acc) => {
                    // Commit order achieved: publish our successor's turn.
                    ctx.write_word(self.next_iter, i64v + 1);
                    return acc;
                }
                Err(_) => {
                    // Re-execute the iteration (Figure 8(b)'s `goto retry`).
                    ctx.tick(20);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm_machine::Platform;

    #[test]
    fn tls_matches_sequential_checksum_sphinx() {
        for use_suspend in [false, true] {
            let sim = Sim::of(Platform::Power8.config());
            let l = TlsLoop::create(&sim, TlsKernel::Sphinx, 64);
            let (_, seq_sum) = l.run_sequential(&sim);
            let sim2 = Sim::of(Platform::Power8.config());
            let l2 = TlsLoop::create(&sim2, TlsKernel::Sphinx, 64);
            let (_, tls_sum, _) = l2.run_tls(&sim2, 4, use_suspend);
            assert_eq!(seq_sum, tls_sum, "suspend={use_suspend}: wrong result");
        }
    }

    #[test]
    fn tls_matches_sequential_checksum_milc() {
        let sim = Sim::of(Platform::Power8.config());
        let l = TlsLoop::create(&sim, TlsKernel::Milc, 48);
        let (_, seq_sum) = l.run_sequential(&sim);
        let sim2 = Sim::of(Platform::Power8.config());
        let l2 = TlsLoop::create(&sim2, TlsKernel::Milc, 48);
        let (_, tls_sum, _) = l2.run_tls(&sim2, 3, true);
        assert_eq!(seq_sum, tls_sum, "milc TLS must preserve sequential semantics");
    }

    #[test]
    fn suspend_resume_slashes_abort_ratio_on_sphinx() {
        // The paper's headline Section-6.3 number: 69 % → 0.1 %.
        let run = |use_suspend| {
            let sim = Sim::of(Platform::Power8.config());
            let l = TlsLoop::create(&sim, TlsKernel::Sphinx, 128);
            let (_, _, aborts) = l.run_tls(&sim, 4, use_suspend);
            aborts
        };
        let without = run(false);
        let with = run(true);
        assert!(with < without, "suspend/resume must reduce aborts: {with:.3} vs {without:.3}");
    }
}

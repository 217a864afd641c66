//! Deterministic parallel execution for the PCMap simulator.
//!
//! A thin ordered map over [`std::thread::scope`]; its only workspace
//! dependency is the inert-when-disabled `pcmap-prof` observer. The
//! simulator parallelizes only *across* independent runs (sweep points,
//! `--all`, serve-fleet shards), so each map call is long enough that
//! spawning its workers per call costs nothing measurable. Two properties
//! matter more than raw throughput here:
//!
//! 1. **A fixed worker count** chosen up front ([`Pool::new`]), so a
//!    sweep's schedule is reproducible given the same `--jobs` value.
//! 2. **Deterministic result ordering**: [`Pool::ordered_map`] returns
//!    results in *input* order no matter which worker finished first, so
//!    sweep output (and anything hashed/serialized downstream) is
//!    byte-identical across job counts.
//!
//! A pool built with `jobs = 1` spawns no threads at all: every closure
//! runs inline on the caller's thread, in input order.
//!
//! # Example
//!
//! ```
//! let mut pool = pcmap_par::Pool::new(4);
//! let squares = pool.ordered_map((0u64..8).collect(), |x| x * x);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![warn(missing_docs)]

use std::sync::Mutex;

/// A fixed worker count for ordered parallel maps.
///
/// Each [`Pool::ordered_map`] call spawns up to `jobs` scoped workers that
/// pull items from a shared queue and are joined before the call returns,
/// so the mapped closure may borrow from the caller's stack.
pub struct Pool {
    jobs: usize,
}

impl Pool {
    /// Creates a pool that runs up to `jobs` closures concurrently.
    ///
    /// `jobs = 1` (or 0, which is clamped to 1) creates a threadless pool:
    /// every closure runs inline on the calling thread, in input order.
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// The configured concurrency (the `--jobs` value, clamped to ≥ 1).
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Applies `f` to every item, running up to `jobs` applications
    /// concurrently, and returns the results **in input order**.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of any application of `f`, after every worker
    /// has been joined.
    pub fn ordered_map<T, R, F>(&mut self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        pcmap_prof::add(pcmap_prof::Counter::PoolJobs, items.len() as u64);
        if self.jobs == 1 {
            return items.into_iter().map(f).collect();
        }
        let n = items.len();
        let queue = Mutex::new(items.into_iter().enumerate());
        let f = &f;
        // `f` runs outside the lock, so a panicking item cannot poison it.
        let next = || queue.lock().expect("queue lock is never poisoned").next();
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..self.jobs.min(n))
                .map(|_| {
                    s.spawn(|| {
                        let mut done = Vec::new();
                        while let Some((i, item)) = next() {
                            done.push((i, f(item)));
                        }
                        done
                    })
                })
                .collect();
            // The join is the sweep barrier: the span measures how long
            // the calling thread waits for its slowest worker.
            let _span = pcmap_prof::span(pcmap_prof::SpanId::ParBarrier);
            for w in workers {
                let done = w.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
                for (i, r) in done {
                    slots[i] = Some(r);
                }
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every item was mapped"))
            .collect()
    }
}

/// Reads the job count from the `PCMAP_JOBS` environment variable, if set
/// to a positive integer. CLI `--jobs` flags take precedence over this.
#[must_use]
pub fn env_jobs() -> Option<usize> {
    // pcmap-lint: allow(nondet-taint, reason = "PCMAP_JOBS only sizes the worker pool; the DESIGN.md §9 contract (enforced by par_equiv) makes results byte-identical at any job count")
    std::env::var("PCMAP_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_pool_runs_inline_in_order() {
        let mut pool = Pool::new(1);
        let log = Mutex::new(Vec::new());
        pool.ordered_map((0..8).collect(), |i: u64| log.lock().unwrap().push(i));
        assert_eq!(log.into_inner().unwrap(), vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn pool_is_reusable_across_maps() {
        let mut pool = Pool::new(2);
        for round in 0..50u64 {
            let out = pool.ordered_map((0..4).collect(), |k: u64| round + k);
            assert_eq!(out.iter().sum::<u64>(), 4 * round + 6);
        }
    }

    #[test]
    fn ordered_map_preserves_input_order() {
        for jobs in [1, 2, 4, 7] {
            let mut pool = Pool::new(jobs);
            let input: Vec<u64> = (0..40).collect();
            let out = pool.ordered_map(input.clone(), |x| {
                // Make late items finish first to stress ordering.
                if x % 2 == 0 {
                    std::thread::yield_now();
                }
                x * 3
            });
            let expect: Vec<u64> = input.iter().map(|x| x * 3).collect();
            assert_eq!(out, expect, "jobs = {jobs}");
        }
    }

    #[test]
    fn more_jobs_than_items_maps_every_item_once() {
        let mut pool = Pool::new(8);
        assert_eq!(pool.ordered_map(vec![5u64, 6, 7], |x| x + 1), vec![6, 7, 8]);
        assert!(pool.ordered_map(Vec::<u64>::new(), |x| x).is_empty());
    }

    #[test]
    fn ordered_map_borrows_from_the_caller() {
        let mut pool = Pool::new(3);
        let table: Vec<u64> = (0..12).map(|i| i * i).collect();
        let out = pool.ordered_map((0..12).collect(), |i: usize| table[i] + 1);
        let expect: Vec<u64> = table.iter().map(|v| v + 1).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn panics_propagate_to_the_calling_thread() {
        for jobs in [1, 2] {
            let result = std::panic::catch_unwind(|| {
                Pool::new(jobs).ordered_map(vec![1u64, 2, 3], |x| {
                    assert_ne!(x, 2, "boom");
                    x
                })
            });
            assert!(result.is_err(), "jobs = {jobs}: map must re-raise panics");
        }
    }

    #[test]
    fn env_jobs_rejects_garbage() {
        // Not set in the test environment (and never set by this suite —
        // setenv is not thread-safe under the parallel test harness).
        assert!(env_jobs().is_none() || env_jobs().unwrap() >= 1);
    }
}

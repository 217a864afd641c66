//! Hot-path event counters (global, enum-indexed atomics).

use std::sync::atomic::{AtomicU64, Ordering};

/// Every hot-path counter the profiler tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Chip-availability checks evaluated by the schedulers (one per
    /// candidate considered in a pick/try-issue scan).
    ConstraintChecks,
    /// Scheduler queue scans started (pick/try-issue invocations).
    QueueScans,
    /// Memory commands issued (coarse/fine reads and writes).
    CommandsIssued,
    /// Chip-reservation windows created in `pcmap-device`.
    Reservations,
    /// Fault-plan hook evaluations (per-event Bernoulli draws).
    FaultDraws,
    /// Items mapped through the worker pool (`Pool::ordered_map`).
    PoolJobs,
    /// Run-loop epochs executed (`System::run` iterations).
    Epochs,
    /// Chrome trace events dropped after the in-memory cap was hit.
    TraceDropped,
}

impl Counter {
    /// All counters, in report order.
    pub const ALL: [Counter; 8] = [
        Counter::ConstraintChecks,
        Counter::QueueScans,
        Counter::CommandsIssued,
        Counter::Reservations,
        Counter::FaultDraws,
        Counter::PoolJobs,
        Counter::Epochs,
        Counter::TraceDropped,
    ];

    /// Stable snake_case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::ConstraintChecks => "constraint_checks",
            Counter::QueueScans => "queue_scans",
            Counter::CommandsIssued => "commands_issued",
            Counter::Reservations => "reservations",
            Counter::FaultDraws => "fault_draws",
            Counter::PoolJobs => "pool_jobs",
            Counter::Epochs => "epochs",
            Counter::TraceDropped => "trace_events_dropped",
        }
    }

    #[inline]
    fn idx(self) -> usize {
        self as usize
    }
}

const N: usize = Counter::ALL.len();
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static COUNTS: [AtomicU64; N] = [ZERO; N];

/// Adds `n` to `c` (no-op while profiling is disabled).
#[inline]
pub fn add(c: Counter, n: u64) {
    if crate::enabled() {
        COUNTS[c.idx()].fetch_add(n, Ordering::Relaxed);
    }
}

/// Increments `c` by one (no-op while profiling is disabled).
#[inline]
pub fn bump(c: Counter) {
    add(c, 1);
}

/// Current value of `c`.
#[must_use]
pub fn get(c: Counter) -> u64 {
    COUNTS[c.idx()].load(Ordering::Relaxed)
}

pub(crate) fn reset_counters() {
    for c in &COUNTS {
        c.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_respects_enable_gate() {
        let _g = crate::test_lock();
        crate::disable();
        let before = get(Counter::QueueScans);
        bump(Counter::QueueScans);
        assert_eq!(get(Counter::QueueScans), before);
        crate::enable();
        bump(Counter::QueueScans);
        add(Counter::QueueScans, 4);
        assert_eq!(get(Counter::QueueScans), before + 5);
        crate::disable();
    }
}

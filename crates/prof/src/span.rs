//! Scoped host-monotonic spans over the simulator's hot phases.
//!
//! A span is an RAII guard: [`span`] stamps `Instant::now()` on entry
//! (only when profiling is enabled), and `Drop` folds the elapsed
//! nanoseconds into a fixed, enum-indexed atomic table. Spans nest
//! freely — each level accumulates its own wall total, so a parent's
//! total *includes* its children (the report documents totals as
//! inclusive time). Each level also accumulates its *self* time: its
//! total minus the totals of the spans that closed inside it on the same
//! thread, so self times add up without double counting.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Every instrumented phase. Adding a variant: extend [`SpanId::ALL`]
/// and [`SpanId::name`]; storage sizes itself from `ALL`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanId {
    /// One full controller `step` call (both scheduler variants).
    CtrlStep,
    /// The constraint/scheduling scan: queue walk + chip-availability
    /// checks deciding what (if anything) issues this step.
    CtrlSchedule,
    /// Read resolution: SECDED verify plus the recovery pipeline.
    CtrlResolve,
    /// Device timing advance (reservation-interval pruning).
    DeviceAdvance,
    /// ECC/PCC encode: Hamming word encode and parity updates on writes.
    EccEncode,
    /// ECC decode: SECDED verify and erasure reconstruction on reads.
    EccDecode,
    /// Fault-plan application at the controller (chip faults, wear
    /// planting).
    FaultInject,
    /// Join wait in the worker pool (time the calling thread spends
    /// waiting for its slowest sweep worker).
    ParBarrier,
    /// Delivering due completions to cores (run-loop phase 1).
    SimDeliver,
    /// Core polling and request injection (run-loop phase 2).
    SimPoll,
    /// Stepping all channel controllers in channel order and queueing
    /// their completions (run-loop phase 3).
    SimStep,
}

impl SpanId {
    /// All spans, in report order.
    pub const ALL: [SpanId; 11] = [
        SpanId::CtrlStep,
        SpanId::CtrlSchedule,
        SpanId::CtrlResolve,
        SpanId::DeviceAdvance,
        SpanId::EccEncode,
        SpanId::EccDecode,
        SpanId::FaultInject,
        SpanId::ParBarrier,
        SpanId::SimDeliver,
        SpanId::SimPoll,
        SpanId::SimStep,
    ];

    /// Stable dotted name used in reports and trace events.
    pub fn name(self) -> &'static str {
        match self {
            SpanId::CtrlStep => "ctrl.step",
            SpanId::CtrlSchedule => "ctrl.schedule",
            SpanId::CtrlResolve => "ctrl.resolve_read",
            SpanId::DeviceAdvance => "device.advance",
            SpanId::EccEncode => "ecc.encode",
            SpanId::EccDecode => "ecc.decode",
            SpanId::FaultInject => "faults.inject",
            SpanId::ParBarrier => "par.barrier",
            SpanId::SimDeliver => "sim.deliver",
            SpanId::SimPoll => "sim.poll_cores",
            SpanId::SimStep => "sim.step_channels",
        }
    }

    #[inline]
    fn idx(self) -> usize {
        self as usize
    }
}

const N: usize = SpanId::ALL.len();
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static TOTAL_NS: [AtomicU64; N] = [ZERO; N];
static HITS: [AtomicU64; N] = [ZERO; N];
static SELF_NS: [AtomicU64; N] = [ZERO; N];

thread_local! {
    /// Time spent in the closed children of this thread's innermost open
    /// recording span. Each guard saves its parent's value on entry and
    /// restores it, plus its own total, on exit.
    static CHILD_NS: Cell<u64> = const { Cell::new(0) };
}

/// Opens a span over `id`. Drop it to record; keep it alive across the
/// region you want attributed. When profiling is disabled the guard is
/// inert (no clock read, nothing recorded on drop).
#[inline]
#[must_use = "a span records on Drop; binding it to _ would close it immediately"]
pub fn span(id: SpanId) -> SpanGuard {
    SpanGuard {
        id,
        begun: if crate::enabled() {
            let parent_children = CHILD_NS.replace(0);
            Some((Instant::now(), parent_children))
        } else {
            None
        },
    }
}

/// RAII recorder returned by [`span`].
#[derive(Debug)]
pub struct SpanGuard {
    id: SpanId,
    /// Entry time, and the enclosing span's child time saved at entry.
    begun: Option<(Instant, u64)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((begun, parent_children)) = self.begun.take() {
            let ns = u64::try_from(begun.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let children = CHILD_NS.replace(parent_children.saturating_add(ns));
            let i = self.id.idx();
            TOTAL_NS[i].fetch_add(ns, Ordering::Relaxed);
            SELF_NS[i].fetch_add(ns.saturating_sub(children), Ordering::Relaxed);
            HITS[i].fetch_add(1, Ordering::Relaxed);
            if crate::trace::trace_enabled() {
                crate::trace::record(self.id.name(), begun, ns);
            }
        }
    }
}

/// Snapshot of one span's accumulators: `(calls, total_ns)`.
#[must_use]
pub fn snapshot(id: SpanId) -> (u64, u64) {
    let i = id.idx();
    (
        HITS[i].load(Ordering::Relaxed),
        TOTAL_NS[i].load(Ordering::Relaxed),
    )
}

/// Exclusive time of one span: its total minus the time spent in spans
/// nested inside it on the same thread.
#[must_use]
pub fn self_ns(id: SpanId) -> u64 {
    SELF_NS[id.idx()].load(Ordering::Relaxed)
}

pub(crate) fn reset_spans() {
    for i in 0..N {
        TOTAL_NS[i].store(0, Ordering::Relaxed);
        SELF_NS[i].store(0, Ordering::Relaxed);
        HITS[i].store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = crate::test_lock();
        crate::disable();
        let before = snapshot(SpanId::EccEncode);
        {
            let _s = span(SpanId::EccEncode);
        }
        assert_eq!(snapshot(SpanId::EccEncode), before);
    }

    #[test]
    fn nested_spans_accumulate_inclusive_time_in_drop_order() {
        let _g = crate::test_lock();
        crate::enable();
        let (outer_calls0, outer_ns0) = snapshot(SpanId::SimStep);
        let (inner_calls0, inner_ns0) = snapshot(SpanId::CtrlStep);
        let inner_ns_alone;
        {
            let _outer = span(SpanId::SimStep);
            {
                let _inner = span(SpanId::CtrlStep);
                std::thread::sleep(std::time::Duration::from_millis(2));
                // _inner drops first (reverse declaration order), so the
                // inner total is already visible while outer is still
                // open.
            }
            let (c, ns) = snapshot(SpanId::CtrlStep);
            assert_eq!(c, inner_calls0 + 1, "inner recorded before outer");
            inner_ns_alone = ns - inner_ns0;
            assert!(
                inner_ns_alone >= 1_000_000,
                "slept ≥2ms, got {inner_ns_alone}ns"
            );
        }
        let (outer_calls1, outer_ns1) = snapshot(SpanId::SimStep);
        assert_eq!(outer_calls1, outer_calls0 + 1);
        // Inclusive timing: the outer span contains the inner sleep.
        assert!(outer_ns1 - outer_ns0 >= inner_ns_alone);
        crate::disable();
    }

    #[test]
    fn self_time_of_parent_and_child_adds_up_to_the_parent_total() {
        let _g = crate::test_lock();
        crate::enable();
        let (_, outer_ns0) = snapshot(SpanId::SimStep);
        let (outer_self0, inner_self0) = (self_ns(SpanId::SimStep), self_ns(SpanId::CtrlStep));
        let (_, inner_ns0) = snapshot(SpanId::CtrlStep);
        {
            let _outer = span(SpanId::SimStep);
            std::thread::sleep(std::time::Duration::from_millis(1));
            {
                let _inner = span(SpanId::CtrlStep);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let outer_total = snapshot(SpanId::SimStep).1 - outer_ns0;
        let inner_total = snapshot(SpanId::CtrlStep).1 - inner_ns0;
        let outer_self = self_ns(SpanId::SimStep) - outer_self0;
        let inner_self = self_ns(SpanId::CtrlStep) - inner_self0;
        // A leaf's self time is its total; the parent's excludes it.
        assert_eq!(inner_self, inner_total);
        assert_eq!(outer_self + inner_self, outer_total);
        assert!(outer_self >= 1_000_000, "slept ≥1ms outside the child");
        crate::disable();
    }
}

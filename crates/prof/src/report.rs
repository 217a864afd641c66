//! The profiling report: everything collected, as one JSON document.
//!
//! Schema (`pcmap-prof-report`, version 1):
//!
//! ```json
//! {
//!   "schema": "pcmap-prof-report", "schema_version": 1,
//!   "enabled": true,
//!   "spans":    [{"name": "ctrl.step", "calls": 1, "total_ns": 1, "self_ns": 1}],
//!   "counters": [{"name": "constraint_checks", "value": 1}],
//!   "sim": {"runs": 1, "sim_cycles": 1},
//!   "occupancy": {
//!     "run_cycles": 1,
//!     "per_chip": [{"channel": 0, "chip": 0, "busy_cycles": 1}],
//!     "per_bank": [{"channel": 0, "bank": 0, "busy_chip_cycles": 1, "chips": 10}]
//!   },
//!   "peak_rss_kb": 1, "alloc": null
//! }
//! ```
//!
//! Span totals are *inclusive* (a parent span contains its children);
//! `self_ns` is *exclusive* (the total minus the children that closed
//! inside it on the same thread), so self times sum without double
//! counting.
//! Occupancy idle time is derived by the consumer:
//! `idle = run_cycles − busy_cycles` per chip, and per bank
//! `idle_chip_cycles = run_cycles × chips − busy_chip_cycles`.

use crate::counter::{self, Counter};
use crate::occupancy::{self, MAX_BANKS, MAX_CHANNELS, MAX_CHIPS};
use crate::span::{self, SpanId};
use pcmap_obs::Value;

/// Schema version of the profiling report.
pub const SCHEMA_VERSION: u64 = 1;

/// Builds the full profiling report.
#[must_use]
pub fn report() -> Value {
    let mut v = Value::obj();
    v.set("schema", Value::Str("pcmap-prof-report".to_owned()));
    v.set("schema_version", Value::U64(SCHEMA_VERSION));
    v.set("enabled", Value::Bool(crate::enabled()));

    let spans: Vec<Value> = SpanId::ALL
        .iter()
        .map(|&id| {
            let (calls, total_ns) = span::snapshot(id);
            let mut o = Value::obj();
            o.set("name", Value::Str(id.name().to_owned()));
            o.set("calls", Value::U64(calls));
            o.set("total_ns", Value::U64(total_ns));
            o.set("self_ns", Value::U64(span::self_ns(id)));
            o
        })
        .collect();
    v.set("spans", Value::Arr(spans));

    let counters: Vec<Value> = Counter::ALL
        .iter()
        .map(|&c| {
            let mut o = Value::obj();
            o.set("name", Value::Str(c.name().to_owned()));
            o.set("value", Value::U64(counter::get(c)));
            o
        })
        .collect();
    v.set("counters", Value::Arr(counters));

    let (runs, cycles) = occupancy::run_totals();
    let mut sim = Value::obj();
    sim.set("runs", Value::U64(runs));
    sim.set("sim_cycles", Value::U64(cycles));
    v.set("sim", sim);

    v.set("occupancy", occupancy_json(cycles));
    v.set(
        "peak_rss_kb",
        crate::rss::peak_rss_kb().map_or(Value::Null, Value::U64),
    );
    v.set("alloc", alloc_json());
    v
}

/// Occupancy rollups. Only non-zero cells are emitted, so the document
/// stays small for tiny test configurations.
fn occupancy_json(run_cycles: u64) -> Value {
    let mut per_chip = Vec::new();
    let mut per_bank = Vec::new();
    for channel in 0..MAX_CHANNELS {
        for chip in 0..MAX_CHIPS {
            let busy: u64 = (0..MAX_BANKS)
                .map(|b| occupancy::busy_cycles(channel, b, chip))
                .sum();
            if busy > 0 {
                let mut o = Value::obj();
                o.set("channel", Value::U64(channel as u64));
                o.set("chip", Value::U64(chip as u64));
                o.set("busy_cycles", Value::U64(busy));
                per_chip.push(o);
            }
        }
        for bank in 0..MAX_BANKS {
            let busy: u64 = (0..MAX_CHIPS)
                .map(|c| occupancy::busy_cycles(channel, bank, c))
                .sum();
            let chips = (0..MAX_CHIPS)
                .filter(|&c| occupancy::busy_cycles(channel, bank, c) > 0)
                .count();
            if busy > 0 {
                let mut o = Value::obj();
                o.set("channel", Value::U64(channel as u64));
                o.set("bank", Value::U64(bank as u64));
                o.set("busy_chip_cycles", Value::U64(busy));
                o.set("chips", Value::U64(chips as u64));
                per_bank.push(o);
            }
        }
    }
    let mut occ = Value::obj();
    occ.set("run_cycles", Value::U64(run_cycles));
    occ.set("per_chip", Value::Arr(per_chip));
    occ.set("per_bank", Value::Arr(per_bank));
    occ
}

#[cfg(feature = "alloc-profile")]
fn alloc_json() -> Value {
    let s = crate::alloc::stats();
    let mut o = Value::obj();
    o.set("allocs", Value::U64(s.allocs));
    o.set("deallocs", Value::U64(s.deallocs));
    o.set("bytes_total", Value::U64(s.bytes_total));
    o.set("bytes_peak", Value::U64(s.bytes_peak));
    o
}

#[cfg(not(feature = "alloc-profile"))]
fn alloc_json() -> Value {
    Value::Null
}

/// Writes the report as pretty JSON, creating parent directories.
pub fn write_report(path: &str) -> std::io::Result<()> {
    pcmap_obs::export::write_json(path, &report())
}

/// Zeroes every accumulator: spans, counters, occupancy, trace buffer.
/// The enabled flags are left as they are.
pub fn reset() {
    span::reset_spans();
    counter::reset_counters();
    occupancy::reset_occupancy();
    crate::trace::reset_trace();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::span;

    #[test]
    fn report_round_trips_and_carries_occupancy() {
        let _g = crate::test_lock();
        crate::enable();
        crate::set_channel(5);
        crate::note_busy(1, 2, 123);
        crate::note_run_cycles(1000);
        {
            let _s = span(SpanId::DeviceAdvance);
        }
        crate::bump(Counter::Reservations);
        let text = report().to_json_pretty();
        crate::disable();

        let parsed = pcmap_obs::json::parse(&text).expect("report parses");
        assert_eq!(
            parsed.get("schema"),
            Some(&Value::Str("pcmap-prof-report".to_owned()))
        );
        assert_eq!(
            parsed.get("schema_version").and_then(Value::as_u64),
            Some(SCHEMA_VERSION)
        );
        let Some(Value::Arr(chips)) = parsed.get("occupancy").and_then(|o| o.get("per_chip"))
        else {
            panic!("occupancy.per_chip must be an array");
        };
        assert!(chips.iter().any(|e| {
            e.get("channel").and_then(Value::as_u64) == Some(5)
                && e.get("chip").and_then(Value::as_u64) == Some(2)
                && e.get("busy_cycles").and_then(Value::as_u64).unwrap_or(0) >= 123
        }));
        let Some(Value::Arr(spans)) = parsed.get("spans") else {
            panic!("spans must be an array");
        };
        assert_eq!(spans.len(), SpanId::ALL.len());
    }
}

//! Host-side performance observability for the PCMap simulator
//! (DESIGN.md §12).
//!
//! This crate is the **only** sim-adjacent crate allowed to read the
//! wall clock (pcmap-lint's `profiling` scope). Everything here is an
//! *observer*: global atomics written from the hot paths, read back at
//! report time. Nothing in this crate feeds data into the simulation, so
//! enabling or disabling profiling cannot change a single simulated
//! byte — `RunReport`, goldens and `pardiff` stay byte-identical either
//! way (enforced by `crates/sim/tests/par_equiv.rs` and the
//! `profiling_does_not_change_simulation` test).
//!
//! Three instruments:
//!
//! * **Spans** ([`span`]) — scoped host-monotonic timers around the hot
//!   phases (controller step, constraint scan, ECC codec, fault
//!   injection, pool join waits). Near-zero cost when disabled: one
//!   relaxed atomic load and an untaken branch.
//! * **Counters** ([`bump`]/[`add`]) — hot-path event counts (constraint
//!   checks, queue scans, commands issued, pool jobs, epochs).
//! * **Occupancy** ([`note_busy`]) — a simulated-cycle busy histogram
//!   per (channel, bank, chip), fed from the single reservation point in
//!   `pcmap-device`. Busy vs idle per component is exactly the
//!   idle-skip opportunity the ROADMAP's discrete-event refactor needs.
//!
//! Enable programmatically ([`enable`]) or from the environment
//! ([`init_from_env`]): `PCMAP_PROF=1` turns profiling on,
//! `PCMAP_PROF_JSON=path` writes the JSON report at [`finish_from_env`],
//! and `PCMAP_TRACE=1` additionally records Chrome trace events
//! (written to `results/trace.json` or `$PCMAP_TRACE_OUT`).

#![warn(missing_docs)]

pub mod bench;
pub mod counter;
pub mod occupancy;
pub mod report;
pub mod rss;
pub mod span;
pub mod trace;

#[cfg(feature = "alloc-profile")]
pub mod alloc;

pub use counter::{add, bump, Counter};
pub use occupancy::{note_busy, note_run_cycles, note_unbusy, run_totals, set_channel};
pub use report::{report, reset, write_report};
pub use span::{span, SpanGuard, SpanId};
pub use trace::{disable_trace, enable_trace, record_request_span, trace_enabled};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Serializes tests that toggle the process-global profiler state.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// `true` when profiling is collecting. The hot-path fast exit: a single
/// relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns profiling collection on (spans, counters, occupancy).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns profiling collection off. Accumulated data is kept until
/// [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Configures profiling from the environment (call once at the top of a
/// binary): `PCMAP_TRACE=1` enables profiling + Chrome trace recording;
/// `PCMAP_PROF=1` or a set `PCMAP_PROF_JSON` enables profiling alone.
pub fn init_from_env() {
    let truthy = |k: &str| {
        std::env::var(k)
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    };
    if truthy("PCMAP_TRACE") {
        trace::enable_trace();
    }
    if truthy("PCMAP_PROF") || std::env::var("PCMAP_PROF_JSON").is_ok() {
        enable();
    }
}

/// Writes whatever the environment asked for (call once at the bottom of
/// a binary): the JSON profile to `$PCMAP_PROF_JSON`, the Chrome trace
/// to `$PCMAP_TRACE_OUT` (default `results/trace.json`). Errors are
/// reported on stderr, never fatal — profiling must not fail a run.
pub fn finish_from_env() {
    if let Ok(path) = std::env::var("PCMAP_PROF_JSON") {
        if let Err(e) = write_report(&path) {
            eprintln!("pcmap-prof: cannot write {path}: {e}");
        }
    }
    if trace::trace_enabled() {
        let path =
            std::env::var("PCMAP_TRACE_OUT").unwrap_or_else(|_| "results/trace.json".to_owned());
        match trace::write_chrome_trace(&path) {
            Ok(n) => eprintln!("pcmap-prof: wrote {n} trace events to {path}"),
            Err(e) => eprintln!("pcmap-prof: cannot write {path}: {e}"),
        }
    }
}

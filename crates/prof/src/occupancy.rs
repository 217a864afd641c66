//! Simulated-cycle occupancy: busy chip-cycles per (channel, bank, chip).
//!
//! Fed from the single reservation-creation point
//! (`pcmap_device::RankTiming::reserve`) and its watchdog inverse
//! (`force_free`), so busy totals are exact by construction: reservation
//! intervals on one chip never overlap (debug-asserted in the device
//! crate), and every committed interval is either served in full or
//! explicitly truncated.
//!
//! The channel dimension rides on a thread-local set by the run loop
//! before it steps (or enqueues into) a channel's controller — the
//! device layer itself has no notion of channels. One rank per channel
//! in every paper configuration, so "per channel" is "per rank".
//!
//! Idle time is derived at report time: each run contributes its final
//! simulated cycle count ([`note_run_cycles`]) to a shared denominator;
//! `idle = runs_total_cycles − busy` per component.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Channel slots tracked (paper default is 4).
pub const MAX_CHANNELS: usize = 8;
/// Bank slots tracked per channel (paper default is 8).
pub const MAX_BANKS: usize = 16;
/// Chip slots tracked per bank (paper rank is 10: 8 data + ECC + PCC).
pub const MAX_CHIPS: usize = 16;

const CELLS: usize = MAX_CHANNELS * MAX_BANKS * MAX_CHIPS;
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static BUSY: [AtomicU64; CELLS] = [ZERO; CELLS];
static RUN_CYCLES: AtomicU64 = AtomicU64::new(0);
static RUNS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static CHANNEL: Cell<usize> = const { Cell::new(0) };
}

#[inline]
fn cell(channel: usize, bank: usize, chip: usize) -> Option<&'static AtomicU64> {
    if channel < MAX_CHANNELS && bank < MAX_BANKS && chip < MAX_CHIPS {
        Some(&BUSY[(channel * MAX_BANKS + bank) * MAX_CHIPS + chip])
    } else {
        None
    }
}

/// Sets the calling thread's current channel context. The run loop calls
/// this before stepping (or enqueuing into) a channel's controller so
/// device-level reservations attribute to the right channel.
#[inline]
pub fn set_channel(channel: usize) {
    CHANNEL.with(|c| c.set(channel));
}

/// Records `cycles` of committed busy time for (current channel, `bank`,
/// `chip`). No-op while profiling is disabled or indices exceed the
/// tracked range.
#[inline]
pub fn note_busy(bank: usize, chip: usize, cycles: u64) {
    if !crate::enabled() {
        return;
    }
    let channel = CHANNEL.with(Cell::get);
    if let Some(c) = cell(channel, bank, chip) {
        c.fetch_add(cycles, Ordering::Relaxed);
    }
}

/// Takes back `cycles` of previously recorded busy time (watchdog
/// truncation / cancellation of a committed reservation).
#[inline]
pub fn note_unbusy(bank: usize, chip: usize, cycles: u64) {
    if !crate::enabled() {
        return;
    }
    let channel = CHANNEL.with(Cell::get);
    if let Some(c) = cell(channel, bank, chip) {
        // Saturating: an unbalanced subtract (reset mid-run) clamps at 0
        // instead of wrapping.
        let _ = c.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(cycles))
        });
    }
}

/// Adds one finished run's simulated cycle count to the occupancy
/// denominator (a channel exists for the whole run, so its per-component
/// capacity is the run's full cycle count).
pub fn note_run_cycles(mem_cycles: u64) {
    if !crate::enabled() {
        return;
    }
    RUN_CYCLES.fetch_add(mem_cycles, Ordering::Relaxed);
    RUNS.fetch_add(1, Ordering::Relaxed);
}

/// `(runs recorded, summed simulated cycles across runs)`.
#[must_use]
pub fn run_totals() -> (u64, u64) {
    (
        RUNS.load(Ordering::Relaxed),
        RUN_CYCLES.load(Ordering::Relaxed),
    )
}

/// Busy chip-cycles recorded for one (channel, bank, chip) cell (0 for
/// out-of-range indices).
#[must_use]
pub fn busy_cycles(channel: usize, bank: usize, chip: usize) -> u64 {
    cell(channel, bank, chip).map_or(0, |c| c.load(Ordering::Relaxed))
}

pub(crate) fn reset_occupancy() {
    for c in &BUSY {
        c.store(0, Ordering::Relaxed);
    }
    RUN_CYCLES.store(0, Ordering::Relaxed);
    RUNS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_accounting_adds_subtracts_and_clamps() {
        let _g = crate::test_lock();
        crate::enable();
        set_channel(6); // a channel no other test uses
        let b0 = busy_cycles(6, 2, 3);
        note_busy(2, 3, 40);
        note_busy(2, 3, 10);
        assert_eq!(busy_cycles(6, 2, 3), b0 + 50);
        note_unbusy(2, 3, 15);
        assert_eq!(busy_cycles(6, 2, 3), b0 + 35);
        // Neighbouring cells untouched.
        note_busy(3, 3, 7);
        assert_eq!(busy_cycles(6, 2, 3), b0 + 35);
        // Out-of-range indices are dropped, not misattributed.
        note_busy(MAX_BANKS, 0, 99);
        note_busy(0, MAX_CHIPS, 99);
        crate::disable();
    }

    #[test]
    fn disabled_occupancy_is_inert() {
        let _g = crate::test_lock();
        crate::disable();
        set_channel(7);
        let b0 = busy_cycles(7, 0, 0);
        let (runs0, cyc0) = run_totals();
        note_busy(0, 0, 1000);
        note_run_cycles(5000);
        assert_eq!(busy_cycles(7, 0, 0), b0);
        assert_eq!(run_totals(), (runs0, cyc0));
    }
}

//! Per-chip, per-bank occupancy and row-buffer state.
//!
//! With PCMap's rank subsetting each chip is an independent sub-rank, so a
//! bank's row buffer and busy windows exist *per chip*: chip 3 can be
//! mid-way through a long SET while chip 5 of the same bank serves a
//! different request.
//!
//! Occupancy is kept as **reservation intervals** rather than a single
//! busy-until scalar because PCMap schedules a write's phases at issue
//! time: the PCC chip is reserved for *step 2* (after the data phase) while
//! remaining genuinely free during *step 1* — which is exactly the window
//! RoW reads borrow it in (§IV-B1 of the paper).

use pcmap_types::{BankId, ChipId, ChipSet, Cycle, MemOrg, RowAddr};

/// Timing state of one bank on one chip (one sub-rank).
#[derive(Debug, Clone, Default)]
pub struct ChipBankState {
    /// The row currently latched in this chip's row buffer for this bank.
    pub open_row: Option<RowAddr>,
    /// Committed occupancy windows `[start, end)`, kept sorted by start.
    res: Vec<(Cycle, Cycle)>,
}

impl ChipBankState {
    /// `true` if no reservation covers `now`.
    #[must_use]
    pub fn is_free(&self, now: Cycle) -> bool {
        self.res.iter().all(|&(s, e)| now < s || now >= e)
    }

    /// `true` if `[start, end)` overlaps no reservation.
    #[must_use]
    pub fn is_free_during(&self, start: Cycle, end: Cycle) -> bool {
        self.res.iter().all(|&(s, e)| end <= s || start >= e)
    }

    /// The time at which this chip is clear of every reservation still
    /// active or scheduled at/after `now`.
    #[must_use]
    pub fn clear_from(&self, now: Cycle) -> Cycle {
        self.res
            .iter()
            .filter(|&&(_, e)| e > now)
            .map(|&(_, e)| e)
            .max()
            .unwrap_or(now)
            .max(now)
    }

    /// The earliest reservation boundary strictly after `now`, if any.
    #[must_use]
    pub fn next_boundary(&self, now: Cycle) -> Option<Cycle> {
        self.res
            .iter()
            .flat_map(|&(s, e)| [s, e])
            .filter(|t| *t > now)
            .min()
    }

    /// Latest end over reservations overlapping `[from, until)`, or `None`
    /// when the window is free — i.e. the earliest time a window of the
    /// same length could start clear of every current conflict.
    #[must_use]
    pub fn blocked_until(&self, from: Cycle, until: Cycle) -> Option<Cycle> {
        self.res
            .iter()
            .filter(|&&(s, e)| s < until && e > from)
            .map(|&(_, e)| e)
            .max()
    }

    fn insert(&mut self, start: Cycle, end: Cycle) {
        debug_assert!(
            self.is_free_during(start, end),
            "chip double-booked: [{start:?},{end:?}) overlaps {:?}",
            self.res
        );
        let pos = self.res.partition_point(|&(s, _)| s < start);
        self.res.insert(pos, (start, end));
    }

    /// Drops reservations that ended at or before `now` and returns the
    /// earliest end among those left (`Cycle::MAX` when none are).
    fn prune(&mut self, now: Cycle) -> Cycle {
        self.res.retain(|&(_, e)| e > now);
        self.res.iter().map(|&(_, e)| e).min().unwrap_or(Cycle::MAX)
    }

    /// Cancels all occupancy at or after `from`: future reservations are
    /// dropped and an active one is truncated to end at `from`. The
    /// rank watchdog uses this to free a stuck-busy chip. Returns the
    /// total cycles of occupancy removed (profiler book-keeping).
    fn release_from(&mut self, from: Cycle) -> u64 {
        let mut removed = 0u64;
        self.res.retain_mut(|(s, e)| {
            if *s >= from {
                removed += e.0 - s.0;
                return false;
            }
            if *e > from {
                removed += e.0 - from.0;
                *e = from;
            }
            *e > *s
        });
        removed
    }
}

/// The occupancy window committed by one [`RankTiming::reserve`] call —
/// the reservation commit point's receipt. Controllers forward it to the
/// request lifecycle tracer so per-chip service intervals come from
/// exactly where the timing model booked them (DESIGN.md §13). Empty
/// (`set` empty, `start == end`) when the requested window was
/// zero-length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReservedWindow {
    /// Bank the chips were reserved on.
    pub bank: BankId,
    /// The chips booked.
    pub set: ChipSet,
    /// Window start (inclusive).
    pub start: Cycle,
    /// Window end (exclusive).
    pub end: Cycle,
}

/// Occupancy and row state for every (bank, chip) pair of a rank.
#[derive(Debug, Clone)]
pub struct RankTiming {
    banks: usize,
    chips: usize,
    state: Vec<ChipBankState>,
    /// A lower bound on the end of every reservation held (`Cycle::MAX`
    /// when none is): [`Self::prune`] has nothing to drop before it.
    /// `reserve` and `force_free` lower it; `prune` recomputes it.
    min_end: Cycle,
}

impl RankTiming {
    /// Creates idle timing state for a rank: `org.banks` banks ×
    /// [`ChipId::TOTAL_CHIPS`] chips.
    pub fn new(org: &MemOrg) -> Self {
        let banks = org.banks as usize;
        let chips = ChipId::TOTAL_CHIPS;
        Self {
            banks,
            chips,
            state: vec![ChipBankState::default(); banks * chips],
            min_end: Cycle::MAX,
        }
    }

    #[inline]
    fn idx(&self, bank: BankId, chip: ChipId) -> usize {
        debug_assert!(bank.index() < self.banks && chip.index() < self.chips);
        bank.index() * self.chips + chip.index()
    }

    /// State of one (bank, chip) pair.
    #[inline]
    pub fn chip(&self, bank: BankId, chip: ChipId) -> &ChipBankState {
        &self.state[self.idx(bank, chip)]
    }

    /// Mutable state of one (bank, chip) pair.
    #[inline]
    pub fn chip_mut(&mut self, bank: BankId, chip: ChipId) -> &mut ChipBankState {
        let i = self.idx(bank, chip);
        &mut self.state[i]
    }

    /// Returns `true` if `chip` is idle for `bank` at time `now`.
    #[must_use]
    #[inline]
    pub fn is_free(&self, bank: BankId, chip: ChipId, now: Cycle) -> bool {
        self.chip(bank, chip).is_free(now)
    }

    /// Returns `true` if every chip in `set` is free for the whole of
    /// `[start, end)` on `bank`.
    #[must_use]
    pub fn set_free_during(&self, bank: BankId, set: ChipSet, start: Cycle, end: Cycle) -> bool {
        set.chips()
            .all(|c| self.chip(bank, c).is_free_during(start, end))
    }

    /// The set of chips of `bank` that are busy at `now` — exactly what the
    /// DIMM register's status flags report.
    #[must_use]
    pub fn busy_set(&self, bank: BankId, now: Cycle) -> ChipSet {
        let mut set = ChipSet::empty();
        for c in 0..self.chips {
            let chip = ChipId(c as u8);
            if !self.is_free(bank, chip, now) {
                set.insert_chip(chip);
            }
        }
        set
    }

    /// Earliest time at or after `now` when *all* chips in `set` are clear
    /// of every reservation still pending on `bank`.
    #[must_use]
    pub fn free_at(&self, bank: BankId, set: ChipSet, now: Cycle) -> Cycle {
        let mut t = now;
        for chip in set.chips() {
            t = t.max(self.chip(bank, chip).clear_from(now));
        }
        t
    }

    /// Reserves every chip in `set` for `bank` over `[start, until)` and
    /// returns the committed window. This is the single point where busy
    /// intervals are committed, so observers tapping the return value
    /// (per-request lifecycle chip-service intervals, DESIGN.md §13) see
    /// exactly what the timing model booked; a zero-length request
    /// returns an empty window and books nothing.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the window overlaps an existing
    /// reservation (double-booking).
    pub fn reserve(
        &mut self,
        bank: BankId,
        set: ChipSet,
        start: Cycle,
        until: Cycle,
    ) -> ReservedWindow {
        if until <= start {
            return ReservedWindow {
                bank,
                set: ChipSet::empty(),
                start,
                end: start,
            };
        }
        for chip in set.chips() {
            self.chip_mut(bank, chip).insert(start, until);
        }
        self.min_end = self.min_end.min(until);
        // Occupancy book-keeping (observer only; inert when profiling is
        // off).
        if pcmap_prof::enabled() {
            pcmap_prof::bump(pcmap_prof::Counter::Reservations);
            for chip in set.chips() {
                pcmap_prof::note_busy(bank.index(), chip.index(), until.0 - start.0);
            }
        }
        ReservedWindow {
            bank,
            set,
            start,
            end: until,
        }
    }

    /// Latches `row` into the row buffers of `set` for `bank`.
    pub fn open_row(&mut self, bank: BankId, set: ChipSet, row: RowAddr) {
        for chip in set.chips() {
            self.chip_mut(bank, chip).open_row = Some(row);
        }
    }

    /// The subset of `set` whose row buffer for `bank` does *not* currently
    /// hold `row` (and therefore needs an activate).
    #[must_use]
    pub fn chips_needing_activate(&self, bank: BankId, set: ChipSet, row: RowAddr) -> ChipSet {
        let mut need = ChipSet::empty();
        for chip in set.chips() {
            if self.chip(bank, chip).open_row != Some(row) {
                need.insert_chip(chip);
            }
        }
        need
    }

    /// Force-frees `chip` on `bank` from `from` onward — the watchdog
    /// action for a stuck-busy chip: its hung reservation is cut short
    /// and anything it had queued later is cancelled.
    pub fn force_free(&mut self, bank: BankId, chip: ChipId, from: Cycle) {
        let removed = self.chip_mut(bank, chip).release_from(from);
        // A truncated reservation now ends at `from`.
        self.min_end = self.min_end.min(from);
        if removed > 0 {
            pcmap_prof::note_unbusy(bank.index(), chip.index(), removed);
        }
    }

    /// The earliest reservation boundary strictly after `now` across the
    /// whole rank (scheduling wake hint).
    #[must_use]
    pub fn next_boundary(&self, now: Cycle) -> Option<Cycle> {
        self.state.iter().filter_map(|s| s.next_boundary(now)).min()
    }

    /// Run-loop horizon hint (DESIGN.md §14): the next cycle strictly after
    /// `now` at which any chip of the rank changes occupancy state.
    /// Alias of [`Self::next_boundary`] under the component `next_tick`
    /// naming convention.
    #[must_use]
    pub fn next_tick(&self, now: Cycle) -> Option<Cycle> {
        self.next_boundary(now)
    }

    /// Latest end over reservations on `bank` × `set` that overlap
    /// `[from, until)`, or `None` when the whole window is free on every
    /// chip of the set. The controllers derive precise retry hints from
    /// this: a request whose feasibility window `[from, until)` shifts
    /// rigidly with `now` becomes issueable (w.r.t. the *current*
    /// reservations) once the window start reaches the returned cycle.
    #[must_use]
    pub fn blocked_until(
        &self,
        bank: BankId,
        set: ChipSet,
        from: Cycle,
        until: Cycle,
    ) -> Option<Cycle> {
        set.chips()
            .filter_map(|c| self.chip(bank, c).blocked_until(from, until))
            .max()
    }

    /// Drops reservations that ended at or before `now`. Returns at once
    /// while `now` is below every reservation's end, so a step that
    /// retires nothing scans nothing.
    pub fn prune(&mut self, now: Cycle) {
        let _span = pcmap_prof::span(pcmap_prof::SpanId::DeviceAdvance);
        if now < self.min_end {
            return;
        }
        self.min_end = self
            .state
            .iter_mut()
            .map(|s| s.prune(now))
            .min()
            .unwrap_or(Cycle::MAX);
    }

    /// Number of banks tracked.
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Number of chips tracked per bank.
    pub fn chips(&self) -> usize {
        self.chips
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmap_types::MemOrg;

    fn timing() -> RankTiming {
        RankTiming::new(&MemOrg::tiny())
    }

    #[test]
    fn starts_idle() {
        let t = timing();
        assert!(t.is_free(BankId(0), ChipId(0), Cycle::ZERO));
        assert_eq!(t.busy_set(BankId(0), Cycle::ZERO), ChipSet::empty());
        assert_eq!(t.next_boundary(Cycle::ZERO), None);
    }

    #[test]
    fn reserve_marks_interval_busy() {
        let mut t = timing();
        let set = ChipSet::single(3);
        t.reserve(BankId(0), set, Cycle(10), Cycle(50));
        assert!(t.is_free(BankId(0), ChipId(3), Cycle(9)));
        assert!(!t.is_free(BankId(0), ChipId(3), Cycle(10)));
        assert!(!t.is_free(BankId(0), ChipId(3), Cycle(49)));
        assert!(t.is_free(BankId(0), ChipId(3), Cycle(50)));
        // Other chips and banks unaffected.
        assert!(t.is_free(BankId(0), ChipId(2), Cycle(20)));
        assert!(t.is_free(BankId(1), ChipId(3), Cycle(20)));
    }

    #[test]
    fn future_reservation_leaves_present_free() {
        let mut t = timing();
        // The PCC-style pattern: step 2 reserved ahead of time.
        t.reserve(BankId(0), ChipSet::single(9), Cycle(56), Cycle(112));
        assert!(t.is_free(BankId(0), ChipId(9), Cycle(0)));
        // A read fitting before the future window is allowed…
        assert!(t
            .chip(BankId(0), ChipId(9))
            .is_free_during(Cycle(0), Cycle(33)));
        t.reserve(BankId(0), ChipSet::single(9), Cycle(0), Cycle(33));
        // …but one overlapping it is not.
        assert!(!t
            .chip(BankId(0), ChipId(9))
            .is_free_during(Cycle(40), Cycle(80)));
    }

    #[test]
    fn busy_set_reports_flags() {
        let mut t = timing();
        let mut set = ChipSet::empty();
        set.insert(1);
        set.insert(9);
        t.reserve(BankId(1), set, Cycle(0), Cycle(10));
        assert_eq!(t.busy_set(BankId(1), Cycle(5)), set);
        assert_eq!(t.busy_set(BankId(1), Cycle(10)), ChipSet::empty());
    }

    #[test]
    fn free_at_takes_max_clear_time_over_set() {
        let mut t = timing();
        t.reserve(BankId(0), ChipSet::single(0), Cycle(0), Cycle(30));
        t.reserve(BankId(0), ChipSet::single(1), Cycle(0), Cycle(70));
        let both: ChipSet = [0usize, 1].into_iter().collect();
        assert_eq!(t.free_at(BankId(0), both, Cycle(10)), Cycle(70));
        assert_eq!(
            t.free_at(BankId(0), ChipSet::single(0), Cycle(40)),
            Cycle(40)
        );
        // free_at accounts for future reservations too.
        t.reserve(BankId(0), ChipSet::single(2), Cycle(100), Cycle(120));
        assert_eq!(
            t.free_at(BankId(0), ChipSet::single(2), Cycle(0)),
            Cycle(120)
        );
    }

    #[test]
    fn next_boundary_reports_edges() {
        let mut t = timing();
        t.reserve(BankId(0), ChipSet::single(4), Cycle(20), Cycle(44));
        assert_eq!(t.next_boundary(Cycle(0)), Some(Cycle(20)));
        assert_eq!(t.next_boundary(Cycle(20)), Some(Cycle(44)));
        assert_eq!(t.next_boundary(Cycle(44)), None);
    }

    #[test]
    fn blocked_until_reports_latest_conflicting_end() {
        let mut t = timing();
        t.reserve(BankId(0), ChipSet::single(0), Cycle(10), Cycle(40));
        t.reserve(BankId(0), ChipSet::single(1), Cycle(20), Cycle(90));
        let both: ChipSet = [0usize, 1].into_iter().collect();
        // Window clear of both chips → None.
        assert_eq!(
            t.blocked_until(BankId(0), both, Cycle(90), Cycle(120)),
            None
        );
        // Window overlapping both → the later conflicting end wins.
        assert_eq!(
            t.blocked_until(BankId(0), both, Cycle(30), Cycle(50)),
            Some(Cycle(90))
        );
        // Only chip 0 consulted → its own end.
        assert_eq!(
            t.blocked_until(BankId(0), ChipSet::single(0), Cycle(30), Cycle(50)),
            Some(Cycle(40))
        );
        // Touching edges ([40,50) after chip 0's [10,40)) do not conflict.
        assert_eq!(
            t.blocked_until(BankId(0), ChipSet::single(0), Cycle(40), Cycle(50)),
            None
        );
    }

    #[test]
    fn next_tick_is_next_boundary() {
        let mut t = timing();
        assert_eq!(t.next_tick(Cycle(0)), None);
        t.reserve(BankId(0), ChipSet::single(4), Cycle(20), Cycle(44));
        assert_eq!(t.next_tick(Cycle(0)), Some(Cycle(20)));
        assert_eq!(t.next_tick(Cycle(20)), t.next_boundary(Cycle(20)));
    }

    #[test]
    fn prune_drops_expired_windows() {
        let mut t = timing();
        t.reserve(BankId(0), ChipSet::single(0), Cycle(0), Cycle(10));
        t.reserve(BankId(0), ChipSet::single(0), Cycle(20), Cycle(30));
        t.prune(Cycle(15));
        assert_eq!(t.chip(BankId(0), ChipId(0)).clear_from(Cycle(0)), Cycle(30));
        assert!(t.is_free(BankId(0), ChipId(0), Cycle(5)));
    }

    /// Reservation lists of every (bank, chip) pair, in state order.
    fn windows(t: &RankTiming) -> Vec<Vec<(Cycle, Cycle)>> {
        t.state.iter().map(|s| s.res.clone()).collect()
    }

    proptest::proptest! {
        /// The early-exit `prune` leaves exactly the reservations an
        /// eager scan of every (bank, chip) pair leaves, across random
        /// reservations, watchdog force-frees and prunes.
        #[test]
        fn early_exit_prune_matches_an_eager_prune(seed: u64, ops in 1usize..160) {
            let org = MemOrg { banks: 3, ..MemOrg::tiny() };
            let (mut fast, mut eager) = (RankTiming::new(&org), RankTiming::new(&org));
            let mut rng = pcmap_types::Xoshiro256::new(seed);
            let mut now = Cycle(0);
            for _ in 0..ops {
                let bank = BankId(rng.next_below(3) as u8);
                let chip = ChipId(rng.next_below(ChipId::TOTAL_CHIPS as u64) as u8);
                match rng.next_below(4) {
                    0 | 1 => {
                        // Book the chip's next free window, possibly in
                        // the future (a PCC-style step-2 reservation).
                        let from = Cycle(now.0 + rng.next_below(40));
                        let start = fast.free_at(bank, ChipSet::single(chip.index()), from);
                        let end = Cycle(start.0 + 1 + rng.next_below(60));
                        for t in [&mut fast, &mut eager] {
                            t.reserve(bank, ChipSet::single(chip.index()), start, end);
                        }
                    }
                    2 => {
                        let from = Cycle(now.0 + rng.next_below(30));
                        fast.force_free(bank, chip, from);
                        eager.force_free(bank, chip, from);
                    }
                    _ => {
                        // pcmap-lint: allow(manual-time-advance, reason = "property driver models a run-loop clock over a bare timing model")
                        now = Cycle(now.0 + rng.next_below(50));
                        fast.prune(now);
                        for s in &mut eager.state {
                            s.prune(now);
                        }
                    }
                }
                proptest::prop_assert_eq!(windows(&fast), windows(&eager));
                let floor = eager
                    .state
                    .iter()
                    .flat_map(|s| s.res.iter().map(|&(_, e)| e))
                    .min();
                proptest::prop_assert!(
                    floor.is_none_or(|e| fast.min_end <= e),
                    "min_end is a lower bound"
                );
            }
        }
    }

    #[test]
    fn row_buffer_tracking() {
        let mut t = timing();
        let all = ChipSet::full();
        assert_eq!(t.chips_needing_activate(BankId(0), all, RowAddr(7)), all);
        t.open_row(BankId(0), ChipSet::single(2), RowAddr(7));
        let need = t.chips_needing_activate(BankId(0), all, RowAddr(7));
        assert_eq!(need.count(), 9);
        assert!(!need.contains(2));
        assert_eq!(t.chips_needing_activate(BankId(0), all, RowAddr(8)), all);
    }

    #[test]
    fn force_free_truncates_and_cancels() {
        let mut t = timing();
        let chip = ChipId(5);
        t.reserve(BankId(0), ChipSet::single(5), Cycle(10), Cycle(100));
        t.reserve(BankId(0), ChipSet::single(5), Cycle(120), Cycle(150));
        t.force_free(BankId(0), chip, Cycle(40));
        // Active window cut short at the watchdog fire time…
        assert!(!t.is_free(BankId(0), chip, Cycle(39)));
        assert!(t.is_free(BankId(0), chip, Cycle(40)));
        // …and the queued future window is cancelled outright.
        assert!(t.is_free(BankId(0), chip, Cycle(130)));
        assert_eq!(t.chip(BankId(0), chip).clear_from(Cycle(0)), Cycle(40));
    }

    #[test]
    fn force_free_before_start_erases_whole_window() {
        let mut t = timing();
        t.reserve(BankId(1), ChipSet::single(2), Cycle(50), Cycle(90));
        t.force_free(BankId(1), ChipId(2), Cycle(50));
        assert_eq!(t.next_boundary(Cycle(0)), None);
    }

    #[test]
    fn zero_length_reservation_is_noop() {
        let mut t = timing();
        t.reserve(BankId(0), ChipSet::single(0), Cycle(5), Cycle(5));
        assert!(t.is_free(BankId(0), ChipId(0), Cycle(5)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double-booked")]
    fn double_booking_panics_in_debug() {
        let mut t = timing();
        t.reserve(BankId(0), ChipSet::single(0), Cycle(0), Cycle(50));
        t.reserve(BankId(0), ChipSet::single(0), Cycle(10), Cycle(60));
    }
}

//! The PCMap memory controller: fine-grained writes, RoW, WoW, rotation.
//!
//! Implements §IV of the paper on top of the shared [`CtrlCore`] plumbing:
//!
//! * **Fine-grained writes** — a write touches only the chips holding its
//!   essential words plus the line's ECC and PCC chips. All three phases
//!   are committed at issue: *step 1* programs the essential data chips
//!   with the ECC update running alongside; *step 2* updates the PCC chip
//!   immediately after the data phase (Figure 5(b)). Because the phases
//!   occupy their chips as reservation windows, a fixed ECC/PCC chip
//!   genuinely serializes consecutive writes — the contention the paper
//!   quantifies for the `-NR`/`-RD` systems and removes with ECC/PCC
//!   rotation in `RWoW-RDE`.
//! * **WoW** — additional writes whose chip windows fit are issued
//!   concurrently with in-flight writes (oldest first, §IV-D2 rule 2).
//! * **RoW** — a read with exactly one word-holding chip busy is served by
//!   reading the other seven data chips plus the PCC chip (free during
//!   step 1 by construction) and XOR-reconstructing the missing word;
//!   SECDED verification is deferred to a one-chip read after the busy
//!   chip frees (§IV-B). A read whose word chips are all free but whose
//!   ECC chip is busy is served with the same deferred-verification path.
//! * **Status polling** — any operation overlapped onto a bank with an
//!   in-flight write is charged the 2-cycle `Status` round trip to the
//!   DIMM register first (§IV-D1).
//!
//! One modeling note (see DESIGN.md): the controller is given the essential
//! word set of a queued write at scheduling time (as the paper's scheduler
//! implicitly assumes when it "selects write requests that can be
//! parallelized"); the per-overlap `Status` poll cost is still charged.

use crate::config::SystemKind;
use crate::layout::Layout;
use pcmap_ctrl::controller::{Controller, CtrlCore};
use pcmap_ctrl::op;
use pcmap_ctrl::request::{Completion, MemRequest, ReqId, ReqKind};
use pcmap_ctrl::stats::CtrlStats;
use pcmap_ctrl::BusDir;
use pcmap_device::{PcmRank, RankTiming};
use pcmap_obs::{ChipRole, LifecycleTracer, RecoveryKind, Resource, WaitCause};
use pcmap_types::{
    BankId, ChipId, ChipSet, ColAddr, Cycle, Duration, MemOrg, QueueParams, RowAddr, TimingParams,
    WordMask,
};

/// A write currently occupying chips on a bank (its data phase).
#[derive(Debug, Clone, Copy)]
struct InflightWrite {
    bank: BankId,
    /// End of the data-chip phase (overlap bookkeeping lasts until then).
    data_end: Cycle,
    /// Request id of the write (blocker attribution for the lifecycle
    /// tracer).
    req: u64,
}

/// Which of a bank's chips are busy over one window `[start, end)`, and
/// until when: [`pcmap_device::ChipBankState::blocked_until`] per chip,
/// filled in as candidates ask for chips. Reservations change only when
/// a write issues, which ends the scheduling call, so a summary stays
/// exact for the rest of the call that built it.
#[derive(Debug, Clone, Copy)]
struct WindowSummary {
    bank: BankId,
    start: Cycle,
    end: Cycle,
    /// Chips whose `busy` membership and `ends` entry are filled in.
    known: ChipSet,
    /// Known chips with a reservation overlapping the window.
    busy: ChipSet,
    /// Per busy chip, the latest end of its overlapping reservations.
    ends: [Cycle; ChipId::TOTAL_CHIPS],
}

impl WindowSummary {
    fn new(bank: BankId, start: Cycle, end: Cycle) -> Self {
        Self {
            bank,
            start,
            end,
            known: ChipSet::empty(),
            busy: ChipSet::empty(),
            ends: [Cycle::ZERO; ChipId::TOTAL_CHIPS],
        }
    }

    /// [`RankTiming::blocked_until`] of `chips` over the window: the
    /// latest end among the busy ones, `None` when all are free.
    fn blocked_until(&mut self, timing: &RankTiming, chips: ChipSet) -> Option<Cycle> {
        for c in (chips & !self.known).chips() {
            if let Some(e) = timing
                .chip(self.bank, c)
                .blocked_until(self.start, self.end)
            {
                self.busy.insert_chip(c);
                self.ends[c.index()] = e;
            }
        }
        self.known = self.known | chips;
        (self.busy & chips)
            .chips()
            .map(|c| self.ends[c.index()])
            .max()
    }
}

/// A queued write in the controller's arrival index.
#[derive(Debug, Clone, Copy)]
struct QueuedWrite {
    req: MemRequest,
    /// An older write to the same line is still queued. Same-address
    /// write order must be preserved, so this write is not a candidate
    /// until that one has issued.
    shadowed: bool,
    /// Store generation of the write's bank at which `mask` and `chips`
    /// were computed; `None` before the first evaluation.
    memo_gen: Option<u64>,
    /// The write's essential words against the stored line.
    mask: WordMask,
    /// The data chips holding `mask`.
    chips: ChipSet,
}

/// The PCMap controller for one channel.
///
/// Interchangeable with [`pcmap_ctrl::BaselineController`] through the
/// [`Controller`] trait; construct one per [`SystemKind`] PCMap variant.
#[derive(Debug)]
pub struct PcmapController {
    core: CtrlCore,
    kind: SystemKind,
    layout: Layout,
    /// Writes in their data phase, for blocker attribution in the
    /// lifecycle tracer (and the reference scan's own overlap test).
    // pcmap-lint: allow(missed-wake, reason = "only the tracer's blocker attribution and the test-only reference scan read it; scheduling decisions read inflight_end")
    inflight: Vec<InflightWrite>,
    /// Per bank, the latest data-phase end of any write issued to it:
    /// the bank has a write in flight at `now` exactly when its entry
    /// lies past `now`, and that entry is when the last one ends.
    // pcmap-lint: allow(missed-wake, reason = "every site where an in-flight write blocks a candidate feeds this data_end into note_hint, which compute_wake reads; the pass cannot see that value-level relay")
    inflight_end: Vec<Cycle>,
    /// Extra cycles charged before any overlapped issue (`Status` command);
    /// settable to 0 for the status-poll ablation.
    status_poll: Duration,
    /// Serve RoW-style overlap reads outside drains too (default on:
    /// §IV-B applies RoW to any read arriving during an ongoing write;
    /// disable to restrict to the paper's drain-mode rule 1 only).
    overlap_reads_in_normal: bool,
    /// §IV-B4 extension (ablation, default off): when reads are waiting,
    /// break multi-word writes into serial single-word partial writes so
    /// every phase stays RoW-compatible — at the cost of write latency.
    split_writes_for_row: bool,
    /// Writes currently being issued word-by-word under the split mode,
    /// each with the latest completion of its partial issues so far.
    // pcmap-lint: allow(missed-wake, reason = "a split write stays resident in its write queue until every partial issues, and compute_wake reads queue occupancy; this list only de-duplicates the split bookkeeping")
    split_in_progress: Vec<(ReqId, Cycle)>,
    /// Every queued write, oldest first by `(arrival, id)`: the order in
    /// which [`Self::try_issue_write`] considers them (§IV-D2 rule 2).
    writes: Vec<QueuedWrite>,
    /// Scratch for one write scan: the data-chip window summaries built
    /// so far, cleared at the start of every scan.
    windows: Vec<WindowSummary>,
    /// Test-only: schedule writes with the reference full scan instead
    /// of the index, so the two can be compared step by step.
    #[cfg(test)]
    reference_write_scan: bool,
}

impl PcmapController {
    /// Creates a PCMap controller for one channel.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is [`SystemKind::Baseline`]; use
    /// [`pcmap_ctrl::BaselineController`] for that system.
    pub fn new(kind: SystemKind, org: MemOrg, t: TimingParams, q: QueueParams, seed: u64) -> Self {
        assert!(
            !kind.is_baseline(),
            "use BaselineController for the baseline system"
        );
        let status_poll = Duration(t.status_cmd);
        Self {
            core: CtrlCore::new(org, t, q, seed),
            kind,
            layout: kind.layout(),
            inflight: Vec::new(),
            inflight_end: vec![Cycle::ZERO; usize::from(org.banks)],
            status_poll,
            overlap_reads_in_normal: true,
            split_writes_for_row: false,
            split_in_progress: Vec::new(),
            writes: Vec::new(),
            windows: Vec::new(),
            #[cfg(test)]
            reference_write_scan: false,
        }
    }

    /// Overrides the per-overlap `Status` poll cost (ablation hook).
    pub fn set_status_poll_cost(&mut self, cycles: u64) {
        self.status_poll = Duration(cycles);
        self.core.checker.set_expected_status_poll(cycles);
    }

    /// Enables or disables overlap (RoW-style) reads outside drain mode.
    pub fn set_overlap_reads_in_normal(&mut self, enabled: bool) {
        self.overlap_reads_in_normal = enabled;
    }

    /// Enables the §IV-B4 extension: split multi-word writes into serial
    /// single-word partial writes while reads are waiting, so RoW stays
    /// applicable throughout (ablation; increases write latency).
    pub fn set_split_writes_for_row(&mut self, enabled: bool) {
        self.split_writes_for_row = enabled;
    }

    /// The system variant this controller implements.
    pub fn kind(&self) -> SystemKind {
        self.kind
    }

    /// The layout in force.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    fn has_inflight(&self, bank: BankId, now: Cycle) -> bool {
        self.inflight_end[bank.index()] > now
    }

    fn prune_inflight(&mut self, now: Cycle) {
        self.inflight.retain(|w| w.data_end > now);
    }

    /// Request id of the write currently occupying `bank`, if any
    /// (lifecycle blocker attribution).
    fn inflight_blocker(&self, bank: BankId, now: Cycle) -> Option<u64> {
        self.inflight
            .iter()
            .find(|w| w.bank == bank && w.data_end > now)
            .map(|w| w.req)
    }

    /// Whether this channel's rank is currently demoted to coarse
    /// scheduling (advances the degradation state machine to `now`).
    /// Always `false` without a fault plan.
    fn rank_degraded(&mut self, now: Cycle) -> bool {
        match self.core.faults.as_mut() {
            Some(plan) => plan.is_degraded(now),
            None => false,
        }
    }

    /// Number of Status polls an overlapped issue pays: 1 normally, 2
    /// when the fault plan corrupts the poll response and it must be
    /// repeated (§IV-D1).
    fn poll_count(&mut self) -> u64 {
        let corrupted = match self.core.faults.as_mut() {
            Some(plan) => plan.on_status_poll(),
            None => false,
        };
        if corrupted {
            self.core.stats.faults_injected += 1;
            self.core.stats.faults_status_poll += 1;
            2
        } else {
            1
        }
    }

    /// Adds a newly queued write to the arrival index, keeping
    /// `shadowed` exact for every write to its line.
    fn index_write(&mut self, req: MemRequest) {
        let key = (req.arrival, req.id);
        let pos = self
            .writes
            .partition_point(|w| (w.req.arrival, w.req.id) < key);
        let shadowed = self.writes[..pos].iter().any(|w| w.req.line == req.line);
        for w in &mut self.writes[pos..] {
            if w.req.line == req.line {
                w.shadowed = true;
            }
        }
        self.writes.insert(
            pos,
            QueuedWrite {
                req,
                shadowed,
                memo_gen: None,
                mask: WordMask::empty(),
                chips: ChipSet::empty(),
            },
        );
    }

    /// Takes a finished write out of its bank queue and the arrival index.
    fn dequeue_write(&mut self, req: &MemRequest) {
        self.core.write_qs[req.loc.bank.index()]
            .remove(req.id)
            .expect("write still queued");
        let pos = self
            .writes
            .binary_search_by_key(&(req.arrival, req.id), |w| (w.req.arrival, w.req.id))
            .expect("queued write is indexed");
        let gone = self.writes.remove(pos);
        // The next-oldest write to the line is shadowed exactly when the
        // removed one was: no other write to the line lies between them.
        if let Some(next) = self.writes[pos..]
            .iter_mut()
            .find(|w| w.req.line == gone.req.line)
        {
            next.shadowed = gone.shadowed;
        }
    }

    /// The essential words of indexed write `i` against the stored line,
    /// and the data chips holding them. Memoised per write: the result
    /// stays valid while the bank's store generation is unchanged.
    fn essential_of(&mut self, i: usize) -> (WordMask, ChipSet) {
        let w = &self.writes[i];
        let (bank, row, col) = (w.req.loc.bank, w.req.loc.row, w.req.loc.col);
        let generation = self.core.rank.storage().generation(bank);
        if w.memo_gen == Some(generation) {
            return (w.mask, w.chips);
        }
        let ReqKind::Write { data } = &w.req.kind else {
            unreachable!("the write queues hold only writes")
        };
        let mask = self.core.rank.read_data(bank, row, col).diff_words(data);
        let chips = self.layout.chips_of_mask(w.req.line, mask);
        let e = &mut self.writes[i];
        (e.memo_gen, e.mask, e.chips) = (Some(generation), mask, chips);
        (mask, chips)
    }

    /// Carries the memos of `bank`'s other queued writes across this
    /// controller's own store to `(row, col)`, taken at store generation
    /// `before`. A store changes only the line at its storage location,
    /// so a memo of any other location taken at `before` stays exact
    /// when the store moved the generation by exactly one. Keyed by
    /// location rather than line address: distinct lines can share a
    /// storage slot.
    fn revalidate_memos(&mut self, bank: BankId, row: RowAddr, col: ColAddr, before: u64) {
        let after = self.core.rank.storage().generation(bank);
        if after != before + 1 {
            return;
        }
        for w in &mut self.writes {
            let loc = w.req.loc;
            if loc.bank == bank && w.memo_gen == Some(before) && (loc.row, loc.col) != (row, col) {
                w.memo_gen = Some(after);
            }
        }
    }

    /// Attempts to issue one write (fine-grained, all phases committed):
    /// the oldest queued write whose chips are free. Returns `true` on
    /// issue.
    fn try_issue_write(&mut self, now: Cycle, out: &mut Vec<Completion>) -> bool {
        #[cfg(test)]
        if self.reference_write_scan {
            return self.reference_try_issue_write(now, out);
        }
        let _span = pcmap_prof::span(pcmap_prof::SpanId::CtrlSchedule);
        pcmap_prof::bump(pcmap_prof::Counter::QueueScans);
        let degraded = self.rank_degraded(now);
        // Writes issue while the bus is in write mode (any drain active)
        // or opportunistically after a read-idle window. Otherwise read
        // priority holds back every write; the tracer charges the wait
        // to each line's oldest write.
        if !self.core.any_draining() && !self.core.read_idle(now) {
            if self.core.lifetrace.enabled() {
                for w in self.writes.iter().filter(|w| !w.shadowed) {
                    self.core.lifetrace.blocked(
                        w.req.id.0,
                        now,
                        WaitCause::ReadPriority,
                        Some(Resource::bank(w.req.loc.bank)),
                    );
                }
            }
            return false;
        }
        // The window summaries live for this scan only; the buffer is
        // taken and put back so just its capacity outlives the call.
        let mut windows = std::mem::take(&mut self.windows);
        windows.clear();
        let mut issued = false;
        for i in 0..self.writes.len() {
            if !self.writes[i].shadowed
                && self.try_write_candidate(i, now, degraded, &mut windows, out)
            {
                issued = true;
                break;
            }
        }
        self.windows = windows;
        issued
    }

    /// Issues indexed write `i` if its chips are free; otherwise counts
    /// and traces the conflict and notes when it clears. Returns `true`
    /// on issue.
    fn try_write_candidate(
        &mut self,
        i: usize,
        now: Cycle,
        degraded: bool,
        windows: &mut Vec<WindowSummary>,
        out: &mut Vec<Completion>,
    ) -> bool {
        pcmap_prof::bump(pcmap_prof::Counter::ConstraintChecks);
        // The request is copied only once it issues.
        let (id, bank, line) = {
            let r = &self.writes[i].req;
            (r.id, r.loc.bank, r.line)
        };
        let overlapping = self.has_inflight(bank, now);
        // A degraded rank loses WoW speculation: overlapped writes
        // wait for the in-flight write like the baseline would.
        if overlapping && (!self.kind.wow_enabled() || degraded) {
            // Event horizon: the candidate stays blocked until every
            // in-flight data phase on this bank has ended.
            self.core.note_hint(self.inflight_end[bank.index()]);
            if self.core.lifetrace.enabled() {
                let cause = if degraded && self.kind.wow_enabled() {
                    WaitCause::RankDemoted
                } else {
                    WaitCause::WriteInFlight
                };
                let mut r = Resource::bank(bank);
                if let Some(blocker) = self.inflight_blocker(bank, now) {
                    r = r.blocked_by(blocker);
                }
                self.core.lifetrace.blocked(id.0, now, cause, Some(r));
            }
            return false;
        }
        let polls = if overlapping { self.poll_count() } else { 1 };
        let start = if overlapping {
            now + Duration(self.status_poll.0 * polls)
        } else {
            now
        };
        let (mask, full_chips) = self.essential_of(i);

        if mask.is_empty() {
            // Silent store — or the tail of a split write whose words
            // have all landed.
            let req = self.writes[i].req;
            self.issue_silent_write(&req, now, start, overlapping, polls, out);
            return true;
        }

        // §IV-B4 split mode: with reads waiting, issue one essential
        // word at a time so the bank stays RoW-compatible.
        let full_count = mask.count();
        let splitting = self.split_writes_for_row
            && self.kind.row_enabled()
            && (full_count > 1 || self.split_partials_done(id).is_some())
            && !self.core.read_q.is_empty();
        let (mask, data_chips) = if splitting {
            let single = WordMask::single(mask.first().expect("non-empty"));
            (single, self.layout.chips_of_mask(line, single))
        } else {
            (mask, full_chips)
        };

        // Plan the three phases.
        let program_start = start + Duration(self.core.t.t_wl + self.core.t.burst);
        let upd = op::check_chip_write_occupancy(&self.core.t);
        let worst_end = program_start + Duration(self.core.t.array_set);

        // Availability: data chips and ECC chip over step 1, PCC chip
        // right after the data phase (step 2). Per-word SET/RESET
        // variation is bounded by the worst case. Each window is tested
        // and hinted by one scan: `blocked_until` is `None` exactly when
        // the window is free. The data window is read from this scan's
        // per-(bank, window) summary.
        let timing = self.core.rank.timing();
        let summary = match windows
            .iter()
            .position(|w| w.bank == bank && w.start == start && w.end == worst_end)
        {
            Some(k) => &mut windows[k],
            None => {
                windows.push(WindowSummary::new(bank, start, worst_end));
                windows.last_mut().expect("just pushed")
            }
        };
        let data_blocked = summary.blocked_until(timing, data_chips);
        debug_assert_eq!(
            data_blocked,
            timing.blocked_until(bank, data_chips, start, worst_end),
            "stale window summary"
        );
        if let Some(e) = data_blocked {
            self.core.stats.wr_blocked_data += 1;
            // Event horizon: the window [start, worst_end) shifts
            // rigidly with `now`, so the conflict clears once `start`
            // reaches the last conflicting reservation end.
            self.core.note_hint(Cycle(e.0 - (start.0 - now.0)));
            if self.core.lifetrace.enabled() {
                // Diagnose the first busy chip of the conflicting set.
                let timing = self.core.rank.timing();
                let busy = data_chips
                    .chips()
                    .find(|&c| !timing.chip(bank, c).is_free_during(start, worst_end));
                let mut r = match busy {
                    Some(c) => Resource::chip(bank, c),
                    None => Resource::bank(bank),
                };
                if let Some(b) = self.inflight_blocker(bank, now) {
                    r = r.blocked_by(b);
                }
                self.core
                    .lifetrace
                    .blocked(id.0, now, WaitCause::WowSetConflict, Some(r));
            }
            return false;
        }
        let ecc_chip = self.layout.ecc_chip(line);
        if let Some(e) = timing
            .chip(bank, ecc_chip)
            .blocked_until(start, start + upd)
        {
            self.core.stats.wr_blocked_ecc += 1;
            // Event horizon: ECC update window shifts rigidly with now.
            self.core.note_hint(Cycle(e.0 - (start.0 - now.0)));
            if self.core.lifetrace.enabled() {
                let mut r = Resource::chip(bank, ecc_chip);
                if let Some(b) = self.inflight_blocker(bank, now) {
                    r = r.blocked_by(b);
                }
                self.core
                    .lifetrace
                    .blocked(id.0, now, WaitCause::EccBusy, Some(r));
            }
            return false;
        }
        let pcc_chip = self.layout.pcc_chip(line);
        if let Some(e) = timing
            .chip(bank, pcc_chip)
            .blocked_until(worst_end, worst_end + upd)
        {
            self.core.stats.wr_blocked_pcc += 1;
            // Event horizon: PCC window [worst_end, worst_end + upd)
            // also shifts rigidly with now.
            self.core.note_hint(Cycle(e.0 - (worst_end.0 - now.0)));
            if self.core.lifetrace.enabled() {
                let mut r = Resource::chip(bank, pcc_chip);
                if let Some(b) = self.inflight_blocker(bank, now) {
                    r = r.blocked_by(b);
                }
                self.core
                    .lifetrace
                    .blocked(id.0, now, WaitCause::PccBusy, Some(r));
            }
            return false;
        }

        self.core
            .checker
            .status_poll_n(bank, now, start, overlapping, polls);
        if overlapping {
            self.core
                .checker
                .speculative_on_degraded(bank, start, degraded, "WoW write");
        }
        let req = self.writes[i].req;
        self.issue_fine_write(
            req,
            now,
            mask,
            start,
            program_start,
            overlapping,
            splitting.then_some(full_count),
            out,
        );
        true
    }

    /// The latest completion among the partial issues of split write
    /// `id`, if it is being split.
    fn split_partials_done(&self, id: ReqId) -> Option<Cycle> {
        self.split_in_progress
            .iter()
            .find(|&&(r, _)| r == id)
            .map(|&(_, done)| done)
    }

    /// Retires a write with no essential word: a silent store, or the
    /// tail of a split write whose words have all landed. The tail
    /// completes no earlier than its last partial issue's service.
    fn issue_silent_write(
        &mut self,
        req: &MemRequest,
        now: Cycle,
        start: Cycle,
        overlapping: bool,
        polls: u64,
        out: &mut Vec<Completion>,
    ) {
        let (id, bank) = (req.id, req.loc.bank);
        self.core
            .checker
            .status_poll_n(bank, now, start, overlapping, polls);
        // Nothing to program: the stored line already holds the data.
        self.dequeue_write(req);
        let read_end = start + Duration(self.core.t.array_read);
        let mut done = read_end;
        if let Some(pos) = self.split_in_progress.iter().position(|&(r, _)| r == id) {
            done = done.max(self.split_in_progress.swap_remove(pos).1);
        } else {
            self.core.stats.essential_histogram[0] += 1;
            self.core.stats.silent_writes += 1;
        }
        self.core.stats.irlp.open_window(bank, start, read_end);
        self.core.lifetrace.issue(id.0, now, start, done);
        self.complete_write(req, bank, done, out);
    }

    #[allow(clippy::too_many_arguments)]
    fn issue_fine_write(
        &mut self,
        req: MemRequest,
        now: Cycle,
        mask: WordMask,
        start: Cycle,
        program_start: Cycle,
        overlapping: bool,
        split_of: Option<usize>,
        out: &mut Vec<Completion>,
    ) {
        pcmap_prof::bump(pcmap_prof::Counter::CommandsIssued);
        let ReqKind::Write { data } = req.kind else {
            unreachable!("checked by caller")
        };
        let bank = req.loc.bank;
        let partial = split_of.is_some();
        if !partial {
            self.dequeue_write(&req);
        }

        let (row, col) = (req.loc.row, req.loc.col);
        let generation = self.core.rank.storage().generation(bank);
        let outcome = self.core.rank.write_words(bank, row, col, data, mask);
        debug_assert_eq!(outcome.essential, mask);
        self.revalidate_memos(bank, row, col, generation);
        match split_of {
            None => {
                if let Some(pos) = self
                    .split_in_progress
                    .iter()
                    .position(|&(r, _)| r == req.id)
                {
                    // Tail of a split write issued whole: already counted.
                    self.split_in_progress.swap_remove(pos);
                } else {
                    self.core.stats.essential_histogram[outcome.essential.count()] += 1;
                }
            }
            Some(full) => {
                // First partial issue of a split write: histogram it once
                // with its original word count.
                if self.split_partials_done(req.id).is_none() {
                    self.core.stats.essential_histogram[full.min(8)] += 1;
                    self.split_in_progress.push((req.id, Cycle::ZERO));
                }
            }
        }
        if overlapping {
            self.core.stats.wow_overlaps += 1;
        }

        // Step 1: data chips + ECC chip.
        let upd = op::check_chip_write_occupancy(&self.core.t);
        let data_end = program_start + Duration(self.core.t.array_set);
        for w in outcome.essential.iter() {
            let chip = self.layout.chip_of_word(req.line, w);
            let end = program_start + outcome.kinds[w].duration(&self.core.t);
            self.core.checker.command(
                self.core.rank.timing(),
                bank,
                ChipSet::single(chip.index()),
                start,
                end,
                "write data chip",
            );
            self.core
                .rank
                .timing_mut()
                .reserve(bank, ChipSet::single(chip.index()), start, end);
            self.core.stats.irlp.record_segment(bank, start, end);
            self.core
                .rank
                .wear_mut()
                .record(chip, outcome.bits_per_word[w]);
        }
        let ecc_chip = self.layout.ecc_chip(req.line);
        let ecc_end = start + upd;
        self.core.checker.command(
            self.core.rank.timing(),
            bank,
            ChipSet::single(ecc_chip.index()),
            start,
            ecc_end,
            "write ECC chip",
        );
        self.core.rank.timing_mut().reserve(
            bank,
            ChipSet::single(ecc_chip.index()),
            start,
            ecc_end,
        );
        self.core.rank.wear_mut().record(ecc_chip, 8);
        self.core.rank.energy_mut().record_write(4, 4);

        // Step 2: PCC update immediately after the data phase.
        let pcc_chip = self.layout.pcc_chip(req.line);
        let pcc_end = data_end + upd;
        self.core.checker.write_steps(bank, program_start, data_end);
        self.core.checker.command(
            self.core.rank.timing(),
            bank,
            ChipSet::single(pcc_chip.index()),
            data_end,
            pcc_end,
            "write PCC chip",
        );
        self.core.rank.timing_mut().reserve(
            bank,
            ChipSet::single(pcc_chip.index()),
            data_end,
            pcc_end,
        );
        self.core.rank.wear_mut().record(pcc_chip, 8);
        self.core.rank.energy_mut().record_write(4, 4);

        // Fault hooks (inert without a plan): this write may burn out a
        // cell, and one essential chip may run slow or hang. A slow chip
        // stretches the data phase, so completion waits for it.
        self.core
            .plant_wear_fault(bank, req.loc.row, req.loc.col, start);
        let data_set = self.layout.chips_of_mask(req.line, outcome.essential);
        let fault_end = self.core.apply_chip_fault(bank, data_set, start, data_end);

        let done = pcc_end.max(fault_end);
        if self.core.lifetrace.enabled() {
            // Service covers step 1 + step 2 (+ any fault stretch); the
            // chip windows below carry the per-phase detail.
            self.core.lifetrace.issue(req.id.0, now, start, done);
            let data = outcome.essential.iter().map(|w| {
                let end = program_start + outcome.kinds[w].duration(&self.core.t);
                (
                    self.layout.chip_of_word(req.line, w),
                    ChipRole::Data,
                    start,
                    end,
                )
            });
            let updates = [
                (ecc_chip, ChipRole::EccUpdate, start, ecc_end),
                (pcc_chip, ChipRole::PccUpdate, data_end, pcc_end),
            ];
            for (chip, role, start, end) in data.chain(updates) {
                self.core
                    .lifetrace
                    .chip_service(req.id.0, bank, chip, role, start, end);
            }
        }
        self.core.stats.irlp.open_window(bank, start, data_end);
        self.inflight.push(InflightWrite {
            bank,
            data_end,
            req: req.id.0,
        });
        let end = &mut self.inflight_end[bank.index()];
        *end = (*end).max(data_end);
        if partial {
            let entry = self
                .split_in_progress
                .iter_mut()
                .find(|(r, _)| *r == req.id)
                .expect("split write is tracked");
            entry.1 = entry.1.max(done);
        } else {
            self.complete_write(&req, bank, done, out);
        }
    }

    fn complete_write(
        &mut self,
        req: &MemRequest,
        bank: BankId,
        done: Cycle,
        out: &mut Vec<Completion>,
    ) {
        self.core.stats.record_write_done(done);
        self.core.lifetrace.complete(req.id.0, done);
        let lw = &mut self.core.last_write_end[bank.index()];
        *lw = (*lw).max(done);
        out.push(Completion {
            id: req.id,
            core: req.core,
            is_read: false,
            arrival: req.arrival,
            done,
            via_row: false,
            verify_done: None,
            forwarded: false,
            failed: false,
            corrupted: false,
        });
    }

    /// Attempts to issue one read.
    ///
    /// Per-bank gating: plain fully-checked reads issue to banks that are
    /// not draining; RoW-style overlap reads (PCC reconstruction or
    /// deferred verification — the paper's scheduler rule 1) issue to
    /// draining banks with an in-flight write. `plain_allowed` and
    /// `overlap_everywhere` are ablation hooks.
    fn try_issue_read(
        &mut self,
        now: Cycle,
        plain_allowed: bool,
        overlap_everywhere: bool,
    ) -> Option<Completion> {
        let _span = pcmap_prof::span(pcmap_prof::SpanId::CtrlSchedule);
        pcmap_prof::bump(pcmap_prof::Counter::QueueScans);
        let degraded = self.rank_degraded(now);
        // Neither the read queue nor the drain states change until a read
        // issues, which ends the call.
        let bus_write_mode = self.core.any_draining();
        // Plain reads need the bus in read mode; overlap (RoW) reads
        // ride the sub-ranked lanes and work either way — during
        // drains they are the only way a read gets served (rule 1).
        let plain_ok = plain_allowed && !bus_write_mode;
        for pos in 0..self.core.read_q.len() {
            pcmap_prof::bump(pcmap_prof::Counter::ConstraintChecks);
            let req = *self.core.read_q.get(pos).expect("still queued");
            let bank = req.loc.bank;
            let overlapping = self.has_inflight(bank, now);
            let overlap_ok = (bus_write_mode || overlap_everywhere) && overlapping;
            if !plain_ok && !overlap_ok {
                if bus_write_mode && self.core.lifetrace.enabled() {
                    // Drain episode holds the bus in write mode and no
                    // in-flight write offers an overlap lane.
                    self.core.lifetrace.blocked(
                        req.id.0,
                        now,
                        WaitCause::Drain,
                        Some(Resource::bank(bank)),
                    );
                }
                continue;
            }
            let polls = if overlapping { self.poll_count() } else { 1 };
            let start = if overlapping {
                now + Duration(self.status_poll.0 * polls)
            } else {
                now
            };
            let word_chips = self.layout.word_chips(req.line);
            let ecc_chip = self.layout.ecc_chip(req.line);
            let pcc_chip = self.layout.pcc_chip(req.line);

            // Exact read window: peek the bus without committing.
            let row_set = {
                let mut s = word_chips;
                s.insert_chip(ecc_chip);
                s
            };
            let row_hit = self
                .core
                .rank
                .timing()
                .chips_needing_activate(bank, row_set, req.loc.row)
                .is_empty();
            let to_transfer = op::read_latency_to_transfer(row_hit, &self.core.t);
            let transfer = self
                .core
                .bus
                .next_slot(BusDir::Read, start + to_transfer, &self.core.t);
            let data_ready = transfer + Duration(self.core.t.burst);

            // One scan per chip: `blocked_until` is `None` exactly when
            // the chip is free over the read window, and otherwise the
            // cycle its conflict clears.
            let timing = self.core.rank.timing();
            let mut busy_words = ChipSet::empty();
            let mut words_clear: Option<Cycle> = None;
            for c in word_chips.chips() {
                if let Some(e) = timing.chip(bank, c).blocked_until(start, data_ready) {
                    busy_words.insert_chip(c);
                    words_clear = Some(words_clear.map_or(e, |w| w.min(e)));
                }
            }
            let ecc_clear = timing.chip(bank, ecc_chip).blocked_until(start, data_ready);
            let ecc_free = ecc_clear.is_none();
            let pcc_clear = timing.chip(bank, pcc_chip).blocked_until(start, data_ready);

            match busy_words.count() {
                0 if ecc_free => {
                    let mut set = word_chips;
                    set.insert_chip(ecc_chip);
                    self.core
                        .checker
                        .status_poll_n(bank, now, start, overlapping, polls);
                    return Some(self.issue_read(req, now, start, data_ready, set, None, None));
                }
                0 if self.kind.row_enabled() && !degraded => {
                    self.core.stats.reads_deferred_only += 1;
                    // Words readable but only the ECC chip is busy: read
                    // now, defer the SECDED check. Profitable in every
                    // mode — the data is fully available.
                    self.core
                        .checker
                        .status_poll_n(bank, now, start, overlapping, polls);
                    self.core.checker.speculative_on_degraded(
                        bank,
                        start,
                        degraded,
                        "deferred-verify read",
                    );
                    return Some(self.issue_read(
                        req,
                        now,
                        start,
                        data_ready,
                        word_chips,
                        Some(ecc_chip),
                        None,
                    ));
                }
                1 if self.kind.row_enabled() && !degraded && overlap_ok && pcc_clear.is_none() => {
                    let missing = busy_words.chips().next().expect("one busy chip");
                    let mut set = word_chips;
                    set.remove(missing.index());
                    set.insert_chip(pcc_chip);
                    // If the line's own ECC chip is free (common under
                    // ECC/PCC rotation: the busy chips belong to another
                    // line's layout), read it too — the reconstructed
                    // word's check byte validates it immediately, so no
                    // deferred verify and no rollback exposure.
                    let deferred = if ecc_free {
                        set.insert_chip(ecc_chip);
                        None
                    } else {
                        Some(ecc_chip)
                    };
                    self.core
                        .checker
                        .status_poll_n(bank, now, start, overlapping, polls);
                    self.core.checker.speculative_on_degraded(
                        bank,
                        start,
                        degraded,
                        "RoW reconstruction",
                    );
                    return Some(self.issue_read(
                        req,
                        now,
                        start,
                        data_ready,
                        set,
                        deferred,
                        Some(missing),
                    ));
                }
                1 if self.kind.row_enabled() && !degraded && overlap_ok => {
                    self.core.stats.row_blocked_pcc_busy += 1;
                    // Event horizon: reconstruction waits on the PCC chip;
                    // its read window shifts rigidly with now.
                    if let Some(e) = pcc_clear {
                        self.core.note_hint(Cycle(e.0 - (start.0 - now.0)));
                    }
                    if self.core.lifetrace.enabled() {
                        let mut r = Resource::chip(bank, pcc_chip);
                        if let Some(b) = self.inflight_blocker(bank, now) {
                            r = r.blocked_by(b);
                        }
                        self.core
                            .lifetrace
                            .blocked(req.id.0, now, WaitCause::PccBusy, Some(r));
                    }
                    continue;
                }
                n => {
                    // Event horizon: the read waits on whichever blocking
                    // chip frees first (busy word chips, or the line's ECC
                    // chip when no word chip is busy).
                    if let Some(e) = if n == 0 { ecc_clear } else { words_clear } {
                        self.core.note_hint(Cycle(e.0 - (start.0 - now.0)));
                    }
                    let first_busy = busy_words.chips().next();
                    if n >= 2 && self.kind.row_enabled() {
                        self.core.stats.row_blocked_multi_busy += 1;
                        if self.core.lifetrace.enabled() {
                            let mut r = Resource::chip(bank, first_busy.expect("busy chips"));
                            if let Some(b) = self.inflight_blocker(bank, now) {
                                r = r.blocked_by(b);
                            }
                            self.core.lifetrace.blocked(
                                req.id.0,
                                now,
                                WaitCause::MultiBusy,
                                Some(r),
                            );
                        }
                    } else if self.core.lifetrace.enabled() {
                        // RoW off, rank demoted, or a busy chip the scheme
                        // cannot route around: the read waits on the
                        // in-flight write. With zero busy word chips the
                        // obstacle is the line's ECC chip.
                        let cause = if degraded && self.kind.row_enabled() {
                            WaitCause::RankDemoted
                        } else if n == 0 && !ecc_free {
                            WaitCause::EccBusy
                        } else {
                            WaitCause::WriteInFlight
                        };
                        let mut r = match first_busy {
                            Some(c) => Resource::chip(bank, c),
                            None if !ecc_free => Resource::chip(bank, ecc_chip),
                            None => Resource::bank(bank),
                        };
                        if let Some(b) = self.inflight_blocker(bank, now) {
                            r = r.blocked_by(b);
                        }
                        self.core.lifetrace.blocked(req.id.0, now, cause, Some(r));
                    }
                    continue;
                }
            }
        }
        None
    }

    /// Issues a read over `read_set`. `deferred_ecc` is the line's ECC chip
    /// when inline checking is impossible (verification is deferred);
    /// `reconstructed` is the busy data chip whose word is rebuilt from the
    /// PCC chip.
    #[allow(clippy::too_many_arguments)]
    fn issue_read(
        &mut self,
        req: MemRequest,
        decided: Cycle,
        start: Cycle,
        data_ready: Cycle,
        read_set: ChipSet,
        deferred_ecc: Option<ChipId>,
        reconstructed: Option<ChipId>,
    ) -> Completion {
        pcmap_prof::bump(pcmap_prof::Counter::CommandsIssued);
        self.core.read_q.remove(req.id).expect("read still queued");
        let bank = req.loc.bank;

        // Commit bus and chips (data_ready was computed from next_slot, so
        // this reserve lands exactly there).
        let transfer = self.core.bus.reserve(
            BusDir::Read,
            Cycle(data_ready.0 - self.core.t.burst),
            &self.core.t,
        );
        debug_assert_eq!(transfer + Duration(self.core.t.burst), data_ready);
        self.core.checker.row_read(
            bank,
            start,
            self.layout.word_chips(req.line),
            read_set,
            self.layout.pcc_chip(req.line),
        );
        self.core.checker.command(
            self.core.rank.timing(),
            bank,
            read_set,
            start,
            data_ready,
            "read",
        );
        self.core
            .rank
            .timing_mut()
            .reserve(bank, read_set, start, data_ready);
        self.core
            .rank
            .timing_mut()
            .open_row(bank, read_set, req.loc.row);

        // Functional read; reconstruction check when applicable.
        self.core
            .rank
            .energy_mut()
            .record_read(read_set.count() as u64 * 64);
        let stored = self.core.rank.read_line(bank, req.loc.row, req.loc.col);
        let codec = self.core.rank.storage().codec();
        if let Some(missing_chip) = reconstructed {
            let missing_word = self
                .layout
                .word_on_chip(req.line, missing_chip)
                .expect("busy chip must hold a data word of this line");
            let mut partial = stored.data;
            partial.set_word(missing_word, 0);
            let rebuilt = codec.reconstruct(&partial, missing_word, stored.pcc);
            debug_assert_eq!(
                rebuilt, stored.data,
                "XOR reconstruction must match storage"
            );
        }

        let via_row = deferred_ecc.is_some() || reconstructed.is_some();
        if via_row {
            self.core.stats.reads_via_row += 1;
        }
        let mut verify_span: Option<(ChipSet, Cycle, Cycle)> = None;
        let verify_done = if deferred_ecc.is_some() {
            // Deferred verify: one-chip read on the busy data chip (if
            // any) plus the ECC chip, once both are completely free.
            let mut verify_set = ChipSet::empty();
            if let Some(e) = deferred_ecc {
                verify_set.insert_chip(e);
            }
            if let Some(c) = reconstructed {
                verify_set.insert_chip(c);
            }
            debug_assert!(!verify_set.is_empty());
            let vs = self
                .core
                .rank
                .timing()
                .free_at(bank, verify_set, data_ready);
            let ve = vs + op::verify_read_occupancy(&self.core.t);
            self.core.checker.command(
                self.core.rank.timing(),
                bank,
                verify_set,
                vs,
                ve,
                "deferred verify",
            );
            self.core
                .rank
                .timing_mut()
                .reserve(bank, verify_set, vs, ve);
            self.core.stats.row_verifies += 1;
            verify_span = Some((verify_set, vs, ve));
            Some(ve)
        } else {
            None
        };

        // SECDED check (inline or at the deferred verify) and, under fault
        // injection, the correction/reconstruction/retry pipeline. When the
        // check is deferred, corrupt data has already been handed upward;
        // the resolution flags it so the CPU rolls back at `verify_done`.
        let res =
            self.core
                .resolve_read(bank, req.loc.row, req.loc.col, start, verify_done.is_some());
        let service_end = data_ready;
        let data_ready = data_ready + res.extra;

        if self.core.lifetrace.enabled() {
            self.core
                .lifetrace
                .issue(req.id.0, decided, start, service_end);
            let data = read_set
                .chips()
                .map(|chip| (chip, ChipRole::Data, start, data_ready));
            let verify = verify_span.into_iter().flat_map(|(set, vs, ve)| {
                set.chips()
                    .map(move |chip| (chip, ChipRole::Verify, vs, ve))
            });
            for (chip, role, start, end) in data.chain(verify) {
                self.core
                    .lifetrace
                    .chip_service(req.id.0, bank, chip, role, start, end);
            }
            if res.reconstruct_extra.0 > 0 {
                self.core.lifetrace.recovery(
                    req.id.0,
                    RecoveryKind::Reconstruct,
                    service_end + res.reconstruct_extra,
                );
            }
            if res.retry_extra.0 > 0 {
                self.core
                    .lifetrace
                    .recovery(req.id.0, RecoveryKind::Retry, data_ready);
            }
            if res.failed {
                self.core.lifetrace.failed(req.id.0);
            }
            self.core.lifetrace.complete(req.id.0, data_ready);
        }

        if self.core.read_was_delayed(bank, req.arrival, start) {
            self.core.stats.reads_delayed_by_write += 1;
        }
        self.core.stats.reads_done += 1;
        self.core.stats.read_latency_sum += data_ready.since(req.arrival);
        self.core
            .stats
            .read_latency_hist
            .record(data_ready.since(req.arrival).as_u64());
        for chip in read_set.chips() {
            // IRLP: only the eight word-serving chips count (exclude the
            // ECC chip on plain reads).
            if self.layout.ecc_chip(req.line) != chip {
                self.core.stats.irlp.record_segment(bank, start, data_ready);
            }
        }

        self.core
            .checker
            .retire(bank, via_row, data_ready, verify_done);
        Completion {
            id: req.id,
            core: req.core,
            is_read: true,
            arrival: req.arrival,
            done: data_ready,
            via_row,
            verify_done,
            forwarded: false,
            failed: res.failed,
            corrupted: res.corrupted,
        }
    }
}

#[cfg(test)]
impl PcmapController {
    /// The reference write scan: the same decision as
    /// [`Self::try_issue_write`], rebuilt from scratch on every call. It
    /// gathers and sorts every queued write, hides lines with a skipped
    /// write, tests the read-priority gate per write, scans `inflight`
    /// for overlap, peeks the stored line for every candidate and tests
    /// each chip window twice against the timing model directly. It
    /// uses none of the scan's shortcuts: no per-bank in-flight horizon,
    /// no window summary, no essential-mask memo.
    fn reference_try_issue_write(&mut self, now: Cycle, out: &mut Vec<Completion>) -> bool {
        let _span = pcmap_prof::span(pcmap_prof::SpanId::CtrlSchedule);
        pcmap_prof::bump(pcmap_prof::Counter::QueueScans);
        let degraded = self.rank_degraded(now);
        let mut order: Vec<(Cycle, ReqId, usize, usize)> = Vec::new();
        for (bank, q) in self.core.write_qs.iter().enumerate() {
            order.extend(
                q.iter()
                    .enumerate()
                    .map(|(pos, r)| (r.arrival, r.id, bank, pos)),
            );
        }
        // Oldest first by (arrival, id); bank and queue position break
        // ties in gathering order, as a stable sort of the requests would.
        order.sort_unstable();
        self.reference_issue_oldest_write(now, degraded, &order, out)
    }

    /// Visits the queued writes in `order` and issues the first one whose
    /// chips are free. Returns `true` on issue.
    fn reference_issue_oldest_write(
        &mut self,
        now: Cycle,
        degraded: bool,
        order: &[(Cycle, ReqId, usize, usize)],
        out: &mut Vec<Completion>,
    ) -> bool {
        let mut skipped_lines: Vec<pcmap_types::LineAddr> = Vec::new();
        for &(_, _, q, pos) in order {
            let req = *self.core.write_qs[q].get(pos).expect("queued write");
            // Same-address write order must be preserved: once an older
            // write to a line is skipped, newer writes to that line may
            // not jump it.
            if skipped_lines.contains(&req.line) {
                continue;
            }
            pcmap_prof::bump(pcmap_prof::Counter::ConstraintChecks);
            let id = req.id;
            let bank = req.loc.bank;
            // Writes issue while the bus is in write mode (any drain
            // active) or opportunistically after a read-idle window.
            if !self.core.any_draining() && !self.core.read_idle(now) {
                if self.core.lifetrace.enabled() {
                    self.core.lifetrace.blocked(
                        id.0,
                        now,
                        WaitCause::ReadPriority,
                        Some(Resource::bank(bank)),
                    );
                }
                skipped_lines.push(req.line);
                continue;
            }
            let overlapping = self
                .inflight
                .iter()
                .any(|w| w.bank == bank && w.data_end > now);
            // A degraded rank loses WoW speculation: overlapped writes
            // wait for the in-flight write like the baseline would.
            if overlapping && (!self.kind.wow_enabled() || degraded) {
                // Event horizon: the candidate stays blocked until every
                // in-flight data phase on this bank has ended.
                if let Some(t) = self
                    .inflight
                    .iter()
                    .filter(|w| w.bank == bank && w.data_end > now)
                    .map(|w| w.data_end)
                    .max()
                {
                    self.core.note_hint(t);
                }
                if self.core.lifetrace.enabled() {
                    let cause = if degraded && self.kind.wow_enabled() {
                        WaitCause::RankDemoted
                    } else {
                        WaitCause::WriteInFlight
                    };
                    let mut r = Resource::bank(bank);
                    if let Some(blocker) = self.inflight_blocker(bank, now) {
                        r = r.blocked_by(blocker);
                    }
                    self.core.lifetrace.blocked(id.0, now, cause, Some(r));
                }
                skipped_lines.push(req.line);
                continue;
            }
            let polls = if overlapping { self.poll_count() } else { 1 };
            let start = if overlapping {
                now + Duration(self.status_poll.0 * polls)
            } else {
                now
            };
            let ReqKind::Write { data } = req.kind else {
                continue;
            };

            // Peek the essential set without mutating storage.
            let stored = self.core.rank.read_data(bank, req.loc.row, req.loc.col);
            let mask = stored.diff_words(&data);

            if mask.is_empty() {
                // Silent store — or the tail of a split write whose words
                // have all landed.
                self.issue_silent_write(&req, now, start, overlapping, polls, out);
                return true;
            }

            // §IV-B4 split mode: with reads waiting, issue one essential
            // word at a time so the bank stays RoW-compatible.
            let full_count = mask.count();
            let mut mask = mask;
            let splitting = self.split_writes_for_row
                && self.kind.row_enabled()
                && (full_count > 1 || self.split_partials_done(id).is_some())
                && !self.core.read_q.is_empty();
            if splitting {
                mask = WordMask::single(mask.first().expect("non-empty"));
            }

            // Plan the three phases.
            let program_start = start + Duration(self.core.t.t_wl + self.core.t.burst);
            let upd = op::check_chip_write_occupancy(&self.core.t);
            let worst_end = program_start + Duration(self.core.t.array_set);

            // Availability: data chips and ECC chip over step 1, PCC chip
            // right after the data phase (step 2). Per-word SET/RESET
            // variation is bounded by the worst case.
            let timing = self.core.rank.timing();
            let data_chips = self.layout.chips_of_mask(req.line, mask);
            if !timing.set_free_during(bank, data_chips, start, worst_end) {
                self.core.stats.wr_blocked_data += 1;
                // Event horizon: the window [start, worst_end) shifts
                // rigidly with `now`, so the conflict clears once `start`
                // reaches the last conflicting reservation end.
                if let Some(e) = timing.blocked_until(bank, data_chips, start, worst_end) {
                    self.core.retry_hint = Some(match self.core.retry_hint {
                        Some(h) => h.min(Cycle(e.0 - (start.0 - now.0))),
                        None => Cycle(e.0 - (start.0 - now.0)),
                    });
                }
                if self.core.lifetrace.enabled() {
                    // Diagnose the first busy chip of the conflicting set.
                    let busy = data_chips
                        .chips()
                        .find(|&c| !timing.chip(bank, c).is_free_during(start, worst_end));
                    let mut r = match busy {
                        Some(c) => Resource::chip(bank, c),
                        None => Resource::bank(bank),
                    };
                    if let Some(b) = self.inflight_blocker(bank, now) {
                        r = r.blocked_by(b);
                    }
                    self.core
                        .lifetrace
                        .blocked(id.0, now, WaitCause::WowSetConflict, Some(r));
                }
                skipped_lines.push(req.line);
                continue;
            }
            let ecc_chip = self.layout.ecc_chip(req.line);
            let ecc_end = start + upd;
            if !timing.chip(bank, ecc_chip).is_free_during(start, ecc_end) {
                self.core.stats.wr_blocked_ecc += 1;
                // Event horizon: ECC update window shifts rigidly with now.
                if let Some(e) = timing.chip(bank, ecc_chip).blocked_until(start, ecc_end) {
                    self.core.retry_hint = Some(match self.core.retry_hint {
                        Some(h) => h.min(Cycle(e.0 - (start.0 - now.0))),
                        None => Cycle(e.0 - (start.0 - now.0)),
                    });
                }
                if self.core.lifetrace.enabled() {
                    let mut r = Resource::chip(bank, ecc_chip);
                    if let Some(b) = self.inflight_blocker(bank, now) {
                        r = r.blocked_by(b);
                    }
                    self.core
                        .lifetrace
                        .blocked(id.0, now, WaitCause::EccBusy, Some(r));
                }
                skipped_lines.push(req.line);
                continue;
            }
            let pcc_chip = self.layout.pcc_chip(req.line);
            if !timing
                .chip(bank, pcc_chip)
                .is_free_during(worst_end, worst_end + upd)
            {
                self.core.stats.wr_blocked_pcc += 1;
                // Event horizon: PCC window [worst_end, worst_end + upd)
                // also shifts rigidly with now.
                if let Some(e) = timing
                    .chip(bank, pcc_chip)
                    .blocked_until(worst_end, worst_end + upd)
                {
                    self.core.retry_hint = Some(match self.core.retry_hint {
                        Some(h) => h.min(Cycle(e.0 - (worst_end.0 - now.0))),
                        None => Cycle(e.0 - (worst_end.0 - now.0)),
                    });
                }
                if self.core.lifetrace.enabled() {
                    let mut r = Resource::chip(bank, pcc_chip);
                    if let Some(b) = self.inflight_blocker(bank, now) {
                        r = r.blocked_by(b);
                    }
                    self.core
                        .lifetrace
                        .blocked(id.0, now, WaitCause::PccBusy, Some(r));
                }
                skipped_lines.push(req.line);
                continue;
            }

            self.core
                .checker
                .status_poll_n(bank, now, start, overlapping, polls);
            if overlapping {
                self.core
                    .checker
                    .speculative_on_degraded(bank, start, degraded, "WoW write");
            }
            self.issue_fine_write(
                req,
                now,
                mask,
                start,
                program_start,
                overlapping,
                splitting.then_some(full_count),
                out,
            );
            return true;
        }
        false
    }
}

impl Controller for PcmapController {
    fn enqueue_read(
        &mut self,
        req: MemRequest,
        now: Cycle,
    ) -> Result<Option<Completion>, MemRequest> {
        self.core.enqueue_read_common(req, now)
    }

    fn enqueue_write(&mut self, req: MemRequest, _now: Cycle) -> Result<(), MemRequest> {
        self.core.enqueue_write_common(req)?;
        self.index_write(req);
        Ok(())
    }

    fn step(&mut self, now: Cycle) -> Vec<Completion> {
        if !self.core.step_due(now) {
            // Not due yet: a step here is defined to be a no-op, which is
            // what lets the run loop skip it entirely.
            return Vec::new();
        }
        let _span = pcmap_prof::span(pcmap_prof::SpanId::CtrlStep);
        let mut out = Vec::new();
        let banks = self.core.org.banks;
        self.core.service_watchdogs(now);
        loop {
            let mut issued = false;
            self.core.begin_pass();
            // Refresh per-bank drain states.
            for b in 0..banks {
                self.core.update_drain(BankId(b), now);
            }
            // Reads: plain to non-draining banks; overlap (rule 1) to
            // draining banks; optionally overlap everywhere (ablation).
            if let Some(c) = self.try_issue_read(now, true, self.overlap_reads_in_normal) {
                out.push(c);
                issued = true;
            }
            // Writes: drain-eligible or opportunistic banks (rule 2).
            if self.try_issue_write(now, &mut out) {
                issued = true;
            }
            if !issued {
                break;
            }
        }
        self.prune_inflight(now);
        self.core.stats.irlp.settle(now);
        self.core.rank.timing_mut().prune(now);
        self.core.sync_fault_stats(now);
        self.core.compute_wake(now);
        out
    }

    fn next_tick(&self) -> Option<Cycle> {
        self.core.wake
    }

    fn read_q_len(&self) -> usize {
        self.core.read_q.len()
    }

    fn write_q_len(&self) -> usize {
        self.core.write_q_len_total()
    }

    fn write_q_capacity(&self) -> usize {
        self.core.write_qs[0].capacity()
    }

    fn stats(&self) -> &CtrlStats {
        &self.core.stats
    }

    fn rank(&self) -> &PcmRank {
        &self.core.rank
    }

    fn rank_mut(&mut self) -> &mut PcmRank {
        &mut self.core.rank
    }

    fn lifetrace(&self) -> &LifecycleTracer {
        &self.core.lifetrace
    }

    fn set_lifetrace(&mut self, enabled: bool) {
        self.core.lifetrace.set_enabled(enabled);
    }

    fn settle(&mut self, now: Cycle) {
        self.core.stats.irlp.settle(now);
    }

    fn drains_started(&self) -> u64 {
        self.core.drains_started_total()
    }

    fn invariants_checked(&self) -> u64 {
        self.core.checker.checked()
    }

    fn invariant_violations(&self) -> u64 {
        self.core.checker.violation_count()
    }

    fn note_rollback(&mut self, at: Cycle, via_row: bool, had_deferred: bool) {
        self.core
            .checker
            .rollback(BankId(0), at, via_row, had_deferred);
    }

    fn set_fault_plan(&mut self, plan: Option<pcmap_faults::FaultPlan>) {
        self.core.faults = plan;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmap_ctrl::request::ReqKind;
    use pcmap_faults::FaultPlan;
    use pcmap_types::{CacheLine, CoreId, FaultConfig, PhysAddr, Xoshiro256};
    use proptest::prelude::*;

    fn ctrl(kind: SystemKind) -> PcmapController {
        let mut c = PcmapController::new(
            kind,
            MemOrg::tiny(),
            TimingParams::paper_default(),
            QueueParams::paper_default(),
            3,
        );
        // Small scenarios exercise the overlap paths outside drains.
        c.set_overlap_reads_in_normal(true);
        c
    }

    fn read_req(id: u64, addr: u64, now: Cycle) -> MemRequest {
        let org = MemOrg::tiny();
        let a = PhysAddr::new(addr);
        MemRequest {
            id: ReqId(id),
            kind: ReqKind::Read,
            line: a.line(),
            loc: org.decode(a),
            core: CoreId(0),
            arrival: now,
        }
    }

    fn write_req(
        c: &PcmapController,
        id: u64,
        addr: u64,
        words: &[usize],
        now: Cycle,
    ) -> MemRequest {
        let a = PhysAddr::new(addr);
        let loc = c.core.org.decode(a);
        let old = c.rank().read_line(loc.bank, loc.row, loc.col).data;
        let mut data = old;
        for &w in words {
            data.set_word(w, !old.word(w));
        }
        MemRequest {
            id: ReqId(id),
            kind: ReqKind::Write { data },
            line: a.line(),
            loc,
            core: CoreId(0),
            arrival: now,
        }
    }

    /// Runs the controller until both queues drain, collecting completions.
    fn run_to_idle(c: &mut PcmapController, mut now: Cycle) -> Vec<Completion> {
        let mut out = c.step(now);
        while let Some(w) = c.next_wake(now) {
            now = w;
            out.extend(c.step(now));
            if now.0 > 1_000_000 {
                panic!("controller failed to go idle");
            }
        }
        out
    }

    #[test]
    #[should_panic(expected = "BaselineController")]
    fn baseline_kind_rejected() {
        let _ = ctrl(SystemKind::Baseline);
    }

    #[test]
    fn fine_write_reserves_only_essential_and_check_chips() {
        let mut c = ctrl(SystemKind::RwowNr);
        let w = write_req(&c, 1, 0, &[3], Cycle(0));
        let bank = w.loc.bank;
        c.enqueue_write(w, Cycle(0)).unwrap();
        c.step(Cycle(0));
        let t = c.rank().timing();
        // Chip 3 (the essential word) and the ECC chip are busy in step 1;
        // all other data chips stay free.
        assert!(!t.is_free(bank, ChipId(3), Cycle(10)));
        assert!(!t.is_free(bank, ChipId::ECC, Cycle(10)));
        for free in [0u8, 1, 2, 4, 5, 6, 7] {
            assert!(
                t.is_free(bank, ChipId(free), Cycle(10)),
                "chip {free} must stay free"
            );
        }
        // The PCC chip is free during step 1 and busy in step 2.
        assert!(t.is_free(bank, ChipId::PCC, Cycle(10)));
        let tp = TimingParams::paper_default();
        let step2 = tp.t_wl + tp.burst + tp.array_set + 5;
        assert!(!t.is_free(bank, ChipId::PCC, Cycle(step2)));
    }

    #[test]
    fn write_completion_covers_ecc_and_pcc_updates() {
        let mut c = ctrl(SystemKind::RwowNr);
        let w = write_req(&c, 1, 0, &[3], Cycle(0));
        c.enqueue_write(w, Cycle(0)).unwrap();
        let out = run_to_idle(&mut c, Cycle(0));
        let wc: Vec<_> = out.iter().filter(|x| !x.is_read).collect();
        assert_eq!(wc.len(), 1);
        let t = TimingParams::paper_default();
        // done must include the serialized PCC step (step 2).
        let data_end = t.t_wl + t.burst + t.array_set;
        assert!(wc[0].done.0 > data_end, "done={:?}", wc[0].done);
        assert_eq!(c.stats().writes_done, 1);
    }

    /// The first line address that decodes to `bank` on channel 0.
    fn addr_in_bank(org: &MemOrg, bank: u8) -> u64 {
        (0..)
            .map(|k: u64| k * 64 * u64::from(org.channels))
            .find(|&a| org.decode(PhysAddr::new(a)).bank == BankId(bank))
            .expect("every bank holds lines")
    }

    #[test]
    fn skipped_write_holds_back_newer_writes_to_its_line() {
        let mut c = ctrl(SystemKind::RwowRde);
        let org = MemOrg::tiny();
        let (l, m) = (addr_in_bank(&org, 0), addr_in_bank(&org, 1));
        let older = write_req(&c, 1, l, &[2], Cycle(0));
        let newer = write_req(&c, 2, l, &[5], Cycle(1));
        let other = write_req(&c, 3, m, &[5], Cycle(2));
        // Hold the data chip of the older write's essential word.
        let mut held = ChipSet::empty();
        held.insert_chip(c.layout().chip_of_word(older.line, 2));
        c.rank_mut()
            .timing_mut()
            .reserve(older.loc.bank, held, Cycle(0), Cycle(5_000));
        for w in [older, newer, other] {
            c.enqueue_write(w, w.arrival).unwrap();
        }
        let out = c.step(Cycle(2));
        let issued: Vec<u64> = out.iter().map(|x| x.id.0).collect();
        // The newer write's chips are free, but it may not jump the
        // blocked older write to the same line; the other line issues.
        assert_eq!(issued, vec![3]);
        assert!(c.stats().wr_blocked_data > 0);
        let rest = run_to_idle(&mut c, Cycle(2));
        let done = |id: u64| rest.iter().find(|x| x.id.0 == id).expect("completes").done;
        assert!(done(1) < done(2), "same-line writes complete in order");
        let loc = older.loc;
        let ReqKind::Write { data } = newer.kind else {
            unreachable!()
        };
        assert_eq!(c.rank().read_data(loc.bank, loc.row, loc.col), data);
    }

    #[test]
    fn writes_issue_oldest_first_across_banks() {
        let org = MemOrg {
            banks: 4,
            ..MemOrg::tiny()
        };
        let mut c = PcmapController::new(
            SystemKind::RwowRde,
            org,
            TimingParams::paper_default(),
            QueueParams::paper_default(),
            3,
        );
        // (bank, arrival, id), enqueued in bank order rather than by age.
        for (bank, at, id) in [(0, 2, 9), (1, 2, 7), (2, 1, 12), (3, 3, 4)] {
            let w = write_req(&c, id, addr_in_bank(&org, bank), &[1], Cycle(at));
            c.enqueue_write(w, Cycle(at)).unwrap();
        }
        let out = c.step(Cycle(3));
        let issued: Vec<u64> = out.iter().map(|x| x.id.0).collect();
        assert_eq!(issued, vec![12, 7, 9, 4]);
    }

    #[test]
    fn wow_overlaps_disjoint_writes_in_rde() {
        // With ECC/PCC rotation, two writes to different lines can use
        // different check chips and fully overlap. Search for a pair of
        // same-bank lines with disjoint chip sets.
        let mut c = ctrl(SystemKind::RwowRde);
        let w1 = write_req(&c, 1, 0, &[2], Cycle(0));
        let org = MemOrg::tiny();
        let l = c.layout();
        let used1: Vec<ChipId> = vec![
            l.chip_of_word(w1.line, 2),
            l.ecc_chip(w1.line),
            l.pcc_chip(w1.line),
        ];
        let mut addr2 = None;
        for k in 1..400u64 {
            let a = k * 64 * org.channels as u64;
            let line = PhysAddr::new(a).line();
            let loc = org.decode(PhysAddr::new(a));
            if loc.bank != w1.loc.bank {
                continue;
            }
            let used2 = [l.chip_of_word(line, 5), l.ecc_chip(line), l.pcc_chip(line)];
            if used2.iter().all(|u| !used1.contains(u)) {
                addr2 = Some(a);
                break;
            }
        }
        let w2 = write_req(&c, 2, addr2.expect("disjoint line exists"), &[5], Cycle(0));
        c.enqueue_write(w1, Cycle(0)).unwrap();
        c.enqueue_write(w2, Cycle(0)).unwrap();
        c.step(Cycle(0));
        assert_eq!(c.stats().wow_overlaps, 1, "both writes must be in flight");
    }

    #[test]
    fn fixed_ecc_chip_serializes_wow_writes() {
        // The paper's -NR limitation: all writes contend for the single
        // ECC chip, so the second write cannot issue while the first's
        // step-1 window holds it — even with disjoint data chips.
        let mut c = ctrl(SystemKind::WowNr);
        let w1 = write_req(&c, 1, 0, &[2], Cycle(0));
        let w2 = write_req(&c, 2, 1024, &[5], Cycle(0));
        assert_eq!(w1.loc.bank, w2.loc.bank);
        c.enqueue_write(w1, Cycle(0)).unwrap();
        c.enqueue_write(w2, Cycle(0)).unwrap();
        let mut out = c.step(Cycle(0));
        assert_eq!(c.stats().wow_overlaps, 0, "fixed ECC chip must serialize");
        // Both eventually complete.
        out.extend(run_to_idle(&mut c, Cycle(0)));
        assert_eq!(out.iter().filter(|x| !x.is_read).count(), 2);
    }

    #[test]
    fn wow_disabled_serializes_same_bank_writes() {
        let mut c = ctrl(SystemKind::RowNr);
        let w1 = write_req(&c, 1, 0, &[2], Cycle(0));
        let w2 = write_req(&c, 2, 1024, &[5], Cycle(0));
        c.enqueue_write(w1, Cycle(0)).unwrap();
        c.enqueue_write(w2, Cycle(0)).unwrap();
        c.step(Cycle(0));
        let t = c.rank().timing();
        assert!(!t.is_free(w1.loc.bank, ChipId(2), Cycle(20)));
        // Second write must NOT have issued (no WoW).
        assert!(t.is_free(w1.loc.bank, ChipId(5), Cycle(20)));
        assert_eq!(c.stats().wow_overlaps, 0);
    }

    #[test]
    fn row_read_overlaps_single_word_write() {
        let mut c = ctrl(SystemKind::RowNr);
        let w = write_req(&c, 1, 0, &[3], Cycle(0));
        let bank = w.loc.bank;
        c.enqueue_write(w, Cycle(0)).unwrap();
        c.step(Cycle(0));
        // Write in flight on chip 3. A read to the same bank arrives.
        let r = read_req(2, 64, Cycle(4));
        assert_eq!(r.loc.bank, bank);
        c.enqueue_read(r, Cycle(4)).unwrap();
        let out = c.step(Cycle(4));
        let rc: Vec<_> = out.iter().filter(|x| x.is_read).collect();
        assert_eq!(rc.len(), 1, "RoW must serve the read during the write");
        assert!(rc[0].via_row);
        let vd = rc[0].verify_done.expect("deferred verify scheduled");
        assert!(vd > rc[0].done);
        assert_eq!(c.stats().reads_via_row, 1);
        // The read's completion precedes the write's data end.
        let t = TimingParams::paper_default();
        assert!(rc[0].done.0 < t.t_wl + t.burst + t.array_set);
    }

    #[test]
    fn row_disabled_read_waits_for_write() {
        let mut c = ctrl(SystemKind::WowNr);
        let w = write_req(&c, 1, 0, &[3], Cycle(0));
        c.enqueue_write(w, Cycle(0)).unwrap();
        c.step(Cycle(0));
        c.enqueue_read(read_req(2, 64, Cycle(4)), Cycle(4)).unwrap();
        let out = c.step(Cycle(4));
        assert!(out.iter().all(|x| !x.is_read), "no RoW in WoW-NR");
    }

    #[test]
    fn multiple_reads_serve_sequentially_under_one_write() {
        let mut c = ctrl(SystemKind::RowNr);
        let w = write_req(&c, 1, 0, &[3], Cycle(0));
        c.enqueue_write(w, Cycle(0)).unwrap();
        c.step(Cycle(0));
        c.enqueue_read(read_req(2, 64, Cycle(2)), Cycle(2)).unwrap();
        c.enqueue_read(read_req(3, 128, Cycle(2)), Cycle(2))
            .unwrap();
        let mut now = Cycle(2);
        let mut reads = Vec::new();
        reads.extend(c.step(now).into_iter().filter(|x| x.is_read));
        while reads.len() < 2 {
            now = c.next_wake(now).expect("work pending");
            reads.extend(c.step(now).into_iter().filter(|x| x.is_read));
            assert!(now.0 < 10_000);
        }
        // The first read overlaps the write via reconstruction; the second
        // serializes behind it (and possibly behind the write's PCC step).
        assert!(reads[0].via_row);
        assert!(reads[1].done > reads[0].done);
    }

    #[test]
    fn reads_have_priority_when_not_draining() {
        let mut c = ctrl(SystemKind::RwowRde);
        let w = write_req(&c, 1, 0, &[1], Cycle(0));
        c.enqueue_write(w, Cycle(0)).unwrap();
        c.enqueue_read(read_req(2, 64, Cycle(0)), Cycle(0)).unwrap();
        let out = c.step(Cycle(0));
        // Read issues; the write waits (read queue non-empty, no drain).
        assert!(out.iter().any(|x| x.is_read));
        assert!(out.iter().all(|x| x.is_read));
        assert_eq!(c.write_q_len(), 1);
    }

    #[test]
    fn rotation_lets_read_proceed_during_write() {
        // Under ECC/PCC rotation a write busies its data chip and its
        // (rotated) ECC chip. A read line whose layout places the write's
        // data chip on its own ECC/PCC slot sees at most one busy word
        // chip and proceeds during the write.
        let mut c = ctrl(SystemKind::RwowRde);
        let w = write_req(&c, 1, 0, &[0], Cycle(0));
        let busy_data = c.layout().chip_of_word(w.line, 0);
        let busy_ecc = c.layout().ecc_chip(w.line);
        c.enqueue_write(w, Cycle(0)).unwrap();
        c.step(Cycle(0));
        let org = MemOrg::tiny();
        let mut found = None;
        for k in 1..400u64 {
            let addr = k * 64 * org.channels as u64;
            let line = PhysAddr::new(addr).line();
            let loc = org.decode(PhysAddr::new(addr));
            let wc = c.layout().word_chips(line);
            let busy_word_chips = [busy_data, busy_ecc]
                .iter()
                .filter(|&&b| wc.contains_chip(b))
                .count();
            // At most one busy word chip, and the PCC chip clear of both.
            let pc = c.layout().pcc_chip(line);
            if loc.bank == w.loc.bank && busy_word_chips <= 1 && pc != busy_data && pc != busy_ecc {
                found = Some(addr);
                break;
            }
        }
        let addr = found.expect("rotation must yield an issueable line");
        c.enqueue_read(read_req(2, addr, Cycle(4)), Cycle(4))
            .unwrap();
        let out = c.step(Cycle(4));
        let rc: Vec<_> = out.iter().filter(|x| x.is_read).collect();
        assert_eq!(rc.len(), 1, "read should proceed despite the busy chips");
        // It overlapped the write's step 1.
        let t = TimingParams::paper_default();
        assert!(rc[0].done.0 < t.t_wl + t.burst + t.array_set);
    }

    #[test]
    fn overlap_reads_outside_drains_can_be_disabled() {
        let mut c = PcmapController::new(
            SystemKind::RowNr,
            MemOrg::tiny(),
            TimingParams::paper_default(),
            QueueParams::paper_default(),
            3,
        );
        c.set_overlap_reads_in_normal(false);
        let w = write_req(&c, 1, 0, &[3], Cycle(0));
        c.enqueue_write(w, Cycle(0)).unwrap();
        c.step(Cycle(0));
        c.enqueue_read(read_req(2, 64, Cycle(4)), Cycle(4)).unwrap();
        let out = c.step(Cycle(4));
        assert!(
            out.iter().all(|x| !x.is_read),
            "rule 1 applies during drains only"
        );
    }

    /// Fills bank 0's write queue past the high watermark (26) with
    /// 3-word writes to force a drain, and queues four reads. Returns
    /// each write's location and data.
    fn enqueue_drain_with_reads(
        c: &mut PcmapController,
    ) -> Vec<(pcmap_types::MemLocation, CacheLine)> {
        let org = MemOrg::tiny();
        let mut expected = Vec::new();
        for k in 0..26u64 {
            // Distinct bank-0 lines of the tiny org (16 rows x 8 cols).
            let line = (k / 8) * 16 + k % 8;
            let addr = line * 64;
            let loc = org.decode(PhysAddr::new(addr));
            assert_eq!(loc.bank, BankId(0));
            let w = write_req(c, k + 1, addr, &[2, 4, 6], Cycle(0));
            let ReqKind::Write { data } = w.kind else {
                unreachable!()
            };
            expected.push((loc, data));
            c.enqueue_write(w, Cycle(0)).unwrap();
        }
        for r in 0..4u64 {
            c.enqueue_read(read_req(100 + r, 64 + r * 4096, Cycle(0)), Cycle(0))
                .unwrap();
        }
        expected
    }

    #[test]
    fn split_mode_lets_reads_overlap_multiword_writes_during_drains() {
        // Multi-word writes normally block RoW (2+ busy word chips). With
        // the §IV-B4 split extension, drained writes issue one word at a
        // time so rule-1 reads can reconstruct around the single busy
        // chip. Compare reads_via_row with the mode off and on.
        let run = |split: bool| -> (u64, u64) {
            let mut c = ctrl(SystemKind::RowNr);
            c.set_split_writes_for_row(split);
            let expected = enqueue_drain_with_reads(&mut c);
            let mut now = Cycle(0);
            c.step(now);
            while let Some(wake) = c.next_wake(now) {
                now = wake;
                c.step(now);
                assert!(now.0 < 1_000_000);
            }
            for (loc, data) in expected {
                assert_eq!(c.rank().read_line(loc.bank, loc.row, loc.col).data, data);
            }
            assert_eq!(c.stats().writes_done, 26);
            let hist: u64 = c.stats().essential_histogram.iter().sum();
            assert_eq!(
                hist,
                26,
                "each write histogrammed once: {:?}",
                c.stats().essential_histogram
            );
            (c.stats().reads_via_row, c.stats().essential_histogram[3])
        };
        let (row_off, h_off) = run(false);
        let (row_on, h_on) = run(true);
        assert_eq!(h_off, 26);
        assert_eq!(h_on, 26, "split writes keep their original word count");
        assert!(
            row_on > row_off,
            "split mode must enable RoW: {row_on} vs {row_off}"
        );
    }

    #[test]
    fn split_write_tails_retire_after_their_last_partial_service() {
        let mut c = ctrl(SystemKind::RowNr);
        c.set_split_writes_for_row(true);
        c.set_lifetrace(true);
        enqueue_drain_with_reads(&mut c);
        run_to_idle(&mut c, Cycle(0));
        assert!(
            c.stats().reads_via_row > 0,
            "split writes let reads overlap"
        );
        let t = c.lifetrace();
        assert_eq!(t.violations(), 0);
        // 26 writes and 4 reads, one of them forwarded from a queued write.
        assert_eq!(t.timelines().len(), 30);
        for tl in t.timelines() {
            assert!(tl.conserves(), "timeline does not conserve: {tl:?}");
        }
        // Every write's completion covers the service of all its chips.
        for tl in t.timelines().iter().filter(|tl| tl.is_write) {
            let last = tl.chip_service.iter().map(|s| s.end).max();
            assert!(last.is_none_or(|e| e <= tl.retire), "req {}", tl.req);
        }
    }

    #[test]
    fn silent_write_completes_quickly() {
        let mut c = ctrl(SystemKind::RwowRde);
        let org = MemOrg::tiny();
        let a = PhysAddr::new(0);
        let loc = org.decode(a);
        let old = c.rank().read_line(loc.bank, loc.row, loc.col).data;
        let req = MemRequest {
            id: ReqId(1),
            kind: ReqKind::Write { data: old },
            line: a.line(),
            loc,
            core: CoreId(0),
            arrival: Cycle(0),
        };
        c.enqueue_write(req, Cycle(0)).unwrap();
        let out = c.step(Cycle(0));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].done, Cycle(TimingParams::paper_default().array_read));
        assert_eq!(c.stats().silent_writes, 1);
        let _ = CacheLine::zeroed();
    }

    #[test]
    fn functional_contents_survive_pcmap_scheduling() {
        let mut c = ctrl(SystemKind::RwowRde);
        let org = MemOrg::tiny();
        let mut expected = Vec::new();
        for k in 0..6u64 {
            let addr = k * 64 * org.channels as u64;
            let loc = org.decode(PhysAddr::new(addr));
            let old = c.rank().read_line(loc.bank, loc.row, loc.col).data;
            let mut data = old;
            data.set_word((k % 8) as usize, !old.word((k % 8) as usize));
            expected.push((loc, data));
            let req = MemRequest {
                id: ReqId(k + 1),
                kind: ReqKind::Write { data },
                line: PhysAddr::new(addr).line(),
                loc,
                core: CoreId(0),
                arrival: Cycle(0),
            };
            c.enqueue_write(req, Cycle(0)).unwrap();
        }
        run_to_idle(&mut c, Cycle(0));
        for (loc, data) in expected {
            let got = c.rank().read_line(loc.bank, loc.row, loc.col);
            assert_eq!(got.data, data);
            let codec = c.rank().storage().codec();
            assert_eq!(got.ecc, codec.ecc_word(&got.data), "ECC word maintained");
            assert_eq!(got.pcc, codec.pcc_word(&got.data), "PCC word maintained");
        }
    }

    #[test]
    fn rde_drains_write_bursts_faster_than_nr() {
        // Many single-word writes with distinct data chips to one bank:
        // the fixed ECC/PCC chips pipeline them at check-update intervals;
        // rotation spreads the check updates and drains faster.
        let run = |kind: SystemKind| -> Cycle {
            let mut c = ctrl(kind);
            let org = MemOrg::tiny();
            let mut id = 1;
            for k in 0..24u64 {
                let addr = k * 1024 * org.channels as u64;
                let loc = org.decode(PhysAddr::new(addr));
                if loc.bank != BankId(0) {
                    continue;
                }
                let w = write_req(&c, id, addr, &[(k % 8) as usize], Cycle(0));
                id += 1;
                let _ = c.enqueue_write(w, Cycle(0));
            }
            let out = run_to_idle(&mut c, Cycle(0));
            out.iter().map(|x| x.done).max().unwrap_or(Cycle::ZERO)
        };
        let nr = run(SystemKind::WowNr);
        let rde = run(SystemKind::RwowRde);
        assert!(rde < nr, "RDE drain end {rde:?} must beat NR {nr:?}");
    }

    /// Queued write ids per bank, in queue order.
    fn queued_writes(c: &PcmapController) -> Vec<Vec<u64>> {
        c.core
            .write_qs
            .iter()
            .map(|q| q.iter().map(|r| r.id.0).collect())
            .collect()
    }

    /// Steps the indexed controller `a` and the reference-scan controller
    /// `b` at `now` and asserts they agree on everything the write scan
    /// decides or leaves behind.
    fn step_both(a: &mut PcmapController, b: &mut PcmapController, now: Cycle) {
        let (out_a, out_b) = (a.step(now), b.step(now));
        assert_eq!(out_a, out_b, "same completions at {now:?}");
        assert_eq!(queued_writes(a), queued_writes(b), "same queues at {now:?}");
        assert_eq!(a.split_in_progress, b.split_in_progress);
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!(
            (sa.wr_blocked_data, sa.wr_blocked_ecc, sa.wr_blocked_pcc),
            (sb.wr_blocked_data, sb.wr_blocked_ecc, sb.wr_blocked_pcc),
            "same blocked-write tallies at {now:?}"
        );
        assert_eq!(sa.faults_status_poll, sb.faults_status_poll);
        assert_eq!(a.core.retry_hint, b.core.retry_hint, "at {now:?}");
        assert_eq!(a.core.wake, b.core.wake, "at {now:?}");
        // The index mirrors the queues, oldest first.
        let mut queued: Vec<_> = a
            .core
            .write_qs
            .iter()
            .flat_map(|q| q.iter().map(|r| (r.arrival, r.id)))
            .collect();
        queued.sort_unstable();
        let indexed: Vec<_> = a.writes.iter().map(|w| (w.req.arrival, w.req.id)).collect();
        assert_eq!(indexed, queued);
    }

    proptest! {
        #[test]
        fn indexed_write_scan_matches_the_reference_scan(
            seed: u64,
            variant in 0u64..5,
            ops in 40u64..220,
            banks in 2u8..5,
            knobs in 0u64..64,
        ) {
            let kind = SystemKind::pcmap_variants()[variant as usize];
            let org = MemOrg { banks, ..MemOrg::tiny() };
            let make = |reference: bool| {
                let mut c = PcmapController::new(
                    kind,
                    org,
                    TimingParams::paper_default(),
                    QueueParams::paper_default(),
                    seed,
                );
                c.reference_write_scan = reference;
                c.set_split_writes_for_row(knobs & 1 != 0);
                c.set_overlap_reads_in_normal(knobs & 2 != 0);
                c.set_lifetrace(knobs & 4 != 0);
                if knobs & 8 != 0 {
                    // A storm dense enough to corrupt status polls and to
                    // demote (and re-promote) the rank within a case.
                    let cfg = FaultConfig {
                        status_corrupt_rate: 0.3,
                        degrade_threshold: 2,
                        degrade_window: 2_000,
                        clean_window: 600,
                        ..FaultConfig::storm(0.12, seed ^ 0x5eed)
                    };
                    c.set_fault_plan(FaultPlan::new(cfg, 0));
                }
                c
            };
            let (mut a, mut b) = (make(false), make(true));
            let mut rng = Xoshiro256::new(seed ^ 0xa11_0c8);
            let mut now = Cycle(0);
            let lines = if knobs & 16 != 0 { 6 } else { 40 };
            // Addresses wrap at the rank's capacity, so lines this far
            // apart are distinct lines sharing one storage slot.
            let capacity = u64::from(banks) * u64::from(org.rows_per_bank * org.lines_per_row);
            for id in 1..=ops {
                // pcmap-lint: allow(manual-time-advance, reason = "property driver models request arrival times, not the run-loop clock")
                now = Cycle(now.0 + rng.next_below(24));
                let alias = if knobs & 32 != 0 && rng.chance(0.4) { capacity } else { 0 };
                let addr = PhysAddr::new((rng.next_below(lines) + alias) * 64);
                let loc = org.decode(addr);
                // Arrivals may trail the clock a little, so the index
                // also inserts behind its tail.
                let arrival = Cycle(now.0.saturating_sub(rng.next_below(4)));
                let kind = if rng.chance(0.55) {
                    let mut data = a.rank().read_data(loc.bank, loc.row, loc.col);
                    // A silent store now and then; otherwise 1–4 words.
                    if !rng.chance(0.15) {
                        for _ in 0..=rng.next_below(4) {
                            data.set_word(rng.next_below(8) as usize, rng.next_u64());
                        }
                    }
                    ReqKind::Write { data }
                } else {
                    ReqKind::Read
                };
                let req = MemRequest {
                    id: ReqId(id),
                    kind,
                    line: addr.line(),
                    loc,
                    core: CoreId(0),
                    arrival,
                };
                if matches!(kind, ReqKind::Read) {
                    prop_assert_eq!(
                        a.enqueue_read(req, now).ok(),
                        b.enqueue_read(req, now).ok()
                    );
                } else {
                    prop_assert_eq!(
                        a.enqueue_write(req, now).is_ok(),
                        b.enqueue_write(req, now).is_ok()
                    );
                }
                step_both(&mut a, &mut b, now);
            }
            while let Some(wake) = a.next_wake(now) {
                now = wake;
                step_both(&mut a, &mut b, now);
                prop_assert!(now.0 < 2_000_000, "controllers failed to drain");
            }
            prop_assert_eq!(format!("{:?}", a.stats()), format!("{:?}", b.stats()));
            prop_assert_eq!(
                format!("{:?}", a.lifetrace()),
                format!("{:?}", b.lifetrace())
            );
        }
    }
}

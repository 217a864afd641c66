//! Intra-rank-level parallelism (IRLP) accounting.
//!
//! The paper's central metric (§I, footnote 2): *"the number of chips in
//! the rank that are actively serving some request during \[a write's
//! service\] period"*, out of a maximum of 8. We measure it exactly that
//! way: every write opens a *window* spanning its service interval on its
//! bank; every operation (including the write itself) contributes per-chip
//! *useful segments* for the chips serving data words — a write's essential
//! word chips, a read's eight word-supplying chips (the PCC chip counts
//! when it substitutes for a busy data chip under RoW). ECC/PCC bookkeeping
//! updates do not count, which keeps the baseline's IRLP equal to its mean
//! essential-word count and the maximum at 8, matching the paper's
//! definition. Concurrent chips above 8 (write + full RoW read = 9) are
//! capped at 8.
//!
//! Windows may be *extended* after opening: a PCMap write's service period
//! only ends when its serialized ECC/PCC chip updates finish, which is
//! known later than issue time.

use pcmap_types::{BankId, Cycle};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cap on concurrently counted chips, per the paper's "out of 8.0".
const CHIP_CAP: u64 = 8;

/// Identifies an open window for [`IrlpTracker::extend_window`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowId(u64);

/// Ordered by `end` first, so a min-heap of segments pops the earliest
/// ending one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Segment {
    end: Cycle,
    start: Cycle,
}

#[derive(Debug, Clone)]
struct Window {
    id: WindowId,
    start: Cycle,
    end: Cycle,
}

#[derive(Debug, Clone, Default)]
struct BankIrlp {
    windows: Vec<Window>,
    /// Raw segment log as a min-heap on `end`; pruned once no open or
    /// future window can see a segment.
    segs: BinaryHeap<Reverse<Segment>>,
}

/// Streaming IRLP tracker for one rank.
#[derive(Debug, Clone)]
pub struct IrlpTracker {
    banks: Vec<BankIrlp>,
    samples: Vec<f64>,
    /// `(window end, sample)` pairs, for windowed IRLP time-series.
    timed: Vec<(Cycle, f64)>,
    next_id: u64,
}

impl IrlpTracker {
    /// Creates a tracker for `banks` banks.
    pub fn new(banks: usize) -> Self {
        Self {
            banks: vec![BankIrlp::default(); banks],
            samples: Vec::new(),
            timed: Vec::new(),
            next_id: 0,
        }
    }

    /// Opens a write window on `bank` spanning `[start, end)` and returns a
    /// handle for later extension. Zero-length windows are recorded but
    /// produce no sample.
    pub fn open_window(&mut self, bank: BankId, start: Cycle, end: Cycle) -> WindowId {
        let id = WindowId(self.next_id);
        self.next_id += 1;
        self.banks[bank.index()]
            .windows
            .push(Window { id, start, end });
        id
    }

    /// Extends an open window's end (no-op if `new_end` is earlier or the
    /// window has already been finalized).
    pub fn extend_window(&mut self, bank: BankId, id: WindowId, new_end: Cycle) {
        if let Some(w) = self.banks[bank.index()]
            .windows
            .iter_mut()
            .find(|w| w.id == id)
        {
            if new_end > w.end {
                w.end = new_end;
            }
        }
    }

    /// Records one chip's useful data-serving interval `[start, end)` on
    /// `bank`. Call once per chip involved in serving data words.
    pub fn record_segment(&mut self, bank: BankId, start: Cycle, end: Cycle) {
        if end <= start {
            return;
        }
        self.banks[bank.index()]
            .segs
            .push(Reverse(Segment { end, start }));
    }

    /// Finalizes all windows ending at or before `now` and prunes stale
    /// segments. Call periodically and once at end of simulation with
    /// [`Cycle::MAX`].
    ///
    /// Callers must not extend a window past `now` after settling at `now`,
    /// and must not open windows starting before a prior settle point.
    pub fn settle(&mut self, now: Cycle) {
        for b in &mut self.banks {
            let mut i = 0;
            while i < b.windows.len() {
                if b.windows[i].end <= now {
                    let w = b.windows.swap_remove(i);
                    if w.end > w.start {
                        let sample = window_irlp(&w, b.segs.iter().map(|Reverse(s)| s));
                        self.samples.push(sample);
                        self.timed.push((w.end, sample));
                    }
                } else {
                    i += 1;
                }
            }
            // A segment is still needed if it can overlap an open window or
            // a window opened in the future (which starts at >= now).
            let keep_after = b.windows.iter().map(|w| w.start).min().unwrap_or(now);
            let keep_after = keep_after.max(Cycle(0)).min(now);
            while b.segs.peek().is_some_and(|Reverse(s)| s.end <= keep_after) {
                b.segs.pop();
            }
        }
    }

    /// Per-write IRLP samples finalized so far.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Finalized samples with the completion time of their window, for
    /// windowed IRLP time-series. Same order and length as [`Self::samples`].
    pub fn timed_samples(&self) -> &[(Cycle, f64)] {
        &self.timed
    }

    /// Mean IRLP over finalized write windows (0 if none).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Maximum per-write IRLP observed (0 if none).
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }
}

/// Sweep-line integration of chip-count over the window, capped at 8.
/// The events are sorted, so the result does not depend on the order
/// in which `segs` yields the segments.
fn window_irlp<'a>(w: &Window, segs: impl IntoIterator<Item = &'a Segment>) -> f64 {
    let span = (w.end.0 - w.start.0) as f64;
    let mut events: Vec<(u64, i64)> = Vec::new();
    for s in segs {
        if s.end > w.start && s.start < w.end {
            events.push((s.start.0.max(w.start.0), 1));
            events.push((s.end.0.min(w.end.0), -1));
        }
    }
    if events.is_empty() {
        return 0.0;
    }
    events.sort_unstable();
    let mut area = 0u64;
    let mut count: i64 = 0;
    let mut last = events[0].0;
    for (t, delta) in events {
        if t > last {
            area += (count as u64).min(CHIP_CAP) * (t - last);
            last = t;
        }
        count += delta;
    }
    area as f64 / span
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmap_types::Xoshiro256;

    const B: BankId = BankId(0);

    /// The reference tracker: the same windows over a plain segment
    /// `Vec` pruned by `retain` on every settle.
    struct VecIrlp {
        banks: Vec<(Vec<Window>, Vec<Segment>)>,
        samples: Vec<f64>,
        timed: Vec<(Cycle, f64)>,
        next_id: u64,
    }

    impl VecIrlp {
        fn new(banks: usize) -> Self {
            Self {
                banks: vec![(Vec::new(), Vec::new()); banks],
                samples: Vec::new(),
                timed: Vec::new(),
                next_id: 0,
            }
        }

        fn open_window(&mut self, bank: BankId, start: Cycle, end: Cycle) -> WindowId {
            let id = WindowId(self.next_id);
            self.next_id += 1;
            self.banks[bank.index()].0.push(Window { id, start, end });
            id
        }

        fn extend_window(&mut self, bank: BankId, id: WindowId, new_end: Cycle) {
            if let Some(w) = self.banks[bank.index()].0.iter_mut().find(|w| w.id == id) {
                w.end = w.end.max(new_end);
            }
        }

        fn record_segment(&mut self, bank: BankId, start: Cycle, end: Cycle) {
            if end > start {
                self.banks[bank.index()].1.push(Segment { end, start });
            }
        }

        fn settle(&mut self, now: Cycle) {
            for (windows, segs) in &mut self.banks {
                let mut i = 0;
                while i < windows.len() {
                    if windows[i].end <= now {
                        let w = windows.swap_remove(i);
                        if w.end > w.start {
                            let sample = window_irlp(&w, segs.iter());
                            self.samples.push(sample);
                            self.timed.push((w.end, sample));
                        }
                    } else {
                        i += 1;
                    }
                }
                let keep_after = windows
                    .iter()
                    .map(|w| w.start)
                    .min()
                    .unwrap_or(now)
                    .min(now);
                segs.retain(|s| s.end > keep_after);
            }
        }
    }

    proptest::proptest! {
        /// Heap pruning keeps every segment the `retain` reference keeps,
        /// so the two finalise bit-equal samples in the same order.
        #[test]
        fn heap_pruning_matches_the_retain_reference(seed: u64, ops in 1usize..300) {
            let (mut heap, mut reference) = (IrlpTracker::new(3), VecIrlp::new(3));
            let mut rng = Xoshiro256::new(seed);
            let mut now = Cycle(0);
            let mut open: Vec<(BankId, WindowId, Cycle)> = Vec::new();
            for _ in 0..ops {
                let bank = BankId(rng.next_below(3) as u8);
                let start = Cycle(now.0 + rng.next_below(20));
                let end = Cycle(start.0 + rng.next_below(80));
                match rng.next_below(5) {
                    0 => {
                        let id = heap.open_window(bank, start, end);
                        proptest::prop_assert_eq!(id, reference.open_window(bank, start, end));
                        open.push((bank, id, start));
                    }
                    1 if !open.is_empty() => {
                        // A finalised window ignores the extension in both.
                        let (bank, id, from) = open[rng.next_below(open.len() as u64) as usize];
                        let to = Cycle(from.max(now).0 + rng.next_below(100));
                        heap.extend_window(bank, id, to);
                        reference.extend_window(bank, id, to);
                    }
                    2 | 3 => {
                        heap.record_segment(bank, start, end);
                        reference.record_segment(bank, start, end);
                    }
                    _ => {
                        // pcmap-lint: allow(manual-time-advance, reason = "property driver models a run-loop clock over a bare tracker")
                        now = Cycle(now.0 + rng.next_below(40));
                        heap.settle(now);
                        reference.settle(now);
                    }
                }
            }
            heap.settle(Cycle::MAX);
            reference.settle(Cycle::MAX);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(heap.samples()), bits(&reference.samples));
            let timed = |v: &[(Cycle, f64)]| {
                v.iter().map(|&(c, x)| (c, x.to_bits())).collect::<Vec<_>>()
            };
            proptest::prop_assert_eq!(timed(heap.timed_samples()), timed(&reference.timed));
        }
    }

    #[test]
    fn lone_write_with_two_essential_chips_scores_two() {
        let mut t = IrlpTracker::new(1);
        t.open_window(B, Cycle(0), Cycle(100));
        t.record_segment(B, Cycle(0), Cycle(100)); // chip a
        t.record_segment(B, Cycle(0), Cycle(100)); // chip b
        t.settle(Cycle::MAX);
        assert_eq!(t.samples(), &[2.0]);
        assert_eq!(t.mean(), 2.0);
        assert_eq!(t.max(), 2.0);
    }

    #[test]
    fn partial_overlap_integrates_fractionally() {
        let mut t = IrlpTracker::new(1);
        t.open_window(B, Cycle(0), Cycle(100));
        t.record_segment(B, Cycle(0), Cycle(100)); // the write's own chip
        t.record_segment(B, Cycle(50), Cycle(100)); // a read in the 2nd half
        t.settle(Cycle::MAX);
        assert_eq!(t.samples(), &[1.5]);
    }

    #[test]
    fn segments_recorded_before_window_open_are_captured() {
        let mut t = IrlpTracker::new(1);
        t.record_segment(B, Cycle(0), Cycle(200)); // long-running op
        t.open_window(B, Cycle(100), Cycle(200)); // write starts later
        t.record_segment(B, Cycle(100), Cycle(200)); // the write itself
        t.settle(Cycle::MAX);
        assert_eq!(t.samples(), &[2.0]);
    }

    #[test]
    fn extension_captures_late_segments() {
        let mut t = IrlpTracker::new(1);
        let id = t.open_window(B, Cycle(0), Cycle(50));
        t.record_segment(B, Cycle(0), Cycle(50));
        // The write's PCC update pushes the window to 100; a read happens
        // in the extension.
        t.extend_window(B, id, Cycle(100));
        t.record_segment(B, Cycle(50), Cycle(100));
        t.settle(Cycle::MAX);
        assert_eq!(t.samples(), &[1.0]);
    }

    #[test]
    fn extension_never_shrinks() {
        let mut t = IrlpTracker::new(1);
        let id = t.open_window(B, Cycle(0), Cycle(100));
        t.extend_window(B, id, Cycle(10));
        t.record_segment(B, Cycle(0), Cycle(100));
        t.settle(Cycle::MAX);
        assert_eq!(t.samples(), &[1.0]);
    }

    #[test]
    fn cap_at_eight_chips() {
        let mut t = IrlpTracker::new(1);
        t.open_window(B, Cycle(0), Cycle(10));
        for _ in 0..9 {
            t.record_segment(B, Cycle(0), Cycle(10));
        }
        t.settle(Cycle::MAX);
        assert_eq!(t.samples(), &[8.0]);
    }

    #[test]
    fn zero_segment_windows_score_zero() {
        let mut t = IrlpTracker::new(1);
        t.open_window(B, Cycle(0), Cycle(10));
        t.settle(Cycle::MAX);
        assert_eq!(t.samples(), &[0.0]);
    }

    #[test]
    fn settle_is_incremental_and_prunes() {
        let mut t = IrlpTracker::new(2);
        t.open_window(B, Cycle(0), Cycle(10));
        t.record_segment(B, Cycle(0), Cycle(10));
        t.settle(Cycle(10));
        assert_eq!(t.samples().len(), 1);
        t.open_window(B, Cycle(20), Cycle(30));
        t.record_segment(B, Cycle(20), Cycle(30));
        t.settle(Cycle::MAX);
        assert_eq!(t.samples(), &[1.0, 1.0]);
    }

    #[test]
    fn banks_are_independent() {
        let mut t = IrlpTracker::new(2);
        t.open_window(BankId(0), Cycle(0), Cycle(10));
        t.record_segment(BankId(1), Cycle(0), Cycle(10)); // other bank
        t.settle(Cycle::MAX);
        assert_eq!(t.samples(), &[0.0]);
    }

    #[test]
    fn timed_samples_carry_window_ends() {
        let mut t = IrlpTracker::new(1);
        t.open_window(B, Cycle(0), Cycle(10));
        t.record_segment(B, Cycle(0), Cycle(10));
        t.open_window(B, Cycle(20), Cycle(40));
        t.settle(Cycle::MAX);
        let mut timed = t.timed_samples().to_vec();
        timed.sort_by_key(|(c, _)| *c);
        assert_eq!(timed, vec![(Cycle(10), 1.0), (Cycle(40), 0.0)]);
        assert_eq!(t.timed_samples().len(), t.samples().len());
    }

    #[test]
    fn zero_length_window_produces_no_sample() {
        let mut t = IrlpTracker::new(1);
        t.open_window(B, Cycle(5), Cycle(5));
        t.settle(Cycle::MAX);
        assert!(t.samples().is_empty());
        assert_eq!(t.mean(), 0.0);
    }

    #[test]
    fn open_window_while_other_still_open_sees_shared_segments() {
        let mut t = IrlpTracker::new(1);
        t.open_window(B, Cycle(0), Cycle(100)); // write A
        t.record_segment(B, Cycle(0), Cycle(100)); // A's chip
        t.open_window(B, Cycle(20), Cycle(80)); // WoW write B
        t.record_segment(B, Cycle(20), Cycle(80)); // B's chip
        t.settle(Cycle::MAX);
        let mut s = t.samples().to_vec();
        s.sort_by(f64::total_cmp);
        // B's window sees both chips the whole time: 2.0.
        // A's window: 1.0 + 60/100 overlap = 1.6.
        assert_eq!(s, vec![1.6, 2.0]);
    }
}

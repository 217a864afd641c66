//! Chip-occupancy timeline (Gantt) rendering — the Figure 5 view.
//!
//! [`ChipTrace`] is a view over the lifecycle tracer's timelines
//! ([`ChipTrace::from_timelines`]): every [`ChipRecord`] a controller
//! attached to a request becomes one bar, and this module merely renders
//! them.

use crate::lifecycle::{ChipRecord, ReqTimeline};
use pcmap_types::{BankId, ChipId};

/// Chip-reservation timeline gathered from request timelines.
#[derive(Debug, Clone, Default)]
pub struct ChipTrace {
    records: Vec<(u64, ChipRecord)>,
}

impl ChipTrace {
    /// Gathers the chip records of `timelines`, request by request in the
    /// given (completion) order; a later bar overdraws an earlier one.
    pub fn from_timelines(timelines: &[ReqTimeline]) -> Self {
        let records = timelines
            .iter()
            .flat_map(|t| t.chip_service.iter().map(move |r| (t.req, *r)))
            .collect();
        Self { records }
    }

    /// All `(request id, chip record)` pairs in drawing order.
    pub fn records(&self) -> &[(u64, ChipRecord)] {
        &self.records
    }

    /// Renders an ASCII Gantt chart for `bank`, one row per chip, using
    /// `cycles_per_cell` cycles per character cell.
    ///
    /// # Panics
    ///
    /// Panics if `cycles_per_cell` is zero.
    pub fn render_gantt(&self, bank: BankId, cycles_per_cell: u64) -> String {
        assert!(cycles_per_cell > 0, "cycles_per_cell must be positive");
        let recs: Vec<&(u64, ChipRecord)> = self
            .records
            .iter()
            .filter(|(_, r)| r.bank == bank)
            .collect();
        let horizon = recs.iter().map(|(_, r)| r.end.0).max().unwrap_or(0);
        let width = (horizon.div_ceil(cycles_per_cell)) as usize;
        let mut out = String::new();
        for chip in 0..ChipId::TOTAL_CHIPS {
            let name = match chip {
                8 => "ECC ".to_owned(),
                9 => "PCC ".to_owned(),
                n => format!("ch{n}  "),
            };
            let mut row = vec!['.'; width];
            for (req, r) in recs.iter().filter(|(_, r)| r.chip.index() == chip) {
                let from = (r.start.0 / cycles_per_cell) as usize;
                let to = ((r.end.0.div_ceil(cycles_per_cell)) as usize).min(width);
                let glyph = r.glyph(*req);
                for cell in row.iter_mut().take(to).skip(from) {
                    *cell = glyph;
                }
            }
            out.push_str(&name);
            out.push('|');
            out.extend(row);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::{ChipRole, LifecycleTracer};
    use pcmap_types::Cycle;

    fn traced() -> LifecycleTracer {
        let mut t = LifecycleTracer::disabled();
        t.set_enabled(true);
        t
    }

    #[test]
    fn gantt_renders_rows_for_all_ten_chips() {
        let mut t = traced();
        t.arrival(7, Cycle(0), true);
        t.chip_service(7, BankId(0), ChipId(3), ChipRole::Data, Cycle(0), Cycle(8));
        t.chip_service(
            7,
            BankId(0),
            ChipId(8),
            ChipRole::EccUpdate,
            Cycle(0),
            Cycle(8),
        );
        t.complete(7, Cycle(8));
        let trace = ChipTrace::from_timelines(t.timelines());
        assert_eq!(trace.records().len(), 2);
        let g = trace.render_gantt(BankId(0), 4);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 10);
        assert!(lines[3].contains("77"));
        assert!(lines[8].starts_with("ECC"));
        assert!(lines[8].contains("EE"));
        // Other bank filtered out.
        let empty = trace.render_gantt(BankId(1), 4);
        assert!(empty.lines().all(|l| l.ends_with('|')), "{empty}");
    }

    #[test]
    fn later_requests_overdraw_and_verify_is_derived() {
        let mut t = traced();
        t.arrival(1, Cycle(0), false);
        t.arrival(12, Cycle(0), false);
        t.chip_service(1, BankId(0), ChipId(0), ChipRole::Data, Cycle(0), Cycle(8));
        t.chip_service(
            1,
            BankId(0),
            ChipId(8),
            ChipRole::Verify,
            Cycle(8),
            Cycle(16),
        );
        t.complete(1, Cycle(8));
        t.chip_service(12, BankId(0), ChipId(0), ChipRole::Data, Cycle(4), Cycle(8));
        t.complete(12, Cycle(8));
        assert_eq!(t.timelines()[0].verify(), Some((Cycle(8), Cycle(16))));
        assert_eq!(t.timelines()[1].verify(), None);
        let g = ChipTrace::from_timelines(t.timelines()).render_gantt(BankId(0), 4);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines[0], "ch0  |12..");
        assert_eq!(lines[8], "ECC |..VV");
    }
}

//! The per-batch correctness gate.
//!
//! Every batch a run executes is checked, and a batch that fails any
//! check counts toward the run's `failed` total:
//!
//! - its report digest differs from the first untraced batch on the same
//!   input (the simulator is deterministic, so repeats, traced repeats
//!   included, must be byte-identical);
//! - it carries a problem found by the workload's own checks (requests
//!   issued ≠ reads + writes completed, a non-empty
//!   `ServeReport::check()`, or protocol-invariant violations in the
//!   checked batch).

use std::collections::BTreeMap;

/// FNV-1a 64-bit digest of a report's JSON text.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Tally of checked batches and the reasons any failed.
#[derive(Debug, Default)]
pub struct Gate {
    /// Reference digest per input seed: the first untraced batch's.
    reference: BTreeMap<u64, u64>,
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
}

impl Gate {
    /// Records the untraced reference digest for `input` if it has none
    /// yet, then checks the batch. Returns `true` when the batch passed.
    pub fn untraced(&mut self, input: u64, digest: u64, problems: Vec<String>) -> bool {
        self.reference.entry(input).or_insert(digest);
        self.check(input, digest, problems)
    }

    /// Checks a traced or invariant-checked batch against the untraced
    /// reference for `input`; a batch with no reference fails, since
    /// nothing vouches for it. Returns `true` when the batch passed.
    pub fn traced(&mut self, input: u64, digest: u64, problems: Vec<String>) -> bool {
        self.check(input, digest, problems)
    }

    fn check(&mut self, input: u64, digest: u64, mut problems: Vec<String>) -> bool {
        self.attempted += 1;
        match self.reference.get(&input) {
            Some(&want) if want == digest => {}
            Some(&want) => problems.push(format!(
                "input {input}: report digest {digest:016x} differs from the first untraced run's {want:016x}"
            )),
            None => problems.push(format!("input {input}: no untraced reference run")),
        }
        if problems.is_empty() {
            return true;
        }
        self.failed += 1;
        self.reasons.extend(problems);
        false
    }

    /// Batches checked.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Batches that failed a check.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Why batches failed, in the order found.
    pub fn reasons(&self) -> &[String] {
        &self.reasons
    }

    /// The reference digest per input seed.
    pub fn references(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.reference.iter().map(|(&i, &d)| (i, d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(digest("{\"x\":1}"), digest("{\"x\":2}"));
    }

    #[test]
    fn mismatched_digest_counts_as_a_failure() {
        let mut g = Gate::default();
        assert!(g.untraced(7, 0xaa, Vec::new()));
        assert!(g.untraced(7, 0xaa, Vec::new()));
        assert!(
            !g.untraced(7, 0xbb, Vec::new()),
            "repeat must match the first run"
        );
        assert!(g.traced(7, 0xaa, Vec::new()));
        assert!(!g.traced(7, 0xcc, Vec::new()), "traced run must match too");
        assert_eq!((g.attempted(), g.failed()), (5, 2));
        assert!(g.reasons()[0].contains("differs"));
        assert_eq!(g.references().collect::<Vec<_>>(), vec![(7, 0xaa)]);
    }

    #[test]
    fn problems_and_missing_reference_fail() {
        let mut g = Gate::default();
        assert!(!g.untraced(1, 0x1, vec!["3 reads + 1 writes != 5 requests".into()]));
        assert!(
            !g.traced(2, 0x2, Vec::new()),
            "no untraced reference for input 2"
        );
        assert_eq!((g.attempted(), g.failed()), (2, 2));
        assert_eq!(g.reasons().len(), 2);
    }
}

//! A PCM rank: ten ×8 chips with functional storage, timing state, a DIMM
//! register and wear counters.
//!
//! The rank is the unit PCMap operates on. Functional effects (what bytes
//! end up stored, which words were essential, whether a word write is
//! SET- or RESET-dominated) are computed here from real data; *when* those
//! effects happen on the bus is decided by the memory controller, which
//! drives the rank's [`RankTiming`].

use crate::dimm::DimmRegister;
use crate::energy::EnergyMeter;
use crate::storage::{RankStorage, StoredLine};
use crate::timing::RankTiming;
use crate::wear::WearTracker;
use pcmap_types::{BankId, CacheLine, ColAddr, Duration, MemOrg, RowAddr, TimingParams, WordMask};

/// How a word write stresses the PCM array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteKind {
    /// No bit changed; the differential write is skipped entirely.
    Silent,
    /// Only 1→0 transitions: fast RESET pulses.
    ResetOnly,
    /// At least one 0→1 transition: the slow SET time dominates.
    SetDominated,
}

impl WriteKind {
    /// Array programming time for this kind of word write.
    pub fn duration(self, params: &TimingParams) -> Duration {
        match self {
            WriteKind::Silent => Duration::ZERO,
            WriteKind::ResetOnly => Duration(params.array_reset),
            WriteKind::SetDominated => Duration(params.array_set),
        }
    }
}

/// A functional read of one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOut {
    /// The 64 data bytes.
    pub data: CacheLine,
    /// The ECC chip's word for this line.
    pub ecc: u64,
    /// The PCC chip's word for this line.
    pub pcc: u64,
}

/// The functional result of a (differential) line write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Words whose stored value actually changed (the *essential words*).
    pub essential: WordMask,
    /// Bits programmed per word slot (0 for non-essential words).
    pub bits_per_word: [u32; 8],
    /// Write kind per word slot.
    pub kinds: [WriteKind; 8],
    /// `true` if every word was unchanged — a silent store.
    pub silent: bool,
}

impl WriteOutcome {
    /// The slowest array time over the essential words — how long the
    /// longest involved chip programs.
    pub fn max_word_duration(&self, params: &TimingParams) -> Duration {
        self.kinds
            .iter()
            .map(|k| k.duration(params))
            .max()
            .unwrap_or(Duration::ZERO)
    }
}

/// One rank of PCM: functional storage + timing + DIMM register + wear.
#[derive(Debug, Clone)]
pub struct PcmRank {
    storage: RankStorage,
    timing: RankTiming,
    dimm: DimmRegister,
    wear: WearTracker,
    energy: EnergyMeter,
}

impl PcmRank {
    /// Creates a rank for the given organization.
    pub fn new(org: MemOrg) -> Self {
        Self::with_seed(org, 0)
    }

    /// Creates a rank whose pristine contents derive from `seed`.
    pub fn with_seed(org: MemOrg, seed: u64) -> Self {
        Self {
            storage: RankStorage::with_seed(org, seed),
            timing: RankTiming::new(&org),
            dimm: DimmRegister::new(),
            wear: WearTracker::new(),
            energy: EnergyMeter::new(),
        }
    }

    /// Reads the full line at the given coordinates.
    pub fn read_line(&self, bank: BankId, row: RowAddr, col: ColAddr) -> ReadOut {
        let StoredLine { data, ecc, pcc } = self.storage.load(bank, row, col);
        ReadOut { data, ecc, pcc }
    }

    /// Reads only the data of the line: `read_line(..).data` without the
    /// ECC and PCC words, for peeks that diff against stored content.
    pub fn read_data(&self, bank: BankId, row: RowAddr, col: ColAddr) -> CacheLine {
        self.storage.load_data(bank, row, col)
    }

    /// Performs a differential write of `new` over the stored line,
    /// returning which words were essential and how hard each was to
    /// program. Storage (including ECC and PCC words) is updated.
    pub fn write_line(
        &mut self,
        bank: BankId,
        row: RowAddr,
        col: ColAddr,
        new: CacheLine,
    ) -> WriteOutcome {
        let old = self.storage.load_data(bank, row, col);
        self.write_words(bank, row, col, new, old.diff_words(&new))
    }

    /// Writes only the words selected by `mask` from `new`, leaving other
    /// words untouched — the fine-grained write primitive. Words in `mask`
    /// that turn out unchanged are still skipped by the differential-write
    /// logic (they come back as [`WriteKind::Silent`]).
    pub fn write_words(
        &mut self,
        bank: BankId,
        row: RowAddr,
        col: ColAddr,
        new: CacheLine,
        mask: WordMask,
    ) -> WriteOutcome {
        let mut stored = self.storage.load(bank, row, col);
        let mut essential = WordMask::empty();
        let mut bits_per_word = [0u32; 8];
        let mut kinds = [WriteKind::Silent; 8];

        for i in mask.iter() {
            let old_w = stored.data.word(i);
            let new_w = new.word(i);
            // The in-chip differential write senses the old word first.
            self.energy.record_read(64);
            if old_w == new_w {
                continue;
            }
            let set_bits = (new_w & !old_w).count_ones();
            let reset_bits = (old_w & !new_w).count_ones();
            self.energy.record_write(set_bits as u64, reset_bits as u64);
            bits_per_word[i] = set_bits + reset_bits;
            kinds[i] = if set_bits > 0 {
                WriteKind::SetDominated
            } else {
                WriteKind::ResetOnly
            };
            essential.insert(i);
            stored.data.set_word(i, new_w);
        }

        if !essential.is_empty() {
            let codec = self.storage.codec();
            stored.ecc = codec.update_ecc_word(stored.ecc, &stored.data, essential);
            stored.pcc = codec.pcc_word(&stored.data);
            self.storage.store(bank, row, col, stored);
        }

        WriteOutcome {
            essential,
            bits_per_word,
            kinds,
            silent: essential.is_empty(),
        }
    }

    /// Shared access to the rank's timing state.
    pub fn timing(&self) -> &RankTiming {
        &self.timing
    }

    /// Mutable access to the rank's timing state (driven by the controller).
    pub fn timing_mut(&mut self) -> &mut RankTiming {
        &mut self.timing
    }

    /// The rank's DIMM register.
    pub fn dimm_mut(&mut self) -> &mut DimmRegister {
        &mut self.dimm
    }

    /// Splits the rank into its DIMM register and timing state so a status
    /// poll can borrow both at once.
    pub fn dimm_and_timing(&mut self) -> (&mut DimmRegister, &RankTiming) {
        (&mut self.dimm, &self.timing)
    }

    /// The rank's wear counters.
    pub fn wear(&self) -> &WearTracker {
        &self.wear
    }

    /// Mutable wear counters (attribution of word writes to physical chips
    /// depends on the rotation layout, which the caller knows).
    pub fn wear_mut(&mut self) -> &mut WearTracker {
        &mut self.wear
    }

    /// The rank's energy meter.
    pub fn energy(&self) -> &EnergyMeter {
        &self.energy
    }

    /// Mutable energy meter (controllers record bus-level reads here).
    pub fn energy_mut(&mut self) -> &mut EnergyMeter {
        &mut self.energy
    }

    /// Direct access to functional storage (fault injection, inspection).
    pub fn storage_mut(&mut self) -> &mut RankStorage {
        &mut self.storage
    }

    /// Shared access to functional storage.
    pub fn storage(&self) -> &RankStorage {
        &self.storage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmap_types::MemOrg;

    fn rank() -> PcmRank {
        PcmRank::new(MemOrg::tiny())
    }

    const B: BankId = BankId(0);
    const R: RowAddr = RowAddr(2);
    const C: ColAddr = ColAddr(1);

    #[test]
    fn silent_store_has_no_essential_words() {
        let mut rank = rank();
        let old = rank.read_line(B, R, C);
        let out = rank.write_line(B, R, C, old.data);
        assert!(out.silent);
        assert_eq!(out.essential.count(), 0);
        assert_eq!(
            out.max_word_duration(&TimingParams::paper_default()),
            Duration::ZERO
        );
    }

    #[test]
    fn differential_write_finds_exact_essential_set() {
        let mut rank = rank();
        let old = rank.read_line(B, R, C);
        let mut new = old.data;
        new.set_word(2, !old.data.word(2));
        new.set_word(7, old.data.word(7) ^ 1);
        let out = rank.write_line(B, R, C, new);
        assert_eq!(out.essential.iter().collect::<Vec<_>>(), vec![2, 7]);
        assert_eq!(out.bits_per_word[2], 64);
        assert_eq!(out.bits_per_word[7], 1);
        assert_eq!(rank.read_line(B, R, C).data, new);
    }

    #[test]
    fn reset_only_writes_are_fast() {
        let mut rank = rank();
        let old = rank.read_line(B, R, C);
        let mut new = old.data;
        // Clear bits only: 1→0 transitions, RESET-only.
        new.set_word(0, old.data.word(0) & !0xff);
        let out = rank.write_line(B, R, C, new);
        let params = TimingParams::paper_default();
        if out.essential.contains(0) {
            assert_eq!(out.kinds[0], WriteKind::ResetOnly);
            assert_eq!(out.max_word_duration(&params), Duration(params.array_reset));
        }
    }

    #[test]
    fn set_dominated_writes_are_slow() {
        let mut rank = rank();
        let old = rank.read_line(B, R, C);
        let mut new = old.data;
        new.set_word(0, old.data.word(0) | 0xff);
        let out = rank.write_line(B, R, C, new);
        let params = TimingParams::paper_default();
        if out.essential.contains(0) {
            assert_eq!(out.kinds[0], WriteKind::SetDominated);
            assert_eq!(out.max_word_duration(&params), Duration(params.array_set));
        }
    }

    #[test]
    fn ecc_and_pcc_follow_every_write() {
        let mut rank = rank();
        let old = rank.read_line(B, R, C);
        let mut new = old.data;
        new.set_word(4, 0xdead_beef);
        rank.write_line(B, R, C, new);
        let stored = rank.read_line(B, R, C);
        let codec = rank.storage().codec();
        assert_eq!(stored.ecc, codec.ecc_word(&stored.data));
        assert_eq!(stored.pcc, codec.pcc_word(&stored.data));
    }

    #[test]
    fn partial_write_leaves_unmasked_words() {
        let mut rank = rank();
        let old = rank.read_line(B, R, C);
        let mut new = CacheLine::from_seed(999);
        // Ensure word 3 actually differs.
        new.set_word(3, !old.data.word(3));
        let out = rank.write_words(B, R, C, new, WordMask::single(3));
        assert_eq!(out.essential, WordMask::single(3));
        let stored = rank.read_line(B, R, C).data;
        assert_eq!(stored.word(3), new.word(3));
        for i in [0usize, 1, 2, 4, 5, 6, 7] {
            assert_eq!(stored.word(i), old.data.word(i));
        }
    }

    #[test]
    fn read_data_equals_read_line_data() {
        let mut rank = rank();
        let same = |rank: &PcmRank, c: ColAddr| {
            assert_eq!(rank.read_data(B, R, c), rank.read_line(B, R, c).data);
        };
        // Pristine.
        same(&rank, ColAddr(0));
        // Written.
        let mut new = rank.read_line(B, R, ColAddr(1)).data;
        new.set_word(5, !new.word(5));
        rank.write_line(B, R, ColAddr(1), new);
        same(&rank, ColAddr(1));
        // Injected bit error.
        rank.storage_mut().inject_bit_error(B, R, ColAddr(2), 3, 40);
        same(&rank, ColAddr(2));
        // Stuck cell that a later write fails to flip.
        rank.storage_mut().stick_bit(B, R, ColAddr(3), 6, 7);
        same(&rank, ColAddr(3));
        let mut flip = rank.read_line(B, R, ColAddr(3)).data;
        flip.set_word(6, flip.word(6) ^ (1 << 7));
        rank.write_line(B, R, ColAddr(3), flip);
        assert_ne!(rank.read_data(B, R, ColAddr(3)), flip);
        same(&rank, ColAddr(3));
    }

    #[test]
    fn injected_fault_is_visible_to_verify() {
        let mut rank = rank();
        rank.storage_mut().inject_bit_error(B, R, C, 1, 3);
        let read = rank.read_line(B, R, C);
        let codec = rank.storage().codec();
        let check = codec.verify(&read.data, read.ecc);
        assert!(!check.is_clean());
        // SECDED recovers the original word.
        assert!(check.recovered(&read.data).is_some());
    }
}

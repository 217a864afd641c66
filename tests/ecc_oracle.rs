//! The table-driven SECDED path against the bit-level oracle.
//!
//! `LineCodec` computes and checks ECC words through `pcmap_ecc::table`;
//! `pcmap_ecc::hamming` keeps the bit-level encoder and decoder as the
//! reference. Every check here compares the two exactly.

use pcmap_ecc::hamming::{self, Decoded, CODEWORD_BITS};
use pcmap_ecc::line::LineCheck;
use pcmap_ecc::{table, LineCodec};
use pcmap_types::{CacheLine, WordMask, WORDS_PER_LINE};

/// Marsaglia's xorshift64: a fixed, dependency-free word stream.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The stored (data, check byte) pair of a codeword.
fn split(cw: u128) -> (u64, u8) {
    (hamming::extract_data(cw), hamming::check_byte(cw))
}

#[test]
fn check_byte_matches_bit_level_encoder() {
    let oracle = |d: u64| hamming::check_byte(hamming::encode(d));
    let mut words = vec![0, u64::MAX];
    words.extend((0..64).map(|i| 1u64 << i));
    let mut s = 0x9e37_79b9_7f4a_7c15;
    words.extend((0..100_000).map(|_| xorshift(&mut s)));
    for d in words {
        assert_eq!(table::check_of(d), oracle(d), "data {d:#018x}");
    }
}

#[test]
fn decode_matches_bit_level_on_every_single_and_double_flip() {
    let mut s = 0x0123_4567_89ab_cdef;
    let mut words = vec![0, u64::MAX, 0xdead_beef_cafe_f00d];
    words.extend((0..5).map(|_| xorshift(&mut s)));
    for d in words {
        let cw = hamming::encode(d);
        let (data, check) = split(cw);
        assert_eq!(table::decode(data, check), Decoded::Clean { data: d });
        for b1 in 0..CODEWORD_BITS {
            let one = cw ^ (1u128 << b1);
            let (data, check) = split(one);
            assert_eq!(
                table::decode(data, check),
                hamming::decode(one),
                "data {d:#x} bit {b1}"
            );
            for b2 in (b1 + 1)..CODEWORD_BITS {
                let two = one ^ (1u128 << b2);
                let (data, check) = split(two);
                assert_eq!(
                    table::decode(data, check),
                    hamming::decode(two),
                    "data {d:#x} bits {b1},{b2}"
                );
            }
        }
    }
}

/// `LineCodec::verify` rebuilt from the bit-level `assemble`/`decode`.
fn verify_bit_level(line: &CacheLine, ecc_word: u64) -> LineCheck {
    let mut corrected = *line;
    let mut fixed = WordMask::empty();
    let mut dead = WordMask::empty();
    for i in 0..WORDS_PER_LINE {
        let check = ((ecc_word >> (i * 8)) & 0xff) as u8;
        match hamming::decode(hamming::assemble(line.word(i), check)) {
            Decoded::Clean { .. } => {}
            Decoded::Corrected { data, .. } => {
                corrected.set_word(i, data);
                fixed.insert(i);
            }
            Decoded::DoubleError => dead.insert(i),
        }
    }
    if !dead.is_empty() {
        LineCheck::Uncorrectable { words: dead }
    } else if !fixed.is_empty() {
        LineCheck::Corrected {
            line: corrected,
            words: fixed,
        }
    } else {
        LineCheck::Clean
    }
}

#[test]
fn line_verify_matches_bit_level_reference() {
    let codec = LineCodec::new();
    let mut s = 0x5eed_0fec_c0de;
    for seed in 0..64 {
        let line = CacheLine::from_seed(seed);
        let ecc = codec.ecc_word(&line);
        let mut bit = || (xorshift(&mut s) % 64) as u32;

        // Clean.
        assert!(codec.verify(&line, ecc).is_clean());
        assert_eq!(codec.verify(&line, ecc), verify_bit_level(&line, ecc));

        // Corrected: one data bit flipped in each of two words, and one
        // flipped check bit in a third.
        let mut bad = line;
        bad.set_word(1, bad.word(1) ^ (1u64 << bit()));
        bad.set_word(6, bad.word(6) ^ (1u64 << bit()));
        let bad_ecc = ecc ^ (1u64 << (3 * 8 + bit() % 8));
        let got = codec.verify(&bad, bad_ecc);
        assert!(matches!(got, LineCheck::Corrected { .. }), "{got:?}");
        assert_eq!(got.recovered(&bad), Some(line));
        assert_eq!(got, verify_bit_level(&bad, bad_ecc));

        // Uncorrectable: a double flip in one word beside a single flip.
        let b = bit();
        let mut dead = line;
        dead.set_word(2, dead.word(2) ^ (1u64 << b) ^ (1u64 << ((b + 1) % 64)));
        dead.set_word(5, dead.word(5) ^ (1u64 << bit()));
        let got = codec.verify(&dead, ecc);
        assert!(matches!(got, LineCheck::Uncorrectable { .. }), "{got:?}");
        assert_eq!(got, verify_bit_level(&dead, ecc));
    }
}

//! Table-driven SECDED(72,64): the hot path of [`crate::hamming`].
//!
//! SECDED is linear over GF(2): the check byte of a data word is the XOR
//! of the check bytes of its set bits. Grouping the 64 data bits into
//! eight bytes gives eight 256-entry tables, so a check byte costs eight
//! lookups instead of the bit-level scatter-and-parity loops. The tables
//! are built at compile time; the bit-level code in [`crate::hamming`]
//! stays as the oracle these functions are tested against.
//!
//! Both functions use the stored layout of [`hamming::check_byte`]:
//! overall parity in bit 0, Hamming check bit `2^i` in bit `i + 1`.

use crate::hamming::{self, Decoded};

/// Codeword position (3..72, never a power of two) of each data bit, in
/// the order [`hamming::encode`] scatters them.
const DATA_POS: [u8; 64] = {
    let mut out = [0u8; 64];
    let mut d = 0;
    let mut pos = 1u32;
    while pos < hamming::CODEWORD_BITS {
        if !pos.is_power_of_two() {
            out[d] = pos as u8;
            d += 1;
        }
        pos += 1;
    }
    out
};

/// Inverse of [`DATA_POS`]: the data bit held at each 7-bit position, or
/// `NOT_DATA` for check-bit positions and positions past the codeword.
const POS_DATA: [u8; 128] = {
    let mut out = [NOT_DATA; 128];
    let mut d = 0;
    while d < 64 {
        out[DATA_POS[d] as usize] = d as u8;
        d += 1;
    }
    out
};

const NOT_DATA: u8 = u8::MAX;

/// `CHECK[k][v]`: the check byte of a data word whose byte `k` is `v` and
/// whose other bytes are zero.
static CHECK: [[u8; 256]; 8] = {
    // A data bit at position `p` flips the Hamming check bits whose index
    // bits are set in `p` (so `p` itself, shifted past the parity bit),
    // and the overall parity once for itself plus once per flipped bit.
    let mut bit = [0u8; 64];
    let mut d = 0;
    while d < 64 {
        let p = DATA_POS[d];
        bit[d] = (p << 1) | ((1 + p.count_ones() as u8) & 1);
        d += 1;
    }
    let mut out = [[0u8; 256]; 8];
    let mut k = 0;
    while k < 8 {
        let mut v = 0;
        while v < 256 {
            let mut acc = 0u8;
            let mut j = 0;
            while j < 8 {
                if v & (1 << j) != 0 {
                    acc ^= bit[k * 8 + j];
                }
                j += 1;
            }
            out[k][v] = acc;
            v += 1;
        }
        k += 1;
    }
    out
};

/// The stored check byte of `data`: equal to
/// `hamming::check_byte(hamming::encode(data))`.
#[inline]
pub fn check_of(data: u64) -> u8 {
    let b = data.to_le_bytes();
    CHECK[0][b[0] as usize]
        ^ CHECK[1][b[1] as usize]
        ^ CHECK[2][b[2] as usize]
        ^ CHECK[3][b[3] as usize]
        ^ CHECK[4][b[4] as usize]
        ^ CHECK[5][b[5] as usize]
        ^ CHECK[6][b[6] as usize]
        ^ CHECK[7][b[7] as usize]
}

/// Decodes a data word against its stored check byte: equal to
/// `hamming::decode(hamming::assemble(data, check))`.
///
/// `d = check ^ check_of(data)` holds the received codeword's syndrome in
/// its Hamming bits and its overall parity in its popcount, so the
/// bit-level decoder's cases apply unchanged.
#[inline]
pub fn decode(data: u64, check: u8) -> Decoded {
    let d = check ^ check_of(data);
    let syndrome = u32::from(d >> 1);
    let parity_ok = d.count_ones() & 1 == 0;
    match (syndrome, parity_ok) {
        (0, true) => Decoded::Clean { data },
        (0, false) => Decoded::Corrected { data, bit: 0 },
        (s, false) if s < hamming::CODEWORD_BITS => {
            let data = match POS_DATA[s as usize] {
                NOT_DATA => data,
                bit => data ^ (1u64 << bit),
            };
            Decoded::Corrected { data, bit: s }
        }
        _ => Decoded::DoubleError,
    }
}

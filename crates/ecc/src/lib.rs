//! Error detection and correction codes for the PCMap memory system.
//!
//! An ECC DIMM stores 8 check bits per 64-bit data word on a ninth chip;
//! PCMap adds a tenth *PCC* (parity correction code) chip whose word is the
//! XOR of the eight data words, enabling RAID-style reconstruction of a word
//! held by a chip that is busy serving a write (§IV-B of the paper).
//!
//! - [`hamming`] — a real bit-level Hamming SECDED(72,64): single-error
//!   correction, double-error detection. It is the reference the fast
//!   path is tested against.
//! - [`table`] — the same code driven by per-byte lookup tables: the hot
//!   path that [`line`] uses.
//! - [`parity`] — the PCC code: XOR parity over the line's words and erased
//!   word reconstruction.
//! - [`line`] — per-cache-line codec combining both: the 8-byte ECC word
//!   (one SECDED check byte per data word) and the 8-byte PCC word stored on
//!   the ninth and tenth chips.
//!
//! # Example
//!
//! ```
//! use pcmap_ecc::hamming;
//!
//! let cw = hamming::encode(0xdead_beef_cafe_f00d);
//! // Flip any single bit: the decoder corrects it.
//! let corrupted = cw ^ (1u128 << 17);
//! match hamming::decode(corrupted) {
//!     hamming::Decoded::Corrected { data, .. } => assert_eq!(data, 0xdead_beef_cafe_f00d),
//!     other => panic!("expected correction, got {other:?}"),
//! }
//! ```

#![warn(missing_docs)]

pub mod hamming;
pub mod line;
pub mod parity;
pub mod table;

pub use hamming::{decode, encode, Decoded};
pub use line::LineCodec;
pub use parity::{parity_of, reconstruct_word};

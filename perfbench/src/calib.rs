//! Host-speed normalisation.
//!
//! The benchmark runs on shared hosts whose speed swings by up to 2x
//! within seconds as neighbours load the same cores. Every batch runs
//! between two passes of a fixed kernel that belongs to the benchmark,
//! not to the simulator; the kernel's time says how fast the host was,
//! and timings are scaled to what they would have been at a fixed
//! reference speed. The kernel never changes with the simulator, so a
//! faster simulator still reads faster.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Times one pass of a fixed kernel shaped like the simulator's hot
/// paths: ordered-map lookups and inserts, a binary heap, and integer
/// mixing over a working set of about a megabyte.
pub fn reference_pass() -> Duration {
    let t = Instant::now();
    let mut state = 0x0ca1_1b8a_7e5e_ed00_u64;
    let mut next = || {
        // SplitMix64, kept here so the kernel never changes with the
        // repository's code.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let mut heap = BinaryHeap::new();
    let mut acc = 0u64;
    for i in 0..40_000u64 {
        let key = next() % 16_384;
        *map.entry(key).or_insert(i) ^= i;
        heap.push(std::cmp::Reverse(next() >> 40));
        if heap.len() > 512 {
            acc = acc.wrapping_add(heap.pop().map_or(0, |r| r.0));
        }
        if let Some((&k, &v)) = map.range(key..).next() {
            acc = acc.rotate_left(7) ^ k.wrapping_mul(v | 1);
        }
    }
    black_box(acc);
    t.elapsed()
}

/// The reference speed: one [`reference_pass`] in this time. It is about
/// one pass on the 2-core Xeon host the benchmark was defined on, which
/// ran a pass in 8 ms to 12 ms as its neighbours' load came and went.
pub const NOMINAL: Duration = Duration::from_millis(10);

/// How much slower than the reference speed the host ran between two
/// reference passes, taken just before and just after the timed work.
/// Dividing a host time by it gives reference seconds; multiplying a
/// host rate by it gives a rate per reference second.
pub fn slowdown(before: Duration, after: Duration) -> f64 {
    (before + after).as_secs_f64() / 2.0 / NOMINAL.as_secs_f64()
}

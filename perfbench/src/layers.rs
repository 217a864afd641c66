//! Outside timings of each layer's public functions.
//!
//! These reproduce the component microbenches (SECDED, line codec,
//! generator) and add the storage, timing-engine and admission calls.
//! A call is timed from outside the program, so the figure is that
//! function's self time plus whatever it calls — never a parent span
//! counted again. Inputs are drawn from the run's seed. Each figure is
//! divided by the host's slowdown around its own measurement, giving
//! reference nanoseconds (see `calib`).

use crate::calib;
use crate::stats::Summary;
use pcmap_device::{RankStorage, RankTiming, StoredLine};
use pcmap_ecc::{hamming, LineCodec};
use pcmap_serve::TokenBucket;
use pcmap_types::{
    BankId, CacheLine, ChipSet, ColAddr, Cycle, MemOrg, RowAddr, SplitMix64, WordMask,
};
use pcmap_workloads::{catalog, CoreStream};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Calls per timed chunk: long enough to amortise the clock read.
const CHUNK: usize = 256;
/// Chunks timed per function at minimum, whatever the budget.
const MIN_CHUNKS: usize = 5;
/// Distinct inputs each timed function cycles through (a power of two).
const POOL: usize = 1024;

/// Median reference nanoseconds per call over chunks of [`CHUNK`]
/// calls, timing chunks until `budget` is spent. `chunk(k)` runs calls
/// `k..k+CHUNK` and returns how long those calls alone took.
fn per_call_ns(budget: Duration, mut chunk: impl FnMut(usize) -> Duration) -> f64 {
    let before = calib::reference_pass();
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut k = 0;
    while samples.len() < MIN_CHUNKS || start.elapsed() < budget {
        samples.push(chunk(k).as_nanos() as f64 / CHUNK as f64);
        k += CHUNK;
    }
    Summary::of(&samples).median / calib::slowdown(before, calib::reference_pass())
}

/// Times `CHUNK` calls of `call(i)` for `i` in `k..k+CHUNK`.
fn timed(k: usize, mut call: impl FnMut(usize)) -> Duration {
    let t = Instant::now();
    for i in k..k + CHUNK {
        call(i % POOL);
    }
    t.elapsed()
}

/// A random coordinate inside one rank of `org`.
fn coords(rng: &mut SplitMix64, org: &MemOrg) -> (BankId, RowAddr, ColAddr) {
    let below = |rng: &mut SplitMix64, n: u64| rng.next_u64() % n;
    (
        BankId(below(rng, u64::from(org.banks)) as u8),
        RowAddr(below(rng, u64::from(org.rows_per_bank)) as u32),
        ColAddr(below(rng, u64::from(org.lines_per_row)) as u32),
    )
}

/// Every outside timing, `(metric, ns per call)`, splitting `budget`
/// evenly between the functions. `program` names the catalog program
/// whose first core profile feeds the generator.
pub fn outside_timings(seed: u64, program: &str, budget: Duration) -> Vec<(&'static str, f64)> {
    // Thirteen functions share the budget.
    let each = budget / 13;
    let mut rng = SplitMix64::new(seed ^ 0x1a7e_5eed);
    let words: Vec<u64> = (0..POOL).map(|_| rng.next_u64()).collect();
    let lines: Vec<CacheLine> = (0..POOL)
        .map(|_| CacheLine::from_seed(rng.next_u64()))
        .collect();
    let codec = LineCodec::new();
    let eccs: Vec<u64> = lines.iter().map(|l| codec.ecc_word(l)).collect();
    let pccs: Vec<u64> = lines.iter().map(|l| codec.pcc_word(l)).collect();
    let masks: Vec<WordMask> = (0..POOL)
        .map(|_| WordMask::from_bits((rng.next_u64() as u16) | 1))
        .collect();
    let missing: Vec<usize> = (0..POOL).map(|_| (rng.next_u64() % 8) as usize).collect();
    let partials: Vec<CacheLine> = lines
        .iter()
        .zip(&missing)
        .map(|(l, &m)| {
            let mut p = *l;
            p.set_word(m, 0);
            p
        })
        .collect();

    let mut out = vec![
        (
            "ecc.secded_encode_ns",
            per_call_ns(each, |k| {
                timed(k, |i| {
                    black_box(hamming::encode(black_box(words[i])));
                })
            }),
        ),
        (
            "ecc.ecc_word_ns",
            per_call_ns(each, |k| {
                timed(k, |i| {
                    black_box(codec.ecc_word(black_box(&lines[i])));
                })
            }),
        ),
        (
            "ecc.pcc_word_ns",
            per_call_ns(each, |k| {
                timed(k, |i| {
                    black_box(codec.pcc_word(black_box(&lines[i])));
                })
            }),
        ),
        (
            "ecc.update_ecc_word_ns",
            per_call_ns(each, |k| {
                timed(k, |i| {
                    black_box(codec.update_ecc_word(eccs[i], black_box(&lines[i]), masks[i]));
                })
            }),
        ),
        (
            "ecc.verify_ns",
            per_call_ns(each, |k| {
                timed(k, |i| {
                    black_box(codec.verify(black_box(&lines[i]), eccs[i]));
                })
            }),
        ),
        (
            "ecc.reconstruct_ns",
            per_call_ns(each, |k| {
                timed(k, |i| {
                    black_box(codec.reconstruct(black_box(&partials[i]), missing[i], pccs[i]));
                })
            }),
        ),
    ];
    out.extend(device_timings(&mut rng, &lines, each));
    out.push(("workloads.next_op_ns", next_op_ns(seed, program, each)));
    out.push(("serve.token_take_ns", token_take_ns(&mut rng, each)));
    out
}

/// Rank storage and timing-engine calls.
fn device_timings(
    rng: &mut SplitMix64,
    lines: &[CacheLine],
    each: Duration,
) -> Vec<(&'static str, f64)> {
    let org = MemOrg::paper_default();
    let codec = LineCodec::new();
    let at: Vec<_> = (0..POOL).map(|_| coords(rng, &org)).collect();
    let stored: Vec<StoredLine> = lines
        .iter()
        .map(|&data| StoredLine {
            data,
            ecc: codec.ecc_word(&data),
            pcc: codec.pcc_word(&data),
        })
        .collect();

    let pristine = RankStorage::with_seed(org, rng.next_u64());
    let load_pristine = per_call_ns(each, |k| {
        timed(k, |i| {
            let (b, r, c) = at[i];
            black_box(pristine.load(b, r, c));
        })
    });

    let mut storage = RankStorage::with_seed(org, rng.next_u64());
    let store = per_call_ns(each, |k| {
        timed(k, |i| {
            let (b, r, c) = at[i];
            storage.store(b, r, c, black_box(stored[i]));
        })
    });
    let load_written = per_call_ns(each, |k| {
        timed(k, |i| {
            let (b, r, c) = at[i];
            black_box(storage.load(b, r, c));
        })
    });

    // Chip sets of one to ten chips; every bank gets windows at strictly
    // later cycles, so no reservation overlaps another.
    let sets: Vec<ChipSet> = (0..POOL)
        .map(|_| ChipSet::from_bits((rng.next_u64() as u16) | 1))
        .collect();
    let banks = u64::from(org.banks);
    let mut timing = RankTiming::new(&org);
    let mut base = 0u64;
    let reserve = per_call_ns(each, |k| {
        let t = timed(k, |i| {
            let slot = (i % CHUNK) as u64;
            let start = base + (slot / banks) * 64;
            let bank = BankId((slot % banks) as u8);
            black_box(timing.reserve(bank, sets[i], Cycle(start), Cycle(start + 48)));
        });
        base += CHUNK as u64 * 64;
        timing.prune(Cycle(base));
        t
    });

    // Free-at queries against a rank carrying a few reservations per
    // bank, from query times spread over those windows.
    let mut busy = RankTiming::new(&org);
    for n in 0..8 * banks {
        let bank = BankId((n % banks) as u8);
        let start = (n / banks) * 100 + rng.next_u64() % 40;
        let _ = busy.reserve(bank, sets[n as usize], Cycle(start), Cycle(start + 56));
    }
    let queries: Vec<(BankId, u64)> = (0..POOL)
        .map(|_| (BankId((rng.next_u64() % banks) as u8), rng.next_u64() % 800))
        .collect();
    let free_at = per_call_ns(each, |k| {
        timed(k, |i| {
            let (bank, now) = queries[i];
            black_box(busy.free_at(bank, sets[i], Cycle(now)));
        })
    });

    vec![
        ("device.load_pristine_ns", load_pristine),
        ("device.load_written_ns", load_written),
        ("device.store_ns", store),
        ("device.reserve_ns", reserve),
        ("device.free_at_ns", free_at),
    ]
}

/// `CoreStream::next_op` on the first core profile of `program`.
fn next_op_ns(seed: u64, program: &str, each: Duration) -> f64 {
    let wl = catalog::by_name(program).expect("catalog program exists");
    let mut stream = CoreStream::new(&wl.per_core[0], 0, seed);
    per_call_ns(each, |k| {
        timed(k, |_| {
            black_box(stream.next_op());
        })
    })
}

/// `TokenBucket::try_take` at arrival times with seeded gaps.
fn token_take_ns(rng: &mut SplitMix64, each: Duration) -> f64 {
    let gaps: Vec<u64> = (0..POOL).map(|_| rng.next_u64() % 32).collect();
    let mut bucket = TokenBucket::new(64, 16);
    let mut at = 0u64;
    per_call_ns(each, |k| {
        timed(k, |i| {
            at += gaps[i];
            black_box(bucket.try_take(at));
        })
    })
}

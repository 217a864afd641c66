//! Full-report pin: one FNV-1a-64 digest of `RunReport::to_json` per
//! point, snapshotted into `tests/golden/reports.json`.
//!
//! Where `tests/golden.rs` pins a few headline scalars, this pins every
//! byte of the report: all six systems on canneal, fault-free, under a
//! fault storm and with every rollback faulty. A scheduler change meant
//! to be byte-identical (a speedup) must leave every digest as it is.
//!
//! On a mismatch the failure names the point and writes the actual JSON
//! to `target/report-pin/<point>.json` for diffing. To re-bless after an
//! *intentional* report change: `UPDATE_GOLDEN=1 cargo test --test
//! reports`, and commit the diff with the reason.

use pcmap::core::{RollbackMode, SystemKind};
use pcmap::obs::{json, Value};
use pcmap::sim::{SimConfig, System};
use pcmap::types::FaultConfig;
use pcmap::workloads::catalog;
use std::path::PathBuf;

const REQUESTS: u64 = 1_200;

/// FNV-1a 64-bit digest of a report's JSON text.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The three regimes: fault-free, a fault storm, every rollback faulty.
const REGIMES: [&str; 3] = ["clean", "storm", "faulty"];

fn in_regime(cfg: SimConfig, regime: &str) -> SimConfig {
    match regime {
        "clean" => cfg,
        "storm" => cfg.with_faults(FaultConfig::storm(0.04, 65261)),
        "faulty" => cfg.with_rollback(RollbackMode::AlwaysFaulty),
        other => unreachable!("unknown regime {other}"),
    }
}

fn manifest_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

#[test]
fn full_reports_match_their_pinned_digests() {
    let wl = catalog::by_name("canneal").expect("catalog workload");
    let mut got: Vec<(String, String)> = Vec::new();
    for kind in SystemKind::all() {
        for regime in REGIMES {
            let cfg = in_regime(
                SimConfig::paper_default(kind).with_requests(REQUESTS),
                regime,
            );
            let text = System::new(cfg, wl.clone())
                .run()
                .to_json()
                .to_json_string();
            got.push((format!("canneal/{}/{regime}", kind.label()), text));
        }
    }
    let path = manifest_path("tests/golden/reports.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let mut obj = Value::obj();
        for (point, text) in &got {
            obj.set(point, Value::Str(format!("{:016x}", digest(text))));
        }
        std::fs::write(&path, obj.to_json_string()).expect("write golden");
        eprintln!("blessed {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); run UPDATE_GOLDEN=1 cargo test --test reports",
            path.display()
        )
    });
    let want = json::parse(&text).expect("golden file parses");
    let mut drifted = Vec::new();
    for (point, text) in &got {
        let actual = format!("{:016x}", digest(text));
        let pinned = match want.get(point) {
            Some(Value::Str(s)) => Some(s.as_str()),
            _ => None,
        };
        if pinned == Some(actual.as_str()) {
            continue;
        }
        let dump =
            manifest_path("target/report-pin").join(format!("{}.json", point.replace('/', "_")));
        std::fs::create_dir_all(dump.parent().expect("dump dir")).expect("mkdir dump dir");
        std::fs::write(&dump, text).expect("write actual report");
        drifted.push(format!(
            "{point}: digest {actual}, pinned {pinned:?}; actual JSON in {}",
            dump.display()
        ));
    }
    assert!(
        drifted.is_empty(),
        "reports drifted from tests/golden/reports.json:\n{}",
        drifted.join("\n")
    );
    let pinned_points = match &want {
        Value::Obj(entries) => entries.len(),
        _ => 0,
    };
    assert_eq!(
        pinned_points,
        got.len(),
        "tests/golden/reports.json pins a different point set — re-bless"
    );
}

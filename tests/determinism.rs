//! Determinism and conservation guard over a small point set.
//!
//! A sweep renders byte-identical RunReport JSON at any worker count, the
//! protocol checker stays green, a fault storm is recovered visibly, and
//! every issued request completes. With the lifecycle tracer on, the
//! report stays byte-identical and every request's timeline conserves and
//! reconciles with the controllers' counters. The point set is small
//! enough to run in seconds in a debug build.

use pcmap::core::{RollbackMode, SystemKind};
use pcmap::sim::{RunReport, SimConfig, SweepPoint, SweepRunner, System};
use pcmap::types::FaultConfig;
use pcmap::workloads::catalog;

const REQUESTS: u64 = 600;

fn cfg(kind: SystemKind) -> SimConfig {
    SimConfig::paper_default(kind).with_requests(REQUESTS)
}

/// Baseline and RWoW-RDE on canneal, one fault-storm point and one
/// always-faulty rollback point (on streamcluster, which rolls back within
/// this request budget).
fn points() -> Vec<SweepPoint> {
    [
        (cfg(SystemKind::Baseline), "canneal"),
        (cfg(SystemKind::RwowRde), "canneal"),
        (
            cfg(SystemKind::RwowRde).with_faults(FaultConfig::storm(0.04, 0xFEED)),
            "canneal",
        ),
        (
            cfg(SystemKind::RwowNr).with_rollback(RollbackMode::AlwaysFaulty),
            "streamcluster",
        ),
    ]
    .into_iter()
    .map(|(cfg, workload)| SweepPoint {
        cfg,
        workload: catalog::by_name(workload).expect("catalog workload"),
    })
    .collect()
}

fn json(r: &RunReport) -> String {
    r.to_json().to_json_string()
}

#[test]
fn sweep_json_is_identical_at_jobs_1_and_4() {
    let serial: Vec<String> = SweepRunner::new(1)
        .run_points(points())
        .iter()
        .map(json)
        .collect();
    let parallel: Vec<String> = SweepRunner::new(4)
        .run_points(points())
        .iter()
        .map(json)
        .collect();
    assert_eq!(serial, parallel);
}

#[test]
fn runs_are_checked_recovered_and_conserved() {
    let reports = SweepRunner::new(1).run_points(points());
    for r in &reports {
        let label = format!("{:?}", r.kind);
        assert_eq!(r.invariant_violations, 0, "{label}");
        if cfg!(debug_assertions) {
            assert!(r.invariants_checked > 0, "{label}: checker never ran");
        }
        assert_eq!(
            r.reads_completed + r.writes_completed,
            r.sim.counter("requests_issued"),
            "{label}: every issued request completes"
        );
    }
    let storm = &reports[2];
    assert!(storm.faults_injected > 0, "the storm point injects faults");
    assert_eq!(storm.silent_corruptions, 0);
    assert!(reports[3].rollbacks > 0, "the rollback point rolls back");
}

#[test]
fn traced_runs_are_identical_conserved_and_reconciled() {
    let untraced = SweepRunner::new(1).run_points(points());
    let traced = SweepRunner::new(1).map(points(), |p| {
        let mut sys = System::new(p.cfg, p.workload);
        sys.enable_lifecycle_tracing();
        sys.run()
    });
    for (off, on) in untraced.iter().zip(&traced) {
        let label = format!("{:?}", on.kind);
        assert_eq!(json(off), json(on), "{label}: tracing changed the report");
        assert_eq!(on.lifetrace_dropped, 0, "{label}");
        let lc = on.lifecycle.as_ref().expect("tracing was on");
        assert_eq!(lc.merged.violations, 0, "{label}");
        for (ch, t) in &lc.timelines {
            assert!(t.conserves(), "{label}: req {} on ch{ch}: {t:?}", t.req);
        }
        let merged = on.merged_channels();
        assert_eq!(lc.merged.reads, merged.counter("reads_done"), "{label}");
        assert_eq!(
            lc.merged.read_latency_cycles,
            merged.counter("read_latency_sum"),
            "{label}"
        );
    }
}

//! Equivalence harness for sweep parallelism (DESIGN.md §9).
//!
//! The determinism contract: for every workload, system kind, scale,
//! rollback mode, fault regime and observer configuration, a sweep farmed
//! to N workers ([`SweepRunner::new`]`(n)`) must produce `RunReport`s whose
//! [`RunReport::to_json`](pcmap_sim::RunReport::to_json) rendering is
//! **byte-identical**, point for point and in input order, to the same
//! sweep run inline at `--jobs 1` — merged latency histograms, windowed
//! IRLP/throughput series, per-channel snapshots and all. Any scheduling
//! leak (shared RNG streams, global state touched by a run, result
//! reordering) shows up here as a first-byte diff.

use pcmap_core::{RollbackMode, SystemKind};
use pcmap_par::Pool;
use pcmap_sim::{SimConfig, SweepPoint, SweepRunner, System};
use pcmap_types::FaultConfig;
use pcmap_workloads::catalog;

fn cfg(kind: SystemKind, requests: u64) -> SimConfig {
    SimConfig::paper_default(kind).with_requests(requests)
}

fn point(c: SimConfig, workload: &str) -> SweepPoint {
    SweepPoint {
        cfg: c,
        workload: catalog::by_name(workload).expect("catalog workload"),
    }
}

/// Runs `points` through a `jobs`-worker sweep and renders each report.
fn sweep_json(points: Vec<SweepPoint>, jobs: usize) -> Vec<String> {
    SweepRunner::new(jobs)
        .run_points(points)
        .iter()
        .map(|r| r.to_json().to_json_string())
        .collect()
}

/// Asserts the sweep over `points` renders identically at `jobs` workers
/// and at `--jobs 1`.
fn assert_sweep_matches_serial(points: &[SweepPoint], jobs: usize, label: &str) {
    assert_eq!(
        sweep_json(points.to_vec(), 1),
        sweep_json(points.to_vec(), jobs),
        "{label}: jobs {jobs} != jobs 1"
    );
}

/// The headline matrix: {baseline, PCMap} × {2 workloads} × {3 scales},
/// plus WoW-NR and RWoW-RD on canneal at 1 000 requests, one sweep at 4
/// workers vs the same sweep inline. The 1 000-request points are the
/// fig08 and fig10 golden scenarios.
#[test]
fn matrix_sweep_json_is_byte_identical_to_serial() {
    let mut points = Vec::new();
    for kind in [SystemKind::Baseline, SystemKind::RwowRde] {
        for workload in ["streamcluster", "canneal"] {
            for requests in [400u64, 1000, 1500] {
                points.push(point(cfg(kind, requests), workload));
            }
        }
    }
    for kind in [SystemKind::WowNr, SystemKind::RwowRd] {
        points.push(point(cfg(kind, 1000), "canneal"));
    }
    assert_sweep_matches_serial(&points, 4, "kind x workload x scale matrix");
}

/// Rollback accounting runs its own per-core RNG streams; the always-
/// faulty mode must stay on them whichever worker runs the point. The
/// MP6 points at 3 500 requests are the tab04 golden scenario.
#[test]
fn sweep_matches_serial_under_rollback_accounting() {
    let mut points: Vec<SweepPoint> = [RollbackMode::AlwaysFaulty, RollbackMode::NeverFaulty]
        .map(|mode| point(cfg(SystemKind::RwowNr, 1200).with_rollback(mode), "canneal"))
        .into();
    for (kind, mode) in [
        (SystemKind::Baseline, RollbackMode::NeverFaulty),
        (SystemKind::RwowNr, RollbackMode::AlwaysFaulty),
        (SystemKind::RwowNr, RollbackMode::NeverFaulty),
    ] {
        points.push(point(cfg(kind, 3500).with_rollback(mode), "MP6"));
    }
    assert_sweep_matches_serial(&points, 4, "rollback accounting");
}

/// Worker count must not matter — only `1` takes the threadless path, but
/// 2, 4, and 8 workers (8 exceeds the point count) must all agree with
/// it bit-for-bit.
#[test]
fn sweep_is_worker_count_invariant() {
    let points = [
        SystemKind::Baseline,
        SystemKind::RwowNr,
        SystemKind::RwowRde,
    ]
    .map(|kind| point(cfg(kind, 800), "streamcluster"));
    for jobs in [1usize, 2, 4, 8] {
        assert_sweep_matches_serial(&points, jobs, "worker count");
    }
}

/// A `--jobs 1` pool must be the serial path (the map runs on the
/// caller's own thread), not merely equivalent to it.
#[test]
fn jobs_one_pool_is_threadless() {
    let caller = std::thread::current().id();
    let mut pool = Pool::new(1);
    assert_eq!(pool.jobs(), 1);
    let seen = pool.ordered_map(vec![(); 3], |()| std::thread::current().id());
    assert_eq!(seen, vec![caller; 3]);
}

/// Farming (workload × kind) points to 4 workers must reproduce the
/// serial sweep byte-for-byte, in input order.
#[test]
fn sweep_runner_json_is_byte_identical_and_input_ordered() {
    let points: Vec<SweepPoint> = ["streamcluster", "canneal"]
        .iter()
        .flat_map(|w| {
            [
                SystemKind::Baseline,
                SystemKind::RwowNr,
                SystemKind::RwowRde,
            ]
            .map(|k| point(cfg(k, 500), w))
        })
        .collect();
    let reports = SweepRunner::new(4).run_points(points.clone());
    for (p, r) in points.iter().zip(&reports) {
        assert_eq!(p.cfg.kind, r.kind, "input order preserved");
        assert_eq!(p.workload.name, r.workload);
    }
    assert_sweep_matches_serial(&points, 4, "workload x kind sweep");
}

/// Profiling is a pure observer: an unprofiled serial sweep and a
/// profiled 4-worker sweep (spans, counters, occupancy, trace capture all
/// live) must still be byte-identical. This is the acceptance gate for
/// pcmap-prof's determinism-neutrality contract.
#[test]
fn profiled_parallel_sweep_is_byte_identical_to_unprofiled_serial() {
    let points =
        [SystemKind::Baseline, SystemKind::RwowRde].map(|kind| point(cfg(kind, 1200), "canneal"));
    let baseline = sweep_json(points.to_vec(), 1);
    pcmap_prof::enable();
    pcmap_prof::enable_trace();
    let profiled = sweep_json(points.to_vec(), 4);
    pcmap_prof::disable_trace();
    pcmap_prof::disable();
    assert_eq!(
        baseline, profiled,
        "profiling leaked into the simulation state"
    );
}

/// The lifecycle tracer is a pure observer too: traced systems built
/// inside a sweep closure, at several worker counts, must render
/// byte-identical RunReport JSON to an untraced serial sweep. The full
/// timeline report is carried out-of-band (`RunReport::lifecycle`,
/// excluded from `to_json`), so the only JSON-visible tracer output is
/// the `lifetrace_dropped` counter — which must be 0 here.
#[test]
fn lifetraced_parallel_sweep_is_byte_identical_to_untraced_serial() {
    let points =
        [SystemKind::Baseline, SystemKind::RwowRde].map(|kind| point(cfg(kind, 1200), "canneal"));
    let baseline = sweep_json(points.to_vec(), 1);
    for jobs in [1usize, 4] {
        let reports = SweepRunner::new(jobs).map(points.to_vec(), |p| {
            let mut sys = System::new(p.cfg, p.workload);
            sys.enable_lifecycle_tracing();
            sys.run()
        });
        for (r, base) in reports.iter().zip(&baseline) {
            assert_eq!(r.lifetrace_dropped, 0);
            let lc = r.lifecycle.as_ref().expect("tracing was on");
            assert_eq!(lc.merged.violations, 0, "jobs = {jobs}");
            assert_eq!(
                base,
                &r.to_json().to_json_string(),
                "lifecycle tracing leaked into the simulation at jobs = {jobs}"
            );
        }
    }
}

/// Fault injection must not weaken the contract: each run's `FaultPlan`
/// is private to that run, so a seeded fault storm sweep must stay
/// byte-identical across worker counts — recovery retries, watchdog
/// trips, degradation windows, corruption rollbacks and all.
#[test]
fn fault_storm_sweep_is_byte_identical_across_worker_counts() {
    let points = [SystemKind::Baseline, SystemKind::RwowRde].map(|kind| {
        point(
            cfg(kind, 1000).with_faults(FaultConfig::storm(0.04, 0xFEED)),
            "canneal",
        )
    });
    for jobs in [2usize, 4] {
        assert_sweep_matches_serial(&points, jobs, "fault storm");
    }
}

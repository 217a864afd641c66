//! The benchmark's workloads: what one batch builds, runs and checks.
//!
//! Each workload runs as a closed batch — one caller, the next batch
//! starting when the previous one ends — single-threaded (`--jobs 1`).
//! A run cycles its batches over a fixed number of distinct inputs drawn
//! from `--seed`, so its modelled figures average over several inputs
//! instead of resting on one.

use pcmap_core::SystemKind;
use pcmap_obs::{LatencyHistogram, StallBreakdown, Value};
use pcmap_par::Pool;
use pcmap_serve::{run_fleet, ServeReport, ServiceLevel, ShardSim};
use pcmap_sim::{Engine, RunReport, SimConfig, System};
use pcmap_types::{ServeConfig, SplitMix64};
use pcmap_workloads::catalog;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// canneal (rpki 15.19, wpki 7.13) on RWoW-RDE, the paper's headline
    /// system: write-heavy, ECC-, storage- and scheduler-bound.
    CannealRwowRde,
    /// Table II mix MP3 (rpki 2.31, wpki 1.08) on the Baseline
    /// controller: read-side and engine-bound, no RoW/WoW.
    Mp3Baseline,
    /// The serve tier's soak fleet: 1 024 tenants on 8×4×8 ranks,
    /// 1 048 576 requests under a 0.02 fault storm.
    ServeStorm,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::CannealRwowRde,
        Workload::Mp3Baseline,
        Workload::ServeStorm,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CannealRwowRde => "canneal-rwowrde",
            Workload::Mp3Baseline => "mp3-baseline",
            Workload::ServeStorm => "serve-storm",
        }
    }

    /// Looks a workload up by its `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated requests one batch carries to completion.
    pub fn batch_requests(self) -> u64 {
        match self {
            Workload::CannealRwowRde => 5_000,
            Workload::Mp3Baseline => 20_000,
            Workload::ServeStorm => ServeConfig::soak().requests,
        }
    }

    /// Distinct inputs a run cycles its batches over.
    pub fn inputs(self) -> usize {
        match self {
            Workload::CannealRwowRde => 24,
            Workload::Mp3Baseline => 32,
            Workload::ServeStorm => 4,
        }
    }

    /// The catalog program whose per-core profiles feed the generator
    /// (the serve tier has no CPU side; its generator timing uses
    /// canneal's, as the component microbenches do).
    pub fn program(self) -> &'static str {
        match self {
            Workload::CannealRwowRde | Workload::ServeStorm => "canneal",
            Workload::Mp3Baseline => "MP3",
        }
    }

    /// Builds one batch for input `seed`: the workload and its `System`,
    /// or the serve config and every shard simulator of its fleet. This
    /// is the work `setup_s` times.
    pub fn prepare(self, seed: u64) -> Prepared {
        match self {
            Workload::CannealRwowRde | Workload::Mp3Baseline => {
                let kind = if self == Workload::CannealRwowRde {
                    SystemKind::RwowRde
                } else {
                    SystemKind::Baseline
                };
                let wl = catalog::by_name(self.program()).expect("catalog program exists");
                let cfg = SimConfig::paper_default(kind)
                    .with_requests(self.batch_requests())
                    .with_seed(seed);
                Prepared::System(Box::new(System::new(cfg, wl)))
            }
            Workload::ServeStorm => {
                let cfg = ServeConfig::soak().with_seed(seed);
                cfg.validate().expect("soak profile is valid");
                for shard in 0..cfg.shards() {
                    std::hint::black_box(ShardSim::new(cfg.clone(), shard));
                }
                Prepared::Serve(Box::new(cfg))
            }
        }
    }
}

/// The `k` inputs of a run on `seed`: `seed` itself first, so input 0
/// is exactly what `pcmap_run`/`pcmap_serve --seed <seed>` simulate,
/// then a SplitMix64 stream from it.
pub fn input_seeds(seed: u64, k: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    std::iter::once(seed)
        .chain(std::iter::repeat_with(|| rng.next_u64()))
        .take(k)
        .collect()
}

/// A batch built and ready to run.
pub enum Prepared {
    /// A full-system simulation.
    System(Box<System>),
    /// A serve-tier fleet.
    Serve(Box<ServeConfig>),
}

impl Prepared {
    /// Runs the batch to completion (single-threaded) and checks it.
    pub fn run(self) -> Batch {
        match self {
            Prepared::System(sys) => Batch::from_system(sys.run_with_engine(Engine::Event)),
            Prepared::Serve(cfg) => Batch::from_serve(&run_fleet(&cfg, &mut Pool::new(1))),
        }
    }
}

/// The checked outcome of one batch.
pub struct Batch {
    /// Simulated requests carried to completion (retired, or for the
    /// serve tier brought to a terminal outcome).
    pub requests: u64,
    /// Digest of the report JSON `pcmap_run`/`pcmap_serve --json`
    /// writes, with the protocol checker's own counters zeroed so a
    /// checked batch compares equal to an unchecked one.
    pub digest: u64,
    /// Failed correctness checks (empty when the batch is sound).
    pub problems: Vec<String>,
    /// Protocol-invariant checks evaluated (0 unless `PCMAP_CHECK` was
    /// set when the batch was prepared).
    pub invariants_checked: u64,
    /// Modelled (simulated, host-independent) figures.
    pub model: Vec<(&'static str, f64)>,
    /// Modelled latency distribution in memory cycles: read latency
    /// for a `System`, request latency for the serve tier.
    pub latency: LatencyHistogram,
}

impl Batch {
    fn from_system(r: RunReport) -> Self {
        let requests = r.reads_completed + r.writes_completed;
        let invariants_checked = r.invariants_checked;
        let mut problems = Vec::new();
        if r.invariant_violations > 0 {
            problems.push(format!(
                "{} protocol-invariant violations",
                r.invariant_violations
            ));
        }
        let mut json = r.to_json();
        zero_checker_counters(&mut json);
        let digest = crate::gate::digest(&json.to_json_string());
        let stalls = StallBreakdown::from_snapshot(&r.merged_channels());
        let per_kinst = |n: u64| n as f64 * 1000.0 / r.instructions.max(1) as f64;
        let model = vec![
            ("model_mem_cycles", r.mem_cycles as f64),
            ("model_ipc", r.ipc()),
            ("core.irlp_mean", r.irlp_mean),
            ("core.reads_via_row", r.reads_via_row as f64),
            ("core.wow_overlaps", r.wow_overlaps as f64),
            ("core.stall.multi_busy", stalls.multi_busy as f64),
            (
                "core.stall.write_data_blocked",
                stalls.write_data_blocked as f64,
            ),
            (
                "core.stall.write_ecc_blocked",
                stalls.write_ecc_blocked as f64,
            ),
            ("ctrl.drains", r.drains as f64),
            ("ctrl.delayed_read_frac", r.delayed_read_fraction),
            (
                "cpu.read_stall_cycles_per_kinst",
                per_kinst(r.cores.counter("read_stall_cycles")),
            ),
            ("cpu.rollbacks", r.rollbacks as f64),
        ];
        Self {
            requests,
            digest,
            problems,
            invariants_checked,
            model,
            latency: r.read_latency_hist,
        }
    }

    fn from_serve(r: &ServeReport) -> Self {
        let s = &r.summary;
        let all_levels: u64 = r.level_cycles.iter().sum();
        let full = r.level_cycles[ServiceLevel::ALL
            .iter()
            .position(|&l| l == ServiceLevel::Full)
            .expect("the ladder has a full rung")];
        let model = vec![
            ("model_mem_cycles", r.end_cycle as f64),
            ("model_slo_bp", f64::from(s.slo_attainment_bp())),
            (
                "serve.ladder_full_frac",
                full as f64 / all_levels.max(1) as f64,
            ),
            ("serve.retries", s.retries as f64),
            ("serve.throttled", s.shed_throttled as f64),
            ("serve.peak_queue", s.peak_ingress as f64),
        ];
        Self {
            requests: s.generated,
            digest: crate::gate::digest(&r.to_json().to_json_string()),
            problems: r.check(),
            invariants_checked: 0,
            model,
            latency: r
                .snapshot
                .histogram("serve_latency")
                .cloned()
                .unwrap_or_default(),
        }
    }

    /// Adds the check that the batch completed exactly the requests it
    /// was asked for.
    pub fn expect_requests(&mut self, want: u64) {
        if self.requests != want {
            self.problems.push(format!(
                "{} requests completed, {want} issued",
                self.requests
            ));
        }
    }
}

/// Zeroes the protocol checker's own counters everywhere in a report:
/// they are the only fields the checker may change, so a checked and an
/// unchecked run of one input digest alike.
fn zero_checker_counters(v: &mut Value) {
    match v {
        Value::Obj(entries) => {
            for (key, value) in entries {
                if key == "invariants_checked" || key == "invariant_violations" {
                    *value = Value::U64(0);
                } else {
                    zero_checker_counters(value);
                }
            }
        }
        Value::Arr(items) => items.iter_mut().for_each(zero_checker_counters),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_counters_are_zeroed_at_any_depth() {
        let mut v = pcmap_obs::json::parse(
            r#"{"invariants_checked": 9, "mem_cycles": 5,
                "channels": [{"counters": {"invariants_checked": 4, "invariant_violations": 1, "reads": 2}}]}"#,
        )
        .expect("parses");
        zero_checker_counters(&mut v);
        assert_eq!(
            v.to_json_string(),
            r#"{"invariants_checked":0,"mem_cycles":5,"channels":[{"counters":{"invariants_checked":0,"invariant_violations":0,"reads":2}}]}"#
        );
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("canneal"), None);
    }

    #[test]
    fn inputs_start_at_the_seed_and_are_distinct() {
        let s = input_seeds(42, 8);
        assert_eq!(s[0], 42);
        assert_eq!(s, input_seeds(42, 8));
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
    }
}

//! `cargo xtask perf` — the performance-trajectory harness.
//!
//! Runs the canonical workloads in release mode with `pcmap-prof`
//! enabled (each child writes a JSON profile sidecar), measures wall
//! time, and records sim-cycles/sec, peak RSS, span breakdowns, and
//! occupancy into a schema-versioned `BENCH_<n>.json` at the repo root —
//! one file per PR, so `git log -p 'BENCH_*.json'` is the simulator's
//! performance history. The fresh report is compared against the
//! highest-numbered prior BENCH file of the same mode; regressions over
//! 10% *warn*, they never fail the gate (machine noise must not block a
//! merge).
//!
//! Modes: `--smoke` shrinks every scenario for CI; `--alloc` rebuilds
//! the bench binaries with the counting global allocator
//! (`pcmap-prof/alloc-profile`) so allocation totals land in the JSON.
//! One scenario always runs with `PCMAP_TRACE=1` and leaves a Chrome
//! trace at `results/trace.json`.

use pcmap_obs::Value;
use pcmap_prof::bench::{BenchReport, BenchScenario, REGRESSION_THRESHOLD};
use std::env;
use std::fs;
use std::time::Instant;

/// One canonical workload to measure.
struct Scenario {
    name: &'static str,
    bin: &'static str,
    args: Vec<String>,
    /// Also record a Chrome trace (`results/trace.json`).
    trace: bool,
}

fn owned(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| (*s).to_owned()).collect()
}

/// The canonical scenario set. Smoke mode keeps every scenario (so the
/// trajectory stays comparable across CI runs) but parallelizes the
/// figure sweeps and shortens the request budgets.
fn scenarios(smoke: bool) -> Vec<Scenario> {
    let fig_args = if smoke {
        owned(&["quick", "--jobs", "4"])
    } else {
        owned(&["quick"])
    };
    let sweep_requests = if smoke { "1500" } else { "4000" };
    let soak_requests = if smoke { "800" } else { "3000" };
    vec![
        Scenario {
            name: "fig08-irlp",
            bin: "fig08_irlp",
            args: fig_args.clone(),
            trace: false,
        },
        Scenario {
            name: "fig10-read-latency",
            bin: "fig10_read_latency",
            args: fig_args,
            trace: false,
        },
        Scenario {
            name: "sweep-jobs1",
            bin: "pcmap_run",
            args: owned(&["--all", "--requests", sweep_requests, "--jobs", "1"]),
            trace: false,
        },
        Scenario {
            name: "sweep-jobs4",
            bin: "pcmap_run",
            args: owned(&["--all", "--requests", sweep_requests, "--jobs", "4"]),
            trace: false,
        },
        Scenario {
            name: "fault-soak",
            bin: "fault_sweep",
            args: owned(&["--requests", soak_requests]),
            trace: false,
        },
        Scenario {
            name: "traced-run",
            bin: "pcmap_run",
            args: owned(&[
                "--workload",
                "canneal",
                "--system",
                "rwow-rde",
                "--requests",
                "1500",
            ]),
            trace: true,
        },
    ]
}

/// `BENCH_<n>.json` files already at the repo root, as (index, path).
fn existing_bench_files() -> Vec<(u64, String)> {
    let mut out = Vec::new();
    if let Ok(rd) = fs::read_dir(".") {
        for entry in rd.flatten() {
            let file = entry.file_name().to_string_lossy().into_owned();
            if let Some(idx) = file
                .strip_prefix("BENCH_")
                .and_then(|r| r.strip_suffix(".json"))
                .and_then(|n| n.parse::<u64>().ok())
            {
                out.push((idx, file));
            }
        }
    }
    out.sort_unstable();
    out
}

/// Runs one scenario and turns its sidecar profile into a
/// [`BenchScenario`]. A missing or unreadable sidecar degrades to a
/// `Null` profile rather than failing the run.
fn run_scenario(s: &Scenario, sidecar: &str) -> Result<BenchScenario, String> {
    let mut args: Vec<&str> = vec![
        "run",
        "--release",
        "-q",
        "-p",
        "pcmap-bench",
        "--bin",
        s.bin,
        "--",
    ];
    args.extend(s.args.iter().map(String::as_str));
    let mut envs: Vec<(&str, &str)> = vec![("PCMAP_PROF_JSON", sidecar)];
    if s.trace {
        envs.push(("PCMAP_TRACE", "1"));
        envs.push(("PCMAP_TRACE_OUT", "results/trace.json"));
    }
    let begun = Instant::now();
    crate::step_env(&format!("perf-{}", s.name), &args, &envs)?;
    let wall_ms = u64::try_from(begun.elapsed().as_millis()).unwrap_or(u64::MAX);

    let profile = fs::read_to_string(sidecar)
        .ok()
        .and_then(|text| pcmap_obs::json::parse(&text).ok())
        .unwrap_or(Value::Null);
    if profile == Value::Null {
        println!("xtask: perf WARNING: {}: no profile sidecar", s.name);
    }
    let sim_cycles = profile
        .get("sim")
        .and_then(|v| v.get("sim_cycles"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    let peak_rss_kb = profile.get("peak_rss_kb").and_then(Value::as_u64);
    let wall_s = (wall_ms.max(1) as f64) / 1000.0;
    Ok(BenchScenario {
        name: s.name.to_owned(),
        wall_ms,
        sim_cycles,
        sim_cycles_per_sec: (sim_cycles as f64) / wall_s,
        peak_rss_kb,
        profile,
    })
}

/// Prints the scenario's hottest spans (by total time) as a one-glance
/// breakdown under the scenario line.
fn print_span_breakdown(sc: &BenchScenario) {
    let Some(Value::Arr(spans)) = sc.profile.get("spans") else {
        return;
    };
    let mut rows: Vec<(u64, u64, String)> = spans
        .iter()
        .filter_map(|sp| {
            let total = sp.get("total_ns").and_then(Value::as_u64)?;
            let calls = sp.get("calls").and_then(Value::as_u64)?;
            let span_name = match sp.get("name")? {
                Value::Str(n) => n.clone(),
                _ => return None,
            };
            (total > 0).then_some((total, calls, span_name))
        })
        .collect();
    rows.sort_unstable_by(|a, b| b.cmp(a));
    for (total, calls, span_name) in rows.iter().take(5) {
        println!(
            "xtask:     {span_name:<18} {:>9.1} ms  {calls:>10} calls",
            (*total as f64) / 1e6
        );
    }
}

/// The `cargo xtask perf` entry point.
pub fn perf(smoke: bool, alloc: bool) -> Result<(), String> {
    // 1. Build every scenario binary up front so wall-clock measurements
    // below do not pay compile time.
    let mut build: Vec<&str> = vec![
        "build",
        "--release",
        "-p",
        "pcmap-bench",
        "--bin",
        "pcmap_run",
        "--bin",
        "fig08_irlp",
        "--bin",
        "fig10_read_latency",
        "--bin",
        "fault_sweep",
    ];
    if alloc {
        build.extend_from_slice(&["--features", "alloc-profile"]);
    }
    crate::step("perf-build", &build)?;

    // 2. Run the scenarios, each with a private profile sidecar.
    let dir = env::temp_dir().join("pcmap-perf");
    fs::create_dir_all(&dir).map_err(|e| format!("perf: mkdir: {e}"))?;
    let mode = if smoke { "smoke" } else { "full" };
    let mut measured = Vec::new();
    for s in scenarios(smoke) {
        let sidecar = dir.join(format!("{}.json", s.name));
        let sc = run_scenario(&s, &sidecar.to_string_lossy())?;
        println!(
            "xtask: perf {}: {} ms wall, {} sim cycles, {:.0} cycles/sec{}",
            sc.name,
            sc.wall_ms,
            sc.sim_cycles,
            sc.sim_cycles_per_sec,
            sc.peak_rss_kb
                .map(|kb| format!(", {kb} kB peak RSS"))
                .unwrap_or_default(),
        );
        print_span_breakdown(&sc);
        measured.push(sc);
    }

    // 3. Write BENCH_<n>.json and compare against the prior trajectory
    // point. Regressions warn — they never fail the gate.
    let prior_files = existing_bench_files();
    let prior_indices: Vec<u64> = prior_files.iter().map(|&(idx, _)| idx).collect();
    // Gap-tolerant and overwrite-proof: beyond every scanned index AND
    // skipping any index whose file exists anyway (partial scans, files
    // the prefix parse missed).
    let bench_index = pcmap_prof::bench::next_bench_index(&prior_indices, |n| {
        std::path::Path::new(&format!("BENCH_{n}.json")).exists()
    });
    let report = BenchReport {
        bench_index,
        mode: mode.to_owned(),
        scenarios: measured,
    };
    for (_, file) in prior_files.iter().rev() {
        let Some(prior) = fs::read_to_string(file)
            .ok()
            .and_then(|text| pcmap_obs::json::parse(&text).ok())
            .as_ref()
            .and_then(BenchReport::from_value)
        else {
            println!("xtask: perf WARNING: cannot parse {file}, skipping comparison");
            continue;
        };
        if prior.mode != report.mode {
            continue;
        }
        let regs = report.regressions_vs(&prior);
        if regs.is_empty() {
            println!(
                "xtask: perf: no regression over {:.0}% vs {file}",
                REGRESSION_THRESHOLD * 100.0
            );
        }
        for (scenario, old_rate, new_rate) in regs {
            println!(
                "xtask: perf WARNING: {scenario} regressed vs {file}: \
                 {old_rate:.0} -> {new_rate:.0} sim cycles/sec"
            );
        }
        break;
    }
    let out = format!("BENCH_{bench_index}.json");
    pcmap_obs::export::write_json(&out, &report.to_value())
        .map_err(|e| format!("perf: write {out}: {e}"))?;
    println!("xtask: perf: wrote {out} ({mode} mode)");

    // 4. Compact trajectory: one row per BENCH_*.json (including the one
    // just written) with only schema version, mode, and per-scenario
    // throughput — the plottable history without the full profiles.
    let history: Vec<BenchReport> = existing_bench_files()
        .into_iter()
        .filter_map(|(_, file)| {
            let parsed = fs::read_to_string(&file)
                .ok()
                .and_then(|text| pcmap_obs::json::parse(&text).ok())?;
            BenchReport::from_value(&parsed)
        })
        .collect();
    let hist_path = "results/bench_history.json";
    pcmap_obs::export::write_json(hist_path, &pcmap_prof::bench::history_value(&history))
        .map_err(|e| format!("perf: write {hist_path}: {e}"))?;
    println!(
        "xtask: perf: wrote {hist_path} ({} trajectory rows)",
        history.len()
    );
    Ok(())
}

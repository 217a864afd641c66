//! Repository automation ("cargo xtask" pattern — no extra tooling, just a
//! workspace binary that shells out to cargo).
//!
//! ```text
//! cargo xtask ci       # fmt --check, lint, analyze, clippy -D warnings, test, perfbench, check, ablations, pardiff, soak, explain, perf --smoke
//! cargo xtask fmt      # rustfmt the whole tree
//! cargo xtask lint     # pcmap-lint determinism/hygiene pass -> results/lint.json
//! cargo xtask analyze  # pcmap-analyze semantic passes -> results/analyze.json
//! cargo xtask clippy   # clippy -D warnings only
//! cargo xtask perfbench # build and test the benchmark package against the crates
//! cargo xtask check    # PCMAP_CHECK=1 release experiment runs (protocol invariants)
//! cargo xtask ablations # ablations output byte-compared with results/ablations.txt
//! cargo xtask pardiff  # sweep jobs-1 vs jobs-4 JSON byte-diff gate
//! cargo xtask soak     # seeded fault-storm recovery gate -> results/soak.json
//! cargo xtask serve-soak # overload-safe ingestion gate -> results/serve_soak.json
//! cargo xtask explain  # lifecycle conservation gate -> results/explain.json
//! cargo xtask perf     # performance trajectory -> BENCH_<n>.json (--smoke, --alloc)
//! ```

mod perf;

use std::env;
use std::fs;
use std::process::{Command, ExitCode};

fn cargo() -> Command {
    Command::new(env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned()))
}

/// Runs one gate step, returning `Err(step name)` on failure.
fn step(name: &str, args: &[&str]) -> Result<(), String> {
    step_env(name, args, &[])
}

/// Like [`step`], with extra environment variables set for the child.
fn step_env(name: &str, args: &[&str], envs: &[(&str, &str)]) -> Result<(), String> {
    let rendered: Vec<String> = envs.iter().map(|(k, v)| format!("{k}={v} ")).collect();
    println!("xtask: {}cargo {}", rendered.join(""), args.join(" "));
    let status = cargo()
        .args(args)
        .envs(envs.iter().map(|&(k, v)| (k, v)))
        .status()
        .map_err(|e| format!("{name}: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(name.to_owned())
    }
}

fn fmt_check() -> Result<(), String> {
    step("fmt", &["fmt", "--all", "--check"])
}

/// The pcmap-lint determinism/hygiene pass (DESIGN.md §10): bans
/// `HashMap`/`HashSet`, wall-clock and OS-entropy sources in sim-facing
/// crates, unchecked `as` narrowing on cycle/address values, and float
/// accumulation in per-cycle stats. Writes `results/lint.json`.
fn lint() -> Result<(), String> {
    step(
        "lint",
        &[
            "run",
            "-q",
            "-p",
            "pcmap-lint",
            "--",
            "--json",
            "results/lint.json",
        ],
    )
}

/// The pcmap-analyze semantic pass (DESIGN.md §15): token rules plus
/// missed-wake horizon soundness, snapshot merge/export completeness,
/// interprocedural nondeterminism taint, `// SAFETY:` coverage, and
/// dead-waiver detection. Writes `results/analyze.json`.
fn analyze() -> Result<(), String> {
    step(
        "analyze",
        &[
            "run",
            "-q",
            "-p",
            "pcmap-lint",
            "--bin",
            "pcmap-analyze",
            "--",
            "--json",
            "results/analyze.json",
        ],
    )
}

fn clippy() -> Result<(), String> {
    step(
        "clippy",
        &[
            "clippy",
            "--workspace",
            "--all-targets",
            "--",
            "-D",
            "warnings",
        ],
    )
}

fn test() -> Result<(), String> {
    step("test", &["test", "--workspace", "-q"])
}

/// Builds and tests the benchmark package (`perfbench/`, a workspace of
/// its own that links the crates by path), so a change to a public
/// signature it times fails here rather than in the benchmark run.
fn perfbench() -> Result<(), String> {
    step(
        "perfbench",
        &[
            "test",
            "--release",
            "--offline",
            "--manifest-path",
            "perfbench/Cargo.toml",
        ],
    )
}

/// Runs the headline experiments in release mode with the protocol
/// invariant checker forced on (`PCMAP_CHECK=1`, strict): Figures 8–11
/// via `figs_all` plus Tables III and IV at quick scale. Any schedule
/// that breaks a paper invariant (busy-chip command, RoW without a PCC
/// plan, step-2 PCC gap, retire before deferred SECDED, spurious
/// rollback, wrong Status cost) aborts the run.
fn check() -> Result<(), String> {
    for bin in ["figs_all", "tab03_latency_ratio", "tab04_rollback"] {
        step_env(
            &format!("check-{bin}"),
            &[
                "run",
                "--release",
                "-q",
                "-p",
                "pcmap-bench",
                "--bin",
                bin,
                "--",
                "quick",
            ],
            &[("PCMAP_CHECK", "1")],
        )?;
    }
    Ok(())
}

/// Re-runs the DESIGN.md §5 ablations and byte-compares their output
/// with the committed `results/ablations.txt`. They are the only
/// experiment that drives the split-write (§IV-B4) and zero-cost
/// status-poll paths, so this pins both.
fn ablations() -> Result<(), String> {
    let args = [
        "run",
        "--release",
        "-q",
        "-p",
        "pcmap-bench",
        "--bin",
        "ablations",
    ];
    println!(
        "xtask: cargo {} | cmp - results/ablations.txt",
        args.join(" ")
    );
    let out = cargo()
        .args(args)
        .output()
        .map_err(|e| format!("ablations: {e}"))?;
    if !out.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
        return Err("ablations".to_owned());
    }
    let pinned = fs::read("results/ablations.txt")
        .map_err(|e| format!("ablations: read results/ablations.txt: {e}"))?;
    if out.stdout != pinned {
        return Err("ablations: output differs from results/ablations.txt".to_owned());
    }
    Ok(())
}

/// Runs a sweep serially and in parallel and byte-compares the exported
/// JSON — the end-to-end determinism gate behind `--jobs N` (DESIGN.md
/// §9): `--all` farms six system runs to the workers.
fn pardiff() -> Result<(), String> {
    step(
        "pardiff-build",
        &[
            "build",
            "--release",
            "-p",
            "pcmap-bench",
            "--bin",
            "pcmap_run",
        ],
    )?;
    let dir = env::temp_dir().join("pcmap-pardiff");
    fs::create_dir_all(&dir).map_err(|e| format!("pardiff: mkdir: {e}"))?;
    let mut outputs = Vec::new();
    for jobs in ["1", "4"] {
        let path = dir.join(format!("sweep-jobs{jobs}.json"));
        let path_str = path.to_string_lossy().into_owned();
        step(
            &format!("pardiff-sweep-jobs{jobs}"),
            &[
                "run",
                "--release",
                "-q",
                "-p",
                "pcmap-bench",
                "--bin",
                "pcmap_run",
                "--",
                "--all",
                "--requests",
                "1500",
                "--jobs",
                jobs,
                "--json",
                &path_str,
            ],
        )?;
        outputs.push(fs::read(&path).map_err(|e| format!("pardiff: read {path_str}: {e}"))?);
    }
    if outputs[0] != outputs[1] {
        return Err(format!(
            "pardiff: sweep: --jobs 4 JSON differs from --jobs 1 (artifacts in {})",
            dir.display()
        ));
    }
    println!(
        "xtask: pardiff sweep: --jobs 1 == --jobs 4 ({} bytes)",
        outputs[0].len()
    );
    Ok(())
}

/// The fault-storm soak gate (DESIGN.md §11): a seeded storm sweep with
/// the protocol checker strict, asserting zero silent corruptions, zero
/// invariant violations, every injected fault visibly accounted for, and
/// at least one sweep point entering *and* exiting degraded mode. The
/// verdict lands in `results/soak.json`.
fn soak() -> Result<(), String> {
    step_env(
        "soak",
        &[
            "run",
            "--release",
            "-q",
            "-p",
            "pcmap-bench",
            "--bin",
            "fault_sweep",
            "--",
            "--requests",
            "3000",
            "--soak",
        ],
        &[("PCMAP_CHECK", "1")],
    )
}

/// The serve-tier soak gate (DESIGN.md §16): ≥1M requests from ≥1k
/// tenants over hundreds of ranks under a seeded fault storm, run at
/// `--jobs 1` and `--jobs 4` and byte-compared, with conservation (every
/// request retired, shed, or failed visibly), the bounded-ingress cap,
/// and a demonstrated degradation ladder all asserted. The verdict lands
/// in `results/serve_soak.json`.
fn serve_soak() -> Result<(), String> {
    step(
        "serve-soak",
        &[
            "run",
            "--release",
            "-q",
            "-p",
            "pcmap-bench",
            "--bin",
            "pcmap_serve",
            "--",
            "--soak",
        ],
    )
}

/// The request-lifecycle conservation gate (DESIGN.md §13): traces a
/// small scenario end to end with `pcmap_explain --smoke`, which asserts
/// that every traced request's interval timeline partitions
/// `[arrival, retire)` exactly and that the tracer's totals reconcile
/// with the run's own counters. `--diff baseline` runs the gate on the
/// Baseline controller too, over the same request stream. The explain
/// report (RunReport + causal timelines of the first system) lands in
/// `results/explain.json`.
fn explain() -> Result<(), String> {
    step(
        "explain",
        &[
            "run",
            "--release",
            "-q",
            "-p",
            "pcmap-bench",
            "--bin",
            "pcmap_explain",
            "--",
            "--smoke",
            "--workload",
            "canneal",
            "--requests",
            "1200",
            "--top",
            "3",
            "--diff",
            "baseline",
        ],
    )
}

fn main() -> ExitCode {
    let task = env::args().nth(1).unwrap_or_default();
    let rest: Vec<String> = env::args().skip(2).collect();
    let result = match task.as_str() {
        "ci" => fmt_check()
            .and_then(|()| lint())
            .and_then(|()| analyze())
            .and_then(|()| clippy())
            .and_then(|()| test())
            .and_then(|()| perfbench())
            .and_then(|()| check())
            .and_then(|()| ablations())
            .and_then(|()| pardiff())
            .and_then(|()| soak())
            .and_then(|()| serve_soak())
            .and_then(|()| explain())
            .and_then(|()| perf::perf(true, false)),
        "fmt" => step("fmt", &["fmt", "--all"]),
        "lint" => lint(),
        "analyze" => analyze(),
        "clippy" => clippy(),
        "test" => test(),
        "perfbench" => perfbench(),
        "check" => check(),
        "ablations" => ablations(),
        "pardiff" => pardiff(),
        "soak" => soak(),
        "serve-soak" => serve_soak(),
        "explain" => explain(),
        "perf" => perf::perf(
            rest.iter().any(|a| a == "--smoke"),
            rest.iter().any(|a| a == "--alloc"),
        ),
        _ => {
            eprintln!(
                "usage: cargo xtask <ci|fmt|lint|analyze|clippy|test|perfbench|check|ablations|pardiff|soak|serve-soak|explain|perf [--smoke] [--alloc]>"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(failed) => {
            eprintln!("xtask: {failed} failed");
            ExitCode::FAILURE
        }
    }
}

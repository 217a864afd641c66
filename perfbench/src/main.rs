//! PCMap benchmark: simulator throughput and model fidelity, end to end
//! and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload canneal-rwowrde|mp3-baseline|serve-storm \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` times closed batches for `S` seconds with profiling off
//! and prints the end-to-end metrics. `--trace 1` prints the per-layer
//! metrics: outside timings of each layer's functions, then untraced
//! batches, profiled batches (the profiler of `PCMAP_PROF=1`; the
//! sidecar is also written to `$PCMAP_PROF_JSON` when that is set), one
//! batch under the protocol checker (`PCMAP_CHECK=1`), and one batch on
//! the held-out seed. Every batch is checked (see `gate`); the last line
//! of standard output is the JSON result.
//!
//! See `perfbench/NOTES.md` for why each workload was chosen and which
//! end-to-end metric each layer metric should move.

mod calib;
mod derive;
mod gate;
mod host;
mod layers;
mod stats;
mod workload;

use gate::Gate;
use pcmap_obs::{LatencyHistogram, Value};
use stats::Summary;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{input_seeds, Workload};

/// Seed used when `--seed` is not given (`pcmap_run`'s default).
const DEFAULT_SEED: u64 = 0xC0FFEE;
/// Seed never used for tuning: traced runs report its modelled metrics
/// so a later claim can be checked on inputs it was not tuned on.
const HELDOUT_SEED: u64 = 0x5EED_4E1D;

/// End-to-end metrics (`--trace 0`), `(name, unit)`.
const END_TO_END: [(&str, &str); 5] = [
    ("sim_req_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("model_mem_cycles", "cycles"),
    ("model_lat_p99_cycles", "cycles"),
];

/// Per-layer metrics (`--trace 1`), `(name, unit)`. A layer the workload
/// never enters reads 0.
const PER_LAYER: [(&str, &str); 45] = [
    ("ecc.secded_encode_ns", "ns"),
    ("ecc.ecc_word_ns", "ns"),
    ("ecc.pcc_word_ns", "ns"),
    ("ecc.update_ecc_word_ns", "ns"),
    ("ecc.verify_ns", "ns"),
    ("ecc.reconstruct_ns", "ns"),
    ("ecc.encodes_per_cmd", "count/cmd"),
    ("ecc.encode_ns_per_req", "ns/req"),
    ("ecc.decode_ns_per_req", "ns/req"),
    ("device.load_pristine_ns", "ns"),
    ("device.load_written_ns", "ns"),
    ("device.store_ns", "ns"),
    ("device.reserve_ns", "ns"),
    ("device.free_at_ns", "ns"),
    ("device.advance_ns_per_req", "ns/req"),
    ("ctrl.step_ns_per_req", "ns/req"),
    ("ctrl.schedule_ns_per_req", "ns/req"),
    ("ctrl.resolve_ns_per_req", "ns/req"),
    ("ctrl.queue_scans_per_cmd", "count/cmd"),
    ("ctrl.constraint_checks_per_cmd", "count/cmd"),
    ("ctrl.reservations_per_cmd", "count/cmd"),
    ("ctrl.drains", "count"),
    ("ctrl.delayed_read_frac", "frac"),
    ("core.irlp_mean", "reads"),
    ("core.reads_via_row", "count"),
    ("core.wow_overlaps", "count"),
    ("core.stall.multi_busy", "count"),
    ("core.stall.write_data_blocked", "count"),
    ("core.stall.write_ecc_blocked", "count"),
    ("sim.epochs_per_req", "count/req"),
    ("sim.poll_ns_per_req", "ns/req"),
    ("sim.deliver_ns_per_req", "ns/req"),
    ("sim.step_ns_per_req", "ns/req"),
    ("workloads.next_op_ns", "ns"),
    ("cpu.read_stall_cycles_per_kinst", "cycles/kinst"),
    ("cpu.rollbacks", "count"),
    ("serve.token_take_ns", "ns"),
    ("serve.fleet_ns_per_req", "ns/req"),
    ("serve.ladder_full_frac", "frac"),
    ("serve.retries", "count"),
    ("serve.throttled", "count"),
    ("serve.peak_queue", "count"),
    ("prof.overhead_frac", "frac"),
    ("model_ipc", "instr/cycle"),
    ("model_slo_bp", "bp"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(&name).ok_or(format!(
                    "unknown workload '{name}'; known: {}",
                    known.join(", ")
                ))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("bad seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got '{other}'")),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One benchmark run: its inputs, the correctness gate over every batch,
/// and what the batches measured.
struct Run {
    workload: Workload,
    inputs: Vec<u64>,
    gate: Gate,
    /// Each batch's set-up time, in reference seconds.
    setup_s: Vec<f64>,
    /// Host slowdown around each batch (see [`calib::slowdown`]).
    slowdowns: Vec<f64>,
    /// Modelled figures per input, from its first batch.
    model: BTreeMap<u64, InputModel>,
}

/// One input's modelled figures and latency distribution.
type InputModel = (Vec<(&'static str, f64)>, LatencyHistogram);

/// How a batch runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Profiling off; an input's first untraced batch sets its
    /// reference digest.
    Untraced,
    /// Under the profiler; must match the untraced reference.
    Profiled,
    /// Under the protocol checker (`PCMAP_CHECK=1`, read when the
    /// controllers are built); must match the untraced reference and
    /// evaluate at least one invariant.
    Checked,
}

/// What a closed loop of batches measured.
#[derive(Default)]
struct Loop {
    /// Simulated requests per reference second, one sample per batch.
    req_per_s: Vec<f64>,
    /// Simulated requests per host second, one sample per batch.
    raw_req_per_s: Vec<f64>,
    /// Simulated requests over all batches.
    requests: u64,
    /// Host seconds the batches ran.
    host_s: f64,
    /// The same in reference seconds.
    ref_s: f64,
}

impl Run {
    fn new(workload: Workload, seed: u64) -> Self {
        Self {
            workload,
            inputs: input_seeds(seed, workload.inputs()),
            gate: Gate::default(),
            setup_s: Vec::new(),
            slowdowns: Vec::new(),
            model: BTreeMap::new(),
        }
    }

    /// Prepares, runs and checks one batch on `input`, between two
    /// passes of the reference kernel; returns the batch, its run time
    /// in host seconds and the host slowdown around it.
    fn batch(&mut self, input: u64, mode: Mode) -> (workload::Batch, f64, f64) {
        let before = calib::reference_pass();
        if mode == Mode::Checked {
            std::env::set_var("PCMAP_CHECK", "1");
        }
        let t = Instant::now();
        let prepared = self.workload.prepare(input);
        let setup = t.elapsed();
        if mode == Mode::Checked {
            std::env::remove_var("PCMAP_CHECK");
        }
        let t = Instant::now();
        let mut batch = prepared.run();
        let elapsed = t.elapsed();
        let slowdown = calib::slowdown(before, calib::reference_pass());
        self.setup_s.push(setup.as_secs_f64() / slowdown);
        self.slowdowns.push(slowdown);
        batch.expect_requests(self.workload.batch_requests());
        let mut problems = std::mem::take(&mut batch.problems);
        if mode == Mode::Checked {
            println!(
                "checked batch: {} invariants checked",
                batch.invariants_checked
            );
            if batch.invariants_checked == 0 {
                problems.push("the protocol checker evaluated no invariants".to_owned());
            }
        }
        if mode == Mode::Untraced {
            self.gate.untraced(input, batch.digest, problems);
        } else {
            self.gate.traced(input, batch.digest, problems);
        }
        self.model
            .entry(input)
            .or_insert_with(|| (batch.model.clone(), batch.latency.clone()));
        (batch, elapsed.as_secs_f64(), slowdown)
    }

    /// Runs closed batches over the run's inputs, in order from the
    /// first, until `budget` is spent and every input ran at least once.
    fn closed_loop(&mut self, budget: Duration, mode: Mode) -> Loop {
        let start = Instant::now();
        let mut out = Loop::default();
        let mut i = 0;
        while i < self.inputs.len() || start.elapsed() < budget {
            let input = self.inputs[i % self.inputs.len()];
            let (batch, run_s, slowdown) = self.batch(input, mode);
            let rate = batch.requests as f64 / run_s;
            println!(
                "batch {i} input {} host_s {run_s} slowdown {slowdown} req_per_s {}",
                i % self.inputs.len(),
                rate * slowdown
            );
            out.raw_req_per_s.push(rate);
            out.req_per_s.push(rate * slowdown);
            out.requests += batch.requests;
            out.host_s += run_s;
            out.ref_s += run_s / slowdown;
            i += 1;
        }
        out
    }

    /// The modelled metrics over the run's inputs: the mean of each
    /// per-input figure, and the p99 of every input's latencies pooled,
    /// interpolated inside its histogram bucket.
    fn model_figures(&self) -> BTreeMap<&'static str, f64> {
        let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut pooled = LatencyHistogram::new();
        for (figures, latency) in self.inputs.iter().filter_map(|i| self.model.get(i)) {
            for &(name, v) in figures {
                *sums.entry(name).or_default() += v;
            }
            pooled.merge(latency);
        }
        let n = self.inputs.len() as f64;
        let mut out: BTreeMap<&'static str, f64> =
            sums.into_iter().map(|(k, v)| (k, v / n)).collect();
        out.insert(
            "model_lat_p99_cycles",
            stats::interpolated_percentile(&pooled, 99.0),
        );
        out
    }

    fn print_inputs(&self) {
        let refs: BTreeMap<u64, u64> = self.gate.references().collect();
        for (i, input) in self.inputs.iter().enumerate() {
            let figures = self
                .model
                .get(input)
                .map_or(String::new(), |(f, lat)| model_line(f, lat));
            println!(
                "input {i} seed {input} digest {:016x}{figures}",
                refs.get(input).copied().unwrap_or(0)
            );
        }
    }
}

/// One input's modelled figures as `pcmap_run`/`pcmap_serve --json`
/// report them for that seed.
fn model_line(figures: &[(&str, f64)], latency: &LatencyHistogram) -> String {
    let mut line = format!(" p99_latency_cycles={}", latency.percentile(99.0));
    for (n, v) in figures {
        line.push_str(&format!(" {n}={v}"));
    }
    line
}

fn print_summary(name: &str, unit: &str, samples: &[f64]) -> f64 {
    let s = Summary::of(samples);
    println!(
        "{name} median {} q1 {} q3 {} n {} spread {:.4} ({unit})",
        s.median,
        s.q1,
        s.q3,
        s.n,
        s.spread()
    );
    s.median
}

fn peak_rss_mb() -> f64 {
    pcmap_prof::rss::peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// The untraced end-to-end run.
fn end_to_end(run: &mut Run, seconds: u64) -> BTreeMap<&'static str, f64> {
    let lp = run.closed_loop(Duration::from_secs(seconds), Mode::Untraced);
    let mut m = run.model_figures();
    m.retain(|k, _| END_TO_END.iter().any(|(n, _)| n == k));
    print_summary("host sim_req_per_s", "1/s, unnormalised", &lp.raw_req_per_s);
    print_summary("host slowdown", "x reference speed", &run.slowdowns);
    m.insert(
        "sim_req_per_s",
        print_summary("sim_req_per_s", "1/s", &lp.req_per_s),
    );
    m.insert("setup_s", print_summary("setup_s", "s", &run.setup_s));
    m.insert("peak_rss_mb", peak_rss_mb());
    m
}

/// The traced run: outside timings, untraced and profiled loops, one
/// protocol-checked batch and one held-out batch.
fn per_layer(
    run: &mut Run,
    seed: u64,
    seconds: u64,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let quarter = Duration::from_secs(seconds) / 4;
    let mut m: BTreeMap<&'static str, f64> =
        layers::outside_timings(seed, run.workload.program(), quarter)
            .into_iter()
            .collect();

    let untraced = run.closed_loop(quarter, Mode::Untraced);
    let plain = print_summary("untraced sim_req_per_s", "1/s", &untraced.req_per_s);

    pcmap_prof::reset();
    pcmap_prof::enable();
    let traced = run.closed_loop(quarter, Mode::Profiled);
    pcmap_prof::disable();
    let profiled = print_summary("traced sim_req_per_s", "1/s", &traced.req_per_s);
    let sidecar = pcmap_prof::report().to_json_pretty();
    if let Ok(path) = std::env::var("PCMAP_PROF_JSON") {
        pcmap_obs::export::write_text(&path, &sidecar)
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote profile sidecar {path}");
    }
    let sidecar = pcmap_obs::json::parse(&sidecar).map_err(|e| format!("sidecar: {e:?}"))?;
    m.extend(derive::layer_ratios(
        &sidecar,
        traced.requests,
        traced.host_s / traced.ref_s,
    )?);
    m.insert("prof.overhead_frac", 1.0 - profiled / plain);
    if run.workload == Workload::ServeStorm {
        m.insert("serve.fleet_ns_per_req", 1e9 / plain);
    }

    if run.workload != Workload::ServeStorm {
        run.batch(run.inputs[0], Mode::Checked);
    }

    let (heldout, _, _) = run.batch(HELDOUT_SEED, Mode::Untraced);
    println!(
        "heldout seed {HELDOUT_SEED} digest {:016x}{}",
        heldout.digest,
        model_line(&heldout.model, &heldout.latency)
    );

    print_summary("host slowdown", "x reference speed", &run.slowdowns);
    m.extend(run.model_figures());
    Ok(m)
}

fn result_json(
    gate: &Gate,
    metrics: &BTreeMap<&'static str, f64>,
    table: &[(&str, &str)],
) -> Value {
    let mut ms = Value::obj();
    for &(name, unit) in table {
        let value = metrics.get(name).copied().unwrap_or(0.0);
        println!("metric {name} {value} {unit}");
        let mut o = Value::obj();
        o.set("value", Value::F64(value));
        o.set("unit", Value::Str(unit.to_owned()));
        ms.set(name, o);
    }
    let mut v = Value::obj();
    v.set("correct", Value::Bool(gate.failed() == 0));
    v.set("attempted", Value::U64(gate.attempted()));
    v.set("failed", Value::U64(gate.failed()));
    v.set("metrics", ms);
    v
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // Only the checked batch may run under the protocol checker.
    std::env::remove_var("PCMAP_CHECK");
    let w = args.workload;
    println!(
        "perfbench workload {} seed {} seconds {} trace {} · {} requests per batch over {} inputs",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.batch_requests(),
        w.inputs()
    );
    println!("host {}", host::metadata().to_json_string());

    let mut run = Run::new(w, args.seed);
    let (metrics, table): (_, &[(&str, &str)]) = if args.trace {
        match per_layer(&mut run, args.seed, args.seconds) {
            Ok(m) => (m, &PER_LAYER),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        (end_to_end(&mut run, args.seconds), &END_TO_END)
    };
    run.print_inputs();
    for reason in run.gate.reasons() {
        println!("FAILED {reason}");
    }
    println!(
        "{}",
        result_json(&run.gate, &metrics, table).to_json_string()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(strings(&[
            "--workload",
            "mp3-baseline",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .expect("parses");
        assert_eq!(a.workload, Workload::Mp3Baseline);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12, true));
        let d = parse_args(strings(&["--workload", "serve-storm"])).expect("defaults");
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
        assert!(parse_args(strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(strings(&["--trace", "2", "--workload", "serve-storm"])).is_err());
        assert!(
            parse_args(strings(&["--seed", "1"])).is_err(),
            "workload is required"
        );
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = pcmap_obs::json::parse(text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            let Some(Value::Arr(items)) = doc.get(key) else {
                panic!("BENCHMARK.json lacks {key}");
            };
            items
                .iter()
                .map(|m| {
                    let s = |k: &str| match m.get(k) {
                        Some(Value::Str(s)) => s.clone(),
                        _ => panic!("{key} entry lacks {k}"),
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let ours = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(&END_TO_END));
        assert_eq!(declared("per_layer"), ours(&PER_LAYER));
        let Some(Value::Arr(ws)) = doc.get("workloads") else {
            panic!("BENCHMARK.json lacks workloads");
        };
        let names: Vec<String> = ws
            .iter()
            .map(|w| match w.get("name") {
                Some(Value::Str(s)) => s.clone(),
                _ => panic!("workload lacks a name"),
            })
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut gate = Gate::default();
        gate.untraced(1, 9, Vec::new());
        gate.untraced(1, 8, Vec::new());
        let metrics = BTreeMap::from([("sim_req_per_s", 1234.5)]);
        let v = result_json(&gate, &metrics, &END_TO_END);
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get("failed").and_then(Value::as_u64), Some(1));
        let ms = v.get("metrics").expect("metrics");
        for (name, unit) in END_TO_END {
            let m = ms.get(name).expect("every metric present");
            assert_eq!(m.get("unit"), Some(&Value::Str(unit.to_owned())));
        }
        assert_eq!(
            ms.get("sim_req_per_s")
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64),
            Some(1234.5)
        );
    }
}

//! Per-request and per-command figures from a profiler sidecar.
//!
//! The sidecar is the `pcmap-prof-report` document the profiler writes
//! (`PCMAP_PROF_JSON`): span totals and hot-path counters accumulated over
//! the traced batches. Span totals are inclusive (`ctrl.step` contains
//! `ctrl.schedule`, which contains `ecc.encode`), so every `*_ns_per_req`
//! figure derived here is inclusive time; self time comes from the
//! benchmark's own outside timings of each layer's functions. Times are
//! divided by the host's slowdown over the traced batches, so they are
//! reference nanoseconds like every other timing of the benchmark.

use pcmap_obs::Value;

/// `(metric, span)`: inclusive span time per simulated request.
const SPAN_NS_PER_REQ: [(&str, &str); 9] = [
    ("ecc.encode_ns_per_req", "ecc.encode"),
    ("ecc.decode_ns_per_req", "ecc.decode"),
    ("device.advance_ns_per_req", "device.advance"),
    ("ctrl.step_ns_per_req", "ctrl.step"),
    ("ctrl.schedule_ns_per_req", "ctrl.schedule"),
    ("ctrl.resolve_ns_per_req", "ctrl.resolve_read"),
    ("sim.poll_ns_per_req", "sim.poll_cores"),
    ("sim.deliver_ns_per_req", "sim.deliver"),
    ("sim.step_ns_per_req", "sim.step_channels"),
];

/// `(metric, counter)`: hot-path counter per issued memory command.
const COUNTER_PER_CMD: [(&str, &str); 3] = [
    ("ctrl.queue_scans_per_cmd", "queue_scans"),
    ("ctrl.constraint_checks_per_cmd", "constraint_checks"),
    ("ctrl.reservations_per_cmd", "reservations"),
];

fn entry<'a>(sidecar: &'a Value, list: &str, name: &str) -> Result<&'a Value, String> {
    let Some(Value::Arr(items)) = sidecar.get(list) else {
        return Err(format!("profile sidecar has no `{list}` array"));
    };
    items
        .iter()
        .find(|e| matches!(e.get("name"), Some(Value::Str(n)) if n == name))
        .ok_or_else(|| format!("profile sidecar lacks {list} entry `{name}`"))
}

fn field(e: &Value, key: &str) -> Result<f64, String> {
    e.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("profile sidecar entry lacks numeric `{key}`"))
}

/// `num / den`, or 0 when nothing was counted (a layer the workload
/// never enters).
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Derives the traced per-layer figures from `sidecar`, which covers
/// `requests` simulated requests run at `slowdown` times the reference
/// host time.
pub fn layer_ratios(
    sidecar: &Value,
    requests: u64,
    slowdown: f64,
) -> Result<Vec<(&'static str, f64)>, String> {
    let span = |name: &str, key: &str| entry(sidecar, "spans", name).and_then(|e| field(e, key));
    let counter = |name: &str| entry(sidecar, "counters", name).and_then(|e| field(e, "value"));
    let reqs = requests as f64;
    let commands = counter("commands_issued")?;

    let mut out = Vec::new();
    for (metric, name) in SPAN_NS_PER_REQ {
        out.push((metric, ratio(span(name, "total_ns")? / slowdown, reqs)));
    }
    for (metric, name) in COUNTER_PER_CMD {
        out.push((metric, ratio(counter(name)?, commands)));
    }
    out.push((
        "ecc.encodes_per_cmd",
        ratio(span("ecc.encode", "calls")?, commands),
    ));
    out.push(("sim.epochs_per_req", ratio(counter("epochs")?, reqs)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canned() -> Value {
        let text = include_str!("../testdata/prof_sidecar.json");
        pcmap_obs::json::parse(text).expect("canned sidecar parses")
    }

    fn get(figures: &[(&str, f64)], name: &str) -> f64 {
        figures
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("no figure {name}"))
    }

    #[test]
    fn per_request_and_per_command_ratios() {
        // The canned sidecar covers 1 000 requests and 400 commands.
        let f = layer_ratios(&canned(), 1_000, 1.0).expect("derives");
        assert_eq!(get(&f, "ctrl.step_ns_per_req"), 5_000.0);
        assert_eq!(get(&f, "ctrl.schedule_ns_per_req"), 4_000.0);
        assert_eq!(get(&f, "ctrl.resolve_ns_per_req"), 300.0);
        assert_eq!(get(&f, "ecc.encode_ns_per_req"), 3_500.0);
        assert_eq!(get(&f, "ecc.decode_ns_per_req"), 120.0);
        assert_eq!(get(&f, "device.advance_ns_per_req"), 80.0);
        assert_eq!(get(&f, "sim.step_ns_per_req"), 5_500.0);
        assert_eq!(get(&f, "sim.poll_ns_per_req"), 250.0);
        assert_eq!(get(&f, "sim.deliver_ns_per_req"), 40.0);
        assert_eq!(get(&f, "ecc.encodes_per_cmd"), 32.0);
        assert_eq!(get(&f, "ctrl.queue_scans_per_cmd"), 2.5);
        assert_eq!(get(&f, "ctrl.constraint_checks_per_cmd"), 176.0);
        assert_eq!(get(&f, "ctrl.reservations_per_cmd"), 1.25);
        assert_eq!(get(&f, "sim.epochs_per_req"), 12.0);
        assert_eq!(f.len(), SPAN_NS_PER_REQ.len() + COUNTER_PER_CMD.len() + 2);
    }

    #[test]
    fn times_scale_to_the_reference_host_and_counts_do_not() {
        let f = layer_ratios(&canned(), 1_000, 2.0).expect("derives");
        assert_eq!(get(&f, "ctrl.step_ns_per_req"), 2_500.0);
        assert_eq!(get(&f, "sim.deliver_ns_per_req"), 20.0);
        assert_eq!(get(&f, "ecc.encodes_per_cmd"), 32.0);
        assert_eq!(get(&f, "sim.epochs_per_req"), 12.0);
    }

    #[test]
    fn untouched_layers_read_zero() {
        let mut sidecar = canned();
        let Some(Value::Arr(counters)) = sidecar.get("counters").cloned() else {
            panic!("canned sidecar has counters");
        };
        let zeroed: Vec<Value> = counters
            .into_iter()
            .map(|mut c| {
                c.set("value", Value::U64(0));
                c
            })
            .collect();
        sidecar.set("counters", Value::Arr(zeroed));
        let f = layer_ratios(&sidecar, 1_000, 1.0).expect("derives");
        assert_eq!(get(&f, "ecc.encodes_per_cmd"), 0.0);
        assert_eq!(get(&f, "ctrl.constraint_checks_per_cmd"), 0.0);
        assert_eq!(get(&f, "sim.epochs_per_req"), 0.0);
        assert_eq!(get(&f, "ctrl.step_ns_per_req"), 5_000.0);
    }

    #[test]
    fn malformed_sidecar_is_an_error() {
        let v = pcmap_obs::json::parse(r#"{"spans": [], "counters": []}"#).expect("parses");
        let err = layer_ratios(&v, 10, 1.0).expect_err("missing entries");
        assert!(err.contains("commands_issued"), "{err}");
        assert!(layer_ratios(&Value::obj(), 10, 1.0).is_err());
    }
}

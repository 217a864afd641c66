//! Command-line behaviour of the bench binaries that unit tests cannot
//! reach.

use std::process::Command;

/// The run loop has no engine switch: `--engine` is an unknown flag, so
/// it is a usage error (exit 2, `error: ` on stderr), not a panic.
#[test]
fn engine_flag_is_a_usage_error_not_a_panic() {
    let out = Command::new(env!("CARGO_BIN_EXE_pcmap_run"))
        .args(["--workload", "canneal", "--requests", "200"])
        .args(["--engine", "cycle"])
        .output()
        .expect("spawn pcmap_run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Figure 5 is drawn from the lifecycle tracer's chip records; its stdout
/// must stay byte-identical to the committed `results/fig05.txt`.
#[test]
fn fig05_timelines_matches_committed_figure() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig05_timelines"))
        .output()
        .expect("spawn fig05_timelines");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let expected = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/fig05.txt"
    ))
    .expect("read results/fig05.txt");
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
}

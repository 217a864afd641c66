//! Command-line behaviour of `pcmap_run` that unit tests cannot reach.

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

//! Command-line behaviour of `pcmap_run` that unit tests cannot reach:
//! how explicit flags and environment defaults combine.

use std::process::{Command, Output};

fn pcmap_run(engine_env: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pcmap_run"))
        .env("PCMAP_ENGINE", engine_env)
        .args(["--workload", "canneal", "--requests", "200"])
        .args(args)
        .output()
        .expect("spawn pcmap_run")
}

#[test]
fn explicit_engine_flag_wins_over_the_environment() {
    for (env, flag) in [("Event", "event"), ("bogus", "cycle"), ("cycle", "event")] {
        let out = pcmap_run(env, &["--engine", flag]);
        assert!(
            out.status.success(),
            "PCMAP_ENGINE={env} --engine {flag}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn bad_engine_is_a_usage_error_not_a_panic() {
    for args in [&[][..], &["--engine", "turbo"][..]] {
        let env = if args.is_empty() { "Event" } else { "event" };
        let out = pcmap_run(env, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

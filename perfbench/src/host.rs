//! Host and build metadata recorded with every result.

use pcmap_obs::Value;
use std::path::Path;

/// Cores available to this process.
fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(0, |n| n.get() as u64)
}

/// The CPU model name from `/proc/cpuinfo`, or `unknown`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The commit checked out in `root`, read from its `.git` directory, or
/// `unknown` outside a git checkout.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs")).and_then(|packed| {
                packed.lines().find_map(|l| {
                    l.strip_suffix(reference)
                        .map(|sha| sha.trim().to_owned())
                        .filter(|sha| !sha.is_empty())
                })
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The metadata object printed with each result. Every workload runs
/// at one job.
pub fn metadata() -> Value {
    let mut v = Value::obj();
    v.set("nproc", Value::U64(nproc()));
    v.set("cpu_model", Value::Str(cpu_model()));
    v.set(
        "rustc",
        Value::Str(env!("PERFBENCH_RUSTC_VERSION").to_owned()),
    );
    v.set("commit", Value::Str(git_commit(Path::new("."))));
    v.set("profile", Value::Str(env!("PERFBENCH_PROFILE").to_owned()));
    v.set("jobs", Value::U64(1));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_resolves_refs_and_tolerates_absence() {
        let dir = std::env::temp_dir().join(format!("perfbench-git-{}", std::process::id()));
        let git = dir.join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).expect("temp dir");
        assert_eq!(git_commit(&dir.join("missing")), "unknown");
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").expect("write HEAD");
        std::fs::write(git.join("packed-refs"), "abc123 refs/heads/main\n").expect("write");
        assert_eq!(git_commit(&dir), "abc123");
        std::fs::write(git.join("refs/heads/main"), "def456\n").expect("write ref");
        assert_eq!(git_commit(&dir), "def456");
        std::fs::write(git.join("HEAD"), "0123abcd\n").expect("write detached HEAD");
        assert_eq!(git_commit(&dir), "0123abcd");
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}

//! What every result is stamped with: the host, the build and the code
//! revision, so two result files can be told apart before they are
//! compared.

use std::path::{Path, PathBuf};

use crate::json::Json;

/// The benchmark package's own directory: `cargo run` exports it, and
/// the compile-time value covers a binary started by hand.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The checked-out commit, read from `.git` without running git (a
/// benchmark checkout need not be a repository, and then this is
/// `unknown`).
pub fn git_revision(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|sha| sha.trim().to_string())
                    .filter(|s| !s.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The header fields that do not depend on the workload.
pub fn header_fields() -> Vec<(String, Json)> {
    let root = package_dir().join("..");
    vec![
        ("host_cores".to_string(), Json::Num(host_cores() as f64)),
        // The workloads train and score at `RunOptions::default().tier`,
        // the engine's own default; AVX2 availability is recorded because
        // it decides what a later tier change could buy on this host.
        (
            "kernel_tier".to_string(),
            Json::str(format!("{:?}", sgd_core::RunOptions::default().tier)),
        ),
        ("avx2_available".to_string(), Json::Bool(sgd_linalg::avx2_available())),
        ("git_revision".to_string(), Json::str(git_revision(&root))),
        (
            "opt_level".to_string(),
            Json::str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        ),
    ]
}

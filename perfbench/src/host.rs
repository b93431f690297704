//! Host and run facts recorded with every result. Outcome metrics depend on
//! the shard count that `ShardCount::Auto` resolves to, and that follows
//! the core count, so they compare only between runs on one host.

use std::path::Path;

/// Seed kept out of every tuning run, for checking later claims.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// `rustc -V` of the compiler that built the benchmark.
pub const RUSTC: &str = env!("PERFBENCH_RUSTC");

/// Cores the OS grants this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out at `root`, read from `.git` without running git;
/// `none` outside a git checkout.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference).and_then(|h| h.strip_suffix(' ')).map(str::to_string)
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

//! Host fingerprint, so a result from a different machine is recognisable,
//! and the rule that calls a run noisy.

use serde::{Deserialize, Serialize};
use std::process::Command;

/// What the numbers were measured on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// `/proc/loadavg` when the run started.
    pub load_average: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_commit: String,
    /// Which processors the generator and the daemon were pinned to.
    pub cpu_split: String,
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Reads the fingerprint of this host and checkout.
pub fn fingerprint() -> Fingerprint {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Fingerprint {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model,
        kernel: read_trimmed("/proc/sys/kernel/osrelease"),
        load_average: read_trimmed("/proc/loadavg"),
        rustc: command_line("rustc", &["-V"]),
        git_commit: command_line("git", &["rev-parse", "HEAD"]),
        cpu_split: String::new(),
    }
}

/// Whether two readings of the host reference differ by more than a tenth.
pub fn is_noisy(before_ms: f64, after_ms: f64) -> bool {
    let lo = before_ms.min(after_ms);
    lo <= 0.0 || (before_ms - after_ms).abs() / lo > 0.10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noisy_means_more_than_a_tenth_apart() {
        assert!(!is_noisy(20.0, 21.9));
        assert!(is_noisy(20.0, 22.1));
        assert!(is_noisy(22.1, 20.0));
        assert!(is_noisy(0.0, 20.0));
    }

    #[test]
    fn fingerprint_reads_this_host() {
        let f = fingerprint();
        assert!(f.nproc >= 1);
        assert!(!f.kernel.is_empty());
    }
}

//! The shipped daemon as a child process: build it, boot it from a
//! generated spec, read its resource use from `/proc`, reap it.
//!
//! End-to-end numbers always come from this process — the same
//! `gridsec serve` binary an operator runs, pinned to `--io-threads 1
//! --threads 1` — never from daemon code linked into the benchmark.

use crate::affinity;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`,
/// 100 on every Linux ABI the toolchain targets).
const TICKS_PER_SECOND: f64 = 100.0;

/// Directory (under the current directory) for generated spec files and
/// `spans.ndjson`.
pub const WORK_DIR: &str = ".gridbench";

/// Where cargo puts release binaries for builds started from here.
fn release_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Path::new(&target).join("release")
}

/// Builds the `gridsec` binary of the checkout in the current directory
/// (a no-op when it is fresh) and returns its path. Not part of
/// `setup_s`: a build is paid once per checkout, not once per run.
pub fn build() -> Result<PathBuf, String> {
    if !Path::new("crates/cli/Cargo.toml").exists() {
        return Err(
            "run from the root of a gridsec checkout (crates/cli/Cargo.toml not found)".into(),
        );
    }
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "gridsec",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build --bin gridsec failed: {status}"));
    }
    let bin = release_dir().join("gridsec");
    if !bin.exists() {
        return Err(format!("built daemon not found at {}", bin.display()));
    }
    Ok(bin)
}

/// A running daemon. Killed and reaped on drop, so a failed run cannot
/// leak a process.
pub struct Daemon {
    child: Child,
    /// Kept open so a late daemon print cannot hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The address parsed from the daemon's banner.
    pub addr: SocketAddr,
    /// Seconds from spawn to the banner line (spec load, grid and STGA
    /// training included).
    pub boot_s: f64,
}

/// CPU and scheduling counters of a process at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User-mode CPU seconds, all threads.
    pub utime_s: f64,
    /// Kernel-mode CPU seconds, all threads.
    pub stime_s: f64,
    /// Voluntary + involuntary context switches, all threads.
    pub ctx_switches: u64,
}

impl Daemon {
    /// Boots `gridsec serve <spec>` with one I/O thread, one worker
    /// thread and `shards` shards, and waits for its banner. With a
    /// processor split the child starts on the daemon's processors (a
    /// process inherits the mask of the thread that spawns it).
    pub fn boot(
        bin: &Path,
        spec: &Path,
        shards: usize,
        cpus: Option<&affinity::Split>,
    ) -> Result<Daemon, String> {
        let started = Instant::now();
        let pin = |which: &[usize]| {
            affinity::pin(which).map_err(|e| format!("cannot set cpu affinity: {e}"))
        };
        if let Some(split) = cpus {
            pin(&split.daemon)?;
        }
        let spawned = Command::new(bin)
            .arg("serve")
            .arg(spec)
            .args(["--io-threads", "1", "--threads", "1", "--shards"])
            .arg(shards.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn();
        if let Some(split) = cpus {
            pin(&split.generator)?;
        }
        let mut child = spawned.map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = match read {
            Ok(n) if n > 0 => parse_banner(&banner),
            Ok(_) => Err("daemon exited before printing its banner".to_string()),
            Err(e) => Err(format!("cannot read the daemon banner: {e}")),
        };
        match addr {
            Ok(addr) => Ok(Daemon {
                child,
                _stdout: stdout,
                addr,
                boot_s: started.elapsed().as_secs_f64(),
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU seconds and context switches so far.
    pub fn sample(&self) -> Result<ProcSample, String> {
        let pid = self.pid();
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
            .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
        let (utime, stime) = parse_stat_times(&stat).ok_or("unparsable /proc stat line")?;
        let mut ctx_switches = 0;
        let tasks = std::fs::read_dir(format!("/proc/{pid}/task"))
            .map_err(|e| format!("/proc/{pid}/task: {e}"))?;
        for task in tasks.flatten() {
            // A thread may exit between the listing and the read.
            if let Ok(status) = std::fs::read_to_string(task.path().join("status")) {
                ctx_switches += status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0)
                    + status_field(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0);
            }
        }
        Ok(ProcSample {
            utime_s: utime as f64 / TICKS_PER_SECOND,
            stime_s: stime as f64 / TICKS_PER_SECOND,
            ctx_switches,
        })
    }

    /// `(threads, VmHWM in MiB)` from `/proc/<pid>/status`.
    pub fn threads_and_peak_rss_mb(&self) -> Result<(u64, f64), String> {
        let pid = self.pid();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
        let threads = status_field(&status, "Threads:").ok_or("no Threads: line")?;
        let hwm_kb = status_field(&status, "VmHWM:").ok_or("no VmHWM: line")?;
        Ok((threads, hwm_kb as f64 / 1024.0))
    }

    /// Waits for the daemon to exit after a `shutdown` frame; kills it if
    /// it has not within `limit`.
    pub fn reap(mut self, limit: Duration) -> Result<(), String> {
        let deadline = Instant::now() + limit;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => return Err("daemon did not exit after shutdown".into()),
                Err(e) => return Err(format!("cannot wait for the daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // No-ops when `reap` already collected the exit status.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Extracts the bound address from the `gridsec-serve: … on <addr> (…`
/// banner line.
fn parse_banner(line: &str) -> Result<SocketAddr, String> {
    line.split(" on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|addr| addr.parse().ok())
        .ok_or_else(|| format!("no address in the daemon banner: {line:?}"))
}

/// `(utime, stime)` in ticks from a `/proc/<pid>/stat` line. The command
/// name (field 2) may contain spaces, so fields are counted after the
/// closing parenthesis.
fn parse_stat_times(stat: &str) -> Option<(u64, u64)> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_whitespace();
    // `after` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime = fields.nth(11)?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// The first number after `key` in a `/proc/<pid>/status` text.
fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// CPU seconds (user + system) this process has used.
pub fn own_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_times(&s))
        .map_or(0.0, |(u, s)| (u + s) as f64 / TICKS_PER_SECOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_address_is_parsed() {
        let line = "gridsec-serve: STGA × 1 shard(s) on 127.0.0.1:33905 (WallClock clock, \
                    policy Hybrid(16)); send NDJSON frames\n";
        assert_eq!(
            parse_banner(line).unwrap(),
            "127.0.0.1:33905".parse::<SocketAddr>().unwrap()
        );
        assert!(parse_banner("error: cannot bind\n").is_err());
    }

    #[test]
    fn stat_times_survive_a_command_name_with_spaces() {
        let stat = "4242 (grid sec) S) R 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    1234 567 0 0 20 0 5 0 100 1000000 200 18446744073709551615";
        assert_eq!(parse_stat_times(stat), Some((1234, 567)));
        assert_eq!(parse_stat_times("garbage"), None);
    }

    #[test]
    fn status_fields_are_read_by_key() {
        let status = "Name:\tgridsec\nThreads:\t6\nVmHWM:\t   20480 kB\n\
                      voluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field(status, "Threads:"), Some(6));
        assert_eq!(status_field(status, "VmHWM:"), Some(20480));
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches:"), Some(3));
        assert_eq!(status_field(status, "VmSwap:"), None);
        assert!(own_cpu_s() >= 0.0);
    }
}

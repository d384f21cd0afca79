//! What `gridsec run` and `gridsec serve` accept at start-up, through the
//! shipped binary.
//!
//! A batch period is a finite number. JSON `null` reads as +∞ for a
//! `Time`; at bfcc786 `gridsec run` on `"schedule_interval": null`
//! panicked (`Time cannot be NaN`, exit 101) and `gridsec serve` started a
//! daemon whose clock jumped to ∞ at the first job. Both now refuse the
//! spec at start-up with exit code 1.
//!
//! A scheduler is one of six tags. A spec naming any other algorithm —
//! including one the tree used to ship — is refused with exit code 1 and
//! an error naming the tag.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const GRIDSEC: &str = env!("CARGO_BIN_EXE_gridsec");

/// The starter spec over a 20-job workload.
fn small_spec() -> String {
    let out = Command::new(GRIDSEC).arg("example-spec").output().unwrap();
    let spec = String::from_utf8(out.stdout).unwrap();
    assert!(spec.contains("\"n_jobs\": 500"));
    spec.replace("\"n_jobs\": 500", "\"n_jobs\": 20")
}

/// The starter spec over a 20-job workload, its batch period nulled.
fn null_interval_spec() -> String {
    let spec = small_spec();
    let interval = "\"schedule_interval\": 1000.0";
    assert!(spec.contains(interval));
    spec.replace(interval, "\"schedule_interval\": null")
}

/// The starter spec over a 20-job workload with `roster` (a JSON array)
/// as its schedulers.
fn spec_with_schedulers(roster: &str) -> String {
    let spec = small_spec();
    let start = spec.find("\"schedulers\"").unwrap();
    let end = spec.find("\"sim\"").unwrap();
    format!(
        "{}\"schedulers\": {roster},\n  {}",
        &spec[..start],
        &spec[end..]
    )
}

/// Writes `text` to a fresh directory for `test`; returns its path.
fn write_spec(test: &str, text: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gridsec_cli_{test}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("spec.json");
    std::fs::write(&spec, text).unwrap();
    spec
}

#[test]
fn run_refuses_a_null_batch_period() {
    let spec = write_spec("run", &null_interval_spec());
    let run = Command::new(GRIDSEC)
        .arg("run")
        .arg(&spec)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("schedule_interval"), "{stderr}");
    std::fs::remove_dir_all(spec.parent().unwrap()).ok();
}

#[test]
fn serve_refuses_a_null_batch_period() {
    let spec = write_spec("serve", &null_interval_spec());
    let mut serve = Command::new(GRIDSEC)
        .arg("serve")
        .arg(&spec)
        .args(["--bind", "127.0.0.1:0", "--virtual-clock"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = serve.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            serve.kill().ok();
            serve.wait().ok();
            panic!("`gridsec serve` is serving on a null batch period");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    let pipe = serve.stderr.as_mut().unwrap();
    pipe.read_to_string(&mut stderr).unwrap();
    assert_eq!(status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("schedule_interval"), "{stderr}");
    std::fs::remove_dir_all(spec.parent().unwrap()).ok();
}

#[test]
fn run_refuses_a_removed_algorithm_by_name() {
    for (tag, scheduler) in [
        ("sa", r#"{"algorithm": "sa"}"#),
        (
            "kpb",
            r#"{"algorithm": "kpb", "mode": "Risky", "k_percent": 40.0}"#,
        ),
    ] {
        let spec = write_spec(
            &format!("removed_{tag}"),
            &spec_with_schedulers(&format!("[{scheduler}]")),
        );
        let run = Command::new(GRIDSEC)
            .arg("run")
            .arg(&spec)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{tag}: {stderr}");
        assert!(stderr.contains(&format!("`{tag}`")), "{tag}: {stderr}");
        std::fs::remove_dir_all(spec.parent().unwrap()).ok();
    }
}

#[test]
fn run_builds_every_scheduler_tag() {
    let roster = r#"[
    {"algorithm": "min_min", "mode": "Risky"},
    {"algorithm": "sufferage", "mode": "Risky"},
    {"algorithm": "max_min", "mode": "Risky"},
    {"algorithm": "mct", "mode": "Risky"},
    {"algorithm": "stga"},
    {"algorithm": "ga"}
  ]"#;
    let spec = write_spec("every_tag", &spec_with_schedulers(roster));
    let run = Command::new(GRIDSEC)
        .arg("run")
        .arg(&spec)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8_lossy(&run.stdout);
    for name in [
        "Min-Min Risky",
        "Sufferage Risky",
        "Max-Min Risky",
        "MCT Risky",
        "STGA",
        "GA",
    ] {
        assert!(
            stdout.lines().any(|l| l.starts_with(&format!("{name} "))),
            "no `{name}` row:\n{stdout}"
        );
    }
    std::fs::remove_dir_all(spec.parent().unwrap()).ok();
}

//! `gridsec chaos` argument handling through the shipped binary: the spec
//! path is the first argument that is neither a flag nor a flag's value.

use std::process::Command;

const GRIDSEC: &str = env!("CARGO_BIN_EXE_gridsec");

#[test]
fn json_flag_may_come_before_the_spec_path() {
    let dir = std::env::temp_dir().join(format!("gridsec_cli_chaos_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("spec.json");
    let out = dir.join("out.json");
    let example = Command::new(GRIDSEC)
        .arg("example-scenario")
        .output()
        .unwrap();
    std::fs::write(&spec, example.stdout).unwrap();

    // At f2b6f1b this took `--json` for the spec path: "cannot read --json".
    let run = Command::new(GRIDSEC)
        .arg("chaos")
        .arg("--json")
        .arg(&out)
        .arg(&spec)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "chaos failed: {stderr}");
    let report = std::fs::read_to_string(&out).expect("--json wrote the report");
    assert!(report.trim_start().starts_with('{'));

    // The report is the scenario outcome, each number written once: its
    // `metrics` is the replaying session's snapshot, not a look-alike (at
    // 675e7e9 it carried no batch sizes, an empty batch histogram and the
    // makespan in place of the clock).
    #[derive(serde::Deserialize)]
    struct Report {
        jobs_generated: usize,
        metrics: gridsec_serve::ServeMetrics,
    }
    let Report {
        jobs_generated,
        metrics,
    } = serde_json::from_str(&report).expect("report parses");
    assert_eq!(report.matches("\"rounds\"").count(), 1, "{report}");
    assert!(metrics.rounds > 0);
    assert!(jobs_generated >= metrics.jobs_submitted);
    assert_eq!(metrics.batch_size_hist.count as usize, metrics.rounds);
    assert!(metrics.batch_size_hist.sum > 0);
    assert!(metrics.virtual_now < metrics.max_completion);

    // A flag the command does not know is a usage error, not ignored.
    let run = Command::new(GRIDSEC)
        .arg("chaos")
        .arg(&spec)
        .arg("--jsn")
        .arg(&out)
        .output()
        .unwrap();
    assert_eq!(run.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&run.stderr).contains("--jsn"));
    std::fs::remove_dir_all(&dir).ok();
}

//! Smoke tests for `examples/`: every example must compile, and the
//! `quickstart` example must run to completion and print its comparison
//! table. Runs cargo as a subprocess via the `CARGO` env var, so it always
//! uses the same toolchain and target directory as the outer test run.

use std::env;
use std::path::Path;
use std::process::Command;

fn cargo() -> Command {
    let cargo = env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut cmd = Command::new(cargo);
    cmd.current_dir(env!("CARGO_MANIFEST_DIR"));
    cmd
}

#[test]
fn every_example_builds() {
    let examples_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut examples: Vec<String> = std::fs::read_dir(&examples_dir)
        .expect("examples/ directory exists")
        .map(|e| e.expect("examples/ entry is readable").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    examples.sort();
    // Adding or removing an example is an edit here.
    assert_eq!(
        examples,
        [
            "custom_scheduler",
            "fault_tolerance",
            "gantt",
            "metaheuristics",
            "nas_trace",
            "online_service",
            "psa_sweep",
            "quickstart",
            "trust_dynamics",
        ]
    );

    let status = cargo()
        .args(["build", "--examples", "-q"])
        .status()
        .expect("cargo is runnable from tests");
    assert!(status.success(), "`cargo build --examples` failed");
}

#[test]
fn quickstart_example_runs() {
    let output = cargo()
        .args(["run", "-q", "--example", "quickstart"])
        .output()
        .expect("cargo is runnable from tests");
    assert!(
        output.status.success(),
        "quickstart exited with {:?}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    for needle in ["scheduler comparison", "Min-Min", "STGA", "makespan"] {
        assert!(
            stdout.contains(needle),
            "quickstart output missing `{needle}`:\n{stdout}"
        );
    }
}

//! What `gridsec run` and `gridsec serve` accept at start-up, through the
//! shipped binary.
//!
//! A batch period is a finite number. JSON `null` reads as +∞ for a
//! `Time`; at bfcc786 `gridsec run` on `"schedule_interval": null`
//! panicked (`Time cannot be NaN`, exit 101) and `gridsec serve` started a
//! daemon whose clock jumped to ∞ at the first job. Both now refuse the
//! spec at start-up with exit code 1.
//!
//! An STGA's parameters are validated wherever one is built, so `gridsec
//! serve` refuses a population of one at start-up too.
//!
//! Autoscaler thresholds are checked when the daemon is built, so
//! `--autoscale-min 0` (which panicked the router at the first idle
//! sample) and `--autoscale-interval-ms 0` (which spun a sampling loop)
//! are refused at start-up, naming the field.
//!
//! A scheduler is one of six tags. A spec naming any other algorithm —
//! including one the tree used to ship — is refused with exit code 1 and
//! an error naming the tag.
//!
//! The simulator no longer models replication or execution-time estimate
//! error. The JSON reader drops unknown keys, so a spec's `sim.estimates`
//! is refused by name rather than ignored, and `max_replicas` other than 1
//! is refused by name.
//!
//! Sites listed in a scenario spec get the same checks as built ones: at
//! e6de4e0 a release `gridsec chaos` ran a site of speed −1 (negative
//! execution times) and exited 0.

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

/// Starts `gridsec serve` on `spec` with the extra `flags` and waits for
/// it to exit; returns its exit code and stderr. Panics if it is still
/// serving after 30 s.
fn serve_exit(spec: &std::path::Path, flags: &[&str], what: &str) -> (Option<i32>, String) {
    let mut serve = Command::new(GRIDSEC)
        .arg("serve")
        .arg(spec)
        .args(["--bind", "127.0.0.1:0", "--virtual-clock"])
        .args(flags)
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
            panic!("`gridsec serve` is serving on {what}");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    let pipe = serve.stderr.as_mut().unwrap();
    pipe.read_to_string(&mut stderr).unwrap();
    (status.code(), stderr)
}

#[test]
fn serve_refuses_a_null_batch_period() {
    let spec = write_spec("serve", &null_interval_spec());
    let (code, stderr) = serve_exit(&spec, &[], "a null batch period");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("schedule_interval"), "{stderr}");
    std::fs::remove_dir_all(spec.parent().unwrap()).ok();
}

/// An STGA of one individual cannot breed. The shard factory builds it
/// through `Stga::with_history`, which refuses it, so the daemon does not
/// start (rather than a shard panicking at its first round).
#[test]
fn serve_refuses_an_stga_population_of_one() {
    let stga = r#"[{"algorithm": "stga", "params": {"ga": {"population": 1,
        "generations": 100, "crossover_prob": 0.8, "mutation_prob": 0.01,
        "elitism": 0, "seed": 1, "stall_limit": null, "flow_weight": 0.0001},
        "table_capacity": 150, "similarity_threshold": 0.8,
        "history_fraction": 0.5, "heuristic_seeds": true,
        "training_jobs": 500}}]"#;
    let spec = write_spec("population_1", &spec_with_schedulers(stga));
    let (code, stderr) = serve_exit(&spec, &[], "a population of one");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("population"), "{stderr}");
    std::fs::remove_dir_all(spec.parent().unwrap()).ok();
}

#[test]
fn serve_refuses_autoscaler_thresholds_it_cannot_run_with() {
    let spec = write_spec("autoscale", &small_spec());
    for (flag, field) in [
        ("--autoscale-min", "`min_shards`"),
        ("--autoscale-interval-ms", "`interval`"),
    ] {
        let (code, stderr) = serve_exit(&spec, &[flag, "0"], &format!("{flag} 0"));
        assert_eq!(code, Some(1), "{flag}: {stderr}");
        assert!(stderr.contains(field), "{flag}: {stderr}");
    }
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

/// Runs `gridsec <command> <spec>` on `text`; returns its exit code and
/// stderr.
fn exit_of(command: &str, test: &str, text: &str) -> (Option<i32>, String) {
    let spec = write_spec(test, text);
    let run = Command::new(GRIDSEC)
        .arg(command)
        .arg(&spec)
        .output()
        .unwrap();
    std::fs::remove_dir_all(spec.parent().unwrap()).ok();
    (
        run.status.code(),
        String::from_utf8_lossy(&run.stderr).into(),
    )
}

/// The starter chaos scenario (`scenarios/churn.json`).
fn scenario_spec() -> String {
    let out = Command::new(GRIDSEC)
        .arg("example-scenario")
        .output()
        .unwrap();
    String::from_utf8(out.stdout).unwrap()
}

/// `text` with `key` added first to its `sim` object.
fn with_sim_key(text: &str, key: &str) -> String {
    assert_eq!(text.matches("\"sim\": {").count(), 1);
    text.replace("\"sim\": {", &format!("\"sim\": {{\n    {key},"))
}

#[test]
fn run_and_chaos_refuse_a_removed_estimates_key_by_name() {
    let estimates = r#""estimates": {"Multiplicative": {"err": 1.0}}"#;
    for (command, spec) in [("run", small_spec()), ("chaos", scenario_spec())] {
        let (code, stderr) = exit_of(command, "estimates", &with_sim_key(&spec, estimates));
        assert_eq!(code, Some(1), "{command}: {stderr}");
        assert!(stderr.contains("`estimates`"), "{command}: {stderr}");
    }
}

#[test]
fn run_and_chaos_refuse_replicas_by_name() {
    for (command, spec) in [("run", small_spec()), ("chaos", scenario_spec())] {
        let one = "\"max_replicas\": 1";
        assert!(spec.contains(one), "{command}");
        let spec = spec.replace(one, "\"max_replicas\": 2");
        let (code, stderr) = exit_of(command, "replicas", &spec);
        assert_eq!(code, Some(1), "{command}: {stderr}");
        assert!(stderr.contains("`max_replicas`"), "{command}: {stderr}");
    }
}

/// A scenario replay has no jobs to train an STGA on before its first
/// round, so a `train_batch` it cannot honour is refused by name rather
/// than accepted and silently trained on nothing.
#[test]
fn chaos_refuses_a_train_batch_by_name() {
    let spec = scenario_spec();
    let min_min = "\"algorithm\": \"min_min\",\n    \"mode\": \"Risky\"";
    assert!(spec.contains(min_min));
    for (batch, refused) in [(8, true), (0, false)] {
        let stga = format!("\"algorithm\": \"stga\",\n    \"train_batch\": {batch}");
        let (code, stderr) = exit_of("chaos", "train_batch", &spec.replace(min_min, &stga));
        assert_eq!(code == Some(1), refused, "train_batch {batch}: {stderr}");
        assert_eq!(stderr.contains("`train_batch`"), refused, "{stderr}");
    }
}

#[test]
fn chaos_refuses_a_site_that_fails_the_site_checks() {
    let spec = scenario_spec();
    for (field, valid, bad) in [
        ("speed", "\"speed\": 2.0", "\"speed\": -1.0"),
        ("nodes", "\"nodes\": 2,", "\"nodes\": 0,"),
        (
            "security_level",
            "\"security_level\": 0.95",
            "\"security_level\": 1.5",
        ),
    ] {
        assert!(spec.contains(valid), "{field}");
        let (code, stderr) = exit_of("chaos", field, &spec.replacen(valid, bad, 1));
        assert_eq!(code, Some(1), "{field}: {stderr}");
        assert!(stderr.contains(&format!("`{field}`")), "{field}: {stderr}");
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

/// A gene is 16 bits. At d421fe1 a GA on a grid of 65 537 sites wrapped
/// site 65 536 to site 0, so a secure-only job could land on an insecure
/// site; `gridsec run` now refuses the spec, naming the limit.
#[test]
fn run_refuses_a_ga_on_more_sites_than_a_gene_names() {
    for tag in ["stga", "ga"] {
        let roster = format!(r#"[{{"algorithm": "{tag}"}}]"#);
        let spec = spec_with_schedulers(&roster);
        let sites = "\"n_sites\": 20";
        assert!(spec.contains(sites));
        let spec = spec.replace(sites, "\"n_sites\": 65537");
        let (code, stderr) = exit_of("run", &format!("sites_{tag}"), &spec);
        assert_eq!(code, Some(1), "{tag}: {stderr}");
        assert!(
            stderr.contains(&format!("`{tag}` schedules on at most 65536 sites")),
            "{tag}: {stderr}"
        );
        assert!(stderr.contains("65537"), "{tag}: {stderr}");
    }
}

/// Runs `gridsec <args>`; returns its exit code and stderr.
fn gridsec(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(GRIDSEC).args(args).output().unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

/// At 8fa869e `generate` read an unparsable seed as 2005 and ignored
/// anything after the seed, exiting 0 either way. Each is now a usage
/// error naming the argument.
#[test]
fn generate_refuses_a_bad_seed_and_trailing_arguments() {
    let (code, stderr) = gridsec(&["generate", "psa", "5", "7"]);
    assert_eq!(code, Some(0), "{stderr}");
    for (args, named) in [
        (&["generate", "psa", "5", "notaseed"][..], "`notaseed`"),
        (&["generate", "psa", "5", "-1"], "`-1`"),
        (&["generate", "psa", "5", "7", "extra", "junk"], "`extra`"),
        (&["generate", "psa", "5", "--threads", "4"], "`--threads`"),
        (&["trace-dump", "127.0.0.1:1", "extra"], "`extra`"),
    ] {
        let (code, stderr) = gridsec(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
    }
}

/// `--threads` sized a worker pool nothing used; `run` now refuses it
/// like any argument it does not take.
#[test]
fn run_refuses_threads() {
    let spec = write_spec("threads", &small_spec());
    let (code, stderr) = gridsec(&["run", spec.to_str().unwrap(), "--threads", "4"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("`--threads`"), "{stderr}");
    std::fs::remove_dir_all(spec.parent().unwrap()).ok();
}

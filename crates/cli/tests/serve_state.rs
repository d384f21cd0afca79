//! `gridsec serve --state <prefix>` through the shipped binary: the daemon
//! writes `<prefix>.shard<k>.json` at shutdown and boots from it the next
//! time; a state file it cannot use fails start-up with exit code 1 and a
//! message that names the file — not the socket. Only a first boot
//! trains an STGA table: a restore and a reshard keep what the table
//! holds, entry for entry. The benchmark harness's `serve` argv boots
//! too.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const GRIDSEC: &str = env!("CARGO_BIN_EXE_gridsec");

/// The starter spec cut down to its STGA entry (the one scheduler with
/// state to persist), training on batches of `train_batch` (0: untrained)
/// over an `n_jobs`-job workload.
fn stga_spec(train_batch: usize, n_jobs: usize) -> String {
    let out = Command::new(GRIDSEC).arg("example-spec").output().unwrap();
    let spec = String::from_utf8(out.stdout).unwrap();
    let head = spec.find("\"schedulers\": [").unwrap() + "\"schedulers\": [".len();
    let stga = spec.find("\"algorithm\": \"stga\"").unwrap();
    let stga = spec[..stga].rfind('{').unwrap();
    assert!(spec.contains("\"train_batch\": 8") && spec.contains("\"n_jobs\": 500"));
    format!("{}{}", &spec[..head], &spec[stga..])
        .replace(
            "\"train_batch\": 8",
            &format!("\"train_batch\": {train_batch}"),
        )
        .replace("\"n_jobs\": 500", &format!("\"n_jobs\": {n_jobs}"))
}

/// A fresh scratch directory holding `spec`, and the state prefix in it.
fn scratch(name: &str, spec: &str) -> (PathBuf, PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("gridsec_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec_file = dir.join("spec.json");
    std::fs::write(&spec_file, spec).unwrap();
    let prefix = dir.join("run.v2");
    (dir, spec_file, prefix)
}

/// Runs `gridsec serve` to its exit; when `shutdown` is set, reads the
/// banner first and stops the daemon over the wire.
fn serve(spec: &Path, state: &Path, shutdown: bool) -> Output {
    let frames: &[&str] = &[];
    serve_state(spec, state, &[], shutdown.then_some(frames))
}

/// Runs `gridsec serve <spec> --state <state> <flags>` to its exit, as
/// [`serve_with`].
fn serve_state(spec: &Path, state: &Path, flags: &[&str], frames: Option<&[&str]>) -> Output {
    let state = state.to_str().unwrap();
    let mut argv = vec!["--bind", "127.0.0.1:0", "--virtual-clock", "--state", state];
    argv.extend_from_slice(flags);
    serve_with(spec, &argv, frames)
}

/// Runs `gridsec serve <spec> <flags>` to its exit. With `frames`, reads
/// the banner first, sends each frame (its reply must not be a
/// rejection) and stops the daemon over the wire.
fn serve_with(spec: &Path, flags: &[&str], frames: Option<&[&str]>) -> Output {
    let mut child = Command::new(GRIDSEC)
        .arg("serve")
        .arg(spec)
        .args(flags)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    if let Some(frames) = frames {
        let mut banner = String::new();
        BufReader::new(child.stdout.as_mut().unwrap())
            .read_line(&mut banner)
            .unwrap();
        let addr = banner
            .split(" on ")
            .nth(1)
            .and_then(|s| s.split(' ').next());
        let mut wire = TcpStream::connect(addr.expect("an address in the banner")).unwrap();
        let mut replies = BufReader::new(wire.try_clone().unwrap());
        for frame in frames {
            writeln!(wire, "{frame}").unwrap();
            let mut reply = String::new();
            replies.read_line(&mut reply).unwrap();
            assert!(!reply.contains("rejected"), "{frame} → {reply}");
        }
        wire.write_all(b"{\"type\":\"shutdown\"}\n").unwrap();
        let mut reply = String::new();
        replies.read_line(&mut reply).unwrap();
        assert_eq!(reply.trim(), "{\"type\":\"bye\"}");
    }
    child.wait_with_output().unwrap()
}

/// Boots with `--state` and shuts down twice: the first life finds no
/// file and writes one, the second boots from it and writes it back.
/// Returns the two files' texts.
fn two_lives(spec: &Path, prefix: &Path) -> [String; 2] {
    let state_file = gridsec_serve::shard_state_path(prefix, 0);
    std::array::from_fn(|life| {
        let out = serve(spec, prefix, true);
        assert!(out.status.success(), "life {life}: {out:?}");
        let saved = std::fs::read_to_string(&state_file).expect("written at shutdown");
        assert!(saved.starts_with('{'), "{saved}");
        saved
    })
}

/// The `(signature, chromosome)` pairs of every table saved under
/// `prefix` for shards `0..n`, each as its JSON text.
fn learned_entries(prefix: &Path, n: usize) -> BTreeSet<(String, String)> {
    let mut out = BTreeSet::new();
    for k in 0..n {
        let path = gridsec_serve::shard_state_path(prefix, k);
        let text = std::fs::read_to_string(&path).expect("written at shutdown");
        let table: serde_json::Value = serde_json::from_str(&text).unwrap();
        let Some(serde_json::Value::Array(entries)) = table.get("entries") else {
            panic!("no entry list in {text}");
        };
        for entry in entries {
            let json = |key| serde_json::to_string(&entry.get(key)).unwrap();
            out.insert((json("signature"), json("chromosome")));
        }
    }
    out
}

#[test]
fn state_files_round_trip_and_a_corrupt_one_is_named() {
    let (dir, spec, prefix) = scratch("state", &stga_spec(0, 20));
    let state_file = gridsec_serve::shard_state_path(&prefix, 0);

    // First life: nothing to read; the shutdown barrier writes the file.
    // Second life: boots from it.
    let [first, second] = two_lives(&spec, &prefix);
    assert_eq!(first, second);

    // A file the scheduler cannot use: exit 1, and the file gets the blame.
    std::fs::write(&state_file, "{\"capacity\": ").unwrap();
    let out = serve(&spec, &prefix, false);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    for needle in [
        "cannot start daemon",
        "shard 0",
        state_file.to_str().unwrap(),
    ] {
        assert!(stderr.contains(needle), "`{stderr}` lacks `{needle}`");
    }
    assert!(!stderr.contains("cannot bind"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A trained table survives a restart byte for byte: the second life
/// opens the first life's file and does not train again.
#[test]
fn a_trained_table_is_written_back_byte_for_byte() {
    let (dir, spec, prefix) = scratch("trained", &stga_spec(8, 20));
    let [first, second] = two_lives(&spec, &prefix);
    assert!(!learned_entries(&prefix, 1).is_empty(), "{first}");
    assert_eq!(first, second, "a restore re-trained or lost entries");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A 2 → 3 → 2 reshard with no jobs in between keeps every learned
/// `(signature, chromosome)` entry and adds none: the reshards re-open
/// the old shards' tables and do not train. 40 training jobs on batches
/// of 8 make 10 entries per shard, so no merge at capacity 150 evicts.
#[test]
fn a_2_3_2_reshard_keeps_every_learned_entry() {
    let (dir, spec, prefix) = scratch("reshard", &stga_spec(8, 40));
    let shards = ["--shards", "2"];
    let out = serve_state(&spec, &prefix, &shards, Some(&[]));
    assert!(out.status.success(), "{out:?}");
    let before = learned_entries(&prefix, 2);
    assert!(!before.is_empty());

    let reshard = |cuts: &[usize]| {
        let shards: Vec<Vec<usize>> = cuts.windows(2).map(|w| (w[0]..w[1]).collect()).collect();
        format!("{{\"type\":\"reshard\",\"shards\":{shards:?}}}")
    };
    let frames = [reshard(&[0, 7, 14, 20]), reshard(&[0, 10, 20])];
    let frames: Vec<&str> = frames.iter().map(String::as_str).collect();
    let out = serve_state(&spec, &prefix, &shards, Some(&frames));
    assert!(out.status.success(), "{out:?}");
    assert_eq!(learned_entries(&prefix, 2), before);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The benchmark harness boots every daemon with exactly this argv. The
/// `--threads 1` in it sizes nothing, but the daemon must still boot on
/// it and stop on `shutdown`.
#[test]
fn the_benchmark_harness_argv_boots() {
    let (dir, spec, _) = scratch("bench_argv", &stga_spec(0, 20));
    let argv = ["--io-threads", "1", "--threads", "1", "--shards", "2"];
    let out = serve_with(&spec, &argv, Some(&[]));
    assert!(out.status.success(), "{out:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

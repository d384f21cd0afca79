//! `gridsec serve --state <prefix>` through the shipped binary: the daemon
//! writes `<prefix>.shard<k>.json` at shutdown and boots from it the next
//! time; a state file it cannot use fails start-up with exit code 1 and a
//! message that names the file — not the socket.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Command, Output, Stdio};

const GRIDSEC: &str = env!("CARGO_BIN_EXE_gridsec");

/// The starter spec cut down to its STGA entry (the one scheduler with
/// state to persist), untrained, over a 20-job workload.
fn stga_spec() -> String {
    let out = Command::new(GRIDSEC).arg("example-spec").output().unwrap();
    let spec = String::from_utf8(out.stdout).unwrap();
    let head = spec.find("\"schedulers\": [").unwrap() + "\"schedulers\": [".len();
    let stga = spec.find("\"algorithm\": \"stga\"").unwrap();
    let stga = spec[..stga].rfind('{').unwrap();
    assert!(spec.contains("\"train_batch\": 8") && spec.contains("\"n_jobs\": 500"));
    format!("{}{}", &spec[..head], &spec[stga..])
        .replace("\"train_batch\": 8", "\"train_batch\": 0")
        .replace("\"n_jobs\": 500", "\"n_jobs\": 20")
}

/// Runs `gridsec serve` to its exit; when `shutdown` is set, reads the
/// banner first and stops the daemon over the wire.
fn serve(spec: &Path, state: &Path, shutdown: bool) -> Output {
    let mut child = Command::new(GRIDSEC)
        .arg("serve")
        .arg(spec)
        .args(["--bind", "127.0.0.1:0", "--virtual-clock", "--state"])
        .arg(state)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    if shutdown {
        let mut banner = String::new();
        BufReader::new(child.stdout.as_mut().unwrap())
            .read_line(&mut banner)
            .unwrap();
        let addr = banner
            .split(" on ")
            .nth(1)
            .and_then(|s| s.split(' ').next());
        let mut wire = TcpStream::connect(addr.expect("an address in the banner")).unwrap();
        wire.write_all(b"{\"type\":\"shutdown\"}\n").unwrap();
        let mut reply = String::new();
        BufReader::new(wire).read_line(&mut reply).unwrap();
        assert_eq!(reply.trim(), "{\"type\":\"bye\"}");
    }
    child.wait_with_output().unwrap()
}

#[test]
fn state_files_round_trip_and_a_corrupt_one_is_named() {
    let dir = std::env::temp_dir().join(format!("gridsec_cli_state_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("spec.json");
    std::fs::write(&spec, stga_spec()).unwrap();
    let prefix = dir.join("run.v2");
    let state_file = gridsec_serve::shard_state_path(&prefix, 0);

    // First life: nothing to read; the shutdown barrier writes the file.
    // Second life: boots from it.
    for life in 0..2 {
        let out = serve(&spec, &prefix, true);
        assert!(out.status.success(), "life {life}: {out:?}");
        let saved = std::fs::read_to_string(&state_file).expect("written at shutdown");
        assert!(saved.starts_with('{'), "{saved}");
    }

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

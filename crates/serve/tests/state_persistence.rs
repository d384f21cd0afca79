//! STGA history-table persistence across daemon restarts: a sharded
//! daemon with a `state_prefix` writes each shard's history snapshot to
//! `<prefix>.shard<k>.json` at the shutdown barrier; a daemon restarted
//! with the same prefix reads those files itself, hands each to the
//! session factory, and resumes with every learned entry intact (the
//! kill–restart–resume round trip). What a shard learned is read from
//! the files the daemon writes: the scheduler owns its table, and the
//! daemon takes its snapshot.

use gridsec_core::{Grid, Job, Site, Time};
use gridsec_serve::{
    shard_state_path, Client, Daemon, DaemonOptions, QueryWhat, Request, Response, SessionFactory,
};
use gridsec_sim::{BatchPolicy, ShardPlan, SimConfig};
use gridsec_stga::{BatchSignature, Chromosome, GaParams, HistoryTable, Stga, StgaParams};
use std::path::Path;
use std::sync::mpsc::{channel, Receiver};

fn grid() -> Grid {
    Grid::new(
        (0..4)
            .map(|i| {
                Site::builder(i)
                    .nodes(2)
                    .speed(1.0 + i as f64)
                    .security_level(1.0)
                    .build()
                    .unwrap()
            })
            .collect(),
    )
    .unwrap()
}

fn jobs(n: u64, offset: u64) -> Vec<Job> {
    (0..n)
        .map(|i| {
            Job::builder(offset + i)
                .arrival(Time::new(i as f64))
                .work(30.0 + 7.0 * (i % 5) as f64)
                .security_demand(0.5)
                .build()
                .unwrap()
        })
        .collect()
}

fn stga_with(history: HistoryTable, seed: u64) -> Stga {
    Stga::with_history(
        StgaParams {
            ga: GaParams::default()
                .with_population(16)
                .with_generations(8)
                .with_seed(seed),
            ..StgaParams::default()
        },
        history,
    )
    .expect("valid STGA parameters")
}

/// Spawns a 2-shard STGA daemon over `state_prefix`: the daemon reads
/// `<prefix>.shard<k>.json` into the factory's `history_sources` at boot
/// and writes each shard's snapshot back when the shard stops. Returns
/// the daemon and a clone of each table the factory opened, in shard
/// order.
fn spawn(state_prefix: &Path) -> (Daemon, [HistoryTable; 2]) {
    let (daemon, opened) = try_spawn(state_prefix).unwrap();
    (daemon, [opened.recv().unwrap(), opened.recv().unwrap()])
}

/// [`spawn`]'s boot, returning its error; the receiver yields a clone of
/// each table the factory opened.
fn try_spawn(state_prefix: &Path) -> std::io::Result<(Daemon, Receiver<HistoryTable>)> {
    let grid = grid();
    let config = SimConfig::default()
        .with_interval(Time::new(10.0))
        .with_batch_policy(BatchPolicy::CountTriggered(3));
    let plan = ShardPlan::contiguous(&grid, 2).unwrap();
    let (opened_tx, opened) = channel();
    let factory: SessionFactory = Box::new(move |ctx| {
        let history =
            HistoryTable::from_snapshots(&ctx.history_sources, 64).map_err(|e| e.to_string())?;
        opened_tx.send(history.clone()).expect("test is listening");
        Ok(Box::new(stga_with(history, 5)))
    });
    let options = DaemonOptions {
        state_prefix: Some(state_prefix.to_path_buf()),
        ..DaemonOptions::default()
    };
    let daemon = Daemon::spawn(grid, plan, config, factory, "127.0.0.1:0", options)?;
    Ok((daemon, opened))
}

fn serve_batch(daemon: &Daemon, batch: &[Job]) {
    let mut client = Client::connect(daemon.addr()).unwrap();
    for (i, j) in batch.iter().enumerate() {
        match client
            .send(&Request::Submit {
                jobs: vec![j.clone()],
                shard: Some(i % 2),
                tenant: None,
            })
            .unwrap()
        {
            Response::Accepted { jobs: 1, .. } => {}
            other => panic!("submit failed: {other:?}"),
        }
    }
    match client.send(&Request::Drain).unwrap() {
        Response::Drained { jobs_scheduled, .. } => assert!(jobs_scheduled > 0),
        other => panic!("drain failed: {other:?}"),
    }
    match client
        .send(&Request::Query {
            what: QueryWhat::Shards,
            shard: None,
        })
        .unwrap()
    {
        Response::Shards { shards } => assert_eq!(shards.len(), 2),
        other => panic!("shards query failed: {other:?}"),
    }
    assert_eq!(client.send(&Request::Shutdown).unwrap(), Response::Bye);
}

#[test]
fn history_tables_survive_a_kill_restart_resume_cycle() {
    // A dot in the prefix's file name: the shard suffix is appended, it
    // does not replace an "extension".
    let pid = std::process::id();
    let prefix = std::env::temp_dir().join(format!("gridsec_state_persistence_{pid}.run.v2"));
    for k in 0..2 {
        let _ = std::fs::remove_file(shard_state_path(&prefix, k));
    }

    // ---- First life: nothing to read, learn, then die (shutdown saves
    // at the barrier).
    let (daemon, opened) = spawn(&prefix);
    assert!(opened.iter().all(HistoryTable::is_empty));
    serve_batch(&daemon, &jobs(12, 0));
    daemon.join();

    // ---- The state files exist, are exact snapshots, and hold what
    // every shard learned.
    let mut first = Vec::new();
    for k in 0..2 {
        let path = shard_state_path(&prefix, k);
        let name = path.to_string_lossy();
        assert!(name.ends_with(&format!(".run.v2.shard{k}.json")), "{name}");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("state file {} missing: {e}", path.display()));
        let mut table = HistoryTable::from_json(&text).expect("state file parses");
        assert_eq!(table.to_json(), text, "shard {k} snapshot");
        assert!(
            !table.is_empty(),
            "shard {k}'s STGA must have recorded rounds"
        );
        // Lookups survive: a permissive query returns the learned seeds.
        let probe = BatchSignature {
            ready_times: Vec::new(),
            etc: Vec::new(),
            demands: Vec::new(),
        };
        assert!(
            !table.lookup(&probe, 0.0, 8).is_empty(),
            "shard {k}: restored table must serve lookups"
        );
        first.push((text, table.len()));
    }

    // ---- Second life: the daemon boots from the files, serves more
    // traffic.
    let (daemon, opened2) = spawn(&prefix);
    for k in 0..2 {
        // Booted from the state file, entry for entry.
        assert_eq!(opened2[k].to_json(), first[k].0, "shard {k}");
    }
    serve_batch(&daemon, &jobs(12, 1_000));
    daemon.join();
    for (k, (_, first_len)) in first.iter().enumerate() {
        // The re-saved state file reflects the second life: the restored
        // table kept growing.
        let text = std::fs::read_to_string(shard_state_path(&prefix, k)).unwrap();
        let table = HistoryTable::from_json(&text).unwrap();
        assert!(
            table.len() > *first_len,
            "shard {k}: the restored table must keep growing (was {first_len}, now {})",
            table.len()
        );
        let _ = std::fs::remove_file(shard_state_path(&prefix, k));
    }
}

#[test]
fn a_state_file_holding_more_entries_than_its_capacity_fails_the_boot() {
    // Such a table would never evict: it would grow by one entry a round
    // for the daemon's life, and every lookup would score all of it.
    let pid = std::process::id();
    let prefix = std::env::temp_dir().join(format!("gridsec_state_overfull_{pid}"));
    let mut history = HistoryTable::new(3);
    for i in 0..3 {
        let signature = BatchSignature {
            ready_times: vec![f64::from(i)],
            etc: vec![1.0],
            demands: vec![0.5],
        };
        history.insert(signature, Chromosome::from_genes(vec![0]));
    }
    let overfull = history
        .to_json()
        .replacen("\"capacity\":3", "\"capacity\":2", 1);
    let state_file = shard_state_path(&prefix, 0);
    std::fs::write(&state_file, &overfull).unwrap();

    let err = try_spawn(&prefix).err().expect("the boot is refused");
    let message = err.to_string();
    let _ = std::fs::remove_file(&state_file);
    for needle in [
        "history snapshot holds 3 entries, more than its capacity 2",
        &state_file.display().to_string(),
    ] {
        assert!(message.contains(needle), "`{message}` lacks `{needle}`");
    }
}

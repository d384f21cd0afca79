//! STGA history-table persistence across daemon restarts: a sharded
//! daemon with a `state_prefix` writes each shard's history snapshot to
//! `<prefix>.shard<k>.json` at the shutdown barrier; a daemon restarted
//! with the same prefix reads those files itself, hands each to the
//! session factory, and resumes with every learned entry intact (the
//! kill–restart–resume round trip).

use gridsec_core::{Grid, Job, Site, Time};
use gridsec_serve::{
    shard_state_path, Client, Daemon, DaemonOptions, OnlineSession, QueryWhat, Request, Response,
    SessionFactory, ShardSpec,
};
use gridsec_sim::{BatchPolicy, ShardPlan, SimConfig};
use gridsec_stga::{BatchSignature, GaParams, SharedHistory, Stga, StgaParams};
use std::path::Path;
use std::sync::mpsc::channel;

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

fn stga_with(history: SharedHistory, seed: u64) -> Stga {
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
}

/// Spawns a 2-shard STGA daemon over `state_prefix`: the daemon reads
/// `<prefix>.shard<k>.json` into the factory's `history_sources` at boot
/// and writes each shard's snapshot back when the shard stops. Returns
/// the daemon and the live history handles the factory opened, in shard
/// order.
fn spawn(state_prefix: &Path) -> (Daemon, [SharedHistory; 2]) {
    let grid = grid();
    let config = SimConfig::default()
        .with_interval(Time::new(10.0))
        .with_batch_policy(BatchPolicy::CountTriggered(3));
    let plan = ShardPlan::contiguous(&grid, 2).unwrap();
    let (opened_tx, opened) = channel();
    let factory: SessionFactory = Box::new(move |ctx| {
        let history =
            SharedHistory::from_snapshots(&ctx.history_sources, 64).map_err(|e| e.to_string())?;
        opened_tx.send(history.clone()).expect("test is listening");
        let scheduler = Box::new(stga_with(history.clone(), 5));
        let session = OnlineSession::restore(ctx.subgrid, scheduler, &config, ctx.seed)
            .map_err(|e| e.to_string())?;
        Ok(ShardSpec {
            session,
            history: Some(Box::new(move || history.to_json())),
        })
    });
    let options = DaemonOptions {
        state_prefix: Some(state_prefix.to_path_buf()),
        ..DaemonOptions::default()
    };
    let daemon = Daemon::spawn(grid, plan, factory, "127.0.0.1:0", options).unwrap();
    (daemon, [opened.recv().unwrap(), opened.recv().unwrap()])
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
    let (daemon, handles) = spawn(&prefix);
    assert!(handles.iter().all(SharedHistory::is_empty));
    serve_batch(&daemon, &jobs(12, 0));
    daemon.join();
    let first_len = [handles[0].len(), handles[1].len()];
    assert!(
        first_len[0] > 0 && first_len[1] > 0,
        "every shard's STGA must have recorded rounds: {first_len:?}"
    );

    // ---- The state files exist and are exact snapshots.
    for (k, &expected_len) in first_len.iter().enumerate() {
        let path = shard_state_path(&prefix, k);
        let name = path.to_string_lossy();
        assert!(name.ends_with(&format!(".run.v2.shard{k}.json")), "{name}");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("state file {} missing: {e}", path.display()));
        assert_eq!(text, handles[k].to_json(), "shard {k} snapshot");
        let table = SharedHistory::from_json(&text).expect("state file parses");
        assert_eq!(table.len(), expected_len, "shard {k} snapshot length");
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
    }

    // ---- Second life: the daemon boots from the files, serves more
    // traffic.
    let (daemon, handles2) = spawn(&prefix);
    for k in 0..2 {
        // Booted from the state file, entry for entry.
        assert_eq!(handles2[k].to_json(), handles[k].to_json(), "shard {k}");
    }
    serve_batch(&daemon, &jobs(12, 1_000));
    daemon.join();
    for k in 0..2 {
        assert!(
            handles2[k].len() > first_len[k],
            "shard {k}: the restored table must keep growing (was {}, now {})",
            first_len[k],
            handles2[k].len()
        );
        // The re-saved state file reflects the second life.
        let text = std::fs::read_to_string(shard_state_path(&prefix, k)).unwrap();
        let table = SharedHistory::from_json(&text).unwrap();
        assert_eq!(table.len(), handles2[k].len());
        let _ = std::fs::remove_file(shard_state_path(&prefix, k));
    }
}

//! What a router panic means: the daemon stops rather than hangs. The
//! one router panic a client can reach is a `SessionFactory` that panics
//! while a reshard rebuilds the shards (the factory runs on the router
//! thread). The I/O threads must stop with the router, so the client
//! that sent the `reshard` sees its connection close, and
//! `Daemon::join` returns the panic's message instead of blocking. The
//! shards do not die with the router: each is stopped, writes its state
//! file and is joined before `join` returns.

use gridsec_core::{BatchSchedule, Grid, Job, Site, Time};
use gridsec_serve::{
    shard_state_path, stateless_factory, Client, Daemon, DaemonExit, DaemonOptions, OnlineSession,
    Request, Response, SessionFactory,
};
use gridsec_sim::scheduler::EarliestCompletion;
use gridsec_sim::{BatchJob, BatchPolicy, BatchScheduler, GridView, ShardPlan, SimConfig};
use gridsec_stga::{GaParams, HistoryTable, Stga, StgaParams};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Duration;

fn grid() -> Grid {
    Grid::new(
        (0..2)
            .map(|k| Site::builder(k).nodes(1).speed(1.0).build().unwrap())
            .collect(),
    )
    .unwrap()
}

/// Sends `reshard` to two shards and expects the connection to close
/// without a reply (the router panicked building them).
fn reshard_and_see_the_connection_close(daemon: &Daemon) {
    let stream = TcpStream::connect(daemon.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut client = Client::from_stream(stream).unwrap();
    let reshard = Request::Reshard {
        shards: vec![vec![0], vec![1]],
    };
    let err = client
        .send(&reshard)
        .expect_err("no reply to a reshard that panicked");
    assert!(
        !matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "the connection hung instead of closing: {err}"
    );
}

/// Joins the daemon on a helper thread, failing if that takes over 5 s.
fn join_within_5s(daemon: Daemon) -> DaemonExit {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(daemon.join()).unwrap());
    rx.recv_timeout(Duration::from_secs(5))
        .expect("Daemon::join still blocks after the router panicked")
}

#[test]
fn a_factory_panic_during_a_reshard_closes_connections_and_join_reports_it() {
    let grid = grid();
    let config = SimConfig::default()
        .with_interval(Time::new(10.0))
        .with_batch_policy(BatchPolicy::Periodic);
    // One shard at boot is the first call; the reshard's first shard is
    // the second.
    let mut calls = 0;
    let factory = stateless_factory(config, move |_| {
        calls += 1;
        assert!(calls < 2, "factory call {calls} fails on purpose");
        Ok(Box::new(EarliestCompletion))
    });
    let plan = ShardPlan::contiguous(&grid, 1).unwrap();
    let daemon =
        Daemon::spawn(grid, plan, factory, "127.0.0.1:0", DaemonOptions::default()).unwrap();

    reshard_and_see_the_connection_close(&daemon);
    match join_within_5s(daemon) {
        DaemonExit::RouterPanicked(message) => {
            assert!(message.contains("fails on purpose"), "{message}")
        }
        other => panic!("the router did not panic: {other:?}"),
    }
}

/// An STGA whose snapshot takes a while: it widens the window in which a
/// daemon that let its shard threads run on past `join` would return
/// before the state file is written.
struct SlowSnapshot(Stga);

impl BatchScheduler for SlowSnapshot {
    fn name(&self) -> String {
        self.0.name()
    }

    fn schedule(&mut self, batch: &[BatchJob], view: &GridView<'_>) -> BatchSchedule {
        self.0.schedule(batch, view)
    }

    fn snapshot(&self) -> Option<String> {
        std::thread::sleep(Duration::from_millis(200));
        self.0.snapshot()
    }
}

#[test]
fn a_router_panic_stops_the_shards_and_each_writes_its_state_file_before_join_returns() {
    let prefix = std::env::temp_dir().join(format!("gridsec_router_panic_{}", std::process::id()));
    let state_file = shard_state_path(&prefix, 0);
    let _ = std::fs::remove_file(&state_file);
    let config = SimConfig::default()
        .with_interval(Time::new(10.0))
        .with_batch_policy(BatchPolicy::CountTriggered(2));
    let mut calls = 0;
    let factory: SessionFactory = Box::new(move |ctx| {
        calls += 1;
        assert!(calls < 2, "factory call {calls} fails on purpose");
        let params = StgaParams {
            ga: GaParams::default()
                .with_population(8)
                .with_generations(4)
                .with_seed(3),
            ..StgaParams::default()
        };
        let history = HistoryTable::from_snapshots(&ctx.history_sources, params.table_capacity)
            .map_err(|e| e.to_string())?;
        let stga = Stga::with_history(params, history).map_err(|e| e.to_string())?;
        OnlineSession::restore(ctx.subgrid, Box::new(SlowSnapshot(stga)), &config, ctx.seed)
            .map_err(|e| e.to_string())
    });
    let plan = ShardPlan::contiguous(&grid(), 1).unwrap();
    let options = DaemonOptions {
        state_prefix: Some(prefix),
        ..DaemonOptions::default()
    };
    let daemon = Daemon::spawn(grid(), plan, factory, "127.0.0.1:0", options).unwrap();

    // Something to learn: two rounds of two jobs.
    let mut client = Client::connect(daemon.addr()).unwrap();
    let jobs: Vec<Job> = (0..4)
        .map(|i| {
            Job::builder(i)
                .arrival(Time::new(i as f64))
                .work(5.0)
                .build()
                .unwrap()
        })
        .collect();
    let submit = Request::Submit {
        jobs,
        shard: None,
        tenant: None,
    };
    match client.send(&submit).unwrap() {
        Response::Accepted { jobs: 4, .. } => {}
        other => panic!("submit failed: {other:?}"),
    }
    reshard_and_see_the_connection_close(&daemon);
    assert!(matches!(
        join_within_5s(daemon),
        DaemonExit::RouterPanicked(_)
    ));

    let text = std::fs::read_to_string(&state_file);
    let _ = std::fs::remove_file(&state_file);
    let text = text.expect("the shard's state file exists when join returns");
    let table = HistoryTable::from_json(&text).expect("the state file parses");
    assert!(!table.is_empty(), "the shard's learned rounds were saved");
}

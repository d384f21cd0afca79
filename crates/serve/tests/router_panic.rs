//! What a router panic means: the daemon stops rather than hangs. The
//! one router panic a client can reach is a `SessionFactory` that panics
//! while a reshard rebuilds the shards (the factory runs on the router
//! thread). The I/O threads must stop with the router, so the client
//! that sent the `reshard` sees its connection close, and
//! `Daemon::join` returns the panic's message instead of blocking.

use gridsec_core::{Grid, Site, Time};
use gridsec_serve::{stateless_factory, Client, Daemon, DaemonExit, DaemonOptions, Request};
use gridsec_sim::scheduler::EarliestCompletion;
use gridsec_sim::{BatchPolicy, ShardPlan, SimConfig};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Duration;

#[test]
fn a_factory_panic_during_a_reshard_closes_connections_and_join_reports_it() {
    let grid = Grid::new(
        (0..2)
            .map(|k| Site::builder(k).nodes(1).speed(1.0).build().unwrap())
            .collect(),
    )
    .unwrap();
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

    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(daemon.join()).unwrap());
    match rx.recv_timeout(Duration::from_secs(5)) {
        Ok(DaemonExit::RouterPanicked(message)) => {
            assert!(message.contains("fails on purpose"), "{message}")
        }
        Ok(other) => panic!("the router did not panic: {other:?}"),
        Err(_) => panic!("Daemon::join still blocks after the router panicked"),
    }
}

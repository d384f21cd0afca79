//! How many threads a daemon runs, counted rather than timed: one per I/O
//! loop, one router and one per shard, whatever else is configured. The
//! metrics listener is served by I/O thread 0 and the autoscaler's clock
//! is the router's own wait, so neither adds a thread, and a scrape —
//! even one whose client never reads — adds none either.
//!
//! One `#[test]` on purpose: the process's thread count is asserted, and
//! a sibling test running beside it would move it.

use gridsec_core::{Grid, Site};
use gridsec_serve::{
    AutoscaleConfig, Client, Daemon, DaemonOptions, Request, Response, SessionFactory,
};
use gridsec_sim::scheduler::EarliestCompletion;
use gridsec_sim::{ShardPlan, SimConfig};
use std::io::Read;
use std::net::TcpStream;
use std::time::Duration;

/// Threads of this process, from `/proc/self/task`.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn a_daemon_runs_io_router_and_shard_threads_and_none_per_scrape() {
    const SCRAPES: usize = 32;
    let grid = Grid::new(
        (0..4)
            .map(|i| Site::builder(i).nodes(2).build().unwrap())
            .collect(),
    )
    .unwrap();
    let plan = ShardPlan::contiguous(&grid, 2).unwrap();
    let factory: SessionFactory = Box::new(|_| Ok(Box::new(EarliestCompletion)));
    let options = DaemonOptions {
        io_threads: 1,
        metrics_addr: Some("127.0.0.1:0".into()),
        // Samples every 10 ms but can never act: two shards, pinned.
        autoscale: Some(AutoscaleConfig {
            min_shards: 2,
            max_shards: 2,
            interval: Duration::from_millis(10),
            ..AutoscaleConfig::default()
        }),
        ..DaemonOptions::default()
    };
    let before = threads();
    let daemon = Daemon::spawn(
        grid,
        plan,
        SimConfig::default(),
        factory,
        "127.0.0.1:0",
        options,
    )
    .unwrap();
    let expected = before + 1 + 1 + 2; // I/O thread, router, two shards
    assert_eq!(threads(), expected, "threads after spawn");

    // Every scrape is connected before any is read; the first is never
    // read at all.
    let maddr = daemon.metrics_addr().expect("metrics listener bound");
    let mut scrapes: Vec<TcpStream> = (0..SCRAPES)
        .map(|_| TcpStream::connect(maddr).unwrap())
        .collect();
    assert_eq!(threads(), expected, "threads with {SCRAPES} scrapes open");
    for (i, scrape) in scrapes.iter_mut().enumerate().skip(1) {
        scrape
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut page = String::new();
        scrape.read_to_string(&mut page).unwrap();
        // Scrapes are not client connections.
        assert!(
            page.lines().any(|l| l == "gridsec_connections 0"),
            "scrape {i}:\n{page}"
        );
    }
    assert_eq!(
        threads(),
        expected,
        "threads with a scraper that never reads"
    );

    let mut client = Client::connect(daemon.addr()).unwrap();
    assert_eq!(client.send(&Request::Shutdown).unwrap(), Response::Bye);
    daemon.join();
    drop(scrapes);
    assert_eq!(threads(), before, "threads left after join");
}

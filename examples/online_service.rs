//! Online serving: spawn the `gridsec-serve` daemon in-process on an
//! ephemeral port, drive one scheduling round over the NDJSON wire
//! protocol, re-rate a site's trust mid-session, and read the metrics
//! back.
//!
//! Run with: `cargo run --release --example online_service`

use gridsec::prelude::*;
use gridsec::serve::{Client, Daemon, DaemonOptions, QueryWhat, Request, Response, SessionFactory};
use gridsec::sim::ShardPlan;
use gridsec::stga::HistoryTable;

fn main() {
    // 1. A grid, and the batching rules: under Hybrid(8) a round fires as
    //    soon as 8 jobs are pending, or at the periodic boundary,
    //    whichever is first. The default Virtual clock batches by
    //    submitted arrival times (deterministic); ClockMode::WallClock
    //    would serve real time instead.
    let grid = Grid::new(vec![
        Site::builder(0)
            .nodes(4)
            .speed(2.0)
            .security_level(0.9)
            .build()
            .unwrap(),
        Site::builder(1)
            .nodes(4)
            .speed(3.0)
            .security_level(0.6)
            .build()
            .unwrap(),
        Site::builder(2)
            .nodes(2)
            .speed(1.0)
            .security_level(0.95)
            .build()
            .unwrap(),
    ])
    .unwrap();
    let config = SimConfig::default()
        .with_interval(Time::new(1_000.0))
        .with_batch_policy(BatchPolicy::Hybrid(8));

    // 2. The session factory is the one description of a shard: it picks
    //    the shard's scheduler, and the daemon restores the session around
    //    it with `config`, for every shard of the plan it boots on and of
    //    every plan a `reshard` frame moves it to. Here: a long-lived STGA
    //    whose history table and GA pool stay alive across rounds. What it
    //    learned follows the shard — `history_sources` are the snapshots
    //    it inherits (a state file at boot, the old shards' tables at a
    //    reshard), and the daemon takes the next one from the scheduler
    //    itself (`BatchScheduler::snapshot`).
    let params = StgaParams {
        ga: GaParams::default()
            .with_population(40)
            .with_generations(25)
            .with_seed(7),
        ..StgaParams::default()
    };
    let factory: SessionFactory = Box::new(move |ctx| {
        let history = HistoryTable::from_snapshots(&ctx.history_sources, params.table_capacity)
            .map_err(|e| e.to_string())?;
        let stga = Stga::with_history(params, history).map_err(|e| e.to_string())?;
        Ok(Box::new(stga))
    });

    // 3. One shard covering the whole grid, on an ephemeral port.
    let plan = ShardPlan::contiguous(&grid, 1).unwrap();
    let options = DaemonOptions::default();
    let daemon = Daemon::spawn(grid, plan, config, factory, "127.0.0.1:0", options).unwrap();
    println!("daemon listening on {}", daemon.addr());

    // 4. A client submits a burst of jobs, NDJSON frame by frame.
    let mut client = Client::connect(daemon.addr()).unwrap();
    let jobs: Vec<Job> = (0..12)
        .map(|i| {
            Job::builder(i)
                .arrival(Time::new(5.0 * i as f64))
                .work(60.0 + 15.0 * i as f64)
                .security_demand(0.5 + 0.03 * (i % 10) as f64)
                .build()
                .unwrap()
        })
        .collect();
    for chunk in jobs.chunks(4) {
        match client
            .send(&Request::Submit {
                jobs: chunk.to_vec(),
                shard: None,
                tenant: None,
            })
            .unwrap()
        {
            Response::Accepted {
                jobs,
                pending,
                rounds,
                ..
            } => println!("accepted {jobs} jobs (pending {pending}, rounds so far {rounds})"),
            other => panic!("submit failed: {other:?}"),
        }
    }

    // 5. An IDS re-rates site 1 downward mid-session.
    match client
        .send(&Request::Reconfigure {
            security_levels: vec![0.9, 0.3, 0.95],
            shard: None,
            at: None,
        })
        .unwrap()
    {
        Response::Reconfigured { sites } => println!("trust state updated for {sites} sites"),
        other => panic!("reconfigure failed: {other:?}"),
    }

    // 6. Flush the queue and read the served schedule + metrics back.
    match client.send(&Request::Drain).unwrap() {
        Response::Drained {
            rounds,
            jobs_scheduled,
        } => println!("drained: {rounds} rounds, {jobs_scheduled} jobs scheduled"),
        other => panic!("drain failed: {other:?}"),
    }
    let assignments = match client
        .send(&Request::Query {
            what: QueryWhat::Schedule,
            shard: None,
        })
        .unwrap()
    {
        Response::Schedule { assignments } => assignments,
        other => panic!("query failed: {other:?}"),
    };
    println!("\nserved schedule ({} assignments):", assignments.len());
    for p in &assignments {
        println!(
            "  job {:>2} -> site {} [{:>7.1}s, {:>7.1}s)",
            p.job.0,
            p.site.0,
            p.start.seconds(),
            p.end.seconds()
        );
    }
    match client
        .send(&Request::Query {
            what: QueryWhat::Metrics,
            shard: None,
        })
        .unwrap()
    {
        Response::Metrics { metrics } => println!(
            "\nmetrics: {} rounds, {} jobs batched, makespan {:.1}s, scheduler {:.4}s",
            metrics.rounds,
            metrics.batch_size_hist.sum,
            metrics.max_completion.seconds(),
            metrics.scheduler_seconds
        ),
        other => panic!("metrics failed: {other:?}"),
    }

    // 7. Shut the daemon down cleanly.
    assert!(matches!(
        client.send(&Request::Shutdown).unwrap(),
        Response::Bye
    ));
    daemon.join();
    println!("\ndaemon stopped");
}

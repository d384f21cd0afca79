//! What a client sees across a reshard barrier, over the wire.
//!
//! * Duplicate-id protection carries over: after a split and again after
//!   a merge, an id the old shards settled is refused on its anchor
//!   shard, an id that was in flight at the barrier is refused on the
//!   shard that received it, and a new id is accepted. `jobs_scheduled`
//!   follows the standing commits: each accepted submit with a standing
//!   commit counts, two that share an id on merged shards included, so
//!   after the merge the whole grid's ledger balances (`jobs_submitted`
//!   = `jobs_scheduled` + `pending`).
//! * A wall-clock daemon at the 50 ms interval the benchmark workloads
//!   use accepts submits stamped right after every barrier, although a
//!   drain fires the armed boundary up to one interval ahead of real time.

use gridsec_core::{Grid, Job, RiskMode, Site, Time};
use gridsec_heuristics::Mct;
use gridsec_serve::{
    Client, ClockMode, Daemon, DaemonOptions, QueryWhat, Request, Response, ServeMetrics,
    SessionFactory,
};
use gridsec_sim::scheduler::EarliestCompletion;
use gridsec_sim::{BatchPolicy, ShardPlan, SimConfig};
use gridsec_workloads::PsaConfig;

fn submit(client: &mut Client, shard: usize, job: Job) -> Response {
    client
        .send(&Request::Submit {
            jobs: vec![job],
            shard: Some(shard),
            tenant: None,
        })
        .expect("submit frame")
}

fn reshard(client: &mut Client, shards: &[&[usize]]) {
    let shards: Vec<Vec<usize>> = shards.iter().map(|s| s.to_vec()).collect();
    let n = shards.len();
    match client.send(&Request::Reshard { shards }).expect("reshard") {
        Response::Resharded { shards, .. } => assert_eq!(shards, n),
        other => panic!("reshard to {n} shards rejected: {other:?}"),
    }
}

fn drain(client: &mut Client) {
    match client.send(&Request::Drain).expect("drain") {
        Response::Drained { .. } => {}
        other => panic!("drain failed: {other:?}"),
    }
}

/// The metrics of the whole grid (`None`) or of one shard.
fn metrics(client: &mut Client, shard: Option<usize>) -> ServeMetrics {
    match client.send(&Request::Query {
        what: QueryWhat::Metrics,
        shard,
    }) {
        Ok(Response::Metrics { metrics }) => metrics,
        other => panic!("metrics query failed: {other:?}"),
    }
}

/// `jobs_scheduled` of the whole grid, then of each of `n` shards.
fn scheduled(client: &mut Client, n: usize) -> (usize, Vec<usize>) {
    let mut query = |shard| metrics(client, shard).jobs_scheduled;
    (query(None), (0..n).map(|k| query(Some(k))).collect())
}

#[track_caller]
fn accepted(response: Response) {
    assert!(
        matches!(response, Response::Accepted { jobs: 1, .. }),
        "{response:?}"
    );
}

#[track_caller]
fn refused(response: Response) {
    match response {
        Response::Error { message } => assert!(message.contains("duplicate job id"), "{message}"),
        other => panic!("expected a duplicate-id refusal, got {other:?}"),
    }
}

fn shutdown(mut client: Client, daemon: Daemon) {
    assert_eq!(client.send(&Request::Shutdown).unwrap(), Response::Bye);
    daemon.join();
}

/// Four one-node sites; the odd ones are four times as fast, so MCT
/// places every job of a two-site shard on its second site.
fn four_sites() -> Grid {
    Grid::new(
        (0..4)
            .map(|k| {
                Site::builder(k)
                    .nodes(1)
                    .speed(if k % 2 == 1 { 4.0 } else { 1.0 })
                    .security_level(1.0)
                    .build()
                    .unwrap()
            })
            .collect(),
    )
    .unwrap()
}

#[test]
fn duplicate_ids_are_refused_across_a_split_and_a_merge() {
    let grid = four_sites();
    let config = SimConfig::default()
        .with_interval(Time::new(10.0))
        .with_batch_policy(BatchPolicy::Periodic);
    let plan = ShardPlan::contiguous(&grid, 2).unwrap(); // [0, 1] [2, 3]
    let factory: SessionFactory = Box::new(|_| Ok(Box::new(EarliestCompletion)));
    let options = DaemonOptions::default();
    let daemon = Daemon::spawn(grid, plan, config, factory, "127.0.0.1:0", options).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    let job = |id: u64, at: f64, work: f64| {
        Job::builder(id)
            .arrival(Time::new(at))
            .work(work)
            .security_demand(0.5)
            .build()
            .unwrap()
    };

    // Per old shard: a short job placed at t = 10 on the fast site, then
    // a long one at t = 50. The drain's round at t = 60 retires the short
    // job's commit (settled) and leaves the long one in flight on the
    // fast site.
    for (shard, base) in [(0, 0), (1, 10)] {
        accepted(submit(&mut client, shard, job(base, 1.0, 4.0)));
        accepted(submit(&mut client, shard, job(base + 1, 50.0, 4_000.0)));
    }
    drain(&mut client);

    // Split: each old shard's first site anchors it, so its settled ids
    // stay there; the in-flight job follows its commit to the fast site's
    // new shard.
    reshard(&mut client, &[&[0], &[1], &[2], &[3]]);
    assert_eq!(scheduled(&mut client, 4), (4, vec![1, 1, 1, 1]));
    // Settled 0 and 10 on their anchors, in-flight 1 and 11 where their
    // commits went, then a new id.
    refused(submit(&mut client, 0, job(0, 100.0, 1.0)));
    refused(submit(&mut client, 2, job(10, 100.0, 1.0)));
    refused(submit(&mut client, 1, job(1, 100.0, 1.0)));
    refused(submit(&mut client, 3, job(11, 100.0, 1.0)));
    accepted(submit(&mut client, 0, job(2, 100.0, 4.0)));
    // The transfer's rule: a moved id is known where its entries went,
    // and the anchor keeps no copy of it.
    accepted(submit(&mut client, 0, job(1, 100.0, 4.0)));
    // Queued behind job 1 on the fast site: in flight at the next barrier.
    accepted(submit(&mut client, 1, job(3, 100.0, 400.0)));
    drain(&mut client);
    // Job 1 now stands on shards 0 and 1.
    assert_eq!(scheduled(&mut client, 4), (7, vec![3, 2, 1, 1]));

    // Merge: both halves of each old pair land on one shard, where both
    // accepted submits of id 1 keep their standing commits.
    reshard(&mut client, &[&[0, 1], &[2, 3]]);
    assert_eq!(scheduled(&mut client, 2), (7, vec![5, 2]));
    let m = metrics(&mut client, None);
    assert_eq!(
        m.jobs_submitted,
        m.jobs_scheduled + m.pending,
        "submitted vs {} scheduled + {} pending",
        m.jobs_scheduled,
        m.pending
    );
    // Settled 0 and 10, in-flight 3, 1 and 11, then new ids.
    refused(submit(&mut client, 0, job(0, 200.0, 1.0)));
    refused(submit(&mut client, 1, job(10, 200.0, 1.0)));
    refused(submit(&mut client, 0, job(3, 200.0, 1.0)));
    refused(submit(&mut client, 0, job(1, 200.0, 1.0)));
    refused(submit(&mut client, 1, job(11, 200.0, 1.0)));
    accepted(submit(&mut client, 0, job(4, 200.0, 1.0)));
    accepted(submit(&mut client, 1, job(12, 200.0, 1.0)));
    shutdown(client, daemon);
}

/// `wire-mct-c256`'s daemon (the PSA grid, MCT Risky, hybrid-16 batches
/// every 50 ms) on two shards: six reshards alternating 2 ↔ 4 shards,
/// each followed by a drain, and 25 submits stamped by the daemon's clock
/// after every barrier. None is refused as arriving in the past.
#[test]
fn wall_clock_submits_after_a_barrier_are_accepted_at_a_50_ms_interval() {
    let w = PsaConfig::default()
        .with_n_jobs(300)
        .with_seed(2005)
        .generate()
        .expect("valid PSA defaults");
    let config = SimConfig::default()
        .with_interval(Time::new(0.05))
        .with_batch_policy(BatchPolicy::Hybrid(16));
    let plan = ShardPlan::contiguous(&w.grid, 2).unwrap();
    let n_sites = w.grid.len();
    let factory: SessionFactory = Box::new(|_| Ok(Box::new(Mct::new(RiskMode::Risky))));
    let options = DaemonOptions {
        clock: ClockMode::WallClock,
        ..DaemonOptions::default()
    };
    let daemon = Daemon::spawn(w.grid, plan, config, factory, "127.0.0.1:0", options).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    let contiguous = |n: usize| -> Vec<Vec<usize>> {
        (0..n)
            .map(|k| (k * n_sites / n..(k + 1) * n_sites / n).collect())
            .collect()
    };
    let mut jobs = w.jobs.into_iter();
    for i in 0..6 {
        let n = if i % 2 == 0 { 4 } else { 2 };
        let plan = contiguous(n);
        let shards: Vec<&[usize]> = plan.iter().map(Vec::as_slice).collect();
        for barrier in ["reshard", "drain"] {
            match barrier {
                "reshard" => reshard(&mut client, &shards),
                _ => drain(&mut client),
            }
            for k in 0..25 {
                let job = jobs.next().expect("300 jobs cover 12 barriers");
                let response = submit(&mut client, k % n, job);
                assert!(
                    matches!(response, Response::Accepted { jobs: 1, .. }),
                    "submit {k} after {barrier} {i}: {response:?}"
                );
            }
        }
    }
    shutdown(client, daemon);
}

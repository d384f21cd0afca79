//! Shard-routing edge cases against a live sharded daemon: spanning jobs
//! rejected with a typed frame, unknown shard ids, reconfiguring a
//! drained shard, two tenants on different shards interleaving
//! deterministically, and a shard-scoped query being the grid-wide one
//! over a single shard.

use gridsec_core::{Grid, Job, JobId, Site, SiteId, Time};
use gridsec_serve::{
    Client, Daemon, DaemonOptions, Placed, QueryWhat, Request, Response, ServeMetrics,
    SessionFactory, TelemetryReport,
};
use gridsec_sim::scheduler::EarliestCompletion;
use gridsec_sim::{BatchPolicy, ShardPlan, SimConfig};

/// Four sites in two shards: shard 0 = {S0 (2 nodes), S1 (2 nodes)},
/// shard 1 = {S2 (8 nodes), S3 (8 nodes)}. Narrow jobs span both shards;
/// jobs wider than 2 fit only shard 1.
fn grid() -> Grid {
    Grid::new(vec![
        Site::builder(0)
            .nodes(2)
            .speed(1.0)
            .security_level(1.0)
            .build()
            .unwrap(),
        Site::builder(1)
            .nodes(2)
            .speed(2.0)
            .security_level(1.0)
            .build()
            .unwrap(),
        Site::builder(2)
            .nodes(8)
            .speed(1.0)
            .security_level(1.0)
            .build()
            .unwrap(),
        Site::builder(3)
            .nodes(8)
            .speed(2.0)
            .security_level(1.0)
            .build()
            .unwrap(),
    ])
    .unwrap()
}

fn job(id: u64, arrival: f64, work: f64, width: u32) -> Job {
    Job::builder(id)
        .arrival(Time::new(arrival))
        .work(work)
        .width(width)
        .security_demand(0.5)
        .build()
        .unwrap()
}

/// A virtual-clock MCT daemon (10 s interval) serving `grid` under `plan`.
fn spawn_plan(grid: Grid, plan: &ShardPlan, policy: BatchPolicy) -> Daemon {
    let config = SimConfig::default()
        .with_interval(Time::new(10.0))
        .with_batch_policy(policy);
    let factory: SessionFactory = Box::new(|_| Ok(Box::new(EarliestCompletion)));
    let options = DaemonOptions::default();
    Daemon::spawn(grid, plan.clone(), config, factory, "127.0.0.1:0", options).unwrap()
}

fn spawn_two_shards(policy: BatchPolicy) -> (Daemon, ShardPlan) {
    let grid = grid();
    let plan = ShardPlan::contiguous(&grid, 2).unwrap();
    (spawn_plan(grid, &plan, policy), plan)
}

fn shutdown(client: &mut Client, daemon: Daemon) {
    assert_eq!(client.send(&Request::Shutdown).unwrap(), Response::Bye);
    daemon.join();
}

#[test]
fn spanning_job_gets_a_typed_rejection() {
    let (daemon, _) = spawn_two_shards(BatchPolicy::Periodic);
    let mut client = Client::connect(daemon.addr()).unwrap();
    // Width 1 fits sites in both shards → derived routing must refuse.
    match client
        .send(&Request::Submit {
            jobs: vec![job(0, 0.0, 5.0, 1)],
            shard: None,
            tenant: None,
        })
        .unwrap()
    {
        Response::RouteRejected {
            job,
            shards,
            message,
        } => {
            assert_eq!(job, JobId(0));
            assert_eq!(shards, vec![0, 1]);
            assert!(message.contains("span"));
        }
        other => panic!("expected route_rejected, got {other:?}"),
    }
    // Nothing was enqueued anywhere.
    match client
        .send(&Request::Query {
            what: QueryWhat::Metrics,
            shard: None,
        })
        .unwrap()
    {
        Response::Metrics { metrics } => {
            assert_eq!(metrics.jobs_submitted, 0);
            assert_eq!(metrics.pending, 0);
        }
        other => panic!("metrics failed: {other:?}"),
    }
    // The same job with an explicit shard is accepted — and the id is
    // still free because the rejection never consumed it.
    match client
        .send(&Request::Submit {
            jobs: vec![job(0, 0.0, 5.0, 1)],
            shard: Some(0),
            tenant: None,
        })
        .unwrap()
    {
        Response::Accepted { jobs: 1, shard, .. } => assert_eq!(shard, 0),
        other => panic!("explicit submit failed: {other:?}"),
    }
    shutdown(&mut client, daemon);
}

#[test]
fn unambiguous_jobs_route_without_an_explicit_shard() {
    let (daemon, _) = spawn_two_shards(BatchPolicy::Periodic);
    let mut client = Client::connect(daemon.addr()).unwrap();
    // Width 4 fits only the 8-node sites of shard 1.
    match client
        .send(&Request::Submit {
            jobs: vec![job(0, 0.0, 20.0, 4)],
            shard: None,
            tenant: None,
        })
        .unwrap()
    {
        Response::Accepted { jobs: 1, shard, .. } => assert_eq!(shard, 1),
        other => panic!("derived routing failed: {other:?}"),
    }
    // A frame mixing jobs that route to different shards is rejected
    // atomically: the first job alone would go to shard 1, but the
    // second only fits shard 1 too... craft a true mix: width-4 (shard 1)
    // plus a width-1 job that spans — spanning wins the typed error.
    match client
        .send(&Request::Submit {
            jobs: vec![job(1, 1.0, 20.0, 4), job(2, 1.0, 5.0, 1)],
            shard: None,
            tenant: None,
        })
        .unwrap()
    {
        Response::RouteRejected { job, .. } => {
            assert_eq!(job, JobId(2));
        }
        other => panic!("expected route_rejected, got {other:?}"),
    }
    // Job 1 from the rejected frame was NOT enqueued: resubmitting it is
    // not a duplicate.
    match client
        .send(&Request::Submit {
            jobs: vec![job(1, 1.0, 20.0, 4)],
            shard: None,
            tenant: None,
        })
        .unwrap()
    {
        Response::Accepted { jobs: 1, shard, .. } => assert_eq!(shard, 1),
        other => panic!("resubmit failed: {other:?}"),
    }
    shutdown(&mut client, daemon);
}

#[test]
fn unknown_shard_ids_get_typed_errors_everywhere() {
    let (daemon, _) = spawn_two_shards(BatchPolicy::Periodic);
    let mut client = Client::connect(daemon.addr()).unwrap();
    let expect_unknown = |r: Response| match r {
        Response::UnknownShard { shard, n_shards } => {
            assert_eq!(shard, 7);
            assert_eq!(n_shards, 2);
        }
        other => panic!("expected unknown_shard, got {other:?}"),
    };
    expect_unknown(
        client
            .send(&Request::Submit {
                jobs: vec![job(0, 0.0, 5.0, 1)],
                shard: Some(7),
                tenant: None,
            })
            .unwrap(),
    );
    expect_unknown(
        client
            .send(&Request::Query {
                what: QueryWhat::Metrics,
                shard: Some(7),
            })
            .unwrap(),
    );
    expect_unknown(
        client
            .send(&Request::Reconfigure {
                security_levels: vec![0.5, 0.5],
                shard: Some(7),
                at: None,
            })
            .unwrap(),
    );
    // The connection survives typed errors.
    match client
        .send(&Request::Submit {
            jobs: vec![job(0, 0.0, 5.0, 1)],
            shard: Some(0),
            tenant: None,
        })
        .unwrap()
    {
        Response::Accepted { jobs: 1, .. } => {}
        other => panic!("submit failed: {other:?}"),
    }
    shutdown(&mut client, daemon);
}

#[test]
fn reconfigure_scoped_to_a_drained_shard_applies() {
    let (daemon, _) = spawn_two_shards(BatchPolicy::Periodic);
    let mut client = Client::connect(daemon.addr()).unwrap();
    client
        .send(&Request::Submit {
            jobs: vec![job(0, 1.0, 5.0, 4)],
            shard: Some(1),
            tenant: None,
        })
        .unwrap();
    match client.send(&Request::Drain).unwrap() {
        Response::Drained { jobs_scheduled, .. } => assert_eq!(jobs_scheduled, 1),
        other => panic!("drain failed: {other:?}"),
    }
    // Shard 1 is drained (idle); a scoped trust update must still apply.
    // Its subgrid has two sites, so two levels in shard-local order.
    assert_eq!(
        client
            .send(&Request::Reconfigure {
                security_levels: vec![0.25, 0.3],
                shard: Some(1),
                at: None,
            })
            .unwrap(),
        Response::Reconfigured { sites: 2 }
    );
    // The wrong arity against the shard's subgrid is a clean error.
    assert!(matches!(
        client
            .send(&Request::Reconfigure {
                security_levels: vec![0.25, 0.3, 0.4, 0.5],
                shard: Some(1),
                at: None,
            })
            .unwrap(),
        Response::Error { .. }
    ));
    // A global reconfigure addresses all four sites.
    assert_eq!(
        client
            .send(&Request::Reconfigure {
                security_levels: vec![0.9, 0.9, 0.8, 0.8],
                shard: None,
                at: None,
            })
            .unwrap(),
        Response::Reconfigured { sites: 4 }
    );
    // And the drained shard keeps serving afterwards (the drain ran the
    // boundary at t = 10, so the next arrival must come later).
    match client
        .send(&Request::Submit {
            jobs: vec![job(1, 20.0, 5.0, 4)],
            shard: Some(1),
            tenant: None,
        })
        .unwrap()
    {
        Response::Accepted { jobs: 1, shard, .. } => assert_eq!(shard, 1),
        other => panic!("post-drain submit failed: {other:?}"),
    }
    match client.send(&Request::Drain).unwrap() {
        Response::Drained { jobs_scheduled, .. } => assert_eq!(jobs_scheduled, 2),
        other => panic!("drain failed: {other:?}"),
    }
    shutdown(&mut client, daemon);
}

#[test]
fn two_tenants_on_different_shards_interleave_deterministically() {
    // Tenant A drives shard 0, tenant B shard 1, strictly interleaved in
    // lock-step. Each shard's schedule must equal a solo replay of just
    // that tenant's jobs against an independent daemon on the subgrid.
    let tenant_a: Vec<Job> = (0..5)
        .map(|i| job(i, i as f64, 10.0 + i as f64, 1))
        .collect();
    let tenant_b: Vec<Job> = (0..5)
        .map(|i| job(100 + i, 0.5 * i as f64, 20.0 + i as f64, 4))
        .collect();

    let (daemon, plan) = spawn_two_shards(BatchPolicy::CountTriggered(2));
    let mut a = Client::connect(daemon.addr()).unwrap();
    let mut b = Client::connect(daemon.addr()).unwrap();
    for i in 0..5 {
        match a
            .send(&Request::Submit {
                jobs: vec![tenant_a[i].clone()],
                shard: Some(0),
                tenant: None,
            })
            .unwrap()
        {
            Response::Accepted { shard: 0, .. } => {}
            other => panic!("tenant A submit failed: {other:?}"),
        }
        match b
            .send(&Request::Submit {
                jobs: vec![tenant_b[i].clone()],
                shard: Some(1),
                tenant: None,
            })
            .unwrap()
        {
            Response::Accepted { shard: 1, .. } => {}
            other => panic!("tenant B submit failed: {other:?}"),
        }
    }
    a.send(&Request::Drain).unwrap();
    let mut per_shard = Vec::new();
    for k in 0..2 {
        match a
            .send(&Request::Query {
                what: QueryWhat::Schedule,
                shard: Some(k),
            })
            .unwrap()
        {
            Response::Schedule { assignments } => per_shard.push(assignments),
            other => panic!("query failed: {other:?}"),
        }
    }
    shutdown(&mut a, daemon);

    // Solo replays, one tenant each, on the matching subgrid.
    let grid = grid();
    for (k, tenant) in [(0usize, &tenant_a), (1usize, &tenant_b)] {
        let sub = plan.subgrid(&grid, k).unwrap();
        let solo_plan = ShardPlan::contiguous(&sub, 1).unwrap();
        let solo = spawn_plan(sub, &solo_plan, BatchPolicy::CountTriggered(2));
        let mut c = Client::connect(solo.addr()).unwrap();
        for j in tenant.iter() {
            match c
                .send(&Request::Submit {
                    jobs: vec![j.clone()],
                    shard: None,
                    tenant: None,
                })
                .unwrap()
            {
                Response::Accepted { .. } => {}
                other => panic!("solo submit failed: {other:?}"),
            }
        }
        c.send(&Request::Drain).unwrap();
        let solo_schedule = match c
            .send(&Request::Query {
                what: QueryWhat::Schedule,
                shard: None,
            })
            .unwrap()
        {
            Response::Schedule { assignments } => assignments,
            other => panic!("solo query failed: {other:?}"),
        };
        shutdown(&mut c, solo);
        let translated: Vec<Placed> = solo_schedule
            .iter()
            .map(|p| Placed {
                site: plan.to_global(k, p.site),
                ..*p
            })
            .collect();
        assert_eq!(
            per_shard[k], translated,
            "shard {k}: split tenants diverged from the solo replay"
        );
        assert_eq!(per_shard[k].len(), 5);
    }
}

/// Reshard plans need not be contiguous. With shard 0 = {S1} and
/// shard 1 = {S0, S2, S3}, the site→shard map is not ascending: derived
/// routing must still find a single owner when one exists, and a
/// spanning rejection must list each candidate shard exactly once,
/// ascending — not once per eligible site.
#[test]
fn non_contiguous_plans_route_and_list_each_shard_once() {
    let grid = grid();
    let plan = ShardPlan::from_shards(
        &grid,
        vec![vec![SiteId(1)], vec![SiteId(0), SiteId(2), SiteId(3)]],
    )
    .unwrap();
    let daemon = spawn_plan(grid, &plan, BatchPolicy::Periodic);
    let mut client = Client::connect(daemon.addr()).unwrap();
    // Width 5 fits only S2 and S3 — both shard 1 despite the gap in the
    // site list — so derived routing lands there unambiguously.
    match client
        .send(&Request::Submit {
            jobs: vec![job(0, 1.0, 30.0, 5)],
            shard: None,
            tenant: None,
        })
        .unwrap()
    {
        Response::Accepted {
            jobs: 1, shard: 1, ..
        } => {}
        other => panic!("derived routing on the gapped shard failed: {other:?}"),
    }
    // Width 1 fits every site; the eligible shard walk visits shard 1
    // three times and shard 0 once, out of order. The rejection must
    // still name each shard exactly once, ascending.
    match client
        .send(&Request::Submit {
            jobs: vec![job(1, 2.0, 30.0, 1)],
            shard: None,
            tenant: None,
        })
        .unwrap()
    {
        Response::RouteRejected { job, shards, .. } => {
            assert_eq!(job, JobId(1));
            assert_eq!(shards, vec![0, 1], "each shard once, ascending");
        }
        other => panic!("expected route_rejected, got {other:?}"),
    }
    // The rejected frame enqueued nothing; an explicit shard works.
    match client
        .send(&Request::Submit {
            jobs: vec![job(1, 2.0, 30.0, 1)],
            shard: Some(0),
            tenant: None,
        })
        .unwrap()
    {
        Response::Accepted {
            jobs: 1, shard: 0, ..
        } => {}
        other => panic!("explicit submit failed: {other:?}"),
    }
    assert!(matches!(
        client.send(&Request::Drain).unwrap(),
        Response::Drained {
            jobs_scheduled: 2,
            ..
        }
    ));
    shutdown(&mut client, daemon);
}

/// After a reshard the introspection surface must describe the *new*
/// topology: `shards` lists the new partition, per-shard queries accept
/// the new ids, and `unknown_shard` reports the new shard count.
#[test]
fn shards_query_reflects_the_new_topology_after_reshard() {
    let (daemon, _) = spawn_two_shards(BatchPolicy::Periodic);
    let mut client = Client::connect(daemon.addr()).unwrap();
    let topology = |client: &mut Client| -> Vec<(usize, Vec<usize>)> {
        match client
            .send(&Request::Query {
                what: QueryWhat::Shards,
                shard: None,
            })
            .unwrap()
        {
            Response::Shards { shards } => shards
                .into_iter()
                .map(|s| (s.shard, s.sites.iter().map(|x| x.0).collect()))
                .collect(),
            other => panic!("shards query failed: {other:?}"),
        }
    };
    assert_eq!(
        topology(&mut client),
        vec![(0, vec![0, 1]), (1, vec![2, 3])]
    );
    match client
        .send(&Request::Reshard {
            shards: vec![vec![0], vec![1], vec![2], vec![3]],
        })
        .unwrap()
    {
        Response::Resharded { shards: 4, .. } => {}
        other => panic!("reshard failed: {other:?}"),
    }
    assert_eq!(
        topology(&mut client),
        vec![(0, vec![0]), (1, vec![1]), (2, vec![2]), (3, vec![3]),]
    );
    // Per-shard addressing accepts the new ids and refuses stale ones
    // with the new shard count.
    assert!(matches!(
        client
            .send(&Request::Query {
                what: QueryWhat::Metrics,
                shard: Some(3),
            })
            .unwrap(),
        Response::Metrics { .. }
    ));
    assert_eq!(
        client
            .send(&Request::Query {
                what: QueryWhat::Metrics,
                shard: Some(7),
            })
            .unwrap(),
        Response::UnknownShard {
            shard: 7,
            n_shards: 4,
        }
    );
    shutdown(&mut client, daemon);
}

const EVERY_WHAT: [QueryWhat; 4] = [
    QueryWhat::Schedule,
    QueryWhat::Metrics,
    QueryWhat::Shards,
    QueryWhat::Telemetry,
];

/// One `query` round trip. The flight recorder's status is blanked: the
/// recorder is one per process and the tests of this binary share it.
fn query(client: &mut Client, what: QueryWhat, shard: Option<usize>) -> Response {
    match client.send(&Request::Query { what, shard }).unwrap() {
        Response::Telemetry { mut telemetry } => {
            telemetry.recorder = Default::default();
            Response::Telemetry { telemetry }
        }
        other => other,
    }
}

/// Submits one single-job frame per `(id, arrival)` to `shard`, then drains.
fn serve(client: &mut Client, jobs: &[(u64, f64)], shard: Option<usize>) {
    for &(id, arrival) in jobs {
        match client
            .send(&Request::Submit {
                jobs: vec![job(id, arrival, 5.0 + id as f64, 1)],
                shard,
                tenant: None,
            })
            .unwrap()
        {
            Response::Accepted { jobs: 1, .. } => {}
            other => panic!("submit {id} failed: {other:?}"),
        }
    }
    assert!(matches!(
        client.send(&Request::Drain).unwrap(),
        Response::Drained { .. }
    ));
}

fn reshard(client: &mut Client, shards: Vec<Vec<usize>>) {
    let n = shards.len();
    match client.send(&Request::Reshard { shards }).unwrap() {
        Response::Resharded { shards, .. } => assert_eq!(shards, n),
        other => panic!("reshard failed: {other:?}"),
    }
}

/// A shard-scoped query is the grid-wide query over the one-shard slice:
/// on a one-shard daemon that has run rounds and never resharded, the two
/// frames decode to the same `Response`, for every `what`.
#[test]
fn a_scoped_query_is_the_whole_query_over_one_shard() {
    let grid = grid();
    let plan = ShardPlan::contiguous(&grid, 1).unwrap();
    let daemon = spawn_plan(grid, &plan, BatchPolicy::Periodic);
    let mut client = Client::connect(daemon.addr()).unwrap();
    serve(&mut client, &[(0, 0.0), (1, 3.0), (2, 12.0)], None);
    let served = metrics(&mut client, None);
    assert_eq!((served.rounds, served.pending), (2, 0));
    for what in EVERY_WHAT {
        assert_eq!(
            query(&mut client, what, Some(0)),
            query(&mut client, what, None),
            "{what:?}: the scoped and the whole view of one shard differ"
        );
    }
    shutdown(&mut client, daemon);
}

fn metrics(client: &mut Client, shard: Option<usize>) -> ServeMetrics {
    match query(client, QueryWhat::Metrics, shard) {
        Response::Metrics { metrics } => metrics,
        other => panic!("metrics failed: {other:?}"),
    }
}

fn schedule(client: &mut Client, shard: Option<usize>) -> Vec<Placed> {
    match query(client, QueryWhat::Schedule, shard) {
        Response::Schedule { assignments } => assignments,
        other => panic!("schedule failed: {other:?}"),
    }
}

fn telemetry(client: &mut Client, shard: Option<usize>) -> TelemetryReport {
    match query(client, QueryWhat::Telemetry, shard) {
        Response::Telemetry { telemetry } => telemetry,
        other => panic!("telemetry failed: {other:?}"),
    }
}

/// What `whole` may add, and nothing else: after a 1 → 2 → 1 reshard the
/// grid-wide counters and schedule exceed shard 0's by exactly what the
/// retired shards had served (the router's archive), and only the
/// grid-wide telemetry frame carries the router's reshard histograms.
#[test]
fn the_whole_view_is_the_scoped_one_plus_the_archive_and_the_reshard_histograms() {
    let grid = grid();
    let plan = ShardPlan::contiguous(&grid, 1).unwrap();
    let daemon = spawn_plan(grid, &plan, BatchPolicy::Periodic);
    let mut client = Client::connect(daemon.addr()).unwrap();
    serve(&mut client, &[(0, 0.0), (1, 3.0), (2, 12.0)], None);
    reshard(&mut client, vec![vec![0, 1], vec![2, 3]]);
    serve(&mut client, &[(3, 40.0), (4, 41.0)], Some(0));
    serve(&mut client, &[(5, 40.0)], Some(1));
    // Everything served so far is about to be retired with its shards.
    let archived = metrics(&mut client, None);
    let archived_schedule = schedule(&mut client, None);
    assert_eq!((archived.jobs_submitted, archived_schedule.len()), (6, 6));
    reshard(&mut client, vec![vec![0, 1, 2, 3]]);
    serve(&mut client, &[(6, 80.0), (7, 95.0)], None);

    let (whole, scoped) = (metrics(&mut client, None), metrics(&mut client, Some(0)));
    assert_eq!((scoped.jobs_submitted, scoped.rounds), (2, 2));
    assert_eq!(
        whole.jobs_submitted,
        archived.jobs_submitted + scoped.jobs_submitted
    );
    assert_eq!(whole.rounds, archived.rounds + scoped.rounds);
    assert_eq!(whole.jobs_scheduled, scoped.jobs_scheduled);

    let (whole, scoped) = (schedule(&mut client, None), schedule(&mut client, Some(0)));
    assert_eq!(scoped.len(), 2);
    assert_eq!(whole, [archived_schedule, scoped].concat());

    assert_eq!(
        query(&mut client, QueryWhat::Shards, Some(0)),
        query(&mut client, QueryWhat::Shards, None)
    );
    let (whole, scoped) = (
        telemetry(&mut client, None),
        telemetry(&mut client, Some(0)),
    );
    assert_eq!(whole.shards, scoped.shards);
    assert_eq!(whole.reshard_barrier_nanos.count, 2);
    assert_eq!(whole.reshard_migrated_jobs.count, 2);
    assert_eq!(scoped.reshard_barrier_nanos.count, 0);
    assert_eq!(scoped.reshard_migrated_jobs.count, 0);
    shutdown(&mut client, daemon);
}

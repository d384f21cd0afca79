//! The chaos-equivalence suite: a compiled chaos scenario replays
//! bit-identically through the stand-alone engine runner
//! ([`RefereeRunner`], `referee/mod.rs` — a `RoundDriver` and a
//! `BoundaryClock` of its own, no session) and the sharded daemon, over
//! real TCP.
//!
//! Three claims:
//!
//! 1. **Engine ≡ 1-shard daemon under churn.** Replaying one injection
//!    stream — arrivals, mid-round site failures, rejoins, trust
//!    re-ratings — through a virtual-clock daemon commits exactly the
//!    scenario runner's timeline, dispatch for dispatch.
//! 2. **N-shard daemon under churn ≡ N per-shard engine runs.** The
//!    daemon fed the global stream matches, per shard, a runner replaying
//!    that shard's slice ([`InjectionStream::slice_for_shard`]) on the
//!    shard's subgrid, after site-id translation.
//! 3. **Nothing is lost.** Every submitted job ends the run scheduled or
//!    pending; stranded jobs are requeued and the failure counters add up
//!    across shards.
//!
//! A plain wire test also pins the mid-round site-loss path frame by
//! frame: `site_failed` with the requeue count, `site_offline` on
//! derived routing to a dead site, `site_rejoined` restoring service; and
//! one wall-clock soak feeds the same stream to a bounded daemon on its
//! own timer, where only claim 3 can hold.

use gridsec_core::RiskMode;
use gridsec_core::{Grid, Job, Site, Time};
use gridsec_heuristics::MinMin;
use gridsec_serve::{
    stateless_factory, Client, ClockMode, Daemon, DaemonOptions, Placed, QueryWhat, Request,
    Response, ServeMetrics,
};
use gridsec_sim::scheduler::EarliestCompletion;
use gridsec_sim::{
    ArrivalPhase, ArrivalProcess, BatchPolicy, BatchScheduler, FaultSpec, InjectionKind,
    InjectionStream, Scenario, ShardPlan, SimConfig, TrustSpec,
};
use gridsec_stga::{GaParams, Stga, StgaParams};

mod referee;
use referee::RefereeRunner;

fn grid() -> Grid {
    let nodes = [2u32, 4, 2, 4];
    let speeds = [1.0, 2.0, 1.5, 1.0];
    Grid::new(
        nodes
            .iter()
            .zip(speeds)
            .enumerate()
            .map(|(i, (&n, v))| {
                Site::builder(i)
                    .nodes(n)
                    .speed(v)
                    .security_level(0.95)
                    .build()
                    .unwrap()
            })
            .collect(),
    )
    .unwrap()
}

/// A churn scenario exercising every injection kind: two tenants (one
/// heavy-tailed), an explicit outage with rejoin, a seeded fault storm,
/// an explicit re-rate and a trust storm.
fn churn_scenario(n_sites: usize) -> Scenario {
    Scenario {
        seed: 4242,
        arrivals: vec![
            ArrivalPhase {
                tenant: "batch".into(),
                start: 0.0,
                end: 400.0,
                process: ArrivalProcess::Poisson { rate: 0.08 },
                width_min: 1,
                width_max: 2,
                work_min: 50.0,
                work_max: 400.0,
                sd_min: 0.3,
                sd_max: 0.6,
            },
            ArrivalPhase {
                tenant: "bursty".into(),
                start: 100.0,
                end: 300.0,
                process: ArrivalProcess::Pareto {
                    rate: 0.05,
                    alpha: 1.5,
                },
                width_min: 1,
                width_max: 4,
                work_min: 20.0,
                work_max: 150.0,
                sd_min: 0.3,
                sd_max: 0.5,
            },
        ],
        faults: vec![
            FaultSpec::SiteDown {
                site: 1,
                at: 120.0,
                until: Some(260.0),
            },
            FaultSpec::FaultStorm {
                start: 150.0,
                end: 350.0,
                rate: 0.01,
                mttr: 60.0,
                sites: None,
            },
        ],
        trust: vec![
            TrustSpec::ReRate {
                at: 180.0,
                levels: vec![0.9; n_sites],
            },
            TrustSpec::TrustStorm {
                start: 50.0,
                end: 380.0,
                rate: 0.02,
                jitter: 0.1,
            },
        ],
        max_jobs: Some(48),
    }
}

fn sim_config() -> SimConfig {
    SimConfig::default()
        .with_interval(Time::new(30.0))
        .with_batch_policy(BatchPolicy::Periodic)
        .with_seed(7)
}

fn build_scheduler(name: &str) -> Box<dyn BatchScheduler + Send> {
    match name {
        "mct" => Box::new(EarliestCompletion),
        "minmin" => Box::new(MinMin::new(RiskMode::Risky)),
        "stga" => Box::new(
            Stga::new(StgaParams {
                ga: GaParams::default()
                    .with_population(16)
                    .with_generations(8)
                    .with_seed(11),
                ..StgaParams::default()
            })
            .expect("valid STGA params"),
        ),
        other => panic!("unknown scheduler {other}"),
    }
}

/// A virtual-clock daemon serving `grid` under `plan`, every shard running
/// a fresh [`build_scheduler`]`(scheduler)`.
fn spawn(grid: &Grid, plan: &ShardPlan, scheduler: &str, config: &SimConfig) -> Daemon {
    let scheduler = scheduler.to_string();
    let factory = stateless_factory(config.clone(), move |_| Ok(build_scheduler(&scheduler)));
    let options = DaemonOptions::default();
    Daemon::spawn(grid.clone(), plan.clone(), factory, "127.0.0.1:0", options)
        .expect("daemon spawns")
}

/// Replays the global stream through a daemon frame by frame: arrivals
/// go to the shard `slice_for_shard` assigns them to, site events carry
/// global site ids, trust vectors go through a global reconfigure.
/// A virtual-clock daemon is told every injection's instant; a
/// `wall_clock` one stamps its own (frames carry no `at`) and may answer
/// a submit `busy`, which is retried until its timer rounds make room.
/// `fed` runs once the stream is in and before the drain — the daemon is
/// still scheduling. Returns (per-shard schedules, aggregated metrics,
/// jobs submitted).
fn replay_stream(
    daemon: &Daemon,
    stream: &InjectionStream,
    plan: &ShardPlan,
    grid: &Grid,
    n_shards: usize,
    wall_clock: bool,
    fed: impl FnOnce(),
) -> (Vec<Vec<Placed>>, ServeMetrics, usize) {
    let mut client = Client::connect(daemon.addr()).expect("client connects");
    let mut submitted = 0usize;
    let instant = |at: Time| (!wall_clock).then_some(at);
    let started = std::time::Instant::now();
    for inj in &stream.events {
        match &inj.kind {
            InjectionKind::Arrive(job) => {
                let eligible = plan.eligible_shards(grid, job);
                if eligible.is_empty() {
                    continue; // the stream slicer drops these too
                }
                let shard = eligible[job.id.0 as usize % eligible.len()];
                let frame = Request::Submit {
                    jobs: vec![job.clone()],
                    shard: Some(shard),
                    tenant: None,
                };
                loop {
                    match client.send(&frame).expect("submit frame") {
                        Response::Accepted { jobs: 1, .. } => {
                            submitted += 1;
                            break;
                        }
                        Response::Busy { jobs: 0, .. } if wall_clock => {
                            assert!(started.elapsed().as_secs() < 30, "busy for good");
                            std::thread::sleep(std::time::Duration::from_millis(2));
                        }
                        other => panic!("submit rejected: {other:?}"),
                    }
                }
            }
            InjectionKind::SiteFail(site) => {
                match client
                    .send(&Request::FailSite {
                        site: site.0,
                        at: instant(inj.at),
                    })
                    .expect("fail frame")
                {
                    Response::SiteFailed { site: s, .. } => assert_eq!(s, site.0),
                    other => panic!("fail_site rejected: {other:?}"),
                }
            }
            InjectionKind::SiteRejoin(site) => {
                match client
                    .send(&Request::RejoinSite {
                        site: site.0,
                        at: instant(inj.at),
                    })
                    .expect("rejoin frame")
                {
                    Response::SiteRejoined { site: s, .. } => assert_eq!(s, site.0),
                    other => panic!("rejoin_site rejected: {other:?}"),
                }
            }
            InjectionKind::SetTrust(levels) => {
                match client
                    .send(&Request::Reconfigure {
                        security_levels: levels.clone(),
                        shard: None,
                        at: instant(inj.at),
                    })
                    .expect("reconfigure frame")
                {
                    Response::Reconfigured { .. } => {}
                    other => panic!("reconfigure rejected: {other:?}"),
                }
            }
        }
    }
    fed();
    match client.send(&Request::Drain).expect("drain frame") {
        Response::Drained { .. } => {}
        other => panic!("drain failed: {other:?}"),
    }
    let mut per_shard = Vec::new();
    for k in 0..n_shards {
        match client
            .send(&Request::Query {
                what: QueryWhat::Schedule,
                shard: Some(k),
            })
            .expect("per-shard query")
        {
            Response::Schedule { assignments } => per_shard.push(assignments),
            other => panic!("per-shard query failed: {other:?}"),
        }
    }
    let metrics = match client
        .send(&Request::Query {
            what: QueryWhat::Metrics,
            shard: None,
        })
        .expect("metrics query")
    {
        Response::Metrics { metrics } => metrics,
        other => panic!("metrics query failed: {other:?}"),
    };
    match client.send(&Request::Shutdown).expect("shutdown frame") {
        Response::Bye => {}
        other => panic!("shutdown failed: {other:?}"),
    }
    (per_shard, metrics, submitted)
}

fn check_chaos_daemon_equals_engine(scheduler: &str, n_shards: usize) {
    let grid = grid();
    let scenario = churn_scenario(grid.len());
    let stream = scenario.compile(&grid).expect("scenario compiles");
    assert!(stream.n_jobs() > 0, "scenario generated no jobs");
    assert!(
        stream
            .events
            .iter()
            .any(|e| matches!(e.kind, InjectionKind::SiteFail(_))),
        "scenario generated no site failures"
    );
    let config = sim_config();
    let plan = ShardPlan::contiguous(&grid, n_shards).unwrap();

    // The daemon side: one virtual-clock daemon, the global stream.
    let daemon = spawn(&grid, &plan, scheduler, &config);
    let (per_shard, metrics, submitted) =
        replay_stream(&daemon, &stream, &plan, &grid, n_shards, false, || ());
    daemon.join();

    // The engine side: one scenario runner per shard, fed that shard's
    // slice on the shard's subgrid.
    let mut engine_submitted = 0usize;
    let mut engine_scheduled = 0usize;
    let mut engine_pending = 0usize;
    for (k, daemon_schedule) in per_shard.iter().enumerate() {
        let slice = stream.slice_for_shard(&plan, &grid, k);
        let sub = plan.subgrid(&grid, k).unwrap();
        let runner = RefereeRunner::new(sub, build_scheduler(scheduler), &config).unwrap();
        let outcome = runner.run(&slice).expect("engine replay");
        assert!(
            outcome.fully_accounted(),
            "{scheduler}/{n_shards} shards: shard {k} lost jobs: {outcome:?}"
        );
        engine_submitted += outcome.jobs_submitted;
        engine_scheduled += outcome.jobs_scheduled;
        engine_pending += outcome.pending;

        // Site-id translation: the runner speaks shard-local ids.
        let translated: Vec<Placed> = outcome
            .timeline
            .iter()
            .map(|&c| {
                let mut p = c;
                p.site = plan.to_global(k, p.site);
                p
            })
            .collect();
        assert_eq!(
            *daemon_schedule, translated,
            "{scheduler}/{n_shards} shards: shard {k} daemon timeline diverged from the engine"
        );
    }

    // The books balance across both replay paths: every submitted job is
    // scheduled or still pending, nowhere silently lost.
    assert_eq!(submitted, engine_submitted);
    assert_eq!(metrics.jobs_submitted, submitted);
    assert_eq!(metrics.jobs_scheduled, engine_scheduled);
    assert_eq!(metrics.pending, engine_pending);
    assert_eq!(
        metrics.jobs_submitted,
        metrics.jobs_scheduled + metrics.pending,
        "{scheduler}/{n_shards} shards: daemon lost jobs"
    );
    let fails = stream
        .events
        .iter()
        .filter(|e| matches!(e.kind, InjectionKind::SiteFail(_)))
        .count();
    let rejoins = stream
        .events
        .iter()
        .filter(|e| matches!(e.kind, InjectionKind::SiteRejoin(_)))
        .count();
    assert_eq!(metrics.sites_failed, fails);
    assert_eq!(metrics.sites_rejoined, rejoins);
}

/// Claim 3 where claims 1 and 2 cannot hold: the same stream fed flat out
/// to a two-shard *wall-clock* daemon with eight pending slots per shard,
/// so rounds run on the daemon's own 50 ms timer while submits are pushed
/// back and retried, a site dies with jobs reserved on it, and jobs wait
/// behind it until it rejoins. The exposition page is scraped while the
/// daemon is still scheduling. Timing decides which round takes which job,
/// so only the books are asserted: nothing lost, every churn event counted.
#[test]
fn wall_clock_churn_soak_under_backpressure_loses_nothing() {
    use std::io::Read as _;
    let grid = grid();
    let stream = churn_scenario(grid.len()).compile(&grid).expect("compiles");
    let plan = ShardPlan::contiguous(&grid, 2).unwrap();
    let config = sim_config().with_interval(Time::new(0.05));
    let factory = stateless_factory(config, |_| Ok(build_scheduler("minmin")));
    let options = DaemonOptions {
        clock: ClockMode::WallClock,
        max_pending: Some(8),
        metrics_addr: Some("127.0.0.1:0".into()),
        ..DaemonOptions::default()
    };
    let daemon = Daemon::spawn(grid.clone(), plan.clone(), factory, "127.0.0.1:0", options)
        .expect("daemon spawns");

    let scrape = || {
        let addr = daemon.metrics_addr().expect("metrics listener bound");
        let mut page = String::new();
        let mut socket = std::net::TcpStream::connect(addr).expect("scrape connects");
        socket.read_to_string(&mut page).expect("scrape reads");
        for line in page
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let value = line.rsplit_once(' ').map(|(_, v)| v.parse::<f64>());
            assert!(
                matches!(value, Some(Ok(v)) if v.is_finite()),
                "sample line {line:?}"
            );
        }
        for family in [
            "gridsec_jobs_submitted_total",
            "gridsec_rounds_total",
            "gridsec_round_nanos_bucket",
            "gridsec_pending{shard=\"1\"}",
            "gridsec_busy_rejections_total",
        ] {
            assert!(
                page.lines().any(|l| l.starts_with(family)),
                "family {family} missing from:\n{page}"
            );
        }
    };
    let (_, metrics, submitted) = replay_stream(&daemon, &stream, &plan, &grid, 2, true, scrape);
    daemon.join();

    assert_eq!(submitted, stream.n_jobs(), "every arrival fits a shard");
    assert_eq!(metrics.jobs_submitted, submitted);
    assert_eq!(
        metrics.jobs_submitted,
        metrics.jobs_scheduled + metrics.pending,
        "the wall-clock daemon lost jobs"
    );
    assert!(
        metrics.busy_rejections > 0,
        "eight slots against flat-out submission must push back"
    );
    let count =
        |is: fn(&InjectionKind) -> bool| stream.events.iter().filter(|e| is(&e.kind)).count();
    let fails = count(|k| matches!(k, InjectionKind::SiteFail(_)));
    assert!(fails > 0, "the stream must exercise churn");
    assert_eq!(metrics.sites_failed, fails);
    assert_eq!(
        metrics.sites_rejoined,
        count(|k| matches!(k, InjectionKind::SiteRejoin(_)))
    );
}

/// `scenarios/churn.json` is [`churn_scenario`] on [`grid`], spelled as a
/// spec file — so what `replay_referee.rs` proves about the file holds
/// for the stream this suite feeds the daemon.
#[test]
fn churn_scenario_is_the_checked_in_spec() {
    #[derive(serde::Deserialize)]
    struct Spec {
        grid: gridsec_workloads::GridSpec,
        scenario: Scenario,
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/churn.json");
    let spec: Spec = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let file_grid = spec.grid.build().unwrap();
    assert_eq!(
        spec.scenario.compile(&file_grid).unwrap(),
        churn_scenario(grid().len()).compile(&grid()).unwrap()
    );
    assert_eq!(
        file_grid.sites().collect::<Vec<_>>(),
        grid().sites().collect::<Vec<_>>()
    );
}

#[test]
fn chaos_one_shard_mct_daemon_equals_engine() {
    check_chaos_daemon_equals_engine("mct", 1);
}

#[test]
fn chaos_one_shard_minmin_daemon_equals_engine() {
    check_chaos_daemon_equals_engine("minmin", 1);
}

#[test]
fn chaos_one_shard_stga_daemon_equals_engine() {
    check_chaos_daemon_equals_engine("stga", 1);
}

#[test]
fn chaos_two_shard_mct_daemon_equals_engine() {
    check_chaos_daemon_equals_engine("mct", 2);
}

#[test]
fn chaos_two_shard_minmin_daemon_equals_engine() {
    check_chaos_daemon_equals_engine("minmin", 2);
}

#[test]
fn chaos_two_shard_stga_daemon_equals_engine() {
    check_chaos_daemon_equals_engine("stga", 2);
}

/// The mid-round site-loss wire conversation, frame by frame.
#[test]
fn site_loss_mid_round_over_the_wire() {
    // Site 0 is narrow (1 node), site 1 wide (4 nodes): width-4 jobs are
    // eligible only on site 1.
    let grid = Grid::new(vec![
        Site::builder(0)
            .nodes(1)
            .speed(1.0)
            .security_level(0.9)
            .build()
            .unwrap(),
        Site::builder(1)
            .nodes(4)
            .speed(2.0)
            .security_level(0.9)
            .build()
            .unwrap(),
    ])
    .unwrap();
    let config = SimConfig::default()
        .with_interval(Time::new(10.0))
        .with_batch_policy(BatchPolicy::Periodic);
    let plan = ShardPlan::contiguous(&grid, 1).unwrap();
    let daemon = spawn(&grid, &plan, "mct", &config);
    let mut client = Client::connect(daemon.addr()).expect("client connects");

    let job = |id: u64, arrival: f64, width: u32| {
        Job::builder(id)
            .arrival(Time::new(arrival))
            .width(width)
            .work(100.0)
            .security_demand(0.5)
            .build()
            .unwrap()
    };

    // Job 0 schedules at the t = 10 boundary onto site 1 (faster), runs
    // well past t = 20.
    for j in [job(0, 1.0, 1), job(1, 11.0, 1)] {
        match client
            .send(&Request::Submit {
                jobs: vec![j],
                shard: None,
                tenant: None,
            })
            .unwrap()
        {
            Response::Accepted { .. } => {}
            other => panic!("submit rejected: {other:?}"),
        }
    }

    // Site 1 dies mid-execution: the running job is requeued, typed
    // response says so.
    assert_eq!(
        client
            .send(&Request::FailSite {
                site: 1,
                at: Some(Time::new(20.0)),
            })
            .unwrap(),
        Response::SiteFailed {
            site: 1,
            shard: 0,
            requeued: 1,
        }
    );
    // Double-fail is a typed error, connection stays usable.
    assert!(matches!(
        client
            .send(&Request::FailSite { site: 1, at: None })
            .unwrap(),
        Response::Error { .. }
    ));

    // Derived routing refuses a job eligible only on the dead site.
    match client
        .send(&Request::Submit {
            jobs: vec![job(2, 21.0, 4)],
            shard: None,
            tenant: None,
        })
        .unwrap()
    {
        Response::SiteOffline { job: j, sites, .. } => {
            assert_eq!(j.0, 2);
            assert_eq!(sites.len(), 1);
            assert_eq!(sites[0].0, 1);
        }
        other => panic!("expected site_offline, got {other:?}"),
    }
    // A narrow job still routes to the surviving site.
    match client
        .send(&Request::Submit {
            jobs: vec![job(3, 22.0, 1)],
            shard: None,
            tenant: None,
        })
        .unwrap()
    {
        Response::Accepted { .. } => {}
        other => panic!("submit rejected: {other:?}"),
    }

    // Rejoin restores routing; the wide job now goes through.
    assert_eq!(
        client
            .send(&Request::RejoinSite {
                site: 1,
                at: Some(Time::new(30.0)),
            })
            .unwrap(),
        Response::SiteRejoined { site: 1, shard: 0 }
    );
    assert!(matches!(
        client
            .send(&Request::RejoinSite { site: 1, at: None })
            .unwrap(),
        Response::Error { .. }
    ));
    match client
        .send(&Request::Submit {
            jobs: vec![job(2, 31.0, 4)],
            shard: None,
            tenant: None,
        })
        .unwrap()
    {
        Response::Accepted { .. } => {}
        other => panic!("submit rejected: {other:?}"),
    }

    match client.send(&Request::Drain).unwrap() {
        Response::Drained { .. } => {}
        other => panic!("drain failed: {other:?}"),
    }
    let metrics = match client
        .send(&Request::Query {
            what: QueryWhat::Metrics,
            shard: None,
        })
        .unwrap()
    {
        Response::Metrics { metrics } => metrics,
        other => panic!("metrics failed: {other:?}"),
    };
    assert_eq!(metrics.jobs_submitted, 4);
    assert_eq!(metrics.jobs_scheduled, 4);
    assert_eq!(metrics.pending, 0);
    assert_eq!(metrics.sites_failed, 1);
    assert_eq!(metrics.sites_rejoined, 1);
    assert_eq!(metrics.jobs_requeued, 1);

    match client.send(&Request::Shutdown).unwrap() {
        Response::Bye => {}
        other => panic!("shutdown failed: {other:?}"),
    }
    daemon.join();
}

/// A `site_down` that lands on a reshard barrier: the dead site's shard
/// is merged away while its stranded job sits pending. The job must
/// migrate with the shard state, the router-global offline set must
/// survive the plan swap (routing still refuses the site, double-fail
/// is still caught), and a rejoin addressed at the *new* owning shard
/// must restore service. Books balance at every stage.
#[test]
fn site_down_lands_on_a_reshard_barrier_without_losing_jobs() {
    let grid = Grid::new(vec![
        Site::builder(0)
            .nodes(1)
            .speed(1.0)
            .security_level(0.95)
            .build()
            .unwrap(),
        Site::builder(1)
            .nodes(4)
            .speed(1.0)
            .security_level(0.95)
            .build()
            .unwrap(),
    ])
    .unwrap();
    let config = SimConfig::default()
        .with_interval(Time::new(10.0))
        .with_batch_policy(BatchPolicy::Periodic)
        .with_seed(7);
    let plan = ShardPlan::contiguous(&grid, 2).unwrap();
    let daemon = spawn(&grid, &plan, "mct", &config);
    let mut client = Client::connect(daemon.addr()).expect("client connects");

    let job = |id: u64, arrival: f64, width: u32| {
        Job::builder(id)
            .arrival(Time::new(arrival))
            .width(width)
            .work(20.0)
            .security_demand(0.3)
            .build()
            .unwrap()
    };
    // The wide job only fits site 1 (shard 1); the narrow one goes to
    // shard 0 and schedules normally at the first boundary.
    for (shard, j) in [(1usize, job(0, 1.0, 4)), (0, job(1, 2.0, 1))] {
        match client
            .send(&Request::Submit {
                jobs: vec![j],
                shard: Some(shard),
                tenant: None,
            })
            .expect("submit frame")
        {
            Response::Accepted { jobs: 1, .. } => {}
            other => panic!("submit rejected: {other:?}"),
        }
    }
    // Site 1 dies before the first boundary: the wide job is stranded
    // pending (nothing was in flight, so nothing to requeue).
    match client
        .send(&Request::FailSite {
            site: 1,
            at: Some(Time::new(5.0)),
        })
        .expect("fail frame")
    {
        Response::SiteFailed {
            site: 1,
            requeued: 0,
            ..
        } => {}
        other => panic!("fail_site failed: {other:?}"),
    }
    // Merge both shards while the site is down. Both jobs change owner
    // (the merged shard has a new site set), so both count as migrated:
    // the stranded pending job and the already-committed narrow one.
    match client
        .send(&Request::Reshard {
            shards: vec![vec![0, 1]],
        })
        .expect("reshard frame")
    {
        Response::Resharded {
            shards: 1,
            jobs_migrated,
            reshards_completed: 1,
        } => assert_eq!(jobs_migrated, 2, "pending + in-flight jobs migrate"),
        other => panic!("reshard failed: {other:?}"),
    }
    // Mid-flight ledger: one job scheduled at the barrier drain, one
    // still pending behind the dead site — nothing lost in the move.
    match client
        .send(&Request::Query {
            what: QueryWhat::Metrics,
            shard: None,
        })
        .expect("metrics query")
    {
        Response::Metrics { metrics } => {
            assert_eq!(metrics.jobs_submitted, 2);
            assert_eq!(metrics.jobs_scheduled, 1);
            assert_eq!(metrics.pending, 1);
            assert_eq!(metrics.sites_failed, 1, "failure counter survives the swap");
        }
        other => panic!("metrics query failed: {other:?}"),
    }
    // The offline set survived the swap: derived routing to the dead
    // site is refused, and so is a second failure of the same site.
    match client
        .send(&Request::Submit {
            jobs: vec![job(2, 20.0, 4)],
            shard: None,
            tenant: None,
        })
        .expect("submit frame")
    {
        Response::SiteOffline { .. } => {}
        other => panic!("expected site_offline on derived routing: {other:?}"),
    }
    match client
        .send(&Request::FailSite { site: 1, at: None })
        .expect("fail frame")
    {
        Response::Error { message } => assert!(
            message.contains("already offline"),
            "unexpected error: {message}"
        ),
        other => panic!("double-fail not caught: {other:?}"),
    }
    // Rejoin lands on the merged shard that now owns the site.
    match client
        .send(&Request::RejoinSite {
            site: 1,
            at: Some(Time::new(40.0)),
        })
        .expect("rejoin frame")
    {
        Response::SiteRejoined { site: 1, .. } => {}
        other => panic!("rejoin failed: {other:?}"),
    }
    // Service restored: the wide job (and a fresh one) now schedule.
    match client
        .send(&Request::Submit {
            jobs: vec![job(2, 41.0, 4)],
            shard: None,
            tenant: None,
        })
        .expect("submit frame")
    {
        Response::Accepted { jobs: 1, .. } => {}
        other => panic!("post-rejoin submit rejected: {other:?}"),
    }
    match client.send(&Request::Drain).expect("drain frame") {
        Response::Drained { .. } => {}
        other => panic!("drain failed: {other:?}"),
    }
    match client
        .send(&Request::Query {
            what: QueryWhat::Metrics,
            shard: None,
        })
        .expect("metrics query")
    {
        Response::Metrics { metrics } => {
            assert_eq!(metrics.jobs_submitted, 3);
            assert_eq!(
                metrics.jobs_scheduled, 3,
                "the migrated job ran after rejoin"
            );
            assert_eq!(metrics.pending, 0);
            assert_eq!(metrics.sites_failed, 1);
            assert_eq!(metrics.sites_rejoined, 1);
            assert_eq!(metrics.reshards_completed, 1);
            assert_eq!(metrics.jobs_migrated, 2);
        }
        other => panic!("metrics query failed: {other:?}"),
    }
    match client.send(&Request::Shutdown).expect("shutdown frame") {
        Response::Bye => {}
        other => panic!("shutdown failed: {other:?}"),
    }
    daemon.join();
}

/// A full churn scenario replayed across a reshard boundary: the first
/// half of the compiled stream runs on 2 shards, the daemon reshards to
/// 4 mid-stream (with faults and trust churn on both sides of the
/// barrier), and the remainder replays on the new topology. The suffix
/// is re-stamped past the barrier so it stays admissible after the
/// drain advances the shard clocks. Every submitted job must end the
/// run scheduled or pending, the churn counters must add up across the
/// swap, and every post-swap commit must respect the new plan.
#[test]
fn scenario_replay_spanning_a_reshard_boundary_stays_accounted() {
    let grid = grid();
    let stream = churn_scenario(grid.len()).compile(&grid).expect("compiles");
    let config = sim_config();
    let plan1 = ShardPlan::contiguous(&grid, 2).unwrap();
    let plan2 = ShardPlan::contiguous(&grid, 4).unwrap();

    let daemon = spawn(&grid, &plan1, "mct", &config);
    let mut client = Client::connect(daemon.addr()).expect("client connects");

    // Reshard once half the stream (by time) has been replayed. The
    // barrier drain advances shard clocks to the next periodic boundary,
    // so suffix stamps are clamped past the boundary after the last
    // prefix instant (one extra interval of slack).
    let split_at = 200.0;
    let interval = 30.0;
    let max_prefix = stream
        .events
        .iter()
        .map(|inj| inj.at.seconds())
        .filter(|at| *at < split_at)
        .fold(0.0f64, f64::max);
    let barrier = ((max_prefix / interval).floor() + 2.0) * interval;

    let mut submitted = 0usize;
    let mut fails = 0usize;
    let mut rejoins = 0usize;
    let mut resharded = false;
    for inj in &stream.events {
        let past = inj.at.seconds() >= split_at;
        if past && !resharded {
            let new_shards: Vec<Vec<usize>> = (0..plan2.n_shards())
                .map(|k| plan2.sites_of(k).iter().map(|s| s.0).collect())
                .collect();
            match client
                .send(&Request::Reshard { shards: new_shards })
                .expect("reshard frame")
            {
                Response::Resharded {
                    shards: 4,
                    reshards_completed: 1,
                    ..
                } => {}
                other => panic!("reshard failed: {other:?}"),
            }
            resharded = true;
        }
        let plan = if past { &plan2 } else { &plan1 };
        let at = if past {
            Time::new(inj.at.seconds().max(barrier))
        } else {
            inj.at
        };
        match &inj.kind {
            InjectionKind::Arrive(job) => {
                let eligible = plan.eligible_shards(&grid, job);
                if eligible.is_empty() {
                    continue;
                }
                let shard = eligible[job.id.0 as usize % eligible.len()];
                let mut job = job.clone();
                job.arrival = Time::new(job.arrival.seconds().max(at.seconds()));
                match client
                    .send(&Request::Submit {
                        jobs: vec![job],
                        shard: Some(shard),
                        tenant: None,
                    })
                    .expect("submit frame")
                {
                    Response::Accepted { jobs: 1, .. } => submitted += 1,
                    other => panic!("submit rejected: {other:?}"),
                }
            }
            InjectionKind::SiteFail(site) => {
                match client
                    .send(&Request::FailSite {
                        site: site.0,
                        at: Some(at),
                    })
                    .expect("fail frame")
                {
                    Response::SiteFailed { site: s, .. } => {
                        assert_eq!(s, site.0);
                        fails += 1;
                    }
                    other => panic!("fail_site rejected: {other:?}"),
                }
            }
            InjectionKind::SiteRejoin(site) => {
                match client
                    .send(&Request::RejoinSite {
                        site: site.0,
                        at: Some(at),
                    })
                    .expect("rejoin frame")
                {
                    Response::SiteRejoined { site: s, .. } => {
                        assert_eq!(s, site.0);
                        rejoins += 1;
                    }
                    other => panic!("rejoin_site rejected: {other:?}"),
                }
            }
            InjectionKind::SetTrust(levels) => {
                match client
                    .send(&Request::Reconfigure {
                        security_levels: levels.clone(),
                        shard: None,
                        at: Some(at),
                    })
                    .expect("reconfigure frame")
                {
                    Response::Reconfigured { .. } => {}
                    other => panic!("reconfigure rejected: {other:?}"),
                }
            }
        }
    }
    assert!(resharded, "the scenario must span the reshard boundary");
    match client.send(&Request::Drain).expect("drain frame") {
        Response::Drained { .. } => {}
        other => panic!("drain failed: {other:?}"),
    }
    // Post-swap commits must respect the new topology: every site a new
    // shard reports is one the shard owns under plan2.
    for k in 0..plan2.n_shards() {
        match client
            .send(&Request::Query {
                what: QueryWhat::Schedule,
                shard: Some(k),
            })
            .expect("per-shard query")
        {
            Response::Schedule { assignments } => {
                for p in &assignments {
                    assert_eq!(
                        plan2.shard_of(p.site),
                        Some(k),
                        "job {} committed to site {} outside shard {k}",
                        p.job,
                        p.site
                    );
                }
            }
            other => panic!("per-shard query failed: {other:?}"),
        }
    }
    match client
        .send(&Request::Query {
            what: QueryWhat::Metrics,
            shard: None,
        })
        .expect("metrics query")
    {
        Response::Metrics { metrics } => {
            assert_eq!(metrics.jobs_submitted, submitted);
            assert_eq!(
                metrics.jobs_scheduled + metrics.pending,
                submitted,
                "every job submitted across the boundary is scheduled or pending"
            );
            assert_eq!(metrics.sites_failed, fails);
            assert_eq!(metrics.sites_rejoined, rejoins);
            assert_eq!(metrics.reshards_completed, 1);
            assert!(
                submitted > 0 && fails > 0,
                "the scenario must exercise churn"
            );
        }
        other => panic!("metrics query failed: {other:?}"),
    }
    match client.send(&Request::Shutdown).expect("shutdown frame") {
        Response::Bye => {}
        other => panic!("shutdown failed: {other:?}"),
    }
    daemon.join();
}

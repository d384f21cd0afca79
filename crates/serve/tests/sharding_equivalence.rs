//! The sharding-equivalence suite: sharded serving is *provably* just N
//! independent daemons glued behind one socket.
//!
//! Two claims, each pinned bit for bit over real TCP for
//! MCT / Min-Min / Sufferage / STGA under all three batch policies (CI
//! re-runs the suite under `RAYON_NUM_THREADS=1` and `=4`):
//!
//! 1. **One shard is the PR 4 daemon.** A `--shards 1` daemon commits
//!    exactly the schedule of the pre-sharding single-session daemon,
//!    which in turn is exactly the discrete-event engine's realised
//!    timeline (the golden cross-check regime: SL = 1.0, failure-free).
//! 2. **N shards are N solo daemons.** An N-shard virtual-clock run,
//!    with jobs explicitly routed to shards, commits per shard exactly
//!    what an independent single-shard daemon serving just that subgrid
//!    commits for the same job stream — and the aggregated metrics are
//!    the per-shard sums.
//!
//! Together these close the loop: engine ≡ 1-shard daemon, and sharding
//! never changes any shard's schedule, so every shard of a production
//! N-shard deployment still serves engine-exact schedules.

use gridsec_core::RiskMode;
use gridsec_core::{Grid, Job, Site, Time};
use gridsec_heuristics::{MinMin, Sufferage};
use gridsec_serve::{
    stateless_factory, Client, Daemon, DaemonOptions, Placed, QueryWhat, Request, Response,
    ServeMetrics,
};
use gridsec_sim::scheduler::EarliestCompletion;
use gridsec_sim::{simulate, BatchPolicy, BatchScheduler, ShardPlan, SimConfig};
use gridsec_stga::{GaParams, Stga, StgaParams};
use gridsec_workloads::PsaConfig;

/// The PSA workload on a fully trusted grid (SL = 1.0 everywhere): the
/// schedulers still see realistic speeds/widths/arrivals, but no job can
/// fail, which is the regime where daemon == engine holds exactly.
fn workload(n: usize, seed: u64) -> (Vec<Job>, Grid) {
    let w = PsaConfig::default()
        .with_n_jobs(n)
        .with_seed(seed)
        .generate()
        .expect("valid PSA defaults");
    let sites: Vec<Site> = w
        .grid
        .sites()
        .map(|s| {
            let mut s = s.clone();
            s.security_level = 1.0;
            s
        })
        .collect();
    (w.jobs, Grid::new(sites).expect("grid stays valid"))
}

fn sim_config(policy: BatchPolicy) -> SimConfig {
    SimConfig::default()
        .with_interval(Time::new(1_000.0))
        .with_batch_policy(policy)
        .with_seed(77)
}

/// The four schedulers of the paper's comparison, built fresh per run so
/// every side of an equivalence carries identical internal state.
fn build_scheduler(name: &str, seed: u64) -> Box<dyn BatchScheduler + Send> {
    match name {
        "mct" => Box::new(EarliestCompletion),
        "minmin" => Box::new(MinMin::new(RiskMode::Risky)),
        "sufferage" => Box::new(Sufferage::new(RiskMode::Secure)),
        "stga" => Box::new(
            Stga::new(StgaParams {
                ga: GaParams::default()
                    .with_population(24)
                    .with_generations(12)
                    .with_seed(seed),
                ..StgaParams::default()
            })
            .expect("valid STGA params"),
        ),
        other => panic!("unknown scheduler {other}"),
    }
}

/// A daemon serving `grid` under `plan`, every shard running a fresh
/// [`build_scheduler`]`(scheduler, 9)`.
fn spawn(grid: &Grid, plan: &ShardPlan, scheduler: &str, config: &SimConfig) -> Daemon {
    let scheduler = scheduler.to_string();
    let factory = stateless_factory(config.clone(), move |_| Ok(build_scheduler(&scheduler, 9)));
    let options = DaemonOptions::default();
    Daemon::spawn(grid.clone(), plan.clone(), factory, "127.0.0.1:0", options)
        .expect("daemon binds")
}

const POLICIES: [BatchPolicy; 3] = [
    BatchPolicy::Periodic,
    BatchPolicy::CountTriggered(8),
    BatchPolicy::Hybrid(6),
];

/// Replays `jobs` through a daemon (each job tagged with an explicit
/// shard, or untagged when `shards` is `None`), drains, and returns the
/// aggregated schedule, the per-shard schedules, and the per-shard +
/// aggregated metrics.
fn replay(
    daemon: &Daemon,
    jobs: &[(Option<usize>, Job)],
    n_shards: usize,
) -> (Vec<Placed>, Vec<Vec<Placed>>, Vec<Response>, Response) {
    let mut client = Client::connect(daemon.addr()).expect("client connects");
    for (shard, job) in jobs {
        match client
            .send(&Request::Submit {
                jobs: vec![job.clone()],
                shard: *shard,
                tenant: None,
            })
            .expect("submit frame")
        {
            Response::Accepted { jobs: 1, .. } => {}
            other => panic!("submit rejected: {other:?}"),
        }
    }
    match client.send(&Request::Drain).expect("drain frame") {
        Response::Drained { .. } => {}
        other => panic!("drain failed: {other:?}"),
    }
    let aggregated = match client
        .send(&Request::Query {
            what: QueryWhat::Schedule,
            shard: None,
        })
        .expect("query frame")
    {
        Response::Schedule { assignments } => assignments,
        other => panic!("query failed: {other:?}"),
    };
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
    let mut shard_metrics = Vec::new();
    for k in 0..n_shards {
        shard_metrics.push(
            client
                .send(&Request::Query {
                    what: QueryWhat::Metrics,
                    shard: Some(k),
                })
                .expect("per-shard metrics"),
        );
    }
    let agg_metrics = client
        .send(&Request::Query {
            what: QueryWhat::Metrics,
            shard: None,
        })
        .expect("aggregated metrics");
    match client.send(&Request::Shutdown).expect("shutdown frame") {
        Response::Bye => {}
        other => panic!("shutdown failed: {other:?}"),
    }
    (aggregated, per_shard, shard_metrics, agg_metrics)
}

// ---------------------------------------------------------------------
// Claim 1: a 1-shard daemon ≡ the single-session daemon ≡ the engine.
// ---------------------------------------------------------------------

fn check_one_shard_is_the_engine(scheduler: &str) {
    for (i, policy) in POLICIES.into_iter().enumerate() {
        let n_jobs = if scheduler == "stga" { 48 } else { 60 };
        let (jobs, grid) = workload(n_jobs, 50 + i as u64);
        let config = sim_config(policy).with_timeline();

        // The reference: the in-process discrete-event engine.
        let mut engine_sched = build_scheduler(scheduler, 9);
        let engine_out =
            simulate(&jobs, &grid, engine_sched.as_mut(), &config).expect("engine run drains");
        let timeline = engine_out.timeline.as_ref().expect("timeline recorded");
        assert!(timeline.spans().iter().all(|s| !s.failed));

        // Side A: untagged submits — the daemon derives the shard.
        let plan = ShardPlan::contiguous(&grid, 1).unwrap();
        let daemon_a = spawn(&grid, &plan, scheduler, &config);
        let untagged: Vec<(Option<usize>, Job)> = jobs.iter().map(|j| (None, j.clone())).collect();
        let (schedule_a, per_shard_a, _, _) = replay(&daemon_a, &untagged, 1);

        // Side B: every submit names shard 0 explicitly.
        let daemon_b = spawn(&grid, &plan, scheduler, &config);
        let tagged: Vec<(Option<usize>, Job)> = jobs.iter().map(|j| (Some(0), j.clone())).collect();
        let (schedule_b, _, _, _) = replay(&daemon_b, &tagged, 1);

        // Engine ≡ daemon A ≡ daemon B, dispatch for dispatch.
        assert_eq!(
            schedule_a.len(),
            timeline.len(),
            "{scheduler}/{policy:?}: daemon committed {} assignments, engine dispatched {}",
            schedule_a.len(),
            timeline.len()
        );
        for (d, (p, s)) in schedule_a.iter().zip(timeline.spans().iter()).enumerate() {
            assert_eq!(p.job, s.job, "{scheduler}/{policy:?} dispatch {d}: job");
            assert_eq!(p.site, s.site, "{scheduler}/{policy:?} dispatch {d}: site");
            assert_eq!(
                p.width, s.width,
                "{scheduler}/{policy:?} dispatch {d}: width"
            );
            assert_eq!(
                p.start, s.start,
                "{scheduler}/{policy:?} dispatch {d}: start"
            );
            assert_eq!(p.end, s.end, "{scheduler}/{policy:?} dispatch {d}: end");
        }
        assert_eq!(
            schedule_a, schedule_b,
            "{scheduler}/{policy:?}: 1-shard daemon diverged from the single-session daemon"
        );
        // The aggregated view of one shard is that shard's view.
        assert_eq!(per_shard_a.len(), 1);
        assert_eq!(per_shard_a[0], schedule_a);

        daemon_a.join();
        daemon_b.join();
    }
}

#[test]
fn one_shard_mct_is_bit_identical_to_the_engine() {
    check_one_shard_is_the_engine("mct");
}

#[test]
fn one_shard_minmin_is_bit_identical_to_the_engine() {
    check_one_shard_is_the_engine("minmin");
}

#[test]
fn one_shard_sufferage_is_bit_identical_to_the_engine() {
    check_one_shard_is_the_engine("sufferage");
}

#[test]
fn one_shard_stga_is_bit_identical_to_the_engine() {
    check_one_shard_is_the_engine("stga");
}

// ---------------------------------------------------------------------
// Claim 2: an N-shard run ≡ N independent single-shard runs.
// ---------------------------------------------------------------------

/// Deterministically assigns each job to one of the shards it is
/// eligible on (by id, round-robin over the candidates).
fn assign_shards(jobs: &[Job], grid: &Grid, plan: &ShardPlan) -> Vec<(Option<usize>, Job)> {
    jobs.iter()
        .map(|j| {
            let eligible = plan.eligible_shards(grid, j);
            assert!(!eligible.is_empty(), "job {} fits nowhere", j.id);
            let shard = eligible[j.id.0 as usize % eligible.len()];
            (Some(shard), j.clone())
        })
        .collect()
}

fn check_n_shards_equal_n_solo_runs(scheduler: &str, n_shards: usize) {
    for (i, policy) in POLICIES.into_iter().enumerate() {
        let n_jobs = if scheduler == "stga" { 48 } else { 60 };
        let (jobs, grid) = workload(n_jobs, 60 + i as u64);
        let config = sim_config(policy);
        let plan = ShardPlan::contiguous(&grid, n_shards).unwrap();
        let tagged = assign_shards(&jobs, &grid, &plan);

        // The N-shard run: one daemon, jobs explicitly routed.
        let daemon = spawn(&grid, &plan, scheduler, &config);
        let (aggregated, per_shard, shard_metrics, agg_metrics) =
            replay(&daemon, &tagged, n_shards);
        daemon.join();

        // The N solo runs: an independent single-shard daemon per
        // subgrid, fed exactly the jobs routed to that shard.
        for (k, shard_schedule) in per_shard.iter().enumerate() {
            let sub = plan.subgrid(&grid, k).unwrap();
            let solo_jobs: Vec<(Option<usize>, Job)> = tagged
                .iter()
                .filter(|(s, _)| *s == Some(k))
                .map(|(_, j)| (None, j.clone()))
                .collect();
            let solo_plan = ShardPlan::contiguous(&sub, 1).unwrap();
            let solo = spawn(&sub, &solo_plan, scheduler, &config);
            let (solo_schedule, _, _, _) = replay(&solo, &solo_jobs, 1);
            solo.join();

            // The solo daemon reports subgrid-local site ids; translate
            // to global for the comparison.
            let translated: Vec<Placed> = solo_schedule
                .iter()
                .map(|p| Placed {
                    site: plan.to_global(k, p.site),
                    ..*p
                })
                .collect();
            assert_eq!(
                *shard_schedule, translated,
                "{scheduler}/{policy:?}: shard {k} of the {n_shards}-shard run diverged from \
                 its solo replay"
            );
        }

        // The aggregated schedule is the shard-order concatenation.
        let concat: Vec<Placed> = per_shard.iter().flatten().copied().collect();
        assert_eq!(aggregated, concat, "{scheduler}/{policy:?}: aggregation");
        assert_eq!(aggregated.len(), jobs.len());

        // Aggregated metrics are the per-shard sums (counters) / maxima
        // (clocks).
        let per: Vec<_> = shard_metrics
            .iter()
            .map(|r| match r {
                Response::Metrics { metrics } => metrics.clone(),
                other => panic!("metrics query failed: {other:?}"),
            })
            .collect();
        let Response::Metrics { metrics: agg } = agg_metrics else {
            panic!("aggregated metrics query failed");
        };
        // Every field, as the wire delivered it: the whole view is the
        // merge of the scoped ones (no reshard, so no archive to fold in).
        assert_eq!(agg, ServeMetrics::merge(&per), "{scheduler}/{policy:?}");
        assert_eq!(
            agg.jobs_submitted,
            per.iter().map(|m| m.jobs_submitted).sum::<usize>()
        );
        assert_eq!(
            agg.jobs_scheduled,
            per.iter().map(|m| m.jobs_scheduled).sum::<usize>()
        );
        assert_eq!(agg.rounds, per.iter().map(|m| m.rounds).sum::<usize>());
        assert_eq!(agg.pending, 0);
        assert_eq!(agg.jobs_submitted, jobs.len());
        assert_eq!(
            agg.max_completion,
            per.iter()
                .map(|m| m.max_completion)
                .fold(Time::ZERO, Time::max)
        );
    }
}

#[test]
fn two_shard_mct_equals_two_solo_runs() {
    check_n_shards_equal_n_solo_runs("mct", 2);
}

#[test]
fn two_shard_minmin_equals_two_solo_runs() {
    check_n_shards_equal_n_solo_runs("minmin", 2);
}

#[test]
fn two_shard_sufferage_equals_two_solo_runs() {
    check_n_shards_equal_n_solo_runs("sufferage", 2);
}

#[test]
fn two_shard_stga_equals_two_solo_runs() {
    check_n_shards_equal_n_solo_runs("stga", 2);
}

#[test]
fn four_shard_minmin_equals_four_solo_runs() {
    check_n_shards_equal_n_solo_runs("minmin", 4);
}

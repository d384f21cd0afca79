//! The serving-layer golden cross-check: replaying a workload through the
//! `gridsec-serve` daemon (over real TCP, NDJSON frames) must commit a
//! **bit-identical** schedule to the in-process discrete-event engine for
//! the same seed, workload and batch policy.
//!
//! The equivalence regime is failure-free execution: every site carries
//! SL = 1.0, so no dispatch can fail and the engine's realised timeline
//! (start/end of every attempt) is exactly the daemon's committed
//! schedule. Batching, boundary timing, scheduler state carried across
//! rounds (STGA history, GA pool) and dispatch order all have to agree
//! for the comparison to pass — it pins the whole serving path, not just
//! one round.

use gridsec_core::RiskMode;
use gridsec_core::{Grid, Job, Site, Time};
use gridsec_heuristics::{MinMin, Sufferage};
use gridsec_serve::{Client, Daemon, DaemonOptions, QueryWhat, Request, Response, SessionFactory};
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

/// Runs the engine and the daemon on the same inputs and asserts the
/// committed schedules match bit for bit.
fn cross_check(
    jobs: &[Job],
    grid: &Grid,
    policy: BatchPolicy,
    mut engine_sched: Box<dyn BatchScheduler>,
    serve_sched: Box<dyn BatchScheduler + Send>,
) {
    let config = sim_config(policy).with_timeline();
    let engine_out =
        simulate(jobs, grid, engine_sched.as_mut(), &config).expect("engine run drains");
    let timeline = engine_out.timeline.as_ref().expect("timeline recorded");
    assert!(
        timeline.spans().iter().all(|s| !s.failed),
        "SL = 1.0 grid must be failure-free"
    );

    // One shard, never resharded: the factory hands over the one
    // scheduler it was given.
    let mut serve_sched = Some(serve_sched);
    let factory: SessionFactory =
        Box::new(move |_| serve_sched.take().ok_or("one scheduler, one shard".into()));
    let plan = ShardPlan::contiguous(grid, 1).expect("one shard fits any grid");
    let daemon = Daemon::spawn(
        grid.clone(),
        plan,
        config.clone(),
        factory,
        "127.0.0.1:0",
        DaemonOptions::default(),
    )
    .expect("daemon binds");
    let mut client = Client::connect(daemon.addr()).expect("client connects");
    // Replay in workload order (arrivals are non-decreasing), a few jobs
    // per frame to exercise multi-job submits.
    for chunk in jobs.chunks(7) {
        match client
            .send(&Request::Submit {
                jobs: chunk.to_vec(),
                shard: None,
                tenant: None,
            })
            .expect("submit frame")
        {
            Response::Accepted { jobs: n, .. } => assert_eq!(n, chunk.len()),
            other => panic!("submit rejected: {other:?}"),
        }
    }
    match client.send(&Request::Drain).expect("drain frame") {
        Response::Drained { jobs_scheduled, .. } => assert_eq!(jobs_scheduled, jobs.len()),
        other => panic!("drain failed: {other:?}"),
    }
    let assignments = match client
        .send(&Request::Query {
            what: QueryWhat::Schedule,
            shard: None,
        })
        .expect("query frame")
    {
        Response::Schedule { assignments } => assignments,
        other => panic!("query failed: {other:?}"),
    };
    let metrics = match client
        .send(&Request::Query {
            what: QueryWhat::Metrics,
            shard: None,
        })
        .expect("metrics frame")
    {
        Response::Metrics { metrics } => metrics,
        other => panic!("metrics failed: {other:?}"),
    };
    client.send(&Request::Shutdown).expect("shutdown frame");
    daemon.join();

    // The served schedule is the engine's realised timeline, bit for bit:
    // same dispatch order, same sites, same start/end instants.
    assert_eq!(
        assignments.len(),
        timeline.len(),
        "daemon committed {} assignments, engine dispatched {}",
        assignments.len(),
        timeline.len()
    );
    for (i, (p, s)) in assignments.iter().zip(timeline.spans().iter()).enumerate() {
        assert_eq!(p.job, s.job, "dispatch {i}: job mismatch");
        assert_eq!(p.site, s.site, "dispatch {i}: site mismatch");
        assert_eq!(p.width, s.width, "dispatch {i}: width mismatch");
        assert_eq!(p.start, s.start, "dispatch {i}: start mismatch");
        assert_eq!(p.end, s.end, "dispatch {i}: end mismatch");
    }
    // Round accounting agrees too.
    assert_eq!(metrics.rounds, engine_out.n_batches);
    assert_eq!(metrics.jobs_scheduled, jobs.len());
    assert_eq!(
        metrics.max_completion.seconds(),
        engine_out.metrics.makespan.seconds()
    );
}

fn small_stga(seed: u64) -> Stga {
    Stga::new(StgaParams {
        ga: GaParams::default()
            .with_population(24)
            .with_generations(12)
            .with_seed(seed),
        ..StgaParams::default()
    })
    .expect("valid STGA params")
}

#[test]
fn mct_periodic_schedule_is_bit_identical() {
    let (jobs, grid) = workload(60, 41);
    cross_check(
        &jobs,
        &grid,
        BatchPolicy::Periodic,
        Box::new(EarliestCompletion),
        Box::new(EarliestCompletion),
    );
}

#[test]
fn minmin_count_triggered_schedule_is_bit_identical() {
    let (jobs, grid) = workload(60, 42);
    cross_check(
        &jobs,
        &grid,
        BatchPolicy::CountTriggered(8),
        Box::new(MinMin::new(RiskMode::Risky)),
        Box::new(MinMin::new(RiskMode::Risky)),
    );
}

#[test]
fn sufferage_hybrid_schedule_is_bit_identical() {
    let (jobs, grid) = workload(60, 43);
    cross_check(
        &jobs,
        &grid,
        BatchPolicy::Hybrid(6),
        Box::new(Sufferage::new(RiskMode::Secure)),
        Box::new(Sufferage::new(RiskMode::Secure)),
    );
}

#[test]
fn stga_periodic_schedule_is_bit_identical() {
    // The STGA carries history and its GA pool across rounds on both
    // sides; identical seeds must yield identical cross-round evolution.
    let (jobs, grid) = workload(48, 44);
    cross_check(
        &jobs,
        &grid,
        BatchPolicy::Periodic,
        Box::new(small_stga(9)),
        Box::new(small_stga(9)),
    );
}

#[test]
fn stga_hybrid_schedule_is_bit_identical() {
    let (jobs, grid) = workload(48, 45);
    cross_check(
        &jobs,
        &grid,
        BatchPolicy::Hybrid(6),
        Box::new(small_stga(10)),
        Box::new(small_stga(10)),
    );
}

//! The resharding-equivalence suite: live resharding is *provably* a
//! drain barrier plus a pure state transfer — nothing else.
//!
//! The claim, pinned bit for bit over real TCP for MCT / Min-Min / STGA
//! at 1→2, 2→1 and 2→4 shard transitions (CI re-runs the suite under
//! `RAYON_NUM_THREADS=1` and `=4`):
//!
//! **Run A** starts a daemon on the old plan, submits a prefix of the
//! stream, sends a `reshard` frame to the new plan mid-stream and submits
//! the suffix. **Run B** replays the prefix through in-process sessions on
//! the old plan (engine-exact by the sharding-equivalence suite), exports
//! their state, pushes it through the same pure
//! [`transfer`](gridsec_serve::transfer) the daemon used, and boots a
//! daemon directly on the new plan whose factory — the *same* factory,
//! wrapped — starts each shard from its transferred seed instead of the
//! fresh one boot hands it, then serves the suffix.
//! Per new shard, the post-barrier schedules are bit-identical — the
//! live daemon's barrier, state export and router swap add nothing and
//! lose nothing (zero jobs lost is asserted against the cumulative
//! metrics).

use gridsec_core::RiskMode;
use gridsec_core::{Grid, Job, JobId, Site, SiteId, Time};
use gridsec_heuristics::MinMin;
use gridsec_serve::{
    transfer, Client, Daemon, DaemonOptions, OnlineSession, Placed, QueryWhat, Request, Response,
    ServeMetrics, SessionFactory, SessionState, ShardBuildContext, ShardSeed, ShardSpec,
    ShardStateExport,
};
use gridsec_sim::scheduler::EarliestCompletion;
use gridsec_sim::{BatchScheduler, ShardPlan, SimConfig};
use gridsec_stga::{GaParams, SharedHistory, Stga, StgaParams};
use gridsec_workloads::PsaConfig;

const GA_SEED: u64 = 9;
const INTERVAL: f64 = 1_000.0;

/// The PSA workload on a fully trusted grid (SL = 1.0 everywhere), the
/// failure-free regime where daemon == engine holds exactly.
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

fn sim_config() -> SimConfig {
    SimConfig::default()
        .with_interval(Time::new(INTERVAL))
        .with_seed(77)
}

/// Builds one scheduler; STGA gets the given shared history handle so
/// the caller can snapshot / restore its table across the reshard.
fn build_scheduler(name: &str, history: Option<SharedHistory>) -> Box<dyn BatchScheduler + Send> {
    let params = StgaParams {
        ga: GaParams::default()
            .with_population(24)
            .with_generations(12)
            .with_seed(GA_SEED),
        ..StgaParams::default()
    };
    match name {
        "mct" => Box::new(EarliestCompletion),
        "minmin" => Box::new(MinMin::new(RiskMode::Risky)),
        "stga" => {
            let history = history.unwrap_or_else(|| SharedHistory::new(params.table_capacity));
            Box::new(Stga::with_history(params, history))
        }
        other => panic!("unknown scheduler {other}"),
    }
}

/// The session factory both runs share: merge inherited histories (STGA),
/// build a fresh scheduler with the same GA seed, restore the seed state.
/// Identical construction on both sides is what makes the equivalence a
/// statement about the *daemon machinery*, not about factory luck.
fn factory(name: &'static str, config: SimConfig) -> SessionFactory {
    Box::new(move |ctx| {
        let history = if name == "stga" {
            let capacity = StgaParams::default().table_capacity;
            let table = SharedHistory::from_snapshots(&ctx.history_sources, capacity);
            Some(table.map_err(|e| e.to_string())?)
        } else {
            None
        };
        let session = OnlineSession::restore(
            ctx.subgrid,
            build_scheduler(name, history.clone()),
            &config,
            ctx.seed,
        )
        .map_err(|e| e.to_string())?;
        let mut spec = ShardSpec::new(session);
        if let Some(h) = history {
            spec.history = Some(Box::new(move || h.to_json()));
        }
        Ok(spec)
    })
}

/// Deterministically assigns each job to one of the shards it is
/// eligible on (by id, round-robin over the candidates).
fn assign_shards(jobs: &[Job], grid: &Grid, plan: &ShardPlan) -> Vec<(usize, Job)> {
    jobs.iter()
        .map(|j| {
            let eligible = plan.eligible_shards(grid, j);
            assert!(!eligible.is_empty(), "job {} fits nowhere", j.id);
            (eligible[j.id.0 as usize % eligible.len()], j.clone())
        })
        .collect()
}

/// Splits the stream and re-stamps the suffix past every instant the
/// drain barrier can advance a shard clock to (the next periodic
/// boundary after the last prefix arrival), so the suffix is admissible
/// on both sides no matter which old-shard clocks merged.
fn split_stream(jobs: &[Job]) -> (Vec<Job>, Vec<Job>) {
    let mid = jobs.len() / 2;
    let prefix = jobs[..mid].to_vec();
    let max_arrival = prefix
        .iter()
        .map(|j| j.arrival)
        .fold(Time::ZERO, Time::max)
        .seconds();
    let base = (max_arrival / INTERVAL).floor() * INTERVAL + 2.0 * INTERVAL;
    let suffix = jobs[mid..]
        .iter()
        .enumerate()
        .map(|(i, j)| {
            let mut j = j.clone();
            j.arrival = Time::new(base + i as f64);
            j
        })
        .collect();
    (prefix, suffix)
}

fn submit_all(client: &mut Client, tagged: &[(usize, Job)]) {
    for (shard, job) in tagged {
        match client
            .send(&Request::Submit {
                jobs: vec![job.clone()],
                shard: Some(*shard),
                tenant: None,
            })
            .expect("submit frame")
        {
            Response::Accepted { jobs: 1, .. } => {}
            other => panic!("submit rejected: {other:?}"),
        }
    }
}

fn query_shard_schedule(client: &mut Client, shard: usize) -> Vec<Placed> {
    match client
        .send(&Request::Query {
            what: QueryWhat::Schedule,
            shard: Some(shard),
        })
        .expect("per-shard query")
    {
        Response::Schedule { assignments } => assignments,
        other => panic!("per-shard query failed: {other:?}"),
    }
}

fn query_metrics(client: &mut Client) -> ServeMetrics {
    match client
        .send(&Request::Query {
            what: QueryWhat::Metrics,
            shard: None,
        })
        .expect("metrics query")
    {
        Response::Metrics { metrics } => metrics,
        other => panic!("metrics query failed: {other:?}"),
    }
}

/// Run A: the live daemon, resharded mid-stream over TCP.
/// Returns the per-new-shard post-barrier schedules (global site ids)
/// and the final cumulative metrics.
fn run_live(
    name: &'static str,
    grid: &Grid,
    plan1: &ShardPlan,
    plan2: &ShardPlan,
    prefix: &[(usize, Job)],
    suffix: &[(usize, Job)],
) -> (Vec<Vec<Placed>>, ServeMetrics, usize) {
    let daemon = Daemon::spawn(
        grid.clone(),
        plan1.clone(),
        factory(name, sim_config()),
        "127.0.0.1:0",
        DaemonOptions::default(),
    )
    .expect("daemon binds");
    let mut client = Client::connect(daemon.addr()).expect("client connects");

    submit_all(&mut client, prefix);
    let target: Vec<Vec<usize>> = (0..plan2.n_shards())
        .map(|k| plan2.sites_of(k).iter().map(|s| s.0).collect())
        .collect();
    let migrated = match client
        .send(&Request::Reshard { shards: target })
        .expect("reshard frame")
    {
        Response::Resharded {
            shards,
            jobs_migrated,
            reshards_completed,
        } => {
            assert_eq!(shards, plan2.n_shards());
            assert_eq!(reshards_completed, 1);
            jobs_migrated
        }
        other => panic!("reshard rejected: {other:?}"),
    };
    submit_all(&mut client, suffix);
    match client.send(&Request::Drain).expect("drain frame") {
        Response::Drained { .. } => {}
        other => panic!("drain failed: {other:?}"),
    }
    let per_shard: Vec<Vec<Placed>> = (0..plan2.n_shards())
        .map(|k| query_shard_schedule(&mut client, k))
        .collect();
    let metrics = query_metrics(&mut client);
    match client.send(&Request::Shutdown).expect("shutdown frame") {
        Response::Bye => {}
        other => panic!("shutdown failed: {other:?}"),
    }
    daemon.join();
    (per_shard, metrics, migrated)
}

/// Run B: the in-process replica — old-plan solo sessions for the
/// prefix, the same pure transfer, and a daemon booted on the new plan
/// from the transferred seeds for the suffix. Every session on this side
/// comes out of the factory run A uses.
fn run_replica(
    name: &'static str,
    grid: &Grid,
    plan1: &ShardPlan,
    plan2: &ShardPlan,
    prefix: &[(usize, Job)],
    suffix: &[(usize, Job)],
) -> Vec<Vec<Placed>> {
    let mut fac = factory(name, sim_config());
    // Prefix on the old plan, in-process: what the live daemon's boot
    // builds, without the daemon.
    let mut exports: Vec<ShardStateExport> = Vec::new();
    for k in 0..plan1.n_shards() {
        let sub = plan1.subgrid(grid, k).unwrap();
        let ShardSpec {
            mut session,
            history,
        } = fac(ShardBuildContext {
            shard: k,
            seed: SessionState::fresh(&sub),
            subgrid: sub,
            history_sources: Vec::new(),
        })
        .expect("factory builds");
        for (shard, job) in prefix {
            if *shard == k {
                session.submit(job.clone()).expect("prefix job admissible");
            }
        }
        session.drain().expect("solo drain");
        let st = session.export_state();
        let globals = plan1.sites_of(k);
        exports.push(ShardStateExport {
            shard: k,
            clock: st.clock,
            sites: st
                .sites
                .iter()
                .enumerate()
                .map(|(i, (free, off))| (globals[i], free.clone(), *off))
                .collect(),
            pending: st.pending,
            inflight: st
                .inflight
                .into_iter()
                .map(|(job, site, end)| (job, globals[site.0], end))
                .collect(),
            live: st.live,
            known: st.known,
            tenants: st.tenants,
            history_json: history.map(|snapshot| snapshot()),
            metrics: ServeMetrics::merge(&[]),
            schedule: Vec::new(),
        });
    }
    // The same pure transfer the daemon ran.
    let moved = transfer(grid, plan1, &exports, plan2).expect("transfer");
    // Booted directly on the final topology from the transferred state:
    // boot offers every shard a fresh seed, and the first build of each
    // shard starts from its transferred one instead.
    let mut seeds: Vec<Option<ShardSeed>> = moved.seeds.into_iter().map(Some).collect();
    let seeded: SessionFactory = Box::new(move |mut ctx| {
        if let Some(seed) = seeds[ctx.shard].take() {
            ctx.seed = seed.state;
            ctx.history_sources = seed.history_sources;
        }
        fac(ctx)
    });
    let daemon = Daemon::spawn(
        grid.clone(),
        plan2.clone(),
        seeded,
        "127.0.0.1:0",
        DaemonOptions::default(),
    )
    .expect("replica daemon binds");
    let mut client = Client::connect(daemon.addr()).expect("client connects");
    submit_all(&mut client, suffix);
    match client.send(&Request::Drain).expect("drain frame") {
        Response::Drained { .. } => {}
        other => panic!("drain failed: {other:?}"),
    }
    let per_shard: Vec<Vec<Placed>> = (0..plan2.n_shards())
        .map(|k| query_shard_schedule(&mut client, k))
        .collect();
    match client.send(&Request::Shutdown).expect("shutdown frame") {
        Response::Bye => {}
        other => panic!("shutdown failed: {other:?}"),
    }
    daemon.join();
    per_shard
}

fn check_reshard_equivalence(name: &'static str, from: usize, to: usize) {
    let n_jobs = if name == "stga" { 40 } else { 60 };
    let (jobs, grid) = workload(n_jobs, 40 + from as u64 * 10 + to as u64);
    let plan1 = ShardPlan::contiguous(&grid, from).unwrap();
    let plan2 = ShardPlan::contiguous(&grid, to).unwrap();
    let (prefix, suffix) = split_stream(&jobs);
    let prefix = assign_shards(&prefix, &grid, &plan1);
    let suffix = assign_shards(&suffix, &grid, &plan2);

    let (live, metrics, _migrated) = run_live(name, &grid, &plan1, &plan2, &prefix, &suffix);
    let replica = run_replica(name, &grid, &plan1, &plan2, &prefix, &suffix);

    // The headline assert: per new shard, the post-barrier schedule of
    // the live resharded daemon is bit-identical to the replica started
    // on the final topology from the transferred state.
    assert_eq!(replica.len(), live.len());
    for (k, (a, b)) in live.iter().zip(replica.iter()).enumerate() {
        assert_eq!(
            a, b,
            "{name} {from}→{to}: shard {k} post-reshard schedule diverged"
        );
    }

    // Zero jobs lost across the migration: every submission is accounted
    // for in the cumulative metrics, nothing is left pending, and the
    // suffix commits cover exactly the suffix job ids.
    assert_eq!(metrics.jobs_submitted, jobs.len());
    assert_eq!(metrics.jobs_scheduled, jobs.len());
    assert_eq!(metrics.pending, 0);
    assert_eq!(metrics.reshards_completed, 1);
    let mut suffix_ids: Vec<JobId> = live.iter().flatten().map(|p| p.job).collect();
    suffix_ids.sort_unstable_by_key(|id| id.0);
    let mut expect: Vec<JobId> = suffix.iter().map(|(_, j)| j.id).collect();
    expect.sort_unstable_by_key(|id| id.0);
    assert_eq!(suffix_ids, expect, "{name} {from}→{to}: suffix coverage");

    // Routing still works on the new plan: site ids in the post-barrier
    // schedules belong to the shard that committed them.
    for (k, schedule) in live.iter().enumerate() {
        for p in schedule {
            assert_eq!(
                plan2.shard_of(p.site),
                Some(k),
                "{name} {from}→{to}: shard {k} committed onto site {} it does not own",
                SiteId(p.site.0)
            );
        }
    }
}

#[test]
fn reshard_mct_1_to_2() {
    check_reshard_equivalence("mct", 1, 2);
}

#[test]
fn reshard_mct_2_to_1() {
    check_reshard_equivalence("mct", 2, 1);
}

#[test]
fn reshard_mct_2_to_4() {
    check_reshard_equivalence("mct", 2, 4);
}

#[test]
fn reshard_minmin_1_to_2() {
    check_reshard_equivalence("minmin", 1, 2);
}

#[test]
fn reshard_minmin_2_to_1() {
    check_reshard_equivalence("minmin", 2, 1);
}

#[test]
fn reshard_minmin_2_to_4() {
    check_reshard_equivalence("minmin", 2, 4);
}

#[test]
fn reshard_stga_1_to_2() {
    check_reshard_equivalence("stga", 1, 2);
}

#[test]
fn reshard_stga_2_to_1() {
    check_reshard_equivalence("stga", 2, 1);
}

#[test]
fn reshard_stga_2_to_4() {
    check_reshard_equivalence("stga", 2, 4);
}

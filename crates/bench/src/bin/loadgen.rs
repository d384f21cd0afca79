//! `loadgen` — end-to-end behaviour checks of the `gridsec-serve` daemon
//! over its real wire. It times nothing: performance is measured by
//! `gridbench/` (the repository's one benchmark, see its README). Exactly
//! one of two modes:
//!
//! * **`--smoke`**: the CI end-to-end check — a 50-job SWF slice
//!   (generated, written as SWF, parsed back) replayed against a daemon
//!   on an ephemeral port; asserts the schedule validates, the metrics
//!   frame round-trips through JSON, and the committed schedule is
//!   bit-identical to the in-process engine for the same seed, workload
//!   and batch policy; then the same slice on two shards.
//! * **`--scenario <spec.json>`**: replay a chaos scenario *file*
//!   (`gridsec example-scenario`) through the daemon — the virtual clock
//!   cross-checks the committed timeline, shard by shard, against an
//!   in-process `ScenarioRunner` fed that shard's slice, bit for bit;
//!   `--wall-clock` is the bounded soak asserting the zero-lost-jobs
//!   ledger.
//!
//! ```console
//! loadgen --smoke
//! loadgen --scenario scenarios/churn.json --shards 2 --scheduler stga --quick
//! loadgen --scenario scenarios/churn.json --wall-clock --max-pending 8 --policy periodic:1 --scrape-metrics
//! ```
//!
//! A flag that does not apply to the selected mode is a usage error
//! (exit 2), never silently ignored.

use gridsec_core::{BatchSchedule, Grid, Job, RiskMode, Site, Time};
use gridsec_heuristics::{MinMin, Sufferage};
use gridsec_serve::{
    stateless_factory, Client, ClockMode, Daemon, DaemonOptions, Placed, QueryWhat, Request,
    Response, ScenarioRunner, ServeMetrics, SessionFactory,
};
use gridsec_sim::scheduler::EarliestCompletion;
use gridsec_sim::{
    simulate, BatchJob, BatchPolicy, BatchScheduler, GridView, InjectionKind, InjectionStream,
    Scenario, ShardPlan, SimConfig,
};
use gridsec_stga::{GaParams, Stga, StgaParams};
use gridsec_workloads::{swf, GridSpec, PsaConfig};
use serde::Deserialize;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return;
    }
    let opts = match Options::parse(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("error: {msg}");
            usage();
            std::process::exit(2);
        }
    };
    let outcome = match &opts.mode {
        Mode::Smoke => run_smoke(&opts),
        Mode::Scenario(path) => run_scenario(path, &opts),
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn usage() {
    eprintln!(
        "usage: loadgen --smoke [--seed <u64>]\n\
         \x20      loadgen --scenario <spec.json> [--scheduler mct|minmin|sufferage|stga]\n\
         \x20              [--shards <n>] [--seed <u64>] [--quick] [--threads <n>]\n\
         \x20              [--policy periodic:<secs>|count:<k>|hybrid:<k>]\n\
         \x20              [--wall-clock [--max-pending <n>]] [--scrape-metrics]\n\
         \n\
         --smoke replays a 50-job SWF slice through a Min-Min daemon on one and\n\
         on two shards and cross-checks the committed schedule bit for bit\n\
         against the in-process engine.\n\
         --scenario replays a chaos scenario spec (`gridsec example-scenario`)\n\
         through the daemon: virtual clock cross-checks the committed timeline\n\
         bit for bit against an in-process replay; --wall-clock is the soak\n\
         mode, asserting the zero-lost-jobs ledger under real-time churn.\n\
         --policy overrides the spec's batching (a fast trigger keeps a soak\n\
         bounded); --quick shrinks the STGA's population and generations.\n\
         --scrape-metrics additionally binds an ephemeral metrics listener and\n\
         scrapes the Prometheus-style exposition page mid-run, asserting the\n\
         required metric families are present and parseable.\n\
         \n\
         loadgen times nothing; the benchmark is gridbench/."
    );
}

/// What the run does.
#[derive(Debug, Clone, PartialEq)]
enum Mode {
    Smoke,
    /// Replay this scenario spec file.
    Scenario(String),
}

/// Command-line options. Every field but `mode` and `seed` belongs to
/// `--scenario`; `Options::parse` rejects it elsewhere.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    mode: Mode,
    seed: u64,
    scheduler: String,
    /// Overrides the spec's batching — e.g. a fast count trigger for a
    /// bounded wall-clock soak.
    policy: Option<String>,
    threads: Option<usize>,
    shards: usize,
    wall_clock: bool,
    max_pending: Option<usize>,
    quick: bool,
    /// Scrape the daemon's exposition page after the stream is fed and
    /// assert the required metric families are present and parseable.
    scrape_metrics: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            mode: Mode::Smoke,
            seed: 2005,
            scheduler: "minmin".into(),
            policy: None,
            threads: None,
            shards: 1,
            wall_clock: false,
            max_pending: None,
            quick: false,
            scrape_metrics: false,
        };
        let mut smoke = false;
        let mut scenario = None;
        // The first flag seen that only `--scenario` takes (`--smoke`
        // takes `--seed` and nothing else).
        let mut scenario_only: Option<&str> = None;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{a} needs a value"))
            };
            let positive = |flag: &str, text: String| match text.parse::<usize>() {
                Ok(n) if n > 0 => Ok(n),
                _ => Err(format!("{flag} must be a positive integer")),
            };
            match a.as_str() {
                "--smoke" => smoke = true,
                "--scenario" => scenario = Some(value()?),
                "--seed" => {
                    o.seed = value()?
                        .parse()
                        .map_err(|_| "--seed must be a u64".to_string())?
                }
                "--scheduler" => o.scheduler = value()?,
                "--policy" => o.policy = Some(value()?),
                "--threads" => o.threads = Some(positive(a, value()?)?),
                "--shards" => o.shards = positive(a, value()?)?,
                "--max-pending" => o.max_pending = Some(positive(a, value()?)?),
                "--wall-clock" => o.wall_clock = true,
                "--quick" => o.quick = true,
                "--scrape-metrics" => o.scrape_metrics = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
            if !matches!(a.as_str(), "--smoke" | "--scenario" | "--seed") {
                scenario_only.get_or_insert(a);
            }
        }
        o.mode = match (smoke, scenario) {
            (true, None) => Mode::Smoke,
            (false, Some(path)) => Mode::Scenario(path),
            (true, Some(_)) => return Err("--smoke and --scenario are separate modes".into()),
            (false, None) => return Err("pick a mode: --smoke or --scenario <spec.json>".into()),
        };
        if let (Mode::Smoke, Some(flag)) = (&o.mode, scenario_only) {
            return Err(format!(
                "{flag} does not apply to --smoke (a fixed Min-Min replay on 1 and 2 \
                 virtual-clock shards); it belongs to --scenario"
            ));
        }
        if o.max_pending.is_some() && !o.wall_clock {
            return Err(
                "--max-pending needs --wall-clock: a virtual-clock replay cannot make \
                 progress on busy frames (only timer rounds drain a full queue)"
                    .into(),
            );
        }
        Ok(o)
    }
}

/// Parses `periodic:<secs>` / `count:<k>` / `hybrid:<k>` into the sim
/// policy plus the scheduling interval.
fn parse_policy(text: &str, default_interval: f64) -> Result<(BatchPolicy, Time), String> {
    let mut parts = text.split(':');
    let kind = parts.next().unwrap_or("");
    let arg = parts.next();
    match kind {
        "periodic" => {
            let secs: f64 = arg
                .unwrap_or("1000")
                .parse()
                .map_err(|_| "periodic:<secs> needs a number".to_string())?;
            Ok((BatchPolicy::Periodic, Time::new(secs)))
        }
        "count" => {
            let k: usize = arg
                .ok_or("count:<k> needs a count")?
                .parse()
                .map_err(|_| "count:<k> needs an integer".to_string())?;
            Ok((BatchPolicy::CountTriggered(k), Time::new(default_interval)))
        }
        "hybrid" => {
            let k: usize = arg
                .ok_or("hybrid:<k> needs a count")?
                .parse()
                .map_err(|_| "hybrid:<k> needs an integer".to_string())?;
            Ok((BatchPolicy::Hybrid(k), Time::new(default_interval)))
        }
        other => Err(format!("unknown policy `{other}`")),
    }
}

/// Builds the named scheduler. `threads` wraps it in a dedicated rayon
/// pool so the daemon's parallel sections use exactly that many workers.
fn build_scheduler(
    name: &str,
    seed: u64,
    quick: bool,
    threads: Option<usize>,
) -> Result<Box<dyn BatchScheduler + Send>, String> {
    let base: Box<dyn BatchScheduler + Send> = match name {
        "mct" => Box::new(EarliestCompletion),
        "minmin" => Box::new(MinMin::new(RiskMode::Risky)),
        "sufferage" => Box::new(Sufferage::new(RiskMode::Risky)),
        "stga" => {
            let (population, generations) = if quick { (40, 20) } else { (100, 50) };
            Box::new(
                Stga::new(StgaParams {
                    ga: GaParams::default()
                        .with_population(population)
                        .with_generations(generations)
                        .with_seed(seed),
                    ..StgaParams::default()
                })
                .map_err(|e| e.to_string())?,
            )
        }
        other => return Err(format!("unknown scheduler `{other}`")),
    };
    match threads {
        None => Ok(base),
        Some(n) => {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .map_err(|e| e.to_string())?;
            Ok(Box::new(Pooled { pool, inner: base }))
        }
    }
}

/// The in-process daemon's description of a shard: the named scheduler,
/// seeded `seed + k` on shard `k` so GA streams are decorrelated across
/// shards without breaking determinism.
fn shard_factory(
    config: SimConfig,
    name: &str,
    seed: u64,
    quick: bool,
    threads: Option<usize>,
) -> SessionFactory {
    let name = name.to_string();
    stateless_factory(config, move |ctx| {
        build_scheduler(&name, seed + ctx.shard as u64, quick, threads)
    })
}

/// Runs the wrapped scheduler inside a dedicated thread pool, pinning the
/// parallelism of its rayon sections regardless of the global pool.
struct Pooled {
    pool: rayon::ThreadPool,
    inner: Box<dyn BatchScheduler + Send>,
}

impl BatchScheduler for Pooled {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn schedule(&mut self, batch: &[BatchJob], view: &GridView<'_>) -> BatchSchedule {
        let Pooled { pool, inner } = self;
        pool.install(|| inner.schedule(batch, view))
    }
}

/// Deterministically assigns a job to one of the shards it is eligible
/// on (round-robin by job id over the candidates) — the tenancy function
/// [`InjectionStream::slice_for_shard`] applies too. `None`: the job fits
/// no site on any shard.
fn assign_shard(plan: &ShardPlan, grid: &Grid, job: &Job) -> Option<usize> {
    let eligible = plan.eligible_shards(grid, job);
    (!eligible.is_empty()).then(|| eligible[job.id.0 as usize % eligible.len()])
}

fn send(client: &mut Client, request: &Request) -> Result<Response, String> {
    client.send(request).map_err(|e| e.to_string())
}

/// Submits `jobs` in one frame, re-sending what a typed `busy` reply left
/// out until the daemon's timer rounds have made room. Returns the number
/// of busy retries.
fn submit(client: &mut Client, mut jobs: Vec<Job>, shard: Option<usize>) -> Result<usize, String> {
    let mut busy_retries = 0;
    loop {
        let request = Request::Submit {
            jobs: jobs.clone(),
            shard,
            tenant: None,
        };
        match send(client, &request)? {
            Response::Accepted { .. } => return Ok(busy_retries),
            Response::Busy { jobs: accepted, .. } => {
                jobs.drain(..accepted);
                busy_retries += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            other => return Err(format!("submit rejected: {other:?}")),
        }
    }
}

/// What a daemon served: counted while feeding it, then queried between
/// `drain` and `shutdown`.
struct Served {
    /// Jobs the daemon accepted.
    sent: usize,
    /// Busy frames the submitter retried (bounded-queue backpressure).
    busy_retries: usize,
    /// Aggregated over the shards.
    metrics: ServeMetrics,
    schedule: Vec<Placed>,
    /// Per shard, shard order.
    shard_schedules: Vec<Vec<Placed>>,
    shard_metrics: Vec<ServeMetrics>,
}

impl Served {
    fn print(&self, scheduler: &str) {
        println!(
            "{scheduler:<10} shards={:<2} jobs={:<6} rounds={:<4} busy_retries={}",
            self.shard_schedules.len(),
            self.sent,
            self.metrics.rounds,
            self.busy_retries,
        );
    }
}

/// Spawns an in-process daemon on an ephemeral port, lets `feed` drive it
/// over one client connection (returning jobs accepted and busy retries),
/// drains it, collects every view the checks need and shuts it down.
fn serve(
    grid: &Grid,
    plan: &ShardPlan,
    factory: SessionFactory,
    options: DaemonOptions,
    feed: impl FnOnce(&mut Client, &Daemon) -> Result<(usize, usize), String>,
) -> Result<Served, String> {
    let daemon = Daemon::spawn(grid.clone(), plan.clone(), factory, "127.0.0.1:0", options)
        .map_err(|e| e.to_string())?;
    let mut client = Client::connect(daemon.addr()).map_err(|e| e.to_string())?;
    let (sent, busy_retries) = feed(&mut client, &daemon)?;
    match send(&mut client, &Request::Drain)? {
        Response::Drained { .. } => {}
        other => return Err(format!("drain failed: {other:?}")),
    }
    let mut metrics_of = |shard: Option<usize>| {
        let what = QueryWhat::Metrics;
        match send(&mut client, &Request::Query { what, shard })? {
            Response::Metrics { metrics } => Ok(metrics),
            other => Err(format!("metrics query ({shard:?}) failed: {other:?}")),
        }
    };
    let metrics = metrics_of(None)?;
    let shard_metrics = (0..plan.n_shards())
        .map(|k| metrics_of(Some(k)))
        .collect::<Result<Vec<_>, String>>()?;
    let mut schedule_of = |shard: Option<usize>| {
        let what = QueryWhat::Schedule;
        match send(&mut client, &Request::Query { what, shard })? {
            Response::Schedule { assignments } => Ok(assignments),
            other => Err(format!("schedule query ({shard:?}) failed: {other:?}")),
        }
    };
    let schedule = schedule_of(None)?;
    let shard_schedules = (0..plan.n_shards())
        .map(|k| schedule_of(Some(k)))
        .collect::<Result<Vec<_>, String>>()?;
    match send(&mut client, &Request::Shutdown)? {
        Response::Bye => {}
        other => return Err(format!("shutdown failed: {other:?}")),
    }
    daemon.join();
    Ok(Served {
        sent,
        busy_retries,
        metrics,
        schedule,
        shard_schedules,
        shard_metrics,
    })
}

/// The subset of a `gridsec` scenario spec loadgen needs: the grid, the
/// batching config, and the scenario program. The spec's `scheduler`
/// field is ignored — loadgen's own `--scheduler` flag picks the
/// scheduler, so one spec file drives every scheduler.
#[derive(Debug, Clone, Deserialize)]
struct ScenarioFile {
    grid: GridSpec,
    #[serde(default)]
    sim: SimConfig,
    scenario: Scenario,
}

/// Feeds a compiled injection stream to a daemon frame by frame: arrivals
/// go to the shard the stream slicer assigns them, site events and trust
/// re-ratings become `fail_site` / `rejoin_site` / `reconfigure` frames.
/// Virtual-clock daemons honour the injection instants; wall-clock
/// daemons stamp their own monotonic clock (frames carry no instants).
/// Returns jobs accepted and busy retries.
fn feed_scenario(
    client: &mut Client,
    stream: &InjectionStream,
    grid: &Grid,
    plan: &ShardPlan,
    wall_clock: bool,
) -> Result<(usize, usize), String> {
    let instant = |at| (!wall_clock).then_some(at);
    let (mut sent, mut busy_retries) = (0, 0);
    for inj in &stream.events {
        let (request, frame) = match &inj.kind {
            InjectionKind::Arrive(job) => {
                // A job that fits nowhere is typed-rejected by the
                // in-process replay as well.
                if let Some(shard) = assign_shard(plan, grid, job) {
                    busy_retries += submit(client, vec![job.clone()], Some(shard))?;
                    sent += 1;
                }
                continue;
            }
            InjectionKind::SiteFail(site) => (
                Request::FailSite {
                    site: site.0,
                    at: instant(inj.at),
                },
                "fail_site",
            ),
            InjectionKind::SiteRejoin(site) => (
                Request::RejoinSite {
                    site: site.0,
                    at: instant(inj.at),
                },
                "rejoin_site",
            ),
            InjectionKind::SetTrust(levels) => (
                Request::Reconfigure {
                    security_levels: levels.clone(),
                    shard: None,
                    at: instant(inj.at),
                },
                "reconfigure",
            ),
        };
        match send(client, &request)? {
            Response::SiteFailed { .. }
            | Response::SiteRejoined { .. }
            | Response::Reconfigured { .. } => {}
            other => return Err(format!("{frame} rejected: {other:?}")),
        }
    }
    Ok((sent, busy_retries))
}

/// Scrapes the daemon's exposition page and asserts it parses (every
/// sample line is `name[{labels}] value` with a finite value) and that
/// the required metric families are present.
fn scrape_and_check(addr: std::net::SocketAddr) -> Result<(), String> {
    use std::io::Read as _;
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .map_err(|e| e.to_string())?;
    let mut samples = 0usize;
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (_, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("malformed exposition line: {line:?}"))?;
        let v: f64 = value
            .parse()
            .map_err(|_| format!("non-numeric sample value in line: {line:?}"))?;
        if !v.is_finite() {
            return Err(format!("non-finite sample value in line: {line:?}"));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("exposition page carried no samples".into());
    }
    for family in [
        "gridsec_jobs_submitted_total",
        "gridsec_rounds_total",
        "gridsec_round_nanos_bucket",
        "gridsec_pending",
    ] {
        if !text.lines().any(|l| l.starts_with(family)) {
            return Err(format!("metric family `{family}` missing from exposition"));
        }
    }
    Ok(())
}

/// The zero-lost-jobs ledger over a daemon's aggregated metrics: every
/// submitted job is scheduled or still pending, and the churn counters
/// match the injection stream.
fn assert_scenario_ledger(
    metrics: &ServeMetrics,
    stream: &InjectionStream,
    submitted: usize,
) -> Result<(), String> {
    if metrics.jobs_submitted != submitted {
        return Err(format!(
            "daemon accepted {} jobs, loadgen sent {submitted}",
            metrics.jobs_submitted
        ));
    }
    if metrics.jobs_submitted != metrics.jobs_scheduled + metrics.pending {
        return Err(format!(
            "ledger does not balance: {} submitted != {} scheduled + {} pending",
            metrics.jobs_submitted, metrics.jobs_scheduled, metrics.pending
        ));
    }
    let count =
        |is: fn(&InjectionKind) -> bool| stream.events.iter().filter(|e| is(&e.kind)).count();
    let fails = count(|k| matches!(k, InjectionKind::SiteFail(_)));
    let rejoins = count(|k| matches!(k, InjectionKind::SiteRejoin(_)));
    if metrics.sites_failed != fails || metrics.sites_rejoined != rejoins {
        return Err(format!(
            "churn counters diverge: daemon saw {}/{} fail/rejoin, stream has {fails}/{rejoins}",
            metrics.sites_failed, metrics.sites_rejoined
        ));
    }
    Ok(())
}

/// `--scenario`: replay a chaos spec through the daemon. Virtual clock
/// additionally proves the committed timeline bit-identical to an
/// in-process replay, shard by shard; wall clock is the soak mode and
/// asserts the accounting only (real-time churn is timing-dependent).
fn run_scenario(path: &str, opts: &Options) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let file: ScenarioFile =
        serde_json::from_str(&text).map_err(|e| format!("invalid scenario spec {path}: {e}"))?;
    let grid = file.grid.build().map_err(|e| e.to_string())?;
    let mut config = file.sim;
    if let Some(policy) = &opts.policy {
        let (policy, interval) = parse_policy(policy, config.schedule_interval.seconds())?;
        config = config.with_batch_policy(policy).with_interval(interval);
    }
    let stream = file.scenario.compile(&grid).map_err(|e| e.to_string())?;
    let plan = ShardPlan::contiguous(&grid, opts.shards).map_err(|e| e.to_string())?;
    println!(
        "loadgen scenario: {} injections ({} arrivals) on {} sites × {} shard(s), \
         scheduler {}, {} clock",
        stream.events.len(),
        stream.n_jobs(),
        grid.len(),
        opts.shards,
        opts.scheduler,
        if opts.wall_clock { "wall" } else { "virtual" },
    );
    let options = DaemonOptions {
        clock: if opts.wall_clock {
            ClockMode::WallClock
        } else {
            ClockMode::Virtual
        },
        max_pending: opts.max_pending,
        metrics_addr: opts.scrape_metrics.then(|| "127.0.0.1:0".to_string()),
        ..DaemonOptions::default()
    };
    let factory = shard_factory(
        config.clone(),
        &opts.scheduler,
        opts.seed,
        opts.quick,
        opts.threads,
    );
    let served = serve(&grid, &plan, factory, options, |client, daemon| {
        let fed = feed_scenario(client, &stream, &grid, &plan, opts.wall_clock)?;
        // The stream is fully fed but the daemon is still live and
        // scheduling — exactly what a Prometheus collector would see.
        if opts.scrape_metrics {
            let addr = daemon
                .metrics_addr()
                .ok_or("scrape requested but the daemon bound no metrics listener")?;
            scrape_and_check(addr)?;
            println!("metrics scrape OK: all required families present and parseable");
        }
        Ok(fed)
    })?;
    served.print(&opts.scheduler);
    let m = &served.metrics;
    assert_scenario_ledger(m, &stream, served.sent)?;
    println!(
        "ledger OK: {} submitted = {} scheduled + {} pending; churn {} fail / {} rejoin, \
         {} requeued, {} busy rejections",
        m.jobs_submitted,
        m.jobs_scheduled,
        m.pending,
        m.sites_failed,
        m.sites_rejoined,
        m.jobs_requeued,
        m.busy_rejections,
    );
    if opts.wall_clock {
        println!("soak OK: no lost jobs under wall-clock churn");
        return Ok(());
    }
    // In-process cross-check: each shard's committed timeline must be
    // bit-identical to a scenario runner replaying that shard's slice on
    // the shard's subgrid. (Coverage is the ledger's and this check's
    // job: under churn a requeued job legitimately commits twice, so the
    // flat one-commit-per-job validator does not apply.)
    for (k, daemon_schedule) in served.shard_schedules.iter().enumerate() {
        let slice = stream.slice_for_shard(&plan, &grid, k);
        let sub = plan.subgrid(&grid, k).expect("plan matches grid");
        let scheduler = build_scheduler(&opts.scheduler, opts.seed + k as u64, opts.quick, None)?;
        let outcome = ScenarioRunner::new(sub, scheduler, &config)
            .and_then(|r| r.run(&slice))
            .map_err(|e| format!("in-process replay of shard {k}: {e}"))?;
        if !outcome.fully_accounted() {
            return Err(format!("in-process ledger for shard {k} does not balance"));
        }
        let translated: Vec<Placed> = outcome
            .timeline
            .iter()
            .map(|&c| {
                let mut p = c;
                p.site = plan.to_global(k, p.site);
                p
            })
            .collect();
        if *daemon_schedule != translated {
            return Err(format!(
                "shard {k} daemon timeline diverged from the in-process replay ({} vs {} commits)",
                daemon_schedule.len(),
                translated.len()
            ));
        }
    }
    println!(
        "equivalence OK: daemon timeline bit-identical to the in-process replay on all {} shard(s)",
        served.shard_schedules.len()
    );
    Ok(())
}

/// The CI end-to-end smoke: a 50-job SWF slice through the full wire
/// path, cross-checked bit for bit against the in-process engine.
fn run_smoke(opts: &Options) -> Result<(), String> {
    // Generate a PSA slice, round-trip it through the SWF text format
    // (write → parse → convert), and serve it on a fully trusted grid so
    // the engine comparison is failure-free.
    let w = PsaConfig::default()
        .with_n_jobs(50)
        .with_seed(opts.seed)
        .generate()
        .map_err(|e| e.to_string())?;
    let records =
        swf::parse(&swf::write(&w.jobs)).map_err(|e| format!("SWF re-parse failed: {e}"))?;
    let mut jobs = swf::to_jobs(&records, &swf::ConvertOptions::default())
        .map_err(|e| format!("SWF conversion failed: {e}"))?;
    // The daemon's virtual clock needs non-decreasing arrivals; ties keep
    // id order so the replay is deterministic.
    jobs.sort_by(|a, b| a.arrival.cmp(&b.arrival).then(a.id.cmp(&b.id)));
    let sites: Vec<Site> = w
        .grid
        .sites()
        .map(|s| {
            let mut s = s.clone();
            s.security_level = 1.0;
            s
        })
        .collect();
    let grid = Grid::new(sites).expect("grid stays valid");
    let config = SimConfig::default()
        .with_interval(Time::new(1_000.0))
        .with_batch_policy(BatchPolicy::Hybrid(8))
        .with_seed(opts.seed);

    // Reference: the in-process engine on identical inputs.
    let mut reference = MinMin::new(RiskMode::Risky);
    let engine = simulate(
        &jobs,
        &grid,
        &mut reference,
        &config.clone().with_timeline(),
    )
    .map_err(|e| format!("engine reference run failed: {e}"))?;
    let spans = engine.timeline.as_ref().expect("timeline recorded");

    // The served run, over real TCP on an ephemeral port: consecutive
    // jobs bound for the same shard share a frame, ten at most. On one
    // shard the daemon derives the routing itself.
    let replay = |shards: usize| -> Result<(Served, ShardPlan), String> {
        let plan = ShardPlan::contiguous(&grid, shards).map_err(|e| e.to_string())?;
        let shard_of = |j: &Job| {
            if shards == 1 {
                return Ok(None);
            }
            assign_shard(&plan, &grid, j)
                .map(Some)
                .ok_or_else(|| format!("job {} fits no site on any shard", j.id))
        };
        let factory = shard_factory(config.clone(), "minmin", opts.seed, false, None);
        let served = serve(
            &grid,
            &plan,
            factory,
            DaemonOptions::default(),
            |client, _| {
                let mut busy_retries = 0;
                let mut i = 0;
                while i < jobs.len() {
                    let shard = shard_of(&jobs[i])?;
                    let mut end = i + 1;
                    while end < jobs.len() && end - i < 10 && shard_of(&jobs[end])? == shard {
                        end += 1;
                    }
                    busy_retries += submit(client, jobs[i..end].to_vec(), shard)?;
                    i = end;
                }
                Ok((jobs.len(), busy_retries))
            },
        )?;
        served.print("minmin");
        // Coverage: every job exactly once, on a fitting site.
        BatchSchedule::from_pairs(served.schedule.iter().map(|p| (p.job, p.site)))
            .validate(&jobs, &grid)
            .map_err(|e| format!("{shards}-shard served schedule failed validation: {e}"))?;
        Ok((served, plan))
    };

    let (served, _) = replay(1)?;
    if served.schedule.len() != spans.len() {
        return Err(format!(
            "daemon committed {} assignments, engine dispatched {}",
            served.schedule.len(),
            spans.len()
        ));
    }
    for (i, (p, s)) in served.schedule.iter().zip(spans.spans().iter()).enumerate() {
        if p.job != s.job || p.site != s.site || p.start != s.start || p.end != s.end {
            return Err(format!(
                "dispatch {i} diverged: daemon {p:?} vs engine {s:?}"
            ));
        }
    }
    // The metrics frame must round-trip through the wire encoding
    // losslessly (it already crossed TCP once to get here).
    let frame = gridsec_serve::protocol::encode(&Response::Metrics {
        metrics: served.metrics.clone(),
    });
    match serde_json::from_str::<Response>(frame.trim()) {
        Ok(Response::Metrics { metrics: back }) if back == served.metrics => {}
        other => {
            return Err(format!(
                "metrics did not round-trip through JSON: {other:?}"
            ))
        }
    }
    println!(
        "smoke OK: {} jobs, {} rounds, schedule bit-identical to the engine, metrics round-trip",
        served.sent, served.metrics.rounds
    );

    // Phase 2: the same workload against a 2-shard daemon. Each shard's
    // schedule must validate against its own subgrid, and the aggregated
    // metrics must equal the per-shard sums.
    let (served, plan) = replay(2)?;
    for (k, shard_schedule) in served.shard_schedules.iter().enumerate() {
        let sub = plan.subgrid(&grid, k).expect("subgrid");
        // The shard reports global site ids; validate on the subgrid
        // with local ids and just this shard's jobs.
        let local = BatchSchedule::from_pairs(shard_schedule.iter().map(|p| {
            let (shard, local_site) = plan.to_local(p.site).expect("known site");
            assert_eq!(shard, k, "shard {k} committed onto a foreign site");
            (p.job, local_site)
        }));
        let shard_jobs: Vec<Job> = jobs
            .iter()
            .filter(|j| assign_shard(&plan, &grid, j) == Some(k))
            .cloned()
            .collect();
        local
            .validate(&shard_jobs, &sub)
            .map_err(|e| format!("shard {k} schedule failed validation: {e}"))?;
        if local.len() != shard_jobs.len() {
            return Err(format!(
                "shard {k} committed {} assignments for {} jobs",
                local.len(),
                shard_jobs.len()
            ));
        }
    }
    if ServeMetrics::merge(&served.shard_metrics) != served.metrics {
        return Err("2-shard aggregated metrics diverge from the per-shard sums".into());
    }
    println!(
        "smoke OK (2 shards): {} jobs across {} shards, per-shard schedules validate, \
         aggregated metrics equal the per-shard sums",
        served.sent,
        served.shard_schedules.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Options, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        Options::parse(&args)
    }

    #[test]
    fn each_mode_takes_its_own_flags() {
        assert_eq!(parse("--smoke").unwrap().mode, Mode::Smoke);
        assert_eq!(parse("--smoke --seed 7").unwrap().seed, 7);
        let o = parse(
            "--scenario s.json --scheduler stga --shards 4 --seed 9 --quick --threads 2 \
             --policy periodic:1 --wall-clock --max-pending 3 --scrape-metrics",
        )
        .unwrap();
        assert_eq!(o.mode, Mode::Scenario("s.json".into()));
        assert_eq!((o.shards, o.seed, o.threads), (4, 9, Some(2)));
        assert_eq!(o.policy.as_deref(), Some("periodic:1"));
        assert!(o.quick && o.wall_clock && o.scrape_metrics);
        assert_eq!(o.max_pending, Some(3));
    }

    #[test]
    fn a_flag_outside_its_mode_is_an_error_naming_both() {
        // (command line, what the message must name)
        let rejected = [
            // The f2b6f1b repro: ran Min-Min on 1 and 2 virtual-clock
            // shards and printed `smoke OK`.
            (
                "--smoke --scheduler stga --shards 4 --wall-clock --max-pending 3",
                &["--scheduler", "--smoke"][..],
            ),
            ("--smoke --shards 2", &["--shards", "--smoke"]),
            ("--smoke --wall-clock", &["--wall-clock", "--smoke"]),
            ("--smoke --quick", &["--quick", "--smoke"]),
            ("--smoke --threads 2", &["--threads", "--smoke"]),
            ("--smoke --policy count:4", &["--policy", "--smoke"]),
            ("--smoke --scrape-metrics", &["--scrape-metrics", "--smoke"]),
            // No default mode, and the two do not combine.
            ("", &["--smoke", "--scenario"]),
            ("--seed 3", &["--smoke", "--scenario"]),
            ("--smoke --scenario s.json", &["--smoke", "--scenario"]),
            // Flags of the retired modes are unknown, not ignored: the
            // f2b6f1b repro replayed the spec's 40 arrivals unpaced.
            ("--scenario s.json --rate 5 --jobs 9", &["--rate"]),
            ("--scenario s.json --workload psa", &["--workload"]),
            ("--scenario s.json --host 127.0.0.1:1", &["--host"]),
            ("--scenario s.json --json out.json", &["--json"]),
            ("--reshard-smoke", &["--reshard-smoke"]),
            ("--connections 100", &["--connections"]),
            // Values are still checked.
            ("--scenario", &["--scenario", "value"]),
            ("--scenario s.json --shards 0", &["--shards", "positive"]),
            (
                "--scenario s.json --max-pending 3",
                &["--max-pending", "--wall-clock"],
            ),
        ];
        for (line, must_name) in rejected {
            let msg = parse(line).expect_err(line);
            for word in must_name {
                assert!(msg.contains(word), "`{line}` → `{msg}` lacks `{word}`");
            }
        }
    }
}

//! `loadgen` — load generator and end-to-end harness for the
//! `gridsec-serve` daemon. It checks *behaviour*; performance is measured
//! by `gridbench/` (the repository's one benchmark, see its README).
//!
//! * **Replay** (default): spawn a daemon in-process on an ephemeral port
//!   (or target `--host <addr>`), replay a PSA/NAS/SWF workload through
//!   the NDJSON wire protocol at `--rate <jobs/sec>` (default: as fast as
//!   the daemon accepts), then report sustained jobs/sec, round-latency
//!   and batch-size distributions, and validate the returned schedule.
//! * **`--smoke`**: the CI end-to-end check — a 50-job SWF slice
//!   (generated, written as SWF, parsed back) replayed against a daemon
//!   on an ephemeral port; asserts the schedule validates, the metrics
//!   frame round-trips through JSON, and the committed schedule is
//!   bit-identical to the in-process engine for the same seed, workload
//!   and batch policy.
//! * **`--reshard-smoke`**: a 2-shard daemon split to 4 under load,
//!   schedules validated on the final topology.
//! * **`--connections <n>`**: `n` concurrent pipelining clients from one
//!   epoll loop against a daemon in a child process; asserts every
//!   request is answered and the daemon's connection gauge matches.
//! * **`--scenario <spec.json>`**: replay a chaos scenario — virtual
//!   clock cross-checks the engine bit for bit, `--wall-clock` soaks.
//!
//! ```console
//! loadgen --workload psa --jobs 400 --scheduler stga --policy hybrid:16 --threads 4
//! loadgen --shards 4 --scheduler minmin
//! loadgen --wall-clock --rate 200 --max-pending 32
//! loadgen --smoke
//! loadgen --host 127.0.0.1:7070 --workload swf:trace.swf --rate 50
//! ```

use gridsec_core::{BatchSchedule, Grid, Job, RiskMode, Site, Time};
use gridsec_heuristics::{MinMin, Sufferage};
use gridsec_serve::{
    stateless_factory, Client, ClockMode, Daemon, DaemonOptions, Placed, QueryWhat, Request,
    Response, ServeMetrics, SessionFactory,
};
use gridsec_sim::scheduler::EarliestCompletion;
use gridsec_sim::{
    simulate, BatchJob, BatchPolicy, BatchScheduler, GridView, InjectionKind, InjectionStream,
    Scenario, ScenarioRunner, ShardPlan, SimConfig,
};
use gridsec_stga::{GaParams, Stga, StgaParams};
use gridsec_workloads::{swf, NasConfig, PsaConfig};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("error: {msg}");
            usage();
            std::process::exit(2);
        }
    };
    let code = if opts.serve_connections_daemon {
        run_connections_daemon()
    } else if let Some(n) = opts.connections {
        run_connections(n)
    } else if opts.smoke {
        run_smoke(&opts)
    } else if opts.reshard_smoke {
        run_reshard_smoke(&opts)
    } else if opts.scenario.is_some() {
        run_scenario(&opts)
    } else {
        run_replay(&opts)
    };
    std::process::exit(code);
}

fn usage() {
    eprintln!(
        "usage: loadgen [--workload psa|nas|swf:<path>] [--jobs <n>] [--seed <u64>]\n\
         \x20              [--scheduler mct|minmin|sufferage|stga] [--policy periodic:<secs>|count:<k>|hybrid:<k>]\n\
         \x20              [--rate <jobs-per-sec>] [--threads <n>] [--host <addr>]\n\
         \x20              [--shards <n>] [--wall-clock] [--max-pending <n>]\n\
         \x20              [--scenario <spec.json>] [--scrape-metrics]\n\
         \x20              [--connections <n>]\n\
         \x20              [--smoke] [--reshard-smoke] [--json <path>] [--quick]\n\
         \n\
         --scenario replays a chaos scenario spec (`gridsec example-scenario`)\n\
         through the daemon: virtual clock cross-checks the committed timeline\n\
         bit for bit against the in-process engine; --wall-clock is the soak\n\
         mode, asserting the zero-lost-jobs ledger under real-time churn.\n\
         --scrape-metrics additionally binds an ephemeral metrics listener and\n\
         scrapes the Prometheus-style exposition page mid-soak, asserting the\n\
         required metric families are present and parseable."
    );
}

/// Command-line options.
#[derive(Clone)]
struct Options {
    workload: String,
    jobs: usize,
    seed: u64,
    scheduler: String,
    policy: String,
    rate: Option<f64>,
    threads: Option<usize>,
    host: Option<String>,
    shards: usize,
    wall_clock: bool,
    max_pending: Option<usize>,
    smoke: bool,
    reshard_smoke: bool,
    json: Option<String>,
    quick: bool,
    scenario: Option<String>,
    /// C10k mode: drive this many concurrent connections (an epoll
    /// client engine mirroring the daemon's own event loop) against an
    /// in-process daemon and report jobs/s + per-request RTT p99.
    connections: Option<usize>,
    /// Hidden child mode: serve the `--connections` benchmark daemon in
    /// this process (spawned by the parent so 10k connections' two fd
    /// ends split across two `RLIMIT_NOFILE` budgets).
    serve_connections_daemon: bool,
    /// Scrape the daemon's Prometheus-style exposition page mid-soak and
    /// assert the required metric families are present and parseable
    /// (scenario mode only).
    scrape_metrics: bool,
    /// `--policy` was given explicitly (scenario mode then overrides the
    /// spec's batching with it — e.g. a fast count trigger for bounded
    /// wall-clock soaks).
    policy_explicit: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            workload: "psa".into(),
            jobs: 400,
            seed: 2005,
            scheduler: "minmin".into(),
            policy: "hybrid:16".into(),
            rate: None,
            threads: None,
            host: None,
            shards: 1,
            wall_clock: false,
            max_pending: None,
            smoke: false,
            reshard_smoke: false,
            json: None,
            quick: false,
            scenario: None,
            connections: None,
            serve_connections_daemon: false,
            scrape_metrics: false,
            policy_explicit: false,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match a.as_str() {
                "--workload" => o.workload = value("--workload")?,
                "--jobs" => {
                    o.jobs = value("--jobs")?
                        .parse()
                        .map_err(|_| "--jobs must be an integer".to_string())?
                }
                "--seed" => {
                    o.seed = value("--seed")?
                        .parse()
                        .map_err(|_| "--seed must be a u64".to_string())?
                }
                "--scheduler" => o.scheduler = value("--scheduler")?,
                "--policy" => {
                    o.policy = value("--policy")?;
                    o.policy_explicit = true;
                }
                "--rate" => {
                    let r: f64 = value("--rate")?
                        .parse()
                        .map_err(|_| "--rate must be a number".to_string())?;
                    if !(r.is_finite() && r > 0.0) {
                        return Err("--rate must be positive".into());
                    }
                    o.rate = Some(r);
                }
                "--threads" => {
                    let n: usize = value("--threads")?
                        .parse()
                        .map_err(|_| "--threads must be a positive integer".to_string())?;
                    if n == 0 {
                        return Err("--threads must be a positive integer".into());
                    }
                    o.threads = Some(n);
                }
                "--host" => o.host = Some(value("--host")?),
                "--shards" => {
                    let n: usize = value("--shards")?
                        .parse()
                        .map_err(|_| "--shards must be a positive integer".to_string())?;
                    if n == 0 {
                        return Err("--shards must be a positive integer".into());
                    }
                    o.shards = n;
                }
                "--wall-clock" => o.wall_clock = true,
                "--max-pending" => {
                    let n: usize = value("--max-pending")?
                        .parse()
                        .map_err(|_| "--max-pending must be a positive integer".to_string())?;
                    if n == 0 {
                        return Err("--max-pending must be a positive integer".into());
                    }
                    o.max_pending = Some(n);
                }
                "--smoke" => o.smoke = true,
                "--reshard-smoke" => o.reshard_smoke = true,
                "--json" => o.json = Some(value("--json")?),
                "--quick" => o.quick = true,
                "--connections" => {
                    let n: usize = value("--connections")?
                        .parse()
                        .map_err(|_| "--connections must be a positive integer".to_string())?;
                    if n == 0 {
                        return Err("--connections must be a positive integer".into());
                    }
                    o.connections = Some(n);
                }
                "--serve-connections-daemon" => o.serve_connections_daemon = true,
                "--scenario" => o.scenario = Some(value("--scenario")?),
                "--scrape-metrics" => o.scrape_metrics = true,
                "--help" | "-h" => {
                    usage();
                    std::process::exit(0);
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if o.max_pending.is_some() && !o.wall_clock && o.host.is_none() {
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
        // `stga-kernel` is the same scheduler — since PR 6 the STGA's
        // fitness path *is* the compiled kernel.
        "stga" | "stga-kernel" => {
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

/// Materialises the workload: jobs (sorted by arrival) + grid.
fn build_workload(spec: &str, n: usize, seed: u64) -> Result<(Vec<Job>, Grid), String> {
    let (mut jobs, grid) = if let Some(path) = spec.strip_prefix("swf:") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let records = swf::parse(&text).map_err(|e| e.to_string())?;
        let mut jobs =
            swf::to_jobs(&records, &swf::ConvertOptions::default()).map_err(|e| e.to_string())?;
        jobs.truncate(n);
        let grid = NasConfig::default().grid().map_err(|e| e.to_string())?;
        (jobs, grid)
    } else {
        match spec {
            "psa" => {
                let w = PsaConfig::default()
                    .with_n_jobs(n)
                    .with_seed(seed)
                    .generate()
                    .map_err(|e| e.to_string())?;
                (w.jobs, w.grid)
            }
            "nas" => {
                let w = NasConfig::default()
                    .with_n_jobs(n)
                    .with_seed(seed)
                    .generate()
                    .map_err(|e| e.to_string())?;
                (w.jobs, w.grid)
            }
            other => return Err(format!("unknown workload `{other}`")),
        }
    };
    // The daemon's virtual clock needs non-decreasing arrivals; ties keep
    // id order so the replay is deterministic.
    jobs.sort_by(|a, b| a.arrival.cmp(&b.arrival).then(a.id.cmp(&b.id)));
    Ok((jobs, grid))
}

/// One replay's measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ReplayReport {
    scheduler: String,
    threads: usize,
    /// Site-disjoint grid shards the daemon served (1 = unsharded).
    shards: usize,
    /// Busy frames the submitter retried (bounded-queue backpressure).
    busy_retries: usize,
    jobs: usize,
    /// Wall-clock seconds from first submit to drained.
    replay_secs: f64,
    /// Jobs per wall-clock second sustained over the replay.
    jobs_per_sec: f64,
    rounds: usize,
    /// Mean wall-clock microseconds per scheduling round.
    round_micros_mean: f64,
    /// 99th-percentile round, microseconds (nearest-rank over the replay).
    #[serde(default)]
    round_micros_p99: f64,
    /// Largest single round, microseconds.
    round_micros_max: f64,
    /// Daemon-side median round, microseconds: the daemon's own log2
    /// histogram (`round_nanos_hist`), which survives the bounded recent
    /// window — serving-side truth next to the client-side percentiles.
    #[serde(default)]
    daemon_round_micros_p50: f64,
    /// Daemon-side 99th-percentile round, microseconds (same histogram;
    /// the estimate is the bucket upper bound, within 2× of true).
    #[serde(default)]
    daemon_round_micros_p99: f64,
    /// Seconds spent inside the scheduler over the whole replay.
    scheduler_seconds: f64,
    batch_size_mean: f64,
    batch_size_max: usize,
    /// Virtual makespan of the served schedule.
    makespan: f64,
    /// The served schedule covered every job exactly once on a fitting
    /// site.
    schedule_valid: bool,
}

/// How a replay runs: the scheduler/daemon configuration around the job
/// stream.
struct ReplayConfig<'a> {
    scheduler: &'a str,
    threads: Option<usize>,
    policy: BatchPolicy,
    interval: Time,
    seed: u64,
    quick: bool,
    rate: Option<f64>,
    host: Option<&'a str>,
    shards: usize,
    wall_clock: bool,
    max_pending: Option<usize>,
}

/// Per-shard views queried after a replay (shard order).
struct ShardViews {
    schedules: Vec<Vec<Placed>>,
    metrics: Vec<ServeMetrics>,
}

/// Deterministically assigns a job to one of the shards it is eligible
/// on (round-robin by job id over the candidates) — the multi-tenant
/// replay's tenancy function.
fn assign_shard(plan: &ShardPlan, grid: &Grid, job: &Job) -> Result<usize, String> {
    let eligible = plan.eligible_shards(grid, job);
    if eligible.is_empty() {
        return Err(format!("job {} fits no site on any shard", job.id));
    }
    Ok(eligible[job.id.0 as usize % eligible.len()])
}

/// Replays `jobs` through a daemon (spawned in-process unless `host`
/// targets an external one) and measures throughput. With `shards > 1`
/// the daemon is sharded and every job is routed explicitly to a shard
/// it is eligible on; with a bounded queue the submitter retries typed
/// `busy` frames until the daemon's timer rounds make room.
fn replay(
    jobs: &[Job],
    grid: &Grid,
    cfg: &ReplayConfig<'_>,
) -> Result<(ReplayReport, Vec<Placed>, ServeMetrics, ShardViews), String> {
    let config = SimConfig::default()
        .with_interval(cfg.interval)
        .with_batch_policy(cfg.policy)
        .with_seed(cfg.seed);
    let options = DaemonOptions {
        clock: if cfg.wall_clock {
            ClockMode::WallClock
        } else {
            ClockMode::Virtual
        },
        max_pending: cfg.max_pending,
        ..DaemonOptions::default()
    };
    let plan = ShardPlan::contiguous(grid, cfg.shards).map_err(|e| e.to_string())?;
    let (daemon, addr) = match cfg.host {
        Some(h) => (None, h.parse().map_err(|_| format!("bad --host `{h}`"))?),
        None => {
            let factory = shard_factory(config, cfg.scheduler, cfg.seed, cfg.quick, cfg.threads);
            let d = Daemon::spawn(grid.clone(), plan.clone(), factory, "127.0.0.1:0", options)
                .map_err(|e| e.to_string())?;
            let addr = d.addr();
            (Some(d), addr)
        }
    };
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;

    // Tag each job with its target shard (None = the daemon derives it;
    // always the case for a 1-shard replay, so the PR 4 path is measured
    // unchanged).
    let tagged: Vec<(Option<usize>, &Job)> = if cfg.shards > 1 {
        jobs.iter()
            .map(|j| Ok((Some(assign_shard(&plan, grid, j)?), j)))
            .collect::<Result<_, String>>()?
    } else {
        jobs.iter().map(|j| (None, j)).collect()
    };

    let pace = cfg.rate.map(|r| Duration::from_secs_f64(1.0 / r));
    let chunk_limit = if pace.is_some() { 1 } else { 10 };
    let t0 = Instant::now();
    let mut sent = 0usize;
    let mut busy_retries = 0usize;
    let mut i = 0usize;
    while i < tagged.len() {
        // A chunk is a run of consecutive jobs bound for the same shard.
        let shard = tagged[i].0;
        let mut end = i + 1;
        while end < tagged.len() && end - i < chunk_limit && tagged[end].0 == shard {
            end += 1;
        }
        if let Some(gap) = pace {
            let due = t0 + gap * sent as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let mut pending: Vec<Job> = tagged[i..end].iter().map(|(_, j)| (*j).clone()).collect();
        loop {
            match client
                .send(&Request::Submit {
                    jobs: pending.clone(),
                    shard,
                    tenant: None,
                })
                .map_err(|e| e.to_string())?
            {
                Response::Accepted { jobs: n, .. } => {
                    sent += n;
                    break;
                }
                Response::Busy { jobs: accepted, .. } => {
                    // The accepted prefix is in; retry the rest after the
                    // daemon's timer rounds free the queue.
                    sent += accepted;
                    pending.drain(..accepted);
                    busy_retries += 1;
                    std::thread::sleep(Duration::from_millis(2));
                }
                other => return Err(format!("submit rejected: {other:?}")),
            }
        }
        i = end;
    }
    match client.send(&Request::Drain).map_err(|e| e.to_string())? {
        Response::Drained { .. } => {}
        other => return Err(format!("drain failed: {other:?}")),
    }
    let replay_secs = t0.elapsed().as_secs_f64();

    let metrics = match client
        .send(&Request::Query {
            what: QueryWhat::Metrics,
            shard: None,
        })
        .map_err(|e| e.to_string())?
    {
        Response::Metrics { metrics } => metrics,
        other => return Err(format!("metrics failed: {other:?}")),
    };
    let assignments = match client
        .send(&Request::Query {
            what: QueryWhat::Schedule,
            shard: None,
        })
        .map_err(|e| e.to_string())?
    {
        Response::Schedule { assignments } => assignments,
        other => return Err(format!("query failed: {other:?}")),
    };
    // Per-shard views (the daemon tells us how many shards it serves, so
    // this works against --host daemons too).
    let n_shards = match client
        .send(&Request::Query {
            what: QueryWhat::Shards,
            shard: None,
        })
        .map_err(|e| e.to_string())?
    {
        Response::Shards { shards } => shards.len(),
        other => return Err(format!("shards query failed: {other:?}")),
    };
    let mut views = ShardViews {
        schedules: Vec::with_capacity(n_shards),
        metrics: Vec::with_capacity(n_shards),
    };
    for k in 0..n_shards {
        match client
            .send(&Request::Query {
                what: QueryWhat::Schedule,
                shard: Some(k),
            })
            .map_err(|e| e.to_string())?
        {
            Response::Schedule { assignments } => views.schedules.push(assignments),
            other => return Err(format!("shard {k} schedule failed: {other:?}")),
        }
        match client
            .send(&Request::Query {
                what: QueryWhat::Metrics,
                shard: Some(k),
            })
            .map_err(|e| e.to_string())?
        {
            Response::Metrics { metrics } => views.metrics.push(metrics),
            other => return Err(format!("shard {k} metrics failed: {other:?}")),
        }
    }
    if let Some(d) = daemon {
        match client.send(&Request::Shutdown).map_err(|e| e.to_string())? {
            Response::Bye => {}
            other => return Err(format!("shutdown failed: {other:?}")),
        }
        d.join();
    }

    // Validate coverage: every job exactly once, on a fitting site.
    let schedule = BatchSchedule::from_pairs(assignments.iter().map(|p| (p.job, p.site)));
    let schedule_valid = schedule.validate(jobs, grid).is_ok();

    let n_rounds = metrics.round_nanos.len().max(1) as f64;
    let micros: Vec<f64> = metrics
        .round_nanos
        .iter()
        .map(|&n| n as f64 / 1e3)
        .collect();
    let report = ReplayReport {
        scheduler: cfg.scheduler.to_string(),
        threads: cfg.threads.unwrap_or(0),
        shards: n_shards,
        busy_retries,
        jobs: sent,
        replay_secs,
        jobs_per_sec: sent as f64 / replay_secs.max(1e-9),
        rounds: metrics.rounds,
        round_micros_mean: micros.iter().sum::<f64>() / n_rounds,
        round_micros_p99: percentile(&micros, 0.99),
        round_micros_max: micros.iter().copied().fold(0.0, f64::max),
        daemon_round_micros_p50: metrics.round_nanos_hist.p50() as f64 / 1e3,
        daemon_round_micros_p99: metrics.round_nanos_hist.p99() as f64 / 1e3,
        scheduler_seconds: metrics.scheduler_seconds,
        batch_size_mean: metrics.batch_sizes.iter().sum::<usize>() as f64
            / metrics.batch_sizes.len().max(1) as f64,
        batch_size_max: metrics.batch_sizes.iter().copied().max().unwrap_or(0),
        makespan: metrics.max_completion.seconds(),
        schedule_valid,
    };
    Ok((report, assignments, metrics, views))
}

/// Nearest-rank percentile (`q` in [0, 1]) of an unsorted sample.
fn percentile(sample: &[f64], q: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn print_report(r: &ReplayReport) {
    println!(
        "{:<10} threads={:<2} shards={:<2} jobs={:<6} wall={:>7.3}s  {:>9.1} jobs/s  rounds={:<4} \
         round µs mean={:>9.1} p99={:>9.1} max={:>9.1}  daemon µs p50={:>9.1} p99={:>9.1}  \
         batch mean={:>5.1} max={:<4} valid={}",
        r.scheduler,
        r.threads,
        r.shards,
        r.jobs,
        r.replay_secs,
        r.jobs_per_sec,
        r.rounds,
        r.round_micros_mean,
        r.round_micros_p99,
        r.round_micros_max,
        r.daemon_round_micros_p50,
        r.daemon_round_micros_p99,
        r.batch_size_mean,
        r.batch_size_max,
        r.schedule_valid,
    );
}

fn run_replay(opts: &Options) -> i32 {
    let n = if opts.quick {
        opts.jobs.min(120)
    } else {
        opts.jobs
    };
    let (jobs, grid) = match build_workload(&opts.workload, n, opts.seed) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let (policy, interval) = match parse_policy(&opts.policy, 1_000.0) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    match &opts.host {
        Some(h) => println!(
            "loadgen: {} jobs ({}) against {h} (the daemon's scheduler/policy apply)",
            jobs.len(),
            opts.workload,
        ),
        None => println!(
            "loadgen: {} jobs ({}) on {} sites, policy {}, scheduler {}",
            jobs.len(),
            opts.workload,
            grid.len(),
            opts.policy,
            opts.scheduler
        ),
    }
    let scheduler_label = if opts.host.is_some() {
        "remote"
    } else {
        opts.scheduler.as_str()
    };
    match replay(
        &jobs,
        &grid,
        &ReplayConfig {
            scheduler: scheduler_label,
            threads: opts.threads,
            policy,
            interval,
            seed: opts.seed,
            quick: opts.quick,
            rate: opts.rate,
            host: opts.host.as_deref(),
            shards: opts.shards,
            wall_clock: opts.wall_clock,
            max_pending: opts.max_pending,
        },
    ) {
        Ok((report, _, _, _)) => {
            print_report(&report);
            if !report.schedule_valid {
                eprintln!("error: served schedule failed validation");
                return 1;
            }
            if report.busy_retries > 0 {
                println!("backpressure: {} busy retries", report.busy_retries);
            }
            if let Some(path) = &opts.json {
                let json = serde_json::to_string_pretty(&report).expect("report serialises");
                std::fs::write(path, json).expect("write report");
                println!("[wrote {path}]");
            }
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// The subset of a `gridsec` scenario spec loadgen needs: the grid, the
/// batching config, and the scenario program. The spec's `scheduler`
/// field is ignored — loadgen's own `--scheduler` flag picks the
/// scheduler, so one spec file drives every suite row.
#[derive(Debug, Clone, Deserialize)]
struct ScenarioFile {
    grid: ScenarioGrid,
    #[serde(default)]
    sim: SimConfig,
    scenario: Scenario,
}

/// Grid selection inside a scenario spec (mirrors the CLI's grammar).
#[derive(Debug, Clone, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
enum ScenarioGrid {
    Sites {
        sites: Vec<Site>,
    },
    Psa {
        #[serde(default)]
        config: PsaConfig,
    },
    Nas {
        #[serde(default)]
        config: NasConfig,
    },
}

fn load_scenario(path: &str) -> Result<(Grid, SimConfig, Scenario), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let file: ScenarioFile =
        serde_json::from_str(&text).map_err(|e| format!("invalid scenario spec {path}: {e}"))?;
    let grid = match file.grid {
        ScenarioGrid::Sites { sites } => Grid::new(sites).map_err(|e| e.to_string())?,
        ScenarioGrid::Psa { config } => config.generate().map_err(|e| e.to_string())?.grid,
        ScenarioGrid::Nas { config } => config.grid().map_err(|e| e.to_string())?,
    };
    Ok((grid, file.sim, file.scenario))
}

/// What a scenario replay produced alongside the throughput report.
struct ScenarioViews {
    per_shard: Vec<Vec<Placed>>,
    metrics: ServeMetrics,
    busy_retries: usize,
}

/// Replays a compiled injection stream through a daemon frame by frame:
/// arrivals are routed to the shard the stream slicer assigns them
/// (round-robin by id over the eligible shards), site events and trust
/// re-ratings become `fail_site` / `rejoin_site` / `reconfigure` frames.
/// Virtual-clock daemons honour the injection instants; wall-clock
/// daemons stamp their own (the soak mode). Typed `busy` frames are
/// retried until the queue drains.
fn replay_scenario(
    stream: &InjectionStream,
    grid: &Grid,
    plan: &ShardPlan,
    config: &SimConfig,
    scheduler: &str,
    opts: &Options,
) -> Result<(ReplayReport, ScenarioViews), String> {
    let n_shards = plan.n_shards();
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
        scheduler,
        opts.seed,
        opts.quick,
        opts.threads,
    );
    let daemon = Daemon::spawn(grid.clone(), plan.clone(), factory, "127.0.0.1:0", options)
        .map_err(|e| e.to_string())?;
    let mut client = Client::connect(daemon.addr()).map_err(|e| e.to_string())?;

    // Wall-clock frames carry no instants (the daemon stamps its own
    // monotonic clock); virtual frames replay the compiled timestamps.
    let instant = |at| if opts.wall_clock { None } else { Some(at) };
    let t0 = Instant::now();
    let mut sent = 0usize;
    let mut busy_retries = 0usize;
    for inj in &stream.events {
        match &inj.kind {
            InjectionKind::Arrive(job) => {
                let eligible = plan.eligible_shards(grid, job);
                if eligible.is_empty() {
                    continue; // typed-rejected by the engine as well
                }
                let shard = Some(eligible[job.id.0 as usize % eligible.len()]);
                loop {
                    match client
                        .send(&Request::Submit {
                            jobs: vec![job.clone()],
                            shard,
                            tenant: None,
                        })
                        .map_err(|e| e.to_string())?
                    {
                        Response::Accepted { jobs: n, .. } => {
                            sent += n;
                            break;
                        }
                        Response::Busy { .. } => {
                            busy_retries += 1;
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        other => return Err(format!("submit rejected: {other:?}")),
                    }
                }
            }
            InjectionKind::SiteFail(site) => {
                match client
                    .send(&Request::FailSite {
                        site: site.0,
                        at: instant(inj.at),
                    })
                    .map_err(|e| e.to_string())?
                {
                    Response::SiteFailed { .. } => {}
                    other => return Err(format!("fail_site rejected: {other:?}")),
                }
            }
            InjectionKind::SiteRejoin(site) => {
                match client
                    .send(&Request::RejoinSite {
                        site: site.0,
                        at: instant(inj.at),
                    })
                    .map_err(|e| e.to_string())?
                {
                    Response::SiteRejoined { .. } => {}
                    other => return Err(format!("rejoin_site rejected: {other:?}")),
                }
            }
            InjectionKind::SetTrust(levels) => {
                match client
                    .send(&Request::Reconfigure {
                        security_levels: levels.clone(),
                        shard: None,
                        at: instant(inj.at),
                    })
                    .map_err(|e| e.to_string())?
                {
                    Response::Reconfigured { .. } => {}
                    other => return Err(format!("reconfigure rejected: {other:?}")),
                }
            }
        }
    }
    // Mid-soak scrape: the injection stream is fully fed but the daemon
    // is still live and scheduling — exactly what a Prometheus collector
    // would see.
    if opts.scrape_metrics {
        let addr = daemon
            .metrics_addr()
            .ok_or("scrape requested but the daemon bound no metrics listener")?;
        scrape_and_check(addr)?;
        println!("metrics scrape OK: all required families present and parseable");
    }
    match client.send(&Request::Drain).map_err(|e| e.to_string())? {
        Response::Drained { .. } => {}
        other => return Err(format!("drain failed: {other:?}")),
    }
    let replay_secs = t0.elapsed().as_secs_f64();
    let metrics = match client
        .send(&Request::Query {
            what: QueryWhat::Metrics,
            shard: None,
        })
        .map_err(|e| e.to_string())?
    {
        Response::Metrics { metrics } => metrics,
        other => return Err(format!("metrics failed: {other:?}")),
    };
    let mut per_shard = Vec::with_capacity(n_shards);
    for k in 0..n_shards {
        match client
            .send(&Request::Query {
                what: QueryWhat::Schedule,
                shard: Some(k),
            })
            .map_err(|e| e.to_string())?
        {
            Response::Schedule { assignments } => per_shard.push(assignments),
            other => return Err(format!("shard {k} schedule failed: {other:?}")),
        }
    }
    match client.send(&Request::Shutdown).map_err(|e| e.to_string())? {
        Response::Bye => {}
        other => return Err(format!("shutdown failed: {other:?}")),
    }
    daemon.join();

    let n_rounds = metrics.round_nanos.len().max(1) as f64;
    let micros: Vec<f64> = metrics
        .round_nanos
        .iter()
        .map(|&n| n as f64 / 1e3)
        .collect();
    let report = ReplayReport {
        scheduler: scheduler.to_string(),
        threads: opts.threads.unwrap_or(0),
        shards: n_shards,
        busy_retries,
        jobs: sent,
        replay_secs,
        jobs_per_sec: sent as f64 / replay_secs.max(1e-9),
        rounds: metrics.rounds,
        round_micros_mean: micros.iter().sum::<f64>() / n_rounds,
        round_micros_p99: percentile(&micros, 0.99),
        round_micros_max: micros.iter().copied().fold(0.0, f64::max),
        daemon_round_micros_p50: metrics.round_nanos_hist.p50() as f64 / 1e3,
        daemon_round_micros_p99: metrics.round_nanos_hist.p99() as f64 / 1e3,
        scheduler_seconds: metrics.scheduler_seconds,
        batch_size_mean: metrics.batch_sizes.iter().sum::<usize>() as f64
            / metrics.batch_sizes.len().max(1) as f64,
        batch_size_max: metrics.batch_sizes.iter().copied().max().unwrap_or(0),
        makespan: metrics.max_completion.seconds(),
        // Coverage is asserted by the caller (ledger + engine
        // cross-check); the flat job-coverage validator does not apply
        // under churn, where requeued jobs legitimately commit twice.
        schedule_valid: true,
    };
    Ok((
        report,
        ScenarioViews {
            per_shard,
            metrics,
            busy_retries,
        },
    ))
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
    if metrics.sites_failed != fails || metrics.sites_rejoined != rejoins {
        return Err(format!(
            "churn counters diverge: daemon saw {}/{} fail/rejoin, stream has {fails}/{rejoins}",
            metrics.sites_failed, metrics.sites_rejoined
        ));
    }
    Ok(())
}

/// `--scenario`: replay a chaos spec through the daemon. Virtual clock
/// additionally proves the committed timeline bit-identical to the
/// in-process engine, shard by shard; wall clock is the soak mode and
/// asserts the accounting only (real-time churn is timing-dependent).
fn run_scenario(opts: &Options) -> i32 {
    let path = opts.scenario.as_deref().expect("checked by the dispatcher");
    let (grid, mut config, scenario) = match load_scenario(path) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    if opts.policy_explicit {
        // An explicit --policy overrides the spec's batching — e.g.
        // `--policy count:4` keeps a wall-clock soak bounded where the
        // spec's periodic interval would mean 30 real seconds per round.
        match parse_policy(&opts.policy, config.schedule_interval.seconds()) {
            Ok((policy, interval)) => {
                config = config.with_batch_policy(policy).with_interval(interval);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        }
    }
    let stream = match scenario.compile(&grid) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let plan = match ShardPlan::contiguous(&grid, opts.shards) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
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
    let (report, views) =
        match replay_scenario(&stream, &grid, &plan, &config, &opts.scheduler, opts) {
            Ok(x) => x,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        };
    print_report(&report);
    if views.busy_retries > 0 {
        println!("backpressure: {} busy retries", views.busy_retries);
    }
    if let Err(e) = assert_scenario_ledger(&views.metrics, &stream, report.jobs) {
        eprintln!("error: {e}");
        return 1;
    }
    println!(
        "ledger OK: {} submitted = {} scheduled + {} pending; churn {} fail / {} rejoin, \
         {} requeued, {} busy rejections",
        views.metrics.jobs_submitted,
        views.metrics.jobs_scheduled,
        views.metrics.pending,
        views.metrics.sites_failed,
        views.metrics.sites_rejoined,
        views.metrics.jobs_requeued,
        views.metrics.busy_rejections,
    );
    if !opts.wall_clock {
        // Engine cross-check: each shard's committed timeline must be
        // bit-identical to a scenario runner replaying that shard's
        // slice on the shard's subgrid.
        for (k, daemon_schedule) in views.per_shard.iter().enumerate() {
            let slice = stream.slice_for_shard(&plan, &grid, k);
            let sub = plan.subgrid(&grid, k).expect("plan matches grid");
            let scheduler =
                match build_scheduler(&opts.scheduler, opts.seed + k as u64, opts.quick, None) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return 1;
                    }
                };
            let outcome =
                match ScenarioRunner::new(sub, scheduler, &config).and_then(|r| r.run(&slice)) {
                    Ok(o) => o,
                    Err(e) => {
                        eprintln!("error: engine replay of shard {k}: {e}");
                        return 1;
                    }
                };
            if !outcome.fully_accounted() {
                eprintln!("error: engine ledger for shard {k} does not balance");
                return 1;
            }
            let translated: Vec<Placed> = outcome
                .timeline
                .iter()
                .map(|&c| {
                    let mut p = Placed::from(c);
                    p.site = plan.to_global(k, p.site);
                    p
                })
                .collect();
            if *daemon_schedule != translated {
                eprintln!(
                    "error: shard {k} daemon timeline diverged from the engine \
                     ({} vs {} commits)",
                    daemon_schedule.len(),
                    translated.len()
                );
                return 1;
            }
        }
        println!(
            "equivalence OK: daemon timeline bit-identical to the engine on all {} shard(s)",
            views.per_shard.len()
        );
    } else {
        println!("soak OK: no lost jobs under wall-clock churn");
    }
    if let Some(path) = &opts.json {
        let json = serde_json::to_string_pretty(&report).expect("report serialises");
        std::fs::write(path, json).expect("write report");
        println!("[wrote {path}]");
    }
    0
}

/// The CI end-to-end smoke: a 50-job SWF slice through the full wire
/// path, cross-checked bit for bit against the in-process engine.
fn run_smoke(opts: &Options) -> i32 {
    // Generate a PSA slice, round-trip it through the SWF text format
    // (write → parse → convert), and serve it on a fully trusted grid so
    // the engine comparison is failure-free.
    let w = match PsaConfig::default()
        .with_n_jobs(50)
        .with_seed(opts.seed)
        .generate()
    {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let swf_text = swf::write(&w.jobs);
    let records = match swf::parse(&swf_text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: SWF re-parse failed: {e}");
            return 1;
        }
    };
    let mut jobs = match swf::to_jobs(&records, &swf::ConvertOptions::default()) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: SWF conversion failed: {e}");
            return 1;
        }
    };
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
    let (policy, interval) = (BatchPolicy::Hybrid(8), Time::new(1_000.0));

    // Reference: the in-process engine on identical inputs.
    let config = SimConfig::default()
        .with_interval(interval)
        .with_batch_policy(policy)
        .with_seed(opts.seed)
        .with_timeline();
    let mut reference = MinMin::new(RiskMode::Risky);
    let engine = match simulate(&jobs, &grid, &mut reference, &config) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: engine reference run failed: {e}");
            return 1;
        }
    };
    let spans = engine.timeline.as_ref().expect("timeline recorded");

    // The served run, over real TCP on an ephemeral port.
    let smoke_config = |shards: usize| ReplayConfig {
        scheduler: "minmin",
        threads: None,
        policy,
        interval,
        seed: opts.seed,
        quick: false,
        rate: None,
        host: None,
        shards,
        wall_clock: false,
        max_pending: None,
    };
    let (report, assignments, metrics, _) = match replay(&jobs, &grid, &smoke_config(1)) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    print_report(&report);
    if !report.schedule_valid {
        eprintln!("error: served schedule failed validation");
        return 1;
    }
    if assignments.len() != spans.len() {
        eprintln!(
            "error: daemon committed {} assignments, engine dispatched {}",
            assignments.len(),
            spans.len()
        );
        return 1;
    }
    for (i, (p, s)) in assignments.iter().zip(spans.spans().iter()).enumerate() {
        if p.job != s.job || p.site != s.site || p.start != s.start || p.end != s.end {
            eprintln!("error: dispatch {i} diverged: daemon {p:?} vs engine {s:?}");
            return 1;
        }
    }
    // The metrics frame must round-trip through the wire encoding
    // losslessly (it already crossed TCP once to get here).
    let frame = gridsec_serve::protocol::encode(&Response::Metrics {
        metrics: metrics.clone(),
    });
    match serde_json::from_str::<Response>(frame.trim()) {
        Ok(Response::Metrics { metrics: back }) if back == metrics => {}
        other => {
            eprintln!("error: metrics did not round-trip through JSON: {other:?}");
            return 1;
        }
    }
    println!(
        "smoke OK: {} jobs, {} rounds, schedule bit-identical to the engine, metrics round-trip",
        report.jobs, report.rounds
    );

    // Phase 2: the same workload against a 2-shard daemon. Each shard's
    // schedule must validate against its own subgrid, and the aggregated
    // metrics must equal the per-shard sums.
    let (report2, _, metrics2, views) = match replay(&jobs, &grid, &smoke_config(2)) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: 2-shard replay: {e}");
            return 1;
        }
    };
    print_report(&report2);
    if !report2.schedule_valid {
        eprintln!("error: 2-shard served schedule failed validation");
        return 1;
    }
    let plan = ShardPlan::contiguous(&grid, 2).expect("2-shard plan over the smoke grid");
    for (k, shard_schedule) in views.schedules.iter().enumerate() {
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
            .filter(|j| assign_shard(&plan, &grid, j).expect("smoke jobs fit somewhere") == k)
            .cloned()
            .collect();
        if let Err(e) = local.validate(&shard_jobs, &sub) {
            eprintln!("error: shard {k} schedule failed validation: {e}");
            return 1;
        }
        if local.len() != shard_jobs.len() {
            eprintln!(
                "error: shard {k} committed {} assignments for {} jobs",
                local.len(),
                shard_jobs.len()
            );
            return 1;
        }
    }
    let merged = ServeMetrics::merge(&views.metrics);
    if merged != metrics2 {
        eprintln!("error: 2-shard aggregated metrics diverge from the per-shard sums");
        return 1;
    }
    println!(
        "smoke OK (2 shards): {} jobs across {} shards, per-shard schedules validate, \
         aggregated metrics equal the per-shard sums",
        report2.jobs,
        views.schedules.len()
    );
    0
}

/// What one elastic replay produced: the stream as actually submitted
/// (suffix re-stamped past the reshard barrier), the final-plan views,
/// and the wall-clock cost of the `reshard` frame round trip.
struct ReshardRun {
    jobs: Vec<Job>,
    metrics: ServeMetrics,
    global: Vec<Placed>,
    per_shard: Vec<Vec<Placed>>,
    jobs_migrated: usize,
    reshard_millis: f64,
}

/// Replays `jobs` through an elastic daemon with a live `from`→`to`
/// reshard halfway through the stream. The suffix is shifted past the
/// next periodic boundary after the last prefix arrival (the barrier
/// drain advances the shard clocks there), so the whole stream stays
/// admissible under the virtual clock.
#[allow(clippy::too_many_arguments)]
fn replay_resharded(
    jobs: &[Job],
    grid: &Grid,
    scheduler: &str,
    from: usize,
    to: usize,
    interval: Time,
    seed: u64,
    quick: bool,
) -> Result<ReshardRun, String> {
    let config = SimConfig::default()
        .with_interval(interval)
        .with_batch_policy(BatchPolicy::Periodic)
        .with_seed(seed);
    let plan1 = ShardPlan::contiguous(grid, from).map_err(|e| e.to_string())?;
    let plan2 = ShardPlan::contiguous(grid, to).map_err(|e| e.to_string())?;
    // Every scheduler the factory builds — the `from` boot shards first,
    // then the `to` respawned ones — gets the next seed, so GA streams
    // stay decorrelated across the swap while remaining deterministic.
    let factory = {
        let scheduler = scheduler.to_string();
        let mut built = 0u64;
        stateless_factory(config, move |_| {
            built += 1;
            build_scheduler(&scheduler, seed + built - 1, quick, None)
        })
    };
    let daemon = Daemon::spawn(
        grid.clone(),
        plan1.clone(),
        factory,
        "127.0.0.1:0",
        DaemonOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    let mut client = Client::connect(daemon.addr()).map_err(|e| e.to_string())?;

    // Re-stamp the suffix past the barrier, preserving its spacing.
    let mid = jobs.len() / 2;
    let max_prefix = jobs[..mid]
        .iter()
        .map(|j| j.arrival.seconds())
        .fold(0.0f64, f64::max);
    let base = ((max_prefix / interval.seconds()).floor() + 2.0) * interval.seconds();
    let mut stream: Vec<Job> = jobs.to_vec();
    if mid < stream.len() {
        let shift = (base - stream[mid].arrival.seconds()).max(0.0);
        for j in &mut stream[mid..] {
            j.arrival = Time::new(j.arrival.seconds() + shift);
        }
    }

    let submit = |client: &mut Client, plan: &ShardPlan, slice: &[Job]| -> Result<(), String> {
        for j in slice {
            let shard = assign_shard(plan, grid, j)?;
            match client
                .send(&Request::Submit {
                    jobs: vec![j.clone()],
                    shard: Some(shard),
                    tenant: None,
                })
                .map_err(|e| e.to_string())?
            {
                Response::Accepted { .. } => {}
                other => return Err(format!("submit rejected: {other:?}")),
            }
        }
        Ok(())
    };
    submit(&mut client, &plan1, &stream[..mid])?;
    let new_shards: Vec<Vec<usize>> = (0..to)
        .map(|k| plan2.sites_of(k).iter().map(|s| s.0).collect())
        .collect();
    let t0 = Instant::now();
    let jobs_migrated = match client
        .send(&Request::Reshard { shards: new_shards })
        .map_err(|e| e.to_string())?
    {
        Response::Resharded {
            shards,
            jobs_migrated,
            ..
        } => {
            if shards != to {
                return Err(format!("resharded to {shards} shards, wanted {to}"));
            }
            jobs_migrated
        }
        other => return Err(format!("reshard failed: {other:?}")),
    };
    let reshard_millis = t0.elapsed().as_secs_f64() * 1_000.0;
    submit(&mut client, &plan2, &stream[mid..])?;
    match client.send(&Request::Drain).map_err(|e| e.to_string())? {
        Response::Drained { .. } => {}
        other => return Err(format!("drain failed: {other:?}")),
    }
    let mut per_shard = Vec::with_capacity(to);
    for k in 0..to {
        match client
            .send(&Request::Query {
                what: QueryWhat::Schedule,
                shard: Some(k),
            })
            .map_err(|e| e.to_string())?
        {
            Response::Schedule { assignments } => per_shard.push(assignments),
            other => return Err(format!("per-shard query failed: {other:?}")),
        }
    }
    let global = match client
        .send(&Request::Query {
            what: QueryWhat::Schedule,
            shard: None,
        })
        .map_err(|e| e.to_string())?
    {
        Response::Schedule { assignments } => assignments,
        other => return Err(format!("schedule query failed: {other:?}")),
    };
    let metrics = match client
        .send(&Request::Query {
            what: QueryWhat::Metrics,
            shard: None,
        })
        .map_err(|e| e.to_string())?
    {
        Response::Metrics { metrics } => metrics,
        other => return Err(format!("metrics query failed: {other:?}")),
    };
    match client.send(&Request::Shutdown).map_err(|e| e.to_string())? {
        Response::Bye => {}
        other => return Err(format!("shutdown failed: {other:?}")),
    }
    daemon.join();
    Ok(ReshardRun {
        jobs: stream,
        metrics,
        global,
        per_shard,
        jobs_migrated,
        reshard_millis,
    })
}

/// Asserts a finished elastic replay lost nothing: the books balance,
/// the aggregated schedule covers every job exactly once on a fitting
/// site, and every post-swap shard commit respects the final plan.
fn check_reshard_run(run: &ReshardRun, grid: &Grid, to: usize) -> Result<(), String> {
    let m = &run.metrics;
    if m.jobs_submitted != run.jobs.len() || m.jobs_scheduled != run.jobs.len() || m.pending != 0 {
        return Err(format!(
            "ledger broken: {} submitted, {} scheduled, {} pending of {} jobs",
            m.jobs_submitted,
            m.jobs_scheduled,
            m.pending,
            run.jobs.len()
        ));
    }
    if m.reshards_completed != 1 {
        return Err(format!(
            "{} reshards recorded, wanted 1",
            m.reshards_completed
        ));
    }
    let schedule = BatchSchedule::from_pairs(run.global.iter().map(|p| (p.job, p.site)));
    schedule
        .validate(&run.jobs, grid)
        .map_err(|e| format!("aggregated schedule invalid: {e}"))?;
    let plan = ShardPlan::contiguous(grid, to).map_err(|e| e.to_string())?;
    for (k, shard) in run.per_shard.iter().enumerate() {
        for p in shard {
            if plan.shard_of(p.site) != Some(k) {
                return Err(format!(
                    "job {} committed to site {} outside shard {k}",
                    p.job, p.site
                ));
            }
        }
    }
    Ok(())
}

/// The CI reshard smoke: a 2-shard daemon split to 4 with half the
/// stream already in, under a periodic policy so pending state actually
/// migrates across the barrier. Schedules must validate on the final
/// topology and the ledger must balance.
fn run_reshard_smoke(opts: &Options) -> i32 {
    let (jobs, grid) = match build_workload("psa", 120, opts.seed) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let run = match replay_resharded(
        &jobs,
        &grid,
        "minmin",
        2,
        4,
        Time::new(1_000.0),
        opts.seed,
        true,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: reshard smoke: {e}");
            return 1;
        }
    };
    if let Err(e) = check_reshard_run(&run, &grid, 4) {
        eprintln!("error: reshard smoke: {e}");
        return 1;
    }
    println!(
        "reshard smoke OK: {} jobs across a 2→4 split ({} migrated, barrier {:.1} ms), \
         schedules validate on the final topology, ledger balanced",
        run.jobs.len(),
        run.jobs_migrated,
        run.reshard_millis,
    );
    0
}

// ---------------------------------------------------------------------
// `--connections`: the C10k check.
// ---------------------------------------------------------------------

/// The result of one `--connections` run.
#[derive(Debug, Clone)]
struct ConnectionsReport {
    connections: usize,
    /// Lock-step requests completed per connection.
    requests_per_connection: usize,
    /// Jobs accepted end-to-end (wire + routing + shard enqueue).
    jobs: usize,
    /// Wall-clock seconds from the first request to the last reply.
    drive_secs: f64,
    jobs_per_sec: f64,
    /// Per-request round trip, microseconds.
    rtt_micros_p50: f64,
    rtt_micros_p99: f64,
    rtt_micros_max: f64,
    /// OS threads in the daemon process while all connections were live.
    /// Flat across rows — the event loop holds every connection on a
    /// fixed pool (the acceptance bound is ≤ 2 threads per 1000 idle
    /// connections; the pool is ~7 threads total at any scale).
    daemon_threads: usize,
    /// OS threads in the client-engine process (itself one epoll loop).
    client_threads: usize,
    /// Connections the daemon counted at peak (sanity: equals the row).
    daemon_connections: usize,
}

/// One lock-step client inside the engine's event loop.
struct DriveConn {
    stream: std::net::TcpStream,
    /// Bytes of the current request not yet written.
    out: Vec<u8>,
    out_pos: usize,
    /// Reply bytes accumulated up to (not yet including) a newline.
    line: Vec<u8>,
    /// Requests still to send after the in-flight one completes.
    remaining: usize,
    /// When the in-flight request's first byte was queued.
    sent_at: Instant,
    /// Completed round-trip times.
    rtts: Vec<Duration>,
    next_job: u64,
    shard: usize,
    want_write: bool,
    done: bool,
}

impl DriveConn {
    /// Queues the next submit frame (one job, explicit shard).
    fn arm(&mut self) {
        let job = Job::builder(self.next_job)
            .arrival(Time::new(0.0))
            .work(10.0)
            .security_demand(0.5)
            .build()
            .expect("static job validates");
        self.next_job += 1;
        let req = Request::Submit {
            jobs: vec![job],
            shard: Some(self.shard),
            tenant: None,
        };
        let mut frame = serde_json::to_string(&req).expect("request serialises");
        frame.push('\n');
        self.out = frame.into_bytes();
        self.out_pos = 0;
        self.sent_at = Instant::now();
    }
}

/// Drives `n` concurrent lock-step connections against `addr` with one
/// epoll loop (the client-side mirror of the daemon's event layer) and
/// returns the per-request RTTs. Each connection submits
/// `requests_per_connection` one-job frames with globally unique ids.
fn drive_connections(
    addr: std::net::SocketAddr,
    n: usize,
    requests_per_connection: usize,
    n_shards: usize,
) -> Result<Vec<DriveConn>, String> {
    use std::os::unix::io::AsRawFd as _;
    let poller = epoll::Poller::new().map_err(|e| format!("epoll: {e}"))?;
    let mut conns: Vec<DriveConn> = Vec::with_capacity(n);
    for i in 0..n {
        // Loopback connects are immediate; retry absorbs transient
        // accept-backlog overflow while the daemon catches up.
        let stream = loop {
            match std::net::TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;
        stream.set_nodelay(true).ok();
        let mut conn = DriveConn {
            stream,
            out: Vec::new(),
            out_pos: 0,
            line: Vec::new(),
            remaining: requests_per_connection - 1,
            sent_at: Instant::now(),
            rtts: Vec::with_capacity(requests_per_connection),
            next_job: (i * requests_per_connection) as u64,
            shard: i % n_shards,
            want_write: false,
            done: false,
        };
        conn.arm();
        poller
            .add(
                conn.stream.as_raw_fd(),
                i as u64,
                epoll::Interest::READ_WRITE,
            )
            .map_err(|e| format!("epoll add: {e}"))?;
        conn.want_write = true;
        conns.push(conn);
    }

    use std::io::{Read as _, Write as _};
    let mut events = epoll::Events::with_capacity(1024);
    let mut live = n;
    let mut scratch = [0u8; 16 * 1024];
    let deadline = Instant::now() + Duration::from_secs(600);
    while live > 0 {
        if Instant::now() > deadline {
            return Err(format!(
                "drive timed out with {live} connections unfinished"
            ));
        }
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .map_err(|e| format!("epoll wait: {e}"))?;
        for ev in events.iter() {
            let i = ev.key as usize;
            let conn = &mut conns[i];
            if conn.done {
                continue;
            }
            if ev.writable {
                while conn.out_pos < conn.out.len() {
                    match conn.stream.write(&conn.out[conn.out_pos..]) {
                        Ok(0) => return Err(format!("connection {i}: write returned 0")),
                        Ok(k) => conn.out_pos += k,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(format!("connection {i}: write: {e}")),
                    }
                }
            }
            if ev.readable {
                loop {
                    match conn.stream.read(&mut scratch) {
                        Ok(0) => return Err(format!("connection {i}: daemon closed early")),
                        Ok(k) => {
                            for &b in &scratch[..k] {
                                if b != b'\n' {
                                    conn.line.push(b);
                                    continue;
                                }
                                let resp: Response = serde_json::from_slice(&conn.line)
                                    .map_err(|e| format!("connection {i}: bad reply: {e}"))?;
                                if !matches!(resp, Response::Accepted { .. }) {
                                    return Err(format!("connection {i}: rejected: {resp:?}"));
                                }
                                conn.rtts.push(conn.sent_at.elapsed());
                                conn.line.clear();
                                if conn.remaining > 0 {
                                    conn.remaining -= 1;
                                    conn.arm();
                                } else {
                                    conn.done = true;
                                    live -= 1;
                                }
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(format!("connection {i}: read: {e}")),
                    }
                    if conn.done {
                        break;
                    }
                }
            }
            // Re-arm write interest only while a request is unflushed —
            // level-triggered EPOLLOUT on an idle socket would spin.
            let want_write = !conn.done && conn.out_pos < conn.out.len();
            if want_write != conn.want_write {
                conn.want_write = want_write;
                let interest = if want_write {
                    epoll::Interest::READ_WRITE
                } else {
                    epoll::Interest::READ
                };
                poller
                    .modify(conn.stream.as_raw_fd(), i as u64, interest)
                    .map_err(|e| format!("epoll modify: {e}"))?;
            }
        }
    }
    Ok(conns)
}

/// OS threads of a live process (`/proc/<pid>/status`); 0 off-Linux.
fn process_threads_of(pid: u32) -> usize {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// Shard count of the `--connections` benchmark daemon.
const CONNECTIONS_SHARDS: usize = 2;

/// The hidden child mode behind `--connections`: serve the benchmark
/// daemon in a process of its own. Both sides of 10 000 connections
/// cannot share one process under a 20 000-fd `RLIMIT_NOFILE` ceiling,
/// and a separate process also keeps the daemon's thread count honestly
/// measurable from the outside (`/proc/<pid>/status`). Prints the wire
/// and metrics addresses, then serves until the shutdown frame.
fn run_connections_daemon() -> i32 {
    let grid = Grid::new(vec![
        Site::builder(0).nodes(8).speed(1.0).build().unwrap(),
        Site::builder(1).nodes(8).speed(1.0).build().unwrap(),
    ])
    .expect("static grid validates");
    let config = SimConfig::default()
        .with_interval(Time::new(1_000.0))
        .with_batch_policy(BatchPolicy::Periodic);
    let plan = ShardPlan::contiguous(&grid, CONNECTIONS_SHARDS).expect("plan fits grid");
    let daemon = match Daemon::spawn(
        grid,
        plan,
        stateless_factory(config, |_| Ok(Box::new(EarliestCompletion))),
        "127.0.0.1:0",
        DaemonOptions {
            metrics_addr: Some("127.0.0.1:0".into()),
            ..DaemonOptions::default()
        },
    ) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: benchmark daemon failed to start: {e}");
            return 1;
        }
    };
    println!("ADDR {}", daemon.addr());
    println!(
        "METRICS {}",
        daemon.metrics_addr().expect("metrics listener bound")
    );
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    daemon.join(); // exits when the parent sends `shutdown`
    0
}

/// The benchmark daemon running in a child process. Killed on drop so
/// an errored row cannot leak a process.
struct DaemonChild {
    child: std::process::Child,
    addr: std::net::SocketAddr,
    metrics: std::net::SocketAddr,
}

impl Drop for DaemonChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_connections_daemon() -> Result<DaemonChild, String> {
    use std::io::BufRead as _;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = std::process::Command::new(exe)
        .arg("--serve-connections-daemon")
        .stdout(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn benchmark daemon: {e}"))?;
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let mut read_addr = |tag: &str| -> Result<std::net::SocketAddr, String> {
        let line = lines
            .next()
            .ok_or_else(|| format!("daemon exited before printing {tag}"))?
            .map_err(|e| e.to_string())?;
        line.strip_prefix(tag)
            .and_then(|r| r.trim().parse().ok())
            .ok_or_else(|| format!("unexpected daemon banner line: {line:?}"))
    };
    let addr = read_addr("ADDR ")?;
    let metrics = read_addr("METRICS ")?;
    Ok(DaemonChild {
        child,
        addr,
        metrics,
    })
}

/// Reads the daemon's `gridsec_connections` gauge off its exposition
/// page — the cross-process stand-in for `Daemon::connections()`.
fn scrape_connections_gauge(addr: std::net::SocketAddr) -> Result<usize, String> {
    use std::io::Read as _;
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .map_err(|e| e.to_string())?;
    text.lines()
        .find_map(|l| l.strip_prefix("gridsec_connections "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|v| v as usize)
        .ok_or_else(|| "exposition page lacks gridsec_connections".into())
}

/// One row: spawn a fresh benchmark daemon (own process), drive `n`
/// connections, collect RTTs.
fn connections_row(n: usize, requests_per_connection: usize) -> Result<ConnectionsReport, String> {
    let daemon = spawn_connections_daemon()?;

    let t0 = Instant::now();
    let conns = drive_connections(daemon.addr, n, requests_per_connection, CONNECTIONS_SHARDS)?;
    let drive_secs = t0.elapsed().as_secs_f64();
    // Everything is still connected: sample thread counts and the
    // daemon's own connection gauge at peak. The scrape itself rides a
    // separate listener, so it does not perturb the count.
    let daemon_threads = process_threads_of(daemon.child.id());
    let client_threads = process_threads_of(std::process::id());
    let daemon_connections = scrape_connections_gauge(daemon.metrics)?;

    let micros: Vec<f64> = conns
        .iter()
        .flat_map(|c| c.rtts.iter().map(|d| d.as_secs_f64() * 1e6))
        .collect();
    let jobs = micros.len();
    drop(conns); // close the engine's sockets before the shutdown client
    let mut client = Client::connect(daemon.addr).map_err(|e| e.to_string())?;
    match client.send(&Request::Shutdown).map_err(|e| e.to_string())? {
        Response::Bye => {}
        other => return Err(format!("shutdown failed: {other:?}")),
    }
    drop(daemon); // reaps the (already exiting) child

    Ok(ConnectionsReport {
        connections: n,
        requests_per_connection,
        jobs,
        drive_secs,
        jobs_per_sec: jobs as f64 / drive_secs.max(1e-9),
        rtt_micros_p50: percentile(&micros, 0.50),
        rtt_micros_p99: percentile(&micros, 0.99),
        rtt_micros_max: micros.iter().copied().fold(0.0, f64::max),
        daemon_threads,
        client_threads,
        daemon_connections,
    })
}

fn print_connections_row(r: &ConnectionsReport) {
    println!(
        "connections={:<6} requests/conn={:<3} jobs={:<7} wall={:>7.3}s  {:>9.1} jobs/s  \
         rtt µs p50={:>8.1} p99={:>8.1} max={:>9.1}  daemon_threads={} client_threads={} \
         daemon_conns={}",
        r.connections,
        r.requests_per_connection,
        r.jobs,
        r.drive_secs,
        r.jobs_per_sec,
        r.rtt_micros_p50,
        r.rtt_micros_p99,
        r.rtt_micros_max,
        r.daemon_threads,
        r.client_threads,
        r.daemon_connections,
    );
}

fn run_connections(n: usize) -> i32 {
    // One client fd per connection in this process (the daemon's side
    // lives in the child, under its own limit): lift the nofile limit
    // up front so 10k connections don't hit EMFILE.
    let wanted = n as u64 + 512;
    match epoll::raise_nofile_limit(wanted) {
        Ok(limit) if limit < wanted => {
            eprintln!("warning: nofile limit {limit} < {wanted}; large runs may fail");
        }
        Ok(_) => {}
        Err(e) => eprintln!("warning: cannot raise nofile limit: {e}"),
    }
    match connections_row(n, if n >= 1000 { 4 } else { 40 }) {
        Ok(row) => {
            print_connections_row(&row);
            if row.daemon_connections != n {
                eprintln!(
                    "error: daemon counted {} connections, expected {n}",
                    row.daemon_connections
                );
                return 1;
            }
            0
        }
        Err(e) => {
            eprintln!("error: connections={n}: {e}");
            1
        }
    }
}

//! One run of one workload: set-up, `saturate`, `paced`, drain, ledger,
//! shutdown — and, when asked, the traced pass.
//!
//! The shape is identical for every workload:
//!
//! 1. **setup** (timed as `setup_s`, done [`SETUP_REPS`] times and the
//!    median reported): generate the inputs from the seed, boot the
//!    daemon, push the verify slice through one connection and check the
//!    served schedule, ramp the connections, warm up closed-loop;
//! 2. **saturate**: closed loop, five windows, the host reference read in
//!    a gap before and after each;
//! 3. **paced**: open loop, three steps at the workload's fixed offered
//!    rates, timed from due time;
//! 4. `drain`, ledger check, `shutdown`, reap the child.
//!
//! A control connection sends one frame every 50 ms through 2 and 3.

use crate::affinity;
use crate::daemon::{self, Daemon, ProcSample};
use crate::host;
use crate::layers;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::reference::{self, Reference};
use crate::stats;
use crate::trace;
use crate::wire::{self, FramePool, Gen, Kind, Pacer, Tag};
use crate::workloads::{RunShape, Workload, GAP_NS, LATENCY_STEP, VERIFY_JOBS, WINDOWS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Times set-up is done per run (the last one is measured on).
pub const SETUP_REPS: usize = 3;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Seed of the generated jobs and arrival pattern.
    pub seed: u64,
    /// Seconds of measurement (`saturate` + `paced`).
    pub seconds: f64,
    /// Also run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Set-up once instead of [`SETUP_REPS`] times.
    pub single_setup: bool,
}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Verify slice, ledger and quality pin all held.
    pub correct: bool,
    /// Frames sent.
    pub attempted: u64,
    /// Frames that failed (busy, refused, error, unanswered, out of
    /// order, on a connection the daemon closed).
    pub failed: u64,
    /// End-to-end metrics by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (complete only with `trace`).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Relative spread of the five windows, for the metrics that have one.
    pub window_spread: BTreeMap<&'static str, f64>,
    /// Sample counts behind the percentiles, by metric name.
    pub samples: BTreeMap<&'static str, usize>,
    /// Jobs accepted per second in each `saturate` window, host-normalised.
    pub window_jobs_per_s: Vec<f64>,
    /// The host reference around each window ÷ its nominal reading.
    pub window_slowdown: Vec<f64>,
    /// The host reference's first and last readings differ by more than a
    /// tenth.
    pub noisy: bool,
    /// Anything a reader of the numbers should know.
    pub notes: Vec<String>,
}

struct Booted {
    daemon: Daemon,
    gen: Gen,
    inputs: layers::Inputs,
    pool: FramePool,
    setup_s: f64,
    /// The daemon's peak RSS once set-up is done (a fixed number of jobs
    /// in: the verify slice and the warm-up).
    rss_mb: f64,
    /// The paced steps' due-time schedules, as fractions of a step
    /// (`None`: evenly spaced).
    arrivals: Option<[Vec<f64>; 3]>,
}

/// Frames of one paced step.
fn step_frames(w: &Workload, shape: &RunShape, step: usize) -> usize {
    (w.rates[step] * shape.step_ns[step] as f64 / 1e9 / w.jobs_per_frame as f64).round() as usize
}

fn spec_path(w: &Workload) -> Result<PathBuf, String> {
    std::fs::create_dir_all(daemon::WORK_DIR)
        .map_err(|e| format!("cannot create {}: {e}", daemon::WORK_DIR))?;
    Ok(Path::new(daemon::WORK_DIR).join(format!("{}-{}.json", w.name, std::process::id())))
}

/// Set-up, from the launch of the workload to just before the first
/// timed request.
fn set_up(
    w: &Workload,
    seed: u64,
    shape: &RunShape,
    bin: &Path,
    cpus: Option<&affinity::Split>,
) -> Result<Booted, String> {
    let started = Instant::now();
    let inputs = layers::generate(w, seed)?;
    let arrivals = if w.mixed_control {
        let step =
            |k: usize| layers::bursty_arrivals(&inputs, seed + k as u64, step_frames(w, shape, k));
        Some([step(0)?, step(1)?, step(2)?])
    } else {
        None
    };
    let spec = spec_path(w)?;
    std::fs::write(&spec, inputs.spec_json()).map_err(|e| format!("{}: {e}", spec.display()))?;
    let daemon = Daemon::boot(bin, &spec, w.shards, cpus)?;
    let pool = FramePool::new(inputs.job_tails()?, w.jobs_per_frame);
    let mut gen = Gen::new(
        daemon.addr,
        pool.clone(),
        w.mixed_control,
        &inputs.security_levels(),
        cpus.is_some(),
    )?;
    let placed = gen.verify_slice(VERIFY_JOBS, w.shards)?;
    inputs.verify_slice(&placed)?;
    gen.ramp(daemon.addr, w.conns, w.shards)?;
    gen.closed_loop_jobs(Tag::Setup, w.warmup_jobs as u64)?;
    let (_, rss_mb) = daemon.threads_and_peak_rss_mb()?;
    Ok(Booted {
        daemon,
        gen,
        inputs,
        pool,
        setup_s: started.elapsed().as_secs_f64(),
        rss_mb,
        arrivals,
    })
}

fn tear_down(mut booted: Booted) -> Result<(), String> {
    booted.gen.settle()?;
    booted.gen.shutdown()?;
    booted.daemon.reap(Duration::from_secs(30))
}

fn cpu_s(a: &ProcSample, b: &ProcSample) -> f64 {
    (b.utime_s - a.utime_s) + (b.stime_s - a.stime_s)
}

/// Runs `w` once.
pub fn run_workload(
    w: &Workload,
    cfg: RunConfig,
    bin: &Path,
    cpus: Option<&affinity::Split>,
    reference: &Reference,
) -> Result<RunResult, String> {
    let shape = RunShape::new(cfg.seconds);
    let mut notes = Vec::new();

    // --- setup, several times; measure on the last ---
    let reps = if cfg.single_setup { 1 } else { SETUP_REPS };
    let mut setup_times = Vec::with_capacity(reps);
    let mut booted = set_up(w, cfg.seed, &shape, bin, cpus)?;
    setup_times.push(booted.setup_s);
    for _ in 1..reps {
        tear_down(booted)?;
        booted = set_up(w, cfg.seed, &shape, bin, cpus)?;
        setup_times.push(booted.setup_s);
    }
    let Booted {
        daemon,
        mut gen,
        inputs,
        pool,
        rss_mb: setup_rss_mb,
        arrivals,
        ..
    } = booted;
    let setup_jobs = gen.counters.jobs_accepted;
    let boot_s = daemon.boot_s;

    // --- saturate: closed loop, five windows, the host reference read in
    // the gap before and after each ---
    let m0 = gen.metrics()?;
    let own0 = daemon::own_cpu_s();
    gen.start_control();
    let read_gap = |gen: &mut Gen| reference.during(|| gen.idle_for(GAP_NS));
    let mut gaps = vec![read_gap(&mut gen)?];
    let mut procs = Vec::with_capacity(WINDOWS);
    let mut window_jobs = Vec::with_capacity(WINDOWS);
    let mut window_s = Vec::with_capacity(WINDOWS);
    for _ in 0..WINDOWS {
        let start = gen.now();
        let before = daemon.sample()?;
        let (jobs, last_ns) = gen.closed_loop(Tag::Saturate, start + shape.window_ns)?;
        procs.push((before, daemon.sample()?));
        window_jobs.push(jobs as f64);
        window_s.push((last_ns - start) as f64 / 1e9);
        gaps.push(read_gap(&mut gen)?);
    }
    let own_cpu = daemon::own_cpu_s() - own0;
    let m1 = gen.metrics()?;
    let sat_jobs: f64 = window_jobs.iter().sum();
    let sat_s: f64 = window_s.iter().sum();
    if window_jobs.contains(&0.0) {
        return Err("a saturate window accepted no job".into());
    }
    // How slow the host was around each window, against the nominal host.
    let slowdown = gaps
        .windows(2)
        .map(|g| reference::reading(&g[0], &g[1]).map(|ns| ns / reference::NOMINAL_NS))
        .collect::<Option<Vec<f64>>>()
        .ok_or("the host reference recorded nothing in a gap")?;
    let raw_rate: Vec<f64> = window_jobs
        .iter()
        .zip(&window_s)
        .map(|(j, s)| j / s)
        .collect();
    let raw_cpu_us: Vec<f64> = window_jobs
        .iter()
        .zip(&procs)
        .map(|(jobs, (a, b))| cpu_s(a, b) * 1e6 / jobs)
        .collect();
    let window_rate: Vec<f64> = raw_rate.iter().zip(&slowdown).map(|(r, k)| r * k).collect();
    let window_cpu_us: Vec<f64> = raw_cpu_us
        .iter()
        .zip(&slowdown)
        .map(|(c, k)| c / k)
        .collect();
    let (p_first, p_last) = (procs[0].0, procs[WINDOWS - 1].1);
    let gap_reading_ms = |gap: &reference::Gap| reference::reading(gap, gap).unwrap_or(0.0) / 1e6;
    let (calib_before, calib_after) = (gap_reading_ms(&gaps[0]), gap_reading_ms(&gaps[WINDOWS]));

    // --- paced: open loop, three steps ---
    for step in 0..3 {
        let start = gen.now();
        let span = shape.step_ns[step];
        let pacer = match &arrivals {
            Some(bursty) => Pacer::listed(start, span, &bursty[step]),
            None => Pacer::even(start, span, step_frames(w, &shape, step)),
        };
        gen.paced_step(step, pacer, start + span)?;
    }
    gen.stop_control()?;
    gen.settle()?;

    // --- drain, ledger, shutdown ---
    let telemetry = gen.telemetry()?;
    gen.drain()?;
    let m2 = gen.metrics()?;
    let ledger = wire::check_ledger(gen.counters.jobs_accepted, &m2);
    let (threads, final_rss_mb) = daemon.threads_and_peak_rss_mb()?;
    gen.shutdown()?;
    daemon.reap(Duration::from_secs(30))?;
    let mut correct = true;
    if let Err(e) = &ledger {
        correct = false;
        notes.push(e.clone());
    }

    // --- end-to-end metrics ---
    let mut e2e: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut samples: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut spread: BTreeMap<&'static str, f64> = BTreeMap::new();
    e2e.insert("setup_s", stats::median(&setup_times));
    e2e.insert("jobs_per_s", stats::median(&window_rate));
    spread.insert("jobs_per_s", stats::relative_spread(&window_rate));
    samples.insert("jobs_per_s", WINDOWS);
    e2e.insert("daemon_cpu_us_per_job", stats::median(&window_cpu_us));
    spread.insert(
        "daemon_cpu_us_per_job",
        stats::relative_spread(&window_cpu_us),
    );
    samples.insert("daemon_cpu_us_per_job", WINDOWS);
    e2e.insert("daemon_rss_mb", setup_rss_mb);

    // --- per-layer metrics from the wire, /proc and the generator ---
    let mut pl: BTreeMap<&'static str, f64> = BTreeMap::new();
    let c = &gen.counters;
    pl.insert(
        "serve.conn.connect_us_p50",
        wire::percentile_us(&mut gen.connect_ns, 0.50),
    );
    pl.insert(
        "serve.conn.connect_us_p99",
        wire::percentile_us(&mut gen.connect_ns, 0.99),
    );
    pl.insert("serve.conn.ramp_s", gen.ramp_s);
    pl.insert(
        "serve.conn.cpu_sys_us_per_job",
        (p_last.stime_s - p_first.stime_s) * 1e6 / sat_jobs,
    );
    pl.insert(
        "serve.conn.ctx_switches_per_job",
        // Saturating: a reshard retires shard threads and their counts.
        p_last.ctx_switches.saturating_sub(p_first.ctx_switches) as f64 / sat_jobs,
    );
    let jobs_accepted = c.jobs_accepted.max(1) as f64;
    pl.insert(
        "serve.conn.bytes_in_per_job",
        c.bytes_in as f64 / jobs_accepted,
    );
    pl.insert(
        "serve.conn.bytes_out_per_job",
        c.bytes_out as f64 / jobs_accepted,
    );
    pl.insert("serve.conn.peer_closed", c.peer_closed as f64);
    pl.insert("serve.daemon.boot_s", boot_s);
    pl.insert("serve.daemon.threads", threads as f64);
    pl.insert(
        "serve.daemon.rss_bytes_per_job",
        (final_rss_mb - setup_rss_mb) * 1024.0 * 1024.0
            / (c.jobs_accepted - setup_jobs).max(1) as f64,
    );
    pl.insert(
        "serve.daemon.cpu_user_us_per_job",
        (p_last.utime_s - p_first.utime_s) * 1e6 / sat_jobs,
    );
    // Demoted from the end-to-end table (see the README): run-to-run
    // differences above a tenth on this class of host.
    let step_rtt = &mut gen.step_rtt;
    let latency = &mut step_rtt[LATENCY_STEP];
    samples.insert("submit_rtt_p50_us", latency.len());
    samples.insert("submit_rtt_p99_us", latency.len());
    pl.insert("submit_rtt_p50_us", wire::percentile_us(latency, 0.50));
    pl.insert("submit_rtt_p99_us", wire::percentile_us(latency, 0.99));
    let control = &gen.control_rtt;
    let control_of = |kinds: &[Kind]| -> Vec<u64> {
        let of_kind = control
            .iter()
            .filter(|(k, _)| kinds.is_empty() || kinds.contains(k));
        of_kind.map(|&(_, rtt)| rtt).collect()
    };
    let mut control_all = control_of(&[]);
    samples.insert("control_rtt_p50_us", control_all.len());
    samples.insert("control_rtt_p90_us", control_all.len());
    pl.insert(
        "control_rtt_p50_us",
        wire::percentile_us(&mut control_all, 0.50),
    );
    pl.insert(
        "control_rtt_p90_us",
        wire::percentile_us(&mut control_all, 0.90),
    );
    pl.insert(
        "serve.daemon.control_rtt_us_p99",
        wire::percentile_us(&mut control_all, 0.99),
    );
    pl.insert(
        "ops_failed_ratio",
        c.failed() as f64 / c.frames.max(1) as f64,
    );
    pl.insert("saturate.jobs_per_s_raw", stats::median(&raw_rate));
    pl.insert("saturate.cpu_us_per_job_raw", stats::median(&raw_cpu_us));
    pl.insert("host.slowdown", stats::median(&slowdown));
    let kind_p50 = |kinds: &[Kind]| wire::percentile_us(&mut control_of(kinds), 0.5);
    let mut reshard_rtt = control_of(&[Kind::Reshard]);
    pl.insert("serve.daemon.query_rtt_us_p50", kind_p50(&[Kind::Metrics]));
    pl.insert(
        "serve.daemon.telemetry_rtt_us_p50",
        kind_p50(&[Kind::Telemetry]),
    );
    pl.insert(
        "serve.daemon.reconfigure_rtt_us_p50",
        kind_p50(&[Kind::Reconfigure]),
    );
    pl.insert(
        "serve.daemon.failsite_rtt_us_p50",
        kind_p50(&[Kind::FailSite, Kind::RejoinSite]),
    );
    // Round latencies: the exact recent window the daemon keeps, as of
    // the end of saturate.
    let mut rounds_ns = m1.round_nanos.clone();
    pl.insert(
        "serve.shard.round_us_p50",
        wire::percentile_us(&mut rounds_ns, 0.50),
    );
    pl.insert(
        "serve.shard.round_us_p99",
        wire::percentile_us(&mut rounds_ns, 0.99),
    );
    let sat_rounds = (m1.rounds - m0.rounds) as f64;
    pl.insert("serve.shard.rounds", sat_rounds);
    pl.insert(
        "serve.shard.batch_size_mean",
        (m1.jobs_scheduled - m0.jobs_scheduled) as f64 / sat_rounds.max(1.0),
    );
    pl.insert("serve.shard.busy_rejections", m2.busy_rejections as f64);
    pl.insert(
        "serve.shard.queue_wait_us_p50",
        telemetry.queue_wait().p50_upper() as f64,
    );
    pl.insert(
        "serve.shard.round_busy_ratio",
        (m1.scheduler_seconds - m0.scheduler_seconds) / sat_s,
    );
    pl.insert(
        "serve.reshard.rtt_ms_p50",
        wire::percentile_us(&mut reshard_rtt, 0.5) / 1e3,
    );
    pl.insert(
        "serve.reshard.rtt_ms_max",
        wire::percentile_us(&mut reshard_rtt, 1.0) / 1e3,
    );
    pl.insert("serve.reshard.rtt_samples", reshard_rtt.len() as f64);
    pl.insert("serve.reshard.jobs_migrated", c.jobs_migrated as f64);
    let mut late_all: Vec<u64> = gen.late_ns.iter().flatten().copied().collect();
    pl.insert("gen.late_us_p99", wire::percentile_us(&mut late_all, 0.99));
    pl.insert("gen.cpu_us_per_job", own_cpu * 1e6 / sat_jobs);
    pl.insert(
        "gen.window_cv",
        stats::coefficient_of_variation(&window_rate),
    );
    pl.insert(
        "gen.drift_ratio",
        window_rate[WINDOWS - 1] / window_rate[0].max(1.0),
    );
    let p99_of = |rtt: &mut Vec<u64>| wire::percentile_us(rtt, 0.99);
    pl.insert(
        "paced.r20.rtt_p50_us",
        wire::percentile_us(&mut step_rtt[0], 0.50),
    );
    pl.insert("paced.r20.rtt_p99_us", p99_of(&mut step_rtt[0]));
    pl.insert(
        "paced.r40.rtt_p90_us",
        wire::percentile_us(&mut step_rtt[1], 0.90),
    );
    pl.insert(
        "paced.r80.rtt_p50_us",
        wire::percentile_us(&mut step_rtt[2], 0.50),
    );
    pl.insert("paced.r80.rtt_p99_us", p99_of(&mut step_rtt[2]));
    let slo_ns = (w.slo_us * 1e3) as u64;
    let latency = &step_rtt[LATENCY_STEP];
    let missed = latency.iter().filter(|&&r| r > slo_ns).count() as u64 + c.failed();
    pl.insert(
        "paced.slo_miss_ratio",
        missed as f64 / (latency.len() as u64 + c.failed()).max(1) as f64,
    );
    // The highest offered rate whose p99 met the limit while the
    // generator itself kept up (its own lateness under half the limit).
    let mut under_slo = 0.0;
    for (step, rtt) in step_rtt.iter_mut().enumerate() {
        let late_p99 = wire::percentile_us(&mut gen.late_ns[step], 0.99);
        if p99_of(rtt) <= w.slo_us && late_p99 <= w.slo_us / 2.0 {
            under_slo = w.rates[step];
        }
    }
    pl.insert("paced.rate_under_slo", under_slo);
    pl.insert("host.calib_ms_before", calib_before);
    pl.insert("host.calib_ms_after", calib_after);
    let r20_p50_us = pl["paced.r20.rtt_p50_us"];

    // --- the traced pass ---
    if cfg.trace {
        let frames = wire::first_frames(&pool, w.trace_frames, w.conns, w.shards);
        let report = layers::traced_pass(w, &inputs, &frames)?;
        let path = Path::new(daemon::WORK_DIR).join("spans.ndjson");
        trace::write_ndjson(&report.spans, &path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        pl.extend(report.metrics);
        // By construction: residual + Σ traced stages = the wire RTT.
        pl.insert("serve.conn.residual_us", r20_p50_us - report.stage_sum_us);
    }

    // The driver refuses a result line that lacks a metric of BENCHMARK.json.
    let missing = |catalogue: &[Metric], values: &BTreeMap<&'static str, f64>| {
        catalogue
            .iter()
            .map(|m| m.name)
            .find(|name| !values.contains_key(name))
    };
    let layers_due: &[Metric] = if cfg.trace { PER_LAYER } else { &[] };
    if let Some(name) = missing(END_TO_END, &e2e).or(missing(layers_due, &pl)) {
        return Err(format!("metric `{name}` of the catalogue was not measured"));
    }

    if let Some(failure) = gen.first_failure.take() {
        notes.push(format!("first failed frame: {failure}"));
    }
    let drift = pl["gen.drift_ratio"];
    if !(0.9..=1.1).contains(&drift) {
        notes.push(format!(
            "gen.drift_ratio {drift:.3}: window 5 ran at {:.0} jobs/s against {:.0} in window 1",
            window_rate[WINDOWS - 1],
            window_rate[0]
        ));
    }
    let noisy = host::is_noisy(calib_before, calib_after);
    if noisy {
        notes.push(format!(
            "noisy: the host reference read {:.1} us before and {:.1} us after",
            calib_before * 1e3,
            calib_after * 1e3
        ));
    }
    Ok(RunResult {
        correct,
        attempted: c.frames,
        failed: c.failed(),
        end_to_end: e2e,
        per_layer: pl,
        window_spread: spread,
        samples,
        window_jobs_per_s: window_rate,
        window_slowdown: slowdown,
        noisy,
        notes,
    })
}

//! The one adapter between the benchmark and the program's crates.
//!
//! Every direct call into `gridsec-core`, `-workloads`, `-heuristics`,
//! `-sim`, `-stga` and `-serve` lives in this file: generating a
//! workload's inputs, checking a served schedule, and the traced pass
//! that times each layer's public functions in-process. Everything else
//! in the benchmark knows only the `gridsec serve` command line and the
//! NDJSON wire, so a refactor of the crates' APIs breaks this file at
//! most.
//!
//! Layer names are module names: `serve.protocol`, `serve.session`,
//! `serve.reshard`, `sim`, `heuristics`, `core`, `stga`, `workloads`,
//! `vendor`.

use crate::stats;
use crate::trace;
use crate::workloads::{
    GridKind, Policy, SchedKind, Workload, GRID_SEED, NAS_MAX_RUNTIME, NAS_MIN_RUNTIME, POOL_JOBS,
    PSA_MAX_WORK, VERIFY_JOBS,
};
use gridsec_core::etc::{EtcMatrix, NodeAvailability};
use gridsec_core::rng::{stream, Stream};
use gridsec_core::{BatchSchedule, Grid, Job, JobId, RiskMode, SecurityModel, SiteId, Time};
use gridsec_heuristics::common::MapCtx;
use gridsec_heuristics::{mapping, Fallback, Mct, MinMin, Sufferage};
use gridsec_serve::protocol::{encode, parse_request};
use gridsec_serve::{transfer, OnlineSession, Request, Response, ShardStateExport};
use gridsec_sim::{
    simulate, ArrivalPhase, ArrivalProcess, BatchJob, BatchPolicy, BatchScheduler, GridView,
    RoundDriver, Scenario, ShardPlan, SimConfig,
};
use gridsec_stga::fitness::{FitnessKind, DEFAULT_FLOW_WEIGHT};
use gridsec_stga::{
    evolve_with_pool, BatchSignature, Chromosome, FitnessKernel, GaParams, GaPool, HistoryTable,
    KernelScratch, Stga, StgaParams,
};
use gridsec_workloads::{NasConfig, PsaConfig};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// STGA training batch size (the daemon's `train_batch`).
const TRAIN_BATCH: usize = 16;

/// Sizes the in-process worker pool like the daemon's `--threads 1`, so
/// traced-pass timings are comparable with the rounds the daemon runs.
pub fn single_worker_thread() -> Result<(), String> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build_global()
        .map_err(err("worker pool"))
}

/// A workload's generated inputs: the grid the daemon serves, the spec
/// file it boots from, and the job pool the generator submits.
pub struct Inputs {
    grid: Grid,
    /// Pool jobs, ids `0..POOL_JOBS`, generated from `--seed`.
    jobs: Vec<Job>,
    /// The daemon's STGA training jobs (generated from [`GRID_SEED`]).
    training: Vec<Job>,
    spec_json: String,
}

fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn psa_config(n_jobs: usize, seed: u64) -> PsaConfig {
    PsaConfig {
        n_jobs,
        max_work: PSA_MAX_WORK,
        seed,
        ..PsaConfig::default()
    }
}

fn nas_config(n_jobs: usize, seed: u64) -> NasConfig {
    NasConfig {
        n_jobs,
        min_runtime: NAS_MIN_RUNTIME,
        max_runtime: NAS_MAX_RUNTIME,
        seed,
        ..NasConfig::default()
    }
}

fn sim_config(w: &Workload) -> SimConfig {
    let policy = match w.policy {
        Policy::Hybrid(n) => BatchPolicy::Hybrid(n),
        Policy::Count(n) => BatchPolicy::CountTriggered(n),
    };
    SimConfig::default()
        .with_interval(Time::new(w.interval_s))
        .with_batch_policy(policy)
}

/// Generates a workload's inputs. The grid (and the daemon's training
/// jobs) come from [`GRID_SEED`]; the submitted jobs from `seed`.
pub fn generate(w: &Workload, seed: u64) -> Result<Inputs, String> {
    let training_jobs = StgaParams::default().training_jobs;
    let (grid, training, jobs, workload_json) = match w.grid {
        GridKind::Psa => {
            let served = psa_config(training_jobs, GRID_SEED);
            let base = served.generate().map_err(err("psa grid"))?;
            let pool = psa_config(POOL_JOBS, seed)
                .generate()
                .map_err(err("psa jobs"))?;
            let json = serde_json::to_string(&served).map_err(err("psa config"))?;
            (
                base.grid,
                base.jobs,
                pool.jobs,
                format!("{{\"kind\":\"psa\",\"config\":{json}}}"),
            )
        }
        GridKind::Nas => {
            let served = nas_config(training_jobs, GRID_SEED);
            let base = served.generate().map_err(err("nas grid"))?;
            let pool = nas_config(POOL_JOBS, seed)
                .generate()
                .map_err(err("nas jobs"))?;
            let json = serde_json::to_string(&served).map_err(err("nas config"))?;
            (
                base.grid,
                base.jobs,
                pool.jobs,
                format!("{{\"kind\":\"nas\",\"config\":{json}}}"),
            )
        }
    };
    let scheduler_json = match w.sched {
        SchedKind::MctRisky => "{\"algorithm\":\"mct\",\"mode\":\"Risky\"}".to_string(),
        SchedKind::SufferageRisky => "{\"algorithm\":\"sufferage\",\"mode\":\"Risky\"}".to_string(),
        SchedKind::MinMinHalfRisky => {
            "{\"algorithm\":\"min_min\",\"mode\":{\"FRisky\":0.5}}".to_string()
        }
        SchedKind::StgaTable1 => format!(
            "{{\"algorithm\":\"stga\",\"params\":{},\"train_batch\":{TRAIN_BATCH}}}",
            serde_json::to_string(&StgaParams::default()).map_err(err("stga params"))?
        ),
    };
    let sim_json = serde_json::to_string(&sim_config(w)).map_err(err("sim config"))?;
    let spec_json = format!(
        "{{\"workload\":{workload_json},\"schedulers\":[{scheduler_json}],\"sim\":{sim_json}}}\n"
    );
    Ok(Inputs {
        grid,
        jobs,
        training,
        spec_json,
    })
}

impl Inputs {
    /// The experiment spec `gridsec serve` boots from.
    pub fn spec_json(&self) -> &str {
        &self.spec_json
    }

    /// The grid's own security levels (a `reconfigure` frame that re-rates
    /// every site to its current level: the full path, unchanged results).
    pub fn security_levels(&self) -> Vec<f64> {
        self.grid.security_levels().collect()
    }

    /// Every pool job as the JSON text that follows its id on the wire:
    /// `{"id":<n>` + tail is exactly the program's own serialisation.
    pub fn job_tails(&self) -> Result<Vec<String>, String> {
        self.jobs
            .iter()
            .map(|job| {
                let text = serde_json::to_string(job).map_err(err("job"))?;
                let prefix = format!("{{\"id\":{}", job.id.0);
                text.strip_prefix(&prefix)
                    .map(str::to_string)
                    .ok_or_else(|| format!("job serialisation does not start with its id: {text}"))
            })
            .collect()
    }

    /// Checks the served schedule of the verify slice: every one of the
    /// first [`VERIFY_JOBS`] pool jobs placed exactly once, on an existing
    /// site it fits (`BatchSchedule::validate`).
    pub fn verify_slice(&self, placed: &[(u64, usize)]) -> Result<(), String> {
        let schedule =
            BatchSchedule::from_pairs(placed.iter().map(|&(job, site)| (JobId(job), SiteId(site))));
        schedule
            .validate(&self.jobs[..VERIFY_JOBS], &self.grid)
            .map_err(err("verify slice"))
    }
}

/// The scheduler a workload's daemon runs, built the way `gridsec serve`
/// builds it (an STGA trains on the jobs that fit the shard's subgrid).
fn scheduler(w: &Workload, training: &[Job], grid: &Grid) -> Box<dyn BatchScheduler + Send> {
    match w.sched {
        SchedKind::MctRisky => Box::new(Mct::new(RiskMode::Risky)),
        SchedKind::SufferageRisky => Box::new(Sufferage::new(RiskMode::Risky)),
        SchedKind::MinMinHalfRisky => Box::new(MinMin::new(RiskMode::FRisky(0.5))),
        SchedKind::StgaTable1 => {
            let mut stga = Stga::new(StgaParams::default()).expect("Table-1 parameters are valid");
            let fitting: Vec<Job> = training
                .iter()
                .filter(|j| grid.sites().any(|s| s.fits_width(j.width)))
                .cloned()
                .collect();
            stga.train(&fitting, grid, TRAIN_BATCH)
                .expect("training jobs fit the grid");
            Box::new(stga)
        }
    }
}

/// A scheduler that records a span around every `schedule` call — the
/// one layer boundary only reachable from inside the session.
struct Traced(Box<dyn BatchScheduler + Send>);

impl BatchScheduler for Traced {
    fn name(&self) -> String {
        self.0.name()
    }

    fn schedule(&mut self, batch: &[BatchJob], view: &GridView<'_>) -> BatchSchedule {
        let _s = trace::span("sched.schedule");
        self.0.schedule(batch, view)
    }

    fn on_reconfigure(&mut self) {
        self.0.on_reconfigure();
    }
}

/// The daemon's submit path, rebuilt in-process from the same public
/// functions: `parse_request` → `ShardPlan::route` →
/// `OnlineSession::submit_bounded_as` (→ round → scheduler) → `encode`.
struct Pipeline {
    grid: Grid,
    plan: ShardPlan,
    sessions: Vec<OnlineSession>,
    /// The stamp the next job gets (strictly increasing, like the
    /// wall-clock daemon's arrival stamps).
    clock: f64,
}

/// Virtual seconds between consecutive in-process arrival stamps.
const REPLAY_TICK: f64 = 1e-6;

impl Pipeline {
    fn new(w: &Workload, inputs: &Inputs) -> Result<Pipeline, String> {
        let plan = ShardPlan::contiguous(&inputs.grid, w.shards).map_err(err("shard plan"))?;
        let config = sim_config(w);
        let mut sessions = Vec::with_capacity(w.shards);
        for k in 0..w.shards {
            let sub = plan.subgrid(&inputs.grid, k).map_err(err("subgrid"))?;
            let sched = Traced(scheduler(w, &inputs.training, &sub));
            sessions
                .push(OnlineSession::new(sub, Box::new(sched), &config).map_err(err("session"))?);
        }
        Ok(Pipeline {
            grid: inputs.grid.clone(),
            plan,
            sessions,
            clock: 0.0,
        })
    }

    /// Replays `frames` (connection `i % conns`, sequence `i / conns`),
    /// returning the jobs accepted and the reply bytes produced.
    fn replay(&mut self, frames: &[Vec<u8>], conns: usize) -> Result<(usize, usize), String> {
        let mut accepted = 0usize;
        let mut reply_bytes = 0usize;
        for (i, frame) in frames.iter().enumerate() {
            trace::set_request((i % conns) as u32, (i / conns) as u32);
            let _request = trace::span("request");
            let request = {
                let _s = trace::span("serve.protocol.decode");
                parse_request(frame)?
            };
            let Some(Request::Submit {
                jobs,
                shard,
                tenant,
            }) = request
            else {
                return Err(format!("frame {i} is not a submit frame"));
            };
            let target = {
                let _s = trace::span("sim.route");
                for job in &jobs {
                    black_box(self.plan.route(&self.grid, job));
                }
                shard.ok_or_else(|| format!("frame {i} names no shard"))?
            };
            let session = self
                .sessions
                .get_mut(target)
                .ok_or_else(|| format!("frame {i} names shard {target}"))?;
            let n = jobs.len();
            {
                let _s = trace::span("serve.session.submit");
                for mut job in jobs {
                    job.arrival = Time::new(self.clock);
                    self.clock += REPLAY_TICK;
                    session
                        .submit_bounded_as(job, None, tenant.as_deref())
                        .map_err(err("submit"))?;
                }
            }
            let line = {
                let _s = trace::span("serve.protocol.encode");
                encode(&Response::Accepted {
                    jobs: n,
                    shard: target,
                    pending: session.pending(),
                    rounds: session.rounds_run(),
                })
            };
            accepted += n;
            reply_bytes += black_box(line).len();
        }
        Ok((accepted, reply_bytes))
    }
}

/// What the traced pass produced.
pub struct TraceReport {
    /// Per-layer metrics measured in-process, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Σ of the traced stage medians on a submit's blocking path (decode +
    /// route + enqueue + encode), µs — what `serve.conn.residual_us`
    /// subtracts from the wire RTT.
    pub stage_sum_us: f64,
    /// Every span of the traced replay.
    pub spans: Vec<trace::Span>,
}

/// Median wall-clock nanoseconds of `reps` calls of `f`.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&samples)
}

fn median_u64(samples: &[u64]) -> f64 {
    let mut s = samples.to_vec();
    stats::percentile(&mut s, 0.5) as f64
}

fn idle_avail(grid: &Grid) -> Vec<NodeAvailability> {
    grid.sites()
        .map(|s| NodeAvailability::new(s.nodes, Time::ZERO))
        .collect()
}

fn batch_of(jobs: &[Job]) -> Vec<BatchJob> {
    jobs.iter()
        .cloned()
        .map(|job| BatchJob {
            job,
            secure_only: false,
        })
        .collect()
}

/// The Eq. 2 signature of a batch against an availability snapshot (the
/// STGA's own `signature_of` is private; this is the same three vectors).
fn signature(ctx: &MapCtx, avail: &[NodeAvailability], batch: &[BatchJob]) -> BatchSignature {
    let readies: Vec<f64> = avail.iter().map(|a| a.ready_time().seconds()).collect();
    let base = readies.iter().copied().fold(f64::INFINITY, f64::min);
    let base = if base.is_finite() { base } else { 0.0 };
    BatchSignature {
        ready_times: readies.iter().map(|r| r - base).collect(),
        etc: ctx.etc.raw().to_vec(),
        demands: batch.iter().map(|b| b.job.security_demand).collect(),
    }
}

/// 32-bit FNV-1a over a byte stream.
fn fnv32(bytes: impl Iterator<Item = u8>) -> u32 {
    bytes.fold(0x811c_9dc5u32, |h, b| {
        (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
    })
}

/// The quality pin: the workload's scheduler through the discrete-event
/// engine on the verify slice. Arrivals are re-spaced so the squeezed
/// jobs load the grid to about 70 %, otherwise every job would find an
/// idle grid and the schedule would not depend on the scheduler.
fn quality_pin(
    w: &Workload,
    inputs: &Inputs,
    out: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let mut jobs: Vec<Job> = inputs.jobs[..VERIFY_JOBS].to_vec();
    let mean_node_seconds = jobs
        .iter()
        .map(|j| j.work * f64::from(j.width))
        .sum::<f64>()
        / jobs.len() as f64;
    let gap = mean_node_seconds / (0.7 * inputs.grid.total_power());
    for (i, job) in jobs.iter_mut().enumerate() {
        job.arrival = Time::new(i as f64 * gap);
    }
    let batch = match w.policy {
        Policy::Hybrid(n) | Policy::Count(n) => n,
    };
    let config = sim_config(w)
        .with_interval(Time::new(gap * batch as f64 * 4.0))
        .with_timeline();
    let mut sched = scheduler(w, &inputs.training, &inputs.grid);
    let t = Instant::now();
    let output = simulate(&jobs, &inputs.grid, sched.as_mut(), &config).map_err(err("simulate"))?;
    let secs = t.elapsed().as_secs_f64();
    let timeline = output
        .timeline
        .as_ref()
        .ok_or("simulate returned no timeline")?;
    let digest = fnv32(timeline.spans().iter().flat_map(|s| {
        s.job
            .0
            .to_le_bytes()
            .into_iter()
            .chain((s.site.0 as u64).to_le_bytes())
            .chain(s.start.seconds().to_bits().to_le_bytes())
            .chain(s.end.seconds().to_bits().to_le_bytes())
            .chain([u8::from(s.failed)])
    }));
    out.insert("sim.engine_jobs_per_s", jobs.len() as f64 / secs);
    out.insert("sim.verify_makespan_s", output.metrics.makespan.seconds());
    out.insert("sim.verify_schedule_fnv32", f64::from(digest));
    Ok(())
}

/// `RoundDriver::run_round` with the workload's scheduler and batch size.
fn round_times(w: &Workload, inputs: &Inputs) -> Result<Vec<u64>, String> {
    let (batch, rounds) = match w.policy {
        Policy::Hybrid(n) => (n, 40),
        Policy::Count(n) => (n, 8),
    };
    let config = sim_config(w);
    let mut driver = RoundDriver::new(
        inputs.grid.clone(),
        config.batch_policy,
        config.security,
        config.max_replicas,
    );
    let mut sched = scheduler(w, &inputs.training, &inputs.grid);
    let mut samples = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let now = Time::new(r as f64 * 1e-3);
        for job in &inputs.jobs[r * batch..(r + 1) * batch] {
            let mut job = job.clone();
            job.arrival = now;
            driver.enqueue(BatchJob {
                job,
                secure_only: false,
            });
        }
        let t = Instant::now();
        let outcome = driver
            .run_round(sched.as_mut(), now)
            .map_err(err("run_round"))?
            .ok_or("run_round found nothing pending")?;
        samples.push(t.elapsed().as_nanos() as u64);
        let by_id: BTreeMap<u64, &Job> =
            outcome.batch.iter().map(|b| (b.job.id.0, &b.job)).collect();
        for a in &outcome.schedule.assignments {
            driver.commit_assignment(by_id[&a.job.0], a.site, now);
        }
    }
    Ok(samples)
}

/// A mapping heuristic: `(job, site)` pairs for a compiled batch.
type MapFn = fn(&MapCtx, &mut [NodeAvailability]) -> Vec<(usize, usize)>;

/// Times the mapping heuristics, the core data structures and the STGA's
/// building blocks on the workload's own grid and jobs.
fn compute_layers(w: &Workload, inputs: &Inputs, out: &mut BTreeMap<&'static str, f64>) {
    let grid = &inputs.grid;
    let avail = idle_avail(grid);
    let view = GridView {
        grid,
        avail: &avail,
        now: Time::ZERO,
        model: SecurityModel::default(),
    };
    let b16 = batch_of(&inputs.jobs[..16]);
    let b1024 = batch_of(&inputs.jobs[..1024]);
    let ctx16 = MapCtx::build(&b16, &view, RiskMode::Risky, Fallback::default());
    let ctx1024 = MapCtx::build(&b1024, &view, RiskMode::Risky, Fallback::default());

    // heuristics
    let map_us = |ctx: &MapCtx, f: MapFn, reps| {
        median_ns(reps, || {
            let mut a = avail.clone();
            black_box(f(ctx, &mut a));
        }) / 1e3
    };
    out.insert(
        "heuristics.map_min_min_us_b16",
        map_us(&ctx16, mapping::map_min_min, 200),
    );
    out.insert(
        "heuristics.map_min_min_us_b1024",
        map_us(&ctx1024, mapping::map_min_min, 5),
    );
    out.insert(
        "heuristics.map_sufferage_us_b16",
        map_us(&ctx16, mapping::map_sufferage, 200),
    );
    out.insert(
        "heuristics.map_sufferage_us_b1024",
        map_us(&ctx1024, mapping::map_sufferage, 5),
    );
    let mut mct = Mct::new(RiskMode::Risky);
    out.insert(
        "heuristics.mct_ns_per_job",
        median_ns(20, || {
            black_box(mct.schedule(&b1024, &view));
        }) / 1024.0,
    );

    // core
    out.insert(
        "core.avail_commit_ns",
        median_ns(20, || {
            // Multi-node: a 16-node site, 4-node jobs.
            let mut a = NodeAvailability::new(16, Time::ZERO);
            for i in 0..1_000 {
                a.commit(4, Time::new(f64::from(i)));
            }
            black_box(a);
        }) / 1_000.0,
    );
    let jobs1024: Vec<Job> = inputs.jobs[..1024].to_vec();
    out.insert(
        "core.etc_build_us_b1024",
        median_ns(50, || {
            black_box(EtcMatrix::build(&jobs1024, grid));
        }) / 1e3,
    );
    let verify = &inputs.jobs[..VERIFY_JOBS];
    let fits: Vec<SiteId> = verify.iter().map(|j| grid.fitting_sites(j)[0]).collect();
    let schedule = BatchSchedule::from_pairs(verify.iter().zip(&fits).map(|(j, &s)| (j.id, s)));
    out.insert(
        "core.schedule_validate_us",
        median_ns(20, || {
            black_box(schedule.validate(verify, grid)).expect("every job is on a site it fits");
        }) / 1e3,
    );

    // stga
    out.insert(
        "stga.kernel_compile_us",
        median_ns(200, || {
            black_box(FitnessKernel::compile(
                &ctx16,
                &avail,
                FitnessKind::Makespan,
                None,
                DEFAULT_FLOW_WEIGHT,
            ));
        }) / 1e3,
    );
    let kernel = FitnessKernel::compile(
        &ctx16,
        &avail,
        FitnessKind::Makespan,
        None,
        DEFAULT_FLOW_WEIGHT,
    );
    let mut rng = stream(GRID_SEED, Stream::Genetic);
    let population: Vec<Chromosome> = (0..200)
        .map(|_| Chromosome::random(&ctx16.candidates, &mut rng))
        .collect();
    let mut scratch = KernelScratch::default();
    let mut cts = Vec::new();
    out.insert(
        "stga.evaluate_full_ns_per_gene",
        median_ns(50, || {
            for c in &population {
                black_box(kernel.evaluate_full(c.genes(), &mut cts, &mut scratch));
            }
        }) / (200.0 * 16.0),
    );
    let parent = &population[0];
    let mut parent_cts = Vec::new();
    kernel.evaluate_full(parent.genes(), &mut parent_cts, &mut scratch);
    let children: Vec<Vec<u16>> = (0..200)
        .map(|i| {
            let j = i % 16;
            let cands = &ctx16.candidates[j];
            let mut genes = parent.genes().to_vec();
            genes[j] = cands[i % cands.len()] as u16;
            genes
        })
        .collect();
    out.insert(
        "stga.evaluate_delta_ns",
        median_ns(50, || {
            for (i, genes) in children.iter().enumerate() {
                black_box(kernel.evaluate_delta(
                    genes,
                    parent.genes(),
                    &parent_cts,
                    i % 16,
                    &mut cts,
                    &mut scratch,
                ));
            }
        }) / 200.0,
    );
    let params = GaParams::default();
    let mut pool = GaPool::new();
    out.insert(
        "stga.evolve_ms_per_round",
        median_ns(7, || {
            let mut rng = stream(GRID_SEED, Stream::Genetic);
            black_box(evolve_with_pool(
                &ctx16,
                &avail,
                vec![],
                &params,
                FitnessKind::Makespan,
                None,
                &mut rng,
                &mut pool,
            ));
        }) / 1e6,
    );
    // The history table over the workload's own batch sequence: each
    // batch looks itself up, then is inserted with its Min-Min plan.
    let stga_params = StgaParams::default();
    let mut table = HistoryTable::new(stga_params.table_capacity);
    let (mut lookups, mut inserts, mut hits) = (Vec::new(), Vec::new(), 0usize);
    let batches = 300;
    for chunk in inputs.jobs[..batches * 16].chunks(16) {
        let batch = batch_of(chunk);
        let ctx = MapCtx::build(&batch, &view, RiskMode::Risky, Fallback::default());
        let sig = signature(&ctx, &avail, &batch);
        let t = Instant::now();
        let found = table.lookup(&sig, stga_params.similarity_threshold, 10);
        lookups.push(t.elapsed().as_nanos() as u64);
        hits += usize::from(!found.is_empty());
        let mut a = avail.clone();
        let mut genes = vec![0u16; chunk.len()];
        for (j, s) in mapping::map_min_min(&ctx, &mut a) {
            genes[j] = s as u16;
        }
        let t = Instant::now();
        table.insert(sig, Chromosome::from_genes(genes));
        inserts.push(t.elapsed().as_nanos() as u64);
    }
    out.insert("stga.history_lookup_us", median_u64(&lookups) / 1e3);
    out.insert("stga.history_insert_us", median_u64(&inserts) / 1e3);
    out.insert("stga.history_hit_ratio", hits as f64 / batches as f64);
    out.insert(
        "stga.train_s",
        median_ns(5, || {
            let mut stga = Stga::new(stga_params).expect("Table-1 parameters are valid");
            stga.train(&inputs.training, grid, TRAIN_BATCH)
                .expect("training jobs fit the grid");
            black_box(stga);
        }) / 1e9,
    );

    // workloads
    let generate_ns = median_ns(3, || {
        black_box(generate(w, GRID_SEED).expect("inputs generate"));
    });
    out.insert(
        "workloads.generate_jobs_per_s",
        POOL_JOBS as f64 / (generate_ns / 1e9),
    );

    // vendor
    let items: Vec<u64> = (0..200).collect();
    out.insert(
        "vendor.rayon.dispatch_us",
        median_ns(200, || {
            let v: Vec<u64> = items.par_iter().map(|x| x + 1).collect();
            black_box(v);
        }) / 1e3,
    );
}

/// The bursty arrival pattern of `mixed-control-c16`'s paced steps: a
/// Poisson and a heavy-tailed Pareto tenant merged by the program's own
/// scenario compiler, returned as arrival instants scaled to `[0, 1]`.
/// The caller stretches them over a step, which fixes the step's mean
/// rate exactly whatever the sampled gaps were.
pub fn bursty_arrivals(inputs: &Inputs, seed: u64, n: usize) -> Result<Vec<f64>, String> {
    let phase = |tenant: &str, process| ArrivalPhase {
        tenant: tenant.into(),
        start: 0.0,
        end: 4.0 * n as f64,
        process,
        width_min: 1,
        width_max: 1,
        work_min: 1.0,
        work_max: 1.0,
        sd_min: 0.6,
        sd_max: 0.9,
    };
    let scenario = Scenario {
        seed,
        arrivals: vec![
            phase("steady", ArrivalProcess::Poisson { rate: 0.5 }),
            phase(
                "bursty",
                ArrivalProcess::Pareto {
                    rate: 0.5,
                    alpha: 1.5,
                },
            ),
        ],
        faults: vec![],
        trust: vec![],
        max_jobs: Some(n),
    };
    let stream = scenario.compile(&inputs.grid).map_err(err("scenario"))?;
    let times: Vec<f64> = stream.events.iter().map(|e| e.at.seconds()).collect();
    if times.len() < n {
        return Err(format!("scenario produced {} of {n} arrivals", times.len()));
    }
    let span = times[n - 1].max(f64::MIN_POSITIVE);
    Ok(times[..n].iter().map(|t| t / span).collect())
}

/// The traced pass: replays `frames` through the in-process pipeline
/// untraced and traced, times each layer's public functions on the
/// workload's inputs, and runs the quality pin.
pub fn traced_pass(
    w: &Workload,
    inputs: &Inputs,
    frames: &[Vec<u8>],
) -> Result<TraceReport, String> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let n_frames = frames.len() as f64;
    let n_jobs = n_frames * w.jobs_per_frame as f64;

    // The same replay untraced, then traced: the difference is what
    // tracing costs.
    let mut plain = Pipeline::new(w, inputs)?;
    let t = Instant::now();
    plain.replay(frames, w.conns)?;
    let untraced_s = t.elapsed().as_secs_f64();
    let mut pipeline = Pipeline::new(w, inputs)?;
    trace::start(frames.len() * 6);
    let t = Instant::now();
    let replayed = pipeline.replay(frames, w.conns);
    let traced_s = t.elapsed().as_secs_f64();
    let spans = trace::finish();
    let (accepted, reply_bytes) = replayed?;
    if accepted as f64 != n_jobs {
        return Err(format!("replay accepted {accepted} of {n_jobs} jobs"));
    }
    out.insert("trace.spans", spans.len() as f64);
    out.insert("trace.overhead_ratio", traced_s / untraced_s);

    // Stage self times from the spans.
    let own = trace::self_times(&spans);
    let mut has_child = vec![false; spans.len()];
    for s in &spans {
        if s.parent != u32::MAX {
            has_child[s.parent as usize] = true;
        }
    }
    let (mut decode, mut route, mut enqueue, mut encode_t) = (vec![], vec![], vec![], vec![]);
    for (i, s) in spans.iter().enumerate() {
        match s.name {
            "serve.protocol.decode" => decode.push(own[i]),
            "sim.route" => route.push(own[i]),
            // A submit that fired a round has the scheduler as a child;
            // one that only enqueued is on every request's blocking path.
            "serve.session.submit" if !has_child[i] => enqueue.push(own[i]),
            "serve.protocol.encode" => encode_t.push(own[i]),
            _ => {}
        }
    }
    let per_frame = w.jobs_per_frame as f64;
    let (decode_ns, route_ns, enqueue_ns, encode_ns) = (
        median_u64(&decode),
        median_u64(&route),
        median_u64(&enqueue),
        median_u64(&encode_t),
    );
    let frame_bytes = frames.iter().map(Vec::len).sum::<usize>() as f64;
    out.insert("serve.protocol.decode_ns_per_frame", decode_ns);
    out.insert("serve.protocol.decode_ns_per_job", decode_ns / per_frame);
    out.insert("serve.protocol.encode_ns_per_frame", encode_ns);
    out.insert("serve.protocol.frame_bytes_mean", frame_bytes / n_frames);
    out.insert(
        "serve.protocol.reply_bytes_mean",
        reply_bytes as f64 / n_frames,
    );
    out.insert("sim.route_ns_per_job", route_ns / per_frame);
    out.insert("serve.session.enqueue_ns_per_job", enqueue_ns / per_frame);
    let stage_sum_us = (decode_ns + route_ns + enqueue_ns + encode_ns) / 1e3;

    // The tail flush, then the reshard transfer of the drained state.
    let t = Instant::now();
    for session in &mut pipeline.sessions {
        session.drain().map_err(err("drain"))?;
    }
    out.insert("serve.session.drain_ms", t.elapsed().as_secs_f64() * 1e3);
    let exports: Vec<ShardStateExport> = pipeline
        .sessions
        .iter()
        .enumerate()
        .map(|(k, session)| {
            let st = session.export_state();
            let global = |local: SiteId| pipeline.plan.to_global(k, local);
            ShardStateExport {
                shard: k,
                clock: st.clock,
                sites: st
                    .sites
                    .into_iter()
                    .enumerate()
                    .map(|(i, (free, offline))| (global(SiteId(i)), free, offline))
                    .collect(),
                pending: st.pending,
                inflight: st
                    .inflight
                    .into_iter()
                    .map(|(job, site, end)| (job, global(site), end))
                    .collect(),
                live: st.live,
                known: st.known,
                tenants: st.tenants,
                history_json: None,
                metrics: session.metrics(),
                schedule: session.assignments().to_vec(),
            }
        })
        .collect();
    let wider = ShardPlan::contiguous(&inputs.grid, w.shards * 2).map_err(err("wider plan"))?;
    out.insert(
        "serve.reshard.transfer_us",
        median_ns(5, || {
            black_box(transfer(&inputs.grid, &pipeline.plan, &exports, &wider))
                .expect("a contiguous plan over the same grid transfers");
        }) / 1e3,
    );

    // The vendored parser on the workload's own frame bytes.
    let t = Instant::now();
    for frame in frames {
        black_box(serde_json::from_slice::<Request>(frame)).map_err(err("frame"))?;
    }
    out.insert(
        "vendor.serde_json.parse_mb_per_s",
        frame_bytes / 1e6 / t.elapsed().as_secs_f64(),
    );

    out.insert(
        "sim.round_us_p50",
        median_u64(&round_times(w, inputs)?) / 1e3,
    );
    let t = Instant::now();
    bursty_arrivals(inputs, GRID_SEED, 20_000)?;
    out.insert("sim.scenario_compile_ms", t.elapsed().as_secs_f64() * 1e3);
    quality_pin(w, inputs, &mut out)?;
    compute_layers(w, inputs, &mut out);

    Ok(TraceReport {
        metrics: out,
        stage_sum_us,
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let w = &WORKLOADS[0];
        let a = generate(w, 7).unwrap();
        let b = generate(w, 7).unwrap();
        let c = generate(w, 8).unwrap();
        assert_eq!(a.jobs, b.jobs);
        assert_ne!(a.jobs, c.jobs);
        // The grid is the workload's, not the seed's.
        assert_eq!(a.grid, c.grid);
        assert_eq!(a.spec_json, c.spec_json);
        assert_eq!(a.jobs.len(), POOL_JOBS);
    }

    #[test]
    fn job_tails_rebuild_the_programs_own_serialisation() {
        let inputs = generate(&WORKLOADS[2], 2005).unwrap();
        let tails = inputs.job_tails().unwrap();
        for (job, tail) in inputs.jobs.iter().zip(&tails).take(50) {
            let text = format!("{{\"id\":{}{tail}", job.id.0);
            let back: Job = serde_json::from_str(&text).unwrap();
            assert_eq!(&back, job);
        }
    }

    #[test]
    fn verify_slice_flags_a_lost_and_a_misplaced_job() {
        let inputs = generate(&WORKLOADS[2], 2005).unwrap();
        let good: Vec<(u64, usize)> = inputs.jobs[..VERIFY_JOBS]
            .iter()
            .map(|j| (j.id.0, inputs.grid.fitting_sites(j)[0].0))
            .collect();
        assert!(inputs.verify_slice(&good).is_ok());
        assert!(inputs.verify_slice(&good[1..]).is_err(), "lost job");
        let mut twice = good.clone();
        twice[5] = twice[4];
        assert!(inputs.verify_slice(&twice).is_err(), "duplicate placement");
        let mut nowhere = good.clone();
        nowhere[0].1 = 99;
        assert!(inputs.verify_slice(&nowhere).is_err(), "unknown site");
    }

    #[test]
    fn bursty_arrivals_are_sorted_and_span_the_unit_interval() {
        let inputs = generate(&WORKLOADS[3], 1).unwrap();
        let a = bursty_arrivals(&inputs, 1, 500).unwrap();
        assert_eq!(a.len(), 500);
        assert!(a.windows(2).all(|p| p[0] <= p[1]));
        assert!(a[0] >= 0.0 && (a[499] - 1.0).abs() < 1e-12);
        assert_eq!(a, bursty_arrivals(&inputs, 1, 500).unwrap());
        assert_ne!(a, bursty_arrivals(&inputs, 2, 500).unwrap());
    }
}

//! Reproducible perf baseline: times the workspace's dominant parallel
//! workloads at 1, 2 and N threads, times the optimized hot paths
//! against their pre-refactor reference implementations, and writes the
//! whole report to `BENCH_PR6.json` (override with `--json <path>`).
//!
//! The three speedup workloads mirror where the paper's experiments spend
//! their time:
//!
//! 1. **STGA population fitness evaluation** — the GA hot path
//!    (`par_iter().map_init(evaluate_with_scratch)` over the population).
//! 2. **A fig5-style sweep** — conventional GA vs STGA over a sequence of
//!    PSA batches (whole-scheduler wall-clock, parallel fitness inside).
//! 3. **A multi-seed sim replication batch** — independent PSA
//!    simulations fanned out per seed, the outer loop of every averaged
//!    figure.
//!
//! The before/after section covers the optimized hot paths:
//!
//! * the GA evolve loop (double-buffered populations + reusable roulette
//!   table, and — since PR 6 — compiled-kernel fitness with parent-patch
//!   children, vs the old allocate-per-generation loop),
//! * the compiled fitness kernel (flat SoA replay vs the object-graph
//!   walk) and its delta (parent-patch) evaluation vs a full replay,
//! * history-table lookup (bucketed by batch-size signature vs the
//!   linear scan),
//! * `BatchSchedule::site_of` (indexed vs linear queries).
//!
//! Every measurement asserts the optimized path's output is bit-identical
//! to its reference before reporting a time; every speedup workload is
//! checked for thread-count independence.
//!
//! Run `--quick` for a smoke-sized configuration (CI) and `--threads <n>`
//! to set the largest measured thread count.

use gridsec_bench::{psa_setup, replicate, replication_seeds, BenchArgs};
use gridsec_core::etc::{EtcMatrix, NodeAvailability};
use gridsec_core::rng::{stream, Stream};
use gridsec_core::{BatchSchedule, JobId, RiskMode, SecurityModel, SiteId, Time};
use gridsec_heuristics::common::MapCtx;
use gridsec_heuristics::MinMin;
use gridsec_sim::{simulate, BatchJob, BatchScheduler, GridView};
use gridsec_stga::fitness::{evaluate_with_scratch, FitnessKind, DEFAULT_FLOW_WEIGHT};
use gridsec_stga::history::{BatchSignature, HistoryTable};
use gridsec_stga::ops::{crossover, mutate};
use gridsec_stga::selection::{elite_indices, RouletteWheel};
use gridsec_stga::{
    evolve, evolve_with_pool, Chromosome, FitnessKernel, GaParams, GaPool, KernelScratch,
    StandardGa, Stga, StgaParams,
};
use rand::Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts heap allocations so hot-path rows can report an exact,
/// noise-free allocation delta alongside wall-clock (the GA evolve loop's
/// win is chiefly allocation reuse, which 1-core wall-clock under-states).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations performed while running `work`.
fn count_allocs<R>(work: impl FnOnce() -> R) -> (u64, R) {
    let start = ALLOCATIONS.load(Ordering::Relaxed);
    let r = work();
    (ALLOCATIONS.load(Ordering::Relaxed) - start, r)
}

/// One workload timed at one thread count.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RunTiming {
    threads: usize,
    /// Best-of-two wall-clock seconds.
    secs: f64,
    /// `secs(1 thread) / secs(this run)`.
    speedup_vs_1_thread: f64,
}

/// The speedup curve of one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct WorkloadReport {
    name: String,
    params: String,
    runs: Vec<RunTiming>,
    /// Result digests at every thread count matched the 1-thread run bit
    /// for bit.
    deterministic: bool,
}

/// One optimized hot path timed against its pre-refactor reference.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct HotPathReport {
    name: String,
    params: String,
    /// Best-of-two wall-clock seconds of the pre-refactor reference path.
    before_secs: f64,
    /// Best-of-two wall-clock seconds of the optimized path.
    after_secs: f64,
    /// `before_secs / after_secs`.
    speedup: f64,
    /// Heap allocations of one reference run (exact, noise-free).
    before_allocs: u64,
    /// Heap allocations of one optimized run.
    after_allocs: u64,
    /// `before_allocs / after_allocs`.
    alloc_ratio: f64,
    /// Output digests of both paths matched bit for bit.
    equivalent: bool,
    note: String,
}

/// The whole `BENCH_PR6.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PerfReport {
    schema: String,
    command: String,
    host_available_parallelism: usize,
    thread_counts: Vec<usize>,
    workloads: Vec<WorkloadReport>,
    hot_paths: Vec<HotPathReport>,
    note: String,
}

/// Sizing knobs for full vs `--quick` runs.
struct Sizes {
    population: usize,
    eval_jobs: usize,
    eval_sites: usize,
    eval_iters: usize,
    sweep_rounds: usize,
    sweep_generations: usize,
    sweep_population: usize,
    rep_seeds: usize,
    rep_jobs: usize,
    ga_population: usize,
    ga_generations: usize,
    ga_jobs: usize,
    ga_sites: usize,
    lookup_entries: usize,
    lookup_queries: usize,
    site_assignments: usize,
    site_queries: usize,
}

impl Sizes {
    fn new(quick: bool) -> Sizes {
        if quick {
            Sizes {
                population: 96,
                eval_jobs: 32,
                eval_sites: 12,
                eval_iters: 5,
                sweep_rounds: 3,
                sweep_generations: 15,
                sweep_population: 60,
                rep_seeds: 3,
                rep_jobs: 120,
                ga_population: 60,
                ga_generations: 12,
                ga_jobs: 16,
                ga_sites: 6,
                lookup_entries: 150,
                lookup_queries: 40,
                site_assignments: 400,
                site_queries: 2_000,
            }
        } else {
            Sizes {
                population: 512,
                eval_jobs: 96,
                eval_sites: 20,
                eval_iters: 120,
                sweep_rounds: 8,
                sweep_generations: 80,
                sweep_population: 200,
                rep_seeds: 8,
                rep_jobs: 1_000,
                ga_population: 200,
                ga_generations: 60,
                ga_jobs: 32,
                ga_sites: 12,
                lookup_entries: 150,
                lookup_queries: 300,
                site_assignments: 4_000,
                site_queries: 20_000,
            }
        }
    }
}

fn main() {
    let args = BenchArgs::parse();
    args.warn_unused_reps("perf_baseline");
    let sizes = Sizes::new(args.quick);
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let max_threads = args.threads.unwrap_or(host);
    let mut thread_counts: Vec<usize> = [1, 2, max_threads]
        .into_iter()
        .filter(|&t| t <= max_threads)
        .collect();
    thread_counts.sort_unstable();
    thread_counts.dedup();

    println!(
        "perf baseline: thread counts {thread_counts:?} (host parallelism {host}), seed {}{}",
        args.seed,
        if args.quick { ", quick" } else { "" },
    );

    let workloads: Vec<WorkloadReport> = vec![
        time_workload(
            "stga_fitness_eval",
            format!(
                "population={} jobs={} sites={} iters={}",
                sizes.population, sizes.eval_jobs, sizes.eval_sites, sizes.eval_iters
            ),
            &thread_counts,
            || fitness_eval_workload(&sizes, args.seed),
        ),
        time_workload(
            "fig5_sweep",
            format!(
                "rounds={} batch=12 population={} generations={}",
                sizes.sweep_rounds, sizes.sweep_population, sizes.sweep_generations
            ),
            &thread_counts,
            || fig5_sweep_workload(&sizes, args.seed),
        ),
        time_workload(
            "sim_replication_batch",
            format!("seeds={} psa_jobs={}", sizes.rep_seeds, sizes.rep_jobs),
            &thread_counts,
            || replication_workload(&sizes, args.seed),
        ),
        time_workload(
            "stga_kernel_eval",
            format!(
                "population={} jobs={} sites={} iters={}",
                sizes.population, sizes.eval_jobs, sizes.eval_sites, sizes.eval_iters
            ),
            &thread_counts,
            || kernel_eval_workload(&sizes, args.seed),
        ),
    ];

    println!("hot paths (optimized vs pre-refactor reference):");
    let hot_paths = vec![
        ga_evolve_hot_path(&sizes, args.seed),
        population_pool_hot_path(&sizes, args.seed),
        fitness_kernel_hot_path(&sizes, args.seed),
        delta_eval_hot_path(&sizes, args.seed),
        history_lookup_hot_path(&sizes),
        site_of_hot_path(&sizes),
    ];

    let report = PerfReport {
        schema: "gridsec-perf-baseline/v3".to_string(),
        command: format!(
            "perf_baseline{} --seed {} --threads {max_threads}",
            if args.quick { " --quick" } else { "" },
            args.seed
        ),
        host_available_parallelism: host,
        thread_counts: thread_counts.clone(),
        workloads,
        hot_paths,
        note: "Wall-clock is best-of-two per thread count; speedups are relative to the \
               1-thread run, which executes the strictly sequential code path. Absolute \
               speedup is bounded by the host's available parallelism. Hot-path rows \
               time each rewrite against its retained pre-refactor reference on the \
               current pool, asserting bit-identical output first."
            .to_string(),
    };

    let path = args.json.clone().unwrap_or_else(|| "BENCH_PR6.json".into());
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(&path, json).expect("write perf report");
    println!("[wrote {path}]");
}

/// Times `work` at every thread count (dedicated pools, best of two runs)
/// and verifies the result digest never changes.
fn time_workload(
    name: &str,
    params: String,
    thread_counts: &[usize],
    work: impl Fn() -> u64,
) -> WorkloadReport {
    let mut runs: Vec<RunTiming> = Vec::new();
    let mut digests: Vec<u64> = Vec::new();
    for &t in thread_counts {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .expect("pool builds");
        let mut best = f64::INFINITY;
        let mut digest = 0;
        for _ in 0..2 {
            let start = Instant::now();
            digest = pool.install(&work);
            best = best.min(start.elapsed().as_secs_f64());
        }
        digests.push(digest);
        let base = runs.first().map_or(best, |r: &RunTiming| r.secs);
        runs.push(RunTiming {
            threads: t,
            secs: best,
            speedup_vs_1_thread: base / best,
        });
        println!(
            "  {name:>22} @ {t} thread(s): {best:.3}s (x{:.2})",
            base / best
        );
    }
    let deterministic = digests.iter().all(|&d| d == digests[0]);
    assert!(
        deterministic,
        "{name}: results changed with thread count ({digests:?})"
    );
    WorkloadReport {
        name: name.to_string(),
        params,
        runs,
        deterministic,
    }
}

/// Folds a float sequence into an order-sensitive digest of exact bits.
fn digest_f64(acc: u64, x: f64) -> u64 {
    acc.rotate_left(7) ^ x.to_bits()
}

/// Workload 1: repeated rayon-parallel population fitness evaluation on a
/// synthetic batch — exactly the GA engine's `eval_all` hot path.
fn fitness_eval_workload(sizes: &Sizes, seed: u64) -> u64 {
    let n = sizes.eval_jobs;
    let m = sizes.eval_sites;
    let etc: Vec<f64> = (0..n * m).map(|i| 10.0 + ((i * 31) % 97) as f64).collect();
    let ctx = MapCtx {
        etc: EtcMatrix::from_raw(n, m, etc),
        widths: vec![1; n],
        arrivals: vec![Time::ZERO; n],
        candidates: vec![(0..m).collect(); n],
        now: Time::ZERO,
        commit_order: vec![],
    };
    let avail = vec![NodeAvailability::new(2, Time::ZERO); m];
    let mut rng = stream(seed, Stream::Genetic);
    let population: Vec<Chromosome> = (0..sizes.population)
        .map(|_| Chromosome::random(&ctx.candidates, &mut rng))
        .collect();

    let mut digest = 0;
    for _ in 0..sizes.eval_iters {
        let fitness: Vec<f64> = population
            .par_iter()
            .map_init(Vec::new, |scratch, c| {
                evaluate_with_scratch(
                    &ctx,
                    &avail,
                    scratch,
                    c,
                    FitnessKind::Makespan,
                    None,
                    DEFAULT_FLOW_WEIGHT,
                )
            })
            .collect();
        digest = fitness.iter().fold(digest, |a, &f| digest_f64(a, f));
    }
    digest
}

/// Workload 4 (PR 6): the same population evaluation as workload 1, but
/// through the compiled SoA kernel — the GA engine's current eval path.
/// [`time_workload`] asserts the digest is bit-identical at every thread
/// count, so this row doubles as the kernel's determinism smoke in CI.
fn kernel_eval_workload(sizes: &Sizes, seed: u64) -> u64 {
    let n = sizes.eval_jobs;
    let m = sizes.eval_sites;
    let etc: Vec<f64> = (0..n * m).map(|i| 10.0 + ((i * 31) % 97) as f64).collect();
    let ctx = MapCtx {
        etc: EtcMatrix::from_raw(n, m, etc),
        widths: vec![1; n],
        arrivals: vec![Time::ZERO; n],
        candidates: vec![(0..m).collect(); n],
        now: Time::ZERO,
        commit_order: vec![],
    };
    let avail = vec![NodeAvailability::new(2, Time::ZERO); m];
    let mut rng = stream(seed, Stream::Genetic);
    let population: Vec<Chromosome> = (0..sizes.population)
        .map(|_| Chromosome::random(&ctx.candidates, &mut rng))
        .collect();
    let kernel = FitnessKernel::compile(
        &ctx,
        &avail,
        FitnessKind::Makespan,
        None,
        DEFAULT_FLOW_WEIGHT,
    );

    let mut digest = 0;
    for _ in 0..sizes.eval_iters {
        let fitness: Vec<f64> = population
            .par_iter()
            .map_init(
                <(KernelScratch, Vec<Time>)>::default,
                |(scratch, cts), c| kernel.evaluate_full(c.genes(), cts, scratch),
            )
            .collect();
        digest = fitness.iter().fold(digest, |a, &f| digest_f64(a, f));
    }
    digest
}

/// Workload 2: the fig5 round loop — conventional GA and STGA scheduling
/// a sequence of similar PSA batches.
fn fig5_sweep_workload(sizes: &Sizes, seed: u64) -> u64 {
    let batch_size = 12;
    let w = psa_setup(sizes.sweep_rounds * batch_size, seed);
    let ga_params = GaParams::default()
        .with_population(sizes.sweep_population)
        .with_generations(sizes.sweep_generations)
        .with_seed(seed);
    let mut ga = StandardGa::new(ga_params).expect("valid GA params");
    let mut stga = Stga::new(StgaParams {
        ga: ga_params,
        ..StgaParams::default()
    })
    .expect("valid STGA params");
    let avail: Vec<NodeAvailability> = w
        .grid
        .sites()
        .map(|s| NodeAvailability::new(s.nodes, Time::ZERO))
        .collect();

    let mut digest = 0;
    for r in 0..sizes.sweep_rounds {
        let batch: Vec<BatchJob> = w.jobs[r * batch_size..(r + 1) * batch_size]
            .iter()
            .cloned()
            .map(|job| BatchJob {
                job,
                secure_only: false,
            })
            .collect();
        let view = GridView {
            grid: &w.grid,
            avail: &avail,
            now: Time::ZERO,
            model: SecurityModel::default(),
        };
        let _ = ga.schedule(&batch, &view);
        let _ = stga.schedule(&batch, &view);
        for t in [ga.last_trajectory(), stga.last_trajectory()] {
            let t = t.expect("scheduler ran");
            digest = digest_f64(digest, t[0]);
            digest = digest_f64(digest, t[t.len() - 1]);
        }
    }
    digest
}

/// Times `before` and `after` (best of two runs each), asserts their
/// digests match, and assembles the report row.
fn time_hot_path(
    name: &str,
    params: String,
    note: &str,
    before: impl Fn() -> u64,
    after: impl Fn() -> u64,
) -> HotPathReport {
    let measure = |work: &dyn Fn() -> u64| {
        let mut best = f64::INFINITY;
        let mut digest = 0;
        for _ in 0..2 {
            let start = Instant::now();
            digest = work();
            best = best.min(start.elapsed().as_secs_f64());
        }
        let (allocs, _) = count_allocs(work);
        (best, allocs, digest)
    };
    let (before_secs, before_allocs, before_digest) = measure(&before);
    let (after_secs, after_allocs, after_digest) = measure(&after);
    assert_eq!(
        before_digest, after_digest,
        "{name}: optimized path diverged from the reference"
    );
    let speedup = before_secs / after_secs;
    let alloc_ratio = before_allocs as f64 / (after_allocs.max(1)) as f64;
    println!(
        "  {name:>22}: before {before_secs:.4}s / {before_allocs} allocs, \
         after {after_secs:.4}s / {after_allocs} allocs (x{speedup:.2} time, x{alloc_ratio:.2} allocs)"
    );
    HotPathReport {
        name: name.to_string(),
        params,
        before_secs,
        after_secs,
        speedup,
        before_allocs,
        after_allocs,
        alloc_ratio,
        equivalent: true,
        note: note.to_string(),
    }
}

/// A deterministic synthetic mapping instance shared by the GA hot-path
/// rows. Candidate lists are security-style restricted (roughly half the
/// sites per job, never empty) — the shape `MapCtx::build` produces under
/// the paper's risk modes.
fn hot_path_ctx(n: usize, m: usize) -> (MapCtx, Vec<NodeAvailability>) {
    let etc: Vec<f64> = (0..n * m)
        .map(|i| 5.0 + ((i * 131 + 17) % 251) as f64)
        .collect();
    let candidates: Vec<Vec<usize>> = (0..n)
        .map(|j| {
            let mut c: Vec<usize> = (0..m).filter(|&s| (j * 7 + s * 13) % 2 == 0).collect();
            if c.is_empty() {
                c.push(j % m);
            }
            c
        })
        .collect();
    let ctx = MapCtx {
        etc: EtcMatrix::from_raw(n, m, etc),
        widths: vec![1; n],
        arrivals: vec![Time::ZERO; n],
        candidates,
        now: Time::ZERO,
        commit_order: vec![],
    };
    let avail = vec![NodeAvailability::new(2, Time::ZERO); m];
    (ctx, avail)
}

/// A mapping instance in the paper's *multi-node* grid shape: 16-node
/// sites and job widths cycling 1..=8, so each commit reorders a
/// meaningful slice of a site's free-time vector. This is the regime the
/// compiled kernel's merge-rotate commit and delta evaluation target (the
/// PSA grids of the experiments have tens of nodes per site); the
/// GA/kernel hot-path rows use it, while the heuristic rows keep the
/// width-1 [`hot_path_ctx`] shape they have always measured.
fn wide_ctx(n: usize, m: usize) -> (MapCtx, Vec<NodeAvailability>) {
    let etc: Vec<f64> = (0..n * m)
        .map(|i| 5.0 + ((i * 131 + 17) % 251) as f64)
        .collect();
    let candidates: Vec<Vec<usize>> = (0..n)
        .map(|j| {
            let mut c: Vec<usize> = (0..m).filter(|&s| (j * 7 + s * 13) % 2 == 0).collect();
            if c.is_empty() {
                c.push(j % m);
            }
            c
        })
        .collect();
    let ctx = MapCtx {
        etc: EtcMatrix::from_raw(n, m, etc),
        widths: (0..n).map(|j| 1 + (j % 8) as u32).collect(),
        arrivals: vec![Time::ZERO; n],
        candidates,
        now: Time::ZERO,
        commit_order: vec![],
    };
    let avail = vec![NodeAvailability::new(16, Time::ZERO); m];
    (ctx, avail)
}

/// The pre-PR3 GA generation loop, reconstructed from the same public
/// building blocks: a fresh next-population `Vec`, a fresh roulette
/// table and a fresh elite-index `Vec` every generation, fitness
/// collected into a new buffer. RNG consumption is identical to
/// [`evolve`], so both produce the same result for the same seed.
fn old_evolve_digest(
    ctx: &MapCtx,
    avail: &[NodeAvailability],
    params: &GaParams,
    seed: u64,
) -> u64 {
    let mut rng = stream(seed, Stream::Genetic);
    let mut population: Vec<Chromosome> = Vec::new();
    while population.len() < params.population {
        population.push(Chromosome::random(&ctx.candidates, &mut rng));
    }
    let eval_all = |pop: &[Chromosome]| -> Vec<f64> {
        pop.par_iter()
            .map_init(Vec::new, |scratch, c| {
                evaluate_with_scratch(
                    ctx,
                    avail,
                    scratch,
                    c,
                    FitnessKind::Makespan,
                    None,
                    params.flow_weight,
                )
            })
            .collect()
    };
    let current_best = |fitness: &[f64]| {
        let mut bi = 0;
        for i in 1..fitness.len() {
            if fitness[i] < fitness[bi] {
                bi = i;
            }
        }
        bi
    };
    let mut fitness = eval_all(&population);
    let bi = current_best(&fitness);
    let mut best = population[bi].clone();
    let mut best_fitness = fitness[bi];
    let mut trajectory = vec![best_fitness];
    for _ in 0..params.generations {
        let wheel = RouletteWheel::build(&fitness);
        let mut next: Vec<Chromosome> = elite_indices(&fitness, params.elitism)
            .into_iter()
            .map(|i| population[i].clone())
            .collect();
        while next.len() < params.population {
            let pa = &population[wheel.spin(&mut rng)];
            let pb = &population[wheel.spin(&mut rng)];
            let (mut ca, mut cb) = if rng.gen::<f64>() < params.crossover_prob {
                crossover(pa, pb, &mut rng)
            } else {
                (pa.clone(), pb.clone())
            };
            if rng.gen::<f64>() < params.mutation_prob {
                mutate(&mut ca, &ctx.candidates, &mut rng);
            }
            if rng.gen::<f64>() < params.mutation_prob {
                mutate(&mut cb, &ctx.candidates, &mut rng);
            }
            next.push(ca);
            if next.len() < params.population {
                next.push(cb);
            }
        }
        population = next;
        fitness = eval_all(&population);
        let gi = current_best(&fitness);
        if fitness[gi] < best_fitness {
            best = population[gi].clone();
            best_fitness = fitness[gi];
        }
        trajectory.push(best_fitness);
    }
    let mut d = digest_f64(0, best_fitness);
    for &g in best.genes() {
        d = digest_f64(d, g as f64);
    }
    trajectory.iter().fold(d, |a, &t| digest_f64(a, t))
}

/// Hot path 1: the full GA evolve loop, double-buffered vs
/// allocate-per-generation.
fn ga_evolve_hot_path(sizes: &Sizes, seed: u64) -> HotPathReport {
    let (ctx, avail) = wide_ctx(sizes.ga_jobs, sizes.ga_sites);
    let params = GaParams::default()
        .with_population(sizes.ga_population)
        .with_generations(sizes.ga_generations)
        .with_seed(seed);
    time_hot_path(
        "ga_evolve_loop",
        format!(
            "population={} generations={} jobs={} sites={} nodes=16 widths=1..8",
            sizes.ga_population, sizes.ga_generations, sizes.ga_jobs, sizes.ga_sites
        ),
        "Double-buffered populations, recycled buffers, and (PR 6) compiled-kernel fitness \
         with inherit/delta plans for untouched and lightly-touched children vs the old \
         fresh-allocation generation loop over the object-graph evaluator.",
        || old_evolve_digest(&ctx, &avail, &params, seed),
        || {
            let mut rng = stream(seed, Stream::Genetic);
            let r = evolve(
                &ctx,
                &avail,
                vec![],
                &params,
                FitnessKind::Makespan,
                None,
                &mut rng,
            );
            let mut d = digest_f64(0, r.best_fitness);
            for &g in r.best.genes() {
                d = digest_f64(d, g as f64);
            }
            r.trajectory.iter().fold(d, |a, &t| digest_f64(a, t))
        },
    )
}

/// Hot path 1b (PR 4): the cross-round population pool. `before` runs
/// [`evolve`] with a cold pool per round — the daemon-before-PR4 shape,
/// where every scheduling round pays the initial random population and
/// buffer warm-up — and `after` reuses one [`GaPool`] across the same
/// rounds. Outputs are asserted bit-identical, and the warm path must cut
/// allocations by at least 4× (the ROADMAP's "amortise the remaining
/// ~1.4k allocations per GA run" item).
fn population_pool_hot_path(sizes: &Sizes, seed: u64) -> HotPathReport {
    let (ctx, avail) = hot_path_ctx(sizes.ga_jobs, sizes.ga_sites);
    let params = GaParams::default()
        .with_population(sizes.ga_population)
        .with_generations(sizes.ga_generations)
        .with_seed(seed);
    let rounds = 4;
    // The pool is warmed by one throwaway round before measurement — the
    // daemon's steady state, where every round reuses warm buffers.
    let warm_pool = std::cell::RefCell::new(GaPool::new());
    {
        let mut rng = stream(seed, Stream::Genetic);
        let _ = evolve_with_pool(
            &ctx,
            &avail,
            vec![],
            &params,
            FitnessKind::Makespan,
            None,
            &mut rng,
            &mut warm_pool.borrow_mut(),
        );
    }
    let digest_of = |r: &gridsec_stga::GaResult| {
        let mut d = digest_f64(0, r.best_fitness);
        for &g in r.best.genes() {
            d = digest_f64(d, g as f64);
        }
        r.trajectory.iter().fold(d, |a, &t| digest_f64(a, t))
    };
    let report = time_hot_path(
        "population_pool",
        format!(
            "rounds={rounds} population={} generations={} jobs={} sites={}",
            sizes.ga_population, sizes.ga_generations, sizes.ga_jobs, sizes.ga_sites
        ),
        "One GaPool reused across scheduling rounds (the long-lived daemon scheduler) vs \
         a cold pool per round: the initial random population and generation buffers are \
         recycled instead of reallocated.",
        || {
            let mut d = 0;
            for round in 0..rounds {
                let mut rng = stream(seed + round, Stream::Genetic);
                let r = evolve(
                    &ctx,
                    &avail,
                    vec![],
                    &params,
                    FitnessKind::Makespan,
                    None,
                    &mut rng,
                );
                d = digest_f64(d, digest_of(&r) as f64);
            }
            d
        },
        || {
            let mut pool = warm_pool.borrow_mut();
            let mut d = 0;
            for round in 0..rounds {
                let mut rng = stream(seed + round, Stream::Genetic);
                let r = evolve_with_pool(
                    &ctx,
                    &avail,
                    vec![],
                    &params,
                    FitnessKind::Makespan,
                    None,
                    &mut rng,
                    &mut pool,
                );
                d = digest_f64(d, digest_of(&r) as f64);
            }
            d
        },
    );
    assert!(
        report.after_allocs * 4 <= report.before_allocs,
        "population pool must cut allocations ≥ 4× (before {}, after {})",
        report.before_allocs,
        report.after_allocs
    );
    report
}

/// Hot path 1c (PR 6): raw population fitness evaluation — the compiled
/// SoA kernel's flat replay vs the object-graph walk over
/// `NodeAvailability` structs. One compile amortised over the whole
/// population, exactly the per-round shape inside the GA engine.
fn fitness_kernel_hot_path(sizes: &Sizes, seed: u64) -> HotPathReport {
    let (ctx, avail) = wide_ctx(sizes.eval_jobs, sizes.eval_sites);
    let mut rng = stream(seed, Stream::Genetic);
    let population: Vec<Chromosome> = (0..sizes.population)
        .map(|_| Chromosome::random(&ctx.candidates, &mut rng))
        .collect();
    let iters = sizes.eval_iters;
    time_hot_path(
        "fitness_kernel",
        format!(
            "population={} jobs={} sites={} nodes=16 widths=1..8 iters={}",
            sizes.population, sizes.eval_jobs, sizes.eval_sites, iters
        ),
        "Grid + trust + security snapshot lowered once into flat SoA planes (effective-time \
         table, floors, widths, base free-times); evaluation is index arithmetic over \
         slices vs rebuilding per-site availability objects per chromosome.",
        || {
            let mut scratch = Vec::new();
            let mut d = 0;
            for _ in 0..iters {
                for c in &population {
                    let f = evaluate_with_scratch(
                        &ctx,
                        &avail,
                        &mut scratch,
                        c,
                        FitnessKind::Makespan,
                        None,
                        DEFAULT_FLOW_WEIGHT,
                    );
                    d = digest_f64(d, f);
                }
            }
            d
        },
        || {
            let kernel = FitnessKernel::compile(
                &ctx,
                &avail,
                FitnessKind::Makespan,
                None,
                DEFAULT_FLOW_WEIGHT,
            );
            let mut scratch = KernelScratch::default();
            let mut cts = Vec::new();
            let mut d = 0;
            for _ in 0..iters {
                for c in &population {
                    let f = kernel.evaluate_full(c.genes(), &mut cts, &mut scratch);
                    d = digest_f64(d, f);
                }
            }
            d
        },
    )
}

/// Hot path 1d (PR 6): delta (parent-patch) evaluation of GA children vs
/// a full replay. Children are single-gene mutants of one finite parent —
/// the dominant child shape the tracked crossover/mutation operators
/// report — so the delta path only replays the jobs landing on the one or
/// two affected sites.
fn delta_eval_hot_path(sizes: &Sizes, seed: u64) -> HotPathReport {
    let (ctx, avail) = wide_ctx(sizes.eval_jobs, sizes.eval_sites);
    let kernel = FitnessKernel::compile(
        &ctx,
        &avail,
        FitnessKind::Makespan,
        None,
        DEFAULT_FLOW_WEIGHT,
    );
    let mut rng = stream(seed, Stream::Genetic);
    let parent = Chromosome::random(&ctx.candidates, &mut rng);
    let mut scratch = KernelScratch::default();
    let mut parent_cts = Vec::new();
    let pf = kernel.evaluate_full(parent.genes(), &mut parent_cts, &mut scratch);
    assert!(pf.is_finite(), "random parent must be feasible");
    let children: Vec<(usize, Vec<u16>)> = (0..sizes.population)
        .map(|_| {
            let j = rng.gen_range(0..ctx.n_jobs());
            let cands = &ctx.candidates[j];
            let mut genes = parent.genes().to_vec();
            genes[j] = cands[rng.gen_range(0..cands.len())] as u16;
            (j, genes)
        })
        .collect();
    let iters = sizes.eval_iters;
    time_hot_path(
        "delta_eval",
        format!(
            "children={} jobs={} sites={} nodes=16 widths=1..8 iters={}",
            sizes.population, sizes.eval_jobs, sizes.eval_sites, iters
        ),
        "Children differing from their parent at one tracked gene are patched from the \
         parent's retained completion times (only the affected sites' ready chains \
         replayed) vs replaying every job from the base availability plane.",
        || {
            let mut scratch = KernelScratch::default();
            let mut cts = Vec::new();
            let mut d = 0;
            for _ in 0..iters {
                for (_, genes) in &children {
                    d = digest_f64(d, kernel.evaluate_full(genes, &mut cts, &mut scratch));
                }
            }
            d
        },
        || {
            let mut scratch = KernelScratch::default();
            let mut cts = Vec::new();
            let mut d = 0;
            for _ in 0..iters {
                for &(j, ref genes) in &children {
                    let f = kernel.evaluate_delta(
                        genes,
                        parent.genes(),
                        &parent_cts,
                        j,
                        &mut cts,
                        &mut scratch,
                    );
                    d = digest_f64(d, f);
                }
            }
            d
        },
    )
}

/// Hot path 2: history-table lookup, bucketed by batch-size signature vs
/// linear scan over all entries.
fn history_lookup_hot_path(sizes: &Sizes) -> HotPathReport {
    let sig = |tag: u64, jobs: usize, sites: usize| -> BatchSignature {
        let f = |i: usize| ((tag as usize * 31 + i * 7) % 100) as f64;
        BatchSignature {
            ready_times: (0..sites).map(f).collect(),
            etc: (0..jobs * sites).map(f).collect(),
            demands: (0..jobs).map(|i| 0.6 + 0.3 * (f(i) / 100.0)).collect(),
        }
    };
    // Table-1 capacity, entries spread over six batch-size classes — the
    // shape a long-running scheduler's table converges to.
    let dims = [
        (8usize, 8usize),
        (12, 8),
        (16, 8),
        (8, 12),
        (12, 12),
        (16, 12),
    ];
    let mut table = HistoryTable::new(sizes.lookup_entries);
    for t in 0..sizes.lookup_entries as u64 {
        let (jobs, sites) = dims[(t as usize) % dims.len()];
        table.insert(
            sig(t, jobs, sites),
            Chromosome::from_genes(vec![(t % 7) as u16; jobs]),
        );
    }
    let queries: Vec<BatchSignature> = (0..sizes.lookup_queries as u64)
        .map(|q| {
            let (jobs, sites) = dims[(q as usize) % dims.len()];
            sig(q * 3 + 1, jobs, sites)
        })
        .collect();
    let run = |linear: bool| {
        let mut t = table.clone();
        let mut d = 0;
        for q in &queries {
            let hits = if linear {
                t.lookup_linear(q, 0.8, 10)
            } else {
                t.lookup(q, 0.8, 10)
            };
            d = digest_f64(d, hits.len() as f64);
            for c in &hits {
                d = digest_f64(d, c.genes().first().copied().unwrap_or(0) as f64);
            }
        }
        d
    };
    time_hot_path(
        "history_lookup",
        format!(
            "entries={} queries={} dim_classes={}",
            sizes.lookup_entries,
            sizes.lookup_queries,
            dims.len()
        ),
        "Bucketed by batch-size signature with an exact length-ratio similarity bound \
         (skips whole buckets) vs scoring every entry.",
        || run(true),
        || run(false),
    )
}

/// Hot path 3: repeated `site_of` queries, indexed vs linear scan.
fn site_of_hot_path(sizes: &Sizes) -> HotPathReport {
    let schedule = BatchSchedule::from_pairs(
        (0..sizes.site_assignments as u64)
            .map(|i| (JobId(i * 7 % 9_973), SiteId((i % 31) as usize))),
    );
    let queries: Vec<JobId> = (0..sizes.site_queries as u64)
        .map(|q| JobId(q * 13 % 9_973))
        .collect();
    time_hot_path(
        "schedule_site_of",
        format!(
            "assignments={} queries={}",
            sizes.site_assignments, sizes.site_queries
        ),
        "ScheduleIndex built once (job→sites hash) vs a linear assignment scan per query.",
        || {
            let mut d = 0;
            for &q in &queries {
                let s = schedule.site_of(q).map_or(-1.0, |s| s.0 as f64);
                d = digest_f64(d, s);
            }
            d
        },
        || {
            let index = schedule.index();
            let mut d = 0;
            for &q in &queries {
                let s = index.site_of(q).map_or(-1.0, |s| s.0 as f64);
                d = digest_f64(d, s);
            }
            d
        },
    )
}

/// Workload 3: the outer replication loop of every averaged figure —
/// independent per-seed PSA simulations fanned out over the pool.
fn replication_workload(sizes: &Sizes, seed: u64) -> u64 {
    let seeds = replication_seeds(seed, sizes.rep_seeds);
    let outs = replicate(&seeds, |s| {
        let w = psa_setup(sizes.rep_jobs, s);
        let mut sched = MinMin::new(RiskMode::Risky);
        let config = gridsec_bench::psa_sim_config(s);
        simulate(&w.jobs, &w.grid, &mut sched, &config).expect("simulation must drain")
    });
    outs.iter().fold(0, |a, o| {
        digest_f64(
            digest_f64(a, o.metrics.makespan.seconds()),
            o.metrics.avg_response,
        )
    })
}

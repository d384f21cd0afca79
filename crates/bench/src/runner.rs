//! Experiment plumbing: workload setup, scheduler roster, single-run and
//! parallel multi-seed replication execution, and JSON records.

use gridsec_core::rng::subseed;
use gridsec_core::{Grid, Job, Result, RiskMode, Time};
use gridsec_heuristics::{MinMin, Sufferage};
use gridsec_sim::{simulate, BatchScheduler, SimConfig, SimOutput};
use gridsec_stga::{GaParams, Stga, StgaParams};
use gridsec_workloads::{NasConfig, NasWorkload, PsaConfig, PsaWorkload};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The PSA batch period (Table 1 gives none: at 1000 s `paper fig10`
/// records a mean batch of 3.6–4.1 jobs; README, "Deviations from the
/// paper").
pub const PSA_INTERVAL: f64 = 1_000.0;
/// The NAS batch period (hourly batches ≈ 15 jobs each at paper scale;
/// README, "Deviations from the paper").
pub const NAS_INTERVAL: f64 = 3_600.0;

/// Builds the PSA workload of Table 1 at the given size.
pub fn psa_setup(n_jobs: usize, seed: u64) -> PsaWorkload {
    PsaConfig::default()
        .with_n_jobs(n_jobs)
        .with_seed(seed)
        .generate()
        .expect("valid PSA defaults")
}

/// Simulator configuration used by every PSA experiment.
pub fn psa_sim_config(seed: u64) -> SimConfig {
    SimConfig::default()
        .with_interval(Time::new(PSA_INTERVAL))
        .with_seed(subseed(seed, 0xFA11))
}

/// Builds the NAS workload of Table 1 at the given size.
pub fn nas_setup(n_jobs: usize, seed: u64) -> NasWorkload {
    NasConfig::default()
        .with_n_jobs(n_jobs)
        .with_seed(seed)
        .generate()
        .expect("valid NAS defaults")
}

/// Simulator configuration used by every NAS experiment.
pub fn nas_sim_config(seed: u64) -> SimConfig {
    SimConfig::default()
        .with_interval(Time::new(NAS_INTERVAL))
        .with_seed(subseed(seed, 0xFA11))
}

/// Builds a trained STGA: Table 1 parameters, history warmed on the first
/// `training_jobs` of the workload with the expected batch size.
pub fn make_stga(
    jobs: &[Job],
    grid: &Grid,
    seed: u64,
    generations: usize,
    expected_batch: usize,
) -> Result<Stga> {
    let params = StgaParams {
        ga: GaParams::default()
            .with_generations(generations)
            .with_seed(subseed(seed, 0x57A6)),
        ..StgaParams::default()
    };
    let mut stga = Stga::new(params)?;
    stga.train(jobs, grid, expected_batch.max(1))?;
    Ok(stga)
}

/// The paper's seven-algorithm roster (Fig. 8 order): the six
/// security-driven heuristics plus a trained STGA.
pub fn paper_schedulers(
    jobs: &[Job],
    grid: &Grid,
    seed: u64,
    expected_batch: usize,
) -> Vec<Box<dyn BatchScheduler>> {
    let stga = make_stga(jobs, grid, seed, 100, expected_batch).expect("valid STGA parameters");
    vec![
        Box::new(MinMin::new(RiskMode::Secure)),
        Box::new(MinMin::new(RiskMode::FRisky(RiskMode::PAPER_F))),
        Box::new(MinMin::new(RiskMode::Risky)),
        Box::new(Sufferage::new(RiskMode::Secure)),
        Box::new(Sufferage::new(RiskMode::FRisky(RiskMode::PAPER_F))),
        Box::new(Sufferage::new(RiskMode::Risky)),
        Box::new(stga),
    ]
}

/// Runs one scheduler over one workload to completion.
pub fn run_one(
    jobs: &[Job],
    grid: &Grid,
    scheduler: &mut dyn BatchScheduler,
    config: &SimConfig,
) -> SimOutput {
    simulate(jobs, grid, scheduler, config).expect("simulation must drain")
}

/// Derives the seed list for `--reps` replications: replication 0 keeps
/// the base seed (so a single-rep run is bit-identical to the plain run),
/// later replications use independent subseeds.
pub fn replication_seeds(base: u64, reps: usize) -> Vec<u64> {
    let seed = |r| if r == 0 { base } else { subseed(base, r) };
    (0..reps.max(1) as u64).map(seed).collect()
}

/// Fans one run per seed (or per `(size, seed)` pair) out over `workers`
/// scoped threads, the caller counted as one. Each worker claims the next
/// unclaimed index, so mixed run lengths balance; the results are merged
/// by index, so the output order matches `seeds` whatever the worker
/// count and replicated sweeps are as deterministic as their single-seed
/// counterparts. A run that panics panics the caller.
pub fn replicate<S: Copy + Sync, T: Send>(
    workers: usize,
    seeds: &[S],
    run: impl Fn(S) -> T + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            // Relaxed: the counter only hands out indices; a helper's
            // results reach the caller through its join.
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&seed) = seeds.get(i) else {
                return done;
            };
            done.push((i, run(seed)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers.min(seeds.len()))
            .map(|_| scope.spawn(work))
            .collect();
        let mut done = work();
        for helper in helpers {
            done.extend(
                helper
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e)),
            );
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

/// Table 2's `(α, β, rank)` per output, in input order: makespan and
/// response-time ratios against the output named "STGA", ranked by α + β
/// (smaller is better, ties to the earlier entry).
pub fn table2_ranks(outs: &[&SimOutput]) -> Vec<(f64, f64, usize)> {
    let stga = outs.iter().find(|o| o.scheduler_name == "STGA");
    let stga = &stga.expect("roster includes the STGA").metrics;
    let ratios = outs
        .iter()
        .map(|o| (o.metrics.alpha_vs(stga), o.metrics.beta_vs(stga)));
    let ratios: Vec<(f64, f64)> = ratios.collect();
    let key = |i: usize| ratios[i].0 + ratios[i].1;
    let rank = |i: usize| {
        let ahead = |&j: &usize| key(j) < key(i) || (key(j) == key(i) && j < i);
        1 + (0..outs.len()).filter(ahead).count()
    };
    (0..outs.len())
        .map(|i| (ratios[i].0, ratios[i].1, rank(i)))
        .collect()
}

/// Fig. 9's idle sites: how many ran below 0.5 % utilisation.
pub fn idle_sites(out: &SimOutput) -> usize {
    let util = out.metrics.site_utilization.iter();
    util.filter(|&&u| u < 0.5).count()
}

/// Mean metrics over a set of replicated runs, for the `--reps` tables.
#[derive(Debug, Clone)]
pub struct MetricMeans {
    /// Number of replications averaged.
    pub reps: usize,
    /// Mean makespan (seconds).
    pub makespan: f64,
    /// Mean number of failed (rescheduled) jobs.
    pub n_fail: f64,
    /// Mean number of risky dispatches.
    pub n_risk: f64,
    /// Mean slowdown ratio.
    pub slowdown: f64,
    /// Mean average response time (seconds).
    pub avg_response: f64,
}

impl MetricMeans {
    /// Averages the metrics of `outputs` (which must be non-empty).
    pub fn of<'a>(outputs: impl IntoIterator<Item = &'a SimOutput>) -> MetricMeans {
        let outs: Vec<&SimOutput> = outputs.into_iter().collect();
        assert!(!outs.is_empty(), "cannot average zero replications");
        let mean = |f: fn(&SimOutput) -> f64| {
            outs.iter().fold(0.0, |sum, o| sum + f(o)) / outs.len() as f64
        };
        MetricMeans {
            reps: outs.len(),
            makespan: mean(|o| o.metrics.makespan.seconds()),
            n_fail: mean(|o| o.metrics.n_fail as f64),
            n_risk: mean(|o| o.metrics.n_risk as f64),
            slowdown: mean(|o| o.metrics.slowdown_ratio),
            avg_response: mean(|o| o.metrics.avg_response),
        }
    }
}

/// What one run of an artefact produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Outcome {
    /// A full simulation.
    Sim(SimOutput),
    /// Best fitness per GA generation (index 0 = initial population).
    Trajectory(Vec<f64>),
}

/// One named result of an artefact — the unit of `--json` dumps, of the
/// claims ledger's predicates and of the tier-1 digests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Artefact identifier ("fig8", "table2", …).
    pub experiment: String,
    /// Free-form parameter description (e.g. "f=0.5 minmin").
    pub params: String,
    /// The run output.
    pub output: Outcome,
}

impl Record {
    /// The simulation behind this record, if it is one.
    pub fn sim(&self) -> Option<&SimOutput> {
        match &self.output {
            Outcome::Sim(out) => Some(out),
            Outcome::Trajectory(_) => None,
        }
    }

    /// The fitness trajectory behind this record, if it is one.
    pub fn trajectory(&self) -> Option<&[f64]> {
        match &self.output {
            Outcome::Sim(_) => None,
            Outcome::Trajectory(t) => Some(t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psa_setup_respects_size_and_seed() {
        let w = psa_setup(50, 1);
        assert_eq!(w.jobs.len(), 50);
        assert_eq!(w.grid.len(), 20);
        let w2 = psa_setup(50, 1);
        assert_eq!(w.jobs, w2.jobs);
    }

    #[test]
    fn nas_setup_builds_12_sites() {
        let w = nas_setup(100, 1);
        assert_eq!(w.grid.len(), 12);
        assert_eq!(w.jobs.len(), 100);
    }

    #[test]
    fn roster_is_seven_strong() {
        let w = psa_setup(30, 2);
        let roster = paper_schedulers(&w.jobs, &w.grid, 2, 8);
        assert_eq!(roster.len(), 7);
        assert_eq!(roster[6].name(), "STGA");
    }

    #[test]
    fn quick_end_to_end_run() {
        let w = psa_setup(30, 3);
        let mut s = MinMin::new(RiskMode::Risky);
        let out = run_one(&w.jobs, &w.grid, &mut s, &psa_sim_config(3));
        assert_eq!(out.metrics.n_jobs, 30);
    }

    #[test]
    fn replication_seeds_keep_the_base_first() {
        assert_eq!(replication_seeds(7, 1), vec![7]);
        let s = replication_seeds(7, 4);
        assert_eq!(s.len(), 4);
        assert_eq!(s[0], 7);
        let mut unique = s.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 4, "replication seeds must be distinct");
    }

    #[test]
    fn replicate_preserves_seed_order() {
        let seeds = replication_seeds(11, 5);
        let outs = replicate(2, &seeds, |s| {
            let w = psa_setup(20, s);
            let mut sched = MinMin::new(RiskMode::Risky);
            simulate(&w.jobs, &w.grid, &mut sched, &psa_sim_config(s))
                .expect("simulation must drain")
        });
        assert_eq!(outs.len(), 5);
        // Slot 0 is the plain single-seed run, bit for bit.
        let w = psa_setup(20, 11);
        let mut sched = MinMin::new(RiskMode::Risky);
        let direct = simulate(&w.jobs, &w.grid, &mut sched, &psa_sim_config(11)).unwrap();
        assert_eq!(outs[0].metrics, direct.metrics);
    }

    #[test]
    fn replicate_output_does_not_depend_on_the_worker_count() {
        for n in [0u64, 1, 5] {
            let seeds: Vec<u64> = (0..n).map(|i| 10 * i + 3).collect();
            let want: Vec<(u64, u64)> = seeds.iter().map(|&s| (s, s * s)).collect();
            for workers in [1, 2, 4, 9] {
                let got = replicate(workers, &seeds, |s| (s, s * s));
                assert_eq!(got, want, "{workers} workers, {n} seeds");
            }
        }
    }

    #[test]
    #[should_panic(expected = "run 3 failed")]
    fn replicate_propagates_a_panicking_run() {
        replicate(2, &[1, 2, 3, 4], |s| {
            assert_ne!(s, 3, "run {s} failed");
            s
        });
    }

    /// Two workers run two seeds at once: each run waits for the other to
    /// start, so a fan-out that ran them one after the other fails here
    /// after 10 s rather than hanging.
    #[test]
    fn replicate_overlaps_its_runs() {
        use std::sync::mpsc::channel;
        use std::sync::Mutex;
        use std::time::Duration;
        let (to_0, inbox_0) = channel();
        let (to_1, inbox_1) = channel();
        // Run `i` tells the other run it started, then hears from it.
        let ends = [Mutex::new((to_1, inbox_0)), Mutex::new((to_0, inbox_1))];
        let met = replicate(2, &[0, 1], |i: usize| {
            let (tell, inbox) = &*ends[i].lock().unwrap();
            tell.send(i).unwrap();
            inbox.recv_timeout(Duration::from_secs(10))
        });
        assert_eq!(met, [Ok(1), Ok(0)]);
    }

    #[test]
    fn metric_means_average() {
        let seeds = replication_seeds(3, 3);
        let outs = replicate(2, &seeds, |s| {
            let w = psa_setup(25, s);
            let mut sched = MinMin::new(RiskMode::Risky);
            simulate(&w.jobs, &w.grid, &mut sched, &psa_sim_config(s)).unwrap()
        });
        let m = MetricMeans::of(&outs);
        assert_eq!(m.reps, 3);
        let hand: f64 = outs
            .iter()
            .map(|o| o.metrics.makespan.seconds())
            .sum::<f64>()
            / 3.0;
        assert!((m.makespan - hand).abs() < 1e-9);
    }
}

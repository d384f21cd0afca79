//! Reproducibility: identical seeds must give bit-identical results, and
//! different seeds must actually change the stochastic components.

use gridsec::prelude::*;
use gridsec::workloads::{NasConfig, PsaConfig};

#[test]
fn psa_simulation_is_deterministic() {
    let w = PsaConfig::default().with_n_jobs(150).generate().unwrap();
    let config = SimConfig::default().with_interval(Time::new(1_000.0));
    let run = || {
        let mut s = MinMin::new(RiskMode::Risky);
        simulate(&w.jobs, &w.grid, &mut s, &config).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.n_batches, b.n_batches);
}

#[test]
fn stga_is_deterministic_given_seed() {
    let w = PsaConfig::default().with_n_jobs(100).generate().unwrap();
    let config = SimConfig::default().with_interval(Time::new(1_000.0));
    let run = || {
        let mut stga = Stga::new(StgaParams {
            ga: GaParams::default()
                .with_population(40)
                .with_generations(15)
                .with_seed(77),
            ..StgaParams::default()
        })
        .unwrap();
        stga.train(&w.jobs[..50], &w.grid, 8).unwrap();
        simulate(&w.jobs, &w.grid, &mut stga, &config).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.metrics, b.metrics);
}

#[test]
fn different_failure_seeds_change_outcomes() {
    // A workload guaranteed to create risk-taking (risky mode, low-SL
    // sites), so the failure stream matters.
    let w = PsaConfig::default().with_n_jobs(400).generate().unwrap();
    let a = simulate(
        &w.jobs,
        &w.grid,
        &mut MinMin::new(RiskMode::Risky),
        &SimConfig::default()
            .with_interval(Time::new(1_000.0))
            .with_seed(1),
    )
    .unwrap();
    let b = simulate(
        &w.jobs,
        &w.grid,
        &mut MinMin::new(RiskMode::Risky),
        &SimConfig::default()
            .with_interval(Time::new(1_000.0))
            .with_seed(2),
    )
    .unwrap();
    // Same risk exposure, different realised failures (overwhelmingly
    // likely with hundreds of risky jobs).
    assert_eq!(a.metrics.n_jobs, b.metrics.n_jobs);
    assert_ne!(
        (a.metrics.n_fail, a.metrics.makespan),
        (b.metrics.n_fail, b.metrics.makespan),
        "different seeds should realise different failures"
    );
}

/// Builds a dedicated pool of `n` compute threads for a scoped run.
fn pool(n: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("pool builds")
}

#[test]
fn parallel_fitness_evaluation_matches_single_thread() {
    // The STGA's population fitness evaluation is rayon-parallel; the
    // whole simulated run must be bit-identical at any thread count.
    let w = PsaConfig::default().with_n_jobs(100).generate().unwrap();
    let config = SimConfig::default().with_interval(Time::new(1_000.0));
    let run = || {
        let mut stga = Stga::new(StgaParams {
            ga: GaParams::default()
                .with_population(40)
                .with_generations(15)
                .with_seed(77),
            ..StgaParams::default()
        })
        .unwrap();
        stga.train(&w.jobs[..50], &w.grid, 8).unwrap();
        simulate(&w.jobs, &w.grid, &mut stga, &config).unwrap()
    };
    let sequential = pool(1).install(run);
    for threads in [2, 4] {
        let parallel = pool(threads).install(run);
        assert_eq!(
            sequential.metrics, parallel.metrics,
            "{threads}-thread STGA run diverged from the sequential run"
        );
        assert_eq!(sequential.n_batches, parallel.n_batches);
    }
}

#[test]
fn parallel_replication_sweep_matches_single_thread() {
    use gridsec_bench::{psa_setup, psa_sim_config, replicate, replication_seeds};

    let seeds = replication_seeds(2005, 6);
    let sweep = || {
        replicate(&seeds, |s| {
            let w = psa_setup(60, s);
            let mut sched = MinMin::new(RiskMode::Risky);
            simulate(&w.jobs, &w.grid, &mut sched, &psa_sim_config(s)).unwrap()
        })
    };
    let sequential = pool(1).install(sweep);
    for threads in [2, 4] {
        let parallel = pool(threads).install(sweep);
        assert_eq!(sequential.len(), parallel.len());
        for (a, b) in sequential.iter().zip(&parallel) {
            assert_eq!(
                a.metrics, b.metrics,
                "{threads}-thread replication sweep diverged"
            );
        }
    }
}

#[test]
fn workload_generators_are_seed_stable() {
    let a = PsaConfig::default().with_n_jobs(60).generate().unwrap();
    let b = PsaConfig::default().with_n_jobs(60).generate().unwrap();
    assert_eq!(a.jobs, b.jobs);
    assert_eq!(a.grid, b.grid);
    let c = NasConfig::default().with_n_jobs(60).generate().unwrap();
    let d = NasConfig::default().with_n_jobs(60).generate().unwrap();
    assert_eq!(c.jobs, d.jobs);
    assert_eq!(c.grid, d.grid);
}

// --- Chaos scenarios -------------------------------------------------------

/// The subset of the checked-in scenario spec these tests need.
#[derive(serde::Deserialize)]
struct ChurnSpec {
    grid: gridsec::workloads::GridSpec,
    #[serde(default)]
    sim: SimConfig,
    scenario: gridsec::sim::Scenario,
}

fn churn_spec() -> (Grid, SimConfig, gridsec::sim::Scenario) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/churn.json");
    let text = std::fs::read_to_string(&path).expect("scenarios/churn.json is checked in");
    let spec: ChurnSpec = serde_json::from_str(&text).expect("churn spec parses");
    (spec.grid.build().unwrap(), spec.sim, spec.scenario)
}

#[test]
fn churn_spec_compiles_to_the_same_stream_every_time() {
    // The compiled injection stream is a pure function of (spec, grid):
    // every sampled arrival, fault and trust step comes from named
    // seeded streams.
    let (grid, _, scenario) = churn_spec();
    let a = scenario.compile(&grid).unwrap();
    let b = scenario.compile(&grid).unwrap();
    assert!(!a.events.is_empty());
    assert_eq!(a.events, b.events);
    // A different master seed must actually move the program.
    let mut reseeded = scenario.clone();
    reseeded.seed ^= 0xdead_beef;
    let c = reseeded.compile(&grid).unwrap();
    assert_ne!(a.events, c.events, "the master seed should matter");
}

#[test]
fn churn_replay_is_bit_identical_across_thread_counts() {
    use gridsec::serve::{ScenarioOutcome, ScenarioRunner};
    // The STGA's fitness evaluation is rayon-parallel, so this replays
    // the checked-in churn spec under dedicated 1-, 2- and 4-thread
    // pools. Everything but the wall-clock round latencies must be
    // bit-identical.
    let (grid, config, scenario) = churn_spec();
    let stream = scenario.compile(&grid).unwrap();
    let run = || {
        let stga = Stga::new(StgaParams {
            ga: GaParams::default()
                .with_population(40)
                .with_generations(15)
                .with_seed(77),
            ..StgaParams::default()
        })
        .unwrap();
        ScenarioRunner::new(grid.clone(), Box::new(stga), &config)
            .unwrap()
            .run(&stream)
            .unwrap()
    };
    // Round latencies are wall-clock and legitimately differ run to run.
    let fingerprint = |o: &ScenarioOutcome| {
        let m = &o.metrics;
        (
            o.timeline.clone(),
            o.jobs_generated,
            m.jobs_submitted,
            m.jobs_scheduled,
            m.jobs_requeued,
            m.pending,
            m.rounds,
            m.sites_failed,
            m.sites_rejoined,
            o.rejected.clone(),
            m.max_completion,
        )
    };
    let sequential = pool(1).install(run);
    assert!(sequential.fully_accounted(), "{sequential:?}");
    assert!(
        sequential.metrics.sites_failed > 0,
        "the spec must inject churn"
    );
    for threads in [2, 4] {
        let parallel = pool(threads).install(run);
        assert_eq!(
            fingerprint(&sequential),
            fingerprint(&parallel),
            "{threads}-thread churn replay diverged from the sequential run"
        );
    }
}

// --- Observability inertness ----------------------------------------------

#[test]
fn recorder_on_vs_off_is_bit_identical() {
    // The flight recorder and latency histograms must be provably inert:
    // the same STGA run with recording enabled vs. disabled is
    // bit-identical, sequentially and under the rayon pool.
    let w = PsaConfig::default().with_n_jobs(100).generate().unwrap();
    let config = SimConfig::default().with_interval(Time::new(1_000.0));
    let run = || {
        let mut stga = Stga::new(StgaParams {
            ga: GaParams::default()
                .with_population(40)
                .with_generations(15)
                .with_seed(77),
            ..StgaParams::default()
        })
        .unwrap();
        stga.train(&w.jobs[..50], &w.grid, 8).unwrap();
        simulate(&w.jobs, &w.grid, &mut stga, &config).unwrap()
    };
    for threads in [1, 4] {
        gridsec::obs::recorder::disable();
        let off = pool(threads).install(run);
        gridsec::obs::recorder::enable();
        let on = pool(threads).install(run);
        gridsec::obs::recorder::disable();
        assert_eq!(
            off.metrics, on.metrics,
            "{threads}-thread run diverged with the recorder on"
        );
        assert_eq!(off.n_batches, on.n_batches);
        assert_eq!(off.mean_batch_size, on.mean_batch_size);
    }
}

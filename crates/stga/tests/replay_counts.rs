//! Counted, not timed: how a Table-1 STGA round scores its individuals,
//! read from the `stga_children` flight-recorder event each round emits.
//! The counts are a pure function of the seeds, so they hold on any host
//! and at any thread count. The recorder is process-wide: this binary
//! holds exactly one `#[test]`.
//!
//! Every individual of every generation either inherits a parent's
//! fitness or is replayed in full, on every grid, so the event's two
//! counts account for all of them — on the paper's PSA grid (20 one-node
//! sites) and on its NAS grid (12 sites of 16 or 8 nodes) alike.
//!
//! A child is bred by crossover and mutation from two parents. Once the
//! history-seeded population converges, most children are byte-identical
//! to one of their parents, and the GA already holds that parent's
//! fitness. At 6dbd77f, before a child equal to its other parent (or
//! one whose touched genes came out unchanged) inherited, the 10 PSA
//! rounds below replayed 158 757 of their 198 000 children in full (80 %,
//! 15 876 per round); with the rule, 64 873 (33 %).

use gridsec_core::{Grid, Job, Time};
use gridsec_sim::{simulate, BatchPolicy, SimConfig};
use gridsec_stga::{Stga, StgaParams};
use gridsec_workloads::{NasConfig, PsaConfig};

/// Jobs scheduled after training, in rounds of [`BATCH`].
const JOBS: usize = 128;
const BATCH: usize = 16;

/// Individuals per path over one run: `(rounds, inherited, full)`.
fn count_paths(params: StgaParams, training: &[Job], served: &[Job], grid: &Grid) -> [u64; 3] {
    let mut stga = Stga::new(params).expect("Table-1 parameters are valid");
    stga.train(training, grid, BATCH)
        .expect("training jobs fit the grid");
    // Count-triggered batching with a period no arrival gap reaches:
    // every round is 16 jobs (plus re-queued failures), as a daemon
    // under load serves them.
    let config = SimConfig::default()
        .with_batch_policy(BatchPolicy::CountTriggered(BATCH))
        .with_interval(Time::new(1e12))
        .with_seed(2005);

    gridsec_obs::recorder::clear();
    gridsec_obs::recorder::enable();
    simulate(served, grid, &mut stga, &config).expect("simulation runs");
    gridsec_obs::recorder::disable();

    let mut counts = [0u64; 3];
    for ev in gridsec_obs::recorder::snapshot() {
        if ev.name != "stga_children" {
            continue;
        }
        counts[0] += 1;
        for f in &ev.fields {
            match f.key.as_str() {
                "inherited" => counts[1] += f.value as u64,
                "full" => counts[2] += f.value as u64,
                _ => {}
            }
        }
    }
    counts
}

#[test]
fn table1_psa_rounds_replay_at_most_half_their_children() {
    let params = StgaParams::default();
    let ga = params.ga;
    // One path per individual per generation, generation 0 included.
    let individuals = |rounds: u64| rounds * ((ga.generations + 1) * ga.population) as u64;

    let training = PsaConfig::default()
        .with_n_jobs(params.training_jobs)
        .generate()
        .expect("PSA workload generates");
    // Served jobs from another seed, on the grid the STGA trained on.
    let served = PsaConfig::default()
        .with_n_jobs(JOBS)
        .with_seed(2006)
        .generate()
        .expect("PSA workload generates");
    let grid = training.grid;
    assert!(grid.sites().all(|s| s.nodes == 1), "PSA sites are one node");
    let [rounds, inherited, full] = count_paths(params, &training.jobs, &served.jobs, &grid);
    assert!(rounds >= (JOBS / BATCH) as u64, "{rounds} GA rounds");
    assert_eq!(inherited + full, individuals(rounds));
    // Generation 0 is replayed in full; every later full replay is a
    // bred child.
    let replayed = full - rounds * ga.population as u64;
    let bred = rounds * (ga.generations * (ga.population - ga.elitism)) as u64;
    assert!(
        replayed * 2 <= bred,
        "{replayed} of {bred} children replayed in full over {rounds} rounds"
    );

    // The NAS grid: multi-node sites, jobs up to 8 nodes wide.
    let training = NasConfig::default()
        .with_n_jobs(params.training_jobs)
        .generate()
        .expect("NAS workload generates");
    let served = NasConfig::default()
        .with_n_jobs(JOBS)
        .with_seed(2006)
        .generate()
        .expect("NAS workload generates");
    let grid = training.grid;
    assert!(
        grid.sites().any(|s| s.nodes > 1),
        "NAS sites are multi-node"
    );
    let [rounds, inherited, full] = count_paths(params, &training.jobs, &served.jobs, &grid);
    assert!(rounds >= (JOBS / BATCH) as u64, "{rounds} GA rounds");
    assert_eq!(inherited + full, individuals(rounds));
}

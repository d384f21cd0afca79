//! Counted, not timed: how many GA children a Table-1 STGA round replays
//! in full on the paper's PSA grid (20 one-node sites), read from the
//! `stga_children` flight-recorder event each round emits. The count is
//! a pure function of the seeds, so it holds on any host and at any
//! thread count. The recorder is process-wide: this binary holds exactly
//! one `#[test]`.
//!
//! A child is bred by crossover and mutation from two parents. Once the
//! history-seeded population converges, most children are byte-identical
//! to one of their parents, and the GA already holds that parent's
//! fitness. At 6dbd77f, before a child equal to its other parent (or
//! one whose touched genes came out unchanged) inherited, these 10
//! rounds replayed 158 757 of their 198 000 children in full (80 %,
//! 15 876 per round); with the rule, 64 873 (33 %).

use gridsec_core::Time;
use gridsec_sim::{simulate, BatchPolicy, SimConfig};
use gridsec_stga::{Stga, StgaParams};
use gridsec_workloads::PsaConfig;

/// Jobs scheduled after training, in rounds of [`BATCH`].
const JOBS: usize = 128;
const BATCH: usize = 16;

#[test]
fn table1_psa_rounds_replay_at_most_half_their_children() {
    let params = StgaParams::default();
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
    let mut stga = Stga::new(params).expect("Table-1 parameters are valid");
    stga.train(&training.jobs, &grid, BATCH)
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
    simulate(&served.jobs, &grid, &mut stga, &config).expect("simulation runs");
    gridsec_obs::recorder::disable();

    let (mut rounds, mut inherited, mut full) = (0u64, 0u64, 0u64);
    for ev in gridsec_obs::recorder::snapshot() {
        if ev.name != "stga_children" {
            continue;
        }
        rounds += 1;
        for f in &ev.fields {
            match f.key.as_str() {
                "inherited" => inherited += f.value as u64,
                "full" => full += f.value as u64,
                _ => {}
            }
        }
    }
    let ga = params.ga;
    assert!(rounds >= (JOBS / BATCH) as u64, "{rounds} GA rounds");
    // One path per individual per generation, generation 0 included; a
    // one-node grid never patches.
    assert_eq!(
        inherited + full,
        rounds * ((ga.generations + 1) * ga.population) as u64
    );
    // Generation 0 is replayed in full; every later full replay is a
    // bred child.
    let replayed = full - rounds * ga.population as u64;
    let bred = rounds * (ga.generations * (ga.population - ga.elitism)) as u64;
    assert!(
        replayed * 2 <= bred,
        "{replayed} of {bred} children replayed in full over {rounds} rounds"
    );
}

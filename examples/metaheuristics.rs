//! Greedy vs genetic search on one scheduling batch: Min-Min, the
//! conventional GA and the island GA — the trade-off the paper's §2
//! sketches ("GAs are effective … but too slow").
//!
//! Run with: `cargo run --release --example metaheuristics`

use gridsec::core::etc::NodeAvailability;
use gridsec::heuristics::common::{Fallback, MapCtx};
use gridsec::heuristics::mapping::{map_min_min, mapping_makespan};
use gridsec::prelude::*;
use gridsec::stga::fitness::FitnessKind;
use gridsec::stga::{evolve, evolve_islands};
use gridsec::workloads::PsaConfig;
use std::time::Instant;

fn main() {
    // One realistic 48-job batch over the Table-1 PSA grid.
    let w = PsaConfig::default().with_n_jobs(48).generate().unwrap();
    let avail: Vec<NodeAvailability> = w
        .grid
        .sites()
        .map(|s| NodeAvailability::new(s.nodes, Time::ZERO))
        .collect();
    let batch: Vec<BatchJob> = w
        .jobs
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
    let ctx = MapCtx::build(&batch, &view, RiskMode::Risky, Fallback::default());

    println!("one 48-job batch on 20 heterogeneous sites; batch makespan found by each search\n");
    println!(
        "{:<28} {:>14} {:>12}",
        "method", "makespan (s)", "time (ms)"
    );

    // Greedy reference.
    let t0 = Instant::now();
    let mut a = avail.clone();
    let mm = map_min_min(&ctx, &mut a);
    let ms = mapping_makespan(&ctx, avail.clone(), &mm);
    report("Min-Min (greedy)", ms.seconds(), t0);

    // Conventional GA.
    let t0 = Instant::now();
    let mut rng = gridsec::core::rng::stream(7, gridsec::core::rng::Stream::Genetic);
    let ga = evolve(
        &ctx,
        &avail,
        vec![],
        &GaParams::default().with_seed(7),
        FitnessKind::Makespan,
        None,
        &mut rng,
    );
    report("GA (200 pop x 100 gen)", ga.best_fitness, t0);

    // Island GA.
    let t0 = Instant::now();
    let islands = evolve_islands(
        &ctx,
        &avail,
        vec![],
        &IslandParams {
            ga: GaParams::default().with_population(50).with_seed(7),
            islands: 4,
            epochs: 5,
            migrants: 2,
        },
        FitnessKind::Makespan,
        None,
    );
    report("island GA (4 x 50)", islands.best_fitness, t0);

    println!(
        "\nAll searches explore the same space; the paper's STGA makes the GA\n\
         *online-viable* by starting from history instead of from scratch\n\
         (see `cargo run --release -p gridsec-bench --bin paper -- fig5`)."
    );
}

fn report(label: &str, fitness: f64, t0: Instant) {
    println!(
        "{label:<28} {:>14.0} {:>12}",
        fitness,
        t0.elapsed().as_millis()
    );
}

//! Trust in motion: start four sites at the security levels an operator
//! rated them, then let an IDS-style re-rating program — a declarative
//! chaos scenario of trust storms and an explicit re-rate — move them
//! during the run.
//!
//! Run with: `cargo run --release --example trust_dynamics`

use gridsec::prelude::*;
use gridsec::serve::ScenarioRunner;
use gridsec::sim::{ArrivalPhase, ArrivalProcess, Scenario, TrustSpec};

fn main() {
    // 1. Each site's starting SL, as rated from its defenses and history.
    let ratings = [
        ("hardened, clean history   ", 0.86),
        ("hardened, recent incidents", 0.73),
        ("average, clean history    ", 0.62),
        ("weak, troubled history    ", 0.41),
    ];
    println!("starting security levels:");
    let mut sites = Vec::new();
    for (i, &(label, sl)) in ratings.iter().enumerate() {
        println!("  {label} -> SL {sl:.2}");
        sites.push(
            Site::builder(i)
                .nodes(4)
                .speed(1.0 + i as f64 * 0.5)
                .security_level(sl)
                .build()
                .unwrap(),
        );
    }
    let grid = Grid::new(sites).unwrap();

    // 2. One tenant with the paper's demand range, as a declarative
    //    arrival phase — the same spec grammar `gridsec chaos` replays.
    let arrivals = vec![ArrivalPhase {
        tenant: "campus".into(),
        start: 0.0,
        end: 9_000.0,
        process: ArrivalProcess::Poisson { rate: 1.0 / 30.0 },
        width_min: 1,
        width_max: 4,
        work_min: 400.0,
        work_max: 1_120.0,
        sd_min: 0.6,
        sd_max: 0.9,
    }];

    // 3. Compare a quiet trust state with an IDS that keeps re-rating
    //    sites: a seeded random-walk storm (steps of up to ±0.05 at
    //    Poisson instants) plus one explicit re-rate mid-run.
    let quiet = Scenario {
        seed: 42,
        arrivals: arrivals.clone(),
        faults: vec![],
        trust: vec![],
        max_jobs: Some(300),
    };
    let storm = Scenario {
        trust: vec![
            TrustSpec::TrustStorm {
                start: 0.0,
                end: 9_000.0,
                rate: 1.0 / 600.0,
                jitter: 0.05,
            },
            TrustSpec::ReRate {
                at: 4_500.0,
                levels: vec![0.9, 0.4, 0.7, 0.5],
            },
        ],
        ..quiet.clone()
    };
    // Secure mode only admits sites whose SL covers the job's demand, so
    // every re-rating reshapes the admissible set (Risky mode would
    // shrug the storm off entirely).
    let config = SimConfig::default().with_interval(Time::new(600.0));
    for (label, scenario) in [
        ("static security levels", &quiet),
        ("re-rating storm", &storm),
    ] {
        let stream = scenario.compile(&grid).unwrap();
        let runner = ScenarioRunner::new(
            grid.clone(),
            Box::new(MinMin::new(RiskMode::Secure)),
            &config,
        )
        .unwrap();
        let outcome = runner.run(&stream).unwrap();
        assert!(outcome.fully_accounted());
        let m = &outcome.metrics;
        println!(
            "\n{label}: {} jobs scheduled, {} waiting for a trusted-enough site; \
             {} rounds, makespan {}",
            m.jobs_scheduled, m.pending, m.rounds, m.max_completion
        );
    }
    println!(
        "\nThe storm run replays the exact same seeded arrivals — only the \
         trust state\nmoves — so any makespan shift is the price of scheduling \
         against re-rated\nsites. `gridsec chaos <spec.json>` replays such a \
         spec from a file."
    );
}

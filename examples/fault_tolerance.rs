//! Fault tolerance, two ways: chaos-scenario churn through the round
//! engine (sites failing and rejoining mid-run, stranded jobs requeued,
//! zero lost), then replication racing a safe backup against every risky
//! primary (the DFTS idea the paper cites as related work).
//!
//! Run with: `cargo run --release --example fault_tolerance`

use gridsec::prelude::*;
use gridsec::serve::ScenarioRunner;
use gridsec::sim::{ArrivalPhase, ArrivalProcess, FaultSpec, Replicated, Scenario};
use gridsec::workloads::PsaConfig;

fn main() {
    // Act 1: a declarative chaos scenario. One tenant submits Poisson
    // arrivals while site 1 dies mid-run (stranding whatever it was
    // executing) and a seeded fault storm knocks sites out at random;
    // the engine requeues every stranded job and the books must balance.
    let sites = (0..4)
        .map(|i| {
            Site::builder(i)
                .nodes(4)
                .speed(1.0 + i as f64 * 0.5)
                .security_level(0.9)
                .build()
                .unwrap()
        })
        .collect();
    let grid = Grid::new(sites).unwrap();
    let scenario = Scenario {
        seed: 7,
        arrivals: vec![ArrivalPhase {
            tenant: "batch".into(),
            start: 0.0,
            end: 600.0,
            process: ArrivalProcess::Poisson { rate: 0.1 },
            width_min: 1,
            width_max: 4,
            work_min: 100.0,
            work_max: 600.0,
            sd_min: 0.3,
            sd_max: 0.6,
        }],
        faults: vec![
            FaultSpec::SiteDown {
                site: 1,
                at: 150.0,
                until: Some(400.0),
            },
            FaultSpec::FaultStorm {
                start: 100.0,
                end: 550.0,
                rate: 0.005,
                mttr: 80.0,
                sites: None,
            },
        ],
        trust: vec![],
        max_jobs: Some(60),
    };
    let stream = scenario.compile(&grid).unwrap();
    let config = SimConfig::default().with_interval(Time::new(60.0));
    let runner = ScenarioRunner::new(
        grid.clone(),
        Box::new(MinMin::new(RiskMode::Risky)),
        &config,
    )
    .unwrap();
    let outcome = runner.run(&stream).unwrap();
    let m = &outcome.metrics;
    println!(
        "chaos scenario: {} arrivals, {} site failures, {} rejoins",
        outcome.jobs_generated, m.sites_failed, m.sites_rejoined
    );
    println!(
        "  {} scheduled, {} requeued after mid-run failures, {} pending, {} rejected",
        m.jobs_scheduled,
        m.jobs_requeued,
        m.pending,
        outcome.rejected.len()
    );
    assert!(outcome.fully_accounted(), "no job may be silently lost");
    println!("  ledger balanced: every job scheduled, pending, or typed-rejected\n");

    // Act 2: replication. A harsher failure law than the default so the
    // backup replicas have work to do.
    let w = PsaConfig::default().with_n_jobs(400).generate().unwrap();
    let config = SimConfig::default()
        .with_interval(Time::new(1_000.0))
        .with_lambda(8.0)
        .unwrap();

    println!("replication study over {} jobs, lambda = 8\n", w.jobs.len());

    let mut plain = MinMin::new(RiskMode::Risky);
    let base = simulate(&w.jobs, &w.grid, &mut plain, &config).unwrap();
    println!("{}", base.summary());

    for threshold in [0.8, 0.5, 0.2] {
        let mut replicated = Replicated::new(MinMin::new(RiskMode::Risky), threshold);
        let config = config.clone().with_max_replicas(2);
        let out = simulate(&w.jobs, &w.grid, &mut replicated, &config).unwrap();
        println!(
            "{}  (threshold {threshold:.1}, {} backup dispatches)",
            out.summary(),
            out.replica_dispatches
        );
    }

    println!(
        "\nLower thresholds replicate more aggressively: failures drop (a \
         safe replica\nfinishes the job without a reschedule round-trip) \
         while utilisation rises\n(backups consume nodes even when the \
         primary would have succeeded)."
    );
}

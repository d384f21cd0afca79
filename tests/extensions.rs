//! Integration coverage for the extension features: batch policies,
//! estimate error, SL dynamics, replication and the attempt timeline — all
//! end-to-end through the simulator.

use gridsec::prelude::*;
use gridsec::workloads::PsaConfig;

fn psa(n: usize) -> (Vec<Job>, Grid) {
    let w = PsaConfig::default().with_n_jobs(n).generate().unwrap();
    (w.jobs, w.grid)
}

#[test]
fn batch_policies_all_complete_and_differ_in_batching() {
    let (jobs, grid) = psa(150);
    let base = SimConfig::default().with_interval(Time::new(1_000.0));
    let periodic = simulate(
        &jobs,
        &grid,
        &mut MinMin::new(RiskMode::Risky),
        &base.clone().with_batch_policy(BatchPolicy::Periodic),
    )
    .unwrap();
    let counted = simulate(
        &jobs,
        &grid,
        &mut MinMin::new(RiskMode::Risky),
        &base
            .clone()
            .with_batch_policy(BatchPolicy::CountTriggered(4)),
    )
    .unwrap();
    let hybrid = simulate(
        &jobs,
        &grid,
        &mut MinMin::new(RiskMode::Risky),
        &base.with_batch_policy(BatchPolicy::Hybrid(4)),
    )
    .unwrap();
    for out in [&periodic, &counted, &hybrid] {
        assert_eq!(out.metrics.n_jobs, 150);
    }
    // Count-triggered batches are capped at 4 (retries can add to a batch
    // only via the periodic path, which Hybrid also has).
    assert!(counted.max_batch_size <= 4 + 1);
    assert!(counted.n_batches >= periodic.n_batches);
}

#[test]
fn estimate_noise_degrades_gracefully() {
    let (jobs, grid) = psa(200);
    let base = SimConfig::default().with_interval(Time::new(1_000.0));
    let exact = simulate(
        &jobs,
        &grid,
        &mut Sufferage::new(RiskMode::FRisky(0.5)),
        &base.clone().with_estimates(EstimateModel::Exact),
    )
    .unwrap();
    let blind = simulate(
        &jobs,
        &grid,
        &mut Sufferage::new(RiskMode::FRisky(0.5)),
        &base.with_estimates(EstimateModel::Constant { work: 150_000.0 }),
    )
    .unwrap();
    assert_eq!(exact.metrics.n_jobs, blind.metrics.n_jobs);
    // Ignorance should not *improve* the schedule (tolerate small noise).
    assert!(
        blind.metrics.makespan.seconds() >= exact.metrics.makespan.seconds() * 0.95,
        "blind {} vs exact {}",
        blind.metrics.makespan,
        exact.metrics.makespan
    );
}

#[test]
fn sl_dynamics_keep_all_invariants() {
    let (jobs, grid) = psa(150);
    let config = SimConfig::default()
        .with_interval(Time::new(1_000.0))
        .with_sl_dynamics(SlDynamics {
            period: Time::new(2_000.0),
            step: 0.1,
            min: 0.2,
            max: 1.0,
        });
    let out = simulate(&jobs, &grid, &mut MinMin::new(RiskMode::Secure), &config).unwrap();
    assert_eq!(out.metrics.n_jobs, 150);
    assert!(out.metrics.n_fail <= out.metrics.n_risk);
}

#[test]
fn replication_end_to_end_with_min_min() {
    let (jobs, grid) = psa(120);
    let config = SimConfig::default()
        .with_interval(Time::new(1_000.0))
        .with_lambda(8.0)
        .unwrap()
        .with_max_replicas(2);
    let mut s = Replicated::new(MinMin::new(RiskMode::Risky), 0.4);
    let out = simulate(&jobs, &grid, &mut s, &config).unwrap();
    assert_eq!(out.metrics.n_jobs, 120);
    assert!(out.replica_dispatches > 0);
    // A replicated job that succeeds anywhere is not "failed and
    // rescheduled": failures must be rarer than its replica count.
    assert!(out.metrics.n_fail < out.replica_dispatches);
}

#[test]
fn timeline_is_consistent_with_metrics() {
    let (jobs, grid) = psa(80);
    let config = SimConfig::default()
        .with_interval(Time::new(1_000.0))
        .with_timeline();
    let out = simulate(&jobs, &grid, &mut MinMin::new(RiskMode::Risky), &config).unwrap();
    let tl = out.timeline.expect("timeline requested");
    // At least one attempt per job; failures add more.
    assert!(tl.len() >= 80);
    // Busy node-seconds from the timeline must equal the utilisation
    // accounting (same events, two ledgers).
    let horizon = out.metrics.makespan.seconds();
    for (i, site) in grid.sites().enumerate() {
        let from_tl = tl.busy_node_seconds(SiteId(i));
        let from_metrics =
            out.metrics.site_utilization[i] / 100.0 * f64::from(site.nodes) * horizon;
        assert!(
            (from_tl - from_metrics).abs() <= 1e-6 * from_metrics.max(1.0),
            "site {i}: timeline {from_tl} vs metrics {from_metrics}"
        );
    }
    // The timeline horizon is the makespan.
    assert!((tl.horizon().seconds() - horizon).abs() < 1e-9);
}

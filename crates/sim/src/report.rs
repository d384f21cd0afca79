//! Simulation output: paper metrics plus engine-level accounting.

use crate::timeline::Timeline;
use gridsec_core::metrics::Report;
use serde::{Deserialize, Serialize};

/// Everything one simulation run produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimOutput {
    /// `BatchScheduler::name()` of the scheduler that produced this run.
    pub scheduler_name: String,
    /// The paper's §4.1 metric set.
    pub metrics: Report,
    /// Number of non-empty batches scheduled.
    pub n_batches: usize,
    /// Mean batch size over non-empty batches.
    pub mean_batch_size: f64,
    /// Largest batch encountered.
    pub max_batch_size: usize,
    /// Wall-clock seconds spent *inside the scheduler* over the whole run —
    /// the paper's "fastness"/online-usability measure for the STGA.
    pub scheduler_seconds: f64,
    /// Per-attempt Gantt data (only with
    /// [`SimConfig::with_timeline`](crate::SimConfig)).
    #[serde(default)]
    pub timeline: Option<Timeline>,
    /// Experiment seed (for reproduction).
    pub seed: u64,
}

impl SimOutput {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<22} makespan={:>12.1}s resp={:>10.1}s slowdown={:>8.2} Nrisk={:>5} Nfail={:>5} util={:>5.1}% sched={:.3}s",
            self.scheduler_name,
            self.metrics.makespan.seconds(),
            self.metrics.avg_response,
            self.metrics.slowdown_ratio,
            self.metrics.n_risk,
            self.metrics.n_fail,
            self.metrics.overall_utilization,
            self.scheduler_seconds,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_core::Time;

    #[test]
    fn summary_contains_key_numbers() {
        let out = SimOutput {
            scheduler_name: "Min-Min Secure".into(),
            metrics: Report {
                n_jobs: 10,
                makespan: Time::new(1234.0),
                avg_response: 55.5,
                avg_service: 40.0,
                avg_wait: 15.5,
                slowdown_ratio: 1.39,
                n_risk: 3,
                n_fail: 1,
                site_utilization: vec![50.0],
                overall_utilization: 50.0,
                utilization_fairness: 1.0,
            },
            n_batches: 2,
            mean_batch_size: 5.0,
            max_batch_size: 7,
            scheduler_seconds: 0.001,
            timeline: None,
            seed: 42,
        };
        let s = out.summary();
        assert!(s.contains("Min-Min Secure"));
        assert!(s.contains("1234.0"));
        assert!(s.contains("Nfail=    1"));
    }
}

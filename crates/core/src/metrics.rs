//! Performance metrics (paper §4.1).
//!
//! The six metrics reported by the paper, with their exact definitions:
//!
//! * **Makespan** — `max_i { c_i }` over job completion times.
//! * **Average response time** — `Σ (c_i − a_i) / N` (completion minus
//!   arrival).
//! * **Slowdown ratio** (Eq. 3) — average response time divided by the
//!   average of `c_i − b_i` (completion minus *start*), i.e. response over
//!   in-service time; ≥ 1, and large when jobs queue for long.
//! * **N_risk** — number of jobs that ever ran on a site whose `SL` was
//!   below their `SD`.
//! * **N_fail** — number of jobs that actually failed (and were rescheduled
//!   on a safe site); bounded above by `N_risk`.
//! * **Site utilisation** — percentage of a site's processing power
//!   allocated to user jobs over the simulation horizon (failed attempts
//!   consume power and count).

use crate::job::JobId;
use crate::site::SiteId;
use crate::time::Time;
use serde::{Deserialize, Serialize};

/// Final record of one job's journey through the system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobOutcome {
    /// The job.
    pub id: JobId,
    /// Submission instant `a_i`.
    pub arrival: Time,
    /// First dispatch start `b_i` (start of the first attempt).
    pub first_start: Time,
    /// Final completion `c_i` (successful attempt's finish).
    pub completion: Time,
    /// Site of the successful attempt.
    pub final_site: SiteId,
    /// Whether any attempt ran on a site with `SL < SD`.
    pub risk_taken: bool,
    /// Number of failed attempts before success.
    pub failures: u32,
}

/// Accumulates job outcomes and per-site busy time during a simulation.
#[derive(Debug, Clone)]
pub struct MetricsCollector {
    outcomes: Vec<JobOutcome>,
    /// Busy node-seconds per site (includes time consumed by failed
    /// attempts — that power was allocated to user jobs).
    busy_node_seconds: Vec<f64>,
    site_nodes: Vec<u32>,
}

impl MetricsCollector {
    /// Creates a collector for a grid described by per-site node counts
    /// (in site-id order).
    pub fn new(site_nodes: Vec<u32>) -> Self {
        MetricsCollector {
            outcomes: Vec::new(),
            busy_node_seconds: vec![0.0; site_nodes.len()],
            site_nodes,
        }
    }

    /// Records node-seconds consumed on a site by one (possibly failed)
    /// attempt: `width × duration`.
    pub fn record_busy(&mut self, site: SiteId, width: u32, duration: Time) {
        self.busy_node_seconds[site.0] += f64::from(width) * duration.seconds();
    }

    /// Records a completed job.
    pub fn record_outcome(&mut self, outcome: JobOutcome) {
        self.outcomes.push(outcome);
    }

    /// Number of completed jobs so far.
    pub fn completed(&self) -> usize {
        self.outcomes.len()
    }

    /// Immutable view of the recorded outcomes.
    pub fn outcomes(&self) -> &[JobOutcome] {
        &self.outcomes
    }

    /// Produces the final report. `horizon` is the utilisation denominator
    /// interval; pass `None` to use the makespan.
    pub fn report(&self, horizon: Option<Time>) -> Report {
        let n = self.outcomes.len();
        if n == 0 {
            return Report::empty(self.site_nodes.len());
        }
        let makespan = self
            .outcomes
            .iter()
            .map(|o| o.completion)
            .max()
            .unwrap_or(Time::ZERO);
        let horizon = horizon.unwrap_or(makespan);
        let sum_response: f64 = self
            .outcomes
            .iter()
            .map(|o| (o.completion - o.arrival).seconds())
            .sum();
        let sum_service: f64 = self
            .outcomes
            .iter()
            .map(|o| (o.completion - o.first_start).seconds())
            .sum();
        let sum_wait: f64 = self
            .outcomes
            .iter()
            .map(|o| (o.first_start - o.arrival).seconds())
            .sum();
        let avg_response = sum_response / n as f64;
        let avg_service = sum_service / n as f64;
        let avg_wait = sum_wait / n as f64;
        let slowdown_ratio = if sum_service > 0.0 {
            sum_response / sum_service
        } else {
            1.0
        };
        let n_risk = self.outcomes.iter().filter(|o| o.risk_taken).count();
        let n_fail = self.outcomes.iter().filter(|o| o.failures > 0).count();
        let denom = horizon.seconds().max(f64::MIN_POSITIVE);
        let site_utilization: Vec<f64> = self
            .busy_node_seconds
            .iter()
            .zip(&self.site_nodes)
            .map(|(&busy, &nodes)| 100.0 * busy / (f64::from(nodes) * denom))
            .collect();
        let total_busy: f64 = self.busy_node_seconds.iter().sum();
        let total_nodes: f64 = self.site_nodes.iter().map(|&x| f64::from(x)).sum();
        let overall_utilization = 100.0 * total_busy / (total_nodes * denom);
        let utilization_fairness = jain_fairness(&site_utilization);
        Report {
            n_jobs: n,
            makespan,
            avg_response,
            avg_service,
            avg_wait,
            slowdown_ratio,
            n_risk,
            n_fail,
            site_utilization,
            overall_utilization,
            utilization_fairness,
        }
    }
}

/// The paper's §4.1 metric set for one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Number of completed jobs.
    pub n_jobs: usize,
    /// `max c_i`.
    pub makespan: Time,
    /// `Σ (c_i − a_i) / N` in seconds.
    pub avg_response: f64,
    /// `Σ (c_i − b_i) / N` in seconds (the paper's Eq. 3 denominator).
    pub avg_service: f64,
    /// `Σ (b_i − a_i) / N` in seconds (queueing delay).
    pub avg_wait: f64,
    /// Eq. (3): `avg_response / avg_service`.
    pub slowdown_ratio: f64,
    /// Jobs that ever ran on a site with `SL < SD`.
    pub n_risk: usize,
    /// Jobs with at least one failed attempt (`n_fail ≤ n_risk`).
    pub n_fail: usize,
    /// Per-site utilisation percentages.
    pub site_utilization: Vec<f64>,
    /// Grid-wide utilisation percentage.
    pub overall_utilization: f64,
    /// Jain's fairness index over per-site utilisations: 1.0 = perfectly
    /// balanced, `1/n` = all load on one of `n` sites. Quantifies the
    /// paper's Fig. 9 balance comparison.
    #[serde(default = "default_fairness")]
    pub utilization_fairness: f64,
}

fn default_fairness() -> f64 {
    1.0
}

/// Jain's fairness index `(Σx)² / (n·Σx²)`; 1.0 for an empty or all-zero
/// vector by convention.
pub fn jain_fairness(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        1.0
    } else {
        (sum * sum) / (xs.len() as f64 * sum_sq)
    }
}

impl Report {
    fn empty(n_sites: usize) -> Report {
        Report {
            n_jobs: 0,
            makespan: Time::ZERO,
            avg_response: 0.0,
            avg_service: 0.0,
            avg_wait: 0.0,
            slowdown_ratio: 1.0,
            n_risk: 0,
            n_fail: 0,
            site_utilization: vec![0.0; n_sites],
            overall_utilization: 0.0,
            utilization_fairness: 1.0,
        }
    }

    /// The makespan ratio α of this report relative to a baseline (Table 2:
    /// `α = makespan / makespan_STGA`).
    pub fn alpha_vs(&self, baseline: &Report) -> f64 {
        self.makespan.seconds() / baseline.makespan.seconds().max(f64::MIN_POSITIVE)
    }

    /// The response-time ratio β relative to a baseline (Table 2).
    pub fn beta_vs(&self, baseline: &Report) -> f64 {
        self.avg_response / baseline.avg_response.max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: u64, a: f64, b: f64, c: f64, risk: bool, fails: u32) -> JobOutcome {
        JobOutcome {
            id: JobId(id),
            arrival: Time::new(a),
            first_start: Time::new(b),
            completion: Time::new(c),
            final_site: SiteId(0),
            risk_taken: risk,
            failures: fails,
        }
    }

    #[test]
    fn empty_report() {
        let c = MetricsCollector::new(vec![4, 8]);
        let r = c.report(None);
        assert_eq!(r.n_jobs, 0);
        assert_eq!(r.makespan, Time::ZERO);
        assert_eq!(r.slowdown_ratio, 1.0);
        assert_eq!(r.site_utilization.len(), 2);
    }

    #[test]
    fn metrics_match_hand_computation() {
        let mut c = MetricsCollector::new(vec![2]);
        // Job 0: arrive 0, start 0, done 10. Job 1: arrive 0, start 10, done 20.
        c.record_outcome(outcome(0, 0.0, 0.0, 10.0, false, 0));
        c.record_outcome(outcome(1, 0.0, 10.0, 20.0, true, 1));
        c.record_busy(SiteId(0), 1, Time::new(10.0));
        c.record_busy(SiteId(0), 1, Time::new(10.0));
        let r = c.report(None);
        assert_eq!(r.n_jobs, 2);
        assert_eq!(r.makespan, Time::new(20.0));
        assert_eq!(r.avg_response, 15.0); // (10 + 20)/2
        assert_eq!(r.avg_service, 10.0); // (10 + 10)/2
        assert_eq!(r.avg_wait, 5.0); // (0 + 10)/2
        assert!((r.slowdown_ratio - 1.5).abs() < 1e-12);
        assert_eq!(r.n_risk, 1);
        assert_eq!(r.n_fail, 1);
        // 20 busy node-seconds of 2 nodes × 20 s = 40 → 50%.
        assert!((r.site_utilization[0] - 50.0).abs() < 1e-12);
        assert!((r.overall_utilization - 50.0).abs() < 1e-12);
    }

    #[test]
    fn jain_fairness_values() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
        assert!((jain_fairness(&[50.0, 50.0, 50.0]) - 1.0).abs() < 1e-12);
        // All load on one of four sites → 1/4.
        assert!((jain_fairness(&[80.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        let mixed = jain_fairness(&[90.0, 30.0]);
        assert!(mixed > 0.5 && mixed < 1.0);
    }

    #[test]
    fn nfail_bounded_by_nrisk_in_practice() {
        let mut c = MetricsCollector::new(vec![1]);
        c.record_outcome(outcome(0, 0.0, 0.0, 5.0, true, 0));
        c.record_outcome(outcome(1, 0.0, 0.0, 5.0, true, 1));
        let r = c.report(None);
        assert!(r.n_fail <= r.n_risk);
    }

    #[test]
    fn explicit_horizon_rescales_utilization() {
        let mut c = MetricsCollector::new(vec![1]);
        c.record_outcome(outcome(0, 0.0, 0.0, 10.0, false, 0));
        c.record_busy(SiteId(0), 1, Time::new(10.0));
        let r = c.report(Some(Time::new(40.0)));
        assert!((r.site_utilization[0] - 25.0).abs() < 1e-12);
    }

    #[test]
    fn table2_ratios() {
        let mut c1 = MetricsCollector::new(vec![1]);
        c1.record_outcome(outcome(0, 0.0, 0.0, 100.0, false, 0));
        let base = c1.report(None);
        let mut c2 = MetricsCollector::new(vec![1]);
        c2.record_outcome(outcome(0, 0.0, 0.0, 130.0, false, 0));
        let other = c2.report(None);
        assert!((other.alpha_vs(&base) - 1.3).abs() < 1e-12);
        assert!((other.beta_vs(&base) - 1.3).abs() < 1e-12);
    }
}

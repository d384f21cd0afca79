//! Simulator configuration.

use gridsec_core::{Error, FailureDetection, Result, SecurityModel, Time};
use serde::{Deserialize, Serialize};

/// When the engine runs the scheduler over the pending queue.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum BatchPolicy {
    /// Strictly periodic boundaries every `schedule_interval` (the
    /// paper's Fig. 1 model; default).
    #[default]
    Periodic,
    /// Schedule as soon as the pending queue reaches this many jobs
    /// (count-triggered batching; no periodic boundary except a final
    /// flush at the next interval).
    CountTriggered(usize),
    /// Periodic boundaries, but also fire early whenever the pending
    /// queue reaches this many jobs (bounds both latency and batch size).
    Hybrid(usize),
}

/// How far off the scheduler's execution-time estimates are from reality
/// (the paper's §5 future-work question: scheduling when durations are
/// *unknown a priori*). The engine shows the scheduler jobs whose `work`
/// is the estimate; execution uses the true value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EstimateModel {
    /// Estimates are exact (default behaviour when `None`).
    Exact,
    /// Estimate = true work × factor, factor log-uniform in
    /// `[1/(1+err), 1+err]` — symmetric multiplicative noise.
    Multiplicative {
        /// Maximum relative error `err > 0` (e.g. 1.0 → up to 2× off).
        err: f64,
    },
    /// The scheduler only knows each job's *class mean* — everything is
    /// estimated as the given constant (total-ignorance baseline).
    Constant {
        /// The constant estimate in reference seconds.
        work: f64,
    },
}

/// Random-walk dynamics of site security levels, emulating an IDS that
/// re-rates sites as its alert picture evolves.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlDynamics {
    /// How often the levels move.
    pub period: Time,
    /// Maximum per-step change (uniform in `[-step, +step]`).
    pub step: f64,
    /// Levels are clamped to `[min, max]`.
    pub min: f64,
    /// Upper clamp.
    pub max: f64,
}

impl SlDynamics {
    /// Validates the dynamics.
    pub fn validate(&self) -> Result<()> {
        if !(self.period.is_finite() && self.period > Time::ZERO) {
            return Err(Error::invalid(
                "sl_dynamics.period",
                "must be finite and positive",
            ));
        }
        if !(self.step.is_finite() && self.step >= 0.0) {
            return Err(Error::invalid("sl_dynamics.step", "must be ≥ 0"));
        }
        if !(0.0..=1.0).contains(&self.min)
            || !(0.0..=1.0).contains(&self.max)
            || self.min > self.max
        {
            return Err(Error::invalid(
                "sl_dynamics.bounds",
                "need 0 ≤ min ≤ max ≤ 1",
            ));
        }
        Ok(())
    }
}

/// Configuration of one simulation run.
///
/// Defaults mirror the paper's Table 1 where the paper is explicit, and
/// README.md's "Deviations from the paper" where it is not (λ, failure
/// timing, batch period).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Period of the batch-scheduling loop (Fig. 1). Jobs that arrived (or
    /// failed) since the previous boundary are scheduled together.
    pub schedule_interval: Time,
    /// When batches fire (periodic by default).
    pub batch_policy: BatchPolicy,
    /// The failure law (Eq. 1) coefficient λ wrapped in a model.
    pub security: SecurityModel,
    /// When during execution a sampled failure manifests.
    pub failure_detection: FailureDetection,
    /// Execution-time estimate quality shown to the scheduler.
    pub estimates: EstimateModel,
    /// Optional random-walk dynamics of site security levels.
    pub sl_dynamics: Option<SlDynamics>,
    /// Maximum simultaneous replicas the engine accepts per job in one
    /// batch schedule (1 = replication disabled, the paper's model).
    pub max_replicas: u32,
    /// Record the per-attempt timeline (every dispatch with its site,
    /// start, end and outcome) in the output — Gantt-chart data. Off by
    /// default: a 16 000-job NAS run generates ~25 000 attempt records.
    pub record_timeline: bool,
    /// Experiment seed; drives failure sampling, estimates and SL walks.
    pub seed: u64,
    /// Safety valve: abort if the simulated clock passes this horizon
    /// without draining all jobs (guards against schedulers that never
    /// place a job). `Time::INFINITY` disables the check.
    pub max_horizon: Time,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            schedule_interval: Time::new(1_000.0),
            batch_policy: BatchPolicy::default(),
            security: SecurityModel::default(),
            failure_detection: FailureDetection::default(),
            estimates: EstimateModel::Exact,
            sl_dynamics: None,
            max_replicas: 1,
            record_timeline: false,
            seed: 0xB5EC_u64,
            max_horizon: Time::INFINITY,
        }
    }
}

impl SimConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if !(self.schedule_interval.is_finite() && self.schedule_interval > Time::ZERO) {
            return Err(Error::invalid(
                "schedule_interval",
                "batch period must be finite and positive",
            ));
        }
        if self.max_horizon <= Time::ZERO {
            return Err(Error::invalid("max_horizon", "horizon must be positive"));
        }
        match self.batch_policy {
            BatchPolicy::CountTriggered(0) | BatchPolicy::Hybrid(0) => {
                return Err(Error::invalid("batch_policy", "count trigger must be ≥ 1"));
            }
            _ => {}
        }
        match self.estimates {
            EstimateModel::Multiplicative { err } if !(err.is_finite() && err > 0.0) => {
                return Err(Error::invalid("estimates.err", "must be positive"));
            }
            EstimateModel::Constant { work } if !(work.is_finite() && work > 0.0) => {
                return Err(Error::invalid("estimates.work", "must be positive"));
            }
            _ => {}
        }
        if let Some(d) = &self.sl_dynamics {
            d.validate()?;
        }
        if self.max_replicas == 0 {
            return Err(Error::invalid("max_replicas", "must be ≥ 1"));
        }
        Ok(())
    }

    /// Builder-style: sets the batch period.
    pub fn with_interval(mut self, t: Time) -> Self {
        self.schedule_interval = t;
        self
    }

    /// Builder-style: sets the batching policy.
    pub fn with_batch_policy(mut self, p: BatchPolicy) -> Self {
        self.batch_policy = p;
        self
    }

    /// Builder-style: sets the failure-model λ.
    pub fn with_lambda(mut self, lambda: f64) -> Result<Self> {
        self.security = SecurityModel::new(lambda)?;
        Ok(self)
    }

    /// Builder-style: sets the experiment seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: sets the failure-detection mode.
    pub fn with_failure_detection(mut self, fd: FailureDetection) -> Self {
        self.failure_detection = fd;
        self
    }

    /// Builder-style: sets the estimate model.
    pub fn with_estimates(mut self, e: EstimateModel) -> Self {
        self.estimates = e;
        self
    }

    /// Builder-style: enables SL dynamics.
    pub fn with_sl_dynamics(mut self, d: SlDynamics) -> Self {
        self.sl_dynamics = Some(d);
        self
    }

    /// Builder-style: allows up to `k` replicas per job.
    pub fn with_max_replicas(mut self, k: u32) -> Self {
        self.max_replicas = k;
        self
    }

    /// Builder-style: records the per-attempt timeline.
    pub fn with_timeline(mut self) -> Self {
        self.record_timeline = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(SimConfig::default().validate().is_ok());
    }

    #[test]
    fn zero_interval_rejected() {
        let c = SimConfig::default().with_interval(Time::ZERO);
        assert!(c.validate().is_err());
    }

    /// JSON `null` reads as +∞ for a `Time`: a batch period and a walk
    /// period must be finite; `max_horizon` is the one field where ∞ means
    /// "no limit".
    #[test]
    fn null_periods_rejected_null_horizon_allowed() {
        let json = serde_json::to_string(&SimConfig::default()).unwrap();
        assert!(json.contains("\"max_horizon\":null"), "{json}");
        let interval = json.replace("\"schedule_interval\":1000.0", "\"schedule_interval\":null");
        let c: SimConfig = serde_json::from_str(&interval).unwrap();
        assert_eq!(c.schedule_interval, Time::INFINITY);
        let err = c.validate().unwrap_err().to_string();
        assert!(err.contains("schedule_interval"), "{err}");
        let walk = SlDynamics {
            period: Time::INFINITY,
            step: 0.1,
            min: 0.0,
            max: 1.0,
        };
        let err = SimConfig::default().with_sl_dynamics(walk).validate();
        assert!(err.unwrap_err().to_string().contains("sl_dynamics.period"));
        let horizon: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(horizon.max_horizon, Time::INFINITY);
        assert!(horizon.validate().is_ok());
    }

    #[test]
    fn builder_chain() {
        let c = SimConfig::default()
            .with_interval(Time::new(50.0))
            .with_lambda(1.5)
            .unwrap()
            .with_seed(99)
            .with_failure_detection(FailureDetection::AtEnd)
            .with_batch_policy(BatchPolicy::Hybrid(16))
            .with_estimates(EstimateModel::Multiplicative { err: 0.5 })
            .with_max_replicas(2);
        assert_eq!(c.schedule_interval, Time::new(50.0));
        assert_eq!(c.security.lambda(), 1.5);
        assert_eq!(c.seed, 99);
        assert_eq!(c.failure_detection, FailureDetection::AtEnd);
        assert_eq!(c.batch_policy, BatchPolicy::Hybrid(16));
        assert_eq!(c.max_replicas, 2);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn bad_lambda_propagates() {
        assert!(SimConfig::default().with_lambda(-1.0).is_err());
    }

    #[test]
    fn bad_policy_rejected() {
        let c = SimConfig::default().with_batch_policy(BatchPolicy::CountTriggered(0));
        assert!(c.validate().is_err());
        let c = SimConfig::default().with_batch_policy(BatchPolicy::Hybrid(0));
        assert!(c.validate().is_err());
    }

    #[test]
    fn bad_estimates_rejected() {
        let c = SimConfig::default().with_estimates(EstimateModel::Multiplicative { err: 0.0 });
        assert!(c.validate().is_err());
        let c = SimConfig::default().with_estimates(EstimateModel::Constant { work: -5.0 });
        assert!(c.validate().is_err());
    }

    #[test]
    fn bad_dynamics_rejected() {
        let c = SimConfig::default().with_sl_dynamics(SlDynamics {
            period: Time::ZERO,
            step: 0.1,
            min: 0.0,
            max: 1.0,
        });
        assert!(c.validate().is_err());
        let c = SimConfig::default().with_sl_dynamics(SlDynamics {
            period: Time::new(100.0),
            step: 0.1,
            min: 0.8,
            max: 0.4,
        });
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_replicas_rejected() {
        let c = SimConfig::default().with_max_replicas(0);
        assert!(c.validate().is_err());
    }
}

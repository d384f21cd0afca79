//! The security / trust model of the paper's §2.
//!
//! * [`SecurityModel`] implements Eq. (1): the probability that a job with
//!   security demand `SD` fails on a site with security level `SL`.
//! * [`RiskMode`] implements the three operational modes of Fig. 3:
//!   *secure*, *risky*, and *f-risky*.
//! * [`FailureDetection`] decides **when** in a job's execution a sampled
//!   failure manifests (the paper leaves this open; README.md, "Deviations
//!   from the paper").

use crate::error::{Error, Result};
use crate::site::Site;
use serde::{Deserialize, Serialize};

/// The exponential failure law of Eq. (1).
///
/// ```text
/// P(fail) = 0                        if SD ≤ SL
///         = 1 − exp(−λ (SD − SL))    if SD > SL
/// ```
///
/// The paper does not fix λ; the library default is
/// [`SecurityModel::DEFAULT_LAMBDA`] (calibration: README.md, "Deviations
/// from the paper"). The model is intentionally pluggable — `SL`/`SD` may
/// come from IDS output or fuzzy-trust indices; the scheduler only consumes
/// probabilities.
///
/// ```
/// use gridsec_core::SecurityModel;
/// let m = SecurityModel::new(3.0).unwrap();
/// assert_eq!(m.fail_probability(0.6, 0.8), 0.0);       // SD ≤ SL: safe
/// assert!(m.fail_probability(0.9, 0.4) > 0.7);          // large gap: risky
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SecurityModel {
    lambda: f64,
}

impl SecurityModel {
    /// Default risk coefficient λ = 3.0 (spans P(fail) ∈ [0, 0.78) over the
    /// paper's SD/SL distributions; README.md, "Deviations from the paper").
    pub const DEFAULT_LAMBDA: f64 = 3.0;

    /// Creates a model with risk coefficient `lambda > 0`.
    pub fn new(lambda: f64) -> Result<Self> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(Error::invalid(
                "lambda",
                format!("λ must be positive and finite, got {lambda}"),
            ));
        }
        Ok(SecurityModel { lambda })
    }

    /// The risk coefficient λ.
    #[inline]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Eq. (1): probability that a job with demand `sd` fails on a site of
    /// level `sl`.
    #[inline]
    pub fn fail_probability(&self, sd: f64, sl: f64) -> f64 {
        if sd <= sl {
            0.0
        } else {
            1.0 - (-self.lambda * (sd - sl)).exp()
        }
    }

    /// Probability of failing on the given site.
    #[inline]
    pub fn fail_probability_on(&self, sd: f64, site: &Site) -> f64 {
        self.fail_probability(sd, site.security_level)
    }

    /// The largest `SD − SL` gap whose failure probability is still ≤ `f`.
    ///
    /// Useful for reasoning about the f-risky mode: a site is admissible iff
    /// `SD − SL ≤ max_gap_for(f)`. Returns `+∞` for `f ≥ 1`.
    pub fn max_gap_for(&self, f: f64) -> f64 {
        if f >= 1.0 {
            f64::INFINITY
        } else if f <= 0.0 {
            0.0
        } else {
            -(1.0 - f).ln() / self.lambda
        }
    }

    /// Expected number of *executions* (1 + expected retries under
    /// independent retries at the same probability). Used by risk-aware
    /// fitness ablations; not by the paper's base STGA.
    pub fn expected_attempts(&self, sd: f64, sl: f64) -> f64 {
        let p = self.fail_probability(sd, sl);
        if p >= 1.0 {
            f64::INFINITY
        } else {
            1.0 / (1.0 - p)
        }
    }
}

impl Default for SecurityModel {
    fn default() -> Self {
        SecurityModel {
            lambda: Self::DEFAULT_LAMBDA,
        }
    }
}

/// The three risk modes of §2 / Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RiskMode {
    /// Only sites with `SD ≤ SL` are admissible ("conservative").
    Secure,
    /// Every site is admissible ("aggressive"; the classical heuristics).
    Risky,
    /// Sites with `P(fail) ≤ f` are admissible; `FRisky(0.0) ≡ Secure`,
    /// `FRisky(1.0) ≡ Risky`.
    FRisky(f64),
}

impl RiskMode {
    /// The paper's chosen operating point `f = 0.5` (from the Fig. 7a
    /// sweep, whose minimum falls in 0.5–0.6).
    pub const PAPER_F: f64 = 0.5;

    /// Whether a site is admissible for a job with demand `sd` under this
    /// mode.
    #[inline]
    pub fn admits(&self, model: &SecurityModel, sd: f64, site: &Site) -> bool {
        match *self {
            RiskMode::Secure => sd <= site.security_level,
            RiskMode::Risky => true,
            RiskMode::FRisky(f) => model.fail_probability_on(sd, site) <= f,
        }
    }

    /// The risk tolerance as a probability (`Secure → 0`, `Risky → 1`).
    #[inline]
    pub fn tolerance(&self) -> f64 {
        match *self {
            RiskMode::Secure => 0.0,
            RiskMode::Risky => 1.0,
            RiskMode::FRisky(f) => f,
        }
    }

    /// Short label used by reports and bench output.
    pub fn label(&self) -> String {
        match *self {
            RiskMode::Secure => "Secure".to_string(),
            RiskMode::Risky => "Risky".to_string(),
            RiskMode::FRisky(f) => format!("{f:.1}-Risky"),
        }
    }
}

/// When during execution a sampled failure manifests (README.md,
/// "Deviations from the paper").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum FailureDetection {
    /// The job consumes its full execution time, then is found corrupted.
    AtEnd,
    /// The failure manifests at a uniformly-sampled fraction of the runtime
    /// (default): the site time up to that point is wasted.
    #[default]
    UniformFraction,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(sl: f64) -> Site {
        Site::builder(0).security_level(sl).build().unwrap()
    }

    #[test]
    fn eq1_boundary_and_monotonicity() {
        let m = SecurityModel::new(3.0).unwrap();
        assert_eq!(m.fail_probability(0.5, 0.5), 0.0);
        assert_eq!(m.fail_probability(0.5, 0.9), 0.0);
        let p1 = m.fail_probability(0.7, 0.6);
        let p2 = m.fail_probability(0.9, 0.6);
        assert!(p1 > 0.0 && p2 > p1 && p2 < 1.0);
        // Known value: 1 - e^{-3*0.1}
        assert!((p1 - (1.0 - (-0.3f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn lambda_validation() {
        assert!(SecurityModel::new(0.0).is_err());
        assert!(SecurityModel::new(-1.0).is_err());
        assert!(SecurityModel::new(f64::NAN).is_err());
        assert!(SecurityModel::new(1e-9).is_ok());
    }

    #[test]
    fn max_gap_inverts_eq1() {
        let m = SecurityModel::new(3.0).unwrap();
        for f in [0.1, 0.3, 0.5, 0.9] {
            let gap = m.max_gap_for(f);
            let p = m.fail_probability(0.5 + gap, 0.5);
            assert!((p - f).abs() < 1e-9, "f={f} p={p}");
        }
        assert_eq!(m.max_gap_for(0.0), 0.0);
        assert_eq!(m.max_gap_for(1.0), f64::INFINITY);
    }

    #[test]
    fn secure_mode_admits_only_safe_sites() {
        let m = SecurityModel::default();
        assert!(RiskMode::Secure.admits(&m, 0.6, &site(0.6)));
        assert!(RiskMode::Secure.admits(&m, 0.6, &site(0.9)));
        assert!(!RiskMode::Secure.admits(&m, 0.7, &site(0.6)));
    }

    #[test]
    fn risky_mode_admits_everything() {
        let m = SecurityModel::default();
        assert!(RiskMode::Risky.admits(&m, 0.9, &site(0.0)));
    }

    #[test]
    fn f_risky_interpolates() {
        let m = SecurityModel::new(3.0).unwrap();
        // Gap 0.5 → P(fail) ≈ 0.7769.
        let s = site(0.4);
        assert!(!RiskMode::FRisky(0.5).admits(&m, 0.9, &s));
        assert!(RiskMode::FRisky(0.8).admits(&m, 0.9, &s));
        // f = 0 behaves like Secure; f = 1 like Risky.
        assert!(!RiskMode::FRisky(0.0).admits(&m, 0.9, &s));
        assert!(RiskMode::FRisky(1.0).admits(&m, 0.9, &s));
    }

    #[test]
    fn f_risky_validation_and_labels() {
        assert_eq!(RiskMode::Secure.label(), "Secure");
        assert_eq!(RiskMode::FRisky(0.5).label(), "0.5-Risky");
        assert_eq!(RiskMode::Risky.tolerance(), 1.0);
    }

    #[test]
    fn expected_attempts() {
        let m = SecurityModel::new(3.0).unwrap();
        assert_eq!(m.expected_attempts(0.5, 0.9), 1.0);
        let p = m.fail_probability(0.9, 0.4);
        let e = m.expected_attempts(0.9, 0.4);
        assert!((e - 1.0 / (1.0 - p)).abs() < 1e-12);
    }
}

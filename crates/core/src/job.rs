//! Jobs: atomic units of Grid work.
//!
//! The paper models a job as *"an atomic unit of program execution that is
//! neither malleable nor moldable"*: it arrives at some instant, requires a
//! fixed number of nodes (`width`), performs a fixed amount of work, and
//! carries a **security demand** `SD` that the hosting site's security level
//! must meet for risk-free execution.

use crate::error::{Error, Result};
use crate::time::Time;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a job, unique within one workload.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "J{}", self.0)
    }
}

/// An independent, non-malleable Grid job.
///
/// `work` is expressed in *reference seconds*: the execution time on a site
/// of speed 1.0. A site of speed `v` executes the job in `work / v` seconds.
///
/// ```
/// use gridsec_core::{Job, Time};
/// let job = Job::builder(3)
///     .arrival(Time::new(10.0))
///     .work(600.0)
///     .width(4)
///     .security_demand(0.75)
///     .build()
///     .unwrap();
/// assert_eq!(job.width, 4);
/// assert!((job.security_demand - 0.75).abs() < 1e-12);
/// ```
///
/// A job is valid when it is typed: `Deserialize` reads the fields into a
/// [`JobBuilder`] and goes through [`JobBuilder::build`], so no JSON — a
/// daemon's `submit` frame above all — can carry a job the schedulers
/// were not written for. `Serialize` writes the fields as they are.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Job {
    /// Unique identifier.
    pub id: JobId,
    /// Instant the job was submitted to the Grid.
    pub arrival: Time,
    /// Number of nodes the job occupies while running.
    pub width: u32,
    /// Work in reference seconds (runtime on a speed-1.0 node set).
    pub work: f64,
    /// Security demand `SD` (paper: uniform in `[0.6, 0.9]`).
    pub security_demand: f64,
}

impl Job {
    /// Starts building a job with the given id and library defaults
    /// (`arrival = 0`, `width = 1`, `work = 1.0`, `SD = 0.6`).
    pub fn builder(id: u64) -> JobBuilder {
        JobBuilder::new(id)
    }

    /// Execution time of this job on a site with relative speed `speed`.
    ///
    /// # Panics
    /// Panics (debug) if `speed` is non-positive; validated sites always
    /// have positive speed.
    #[inline]
    pub fn exec_time(&self, speed: f64) -> Time {
        debug_assert!(speed > 0.0, "site speed must be positive");
        Time::new(self.work / speed)
    }
}

/// Builder for [`Job`] with validation at [`JobBuilder::build`]; also the
/// form a job is deserialised in (all five fields, `id` a bare number).
#[derive(Debug, Clone, Deserialize)]
pub struct JobBuilder {
    id: u64,
    arrival: Time,
    width: u32,
    work: f64,
    security_demand: f64,
}

impl JobBuilder {
    fn new(id: u64) -> Self {
        JobBuilder {
            id,
            arrival: Time::ZERO,
            width: 1,
            work: 1.0,
            security_demand: 0.6,
        }
    }

    /// Sets the submission instant.
    pub fn arrival(mut self, t: Time) -> Self {
        self.arrival = t;
        self
    }

    /// Sets the node width (must be ≥ 1).
    pub fn width(mut self, w: u32) -> Self {
        self.width = w;
        self
    }

    /// Sets the work in reference seconds (must be positive and finite).
    pub fn work(mut self, w: f64) -> Self {
        self.work = w;
        self
    }

    /// Sets the security demand (must lie in `[0, 1]`).
    pub fn security_demand(mut self, sd: f64) -> Self {
        self.security_demand = sd;
        self
    }

    /// Validates and constructs the [`Job`]: `width ≥ 1`, `work` finite
    /// and positive, `SD ∈ [0, 1]`, `arrival` finite and non-negative. The
    /// error names the offending field.
    pub fn build(self) -> Result<Job> {
        if self.width == 0 {
            return Err(Error::invalid("width", "job width must be at least 1"));
        }
        if !(self.work.is_finite() && self.work > 0.0) {
            return Err(Error::invalid(
                "work",
                format!("work must be positive and finite, got {}", self.work),
            ));
        }
        if !(0.0..=1.0).contains(&self.security_demand) {
            return Err(Error::invalid(
                "security_demand",
                format!("SD must be in [0, 1], got {}", self.security_demand),
            ));
        }
        if !self.arrival.is_finite() {
            return Err(Error::invalid("arrival", "non-finite arrival time"));
        }
        if self.arrival < Time::ZERO {
            return Err(Error::invalid("arrival", "arrival must be non-negative"));
        }
        Ok(Job {
            id: JobId(self.id),
            arrival: self.arrival,
            width: self.width,
            work: self.work,
            security_demand: self.security_demand,
        })
    }
}

impl<'de> Deserialize<'de> for Job {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> std::result::Result<Self, D::Error> {
        let fields = JobBuilder::deserialize(d)?;
        fields.build().map_err(serde::de::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let j = Job::builder(1).build().unwrap();
        assert_eq!(j.id, JobId(1));
        assert_eq!(j.arrival, Time::ZERO);
        assert_eq!(j.width, 1);
        assert_eq!(j.work, 1.0);
    }

    #[test]
    fn exec_time_scales_with_speed() {
        let j = Job::builder(1).work(100.0).build().unwrap();
        assert_eq!(j.exec_time(1.0), Time::new(100.0));
        assert_eq!(j.exec_time(2.0), Time::new(50.0));
        assert_eq!(j.exec_time(0.5), Time::new(200.0));
    }

    #[test]
    fn zero_width_rejected() {
        assert!(Job::builder(1).width(0).build().is_err());
    }

    #[test]
    fn nonpositive_work_rejected() {
        assert!(Job::builder(1).work(0.0).build().is_err());
        assert!(Job::builder(1).work(-5.0).build().is_err());
        assert!(Job::builder(1).work(f64::INFINITY).build().is_err());
    }

    #[test]
    fn sd_out_of_range_rejected() {
        assert!(Job::builder(1).security_demand(1.5).build().is_err());
        assert!(Job::builder(1).security_demand(-0.1).build().is_err());
        assert!(Job::builder(1).security_demand(0.0).build().is_ok());
        assert!(Job::builder(1).security_demand(1.0).build().is_ok());
    }

    #[test]
    fn negative_arrival_rejected() {
        assert!(Job::builder(1).arrival(Time::new(-1.0)).build().is_err());
    }

    #[test]
    fn job_id_display() {
        assert_eq!(JobId(42).to_string(), "J42");
    }
}

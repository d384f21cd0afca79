//! The parameter-sweep application (PSA) workload of §4.2 / Table 1.
//!
//! A PSA is a set of `N` independent sequential jobs (width 1), each with
//! the same task specification but a different dataset. Table 1 parameters:
//!
//! | parameter       | value                          |
//! |-----------------|--------------------------------|
//! | number of jobs  | 5000 (scaled in Fig. 10)       |
//! | number of sites | 20                             |
//! | arrival rate    | Poisson, 0.008 jobs/s          |
//! | job workloads   | 20 levels over (0, 300000] s   |
//! | site speeds     | 10 levels over (0, 10]         |
//! | SL              | U[0.4, 1.0]                    |
//! | SD              | U[0.6, 0.9]                    |

use crate::arrival::PoissonProcess;
use crate::security::SecurityParams;
use gridsec_core::rng::{stream, Stream};
use gridsec_core::{Error, Grid, Job, Result, Site};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the PSA generator (defaults = Table 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PsaConfig {
    /// Number of jobs `N`.
    pub n_jobs: usize,
    /// Number of Grid sites `M`.
    pub n_sites: usize,
    /// Poisson arrival rate (jobs per second).
    pub arrival_rate: f64,
    /// Number of discrete workload levels.
    pub work_levels: u32,
    /// Maximum workload in reference seconds (level `k` of `L` carries
    /// `k/L × max_work`, `k = 1..=L`, so work is never 0).
    pub max_work: f64,
    /// Number of discrete site-speed levels (level `k` of `L` has speed
    /// `k/L × max_speed`, `k = 1..=L`).
    pub speed_levels: u32,
    /// Maximum site speed.
    pub max_speed: f64,
    /// SD/SL distributions.
    pub security: SecurityParams,
    /// Generator seed.
    pub seed: u64,
}

impl Default for PsaConfig {
    fn default() -> Self {
        PsaConfig {
            n_jobs: 5000,
            n_sites: 20,
            arrival_rate: 0.008,
            work_levels: 20,
            max_work: 300_000.0,
            speed_levels: 10,
            max_speed: 10.0,
            security: SecurityParams::default(),
            seed: 2005,
        }
    }
}

impl PsaConfig {
    /// Table-1 defaults with a different job count (the Fig. 10 sweep).
    pub fn with_n_jobs(mut self, n: usize) -> Self {
        self.n_jobs = n;
        self
    }

    /// Table-1 defaults with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.n_jobs == 0 {
            return Err(Error::invalid("n_jobs", "need at least one job"));
        }
        if self.n_sites == 0 {
            return Err(Error::invalid("n_sites", "need at least one site"));
        }
        if !(self.arrival_rate.is_finite() && self.arrival_rate > 0.0) {
            return Err(Error::invalid("arrival_rate", "must be positive"));
        }
        if self.work_levels == 0 || self.speed_levels == 0 {
            return Err(Error::invalid("levels", "level counts must be ≥ 1"));
        }
        if !(self.max_work.is_finite() && self.max_work > 0.0) {
            return Err(Error::invalid("max_work", "must be positive"));
        }
        if !(self.max_speed.is_finite() && self.max_speed > 0.0) {
            return Err(Error::invalid("max_speed", "must be positive"));
        }
        self.security.validate()
    }

    /// Generates the workload and its grid.
    pub fn generate(&self) -> Result<PsaWorkload> {
        self.validate()?;
        let mut wl_rng = stream(self.seed, Stream::Workload);
        let mut sd_rng = stream(self.seed, Stream::SecurityDemand);
        let mut sl_rng = stream(self.seed, Stream::SecurityLevel);

        let arrivals = PoissonProcess::new(self.arrival_rate).generate(self.n_jobs, &mut wl_rng);
        let mut jobs = Vec::with_capacity(self.n_jobs);
        for (i, at) in arrivals.into_iter().enumerate() {
            let level = wl_rng.gen_range(1..=self.work_levels);
            let work = f64::from(level) / f64::from(self.work_levels) * self.max_work;
            let sd = self.security.sample_sd(&mut sd_rng);
            jobs.push(
                Job::builder(i as u64)
                    .arrival(at)
                    .width(1)
                    .work(work)
                    .security_demand(sd)
                    .build()?,
            );
        }

        let mut sites = Vec::with_capacity(self.n_sites);
        for s in 0..self.n_sites {
            let level = sl_rng.gen_range(1..=self.speed_levels);
            let speed = f64::from(level) / f64::from(self.speed_levels) * self.max_speed;
            let sl = self.security.sample_sl(&mut sl_rng);
            sites.push(
                Site::builder(s)
                    .nodes(1)
                    .speed(speed)
                    .security_level(sl)
                    .build()?,
            );
        }
        Ok(PsaWorkload {
            jobs,
            grid: Grid::new(sites)?,
            config: self.clone(),
        })
    }
}

/// A generated PSA instance.
#[derive(Debug, Clone)]
pub struct PsaWorkload {
    /// The jobs, in arrival order.
    pub jobs: Vec<Job>,
    /// The 20-site grid.
    pub grid: Grid,
    /// The configuration that produced it.
    pub config: PsaConfig,
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // builder-free mutation reads clearer in tests
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = PsaConfig::default();
        assert_eq!(c.n_jobs, 5000);
        assert_eq!(c.n_sites, 20);
        assert_eq!(c.arrival_rate, 0.008);
        assert_eq!(c.work_levels, 20);
        assert_eq!(c.max_work, 300_000.0);
        assert_eq!(c.speed_levels, 10);
    }

    #[test]
    fn generate_produces_consistent_workload() {
        let w = PsaConfig::default().with_n_jobs(500).generate().unwrap();
        assert_eq!(w.jobs.len(), 500);
        assert_eq!(w.grid.len(), 20);
        // Jobs sorted by arrival, all width 1, work within the level grid.
        assert!(w.jobs.windows(2).all(|p| p[0].arrival <= p[1].arrival));
        for j in &w.jobs {
            assert_eq!(j.width, 1);
            assert!(j.work > 0.0 && j.work <= 300_000.0);
            let level = j.work / 300_000.0 * 20.0;
            assert!(
                (level - level.round()).abs() < 1e-9,
                "work not on level grid"
            );
            assert!((0.6..=0.9).contains(&j.security_demand));
        }
        for s in w.grid.sites() {
            assert!(s.speed > 0.0 && s.speed <= 10.0);
            assert!((0.4..=1.0).contains(&s.security_level));
            assert_eq!(s.nodes, 1);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = PsaConfig::default().with_n_jobs(100).generate().unwrap();
        let b = PsaConfig::default().with_n_jobs(100).generate().unwrap();
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.grid, b.grid);
        let c = PsaConfig::default()
            .with_n_jobs(100)
            .with_seed(999)
            .generate()
            .unwrap();
        assert_ne!(a.jobs, c.jobs);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(PsaConfig::default().with_n_jobs(0).generate().is_err());
        let mut c = PsaConfig::default();
        c.arrival_rate = 0.0;
        assert!(c.generate().is_err());
        let mut c = PsaConfig::default();
        c.work_levels = 0;
        assert!(c.generate().is_err());
    }

    #[test]
    fn mean_work_matches_table1() {
        let w = PsaConfig::default().with_n_jobs(2000).generate().unwrap();
        // The mean of 20 uniform levels of 300 000 is 157 500.
        let works: Vec<f64> = w.jobs.iter().map(|j| j.work).collect();
        let mean = works.iter().sum::<f64>() / works.len() as f64;
        assert!((mean - 157_500.0).abs() < 12_000.0, "mean work {mean}");
        // PSA is heavily over-subscribed relative to its arrival span.
        let span = w.jobs.last().unwrap().arrival - w.jobs[0].arrival;
        let demand: f64 = works.iter().sum();
        assert!(demand > w.grid.total_power() * span.seconds());
    }

    #[test]
    fn arrival_span_matches_rate() {
        let w = PsaConfig::default().generate().unwrap();
        let span = w.jobs.last().unwrap().arrival.seconds();
        let expect = 5000.0 / 0.008;
        assert!(
            (span - expect).abs() / expect < 0.1,
            "span {span} vs {expect}"
        );
    }
}

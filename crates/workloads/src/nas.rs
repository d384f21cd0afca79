//! Synthetic NAS iPSC/860 trace (§4.2) and the paper's 12-site Grid.
//!
//! The paper replays three months (92 days, ~16 000 jobs) of accounting
//! records from the 128-node Intel iPSC/860 at NASA Ames, time-squeezed to
//! 46 days, over a 12-site Grid (4 sites × 16 nodes + 8 sites × 8 nodes).
//!
//! The genuine trace is not redistributable here, so this module generates
//! a **distribution-faithful synthetic trace** following the published
//! characterisation by Feitelson & Nitzberg (1994):
//!
//! * job widths are powers of two from 1 to 128 (the hypercube dimension),
//!   with small jobs most numerous but wide jobs carrying most of the
//!   consumed node-seconds;
//! * runtimes span seconds to hours, roughly log-uniform, positively
//!   correlated with width;
//! * submissions follow a strong diurnal and weekday/weekend cycle.
//!
//! Real traces in Standard Workload Format (e.g. `NASA-iPSC-1993-3.swf`)
//! can be loaded through [`crate::swf`] instead; both paths produce the
//! same `Vec<Job>` shape, so every experiment runs unchanged on the real
//! data when it is available.
//!
//! **Width folding.** The paper's grid has at most 16 nodes per site while
//! trace jobs go up to 128 nodes; an atomic job must fit within one site.
//! Jobs wider than `fold_width` (default 8, the smallest site size) are
//! folded: width becomes `fold_width` and work is scaled by
//! `original_width / fold_width`, preserving node-seconds, so every site
//! can host every job (README.md, "Deviations from the paper").

use crate::arrival::{DiurnalProfile, ModulatedPoisson};
use crate::security::SecurityParams;
use gridsec_core::rng::{stream, Stream};
use gridsec_core::{Error, Grid, Job, Result, Site, Time};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Power-of-two width classes and their job-count weights.
///
/// Approximates the size distribution reported for the NASA Ames iPSC/860:
/// single-node jobs dominate counts; 32- and 64-node jobs dominate
/// node-seconds.
const WIDTH_CLASSES: [(u32, f64); 8] = [
    (1, 0.28),
    (2, 0.11),
    (4, 0.14),
    (8, 0.13),
    (16, 0.12),
    (32, 0.12),
    (64, 0.07),
    (128, 0.03),
];

/// Configuration of the synthetic NAS trace generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NasConfig {
    /// Number of jobs (paper: 16 000).
    pub n_jobs: usize,
    /// Trace span in days before squeezing (paper: 92).
    pub trace_days: f64,
    /// Time-squeeze factor (paper: 2.0 → 46 days of arrivals).
    pub squeeze: f64,
    /// Minimum job runtime in seconds.
    pub min_runtime: f64,
    /// Maximum base runtime in seconds (before the width correlation).
    pub max_runtime: f64,
    /// Jobs wider than this are folded down to this width with their work
    /// scaled by `raw_width / fold_width` (node-seconds preserved).
    /// Default 8 — the smallest site size — so every site can host every
    /// job and the load spreads across the whole 12-site grid; folding to
    /// 16 instead would pin 75 % of the node-seconds to the four 16-node
    /// sites (README.md, "Deviations from the paper").
    pub fold_width: u32,
    /// SD/SL distributions.
    pub security: SecurityParams,
    /// Generator seed.
    pub seed: u64,
}

impl Default for NasConfig {
    fn default() -> Self {
        NasConfig {
            n_jobs: 16_000,
            trace_days: 92.0,
            squeeze: 2.0,
            min_runtime: 30.0,
            max_runtime: 14_400.0, // 4 h
            fold_width: 8,
            security: SecurityParams::default(),
            seed: 1993,
        }
    }
}

impl NasConfig {
    /// Table-1 defaults with a different job count.
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
        if !(self.trace_days.is_finite() && self.trace_days > 0.0) {
            return Err(Error::invalid("trace_days", "must be positive"));
        }
        if !(self.squeeze.is_finite() && self.squeeze >= 1.0) {
            return Err(Error::invalid("squeeze", "must be ≥ 1"));
        }
        if !(self.min_runtime > 0.0 && self.max_runtime > self.min_runtime) {
            return Err(Error::invalid(
                "runtime",
                "need 0 < min_runtime < max_runtime",
            ));
        }
        if self.fold_width == 0 {
            return Err(Error::invalid("fold_width", "must be ≥ 1"));
        }
        self.security.validate()
    }

    /// The paper's 12-site NAS Grid: 4 × 16-node + 8 × 8-node sites,
    /// homogeneous speed 1.0, `SL ~ U[0.4, 1.0]` drawn from this config's
    /// seed.
    pub fn grid(&self) -> Result<Grid> {
        let mut sl_rng = stream(self.seed, Stream::SecurityLevel);
        let mut sites = Vec::with_capacity(12);
        for id in 0..12 {
            let nodes = if id < 4 { 16 } else { 8 };
            sites.push(
                Site::builder(id)
                    .nodes(nodes)
                    .speed(1.0)
                    .security_level(self.security.sample_sl(&mut sl_rng))
                    .build()?,
            );
        }
        Grid::new(sites)
    }

    /// Generates the synthetic trace and its grid.
    pub fn generate(&self) -> Result<NasWorkload> {
        self.validate()?;
        let grid = self.grid()?;
        let fold = self.fold_width.min(grid.max_nodes());
        let mut wl_rng = stream(self.seed, Stream::Workload);
        let mut sd_rng = stream(self.seed, Stream::SecurityDemand);

        // Peak rate calibrated so the expected arrival count over the
        // (un-squeezed) trace span matches n_jobs.
        let profile = DiurnalProfile::default();
        let mean_intensity = mean_weekly_intensity(&profile);
        let span = self.trace_days * 86_400.0;
        let peak_rate = self.n_jobs as f64 / (mean_intensity * span);
        let process = ModulatedPoisson::new(peak_rate, profile);

        let mut jobs = Vec::with_capacity(self.n_jobs);
        let mut t = Time::ZERO;
        for i in 0..self.n_jobs {
            t = process.next_after(t, &mut wl_rng);
            let raw_width = sample_width(&mut wl_rng);
            let runtime = self.sample_runtime(raw_width, &mut wl_rng);
            // Fold wide jobs, preserving node-seconds.
            let (width, work) = if raw_width > fold {
                (fold, runtime * f64::from(raw_width) / f64::from(fold))
            } else {
                (raw_width, runtime)
            };
            jobs.push(
                Job::builder(i as u64)
                    .arrival(t / self.squeeze)
                    .width(width)
                    .work(work)
                    .security_demand(self.security.sample_sd(&mut sd_rng))
                    .build()?,
            );
        }
        Ok(NasWorkload {
            jobs,
            grid,
            config: self.clone(),
        })
    }

    /// Log-uniform base runtime with a mild positive width correlation
    /// (`width^0.15`, capped at 1.5 × max_runtime).
    fn sample_runtime<R: Rng + ?Sized>(&self, width: u32, rng: &mut R) -> f64 {
        let lo = self.min_runtime.ln();
        let hi = self.max_runtime.ln();
        let base = (rng.gen_range(lo..hi)).exp();
        let corr = f64::from(width).powf(0.15);
        (base * corr).min(self.max_runtime * 1.5)
    }
}

/// Average of the weekly intensity profile (fraction of peak).
fn mean_weekly_intensity(p: &DiurnalProfile) -> f64 {
    let weekday = (10.0 / 24.0) * p.prime + (14.0 / 24.0) * p.night;
    (5.0 * weekday + 2.0 * p.weekend) / 7.0
}

/// Samples a power-of-two width from [`WIDTH_CLASSES`].
fn sample_width<R: Rng + ?Sized>(rng: &mut R) -> u32 {
    let total: f64 = WIDTH_CLASSES.iter().map(|(_, w)| w).sum();
    let mut x = rng.gen_range(0.0..total);
    for &(width, w) in &WIDTH_CLASSES {
        if x < w {
            return width;
        }
        x -= w;
    }
    WIDTH_CLASSES[WIDTH_CLASSES.len() - 1].0
}

/// A generated NAS instance.
#[derive(Debug, Clone)]
pub struct NasWorkload {
    /// The jobs, in arrival order.
    pub jobs: Vec<Job>,
    /// The 12-site grid (4 × 16 + 8 × 8 nodes).
    pub grid: Grid,
    /// The configuration that produced it.
    pub config: NasConfig,
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // builder-free mutation reads clearer in tests
mod tests {
    use super::*;

    fn small() -> NasWorkload {
        NasConfig::default().with_n_jobs(2000).generate().unwrap()
    }

    #[test]
    fn grid_matches_paper_topology() {
        let g = NasConfig::default().grid().unwrap();
        assert_eq!(g.len(), 12);
        let sixteens = g.sites().filter(|s| s.nodes == 16).count();
        let eights = g.sites().filter(|s| s.nodes == 8).count();
        assert_eq!(sixteens, 4);
        assert_eq!(eights, 8);
        // 128 mapped nodes in total.
        assert_eq!(g.sites().map(|s| s.nodes).sum::<u32>(), 128);
        for s in g.sites() {
            assert!((0.4..=1.0).contains(&s.security_level));
            assert_eq!(s.speed, 1.0);
        }
    }

    #[test]
    fn widths_are_powers_of_two_and_fit() {
        let w = small();
        for j in &w.jobs {
            assert!(j.width.is_power_of_two(), "width {}", j.width);
            assert!(j.width <= 8, "width folded to the smallest site");
            assert!(j.work >= w.config.min_runtime * 0.99);
        }
        // Single-node jobs should be the most common class.
        let ones = w.jobs.iter().filter(|j| j.width == 1).count();
        assert!(ones as f64 / w.jobs.len() as f64 > 0.2);
    }

    #[test]
    fn arrivals_follow_the_diurnal_cycle() {
        // Unsqueezed: the paper's ×2 time squeeze compresses the day/night
        // cycle to 12 h, scrambling hour-of-day phases.
        let mut cfg = NasConfig::default().with_n_jobs(4000);
        cfg.squeeze = 1.0;
        let w = cfg.generate().unwrap();
        let mut per_hour = [0usize; 24];
        for j in &w.jobs {
            per_hour[(j.arrival.seconds() % 86_400.0 / 3_600.0) as usize] += 1;
        }
        // Prime-time hours (per-hour rate) clearly exceed night hours.
        let day = per_hour[8..18].iter().sum::<usize>() as f64 / 10.0;
        let night = per_hour[0..6].iter().sum::<usize>() as f64 / 6.0;
        assert!(day > night * 2.0, "day {day:.1} night {night:.1} jobs/hour");
    }

    #[test]
    fn folding_preserves_node_seconds_statistically() {
        // Width-8 jobs include folded 16/32/64/128-node jobs, so their
        // mean work exceeds that of the narrow jobs.
        let w = small();
        let wide_work: Vec<f64> = w
            .jobs
            .iter()
            .filter(|j| j.width == 8)
            .map(|j| j.work)
            .collect();
        let narrow_work: Vec<f64> = w
            .jobs
            .iter()
            .filter(|j| j.width == 1)
            .map(|j| j.work)
            .collect();
        let mw = wide_work.iter().sum::<f64>() / wide_work.len() as f64;
        let mn = narrow_work.iter().sum::<f64>() / narrow_work.len() as f64;
        assert!(mw > mn, "folded wide jobs should carry more work");
    }

    #[test]
    fn arrivals_squeezed_to_half_span() {
        // The peak rate is calibrated to the configured job count, so any
        // count spans the full (squeezed) 46-day window, never the raw 92.
        let w = NasConfig::default().with_n_jobs(4000).generate().unwrap();
        let last = w.jobs.last().unwrap().arrival;
        assert!(
            last > Time::days(30.0) && last < Time::days(60.0),
            "arrivals end at {last}"
        );
        assert!(w.jobs.windows(2).all(|p| p[0].arrival <= p[1].arrival));
    }

    #[test]
    fn full_trace_spans_about_46_days() {
        let w = NasConfig::default().generate().unwrap();
        assert_eq!(w.jobs.len(), 16_000);
        let last = w.jobs.last().unwrap().arrival;
        assert!(
            last > Time::days(35.0) && last < Time::days(55.0),
            "span {last}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = NasConfig::default().with_n_jobs(300).generate().unwrap();
        let b = NasConfig::default().with_n_jobs(300).generate().unwrap();
        assert_eq!(a.jobs, b.jobs);
        let c = NasConfig::default()
            .with_n_jobs(300)
            .with_seed(7)
            .generate()
            .unwrap();
        assert_ne!(a.jobs, c.jobs);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(NasConfig::default().with_n_jobs(0).generate().is_err());
        let mut c = NasConfig::default();
        c.squeeze = 0.5;
        assert!(c.generate().is_err());
        let mut c = NasConfig::default();
        c.min_runtime = 100.0;
        c.max_runtime = 50.0;
        assert!(c.generate().is_err());
    }

    #[test]
    fn security_demands_in_range() {
        let w = small();
        assert!(w
            .jobs
            .iter()
            .all(|j| (0.6..=0.9).contains(&j.security_demand)));
    }
}

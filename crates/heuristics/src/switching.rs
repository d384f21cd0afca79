//! The Switching Algorithm (Maheswaran et al.): alternate between MET and
//! MCT based on the grid's load-balance index.
//!
//! MET drives work to the fastest sites (good when the grid is balanced,
//! terrible once they saturate); MCT balances load (but wastes the fast
//! sites when everything is idle). Switching watches the ratio of the
//! earliest to the latest site ready-time, `π = r_min / r_max ∈ [0, 1]`:
//! when the load is balanced (`π > high`) it uses MET to exploit fast
//! sites, and once imbalance grows (`π < low`) it falls back to MCT until
//! balance recovers.

use crate::common::{candidate_sites, Fallback};
use gridsec_core::etc::NodeAvailability;
use gridsec_core::{BatchSchedule, Error, Result, RiskMode, SiteId, Time};
use gridsec_sim::{BatchJob, BatchScheduler, GridView};

/// The Switching scheduler.
#[derive(Debug, Clone)]
pub struct Switching {
    mode: RiskMode,
    low: f64,
    high: f64,
    use_met: bool,
}

impl Switching {
    /// Creates a Switching scheduler with thresholds `0 ≤ low ≤ high ≤ 1`
    /// (classic values: low = 0.6, high = 0.9).
    pub fn new(mode: RiskMode, low: f64, high: f64) -> Result<Switching> {
        if !(0.0..=1.0).contains(&low) || !(0.0..=1.0).contains(&high) || low > high {
            return Err(Error::invalid(
                "thresholds",
                format!("need 0 ≤ low ≤ high ≤ 1, got ({low}, {high})"),
            ));
        }
        Ok(Switching {
            mode,
            low,
            high,
            use_met: false, // start balanced-pessimistic: MCT
        })
    }

    /// Classic thresholds (0.6, 0.9).
    pub fn classic(mode: RiskMode) -> Switching {
        Self::new(mode, 0.6, 0.9).expect("classic thresholds are valid")
    }

    /// Load-balance index over current availability: earliest ready time
    /// divided by latest ready time (1.0 = perfectly balanced).
    fn balance_index(avail: &[NodeAvailability]) -> f64 {
        let readies: Vec<f64> = avail.iter().map(|a| a.ready_time().seconds()).collect();
        let min = readies.iter().copied().fold(f64::INFINITY, f64::min);
        let max = readies.iter().copied().fold(0.0f64, f64::max);
        if max <= 0.0 {
            1.0
        } else {
            (min / max).clamp(0.0, 1.0)
        }
    }
}

impl BatchScheduler for Switching {
    fn name(&self) -> String {
        format!("Switching {}", self.mode.label())
    }

    fn schedule(&mut self, batch: &[BatchJob], view: &GridView<'_>) -> BatchSchedule {
        let mut avail = view.avail_clone();
        let mut out = BatchSchedule::new();
        for bj in batch {
            let job = &bj.job;
            // Update the regime from the *current* tentative state.
            let pi = Self::balance_index(&avail);
            if pi > self.high {
                self.use_met = true;
            } else if pi < self.low {
                self.use_met = false;
            }
            let cands = candidate_sites(job, bj.secure_only, self.mode, view, Fallback::default());
            let mut best: Option<(usize, Time, Time)> = None; // (site, key, ct)
            for &s in &cands {
                let site = view.grid.site(SiteId(s));
                let Some(start) = avail[s].earliest_start(job.width, view.now.max(job.arrival))
                else {
                    continue;
                };
                let exec = job.exec_time(site.speed);
                let ct = start + exec;
                let key = if self.use_met { exec } else { ct };
                if best.is_none_or(|(_, k, _)| key < k) {
                    best = Some((s, key, ct));
                }
            }
            let (s, _, ct) = best.expect("candidates are never empty");
            avail[s].commit(job.width, ct);
            out.push(job.id, SiteId(s));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_core::{Grid, Job, SecurityModel, Site};

    fn grid() -> Grid {
        Grid::new(vec![
            Site::builder(0).nodes(1).speed(1.0).build().unwrap(),
            Site::builder(1).nodes(1).speed(4.0).build().unwrap(),
        ])
        .unwrap()
    }

    fn batch(n: u64) -> Vec<BatchJob> {
        (0..n)
            .map(|i| BatchJob {
                job: Job::builder(i).work(100.0).build().unwrap(),
                secure_only: false,
            })
            .collect()
    }

    #[test]
    fn threshold_validation() {
        assert!(Switching::new(RiskMode::Risky, 0.9, 0.6).is_err());
        assert!(Switching::new(RiskMode::Risky, -0.1, 0.5).is_err());
        assert!(Switching::new(RiskMode::Risky, 0.6, 0.9).is_ok());
    }

    #[test]
    fn starts_balanced_uses_met_then_switches_to_mct() {
        let g = grid();
        let avail = vec![
            NodeAvailability::new(1, Time::ZERO),
            NodeAvailability::new(1, Time::ZERO),
        ];
        let view = GridView {
            grid: &g,
            avail: &avail,
            now: Time::ZERO,
            model: SecurityModel::default(),
        };
        let mut s = Switching::classic(RiskMode::Risky);
        let schedule = s.schedule(&batch(6), &view);
        // On an idle grid π = 1 → MET sends the first job(s) to the fast
        // site; imbalance grows, π drops, MCT kicks in and uses site 0 too.
        assert_eq!(schedule.assignments[0].site, SiteId(1));
        let used: std::collections::HashSet<_> =
            schedule.assignments.iter().map(|a| a.site).collect();
        assert!(used.contains(&SiteId(0)), "MCT regime must engage");
        let jobs: Vec<Job> = batch(6).into_iter().map(|b| b.job).collect();
        assert!(schedule.validate(&jobs, &g).is_ok());
    }

    #[test]
    fn balance_index_extremes() {
        let idle = vec![
            NodeAvailability::new(1, Time::ZERO),
            NodeAvailability::new(1, Time::ZERO),
        ];
        assert_eq!(Switching::balance_index(&idle), 1.0);
        let mut skew = idle.clone();
        skew[0].commit(1, Time::new(100.0));
        assert_eq!(Switching::balance_index(&skew), 0.0);
    }
}

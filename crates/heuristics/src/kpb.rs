//! The k-percent-best (KPB) immediate-mode heuristic (Maheswaran et al.).
//!
//! For each job, consider only the `k` percent of admissible sites with
//! the smallest *execution* time, and among them pick the earliest
//! *completion*. KPB interpolates between MET (`k` → 0: fastest site
//! only) and MCT (`k` = 100: all sites), avoiding MET's pile-up on the
//! single fastest site while still favouring fast sites.

use crate::common::{candidate_sites, Fallback};
use gridsec_core::etc::NodeAvailability;
use gridsec_core::{BatchSchedule, Error, Result, RiskMode, SiteId, Time};
use gridsec_sim::{BatchJob, BatchScheduler, GridView};

/// k-percent-best scheduler.
#[derive(Debug, Clone)]
pub struct Kpb {
    mode: RiskMode,
    /// Percentage of best-executing sites to consider, in `(0, 100]`.
    k_percent: f64,
}

impl Kpb {
    /// Creates a KPB scheduler; `k_percent` must lie in `(0, 100]`.
    pub fn new(mode: RiskMode, k_percent: f64) -> Result<Kpb> {
        if !(k_percent > 0.0 && k_percent <= 100.0) {
            return Err(Error::invalid(
                "k_percent",
                format!("must be in (0, 100], got {k_percent}"),
            ));
        }
        Ok(Kpb { mode, k_percent })
    }

    /// The `k` parameter.
    pub fn k_percent(&self) -> f64 {
        self.k_percent
    }
}

impl BatchScheduler for Kpb {
    fn name(&self) -> String {
        format!("KPB({:.0}%) {}", self.k_percent, self.mode.label())
    }

    fn schedule(&mut self, batch: &[BatchJob], view: &GridView<'_>) -> BatchSchedule {
        let mut avail: Vec<NodeAvailability> = view.avail_clone();
        let mut out = BatchSchedule::new();
        for bj in batch {
            let job = &bj.job;
            let mut cands =
                candidate_sites(job, bj.secure_only, self.mode, view, Fallback::default());
            // Keep the ceil(k% × |cands|) sites with the smallest exec time.
            cands.sort_by(|&a, &b| {
                let ea = job.work / view.grid.site(SiteId(a)).speed;
                let eb = job.work / view.grid.site(SiteId(b)).speed;
                ea.total_cmp(&eb)
            });
            let keep = ((self.k_percent / 100.0) * cands.len() as f64).ceil() as usize;
            cands.truncate(keep.max(1));
            let mut best: Option<(usize, Time)> = None;
            for &s in &cands {
                let site = view.grid.site(SiteId(s));
                let start = match avail[s].earliest_start(job.width, view.now.max(job.arrival)) {
                    Some(t) => t,
                    None => continue,
                };
                let ct = start + job.exec_time(site.speed);
                if best.is_none_or(|(_, t)| ct < t) {
                    best = Some((s, ct));
                }
            }
            let (s, ct) = best.expect("kept candidate list is non-empty");
            avail[s].commit(job.width, ct);
            out.push(job.id, SiteId(s));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_core::{Grid, Job, JobId, SecurityModel, Site};

    fn grid3() -> Grid {
        Grid::new(vec![
            Site::builder(0).nodes(1).speed(1.0).build().unwrap(),
            Site::builder(1).nodes(1).speed(2.0).build().unwrap(),
            Site::builder(2).nodes(1).speed(4.0).build().unwrap(),
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
    fn k_validation() {
        assert!(Kpb::new(RiskMode::Risky, 0.0).is_err());
        assert!(Kpb::new(RiskMode::Risky, 101.0).is_err());
        assert!(Kpb::new(RiskMode::Risky, 50.0).is_ok());
    }

    #[test]
    fn small_k_behaves_like_met() {
        // k = 1% keeps only the fastest site; all jobs pile onto site 2.
        let grid = grid3();
        let avail = vec![NodeAvailability::new(1, Time::ZERO); 3];
        let view = GridView {
            grid: &grid,
            avail: &avail,
            now: Time::ZERO,
            model: SecurityModel::default(),
        };
        let mut kpb = Kpb::new(RiskMode::Risky, 1.0).unwrap();
        let s = kpb.schedule(&batch(3), &view);
        assert!(s.assignments.iter().all(|a| a.site == SiteId(2)));
    }

    #[test]
    fn full_k_behaves_like_mct() {
        // k = 100% sees queue buildup and spreads.
        let grid = grid3();
        let avail = vec![NodeAvailability::new(1, Time::ZERO); 3];
        let view = GridView {
            grid: &grid,
            avail: &avail,
            now: Time::ZERO,
            model: SecurityModel::default(),
        };
        let mut kpb = Kpb::new(RiskMode::Risky, 100.0).unwrap();
        let s = kpb.schedule(&batch(3), &view);
        let distinct: std::collections::HashSet<_> = s.assignments.iter().map(|a| a.site).collect();
        // 100/50/25 exec times: site 2 twice (25, 50 … wait queue) — at
        // least two distinct sites get used.
        assert!(distinct.len() >= 2);
    }

    #[test]
    fn intermediate_k_balances_within_fast_sites() {
        let grid = grid3();
        let avail = vec![NodeAvailability::new(1, Time::ZERO); 3];
        let view = GridView {
            grid: &grid,
            avail: &avail,
            now: Time::ZERO,
            model: SecurityModel::default(),
        };
        // 67% of 3 sites → 2 fastest sites (1 and 2).
        let mut kpb = Kpb::new(RiskMode::Risky, 67.0).unwrap();
        let s = kpb.schedule(&batch(4), &view);
        assert!(s
            .assignments
            .iter()
            .all(|a| a.site == SiteId(1) || a.site == SiteId(2)));
        assert_eq!(s.site_of(JobId(0)), Some(SiteId(2)));
    }
}

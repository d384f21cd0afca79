//! The security-driven Sufferage scheduler (§2, heuristic 2).

use crate::common::{Fallback, MapCtx};
use crate::mapping::map_sufferage;
use gridsec_core::{BatchSchedule, RiskMode};
use gridsec_sim::{BatchJob, BatchScheduler, GridView};

/// Sufferage under a risk mode: the job that would "suffer" most in
/// completion time if denied its best site (second-best CT − best CT) is
/// assigned first, to its best site.
#[derive(Debug, Clone)]
pub struct Sufferage {
    mode: RiskMode,
}

impl Sufferage {
    /// Creates a Sufferage scheduler operating under `mode`.
    pub fn new(mode: RiskMode) -> Self {
        Sufferage { mode }
    }

    /// The risk mode in force.
    pub fn mode(&self) -> RiskMode {
        self.mode
    }
}

impl BatchScheduler for Sufferage {
    fn name(&self) -> String {
        format!("Sufferage {}", self.mode.label())
    }

    fn schedule(&mut self, batch: &[BatchJob], view: &GridView<'_>) -> BatchSchedule {
        let ctx = MapCtx::build(batch, view, self.mode, Fallback::default());
        let mut avail = view.avail_clone();
        let mapping = map_sufferage(&ctx, &mut avail);
        BatchSchedule::from_pairs(
            mapping
                .into_iter()
                .map(|(j, s)| (batch[j].job.id, gridsec_core::SiteId(s))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_core::etc::NodeAvailability;
    use gridsec_core::{Grid, Job, JobId, SecurityModel, Site, SiteId, Time};

    #[test]
    fn prioritises_site_captive_jobs() {
        // Site 0 fast, site 1 very slow. The wide job only fits on site 0;
        // among narrow jobs, the one with the bigger penalty moves first.
        let grid = Grid::new(vec![
            Site::builder(0)
                .nodes(4)
                .speed(4.0)
                .security_level(1.0)
                .build()
                .unwrap(),
            Site::builder(1)
                .nodes(1)
                .speed(1.0)
                .security_level(1.0)
                .build()
                .unwrap(),
        ])
        .unwrap();
        let avail = vec![
            NodeAvailability::new(4, Time::ZERO),
            NodeAvailability::new(1, Time::ZERO),
        ];
        let view = GridView {
            grid: &grid,
            avail: &avail,
            now: Time::ZERO,
            model: SecurityModel::default(),
        };
        let batch: Vec<BatchJob> = vec![
            Job::builder(0).work(40.0).width(1).build().unwrap(),
            Job::builder(1).work(400.0).width(1).build().unwrap(),
        ]
        .into_iter()
        .map(|job| BatchJob {
            job,
            secure_only: false,
        })
        .collect();
        let s = Sufferage::new(RiskMode::Risky).schedule(&batch, &view);
        // Job 1 suffers more (400 − 100 = 300 vs 40 − 10 = 30): first.
        assert_eq!(s.assignments[0].job, JobId(1));
        assert_eq!(s.assignments[0].site, SiteId(0));
        let jobs: Vec<Job> = batch.iter().map(|b| b.job.clone()).collect();
        assert!(s.validate(&jobs, &grid).is_ok());
    }

    #[test]
    fn secure_only_jobs_avoid_risk_even_in_risky_mode() {
        let grid = Grid::new(vec![
            Site::builder(0)
                .nodes(1)
                .speed(10.0)
                .security_level(0.2)
                .build()
                .unwrap(),
            Site::builder(1)
                .nodes(1)
                .speed(1.0)
                .security_level(0.99)
                .build()
                .unwrap(),
        ])
        .unwrap();
        let avail = vec![
            NodeAvailability::new(1, Time::ZERO),
            NodeAvailability::new(1, Time::ZERO),
        ];
        let view = GridView {
            grid: &grid,
            avail: &avail,
            now: Time::ZERO,
            model: SecurityModel::default(),
        };
        let batch = vec![BatchJob {
            job: Job::builder(0)
                .work(50.0)
                .security_demand(0.9)
                .build()
                .unwrap(),
            secure_only: true,
        }];
        let s = Sufferage::new(RiskMode::Risky).schedule(&batch, &view);
        assert_eq!(s.site_of(JobId(0)), Some(SiteId(1)));
    }
}

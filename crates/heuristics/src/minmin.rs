//! The security-driven Min-Min scheduler (§2, heuristic 1).

use crate::common::{Fallback, MapCtx};
use crate::mapping::map_min_min;
use gridsec_core::{BatchSchedule, RiskMode};
use gridsec_sim::{BatchJob, BatchScheduler, GridView};

/// Min-Min under a risk mode: for each job the site with the earliest
/// completion time is identified; the job with the minimum earliest
/// completion time is assigned first, and the process repeats.
///
/// ```
/// use gridsec_core::RiskMode;
/// use gridsec_heuristics::MinMin;
/// use gridsec_sim::BatchScheduler;
/// let s = MinMin::new(RiskMode::FRisky(0.5));
/// assert_eq!(s.name(), "Min-Min 0.5-Risky");
/// ```
#[derive(Debug, Clone)]
pub struct MinMin {
    mode: RiskMode,
}

impl MinMin {
    /// Creates a Min-Min scheduler operating under `mode`.
    pub fn new(mode: RiskMode) -> Self {
        MinMin { mode }
    }

    /// The risk mode in force.
    pub fn mode(&self) -> RiskMode {
        self.mode
    }
}

impl BatchScheduler for MinMin {
    fn name(&self) -> String {
        format!("Min-Min {}", self.mode.label())
    }

    fn schedule(&mut self, batch: &[BatchJob], view: &GridView<'_>) -> BatchSchedule {
        let ctx = MapCtx::build(batch, view, self.mode, Fallback::default());
        let mut avail = view.avail_clone();
        let mapping = map_min_min(&ctx, &mut avail);
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

    fn batch(jobs: Vec<Job>) -> Vec<BatchJob> {
        jobs.into_iter()
            .map(|job| BatchJob {
                job,
                secure_only: false,
            })
            .collect()
    }

    #[test]
    fn secure_mode_avoids_low_sl_sites() {
        let grid = Grid::new(vec![
            Site::builder(0)
                .nodes(1)
                .speed(10.0)
                .security_level(0.3)
                .build()
                .unwrap(),
            Site::builder(1)
                .nodes(1)
                .speed(1.0)
                .security_level(0.95)
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
        let b = batch(vec![Job::builder(0)
            .work(100.0)
            .security_demand(0.8)
            .build()
            .unwrap()]);
        let schedule = MinMin::new(RiskMode::Secure).schedule(&b, &view);
        assert_eq!(schedule.site_of(JobId(0)), Some(SiteId(1)));
        // Risky mode takes the 10× faster unsafe site.
        let schedule = MinMin::new(RiskMode::Risky).schedule(&b, &view);
        assert_eq!(schedule.site_of(JobId(0)), Some(SiteId(0)));
    }

    #[test]
    fn schedules_whole_batch() {
        let grid = Grid::new(vec![Site::builder(0).nodes(2).build().unwrap()]).unwrap();
        let avail = vec![NodeAvailability::new(2, Time::ZERO)];
        let view = GridView {
            grid: &grid,
            avail: &avail,
            now: Time::ZERO,
            model: SecurityModel::default(),
        };
        let jobs: Vec<Job> = (0..5)
            .map(|i| Job::builder(i).work(10.0 + i as f64).build().unwrap())
            .collect();
        let b = batch(jobs.clone());
        let schedule = MinMin::new(RiskMode::Risky).schedule(&b, &view);
        assert!(schedule.validate(&jobs, &grid).is_ok());
        // Min-Min emits the shortest job first.
        assert_eq!(schedule.assignments[0].job, JobId(0));
    }
}

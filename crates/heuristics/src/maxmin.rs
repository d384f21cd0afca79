//! The Max-Min baseline (Braun et al.), security-driven like its peers.

use crate::common::{Fallback, MapCtx};
use crate::mapping::map_max_min;
use gridsec_core::{BatchSchedule, RiskMode};
use gridsec_sim::{BatchJob, BatchScheduler, GridView};

/// Max-Min under a risk mode: the dual of Min-Min — the job whose *best*
/// completion time is **largest** is assigned first, so long jobs are not
/// starved to the end of the batch. Not part of the paper's seven-way
/// comparison, but a standard baseline used in our ablation benches.
#[derive(Debug, Clone)]
pub struct MaxMin {
    mode: RiskMode,
}

impl MaxMin {
    /// Creates a Max-Min scheduler operating under `mode`.
    pub fn new(mode: RiskMode) -> Self {
        MaxMin { mode }
    }

    /// The risk mode in force.
    pub fn mode(&self) -> RiskMode {
        self.mode
    }
}

impl BatchScheduler for MaxMin {
    fn name(&self) -> String {
        format!("Max-Min {}", self.mode.label())
    }

    fn schedule(&mut self, batch: &[BatchJob], view: &GridView<'_>) -> BatchSchedule {
        let ctx = MapCtx::build(batch, view, self.mode, Fallback::default());
        let mut avail = view.avail_clone();
        let mapping = map_max_min(&ctx, &mut avail);
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
    use gridsec_core::{Grid, Job, JobId, SecurityModel, Site, Time};

    #[test]
    fn longest_job_goes_first() {
        let grid = Grid::new(vec![Site::builder(0).nodes(2).build().unwrap()]).unwrap();
        let avail = vec![NodeAvailability::new(2, Time::ZERO)];
        let view = GridView {
            grid: &grid,
            avail: &avail,
            now: Time::ZERO,
            model: SecurityModel::default(),
        };
        let batch: Vec<BatchJob> = vec![
            Job::builder(0).work(10.0).build().unwrap(),
            Job::builder(1).work(500.0).build().unwrap(),
            Job::builder(2).work(50.0).build().unwrap(),
        ]
        .into_iter()
        .map(|job| BatchJob {
            job,
            secure_only: false,
        })
        .collect();
        let s = MaxMin::new(RiskMode::Risky).schedule(&batch, &view);
        assert_eq!(s.assignments[0].job, JobId(1));
        let jobs: Vec<Job> = batch.iter().map(|b| b.job.clone()).collect();
        assert!(s.validate(&jobs, &grid).is_ok());
    }
}

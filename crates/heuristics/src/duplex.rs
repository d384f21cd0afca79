//! Duplex: run Min-Min *and* Max-Min on the batch, keep whichever
//! produces the smaller batch makespan (Braun et al.'s eleventh-hour
//! baseline — cheap insurance against Min-Min's long-job starvation).

use crate::common::{Fallback, MapCtx};
use crate::mapping::{map_max_min, map_min_min, mapping_makespan};
use gridsec_core::{BatchSchedule, RiskMode};
use gridsec_sim::{BatchJob, BatchScheduler, GridView};

/// The Duplex scheduler.
#[derive(Debug, Clone)]
pub struct Duplex {
    mode: RiskMode,
}

impl Duplex {
    /// Creates a Duplex scheduler operating under `mode`.
    pub fn new(mode: RiskMode) -> Self {
        Duplex { mode }
    }

    /// The risk mode in force.
    pub fn mode(&self) -> RiskMode {
        self.mode
    }
}

impl BatchScheduler for Duplex {
    fn name(&self) -> String {
        format!("Duplex {}", self.mode.label())
    }

    fn schedule(&mut self, batch: &[BatchJob], view: &GridView<'_>) -> BatchSchedule {
        let ctx = MapCtx::build(batch, view, self.mode, Fallback::default());
        let mut a1 = view.avail_clone();
        let mm = map_min_min(&ctx, &mut a1);
        let mut a2 = view.avail_clone();
        let xm = map_max_min(&ctx, &mut a2);
        let ms_mm = mapping_makespan(&ctx, view.avail_clone(), &mm);
        let ms_xm = mapping_makespan(&ctx, view.avail_clone(), &xm);
        // (both replays start from the same availability snapshot)
        let pick = if ms_mm <= ms_xm { mm } else { xm };
        BatchSchedule::from_pairs(
            pick.into_iter()
                .map(|(j, s)| (batch[j].job.id, gridsec_core::SiteId(s))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_core::etc::NodeAvailability;
    use gridsec_core::{Grid, Job, SecurityModel, Site, Time};

    #[test]
    fn duplex_covers_batch_and_never_loses_to_both() {
        let grid = Grid::new(vec![
            Site::builder(0).nodes(1).speed(1.0).build().unwrap(),
            Site::builder(1).nodes(1).speed(2.5).build().unwrap(),
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
        let jobs: Vec<Job> = (0..7)
            .map(|i| Job::builder(i).work(15.0 * (i + 1) as f64).build().unwrap())
            .collect();
        let batch: Vec<BatchJob> = jobs
            .iter()
            .cloned()
            .map(|job| BatchJob {
                job,
                secure_only: false,
            })
            .collect();
        let s = Duplex::new(RiskMode::Risky).schedule(&batch, &view);
        assert!(s.validate(&jobs, &grid).is_ok());
        assert_eq!(Duplex::new(RiskMode::Secure).name(), "Duplex Secure");
    }
}

//! Uniform-random baseline scheduler.

use crate::common::{candidate_sites, Fallback};
use gridsec_core::rng::{stream, Stream};
use gridsec_core::{BatchSchedule, RiskMode, SiteId};
use gridsec_sim::{BatchJob, BatchScheduler, GridView};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Assigns each job to a uniformly random admissible site. The weakest
/// sensible baseline: it respects the risk mode (and the secure-only rule
/// for failed jobs) but optimises nothing.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    mode: RiskMode,
    rng: ChaCha8Rng,
}

impl RandomScheduler {
    /// Creates a random scheduler with its own deterministic stream.
    pub fn new(mode: RiskMode, seed: u64) -> Self {
        RandomScheduler {
            mode,
            rng: stream(seed, Stream::Custom(0x52414E44)),
        }
    }
}

impl BatchScheduler for RandomScheduler {
    fn name(&self) -> String {
        format!("Random {}", self.mode.label())
    }

    fn schedule(&mut self, batch: &[BatchJob], view: &GridView<'_>) -> BatchSchedule {
        let mut out = BatchSchedule::new();
        for bj in batch {
            let cands = candidate_sites(
                &bj.job,
                bj.secure_only,
                self.mode,
                view,
                Fallback::default(),
            );
            let pick = cands[self.rng.gen_range(0..cands.len())];
            out.push(bj.job.id, SiteId(pick));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_core::etc::NodeAvailability;
    use gridsec_core::{Grid, Job, SecurityModel, Site, Time};

    #[test]
    fn covers_batch_and_respects_secure_mode() {
        let grid = Grid::new(vec![
            Site::builder(0)
                .nodes(1)
                .security_level(0.3)
                .build()
                .unwrap(),
            Site::builder(1)
                .nodes(1)
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
        let jobs: Vec<Job> = (0..20)
            .map(|i| {
                Job::builder(i)
                    .work(10.0)
                    .security_demand(0.8)
                    .build()
                    .unwrap()
            })
            .collect();
        let batch: Vec<BatchJob> = jobs
            .iter()
            .cloned()
            .map(|job| BatchJob {
                job,
                secure_only: false,
            })
            .collect();
        let mut s = RandomScheduler::new(RiskMode::Secure, 1);
        let schedule = s.schedule(&batch, &view);
        assert!(schedule.validate(&jobs, &grid).is_ok());
        // Secure mode: SD 0.8 only admits site 1.
        assert!(schedule.assignments.iter().all(|a| a.site == SiteId(1)));
    }

    #[test]
    fn risky_mode_spreads_over_sites() {
        let grid = Grid::new(vec![
            Site::builder(0).nodes(1).build().unwrap(),
            Site::builder(1).nodes(1).build().unwrap(),
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
        let batch: Vec<BatchJob> = (0..50)
            .map(|i| BatchJob {
                job: Job::builder(i).work(5.0).build().unwrap(),
                secure_only: false,
            })
            .collect();
        let mut s = RandomScheduler::new(RiskMode::Risky, 2);
        let schedule = s.schedule(&batch, &view);
        let on0 = schedule
            .assignments
            .iter()
            .filter(|a| a.site == SiteId(0))
            .count();
        assert!(on0 > 10 && on0 < 40, "uniform spread, got {on0}/50");
    }

    #[test]
    fn deterministic_per_seed() {
        let grid = Grid::new(vec![
            Site::builder(0).nodes(1).build().unwrap(),
            Site::builder(1).nodes(1).build().unwrap(),
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
        let batch: Vec<BatchJob> = (0..10)
            .map(|i| BatchJob {
                job: Job::builder(i).work(5.0).build().unwrap(),
                secure_only: false,
            })
            .collect();
        let a = RandomScheduler::new(RiskMode::Risky, 9).schedule(&batch, &view);
        let b = RandomScheduler::new(RiskMode::Risky, 9).schedule(&batch, &view);
        assert_eq!(a, b);
    }
}

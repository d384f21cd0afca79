//! Immediate-mode baseline: MCT (Maheswaran et al. 1999).
//!
//! Jobs are assigned one at a time in batch order — no global view of the
//! batch. MCT is the daemon's cheapest scheduler. It is security-driven
//! through the same candidate-site filter as Min-Min/Sufferage.

use crate::common::{candidate_sites, Fallback};
use gridsec_core::etc::NodeAvailability;
use gridsec_core::{BatchSchedule, RiskMode, SiteId, Time};
use gridsec_sim::{BatchJob, BatchScheduler, GridView};

/// Minimum-Completion-Time: each job (in batch order) goes to the
/// admissible site finishing it earliest, considering current queues.
#[derive(Debug, Clone)]
pub struct Mct {
    mode: RiskMode,
}

impl Mct {
    /// Creates the scheduler operating under `mode`.
    pub fn new(mode: RiskMode) -> Self {
        Self { mode }
    }

    /// The risk mode in force.
    pub fn mode(&self) -> RiskMode {
        self.mode
    }
}

impl BatchScheduler for Mct {
    fn name(&self) -> String {
        format!("MCT {}", self.mode.label())
    }

    fn schedule(&mut self, batch: &[BatchJob], view: &GridView<'_>) -> BatchSchedule {
        let mut avail: Vec<NodeAvailability> = view.avail_clone();
        let mut out = BatchSchedule::new();
        for bj in batch {
            let job = &bj.job;
            let cands = candidate_sites(job, bj.secure_only, self.mode, view, Fallback::default());
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
            let (s, ct) = best.expect("candidate list is never empty for fitting jobs");
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

    fn fixture() -> (Grid, Vec<NodeAvailability>) {
        let grid = Grid::new(vec![
            Site::builder(0)
                .nodes(1)
                .speed(1.0)
                .security_level(1.0)
                .build()
                .unwrap(),
            Site::builder(1)
                .nodes(1)
                .speed(5.0)
                .security_level(1.0)
                .build()
                .unwrap(),
        ])
        .unwrap();
        let mut avail = vec![
            NodeAvailability::new(1, Time::ZERO),
            NodeAvailability::new(1, Time::ZERO),
        ];
        // The fast site is busy until t = 100.
        avail[1].commit(1, Time::new(100.0));
        (grid, avail)
    }

    fn one_job() -> Vec<BatchJob> {
        vec![BatchJob {
            job: Job::builder(0)
                .work(50.0)
                .security_demand(0.5)
                .build()
                .unwrap(),
            secure_only: false,
        }]
    }

    #[test]
    fn mct_considers_queues() {
        let (grid, avail) = fixture();
        let view = GridView {
            grid: &grid,
            avail: &avail,
            now: Time::ZERO,
            model: SecurityModel::default(),
        };
        // Site 0: done at 50. Site 1: 100 + 10 = 110. MCT → site 0.
        let s = Mct::new(RiskMode::Risky).schedule(&one_job(), &view);
        assert_eq!(s.site_of(JobId(0)), Some(SiteId(0)));
    }

    #[test]
    fn names_include_mode() {
        assert_eq!(Mct::new(RiskMode::Secure).name(), "MCT Secure");
        assert_eq!(Mct::new(RiskMode::FRisky(0.5)).name(), "MCT 0.5-Risky");
    }

    #[test]
    fn full_batch_covered_in_order() {
        let (grid, avail) = fixture();
        let view = GridView {
            grid: &grid,
            avail: &avail,
            now: Time::ZERO,
            model: SecurityModel::default(),
        };
        let jobs: Vec<Job> = (0..4)
            .map(|i| Job::builder(i).work(10.0).build().unwrap())
            .collect();
        let batch: Vec<BatchJob> = jobs
            .iter()
            .cloned()
            .map(|job| BatchJob {
                job,
                secure_only: false,
            })
            .collect();
        let s = Mct::new(RiskMode::Risky).schedule(&batch, &view);
        assert!(s.validate(&jobs, &grid).is_ok());
        // Immediate mode preserves batch order in dispatch.
        let order: Vec<u64> = s.assignments.iter().map(|a| a.job.0).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }
}

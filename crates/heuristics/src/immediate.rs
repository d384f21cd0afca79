//! Immediate-mode baseline: MCT (Maheswaran et al. 1999).
//!
//! Jobs are assigned one at a time in batch order — no global view of the
//! batch. MCT is the daemon's cheapest scheduler. It is security-driven
//! through the same candidate-site filter as Min-Min/Sufferage.

use crate::common::{candidate_sites, effective_mode, Fallback};
use gridsec_core::etc::NodeAvailability;
use gridsec_core::{BatchSchedule, Job, RiskMode, SiteId, Time};
use gridsec_sim::{BatchJob, BatchScheduler, GridView};

/// Minimum-Completion-Time: each job (in batch order) goes to the
/// admissible site finishing it earliest, considering current queues.
#[derive(Debug, Clone)]
pub struct Mct {
    mode: RiskMode,
    /// The round's tentative availability, refreshed from the view each
    /// round in place (`clone_from`), so a warm round allocates only its
    /// schedule.
    avail: Vec<NodeAvailability>,
}

impl Mct {
    /// Creates the scheduler operating under `mode`.
    pub fn new(mode: RiskMode) -> Self {
        Self {
            mode,
            avail: Vec::new(),
        }
    }

    /// The risk mode in force.
    pub fn mode(&self) -> RiskMode {
        self.mode
    }
}

/// The site of `sites` that completes `job` first (the earliest on a
/// tie), with that completion time; `None` if it fits none of them.
fn earliest(
    job: &Job,
    sites: impl Iterator<Item = usize>,
    avail: &[NodeAvailability],
    view: &GridView<'_>,
) -> Option<(usize, Time)> {
    let mut best: Option<(usize, Time)> = None;
    for s in sites {
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
    best
}

impl BatchScheduler for Mct {
    fn name(&self) -> String {
        format!("MCT {}", self.mode.label())
    }

    fn schedule(&mut self, batch: &[BatchJob], view: &GridView<'_>) -> BatchSchedule {
        // `Vec::clone_from` from a slice: reuse every node buffer.
        self.avail.truncate(view.avail.len());
        let kept = self.avail.len();
        for (mine, theirs) in self.avail.iter_mut().zip(view.avail) {
            mine.clone_from(theirs);
        }
        self.avail.extend_from_slice(&view.avail[kept..]);
        let mut out = BatchSchedule {
            assignments: Vec::with_capacity(batch.len()),
        };
        for bj in batch {
            let job = &bj.job;
            let mode = effective_mode(self.mode, bj.secure_only);
            // The admissible sites in place, in site order; the fallback
            // list is built only for a job no site admits.
            let mut admissible = view
                .grid
                .sites()
                .filter(|s| {
                    s.fits_width(job.width) && mode.admits(&view.model, job.security_demand, s)
                })
                .map(|s| s.id.0)
                .peekable();
            let best = match admissible.peek() {
                Some(_) => earliest(job, admissible, &self.avail, view),
                None => {
                    let cands =
                        candidate_sites(job, bj.secure_only, self.mode, view, Fallback::default());
                    earliest(job, cands.into_iter(), &self.avail, view)
                }
            };
            let (s, ct) = best.expect("candidate list is never empty for fitting jobs");
            self.avail[s].commit(job.width, ct);
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

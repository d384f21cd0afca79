//! Immediate-mode baselines: MCT, MET, OLB (Maheswaran et al. 1999).
//!
//! These assign jobs one at a time in batch order — no global view of the
//! batch — and serve as the classical reference points the paper's batch
//! heuristics are measured against. All are security-driven through the
//! same candidate-site filter as Min-Min/Sufferage.

use crate::common::{candidate_sites, Fallback};
use gridsec_core::etc::NodeAvailability;
use gridsec_core::{BatchSchedule, RiskMode, SiteId, Time};
use gridsec_sim::{BatchJob, BatchScheduler, GridView};

/// Selection rule of an immediate-mode heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    /// Minimum completion time (queue-aware).
    Mct,
    /// Minimum execution time (ignores queues; classic "limited
    /// information" baseline).
    Met,
    /// Opportunistic load balancing: earliest-ready site, ignoring
    /// execution time.
    Olb,
}

fn run_immediate(
    rule: Rule,
    mode: RiskMode,
    batch: &[BatchJob],
    view: &GridView<'_>,
) -> BatchSchedule {
    let mut avail: Vec<NodeAvailability> = view.avail_clone();
    let mut out = BatchSchedule::new();
    for bj in batch {
        let job = &bj.job;
        let cands = candidate_sites(job, bj.secure_only, mode, view, Fallback::default());
        let mut best: Option<(usize, Time, Time)> = None; // (site, key, ct)
        for &s in &cands {
            let site = view.grid.site(SiteId(s));
            let start = match avail[s].earliest_start(job.width, view.now.max(job.arrival)) {
                Some(t) => t,
                None => continue,
            };
            let exec = job.exec_time(site.speed);
            let ct = start + exec;
            let key = match rule {
                Rule::Mct => ct,
                Rule::Met => exec,
                Rule::Olb => start,
            };
            if best.is_none_or(|(_, k, _)| key < k) {
                best = Some((s, key, ct));
            }
        }
        let (s, _, ct) = best.expect("candidate list is never empty for fitting jobs");
        avail[s].commit(job.width, ct);
        out.push(job.id, SiteId(s));
    }
    out
}

macro_rules! immediate_scheduler {
    ($(#[$doc:meta])* $name:ident, $rule:expr, $label:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $name {
            mode: RiskMode,
        }

        impl $name {
            /// Creates the scheduler operating under `mode`.
            pub fn new(mode: RiskMode) -> Self {
                Self { mode }
            }

            /// The risk mode in force.
            pub fn mode(&self) -> RiskMode {
                self.mode
            }
        }

        impl BatchScheduler for $name {
            fn name(&self) -> String {
                format!("{} {}", $label, self.mode.label())
            }

            fn schedule(&mut self, batch: &[BatchJob], view: &GridView<'_>) -> BatchSchedule {
                run_immediate($rule, self.mode, batch, view)
            }
        }
    };
}

immediate_scheduler!(
    /// Minimum-Completion-Time: each job (in batch order) goes to the
    /// admissible site finishing it earliest, considering current queues.
    Mct,
    Rule::Mct,
    "MCT"
);

immediate_scheduler!(
    /// Minimum-Execution-Time: each job goes to the admissible site that
    /// *executes* it fastest, ignoring queues (prone to pile-ups on the
    /// fastest site — a useful worst-case baseline).
    Met,
    Rule::Met,
    "MET"
);

immediate_scheduler!(
    /// Opportunistic Load Balancing: each job goes to the admissible site
    /// that becomes ready earliest, ignoring execution times.
    Olb,
    Rule::Olb,
    "OLB"
);

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
    fn met_ignores_queues() {
        let (grid, avail) = fixture();
        let view = GridView {
            grid: &grid,
            avail: &avail,
            now: Time::ZERO,
            model: SecurityModel::default(),
        };
        // MET looks only at exec time: 10 on the busy fast site wins.
        let s = Met::new(RiskMode::Risky).schedule(&one_job(), &view);
        assert_eq!(s.site_of(JobId(0)), Some(SiteId(1)));
    }

    #[test]
    fn olb_takes_earliest_ready_site() {
        let (grid, avail) = fixture();
        let view = GridView {
            grid: &grid,
            avail: &avail,
            now: Time::ZERO,
            model: SecurityModel::default(),
        };
        let s = Olb::new(RiskMode::Risky).schedule(&one_job(), &view);
        assert_eq!(s.site_of(JobId(0)), Some(SiteId(0)));
    }

    #[test]
    fn names_include_mode() {
        assert_eq!(Mct::new(RiskMode::Secure).name(), "MCT Secure");
        assert_eq!(Met::new(RiskMode::Risky).name(), "MET Risky");
        assert_eq!(Olb::new(RiskMode::FRisky(0.5)).name(), "OLB 0.5-Risky");
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

//! Batch schedules: the output of one scheduling round.

use crate::error::{Error, Result};
use crate::grid::Grid;
use crate::job::{Job, JobId};
use crate::site::SiteId;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::HashMap;

/// One job→site decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    /// The job being placed.
    pub job: JobId,
    /// The chosen site.
    pub site: SiteId,
}

/// The result of scheduling one batch: an ordered list of assignments.
///
/// Order matters: the simulator commits assignments in list order, and
/// list-scheduling heuristics produce a meaningful dispatch order (e.g.
/// Min-Min emits the minimum-completion-time job first).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BatchSchedule {
    /// Assignments in dispatch order.
    pub assignments: Vec<Assignment>,
}

impl BatchSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a schedule from `(job, site)` pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (JobId, SiteId)>) -> Self {
        BatchSchedule {
            assignments: pairs
                .into_iter()
                .map(|(job, site)| Assignment { job, site })
                .collect(),
        }
    }

    /// Appends an assignment.
    pub fn push(&mut self, job: JobId, site: SiteId) {
        self.assignments.push(Assignment { job, site });
    }

    /// Number of assignments.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// The site assigned to `job`, if any (the first assignment naming
    /// it), by a linear scan.
    pub fn site_of(&self, job: JobId) -> Option<SiteId> {
        self.assignments
            .iter()
            .find(|a| a.job == job)
            .map(|a| a.site)
    }

    /// Validates this schedule against a batch and a grid:
    ///
    /// * every batch job is assigned exactly once, and nothing else is;
    /// * every referenced site exists;
    /// * every job fits (width ≤ site nodes) on its assigned site.
    ///
    /// Assignments are checked in order and the first fault is returned;
    /// a schedule that names too few jobs fails after them. The batch may
    /// hold anything that borrows as a [`Job`].
    pub fn validate<J: Borrow<Job>>(&self, batch: &[J], grid: &Grid) -> Result<()> {
        // Each batch job's width, taken by its first assignment.
        let mut unplaced: HashMap<JobId, Option<u32>> = batch
            .iter()
            .map(|j| (j.borrow().id, Some(j.borrow().width)))
            .collect();
        for a in &self.assignments {
            let slot = unplaced.get_mut(&a.job).ok_or(Error::UnknownJob(a.job.0))?;
            let width = slot.take().ok_or_else(|| {
                Error::invalid("schedule", format!("job {} assigned twice", a.job))
            })?;
            let site = grid.get(a.site).ok_or(Error::UnknownSite(a.site.0))?;
            if !site.fits_width(width) {
                return Err(Error::WidthExceedsSite {
                    job: a.job.0,
                    width,
                    site_nodes: site.nodes,
                });
            }
        }
        if self.assignments.len() != batch.len() {
            return Err(Error::IncompleteSchedule {
                expected: batch.len(),
                assigned: self.assignments.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::Site;
    use crate::time::Time;

    fn setup() -> (Vec<Job>, Grid) {
        let jobs = vec![
            Job::builder(0).arrival(Time::ZERO).build().unwrap(),
            Job::builder(1).width(4).build().unwrap(),
        ];
        let grid = Grid::new(vec![
            Site::builder(0).nodes(8).build().unwrap(),
            Site::builder(1).nodes(2).build().unwrap(),
        ])
        .unwrap();
        (jobs, grid)
    }

    #[test]
    fn valid_schedule_passes() {
        let (jobs, grid) = setup();
        let s = BatchSchedule::from_pairs([(JobId(0), SiteId(1)), (JobId(1), SiteId(0))]);
        assert!(s.validate(&jobs, &grid).is_ok());
        assert_eq!(s.site_of(JobId(1)), Some(SiteId(0)));
        assert_eq!(s.site_of(JobId(9)), None);
    }

    #[test]
    fn missing_job_fails() {
        let (jobs, grid) = setup();
        let s = BatchSchedule::from_pairs([(JobId(0), SiteId(0))]);
        assert!(matches!(
            s.validate(&jobs, &grid),
            Err(Error::IncompleteSchedule { .. })
        ));
    }

    #[test]
    fn duplicate_job_fails() {
        let (jobs, grid) = setup();
        let s = BatchSchedule::from_pairs([(JobId(0), SiteId(0)), (JobId(0), SiteId(1))]);
        assert!(s.validate(&jobs, &grid).is_err());
    }

    #[test]
    fn unknown_site_fails() {
        let (jobs, grid) = setup();
        let s = BatchSchedule::from_pairs([(JobId(0), SiteId(7)), (JobId(1), SiteId(0))]);
        assert!(matches!(
            s.validate(&jobs, &grid),
            Err(Error::UnknownSite(7))
        ));
    }

    #[test]
    fn foreign_job_fails() {
        let (jobs, grid) = setup();
        let s = BatchSchedule::from_pairs([(JobId(5), SiteId(0)), (JobId(1), SiteId(0))]);
        assert!(matches!(
            s.validate(&jobs, &grid),
            Err(Error::UnknownJob(5))
        ));
    }

    #[test]
    fn width_overflow_fails() {
        let (jobs, grid) = setup();
        // Job 1 has width 4, site 1 has 2 nodes.
        let s = BatchSchedule::from_pairs([(JobId(0), SiteId(0)), (JobId(1), SiteId(1))]);
        assert!(matches!(
            s.validate(&jobs, &grid),
            Err(Error::WidthExceedsSite { .. })
        ));
    }

    #[test]
    fn push_and_len() {
        let mut s = BatchSchedule::new();
        assert!(s.is_empty());
        s.push(JobId(0), SiteId(0));
        assert_eq!(s.len(), 1);
    }
}

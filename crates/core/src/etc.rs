//! Expected-Time-to-Compute (ETC) matrices and node-availability tracking.
//!
//! Batch-mode mapping heuristics (Min-Min, Sufferage, …) and the GA fitness
//! function all reason about *estimated completion times*:
//!
//! ```text
//! CT(j, s) = earliest_start(s, width(j)) + ETC(j, s)
//! ```
//!
//! [`EtcMatrix`] holds the pure execution-time part (`work / speed`, or
//! `+∞` where the job does not fit), and [`NodeAvailability`] tracks when a
//! site's nodes become free so that `earliest_start` can be computed and
//! updated as assignments are committed. The same availability structure is
//! used by the simulator for actual dispatch, so heuristic estimates and
//! simulated execution agree by construction.

use crate::grid::Grid;
use crate::job::Job;
use crate::time::Time;
use serde::{Deserialize, Serialize};

/// Dense jobs × sites matrix of execution times.
///
/// Entry `(j, s)` is the time job `j` (by *batch position*, not [`JobId`])
/// needs on site `s`, or `f64::INFINITY` when the job's width exceeds the
/// site's node count.
///
/// [`JobId`]: crate::JobId
///
/// ```
/// use gridsec_core::{EtcMatrix, Grid, Job, Site};
/// let grid = Grid::new(vec![
///     Site::builder(0).nodes(4).speed(2.0).build().unwrap(),
///     Site::builder(1).nodes(1).speed(1.0).build().unwrap(),
/// ]).unwrap();
/// let jobs = vec![Job::builder(0).work(100.0).width(2).build().unwrap()];
/// let etc = EtcMatrix::build(&jobs, &grid);
/// assert_eq!(etc.get(0, 0), 50.0);          // fits, speed 2
/// assert!(etc.get(0, 1).is_infinite());     // width 2 > 1 node
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EtcMatrix {
    n_jobs: usize,
    n_sites: usize,
    data: Vec<f64>,
}

impl EtcMatrix {
    /// Builds the ETC matrix for a batch of jobs over a grid.
    pub fn build(jobs: &[Job], grid: &Grid) -> EtcMatrix {
        EtcMatrix::from_jobs(jobs, grid)
    }

    /// [`EtcMatrix::build`] over any exactly-sized sequence of jobs, so a
    /// caller holding the jobs inside other structs need not copy them out.
    pub fn from_jobs<'a, I>(jobs: I, grid: &Grid) -> EtcMatrix
    where
        I: IntoIterator<Item = &'a Job>,
        I::IntoIter: ExactSizeIterator,
    {
        let jobs = jobs.into_iter();
        let n_jobs = jobs.len();
        let n_sites = grid.len();
        let mut data = Vec::with_capacity(n_jobs * n_sites);
        for job in jobs {
            for site in grid.sites() {
                if site.fits_width(job.width) {
                    data.push(job.work / site.speed);
                } else {
                    data.push(f64::INFINITY);
                }
            }
        }
        EtcMatrix {
            n_jobs,
            n_sites,
            data,
        }
    }

    /// Constructs a matrix from raw row-major data (used by tests and the
    /// history table).
    ///
    /// # Panics
    /// Panics if `data.len() != n_jobs * n_sites`.
    pub fn from_raw(n_jobs: usize, n_sites: usize, data: Vec<f64>) -> EtcMatrix {
        assert_eq!(
            data.len(),
            n_jobs * n_sites,
            "ETC data length must be n_jobs * n_sites"
        );
        EtcMatrix {
            n_jobs,
            n_sites,
            data,
        }
    }

    /// Number of jobs (rows).
    #[inline]
    pub fn n_jobs(&self) -> usize {
        self.n_jobs
    }

    /// Number of sites (columns).
    #[inline]
    pub fn n_sites(&self) -> usize {
        self.n_sites
    }

    /// Execution time of batch-job `j` on site `s`.
    #[inline]
    pub fn get(&self, j: usize, s: usize) -> f64 {
        self.data[j * self.n_sites + s]
    }

    /// The row of execution times for batch-job `j`.
    #[inline]
    pub fn row(&self, j: usize) -> &[f64] {
        &self.data[j * self.n_sites..(j + 1) * self.n_sites]
    }

    /// The raw row-major data (used for history-table similarity).
    #[inline]
    pub fn raw(&self) -> &[f64] {
        &self.data
    }
}

/// Sorted multiset of node free-times for one site.
///
/// A job of width `w` can start at the `w`-th smallest free time (all times
/// clamped below by "now"). Committing an assignment takes the `w`
/// earliest-free nodes and marks them busy until the finish time. This is
/// the aggressive (no-backfilling) reservation model; the simulator uses the
/// identical structure so estimates match execution.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct NodeAvailability {
    /// Free instants, maintained in ascending order.
    free: Vec<Time>,
}

impl Clone for NodeAvailability {
    fn clone(&self) -> Self {
        NodeAvailability {
            free: self.free.clone(),
        }
    }

    /// Reuses the existing buffer — the GA fitness loop resets a scratch
    /// copy millions of times per run, and this keeps it allocation-free.
    fn clone_from(&mut self, source: &Self) {
        self.free.clone_from(&source.free);
    }
}

impl NodeAvailability {
    /// All `nodes` nodes free at time `at`.
    pub fn new(nodes: u32, at: Time) -> NodeAvailability {
        NodeAvailability {
            free: vec![at; nodes as usize],
        }
    }

    /// Restores a site from a saved free-time multiset (one entry per
    /// node). Sorts defensively so callers can pass times in any order —
    /// the invariant is ascending order, not insertion order.
    pub fn from_times(mut times: Vec<Time>) -> NodeAvailability {
        times.sort_unstable();
        NodeAvailability { free: times }
    }

    /// Number of nodes tracked.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.free.len()
    }

    /// Earliest instant at which `width` nodes are simultaneously free, no
    /// earlier than `not_before`. Returns `None` if `width` exceeds the node
    /// count.
    pub fn earliest_start(&self, width: u32, not_before: Time) -> Option<Time> {
        let w = width as usize;
        if w == 0 || w > self.free.len() {
            return None;
        }
        Some(self.free[w - 1].at_least(not_before))
    }

    /// Commits a job of `width` nodes finishing at `finish`: the `width`
    /// earliest-free nodes become busy until `finish`.
    ///
    /// # Panics
    /// Panics if `width` exceeds the node count (schedules are validated
    /// before commitment).
    pub fn commit(&mut self, width: u32, finish: Time) {
        let w = width as usize;
        assert!(
            w >= 1 && w <= self.free.len(),
            "commit width {w} out of range for {} nodes",
            self.free.len()
        );
        // The `w` earliest slots all become `finish` and the rest is
        // already sorted: slide the later slots that free up before
        // `finish` down over them and fill the gap — the ascending
        // multiset a full sort would give, without the sort.
        let earlier = self.free[w..].partition_point(|&t| t < finish);
        self.free.copy_within(w..w + earlier, 0);
        self.free[earlier..earlier + w].fill(finish);
    }

    /// The earliest free time over all nodes (site "ready time" for
    /// width-1 work, the scalar the history table stores).
    #[inline]
    pub fn ready_time(&self) -> Time {
        self.free.first().copied().unwrap_or(Time::ZERO)
    }

    /// The latest free time (when the whole site drains).
    #[inline]
    pub fn drain_time(&self) -> Time {
        self.free.last().copied().unwrap_or(Time::ZERO)
    }

    /// The sorted free-time multiset as a flat slice (ascending).
    ///
    /// This is the snapshot accessor used to lower availability into flat
    /// structure-of-arrays planes (`gridsec-stga`'s fitness kernel): a
    /// kernel copies these times into one contiguous buffer per evaluation
    /// and performs the identical `earliest_start`/`commit` arithmetic on
    /// the raw slice.
    #[inline]
    pub fn free_times(&self) -> &[Time] {
        &self.free
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::Site;

    fn grid() -> Grid {
        Grid::new(vec![
            Site::builder(0).nodes(2).speed(1.0).build().unwrap(),
            Site::builder(1).nodes(4).speed(2.0).build().unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn etc_build_scales_and_masks() {
        let jobs = vec![
            Job::builder(0).work(100.0).width(1).build().unwrap(),
            Job::builder(1).work(100.0).width(3).build().unwrap(),
        ];
        let etc = EtcMatrix::build(&jobs, &grid());
        assert_eq!(etc.get(0, 0), 100.0);
        assert_eq!(etc.get(0, 1), 50.0);
        assert!(etc.get(1, 0).is_infinite());
        assert_eq!(etc.get(1, 1), 50.0);
    }

    #[test]
    #[should_panic(expected = "n_jobs * n_sites")]
    fn from_raw_checks_shape() {
        let _ = EtcMatrix::from_raw(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn availability_earliest_start() {
        let mut a = NodeAvailability::new(4, Time::ZERO);
        assert_eq!(a.earliest_start(1, Time::ZERO), Some(Time::ZERO));
        assert_eq!(a.earliest_start(4, Time::ZERO), Some(Time::ZERO));
        assert_eq!(a.earliest_start(5, Time::ZERO), None);
        a.commit(2, Time::new(10.0));
        // Two nodes busy until 10, two free now.
        assert_eq!(a.earliest_start(1, Time::ZERO), Some(Time::ZERO));
        assert_eq!(a.earliest_start(2, Time::ZERO), Some(Time::ZERO));
        assert_eq!(a.earliest_start(3, Time::ZERO), Some(Time::new(10.0)));
        assert_eq!(a.earliest_start(4, Time::ZERO), Some(Time::new(10.0)));
        // not_before floor applies.
        assert_eq!(a.earliest_start(1, Time::new(5.0)), Some(Time::new(5.0)));
    }

    #[test]
    fn availability_commit_takes_earliest_nodes() {
        let mut a = NodeAvailability::new(2, Time::ZERO);
        a.commit(1, Time::new(100.0));
        a.commit(1, Time::new(50.0));
        // Nodes free at 50 and 100.
        assert_eq!(a.ready_time(), Time::new(50.0));
        assert_eq!(a.drain_time(), Time::new(100.0));
    }

    #[test]
    fn free_times_exposes_sorted_snapshot() {
        let mut a = NodeAvailability::new(3, Time::ZERO);
        a.commit(2, Time::new(7.0));
        assert_eq!(
            a.free_times(),
            &[Time::ZERO, Time::new(7.0), Time::new(7.0)]
        );
    }

    #[test]
    fn zero_width_has_no_start() {
        let a = NodeAvailability::new(4, Time::ZERO);
        assert_eq!(a.earliest_start(0, Time::ZERO), None);
    }
}

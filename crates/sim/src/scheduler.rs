//! The scheduler interface: what the engine shows a scheduler and what it
//! expects back.

use gridsec_core::etc::NodeAvailability;
use gridsec_core::{BatchSchedule, Grid, Job, SecurityModel, SiteId, Time};

/// One job as presented to a scheduler: the job itself plus the
/// *secure-only* constraint carried by jobs that already failed once (the
/// paper's fail-stop rule: a failed job "will not … take any risk again").
#[derive(Debug, Clone, PartialEq)]
pub struct BatchJob {
    /// The job to place.
    pub job: Job,
    /// If true, the scheduler must place the job on a site with
    /// `SL ≥ SD` when one exists (risk mode is overridden to secure).
    pub secure_only: bool,
}

impl std::borrow::Borrow<Job> for BatchJob {
    fn borrow(&self) -> &Job {
        &self.job
    }
}

/// Read-only view of the Grid's state at a batch boundary.
///
/// Exposes the same [`NodeAvailability`] reservation model the engine uses
/// for dispatch, so a scheduler's completion-time estimates are exact
/// (modulo later failures).
pub struct GridView<'a> {
    /// The (static) grid.
    pub grid: &'a Grid,
    /// Per-site node availability at `now`.
    pub avail: &'a [NodeAvailability],
    /// The current instant (the batch boundary).
    pub now: Time,
    /// The failure model in force.
    pub model: SecurityModel,
}

impl<'a> GridView<'a> {
    /// A mutable clone of the availability vector for tentative commits.
    pub fn avail_clone(&self) -> Vec<NodeAvailability> {
        self.avail.to_vec()
    }
}

/// A batch-mode scheduler: maps the accumulated batch onto the Grid.
///
/// Implementations live in `gridsec-heuristics` (Min-Min, Sufferage, …)
/// and `gridsec-stga` (the genetic algorithms). Schedulers are stateful —
/// the STGA carries its history table across calls.
pub trait BatchScheduler {
    /// Human-readable name used in reports ("Min-Min Secure", "STGA", …).
    fn name(&self) -> String;

    /// Produces an assignment for every job in `batch`.
    ///
    /// The returned schedule must cover each batch job exactly once; the
    /// engine validates it. Dispatch happens in the returned order.
    fn schedule(&mut self, batch: &[BatchJob], view: &GridView<'_>) -> BatchSchedule;

    /// Notifies the scheduler that the grid was reconfigured out of band
    /// (trust re-rating, security-level changes, node count changes) —
    /// the serving layer calls this after swapping the round driver's
    /// grid, so schedulers can drop any state compiled from the old
    /// snapshot (cached risk-weight tables, compiled fitness kernels).
    ///
    /// The default is a no-op: stateless heuristics re-derive everything
    /// from the `GridView` each round.
    fn on_reconfigure(&mut self) {}

    /// What the scheduler has learned that should outlive it, as text
    /// it can be rebuilt from (the STGA's history table as JSON) — what
    /// the serving daemon hands a reshard's successor shards and writes
    /// to a shard's state file when the shard stops.
    ///
    /// The default is `None`: stateless heuristics carry nothing.
    fn snapshot(&self) -> Option<String> {
        None
    }
}

/// A trivially simple scheduler: each job (in batch order) goes to the site
/// with the earliest estimated completion time, honouring `secure_only`.
///
/// This is the classical *MCT* (minimum completion time) immediate-mode
/// heuristic; it doubles as the engine's reference scheduler in tests.
#[derive(Debug, Default, Clone)]
pub struct EarliestCompletion;

impl BatchScheduler for EarliestCompletion {
    fn name(&self) -> String {
        "MCT".to_string()
    }

    fn schedule(&mut self, batch: &[BatchJob], view: &GridView<'_>) -> BatchSchedule {
        let mut avail = view.avail_clone();
        let mut out = BatchSchedule::new();
        for bj in batch {
            let job = &bj.job;
            let mut best: Option<(SiteId, Time)> = None;
            let mut best_safe: Option<(SiteId, Time)> = None;
            let mut safest: Option<(SiteId, f64, Time)> = None;
            for site in view.grid.sites() {
                if !site.fits_width(job.width) {
                    continue;
                }
                let start = avail[site.id.0]
                    .earliest_start(job.width, view.now.max(job.arrival))
                    .expect("fits");
                let ct = start + job.exec_time(site.speed);
                if best.is_none_or(|(_, t)| ct < t) {
                    best = Some((site.id, ct));
                }
                if job.security_demand <= site.security_level
                    && best_safe.is_none_or(|(_, t)| ct < t)
                {
                    best_safe = Some((site.id, ct));
                }
                let better_safety = match safest {
                    None => true,
                    Some((_, sl, t)) => {
                        site.security_level > sl || (site.security_level == sl && ct < t)
                    }
                };
                if better_safety {
                    safest = Some((site.id, site.security_level, ct));
                }
            }
            let chosen = if bj.secure_only {
                best_safe
                    .or(safest.map(|(s, _, t)| (s, t)))
                    .or(best)
                    .expect("grid has at least one fitting site")
            } else {
                best.expect("grid has at least one fitting site")
            };
            let site = view.grid.site(chosen.0);
            let start = avail[chosen.0 .0]
                .earliest_start(job.width, view.now.max(job.arrival))
                .expect("fits");
            avail[chosen.0 .0].commit(job.width, start + job.exec_time(site.speed));
            out.push(job.id, chosen.0);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_core::Site;

    fn view_fixture(grid: &Grid, avail: &[NodeAvailability]) -> SecurityModel {
        let _ = (grid, avail);
        SecurityModel::default()
    }

    fn grid2() -> Grid {
        Grid::new(vec![
            Site::builder(0)
                .nodes(1)
                .speed(1.0)
                .security_level(0.9)
                .build()
                .unwrap(),
            Site::builder(1)
                .nodes(1)
                .speed(4.0)
                .security_level(0.5)
                .build()
                .unwrap(),
        ])
        .unwrap()
    }

    fn bj(id: u64, work: f64, sd: f64, secure_only: bool) -> BatchJob {
        BatchJob {
            job: Job::builder(id)
                .work(work)
                .security_demand(sd)
                .build()
                .unwrap(),
            secure_only,
        }
    }

    #[test]
    fn mct_picks_fastest_site() {
        let grid = grid2();
        let avail = vec![
            NodeAvailability::new(1, Time::ZERO),
            NodeAvailability::new(1, Time::ZERO),
        ];
        let model = view_fixture(&grid, &avail);
        let view = GridView {
            grid: &grid,
            avail: &avail,
            now: Time::ZERO,
            model,
        };
        let batch = vec![bj(0, 100.0, 0.7, false)];
        let s = EarliestCompletion.schedule(&batch, &view);
        // Site 1 is 4× faster → completion 25 vs 100.
        assert_eq!(s.site_of(gridsec_core::JobId(0)), Some(SiteId(1)));
    }

    #[test]
    fn mct_secure_only_prefers_safe_site() {
        let grid = grid2();
        let avail = vec![
            NodeAvailability::new(1, Time::ZERO),
            NodeAvailability::new(1, Time::ZERO),
        ];
        let model = view_fixture(&grid, &avail);
        let view = GridView {
            grid: &grid,
            avail: &avail,
            now: Time::ZERO,
            model,
        };
        // SD 0.7 > SL(site1)=0.5, so secure-only must pick site 0 even
        // though site 1 is faster.
        let batch = vec![bj(0, 100.0, 0.7, true)];
        let s = EarliestCompletion.schedule(&batch, &view);
        assert_eq!(s.site_of(gridsec_core::JobId(0)), Some(SiteId(0)));
    }

    #[test]
    fn mct_serialises_batch_on_one_node() {
        let grid = Grid::new(vec![Site::builder(0).nodes(1).build().unwrap()]).unwrap();
        let avail = vec![NodeAvailability::new(1, Time::ZERO)];
        let view = GridView {
            grid: &grid,
            avail: &avail,
            now: Time::ZERO,
            model: SecurityModel::default(),
        };
        let batch = vec![bj(0, 10.0, 0.5, false), bj(1, 10.0, 0.5, false)];
        let s = EarliestCompletion.schedule(&batch, &view);
        assert_eq!(s.len(), 2);
    }
}

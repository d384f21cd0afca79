//! The round core of the paper's Fig. 1 loop: the [`BoundaryClock`] that
//! says when a batch boundary fires, the arming rule that feeds it, and
//! the [`RoundDriver`] that accumulates the pending queue under a
//! [`BatchPolicy`], runs the scheduler over a [`GridView`], validates the
//! schedule (replication-aware) and commits every attempt.
//!
//! Both front ends are callers of this one core:
//!
//! * the discrete-event [`Simulator`](crate::Simulator) fires the clock's
//!   boundaries between the events of its own queue and commits each
//!   attempt with its Eq. 1 occupancy (a failed attempt holds its nodes
//!   until the failure), and
//! * `gridsec-serve`'s online session — every daemon shard and every
//!   scenario replay — fires them between submitted frames and commits
//!   every assignment as a successful execution: the served schedule.
//!
//! So the daemon schedules exactly like the simulator for the same job
//! stream and policy when no attempt fails — the golden cross-check test
//! in `crates/serve` pins that equivalence bit for bit.

use crate::config::BatchPolicy;
use crate::scheduler::{BatchJob, BatchScheduler, GridView};
use gridsec_core::etc::NodeAvailability;
use gridsec_core::{BatchSchedule, Error, Grid, Job, JobId, Result, SecurityModel, SiteId, Time};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// The batch-boundary clock: a virtual `now`, a queue of pending
/// boundaries (which may hold stale duplicates: a count trigger queues
/// one per triggering enqueue, and a stale boundary fires as a no-op), and
/// at most one *armed* periodic boundary at a time.
///
/// Every caller drives it the same way: before an input at instant `t`,
/// pop and fire every boundary strictly before `t` — every input at an
/// instant runs before the boundary at that instant, so a job that
/// arrives or fails on a boundary joins that batch — then advance `now`,
/// apply the input, and [`arm`](BoundaryClock::arm) by the policy. The
/// [`Simulator`](crate::Simulator) feeds it from its event queue,
/// `gridsec_serve::OnlineSession` from submitted frames.
#[derive(Debug, Clone)]
pub struct BoundaryClock {
    interval: Time,
    now: Time,
    boundaries: BinaryHeap<Reverse<Time>>,
    armed: Option<Time>,
}

impl BoundaryClock {
    /// A clock at t = 0 with the given scheduling interval.
    pub fn new(interval: Time) -> BoundaryClock {
        BoundaryClock {
            interval,
            now: Time::ZERO,
            boundaries: BinaryHeap::new(),
            armed: None,
        }
    }

    /// The current virtual instant.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Moves the clock forward to `t` (never backwards).
    pub fn advance_to(&mut self, t: Time) {
        if t > self.now {
            self.now = t;
        }
    }

    /// The earliest queued boundary, if any (the daemon's wall-clock
    /// deadline).
    pub fn next_boundary(&self) -> Option<Time> {
        self.boundaries.peek().map(|r| r.0)
    }

    /// Pops the earliest boundary strictly before `t`, the instant of the
    /// next input (a boundary *at* `t` fires after it). Callers loop until
    /// `None`, firing each popped boundary.
    pub fn pop_strictly_before(&mut self, t: Time) -> Option<Time> {
        match self.boundaries.peek() {
            Some(&Reverse(b)) if b < t => {
                self.boundaries.pop();
                Some(b)
            }
            _ => None,
        }
    }

    /// Pops the earliest boundary at or before `t` (wall-clock mode's
    /// inclusive timer path).
    pub fn pop_at_or_before(&mut self, t: Time) -> Option<Time> {
        match self.boundaries.peek() {
            Some(&Reverse(b)) if b <= t => {
                self.boundaries.pop();
                Some(b)
            }
            _ => None,
        }
    }

    /// Pops the earliest queued boundary unconditionally (drain path).
    pub fn pop_any(&mut self) -> Option<Time> {
        self.boundaries.pop().map(|Reverse(b)| b)
    }

    /// Records that the boundary at `b` fired: the clock advances to `b`
    /// and the armed flag clears — even when the boundary that fired was
    /// count-triggered, so stale periodic boundaries still fire as no-ops.
    pub fn fired(&mut self, b: Time) {
        self.advance_to(b);
        self.armed = None;
    }

    /// The arming rule, applied after every change to the pending queue or
    /// the usable sites: a reached count trigger queues a boundary now;
    /// otherwise anything pending is covered by an armed periodic one.
    pub fn arm(&mut self, rounds: &RoundDriver) {
        if rounds.count_trigger_reached() {
            self.note_trigger();
        } else if rounds.pending_len() > 0 {
            self.ensure_armed();
        }
    }

    /// Queues a count-triggered boundary at the current instant (once per
    /// triggering enqueue).
    pub fn note_trigger(&mut self) {
        self.boundaries.push(Reverse(self.now));
    }

    /// Arms a boundary at the next interval multiple strictly after `now`,
    /// unless one is already armed.
    pub fn ensure_armed(&mut self) {
        if self.armed.is_some() {
            return;
        }
        let at = self.next_periodic_instant();
        self.armed = Some(at);
        self.boundaries.push(Reverse(at));
    }

    /// The next multiple of the scheduling interval strictly after `now`.
    pub fn next_periodic_instant(&self) -> Time {
        let period = self.interval.seconds();
        let k = (self.now.seconds() / period).floor() + 1.0;
        Time::new(k * period)
    }
}

/// A commit still (possibly) executing — tracked so that a site failure
/// can identify the jobs stranded on it and requeue them.
#[derive(Debug, Clone)]
struct Inflight {
    job: Job,
    site: SiteId,
    end: Time,
}

/// Everything one scheduling round produced.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// The batch handed to the scheduler (taken from the pending queue).
    pub batch: Vec<BatchJob>,
    /// The validated schedule, in dispatch order.
    pub schedule: BatchSchedule,
    /// Wall-clock nanoseconds spent inside the scheduler for this round.
    pub scheduler_nanos: u128,
}

/// One attempt as committed against the availability model by the
/// [`RoundDriver`] — the unit of served schedule, and as
/// `gridsec_serve::Placed` the record that travels on the wire.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CommittedAssignment {
    /// The job placed.
    pub job: JobId,
    /// The site it was placed on.
    pub site: SiteId,
    /// Nodes occupied.
    pub width: u32,
    /// Start of execution (earliest fit at or after the round instant).
    pub start: Time,
    /// End of node occupation (`start + work / speed` for a success).
    pub end: Time,
}

/// The batch/round state machine shared by the engine and the daemon.
#[derive(Debug)]
pub struct RoundDriver {
    grid: Grid,
    avail: Vec<NodeAvailability>,
    pending: Vec<BatchJob>,
    policy: BatchPolicy,
    model: SecurityModel,
    max_replicas: u32,
    n_rounds: usize,
    /// Jobs handed to the scheduler over every non-empty round.
    jobs_batched: usize,
    max_batch: usize,
    scheduler_nanos: u128,
    /// Per-site offline mask (site churn). Offline sites are excluded
    /// from the scheduler's view; jobs fitting no online site stay
    /// pending rather than being lost.
    offline: Vec<bool>,
    /// Commits whose execution window may still be open, in commit order
    /// (pruned lazily).
    inflight: Vec<Inflight>,
}

impl RoundDriver {
    /// A fresh driver over `grid`: empty queue, all nodes free at t = 0.
    pub fn new(
        grid: Grid,
        policy: BatchPolicy,
        model: SecurityModel,
        max_replicas: u32,
    ) -> RoundDriver {
        let avail = grid
            .sites()
            .map(|s| NodeAvailability::new(s.nodes, Time::ZERO))
            .collect();
        let n_sites = grid.len();
        RoundDriver {
            grid,
            avail,
            pending: Vec::new(),
            policy,
            model,
            max_replicas,
            n_rounds: 0,
            jobs_batched: 0,
            max_batch: 0,
            scheduler_nanos: 0,
            offline: vec![false; n_sites],
            inflight: Vec::new(),
        }
    }

    /// Adds a job to the pending queue.
    pub fn enqueue(&mut self, job: BatchJob) {
        self.pending.push(job);
    }

    /// Whether the policy's count trigger is reached (always false for the
    /// purely periodic policy).
    pub fn count_trigger_reached(&self) -> bool {
        match self.policy {
            BatchPolicy::Periodic => false,
            BatchPolicy::CountTriggered(k) | BatchPolicy::Hybrid(k) => self.pending.len() >= k,
        }
    }

    /// The batching policy in force.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Jobs currently queued.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The pending queue in submission order (state export for
    /// resharding — pending jobs transfer to the shard that now owns
    /// a site they fit).
    pub fn pending_jobs(&self) -> &[BatchJob] {
        &self.pending
    }

    /// Tracked in-flight commits as `(job, site, end)` clones, in commit
    /// order. These are the reservations [`RoundDriver::fail_site`] can
    /// requeue; a resharding barrier exports them so the shard that
    /// inherits the site keeps the same zero-lost-jobs guarantee.
    pub fn inflight_commits(&self) -> Vec<(Job, SiteId, Time)> {
        self.inflight
            .iter()
            .map(|f| (f.job.clone(), f.site, f.end))
            .collect()
    }

    /// Re-adopts an in-flight commit exported from another driver. Only
    /// the tracking entry is restored — the reservation itself lives in
    /// the site's transferred availability state, so this must not touch
    /// `avail`.
    pub fn adopt_inflight(&mut self, job: Job, site: SiteId, end: Time) {
        self.inflight.push(Inflight { job, site, end });
    }

    /// Restores one site's state from an exported snapshot: the node
    /// free-time multiset plus its offline flag. `free` must have one
    /// entry per node of the site.
    pub fn restore_site_state(
        &mut self,
        site: SiteId,
        free: Vec<Time>,
        offline: bool,
    ) -> Result<()> {
        if site.0 >= self.grid.len() {
            return Err(Error::UnknownSite(site.0));
        }
        let nodes = self.grid.site(site).nodes as usize;
        if free.len() != nodes {
            return Err(Error::invalid(
                "restore",
                format!(
                    "site {} has {nodes} nodes but the snapshot carries {} free times",
                    site.0,
                    free.len()
                ),
            ));
        }
        self.avail[site.0] = NodeAvailability::from_times(free);
        self.offline[site.0] = offline;
        Ok(())
    }

    /// The (current) grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Replaces the grid (security-level walks, trust reconfiguration).
    /// Site count must not change — availability state is carried over.
    ///
    /// The driver does not own the scheduler (rounds borrow one per
    /// call), so callers that *do* own one must follow this with
    /// [`BatchScheduler::on_reconfigure`]
    /// to invalidate snapshot-compiled scheduler state; the next
    /// [`RoundDriver::run_round`] then hands the scheduler a `GridView`
    /// of the new snapshot, from which kernel-based schedulers re-lower
    /// their fitness program.
    pub fn set_grid(&mut self, grid: Grid) -> Result<()> {
        if grid.len() != self.grid.len() {
            return Err(Error::invalid(
                "grid",
                format!(
                    "cannot reconfigure from {} to {} sites mid-run",
                    self.grid.len(),
                    grid.len()
                ),
            ));
        }
        self.grid = grid;
        Ok(())
    }

    /// Per-site availability (the reservation model).
    pub fn avail(&self) -> &[NodeAvailability] {
        &self.avail
    }

    /// Per-site offline mask (true = failed / out of rotation).
    pub fn offline_mask(&self) -> &[bool] {
        &self.offline
    }

    /// Whether the given site is currently online.
    pub fn is_online(&self, site: SiteId) -> bool {
        site.0 < self.offline.len() && !self.offline[site.0]
    }

    /// Whether any site is currently offline (rounds schedule over the
    /// online sites only).
    pub fn any_offline(&self) -> bool {
        self.offline.iter().any(|&o| o)
    }

    /// Takes the site offline at instant `at` and requeues every job
    /// whose tracked commit was still executing on it (`end > at`) —
    /// stranded work is never silently lost. Returns the requeued job
    /// ids in original commit order.
    ///
    /// Requeued jobs re-enter the pending queue as ordinary
    /// (non-`secure_only`) batch jobs; the commit-tracking front end
    /// (the serving session) only submits such jobs. Callers that own
    /// a scheduler should follow with
    /// [`BatchScheduler::on_reconfigure`]
    /// — the usable-site set changed under any compiled snapshot.
    pub fn fail_site(&mut self, site: SiteId, at: Time) -> Result<Vec<JobId>> {
        if site.0 >= self.grid.len() {
            return Err(Error::UnknownSite(site.0));
        }
        if self.offline[site.0] {
            return Err(Error::invalid(
                "fail_site",
                format!("site {} is already offline", site.0),
            ));
        }
        self.offline[site.0] = true;
        let mut stranded = Vec::new();
        let mut kept = Vec::with_capacity(self.inflight.len());
        for f in self.inflight.drain(..) {
            if f.end <= at {
                continue; // completed before the failure — prune
            }
            if f.site == site {
                stranded.push(f.job.id);
                self.pending.push(BatchJob {
                    job: f.job,
                    secure_only: false,
                });
            } else {
                kept.push(f);
            }
        }
        self.inflight = kept;
        Ok(stranded)
    }

    /// Brings a failed site back at instant `at`: the site rejoins the
    /// rotation with all nodes free at `at` (its pre-failure reservations
    /// died with it).
    pub fn rejoin_site(&mut self, site: SiteId, at: Time) -> Result<()> {
        if site.0 >= self.grid.len() {
            return Err(Error::UnknownSite(site.0));
        }
        if !self.offline[site.0] {
            return Err(Error::invalid(
                "rejoin_site",
                format!("site {} is not offline", site.0),
            ));
        }
        self.offline[site.0] = false;
        self.avail[site.0] = NodeAvailability::new(self.grid.site(site).nodes, at);
        Ok(())
    }

    /// Number of non-empty rounds run so far.
    pub fn n_rounds(&self) -> usize {
        self.n_rounds
    }

    /// Jobs handed to the scheduler over every non-empty round (a job
    /// rescheduled after a failure counts once per round it joins).
    pub(crate) fn jobs_batched(&self) -> usize {
        self.jobs_batched
    }

    /// The largest batch of any round so far (0 before the first).
    pub(crate) fn max_batch_size(&self) -> usize {
        self.max_batch
    }

    /// Total wall-clock nanoseconds spent inside the scheduler.
    pub fn scheduler_nanos(&self) -> u128 {
        self.scheduler_nanos
    }

    /// Runs one scheduling round at instant `now`: takes the pending
    /// queue as the batch, invokes the scheduler over the current grid
    /// view, and validates the result (replication-aware). Returns
    /// `Ok(None)` when nothing is pending.
    ///
    /// While a site is offline the scheduler sees a dense re-indexed view
    /// of the online sites only — an ordinary smaller grid, from which the
    /// STGA fitness kernel re-lowers like any other round — and jobs
    /// fitting no online site are deferred: they stay pending (accounted,
    /// never lost) until a wide-enough site rejoins.
    ///
    /// The returned schedule is **not** committed to the availability
    /// model; the caller commits each attempt (a success with
    /// [`RoundDriver::commit_assignment`]).
    pub fn run_round<S: BatchScheduler + ?Sized>(
        &mut self,
        scheduler: &mut S,
        now: Time,
    ) -> Result<Option<RoundOutcome>> {
        if self.pending.is_empty() {
            return Ok(None);
        }
        self.inflight.retain(|f| f.end > now);
        let mut batch = std::mem::take(&mut self.pending);
        let online = if self.any_offline() {
            let fits = |bj: &BatchJob| {
                let width = bj.job.width;
                self.grid
                    .sites()
                    .any(|s| !self.offline[s.id.0] && s.fits_width(width))
            };
            (batch, self.pending) = batch.into_iter().partition(fits);
            if batch.is_empty() {
                return Ok(None);
            }
            Some(self.online_view()?)
        } else {
            None
        };
        self.n_rounds += 1;
        self.jobs_batched += batch.len();
        self.max_batch = self.max_batch.max(batch.len());
        let (grid, avail) = match &online {
            Some((grid, avail, _)) => (grid, &avail[..]),
            None => (&self.grid, &self.avail[..]),
        };
        let view = GridView {
            grid,
            avail,
            now,
            model: self.model,
        };
        let _round = gridsec_obs::span!("round", batch = batch.len());
        let t0 = std::time::Instant::now();
        let mut schedule = scheduler.schedule(&batch, &view);
        let scheduler_nanos = t0.elapsed().as_nanos();
        self.scheduler_nanos += scheduler_nanos;
        if let Some((_, _, to_global)) = &online {
            for a in &mut schedule.assignments {
                a.site = *to_global
                    .get(a.site.0)
                    .ok_or(Error::UnknownSite(a.site.0))?;
            }
        }
        self.validate_schedule(&schedule, &batch)?;
        Ok(Some(RoundOutcome {
            batch,
            schedule,
            scheduler_nanos,
        }))
    }

    /// The online sites as a dense grid with their availability, and the
    /// grid id of each of its sites.
    fn online_view(&self) -> Result<(Grid, Vec<NodeAvailability>, Vec<SiteId>)> {
        let online = self.grid.sites().filter(|s| !self.offline[s.id.0]);
        let mut sites = Vec::new();
        let mut avail = Vec::new();
        let mut to_global = Vec::new();
        for s in online {
            let mut local = s.clone();
            local.id = SiteId(sites.len());
            sites.push(local);
            avail.push(self.avail[s.id.0].clone());
            to_global.push(s.id);
        }
        Ok((Grid::new(sites)?, avail, to_global))
    }

    /// Replication-aware validation: every batch job covered at least
    /// once, at most `max_replicas` times, on distinct fitting sites.
    fn validate_schedule(&self, schedule: &BatchSchedule, batch: &[BatchJob]) -> Result<()> {
        // One job→sites index instead of per-assignment map churn; the
        // replica checks below run off the indexed site lists.
        let index = schedule.index();
        let in_batch: HashMap<JobId, u32> = batch.iter().map(|b| (b.job.id, b.job.width)).collect();
        for a in &schedule.assignments {
            let width = *in_batch.get(&a.job).ok_or(Error::UnknownJob(a.job.0))?;
            let site = self.grid.get(a.site).ok_or(Error::UnknownSite(a.site.0))?;
            if !site.fits_width(width) {
                return Err(Error::WidthExceedsSite {
                    job: a.job.0,
                    width,
                    site_nodes: site.nodes,
                });
            }
        }
        for b in batch {
            let sites = index.sites_of(b.job.id);
            if sites.len() as u32 > self.max_replicas {
                return Err(Error::invalid(
                    "schedule",
                    format!(
                        "job {} assigned {} times (max_replicas = {})",
                        b.job.id,
                        sites.len(),
                        self.max_replicas
                    ),
                ));
            }
            for (i, s) in sites.iter().enumerate() {
                if sites[..i].contains(s) {
                    return Err(Error::invalid(
                        "schedule",
                        format!("job {} replicated twice on site {}", b.job.id, s),
                    ));
                }
            }
        }
        if index.n_jobs() != batch.len() {
            return Err(Error::IncompleteSchedule {
                expected: batch.len(),
                assigned: index.n_jobs(),
            });
        }
        Ok(())
    }

    /// Commits one assignment as a *successful* execution: the job
    /// occupies its nodes for its full execution time — the simulator's
    /// commit of an attempt that does not fail, so a daemon committing
    /// every assignment of every round reproduces the simulator's
    /// availability trajectory bit for bit.
    pub fn commit_assignment(&mut self, job: &Job, site: SiteId, now: Time) -> CommittedAssignment {
        let exec = job.exec_time(self.grid.site(site).speed);
        self.commit_attempt(job, site, now, exec)
    }

    /// Commits one attempt: `job` occupies `width` nodes of `site_id` from
    /// its earliest fit at or after `now` (and its arrival) for `occupied`
    /// — its execution time, or for an attempt that fails under Eq. 1 the
    /// time until the failure shows.
    pub(crate) fn commit_attempt(
        &mut self,
        job: &Job,
        site_id: SiteId,
        now: Time,
        occupied: Time,
    ) -> CommittedAssignment {
        let start = self.avail[site_id.0]
            .earliest_start(job.width, now.max(job.arrival))
            .expect("validated width");
        let end = start + occupied;
        self.avail[site_id.0].commit(job.width, end);
        self.inflight.push(Inflight {
            job: job.clone(),
            site: site_id,
            end,
        });
        CommittedAssignment {
            job: job.id,
            site: site_id,
            width: job.width,
            start,
            end,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::EarliestCompletion;
    use gridsec_core::{Job, Site};

    fn grid2() -> Grid {
        Grid::new(vec![
            Site::builder(0)
                .nodes(2)
                .speed(1.0)
                .security_level(1.0)
                .build()
                .unwrap(),
            Site::builder(1)
                .nodes(2)
                .speed(2.0)
                .security_level(1.0)
                .build()
                .unwrap(),
        ])
        .unwrap()
    }

    fn bj(id: u64, work: f64) -> BatchJob {
        BatchJob {
            job: Job::builder(id)
                .work(work)
                .security_demand(0.5)
                .build()
                .unwrap(),
            secure_only: false,
        }
    }

    #[test]
    fn empty_queue_round_is_a_noop() {
        let mut d = RoundDriver::new(grid2(), BatchPolicy::Periodic, Default::default(), 1);
        let out = d.run_round(&mut EarliestCompletion, Time::ZERO).unwrap();
        assert!(out.is_none());
        assert_eq!(d.n_rounds(), 0);
    }

    #[test]
    fn round_drains_queue_and_counts() {
        let mut d = RoundDriver::new(grid2(), BatchPolicy::Periodic, Default::default(), 1);
        d.enqueue(bj(0, 10.0));
        d.enqueue(bj(1, 20.0));
        let out = d
            .run_round(&mut EarliestCompletion, Time::new(5.0))
            .unwrap()
            .unwrap();
        assert_eq!(out.batch.len(), 2);
        assert_eq!(out.schedule.len(), 2);
        assert_eq!(d.pending_len(), 0);
        assert_eq!(d.n_rounds(), 1);
        assert_eq!((d.jobs_batched(), d.max_batch_size()), (2, 2));
    }

    #[test]
    fn count_trigger_matches_policy() {
        let mut d = RoundDriver::new(grid2(), BatchPolicy::Hybrid(2), Default::default(), 1);
        d.enqueue(bj(0, 10.0));
        assert!(!d.count_trigger_reached());
        d.enqueue(bj(1, 10.0));
        assert!(d.count_trigger_reached());
        let periodic = RoundDriver::new(grid2(), BatchPolicy::Periodic, Default::default(), 1);
        assert!(!periodic.count_trigger_reached());
    }

    #[test]
    fn commit_follows_engine_arithmetic() {
        let mut d = RoundDriver::new(grid2(), BatchPolicy::Periodic, Default::default(), 1);
        let job = Job::builder(0)
            .work(100.0)
            .arrival(Time::new(3.0))
            .build()
            .unwrap();
        // Site 1 has speed 2 → exec 50, start at max(now, arrival) = 10.
        let c = d.commit_assignment(&job, SiteId(1), Time::new(10.0));
        assert_eq!(c.start, Time::new(10.0));
        assert_eq!(c.end, Time::new(60.0));
        // The second commit on the same site queues behind the first
        // (width 1 on a 2-node site runs in parallel; occupy both nodes).
        let wide = Job::builder(1).width(2).work(10.0).build().unwrap();
        let c2 = d.commit_assignment(&wide, SiteId(1), Time::new(10.0));
        assert_eq!(c2.start, Time::new(60.0));
    }

    #[test]
    fn validation_rejects_unknown_jobs() {
        struct Rogue;
        impl BatchScheduler for Rogue {
            fn name(&self) -> String {
                "Rogue".into()
            }
            fn schedule(&mut self, _batch: &[BatchJob], _view: &GridView<'_>) -> BatchSchedule {
                BatchSchedule::from_pairs([(JobId(999), SiteId(0))])
            }
        }
        let mut d = RoundDriver::new(grid2(), BatchPolicy::Periodic, Default::default(), 1);
        d.enqueue(bj(0, 10.0));
        assert!(d.run_round(&mut Rogue, Time::ZERO).is_err());
    }

    #[test]
    fn set_grid_keeps_site_count() {
        let mut d = RoundDriver::new(grid2(), BatchPolicy::Periodic, Default::default(), 1);
        assert!(d.set_grid(grid2()).is_ok());
        let one = Grid::new(vec![Site::builder(0).nodes(1).build().unwrap()]).unwrap();
        assert!(d.set_grid(one).is_err());
    }

    #[test]
    fn failing_a_site_requeues_inflight_work() {
        let mut d = RoundDriver::new(grid2(), BatchPolicy::Periodic, Default::default(), 1);
        let job = Job::builder(0).work(100.0).build().unwrap();
        // Speed 1 on site 0 → runs [0, 100).
        let c = d.commit_assignment(&job, SiteId(0), Time::ZERO);
        assert_eq!(c.end, Time::new(100.0));
        let stranded = d.fail_site(SiteId(0), Time::new(50.0)).unwrap();
        assert_eq!(stranded, vec![JobId(0)]);
        assert_eq!(d.pending_len(), 1);
        assert!(!d.is_online(SiteId(0)));
        // Double-fail and out-of-range sites are rejected.
        assert!(d.fail_site(SiteId(0), Time::new(51.0)).is_err());
        assert!(d.fail_site(SiteId(9), Time::new(51.0)).is_err());
    }

    #[test]
    fn completed_work_is_not_requeued_on_failure() {
        let mut d = RoundDriver::new(grid2(), BatchPolicy::Periodic, Default::default(), 1);
        let job = Job::builder(0).work(10.0).build().unwrap();
        d.commit_assignment(&job, SiteId(0), Time::ZERO); // ends at 10
        let stranded = d.fail_site(SiteId(0), Time::new(20.0)).unwrap();
        assert!(stranded.is_empty());
        assert_eq!(d.pending_len(), 0);
    }

    #[test]
    fn rejoin_resets_availability_at_the_rejoin_instant() {
        let mut d = RoundDriver::new(grid2(), BatchPolicy::Periodic, Default::default(), 1);
        let job = Job::builder(0).work(1000.0).build().unwrap();
        d.commit_assignment(&job, SiteId(0), Time::ZERO);
        d.fail_site(SiteId(0), Time::new(5.0)).unwrap();
        assert!(d.rejoin_site(SiteId(1), Time::new(6.0)).is_err()); // not offline
        d.rejoin_site(SiteId(0), Time::new(30.0)).unwrap();
        assert!(d.is_online(SiteId(0)));
        // The dead reservation is gone: both nodes free at the rejoin.
        assert_eq!(
            d.avail()[0].earliest_start(2, Time::new(30.0)),
            Some(Time::new(30.0))
        );
    }

    #[test]
    fn masked_round_schedules_only_online_sites_and_defers_misfits() {
        // Site 0 has 2 nodes, site 1 (faster) has 2 nodes.
        let mut d = RoundDriver::new(grid2(), BatchPolicy::Periodic, Default::default(), 1);
        d.fail_site(SiteId(1), Time::ZERO).unwrap();
        d.enqueue(bj(0, 10.0));
        let out = d
            .run_round(&mut EarliestCompletion, Time::ZERO)
            .unwrap()
            .unwrap();
        // The only assignment lands on the surviving site, in grid ids.
        assert_eq!(out.schedule.assignments[0].site, SiteId(0));
        assert_eq!((d.n_rounds(), d.jobs_batched()), (1, 1));
        // With every site down, nothing is schedulable: the round is a
        // no-op and the queue is preserved.
        let mut d2 = RoundDriver::new(grid2(), BatchPolicy::Periodic, Default::default(), 1);
        d2.fail_site(SiteId(0), Time::ZERO).unwrap();
        d2.fail_site(SiteId(1), Time::ZERO).unwrap();
        d2.enqueue(bj(7, 10.0));
        let out2 = d2.run_round(&mut EarliestCompletion, Time::ZERO).unwrap();
        assert!(out2.is_none());
        assert_eq!(d2.pending_len(), 1);
        assert_eq!(d2.n_rounds(), 0);
    }

    #[test]
    fn jobs_fitting_no_online_site_stay_pending() {
        // Grid: site 0 with 1 node, site 1 with 2 nodes.
        let g = Grid::new(vec![
            Site::builder(0).nodes(1).build().unwrap(),
            Site::builder(1).nodes(2).build().unwrap(),
        ])
        .unwrap();
        let mut d = RoundDriver::new(g, BatchPolicy::Periodic, Default::default(), 1);
        d.fail_site(SiteId(1), Time::ZERO).unwrap();
        let mut wide = bj(0, 10.0);
        wide.job.width = 2; // only fits the downed site
        d.enqueue(wide);
        d.enqueue(bj(1, 5.0)); // fits the online site
        let out = d
            .run_round(&mut EarliestCompletion, Time::ZERO)
            .unwrap()
            .unwrap();
        assert_eq!(out.batch.len(), 1);
        assert_eq!(out.batch[0].job.id, JobId(1));
        assert_eq!(d.pending_len(), 1); // the wide job is deferred, not lost
        d.rejoin_site(SiteId(1), Time::new(1.0)).unwrap();
        let out2 = d
            .run_round(&mut EarliestCompletion, Time::new(1.0))
            .unwrap()
            .unwrap();
        assert_eq!(out2.batch[0].job.id, JobId(0));
        assert_eq!(d.pending_len(), 0);
    }

    #[test]
    fn boundary_clock_mirrors_session_semantics() {
        let mut c = BoundaryClock::new(Time::new(10.0));
        assert_eq!(c.now(), Time::ZERO);
        assert_eq!(c.next_periodic_instant(), Time::new(10.0));
        c.ensure_armed();
        c.ensure_armed(); // idempotent while armed
        assert_eq!(c.next_boundary(), Some(Time::new(10.0)));
        // Strictly-before pop leaves a boundary at the probe instant.
        assert!(c.pop_strictly_before(Time::new(10.0)).is_none());
        assert_eq!(c.pop_at_or_before(Time::new(10.0)), Some(Time::new(10.0)));
        c.fired(Time::new(10.0));
        assert_eq!(c.now(), Time::new(10.0));
        // After firing, re-arming queues the next multiple.
        c.ensure_armed();
        assert_eq!(c.next_boundary(), Some(Time::new(20.0)));
        assert_eq!(c.pop_any(), Some(Time::new(20.0)));
        assert_eq!(c.pop_any(), None);
        // Count triggers queue at `now` even when armed.
        c.note_trigger();
        assert_eq!(c.next_boundary(), Some(Time::new(10.0)));
    }

    #[test]
    fn arming_follows_the_pending_queue_and_the_trigger() {
        let mut d = RoundDriver::new(grid2(), BatchPolicy::Hybrid(2), Default::default(), 1);
        let mut c = BoundaryClock::new(Time::new(10.0));
        c.advance_to(Time::new(3.0));
        c.arm(&d); // nothing pending: nothing to cover
        assert_eq!(c.next_boundary(), None);
        d.enqueue(bj(0, 10.0));
        c.arm(&d); // below the trigger: the periodic boundary
        assert_eq!(c.pop_any(), Some(Time::new(10.0)));
        d.enqueue(bj(1, 10.0));
        c.arm(&d); // trigger reached: a boundary now
        assert_eq!(c.pop_any(), Some(Time::new(3.0)));
    }
}

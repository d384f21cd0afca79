//! The online scheduling session: the daemon's single-threaded core.
//!
//! An [`OnlineSession`] owns a long-lived scheduler and the round core
//! the simulator runs on — a [`RoundDriver`] and a [`BoundaryClock`] —
//! and feeds it submitted frames instead of simulated events: before an
//! input at instant `t` it fires every boundary strictly before `t`, then
//! advances the clock, applies the input and arms the clock by the batch
//! policy ([`BoundaryClock::arm`]). So same-instant arrivals batch
//! together and a session fed the same jobs under the same policy
//! commits bit-for-bit the schedule the simulator realises when no
//! attempt fails — the golden cross-check test pins this. There is no
//! failure sampling here: every assignment commits as a success.
//!
//! Wall-clock serving (the daemon's real-time mode) reuses the same
//! machinery: the daemon stamps arrivals from its monotonic clock and
//! calls [`OnlineSession::tick`] when boundary deadlines pass.
//!
//! A daemon shard is a session behind a queue, and a scenario replay
//! ([`ScenarioRunner`](crate::ScenarioRunner)) is a session fed from a
//! compiled stream.

use crate::protocol::{Placed, ServeMetrics, ShardTelemetry, TenantWait, METRICS_WINDOW};
use gridsec_core::{Error, Grid, Job, JobId, Result, Site, SiteId, Time};
use gridsec_obs::Histogram;
use gridsec_sim::{BatchJob, BatchScheduler, BoundaryClock, RoundDriver, SimConfig};
use std::collections::{HashMap, HashSet, VecDeque};

/// Outcome of a bounded submit: either the job joined the pending queue
/// or the queue was full even after every due round ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The job was enqueued.
    Enqueued,
    /// The pending queue sat at the bound even after firing every
    /// boundary strictly before the job's arrival — the job was **not**
    /// enqueued (its id stays reusable) and the caller should resubmit
    /// after a round runs.
    Busy {
        /// The queue depth at rejection (= the bound).
        pending: usize,
    },
}

/// A session's transferable state, in the session's *local* site ids: the
/// snapshot [`OnlineSession::export_state`] takes at a reshard drain
/// barrier and [`OnlineSession::restore`] rebuilds a successor session
/// from. The reshard transfer layer translates between local and global
/// site ids and redistributes the pieces across the new shard plan.
///
/// Cumulative counters and the committed-schedule history are *not* part
/// of session state — the daemon archives them at the barrier, so
/// aggregated metrics and schedules stay continuous across topologies.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionState {
    /// The virtual clock at export.
    pub clock: Time,
    /// Per local site: the node free-time multiset and the offline flag.
    pub sites: Vec<(Vec<Time>, bool)>,
    /// The pending queue, in submission order.
    pub pending: Vec<BatchJob>,
    /// Tracked in-flight commits `(job, local site, end)`, in commit
    /// order — the reservations a later `fail_site` could requeue.
    pub inflight: Vec<(Job, SiteId, Time)>,
    /// Standing commit counts per job, sorted by job id.
    pub live: Vec<(JobId, u32)>,
    /// Every job id the session has accepted, sorted (duplicate-id
    /// protection must survive the transfer).
    pub known: Vec<JobId>,
    /// Tenant attribution for jobs whose queue wait has not been
    /// recorded yet (still pending or awaiting their first commit),
    /// as `(job, tenant)` sorted by job id — per-tenant wait
    /// histograms must keep attributing correctly after a reshard
    /// moves the job to another shard.
    pub tenants: Vec<(JobId, String)>,
}

impl SessionState {
    /// The state of a session that has never served: clock 0, every node
    /// of every site free at 0, nothing pending, in flight or known.
    /// [`OnlineSession::restore`] of it is [`OnlineSession::new`] — which
    /// is how a daemon boots: a reshard from nothing.
    pub fn fresh(grid: &Grid) -> SessionState {
        SessionState {
            clock: Time::ZERO,
            sites: grid
                .sites()
                .map(|s| (vec![Time::ZERO; s.nodes as usize], false))
                .collect(),
            pending: Vec::new(),
            inflight: Vec::new(),
            live: Vec::new(),
            known: Vec::new(),
            tenants: Vec::new(),
        }
    }
}

/// A live scheduling session over one grid and one scheduler.
pub struct OnlineSession {
    rounds: RoundDriver,
    scheduler: Box<dyn BatchScheduler + Send>,
    /// The virtual `now`, the queued boundaries and the one armed
    /// periodic boundary.
    clock: BoundaryClock,
    committed: Vec<Placed>,
    /// Commits currently standing per job: a job counts as scheduled
    /// while it has at least one commit that was not voided by a site
    /// failure.
    live: HashMap<JobId, u32>,
    known_jobs: HashSet<JobId>,
    jobs_submitted: usize,
    jobs_requeued: usize,
    sites_failed: usize,
    sites_rejoined: usize,
    busy_rejections: usize,
    /// Recent scheduler latencies, bounded to [`METRICS_WINDOW`]
    /// entries — the raw window `gridbench` reads from the `metrics`
    /// frame.
    round_nanos: VecDeque<u64>,
    /// Full-history scheduler-latency distribution (fixed 65 buckets,
    /// so unbounded sessions stay O(1) memory).
    round_hist: Histogram,
    /// Full-history non-empty batch-size distribution.
    batch_hist: Histogram,
    /// Tenant intern table, in first-seen order.
    tenant_names: Vec<String>,
    /// Job → interned tenant, kept until the job's first commit
    /// records its queue wait (failure requeues do not re-record).
    tenant_of: HashMap<JobId, usize>,
    /// Per-tenant queue-wait histograms (virtual microseconds from
    /// arrival to first placement), parallel to `tenant_names`.
    tenant_wait: Vec<Histogram>,
    max_completion: Time,
}

impl OnlineSession {
    /// Opens a session. Only the batching/security subset of `config` is
    /// used (`schedule_interval`, `batch_policy`, `security`) — there is
    /// no failure sampling in serving mode, so the simulation-only knobs
    /// are ignored.
    pub fn new(
        grid: Grid,
        scheduler: Box<dyn BatchScheduler + Send>,
        config: &SimConfig,
    ) -> Result<OnlineSession> {
        config.validate()?;
        Ok(OnlineSession {
            rounds: RoundDriver::new(
                grid,
                config.batch_policy,
                config.security,
                config.max_replicas,
            ),
            scheduler,
            clock: BoundaryClock::new(config.schedule_interval),
            committed: Vec::new(),
            live: HashMap::new(),
            known_jobs: HashSet::new(),
            jobs_submitted: 0,
            jobs_requeued: 0,
            sites_failed: 0,
            sites_rejoined: 0,
            busy_rejections: 0,
            round_nanos: VecDeque::new(),
            round_hist: Histogram::new(),
            batch_hist: Histogram::new(),
            tenant_names: Vec::new(),
            tenant_of: HashMap::new(),
            tenant_wait: Vec::new(),
            max_completion: Time::ZERO,
        })
    }

    /// The scheduler's display name.
    pub fn scheduler_name(&self) -> String {
        self.scheduler.name()
    }

    /// The grid this session schedules onto (a shard's subgrid when the
    /// session serves one shard of a larger grid).
    pub fn grid(&self) -> &Grid {
        self.rounds.grid()
    }

    /// The session's virtual clock.
    pub fn now(&self) -> Time {
        self.clock.now()
    }

    /// The earliest queued boundary, if any (the daemon's wall-clock
    /// deadline).
    pub fn next_boundary(&self) -> Option<Time> {
        self.clock.next_boundary()
    }

    /// Jobs waiting for the next round.
    pub fn pending(&self) -> usize {
        self.rounds.pending_len()
    }

    /// Non-empty scheduling rounds run so far (cheap counter — use
    /// [`OnlineSession::metrics`] only when the full snapshot is needed;
    /// it clones the round-latency window).
    pub fn rounds_run(&self) -> usize {
        self.rounds.n_rounds()
    }

    /// Jobs with at least one standing committed assignment (cheap
    /// counter). A job whose only commit was voided by a site failure
    /// drops out until it is rescheduled.
    pub fn jobs_scheduled(&self) -> usize {
        self.live.len()
    }

    /// Jobs accepted over the session (cheap counter).
    pub fn jobs_submitted(&self) -> usize {
        self.jobs_submitted
    }

    /// Every assignment committed so far, in commit order.
    pub fn assignments(&self) -> &[Placed] {
        &self.committed
    }

    /// Submits one job: advances the virtual clock to its arrival
    /// (firing any boundary that falls strictly before it), enqueues,
    /// and applies the batch policy. Arrivals must be non-decreasing —
    /// the virtual clock cannot run backwards.
    pub fn submit(&mut self, job: Job) -> Result<()> {
        self.arrive(&job)?;
        self.enqueue(job, None);
        Ok(())
    }

    /// Like [`OnlineSession::submit`], but with an optional bound on the
    /// pending queue (serving-mode backpressure). The bound is checked
    /// *after* the clock advance fires every due boundary, so a rejection
    /// means the queue is genuinely full at the job's arrival instant —
    /// not merely full before rounds the arrival itself would trigger.
    pub fn submit_bounded(&mut self, job: Job, max_pending: Option<usize>) -> Result<Admission> {
        self.submit_bounded_as(job, max_pending, None)
    }

    /// Like [`OnlineSession::submit_bounded`], with an optional tenant
    /// label for queue-wait attribution: the virtual time from the
    /// job's arrival to its first committed placement is recorded in
    /// that tenant's wait histogram (see
    /// [`OnlineSession::telemetry`]). Unlabelled jobs are not
    /// attributed; scheduling itself never looks at the label.
    pub fn submit_bounded_as(
        &mut self,
        job: Job,
        max_pending: Option<usize>,
        tenant: Option<&str>,
    ) -> Result<Admission> {
        self.arrive(&job)?;
        if let Some(limit) = max_pending {
            let pending = self.rounds.pending_len();
            if pending >= limit {
                // The job was never enqueued; the id is reusable so the
                // client can resubmit the same job later.
                self.known_jobs.remove(&job.id);
                self.busy_rejections += 1;
                return Ok(Admission::Busy { pending });
            }
        }
        self.enqueue(job, tenant);
        Ok(Admission::Enqueued)
    }

    /// The first half of a submit: refuses a job the session cannot take
    /// (non-finite or backwards arrival, duplicate id, too wide for every
    /// site), then claims its id and advances the clock to its arrival.
    fn arrive(&mut self, job: &Job) -> Result<()> {
        if !job.arrival.is_finite() {
            return Err(Error::invalid(
                "submit",
                format!("job {} has a non-finite arrival time", job.id),
            ));
        }
        if job.arrival < self.clock.now() {
            return Err(Error::invalid(
                "submit",
                format!(
                    "job {} arrives at {} but the clock is already at {} \
                     (submit jobs in arrival order)",
                    job.id,
                    job.arrival,
                    self.clock.now()
                ),
            ));
        }
        if !self.known_jobs.insert(job.id) {
            return Err(Error::invalid(
                "submit",
                format!("duplicate job id {}", job.id),
            ));
        }
        if !self.rounds.grid().sites().any(|s| s.fits_width(job.width)) {
            self.known_jobs.remove(&job.id);
            return Err(Error::NoFeasibleSite(job.id.0));
        }
        self.advance_strictly_before(job.arrival)?;
        self.clock.advance_to(job.arrival);
        Ok(())
    }

    /// The second half: the job joins the pending queue and the batch
    /// policy is applied.
    fn enqueue(&mut self, job: Job, tenant: Option<&str>) {
        self.jobs_submitted += 1;
        if let Some(name) = tenant {
            let t = self.intern_tenant(name);
            self.tenant_of.insert(job.id, t);
        }
        self.rounds.enqueue(BatchJob {
            job,
            secure_only: false,
        });
        self.clock.arm(&self.rounds);
    }

    /// Index of `name` in the tenant intern table, adding it (with a
    /// fresh wait histogram) on first sight. Linear scan: tenant
    /// cardinality is small and interning is off the per-round path.
    fn intern_tenant(&mut self, name: &str) -> usize {
        if let Some(i) = self.tenant_names.iter().position(|t| t == name) {
            return i;
        }
        self.tenant_names.push(name.to_string());
        self.tenant_wait.push(Histogram::new());
        self.tenant_names.len() - 1
    }

    /// Advances the clock to `t`, firing every boundary at or before it
    /// (wall-clock mode's timer path).
    pub fn tick(&mut self, t: Time) -> Result<()> {
        while let Some(b) = self.clock.pop_at_or_before(t) {
            self.fire_boundary(b)?;
        }
        self.clock.advance_to(t);
        Ok(())
    }

    /// Runs rounds until nothing is pending: fires every queued boundary
    /// in time order (arming covers the tail by construction — every
    /// enqueue arms a boundary when none is armed). Returns the number of
    /// rounds run so far.
    pub fn drain(&mut self) -> Result<usize> {
        while let Some(b) = self.clock.pop_any() {
            self.fire_boundary(b)?;
        }
        // Rare when fed through `submit` (an armed boundary always covers
        // pending jobs), but a reconfigured policy or a fully-offline
        // grid could strand the queue — flush it at the next periodic
        // instant. Jobs that still fit no online site stay pending
        // (accounted, not lost).
        if self.rounds.pending_len() > 0 {
            let at = self.clock.next_periodic_instant();
            self.fire_boundary(at)?;
        }
        Ok(self.rounds.n_rounds())
    }

    /// Replaces the per-site security levels (the trust state) — the
    /// serving-mode counterpart of the engine's SL random walk.
    pub fn set_security_levels(&mut self, levels: &[f64]) -> Result<()> {
        self.set_security_levels_at(levels, None)
    }

    /// Like [`OnlineSession::set_security_levels`], but applied at a
    /// virtual instant: boundaries strictly before `at` fire first, then
    /// the clock advances, then the levels change.
    pub fn set_security_levels_at(&mut self, levels: &[f64], at: Option<Time>) -> Result<()> {
        self.advance_for_injection("reconfigure", at)?;
        if levels.len() != self.rounds.grid().len() {
            return Err(Error::invalid(
                "reconfigure",
                format!(
                    "{} security levels for {} sites",
                    levels.len(),
                    self.rounds.grid().len()
                ),
            ));
        }
        let mut sites: Vec<Site> = Vec::with_capacity(levels.len());
        for (site, &sl) in self.rounds.grid().sites().zip(levels) {
            if !(0.0..=1.0).contains(&sl) {
                return Err(Error::invalid(
                    "reconfigure",
                    format!("security level {sl} for site {} not in [0, 1]", site.id),
                ));
            }
            let mut s = site.clone();
            s.security_level = sl;
            sites.push(s);
        }
        self.rounds.set_grid(Grid::new(sites)?)?;
        // The scheduler may hold state compiled from the old snapshot
        // (cached risk tables, fitness-kernel inputs) — invalidate it.
        self.scheduler.on_reconfigure();
        Ok(())
    }

    /// Takes a site offline (chaos injection). Jobs stranded
    /// mid-execution on it are requeued for the next round and returned
    /// (their committed assignments stay in the served-schedule history,
    /// but the jobs no longer count as scheduled until replaced). `at`
    /// is the virtual failure instant; `None` applies at the session's
    /// current clock (wall-clock mode).
    pub fn fail_site(&mut self, site: SiteId, at: Option<Time>) -> Result<Vec<JobId>> {
        self.advance_for_injection("fail_site", at)?;
        let stranded = self.rounds.fail_site(site, self.clock.now())?;
        for id in &stranded {
            if let Some(n) = self.live.get_mut(id) {
                *n -= 1;
                if *n == 0 {
                    self.live.remove(id);
                }
            }
        }
        self.jobs_requeued += stranded.len();
        self.sites_failed += 1;
        self.scheduler.on_reconfigure();
        self.clock.arm(&self.rounds);
        Ok(stranded)
    }

    /// Brings a failed site back online with every node free at the
    /// rejoin instant (see [`OnlineSession::fail_site`] for `at`).
    pub fn rejoin_site(&mut self, site: SiteId, at: Option<Time>) -> Result<()> {
        self.advance_for_injection("rejoin_site", at)?;
        self.rounds.rejoin_site(site, self.clock.now())?;
        self.sites_rejoined += 1;
        self.scheduler.on_reconfigure();
        self.clock.arm(&self.rounds);
        Ok(())
    }

    /// Whether the named site is currently online (serving traffic).
    pub fn is_online(&self, site: SiteId) -> bool {
        self.rounds.is_online(site)
    }

    /// A metrics snapshot.
    pub fn metrics(&self) -> ServeMetrics {
        ServeMetrics {
            jobs_submitted: self.jobs_submitted,
            jobs_scheduled: self.live.len(),
            pending: self.rounds.pending_len(),
            rounds: self.rounds.n_rounds(),
            round_nanos: self.round_nanos.iter().copied().collect(),
            round_nanos_hist: self.round_hist.snapshot(),
            batch_size_hist: self.batch_hist.snapshot(),
            scheduler_seconds: self.rounds.scheduler_nanos() as f64 / 1e9,
            virtual_now: self.clock.now(),
            max_completion: self.max_completion,
            sites_failed: self.sites_failed,
            sites_rejoined: self.sites_rejoined,
            jobs_requeued: self.jobs_requeued,
            busy_rejections: self.busy_rejections,
            // Resharding is a router-level operation; sessions never see
            // it. The daemon's archive carries these.
            reshards_completed: 0,
            jobs_migrated: 0,
        }
    }

    /// The session's telemetry slice for `query what=telemetry`:
    /// full-history latency/batch-size histograms plus per-tenant
    /// queue-wait distributions. `shard` is the caller's shard index
    /// (sessions do not know where they are mounted). Histograms
    /// restart empty after a reshard restore — the daemon archives the
    /// pre-reshard aggregate, as with counters.
    pub fn telemetry(&self, shard: usize) -> ShardTelemetry {
        ShardTelemetry {
            shard,
            round_nanos: self.round_hist.snapshot(),
            batch_size: self.batch_hist.snapshot(),
            queue_wait: self
                .tenant_names
                .iter()
                .zip(&self.tenant_wait)
                .map(|(name, h)| TenantWait {
                    tenant: name.clone(),
                    wait_micros: h.snapshot(),
                })
                .collect(),
        }
    }

    /// Snapshots the transferable session state (local site ids). Taken
    /// at a drain barrier: every queued boundary has fired, so the clock
    /// and availability fully describe the session and no armed-boundary
    /// state needs to travel.
    pub fn export_state(&self) -> SessionState {
        let mut live: Vec<(JobId, u32)> = self.live.iter().map(|(&id, &n)| (id, n)).collect();
        live.sort_unstable_by_key(|&(id, _)| id.0);
        let mut known: Vec<JobId> = self.known_jobs.iter().copied().collect();
        known.sort_unstable_by_key(|id| id.0);
        let mut tenants: Vec<(JobId, String)> = self
            .tenant_of
            .iter()
            .map(|(&id, &t)| (id, self.tenant_names[t].clone()))
            .collect();
        tenants.sort_unstable_by_key(|&(id, _)| id.0);
        SessionState {
            clock: self.clock.now(),
            sites: self
                .rounds
                .avail()
                .iter()
                .zip(self.rounds.offline_mask())
                .map(|(a, &offline)| (a.free_times().to_vec(), offline))
                .collect(),
            pending: self.rounds.pending_jobs().to_vec(),
            inflight: self.rounds.inflight_commits(),
            live,
            known,
            tenants,
        }
    }

    /// Opens a session pre-loaded with transferred state: the successor
    /// of a resharded session. The clock resumes at the exported instant,
    /// per-site availability (and offline flags) is restored, pending
    /// jobs re-enter the queue in order, and in-flight commits are
    /// re-adopted for the zero-lost-jobs guarantee. Counters and the
    /// committed history start at zero — the daemon archives the
    /// pre-reshard totals.
    ///
    /// `state.sites` must cover the grid exactly. No boundary is armed:
    /// this mirrors the exporting session's post-drain state, and the
    /// next submission or churn event re-arms exactly as it would have
    /// there.
    pub fn restore(
        grid: Grid,
        scheduler: Box<dyn BatchScheduler + Send>,
        config: &SimConfig,
        state: SessionState,
    ) -> Result<OnlineSession> {
        let mut s = OnlineSession::new(grid, scheduler, config)?;
        if state.sites.len() != s.rounds.grid().len() {
            return Err(Error::invalid(
                "restore",
                format!(
                    "state carries {} sites but the grid has {}",
                    state.sites.len(),
                    s.rounds.grid().len()
                ),
            ));
        }
        s.clock.advance_to(state.clock);
        for (i, (free, offline)) in state.sites.into_iter().enumerate() {
            s.rounds.restore_site_state(SiteId(i), free, offline)?;
        }
        for bj in state.pending {
            s.rounds.enqueue(bj);
        }
        for (job, site, end) in state.inflight {
            if site.0 >= s.rounds.grid().len() {
                return Err(Error::UnknownSite(site.0));
            }
            s.rounds.adopt_inflight(job, site, end);
        }
        s.live = state.live.into_iter().collect();
        s.known_jobs = state.known.into_iter().collect();
        for (id, name) in state.tenants {
            let t = s.intern_tenant(&name);
            s.tenant_of.insert(id, t);
        }
        Ok(s)
    }

    /// Fires every queued boundary strictly before `t`, the instant of the
    /// next input (a boundary *at* `t` fires after it).
    fn advance_strictly_before(&mut self, t: Time) -> Result<()> {
        while let Some(b) = self.clock.pop_strictly_before(t) {
            self.fire_boundary(b)?;
        }
        Ok(())
    }

    /// Shared prologue of every timestamped chaos injection: validate
    /// the instant (finite, not behind the monotone clock), fire
    /// boundaries strictly before it, advance. `None` applies at the
    /// current instant.
    fn advance_for_injection(&mut self, what: &'static str, at: Option<Time>) -> Result<()> {
        let t = at.unwrap_or_else(|| self.clock.now());
        if !t.is_finite() {
            return Err(Error::invalid(what, "non-finite injection instant"));
        }
        if t < self.clock.now() {
            return Err(Error::invalid(
                what,
                format!(
                    "injection at {} but the clock is already at {}",
                    t,
                    self.clock.now()
                ),
            ));
        }
        self.advance_strictly_before(t)?;
        self.clock.advance_to(t);
        Ok(())
    }

    /// Fires the boundary at `b`: clear the armed flag, run a round over
    /// whatever is pending, commit the schedule.
    fn fire_boundary(&mut self, b: Time) -> Result<()> {
        self.clock.fired(b);
        let Some(outcome) = self.rounds.run_round(self.scheduler.as_mut(), b)? else {
            return Ok(());
        };
        self.round_nanos.push_back(outcome.scheduler_nanos as u64);
        if self.round_nanos.len() > METRICS_WINDOW {
            self.round_nanos.pop_front();
        }
        self.round_hist.record(outcome.scheduler_nanos as u64);
        self.batch_hist.record(outcome.batch.len() as u64);
        // Commit in dispatch order — the served schedule *is* the
        // engine's no-failure execution. One JobId→Job index per round
        // keeps a k-assignment commit O(k), not O(k·batch).
        let by_id: HashMap<JobId, &Job> =
            outcome.batch.iter().map(|x| (x.job.id, &x.job)).collect();
        for a in &outcome.schedule.assignments {
            let job = *by_id
                .get(&a.job)
                .expect("validated schedule covers only batch jobs");
            let placed = self.rounds.commit_assignment(job, a.site, b);
            if let Some(t) = self.tenant_of.remove(&placed.job) {
                // Queue wait = arrival → first placement, in virtual
                // microseconds. Requeues after a site failure keep the
                // original attribution consumed here, so each job
                // records exactly once.
                let wait = (placed.start.seconds() - job.arrival.seconds()).max(0.0);
                self.tenant_wait[t].record((wait * 1e6) as u64);
            }
            self.max_completion = self.max_completion.max(placed.end);
            *self.live.entry(placed.job).or_insert(0) += 1;
            self.committed.push(placed);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_sim::scheduler::EarliestCompletion;
    use gridsec_sim::BatchPolicy;

    fn grid() -> Grid {
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

    fn job(id: u64, arrival: f64, work: f64) -> Job {
        Job::builder(id)
            .arrival(Time::new(arrival))
            .work(work)
            .security_demand(0.5)
            .build()
            .unwrap()
    }

    fn session(policy: BatchPolicy) -> OnlineSession {
        let config = SimConfig::default()
            .with_interval(Time::new(10.0))
            .with_batch_policy(policy);
        OnlineSession::new(grid(), Box::new(EarliestCompletion), &config).unwrap()
    }

    #[test]
    fn periodic_batching_matches_engine_semantics() {
        let mut s = session(BatchPolicy::Periodic);
        for i in 0..4 {
            s.submit(job(i, 1.0 + i as f64, 10.0)).unwrap();
        }
        // Nothing fires until the clock passes the boundary at 10.
        assert_eq!(s.metrics().rounds, 0);
        s.submit(job(9, 11.0, 10.0)).unwrap();
        let m = s.metrics();
        assert_eq!(m.rounds, 1);
        assert_eq!((m.batch_size_hist.count, m.batch_size_hist.sum), (1, 4));
        assert_eq!(m.pending, 1);
        s.drain().unwrap();
        assert_eq!(s.metrics().jobs_scheduled, 5);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn count_trigger_fires_only_after_the_instant_passes() {
        let mut s = session(BatchPolicy::CountTriggered(2));
        // Three same-instant arrivals: the engine batches all three
        // (arrival events sort before the count-fired boundary).
        s.submit(job(0, 5.0, 10.0)).unwrap();
        s.submit(job(1, 5.0, 10.0)).unwrap();
        s.submit(job(2, 5.0, 10.0)).unwrap();
        assert_eq!(s.metrics().rounds, 0);
        s.submit(job(3, 6.0, 10.0)).unwrap();
        let m = s.metrics();
        assert_eq!(m.rounds, 1);
        assert_eq!((m.batch_size_hist.count, m.batch_size_hist.sum), (1, 3));
    }

    /// A `null` batch period reads as +∞: at bfcc786 such a session
    /// placed its first job at t = ∞ and refused every later submit.
    #[test]
    fn an_infinite_batch_period_is_refused() {
        let config = SimConfig::default().with_interval(Time::INFINITY);
        let err = OnlineSession::new(grid(), Box::new(EarliestCompletion), &config);
        let err = err.err().expect("refused").to_string();
        assert!(err.contains("schedule_interval"), "{err}");
    }

    #[test]
    fn out_of_order_arrivals_rejected() {
        let mut s = session(BatchPolicy::Periodic);
        s.submit(job(0, 5.0, 10.0)).unwrap();
        assert!(s.submit(job(1, 4.0, 10.0)).is_err());
        // Equal arrivals are fine.
        s.submit(job(2, 5.0, 10.0)).unwrap();
    }

    #[test]
    fn duplicate_and_oversized_jobs_rejected() {
        let mut s = session(BatchPolicy::Periodic);
        s.submit(job(0, 0.0, 10.0)).unwrap();
        assert!(s.submit(job(0, 1.0, 10.0)).is_err());
        let wide = Job::builder(5).width(64).build().unwrap();
        assert!(matches!(s.submit(wide), Err(Error::NoFeasibleSite(5))));
        // The rejected id is reusable.
        s.submit(Job::builder(5).arrival(Time::new(1.0)).build().unwrap())
            .unwrap();
    }

    #[test]
    fn trust_reconfiguration_validates() {
        let mut s = session(BatchPolicy::Periodic);
        assert!(s.set_security_levels(&[0.3, 0.8]).is_ok());
        assert!(s.set_security_levels(&[0.3]).is_err());
        assert!(s.set_security_levels(&[0.3, 1.4]).is_err());
    }

    #[test]
    fn trust_reconfiguration_invalidates_scheduler_state() {
        use gridsec_core::BatchSchedule;
        use gridsec_sim::GridView;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        /// Probe scheduler: counts `on_reconfigure` notifications.
        struct Probe {
            inner: EarliestCompletion,
            reconfigures: Arc<AtomicUsize>,
        }
        impl BatchScheduler for Probe {
            fn name(&self) -> String {
                "probe".into()
            }
            fn schedule(&mut self, batch: &[BatchJob], view: &GridView<'_>) -> BatchSchedule {
                self.inner.schedule(batch, view)
            }
            fn on_reconfigure(&mut self) {
                self.reconfigures.fetch_add(1, Ordering::SeqCst);
            }
        }

        let count = Arc::new(AtomicUsize::new(0));
        let config = SimConfig::default()
            .with_interval(Time::new(10.0))
            .with_batch_policy(BatchPolicy::Periodic);
        let mut s = OnlineSession::new(
            grid(),
            Box::new(Probe {
                inner: EarliestCompletion,
                reconfigures: Arc::clone(&count),
            }),
            &config,
        )
        .unwrap();
        // A successful trust reconfiguration notifies the scheduler…
        s.set_security_levels(&[0.3, 0.8]).unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 1);
        // …but a rejected one must not (no state actually changed).
        assert!(s.set_security_levels(&[0.3, 1.4]).is_err());
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn tick_fires_due_boundaries_inclusively() {
        let mut s = session(BatchPolicy::Periodic);
        s.submit(job(0, 1.0, 10.0)).unwrap();
        s.tick(Time::new(10.0)).unwrap();
        assert_eq!(s.metrics().rounds, 1);
        assert_eq!(s.now(), Time::new(10.0));
    }

    #[test]
    fn bounded_submit_goes_busy_only_when_rounds_cannot_help() {
        let mut s = session(BatchPolicy::CountTriggered(2));
        let limit = Some(2);
        assert_eq!(
            s.submit_bounded(job(0, 1.0, 5.0), limit).unwrap(),
            Admission::Enqueued
        );
        assert_eq!(
            s.submit_bounded(job(1, 1.0, 5.0), limit).unwrap(),
            Admission::Enqueued
        );
        // Same instant: the count-triggered boundary at t = 1 has not
        // passed yet, so the queue is genuinely full.
        assert_eq!(
            s.submit_bounded(job(2, 1.0, 5.0), limit).unwrap(),
            Admission::Busy { pending: 2 }
        );
        // A later arrival fires the due boundary first — room again.
        assert_eq!(
            s.submit_bounded(job(3, 2.0, 5.0), limit).unwrap(),
            Admission::Enqueued
        );
        // The busied id was never consumed; the client resubmits it.
        assert_eq!(
            s.submit_bounded(job(2, 2.0, 5.0), limit).unwrap(),
            Admission::Enqueued
        );
        let m = s.metrics();
        assert_eq!(m.jobs_submitted, 4);
        assert_eq!(m.busy_rejections, 1);
    }

    #[test]
    fn site_failure_requeues_stranded_jobs_and_rejoin_restores() {
        let mut s = session(BatchPolicy::Periodic);
        // Job 0 schedules at the t = 10 boundary onto the fastest site
        // (site 1, speed 2): runs 10 → 60.
        s.submit(job(0, 1.0, 100.0)).unwrap();
        s.submit(job(1, 11.0, 10.0)).unwrap();
        assert_eq!(s.jobs_scheduled(), 1);
        assert_eq!(s.assignments()[0].site, SiteId(1));

        // Site 1 dies at t = 20, mid-execution: job 0 is stranded and
        // requeued, its commit stays in the served history but it no
        // longer counts as scheduled.
        let stranded = s.fail_site(SiteId(1), Some(Time::new(20.0))).unwrap();
        assert_eq!(stranded, vec![JobId(0)]);
        assert!(!s.is_online(SiteId(1)));
        let m = s.metrics();
        assert_eq!(m.sites_failed, 1);
        assert_eq!(m.jobs_requeued, 1);
        assert_eq!(m.jobs_scheduled, 0);
        assert_eq!(s.assignments().len(), 1);

        // Draining reschedules both pending jobs onto the surviving site.
        s.drain().unwrap();
        assert_eq!(s.jobs_scheduled(), 2);
        assert!(s.assignments().iter().skip(1).all(|p| p.site == SiteId(0)));

        // Double-fail and unknown sites are typed errors; rejoin clears
        // the offline state.
        assert!(s.fail_site(SiteId(1), None).is_err());
        assert!(s.fail_site(SiteId(9), None).is_err());
        s.rejoin_site(SiteId(1), None).unwrap();
        assert!(s.is_online(SiteId(1)));
        assert!(s.rejoin_site(SiteId(1), None).is_err());
        assert_eq!(s.metrics().sites_rejoined, 1);
    }

    #[test]
    fn injection_instants_cannot_run_backwards() {
        let mut s = session(BatchPolicy::Periodic);
        s.submit(job(0, 15.0, 10.0)).unwrap();
        assert!(s.fail_site(SiteId(0), Some(Time::new(5.0))).is_err());
        // A failure at the clock's current instant is fine.
        s.fail_site(SiteId(0), Some(Time::new(15.0))).unwrap();
    }

    #[test]
    fn non_finite_instants_are_refused_and_the_clock_stays_finite() {
        let mut s = session(BatchPolicy::Periodic);
        s.submit(job(0, 5.0, 10.0)).unwrap();
        let mut never = job(1, 6.0, 10.0);
        never.arrival = Time::INFINITY;
        let err = s.submit(never).unwrap_err().to_string();
        assert!(err.contains("J1") && err.contains("non-finite"), "{err}");
        assert_eq!(s.now(), Time::new(5.0));
        assert_eq!(s.pending(), 1);
        // The refused id was never consumed, and later finite traffic is
        // admitted as if the frame had not been sent.
        assert_eq!(
            s.submit_bounded(job(1, 6.0, 10.0), Some(4)).unwrap(),
            Admission::Enqueued
        );
        for at in [Time::INFINITY, Time::new(f64::NEG_INFINITY)] {
            assert!(s.fail_site(SiteId(0), Some(at)).is_err());
            assert!(s.rejoin_site(SiteId(0), Some(at)).is_err());
            assert!(s.set_security_levels_at(&[0.5, 0.5], Some(at)).is_err());
        }
        assert!(s.is_online(SiteId(0)));
        assert_eq!(s.now(), Time::new(6.0));
        s.drain().unwrap();
        assert_eq!(s.pending(), 0);
        assert!(s.now().is_finite());
    }

    #[test]
    fn timestamped_reconfigure_fires_due_boundaries_first() {
        let mut s = session(BatchPolicy::Periodic);
        s.submit(job(0, 1.0, 10.0)).unwrap();
        // The reconfigure at t = 12 must fire the t = 10 boundary before
        // the trust change lands — the job schedules under the old state.
        s.set_security_levels_at(&[0.2, 0.2], Some(Time::new(12.0)))
            .unwrap();
        assert_eq!(s.metrics().rounds, 1);
        assert_eq!(s.now(), Time::new(12.0));
    }

    #[test]
    fn export_restore_resumes_bit_identically() {
        // Two sessions: one keeps running, the other is exported at a
        // drain barrier and restored into a fresh session. Fed the same
        // suffix, the restored session must commit the identical
        // schedule — the single-shard kernel of the reshard-equivalence
        // proof.
        let mut a = session(BatchPolicy::Periodic);
        let mut b = session(BatchPolicy::Periodic);
        for s in [&mut a, &mut b] {
            s.submit(job(0, 1.0, 100.0)).unwrap();
            s.submit(job(1, 2.0, 40.0)).unwrap();
            s.drain().unwrap();
        }
        let state = b.export_state();
        assert_eq!(state.pending.len(), 0);
        assert_eq!(state.live.len(), 2);
        assert_eq!(state.inflight.len(), 2);
        let config = SimConfig::default()
            .with_interval(Time::new(10.0))
            .with_batch_policy(BatchPolicy::Periodic);
        let mut b2 =
            OnlineSession::restore(grid(), Box::new(EarliestCompletion), &config, state).unwrap();
        assert_eq!(b2.now(), a.now());
        // Duplicate-id protection survives the transfer.
        assert!(b2.submit(job(0, b2.now().seconds(), 1.0)).is_err());
        let before_a = a.assignments().len();
        for s in [&mut a, &mut b2] {
            s.submit(job(7, 30.0, 25.0)).unwrap();
            s.submit(job(8, 31.0, 5.0)).unwrap();
            s.drain().unwrap();
        }
        let suffix_a = &a.assignments()[before_a..];
        assert_eq!(suffix_a, b2.assignments());
        // A site failure after restore still requeues the transferred
        // in-flight work (zero lost jobs across the barrier).
        let mut c = session(BatchPolicy::Periodic);
        c.submit(job(0, 1.0, 100.0)).unwrap();
        c.drain().unwrap();
        let placed_site = c.assignments()[0].site;
        let mut c2 = OnlineSession::restore(
            grid(),
            Box::new(EarliestCompletion),
            &config,
            c.export_state(),
        )
        .unwrap();
        let stranded = c2.fail_site(placed_site, None).unwrap();
        assert_eq!(stranded, vec![JobId(0)]);
        assert_eq!(c2.pending(), 1);
    }

    /// What `Daemon::spawn` rests on: restoring the state of a session
    /// that has never served *is* opening one — same exported state
    /// before any traffic, bit-identical commits and state after the same
    /// submit/tick/drain script, for a stateless mapper and for the STGA
    /// (GA stream, history table) on the multi-node grid.
    #[test]
    fn restore_of_a_fresh_state_is_new() {
        use gridsec_stga::{GaParams, Stga, StgaParams};
        let config = SimConfig::default()
            .with_interval(Time::new(10.0))
            .with_batch_policy(BatchPolicy::Hybrid(3));
        let ga = GaParams::default().with_population(16).with_generations(8);
        let stga = StgaParams {
            ga: ga.with_seed(3),
            ..StgaParams::default()
        };
        let makes: [&dyn Fn() -> Box<dyn BatchScheduler + Send>; 2] =
            [&|| Box::new(EarliestCompletion), &|| {
                Box::new(Stga::new(stga).unwrap())
            }];
        for make in makes {
            let fresh = SessionState::fresh(&grid());
            let mut pair = [
                OnlineSession::new(grid(), make(), &config).unwrap(),
                OnlineSession::restore(grid(), make(), &config, fresh.clone()).unwrap(),
            ];
            for s in &mut pair {
                assert_eq!(s.export_state(), fresh);
                for id in 0..5 {
                    s.submit(job(id, id as f64, 30.0 + id as f64)).unwrap();
                }
                s.tick(Time::new(12.0)).unwrap();
                let late = job(5, 13.0, 9.0);
                s.submit_bounded_as(late, Some(8), Some("acme")).unwrap();
                s.drain().unwrap();
            }
            assert_eq!(pair[0].assignments().len(), 6);
            assert_eq!(pair[0].assignments(), pair[1].assignments());
            assert_eq!(pair[0].export_state(), pair[1].export_state());
        }
    }

    #[test]
    fn metrics_track_commits() {
        let mut s = session(BatchPolicy::Periodic);
        s.submit(job(0, 3.0, 100.0)).unwrap();
        s.drain().unwrap();
        let m = s.metrics();
        assert_eq!(m.jobs_submitted, 1);
        assert_eq!(m.jobs_scheduled, 1);
        assert_eq!(m.rounds, 1);
        // Boundary at 10, fastest site speed 2 → completion 60 (the
        // engine's `single_job_completes_with_correct_times`).
        assert_eq!(m.max_completion, Time::new(60.0));
        assert_eq!(s.assignments().len(), 1);
        assert_eq!(s.assignments()[0].start, Time::new(10.0));
    }
}

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

use crate::ids::IdMap;
use crate::ledger::Ledger;
use crate::protocol::{ServeMetrics, ShardTelemetry, TenantWait, METRICS_WINDOW};
use gridsec_core::{Error, Grid, Job, JobId, Result, Site, SiteId, Time};
use gridsec_obs::Histogram;
use gridsec_sim::{BatchJob, BatchScheduler, BoundaryClock, RoundDriver, SimConfig};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

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
    /// Standing commit counts per job, a compressed id map in which a
    /// count of one is the id's presence alone. Owned jointly with the
    /// exporting session (an [`IdTable`] is shared, not copied); the
    /// session restored from this state takes it over.
    pub live: LiveCommits,
    /// Every job id the session has accepted (duplicate-id protection
    /// must survive the transfer), about a bit per id handed out in
    /// order. Owned like `live`.
    pub known: KnownIds,
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
            live: IdTable::default(),
            known: IdTable::default(),
            tenants: Vec::new(),
        }
    }
}

/// How two entries for one job id combine when id tables merge: an
/// accepted-id set keeps one, standing-commit counts add up.
pub trait Merge: Copy + PartialEq {
    /// The value almost every id holds (a job committed once). An
    /// [`IdTable`] stores it as the id's presence alone; only the other
    /// values take room of their own.
    const ONE: Self;

    /// Folds `other` into `self`.
    fn merge(&mut self, other: Self);
}

impl Merge for () {
    const ONE: () = ();

    fn merge(&mut self, _: ()) {}
}

impl Merge for u32 {
    const ONE: u32 = 1;

    fn merge(&mut self, n: u32) {
        *self += n;
    }
}

/// The ids a session has accepted: one bit per id handed out in order.
pub type KnownIds = IdTable<()>;

/// The standing commits per job: a job counts as scheduled while it has
/// one. A count of one is the id's presence alone; other counts sit
/// beside the ids.
pub type LiveCommits = IdTable<u32>;

/// One of a session's job-id tables, held by shared ownership so that a
/// reshard barrier hands it over whole: exporting it is O(1), and
/// [`transfer`](crate::transfer) moves only the ids of pending and
/// in-flight jobs one at a time.
///
/// Each whole table is a compressed id map: ids in 4096-id chunks, a
/// chunk holding many ids a 512-byte bitmap and the rest an ordered set
/// of whole ids, and a value other than [`Merge::ONE`] beside its id. At
/// 10⁶ ids handed out in order that is 0.14 requested bytes per id, for
/// every other id 0.27, and for ids drawn from all of `u64` 15.4, less
/// than a `HashMap` took (`crates/serve/tests/id_budget.rs`). Every
/// operation is O(log n) in the worst case, and no id is hashed.
///
/// The table a session builds is *settled*: one map. A table a reshard
/// seeds is *inherited*: the whole tables of the old sessions it takes
/// over, each less the ids that left it for other shards, plus the ids
/// moved in from them. The session's first change to an inherited table
/// unions the smaller tables into the largest, chunk by chunk (a word OR
/// per 64 ids of a bitmap). By then the old sessions and their exports
/// are gone, so the largest changes hands without a copy.
#[derive(Debug, Clone)]
pub struct IdTable<V> {
    /// Whole tables, each with the ids that left it.
    parts: Vec<Part<V>>,
    /// Entries moved in one at a time.
    moved_in: IdMap<V>,
}

#[derive(Debug, Clone)]
struct Part<V> {
    table: Arc<IdMap<V>>,
    left: HashSet<JobId>,
}

impl<V> Default for IdTable<V> {
    /// An empty settled table.
    fn default() -> IdTable<V> {
        IdTable {
            parts: vec![Part {
                table: Arc::default(),
                left: HashSet::new(),
            }],
            moved_in: IdMap::default(),
        }
    }
}

impl<V: Merge> IdTable<V> {
    /// An inheritance with nothing in it yet, for
    /// [`transfer`](crate::transfer) to fill.
    pub fn inherit() -> IdTable<V> {
        IdTable {
            parts: Vec::new(),
            moved_in: IdMap::default(),
        }
    }

    fn is_settled(&self) -> bool {
        matches!(self.parts.as_slice(), [p] if p.left.is_empty()) && self.moved_in.len() == 0
    }

    /// The part a settle keeps: the largest table, the first of equals.
    fn largest(&self) -> Option<usize> {
        (0..self.parts.len())
            .rev()
            .max_by_key(|&i| self.parts[i].table.len())
    }

    /// The entry for `id`: merged over every table that still holds it.
    pub fn get(&self, id: JobId) -> Option<V> {
        let held = self.parts.iter().filter(|p| !p.left.contains(&id));
        let mut entries = held
            .filter_map(|p| p.table.get(id))
            .chain(self.moved_in.get(id));
        let first = entries.next()?;
        Some(entries.fold(first, |mut v, w| {
            v.merge(w);
            v
        }))
    }

    /// The number of ids, counted once each however many inherited tables
    /// hold them. O(1) once settled; before that, O(the entries a settle
    /// would union).
    pub fn len(&self) -> usize {
        let Some(big) = self.largest() else {
            return self.moved_in.len();
        };
        let base = &self.parts[big];
        if self.is_settled() {
            return base.table.len();
        }
        let mut rest = self.moved_in.clone();
        let others = self.parts.iter().enumerate().filter(|&(i, _)| i != big);
        for (_, p) in others {
            rest.union(&p.table, &p.left);
        }
        let gone = base.left.iter().filter(|&&id| base.table.contains(id));
        base.table.len() - gone.count() + rest.len() - rest.overlap(&base.table, &base.left)
    }

    /// Whether the table holds no id.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The one map, after settling an inheritance. Copies the map only
    /// if something else (an export, an old session) still holds it.
    fn settled(&mut self) -> &mut IdMap<V> {
        if !self.is_settled() {
            let mut base = match self.largest() {
                Some(i) => self.parts.swap_remove(i),
                None => Part {
                    table: Arc::default(),
                    left: HashSet::new(),
                },
            };
            let table = Arc::make_mut(&mut base.table);
            for &id in &base.left {
                table.remove(id);
            }
            for p in &self.parts {
                table.union(&p.table, &p.left);
            }
            table.union(&self.moved_in, &HashSet::new());
            base.left.clear();
            self.parts = vec![base];
            self.moved_in = IdMap::default();
        }
        Arc::make_mut(&mut self.parts[0].table)
    }

    /// Sets `id`'s entry; returns the one it replaced.
    pub fn insert(&mut self, id: JobId, v: V) -> Option<V> {
        self.settled().insert(id, v)
    }

    /// Removes `id`; returns its entry.
    pub fn remove(&mut self, id: JobId) -> Option<V> {
        self.settled().remove(id)
    }

    /// Merges `v` into `id`'s entry (adds it when `id` is new).
    pub fn add(&mut self, id: JobId, v: V) {
        self.settled().merge_in(id, v);
    }

    /// Every entry in ascending id order (of a settled copy, when the
    /// table is inherited).
    pub fn entries(&self) -> Vec<(JobId, V)> {
        if self.is_settled() {
            return self.parts[0].table.iter().collect();
        }
        self.clone().settled().iter().collect()
    }

    /// Takes `whole` over as it is, less the ids in `left`; returns the
    /// entries handled one at a time (its own moved-in entries and the
    /// ids that left).
    pub fn take_over(&mut self, whole: &IdTable<V>, left: &HashSet<JobId>) -> usize {
        for p in &whole.parts {
            self.parts.push(Part {
                table: Arc::clone(&p.table),
                left: p.left.union(left).copied().collect(),
            });
        }
        for (id, v) in whole.moved_in.iter() {
            if !left.contains(&id) {
                self.move_in(id, v);
            }
        }
        whole.moved_in.len() + left.len() * whole.parts.len()
    }

    /// Adds one entry moved in from another shard.
    pub fn move_in(&mut self, id: JobId, v: V) {
        self.moved_in.merge_in(id, v);
    }

    /// The entries the first settle handles one at a time: all but the
    /// largest table's.
    pub fn settle_cost(&self) -> usize {
        if self.is_settled() {
            return 0;
        }
        let big = self.largest();
        let parts = self.parts.iter().enumerate().map(|(i, p)| {
            let whole = if Some(i) == big { 0 } else { p.table.len() };
            whole + p.left.len()
        });
        parts.sum::<usize>() + self.moved_in.len()
    }
}

impl LiveCommits {
    /// Voids one standing commit of `id` (a site failure stranded it);
    /// the id leaves with its last.
    pub fn release(&mut self, id: JobId) {
        let live = self.settled();
        if let Some(n) = live.get(id) {
            if n == 1 {
                live.remove(id);
            } else {
                live.insert(id, n - 1);
            }
        }
    }
}

impl<V: Merge> PartialEq for IdTable<V> {
    /// Equal when they hold the same entries, however they are split.
    fn eq(&self, other: &IdTable<V>) -> bool {
        self.entries() == other.entries()
    }
}

/// A live scheduling session over one grid and one scheduler.
pub struct OnlineSession {
    rounds: RoundDriver,
    scheduler: Box<dyn BatchScheduler + Send>,
    /// The virtual `now`, the queued boundaries and the one armed
    /// periodic boundary.
    clock: BoundaryClock,
    /// Every commit, in commit order (compact: see [`Ledger`]).
    committed: Ledger,
    /// Commits currently standing per job: a job counts as scheduled
    /// while it has at least one commit that was not voided by a site
    /// failure.
    live: LiveCommits,
    known: KnownIds,
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
            committed: Ledger::new(),
            live: IdTable::default(),
            known: IdTable::default(),
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

    /// What the scheduler learned, as text it can be rebuilt from
    /// ([`BatchScheduler::snapshot`]) — a shard's one way to carry its
    /// scheduler's state across a reshard or a restart.
    pub fn snapshot(&self) -> Option<String> {
        self.scheduler.snapshot()
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

    /// Every assignment committed so far, in commit order: a view that
    /// decodes the compact ledger as it iterates (`to_vec` for a copy).
    pub fn assignments(&self) -> &Ledger {
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
    /// pending queue (serving-mode backpressure) and an optional tenant
    /// label. The bound is checked *after* the clock advance fires every
    /// due boundary, so a rejection means the queue is genuinely full at
    /// the job's arrival instant — not merely full before rounds the
    /// arrival itself would trigger. The label is for queue-wait
    /// attribution: the virtual time from the job's arrival to its first
    /// committed placement is recorded in that tenant's wait histogram
    /// (see [`OnlineSession::telemetry`]). Unlabelled jobs are not
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
                self.known.remove(job.id);
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
        if self.known.insert(job.id, ()).is_some() {
            return Err(Error::invalid(
                "submit",
                format!("duplicate job id {}", job.id),
            ));
        }
        if !self.rounds.grid().sites().any(|s| s.fits_width(job.width)) {
            self.known.remove(job.id);
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
    /// serving-mode counterpart of the engine's SL random walk — at a
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
        for &id in &stranded {
            self.live.release(id);
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
    /// state needs to travel. The id tables are shared, not copied: the
    /// cost is the pending, in-flight and tenant entries, however many
    /// jobs the session has served.
    pub fn export_state(&self) -> SessionState {
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
            live: self.live.clone(),
            known: self.known.clone(),
            tenants,
        }
    }

    /// Opens a session pre-loaded with transferred state: the successor
    /// of a resharded session. The clock resumes at the exported instant,
    /// per-site availability (and offline flags) is restored, pending
    /// jobs re-enter the queue in order, and in-flight commits are
    /// re-adopted for the zero-lost-jobs guarantee, and the id tables are
    /// taken over as they are (the first change to one settles it; see
    /// [`IdTable`]). Counters and the committed history start at zero —
    /// the daemon archives the pre-reshard totals.
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
        s.live = state.live;
        s.known = state.known;
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
            self.live.add(placed.job, 1);
            self.committed.push(&placed);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_sim::scheduler::EarliestCompletion;
    use gridsec_sim::BatchPolicy;

    /// A settled table of these entries (repeats merge) — for the tests
    /// of this crate.
    impl<V: Merge> FromIterator<(JobId, V)> for IdTable<V> {
        fn from_iter<I: IntoIterator<Item = (JobId, V)>>(entries: I) -> IdTable<V> {
            let mut t = IdTable::default();
            for (id, v) in entries {
                t.move_in(id, v);
            }
            t.settled();
            t
        }
    }

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
        assert!(s.set_security_levels_at(&[0.3, 0.8], None).is_ok());
        assert!(s.set_security_levels_at(&[0.3], None).is_err());
        assert!(s.set_security_levels_at(&[0.3, 1.4], None).is_err());
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
        s.set_security_levels_at(&[0.3, 0.8], None).unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 1);
        // …but a rejected one must not (no state actually changed).
        assert!(s.set_security_levels_at(&[0.3, 1.4], None).is_err());
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
            s.submit_bounded_as(job(0, 1.0, 5.0), limit, None).unwrap(),
            Admission::Enqueued
        );
        assert_eq!(
            s.submit_bounded_as(job(1, 1.0, 5.0), limit, None).unwrap(),
            Admission::Enqueued
        );
        // Same instant: the count-triggered boundary at t = 1 has not
        // passed yet, so the queue is genuinely full.
        assert_eq!(
            s.submit_bounded_as(job(2, 1.0, 5.0), limit, None).unwrap(),
            Admission::Busy { pending: 2 }
        );
        // A later arrival fires the due boundary first — room again.
        assert_eq!(
            s.submit_bounded_as(job(3, 2.0, 5.0), limit, None).unwrap(),
            Admission::Enqueued
        );
        // The busied id was never consumed; the client resubmits it.
        assert_eq!(
            s.submit_bounded_as(job(2, 2.0, 5.0), limit, None).unwrap(),
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
        assert_eq!(s.assignments().to_vec()[0].site, SiteId(1));

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
            s.submit_bounded_as(job(1, 6.0, 10.0), Some(4), None)
                .unwrap(),
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
        let suffix_a = &a.assignments().to_vec()[before_a..];
        assert_eq!(suffix_a, b2.assignments().to_vec());
        // A site failure after restore still requeues the transferred
        // in-flight work (zero lost jobs across the barrier).
        let mut c = session(BatchPolicy::Periodic);
        c.submit(job(0, 1.0, 100.0)).unwrap();
        c.drain().unwrap();
        let placed_site = c.assignments().to_vec()[0].site;
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

    /// An export shares the id tables, not copies; the session's next
    /// change copies only because the export still holds them, and leaves
    /// the export as it was.
    #[test]
    fn export_shares_the_id_tables() {
        let mut s = session(BatchPolicy::Periodic);
        s.submit(job(0, 1.0, 10.0)).unwrap();
        s.drain().unwrap();
        let state = s.export_state();
        assert!(Arc::ptr_eq(
            &state.known.parts[0].table,
            &s.known.parts[0].table
        ));
        assert!(Arc::ptr_eq(
            &state.live.parts[0].table,
            &s.live.parts[0].table
        ));
        s.submit(job(1, 20.0, 10.0)).unwrap();
        assert_eq!(s.known.get(JobId(1)), Some(()));
        assert_eq!(state.known, [(JobId(0), ())].into_iter().collect());
    }

    /// An inherited table reads as the union of its parts — each less
    /// the ids that left it, counts added — and its first change settles
    /// it into the largest part in place when nothing else holds that.
    #[test]
    fn an_inherited_table_settles_into_its_largest_part_in_place() {
        let big: LiveCommits = (0..100).map(|i| (JobId(i), 1)).collect();
        let small: LiveCommits = [(JobId(5), 2), (JobId(200), 1), (JobId(201), 1)]
            .into_iter()
            .collect();
        let big_table = Arc::as_ptr(&big.parts[0].table);
        let mut t = LiveCommits::inherit();
        assert_eq!(t.take_over(&small, &HashSet::from([JobId(201)])), 1);
        assert_eq!(t.take_over(&big, &HashSet::from([JobId(7)])), 1);
        t.move_in(JobId(7), 3);
        t.move_in(JobId(300), 1);
        drop((big, small));
        // 99 of the big table's ids, plus 200, 7 (moved back in) and 300.
        assert_eq!(t.len(), 102);
        assert_eq!(t.get(JobId(5)), Some(3));
        assert_eq!(t.get(JobId(7)), Some(3));
        assert_eq!(t.get(JobId(201)), None);
        // The small table's 3 entries, the 2 ids that left, 2 moved in.
        assert_eq!(t.settle_cost(), 7);
        t.settled().insert(JobId(400), 1);
        assert!(std::ptr::eq(Arc::as_ptr(&t.parts[0].table), big_table));
        assert_eq!((t.len(), t.settle_cost()), (103, 0));
        assert_eq!((t.get(JobId(5)), t.get(JobId(201))), (Some(3), None));
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
            assert_eq!(
                pair[0].assignments().to_vec(),
                pair[1].assignments().to_vec()
            );
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
        assert_eq!(s.assignments().to_vec()[0].start, Time::new(10.0));
    }
}

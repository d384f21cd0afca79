//! Building a daemon's shards, and rebuilding them live: moving a running
//! daemon from one [`ShardPlan`] to another without losing a job.
//!
//! A daemon's shards are described once, by its [`SessionFactory`], and
//! built in one place, `build_shards`: from [`ShardSeed`]s. At boot the
//! daemon makes the seeds itself — a session that has never served plus
//! the shard's state file. At a reshard they come out of a drain barrier
//! and a pure state transfer: every shard is drained (no boundary armed,
//! pending only where offline sites strand jobs), each exports a
//! [`ShardStateExport`] (availability, pending queue, in-flight commits,
//! duplicate-id set, scheduler history snapshot), and [`transfer`]
//! redistributes that state over the new plan deterministically. The
//! router then builds the new shards and atomically swaps the plan —
//! clients pipelined across the swap observe responses in sequence order,
//! nothing else.
//!
//! `transfer` is deliberately a pure function of
//! `(grid, old plan, exports, new plan)`: the resharding-equivalence
//! harness replays it outside the daemon and proves that a daemon
//! resharded mid-stream schedules the post-barrier suffix bit-identically
//! to a daemon booted directly on the new topology from the same
//! transferred state.
//!
//! [`AutoscalePolicy`] drives the same transfer automatically: it watches
//! per-shard queue depth and round latency and, with hysteresis, proposes
//! a split of the hottest shard or a merge of the two cheapest adjacent
//! shards.

use crate::protocol::{Placed, ServeMetrics};
use crate::session::{OnlineSession, SessionState};
use crate::shard::ShardSpec;
use gridsec_core::{Grid, Job, JobId, SiteId, Time};
use gridsec_sim::{BatchJob, BatchScheduler, ShardPlan, SimConfig};
use std::collections::HashMap;
use std::time::Duration;

/// Everything one shard hands over at the reshard barrier, in *global*
/// site ids (the shard runtime translates before exporting).
#[derive(Debug, Clone)]
pub struct ShardStateExport {
    /// The exporting shard's index in the old plan.
    pub shard: usize,
    /// The shard's virtual clock at the barrier.
    pub clock: Time,
    /// Per owned site: `(global id, node free times, offline)`.
    pub sites: Vec<(SiteId, Vec<Time>, bool)>,
    /// Pending jobs (only offline sites strand jobs past a drain), in
    /// submission order.
    pub pending: Vec<BatchJob>,
    /// In-flight commits `(job, global site, end)`, in commit order.
    pub inflight: Vec<(Job, SiteId, Time)>,
    /// Standing commit counts per job, sorted by id.
    pub live: Vec<(JobId, u32)>,
    /// Every accepted job id, sorted.
    pub known: Vec<JobId>,
    /// Tenant attribution for jobs whose queue wait is still
    /// unrecorded, as `(job, tenant)` sorted by id — follows the job so
    /// per-tenant wait histograms stay correct across the transfer.
    pub tenants: Vec<(JobId, String)>,
    /// Scheduler history snapshot (e.g. STGA `SharedHistory::to_json`),
    /// when the shard was built with one.
    pub history_json: Option<String>,
    /// Metrics at the barrier — archived by the router so aggregated
    /// queries stay cumulative across reshards.
    pub metrics: ServeMetrics,
    /// Committed schedule (global site ids) — archived likewise.
    pub schedule: Vec<Placed>,
}

/// The seed for one shard of a plan: its localized session state plus the
/// history snapshots it inherits. [`transfer`] produces one per shard of
/// the new plan; the daemon makes its own at boot
/// ([`SessionState::fresh`] plus the shard's state file).
#[derive(Debug)]
pub struct ShardSeed {
    /// The shard's index in the plan.
    pub shard: usize,
    /// Session state localized to the shard's subgrid (site ids are
    /// shard-local).
    pub state: SessionState,
    /// History snapshots of contributing old shards, in ascending old
    /// shard order (see [`ShardBuildContext::history_sources`]).
    pub history_sources: Vec<String>,
}

/// The result of [`transfer`]: one seed per new shard plus the migration
/// count for the `jobs_migrated` metric.
#[derive(Debug)]
pub struct ReshardTransfer {
    /// Seeds in new-plan shard order.
    pub seeds: Vec<ShardSeed>,
    /// Pending or in-flight jobs whose owning shard changed site set.
    pub jobs_migrated: usize,
}

/// Redistributes drained per-shard state over a new plan.
///
/// Deterministic attribution rules (every rule depends only on the
/// arguments, never on iteration order of a hash map):
///
/// - **Availability / offline** move with the site.
/// - **Clock**: a new shard's clock is the max over old shards it shares
///   a site with — submissions must stay non-decreasing per shard.
/// - **Pending job**: goes to the new shard owning the first site
///   (ascending) of its old shard where the job fits.
/// - **In-flight commit**: goes to the new shard of its commit site, so a
///   later `fail_site` requeues it exactly where the failure lands.
/// - **Live / known ids**: follow the job's commits (first commit's shard
///   for the live count); ids with no surviving commit anchor at the new
///   shard of their old shard's first site. Known ids additionally cover
///   every shard that received one of the job's pending or in-flight
///   entries, so duplicate-id protection survives the transfer.
/// - **History**: a new shard inherits the snapshot of every old shard it
///   shares a site with, in old-shard order.
pub fn transfer(
    grid: &Grid,
    old_plan: &ShardPlan,
    exports: &[ShardStateExport],
    new_plan: &ShardPlan,
) -> Result<ReshardTransfer, String> {
    if exports.len() != old_plan.n_shards() {
        return Err(format!(
            "transfer needs one export per old shard: got {}, plan has {}",
            exports.len(),
            old_plan.n_shards()
        ));
    }
    if old_plan.n_sites() != grid.len() || new_plan.n_sites() != grid.len() {
        return Err("reshard plans must cover the whole grid".into());
    }
    // Site → (free times, offline), checked complete below via the count.
    let mut site_state: HashMap<SiteId, (Vec<Time>, bool)> = HashMap::new();
    for e in exports {
        for (site, free, offline) in &e.sites {
            site_state.insert(*site, (free.clone(), *offline));
        }
    }
    if site_state.len() != grid.len() {
        return Err(format!(
            "exports cover {} sites, grid has {}",
            site_state.len(),
            grid.len()
        ));
    }

    let n_new = new_plan.n_shards();
    let mut clocks = vec![Time::ZERO; n_new];
    let mut pending: Vec<Vec<BatchJob>> = vec![Vec::new(); n_new];
    let mut inflight: Vec<Vec<(Job, SiteId, Time)>> = vec![Vec::new(); n_new];
    let mut live: Vec<HashMap<JobId, u32>> = vec![HashMap::new(); n_new];
    let mut known: Vec<Vec<JobId>> = vec![Vec::new(); n_new];
    let mut tenants: Vec<Vec<(JobId, String)>> = vec![Vec::new(); n_new];
    let mut histories: Vec<Vec<String>> = vec![Vec::new(); n_new];
    let mut jobs_migrated = 0usize;

    let dest_of = |site: SiteId| -> usize {
        new_plan
            .shard_of(site)
            .expect("new plan covers the whole grid")
    };

    for (old, e) in exports.iter().enumerate() {
        let old_sites = old_plan.sites_of(old);
        // The fallback destination for state with no better anchor.
        let anchor = dest_of(old_sites[0]);
        let contributes: Vec<usize> = {
            let mut v: Vec<usize> = old_sites.iter().map(|&s| dest_of(s)).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        for &k in &contributes {
            clocks[k] = clocks[k].max(e.clock);
            if let Some(h) = &e.history_json {
                histories[k].push(h.clone());
            }
        }
        let migrates = |k: usize| new_plan.sites_of(k) != old_sites;

        // Job id → the new shards that now hold one of its entries.
        let mut placed_in: HashMap<JobId, Vec<usize>> = HashMap::new();
        for bj in &e.pending {
            let site = old_sites
                .iter()
                .copied()
                .find(|&s| grid.site(s).fits_width(bj.job.width))
                .unwrap_or(old_sites[0]);
            let k = dest_of(site);
            if migrates(k) {
                jobs_migrated += 1;
            }
            placed_in.entry(bj.job.id).or_default().push(k);
            pending[k].push(bj.clone());
        }
        // First-commit shard per job, for live-count attribution.
        let mut first_commit: HashMap<JobId, usize> = HashMap::new();
        for (job, site, end) in &e.inflight {
            let k = dest_of(*site);
            if migrates(k) {
                jobs_migrated += 1;
            }
            first_commit.entry(job.id).or_insert(k);
            placed_in.entry(job.id).or_default().push(k);
            inflight[k].push((job.clone(), *site, *end));
        }
        for (id, n) in &e.live {
            let k = *first_commit.get(id).unwrap_or(&anchor);
            *live[k].entry(*id).or_insert(0) += n;
        }
        for id in &e.known {
            match placed_in.get(id) {
                Some(ks) => {
                    let mut ks = ks.clone();
                    ks.sort_unstable();
                    ks.dedup();
                    for k in ks {
                        known[k].push(*id);
                    }
                }
                None => known[first_commit.get(id).copied().unwrap_or(anchor)].push(*id),
            }
        }
        // Tenant attribution follows the job's first placed entry (its
        // pending slot; unplaced ids anchor like unanchored live ids).
        for (id, name) in &e.tenants {
            let k = placed_in.get(id).map_or(anchor, |ks| ks[0]);
            tenants[k].push((*id, name.clone()));
        }
    }

    let mut seeds = Vec::with_capacity(n_new);
    for k in 0..n_new {
        let sites = new_plan.sites_of(k);
        let local_sites: Vec<(Vec<Time>, bool)> =
            sites.iter().map(|s| site_state[s].clone()).collect();
        let to_local = |s: SiteId| -> SiteId {
            let (_, local) = new_plan.to_local(s).expect("site owned by shard");
            local
        };
        let mut lv: Vec<(JobId, u32)> = live[k].iter().map(|(id, n)| (*id, *n)).collect();
        lv.sort_unstable_by_key(|(id, _)| id.0);
        let mut kn = std::mem::take(&mut known[k]);
        kn.sort_unstable_by_key(|id| id.0);
        kn.dedup();
        let mut tn = std::mem::take(&mut tenants[k]);
        tn.sort_unstable_by_key(|(id, _)| id.0);
        seeds.push(ShardSeed {
            shard: k,
            state: SessionState {
                clock: clocks[k],
                sites: local_sites,
                pending: std::mem::take(&mut pending[k]),
                inflight: std::mem::take(&mut inflight[k])
                    .into_iter()
                    .map(|(job, site, end)| (job, to_local(site), end))
                    .collect(),
                live: lv,
                known: kn,
                tenants: tn,
            },
            history_sources: std::mem::take(&mut histories[k]),
        });
    }
    Ok(ReshardTransfer {
        seeds,
        jobs_migrated,
    })
}

/// Everything a [`SessionFactory`] needs to build one shard of a plan.
pub struct ShardBuildContext {
    /// The shard's index in the plan.
    pub shard: usize,
    /// The shard's re-indexed subgrid (dense local site ids).
    pub subgrid: Grid,
    /// The localized session state to restore from:
    /// [`SessionState::fresh`] at boot, what [`transfer`] produced at a
    /// reshard.
    pub seed: SessionState,
    /// History snapshots the shard inherits — at boot its state file, if
    /// there is one; at a reshard those of the old shards it takes sites
    /// from (ascending old-shard order). A history-backed scheduler
    /// starts from them; none means a fresh table.
    pub history_sources: Vec<String>,
}

/// The one description of a daemon's shards: called once per shard when
/// the daemon boots and again for every shard of every plan it is
/// resharded to. Constructs the scheduler (from `history_sources` when it
/// keeps history) and an
/// [`OnlineSession::restore`](crate::OnlineSession::restore)d session
/// over exactly `subgrid`, and returns the [`ShardSpec`].
pub type SessionFactory = Box<dyn FnMut(ShardBuildContext) -> Result<ShardSpec, String> + Send>;

/// The [`SessionFactory`] of a scheduler that carries nothing from one
/// topology to the next: `make` builds shard `ctx.shard`'s scheduler, the
/// session is restored from the seed, `history_sources` is ignored.
pub fn stateless_factory(
    config: SimConfig,
    mut make: impl FnMut(&ShardBuildContext) -> Result<Box<dyn BatchScheduler + Send>, String>
        + Send
        + 'static,
) -> SessionFactory {
    Box::new(move |ctx| {
        let scheduler = make(&ctx)?;
        OnlineSession::restore(ctx.subgrid, scheduler, &config, ctx.seed)
            .map(ShardSpec::new)
            .map_err(|e| e.to_string())
    })
}

/// Builds the shards of `plan` from their seeds — the one place the
/// factory is called and its result checked, reached from
/// [`Daemon::spawn`](crate::Daemon::spawn) (fresh seeds) and from every
/// reshard (transferred seeds). Fails with `(k, message)` on the first
/// shard `k` the factory cannot build or builds over anything but
/// `plan.subgrid(grid, k)`.
pub(crate) fn build_shards(
    grid: &Grid,
    plan: &ShardPlan,
    seeds: Vec<ShardSeed>,
    factory: &mut SessionFactory,
) -> Result<Vec<ShardSpec>, (usize, String)> {
    let mut specs = Vec::with_capacity(seeds.len());
    for seed in seeds {
        let k = seed.shard;
        let subgrid = plan.subgrid(grid, k).map_err(|e| (k, e.to_string()))?;
        let spec = factory(ShardBuildContext {
            shard: k,
            subgrid: subgrid.clone(),
            seed: seed.state,
            history_sources: seed.history_sources,
        })
        .map_err(|message| {
            (
                k,
                format!("session factory failed for shard {k}: {message}"),
            )
        })?;
        if *spec.session.grid() != subgrid {
            let message = format!("session factory built shard {k} over the wrong subgrid");
            return Err((k, message));
        }
        specs.push(spec);
    }
    Ok(specs)
}

/// Thresholds and pacing for the autoscaler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Never merge below this many shards.
    pub min_shards: usize,
    /// Never split above this many shards.
    pub max_shards: usize,
    /// A shard with at least this many pending jobs is hot.
    pub split_pending: usize,
    /// A shard averaging at least this many microseconds per scheduling
    /// round is hot.
    pub split_round_micros: u64,
    /// The whole daemon is cold when total pending is at or below this.
    pub merge_pending: usize,
    /// Consecutive hot (cold) observations required before a split
    /// (merge) fires — the hysteresis that stops flapping.
    pub patience: usize,
    /// How often the autoscaler thread samples the shards.
    pub interval: Duration,
}

impl Default for AutoscaleConfig {
    fn default() -> AutoscaleConfig {
        AutoscaleConfig {
            min_shards: 1,
            max_shards: 8,
            split_pending: 64,
            split_round_micros: 50_000,
            merge_pending: 0,
            patience: 3,
            interval: Duration::from_millis(500),
        }
    }
}

/// One shard's load sample, fed to [`AutoscalePolicy::observe`].
#[derive(Debug, Clone)]
pub struct ShardObservation {
    /// The shard's global sites (ascending).
    pub sites: Vec<SiteId>,
    /// Current queue depth.
    pub pending: usize,
    /// Scheduling-round latency in microseconds over the sampling
    /// window (the router feeds the p95 of the round-latency histogram
    /// delta since its previous tick; 0 when no rounds ran).
    pub round_micros: u64,
}

/// The split/merge decision state machine. Pure: consumes observations,
/// proposes partitions; the router performs the actual reshard.
#[derive(Debug)]
pub struct AutoscalePolicy {
    config: AutoscaleConfig,
    hot_streak: usize,
    cold_streak: usize,
}

impl AutoscalePolicy {
    /// A fresh policy with empty streaks.
    pub fn new(config: AutoscaleConfig) -> AutoscalePolicy {
        AutoscalePolicy {
            config,
            hot_streak: 0,
            cold_streak: 0,
        }
    }

    /// The thresholds this policy runs with.
    pub fn config(&self) -> &AutoscaleConfig {
        &self.config
    }

    /// Feeds one load sample per shard; returns the proposed new
    /// partition when a streak of `patience` consecutive breaches
    /// completes, `None` otherwise.
    ///
    /// Split beats merge: the hottest shard (most pending, ties to the
    /// lowest index) with at least two sites is halved in place. A merge
    /// joins the adjacent pair with the fewest combined sites (ties to
    /// the lowest index). Streaks reset on any action and whenever the
    /// matching condition stops holding.
    pub fn observe(&mut self, shards: &[ShardObservation]) -> Option<Vec<Vec<SiteId>>> {
        let c = self.config;
        let n = shards.len();
        if n == 0 {
            return None;
        }
        let hottest = (0..n).max_by_key(|&i| (shards[i].pending, std::cmp::Reverse(i)))?;
        let hot = n < c.max_shards
            && shards[hottest].sites.len() >= 2
            && (shards[hottest].pending >= c.split_pending
                || shards[hottest].round_micros >= c.split_round_micros);
        let total_pending: usize = shards.iter().map(|s| s.pending).sum();
        let cold = n > c.min_shards && total_pending <= c.merge_pending;

        if hot {
            self.cold_streak = 0;
            self.hot_streak += 1;
            if self.hot_streak >= c.patience {
                self.hot_streak = 0;
                let mut plan: Vec<Vec<SiteId>> = shards.iter().map(|s| s.sites.clone()).collect();
                let sites = plan[hottest].clone();
                let mid = sites.len().div_ceil(2);
                plan[hottest] = sites[..mid].to_vec();
                plan.insert(hottest + 1, sites[mid..].to_vec());
                return Some(plan);
            }
        } else if cold {
            self.hot_streak = 0;
            self.cold_streak += 1;
            if self.cold_streak >= c.patience {
                self.cold_streak = 0;
                let pair = (0..n - 1)
                    .min_by_key(|&k| (shards[k].sites.len() + shards[k + 1].sites.len(), k))
                    .expect("n > min_shards >= 1 implies at least one pair");
                let mut plan: Vec<Vec<SiteId>> = shards.iter().map(|s| s.sites.clone()).collect();
                let tail = plan.remove(pair + 1);
                plan[pair].extend(tail);
                return Some(plan);
            }
        } else {
            self.hot_streak = 0;
            self.cold_streak = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_core::Site;

    fn grid() -> Grid {
        let nodes = [2u32, 4, 2, 4];
        Grid::new(
            nodes
                .iter()
                .enumerate()
                .map(|(k, &n)| {
                    Site::builder(k)
                        .nodes(n)
                        .speed(1.0)
                        .security_level(0.9)
                        .build()
                        .unwrap()
                })
                .collect(),
        )
        .unwrap()
    }

    fn job(id: u64, width: u32) -> Job {
        Job::builder(id)
            .arrival(Time::new(1.0))
            .work(10.0)
            .width(width)
            .security_demand(0.3)
            .build()
            .unwrap()
    }

    fn export_for(plan: &ShardPlan, shard: usize, g: &Grid, clock: f64) -> ShardStateExport {
        ShardStateExport {
            shard,
            clock: Time::new(clock),
            sites: plan
                .sites_of(shard)
                .iter()
                .map(|&s| (s, vec![Time::ZERO; g.site(s).nodes as usize], false))
                .collect(),
            pending: Vec::new(),
            inflight: Vec::new(),
            live: Vec::new(),
            known: Vec::new(),
            tenants: Vec::new(),
            history_json: None,
            metrics: ServeMetrics::merge(&[]),
            schedule: Vec::new(),
        }
    }

    #[test]
    fn transfer_moves_state_by_site_and_merges_clocks() {
        let g = grid();
        let old = ShardPlan::contiguous(&g, 2).unwrap(); // [0,1] [2,3]
        let new = ShardPlan::contiguous(&g, 1).unwrap();
        let mut e0 = export_for(&old, 0, &g, 5.0);
        let mut e1 = export_for(&old, 1, &g, 9.0);
        e0.sites[1].1 = vec![Time::new(3.0); 4];
        e0.history_json = Some("h0".into());
        e1.history_json = Some("h1".into());
        e0.pending.push(BatchJob {
            job: job(7, 1),
            secure_only: false,
        });
        e0.live.push((JobId(7), 0));
        e0.known = vec![JobId(7)];
        e1.inflight.push((job(8, 2), SiteId(3), Time::new(12.0)));
        e1.live.push((JobId(8), 1));
        e1.known = vec![JobId(8)];

        let t = transfer(&g, &old, &[e0, e1], &new).unwrap();
        assert_eq!(t.seeds.len(), 1);
        let s = &t.seeds[0].state;
        // Merged clock is the max of the contributing shards.
        assert_eq!(s.clock, Time::new(9.0));
        // Availability moved with the site.
        assert_eq!(s.sites[1].0, vec![Time::new(3.0); 4]);
        assert_eq!(s.pending.len(), 1);
        assert_eq!(s.inflight.len(), 1);
        // Inflight site id localized (identity here: 1 shard over 4 sites).
        assert_eq!(s.inflight[0].1, SiteId(3));
        assert_eq!(s.live, vec![(JobId(7), 0), (JobId(8), 1)]);
        assert_eq!(s.known, vec![JobId(7), JobId(8)]);
        // Both jobs changed shard site set → both migrated.
        assert_eq!(t.jobs_migrated, 2);
        // Merged shard inherits both histories in old-shard order.
        assert_eq!(t.seeds[0].history_sources, vec!["h0", "h1"]);
    }

    #[test]
    fn transfer_split_routes_inflight_to_commit_site_shard() {
        let g = grid();
        let old = ShardPlan::contiguous(&g, 1).unwrap();
        let new = ShardPlan::contiguous(&g, 2).unwrap(); // [0,1] [2,3]
        let mut e = export_for(&old, 0, &g, 4.0);
        e.history_json = Some("h".into());
        e.inflight.push((job(1, 1), SiteId(2), Time::new(6.0)));
        e.live.push((JobId(1), 1));
        // A live id with no surviving commit anchors at the first site's
        // shard.
        e.live.push((JobId(2), 0));
        e.known = vec![JobId(1), JobId(2)];

        let t = transfer(&g, &old, &[e], &new).unwrap();
        let (s0, s1) = (&t.seeds[0].state, &t.seeds[1].state);
        assert!(s0.inflight.is_empty());
        assert_eq!(s1.inflight.len(), 1);
        // SiteId(2) is local 0 in shard 1.
        assert_eq!(s1.inflight[0].1, SiteId(0));
        assert_eq!(s1.live, vec![(JobId(1), 1)]);
        assert_eq!(s0.live, vec![(JobId(2), 0)]);
        assert_eq!(s0.known, vec![JobId(2)]);
        assert_eq!(s1.known, vec![JobId(1)]);
        // Split: both new shards inherit the single source history.
        assert_eq!(t.seeds[0].history_sources, vec!["h"]);
        assert_eq!(t.seeds[1].history_sources, vec!["h"]);
        assert_eq!(t.jobs_migrated, 1);
        // Identical site set on neither side → clock still carried.
        assert_eq!(s0.clock, Time::new(4.0));
        assert_eq!(s1.clock, Time::new(4.0));
    }

    #[test]
    fn transfer_same_plan_migrates_nothing() {
        let g = grid();
        let plan = ShardPlan::contiguous(&g, 2).unwrap();
        let mut e0 = export_for(&plan, 0, &g, 2.0);
        e0.pending.push(BatchJob {
            job: job(3, 1),
            secure_only: false,
        });
        e0.known = vec![JobId(3)];
        let e1 = export_for(&plan, 1, &g, 2.0);
        let t = transfer(&g, &plan, &[e0, e1], &plan).unwrap();
        assert_eq!(t.jobs_migrated, 0);
        assert_eq!(t.seeds[0].state.pending.len(), 1);
    }

    #[test]
    fn transfer_rejects_mismatched_exports() {
        let g = grid();
        let old = ShardPlan::contiguous(&g, 2).unwrap();
        let new = ShardPlan::contiguous(&g, 1).unwrap();
        let e0 = export_for(&old, 0, &g, 1.0);
        let err = transfer(&g, &old, &[e0], &new).unwrap_err();
        assert!(err.contains("one export per old shard"), "{err}");
    }

    fn obs(sites: &[usize], pending: usize) -> ShardObservation {
        ShardObservation {
            sites: sites.iter().map(|&s| SiteId(s)).collect(),
            pending,
            round_micros: 0,
        }
    }

    #[test]
    fn autoscaler_splits_hottest_shard_after_patience() {
        let mut p = AutoscalePolicy::new(AutoscaleConfig {
            split_pending: 10,
            patience: 2,
            ..AutoscaleConfig::default()
        });
        let load = [obs(&[0, 1], 3), obs(&[2, 3], 50)];
        assert!(p.observe(&load).is_none(), "first breach must not act");
        let plan = p.observe(&load).expect("second breach acts");
        assert_eq!(
            plan,
            vec![vec![SiteId(0), SiteId(1)], vec![SiteId(2)], vec![SiteId(3)]]
        );
        // Streak reset: the next breach starts a fresh count.
        assert!(p.observe(&load).is_none());
    }

    #[test]
    fn autoscaler_merges_cheapest_adjacent_pair_when_cold() {
        let mut p = AutoscalePolicy::new(AutoscaleConfig {
            merge_pending: 0,
            patience: 1,
            ..AutoscaleConfig::default()
        });
        let load = [obs(&[0], 0), obs(&[1], 0), obs(&[2, 3], 0)];
        let plan = p.observe(&load).expect("cold with patience 1 acts");
        // Pair (0,1) has 2 combined sites vs (1,2)'s 3.
        assert_eq!(
            plan,
            vec![vec![SiteId(0), SiteId(1)], vec![SiteId(2), SiteId(3)]]
        );
    }

    #[test]
    fn autoscaler_hysteresis_ignores_flapping_load() {
        let mut p = AutoscalePolicy::new(AutoscaleConfig {
            split_pending: 10,
            merge_pending: 0,
            patience: 2,
            ..AutoscaleConfig::default()
        });
        let hot = [obs(&[0, 1], 99), obs(&[2, 3], 0)];
        let cold = [obs(&[0, 1], 0), obs(&[2, 3], 0)];
        // Alternating hot/cold never sustains a streak → never acts.
        for _ in 0..8 {
            assert!(p.observe(&hot).is_none());
            assert!(p.observe(&cold).is_none());
        }
    }

    #[test]
    fn autoscaler_respects_shard_bounds() {
        let mut p = AutoscalePolicy::new(AutoscaleConfig {
            split_pending: 1,
            max_shards: 2,
            min_shards: 2,
            merge_pending: 100,
            patience: 1,
            ..AutoscaleConfig::default()
        });
        // Two shards at max: the hot shard cannot split...
        assert!(p.observe(&[obs(&[0, 1], 50), obs(&[2, 3], 0)]).is_none());
        // ...and a single-site shard never splits even below max.
        let mut q = AutoscalePolicy::new(AutoscaleConfig {
            split_pending: 1,
            patience: 1,
            ..AutoscaleConfig::default()
        });
        assert!(q
            .observe(&[obs(&[0], 50), obs(&[1], 0), obs(&[2, 3], 0)])
            .is_none());
    }
}

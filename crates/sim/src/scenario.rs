//! The chaos scenario engine: spec-driven, seeded fault injection.
//!
//! A [`Scenario`] is a declarative event program — arrival phases
//! (Poisson, heavy-tailed Pareto, diurnal), site failures/rejoins
//! (explicit outages and seeded fault storms), and trust re-ratings
//! (explicit re-rates and jittered storms). [`Scenario::compile`] samples
//! it into an [`InjectionStream`]: a deterministic, totally ordered list
//! of timestamped injections that can be replayed
//!
//! * through the engine, via [`ScenarioRunner`] (a [`RoundDriver`] plus
//!   the shared [`BoundaryClock`]), and
//! * through the `gridsec-serve` daemon, where the same injections travel
//!   as NDJSON frames (`submit`, `fail_site`, `rejoin_site`,
//!   `reconfigure`).
//!
//! Same spec + same seed ⇒ the same stream, bit for bit, at every thread
//! count — and because both front ends drive the identical round/boundary
//! state machine, the committed timelines agree bit for bit too (the
//! chaos equivalence suite in `crates/serve` pins engine ≡ daemon under
//! churn).
//!
//! Graceful degradation is part of the contract: jobs stranded on a site
//! that fails mid-execution are requeued (never lost), jobs fitting no
//! online site stay pending until a wide-enough site rejoins, and
//! [`ScenarioOutcome::fully_accounted`] checks the books — every
//! generated job is scheduled, still pending, or typed-rejected.

use crate::config::SimConfig;
use crate::round::{BoundaryClock, CommittedAssignment, RoundDriver};
use crate::scheduler::{BatchJob, BatchScheduler};
use crate::shard::ShardPlan;
use gridsec_core::rng::{stream, Stream};
use gridsec_core::{Error, Grid, Job, JobId, Result, Site, SiteId, Time};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// How one arrival phase spaces its jobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals at `rate` jobs/second.
    Poisson {
        /// Mean arrival rate (jobs/s), > 0.
        rate: f64,
    },
    /// Heavy-tailed Pareto inter-arrival gaps with mean `1 / rate`.
    /// Small `alpha` (close to 1) means wilder bursts; `alpha` must
    /// exceed 1 for the mean to exist.
    Pareto {
        /// Mean arrival rate (jobs/s), > 0.
        rate: f64,
        /// Tail index, > 1.
        alpha: f64,
    },
    /// Diurnal (cosine-modulated) Poisson via thinning: the rate swings
    /// between `base_rate` and `peak_rate` over each `period` seconds.
    Diurnal {
        /// Trough arrival rate (jobs/s), ≥ 0.
        base_rate: f64,
        /// Peak arrival rate (jobs/s), ≥ `base_rate`, > 0.
        peak_rate: f64,
        /// Length of one day in scenario seconds, > 0.
        period: f64,
    },
}

fn one() -> u32 {
    1
}
fn default_sd_min() -> f64 {
    0.6
}
fn default_sd_max() -> f64 {
    0.9
}

/// One tenant's arrival phase: a window, an arrival process, and the
/// job-shape distributions. An adversarial tenant is simply a phase with
/// a hostile rate (and a width range that lands on one shard).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArrivalPhase {
    /// Display label for the tenant driving this phase.
    #[serde(default)]
    pub tenant: String,
    /// Window start (seconds).
    pub start: f64,
    /// Window end (seconds), ≥ `start`.
    pub end: f64,
    /// The inter-arrival process.
    pub process: ArrivalProcess,
    /// Minimum job width (nodes), ≥ 1.
    #[serde(default = "one")]
    pub width_min: u32,
    /// Maximum job width (nodes), ≥ `width_min`.
    #[serde(default = "one")]
    pub width_max: u32,
    /// Minimum work (reference seconds), > 0.
    pub work_min: f64,
    /// Maximum work (reference seconds), ≥ `work_min`.
    pub work_max: f64,
    /// Minimum security demand (paper default 0.6).
    #[serde(default = "default_sd_min")]
    pub sd_min: f64,
    /// Maximum security demand (paper default 0.9).
    #[serde(default = "default_sd_max")]
    pub sd_max: f64,
}

/// A site-churn element.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum FaultSpec {
    /// One explicit outage: `site` fails at `at` and rejoins at `until`
    /// (omit `until` for a permanent loss).
    SiteDown {
        /// Grid site index.
        site: usize,
        /// Failure instant (seconds).
        at: f64,
        /// Rejoin instant (seconds), > `at`; `null`/absent = never.
        #[serde(default)]
        until: Option<f64>,
    },
    /// A seeded storm: failures arrive Poisson at `rate` within the
    /// window, each picking a random eligible site and holding it down
    /// for an exponential repair time with mean `mttr` seconds. Storms
    /// never take the last online site down.
    FaultStorm {
        /// Window start (seconds).
        start: f64,
        /// Window end (seconds), ≥ `start`.
        end: f64,
        /// Failure rate (failures/s), > 0.
        rate: f64,
        /// Mean time to repair (seconds), > 0.
        mttr: f64,
        /// Candidate sites (defaults to the whole grid).
        #[serde(default)]
        sites: Option<Vec<usize>>,
    },
}

/// A trust-dynamics element.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum TrustSpec {
    /// One explicit re-rating: the full per-site security-level vector
    /// applied at `at`.
    ReRate {
        /// Instant (seconds).
        at: f64,
        /// New per-site security levels, one per grid site, each in [0, 1].
        levels: Vec<f64>,
    },
    /// A re-rating storm: at Poisson instants within the window, every
    /// site's level takes a uniform step in `[-jitter, +jitter]`
    /// (clamped to [0, 1]) from its current value — a seeded random walk
    /// over the trust state.
    TrustStorm {
        /// Window start (seconds).
        start: f64,
        /// Window end (seconds), ≥ `start`.
        end: f64,
        /// Re-rating rate (events/s), > 0.
        rate: f64,
        /// Maximum per-event step, in (0, 1].
        jitter: f64,
    },
}

/// A declarative chaos scenario. Compile it against a grid with
/// [`Scenario::compile`] to obtain the deterministic injection stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// Master seed: every sampled quantity derives from it through
    /// dedicated named streams, so the compiled stream is a pure function
    /// of (spec, grid).
    pub seed: u64,
    /// Arrival phases (tenants). May be empty for pure-churn scenarios.
    #[serde(default)]
    pub arrivals: Vec<ArrivalPhase>,
    /// Site-churn program.
    #[serde(default)]
    pub faults: Vec<FaultSpec>,
    /// Trust-dynamics program.
    #[serde(default)]
    pub trust: Vec<TrustSpec>,
    /// Optional cap on generated jobs (keeps hostile rates bounded in
    /// smoke runs); the earliest arrivals win.
    #[serde(default)]
    pub max_jobs: Option<usize>,
}

/// One timestamped injection.
#[derive(Debug, Clone, PartialEq)]
pub struct Injection {
    /// When the injection applies (virtual seconds).
    pub at: Time,
    /// What happens.
    pub kind: InjectionKind,
}

/// The injection alphabet shared by the engine and the daemon.
#[derive(Debug, Clone, PartialEq)]
pub enum InjectionKind {
    /// A job arrives (its `arrival` equals the injection instant).
    Arrive(Job),
    /// A site fails; in-flight work on it is stranded and requeued.
    SiteFail(SiteId),
    /// A failed site rejoins with all nodes free.
    SiteRejoin(SiteId),
    /// The full per-site security-level vector is re-rated.
    SetTrust(Vec<f64>),
}

impl InjectionKind {
    /// Tie-break rank at equal timestamps: trust before rejoin before
    /// fail before arrival — a fixed, documented order both replay paths
    /// share.
    fn rank(&self) -> u8 {
        match self {
            InjectionKind::SetTrust(_) => 0,
            InjectionKind::SiteRejoin(_) => 1,
            InjectionKind::SiteFail(_) => 2,
            InjectionKind::Arrive(_) => 3,
        }
    }
}

/// A compiled scenario: injections in replay order (non-decreasing time;
/// ties broken by kind — trust before rejoin before fail before arrival —
/// then compile order).
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionStream {
    /// The ordered injections.
    pub events: Vec<Injection>,
}

impl InjectionStream {
    /// Number of injections.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of job arrivals in the stream.
    pub fn n_jobs(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, InjectionKind::Arrive(_)))
            .count()
    }

    /// The shard-local view of this stream under `plan`: arrivals are
    /// assigned round-robin over their eligible shards by job id (the
    /// same rule the load generator uses for explicit routing), site
    /// events are translated to shard-local site ids (foreign-shard
    /// events dropped), and trust vectors are sliced to the shard's
    /// sites. Jobs fitting no site anywhere are dropped — the daemon
    /// rejects them before any shard sees them.
    pub fn slice_for_shard(&self, plan: &ShardPlan, grid: &Grid, shard: usize) -> InjectionStream {
        let mut events = Vec::new();
        for inj in &self.events {
            let kind = match &inj.kind {
                InjectionKind::Arrive(job) => {
                    let eligible = plan.eligible_shards(grid, job);
                    if eligible.is_empty() {
                        continue;
                    }
                    if eligible[job.id.0 as usize % eligible.len()] != shard {
                        continue;
                    }
                    InjectionKind::Arrive(job.clone())
                }
                InjectionKind::SiteFail(site) => match plan.to_local(*site) {
                    Some((k, local)) if k == shard => InjectionKind::SiteFail(local),
                    _ => continue,
                },
                InjectionKind::SiteRejoin(site) => match plan.to_local(*site) {
                    Some((k, local)) if k == shard => InjectionKind::SiteRejoin(local),
                    _ => continue,
                },
                InjectionKind::SetTrust(levels) => InjectionKind::SetTrust(
                    plan.sites_of(shard).iter().map(|s| levels[s.0]).collect(),
                ),
            };
            events.push(Injection { at: inj.at, kind });
        }
        InjectionStream { events }
    }
}

fn exp_gap<R: Rng + ?Sized>(rate: f64, rng: &mut R) -> f64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / rate
}

fn uniform_f64<R: Rng + ?Sized>(lo: f64, hi: f64, rng: &mut R) -> f64 {
    if hi > lo {
        rng.gen_range(lo..=hi)
    } else {
        lo
    }
}

fn uniform_u32<R: Rng + ?Sized>(lo: u32, hi: u32, rng: &mut R) -> u32 {
    if hi > lo {
        rng.gen_range(lo..=hi)
    } else {
        lo
    }
}

impl ArrivalPhase {
    fn validate(&self, index: usize) -> Result<()> {
        let bad = |m: String| Err(Error::invalid("scenario.arrivals", m));
        if !(self.start.is_finite() && self.end.is_finite() && self.start >= 0.0) {
            return bad(format!(
                "phase {index}: window must be finite and non-negative"
            ));
        }
        if self.end < self.start {
            return bad(format!("phase {index}: end < start"));
        }
        if self.width_min < 1 || self.width_max < self.width_min {
            return bad(format!("phase {index}: bad width range"));
        }
        if !(self.work_min > 0.0 && self.work_max >= self.work_min) {
            return bad(format!("phase {index}: bad work range"));
        }
        if !(0.0..=1.0).contains(&self.sd_min)
            || !(0.0..=1.0).contains(&self.sd_max)
            || self.sd_max < self.sd_min
        {
            return bad(format!("phase {index}: bad security-demand range"));
        }
        match self.process {
            ArrivalProcess::Poisson { rate } => {
                if !(rate.is_finite() && rate > 0.0) {
                    return bad(format!("phase {index}: rate must be positive"));
                }
            }
            ArrivalProcess::Pareto { rate, alpha } => {
                if !(rate.is_finite() && rate > 0.0) {
                    return bad(format!("phase {index}: rate must be positive"));
                }
                if !(alpha.is_finite() && alpha > 1.0) {
                    return bad(format!("phase {index}: pareto alpha must exceed 1"));
                }
            }
            ArrivalProcess::Diurnal {
                base_rate,
                peak_rate,
                period,
            } => {
                if !(base_rate >= 0.0 && peak_rate >= base_rate && peak_rate > 0.0) {
                    return bad(format!("phase {index}: need 0 <= base_rate <= peak_rate"));
                }
                if !(period.is_finite() && period > 0.0) {
                    return bad(format!("phase {index}: period must be positive"));
                }
            }
        }
        Ok(())
    }

    /// Samples the next gap after `t` (relative to the window start).
    fn next_after<R: Rng + ?Sized>(&self, t: f64, rng: &mut R) -> f64 {
        match self.process {
            ArrivalProcess::Poisson { rate } => t + exp_gap(rate, rng),
            ArrivalProcess::Pareto { rate, alpha } => {
                // Scale so the mean gap is 1/rate: E[X] = alpha·xm/(alpha-1).
                let xm = (alpha - 1.0) / (alpha * rate);
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                t + xm * u.powf(-1.0 / alpha)
            }
            ArrivalProcess::Diurnal {
                base_rate,
                peak_rate,
                period,
            } => {
                // Lewis–Shedler thinning against the peak rate.
                let mut t = t;
                loop {
                    t += exp_gap(peak_rate, rng);
                    let phase = 2.0 * std::f64::consts::PI * t / period;
                    let local = base_rate + (peak_rate - base_rate) * 0.5 * (1.0 - phase.cos());
                    let accept: f64 = rng.gen();
                    if accept <= local / peak_rate {
                        return t;
                    }
                }
            }
        }
    }
}

impl Scenario {
    /// Parses a scenario from JSON text.
    pub fn from_json(text: &str) -> Result<Scenario> {
        serde_json::from_str(text)
            .map_err(|e| Error::invalid("scenario", format!("invalid JSON scenario: {e}")))
    }

    /// Serialises the scenario as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario serialises")
    }

    /// Compiles the scenario against `grid` into its deterministic
    /// injection stream. Compilation validates every element, samples
    /// all randomness up front from named sub-streams of `seed`, drops
    /// fault events that would double-fail a site or take the last
    /// online site down, and assigns job ids in arrival order.
    pub fn compile(&self, grid: &Grid) -> Result<InjectionStream> {
        let n_sites = grid.len();
        // --- arrivals ---
        struct Raw {
            at: f64,
            phase: usize,
            seq: usize,
            width: u32,
            work: f64,
            sd: f64,
        }
        let mut raw: Vec<Raw> = Vec::new();
        for (pi, phase) in self.arrivals.iter().enumerate() {
            phase.validate(pi)?;
            let mut rng = stream(self.seed, Stream::Custom(0xC4A0_0000 + pi as u64));
            let mut t = phase.start;
            let mut seq = 0usize;
            loop {
                t = phase.next_after(t, &mut rng);
                if t > phase.end {
                    break;
                }
                let width = uniform_u32(phase.width_min, phase.width_max, &mut rng);
                let work = uniform_f64(phase.work_min, phase.work_max, &mut rng);
                let sd = uniform_f64(phase.sd_min, phase.sd_max, &mut rng);
                raw.push(Raw {
                    at: t,
                    phase: pi,
                    seq,
                    width,
                    work,
                    sd,
                });
                seq += 1;
                if let Some(cap) = self.max_jobs {
                    // Per-phase guard against hostile rates; the global
                    // cap is applied after the merge below.
                    if seq >= cap {
                        break;
                    }
                }
            }
        }
        raw.sort_by(|a, b| {
            a.at.total_cmp(&b.at)
                .then(a.phase.cmp(&b.phase))
                .then(a.seq.cmp(&b.seq))
        });
        if let Some(cap) = self.max_jobs {
            raw.truncate(cap);
        }
        let mut events: Vec<(Time, u8, usize, InjectionKind)> = Vec::new();
        let mut seq = 0usize;
        for (id, r) in raw.iter().enumerate() {
            let job = Job::builder(id as u64)
                .arrival(Time::new(r.at))
                .width(r.width)
                .work(r.work)
                .security_demand(r.sd)
                .build()?;
            let kind = InjectionKind::Arrive(job);
            events.push((Time::new(r.at), kind.rank(), seq, kind));
            seq += 1;
        }
        // --- faults: sample intervals, then sweep-sanitize ---
        struct Outage {
            site: usize,
            at: f64,
            until: Option<f64>,
        }
        let mut outages: Vec<Outage> = Vec::new();
        for (fi, fault) in self.faults.iter().enumerate() {
            match fault {
                FaultSpec::SiteDown { site, at, until } => {
                    if *site >= n_sites {
                        return Err(Error::UnknownSite(*site));
                    }
                    if !(at.is_finite() && *at >= 0.0) {
                        return Err(Error::invalid("scenario.faults", "bad outage instant"));
                    }
                    if let Some(u) = until {
                        if !(u.is_finite() && u > at) {
                            return Err(Error::invalid(
                                "scenario.faults",
                                "outage must end after it starts",
                            ));
                        }
                    }
                    outages.push(Outage {
                        site: *site,
                        at: *at,
                        until: *until,
                    });
                }
                FaultSpec::FaultStorm {
                    start,
                    end,
                    rate,
                    mttr,
                    sites,
                } => {
                    if !(start.is_finite() && end.is_finite() && *start >= 0.0 && end >= start) {
                        return Err(Error::invalid("scenario.faults", "bad storm window"));
                    }
                    if !(*rate > 0.0 && *mttr > 0.0) {
                        return Err(Error::invalid(
                            "scenario.faults",
                            "storm rate and mttr must be positive",
                        ));
                    }
                    let candidates: Vec<usize> = match sites {
                        Some(list) => {
                            for &s in list {
                                if s >= n_sites {
                                    return Err(Error::UnknownSite(s));
                                }
                            }
                            list.clone()
                        }
                        None => (0..n_sites).collect(),
                    };
                    if candidates.is_empty() {
                        return Err(Error::invalid("scenario.faults", "storm has no sites"));
                    }
                    let mut rng = stream(self.seed, Stream::Custom(0xC4A0_1000 + fi as u64));
                    let mut t = *start;
                    loop {
                        t += exp_gap(*rate, &mut rng);
                        if t > *end {
                            break;
                        }
                        let site = candidates[rng.gen_range(0..candidates.len())];
                        let repair = exp_gap(1.0 / *mttr, &mut rng);
                        outages.push(Outage {
                            site,
                            at: t,
                            until: Some(t + repair),
                        });
                    }
                }
            }
        }
        // Sweep in time order (rejoins before fails at ties): drop
        // outages that would double-fail a site or empty the grid.
        enum Edge {
            Fail(usize),
            Rejoin(usize),
        }
        let mut edges: Vec<(f64, u8, usize, Edge)> = Vec::new();
        for (oi, o) in outages.iter().enumerate() {
            edges.push((o.at, 1, oi, Edge::Fail(oi)));
            if let Some(u) = o.until {
                edges.push((u, 0, oi, Edge::Rejoin(oi)));
            }
        }
        edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let mut offline = vec![false; n_sites];
        let mut offline_count = 0usize;
        let mut dropped = vec![false; outages.len()];
        for (t, _, _, edge) in edges {
            match edge {
                Edge::Fail(oi) => {
                    let site = outages[oi].site;
                    // Double-fail, or this would take the last online
                    // site down — drop the whole outage.
                    if offline[site] || offline_count + 1 == n_sites {
                        dropped[oi] = true;
                        continue;
                    }
                    offline[site] = true;
                    offline_count += 1;
                    events.push((
                        Time::new(t),
                        InjectionKind::SiteFail(SiteId(site)).rank(),
                        seq,
                        InjectionKind::SiteFail(SiteId(site)),
                    ));
                    seq += 1;
                }
                Edge::Rejoin(oi) => {
                    if dropped[oi] {
                        continue;
                    }
                    let site = outages[oi].site;
                    offline[site] = false;
                    offline_count -= 1;
                    events.push((
                        Time::new(t),
                        InjectionKind::SiteRejoin(SiteId(site)).rank(),
                        seq,
                        InjectionKind::SiteRejoin(SiteId(site)),
                    ));
                    seq += 1;
                }
            }
        }
        // --- trust: merge explicit re-rates with storm instants, then
        // walk the level state chronologically ---
        enum TrustEvent {
            Set(Vec<f64>),
            Step(Vec<f64>),
        }
        let mut trust_events: Vec<(f64, usize, TrustEvent)> = Vec::new();
        for (ti, t) in self.trust.iter().enumerate() {
            match t {
                TrustSpec::ReRate { at, levels } => {
                    if !(at.is_finite() && *at >= 0.0) {
                        return Err(Error::invalid("scenario.trust", "bad re-rate instant"));
                    }
                    if levels.len() != n_sites {
                        return Err(Error::invalid(
                            "scenario.trust",
                            format!("{} levels for {} sites", levels.len(), n_sites),
                        ));
                    }
                    if levels.iter().any(|l| !(0.0..=1.0).contains(l)) {
                        return Err(Error::invalid(
                            "scenario.trust",
                            "security levels must lie in [0, 1]",
                        ));
                    }
                    trust_events.push((*at, ti, TrustEvent::Set(levels.clone())));
                }
                TrustSpec::TrustStorm {
                    start,
                    end,
                    rate,
                    jitter,
                } => {
                    if !(start.is_finite() && end.is_finite() && *start >= 0.0 && end >= start) {
                        return Err(Error::invalid("scenario.trust", "bad storm window"));
                    }
                    if rate.is_nan() || *rate <= 0.0 {
                        return Err(Error::invalid(
                            "scenario.trust",
                            "storm rate must be positive",
                        ));
                    }
                    if !(*jitter > 0.0 && *jitter <= 1.0) {
                        return Err(Error::invalid(
                            "scenario.trust",
                            "storm jitter must lie in (0, 1]",
                        ));
                    }
                    let mut rng = stream(self.seed, Stream::Custom(0xC4A0_2000 + ti as u64));
                    let mut t = *start;
                    loop {
                        t += exp_gap(*rate, &mut rng);
                        if t > *end {
                            break;
                        }
                        let deltas: Vec<f64> = (0..n_sites)
                            .map(|_| rng.gen_range(-*jitter..=*jitter))
                            .collect();
                        trust_events.push((t, ti, TrustEvent::Step(deltas)));
                    }
                }
            }
        }
        trust_events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut levels: Vec<f64> = grid.sites().map(|s| s.security_level).collect();
        for (t, _, ev) in trust_events {
            match ev {
                TrustEvent::Set(new) => levels = new,
                TrustEvent::Step(deltas) => {
                    for (l, d) in levels.iter_mut().zip(&deltas) {
                        *l = (*l + d).clamp(0.0, 1.0);
                    }
                }
            }
            let kind = InjectionKind::SetTrust(levels.clone());
            events.push((Time::new(t), kind.rank(), seq, kind));
            seq += 1;
        }
        // --- the total replay order ---
        events.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        Ok(InjectionStream {
            events: events
                .into_iter()
                .map(|(at, _, _, kind)| Injection { at, kind })
                .collect(),
        })
    }
}

/// What a scenario replay produced, with the books balanced.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioOutcome {
    /// Every committed assignment in commit order — the timeline the
    /// determinism and equivalence suites compare bit for bit. Stranded
    /// commits stay in the log; their jobs re-appear later with a fresh
    /// commit.
    pub timeline: Vec<CommittedAssignment>,
    /// Arrivals in the stream (accepted + typed-rejected).
    pub jobs_generated: usize,
    /// Arrivals accepted into the queue.
    pub jobs_submitted: usize,
    /// Jobs with at least one live (non-stranded) commit.
    pub jobs_scheduled: usize,
    /// Stranded commits requeued by site failures.
    pub jobs_requeued: usize,
    /// Jobs still pending at the end (e.g. their only wide-enough site
    /// never rejoined).
    pub pending: usize,
    /// Non-empty scheduling rounds run.
    pub rounds: usize,
    /// Site failures applied.
    pub sites_failed: usize,
    /// Site rejoins applied.
    pub sites_rejoined: usize,
    /// Jobs rejected with a typed no-feasible-site error.
    pub rejected: Vec<JobId>,
    /// Per-round scheduler nanoseconds (latency distribution).
    pub round_nanos: Vec<u64>,
    /// Latest committed completion instant.
    pub max_completion: Time,
}

impl ScenarioOutcome {
    /// The zero-lost-jobs ledger: every generated job is scheduled (with
    /// a live commit), still pending, or typed-rejected.
    pub fn fully_accounted(&self) -> bool {
        self.jobs_generated == self.jobs_scheduled + self.pending + self.rejected.len()
            && self.jobs_submitted == self.jobs_scheduled + self.pending
    }
}

/// Replays an [`InjectionStream`] through the engine: a [`RoundDriver`]
/// driven by the shared [`BoundaryClock`], applying exactly the
/// daemon-session semantics for every injection (fire due boundaries
/// strictly before the instant, apply, re-arm or count-trigger).
pub struct ScenarioRunner {
    rounds: RoundDriver,
    scheduler: Box<dyn BatchScheduler + Send>,
    clock: BoundaryClock,
    timeline: Vec<CommittedAssignment>,
    /// Live commit counts per job (decremented when a commit is
    /// stranded; a job leaves the map at zero).
    live: HashMap<JobId, u32>,
    jobs_generated: usize,
    jobs_submitted: usize,
    jobs_requeued: usize,
    sites_failed: usize,
    sites_rejoined: usize,
    rejected: Vec<JobId>,
    round_nanos: Vec<u64>,
    max_completion: Time,
}

impl ScenarioRunner {
    /// A fresh runner. Only the batching/security subset of `config` is
    /// used, exactly as in the serving session.
    pub fn new(
        grid: Grid,
        scheduler: Box<dyn BatchScheduler + Send>,
        config: &SimConfig,
    ) -> Result<ScenarioRunner> {
        config.validate()?;
        Ok(ScenarioRunner {
            rounds: RoundDriver::new(
                grid,
                config.batch_policy,
                config.security,
                config.max_replicas,
            ),
            scheduler,
            clock: BoundaryClock::new(config.schedule_interval),
            timeline: Vec::new(),
            live: HashMap::new(),
            jobs_generated: 0,
            jobs_submitted: 0,
            jobs_requeued: 0,
            sites_failed: 0,
            sites_rejoined: 0,
            rejected: Vec::new(),
            round_nanos: Vec::new(),
            max_completion: Time::ZERO,
        })
    }

    /// Applies one injection.
    pub fn apply(&mut self, inj: &Injection) -> Result<()> {
        if inj.at < self.clock.now() {
            return Err(Error::invalid(
                "scenario",
                format!(
                    "injection at {} but the clock is already at {}",
                    inj.at,
                    self.clock.now()
                ),
            ));
        }
        match &inj.kind {
            InjectionKind::Arrive(job) => {
                self.jobs_generated += 1;
                if !self.rounds.grid().sites().any(|s| s.fits_width(job.width)) {
                    self.rejected.push(job.id);
                    return Ok(());
                }
                self.advance_strictly_before(inj.at)?;
                self.clock.advance_to(inj.at);
                self.jobs_submitted += 1;
                self.rounds.enqueue(BatchJob {
                    job: job.clone(),
                    secure_only: false,
                });
                if self.rounds.count_trigger_reached() {
                    self.clock.note_trigger();
                } else {
                    self.clock.ensure_armed();
                }
            }
            InjectionKind::SiteFail(site) => {
                self.advance_strictly_before(inj.at)?;
                self.clock.advance_to(inj.at);
                let stranded = self.rounds.fail_site(*site, inj.at)?;
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
                self.after_churn();
            }
            InjectionKind::SiteRejoin(site) => {
                self.advance_strictly_before(inj.at)?;
                self.clock.advance_to(inj.at);
                self.rounds.rejoin_site(*site, inj.at)?;
                self.sites_rejoined += 1;
                self.scheduler.on_reconfigure();
                self.after_churn();
            }
            InjectionKind::SetTrust(levels) => {
                self.advance_strictly_before(inj.at)?;
                self.clock.advance_to(inj.at);
                self.set_trust(levels)?;
            }
        }
        Ok(())
    }

    /// Replays the whole stream and settles the queue.
    pub fn run(mut self, stream: &InjectionStream) -> Result<ScenarioOutcome> {
        for inj in &stream.events {
            self.apply(inj)?;
        }
        self.finish()
    }

    /// Fires every queued boundary and closes the books. Jobs that fit
    /// no online site remain pending (accounted, not lost).
    pub fn finish(mut self) -> Result<ScenarioOutcome> {
        while let Some(b) = self.clock.pop_any() {
            self.fire(b)?;
        }
        if self.rounds.pending_len() > 0 {
            let at = self.clock.next_periodic_instant();
            self.fire(at)?;
        }
        Ok(ScenarioOutcome {
            timeline: self.timeline,
            jobs_generated: self.jobs_generated,
            jobs_submitted: self.jobs_submitted,
            jobs_scheduled: self.live.len(),
            jobs_requeued: self.jobs_requeued,
            pending: self.rounds.pending_len(),
            rounds: self.rounds.n_rounds(),
            sites_failed: self.sites_failed,
            sites_rejoined: self.sites_rejoined,
            rejected: self.rejected,
            round_nanos: self.round_nanos,
            max_completion: self.max_completion,
        })
    }

    /// The session's trust reconfiguration, verbatim.
    fn set_trust(&mut self, levels: &[f64]) -> Result<()> {
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
        self.scheduler.on_reconfigure();
        Ok(())
    }

    /// After churn mutated the queue or the usable-site set: mirror the
    /// enqueue policy so requeued/deferred work is guaranteed a boundary.
    fn after_churn(&mut self) {
        if self.rounds.count_trigger_reached() {
            self.clock.note_trigger();
        } else if self.rounds.pending_len() > 0 {
            self.clock.ensure_armed();
        }
    }

    fn advance_strictly_before(&mut self, t: Time) -> Result<()> {
        while let Some(b) = self.clock.pop_strictly_before(t) {
            self.fire(b)?;
        }
        Ok(())
    }

    fn fire(&mut self, b: Time) -> Result<()> {
        self.clock.fired(b);
        let Some(outcome) = self.rounds.run_round(self.scheduler.as_mut(), b)? else {
            return Ok(());
        };
        self.round_nanos.push(outcome.scheduler_nanos as u64);
        let by_id: HashMap<JobId, &Job> =
            outcome.batch.iter().map(|x| (x.job.id, &x.job)).collect();
        for a in &outcome.schedule.assignments {
            let job = *by_id
                .get(&a.job)
                .expect("validated schedule covers only batch jobs");
            let c = self.rounds.commit_assignment(job, a.site, b);
            self.max_completion = self.max_completion.max(c.end);
            *self.live.entry(c.job).or_insert(0) += 1;
            self.timeline.push(c);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BatchPolicy;
    use crate::scheduler::EarliestCompletion;

    fn grid(nodes: &[u32]) -> Grid {
        Grid::new(
            nodes
                .iter()
                .enumerate()
                .map(|(i, &n)| {
                    Site::builder(i)
                        .nodes(n)
                        .speed(1.0 + i as f64)
                        .security_level(0.9)
                        .build()
                        .unwrap()
                })
                .collect(),
        )
        .unwrap()
    }

    fn poisson_phase(rate: f64, start: f64, end: f64) -> ArrivalPhase {
        ArrivalPhase {
            tenant: "t".into(),
            start,
            end,
            process: ArrivalProcess::Poisson { rate },
            width_min: 1,
            width_max: 2,
            work_min: 5.0,
            work_max: 50.0,
            sd_min: 0.6,
            sd_max: 0.9,
        }
    }

    fn config() -> SimConfig {
        SimConfig::default()
            .with_interval(Time::new(10.0))
            .with_batch_policy(BatchPolicy::Periodic)
    }

    #[test]
    fn compile_is_deterministic_and_ordered() {
        let g = grid(&[2, 4, 2]);
        let sc = Scenario {
            seed: 42,
            arrivals: vec![
                poisson_phase(0.5, 0.0, 100.0),
                poisson_phase(0.2, 20.0, 80.0),
            ],
            faults: vec![FaultSpec::FaultStorm {
                start: 0.0,
                end: 100.0,
                rate: 0.05,
                mttr: 20.0,
                sites: None,
            }],
            trust: vec![TrustSpec::TrustStorm {
                start: 0.0,
                end: 100.0,
                rate: 0.1,
                jitter: 0.2,
            }],
            max_jobs: None,
        };
        let a = sc.compile(&g).unwrap();
        let b = sc.compile(&g).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(
            a.events.windows(2).all(|w| w[0].at <= w[1].at),
            "stream must be time-ordered"
        );
        // Job ids are assigned in arrival order.
        let ids: Vec<u64> = a
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                InjectionKind::Arrive(j) => Some(j.id.0),
                _ => None,
            })
            .collect();
        assert!(ids.windows(2).all(|w| w[0] + 1 == w[1]));
        // A different seed produces a different stream.
        let other = Scenario {
            seed: 43,
            ..sc.clone()
        }
        .compile(&g)
        .unwrap();
        assert_ne!(a, other);
    }

    #[test]
    fn storms_never_take_the_last_site_down() {
        let g = grid(&[2, 2]);
        let sc = Scenario {
            seed: 7,
            arrivals: vec![],
            faults: vec![FaultSpec::FaultStorm {
                start: 0.0,
                end: 500.0,
                rate: 0.5,
                mttr: 100.0,
                sites: None,
            }],
            trust: vec![],
            max_jobs: None,
        };
        let s = sc.compile(&g).unwrap();
        let mut offline = 0i64;
        for e in &s.events {
            match e.kind {
                InjectionKind::SiteFail(_) => offline += 1,
                InjectionKind::SiteRejoin(_) => offline -= 1,
                _ => {}
            }
            assert!(offline < 2, "both sites offline at {}", e.at);
            assert!(offline >= 0);
        }
    }

    #[test]
    fn trust_storm_levels_stay_in_range_and_walk() {
        let g = grid(&[2, 2, 2]);
        let sc = Scenario {
            seed: 9,
            arrivals: vec![],
            faults: vec![],
            trust: vec![
                TrustSpec::ReRate {
                    at: 5.0,
                    levels: vec![0.5, 0.5, 0.5],
                },
                TrustSpec::TrustStorm {
                    start: 0.0,
                    end: 200.0,
                    rate: 0.2,
                    jitter: 0.3,
                },
            ],
            max_jobs: None,
        };
        let s = sc.compile(&g).unwrap();
        let mut n = 0;
        for e in &s.events {
            if let InjectionKind::SetTrust(levels) = &e.kind {
                assert_eq!(levels.len(), 3);
                assert!(levels.iter().all(|l| (0.0..=1.0).contains(l)));
                n += 1;
            }
        }
        assert!(n > 1);
    }

    #[test]
    fn runner_accounts_for_every_job_under_churn() {
        let g = grid(&[2, 4]);
        let sc = Scenario {
            seed: 11,
            arrivals: vec![poisson_phase(0.5, 0.0, 200.0)],
            faults: vec![
                FaultSpec::SiteDown {
                    site: 1,
                    at: 30.0,
                    until: Some(90.0),
                },
                FaultSpec::SiteDown {
                    site: 0,
                    at: 120.0,
                    until: Some(150.0),
                },
            ],
            trust: vec![TrustSpec::ReRate {
                at: 60.0,
                levels: vec![0.4, 0.8],
            }],
            max_jobs: Some(100),
        };
        let stream = sc.compile(&g).unwrap();
        let out = ScenarioRunner::new(g, Box::new(EarliestCompletion), &config())
            .unwrap()
            .run(&stream)
            .unwrap();
        assert!(out.fully_accounted(), "{out:?}");
        assert_eq!(out.sites_failed, 2);
        assert_eq!(out.sites_rejoined, 2);
        assert_eq!(out.jobs_generated, stream.n_jobs());
        assert_eq!(out.pending, 0);
        assert!(out.rounds > 0);
    }

    #[test]
    fn stranded_jobs_are_requeued_and_rescheduled() {
        // One long job lands on the fast site at the first boundary;
        // that site then dies mid-execution.
        let g = grid(&[2, 2]);
        let sc = Scenario {
            seed: 1,
            arrivals: vec![ArrivalPhase {
                tenant: "victim".into(),
                start: 0.0,
                end: 4.0,
                process: ArrivalProcess::Poisson { rate: 0.5 },
                width_min: 1,
                width_max: 1,
                work_min: 500.0,
                work_max: 500.0,
                sd_min: 0.6,
                sd_max: 0.6,
            }],
            faults: vec![FaultSpec::SiteDown {
                site: 1,
                at: 20.0,
                until: Some(40.0),
            }],
            trust: vec![],
            max_jobs: Some(4),
        };
        let stream = sc.compile(&g).unwrap();
        let n_jobs = stream.n_jobs();
        assert!(n_jobs > 0);
        let out = ScenarioRunner::new(g, Box::new(EarliestCompletion), &config())
            .unwrap()
            .run(&stream)
            .unwrap();
        assert!(out.jobs_requeued > 0, "{out:?}");
        assert!(out.fully_accounted(), "{out:?}");
        assert_eq!(out.jobs_scheduled, out.jobs_submitted);
        // The timeline holds both the stranded commit and the re-commit.
        assert!(out.timeline.len() > n_jobs - out.rejected.len());
    }

    #[test]
    fn replay_is_bit_identical_for_the_same_seed() {
        let g = grid(&[2, 4, 2]);
        let sc = Scenario {
            seed: 33,
            arrivals: vec![poisson_phase(0.8, 0.0, 120.0)],
            faults: vec![FaultSpec::FaultStorm {
                start: 0.0,
                end: 120.0,
                rate: 0.05,
                mttr: 15.0,
                sites: None,
            }],
            trust: vec![TrustSpec::TrustStorm {
                start: 0.0,
                end: 120.0,
                rate: 0.1,
                jitter: 0.25,
            }],
            max_jobs: Some(150),
        };
        let run = || {
            let stream = sc.compile(&g).unwrap();
            ScenarioRunner::new(g.clone(), Box::new(EarliestCompletion), &config())
                .unwrap()
                .run(&stream)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.timeline, b.timeline);
        // Everything but the wall-clock latency samples is reproducible.
        assert_eq!(a.jobs_scheduled, b.jobs_scheduled);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.max_completion, b.max_completion);
    }

    #[test]
    fn slice_for_shard_partitions_the_stream() {
        let g = grid(&[2, 2, 4, 4]);
        let plan = ShardPlan::contiguous(&g, 2).unwrap();
        let sc = Scenario {
            seed: 5,
            arrivals: vec![poisson_phase(0.5, 0.0, 100.0)],
            faults: vec![FaultSpec::SiteDown {
                site: 3,
                at: 20.0,
                until: Some(50.0),
            }],
            trust: vec![TrustSpec::ReRate {
                at: 10.0,
                levels: vec![0.1, 0.2, 0.3, 0.4],
            }],
            max_jobs: Some(50),
        };
        let s = sc.compile(&g).unwrap();
        let s0 = s.slice_for_shard(&plan, &g, 0);
        let s1 = s.slice_for_shard(&plan, &g, 1);
        assert_eq!(s0.n_jobs() + s1.n_jobs(), s.n_jobs());
        // The outage on global site 3 lands only in shard 1, as local id 1.
        assert!(s0
            .events
            .iter()
            .all(|e| !matches!(e.kind, InjectionKind::SiteFail(_))));
        assert!(s1
            .events
            .iter()
            .any(|e| matches!(e.kind, InjectionKind::SiteFail(SiteId(1)))));
        // Trust vectors are sliced per shard.
        let t1: Vec<_> = s1
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                InjectionKind::SetTrust(l) => Some(l.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(t1, vec![vec![0.3, 0.4]]);
    }

    #[test]
    fn scenario_json_roundtrips() {
        let sc = Scenario {
            seed: 99,
            arrivals: vec![poisson_phase(1.0, 0.0, 10.0)],
            faults: vec![FaultSpec::SiteDown {
                site: 0,
                at: 5.0,
                until: None,
            }],
            trust: vec![],
            max_jobs: Some(10),
        };
        let back = Scenario::from_json(&sc.to_json()).unwrap();
        assert_eq!(back.seed, 99);
        assert_eq!(back.arrivals.len(), 1);
        assert!(Scenario::from_json("{").is_err());
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let g = grid(&[2, 2]);
        let mut bad_phase = poisson_phase(0.0, 0.0, 10.0);
        assert!(Scenario {
            seed: 0,
            arrivals: vec![bad_phase.clone()],
            faults: vec![],
            trust: vec![],
            max_jobs: None,
        }
        .compile(&g)
        .is_err());
        bad_phase.process = ArrivalProcess::Pareto {
            rate: 1.0,
            alpha: 0.9,
        };
        assert!(Scenario {
            seed: 0,
            arrivals: vec![bad_phase],
            faults: vec![],
            trust: vec![],
            max_jobs: None,
        }
        .compile(&g)
        .is_err());
        assert!(Scenario {
            seed: 0,
            arrivals: vec![],
            faults: vec![FaultSpec::SiteDown {
                site: 9,
                at: 0.0,
                until: None,
            }],
            trust: vec![],
            max_jobs: None,
        }
        .compile(&g)
        .is_err());
        assert!(Scenario {
            seed: 0,
            arrivals: vec![],
            faults: vec![],
            trust: vec![TrustSpec::ReRate {
                at: 0.0,
                levels: vec![0.5],
            }],
            max_jobs: None,
        }
        .compile(&g)
        .is_err());
    }

    #[test]
    fn pareto_and_diurnal_phases_generate_in_window() {
        let g = grid(&[4]);
        for process in [
            ArrivalProcess::Pareto {
                rate: 0.5,
                alpha: 1.5,
            },
            ArrivalProcess::Diurnal {
                base_rate: 0.05,
                peak_rate: 1.0,
                period: 50.0,
            },
        ] {
            let mut phase = poisson_phase(1.0, 10.0, 200.0);
            phase.process = process;
            let sc = Scenario {
                seed: 3,
                arrivals: vec![phase],
                faults: vec![],
                trust: vec![],
                max_jobs: None,
            };
            let s = sc.compile(&g).unwrap();
            assert!(s.n_jobs() > 0);
            for e in &s.events {
                if let InjectionKind::Arrive(j) = &e.kind {
                    assert!(j.arrival.seconds() > 10.0 && j.arrival.seconds() <= 200.0);
                    assert_eq!(e.at, j.arrival);
                }
            }
        }
    }
}

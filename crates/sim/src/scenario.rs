//! The chaos scenario engine: spec-driven, seeded fault injection.
//!
//! A [`Scenario`] is a declarative event program — arrival phases
//! (Poisson, heavy-tailed Pareto, diurnal), site failures/rejoins
//! (explicit outages and seeded fault storms), and trust re-ratings
//! (explicit re-rates and jittered storms). [`Scenario::compile`] samples
//! it into an [`InjectionStream`]: a deterministic, totally ordered list
//! of timestamped injections. Same spec + same seed ⇒ the same stream,
//! bit for bit, at every thread count.
//!
//! This module ends at the stream. Replaying one is `gridsec-serve`'s
//! job: its scenario runner feeds the injections to an online session
//! in process, and its daemon takes the same injections as NDJSON frames
//! (`submit`, `fail_site`, `rejoin_site`, `reconfigure`), one shard's
//! share of them being [`InjectionStream::slice_for_shard`]. There, jobs
//! stranded on a site that fails mid-execution are requeued (never
//! lost) and jobs fitting no online site stay pending until a
//! wide-enough site rejoins.

use crate::shard::ShardPlan;
use gridsec_core::rng::{stream, Stream};
use gridsec_core::{Error, Grid, Job, Result, SiteId, Time};
use rand::Rng;
use serde::{Deserialize, Serialize};

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

/// The injection alphabet: what a compiled stream can ask of a session.
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
    /// fail before arrival — fixed, so a stream has one replay order.
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

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_core::Site;

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

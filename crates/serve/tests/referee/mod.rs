//! The referee of `gridsec-serve`'s scenario replay: the stand-alone
//! runner that shipped in `gridsec_sim::scenario` until the replay became
//! an [`OnlineSession`](gridsec_serve::OnlineSession) fed from the stream.
//! It drives its own [`RoundDriver`] and [`BoundaryClock`] and shares no
//! line with the session, which is what makes it a referee:
//!
//! * `chaos_equivalence.rs` compares the daemon, over TCP, with it;
//! * `replay_referee.rs` compares the shipped
//!   [`ScenarioRunner`](gridsec_serve::ScenarioRunner) with it.
//!
//! The body below is the replaced code word for word (only the two type
//! names changed). Do not "fix" it to match the shipped path — a
//! difference between the two is a finding, and the suites above exist to
//! report it. Pulled in with `mod referee;`; no shipped crate calls
//! anything here.

#![allow(dead_code)] // every suite uses its own subset

use gridsec_core::{Error, Grid, Job, JobId, Result, Site, Time};
use gridsec_sim::{
    BatchJob, BatchScheduler, BoundaryClock, CommittedAssignment, Injection, InjectionKind,
    InjectionStream, RoundDriver, SimConfig,
};
use serde::Serialize;
use std::collections::HashMap;

/// What a scenario replay produced, with the books balanced.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RefereeOutcome {
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

impl RefereeOutcome {
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
pub struct RefereeRunner {
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

impl RefereeRunner {
    /// A fresh runner. Only the batching/security subset of `config` is
    /// used, exactly as in the serving session.
    pub fn new(
        grid: Grid,
        scheduler: Box<dyn BatchScheduler + Send>,
        config: &SimConfig,
    ) -> Result<RefereeRunner> {
        config.validate()?;
        Ok(RefereeRunner {
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
    pub fn run(mut self, stream: &InjectionStream) -> Result<RefereeOutcome> {
        for inj in &stream.events {
            self.apply(inj)?;
        }
        self.finish()
    }

    /// Fires every queued boundary and closes the books. Jobs that fit
    /// no online site remain pending (accounted, not lost).
    pub fn finish(mut self) -> Result<RefereeOutcome> {
        while let Some(b) = self.clock.pop_any() {
            self.fire(b)?;
        }
        if self.rounds.pending_len() > 0 {
            let at = self.clock.next_periodic_instant();
            self.fire(at)?;
        }
        Ok(RefereeOutcome {
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

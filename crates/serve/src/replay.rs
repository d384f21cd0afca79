//! Scenario replay: a compiled [`InjectionStream`] fed to an
//! [`OnlineSession`].
//!
//! [`ScenarioRunner`] is a session plus the two things a session does not
//! know — how many arrivals the stream generated, and which of them got
//! the typed no-feasible-site rejection. Every injection is one session
//! call (`Arrive` → `submit`, `SiteFail` → `fail_site`, `SiteRejoin` →
//! `rejoin_site`, `SetTrust` → `set_security_levels_at`, each at the
//! injection's instant), so `gridsec chaos` and a virtual-clock daemon
//! fed the same frames run one batch-boundary state machine, and
//! [`ScenarioOutcome`] carries the drained session's own metrics
//! snapshot. The stand-alone runner this replaced referees it from
//! `tests/referee/`.

use crate::protocol::{Placed, ServeMetrics};
use crate::session::OnlineSession;
use gridsec_core::{Error, Grid, JobId, Result};
use gridsec_sim::{BatchScheduler, Injection, InjectionKind, InjectionStream, SimConfig};
use serde::Serialize;

/// What a scenario replay produced, with the books balanced.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioOutcome {
    /// Every committed assignment in commit order — the timeline the
    /// determinism and equivalence suites compare bit for bit. Stranded
    /// commits stay in the log; their jobs re-appear later with a fresh
    /// commit.
    pub timeline: Vec<Placed>,
    /// Arrivals in the stream (accepted + typed-rejected).
    pub jobs_generated: usize,
    /// Jobs rejected with a typed no-feasible-site error.
    pub rejected: Vec<JobId>,
    /// The drained session's snapshot — what a daemon fed the same stream
    /// answers to `query metrics`. Jobs still `pending` at the end are
    /// those whose only wide-enough site never rejoined.
    pub metrics: ServeMetrics,
}

impl ScenarioOutcome {
    /// The zero-lost-jobs ledger: every generated job is scheduled (with
    /// a live commit), still pending, or typed-rejected.
    pub fn fully_accounted(&self) -> bool {
        let m = &self.metrics;
        self.jobs_generated == m.jobs_scheduled + m.pending + self.rejected.len()
            && m.jobs_submitted == m.jobs_scheduled + m.pending
    }
}

/// Replays an [`InjectionStream`] through an [`OnlineSession`].
pub struct ScenarioRunner {
    session: OnlineSession,
    jobs_generated: usize,
    rejected: Vec<JobId>,
}

impl ScenarioRunner {
    /// A fresh runner over a fresh session (see [`OnlineSession::new`]
    /// for the subset of `config` that is used).
    pub fn new(
        grid: Grid,
        scheduler: Box<dyn BatchScheduler + Send>,
        config: &SimConfig,
    ) -> Result<ScenarioRunner> {
        Ok(ScenarioRunner {
            session: OnlineSession::new(grid, scheduler, config)?,
            jobs_generated: 0,
            rejected: Vec::new(),
        })
    }

    /// Applies one injection. A job no site of the grid is wide enough
    /// for is recorded as rejected, not an error; everything else the
    /// session refuses (an instant behind the clock, a repeated job id,
    /// an unknown site) is.
    pub fn apply(&mut self, inj: &Injection) -> Result<()> {
        match &inj.kind {
            InjectionKind::Arrive(job) => {
                self.jobs_generated += 1;
                match self.session.submit(job.clone()) {
                    Err(Error::NoFeasibleSite(_)) => {
                        self.rejected.push(job.id);
                        Ok(())
                    }
                    other => other,
                }
            }
            InjectionKind::SiteFail(site) => self.session.fail_site(*site, Some(inj.at)).map(drop),
            InjectionKind::SiteRejoin(site) => self.session.rejoin_site(*site, Some(inj.at)),
            InjectionKind::SetTrust(levels) => {
                self.session.set_security_levels_at(levels, Some(inj.at))
            }
        }
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
        self.session.drain()?;
        Ok(ScenarioOutcome {
            timeline: self.session.assignments().to_vec(),
            jobs_generated: self.jobs_generated,
            rejected: self.rejected,
            metrics: self.session.metrics(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_core::{Site, Time};
    use gridsec_sim::scheduler::EarliestCompletion;
    use gridsec_sim::{ArrivalPhase, ArrivalProcess, BatchPolicy, FaultSpec, Scenario, TrustSpec};

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
        assert_eq!(out.metrics.sites_failed, 2);
        assert_eq!(out.metrics.sites_rejoined, 2);
        assert_eq!(out.jobs_generated, stream.n_jobs());
        assert_eq!(out.metrics.pending, 0);
        assert!(out.metrics.rounds > 0);
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
        assert!(out.metrics.jobs_requeued > 0, "{out:?}");
        assert!(out.fully_accounted(), "{out:?}");
        assert_eq!(out.metrics.jobs_scheduled, out.metrics.jobs_submitted);
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
        assert_eq!(a.metrics.jobs_scheduled, b.metrics.jobs_scheduled);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.metrics.max_completion, b.metrics.max_completion);
    }
}

//! The discrete-event simulation engine (the paper's Fig. 1 loop).
//!
//! The engine is one caller of the round core in [`crate::round`]: its
//! event queue holds only what the simulation itself creates — arrivals,
//! attempt ends and SL-walk steps — and the run loop fires the shared
//! [`BoundaryClock`]'s next boundary whenever it is strictly earlier than
//! the next event (or no event is left), so every event at an instant runs
//! before the boundary at that instant. A round's schedule is dispatched
//! attempt by attempt: Eq. 1 is sampled against the site's current
//! security level and the attempt commits through the [`RoundDriver`]
//! for as long as it occupies its nodes.
//!
//! Beyond the paper's base model the engine supports:
//!
//! * count-triggered and hybrid batch policies
//!   ([`BatchPolicy`](crate::BatchPolicy));
//! * a random walk on site security levels
//!   ([`SlDynamics`](crate::config::SlDynamics)), emulating an IDS
//!   re-rating sites over time.
//!
//! Each job runs one attempt at a time: a round assigns it exactly once,
//! and a failed attempt sends it back to the queue secure-only.

use crate::config::SimConfig;
use crate::event::{EventKind, EventQueue};
use crate::report::SimOutput;
use crate::round::{BoundaryClock, RoundDriver};
use crate::scheduler::{BatchJob, BatchScheduler};
use crate::timeline::{AttemptSpan, Timeline};
use gridsec_core::metrics::{JobOutcome, MetricsCollector};
use gridsec_core::rng::{stream, Stream};
use gridsec_core::{Error, FailureDetection, Grid, Job, JobId, Result, SiteId, Time};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// Per-job bookkeeping across (possibly several) attempts.
#[derive(Debug, Clone)]
struct JobState {
    job: Job,
    first_start: Option<Time>,
    failures: u32,
    risk_taken: bool,
}

/// The simulator: owns all mutable state of one run.
///
/// Most callers use the [`simulate`] convenience function; the struct form
/// exists for step-wise tests and custom instrumentation.
pub struct Simulator<'a, S: BatchScheduler + ?Sized> {
    /// The batch/round core (grid, availability, pending queue, batch
    /// accounting) shared with the serving daemon.
    rounds: RoundDriver,
    /// The simulated `now` and the queued batch boundaries.
    clock: BoundaryClock,
    scheduler: &'a mut S,
    config: SimConfig,
    events: EventQueue,
    states: HashMap<JobId, JobState>,
    metrics: MetricsCollector,
    failure_rng: ChaCha8Rng,
    walk_rng: ChaCha8Rng,
    total_jobs: usize,
    timeline: Option<Timeline>,
}

impl<'a, S: BatchScheduler + ?Sized> Simulator<'a, S> {
    /// Prepares a run over `workload` (jobs in any order; arrival times
    /// drive the event queue).
    pub fn new(
        workload: &[Job],
        grid: &Grid,
        scheduler: &'a mut S,
        config: &SimConfig,
    ) -> Result<Self> {
        config.validate()?;
        // Every job must fit somewhere, or the run can never drain.
        for job in workload {
            if !grid.sites().any(|s| s.fits_width(job.width)) {
                return Err(Error::NoFeasibleSite(job.id.0));
            }
        }
        let mut events = EventQueue::new();
        let mut states = HashMap::with_capacity(workload.len());
        for job in workload {
            events.push(job.arrival, EventKind::Arrival { job: job.id });
            let prev = states.insert(
                job.id,
                JobState {
                    job: job.clone(),
                    first_start: None,
                    failures: 0,
                    risk_taken: false,
                },
            );
            if prev.is_some() {
                return Err(Error::invalid(
                    "workload",
                    format!("duplicate job id {}", job.id),
                ));
            }
        }
        if let Some(d) = &config.sl_dynamics {
            events.push(d.period, EventKind::SlWalk);
        }
        let metrics = MetricsCollector::new(grid.sites().map(|s| s.nodes).collect());
        Ok(Simulator {
            rounds: RoundDriver::new(
                grid.clone(),
                config.batch_policy,
                config.security,
                config.max_replicas,
            ),
            clock: BoundaryClock::new(config.schedule_interval),
            scheduler,
            config: config.clone(),
            events,
            states,
            metrics,
            failure_rng: stream(config.seed, Stream::Failure),
            walk_rng: stream(config.seed, Stream::Custom(0x51D9)),
            total_jobs: workload.len(),
            timeline: if config.record_timeline {
                Some(Timeline::new())
            } else {
                None
            },
        })
    }

    /// Runs the simulation to completion and returns the output.
    pub fn run(mut self) -> Result<SimOutput> {
        loop {
            let boundary = match self.events.peek_time() {
                Some(t) => self.clock.pop_strictly_before(t),
                None => self.clock.pop_any(),
            };
            if let Some(b) = boundary {
                self.check_horizon(b)?;
                self.on_boundary(b)?;
                continue;
            }
            let Some(event) = self.events.pop() else {
                break;
            };
            self.check_horizon(event.at)?;
            self.clock.advance_to(event.at);
            match event.kind {
                EventKind::Arrival { job } => self.enqueue(job, false),
                EventKind::AttemptEnd { job, site, failed } => {
                    self.on_attempt_end(job, site, failed)
                }
                EventKind::SlWalk => self.on_sl_walk(),
            }
        }
        let completed = self.metrics.completed();
        if completed != self.total_jobs {
            return Err(Error::IncompleteSchedule {
                expected: self.total_jobs,
                assigned: completed,
            });
        }
        let n_batches = self.rounds.n_rounds();
        Ok(SimOutput {
            scheduler_name: self.scheduler.name(),
            metrics: self.metrics.report(None),
            n_batches,
            mean_batch_size: if n_batches == 0 {
                0.0
            } else {
                self.rounds.jobs_batched() as f64 / n_batches as f64
            },
            max_batch_size: self.rounds.max_batch_size(),
            scheduler_seconds: self.rounds.scheduler_nanos() as f64 / 1e9,
            timeline: self.timeline,
            seed: self.config.seed,
        })
    }

    /// The safety valve: no event or boundary past `max_horizon`.
    fn check_horizon(&self, at: Time) -> Result<()> {
        if at > self.config.max_horizon {
            return Err(Error::invalid(
                "max_horizon",
                format!("simulation exceeded horizon at t = {at}"),
            ));
        }
        Ok(())
    }

    /// Queues `id` for the next round: on arrival, or secure-only after a
    /// failed attempt.
    fn enqueue(&mut self, id: JobId, secure_only: bool) {
        let job = self.states[&id].job.clone();
        self.rounds.enqueue(BatchJob { job, secure_only });
        self.clock.arm(&self.rounds);
    }

    fn on_attempt_end(&mut self, id: JobId, site: SiteId, failed: bool) {
        let state = self.states.get_mut(&id).expect("known job");
        if failed {
            // The job counts as failed (the paper's N_fail is "failed and
            // rescheduled jobs") and is rescheduled under the
            // secure-only constraint (fail-stop rule).
            state.failures += 1;
            self.enqueue(id, true);
        } else {
            self.metrics.record_outcome(JobOutcome {
                id,
                arrival: state.job.arrival,
                first_start: state.first_start.expect("started"),
                completion: self.clock.now(),
                final_site: site,
                risk_taken: state.risk_taken,
                failures: state.failures,
            });
        }
    }

    fn on_boundary(&mut self, b: Time) -> Result<()> {
        self.clock.fired(b);
        let Some(outcome) = self.rounds.run_round(&mut *self.scheduler, b)? else {
            return Ok(());
        };
        for a in &outcome.schedule.assignments {
            self.dispatch(a.job, a.site, b);
        }
        Ok(())
    }

    /// Starts one attempt of `job` on `site` at the round instant `now`,
    /// sampling failure per Eq. (1) against the site's *current* security
    /// level.
    fn dispatch(&mut self, id: JobId, site_id: SiteId, now: Time) {
        let site = self.rounds.grid().site(site_id);
        let state = self.states.get_mut(&id).expect("known job");
        let job = &state.job;
        let exec = job.exec_time(site.speed);
        // Always draw both variates so the failure stream stays aligned
        // across configurations (comparability between runs).
        let u: f64 = self.failure_rng.gen();
        let frac: f64 = self.failure_rng.gen();
        let risky = job.security_demand > site.security_level;
        let p = self
            .config
            .security
            .fail_probability(job.security_demand, site.security_level);
        let failed = risky && u < p;
        let occupied = match (failed, self.config.failure_detection) {
            (true, FailureDetection::UniformFraction) => exec * frac.max(f64::MIN_POSITIVE),
            _ => exec,
        };
        let attempt = self.rounds.commit_attempt(job, site_id, now, occupied);
        self.metrics.record_busy(site_id, job.width, occupied);
        state.first_start.get_or_insert(attempt.start);
        state.risk_taken |= risky;
        if let Some(tl) = &mut self.timeline {
            tl.push(AttemptSpan {
                job: id,
                site: site_id,
                width: attempt.width,
                start: attempt.start,
                end: attempt.end,
                failed,
            });
        }
        self.events.push(
            attempt.end,
            EventKind::AttemptEnd {
                job: id,
                site: site_id,
                failed,
            },
        );
    }

    /// Random-walks every site's security level (SlWalk event).
    fn on_sl_walk(&mut self) {
        let d = self
            .config
            .sl_dynamics
            .expect("SlWalk only scheduled with dynamics");
        let sites: Vec<SiteId> = self.rounds.grid().site_ids().collect();
        let mut walked = Vec::with_capacity(sites.len());
        for id in sites {
            let site = self.rounds.grid().site(id);
            let delta = if d.step > 0.0 {
                self.walk_rng.gen_range(-d.step..=d.step)
            } else {
                0.0
            };
            let sl = (site.security_level + delta).clamp(d.min, d.max);
            let mut new_site = site.clone();
            new_site.security_level = sl;
            walked.push(new_site);
        }
        self.rounds
            .set_grid(Grid::new(walked).expect("walked grid stays valid"))
            .expect("walked grid keeps its site count");
        // Keep walking while the run is still active.
        if self.metrics.completed() < self.total_jobs {
            self.events
                .push(self.clock.now() + d.period, EventKind::SlWalk);
        }
    }
}

/// Runs one complete simulation: `workload` over `grid` under `scheduler`.
pub fn simulate<S: BatchScheduler + ?Sized>(
    workload: &[Job],
    grid: &Grid,
    scheduler: &mut S,
    config: &SimConfig,
) -> Result<SimOutput> {
    Simulator::new(workload, grid, scheduler, config)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BatchPolicy;
    use crate::scheduler::{EarliestCompletion, GridView};
    use gridsec_core::{BatchSchedule, Site};

    fn safe_grid() -> Grid {
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

    fn cfg() -> SimConfig {
        SimConfig::default().with_interval(Time::new(10.0))
    }

    #[test]
    fn single_job_completes_with_correct_times() {
        let grid = safe_grid();
        let jobs = vec![Job::builder(0)
            .arrival(Time::new(3.0))
            .work(100.0)
            .security_demand(0.8)
            .build()
            .unwrap()];
        let out = simulate(&jobs, &grid, &mut EarliestCompletion, &cfg()).unwrap();
        assert_eq!(out.metrics.n_jobs, 1);
        assert_eq!(out.metrics.n_fail, 0);
        assert_eq!(out.metrics.n_risk, 0);
        // Arrives at 3, first boundary at 10, fastest site speed 2 → done 60.
        assert_eq!(out.metrics.makespan, Time::new(60.0));
        assert_eq!(out.metrics.avg_response, 57.0);
        assert_eq!(out.metrics.avg_wait, 7.0);
        assert_eq!(out.n_batches, 1);
    }

    #[test]
    fn batching_groups_arrivals() {
        let grid = safe_grid();
        let jobs: Vec<Job> = (0..4)
            .map(|i| {
                Job::builder(i)
                    .arrival(Time::new(1.0 + i as f64))
                    .work(10.0)
                    .security_demand(0.5)
                    .build()
                    .unwrap()
            })
            .collect();
        let out = simulate(&jobs, &grid, &mut EarliestCompletion, &cfg()).unwrap();
        // All four arrive before the first boundary at t = 10.
        assert_eq!(out.n_batches, 1);
        assert_eq!(out.max_batch_size, 4);
        assert_eq!(out.metrics.n_jobs, 4);
    }

    #[test]
    fn count_triggered_batches_fire_immediately() {
        let grid = safe_grid();
        let jobs: Vec<Job> = (0..4)
            .map(|i| {
                Job::builder(i)
                    .arrival(Time::new(1.0 + i as f64))
                    .work(10.0)
                    .security_demand(0.5)
                    .build()
                    .unwrap()
            })
            .collect();
        let config = cfg().with_batch_policy(BatchPolicy::CountTriggered(2));
        let out = simulate(&jobs, &grid, &mut EarliestCompletion, &config).unwrap();
        // Two-by-two instead of one big periodic batch.
        assert_eq!(out.n_batches, 2);
        assert_eq!(out.max_batch_size, 2);
        // First pair scheduled at its second arrival (t = 2), so the first
        // job starts before the periodic boundary at 10 would have fired.
        assert!(out.metrics.avg_wait < 7.0);
    }

    #[test]
    fn hybrid_policy_bounds_batch_size() {
        let grid = safe_grid();
        let jobs: Vec<Job> = (0..9)
            .map(|i| {
                Job::builder(i)
                    .arrival(Time::new(1.0 + 0.1 * i as f64))
                    .work(5.0)
                    .security_demand(0.5)
                    .build()
                    .unwrap()
            })
            .collect();
        let config = cfg().with_batch_policy(BatchPolicy::Hybrid(4));
        let out = simulate(&jobs, &grid, &mut EarliestCompletion, &config).unwrap();
        assert!(out.max_batch_size <= 4);
        assert!(out.n_batches >= 3);
    }

    #[test]
    fn always_unsafe_site_forces_failures_then_recovery() {
        // One fast unsafe site + one slow safe site. MCT picks the unsafe
        // fast site first; on failure the job must finish on the safe one.
        let grid = Grid::new(vec![
            Site::builder(0)
                .nodes(1)
                .speed(10.0)
                .security_level(0.0)
                .build()
                .unwrap(),
            Site::builder(1)
                .nodes(1)
                .speed(1.0)
                .security_level(1.0)
                .build()
                .unwrap(),
        ])
        .unwrap();
        // λ huge → P(fail) ≈ 1 on the unsafe site.
        let config = SimConfig::default()
            .with_interval(Time::new(10.0))
            .with_lambda(1e6)
            .unwrap();
        let jobs = vec![Job::builder(0)
            .work(50.0)
            .security_demand(0.9)
            .build()
            .unwrap()];
        let out = simulate(&jobs, &grid, &mut EarliestCompletion, &config).unwrap();
        assert_eq!(out.metrics.n_jobs, 1);
        assert_eq!(out.metrics.n_fail, 1);
        assert_eq!(out.metrics.n_risk, 1);
        // More than one batch: the retry needs a second boundary.
        assert!(out.n_batches >= 2);
    }

    #[test]
    fn nfail_never_exceeds_nrisk() {
        let grid = Grid::new(vec![
            Site::builder(0)
                .nodes(4)
                .speed(1.0)
                .security_level(0.55)
                .build()
                .unwrap(),
            Site::builder(1)
                .nodes(4)
                .speed(1.0)
                .security_level(0.95)
                .build()
                .unwrap(),
        ])
        .unwrap();
        let jobs: Vec<Job> = (0..50)
            .map(|i| {
                Job::builder(i)
                    .arrival(Time::new(i as f64))
                    .work(20.0)
                    .security_demand(0.6 + 0.3 * ((i % 10) as f64) / 10.0)
                    .build()
                    .unwrap()
            })
            .collect();
        let out = simulate(&jobs, &grid, &mut EarliestCompletion, &cfg()).unwrap();
        assert_eq!(out.metrics.n_jobs, 50);
        assert!(out.metrics.n_fail <= out.metrics.n_risk);
        assert!(out.metrics.slowdown_ratio >= 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let grid = safe_grid();
        let jobs: Vec<Job> = (0..20)
            .map(|i| {
                Job::builder(i)
                    .arrival(Time::new(i as f64 * 2.0))
                    .work(30.0)
                    .security_demand(0.7)
                    .build()
                    .unwrap()
            })
            .collect();
        let a = simulate(&jobs, &grid, &mut EarliestCompletion, &cfg()).unwrap();
        let b = simulate(&jobs, &grid, &mut EarliestCompletion, &cfg()).unwrap();
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.n_batches, b.n_batches);
    }

    #[test]
    fn duplicate_job_ids_rejected() {
        let grid = safe_grid();
        let jobs = vec![
            Job::builder(0).build().unwrap(),
            Job::builder(0).build().unwrap(),
        ];
        assert!(simulate(&jobs, &grid, &mut EarliestCompletion, &cfg()).is_err());
    }

    #[test]
    fn oversized_job_rejected_up_front() {
        let grid = safe_grid();
        let jobs = vec![Job::builder(0).width(64).build().unwrap()];
        assert!(matches!(
            simulate(&jobs, &grid, &mut EarliestCompletion, &cfg()),
            Err(Error::NoFeasibleSite(0))
        ));
    }

    #[test]
    fn empty_workload_is_fine() {
        let grid = safe_grid();
        let out = simulate(&[], &grid, &mut EarliestCompletion, &cfg()).unwrap();
        assert_eq!(out.metrics.n_jobs, 0);
        assert_eq!(out.n_batches, 0);
    }

    #[test]
    fn horizon_guard_trips() {
        let grid = safe_grid();
        let jobs = vec![Job::builder(0).work(1e9).build().unwrap()];
        let mut config = cfg();
        config.max_horizon = Time::new(100.0);
        assert!(simulate(&jobs, &grid, &mut EarliestCompletion, &config).is_err());
    }

    /// Every event at an instant runs before the boundary at that instant:
    /// an attempt failing exactly on a boundary is rescheduled in it.
    #[test]
    fn a_failure_on_a_boundary_instant_joins_that_batch() {
        // Unsafe site 0 runs J0 in 10 s (MCT's pick at t = 10); the safe
        // site 1 takes 20 s. J1's arrival at 15 arms the boundary at 20.
        let grid = Grid::new(vec![
            Site::builder(0)
                .speed(1.0)
                .security_level(0.0)
                .build()
                .unwrap(),
            Site::builder(1)
                .speed(0.5)
                .security_level(1.0)
                .build()
                .unwrap(),
        ])
        .unwrap();
        let config = cfg()
            .with_lambda(1e6)
            .unwrap()
            .with_failure_detection(FailureDetection::AtEnd);
        let jobs = vec![
            Job::builder(0)
                .work(10.0)
                .security_demand(0.9)
                .build()
                .unwrap(),
            Job::builder(1)
                .arrival(Time::new(15.0))
                .work(1.0)
                .security_demand(0.0)
                .build()
                .unwrap(),
        ];
        let out = simulate(&jobs, &grid, &mut EarliestCompletion, &config).unwrap();
        assert_eq!(out.metrics.n_fail, 1);
        // J0 fails at 20 and restarts on site 1 at 20, not 30: done at 40.
        assert_eq!(out.metrics.makespan, Time::new(40.0));
        assert_eq!(out.n_batches, 2);
    }

    /// Same-instant arrivals all join the count-triggered batch their
    /// instant fires.
    #[test]
    fn same_instant_arrivals_share_one_count_triggered_batch() {
        let jobs: Vec<Job> = (0..3)
            .map(|i| {
                let job = Job::builder(i).arrival(Time::new(5.0)).work(10.0);
                job.security_demand(0.5).build().unwrap()
            })
            .collect();
        let config = cfg().with_batch_policy(BatchPolicy::CountTriggered(2));
        let out = simulate(&jobs, &safe_grid(), &mut EarliestCompletion, &config).unwrap();
        assert_eq!(out.n_batches, 1);
        assert_eq!(out.max_batch_size, 3);
    }

    #[test]
    fn utilization_accounts_failed_attempts() {
        let grid = Grid::new(vec![
            Site::builder(0)
                .nodes(1)
                .speed(1.0)
                .security_level(0.0)
                .build()
                .unwrap(),
            Site::builder(1)
                .nodes(1)
                .speed(0.1)
                .security_level(1.0)
                .build()
                .unwrap(),
        ])
        .unwrap();
        let config = SimConfig::default()
            .with_interval(Time::new(10.0))
            .with_lambda(1e6)
            .unwrap()
            .with_failure_detection(FailureDetection::AtEnd);
        let jobs = vec![Job::builder(0)
            .work(50.0)
            .security_demand(0.9)
            .build()
            .unwrap()];
        let out = simulate(&jobs, &grid, &mut EarliestCompletion, &config).unwrap();
        // The failed attempt burned 50 s on site 0.
        assert!(out.metrics.site_utilization[0] > 0.0);
    }

    #[test]
    fn sl_walk_changes_realised_risk() {
        // Start fully safe; the walk drags SL down until failures appear.
        let grid = Grid::new(vec![Site::builder(0)
            .nodes(2)
            .speed(1.0)
            .security_level(0.65)
            .build()
            .unwrap()])
        .unwrap();
        let jobs: Vec<Job> = (0..60)
            .map(|i| {
                Job::builder(i)
                    .arrival(Time::new(i as f64 * 20.0))
                    .work(30.0)
                    .security_demand(0.6)
                    .build()
                    .unwrap()
            })
            .collect();
        let static_out = simulate(&jobs, &grid, &mut EarliestCompletion, &cfg()).unwrap();
        assert_eq!(static_out.metrics.n_risk, 0);
        let config = cfg().with_sl_dynamics(crate::config::SlDynamics {
            period: Time::new(40.0),
            step: 0.2,
            min: 0.1,
            max: 0.7,
        });
        let walked = simulate(&jobs, &grid, &mut EarliestCompletion, &config).unwrap();
        assert_eq!(walked.metrics.n_jobs, 60);
        // With SL wandering in [0.1, 0.7] below the demand 0.6 at times,
        // some jobs must take risk.
        assert!(walked.metrics.n_risk > 0);
    }

    /// A scheduler that assigns every job to both sites, which the
    /// round refuses: a job runs once per round.
    struct ReplicateAll;

    impl BatchScheduler for ReplicateAll {
        fn name(&self) -> String {
            "ReplicateAll".into()
        }

        fn schedule(&mut self, batch: &[BatchJob], view: &GridView<'_>) -> BatchSchedule {
            let mut s = BatchSchedule::new();
            for bj in batch {
                for site in view.grid.sites() {
                    if site.fits_width(bj.job.width) {
                        s.push(bj.job.id, site.id);
                    }
                }
            }
            s
        }
    }

    #[test]
    fn replication_rejected_when_disabled() {
        let grid = safe_grid();
        let jobs = vec![Job::builder(0).work(10.0).build().unwrap()];
        let err = simulate(&jobs, &grid, &mut ReplicateAll, &cfg());
        assert!(err.is_err());
    }

    #[test]
    fn timeline_records_attempts_and_failures() {
        let grid = Grid::new(vec![
            Site::builder(0)
                .nodes(1)
                .speed(10.0)
                .security_level(0.0)
                .build()
                .unwrap(),
            Site::builder(1)
                .nodes(1)
                .speed(1.0)
                .security_level(1.0)
                .build()
                .unwrap(),
        ])
        .unwrap();
        let config = SimConfig::default()
            .with_interval(Time::new(10.0))
            .with_lambda(1e6)
            .unwrap()
            .with_timeline();
        let jobs = vec![Job::builder(0)
            .work(50.0)
            .security_demand(0.9)
            .build()
            .unwrap()];
        let out = simulate(&jobs, &grid, &mut EarliestCompletion, &config).unwrap();
        let tl = out.timeline.expect("timeline recorded");
        // One failed attempt on the unsafe site, one success on the safe.
        assert_eq!(tl.len(), 2);
        let history = tl.job_history(JobId(0));
        assert!(history[0].failed);
        assert!(!history[1].failed);
        assert_eq!(history[1].site, SiteId(1));
        // Without the flag, no timeline.
        let config = SimConfig::default()
            .with_interval(Time::new(10.0))
            .with_lambda(1e6)
            .unwrap();
        let out = simulate(&jobs, &grid, &mut EarliestCompletion, &config).unwrap();
        assert!(out.timeline.is_none());
    }

    #[test]
    fn duplicate_replica_site_rejected() {
        struct DoubleSameSite;
        impl BatchScheduler for DoubleSameSite {
            fn name(&self) -> String {
                "DoubleSameSite".into()
            }
            fn schedule(&mut self, batch: &[BatchJob], _view: &GridView<'_>) -> BatchSchedule {
                let mut s = BatchSchedule::new();
                for bj in batch {
                    s.push(bj.job.id, SiteId(0));
                    s.push(bj.job.id, SiteId(0));
                }
                s
            }
        }
        let grid = safe_grid();
        let jobs = vec![Job::builder(0).work(10.0).build().unwrap()];
        assert!(simulate(&jobs, &grid, &mut DoubleSameSite, &cfg()).is_err());
    }
}

//! Shipped scenario replay ≡ its referee.
//!
//! [`ScenarioRunner`] feeds a compiled stream to an `OnlineSession`;
//! [`RefereeRunner`] (`referee/mod.rs`) is the stand-alone runner it
//! replaced, with a round driver and a boundary clock of its own. Fed the
//! same stream they must agree bit for bit on the committed timeline,
//! every ledger counter, the rejected ids and the makespan — for MCT,
//! Min-Min and the STGA, under the periodic, count-triggered and hybrid
//! batch policies, on
//!
//! * `scenarios/churn.json`, which is also the one scenario
//!   `chaos_equivalence.rs` compiles (a test there pins that), whole and
//!   as its two `slice_for_shard` slices on the shard subgrids;
//! * 64 seeded random specs, each with a fault storm, a trust storm and a
//!   phase wider than every site (the typed rejections).
//!
//! With `chaos_equivalence.rs` (daemon ≡ referee) this closes the
//! triangle: the daemon, `gridsec chaos` and the referee replay one
//! stream to one timeline.

use gridsec_core::{Grid, Job, RiskMode, Site, Time};
use gridsec_heuristics::MinMin;
use gridsec_serve::{ScenarioOutcome, ScenarioRunner};
use gridsec_sim::scheduler::EarliestCompletion;
use gridsec_sim::{
    ArrivalPhase, ArrivalProcess, BatchPolicy, BatchScheduler, FaultSpec, Injection, InjectionKind,
    InjectionStream, Scenario, ShardPlan, SimConfig, TrustSpec,
};
use gridsec_stga::{GaParams, Stga, StgaParams};
use gridsec_workloads::GridSpec;

mod referee;
use referee::RefereeRunner;

const SCHEDULERS: [&str; 3] = ["mct", "minmin", "stga"];
const POLICIES: [BatchPolicy; 3] = [
    BatchPolicy::Periodic,
    BatchPolicy::CountTriggered(3),
    BatchPolicy::Hybrid(4),
];

fn build_scheduler(name: &str) -> Box<dyn BatchScheduler + Send> {
    match name {
        "mct" => Box::new(EarliestCompletion),
        "minmin" => Box::new(MinMin::new(RiskMode::Risky)),
        "stga" => Box::new(
            Stga::new(StgaParams {
                ga: GaParams::default()
                    .with_population(16)
                    .with_generations(8)
                    .with_seed(11),
                ..StgaParams::default()
            })
            .expect("valid STGA params"),
        ),
        other => panic!("unknown scheduler {other}"),
    }
}

/// Replays `stream` through both runners under every scheduler, compares
/// everything that is not wall-clock, and returns the last shipped outcome.
fn assert_replays_agree(
    label: &str,
    grid: &Grid,
    stream: &InjectionStream,
    config: &SimConfig,
) -> ScenarioOutcome {
    let mut last = None;
    for scheduler in SCHEDULERS {
        let shipped = ScenarioRunner::new(grid.clone(), build_scheduler(scheduler), config)
            .and_then(|r| r.run(stream))
            .unwrap_or_else(|e| panic!("{label}/{scheduler}: shipped replay failed: {e}"));
        let referee = RefereeRunner::new(grid.clone(), build_scheduler(scheduler), config)
            .and_then(|r| r.run(stream))
            .unwrap_or_else(|e| panic!("{label}/{scheduler}: referee replay failed: {e}"));
        assert_eq!(
            shipped.timeline, referee.timeline,
            "{label}/{scheduler}: timelines diverged"
        );
        let m = &shipped.metrics;
        assert_eq!(
            (
                shipped.jobs_generated,
                m.jobs_submitted,
                m.jobs_scheduled,
                m.jobs_requeued,
                m.pending,
                m.rounds,
                m.sites_failed,
                m.sites_rejoined,
            ),
            (
                referee.jobs_generated,
                referee.jobs_submitted,
                referee.jobs_scheduled,
                referee.jobs_requeued,
                referee.pending,
                referee.rounds,
                referee.sites_failed,
                referee.sites_rejoined,
            ),
            "{label}/{scheduler}: ledgers diverged"
        );
        assert_eq!(shipped.rejected, referee.rejected, "{label}/{scheduler}");
        assert_eq!(
            m.max_completion, referee.max_completion,
            "{label}/{scheduler}"
        );
        // The latencies are wall-clock; how many there are is not.
        assert_eq!(
            m.round_nanos_hist.count as usize,
            referee.round_nanos.len(),
            "{label}/{scheduler}: one latency sample per round"
        );
        assert!(shipped.fully_accounted(), "{label}/{scheduler}");
        last = Some(shipped);
    }
    last.expect("three schedulers ran")
}

#[derive(serde::Deserialize)]
struct ChurnSpec {
    grid: GridSpec,
    sim: SimConfig,
    scenario: Scenario,
}

fn churn_spec() -> (Grid, SimConfig, Scenario) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/churn.json");
    let text = std::fs::read_to_string(path).expect("scenarios/churn.json is checked in");
    let spec: ChurnSpec = serde_json::from_str(&text).expect("churn spec parses");
    (spec.grid.build().unwrap(), spec.sim, spec.scenario)
}

#[test]
fn churn_spec_replays_identically_whole_and_sliced() {
    let (grid, sim, scenario) = churn_spec();
    let stream = scenario.compile(&grid).unwrap();
    assert!(stream
        .events
        .iter()
        .any(|e| matches!(e.kind, InjectionKind::SiteFail(_))));
    let plan = ShardPlan::contiguous(&grid, 2).unwrap();
    for policy in POLICIES {
        let config = sim.clone().with_batch_policy(policy);
        assert_replays_agree(&format!("churn/{policy:?}"), &grid, &stream, &config);
        for k in 0..plan.n_shards() {
            let slice = stream.slice_for_shard(&plan, &grid, k);
            let sub = plan.subgrid(&grid, k).unwrap();
            assert!(slice.n_jobs() > 0);
            assert_replays_agree(
                &format!("churn/{policy:?}/shard {k} of 2"),
                &sub,
                &slice,
                &config,
            );
        }
    }
}

/// SplitMix64: enough of a generator to vary the specs below.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Uniform in `lo..=hi`.
    fn pick(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next() % u64::from(hi - lo + 1)) as u32
    }
}

fn random_spec(seed: u64) -> (Grid, SimConfig, Scenario) {
    let mut mix = Mix(seed);
    let n_sites = mix.pick(2, 5) as usize;
    let sites: Vec<Site> = (0..n_sites)
        .map(|i| {
            Site::builder(i)
                .nodes(mix.pick(1, 4))
                .speed(mix.range(0.5, 3.0))
                .security_level(mix.range(0.4, 1.0))
                .build()
                .unwrap()
        })
        .collect();
    let widest = sites.iter().map(|s| s.nodes).max().unwrap();
    let horizon = mix.range(150.0, 400.0);
    let phase = |mix: &mut Mix, tenant: &str, rate: f64, width_min: u32, width_max: u32| {
        let start = mix.range(0.0, horizon / 4.0);
        ArrivalPhase {
            tenant: tenant.into(),
            start,
            end: horizon,
            process: if mix.next().is_multiple_of(2) {
                ArrivalProcess::Poisson { rate }
            } else {
                ArrivalProcess::Pareto { rate, alpha: 1.6 }
            },
            width_min,
            width_max,
            work_min: 10.0,
            work_max: mix.range(40.0, 300.0),
            sd_min: 0.3,
            sd_max: 0.9,
        }
    };
    let rate = mix.range(0.05, 0.25);
    let scenario = Scenario {
        seed: mix.next(),
        arrivals: vec![
            phase(&mut mix, "fits", rate, 1, widest),
            phase(&mut mix, "too-wide", 0.02, widest + 1, widest + 2),
        ],
        faults: vec![FaultSpec::FaultStorm {
            start: 0.0,
            end: horizon,
            rate: mix.range(0.01, 0.05),
            mttr: mix.range(10.0, 80.0),
            sites: None,
        }],
        trust: vec![TrustSpec::TrustStorm {
            start: 0.0,
            end: horizon,
            rate: mix.range(0.01, 0.05),
            jitter: mix.range(0.05, 0.3),
        }],
        max_jobs: Some(40),
    };
    let config = SimConfig::default().with_interval(Time::new(mix.range(5.0, 40.0)));
    (Grid::new(sites).unwrap(), config, scenario)
}

#[test]
fn random_specs_replay_identically() {
    let (mut rejected, mut requeued, mut failed, mut rejoined) = (0, 0, 0, 0);
    for seed in 0..64u64 {
        let (grid, config, scenario) = random_spec(seed);
        let stream = scenario.compile(&grid).unwrap();
        for policy in POLICIES {
            let config = config.clone().with_batch_policy(policy);
            let out =
                assert_replays_agree(&format!("seed {seed}/{policy:?}"), &grid, &stream, &config);
            rejected += out.rejected.len();
            requeued += out.metrics.jobs_requeued;
            failed += out.metrics.sites_failed;
            rejoined += out.metrics.sites_rejoined;
        }
    }
    // The specs must reach what they are there to reach.
    assert!(rejected > 0, "no too-wide job was rejected");
    assert!(requeued > 0, "no site failed under a running job");
    assert!(failed > 0 && rejoined > 0, "no site churn");
}

/// Where the two are *meant* to differ, both on input `Scenario::compile`
/// and `slice_for_shard` never produce: the session keeps its
/// duplicate-id rule, and words the out-of-order error its own way.
#[test]
fn hand_built_streams_meet_the_session_rules() {
    let grid = Grid::new(vec![Site::builder(0).nodes(2).build().unwrap()]).unwrap();
    let config = SimConfig::default().with_interval(Time::new(10.0));
    let arrive = |id: u64, at: f64| Injection {
        at: Time::new(at),
        kind: InjectionKind::Arrive(
            Job::builder(id)
                .arrival(Time::new(at))
                .work(5.0)
                .build()
                .unwrap(),
        ),
    };
    let runners = || {
        (
            ScenarioRunner::new(grid.clone(), build_scheduler("mct"), &config).unwrap(),
            RefereeRunner::new(grid.clone(), build_scheduler("mct"), &config).unwrap(),
        )
    };

    let (mut shipped, mut referee) = runners();
    shipped.apply(&arrive(0, 1.0)).unwrap();
    referee.apply(&arrive(0, 1.0)).unwrap();
    let err = shipped.apply(&arrive(0, 2.0)).unwrap_err().to_string();
    assert!(err.contains("duplicate job id"), "{err}");
    referee.apply(&arrive(0, 2.0)).unwrap();

    let (mut shipped, mut referee) = runners();
    shipped.apply(&arrive(0, 5.0)).unwrap();
    referee.apply(&arrive(0, 5.0)).unwrap();
    let err = shipped.apply(&arrive(1, 4.0)).unwrap_err().to_string();
    assert!(err.contains("submit jobs in arrival order"), "{err}");
    let err = referee.apply(&arrive(1, 4.0)).unwrap_err().to_string();
    assert!(err.contains("the clock is already at"), "{err}");
}

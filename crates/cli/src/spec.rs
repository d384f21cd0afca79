//! JSON experiment specifications for the `gridsec` CLI.
//!
//! A spec file describes a full experiment: the workload (PSA, synthetic
//! NAS, or an SWF trace file), the scheduler roster, and the simulator
//! configuration. See `gridsec example-spec` for a starting point.

use gridsec_core::{Error, Grid, Job, Result, RiskMode, Site};
use gridsec_sim::{
    ArrivalPhase, ArrivalProcess, BatchScheduler, FaultSpec, Scenario, SimConfig, TrustSpec,
};
use gridsec_stga::{GaParams, SharedHistory, StandardGa, Stga, StgaParams};
use gridsec_workloads::{swf, GridSpec, NasConfig, PsaConfig};
use serde::{Deserialize, Serialize};

/// Workload selection.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum WorkloadSpec {
    /// The Table-1 parameter-sweep workload.
    Psa {
        /// PSA generator configuration (defaults = Table 1).
        #[serde(default)]
        config: PsaConfig,
    },
    /// The synthetic NAS iPSC/860 trace.
    Nas {
        /// NAS generator configuration (defaults = Table 1 and README.md,
        /// "Deviations from the paper").
        #[serde(default)]
        config: NasConfig,
    },
    /// A real trace in Standard Workload Format; runs on the NAS grid.
    Swf {
        /// Path to the `.swf` file.
        path: String,
        /// Conversion options (width folding, time squeeze, SD seed).
        #[serde(default)]
        convert: swf::ConvertOptions,
    },
}

impl WorkloadSpec {
    /// Materialises the workload: jobs plus the grid they run on.
    pub fn build(&self) -> Result<(Vec<Job>, Grid)> {
        match self {
            WorkloadSpec::Psa { config } => {
                let w = config.generate()?;
                Ok((w.jobs, w.grid))
            }
            WorkloadSpec::Nas { config } => {
                let w = config.generate()?;
                Ok((w.jobs, w.grid))
            }
            WorkloadSpec::Swf { path, convert } => {
                let text = std::fs::read_to_string(path).map_err(|e| {
                    Error::invalid("workload.path", format!("cannot read {path}: {e}"))
                })?;
                let records = swf::parse(&text)?;
                let jobs = swf::to_jobs(&records, convert)?;
                let grid = NasConfig::default().grid()?;
                Ok((jobs, grid))
            }
        }
    }
}

/// One scheduler to run.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "algorithm", rename_all = "snake_case")]
pub enum SchedulerSpec {
    /// Security-driven Min-Min.
    MinMin {
        /// Risk mode (`{"Secure"}`, `{"Risky"}` or `{"FRisky": 0.5}`).
        mode: RiskMode,
    },
    /// Security-driven Sufferage.
    Sufferage {
        /// Risk mode.
        mode: RiskMode,
    },
    /// Max-Min baseline.
    MaxMin {
        /// Risk mode.
        mode: RiskMode,
    },
    /// Minimum completion time (immediate mode).
    Mct {
        /// Risk mode.
        mode: RiskMode,
    },
    /// The Space-Time Genetic Algorithm.
    Stga {
        /// STGA parameters (defaults = Table 1).
        #[serde(default)]
        params: StgaParams,
        /// Training batch size (0 disables training).
        #[serde(default)]
        train_batch: usize,
    },
    /// The conventional GA baseline.
    Ga {
        /// GA parameters (defaults = Table 1).
        #[serde(default)]
        params: GaParams,
    },
}

impl SchedulerSpec {
    /// Instantiates the scheduler; `jobs`/`grid` are used for STGA
    /// training.
    pub fn build(&self, jobs: &[Job], grid: &Grid) -> Result<Box<dyn BatchScheduler>> {
        Ok(self.build_send(jobs, grid)?)
    }

    /// Whether this spec builds an STGA (the only scheduler with
    /// persistable state — its history table).
    pub fn is_stga(&self) -> bool {
        matches!(self, SchedulerSpec::Stga { .. })
    }

    /// Like [`SchedulerSpec::build_send`], but an STGA adopts `history`
    /// (a restored or shared table) instead of opening a fresh one —
    /// the serving daemon's restart path. Non-STGA schedulers ignore it.
    pub fn build_send_with_history(
        &self,
        jobs: &[Job],
        grid: &Grid,
        history: Option<SharedHistory>,
    ) -> Result<Box<dyn BatchScheduler + Send>> {
        if let (
            SchedulerSpec::Stga {
                params,
                train_batch,
            },
            Some(history),
        ) = (self, history)
        {
            let mut stga = Stga::with_history(*params, history);
            if *train_batch > 0 {
                stga.train(jobs, grid, *train_batch)?;
            }
            return Ok(Box::new(stga));
        }
        self.build_send(jobs, grid)
    }

    /// Like [`SchedulerSpec::build`], but `Send` — movable into the
    /// serving daemon's scheduling thread.
    pub fn build_send(&self, jobs: &[Job], grid: &Grid) -> Result<Box<dyn BatchScheduler + Send>> {
        use gridsec_heuristics as h;
        Ok(match self {
            SchedulerSpec::MinMin { mode } => Box::new(h::MinMin::new(*mode)),
            SchedulerSpec::Sufferage { mode } => Box::new(h::Sufferage::new(*mode)),
            SchedulerSpec::MaxMin { mode } => Box::new(h::MaxMin::new(*mode)),
            SchedulerSpec::Mct { mode } => Box::new(h::Mct::new(*mode)),
            SchedulerSpec::Stga {
                params,
                train_batch,
            } => {
                let mut stga = Stga::new(*params)?;
                if *train_batch > 0 {
                    stga.train(jobs, grid, *train_batch)?;
                }
                Box::new(stga)
            }
            SchedulerSpec::Ga { params } => Box::new(StandardGa::new(*params)?),
        })
    }
}

/// A complete experiment specification.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// The workload to run.
    pub workload: WorkloadSpec,
    /// Schedulers to compare (each gets a fresh simulation).
    pub schedulers: Vec<SchedulerSpec>,
    /// Simulator configuration.
    #[serde(default)]
    pub sim: SimConfig,
}

impl ExperimentSpec {
    /// Parses a spec from JSON text.
    pub fn from_json(text: &str) -> Result<ExperimentSpec> {
        serde_json::from_str(text)
            .map_err(|e| Error::invalid("spec", format!("invalid JSON spec: {e}")))
    }

    /// A ready-to-edit example spec.
    pub fn example() -> ExperimentSpec {
        ExperimentSpec {
            workload: WorkloadSpec::Psa {
                config: PsaConfig::default().with_n_jobs(500),
            },
            schedulers: vec![
                SchedulerSpec::MinMin {
                    mode: RiskMode::Secure,
                },
                SchedulerSpec::MinMin {
                    mode: RiskMode::FRisky(0.5),
                },
                SchedulerSpec::Sufferage {
                    mode: RiskMode::Risky,
                },
                SchedulerSpec::Stga {
                    params: StgaParams::default(),
                    train_batch: 8,
                },
            ],
            sim: SimConfig::default(),
        }
    }
}

/// A complete chaos-scenario specification: the grid under test, one
/// scheduler, the batching configuration, and the injection program
/// itself. `gridsec chaos` replays it in process; the serve crate's
/// `chaos_equivalence` suite feeds the same stream to a daemon.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// The grid the scenario runs on.
    pub grid: GridSpec,
    /// The scheduler under test.
    pub scheduler: SchedulerSpec,
    /// Simulator configuration (batch policy, interval, security model).
    #[serde(default)]
    pub sim: SimConfig,
    /// The scenario program: arrivals, faults, trust dynamics.
    pub scenario: Scenario,
}

impl ScenarioSpec {
    /// Parses a scenario spec from JSON text.
    pub fn from_json(text: &str) -> Result<ScenarioSpec> {
        serde_json::from_str(text)
            .map_err(|e| Error::invalid("scenario spec", format!("invalid JSON spec: {e}")))
    }

    /// A ready-to-edit churn example: two tenants (one heavy-tailed, one
    /// steady), an explicit outage with rejoin, a fault storm, a trust
    /// re-rate and a trust storm — every injection kind the engine knows.
    pub fn example() -> ScenarioSpec {
        let sites = [(2u32, 1.0), (4, 2.0), (2, 1.5), (4, 1.0)]
            .iter()
            .enumerate()
            .map(|(i, &(nodes, speed))| {
                Site::builder(i)
                    .nodes(nodes)
                    .speed(speed)
                    .security_level(0.95)
                    .build()
                    .expect("example sites are valid")
            })
            .collect();
        ScenarioSpec {
            grid: GridSpec::Sites { sites },
            scheduler: SchedulerSpec::MinMin {
                mode: RiskMode::Risky,
            },
            sim: SimConfig::default().with_interval(gridsec_core::Time::new(30.0)),
            scenario: Scenario {
                seed: 4242,
                arrivals: vec![
                    ArrivalPhase {
                        tenant: "batch".into(),
                        start: 0.0,
                        end: 400.0,
                        process: ArrivalProcess::Poisson { rate: 0.08 },
                        width_min: 1,
                        width_max: 2,
                        work_min: 50.0,
                        work_max: 400.0,
                        sd_min: 0.3,
                        sd_max: 0.6,
                    },
                    ArrivalPhase {
                        tenant: "bursty".into(),
                        start: 100.0,
                        end: 300.0,
                        process: ArrivalProcess::Pareto {
                            rate: 0.05,
                            alpha: 1.5,
                        },
                        width_min: 1,
                        width_max: 4,
                        work_min: 20.0,
                        work_max: 150.0,
                        sd_min: 0.3,
                        sd_max: 0.5,
                    },
                ],
                faults: vec![
                    FaultSpec::SiteDown {
                        site: 1,
                        at: 120.0,
                        until: Some(260.0),
                    },
                    FaultSpec::FaultStorm {
                        start: 150.0,
                        end: 350.0,
                        rate: 0.01,
                        mttr: 60.0,
                        sites: None,
                    },
                ],
                trust: vec![
                    TrustSpec::ReRate {
                        at: 180.0,
                        levels: vec![0.9; 4],
                    },
                    TrustSpec::TrustStorm {
                        start: 50.0,
                        end: 380.0,
                        rate: 0.02,
                        jitter: 0.1,
                    },
                ],
                max_jobs: Some(48),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_spec_roundtrips() {
        let spec = ExperimentSpec::example();
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back = ExperimentSpec::from_json(&json).unwrap();
        assert_eq!(back.schedulers.len(), 4);
        let (jobs, grid) = back.workload.build().unwrap();
        assert_eq!(jobs.len(), 500);
        assert_eq!(grid.len(), 20);
    }

    #[test]
    fn schedulers_instantiate() {
        let spec = ExperimentSpec::example();
        let (jobs, grid) = spec.workload.build().unwrap();
        for s in &spec.schedulers {
            let b = s.build(&jobs[..50], &grid).unwrap();
            assert!(!b.name().is_empty());
        }
    }

    #[test]
    fn bad_json_is_an_error() {
        assert!(ExperimentSpec::from_json("{").is_err());
        assert!(ExperimentSpec::from_json("{\"workload\": 5}").is_err());
    }

    #[test]
    fn scenario_spec_roundtrips_and_compiles() {
        let spec = ScenarioSpec::example();
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back = ScenarioSpec::from_json(&json).unwrap();
        let grid = back.grid.build().unwrap();
        assert_eq!(grid.len(), 4);
        let stream = back.scenario.compile(&grid).unwrap();
        assert!(stream.n_jobs() > 0);
        // The compiled stream is a pure function of (spec, grid).
        let again = spec.scenario.compile(&grid).unwrap();
        assert_eq!(stream.events.len(), again.events.len());
    }

    #[test]
    fn scenario_grid_kinds_build() {
        for grid in [
            GridSpec::Psa {
                config: PsaConfig::default(),
            },
            GridSpec::Nas {
                config: NasConfig::default(),
            },
        ] {
            assert!(grid.build().unwrap().len() >= 12);
        }
        assert!(ScenarioSpec::from_json("{\"grid\": 5}").is_err());
    }

    #[test]
    fn nas_spec_builds() {
        let spec = ExperimentSpec {
            workload: WorkloadSpec::Nas {
                config: NasConfig::default().with_n_jobs(100),
            },
            schedulers: vec![SchedulerSpec::Mct {
                mode: RiskMode::Risky,
            }],
            sim: SimConfig::default(),
        };
        let (jobs, grid) = spec.workload.build().unwrap();
        assert_eq!(jobs.len(), 100);
        assert_eq!(grid.len(), 12);
    }
}

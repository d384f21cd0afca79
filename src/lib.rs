//! # gridsec
//!
//! Security-driven Grid job scheduling: a full reproduction of *Song,
//! Kwok & Hwang, "Security-Driven Heuristics and A Fast Genetic Algorithm
//! for Trusted Grid Job Scheduling", IPDPS 2005* — the security/failure
//! model, the three risk modes, the security-driven Min-Min and Sufferage
//! heuristics, the Space-Time Genetic Algorithm (STGA), the NAS and PSA
//! benchmark workloads, and a discrete-event grid simulator tying them
//! together.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`core`] ([`gridsec_core`]) — jobs, sites, grids, security model,
//!   ETC matrices, schedules, metrics.
//! * [`sim`] ([`gridsec_sim`]) — the on-line batch-scheduling simulator,
//!   the round driver, and the chaos scenario spec and its compiler.
//! * [`workloads`] ([`gridsec_workloads`]) — NAS/PSA generators, SWF I/O.
//! * [`heuristics`] ([`gridsec_heuristics`]) — Min-Min, Sufferage, Max-Min
//!   and MCT, all risk-mode aware.
//! * [`stga`] ([`gridsec_stga`]) — the GA engine, the history table and
//!   the STGA scheduler.
//! * [`serve`] ([`gridsec_serve`]) — the online scheduling daemon (NDJSON
//!   wire protocol over TCP), its session core, and the scenario runner
//!   that replays a compiled chaos stream through one session.
//!
//! Not re-exported: `gridsec-bench` (`crates/bench`), whose `paper` binary
//! regenerates the paper's figures and tables and prints which of its
//! claims this tree reproduces, and `gridsec-cli`.
//!
//! ## Quickstart
//!
//! ```
//! use gridsec::prelude::*;
//!
//! // A tiny PSA-style workload and grid.
//! let workload = PsaConfig::default().with_n_jobs(50).generate().unwrap();
//!
//! // Schedule it with the security-driven Min-Min under the paper's
//! // f-risky mode (f = 0.5).
//! let mut scheduler = MinMin::new(RiskMode::FRisky(0.5));
//! let config = SimConfig::default();
//! let out = simulate(&workload.jobs, &workload.grid, &mut scheduler, &config).unwrap();
//! assert_eq!(out.metrics.n_jobs, 50);
//! assert!(out.metrics.slowdown_ratio >= 1.0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use gridsec_core as core;
pub use gridsec_heuristics as heuristics;
pub use gridsec_obs as obs;
pub use gridsec_serve as serve;
pub use gridsec_sim as sim;
pub use gridsec_stga as stga;
pub use gridsec_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use gridsec_core::{
        BatchSchedule, EtcMatrix, FailureDetection, Grid, Job, JobId, RiskMode, SecurityModel,
        Site, SiteId, Time,
    };
    pub use gridsec_heuristics::{MaxMin, Mct, MinMin, Sufferage};
    pub use gridsec_sim::{
        simulate, BatchJob, BatchPolicy, BatchScheduler, GridView, SimConfig, SimOutput, SlDynamics,
    };
    pub use gridsec_stga::{GaParams, StandardGa, Stga, StgaParams};
    pub use gridsec_workloads::{NasConfig, PsaConfig, SecurityParams};
}

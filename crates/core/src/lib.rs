//! # gridsec-core
//!
//! Core model types for security-driven Grid job scheduling, reproducing the
//! system model of *Song, Kwok & Hwang, "Security-Driven Heuristics and A
//! Fast Genetic Algorithm for Trusted Grid Job Scheduling", IPDPS 2005*.
//!
//! This crate defines the vocabulary shared by every other `gridsec` crate:
//!
//! * [`Job`] — an atomic, non-malleable unit of work with an arrival time,
//!   node width, reference workload and a **security demand** `SD`.
//! * [`Site`] / [`Grid`] — heterogeneous multi-node resource sites, each
//!   advertising a **security level** `SL` and a relative speed.
//! * [`SecurityModel`] — the exponential failure law of the paper's Eq. (1):
//!   `P(fail) = 1 − exp(−λ·(SD − SL))` when `SD > SL`, else `0`.
//! * [`RiskMode`] — the three operating modes (*secure*, *risky*,
//!   *f-risky*) that gate which sites a scheduler may use for a job.
//! * [`EtcMatrix`] — Expected-Time-to-Compute matrices as used by the
//!   batch-mode mapping heuristics of Braun et al. and Maheswaran et al.
//! * [`BatchSchedule`] — a job→site assignment for one scheduling round.
//! * [`metrics`] — the exact performance metrics of the paper's §4.1
//!   (makespan, average response time, slowdown ratio Eq. (3), `N_risk`,
//!   `N_fail`, per-site utilisation).
//!
//! Everything is deterministic given a seed; see [`rng`].

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod error;
pub mod etc;
pub mod grid;
pub mod job;
pub mod metrics;
pub mod rng;
pub mod schedule;
pub mod security;
pub mod site;
pub mod stats;
pub mod time;

pub use error::{Error, Result};
pub use etc::EtcMatrix;
pub use grid::Grid;
pub use job::{Job, JobBuilder, JobId};
pub use schedule::{Assignment, BatchSchedule, ScheduleIndex};
pub use security::{FailureDetection, RiskMode, SecurityModel};
pub use site::{Site, SiteBuilder, SiteId};
pub use time::Time;

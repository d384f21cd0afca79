//! # gridsec-sim
//!
//! Discrete-event simulator for the paper's on-line batch scheduling system
//! (Fig. 1): jobs arrive continuously, accumulate in a queue, and at
//! periodic *batch boundaries* a pluggable [`BatchScheduler`] maps the
//! accumulated batch onto the Grid. Dispatched jobs occupy site nodes for
//! their execution time; jobs sent to sites whose security level is below
//! the job's demand may **fail** (Eq. 1), in which case they restart from
//! scratch and are re-scheduled with a *secure-only* constraint.
//!
//! The loop itself — when a boundary fires ([`BoundaryClock`]), what a
//! round does with the pending queue, and how an attempt commits
//! ([`RoundDriver`]) — is the [`round`] core, which the [`Simulator`] and
//! `gridsec-serve`'s online session both drive: the simulator from its
//! event queue of arrivals, attempt ends and SL-walk steps, the session
//! from submitted frames. The simulator and the scheduling heuristics
//! share the [`NodeAvailability`](gridsec_core::etc::NodeAvailability)
//! reservation model, so heuristic completion-time estimates agree
//! exactly with simulated execution (in the absence of failures).
//!
//! ```
//! use gridsec_core::{Grid, Job, Site, Time};
//! use gridsec_sim::{simulate, SimConfig};
//! use gridsec_sim::scheduler::EarliestCompletion;
//!
//! let grid = Grid::new(vec![
//!     Site::builder(0).nodes(2).security_level(0.95).build().unwrap(),
//! ]).unwrap();
//! let jobs = vec![Job::builder(0).work(100.0).security_demand(0.7).build().unwrap()];
//! let out = simulate(&jobs, &grid, &mut EarliestCompletion::default(), &SimConfig::default()).unwrap();
//! assert_eq!(out.metrics.n_jobs, 1);
//! assert_eq!(out.metrics.n_fail, 0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod config;
pub mod engine;
pub mod event;
pub mod report;
pub mod round;
pub mod scenario;
pub mod scheduler;
pub mod shard;
pub mod timeline;

pub use config::{BatchPolicy, SimConfig, SlDynamics};
pub use engine::{simulate, Simulator};
pub use report::SimOutput;
pub use round::{BoundaryClock, CommittedAssignment, RoundDriver, RoundOutcome};
pub use scenario::{
    ArrivalPhase, ArrivalProcess, FaultSpec, Injection, InjectionKind, InjectionStream, Scenario,
    TrustSpec,
};
pub use scheduler::{BatchJob, BatchScheduler, GridView};
pub use shard::{Routing, ShardPlan};
pub use timeline::{AttemptSpan, Timeline};

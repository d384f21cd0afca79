//! # gridsec-serve
//!
//! The serving layer: the paper's STGA is an *online batch-mode*
//! scheduler — jobs arrive continuously, accumulate into batches, and
//! every scheduling round races a real-time deadline — and this crate
//! turns the in-process simulation stack into an actual daemon.
//!
//! * [`protocol`] — the NDJSON wire protocol (line-delimited JSON frames:
//!   `submit`, `query`, `reconfigure`, `drain`, `shutdown`, all
//!   shard-aware) and the one bounded, incremental line decoder.
//! * [`OnlineSession`] — the single-threaded scheduling core: the round
//!   core the discrete-event engine drives too (a
//!   [`RoundDriver`](gridsec_sim::RoundDriver) and a
//!   [`BoundaryClock`](gridsec_sim::BoundaryClock)), fed submitted frames
//!   instead of simulated events, keeping the scheduler — GA population
//!   pool, STGA history table, scratch buffers — alive across rounds.
//! * [`replay`] — [`ScenarioRunner`]: a compiled chaos
//!   [`InjectionStream`](gridsec_sim::InjectionStream) fed to one
//!   session, injection by injection (`gridsec chaos`). The
//!   `replay_referee` suite holds it to the stand-alone runner it
//!   replaced (`tests/referee/`), the `chaos_equivalence` suite holds the
//!   daemon to the same referee.
//! * [`shard`] — multi-tenant sharding: one session + scheduling thread
//!   per site-disjoint grid shard
//!   ([`ShardPlan`](gridsec_sim::ShardPlan)), with bounded-queue
//!   backpressure. What the shard's scheduler learned
//!   ([`OnlineSession::snapshot`]) follows the shard across topologies
//!   and — under [`DaemonOptions::state_prefix`] — restarts. The
//!   `sharding_equivalence` suite proves a 1-shard daemon bit-identical
//!   to the engine and an N-shard daemon bit-identical to N independent
//!   single-shard daemons.
//! * [`Daemon`] — one constructor, [`Daemon::spawn`], over a grid, a
//!   plan, a [`SimConfig`](gridsec_sim::SimConfig) and a
//!   [`SessionFactory`]: the factory picks every shard's scheduler and
//!   the daemon restores the session around it, at boot and at each
//!   reshard. The TCP front end is a small pool of epoll-driven I/O
//!   threads multiplexing every client socket (C10k-ready — the thread
//!   count is fixed, not per-connection). Each I/O thread decodes NDJSON
//!   frames, routes `submit` frames against a shared routing-table
//!   snapshot straight onto lock-free per-shard queues (the only way a
//!   job reaches a shard; one that cannot be pushed yet waits parked on
//!   its connection), and releases responses in request order from a
//!   bounded per-connection write buffer; a single router thread
//!   serialises the rest (reshard, drain, shutdown, chaos, scrape).
//!   [`ClockMode::Virtual`] serves deterministic replays (bit-identical
//!   to the simulator — see the golden cross-check test);
//!   [`ClockMode::WallClock`] serves real time.
//! * [`reshard`] — elastic topology: a `reshard` frame (or the
//!   autoscaler, [`DaemonOptions::autoscale`]) moves a live daemon to a
//!   new [`ShardPlan`](gridsec_sim::ShardPlan) at a drain barrier.
//!   Per-shard state — availability, pending queues, in-flight commits,
//!   duplicate-id sets, STGA history snapshots — is exported, split or
//!   merged by the pure [`transfer`] function, and restored by the daemon
//!   around schedulers the factory picks exactly as at boot; the
//!   `reshard_equivalence` suite proves the post-barrier schedule
//!   bit-identical to sessions restored directly on the new topology
//!   from the same state.
//! * [`Client`] — a minimal lock-step client for tests and examples.
//!
//! ```no_run
//! use gridsec_core::{Grid, Job, Site};
//! use gridsec_serve::{Client, Daemon, DaemonOptions, Request, Response, SessionFactory};
//! use gridsec_sim::scheduler::EarliestCompletion;
//! use gridsec_sim::{ShardPlan, SimConfig};
//!
//! let grid = Grid::new(vec![Site::builder(0).nodes(4).build().unwrap()]).unwrap();
//! // One shard over the whole grid; the factory picks a shard's scheduler
//! // (see `examples/online_service.rs` for one that carries an STGA
//! // history table) and the daemon restores the session around it.
//! let plan = ShardPlan::contiguous(&grid, 1).unwrap();
//! let factory: SessionFactory = Box::new(|_| Ok(Box::new(EarliestCompletion)));
//! let config = SimConfig::default();
//! let options = DaemonOptions::default();
//! let daemon = Daemon::spawn(grid, plan, config, factory, "127.0.0.1:0", options).unwrap();
//! let mut client = Client::connect(daemon.addr()).unwrap();
//! let job = Job::builder(0).work(100.0).build().unwrap();
//! client.send(&Request::Submit { jobs: vec![job], shard: None, tenant: None }).unwrap();
//! client.send(&Request::Drain).unwrap();
//! match client.send(&Request::Query { what: gridsec_serve::QueryWhat::Schedule, shard: None }).unwrap() {
//!     Response::Schedule { assignments } => assert_eq!(assignments.len(), 1),
//!     other => panic!("unexpected response {other:?}"),
//! }
//! client.send(&Request::Shutdown).unwrap();
//! daemon.join();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod client;
mod conn;
pub mod daemon;
mod exposition;
mod ids;
pub mod ledger;
pub mod protocol;
pub mod replay;
pub mod reshard;
mod router;
pub mod session;
pub mod shard;

pub use client::Client;
pub use daemon::{shard_state_path, ClockMode, Daemon, DaemonExit, DaemonOptions};
pub use ledger::Ledger;
pub use protocol::{
    Placed, QueryWhat, Request, Response, ServeMetrics, ShardInfo, ShardTelemetry, TelemetryReport,
    TenantWait, MAX_LINE_BYTES, METRICS_WINDOW,
};
pub use replay::{ScenarioOutcome, ScenarioRunner};
pub use reshard::{
    transfer, AutoscaleConfig, AutoscalePolicy, ReshardTransfer, SessionFactory, ShardBuildContext,
    ShardObservation, ShardSeed, ShardStateExport,
};
pub use session::{Admission, OnlineSession, SessionState};

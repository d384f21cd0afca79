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
//! * [`OnlineSession`] — the single-threaded scheduling core: a
//!   [`RoundDriver`](gridsec_sim::RoundDriver) (shared with the
//!   discrete-event engine) plus the engine's exact batch-boundary
//!   semantics on a virtual clock, keeping the scheduler — GA population
//!   pool, STGA history table, scratch buffers — alive across rounds.
//! * [`shard`] — multi-tenant sharding: one session + scheduling thread
//!   per site-disjoint grid shard
//!   ([`ShardPlan`](gridsec_sim::ShardPlan)), with optional per-shard
//!   state persistence ([`ShardPersistence`]) and bounded-queue
//!   backpressure. The `sharding_equivalence` suite proves a 1-shard
//!   daemon bit-identical to the engine and an N-shard daemon
//!   bit-identical to N independent single-shard daemons.
//! * [`Daemon`] — the TCP front end: a small pool of epoll-driven I/O
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
//!   autoscaler, [`AutoscalePolicy`]) moves a live daemon to a new
//!   [`ShardPlan`](gridsec_sim::ShardPlan) at a drain barrier. Per-shard
//!   state — availability, pending queues, in-flight commits,
//!   duplicate-id sets, STGA history snapshots — is exported, split or
//!   merged by the pure [`transfer`](reshard::transfer) function, and
//!   restored into factory-built sessions; the `reshard_equivalence`
//!   suite proves the post-barrier schedule bit-identical to a cluster
//!   booted directly on the new topology from the same state.
//! * [`Client`] — a minimal lock-step client for tests, examples and the
//!   `loadgen` harness.
//!
//! ```no_run
//! use gridsec_core::{Grid, Job, Site, Time};
//! use gridsec_serve::{Client, Daemon, DaemonOptions, OnlineSession, Request, Response};
//! use gridsec_sim::scheduler::EarliestCompletion;
//! use gridsec_sim::SimConfig;
//!
//! let grid = Grid::new(vec![Site::builder(0).nodes(4).build().unwrap()]).unwrap();
//! let session = OnlineSession::new(
//!     grid,
//!     Box::new(EarliestCompletion),
//!     &SimConfig::default(),
//! ).unwrap();
//! let daemon = Daemon::spawn(session, "127.0.0.1:0", DaemonOptions::default()).unwrap();
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

mod conn;
pub mod daemon;
pub mod protocol;
pub mod reshard;
pub mod session;
pub mod shard;

pub use daemon::{shard_state_path, Client, ClockMode, Daemon, DaemonOptions};
pub use protocol::{
    Placed, QueryWhat, Request, Response, ServeMetrics, ShardInfo, ShardTelemetry, TelemetryReport,
    TenantWait, MAX_LINE_BYTES, METRICS_WINDOW,
};
pub use reshard::{
    transfer, AutoscaleConfig, AutoscalePolicy, ReshardTransfer, SessionFactory, ShardBuildContext,
    ShardObservation, ShardSeed, ShardStateExport,
};
pub use session::{Admission, OnlineSession, SessionState};
pub use shard::{ShardPersistence, ShardSpec};

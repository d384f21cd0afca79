//! The `gridsec-serve` TCP daemon: its options, how it boots, the threads
//! it spawns and how it is joined. (What the threads do lives beside
//! them: the I/O loops in the private `conn` module, the control plane
//! in `router`, a scheduling thread in [`shard`](crate::shard).)
//!
//! Thread model (a few I/O threads multiplexing *all* client sockets,
//! one scheduling thread *per shard*, one router for everything that is
//! not a submit):
//!
//! ```text
//!  10k clients ──► epoll I/O threads ──────submits────────► lock-free ┌─► shard 0 thread
//!        (accept ▪ nonblocking read  ──────────────────►  per-shard  ├─► shard 1 thread
//!         frame decode ▪ routing     ┐                    queues     └─► shard 2 thread
//!         seq-ordered write buffers) │                                     ▲  │
//!                 ▲                  └─► ingest ─► router ── ask(closure) ─┘  │ result
//!                 └───── one response per frame ── (query ▪ reconfigure ▪ ◄───┘
//!                                                   fail/rejoin ▪ drain ▪ reshard ▪
//!                                                   shutdown ▪ scrape ▪ autoscale)
//! ```
//!
//! Connections are **event-driven** (the private `conn` module): a small pool of
//! I/O threads owns every client socket through a vendored epoll wrapper,
//! decodes NDJSON frames, and releases responses **in request order**
//! from a bounded per-connection buffer (replies may arrive from
//! different threads). There is one way for a job to reach a shard:
//! the I/O thread routes a `submit` against the shared
//! routing-table snapshot and pushes it
//! onto the owning shard's lock-free bounded queue; a submit that cannot
//! be pushed yet waits *parked on its connection*, and the shard thread
//! answers it. There is one way for anything else to: every control
//! frame — scoped to a shard or grid-wide — flows through the single
//! *router* thread, which runs a closure on the shards the frame names,
//! combines their results and answers the client itself. Control always
//! goes router → shards → router: a shard never holds a client's reply
//! handle for a control frame, so a shard thread that dies cannot take a
//! frame's answer with it (the router reads the dropped closure as
//! `shard_down`). The router never sees a submit. Each shard thread owns an
//! [`OnlineSession`] over its subgrid — the GA population pool, the STGA
//! history table and the availability model live there untouched across
//! rounds. A client disconnecting mid-round just drops its connection;
//! scheduling continues.
//!
//! **Three kinds of thread.** A scrape and an autoscaler sample are
//! router events: the metrics listener is on I/O thread 0's poller, and
//! the router's wait on its queue times out when a sample is due.
//!
//! **One way to build a shard.** [`Daemon::spawn`] takes the grid, a
//! [`ShardPlan`], a [`SimConfig`] and a [`SessionFactory`], and that
//! factory is the only description of a shard the daemon ever uses: boot
//! is a reshard from nothing. At start-up a shard's seed is
//! [`SessionState::fresh`] plus its state file, if
//! [`DaemonOptions::state_prefix`] names one; at a `reshard` frame (or an
//! autoscaler decision) the router drains every shard to a barrier,
//! exports their state and redistributes it with
//! [`transfer`](crate::transfer). Either way the seeds go through the
//! same `build_shards` step — the factory picks the scheduler, the daemon
//! restores the session — and the same thread spawn.
//! Submits that arrive during the barrier wait parked on their
//! connections and are routed under the new plan, so clients pipelined
//! across the swap observe nothing but in-order responses; counters and
//! committed schedules of retired shards are archived on the router so
//! aggregated queries stay cumulative.

use crate::conn::{build_io, DirectPath, IoLoop, IoShared, ReplyHandle, RoutingTable};
use crate::ledger::Ledger;
use crate::protocol::{Request, ServeMetrics, MAX_LINE_BYTES};
use crate::reshard::{build_shards, AutoscaleConfig, AutoscalePolicy, SessionFactory, ShardSeed};
use crate::router::{direct_shards, Router};
use crate::session::{OnlineSession, SessionState};
use crate::shard::{ShardMsg, ShardRuntime, SubmitDrain, SubmitQueue};
use gridsec_core::Grid;
use gridsec_obs::Histogram;
use gridsec_sim::{ShardPlan, SimConfig};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the daemon advances its clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Arrivals drive the clock: jobs carry their own arrival stamps
    /// (non-decreasing per shard), and timeout boundaries fire when a
    /// later submission or an explicit `drain` moves time past them.
    /// Fully deterministic — the mode behind the golden cross-check and
    /// the sharding-, chaos- and reshard-equivalence suites.
    #[default]
    Virtual,
    /// The daemon stamps arrivals from its own monotonic clock and fires
    /// timeout boundaries in real time (`1 s` of simulated interval =
    /// `1 s` of wall clock). The live-serving mode. All shards share one
    /// clock origin.
    WallClock,
}

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// Cap on one frame line, bytes (default [`MAX_LINE_BYTES`]).
    pub max_line_bytes: usize,
    /// Clock mode (default [`ClockMode::Virtual`]).
    pub clock: ClockMode,
    /// Bound on each shard's pending queue (default `None` = unbounded).
    /// When a shard's queue sits at the bound even after every due round
    /// has run, further submits get a typed `busy` frame instead of
    /// being enqueued — nothing is dropped silently.
    pub max_pending: Option<usize>,
    /// Bind address for a plaintext TCP metrics listener (default
    /// `None` = no listener). Every accepted connection receives one
    /// Prometheus-style text exposition of the aggregated metrics and
    /// is closed — `nc host port` or any Prometheus scraper works.
    /// Use port 0 for an ephemeral port ([`Daemon::metrics_addr`]).
    /// Served by I/O thread 0: a scraper that never reads holds one
    /// connection, reaped by [`idle_timeout`](Self::idle_timeout) like
    /// any client's (a scrape does not count as one).
    pub metrics_addr: Option<String>,
    /// Path prefix of the per-shard state files ([`shard_state_path`]).
    /// When set, shard `k`'s file is read at boot and handed to the
    /// factory as its one `history_sources` entry; a shard whose session
    /// has an [`OnlineSession::snapshot`] writes it back when it stops; and
    /// a reshard that shrinks the shard count removes the retired shards'
    /// files after the swap — their state lives on in the surviving
    /// shards, so a later restart must not resurrect it.
    pub state_prefix: Option<PathBuf>,
    /// Where to dump the flight recorder (NDJSON, one event per line)
    /// when a reshard is rejected (default `None` = no dump).
    pub flight_dump: Option<PathBuf>,
    /// Number of I/O threads multiplexing the client sockets
    /// (default `0` = derive a small pool from the machine's
    /// parallelism). Connection count is unrelated: one thread holds
    /// thousands of connections.
    pub io_threads: usize,
    /// Bound on one connection's buffered response bytes (unwritten
    /// socket buffer + replies still held for sequence reordering).
    /// A client that pipelines requests but stops reading its responses
    /// is disconnected when it crosses the bound, instead of growing the
    /// daemon's memory without limit.
    pub max_write_buffer: usize,
    /// Reap connections with no socket activity for this long (default
    /// `None` = never). The defence against half-open peers: a client
    /// that vanishes without FIN/RST never produces a readiness event,
    /// so only a timeout can reclaim its connection state.
    pub idle_timeout: Option<Duration>,
    /// When set, the router samples the shards every
    /// [`AutoscaleConfig::interval`] and splits hot shards and merges cold
    /// ones on its own (default `None`: only `reshard` frames do).
    pub autoscale: Option<AutoscaleConfig>,
}

/// Default [`DaemonOptions::max_write_buffer`]: 8 MiB, far above any
/// normal response backlog but small enough that a few thousand stuck
/// clients cannot exhaust memory.
pub const MAX_WRITE_BUFFER: usize = 8 << 20;

impl Default for DaemonOptions {
    fn default() -> Self {
        DaemonOptions {
            max_line_bytes: MAX_LINE_BYTES,
            clock: ClockMode::Virtual,
            max_pending: None,
            metrics_addr: None,
            state_prefix: None,
            flight_dump: None,
            io_threads: 0,
            max_write_buffer: MAX_WRITE_BUFFER,
            idle_timeout: None,
            autoscale: None,
        }
    }
}

/// Resolves [`DaemonOptions::io_threads`]: an explicit count wins; auto
/// uses half the available parallelism, clamped to `1..=4` (I/O threads
/// multiplex, they do not need a core each).
fn resolve_io_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    (avail / 2).clamp(1, 4)
}

/// The state file for shard `k` under `prefix`:
/// `<prefix>.shard<k>.json` (appended, so a dot in the prefix's file name
/// survives). The boot-time read, the write when a shard stops and the
/// reshard garbage-collector all come here, so they cannot disagree.
pub fn shard_state_path(prefix: &Path, shard: usize) -> PathBuf {
    let mut s = prefix.as_os_str().to_os_string();
    s.push(format!(".shard{shard}.json"));
    PathBuf::from(s)
}

/// One response line bound for a client connection. `seq` is the
/// per-client request sequence number — the connection's I/O thread
/// releases lines in `seq` order, so pipelined requests answered by
/// different shard threads still come back in request order. `flushed`,
/// when present, is signalled after the line hits the socket — the
/// shutdown path waits on it so the final `bye` cannot be lost to
/// process exit.
pub(crate) struct Reply {
    pub(crate) seq: u64,
    pub(crate) line: String,
    pub(crate) flushed: Option<Sender<()>>,
}

/// What the I/O threads hand the router: one parsed control frame
/// (anything but a `submit`), tagged with its reply handle and
/// per-client sequence number. (Submits go straight to the shard queues
/// and malformed frames are answered on the I/O threads; neither reaches
/// this queue.)
pub(crate) enum IngestEvent {
    Frame(Request, ReplyHandle, u64),
    /// A metrics-listener connection wants one text exposition, as its
    /// reply `seq` 0. Routed through the ingest queue so the scrape sees a
    /// consistent (router-serialised) view of the plan and archives.
    Scrape(ReplyHandle),
}

/// A running daemon: the I/O thread pool (which also owns the accept
/// path) and the router (which in turn owns the per-shard scheduling
/// threads — they must be respawnable on a reshard, so their handles
/// live with the plan).
pub struct Daemon {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    io: Vec<JoinHandle<()>>,
    router: JoinHandle<()>,
    shared: Arc<IoShared>,
}

impl Daemon {
    /// Builds every shard of `plan`, binds `bind` (e.g. `"127.0.0.1:0"`
    /// for an ephemeral port) and starts serving `grid` — one scheduling
    /// thread per shard. Returns once the listener is live; use
    /// [`Daemon::addr`] to learn the bound address and [`Daemon::join`]
    /// to wait for a `shutdown` frame.
    ///
    /// `factory` picks each shard's scheduler; the daemon restores the
    /// shard's [`OnlineSession`] around it over
    /// [`ShardPlan::subgrid`]`(grid, k)` with `config` (batch policy,
    /// interval, security model). Both run here, before any thread is
    /// spawned or socket bound: a factory or restore that fails, or an
    /// unreadable state file, is an `Err` naming the shard with nothing
    /// left running. The daemon keeps the factory and `config` for every
    /// plan it is later resharded to. An [`DaemonOptions::autoscale`]
    /// that [`AutoscalePolicy::new`] refuses is an `InvalidInput` naming
    /// the field, before the factory runs.
    pub fn spawn(
        grid: Grid,
        plan: ShardPlan,
        config: SimConfig,
        mut factory: SessionFactory,
        bind: &str,
        options: DaemonOptions,
    ) -> io::Result<Daemon> {
        if plan.n_sites() != grid.len() {
            return Err(invalid(format!(
                "plan covers {} sites but the grid has {}",
                plan.n_sites(),
                grid.len()
            )));
        }
        let autoscale = options.autoscale.map(AutoscalePolicy::new);
        let autoscale = autoscale.transpose().map_err(invalid)?;
        // Boot is a reshard from nothing.
        let prefix = options.state_prefix.as_deref();
        let seeds = boot_seeds(&grid, &plan, prefix)?;
        let built = build_shards(&grid, &plan, &config, seeds, &mut factory);
        let shards = built.map_err(|(k, message)| {
            // The factory does not know where its history source came
            // from; a file it choked on is named here.
            let state_file = prefix.map(|p| shard_state_path(p, k));
            invalid(match state_file.filter(|path| path.exists()) {
                Some(path) => format!("{message} (state file {})", path.display()),
                None => message,
            })
        })?;

        // The flight recorder is on for every daemon: instrumentation
        // is inert by construction (the equivalence suites run with it
        // enabled), and a `trace-dump` against a live daemon must see
        // history, not start recording on request.
        gridsec_obs::recorder::enable();

        let (listener, addr) = listen(bind)?;
        let metrics = options.metrics_addr.as_deref().map(listen).transpose()?;
        let metrics_addr = metrics.as_ref().map(|(_, addr)| *addr);
        let (ingest_tx, ingest_rx) = channel::<IngestEvent>();
        let start = Instant::now();

        let n_sites = grid.len();
        let grid = Arc::new(grid);
        let (shard_txs, direct_queues, shard_handles) =
            spawn_shard_threads(&plan, shards, &options, start);

        // The I/O thread pool, seeded with the initial routing table.
        let n_io = resolve_io_threads(options.io_threads);
        let table = RoutingTable {
            grid: Arc::clone(&grid),
            plan: Arc::new(plan.clone()),
            offline: Arc::new(vec![false; n_sites]),
            direct: DirectPath::Open(direct_shards(&shard_txs, &direct_queues)),
        };
        let (shared, wake_readers) = build_io(n_io, table)?;
        let mut io = Vec::with_capacity(n_io);
        let mut listeners = (Some(listener), metrics.map(|(l, _)| l));
        for (i, wake_rx) in wake_readers.into_iter().enumerate() {
            let io_loop = IoLoop::new(
                Arc::clone(&shared),
                wake_rx,
                listeners.0.take(),
                listeners.1.take(),
                ingest_tx.clone(),
                i,
                &options,
            )?;
            io.push(std::thread::spawn(move || io_loop.run()));
        }

        let router_state = Router {
            grid,
            plan,
            shard_txs,
            direct_queues,
            shard_handles,
            offline: vec![false; n_sites],
            start,
            config,
            factory,
            autoscale,
            options,
            archive_metrics: ServeMetrics::merge(&[]),
            archive_schedule: Ledger::new(),
            prev_round_hist: Vec::new(),
            reshard_barrier_nanos: Histogram::new(),
            reshard_migrated_jobs: Histogram::new(),
            frame_nanos: Histogram::new(),
            io: Arc::clone(&shared),
        };
        let router = {
            let stop = StopIo(Arc::clone(&shared));
            std::thread::spawn(move || {
                let _stop = stop; // dropped as the thread ends, unwinding or not
                router_state.run(ingest_rx);
            })
        };

        Ok(Daemon {
            addr,
            metrics_addr,
            io,
            router,
            shared,
        })
    }

    /// The bound address (query it when binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics listener's bound address, when
    /// [`DaemonOptions::metrics_addr`] was set.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Live client connections across every I/O thread.
    pub fn connections(&self) -> usize {
        self.shared.connections.load(Ordering::SeqCst)
    }

    /// Connections force-closed for exceeding the write-buffer bound
    /// (clients that pipelined requests but stopped reading responses).
    pub fn slow_disconnects(&self) -> usize {
        self.shared.slow_disconnects.load(Ordering::SeqCst)
    }

    /// Connections reaped by the idle sweep
    /// ([`DaemonOptions::idle_timeout`]).
    pub fn idle_reaped(&self) -> usize {
        self.shared.idle_reaped.load(Ordering::SeqCst)
    }

    /// Submit frames that waited parked on their connection, as
    /// `[fenced, sealed, full]` (`gridsec_submits_parked_total` on the
    /// exposition page, but readable while a shard is busy).
    pub fn submits_parked(&self) -> [usize; 3] {
        std::array::from_fn(|i| self.shared.parked[i].load(Ordering::SeqCst))
    }

    /// Blocks until a client sends `shutdown` and the daemon winds down:
    /// the router joins the shard threads, then the I/O threads are
    /// reaped. If the router thread panicked instead (a factory that
    /// panics while a reshard rebuilds the shards), the shards are
    /// stopped and joined all the same — each writes its state file — then
    /// the I/O threads stop, every connection closes, and the panic's
    /// message is returned.
    pub fn join(self) -> DaemonExit {
        let router = self.router.join();
        for h in self.io {
            let _ = h.join();
        }
        match router {
            Ok(()) => DaemonExit::Shutdown,
            Err(payload) => DaemonExit::RouterPanicked(match payload.downcast_ref::<&str>() {
                Some(s) => s.to_string(),
                None => (payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "no message".into()),
            }),
        }
    }
}

/// How a daemon ended ([`Daemon::join`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DaemonExit {
    /// A `shutdown` frame wound it down.
    Shutdown,
    /// The router thread panicked, with this message.
    RouterPanicked(String),
}

/// Stops and wakes the I/O threads when the router thread ends, whether
/// it returns or unwinds: a router panic must not leave them serving
/// connections nothing answers.
struct StopIo(Arc<IoShared>);

impl Drop for StopIo {
    fn drop(&mut self) {
        self.0.stop.store(true, Ordering::SeqCst);
        self.0.wake_all(); // I/O threads observe stop and exit
    }
}

/// Binds a listener for I/O thread 0's poller: nonblocking, and its
/// address (to learn an ephemeral port).
fn listen(bind: &str) -> io::Result<(TcpListener, SocketAddr)> {
    let listener = TcpListener::bind(bind)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    Ok((listener, addr))
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, message)
}

/// The seeds a daemon boots from: per shard a session that has never
/// served, and the shard's state file — when `prefix` is set and the file
/// exists — as its one history source.
fn boot_seeds(grid: &Grid, plan: &ShardPlan, prefix: Option<&Path>) -> io::Result<Vec<ShardSeed>> {
    let mut seeds = Vec::with_capacity(plan.n_shards());
    for k in 0..plan.n_shards() {
        let subgrid = plan.subgrid(grid, k).map_err(|e| invalid(e.to_string()))?;
        let mut history_sources = Vec::new();
        if let Some(path) = prefix.map(|p| shard_state_path(p, k)) {
            match std::fs::read_to_string(&path) {
                Ok(text) => history_sources.push(text),
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => {
                    let msg = format!("shard {k}: cannot read state file {}: {e}", path.display());
                    return Err(io::Error::new(e.kind(), msg));
                }
            }
        }
        seeds.push(ShardSeed {
            shard: k,
            state: SessionState::fresh(&subgrid),
            history_sources,
        });
    }
    Ok(seeds)
}

/// Spawns one scheduling thread per shard session; shard `k` serves
/// `plan.sites_of(k)`. Each shard also gets the bounded queue its
/// submits arrive on, drained by the shard thread ahead of every control
/// message. Shared by daemon startup and the reshard swap.
#[allow(clippy::type_complexity)]
pub(crate) fn spawn_shard_threads(
    plan: &ShardPlan,
    sessions: Vec<OnlineSession>,
    options: &DaemonOptions,
    start: Instant,
) -> (
    Vec<Sender<ShardMsg>>,
    Vec<Arc<SubmitQueue>>,
    Vec<JoinHandle<()>>,
) {
    let mut shard_txs = Vec::with_capacity(sessions.len());
    let mut direct_queues = Vec::with_capacity(sessions.len());
    let mut shard_handles = Vec::with_capacity(sessions.len());
    for (k, session) in sessions.into_iter().enumerate() {
        let (tx, rx) = channel::<ShardMsg>();
        let direct = Arc::new(SubmitQueue::new());
        let runtime = ShardRuntime {
            shard: k,
            session,
            global_sites: plan.sites_of(k).to_vec(),
            clock: options.clock,
            start,
            max_pending: options.max_pending,
            state_path: options
                .state_prefix
                .as_deref()
                .map(|prefix| shard_state_path(prefix, k)),
            direct: SubmitDrain::new(Arc::clone(&direct)),
        };
        shard_handles.push(std::thread::spawn(move || runtime.run(rx)));
        shard_txs.push(tx);
        direct_queues.push(direct);
    }
    (shard_txs, direct_queues, shard_handles)
}

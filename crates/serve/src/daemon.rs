//! The `gridsec-serve` TCP daemon.
//!
//! Thread model (a few I/O threads multiplexing *all* client sockets,
//! one scheduling thread *per shard*, one router for serialised
//! cross-shard operations):
//!
//! ```text
//!  10k clients ──► epoll I/O threads ──────submits────────► lock-free ┌─► shard 0 thread
//!        (accept ▪ nonblocking read  ──────────────────►  per-shard  ├─► shard 1 thread
//!         frame decode ▪ routing     ┐                    queues     └─► shard 2 thread
//!         seq-ordered write buffers) └─► ingest ─► router ──control──────► (all shards)
//!                                         queue    (reshard ▪ drain ▪ shutdown ▪
//!                                                   scrape ▪ autoscale ▪ chaos)
//! ```
//!
//! Connections are **event-driven** (the private `conn` module): a small pool of
//! I/O threads owns every client socket through a vendored epoll wrapper,
//! decodes NDJSON frames, and releases responses **in request order**
//! from a bounded per-connection buffer (replies may arrive from
//! different shard threads). There is one way for a job to reach a shard:
//! the I/O thread routes a `submit` against the shared
//! routing-table snapshot and pushes it
//! onto the owning shard's lock-free bounded queue; a submit that cannot
//! be pushed yet waits *parked on its connection*. Everything serialised
//! — aggregated queries, global reconfigures, `reshard`, `drain`,
//! `shutdown`, site churn — flows through the single *router* thread,
//! which scatters to every shard and gathers the results (a barrier
//! across shards); it never sees a submit. Each shard thread owns an
//! [`OnlineSession`](crate::OnlineSession) over its subgrid — the GA population pool, the STGA
//! history table and the availability model live there untouched across
//! rounds. A client disconnecting mid-round just drops its connection;
//! scheduling continues.
//!
//! **One way to build a shard.** [`Daemon::spawn`] takes the grid, a
//! [`ShardPlan`] and a [`SessionFactory`], and that factory is the only
//! description of a shard the daemon ever uses: boot is a reshard from
//! nothing. At start-up a shard's seed is [`SessionState::fresh`] plus its
//! state file, if [`DaemonOptions::state_prefix`] names one; at a
//! `reshard` frame (or an autoscaler decision) the router drains every
//! shard to a barrier, exports their state and redistributes it with
//! [`transfer`]. Either way the seeds go through the same `build_shards`
//! step — factory call, subgrid check — and the same thread spawn.
//! Submits that arrive during the barrier wait parked on their
//! connections and are routed under the new plan, so clients pipelined
//! across the swap observe nothing but in-order responses; counters and
//! committed schedules of retired shards are archived on the router so
//! aggregated queries stay cumulative.

use crate::conn::{build_io, DirectPath, DirectShard, IoLoop, IoShared, ReplyHandle, RoutingTable};
use crate::exposition;
use crate::protocol::{
    encode, Placed, QueryWhat, Request, Response, ServeMetrics, TelemetryReport, MAX_LINE_BYTES,
};
use crate::reshard::{
    build_shards, transfer, AutoscaleConfig, AutoscalePolicy, SessionFactory, ShardObservation,
    ShardSeed,
};
use crate::session::SessionState;
use crate::shard::{ShardMsg, ShardRuntime, ShardSpec, SubmitDrain, SubmitQueue};
use gridsec_core::{Grid, JobId, SiteId, Time};
use gridsec_obs::{Histogram, HistogramSnapshot};
use gridsec_sim::ShardPlan;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the daemon advances its clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Arrivals drive the clock: jobs carry their own arrival stamps
    /// (non-decreasing per shard), and timeout boundaries fire when a
    /// later submission or an explicit `drain` moves time past them.
    /// Fully deterministic — the mode behind the golden cross-check, the
    /// sharding-equivalence suite and the loadgen throughput benchmark.
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
    pub metrics_addr: Option<String>,
    /// Path prefix of the per-shard state files ([`shard_state_path`]).
    /// When set, shard `k`'s file is read at boot and handed to the
    /// factory as its one `history_sources` entry; a shard built with a
    /// [`ShardSpec::history`] snapshot writes it back when it stops; and
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
    /// When set, a sampling thread splits hot shards and merges cold
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

/// One parsed control frame (anything but a `submit`), tagged with its
/// reply handle and per-client sequence number — or a tick from the
/// autoscaler thread, which goes through the same queue so topology
/// decisions are serialised with client frames. (Submits go straight to
/// the shard queues and malformed frames are answered on the I/O
/// threads; neither reaches this queue.)
pub(crate) enum IngestEvent {
    Frame(Request, ReplyHandle, u64),
    Autoscale,
    /// A metrics-listener connection wants one text exposition. Routed
    /// through the ingest queue so the scrape sees a consistent
    /// (router-serialised) view of the plan and archives.
    Scrape(Sender<String>),
}

/// A running daemon: the I/O thread pool (which also owns the accept
/// path) and the router (which in turn owns the per-shard scheduling
/// threads — they must be respawnable on a reshard, so their handles
/// live with the plan).
pub struct Daemon {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    io: Vec<JoinHandle<()>>,
    router: Option<JoinHandle<()>>,
    ticker: Option<JoinHandle<()>>,
    scrape: Option<JoinHandle<()>>,
    shared: Arc<IoShared>,
}

impl Daemon {
    /// Builds every shard of `plan` through `factory`, binds `bind` (e.g.
    /// `"127.0.0.1:0"` for an ephemeral port) and starts serving `grid` —
    /// one scheduling thread per shard. Returns once the listener is
    /// live; use [`Daemon::addr`] to learn the bound address and
    /// [`Daemon::join`] to wait for a `shutdown` frame.
    ///
    /// The factory runs here, before any thread is spawned or socket
    /// bound: a factory that fails or builds a session over anything but
    /// [`ShardPlan::subgrid`]`(grid, k)`, or an unreadable state file, is
    /// an `Err` naming the shard with nothing left running. The daemon
    /// keeps the factory for every plan it is later resharded to.
    pub fn spawn(
        grid: Grid,
        plan: ShardPlan,
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
        // Boot is a reshard from nothing.
        let prefix = options.state_prefix.as_deref();
        let seeds = boot_seeds(&grid, &plan, prefix)?;
        let shards = build_shards(&grid, &plan, seeds, &mut factory).map_err(|(k, message)| {
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

        let listener = TcpListener::bind(bind)?;
        listener.set_nonblocking(true)?; // owned by I/O thread 0's poller
        let addr = listener.local_addr()?;
        let metrics_listener = match &options.metrics_addr {
            Some(bind) => Some(TcpListener::bind(bind.as_str())?),
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let (ingest_tx, ingest_rx) = channel::<IngestEvent>();
        let start = Instant::now();

        let grid = Arc::new(grid);
        let (shard_txs, direct_queues, shard_handles) =
            spawn_shard_threads(&plan, shards, &options, start);

        // The I/O thread pool, seeded with the initial routing table.
        let n_io = resolve_io_threads(options.io_threads);
        let table = RoutingTable {
            grid: Arc::clone(&grid),
            plan: Arc::new(plan.clone()),
            offline: Arc::new(vec![false; grid.len()]),
            direct: DirectPath::Open(direct_shards(&shard_txs, &direct_queues)),
        };
        let (shared, wake_readers) = build_io(n_io, table)?;
        let mut io = Vec::with_capacity(n_io);
        let mut listener_slot = Some(listener);
        for (i, wake_rx) in wake_readers.into_iter().enumerate() {
            let io_loop = IoLoop::new(
                Arc::clone(&shared),
                Arc::clone(&shared.loops[i]),
                wake_rx,
                if i == 0 { listener_slot.take() } else { None },
                ingest_tx.clone(),
                i,
                &options,
            )?;
            io.push(std::thread::spawn(move || io_loop.run()));
        }

        // Autoscaler ticker: wakes on shutdown (the router drops the
        // stop sender when it exits) instead of sleeping out a final
        // interval past the daemon's death.
        let (ticker, ticker_stop) = match &options.autoscale {
            Some(cfg) => {
                let tick = ingest_tx.clone();
                let interval = cfg.interval;
                let (stop_tx, stop_rx) = channel::<()>();
                let handle = std::thread::spawn(move || loop {
                    match stop_rx.recv_timeout(interval) {
                        Err(RecvTimeoutError::Timeout) => {
                            if tick.send(IngestEvent::Autoscale).is_err() {
                                return;
                            }
                        }
                        // Explicit stop or the sender dropped: exit now.
                        _ => return,
                    }
                });
                (Some(handle), Some(stop_tx))
            }
            None => (None, None),
        };

        // Scrape listener: each accepted connection gets its own short-
        // lived thread with read/write deadlines, so one scraper that
        // connects and never reads cannot stall any other scrape (nor
        // can a router busy in a reshard wedge the accept loop).
        let scrape = metrics_listener.map(|mlistener| {
            let ingest = ingest_tx.clone();
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for stream in mlistener.incoming() {
                    if shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let ingest = ingest.clone();
                    std::thread::spawn(move || scrape_one(stream, &ingest));
                }
            })
        });

        let router_state = Router {
            grid,
            plan,
            shard_txs,
            direct_queues,
            shard_handles,
            offline: Vec::new(), // sized in run()
            start,
            factory,
            autoscale: options.autoscale.map(AutoscalePolicy::new),
            options,
            archive_metrics: ServeMetrics::merge(&[]),
            archive_schedule: Vec::new(),
            prev_round_hist: Vec::new(),
            reshard_barrier_nanos: Histogram::new(),
            reshard_migrated_jobs: Histogram::new(),
            io: Arc::clone(&shared),
        };
        let router = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                router_state.run(ingest_rx);
                shared.stop.store(true, Ordering::SeqCst);
                shared.wake_all(); // I/O threads observe stop and exit
                drop(ticker_stop); // autoscaler ticker exits promptly
                                   // Wake the scrape accept loop so it observes stop.
                if let Some(maddr) = metrics_addr {
                    let _ = TcpStream::connect(maddr);
                }
            })
        };

        Ok(Daemon {
            addr,
            metrics_addr,
            io,
            router: Some(router),
            ticker,
            scrape,
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
    /// the router joins the shard threads, then the I/O threads, the
    /// autoscaler ticker and the scrape listener are reaped.
    pub fn join(mut self) {
        if let Some(h) = self.router.take() {
            let _ = h.join();
        }
        for h in self.io.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.ticker.take() {
            let _ = h.join();
        }
        if let Some(h) = self.scrape.take() {
            let _ = h.join();
        }
    }
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

/// Serves one metrics-listener connection on its own thread: deadlines
/// on both the socket and the router round-trip, so a stuck scraper (or
/// a router mid-reshard) can neither stall other scrapes nor leak the
/// connection.
fn scrape_one(mut stream: TcpStream, ingest: &Sender<IngestEvent>) {
    const SCRAPE_DEADLINE: Duration = Duration::from_secs(5);
    let _ = stream.set_write_timeout(Some(SCRAPE_DEADLINE));
    let _ = stream.set_read_timeout(Some(SCRAPE_DEADLINE));
    let (tx, rx) = channel();
    if ingest.send(IngestEvent::Scrape(tx)).is_err() {
        return;
    }
    let text = match rx.recv_timeout(SCRAPE_DEADLINE) {
        Ok(text) => text,
        Err(_) => "# gridsec-serve: scrape timed out (router busy or shutting down)\n".to_string(),
    };
    let _ = stream.write_all(text.as_bytes());
}

/// Builds the submit endpoints for an open routing-table snapshot.
fn direct_shards(txs: &[Sender<ShardMsg>], queues: &[Arc<SubmitQueue>]) -> Vec<DirectShard> {
    txs.iter()
        .zip(queues)
        .map(|(tx, q)| DirectShard {
            queue: Arc::clone(q),
            control: tx.clone(),
        })
        .collect()
}

/// Spawns one scheduling thread per shard spec; shard `k` serves
/// `plan.sites_of(k)`. Each shard also gets the bounded queue its
/// submits arrive on, drained by the shard thread ahead of every control
/// message. Shared by daemon startup and the reshard swap.
#[allow(clippy::type_complexity)]
fn spawn_shard_threads(
    plan: &ShardPlan,
    shards: Vec<ShardSpec>,
    options: &DaemonOptions,
    start: Instant,
) -> (
    Vec<Sender<ShardMsg>>,
    Vec<Arc<SubmitQueue>>,
    Vec<JoinHandle<()>>,
) {
    let mut shard_txs = Vec::with_capacity(shards.len());
    let mut direct_queues = Vec::with_capacity(shards.len());
    let mut shard_handles = Vec::with_capacity(shards.len());
    for (k, spec) in shards.into_iter().enumerate() {
        let (tx, rx) = channel::<ShardMsg>();
        let direct = Arc::new(SubmitQueue::new());
        let runtime = ShardRuntime {
            shard: k,
            session: spec.session,
            global_sites: plan.sites_of(k).to_vec(),
            clock: options.clock,
            start,
            max_pending: options.max_pending,
            history: spec.history,
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

/// Sends one message to every shard with a private return channel each,
/// then collects the answers in shard order. The scatter happens before
/// any wait, so the total wait is the *slowest* shard, not the sum. A
/// `None` entry means the shard thread is gone.
fn gather<T>(
    shard_txs: &[Sender<ShardMsg>],
    mut make: impl FnMut(Sender<T>) -> ShardMsg,
) -> Vec<Option<T>> {
    let pending: Vec<Option<Receiver<T>>> = shard_txs
        .iter()
        .map(|tx| {
            let (reply_tx, reply_rx) = channel();
            tx.send(make(reply_tx)).ok().map(|()| reply_rx)
        })
        .collect();
    pending
        .into_iter()
        .map(|rx| rx.and_then(|rx| rx.recv().ok()))
        .collect()
}

/// The router thread's state: the live plan, the shard channels and
/// threads (respawned on every reshard), the global offline set (site
/// churn survives a reshard untouched) and the archives of retired
/// shards.
struct Router {
    grid: Arc<Grid>,
    plan: ShardPlan,
    shard_txs: Vec<Sender<ShardMsg>>,
    /// Per-shard submit queues (paired with `shard_txs`; replaced
    /// together on a reshard).
    direct_queues: Vec<Arc<SubmitQueue>>,
    shard_handles: Vec<JoinHandle<()>>,
    offline: Vec<bool>,
    options: DaemonOptions,
    start: Instant,
    factory: SessionFactory,
    autoscale: Option<AutoscalePolicy>,
    /// Counters of shards retired by reshards, with the gauges
    /// (`jobs_scheduled`, `pending`) zeroed — their live state moved to
    /// the new shards and would double-count. The reshard counters
    /// themselves live here too.
    archive_metrics: ServeMetrics,
    /// Committed schedules of retired shards, appended in reshard order.
    archive_schedule: Vec<Placed>,
    /// Per-shard round-latency snapshot at the previous autoscaler
    /// tick: the baseline `delta_since` turns into a trend window.
    /// Cleared on every reshard (shard indices change meaning).
    prev_round_hist: Vec<HistogramSnapshot>,
    /// Wall-clock nanoseconds each completed reshard barrier held
    /// (drain → swap).
    reshard_barrier_nanos: Histogram,
    /// Jobs migrated per completed reshard.
    reshard_migrated_jobs: Histogram,
    /// The connection layer: routing-table publication and connection
    /// counters for the exposition.
    io: Arc<IoShared>,
}

impl Router {
    /// Publishes a fresh routing-table snapshot and wakes every I/O
    /// thread, so connections parked on the previous one retry.
    fn publish_table(&self, direct: DirectPath) {
        let table = Arc::new(RoutingTable {
            grid: Arc::clone(&self.grid),
            plan: Arc::new(self.plan.clone()),
            offline: Arc::new(self.offline.clone()),
            direct,
        });
        *self.io.table.write().expect("table lock") = table;
        self.io.wake_all();
    }

    /// Publishes the current plan, offline set and shard queues.
    fn publish_open(&self) {
        self.publish_table(DirectPath::Open(direct_shards(
            &self.shard_txs,
            &self.direct_queues,
        )));
    }

    /// Takes a site offline (a `fail_site` frame) or brings it back
    /// (`rejoin_site`). The router is the gatekeeper: it refuses a
    /// double-fail or a spurious rejoin against its own offline set, has
    /// the owning shard apply the injection (requeueing stranded jobs),
    /// and only then flips the set and republishes the routing table — a
    /// failed injection leaves routing untouched.
    fn set_site_online(&mut self, site: usize, at: Option<Time>, online: bool) -> Response {
        let what = if online { "rejoin_site" } else { "fail_site" };
        let error = |message| Response::Error { message };
        let Some((k, local)) = self.plan.to_local(SiteId(site)) else {
            return error(format!("{what}: unknown site {site}"));
        };
        if self.offline[site] != online {
            let state = if online { "not" } else { "already" };
            return error(format!("{what}: site {site} is {state} offline"));
        }
        let (reply, rx) = channel();
        let msg = ShardMsg::GatherSiteOnline {
            site: local,
            online,
            at,
            reply,
        };
        if self.shard_txs[k].send(msg).is_err() {
            return shard_down();
        }
        match rx.recv() {
            Ok(Ok(requeued)) => {
                self.offline[site] = !online;
                self.publish_open(); // derived routing follows the set
                match online {
                    true => Response::SiteRejoined { site, shard: k },
                    false => Response::SiteFailed {
                        site,
                        shard: k,
                        requeued,
                    },
                }
            }
            Ok(Err(message)) => error(message),
            Err(_) => shard_down(),
        }
    }

    /// The router loop: drains the ingest queue in order, forwards each
    /// shard-scoped control frame to the shard that owns it, and
    /// scatter-gathers the cross-shard operations. Exits after a
    /// `shutdown` frame (stopping every shard) or when the listener goes
    /// away.
    fn run(mut self, ingest: Receiver<IngestEvent>) {
        // The routing-level view of site churn (`set_site_online`).
        self.offline = vec![false; self.grid.len()];
        self.publish_open();
        loop {
            let event = match ingest.recv() {
                Ok(ev) => ev,
                Err(_) => {
                    // Every ingest sender (I/O threads, ticker, scrape)
                    // is gone: disconnect the shard channels so the
                    // shard threads exit, then reap them.
                    self.shard_txs.clear();
                    for h in self.shard_handles.drain(..) {
                        let _ = h.join();
                    }
                    return;
                }
            };
            let (req, reply, seq) = match event {
                IngestEvent::Autoscale => {
                    self.autoscale_tick();
                    continue;
                }
                IngestEvent::Scrape(reply) => {
                    let _ = reply.send(self.render_exposition());
                    continue;
                }
                IngestEvent::Frame(req, reply, seq) => (req, reply, seq),
            };
            let n_shards = self.plan.n_shards();
            match req {
                Request::Submit { .. } => {
                    unreachable!("the I/O threads dispatch submits; the router never sees one")
                }
                Request::Query {
                    what,
                    shard: Some(k),
                } => {
                    if k >= n_shards {
                        reply.send(Reply::frame(
                            seq,
                            &Response::UnknownShard { shard: k, n_shards },
                        ));
                        continue;
                    }
                    forward(
                        &self.shard_txs[k],
                        ShardMsg::Query {
                            what,
                            reply: reply.clone(),
                            seq,
                        },
                        &reply,
                        seq,
                    );
                }
                Request::Query { what, shard: None } => {
                    let response = self.aggregate_query(what);
                    reply.send(Reply::frame(seq, &response));
                }
                Request::Reconfigure {
                    security_levels,
                    shard: Some(k),
                    at,
                } => {
                    if k >= n_shards {
                        reply.send(Reply::frame(
                            seq,
                            &Response::UnknownShard { shard: k, n_shards },
                        ));
                        continue;
                    }
                    forward(
                        &self.shard_txs[k],
                        ShardMsg::Reconfigure {
                            levels: security_levels,
                            at,
                            reply: reply.clone(),
                            seq,
                        },
                        &reply,
                        seq,
                    );
                }
                Request::Reconfigure {
                    security_levels,
                    shard: None,
                    at,
                } => {
                    let response = global_reconfigure(
                        &self.grid,
                        &self.plan,
                        &self.shard_txs,
                        &security_levels,
                        at,
                    );
                    reply.send(Reply::frame(seq, &response));
                }
                Request::FailSite { site, at } => {
                    reply.send(Reply::frame(seq, &self.set_site_online(site, at, false)));
                }
                Request::RejoinSite { site, at } => {
                    reply.send(Reply::frame(seq, &self.set_site_online(site, at, true)));
                }
                Request::Reshard { shards } => {
                    let shards: Vec<Vec<SiteId>> = shards
                        .into_iter()
                        .map(|ss| ss.into_iter().map(SiteId).collect())
                        .collect();
                    let response = match self.reshard(shards) {
                        Ok(jobs_migrated) => Response::Resharded {
                            shards: self.plan.n_shards(),
                            jobs_migrated,
                            reshards_completed: self.archive_metrics.reshards_completed,
                        },
                        Err(message) => Response::ReshardRejected { message },
                    };
                    reply.send(Reply::frame(seq, &response));
                }
                Request::Drain => {
                    let response = self.drain();
                    reply.send(Reply::frame(seq, &response));
                }
                Request::TraceDump => {
                    reply.send(Reply::frame(
                        seq,
                        &Response::TraceDump {
                            events: gridsec_obs::recorder::snapshot(),
                        },
                    ));
                }
                Request::Shutdown => {
                    // Seal the submit path: queued submits are consumed by
                    // the drain barrier below, later ones park.
                    self.publish_table(DirectPath::Sealed);
                    let drained = self.drain();
                    let response = match drained {
                        Response::Drained { .. } => Response::Bye,
                        Response::Error { message } => Response::Error {
                            message: format!("drain before shutdown failed: {message}"),
                        },
                        other => other,
                    };
                    // Barrier: every shard persists its state and exits
                    // before the client hears `bye`.
                    for done in gather(&self.shard_txs, |tx| ShardMsg::Stop { done: tx }) {
                        let _ = done;
                    }
                    for h in self.shard_handles.drain(..) {
                        let _ = h.join();
                    }
                    // Closed before `bye` goes out: a submit fenced behind
                    // this frame is refused in the pass that releases
                    // `bye`; ones parked on other connections, now.
                    self.publish_table(DirectPath::Closed);
                    // The daemon exits right after this; wait (bounded)
                    // for the writer to flush the final frame so the
                    // client is guaranteed its `bye`.
                    let (flushed_tx, flushed_rx) = channel();
                    reply.send(Reply {
                        seq,
                        line: encode(&response),
                        flushed: Some(flushed_tx),
                    });
                    // A dead connection drops the mark, so this returns
                    // immediately (disconnected) rather than timing out.
                    let _ = flushed_rx.recv_timeout(Duration::from_secs(5));
                    self.reject_late_frames(&ingest);
                    return;
                }
            }
        }
    }

    /// Performs one reshard to `shards` at a drain barrier; returns the
    /// number of jobs that changed shard. On any failure the old shards
    /// resume untouched (beyond having been drained) and the error
    /// becomes a `reshard_rejected`.
    ///
    /// The whole barrier runs under a `reshard_barrier` flight-recorder
    /// span; its wall-clock time and the migration count feed the
    /// router's reshard histograms on success, and a failure dumps the
    /// flight recorder to [`DaemonOptions::flight_dump`].
    fn reshard(&mut self, shards: Vec<Vec<SiteId>>) -> Result<usize, String> {
        let from = self.plan.n_shards();
        let to = shards.len();
        // Seal the submit path before the barrier. The I/O threads push
        // under the table's read lock, so once the sealed table is
        // written every dispatched submit is in a shard queue (each shard
        // empties it ahead of every control message) and every later one
        // parks on its connection until the table is republished on both
        // exits below — nothing can race into a retiring shard.
        let barrier = gridsec_obs::span!("reshard_barrier", from = from, to = to);
        self.publish_table(DirectPath::Sealed);
        let t0 = Instant::now();
        let result = self.reshard_inner(shards);
        // Success republishes with the new shards' queues; failure
        // re-opens the old ones (the topology did not change).
        self.publish_open();
        drop(barrier);
        match &result {
            Ok(moved) => {
                self.reshard_barrier_nanos
                    .record(t0.elapsed().as_nanos() as u64);
                self.reshard_migrated_jobs.record(*moved as u64);
                // Shard indices changed meaning: restart the trend.
                self.prev_round_hist.clear();
                self.gc_state_files(from, to);
            }
            Err(message) => self.flight_dump("reshard_rejected", message),
        }
        result
    }

    /// Removes the state files of shards retired by a shrinking reshard
    /// (`new_n <= k < old_n`). The old shards already persisted on
    /// `Stop`, so without the GC a restart from the prefix would
    /// resurrect state that migrated into the surviving shards.
    fn gc_state_files(&self, old_n: usize, new_n: usize) {
        let Some(prefix) = &self.options.state_prefix else {
            return;
        };
        for k in new_n..old_n {
            let path = shard_state_path(prefix, k);
            match std::fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => eprintln!(
                    "gridsec-serve: cannot remove retired state file {}: {e}",
                    path.display()
                ),
            }
        }
    }

    /// Dumps the flight recorder to [`DaemonOptions::flight_dump`] (a
    /// no-op without one). Called on `reshard_rejected` so the spans
    /// leading into the failure are preserved for post-mortems.
    fn flight_dump(&self, why: &str, detail: &str) {
        let Some(path) = &self.options.flight_dump else {
            return;
        };
        if let Err(e) = std::fs::write(path, gridsec_obs::recorder::dump_ndjson()) {
            eprintln!(
                "gridsec-serve: cannot write flight dump {}: {e}",
                path.display()
            );
        } else {
            eprintln!(
                "gridsec-serve: {why} ({detail}): flight recorder dumped to {}",
                path.display()
            );
        }
    }

    fn reshard_inner(&mut self, shards: Vec<Vec<SiteId>>) -> Result<usize, String> {
        let new_plan = ShardPlan::from_shards(&self.grid, shards)
            .map_err(|e| format!("invalid reshard plan: {e}"))?;
        // Barrier: run every due round so no armed boundary is lost.
        match drain_all(&self.shard_txs) {
            Response::Drained { .. } => {}
            Response::Error { message } => {
                return Err(format!("drain at the reshard barrier failed: {message}"))
            }
            other => {
                return Err(format!(
                    "unexpected drain response: {}",
                    encode(&other).trim()
                ))
            }
        }
        // Export-and-hold: each shard freezes after answering.
        let export_span = gridsec_obs::span!("reshard_export");
        let mut exports = Vec::with_capacity(self.shard_txs.len());
        for e in gather(&self.shard_txs, |tx| ShardMsg::GatherState { reply: tx }) {
            match e {
                Some(e) => exports.push(e),
                None => {
                    self.resume_shards();
                    return Err("a shard thread is no longer running".into());
                }
            }
        }
        drop(export_span);
        let transferred = {
            let _transfer_span = gridsec_obs::span!("reshard_transfer");
            transfer(&self.grid, &self.plan, &exports, &new_plan)
        };
        let moved = match transferred {
            Ok(t) => t,
            Err(message) => {
                self.resume_shards();
                return Err(message);
            }
        };
        // Rebuild every session before touching the old shards, so a
        // factory failure aborts with the daemon fully intact.
        let specs = {
            let _respawn_span = gridsec_obs::span!("reshard_respawn");
            build_shards(&self.grid, &new_plan, moved.seeds, &mut self.factory)
        };
        let specs = match specs {
            Ok(specs) => specs,
            Err((_, message)) => {
                self.resume_shards();
                return Err(message);
            }
        };
        // Point of no return: retire the old shards (they persist their
        // state files on Stop), archive their history, swap in the new.
        let _swap_span = gridsec_obs::span!("reshard_swap");
        for done in gather(&self.shard_txs, |tx| ShardMsg::Stop { done: tx }) {
            let _ = done;
        }
        for h in self.shard_handles.drain(..) {
            let _ = h.join();
        }
        for e in &exports {
            let mut m = e.metrics.clone();
            m.jobs_scheduled = 0;
            m.pending = 0;
            self.archive_metrics = ServeMetrics::merge(&[self.archive_metrics.clone(), m]);
            self.archive_schedule.extend_from_slice(&e.schedule);
        }
        let (txs, queues, handles) =
            spawn_shard_threads(&new_plan, specs, &self.options, self.start);
        self.shard_txs = txs;
        self.direct_queues = queues;
        self.shard_handles = handles;
        self.plan = new_plan;
        self.archive_metrics.reshards_completed += 1;
        self.archive_metrics.jobs_migrated += moved.jobs_migrated;
        Ok(moved.jobs_migrated)
    }

    /// Releases shards parked in the post-`GatherState` hold after an
    /// aborted reshard.
    fn resume_shards(&self) {
        for tx in &self.shard_txs {
            let _ = tx.send(ShardMsg::Resume);
        }
    }

    /// One autoscaler sample: observe every shard's queue depth and
    /// round-latency *trend* — the p95 of the round-latency histogram
    /// delta since the previous tick, so one historic slow round can
    /// neither keep a shard looking hot forever (the old mean did) nor
    /// can a single fast recent round mask a sustained backlog.
    fn autoscale_tick(&mut self) {
        let Some(policy) = self.autoscale.as_mut() else {
            return;
        };
        // One scatter/gather instead of separate GatherInfo +
        // GatherTelemetry passes: each shard answers queue depth and
        // round-latency telemetry from the *same* instant, halving the
        // hold time and closing the window where the two samples could
        // straddle a round.
        let samples = gather(&self.shard_txs, |tx| ShardMsg::GatherObservation {
            reply: tx,
        });
        let mut observations = Vec::with_capacity(samples.len());
        let mut next_prev = Vec::with_capacity(samples.len());
        for (i, sample) in samples.into_iter().enumerate() {
            let Some((info, t)) = sample else {
                return; // a shard is down; routing will surface it
            };
            let baseline = self.prev_round_hist.get(i).cloned().unwrap_or_default();
            let window = t.round_nanos.delta_since(&baseline);
            // p95 nanos → micros; 0 when no round ran since last tick.
            let round_micros = window.p95() / 1_000;
            next_prev.push(t.round_nanos);
            observations.push(ShardObservation {
                sites: info.sites,
                pending: info.pending,
                round_micros,
            });
        }
        self.prev_round_hist = next_prev;
        let Some(proposal) = policy.observe(&observations) else {
            return;
        };
        match self.reshard(proposal) {
            Ok(moved) => eprintln!(
                "gridsec-serve: autoscaler resharded to {} shards ({moved} jobs migrated)",
                self.plan.n_shards()
            ),
            Err(message) => eprintln!("gridsec-serve: autoscaler reshard failed: {message}"),
        }
    }

    /// An aggregated (all-shard) query: scatter, gather, merge — folding
    /// in the archives of shards retired by reshards so the global view
    /// stays cumulative across topology changes.
    fn aggregate_query(&self, what: QueryWhat) -> Response {
        match what {
            QueryWhat::Metrics => match self.gather_metrics() {
                Some((metrics, _)) => Response::Metrics { metrics },
                None => shard_down(),
            },
            QueryWhat::Schedule => {
                let per_shard =
                    gather(&self.shard_txs, |tx| ShardMsg::GatherSchedule { reply: tx });
                if per_shard.iter().any(Option::is_none) {
                    return shard_down();
                }
                // Archived commits first (reshard order), then the live
                // shards concatenated in shard order (commit order within
                // each) — deterministic, and the identity for one shard
                // with no reshard history.
                let mut assignments = self.archive_schedule.clone();
                assignments.extend(per_shard.into_iter().flatten().flatten());
                Response::Schedule { assignments }
            }
            QueryWhat::Shards => {
                let per_shard: Vec<_> =
                    gather(&self.shard_txs, |tx| ShardMsg::GatherInfo { reply: tx })
                        .into_iter()
                        .flatten()
                        .collect();
                if per_shard.len() != self.shard_txs.len() {
                    return shard_down();
                }
                Response::Shards { shards: per_shard }
            }
            QueryWhat::Telemetry => {
                let per_shard: Vec<_> = gather(&self.shard_txs, |tx| ShardMsg::GatherTelemetry {
                    reply: tx,
                })
                .into_iter()
                .flatten()
                .collect();
                if per_shard.len() != self.shard_txs.len() {
                    return shard_down();
                }
                Response::Telemetry {
                    telemetry: TelemetryReport {
                        shards: per_shard,
                        reshard_barrier_nanos: self.reshard_barrier_nanos.snapshot(),
                        reshard_migrated_jobs: self.reshard_migrated_jobs.snapshot(),
                        recorder: gridsec_obs::recorder::status(),
                    },
                }
            }
        }
    }

    /// The grid-wide metrics — live shards merged with the archive of
    /// retired ones, so a reshard never resets a total — and each live
    /// shard's pending count. `None` when a shard thread is gone.
    fn gather_metrics(&self) -> Option<(ServeMetrics, Vec<usize>)> {
        let mut all = vec![self.archive_metrics.clone()];
        all.extend(
            gather(&self.shard_txs, |tx| ShardMsg::GatherMetrics { reply: tx })
                .into_iter()
                .flatten(),
        );
        let pending = all[1..].iter().map(|m| m.pending).collect();
        (all.len() == self.shard_txs.len() + 1).then(|| (ServeMetrics::merge(&all), pending))
    }

    /// Gathers one scrape's numbers and renders the page
    /// ([`exposition::render`]).
    fn render_exposition(&self) -> String {
        let Some((metrics, pending)) = self.gather_metrics() else {
            return "# gridsec-serve: a shard thread is no longer running\n".into();
        };
        let queue_depth: Vec<usize> = self.direct_queues.iter().map(|q| q.len()).collect();
        let (io_wakes, shard_pokes, io_events_per_pass) = self.io.wake_stats();
        exposition::render(&exposition::Page {
            metrics: &metrics,
            pending: &pending,
            queue_depth: &queue_depth,
            reshard_barrier_nanos: &self.reshard_barrier_nanos.snapshot(),
            reshard_migrated_jobs: &self.reshard_migrated_jobs.snapshot(),
            connections: self.io.connections.load(Ordering::Relaxed),
            slow_disconnects: self.io.slow_disconnects.load(Ordering::Relaxed),
            idle_reaped: self.io.idle_reaped.load(Ordering::Relaxed),
            parked: std::array::from_fn(|i| self.io.parked[i].load(Ordering::Relaxed)),
            io_wakes,
            shard_pokes,
            io_events_per_pass: &io_events_per_pass,
            recorder: gridsec_obs::recorder::status(),
        })
    }

    /// Drains every shard; `rounds` stays cumulative across reshards by
    /// folding in the archived count.
    fn drain(&self) -> Response {
        match drain_all(&self.shard_txs) {
            Response::Drained {
                rounds,
                jobs_scheduled,
            } => Response::Drained {
                rounds: rounds + self.archive_metrics.rounds,
                jobs_scheduled,
            },
            other => other,
        }
    }

    /// After `bye` is flushed the daemon is gone, but a pipelined client
    /// may already have follow-up frames in the ingest queue (or still in
    /// a reader thread). Answer them with typed rejections — notably
    /// `reshard` → `reshard_rejected` — for a short grace window, so the
    /// writers' in-order release never leaves a connection waiting on a
    /// response that will never come.
    fn reject_late_frames(&self, ingest: &Receiver<IngestEvent>) {
        let deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < deadline {
            match ingest.recv_timeout(Duration::from_millis(50)) {
                Ok(IngestEvent::Frame(Request::Reshard { .. }, reply, seq)) => {
                    reply.send(Reply::frame(
                        seq,
                        &Response::ReshardRejected {
                            message: "daemon is draining for shutdown".into(),
                        },
                    ));
                }
                Ok(IngestEvent::Frame(_, reply, seq)) => {
                    reply.send(Reply::frame(seq, &shutting_down()));
                }
                Ok(IngestEvent::Autoscale) => {}
                Ok(IngestEvent::Scrape(reply)) => {
                    let _ = reply.send("# gridsec-serve: daemon is shutting down\n".into());
                }
                Err(_) => break, // quiet (or disconnected): done
            }
        }
    }
}

/// Frame-level derived routing: every job's eligible sites must sit in
/// one and the same shard. The first job that breaks that yields a typed
/// rejection for the whole frame (nothing was enqueued).
///
/// Offline sites are excluded: a job whose eligible-site set shrinks to
/// one shard under churn routes there cleanly, and a job whose *every*
/// eligible site is offline gets a typed `site_offline` rejection instead
/// of queueing on a dead shard. Explicit-`shard` submits bypass this
/// (they enqueue and defer until a site rejoins — the scenario engine's
/// replay path).
pub(crate) fn derive_route(
    grid: &Grid,
    plan: &ShardPlan,
    offline: &[bool],
    jobs: &[gridsec_core::Job],
) -> Result<usize, Box<Response>> {
    let mut target: Option<(usize, JobId)> = None;
    for job in jobs {
        let eligible: Vec<SiteId> = grid
            .sites()
            .filter(|s| s.fits_width(job.width))
            .map(|s| s.id)
            .collect();
        if eligible.is_empty() {
            return Err(Box::new(Response::RouteRejected {
                job: job.id,
                shards: Vec::new(),
                message: format!("job {} fits no site on any shard", job.id),
            }));
        }
        let online: Vec<SiteId> = eligible.iter().copied().filter(|s| !offline[s.0]).collect();
        if online.is_empty() {
            return Err(Box::new(Response::SiteOffline {
                job: job.id,
                message: format!(
                    "job {} is eligible only on offline sites {:?}; resubmit after a rejoin \
                     (or pass an explicit shard to queue it)",
                    job.id,
                    eligible.iter().map(|s| s.0).collect::<Vec<_>>()
                ),
                sites: eligible,
            }));
        }
        // Reshard plans need not be contiguous, so the mapped shard list
        // need not ascend — sort before dedup to leave each shard once.
        let mut shards: Vec<usize> = online.iter().filter_map(|&s| plan.shard_of(s)).collect();
        shards.sort_unstable();
        shards.dedup();
        match shards.as_slice() {
            [k] => match target {
                None => target = Some((*k, job.id)),
                Some((t, first)) if t != *k => {
                    let mut shards = vec![t, *k];
                    shards.sort_unstable();
                    return Err(Box::new(Response::RouteRejected {
                        job: job.id,
                        shards,
                        message: format!(
                            "jobs in one frame must route to one shard: job {first} routes to \
                             shard {t}, job {} to shard {k} (split the frame or pass an \
                             explicit shard)",
                            job.id
                        ),
                    }));
                }
                Some(_) => {}
            },
            spanning => {
                return Err(Box::new(Response::RouteRejected {
                    job: job.id,
                    message: format!(
                        "job {} is eligible on sites spanning shards {spanning:?}; pass an \
                         explicit shard to place it",
                        job.id
                    ),
                    shards: spanning.to_vec(),
                }));
            }
        }
    }
    // An empty (or zero-job) frame routes to shard 0: it enqueues
    // nothing, so any shard gives the same `accepted` answer.
    Ok(target.map_or(0, |(k, _)| k))
}

/// A global trust update: validate once, split per shard, scatter,
/// gather the acks.
fn global_reconfigure(
    grid: &Grid,
    plan: &ShardPlan,
    shard_txs: &[Sender<ShardMsg>],
    levels: &[f64],
    at: Option<Time>,
) -> Response {
    if levels.len() != grid.len() {
        return Response::Error {
            message: format!(
                "reconfigure: {} security levels for {} sites",
                levels.len(),
                grid.len()
            ),
        };
    }
    if let Some(bad) = levels.iter().find(|l| !(0.0..=1.0).contains(*l)) {
        return Response::Error {
            message: format!("reconfigure: security level {bad} not in [0, 1]"),
        };
    }
    // Scatter by hand (not via `gather`): each shard gets its own slice
    // of the levels, in shard-local site order.
    let pending: Vec<Option<Receiver<Result<(), String>>>> = shard_txs
        .iter()
        .enumerate()
        .map(|(k, tx)| {
            let shard_levels: Vec<f64> = plan.sites_of(k).iter().map(|s| levels[s.0]).collect();
            let (reply_tx, reply_rx) = channel();
            tx.send(ShardMsg::GatherReconfigure {
                levels: shard_levels,
                at,
                reply: reply_tx,
            })
            .ok()
            .map(|()| reply_rx)
        })
        .collect();
    for rx in pending {
        match rx.and_then(|rx| rx.recv().ok()) {
            Some(Ok(())) => {}
            Some(Err(message)) => return Response::Error { message },
            None => return shard_down(),
        }
    }
    Response::Reconfigured {
        sites: levels.len(),
    }
}

/// Drains every shard (a barrier) and merges the counters.
fn drain_all(shard_txs: &[Sender<ShardMsg>]) -> Response {
    let _drain_span = gridsec_obs::span!("drain_barrier");
    let mut rounds = 0usize;
    let mut jobs_scheduled = 0usize;
    for result in gather(shard_txs, |tx| ShardMsg::GatherDrain { reply: tx }) {
        match result {
            Some(Ok((r, j))) => {
                rounds += r;
                jobs_scheduled += j;
            }
            Some(Err(message)) => return Response::Error { message },
            None => return shard_down(),
        }
    }
    Response::Drained {
        rounds,
        jobs_scheduled,
    }
}

pub(crate) fn shard_down() -> Response {
    Response::Error {
        message: "a shard thread is no longer running".into(),
    }
}

pub(crate) fn shutting_down() -> Response {
    Response::Error {
        message: "daemon is shutting down".into(),
    }
}

/// Forwards a message to a shard thread, answering the client with an
/// error if the shard is gone — every request must produce exactly one
/// response or the writer's in-order release would stall the connection.
fn forward(shard: &Sender<ShardMsg>, msg: ShardMsg, reply: &ReplyHandle, seq: u64) {
    if shard.send(msg).is_err() {
        reply.send(Reply::frame(seq, &shard_down()));
    }
}

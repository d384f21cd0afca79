//! The router thread: the daemon's one control plane.
//!
//! Every control frame — `query`, `reconfigure`, `fail_site` /
//! `rejoin_site`, `drain`, `reshard`, `shutdown` — every scrape and every
//! autoscaler tick is serialised here, and there is one way for any of
//! them to reach a shard: [`ask`] sends a closure to each shard the frame
//! names, the shard threads run it (queue drained first, never inside a
//! round) and the router combines the answers into the one [`Response`]
//! it sends the client. A frame with `shard: Some(k)` is the same
//! function over the one-shard slice `k..k+1`; the grid-wide form differs
//! only by folding in what the router keeps for retired shards (the
//! metrics and schedule archives) and its own reshard histograms. A shard
//! never holds a client's reply handle for a control frame, so a shard
//! thread that dies with a frame queued cannot leave it unanswered: the
//! closure is dropped, the router's wait ends, the client reads
//! `shard_down`.
//!
//! The price is that the router waits for a scoped frame's shard (at
//! worst that shard's current round) as it always has for every
//! grid-wide frame; `gridsec_router_frame_seconds` on the exposition page
//! is how long the router was taken per event, measured.

use crate::conn::{DirectPath, DirectShard, IoShared, RoutingTable};
use crate::daemon::{shard_state_path, spawn_shard_threads, DaemonOptions, IngestEvent, Reply};
use crate::exposition;
use crate::ledger::Ledger;
use crate::protocol::{encode, QueryWhat, Request, Response, ServeMetrics, TelemetryReport};
use crate::reshard::{build_shards, transfer, AutoscalePolicy, SessionFactory, ShardObservation};
use crate::shard::{ShardMsg, ShardRuntime, SubmitQueue};
use gridsec_core::{Grid, JobId, SiteId, Time};
use gridsec_obs::{Histogram, HistogramSnapshot};
use gridsec_sim::{Routing, ShardPlan};
use std::io;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sends one message to every shard of `shard_txs` with a private return
/// channel each, then collects the answers in shard order. The scatter
/// happens before any wait, so the total wait is the *slowest* shard, not
/// the sum. `None` means a shard thread is gone (the others were still
/// sent their message and waited for).
fn gather<T>(
    shard_txs: &[Sender<ShardMsg>],
    mut make: impl FnMut(Sender<T>) -> ShardMsg,
) -> Option<Vec<T>> {
    let pending: Vec<Option<Receiver<T>>> = shard_txs
        .iter()
        .map(|tx| {
            let (reply_tx, reply_rx) = channel();
            tx.send(make(reply_tx)).ok().map(|()| reply_rx)
        })
        .collect();
    let answers: Vec<Option<T>> = pending
        .into_iter()
        .map(|rx| rx.and_then(|rx| rx.recv().ok()))
        .collect();
    answers.into_iter().collect()
}

/// Runs `f` on the thread of every shard of `shard_txs` and returns the
/// results in shard order — the only way the router reads or changes a
/// shard. `f` may rely on what [`ShardMsg::Ask`] promises: the shard's
/// submit queue was drained first, no round is running, and if the shard
/// never runs it (its thread is gone, or unwinds with the closure queued)
/// the whole call is the `shard_down` error rather than a wait without
/// end.
fn ask<T, F>(shard_txs: &[Sender<ShardMsg>], f: F) -> Result<Vec<T>, String>
where
    T: Send + 'static,
    F: Fn(&mut ShardRuntime) -> T + Send + Sync + 'static,
{
    let f = Arc::new(f);
    gather(shard_txs, |tx| {
        let f = Arc::clone(&f);
        ShardMsg::Ask(Box::new(move |shard| {
            let _ = tx.send(f(shard));
        }))
    })
    .ok_or_else(|| SHARD_DOWN.into())
}

/// What a client reads when a shard it needs has exited.
const SHARD_DOWN: &str = "a shard thread is no longer running";

pub(crate) fn shard_down() -> Response {
    Response::Error {
        message: SHARD_DOWN.into(),
    }
}

pub(crate) fn shutting_down() -> Response {
    Response::Error {
        message: "daemon is shutting down".into(),
    }
}

/// The page a scrape reads once the router has stopped rendering.
pub(crate) const SHUTTING_DOWN_PAGE: &str = "# gridsec-serve: daemon is shutting down\n";

/// Drains every shard (a barrier); returns `(rounds, jobs_scheduled)`
/// summed over them.
fn drain_all(shard_txs: &[Sender<ShardMsg>]) -> Result<(usize, usize), String> {
    let _drain_span = gridsec_obs::span!("drain_barrier");
    let mut total = (0, 0);
    for drained in ask(shard_txs, ShardRuntime::drain)? {
        let (rounds, jobs_scheduled) = drained?;
        total = (total.0 + rounds, total.1 + jobs_scheduled);
    }
    Ok(total)
}

/// Stops every shard (each persists its state file) and reaps the threads.
fn stop_shards(shard_txs: &[Sender<ShardMsg>], handles: &mut Vec<JoinHandle<()>>) {
    let _ = gather(shard_txs, |tx| ShardMsg::Stop { done: tx });
    for h in handles.drain(..) {
        let _ = h.join();
    }
}

/// Builds the submit endpoints for an open routing-table snapshot.
pub(crate) fn direct_shards(
    txs: &[Sender<ShardMsg>],
    queues: &[Arc<SubmitQueue>],
) -> Vec<DirectShard> {
    txs.iter()
        .zip(queues)
        .map(|(tx, q)| DirectShard {
            queue: Arc::clone(q),
            control: tx.clone(),
        })
        .collect()
}

/// The router thread's state: the live plan, the shard channels and
/// threads (respawned on every reshard), the global offline set (site
/// churn survives a reshard untouched) and the archives of retired
/// shards.
pub(crate) struct Router {
    pub(crate) grid: Arc<Grid>,
    pub(crate) plan: ShardPlan,
    pub(crate) shard_txs: Vec<Sender<ShardMsg>>,
    /// Per-shard submit queues (paired with `shard_txs`; replaced
    /// together on a reshard).
    pub(crate) direct_queues: Vec<Arc<SubmitQueue>>,
    pub(crate) shard_handles: Vec<JoinHandle<()>>,
    /// The routing-level view of site churn (`set_site_online`), by
    /// global site id.
    pub(crate) offline: Vec<bool>,
    pub(crate) options: DaemonOptions,
    pub(crate) start: Instant,
    pub(crate) factory: SessionFactory,
    pub(crate) autoscale: Option<AutoscalePolicy>,
    /// Counters of shards retired by reshards, with the gauges
    /// (`jobs_scheduled`, `pending`) zeroed — their live state moved to
    /// the new shards and would double-count. The reshard counters
    /// themselves live here too.
    pub(crate) archive_metrics: ServeMetrics,
    /// Committed schedules of retired shards, appended in reshard order.
    pub(crate) archive_schedule: Ledger,
    /// Per-shard round-latency snapshot at the previous autoscaler
    /// tick: the baseline `delta_since` turns into a trend window.
    /// Cleared on every reshard (shard indices change meaning).
    pub(crate) prev_round_hist: Vec<HistogramSnapshot>,
    /// Wall-clock nanoseconds each completed reshard barrier held
    /// (drain → swap).
    pub(crate) reshard_barrier_nanos: Histogram,
    /// Jobs migrated per completed reshard.
    pub(crate) reshard_migrated_jobs: Histogram,
    /// Wall-clock nanoseconds the router spent on one event — a control
    /// frame, a scrape, an autoscaler tick: how long every other control
    /// frame had to wait for it.
    pub(crate) frame_nanos: Histogram,
    /// The connection layer: routing-table publication and connection
    /// counters for the exposition.
    pub(crate) io: Arc<IoShared>,
}

/// However the router thread ends — a `shutdown` frame, the I/O threads
/// gone, or a panic unwinding through it — every shard still running is
/// sent `Stop` (which writes its state file) and joined, before the
/// daemon's drop guard stops the I/O threads. A shard held after
/// `GatherState` takes `Stop` too.
impl Drop for Router {
    fn drop(&mut self) {
        stop_shards(&self.shard_txs, &mut self.shard_handles);
    }
}

impl Router {
    /// The router loop: takes the ingest queue in order and answers every
    /// frame with exactly one response — one [`Router::respond`] call,
    /// one `reply.send` — and every scrape with its page. An autoscaler
    /// sample (`None` below) is due one `interval` after the previous one
    /// ended, queued events or not. Exits after a `shutdown` frame (which
    /// stopped every shard) or when every ingest sender is gone.
    pub(crate) fn run(mut self, ingest: Receiver<IngestEvent>) {
        let interval = self.autoscale.as_ref().map(|p| p.config().interval);
        let mut next_tick = interval.map(|i| Instant::now() + i);
        loop {
            let event = match next_tick.map(|due| due.saturating_duration_since(Instant::now())) {
                Some(Duration::ZERO) => None,
                // `Duration::MAX` never times out: a plain `recv`.
                wait => match ingest.recv_timeout(wait.unwrap_or(Duration::MAX)) {
                    Ok(event) => Some(event),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => break,
                },
            };
            let t0 = Instant::now();
            match event {
                None => {
                    self.autoscale_tick();
                    next_tick = interval.map(|i| Instant::now() + i);
                }
                Some(IngestEvent::Scrape(reply)) => {
                    reply.send(Reply::page(self.render_exposition()))
                }
                Some(IngestEvent::Frame(req, reply, seq)) => {
                    let last = matches!(req, Request::Shutdown);
                    let line = encode(&self.respond(req));
                    // The daemon exits right after `bye`: have the writer
                    // signal once the line is on the socket.
                    let (flushed, written) = last.then(channel).unzip();
                    reply.send(Reply { seq, line, flushed });
                    if let Some(written) = written {
                        // A dead connection drops the mark, so this returns
                        // at once (disconnected) rather than timing out.
                        let _ = written.recv_timeout(Duration::from_secs(5));
                        self.reject_late_frames(&ingest);
                        return;
                    }
                }
            }
            self.frame_nanos.record(t0.elapsed().as_nanos() as u64);
        }
        // Every ingest sender (the I/O threads) is gone: dropping the
        // router stops the shards.
    }

    /// The one `Request → Response` function of the control plane.
    fn respond(&mut self, req: Request) -> Response {
        let n_shards = self.shard_txs.len();
        let result = match req {
            Request::Query { shard: Some(k), .. } | Request::Reconfigure { shard: Some(k), .. }
                if k >= n_shards =>
            {
                Ok(Response::UnknownShard { shard: k, n_shards })
            }
            Request::Submit { .. } => {
                Err("submit frames are dispatched by the I/O threads, not the router".into())
            }
            Request::Query { what, shard } => self.query(what, shard),
            Request::Reconfigure {
                security_levels,
                shard,
                at,
            } => self.reconfigure(&security_levels, shard, at),
            Request::FailSite { site, at } => self.set_site_online(site, at, false),
            Request::RejoinSite { site, at } => self.set_site_online(site, at, true),
            Request::Reshard { shards } => {
                let shards = shards
                    .into_iter()
                    .map(|ss| ss.into_iter().map(SiteId).collect())
                    .collect();
                Ok(match self.reshard(shards) {
                    Ok(jobs_migrated) => Response::Resharded {
                        shards: self.plan.n_shards(),
                        jobs_migrated,
                        reshards_completed: self.archive_metrics.reshards_completed,
                    },
                    Err(message) => Response::ReshardRejected { message },
                })
            }
            // `rounds` stays cumulative across reshards by folding in the
            // archived count.
            Request::Drain => {
                drain_all(&self.shard_txs).map(|(rounds, jobs_scheduled)| Response::Drained {
                    rounds: rounds + self.archive_metrics.rounds,
                    jobs_scheduled,
                })
            }
            Request::TraceDump => Ok(Response::TraceDump {
                events: gridsec_obs::recorder::snapshot(),
            }),
            Request::Shutdown => self.shutdown(),
        };
        result.unwrap_or_else(|message| Response::Error { message })
    }

    /// The shards a frame names — all of them, or the one-shard slice
    /// `k..k+1` ([`Router::respond`] has refused a `k` past the plan) — and
    /// whether that is the whole grid.
    fn scope(&self, shard: Option<usize>) -> (&[Sender<ShardMsg>], bool) {
        match shard {
            None => (&self.shard_txs, true),
            Some(k) => (&self.shard_txs[k..k + 1], false),
        }
    }

    /// A query over the shards it names: ask, then concatenate or merge in
    /// shard order. The whole-grid view also folds in the archives of
    /// shards retired by reshards — so it stays cumulative across topology
    /// changes — and the router's reshard histograms; nothing else
    /// differs.
    fn query(&self, what: QueryWhat, shard: Option<usize>) -> Result<Response, String> {
        let (txs, whole) = self.scope(shard);
        Ok(match what {
            QueryWhat::Metrics => Response::Metrics {
                metrics: self.metrics(txs, whole)?.0,
            },
            QueryWhat::Schedule => {
                // Archived commits first (reshard order), then the live
                // shards concatenated in shard order (commit order within
                // each) — deterministic, and the identity for one shard
                // with no reshard history. Every ledger is decoded once,
                // straight into the reply: the shards take turns
                // appending to one vector sized for all of them.
                let archive = whole.then_some(&self.archive_schedule);
                let live: usize = ask(txs, |shard| shard.session.assignments().len())?
                    .into_iter()
                    .sum();
                let mut assignments = Vec::with_capacity(archive.map_or(0, Ledger::len) + live);
                assignments.extend(archive.into_iter().flatten());
                let reply = Arc::new(Mutex::new(assignments));
                for tx in txs {
                    let reply = Arc::clone(&reply);
                    ask(std::slice::from_ref(tx), move |shard| {
                        shard.append_global_schedule(&mut reply.lock().expect("schedule lock"));
                    })?;
                }
                // A shard may still hold its clone of `reply` for a moment
                // after answering: take the vector, not the `Arc`.
                let assignments = std::mem::take(&mut *reply.lock().expect("schedule lock"));
                Response::Schedule { assignments }
            }
            QueryWhat::Shards => Response::Shards {
                shards: ask(txs, |shard| shard.info())?,
            },
            QueryWhat::Telemetry => {
                let shards = ask(txs, |shard| shard.session.telemetry(shard.shard))?;
                let (reshard_barrier_nanos, reshard_migrated_jobs) = match whole {
                    true => (
                        self.reshard_barrier_nanos.snapshot(),
                        self.reshard_migrated_jobs.snapshot(),
                    ),
                    false => Default::default(),
                };
                Response::Telemetry {
                    telemetry: TelemetryReport {
                        shards,
                        reshard_barrier_nanos,
                        reshard_migrated_jobs,
                        recorder: gridsec_obs::recorder::status(),
                    },
                }
            }
        })
    }

    /// The merged metrics of the shards behind `txs` — with the archive of
    /// retired ones when that is the `whole` grid, so a reshard never
    /// resets a total — and each of those shards' pending count.
    fn metrics(
        &self,
        txs: &[Sender<ShardMsg>],
        whole: bool,
    ) -> Result<(ServeMetrics, Vec<usize>), String> {
        let live = ask(txs, |shard| shard.session.metrics())?;
        let pending = live.iter().map(|m| m.pending).collect();
        let archive = whole.then(|| self.archive_metrics.clone());
        let all: Vec<ServeMetrics> = archive.into_iter().chain(live).collect();
        Ok((ServeMetrics::merge(&all), pending))
    }

    /// A trust update: validate once, hand every named shard the levels
    /// by global site id, gather the acks. `levels` come in global site
    /// order for the whole grid and in shard-local order for one shard.
    fn reconfigure(
        &self,
        levels: &[f64],
        shard: Option<usize>,
        at: Option<Time>,
    ) -> Result<Response, String> {
        let (txs, _) = self.scope(shard);
        let sites: Vec<SiteId> = match shard {
            None => self.grid.sites().map(|s| s.id).collect(),
            Some(k) => self.plan.sites_of(k).to_vec(),
        };
        if levels.len() != sites.len() {
            return Err(format!(
                "reconfigure: {} security levels for {} sites",
                levels.len(),
                sites.len()
            ));
        }
        if let Some(bad) = levels.iter().find(|l| !(0.0..=1.0).contains(*l)) {
            return Err(format!("reconfigure: security level {bad} not in [0, 1]"));
        }
        let mut by_site = vec![0.0; self.grid.len()];
        for (site, level) in sites.iter().zip(levels) {
            by_site[site.0] = *level;
        }
        for applied in ask(txs, move |shard| shard.reconfigure(&by_site, at))? {
            applied?;
        }
        Ok(Response::Reconfigured { sites: sites.len() })
    }

    /// Takes a site offline (a `fail_site` frame) or brings it back
    /// (`rejoin_site`). The router is the gatekeeper: it refuses a
    /// double-fail or a spurious rejoin against its own offline set, has
    /// the owning shard apply the injection (requeueing stranded jobs),
    /// and only then flips the set and republishes the routing table — a
    /// failed injection leaves routing untouched.
    fn set_site_online(
        &mut self,
        site: usize,
        at: Option<Time>,
        online: bool,
    ) -> Result<Response, String> {
        let what = if online { "rejoin_site" } else { "fail_site" };
        let Some((k, local)) = self.plan.to_local(SiteId(site)) else {
            return Err(format!("{what}: unknown site {site}"));
        };
        if self.offline[site] != online {
            let state = if online { "not" } else { "already" };
            return Err(format!("{what}: site {site} is {state} offline"));
        }
        let owner = &self.shard_txs[k..k + 1];
        let requeued: usize = ask(owner, move |shard| shard.set_site_online(local, online, at))?
            .into_iter()
            .sum::<Result<_, String>>()?;
        self.offline[site] = !online;
        self.publish_open(); // derived routing follows the set
        Ok(match online {
            true => Response::SiteRejoined { site, shard: k },
            false => Response::SiteFailed {
                site,
                shard: k,
                requeued,
            },
        })
    }

    /// `shutdown`: seal, drain, stop every shard, close — in that order.
    /// A failed drain is reported, and the daemon winds down all the same.
    fn shutdown(&mut self) -> Result<Response, String> {
        // Seal the submit path: queued submits are consumed by the drain
        // barrier below, later ones park.
        self.publish_table(DirectPath::Sealed);
        let drained = drain_all(&self.shard_txs);
        // Barrier: every shard persists its state and exits before the
        // client hears `bye`.
        stop_shards(&self.shard_txs, &mut self.shard_handles);
        // Closed before `bye` goes out: a submit fenced behind this frame
        // is refused in the pass that releases `bye`; ones parked on other
        // connections, now.
        self.publish_table(DirectPath::Closed);
        match drained {
            Ok(_) => Ok(Response::Bye),
            Err(message) => Err(format!("drain before shutdown failed: {message}")),
        }
    }

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
        drain_all(&self.shard_txs)
            .map_err(|message| format!("drain at the reshard barrier failed: {message}"))?;
        // Export-and-hold: each shard freezes after answering.
        let export_span = gridsec_obs::span!("reshard_export");
        let Some(exports) = gather(&self.shard_txs, |tx| ShardMsg::GatherState { reply: tx })
        else {
            self.resume_shards();
            return Err(SHARD_DOWN.into());
        };
        drop(export_span);
        let transfer_span = gridsec_obs::span!("reshard_transfer" => ids);
        let moved = match transfer(&self.grid, &self.plan, &exports, &new_plan) {
            Ok(t) => t,
            Err(message) => {
                // Gone before the old shards resume, so each owns its id
                // tables alone again.
                drop(exports);
                self.resume_shards();
                return Err(message);
            }
        };
        transfer_span.end_with(moved.ids as i64);
        // Rebuild every session before touching the old shards, so a
        // factory failure aborts with the daemon fully intact.
        let specs = {
            let _respawn_span = gridsec_obs::span!("reshard_respawn");
            build_shards(&self.grid, &new_plan, moved.seeds, &mut self.factory)
        };
        let specs = match specs {
            Ok(specs) => specs,
            Err((_, message)) => {
                drop(exports);
                self.resume_shards();
                return Err(message);
            }
        };
        // Point of no return: retire the old shards (they persist their
        // state files on Stop), archive their history, swap in the new.
        // The old sessions and the exports are gone before the new shards
        // start, so each new session owns the id tables it inherited and
        // settles them without a copy.
        let _swap_span = gridsec_obs::span!("reshard_swap");
        stop_shards(&self.shard_txs, &mut self.shard_handles);
        for e in exports {
            let mut m = e.metrics;
            m.jobs_scheduled = 0;
            m.pending = 0;
            self.archive_metrics = ServeMetrics::merge(&[self.archive_metrics.clone(), m]);
            self.archive_schedule.extend(e.schedule);
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
        // One ask, so each shard answers queue depth and round-latency
        // telemetry from the *same* instant: the two samples can never
        // straddle a round, and the shard is held once per tick.
        let Ok(samples) = ask(&self.shard_txs, |shard| {
            (shard.info(), shard.session.telemetry(shard.shard))
        }) else {
            return; // a shard is down; routing will surface it
        };
        let (observations, next_prev): (Vec<_>, Vec<_>) = samples
            .into_iter()
            .enumerate()
            .map(|(i, (info, t))| {
                let baseline = self.prev_round_hist.get(i).cloned().unwrap_or_default();
                // p95 nanos → micros; 0 when no round ran since last tick.
                let round_micros = t.round_nanos.delta_since(&baseline).p95() / 1_000;
                let observation = ShardObservation {
                    sites: info.sites,
                    pending: info.pending,
                    round_micros,
                };
                (observation, t.round_nanos)
            })
            .unzip();
        self.prev_round_hist = next_prev;
        let policy = self.autoscale.as_mut();
        let Some(proposal) = policy.and_then(|p| p.observe(&observations)) else {
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

    /// Gathers one scrape's numbers and renders the page
    /// ([`exposition::render`]).
    fn render_exposition(&self) -> String {
        let Ok((metrics, pending)) = self.metrics(&self.shard_txs, true) else {
            return format!("# gridsec-serve: {SHARD_DOWN}\n");
        };
        let Ok(ledger_bytes) = ask(&self.shard_txs, |shard| shard.session.assignments().bytes())
        else {
            return format!("# gridsec-serve: {SHARD_DOWN}\n");
        };
        let queue_depth: Vec<usize> = self.direct_queues.iter().map(|q| q.len()).collect();
        let (io_wakes, shard_pokes, io_events_per_pass) = self.io.wake_stats();
        exposition::render(&exposition::Page {
            metrics: &metrics,
            pending: &pending,
            queue_depth: &queue_depth,
            reshard_barrier_nanos: &self.reshard_barrier_nanos.snapshot(),
            reshard_migrated_jobs: &self.reshard_migrated_jobs.snapshot(),
            router_frame_nanos: &self.frame_nanos.snapshot(),
            connections: self.io.connections.load(Ordering::Relaxed),
            slow_disconnects: self.io.slow_disconnects.load(Ordering::Relaxed),
            idle_reaped: self.io.idle_reaped.load(Ordering::Relaxed),
            parked: std::array::from_fn(|i| self.io.parked[i].load(Ordering::Relaxed)),
            io_wakes,
            shard_pokes,
            io_events_per_pass: &io_events_per_pass,
            recorder: gridsec_obs::recorder::status(),
            ledger_bytes: &ledger_bytes,
            archive_ledger_bytes: self.archive_schedule.bytes(),
            recorder_bytes: gridsec_obs::recorder::bytes(),
        })
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
                Ok(IngestEvent::Scrape(reply)) => {
                    reply.send(Reply::page(SHUTTING_DOWN_PAGE.into()))
                }
                Err(_) => break, // quiet (or disconnected): done
            }
        }
    }
}

/// Frame-level derived routing, run on the I/O threads against the
/// routing table the router publishes: each job routes by
/// [`ShardPlan::route_online`] (offline sites excluded), and every job of
/// the frame must route to one and the same shard. The first job that
/// breaks that yields a typed rejection for the whole frame (nothing was
/// enqueued): a job that fits no site or spans shards gets
/// `route_rejected`, one that fits only offline sites `site_offline`
/// instead of queueing on a dead shard. Explicit-`shard` submits bypass
/// this (they enqueue and defer until a site rejoins — the scenario
/// engine's replay path).
pub(crate) fn derive_route(
    grid: &Grid,
    plan: &ShardPlan,
    offline: &[bool],
    jobs: &[gridsec_core::Job],
) -> Result<usize, Box<Response>> {
    let mut target: Option<(usize, JobId)> = None;
    for job in jobs {
        let k = match plan.route_online(grid, offline, job) {
            Routing::Unique(k) => k,
            Routing::NoFit => {
                return Err(Box::new(Response::RouteRejected {
                    job: job.id,
                    shards: Vec::new(),
                    message: format!("job {} fits no site on any shard", job.id),
                }));
            }
            Routing::Offline(sites) => {
                return Err(Box::new(Response::SiteOffline {
                    job: job.id,
                    message: format!(
                        "job {} is eligible only on offline sites {:?}; resubmit after a rejoin \
                         (or pass an explicit shard to queue it)",
                        job.id,
                        sites.iter().map(|s| s.0).collect::<Vec<_>>()
                    ),
                    sites,
                }));
            }
            Routing::Spanning(spanning) => {
                return Err(Box::new(Response::RouteRejected {
                    job: job.id,
                    message: format!(
                        "job {} is eligible on sites spanning shards {spanning:?}; pass an \
                         explicit shard to place it",
                        job.id
                    ),
                    shards: spanning,
                }));
            }
        };
        match target {
            None => target = Some((k, job.id)),
            Some((t, first)) if t != k => {
                return Err(Box::new(Response::RouteRejected {
                    job: job.id,
                    shards: vec![t.min(k), t.max(k)],
                    message: format!(
                        "jobs in one frame must route to one shard: job {first} routes to \
                         shard {t}, job {} to shard {k} (split the frame or pass an \
                         explicit shard)",
                        job.id
                    ),
                }));
            }
            Some(_) => {}
        }
    }
    // An empty (or zero-job) frame routes to shard 0: it enqueues
    // nothing, so any shard gives the same `accepted` answer.
    Ok(target.map_or(0, |(k, _)| k))
}

//! Per-shard scheduling threads: each shard of the grid gets its own
//! [`OnlineSession`] (own `RoundDriver`, availability model, scheduler
//! state — GA population pool and STGA history table included) running on
//! a dedicated thread, so rounds on different shards proceed
//! concurrently. Site-disjointness makes this exact, not approximate: a
//! shard's schedule is bit-identical to the schedule of an independent
//! daemon serving just that shard's subgrid (pinned by the
//! `sharding_equivalence` suite).
//!
//! What a shard *is* comes from one place, the daemon's
//! [`SessionFactory`](crate::SessionFactory), which returns a
//! [`ShardSpec`]; this module is what runs one.
//!
//! The shard thread speaks shard-local site ids internally (its session
//! runs over the re-indexed subgrid) and translates to global site ids on
//! every outbound schedule, so clients only ever see the real grid.

use crate::conn::{DirectSubmit, ReplyHandle, DIRECT_QUEUE_CAP};
use crate::daemon::{shard_down, ClockMode, Reply};
use crate::protocol::{
    encode, Placed, QueryWhat, Response, ServeMetrics, ShardInfo, ShardTelemetry, TelemetryReport,
};
use crate::session::{Admission, OnlineSession};
use crossbeam_queue::ArrayQueue;
use gridsec_core::{Job, SiteId, Time};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One shard as a [`SessionFactory`](crate::SessionFactory) builds it: the
/// session over the shard's subgrid plus, for history-backed schedulers,
/// the snapshot that carries what they learned across topologies and
/// restarts.
pub struct ShardSpec {
    /// The shard's scheduling session (grid = the shard's subgrid).
    pub session: OnlineSession,
    /// Optional scheduler-history snapshot (e.g. `SharedHistory::to_json`).
    /// Taken at a reshard barrier, where the text travels to the
    /// successor shards' factories as `history_sources`, and when the
    /// shard stops, where — under a
    /// [`DaemonOptions::state_prefix`](crate::DaemonOptions::state_prefix)
    /// — it is written to the shard's state file, which the next boot
    /// hands back to the factory the same way.
    pub history: Option<Box<dyn Fn() -> String + Send>>,
}

impl ShardSpec {
    /// A shard whose scheduler carries nothing between topologies.
    pub fn new(session: OnlineSession) -> ShardSpec {
        ShardSpec {
            session,
            history: None,
        }
    }
}

/// A control message to one shard thread (jobs never travel here — they
/// arrive on the shard's [`DirectSubmit`] queue).
///
/// `Query`/`Reconfigure` carry the client's reply channel and sequence
/// number — the shard answers the client directly. The `Gather*`
/// variants return raw data to the router, which merges across shards.
pub(crate) enum ShardMsg {
    /// One shard's view; replies `schedule`/`metrics`/`shards`.
    Query {
        what: QueryWhat,
        reply: ReplyHandle,
        seq: u64,
    },
    /// Scoped trust update (shard-local site order); replies
    /// `reconfigured`/`error`. `at` is the virtual apply instant
    /// (virtual-clock mode only).
    Reconfigure {
        levels: Vec<f64>,
        at: Option<Time>,
        reply: ReplyHandle,
        seq: u64,
    },
    /// Wake-up from an I/O thread that moved the shard's [`SubmitQueue`]
    /// from `idle` to `poked`: sent once, at the end of the I/O pass that
    /// made the move, however many submits that pass (or any other I/O
    /// thread, while the state stayed `poked`) pushed. The message
    /// carries nothing and orders nothing — which pushes the drain ahead
    /// of it sees is decided by the queue's wake state alone (the
    /// argument is on [`SubmitQueue`]); all it does is end the `recv`. A
    /// shard holding after `GatherState` drops it (the seal stopped the
    /// pushes and the export drained first), a retired shard's channel
    /// refuses it; both are fine.
    Poke,
    /// Take a shard-local site offline at `at` (returns how many stranded
    /// jobs were requeued) or bring it back online (returns 0). The
    /// router owns the global offline set and only updates it on success,
    /// so it blocks on the reply.
    GatherSiteOnline {
        site: SiteId,
        online: bool,
        at: Option<Time>,
        reply: Sender<Result<usize, String>>,
    },
    /// Metrics snapshot for an aggregated view.
    GatherMetrics { reply: Sender<ServeMetrics> },
    /// Telemetry histograms for an aggregated view (and the
    /// autoscaler's trend window).
    GatherTelemetry { reply: Sender<ShardTelemetry> },
    /// Committed schedule (global site ids) for an aggregated view.
    GatherSchedule { reply: Sender<Vec<Placed>> },
    /// Topology + cheap counters.
    GatherInfo { reply: Sender<ShardInfo> },
    /// One autoscaler sample: topology counters and telemetry taken from
    /// the same instant, so queue depth and round-latency trend can never
    /// straddle a round (and the shard is held once per tick, not twice).
    GatherObservation {
        reply: Sender<(ShardInfo, ShardTelemetry)>,
    },
    /// Trust update as part of a global reconfigure (levels already
    /// validated by the router).
    GatherReconfigure {
        levels: Vec<f64>,
        at: Option<Time>,
        reply: Sender<Result<(), String>>,
    },
    /// Drain this shard; returns `(rounds, jobs_scheduled)`.
    GatherDrain {
        reply: Sender<Result<(usize, usize), String>>,
    },
    /// Export the shard's full state (global site ids) for a reshard and
    /// **hold**: after replying, the shard accepts only `Stop` or
    /// `Resume`, so nothing (in particular no wall-clock timer round)
    /// mutates the session between the export and its fate.
    GatherState {
        reply: Sender<crate::reshard::ShardStateExport>,
    },
    /// Leave the post-`GatherState` hold and return to normal serving —
    /// sent when a reshard aborts (bad plan, factory failure) and the old
    /// shards live on.
    Resume,
    /// Persist state and exit the shard thread.
    Stop { done: Sender<()> },
}

/// Wake state of a [`SubmitQueue`]; the numeric order is what
/// [`SubmitQueue::push`]'s `fetch_max` relies on.
const IDLE: u8 = 0;
const POKED: u8 = 1;
const DEAD: u8 = 2;

/// What a [`SubmitQueue::push`] found out about the shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wake {
    /// This push moved the queue `idle → poked`: the pusher owes the
    /// shard one [`ShardMsg::Poke`] before it next blocks.
    Owed,
    /// The queue was `poked` already: whoever made that move owes the
    /// poke, and the drain it causes sees this push too.
    Coalesced,
    /// The shard thread is gone; nothing drains the queue any more.
    Dead,
}

/// One shard's submit queue — the only way jobs reach it: a bounded
/// lock-free ring the I/O threads push onto, and one atomic wake state
/// that says whether the shard has already been told to look.
///
/// | state | written by | meaning |
/// |---|---|---|
/// | `idle` | the shard, at the top of every drain | the next push must poke |
/// | `poked` | the first push after that | a poke is owed or under way; further pushes ride on it |
/// | `dead` | the shard thread's exit, unwinding included | pushes are answered `shard_down` where they are made |
///
/// **No push is left behind a sleeping shard.** Every access to the state
/// is an acquire-release read-modify-write — `fetch_max` to push, `swap`
/// to drain or to die — so the accesses fall in one order and each
/// synchronises with all the later ones (a read-modify-write continues
/// the release sequence it reads from). Let *P* be a push's `fetch_max`.
///
/// * A drain whose `swap` comes after *P* sees the submit: the ring push
///   is sequenced before *P*, *P* happens-before that `swap`, and the
///   `swap` is sequenced before the drain's first `pop`.
/// * Such a drain comes. If *P* found `idle`, its thread sends a `Poke`
///   after it (at the end of its pass), and the drain that message — or
///   any message ahead of it — starts happens after *P*. If *P* found
///   `poked`, that was written by an earlier `fetch_max` *Q* with no
///   `swap` between the two; *Q*'s thread owes the `Poke`, and the drain
///   it starts swaps after *Q*, hence after *P*.
/// * The `swap` to `dead` is the last write: a push ordered before it is
///   answered by the dying thread, one ordered after it sees `dead`.
pub(crate) struct SubmitQueue {
    ring: ArrayQueue<DirectSubmit>,
    wake: AtomicU8,
}

impl SubmitQueue {
    pub(crate) fn new() -> SubmitQueue {
        SubmitQueue {
            ring: ArrayQueue::new(DIRECT_QUEUE_CAP),
            wake: AtomicU8::new(IDLE),
        }
    }

    /// I/O-thread side: pushes `submit` (handing it back when the ring is
    /// full — a full ring still needs its shard awake) and raises the
    /// wake state to at least `poked`.
    pub(crate) fn push(&self, submit: DirectSubmit) -> (Result<(), DirectSubmit>, Wake) {
        let pushed = self.ring.push(submit);
        let wake = match self.wake.fetch_max(POKED, Ordering::AcqRel) {
            IDLE => Wake::Owed,
            POKED => Wake::Coalesced,
            _ => Wake::Dead,
        };
        (pushed, wake)
    }

    /// Shard side, first step of a drain: `poked → idle`, *before* the
    /// first [`pop`](Self::pop) — a push that lands after the last `pop`
    /// must find `idle` and poke again.
    fn begin_drain(&self) {
        self.wake.swap(IDLE, Ordering::AcqRel);
    }

    fn pop(&self) -> Option<DirectSubmit> {
        self.ring.pop()
    }

    /// Submit frames waiting for the shard (`gridsec_direct_queue_depth`).
    pub(crate) fn len(&self) -> usize {
        self.ring.len()
    }
}

/// The shard thread's end of its [`SubmitQueue`]. Dropping it is the
/// shard's death notice, and [`ShardRuntime::run`] owns it, so it is
/// served on every way out of the thread — `Stop`, a vanished router, a
/// failed timer round, a scheduler panic unwinding through a round: the
/// queue goes `dead` (from here on the I/O threads answer `shard_down`
/// themselves), then the submit that was being handled and whatever is
/// still queued are answered `shard_down`. A submit pushed across the
/// `swap` may be answered from both sides; the sink keeps one answer per
/// sequence number.
pub(crate) struct SubmitDrain {
    queue: Arc<SubmitQueue>,
    /// Reply route of the submit being handled, so a panic under it
    /// still answers its client.
    in_flight: Option<(ReplyHandle, u64)>,
}

impl SubmitDrain {
    pub(crate) fn new(queue: Arc<SubmitQueue>) -> SubmitDrain {
        SubmitDrain {
            queue,
            in_flight: None,
        }
    }
}

impl Drop for SubmitDrain {
    fn drop(&mut self) {
        self.queue.wake.swap(DEAD, Ordering::AcqRel);
        let down = shard_down();
        let queued = std::iter::from_fn(|| self.queue.pop().map(|d| (d.reply, d.seq)));
        for (reply, seq) in self.in_flight.take().into_iter().chain(queued) {
            reply.send(Reply::frame(seq, &down));
        }
    }
}

/// Everything one shard thread owns.
pub(crate) struct ShardRuntime {
    pub shard: usize,
    pub session: OnlineSession,
    /// Local site index → global [`SiteId`].
    pub global_sites: Vec<SiteId>,
    pub clock: ClockMode,
    pub start: Instant,
    pub max_pending: Option<usize>,
    pub history: Option<Box<dyn Fn() -> String + Send>>,
    /// Where `history` is written when the shard stops:
    /// `shard_state_path(state_prefix, shard)`, or `None` without a prefix.
    pub state_path: Option<PathBuf>,
    /// The submit queue fed by the I/O threads — the only way jobs reach
    /// this shard. Drained ahead of every control message so
    /// router-serialised barriers (drain, reshard, shutdown) observe
    /// every accepted submit.
    pub direct: SubmitDrain,
}

impl ShardRuntime {
    /// The shard scheduling loop: drains the shard's queue in order; in
    /// wall-clock mode it also wakes up for due batch boundaries. Exits
    /// on `Stop` or when the router goes away, persisting state either
    /// way. Taking `self` by value is what makes [`SubmitDrain`]'s drop
    /// run on every exit, a panic in a round included.
    pub(crate) fn run(mut self, rx: Receiver<ShardMsg>) {
        loop {
            let msg = match self.clock {
                ClockMode::Virtual => match rx.recv() {
                    Ok(m) => m,
                    Err(_) => break, // router gone without a shutdown frame
                },
                ClockMode::WallClock => {
                    let now = Time::new(self.start.elapsed().as_secs_f64());
                    let timeout = self
                        .session
                        .next_boundary()
                        .map(|b| Duration::from_secs_f64((b.seconds() - now.seconds()).max(0.0)));
                    match timeout {
                        None => match rx.recv() {
                            Ok(m) => m,
                            Err(_) => break,
                        },
                        Some(wait) => match rx.recv_timeout(wait) {
                            Ok(m) => m,
                            Err(RecvTimeoutError::Timeout) => {
                                // Jobs pushed before the boundary make the
                                // round (their arrival stamps precede it).
                                self.drain_direct();
                                let t = Time::new(self.start.elapsed().as_secs_f64());
                                if self.session.tick(t).is_err() {
                                    // A scheduler failure on a timer round
                                    // is fatal for the shard.
                                    break;
                                }
                                continue;
                            }
                            Err(RecvTimeoutError::Disconnected) => break,
                        },
                    }
                }
            };
            // Submits a client (or the seal) put ahead of this message
            // were pushed before it was sent, so draining first keeps the
            // per-client order and lets barriers (drain/reshard/shutdown)
            // see every accepted submit.
            self.drain_direct();
            match msg {
                ShardMsg::Query { what, reply, seq } => {
                    let response = self.handle_query(what);
                    reply.send(Reply::frame(seq, &response));
                }
                ShardMsg::Reconfigure {
                    levels,
                    at,
                    reply,
                    seq,
                } => {
                    let at = self.injection_instant(at);
                    let response = match self.session.set_security_levels_at(&levels, at) {
                        Ok(()) => Response::Reconfigured {
                            sites: levels.len(),
                        },
                        Err(e) => Response::Error {
                            message: format!("shard {}: {e}", self.shard),
                        },
                    };
                    reply.send(Reply::frame(seq, &response));
                }
                ShardMsg::GatherSiteOnline {
                    site,
                    online,
                    at,
                    reply,
                } => {
                    let at = self.injection_instant(at);
                    let result = match online {
                        true => self.session.rejoin_site(site, at).map(|()| 0),
                        false => self.session.fail_site(site, at).map(|jobs| jobs.len()),
                    };
                    let _ = reply.send(result.map_err(|e| format!("shard {}: {e}", self.shard)));
                }
                ShardMsg::GatherMetrics { reply } => {
                    let _ = reply.send(self.session.metrics());
                }
                ShardMsg::GatherTelemetry { reply } => {
                    let _ = reply.send(self.session.telemetry(self.shard));
                }
                ShardMsg::GatherSchedule { reply } => {
                    let _ = reply.send(self.global_schedule());
                }
                ShardMsg::GatherInfo { reply } => {
                    let _ = reply.send(self.info());
                }
                ShardMsg::GatherObservation { reply } => {
                    let _ = reply.send((self.info(), self.session.telemetry(self.shard)));
                }
                ShardMsg::Poke => {} // drained above
                ShardMsg::GatherReconfigure { levels, at, reply } => {
                    let at = self.injection_instant(at);
                    let result = self
                        .session
                        .set_security_levels_at(&levels, at)
                        .map_err(|e| format!("shard {}: {e}", self.shard));
                    let _ = reply.send(result);
                }
                ShardMsg::GatherDrain { reply } => {
                    let result = self
                        .session
                        .drain()
                        .map(|rounds| (rounds, self.session.jobs_scheduled()))
                        .map_err(|e| format!("shard {}: {e}", self.shard));
                    let _ = reply.send(result);
                }
                ShardMsg::GatherState { reply } => {
                    let _ = reply.send(self.export());
                    // Hold: the state just exported must stay the truth
                    // until the router decides (swap → Stop, abort →
                    // Resume). The plain recv() also parks the wall-clock
                    // timer. The router is single-threaded, so nothing
                    // else can arrive here.
                    loop {
                        match rx.recv() {
                            Ok(ShardMsg::Resume) => break,
                            Ok(ShardMsg::Stop { done }) => {
                                self.save_state();
                                let _ = done.send(());
                                return;
                            }
                            // Dropping any other message drops its reply
                            // sender, surfacing as a shard-down error at
                            // the router rather than a deadlock.
                            Ok(_) => {}
                            Err(_) => {
                                self.save_state();
                                return;
                            }
                        }
                    }
                }
                ShardMsg::Resume => {}
                ShardMsg::Stop { done } => {
                    self.save_state();
                    let _ = done.send(());
                    return;
                }
            }
        }
        // Router gone or fatal timer round: persist best-effort.
        self.save_state();
    }

    /// Empties the submit queue, answering each client straight from the
    /// shard thread. The wake state is cleared first and the ring popped
    /// second ([`SubmitQueue`] has the argument): cleared afterwards, a
    /// push between the last `pop` and the clear would find `poked`, send
    /// no poke and wait for a shard that has gone back to sleep.
    fn drain_direct(&mut self) {
        self.direct.queue.begin_drain();
        #[cfg(test)]
        crate::conn::seam::fire(); // a test's push, forced between the two steps
        while let Some(d) = self.direct.queue.pop() {
            self.direct.in_flight = Some((d.reply, d.seq));
            let response = self.handle_submit(d.jobs, d.tenant.as_deref());
            if let Some((reply, seq)) = self.direct.in_flight.take() {
                reply.send(Reply::frame(seq, &response));
            }
        }
    }

    /// The wall-clock stamp for an arrival or injection: the monotonic
    /// clock, but never behind the session clock — a `drain` (so every
    /// barrier) fires the armed boundary at its *scheduled* instant, up
    /// to one interval ahead of real time, and a raw monotonic stamp
    /// would then be refused as arriving in the past.
    fn wall_now(&self) -> Time {
        Time::new(self.start.elapsed().as_secs_f64()).max(self.session.now())
    }

    /// The instant a chaos injection (fail/rejoin/reconfigure) applies
    /// at: wall-clock daemons stamp their clock exactly like arrivals
    /// (the frame's `at` is ignored); virtual-clock daemons honour the
    /// frame's `at`, defaulting to the session clock.
    fn injection_instant(&self, at: Option<Time>) -> Option<Time> {
        match self.clock {
            ClockMode::Virtual => at,
            ClockMode::WallClock => Some(self.wall_now()),
        }
    }

    /// Enqueues a routed submit frame: wall-clock stamping, bounded-queue
    /// backpressure, partial-accept semantics on semantic errors.
    fn handle_submit(&mut self, jobs: Vec<Job>, tenant: Option<&str>) -> Response {
        let mut accepted = 0usize;
        for mut job in jobs {
            if self.clock == ClockMode::WallClock {
                job.arrival = self.wall_now();
            }
            match self
                .session
                .submit_bounded_as(job, self.max_pending, tenant)
            {
                Ok(Admission::Enqueued) => accepted += 1,
                Ok(Admission::Busy { pending }) => {
                    // Jobs before this one stay accepted; the rest of the
                    // frame was not enqueued and must be resubmitted.
                    return Response::Busy {
                        jobs: accepted,
                        shard: self.shard,
                        pending,
                        limit: self.max_pending.expect("busy implies a bound"),
                    };
                }
                Err(e) => {
                    return Response::Error {
                        message: format!(
                            "shard {}: after {accepted} accepted jobs: {e}",
                            self.shard
                        ),
                    };
                }
            }
        }
        Response::Accepted {
            jobs: accepted,
            shard: self.shard,
            pending: self.session.pending(),
            rounds: self.session.rounds_run(),
        }
    }

    /// One shard's view of a query.
    fn handle_query(&self, what: QueryWhat) -> Response {
        match what {
            QueryWhat::Schedule => Response::Schedule {
                assignments: self.global_schedule(),
            },
            QueryWhat::Metrics => Response::Metrics {
                metrics: self.session.metrics(),
            },
            QueryWhat::Shards => Response::Shards {
                shards: vec![self.info()],
            },
            // A shard-scoped telemetry query reports just this shard;
            // the reshard histograms are router-level and stay at their
            // defaults here (the aggregated query carries them).
            QueryWhat::Telemetry => Response::Telemetry {
                telemetry: TelemetryReport {
                    shards: vec![self.session.telemetry(self.shard)],
                    recorder: gridsec_obs::recorder::status(),
                    ..TelemetryReport::default()
                },
            },
        }
    }

    /// The shard's full state for a reshard transfer, translated to
    /// global site ids.
    fn export(&self) -> crate::reshard::ShardStateExport {
        let st = self.session.export_state();
        crate::reshard::ShardStateExport {
            shard: self.shard,
            clock: st.clock,
            sites: st
                .sites
                .iter()
                .enumerate()
                .map(|(i, (free, offline))| (self.global_sites[i], free.clone(), *offline))
                .collect(),
            pending: st.pending,
            inflight: st
                .inflight
                .into_iter()
                .map(|(job, site, end)| (job, self.global_sites[site.0], end))
                .collect(),
            live: st.live,
            known: st.known,
            tenants: st.tenants,
            history_json: self.history.as_ref().map(|f| f()),
            metrics: self.session.metrics(),
            schedule: self.global_schedule(),
        }
    }

    /// The committed schedule with local site ids translated to global.
    fn global_schedule(&self) -> Vec<Placed> {
        self.session
            .assignments()
            .iter()
            .map(|p| Placed {
                site: self.global_sites[p.site.0],
                ..*p
            })
            .collect()
    }

    fn info(&self) -> ShardInfo {
        ShardInfo {
            shard: self.shard,
            sites: self.global_sites.clone(),
            scheduler: self.session.scheduler_name(),
            jobs_submitted: self.session.jobs_submitted(),
            jobs_scheduled: self.session.jobs_scheduled(),
            pending: self.session.pending(),
            rounds: self.session.rounds_run(),
        }
    }

    /// Writes the history snapshot to the shard's state file, when there
    /// are both. Failures are reported on stderr — state files are an
    /// operational convenience, never worth killing the serving path over.
    fn save_state(&self) {
        let (Some(path), Some(snapshot)) = (&self.state_path, &self.history) else {
            return;
        };
        if let Err(e) = std::fs::write(path, snapshot()) {
            eprintln!(
                "gridsec-serve: shard {}: cannot write state file {}: {e}",
                self.shard,
                path.display()
            );
        }
    }
}

/// Builds one reply frame (shared by shard threads and the router).
impl Reply {
    pub(crate) fn frame(seq: u64, response: &Response) -> Reply {
        Reply {
            seq,
            line: encode(response),
            flushed: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::{seam, tests::Rig};
    use gridsec_core::{Grid, Site};
    use gridsec_sim::scheduler::EarliestCompletion;
    use gridsec_sim::SimConfig;
    use std::cell::Cell;
    use std::rc::Rc;

    /// A one-site MCT shard the test runs by hand, draining `queue`.
    fn runtime(queue: &Arc<SubmitQueue>) -> ShardRuntime {
        let grid = Grid::new(vec![Site::builder(0).nodes(2).build().unwrap()]).unwrap();
        let config = SimConfig::default();
        ShardRuntime {
            shard: 0,
            session: OnlineSession::new(grid, Box::new(EarliestCompletion), &config).unwrap(),
            global_sites: vec![SiteId(0)],
            clock: ClockMode::Virtual,
            start: Instant::now(),
            max_pending: None,
            history: None,
            state_path: None,
            direct: SubmitDrain::new(Arc::clone(queue)),
        }
    }

    fn submit(seq: u64, reply: &ReplyHandle) -> DirectSubmit {
        DirectSubmit {
            jobs: vec![Job::builder(seq).work(1.0).build().unwrap()],
            shard: None,
            tenant: None,
            reply: reply.clone(),
            seq,
        }
    }

    /// I/O → shard, every place a second push can fall relative to the
    /// drain the first one's poke causes: before its clear-then-pop,
    /// between the two steps, after both. The test plays the I/O thread —
    /// it delivers exactly the pokes its pushes were told they owe, as
    /// drains — and each time the queue ends empty with both clients
    /// answered.
    #[test]
    fn a_submit_pushed_before_between_or_after_the_clear_then_pop_is_never_left_behind() {
        for (position, second) in [
            ("before", Wake::Coalesced),
            ("between", Wake::Owed),
            ("after", Wake::Owed),
        ] {
            let mut rig = Rig::new(1);
            let queue = Arc::new(SubmitQueue::new());
            let mut shard = runtime(&queue);
            let owed = Rc::new(Cell::new(0));
            let push = {
                let (queue, owed, reply) = (Arc::clone(&queue), Rc::clone(&owed), rig.reply(0));
                move |seq, expect| {
                    let (pushed, wake) = queue.push(submit(seq, &reply));
                    assert!(pushed.is_ok());
                    assert_eq!(wake, expect, "{position}: push {seq}");
                    owed.set(owed.get() + usize::from(wake == Wake::Owed));
                }
            };
            let mut deliver_pokes = || {
                while owed.get() > 0 {
                    owed.set(owed.get() - 1);
                    shard.drain_direct();
                }
            };
            push(0, Wake::Owed);
            match position {
                "before" => push(1, second),
                "between" => seam::arm(move || push(1, second)),
                _ => {
                    deliver_pokes();
                    push(1, second);
                }
            }
            deliver_pokes();
            assert_eq!(
                queue.len(),
                0,
                "{position}: a submit sits behind a shard nobody will poke"
            );
            rig.settle(2, position);
            for line in rig.lines(0, 2) {
                assert!(line.contains("\"accepted\""), "{position}: {line}");
            }
        }
    }

    /// The death notice: whatever is queued when the shard thread's state
    /// is dropped is answered `shard_down`, and later pushes are told the
    /// shard is dead instead of being queued for nobody.
    #[test]
    fn a_dropped_shard_answers_its_queue_and_later_pushes_find_it_dead() {
        let mut rig = Rig::new(1);
        let reply = rig.reply(0);
        let queue = Arc::new(SubmitQueue::new());
        let shard = runtime(&queue);
        assert_eq!(queue.push(submit(0, &reply)).1, Wake::Owed);
        assert_eq!(queue.push(submit(1, &reply)).1, Wake::Coalesced);
        drop(shard);
        rig.settle(2, "death notice");
        for line in rig.lines(0, 2) {
            assert!(line.contains("no longer running"), "{line}");
        }
        assert_eq!(queue.push(submit(2, &reply)).1, Wake::Dead);
    }
}

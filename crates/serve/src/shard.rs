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
use crate::daemon::{ClockMode, Reply};
use crate::protocol::{encode, Placed, Response, ShardInfo};
use crate::router::shard_down;
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
/// arrive on the shard's [`DirectSubmit`] queue). No variant carries a
/// client's [`ReplyHandle`]: control goes router → shard → router, and the
/// router answers the client.
pub(crate) enum ShardMsg {
    /// Run this on the shard's thread: every query, trust update, site
    /// injection and drain is one of these, built by the router's `ask`,
    /// which hands the closure's result back over a private channel the
    /// closure owns. A closure may rely on three things:
    ///
    /// 1. **The submit queue was drained first** — every submit pushed
    ///    before the message was sent has been enqueued, so per-client
    ///    order holds and a barrier sees every accepted job.
    /// 2. **It never runs inside a round** — it has the session to itself,
    ///    between two messages of the shard loop.
    /// 3. **Dropped unrun, it reads as `shard_down`** — a shard thread
    ///    that unwinds with the message queued, or sits in the
    ///    post-`GatherState` hold, drops the closure and with it the
    ///    result channel, so the router's wait ends in an error instead
    ///    of hanging.
    Ask(Box<dyn FnOnce(&mut ShardRuntime) + Send>),
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
    /// Export the shard's full state (global site ids) for a reshard and
    /// **hold**: after replying, the shard accepts only `Stop` or
    /// `Resume`, so nothing (in particular no wall-clock timer round)
    /// mutates the session between the export and its fate. The hold
    /// needs the shard's receiver, which is why this is a message of its
    /// own and not an `Ask`.
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
                ShardMsg::Ask(f) => f(&mut self),
                ShardMsg::Poke => {} // drained above
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
                            // Dropping any other message drops the sender
                            // its answer would travel on, surfacing as a
                            // shard-down error at the router rather than a
                            // deadlock.
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

    /// Applies a trust update the router has validated. `by_site` holds
    /// one level per site of the whole grid, indexed by global site id;
    /// the shard picks out its own.
    pub(crate) fn reconfigure(&mut self, by_site: &[f64], at: Option<Time>) -> Result<(), String> {
        let levels: Vec<f64> = self.global_sites.iter().map(|s| by_site[s.0]).collect();
        let at = self.injection_instant(at);
        self.session
            .set_security_levels_at(&levels, at)
            .map_err(|e| self.named(e))
    }

    /// Takes a shard-local site offline at `at` (returns how many stranded
    /// jobs were requeued) or brings it back online (returns 0).
    pub(crate) fn set_site_online(
        &mut self,
        site: SiteId,
        online: bool,
        at: Option<Time>,
    ) -> Result<usize, String> {
        let at = self.injection_instant(at);
        match online {
            true => self.session.rejoin_site(site, at).map(|()| 0),
            false => self.session.fail_site(site, at).map(|jobs| jobs.len()),
        }
        .map_err(|e| self.named(e))
    }

    /// Runs every due round; returns `(rounds, jobs_scheduled)`.
    pub(crate) fn drain(&mut self) -> Result<(usize, usize), String> {
        let rounds = self.session.drain().map_err(|e| self.named(e))?;
        Ok((rounds, self.session.jobs_scheduled()))
    }

    /// A session error as the client reads it: prefixed with the shard.
    fn named(&self, e: impl std::fmt::Display) -> String {
        format!("shard {}: {e}", self.shard)
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
            schedule: {
                let mut schedule = Vec::with_capacity(self.session.assignments().len());
                self.append_global_schedule(&mut schedule);
                schedule
            },
        }
    }

    /// Decodes the committed schedule onto the end of `out`, with local
    /// site ids translated to global.
    pub(crate) fn append_global_schedule(&self, out: &mut Vec<Placed>) {
        out.extend(self.session.assignments().iter().map(|p| Placed {
            site: self.global_sites[p.site.0],
            ..p
        }));
    }

    /// Topology and the cheap counters (`query what=shards`).
    pub(crate) fn info(&self) -> ShardInfo {
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

    /// A scrape's one reply: a rendered exposition page.
    pub(crate) fn page(line: String) -> Reply {
        Reply {
            seq: 0,
            line,
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

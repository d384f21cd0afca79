//! The event-driven connection layer's I/O shell: a few I/O threads
//! multiplex every client socket through epoll instead of spawning a
//! reader + writer thread per connection.
//!
//! Each accepted connection lives on one I/O thread (round-robin at
//! accept time), which owns its socket and its [`ConnCore`], where every
//! protocol decision is made; this shell only moves bytes and frames. The
//! connection's [`ReplySink`] is its cross-thread half, a mailbox any
//! thread may send [`Reply`] frames into.
//!
//! There is **one submit path**: a `submit` is routed where it is decoded,
//! against the shared [`RoutingTable`] snapshot, and pushed onto the
//! owning shard's [`SubmitQueue`]. Everything serialised — cross-shard
//! queries, reshard, drain, shutdown, chaos injections, scrapes — goes to
//! the router thread.
//!
//! **A thread is woken once per pass of the thread that wakes it**, in
//! both directions, and a pass is one trip round [`IoLoop::pass`] or one
//! shard drain — there is no count, threshold or timer behind it.
//!
//! * *I/O → shard.* The queue's wake state is `idle`, `poked` or `dead`
//!   (who writes which, and why no push can be left behind a sleeping
//!   shard, is on [`SubmitQueue`]). The push that moves it `idle → poked`
//!   notes the shard on its [`IoLoop`]; the notes become one
//!   `ShardMsg::Poke` each at the end of the pass — after every ready
//!   socket has been read, every parked submit retried and every ready
//!   sink finished, and before the thread can block in `Poller::wait`. A
//!   poke sent from inside the pass wakes the shard for the one frame
//!   read so far (on one processor it preempts this thread to do so), and
//!   the next frame pokes it again. Deferral costs a frame at most the
//!   rest of a pass: the one it was read in, or the one — on another I/O
//!   thread — that owes the poke it rides on.
//! * *shard → I/O.* [`IoLoopHandle`] carries one `wake_pending` flag. A
//!   [`ReplyHandle::send`] that lists its sink writes the waker byte only
//!   if its `swap(true)` found the flag clear; [`IoLoop::process_ready`]
//!   clears it *before* it takes the ready list. The same shape as the
//!   queue's argument: every access is an acquire-release
//!   read-modify-write, so they fall in one order and each synchronises
//!   with the later ones. A pass whose clear comes after a send's swap
//!   takes that send's sink — listed before the swap, taken after the
//!   clear. And such a pass comes: the send either found the flag clear
//!   and wrote the byte that ends the next `wait`, or found it set by an
//!   earlier send with no clear between the two, whose byte is answered
//!   by a clear that follows both.

use crate::conn_core::{ConnCore, ParkReason, Step, Submit};
use crate::daemon::{DaemonOptions, IngestEvent, Reply};
use crate::protocol::Response;
use crate::router::{derive_route, shard_down, shutting_down, SHUTTING_DOWN_PAGE};
use crate::shard::{ShardMsg, SubmitQueue, Wake};
use epoll::{Events, Interest, Poller, WakeReader, Waker};
use gridsec_core::Grid;
use gridsec_obs::{Histogram, HistogramSnapshot};
use gridsec_sim::ShardPlan;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Registration key of the I/O thread's waker.
const WAKER_KEY: u64 = u64::MAX;
/// Registration key of the TCP listener (I/O thread 0 only).
const LISTENER_KEY: u64 = u64::MAX - 1;
/// Registration key of the metrics listener (I/O thread 0 only).
const METRICS_KEY: u64 = u64::MAX - 2;
/// Read scratch size: a read that does not fill it has emptied the
/// socket (level-triggered epoll re-arms whatever arrives next), and four
/// that do are the per-wake cap before yielding to other connections.
pub(crate) const READ_CHUNK: usize = 64 * 1024;
/// Capacity of each shard's submit queue: the hard bound on frames taken
/// off the sockets but not yet seen by the shard. Overflow parks on its
/// connection (one frame each, reads paused): it costs throughput, never
/// memory.
pub(crate) const DIRECT_QUEUE_CAP: usize = 1024;
/// Poll timeout while a connection is parked on a full queue — about how
/// long a full queue of MCT work lasts, so the shard does not run dry.
const FULL_RETRY: Duration = Duration::from_millis(1);

/// A decoded `submit` frame with the route its reply takes.
pub(crate) struct DirectSubmit {
    pub(crate) frame: Submit,
    pub(crate) reply: ReplyHandle,
}

/// One shard's submit endpoints.
pub(crate) struct DirectShard {
    /// Bounded submit queue, drained by the shard thread before every
    /// control message it handles.
    pub(crate) queue: Arc<SubmitQueue>,
    /// The shard's control channel, used only to `Poke` it awake.
    pub(crate) control: Sender<ShardMsg>,
}

/// Whether (and where) submits can be pushed under a table snapshot.
pub(crate) enum DirectPath {
    /// Normal serving: one endpoint per shard of the snapshot's plan.
    Open(Vec<DirectShard>),
    /// A reshard/shutdown barrier is in progress: submits park until the
    /// next snapshot.
    Sealed,
    /// The shards are gone for good (shutdown): submits are refused.
    Closed,
}

/// An immutable snapshot of everything an I/O thread needs to route a
/// frame; the router publishes a fresh one (and wakes every I/O thread)
/// whenever the plan, the offline set or the direct path changes.
pub(crate) struct RoutingTable {
    pub(crate) grid: Arc<Grid>,
    pub(crate) plan: Arc<ShardPlan>,
    pub(crate) offline: Arc<Vec<bool>>,
    pub(crate) direct: DirectPath,
}

/// Exposition labels of [`WakeStats`]' counter pairs, in index order:
/// a wake that was sent, one that rode on a wake already under way.
pub(crate) const WAKE_OUTCOMES: [&str; 2] = ["sent", "coalesced"];

/// One I/O thread's wake traffic. Relaxed counters that publish nothing;
/// each I/O thread has its own (on its [`IoLoopHandle`]), so the threads
/// do not share a line for them.
#[derive(Default)]
pub(crate) struct WakeStats {
    /// Reply sends that listed a sink on this thread: wrote the waker
    /// byte / found a wake already pending.
    pub(crate) io_wakes: [AtomicU64; 2],
    /// Submit pushes from this thread: owed the shard a `Poke` (sent at
    /// the end of that pass) / found it poked already.
    pub(crate) shard_pokes: [AtomicU64; 2],
    /// Epoll events per [`IoLoop::pass`]; its count is the pass count.
    pub(crate) events_per_pass: Histogram,
}

/// The handle other threads use to reach one I/O thread.
pub(crate) struct IoLoopHandle {
    pub(crate) waker: Waker,
    /// Freshly accepted connections for this thread to adopt.
    pub(crate) inbox: Mutex<Vec<TcpStream>>,
    /// Sinks with newly deliverable replies, drained by the I/O thread.
    ready: Mutex<Vec<Arc<ReplySink>>>,
    /// Set by the reply send that wrote the waker byte, cleared by the
    /// pass that answers it (protocol in the module doc).
    wake_pending: AtomicBool,
    pub(crate) stats: WakeStats,
}

/// State shared between the router, the daemon handle and every I/O
/// thread.
pub(crate) struct IoShared {
    pub(crate) table: RwLock<Arc<RoutingTable>>,
    pub(crate) stop: AtomicBool,
    /// Live client connections (scrapes are not counted).
    pub(crate) connections: AtomicUsize,
    /// Connections force-closed for exceeding the write-buffer bound.
    pub(crate) slow_disconnects: AtomicUsize,
    /// Connections reaped by the idle sweep (half-open peers).
    pub(crate) idle_reaped: AtomicUsize,
    /// Submit frames parked, by [`ParkReason`] (a frame counts once per
    /// reason it waited for, however often it was retried).
    pub(crate) parked: [AtomicUsize; 3],
    pub(crate) loops: Vec<Arc<IoLoopHandle>>,
}

impl IoShared {
    /// The I/O threads' wake traffic summed: `(io_wakes, shard_pokes)` in
    /// [`WAKE_OUTCOMES`] order, and the events-per-pass histogram.
    pub(crate) fn wake_stats(&self) -> ([u64; 2], [u64; 2], HistogramSnapshot) {
        let mut total = ([0; 2], [0; 2], HistogramSnapshot::default());
        for stats in self.loops.iter().map(|l| &l.stats) {
            for i in 0..2 {
                total.0[i] += stats.io_wakes[i].load(Ordering::Relaxed);
                total.1[i] += stats.shard_pokes[i].load(Ordering::Relaxed);
            }
            total.2.merge(&stats.events_per_pass.snapshot());
        }
        total
    }

    /// Wakes every I/O thread (after flipping `stop` or publishing a
    /// routing table).
    pub(crate) fn wake_all(&self) {
        for l in &self.loops {
            l.waker.wake();
        }
    }
}

/// The cross-thread half of a connection: a mailbox any thread may send
/// replies into, emptied into the core by the connection's I/O thread.
pub(crate) struct ReplySink {
    io: Arc<IoLoopHandle>,
    /// Slab token of the owning connection (validated by pointer
    /// identity before use — tokens are reused across connections).
    token: usize,
    closed: AtomicBool,
    /// True while this sink is already on its I/O thread's ready list.
    queued: AtomicBool,
    mailbox: Mutex<Vec<Reply>>,
}

/// Cloneable sender of [`Reply`] frames to one connection.
#[derive(Clone)]
pub(crate) struct ReplyHandle(Arc<ReplySink>);

impl ReplyHandle {
    /// Queues a reply and makes sure the owning I/O thread will look:
    /// lists the sink unless it is listed, then wakes the thread unless a
    /// wake is pending.
    pub(crate) fn send(&self, reply: Reply) {
        let sink = &self.0;
        if sink.closed.load(Ordering::Acquire) {
            return; // connection gone; the response has no reader
        }
        sink.mailbox.lock().expect("sink lock").push(reply);
        if !sink.queued.swap(true, Ordering::AcqRel) {
            let io = &sink.io;
            io.ready.lock().expect("ready lock").push(Arc::clone(sink));
            let pending = io.wake_pending.swap(true, Ordering::AcqRel);
            if !pending {
                io.waker.wake();
            }
            io.stats.io_wakes[usize::from(pending)].fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Everything one connection owns on its I/O thread.
struct Conn {
    stream: TcpStream,
    sink: Arc<ReplySink>,
    core: ConnCore,
    /// The registered epoll interest `(read, write)`: `modify` on a change.
    interest: (bool, bool),
    last_activity: Instant,
}

impl Conn {
    /// Writes as much of the core's out bytes as the socket takes, then
    /// signals the flush marks passed. `false`: the socket failed.
    fn write(&mut self) -> bool {
        let mut passed = Vec::new();
        while !self.core.unwritten().is_empty() {
            match self.stream.write(self.core.unwritten()) {
                Ok(0) => break,
                Ok(n) => {
                    self.core.on_written(n, &mut passed);
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Unsignalled, the marks passed drop, which their waiters
                // read as the connection gone.
                Err(_) => return false,
            }
        }
        for tx in passed {
            let _ = tx.send(());
        }
        true
    }
}

/// One I/O thread: the poller, its connections, and (on thread 0) the
/// listeners.
pub(crate) struct IoLoop {
    shared: Arc<IoShared>,
    handle: Arc<IoLoopHandle>,
    poller: Poller,
    wake_rx: WakeReader,
    listener: Option<TcpListener>,
    /// The [`DaemonOptions::metrics_addr`] listener (thread 0 only).
    metrics: Option<TcpListener>,
    ingest: Sender<IngestEvent>,
    /// Connections by token (`free` lists the unused ones). An entry point
    /// takes a connection out while it serves it and puts it back after.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    index: usize,
    /// Round-robin cursor for distributing accepted connections
    /// (thread 0 only).
    next_assign: usize,
    options: DaemonOptions,
    last_sweep: Instant,
    /// Connections parked sealed or full, retried every loop pass
    /// (hints: a stale token is harmless), and how many of them on full.
    waiting: Vec<usize>,
    waiting_full: usize,
    /// Shards this pass owes a `Poke` (it moved their queue `idle →
    /// poked`), as clones of their control senders so a table published
    /// mid-pass cannot redirect them. Emptied by [`IoLoop::flush_pokes`]
    /// at the end of the same pass.
    pokes: Vec<Sender<ShardMsg>>,
}

impl IoLoop {
    /// Builds one I/O thread's state; the listeners are registered (and
    /// must already be nonblocking) when present.
    pub(crate) fn new(
        shared: Arc<IoShared>,
        wake_rx: WakeReader,
        listener: Option<TcpListener>,
        metrics: Option<TcpListener>,
        ingest: Sender<IngestEvent>,
        index: usize,
        options: &DaemonOptions,
    ) -> io::Result<IoLoop> {
        let handle = Arc::clone(&shared.loops[index]);
        let poller = Poller::new()?;
        poller.add(wake_rx.as_raw_fd(), WAKER_KEY, Interest::READ)?;
        for (l, key) in [(&listener, LISTENER_KEY), (&metrics, METRICS_KEY)] {
            if let Some(l) = l {
                poller.add(l.as_raw_fd(), key, Interest::READ)?;
            }
        }
        Ok(IoLoop {
            shared,
            handle,
            poller,
            wake_rx,
            listener,
            metrics,
            ingest,
            conns: Vec::new(),
            free: Vec::new(),
            index,
            next_assign: 0,
            options: options.clone(),
            last_sweep: Instant::now(),
            waiting: Vec::new(),
            waiting_full: 0,
            pokes: Vec::new(),
        })
    }

    /// The event loop. Exits when [`IoShared::stop`] is set (the router
    /// wakes every loop after flipping it), closing every connection.
    pub(crate) fn run(mut self) {
        let mut events = Events::with_capacity(1024);
        let mut scratch = vec![0u8; READ_CHUNK];
        // Half the idle timeout bounds reap latency at ~1.5x the
        // configured timeout without a busy sweep.
        let sweep = self.options.idle_timeout.map(|t| t / 2);
        while self.pass(&mut events, &mut scratch, sweep).is_some() {}
    }

    /// One pass of the event loop — the unit both wake protocols count
    /// in: blocks for events (at most `timeout`, less while a connection
    /// is parked on a full queue), serves every ready socket, then the
    /// inbox, the ready sinks and the parked submits, and last sends the
    /// pokes all of that owes. Returns the number of events served, or
    /// `None` when the loop must exit.
    fn pass(
        &mut self,
        events: &mut Events,
        scratch: &mut [u8],
        mut timeout: Option<Duration>,
    ) -> Option<usize> {
        if self.waiting_full > 0 {
            timeout = Some(timeout.map_or(FULL_RETRY, |t| t.min(FULL_RETRY)));
        }
        // An unrecoverable poller failure ends the loop.
        let n = self.poller.wait(events, timeout).ok()?;
        if self.shared.stop.load(Ordering::SeqCst) {
            return None; // drops every connection (sockets close)
        }
        self.handle.stats.events_per_pass.record(n as u64);
        for ev in events.iter() {
            match ev.key {
                WAKER_KEY => self.wake_rx.drain(),
                LISTENER_KEY => self.accept_ready(false),
                METRICS_KEY => self.accept_ready(true),
                key => self.conn_ready(key as usize, ev, scratch),
            }
        }
        self.process_inbox();
        self.process_ready();
        self.retry_waiting();
        self.flush_pokes();
        self.sweep_idle();
        (!self.shared.stop.load(Ordering::SeqCst)).then_some(n)
    }

    /// Sends the one `Poke` this pass owes each shard whose queue it
    /// moved `idle → poked`. The only place a shard is poked from: by
    /// now the pass has pushed everything it is going to, so the shard
    /// wakes to all of it. A refused send is a shard retired by a
    /// reshard since the push; its queue was drained at the barrier.
    fn flush_pokes(&mut self) {
        for control in self.pokes.drain(..) {
            let _ = control.send(ShardMsg::Poke);
        }
    }

    /// Accepts every pending connection on one of thread 0's listeners:
    /// clients round-robin across the I/O threads, scrapes on this one.
    fn accept_ready(&mut self, scrape: bool) {
        loop {
            let listener = if scrape {
                &self.metrics
            } else {
                &self.listener
            };
            let Some(listener) = listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) if scrape => self.adopt(stream, true),
                Ok((stream, _)) => {
                    let target = self.next_assign % self.shared.loops.len();
                    self.next_assign = self.next_assign.wrapping_add(1);
                    if target == self.index {
                        self.adopt(stream, false);
                    } else {
                        let l = &self.shared.loops[target];
                        l.inbox.lock().expect("inbox lock").push(stream);
                        l.waker.wake();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Drained (`WouldBlock`), or a transient per-connection
                // failure (e.g. the peer reset before we got to it); the
                // listener lives on.
                Err(_) => return,
            }
        }
    }

    /// Adopts a connection onto this thread: a client (read interest,
    /// counted in [`IoShared::connections`]) or a scrape, which reads
    /// nothing and asks the router for its page as reply `seq` 0 — with
    /// the router gone, the page is the shutdown line.
    fn adopt(&mut self, stream: TcpStream, scrape: bool) {
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            return;
        }
        let o = &self.options;
        let mut core = ConnCore::new(o.max_line_bytes, o.max_write_buffer, scrape);
        let (readable, writable) = core.interest();
        let token = self.free.last().copied().unwrap_or(self.conns.len());
        let (fd, interest) = (stream.as_raw_fd(), Interest { readable, writable });
        if self.poller.add(fd, token as u64, interest).is_err() {
            return;
        }
        if self.free.pop().is_none() {
            self.conns.push(None);
        }
        let sink = Arc::new(ReplySink {
            io: Arc::clone(&self.handle),
            token,
            closed: AtomicBool::new(false),
            queued: AtomicBool::new(false),
            mailbox: Mutex::default(),
        });
        if scrape {
            let page = ReplyHandle(Arc::clone(&sink));
            if self.ingest.send(IngestEvent::Scrape(page)).is_err() {
                core.on_reply(Reply::page(SHUTTING_DOWN_PAGE.into()));
            }
        } else {
            self.shared.connections.fetch_add(1, Ordering::SeqCst);
        }
        let conn = Conn {
            stream,
            sink,
            core,
            interest: (readable, writable),
            last_activity: Instant::now(),
        };
        self.finish(token, conn);
    }

    /// Tears a connection down (fd closes on drop; epoll deregisters the
    /// fd implicitly at close, `delete` just keeps the table tidy).
    fn close(&mut self, token: usize, conn: Conn) {
        conn.sink.closed.store(true, Ordering::Release);
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        let client = usize::from(conn.core.is_client());
        self.shared.connections.fetch_sub(client, Ordering::SeqCst);
        self.free.push(token);
    }

    fn conn_ready(&mut self, token: usize, ev: epoll::Event, scratch: &mut [u8]) {
        let Some(mut conn) = self.conns[token].take() else {
            return; // closed earlier in this pass
        };
        // A hang-up while nothing is read: the peer is gone both ways, no
        // reply can be delivered, and the hang-up is level-triggered (a
        // parked connection does not read its way to the error) — reap.
        let dead = (ev.hangup && !conn.core.reading())
            || (ev.writable && !conn.write())
            || (ev.readable && !self.read(token, &mut conn, scratch));
        if dead {
            return self.close(token, conn);
        }
        self.finish(token, conn);
    }

    /// Reads until a short read (the socket is empty — no second `read`
    /// to be told `WouldBlock`; an EOF behind the data is its own event),
    /// EOF, a parked submit, or the fairness cap, dispatching after every
    /// chunk. `false`: the socket failed.
    fn read(&mut self, token: usize, conn: &mut Conn, scratch: &mut [u8]) -> bool {
        let mut total = 0usize;
        while conn.core.reading() {
            match conn.stream.read(scratch) {
                Ok(0) => conn.core.on_read(&[]),
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.core.on_read(&scratch[..n]);
                    self.pump(token, conn);
                    total += n;
                    if n < scratch.len() || total >= 4 * READ_CHUNK {
                        break; // emptied, or fairness: level-triggering re-arms
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }

    /// Performs every step the core has ready.
    fn pump(&mut self, token: usize, conn: &mut Conn) {
        while let Some(step) = conn.core.next_step() {
            match step {
                Step::Submit(submit) => self.push(token, conn, submit),
                Step::Control(request, seq) => {
                    let frame =
                        IngestEvent::Frame(request, ReplyHandle(Arc::clone(&conn.sink)), seq);
                    if self.ingest.send(frame).is_err() {
                        conn.core.on_reply(Reply::frame(seq, &shutting_down()));
                    }
                }
                Step::Parked(reason) => {
                    self.shared.parked[reason as usize].fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// The one submit path: pushes `frame` onto its shard's queue, or
    /// hands its core the local answer (routing rejections, a closed
    /// table) or the park.
    fn push(&mut self, token: usize, conn: &mut Conn, frame: Submit) {
        let seq = frame.seq;
        let submit = DirectSubmit {
            frame,
            reply: ReplyHandle(Arc::clone(&conn.sink)),
        };
        // The read guard is held across the push: the router's write of
        // a sealed table returns only once every push routed under the
        // old one has landed, so nothing races a retiring shard.
        let table = self.shared.table.read().expect("table lock");
        let outcome = push_submit(&table, submit, &mut self.pokes, &self.handle.stats);
        drop(table);
        match outcome {
            Ok(None) => {}
            Ok(Some(response)) => conn.core.on_reply(Reply::frame(seq, &response)),
            Err((back, reason)) => {
                self.waiting.push(token);
                self.waiting_full += usize::from(reason == ParkReason::Full);
                conn.core.park(back.frame, reason);
            }
        }
    }

    /// Retries every connection parked on a sealed table or a full
    /// queue; `push` re-lists the ones that park again.
    fn retry_waiting(&mut self) {
        self.waiting_full = 0;
        for token in std::mem::take(&mut self.waiting) {
            let Some(mut conn) = self.conns[token].take() else {
                continue;
            };
            if let Some(submit) = conn.core.retry() {
                self.push(token, &mut conn, submit);
            }
            self.finish(token, conn);
        }
    }

    /// Ends an entry point's turn with a connection: performs what its core
    /// has ready (a submit fenced behind a reply just moved in among it),
    /// then closes it over the write bound, on a failed write or finished,
    /// or writes, re-arms epoll interest and puts it back.
    fn finish(&mut self, token: usize, mut conn: Conn) {
        self.pump(token, &mut conn);
        if conn.core.over_limit() {
            // The client is not reading: cut it loose rather than buffer
            // without bound.
            self.shared.slow_disconnects.fetch_add(1, Ordering::SeqCst);
            return self.close(token, conn);
        }
        if !conn.write() || conn.core.finished() {
            return self.close(token, conn);
        }
        let interest = conn.core.interest();
        if interest != conn.interest {
            conn.interest = interest;
            let (readable, writable) = interest;
            let fd = conn.stream.as_raw_fd();
            let _ = self
                .poller
                .modify(fd, token as u64, Interest { readable, writable });
        }
        self.conns[token] = Some(conn);
    }

    /// Adopts the connections thread 0 accepted for this thread.
    fn process_inbox(&mut self) {
        let streams = std::mem::take(&mut *self.handle.inbox.lock().expect("inbox lock"));
        for stream in streams {
            self.adopt(stream, false);
        }
    }

    /// Processes sinks that received replies since the last pass:
    /// clears `wake_pending`, *then* takes the list (module doc) — taken
    /// first, a send between the two would list its sink too late for
    /// this pass and find the flag still set, so write no byte either.
    fn process_ready(&mut self) {
        self.handle.wake_pending.swap(false, Ordering::AcqRel);
        #[cfg(test)]
        seam::fire(); // a test's send, forced between the two steps
        let ready: Vec<Arc<ReplySink>> =
            std::mem::take(&mut *self.handle.ready.lock().expect("ready lock"));
        for sink in ready {
            // Reset *before* emptying the mailbox so a send racing with
            // this pass re-queues the sink rather than being missed.
            sink.queued.store(false, Ordering::Release);
            let slot = &mut self.conns[sink.token];
            let Some(mut conn) = slot.take_if(|c| Arc::ptr_eq(&c.sink, &sink)) else {
                continue;
            };
            for reply in sink.mailbox.lock().expect("sink lock").drain(..) {
                conn.core.on_reply(reply);
            }
            self.finish(sink.token, conn);
        }
    }

    /// Reaps connections idle past the timeout that the daemon owes
    /// nothing — the half-open-peer defence: a client that vanished
    /// without FIN never fires an epoll event, so readiness alone would
    /// leak it (and its routing state) forever. A client waiting on a
    /// slow reply is not idle, however long the reply takes.
    fn sweep_idle(&mut self) {
        let Some(timeout) = self.options.idle_timeout else {
            return;
        };
        let now = Instant::now();
        if now.duration_since(self.last_sweep) < timeout / 2 {
            return;
        }
        self.last_sweep = now;
        for token in 0..self.conns.len() {
            let idle = |c: &Conn| now.duration_since(c.last_activity) > timeout && !c.core.owed();
            if let Some(conn) = self.conns[token].take_if(|c| idle(c)) {
                self.shared.idle_reaped.fetch_add(1, Ordering::SeqCst);
                self.close(token, conn);
            }
        }
    }
}

/// Routes `submit` under `table` and pushes it onto the owning shard's
/// queue, noting in `pokes` a shard the caller now owes a wake-up.
/// `Ok(None)`: queued (the shard answers). `Ok(Some(_))`: answer
/// locally. `Err`: cannot be queued right now — park it.
fn push_submit(
    table: &RoutingTable,
    submit: DirectSubmit,
    pokes: &mut Vec<Sender<ShardMsg>>,
    stats: &WakeStats,
) -> Result<Option<Response>, (DirectSubmit, ParkReason)> {
    let direct = match &table.direct {
        DirectPath::Open(direct) => direct,
        DirectPath::Sealed => return Err((submit, ParkReason::Sealed)),
        DirectPath::Closed => return Ok(Some(shutting_down())),
    };
    let n_shards = table.plan.n_shards();
    let frame = &submit.frame;
    let target = match frame.shard {
        Some(k) if k >= n_shards => return Ok(Some(Response::UnknownShard { shard: k, n_shards })),
        Some(k) => k,
        None => match derive_route(&table.grid, &table.plan, &table.offline, &frame.jobs) {
            Ok(k) => k,
            Err(response) => return Ok(Some(*response)),
        },
    };
    let n_jobs = frame.jobs.len();
    let d = &direct[target];
    let (pushed, wake) = d.queue.push(submit);
    match wake {
        Wake::Owed => pokes.push(d.control.clone()),
        Wake::Coalesced => {}
        // A dead shard neither drains a full queue nor answers a queued
        // submit (one that raced its exit may be answered twice; the
        // core keeps one).
        Wake::Dead => return Ok(Some(shard_down())),
    }
    stats.shard_pokes[usize::from(wake == Wake::Coalesced)].fetch_add(1, Ordering::Relaxed);
    match pushed {
        Ok(()) => {
            gridsec_obs::event!("dispatch", shard = target, jobs = n_jobs);
            Ok(None)
        }
        Err(back) => Err((back, ParkReason::Full)),
    }
}

/// Builds the shared state + per-thread handles for `n_io` I/O threads.
pub(crate) fn build_io(
    n_io: usize,
    table: RoutingTable,
) -> io::Result<(Arc<IoShared>, Vec<WakeReader>)> {
    let mut loops = Vec::with_capacity(n_io);
    let mut readers = Vec::with_capacity(n_io);
    for _ in 0..n_io {
        let (waker, rx) = Waker::pair()?;
        loops.push(Arc::new(IoLoopHandle {
            waker,
            inbox: Mutex::new(Vec::new()),
            ready: Mutex::new(Vec::new()),
            wake_pending: AtomicBool::new(false),
            stats: WakeStats::default(),
        }));
        readers.push(rx);
    }
    Ok((
        Arc::new(IoShared {
            table: RwLock::new(Arc::new(table)),
            stop: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            slow_disconnects: AtomicUsize::new(0),
            idle_reaped: AtomicUsize::new(0),
            parked: Default::default(),
            loops,
        }),
        readers,
    ))
}

/// Test seam for the two consumer-side protocols (`process_ready` here,
/// `drain_direct` in `shard.rs`): each is two steps, and a lost wake-up
/// can only come from what another thread does *between* them. A test
/// arms a closure on its own thread; the next consumer to reach the
/// boundary on that thread runs it there, once. Unarmed (every thread of
/// a real daemon) it does nothing.
#[cfg(test)]
pub(crate) mod seam {
    use std::cell::RefCell;

    thread_local! {
        static ARMED: RefCell<Option<Box<dyn FnOnce()>>> = const { RefCell::new(None) };
    }

    pub(crate) fn arm(between: impl FnOnce() + 'static) {
        ARMED.with(|a| *a.borrow_mut() = Some(Box::new(between)));
    }

    pub(crate) fn fire() {
        if let Some(between) = ARMED.with(|a| a.borrow_mut().take()) {
            between();
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::daemon::Daemon;
    use crate::protocol::{encode, Request};
    use crate::reshard::SessionFactory;
    use gridsec_core::{Job, Site};
    use gridsec_sim::scheduler::EarliestCompletion;
    use gridsec_sim::SimConfig;
    use std::io::{BufRead, BufReader};
    use std::sync::mpsc::{channel, Receiver};

    /// How long a pass may wait for a wake-up the test knows is owed.
    /// Nothing else can end the wait (no idle timeout, no parked
    /// connection), so running it out *is* the lost wake-up.
    const OWED: Duration = Duration::from_secs(5);

    fn one_site() -> Grid {
        Grid::new(vec![Site::builder(0).nodes(2).build().unwrap()]).unwrap()
    }

    /// An I/O loop with `n` connections that the test drives pass by pass
    /// on its own thread, so it can say exactly where in a pass another
    /// thread's send falls.
    pub(crate) struct Rig {
        io: IoLoop,
        events: Events,
        scratch: Vec<u8>,
        clients: Vec<TcpStream>,
        _ingest: Receiver<IngestEvent>,
    }

    impl Rig {
        pub(crate) fn new(n: usize) -> Rig {
            let grid = one_site();
            let table = RoutingTable {
                plan: Arc::new(ShardPlan::contiguous(&grid, 1).unwrap()),
                offline: Arc::new(vec![false]),
                grid: Arc::new(grid),
                direct: DirectPath::Closed,
            };
            let (shared, mut wake_rx) = build_io(1, table).unwrap();
            let (ingest_tx, ingest_rx) = channel();
            let options = DaemonOptions::default();
            let wake_rx = wake_rx.pop().unwrap();
            let mut io = IoLoop::new(shared, wake_rx, None, None, ingest_tx, 0, &options).unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let clients = (0..n)
                .map(|_| {
                    let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                    io.adopt(listener.accept().unwrap().0, false);
                    client
                })
                .collect();
            Rig {
                io,
                events: Events::with_capacity(64),
                scratch: vec![0; READ_CHUNK],
                clients,
                _ingest: ingest_rx,
            }
        }

        /// The reply handle of connection `k` (tokens are handed out in
        /// registration order).
        pub(crate) fn reply(&self, k: usize) -> ReplyHandle {
            ReplyHandle(Arc::clone(&self.io.conns[k].as_ref().unwrap().sink))
        }

        fn pass(&mut self, timeout: Duration) -> usize {
            self.io
                .pass(&mut self.events, &mut self.scratch, Some(timeout))
                .expect("the loop is not stopping")
        }

        fn released(&self) -> u64 {
            (0..self.clients.len())
                .map(|k| self.io.conns[k].as_ref().unwrap().core.released())
                .sum()
        }

        /// Passes until `total` replies are released, each pass woken by
        /// the protocol under test and by nothing else.
        pub(crate) fn settle(&mut self, total: u64, what: &str) {
            while self.released() < total {
                let before = self.released();
                assert!(
                    self.pass(OWED) > 0,
                    "lost wake-up ({what}): {before} of {total} replies released, nothing woke the loop"
                );
            }
        }

        fn stats(&self) -> &WakeStats {
            &self.io.handle.stats
        }

        /// The next `n` lines connection `k`'s client receives.
        pub(crate) fn lines(&mut self, k: usize, n: usize) -> Vec<String> {
            self.clients[k].set_read_timeout(Some(OWED)).unwrap();
            let mut reader = BufReader::new(&self.clients[k]);
            (0..n)
                .map(|_| {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    line
                })
                .collect()
        }
    }

    fn reply(seq: u64, text: &str) -> Reply {
        Reply {
            seq,
            line: format!("{text}\n"),
            flushed: None,
        }
    }

    /// Shard → I/O, every place a second send can fall relative to the
    /// pass that answers the first: before its clear-then-take, between
    /// the two steps, after both. Each time both replies reach their
    /// clients, and so does a later one (a flag left set with no byte
    /// behind it would swallow that).
    #[test]
    fn a_reply_sent_before_between_or_after_the_clear_then_take_is_never_lost() {
        for position in ["before", "between", "after"] {
            let mut rig = Rig::new(2);
            let (a, b) = (rig.reply(0), rig.reply(1));
            a.send(reply(0, "a0")); // sets the flag, writes the byte
            match position {
                "before" => {
                    b.send(reply(0, "b0"));
                    assert_eq!(rig.pass(OWED), 1, "one byte woke the loop for both sends");
                }
                "between" => {
                    seam::arm(move || b.send(reply(0, "b0")));
                    rig.pass(OWED);
                }
                _ => {
                    rig.pass(OWED);
                    b.send(reply(0, "b0"));
                }
            }
            rig.settle(2, position);
            assert_eq!(rig.lines(0, 1), ["a0\n"], "{position}");
            assert_eq!(rig.lines(1, 1), ["b0\n"], "{position}");
            let sent = rig.stats().io_wakes[0].load(Ordering::Relaxed);
            assert_eq!(sent, if position == "before" { 1 } else { 2 }, "{position}");

            rig.reply(1).send(reply(1, "b1"));
            rig.settle(3, position);
            assert_eq!(rig.lines(1, 1), ["b1\n"], "{position}");
        }
    }

    /// Four producers each answer every fourth sequence number of all 64
    /// connections — so replies reach a sink out of order and from
    /// several threads — against one consumer: 102 400 replies, all
    /// released in sequence order, and no more wake-ups written than the
    /// consumer made passes (each byte answers a clear, plus the first).
    #[test]
    fn four_producers_on_64_sinks_lose_no_reply_and_wake_at_most_once_per_pass() {
        const SINKS: usize = 64;
        const PRODUCERS: u64 = 4;
        const PER_SINK: u64 = 1600;
        let mut rig = Rig::new(SINKS);
        let handles: Vec<ReplyHandle> = (0..SINKS).map(|k| rig.reply(k)).collect();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let handles = handles.clone();
                std::thread::spawn(move || {
                    for seq in (p..PER_SINK).step_by(PRODUCERS as usize) {
                        for h in &handles {
                            h.send(reply(seq, &seq.to_string()));
                        }
                    }
                })
            })
            .collect();
        rig.settle(SINKS as u64 * PER_SINK, "stress");
        for p in producers {
            p.join().unwrap();
        }
        let expected: Vec<String> = (0..PER_SINK).map(|seq| format!("{seq}\n")).collect();
        for k in 0..SINKS {
            assert_eq!(rig.lines(k, PER_SINK as usize), expected, "connection {k}");
        }
        let stats = rig.stats();
        let sent = stats.io_wakes[0].load(Ordering::Relaxed);
        let passes = stats.events_per_pass.count();
        assert!(
            sent <= passes + 1,
            "{sent} wake-ups written for {passes} passes"
        );
    }

    /// One sample of the exposition page.
    fn scraped(page: &str, sample: &str) -> u64 {
        let value = page.lines().find_map(|l| l.strip_prefix(sample));
        value
            .unwrap_or_else(|| panic!("no {sample} in:\n{page}"))
            .trim()
            .parse()
            .unwrap()
    }

    /// 256 one-job frames in a single `write` to a one-shard daemon: the
    /// I/O thread reads them in a pass or two (a 38 KiB write is a
    /// segment or two on loopback) and pokes the shard once for each of
    /// those passes, not once for each frame. Stated beforehand: pokes
    /// sent ≤ passes, and ≤ 8 of the 256 pushes — measured, 1 or 2. It
    /// is the end-of-pass flush that sends them: without it nothing
    /// wakes the shard and no reply ever comes.
    #[test]
    fn a_pipelined_burst_pokes_its_shard_once_a_pass_not_once_a_frame() {
        const FRAMES: usize = 256;
        let grid = one_site();
        let plan = ShardPlan::contiguous(&grid, 1).unwrap();
        let factory: SessionFactory = Box::new(|_| Ok(Box::new(EarliestCompletion)));
        let options = DaemonOptions {
            io_threads: 1,
            metrics_addr: Some("127.0.0.1:0".into()),
            ..DaemonOptions::default()
        };
        let config = SimConfig::default();
        let daemon = Daemon::spawn(grid, plan, config, factory, "127.0.0.1:0", options).unwrap();
        let burst: String = (0..FRAMES as u64)
            .map(|id| {
                encode(&Request::Submit {
                    jobs: vec![Job::builder(id).work(5.0).build().unwrap()],
                    shard: None,
                    tenant: None,
                })
            })
            .collect();
        let mut stream = TcpStream::connect(daemon.addr()).unwrap();
        stream.set_read_timeout(Some(OWED)).unwrap();
        stream.write_all(burst.as_bytes()).unwrap();
        let mut client = crate::Client::from_stream(stream).unwrap();
        for i in 0..FRAMES {
            match client.read_response().expect("a reply to every frame") {
                Response::Accepted { jobs: 1, .. } => {}
                other => panic!("reply {i} was {other:?}"),
            }
        }
        let mut page = String::new();
        TcpStream::connect(daemon.metrics_addr().unwrap())
            .unwrap()
            .read_to_string(&mut page)
            .unwrap();
        let sent = scraped(&page, "gridsec_shard_pokes_total{outcome=\"sent\"} ");
        let coalesced = scraped(&page, "gridsec_shard_pokes_total{outcome=\"coalesced\"} ");
        let passes = scraped(&page, "gridsec_io_events_per_pass_count ");
        assert_eq!(
            sent + coalesced,
            FRAMES as u64,
            "every push is one or the other"
        );
        assert!(sent <= passes, "{sent} pokes in {passes} passes");
        assert!(
            (1..=8).contains(&sent),
            "{sent} pokes for {FRAMES} pipelined frames"
        );
        assert_eq!(client.send(&Request::Shutdown).unwrap(), Response::Bye);
        daemon.join();
    }

    /// A 1 MiB reply (a long `query schedule`) goes out whole, and once
    /// the socket has taken it the connection's out buffer holds at most
    /// one read chunk of capacity, not the megabyte.
    #[test]
    fn a_drained_long_reply_leaves_at_most_a_read_chunk_of_out_buffer() {
        let mut rig = Rig::new(1);
        let line = format!("{}\n", "x".repeat(1 << 20));
        let mut client = rig.clients[0].try_clone().unwrap();
        client.set_read_timeout(Some(OWED)).unwrap();
        let n = line.len();
        let reader = std::thread::spawn(move || {
            let mut got = vec![0u8; n];
            client.read_exact(&mut got).unwrap();
            got
        });
        rig.reply(0).send(Reply {
            seq: 0,
            line: line.clone(),
            flushed: None,
        });
        rig.settle(1, "long reply");
        while !rig.io.conns[0]
            .as_ref()
            .unwrap()
            .core
            .unwritten()
            .is_empty()
        {
            rig.pass(OWED);
        }
        assert!(reader.join().unwrap() == line.as_bytes(), "reply mangled");
        let capacity = rig.io.conns[0].as_ref().unwrap().core.out_capacity();
        assert!(capacity <= READ_CHUNK, "{capacity} bytes kept");
    }
}

//! The event-driven connection layer: a few I/O threads multiplex every
//! client socket through epoll instead of spawning a reader + writer
//! thread per connection.
//!
//! Each accepted connection lives on exactly one I/O thread (round-robin
//! at accept time), which owns its socket, its NDJSON frame decoder
//! ([`LineDecoder`]), its bounded outbound buffer, and the per-client
//! sequence counter. The connection's [`ReplySink`] is the cross-thread
//! half: shard threads and the router push [`Reply`] frames into it from
//! anywhere, the owning I/O thread releases them **in request (sequence)
//! order** into the socket.
//!
//! There is **one submit path**: a `submit` is routed where it is decoded,
//! against the shared [`RoutingTable`] snapshot, and pushed onto the
//! owning shard's lock-free bounded queue (with a `Poke` on the shard's
//! control channel). Everything serialised — cross-shard queries,
//! reshard, drain, shutdown, chaos injections — goes to the router thread.
//!
//! A submit that cannot be pushed right now is **parked on its
//! connection** ([`ParkReason`]): the connection keeps that one frame,
//! stops decoding and drops read interest (TCP is the backpressure), so
//! per-client order holds by construction. It retries on wakes the loop
//! already takes —
//!
//! * *fenced*: an earlier control frame of this connection is unanswered
//!   (the shard drains its queue ahead of every control message, so the
//!   submit would overtake it) — retried when that reply is released;
//! * *sealed*: the router sealed the table ahead of a reshard/shutdown
//!   barrier (pushes hold the table's read lock, so once the sealed table
//!   is written nothing can reach a retiring shard) — retried, against
//!   the *new* plan, on the next publish;
//! * *full*: the shard's queue is at [`DIRECT_QUEUE_CAP`] — retried every
//!   loop pass, with a short poll timeout while any such connection
//!   exists (the shard frees space without waking this thread).

use crate::daemon::{derive_route, shard_down, shutting_down, DaemonOptions, IngestEvent, Reply};
use crate::protocol::{parse_request, Line, LineDecoder, Request, Response};
use crate::shard::ShardMsg;
use crossbeam_queue::ArrayQueue;
use epoll::{Events, Interest, Poller, WakeReader, Waker};
use gridsec_core::{Grid, Job};
use gridsec_sim::ShardPlan;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Registration key of the I/O thread's waker.
const WAKER_KEY: u64 = u64::MAX;
/// Registration key of the TCP listener (I/O thread 0 only).
const LISTENER_KEY: u64 = u64::MAX - 1;
/// Read scratch size; also the per-wake read cap before yielding to
/// other connections (level-triggered epoll re-arms the rest).
const READ_CHUNK: usize = 64 * 1024;
/// Capacity of each shard's submit queue: the hard bound on frames taken
/// off the sockets but not yet seen by the shard. Overflow parks on its
/// connection (one frame each, reads paused): it costs throughput, never
/// memory.
pub(crate) const DIRECT_QUEUE_CAP: usize = 1024;
/// Poll timeout while a connection is parked on a full queue — about how
/// long a full queue of MCT work lasts, so the shard does not run dry.
const FULL_RETRY: Duration = Duration::from_millis(1);

/// A decoded `submit` frame: in a shard's queue once routed, or parked
/// on its connection until it can be.
pub(crate) struct DirectSubmit {
    pub(crate) jobs: Vec<Job>,
    /// The target the client named, if any (re-routed on every retry).
    pub(crate) shard: Option<usize>,
    pub(crate) tenant: Option<String>,
    pub(crate) reply: ReplyHandle,
    pub(crate) seq: u64,
}

/// One shard's submit endpoints.
pub(crate) struct DirectShard {
    /// Lock-free bounded submit queue, drained by the shard thread
    /// before every control message it handles.
    pub(crate) queue: Arc<ArrayQueue<DirectSubmit>>,
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

/// Why a decoded `submit` is waiting on its connection (also the index
/// of its [`IoShared::parked`] counter and [`PARK_LABELS`] entry).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum ParkReason {
    Fenced,
    Sealed,
    Full,
}

/// Exposition labels of the [`ParkReason`]s, in counter order.
pub(crate) const PARK_LABELS: [&str; 3] = ["fenced", "sealed", "full"];

/// The handle other threads use to reach one I/O thread.
pub(crate) struct IoLoopHandle {
    pub(crate) waker: Waker,
    /// Freshly accepted connections for this thread to adopt.
    pub(crate) inbox: Mutex<Vec<TcpStream>>,
    /// Sinks with newly deliverable replies, drained by the I/O thread.
    ready: Mutex<Vec<Arc<ReplySink>>>,
}

/// State shared between the router, the daemon handle and every I/O
/// thread.
pub(crate) struct IoShared {
    pub(crate) table: RwLock<Arc<RoutingTable>>,
    pub(crate) stop: AtomicBool,
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
    /// Wakes every I/O thread (after flipping `stop` or publishing a
    /// routing table).
    pub(crate) fn wake_all(&self) {
        for l in &self.loops {
            l.waker.wake();
        }
    }
}

struct SinkQueue {
    /// Replies not yet released, by sequence number.
    held: BTreeMap<u64, Reply>,
    /// Total bytes of held (not yet released) reply lines — counted
    /// against the connection's write-buffer bound.
    held_bytes: usize,
}

/// The cross-thread half of a connection: any thread may push replies;
/// the owning I/O thread drains them in sequence order.
pub(crate) struct ReplySink {
    io: Arc<IoLoopHandle>,
    /// Slab token of the owning connection (validated by pointer
    /// identity before use — tokens are reused across connections).
    token: usize,
    closed: AtomicBool,
    /// True while this sink is already on its I/O thread's ready list.
    queued: AtomicBool,
    q: Mutex<SinkQueue>,
}

impl ReplySink {
    fn push(&self, reply: Reply) {
        if self.closed.load(Ordering::Acquire) {
            return; // connection gone; the response has no reader
        }
        let mut q = self.q.lock().expect("sink lock");
        q.held_bytes += reply.line.len();
        if let Some(dup) = q.held.insert(reply.seq, reply) {
            q.held_bytes -= dup.line.len(); // dead-shard race: one answer is enough
        }
    }
}

/// Cloneable sender of [`Reply`] frames to one connection — the
/// replacement for the per-client `Sender<Reply>`.
#[derive(Clone)]
pub(crate) struct ReplyHandle(Arc<ReplySink>);

impl ReplyHandle {
    /// Queues a reply and wakes the owning I/O thread.
    pub(crate) fn send(&self, reply: Reply) {
        self.0.push(reply);
        if !self.0.queued.swap(true, Ordering::AcqRel) {
            self.0
                .io
                .ready
                .lock()
                .expect("ready lock")
                .push(Arc::clone(&self.0));
            self.0.io.waker.wake();
        }
    }
}

/// Everything one connection owns on its I/O thread.
struct Conn {
    stream: TcpStream,
    sink: Arc<ReplySink>,
    /// Sequence number the next decoded frame will take.
    seq: u64,
    /// Sequence number of the next reply to release into the socket.
    next_release: u64,
    /// Seq of the latest control frame handed to the router; submits
    /// are fenced until its reply is released (`next_release` past it).
    last_control_seq: Option<u64>,
    decoder: LineDecoder,
    /// The submit that could not be dispatched yet; while set, nothing
    /// is read or decoded.
    parked: Option<(DirectSubmit, ParkReason)>,
    /// Outbound bytes: `out[out_pos..]` is unwritten.
    out: Vec<u8>,
    out_pos: usize,
    /// Absolute stream offset of `out[0]` (for flush marks).
    out_base: u64,
    /// `(absolute_offset, signal)`: signalled once the socket has
    /// consumed every byte before `absolute_offset`.
    flush_marks: VecDeque<(u64, Sender<()>)>,
    read_closed: bool,
    /// Current epoll interest (to avoid redundant `modify` calls).
    want_read: bool,
    want_write: bool,
    last_activity: Instant,
}

impl Conn {
    fn unwritten(&self) -> usize {
        self.out.len() - self.out_pos
    }
}

/// A minimal slab: stable `usize` tokens, O(1) insert/remove.
struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<usize>,
    len: usize,
}

impl<T> Slab<T> {
    fn new() -> Slab<T> {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }
    fn insert(&mut self, value: T) -> usize {
        self.len += 1;
        match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(value);
                i
            }
            None => {
                self.slots.push(Some(value));
                self.slots.len() - 1
            }
        }
    }
    fn remove(&mut self, token: usize) -> Option<T> {
        let v = self.slots.get_mut(token)?.take();
        if v.is_some() {
            self.len -= 1;
            self.free.push(token);
        }
        v
    }
    fn get(&self, token: usize) -> Option<&T> {
        self.slots.get(token)?.as_ref()
    }
    fn get_mut(&mut self, token: usize) -> Option<&mut T> {
        self.slots.get_mut(token)?.as_mut()
    }
    fn tokens(&self) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&i| self.slots[i].is_some())
            .collect()
    }
}

/// One I/O thread: the poller, its connections, and (on thread 0) the
/// TCP listener.
pub(crate) struct IoLoop {
    shared: Arc<IoShared>,
    handle: Arc<IoLoopHandle>,
    poller: Poller,
    wake_rx: WakeReader,
    listener: Option<TcpListener>,
    ingest: Sender<IngestEvent>,
    conns: Slab<Conn>,
    index: usize,
    /// Round-robin cursor for distributing accepted connections
    /// (thread 0 only).
    next_assign: usize,
    max_line: usize,
    max_write_buffer: usize,
    idle_timeout: Option<Duration>,
    last_sweep: Instant,
    /// Connections parked sealed or full, retried every loop pass
    /// (hints: a stale token is harmless), and how many of them on full.
    waiting: Vec<usize>,
    waiting_full: usize,
}

impl IoLoop {
    /// Builds one I/O thread's state; `listener` is registered (and must
    /// already be nonblocking) when present.
    pub(crate) fn new(
        shared: Arc<IoShared>,
        handle: Arc<IoLoopHandle>,
        wake_rx: WakeReader,
        listener: Option<TcpListener>,
        ingest: Sender<IngestEvent>,
        index: usize,
        options: &DaemonOptions,
    ) -> io::Result<IoLoop> {
        let poller = Poller::new()?;
        poller.add(wake_rx.as_raw_fd(), WAKER_KEY, Interest::READ)?;
        if let Some(l) = &listener {
            poller.add(l.as_raw_fd(), LISTENER_KEY, Interest::READ)?;
        }
        Ok(IoLoop {
            shared,
            handle,
            poller,
            wake_rx,
            listener,
            ingest,
            conns: Slab::new(),
            index,
            next_assign: 0,
            max_line: options.max_line_bytes,
            max_write_buffer: options.max_write_buffer,
            idle_timeout: options.idle_timeout,
            last_sweep: Instant::now(),
            waiting: Vec::new(),
            waiting_full: 0,
        })
    }

    /// The event loop. Exits when [`IoShared::stop`] is set (the router
    /// wakes every loop after flipping it), closing every connection.
    pub(crate) fn run(mut self) {
        let mut events = Events::with_capacity(1024);
        let mut scratch = vec![0u8; READ_CHUNK];
        loop {
            // Half the idle timeout bounds reap latency at ~1.5x the
            // configured timeout without a busy sweep.
            let mut timeout = self.idle_timeout.map(|t| t / 2);
            if self.waiting_full > 0 {
                timeout = Some(timeout.map_or(FULL_RETRY, |t| t.min(FULL_RETRY)));
            }
            if self.poller.wait(&mut events, timeout).is_err() {
                return; // unrecoverable poller failure
            }
            if self.shared.stop.load(Ordering::SeqCst) {
                return; // drops every connection (sockets close)
            }
            for ev in events.iter() {
                match ev.key {
                    WAKER_KEY => self.wake_rx.drain(),
                    LISTENER_KEY => self.accept_ready(),
                    key => self.conn_ready(key as usize, ev, &mut scratch),
                }
            }
            self.process_inbox();
            self.process_ready();
            self.retry_waiting();
            self.sweep_idle();
            if self.shared.stop.load(Ordering::SeqCst) {
                return;
            }
        }
    }

    /// Accepts every pending connection (thread 0), distributing them
    /// round-robin across the I/O threads.
    fn accept_ready(&mut self) {
        loop {
            let accepted = match &self.listener {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _)) => {
                    let target = self.next_assign % self.shared.loops.len();
                    self.next_assign = self.next_assign.wrapping_add(1);
                    if target == self.index {
                        self.register(stream);
                    } else {
                        let l = &self.shared.loops[target];
                        l.inbox.lock().expect("inbox lock").push(stream);
                        l.waker.wake();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient per-connection accept failures (e.g. the
                // peer reset before we got to it); the listener lives on.
                Err(_) => return,
            }
        }
    }

    /// Adopts a connection onto this thread.
    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            return;
        }
        let fd = stream.as_raw_fd();
        // Two-phase: insert to learn the token, then bind the sink to it
        // (the placeholder sink is never handed out before that).
        let placeholder = Arc::new(ReplySink {
            io: Arc::clone(&self.handle),
            token: usize::MAX,
            closed: AtomicBool::new(false),
            queued: AtomicBool::new(false),
            q: Mutex::new(SinkQueue {
                held: BTreeMap::new(),
                held_bytes: 0,
            }),
        });
        let token = self.conns.insert(Conn {
            stream,
            sink: placeholder,
            seq: 0,
            next_release: 0,
            last_control_seq: None,
            decoder: LineDecoder::new(self.max_line),
            parked: None,
            out: Vec::new(),
            out_pos: 0,
            out_base: 0,
            flush_marks: VecDeque::new(),
            read_closed: false,
            want_read: true,
            want_write: false,
            last_activity: Instant::now(),
        });
        let conn = self.conns.get_mut(token).expect("just inserted");
        conn.sink = Arc::new(ReplySink {
            io: Arc::clone(&self.handle),
            token,
            closed: AtomicBool::new(false),
            queued: AtomicBool::new(false),
            q: Mutex::new(SinkQueue {
                held: BTreeMap::new(),
                held_bytes: 0,
            }),
        });
        if self.poller.add(fd, token as u64, Interest::READ).is_err() {
            self.conns.remove(token);
            return;
        }
        self.shared.connections.fetch_add(1, Ordering::SeqCst);
    }

    /// Tears a connection down (fd closes on drop; epoll deregisters the
    /// fd implicitly at close, `delete` just keeps the table tidy).
    fn kill(&mut self, token: usize) {
        if let Some(conn) = self.conns.remove(token) {
            conn.sink.closed.store(true, Ordering::Release);
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            self.shared.connections.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn conn_ready(&mut self, token: usize, ev: epoll::Event, scratch: &mut [u8]) {
        let Some(conn) = self.conns.get(token) else {
            return; // already killed this iteration
        };
        if ev.hangup && (conn.read_closed || conn.parked.is_some()) {
            // Peer is gone in both directions: no response can ever be
            // delivered, and the hang-up is level-triggered (a parked
            // connection does not read its way to the error) — reap now.
            self.kill(token);
            return;
        }
        if ev.writable {
            self.try_write(token);
        }
        if ev.readable && self.conns.get(token).is_some() {
            self.do_read(token, scratch);
        }
        self.finish(token);
    }

    /// Reads until `WouldBlock`, EOF, a parked submit, or the fairness
    /// cap, decoding and dispatching after every chunk.
    fn do_read(&mut self, token: usize, scratch: &mut [u8]) {
        let mut total = 0usize;
        loop {
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            if conn.read_closed || conn.parked.is_some() {
                return;
            }
            match conn.stream.read(scratch) {
                Ok(0) => {
                    conn.read_closed = true;
                    self.pump_input(token);
                    return;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.decoder.push(&scratch[..n]);
                    self.pump_input(token);
                    total += n;
                    if total >= 4 * READ_CHUNK {
                        return; // fairness: level-triggering re-arms
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.kill(token);
                    return;
                }
            }
        }
    }

    /// Retries the parked submit, then decodes and dispatches buffered
    /// lines until they run out (after EOF: including the unterminated
    /// tail) or a submit parks. Safe to call at any time.
    fn pump_input(&mut self, token: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            if let Some((submit, was)) = conn.parked.take() {
                if !self.dispatch(token, submit, Some(was)) {
                    return;
                }
                continue;
            }
            let parsed = match conn.decoder.next_line(conn.read_closed) {
                None => return,
                Some(Line::Frame(body)) => parse_request(body),
                Some(Line::TooLong(n)) => Err(format!(
                    "frame too long ({n} bytes > {} limit)",
                    self.max_line
                )),
            };
            let Some(request) = parsed.transpose() else {
                continue; // blank keep-alive line, no sequence consumed
            };
            let seq = conn.seq;
            conn.seq += 1;
            let reply = ReplyHandle(Arc::clone(&conn.sink));
            match request {
                Ok(Request::Submit {
                    jobs,
                    shard,
                    tenant,
                }) => {
                    let submit = DirectSubmit {
                        jobs,
                        shard,
                        tenant,
                        reply,
                        seq,
                    };
                    if !self.dispatch(token, submit, None) {
                        return;
                    }
                }
                Ok(control) => {
                    // To the router; later submits are fenced behind it.
                    conn.last_control_seq = Some(seq);
                    let sent = self.ingest.send(IngestEvent::Frame(control, reply, seq));
                    if sent.is_err() {
                        self.local_reply(token, seq, &shutting_down());
                    }
                }
                Err(message) => self.local_reply(token, seq, &Response::Error { message }),
            }
        }
    }

    /// Queues a locally generated response (no wake needed — the caller
    /// is the owning I/O thread and pumps before it polls again).
    fn local_reply(&mut self, token: usize, seq: u64, response: &Response) {
        if let Some(conn) = self.conns.get(token) {
            conn.sink.push(Reply::frame(seq, response));
        }
    }

    /// The one submit path: pushes `submit` onto its shard's queue,
    /// answers it locally (routing rejections, a closed table), or parks
    /// it (`false`) — `was` is the reason it was parked for until now.
    fn dispatch(&mut self, token: usize, submit: DirectSubmit, was: Option<ParkReason>) -> bool {
        let Some(conn) = self.conns.get(token) else {
            return false;
        };
        let seq = submit.seq;
        let fenced = conn
            .last_control_seq
            .is_some_and(|s| conn.next_release <= s);
        let outcome = if fenced {
            Err((submit, ParkReason::Fenced))
        } else {
            // The read guard is held across the push: the router's write
            // of a sealed table returns only once every push routed under
            // the old one has landed, so nothing races a retiring shard.
            push_submit(&self.shared.table.read().expect("table lock"), submit)
        };
        match outcome {
            Ok(None) => true,
            Ok(Some(response)) => {
                self.local_reply(token, seq, &response);
                true
            }
            Err((submit, reason)) => {
                if was != Some(reason) {
                    self.shared.parked[reason as usize].fetch_add(1, Ordering::Relaxed);
                }
                if reason != ParkReason::Fenced {
                    self.waiting.push(token);
                    self.waiting_full += usize::from(reason == ParkReason::Full);
                }
                self.conns.get_mut(token).expect("checked above").parked = Some((submit, reason));
                false
            }
        }
    }

    /// Retries every connection parked on a sealed table or a full
    /// queue; `dispatch` re-lists the ones that park again.
    fn retry_waiting(&mut self) {
        self.waiting_full = 0;
        for token in std::mem::take(&mut self.waiting) {
            self.pump_input(token);
            self.finish(token);
        }
    }

    /// Moves in-sequence replies from the reorder buffer into the
    /// outbound one; returns the bytes still held for reordering.
    fn release(&mut self, token: usize) -> usize {
        let Some(conn) = self.conns.get_mut(token) else {
            return 0;
        };
        let mut q = conn.sink.q.lock().expect("sink lock");
        while let Some(entry) = q.held.first_entry() {
            if *entry.key() > conn.next_release {
                break;
            }
            let reply = entry.remove();
            q.held_bytes -= reply.line.len();
            if reply.seq < conn.next_release {
                continue; // stale duplicate (dead-shard race); drop
            }
            conn.out.extend_from_slice(reply.line.as_bytes());
            if let Some(tx) = reply.flushed {
                conn.flush_marks
                    .push_back((conn.out_base + conn.out.len() as u64, tx));
            }
            conn.next_release += 1;
        }
        q.held_bytes
    }

    /// Releases in-sequence replies (resuming a connection fenced behind
    /// one of them), writes, enforces the write bound, updates epoll
    /// interest and closes finished connections. Safe to call repeatedly.
    fn finish(&mut self, token: usize) {
        let mut held_bytes = self.release(token);
        let fenced = |c: &Conn| matches!(c.parked, Some((_, ParkReason::Fenced)));
        if self.conns.get(token).is_some_and(fenced) {
            self.pump_input(token);
            held_bytes = self.release(token); // what the resumed frames answered locally
        }
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        let backlog = conn.unwritten() + held_bytes;
        if backlog > self.max_write_buffer {
            // The client is not reading: cut it loose rather than buffer
            // without bound (satellite: unbounded reply memory).
            self.shared.slow_disconnects.fetch_add(1, Ordering::SeqCst);
            self.kill(token);
            return;
        }
        self.try_write(token);
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        // Done? (EOF seen, every frame answered, every byte written. A
        // parked frame is an unanswered one, and after EOF lines stay
        // undecoded only behind a parked frame.)
        let idle_out = conn.unwritten() == 0
            && conn.next_release == conn.seq
            && conn.sink.q.lock().expect("sink lock").held.is_empty();
        if conn.read_closed && idle_out {
            self.kill(token);
            return;
        }
        // Re-arm epoll interest to match what we are waiting for.
        let want_read = !conn.read_closed && conn.parked.is_none();
        let want_write = conn.unwritten() > 0;
        if want_read != conn.want_read || want_write != conn.want_write {
            conn.want_read = want_read;
            conn.want_write = want_write;
            let _ = self.poller.modify(
                conn.stream.as_raw_fd(),
                token as u64,
                Interest {
                    readable: want_read,
                    writable: want_write,
                },
            );
        }
    }

    /// Writes as much of the outbound buffer as the socket accepts,
    /// signalling flush marks as they are passed.
    fn try_write(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        let mut dead = false;
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => break,
                Ok(n) => {
                    conn.out_pos += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        if dead {
            self.kill(token);
            return;
        }
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        let written_abs = conn.out_base + conn.out_pos as u64;
        while conn
            .flush_marks
            .front()
            .is_some_and(|(off, _)| *off <= written_abs)
        {
            let (_, tx) = conn.flush_marks.pop_front().expect("checked");
            let _ = tx.send(());
        }
        if conn.out_pos == conn.out.len() {
            conn.out_base += conn.out.len() as u64;
            conn.out.clear();
            conn.out_pos = 0;
        } else if conn.out_pos > READ_CHUNK {
            // Compact so a slowly draining connection cannot grow the
            // buffer by its own written prefix.
            conn.out.drain(..conn.out_pos);
            conn.out_base += conn.out_pos as u64;
            conn.out_pos = 0;
        }
    }

    /// Adopts the connections thread 0 accepted for this thread.
    fn process_inbox(&mut self) {
        let streams = std::mem::take(&mut *self.handle.inbox.lock().expect("inbox lock"));
        for stream in streams {
            self.register(stream);
        }
    }

    /// Processes sinks that received replies since the last pass.
    fn process_ready(&mut self) {
        let ready: Vec<Arc<ReplySink>> =
            std::mem::take(&mut *self.handle.ready.lock().expect("ready lock"));
        for sink in ready {
            // Reset *before* pumping so a send racing with this pass
            // re-queues the sink rather than being missed.
            sink.queued.store(false, Ordering::Release);
            let token = sink.token;
            if self
                .conns
                .get(token)
                .is_some_and(|c| Arc::ptr_eq(&c.sink, &sink))
            {
                self.finish(token);
            }
        }
    }

    /// Reaps connections idle past the timeout — the half-open-peer
    /// defence: a client that vanished without FIN never fires an epoll
    /// event, so readiness alone would leak it (and its routing state)
    /// forever.
    fn sweep_idle(&mut self) {
        let Some(timeout) = self.idle_timeout else {
            return;
        };
        let now = Instant::now();
        if now.duration_since(self.last_sweep) < timeout / 2 {
            return;
        }
        self.last_sweep = now;
        for token in self.conns.tokens() {
            let idle = self
                .conns
                .get(token)
                .is_some_and(|c| now.duration_since(c.last_activity) > timeout);
            if idle {
                self.shared.idle_reaped.fetch_add(1, Ordering::SeqCst);
                self.kill(token);
            }
        }
    }
}

/// Routes `submit` under `table` and pushes it onto the owning shard's
/// queue. `Ok(None)`: queued (the shard answers). `Ok(Some(_))`: answer
/// locally. `Err`: cannot be queued right now — park it.
fn push_submit(
    table: &RoutingTable,
    submit: DirectSubmit,
) -> Result<Option<Response>, (DirectSubmit, ParkReason)> {
    let direct = match &table.direct {
        DirectPath::Open(direct) => direct,
        DirectPath::Sealed => return Err((submit, ParkReason::Sealed)),
        DirectPath::Closed => return Ok(Some(shutting_down())),
    };
    let n_shards = table.plan.n_shards();
    let target = match submit.shard {
        Some(k) if k >= n_shards => return Ok(Some(Response::UnknownShard { shard: k, n_shards })),
        Some(k) => k,
        None => match derive_route(&table.grid, &table.plan, &table.offline, &submit.jobs) {
            Ok(k) => k,
            Err(response) => return Ok(Some(*response)),
        },
    };
    let n_jobs = submit.jobs.len();
    let d = &direct[target];
    let pushed = d.queue.push(submit);
    // The poke doubles as the liveness probe: a dead shard neither
    // drains a full queue nor answers a queued submit.
    if d.control.send(ShardMsg::Poke).is_err() {
        return Ok(Some(shard_down()));
    }
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

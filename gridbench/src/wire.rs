//! The load generator: one thread, one epoll loop, every connection.
//!
//! It knows the daemon only through its NDJSON wire. Two loop shapes
//! drive the submit connections:
//!
//! * **closed loop** (`saturate`): every connection keeps exactly one
//!   frame in flight and sends the next when the reply arrives — a slow
//!   daemon receives less load, so this measures sustained throughput;
//! * **open loop** (`paced`): frames are *due* on a fixed schedule that
//!   never looks at replies, are pipelined onto the connections
//!   round-robin, and are timed **from the instant they were due** — a
//!   stall is charged to every request that queued behind it.
//!
//! Replies carry no request id; the protocol promises one reply per
//! frame, in order, per connection. The generator therefore matches
//! replies FIFO per connection and checks each against what its request
//! must produce — a reply of the wrong kind, or an `accepted` for a
//! different job count or shard, is counted as out of order.

use crate::stats;
use crate::workloads::TENANT;
use serde::Deserialize;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Connects in flight before the generator waits for the daemon to have
/// accepted them (the accept backlog is 128).
const RAMP_BURST: usize = 64;
/// Period of the control connection's frames.
pub const CONTROL_PERIOD_NS: u64 = 50_000_000;
/// How long a synchronous call or the final settle may take.
const CALL_LIMIT: Duration = Duration::from_secs(60);
/// Socket read chunk.
const READ_CHUNK: usize = 64 * 1024;

/// Which part of the run a frame belongs to (decided when it is due).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// Verify slice, ramp pings, warm-up, snapshots: never timed.
    Setup,
    /// The closed-loop phase.
    Saturate,
    /// A paced step (index into the workload's rates).
    Step(usize),
}

/// What a frame asks for, hence what its reply must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `submit` → `accepted` for the same job count and shard.
    Submit,
    /// `query shards` → `shards`.
    Ping,
    /// `query metrics` → `metrics`.
    Metrics,
    /// `query telemetry` → `telemetry`.
    Telemetry,
    /// `query schedule` → `schedule`.
    Schedule,
    /// `reconfigure` → `reconfigured`.
    Reconfigure,
    /// `reshard` → `resharded`.
    Reshard,
    /// `fail_site` → `site_failed`.
    FailSite,
    /// `rejoin_site` → `site_rejoined`.
    RejoinSite,
    /// `drain` → `drained`.
    Drain,
    /// `shutdown` → `bye`.
    Shutdown,
}

impl Kind {
    fn expected_reply(self) -> &'static [u8] {
        match self {
            Kind::Submit => b"accepted",
            Kind::Ping => b"shards",
            Kind::Metrics => b"metrics",
            Kind::Telemetry => b"telemetry",
            Kind::Schedule => b"schedule",
            Kind::Reconfigure => b"reconfigured",
            Kind::Reshard => b"resharded",
            Kind::FailSite => b"site_failed",
            Kind::RejoinSite => b"site_rejoined",
            Kind::Drain => b"drained",
            Kind::Shutdown => b"bye",
        }
    }
}

/// One frame sent and not yet answered.
#[derive(Debug, Clone, Copy)]
pub struct Pending {
    /// When the frame was due, ns since the generator's origin. The RTT
    /// clock starts here — never at connect, never at the actual write.
    pub due_ns: u64,
    /// Phase the frame belongs to.
    pub tag: Tag,
    /// What was asked.
    pub kind: Kind,
    /// Jobs in a submit frame.
    pub jobs: u32,
    /// Shard a submit frame names.
    pub shard: u32,
    /// Keep the reply body for the caller (synchronous calls).
    pub keep_body: bool,
}

/// How a reply compares with what its request had to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The expected reply.
    Ok,
    /// A `busy` frame (bounded queue full).
    Busy,
    /// A typed refusal (`route_rejected`, `unknown_shard`, `site_offline`,
    /// `reshard_rejected`).
    Rejected,
    /// An `error` frame.
    Error,
    /// Any other mismatch: the reply belongs to a different request.
    OutOfOrder,
}

/// The `"type"` of a reply line, when the line starts with it (every
/// frame the daemon encodes does).
fn reply_type(line: &[u8]) -> &[u8] {
    const HEAD: &[u8] = b"{\"type\":\"";
    match line.strip_prefix(HEAD) {
        Some(rest) => &rest[..rest.iter().position(|&b| b == b'"').unwrap_or(0)],
        None => b"",
    }
}

/// The unsigned integer following `key` (e.g. `"jobs":`) in `line`.
fn field_u32(line: &[u8], key: &[u8]) -> Option<u32> {
    let at = line.windows(key.len()).position(|w| w == key)? + key.len();
    let digits = line[at..].iter().take_while(|b| b.is_ascii_digit());
    let mut any = false;
    let mut v = 0u32;
    for &d in digits {
        any = true;
        v = v.checked_mul(10)?.checked_add(u32::from(d - b'0'))?;
    }
    any.then_some(v)
}

/// Judges one reply line against the request at the head of the FIFO.
pub fn judge(expected: &Pending, line: &[u8]) -> Outcome {
    let ty = reply_type(line);
    if ty == expected.kind.expected_reply() {
        if expected.kind != Kind::Submit {
            return Outcome::Ok;
        }
        let same = field_u32(line, b"\"jobs\":") == Some(expected.jobs)
            && field_u32(line, b"\"shard\":") == Some(expected.shard);
        return if same {
            Outcome::Ok
        } else {
            Outcome::OutOfOrder
        };
    }
    match ty {
        b"busy" => Outcome::Busy,
        b"error" => Outcome::Error,
        b"route_rejected" | b"unknown_shard" | b"site_offline" | b"reshard_rejected" => {
            Outcome::Rejected
        }
        _ => Outcome::OutOfOrder,
    }
}

/// An open-loop schedule: due times are a function of the frame's index
/// alone, so they cannot drift with reply latency or generator lateness.
#[derive(Debug, Clone)]
pub struct Pacer {
    start_ns: u64,
    next: usize,
    plan: Plan,
}

#[derive(Debug, Clone)]
enum Plan {
    /// Frame `k` is due at `start + k·gap`.
    Even { gap_ns: f64, total: usize },
    /// Frame `k` is due at `start + offsets[k]`.
    Listed(Vec<u64>),
}

impl Pacer {
    /// `total` frames evenly spaced over `span_ns`.
    pub fn even(start_ns: u64, span_ns: u64, total: usize) -> Pacer {
        Pacer {
            start_ns,
            next: 0,
            plan: Plan::Even {
                gap_ns: span_ns as f64 / total.max(1) as f64,
                total,
            },
        }
    }

    /// Frames at the given fractions of `span_ns` (ascending, in `[0, 1]`).
    pub fn listed(start_ns: u64, span_ns: u64, fractions: &[f64]) -> Pacer {
        Pacer {
            start_ns,
            next: 0,
            plan: Plan::Listed(
                fractions
                    .iter()
                    .map(|f| (f * span_ns as f64) as u64)
                    .collect(),
            ),
        }
    }

    /// When the next frame is due, if any remain.
    pub fn peek(&self) -> Option<u64> {
        match &self.plan {
            Plan::Even { gap_ns, total } => {
                (self.next < *total).then(|| self.start_ns + (self.next as f64 * gap_ns) as u64)
            }
            Plan::Listed(offsets) => offsets.get(self.next).map(|o| self.start_ns + o),
        }
    }

    /// Pops the next frame if it is due at `now_ns`, returning its due time.
    pub fn pop_due(&mut self, now_ns: u64) -> Option<u64> {
        let due = self.peek().filter(|&d| d <= now_ns)?;
        self.next += 1;
        Some(due)
    }
}

/// Builds submit frames from the job pool: each job's JSON tail is
/// generated once, frames splice in fresh job ids.
#[derive(Clone)]
pub struct FramePool {
    tails: Vec<String>,
    jobs_per_frame: usize,
    next_job: u64,
}

impl FramePool {
    /// A pool over the jobs' JSON tails (see `layers::Inputs::job_tails`).
    pub fn new(tails: Vec<String>, jobs_per_frame: usize) -> FramePool {
        FramePool {
            tails,
            jobs_per_frame,
            next_job: 0,
        }
    }

    /// Appends the next submit frame, addressed to `shard`, to `out`.
    pub fn push_frame(&mut self, shard: u32, out: &mut Vec<u8>) {
        write!(
            out,
            "{{\"type\":\"submit\",\"shard\":{shard},\"tenant\":\"{TENANT}\",\"jobs\":["
        )
        .expect("writing to a Vec cannot fail");
        for k in 0..self.jobs_per_frame {
            let id = self.next_job;
            self.next_job += 1;
            let tail = &self.tails[(id % self.tails.len() as u64) as usize];
            let sep = if k == 0 { "" } else { "," };
            write!(out, "{sep}{{\"id\":{id}{tail}").expect("writing to a Vec cannot fail");
        }
        out.extend_from_slice(b"]}\n");
    }
}

/// The first `n` frames a workload's connections send, in send order
/// (frame `i` on connection `i % conns`, shard `connection % shards`) —
/// the input of the traced pass.
pub fn first_frames(pool: &FramePool, n: usize, conns: usize, shards: usize) -> Vec<Vec<u8>> {
    let mut pool = pool.clone();
    pool.next_job = 0;
    (0..n)
        .map(|i| {
            let mut frame = Vec::new();
            pool.push_frame(((i % conns) % shards) as u32, &mut frame);
            frame.pop(); // the traced pipeline takes lines without the newline
            frame
        })
        .collect()
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    /// A reply line split across reads.
    partial: Vec<u8>,
    pending: VecDeque<Pending>,
    want_write: bool,
    /// The shard this connection's submit frames name.
    shard: u32,
    closed: bool,
}

/// An answered frame.
struct Done {
    conn: usize,
    pending: Pending,
    at_ns: u64,
    outcome: Outcome,
    body: Option<Vec<u8>>,
}

/// Everything the generator counted.
#[derive(Debug, Default)]
pub struct Counters {
    /// Frames sent (submit and control, every phase).
    pub frames: u64,
    /// Jobs the daemon accepted.
    pub jobs_accepted: u64,
    /// `busy` replies.
    pub busy: u64,
    /// Typed refusals.
    pub rejected: u64,
    /// `error` replies.
    pub errors: u64,
    /// Replies that did not match the request at the head of the FIFO.
    pub out_of_order: u64,
    /// Connections the daemon closed.
    pub peer_closed: u64,
    /// Frames still unanswered when the run settled.
    pub unanswered: u64,
    /// Bytes written to submit connections.
    pub bytes_out: u64,
    /// Bytes read from submit connections.
    pub bytes_in: u64,
    /// Jobs migrated by the daemon's reshards (from `resharded` replies).
    pub jobs_migrated: u64,
}

impl Counters {
    /// Frames that failed for any reason.
    pub fn failed(&self) -> u64 {
        self.busy + self.rejected + self.errors + self.out_of_order + self.unanswered
    }
}

/// The control connection's frame cycle on `mixed-control-c16`: every
/// second 16 `query metrics`, one `query telemetry`, one `reconfigure`,
/// one `reshard` and one `fail_site`/`rejoin_site`.
const MIXED_CYCLE: [Kind; 20] = {
    let mut cycle = [Kind::Metrics; 20];
    cycle[3] = Kind::Reconfigure;
    cycle[8] = Kind::Reshard;
    cycle[13] = Kind::Telemetry;
    cycle[18] = Kind::FailSite; // alternates with RejoinSite
    cycle
};
/// Sites failed in turn; all in the first half of the grid, which shards
/// 0 and 1 own in both the 2- and the 4-shard plan.
const FAIL_SITES: [usize; 5] = [2, 7, 4, 8, 1];

struct Control {
    mixed: bool,
    next_due_ns: Option<u64>,
    sent: usize,
    reshards: usize,
    failed_site: Option<usize>,
    fails: usize,
    reconfigure_frame: Vec<u8>,
    reshard_frames: [Vec<u8>; 2],
}

/// The generator.
pub struct Gen {
    origin: Instant,
    poller: epoll::Poller,
    events: epoll::Events,
    scratch: Vec<u8>,
    /// Submit connections, then the control connection last.
    conns: Vec<Conn>,
    n_submit: usize,
    pool: FramePool,
    control: Control,
    done: Vec<Done>,
    bodies: VecDeque<(Kind, Outcome, Vec<u8>)>,
    /// While `Some`, answered submit connections are re-armed at once.
    closed_loop: Option<(Tag, u64)>,
    next_conn: usize,
    /// Jobs accepted by the current closed-loop call's own frames …
    window_jobs: u64,
    /// … and when the last of them was.
    window_last_ns: u64,
    /// Submit RTTs per paced step, ns from due time.
    pub step_rtt: [Vec<u64>; 3],
    /// Generator lateness per paced frame (written − due), ns, per step.
    pub late_ns: [Vec<u64>; 3],
    /// `(kind, RTT ns from due time)` of every control frame of the cadence.
    pub control_rtt: Vec<(Kind, u64)>,
    /// Counts.
    pub counters: Counters,
    /// Connect latencies of the ramp, ns.
    pub connect_ns: Vec<u64>,
    /// Wall seconds of the ramp.
    pub ramp_s: f64,
    /// The first reply that was not what its request had to produce.
    pub first_failure: Option<String>,
    /// Never sleep in `epoll_wait` (the generator has a processor to itself).
    busy_poll: bool,
}

fn io_err(what: &str) -> impl Fn(io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn contiguous_plan(n_sites: usize, shards: usize) -> String {
    let parts: Vec<String> = (0..shards)
        .map(|k| {
            let (lo, hi) = (k * n_sites / shards, (k + 1) * n_sites / shards);
            let sites: Vec<String> = (lo..hi).map(|s| s.to_string()).collect();
            format!("[{}]", sites.join(","))
        })
        .collect();
    format!(
        "{{\"type\":\"reshard\",\"shards\":[{}]}}\n",
        parts.join(",")
    )
}

impl Gen {
    /// Opens the control connection to a freshly booted daemon.
    pub fn new(
        addr: SocketAddr,
        pool: FramePool,
        mixed_control: bool,
        security_levels: &[f64],
        busy_poll: bool,
    ) -> Result<Gen, String> {
        let levels: Vec<String> = security_levels.iter().map(|l| format!("{l:?}")).collect();
        let n_sites = security_levels.len();
        let mut gen = Gen {
            origin: Instant::now(),
            poller: epoll::Poller::new().map_err(io_err("epoll"))?,
            events: epoll::Events::with_capacity(1024),
            scratch: vec![0u8; READ_CHUNK],
            conns: Vec::new(),
            n_submit: 0,
            pool,
            control: Control {
                mixed: mixed_control,
                next_due_ns: None,
                sent: 0,
                reshards: 0,
                failed_site: None,
                fails: 0,
                reconfigure_frame: format!(
                    "{{\"type\":\"reconfigure\",\"security_levels\":[{}]}}\n",
                    levels.join(",")
                )
                .into_bytes(),
                reshard_frames: [
                    contiguous_plan(n_sites, 4).into_bytes(),
                    contiguous_plan(n_sites, 2).into_bytes(),
                ],
            },
            done: Vec::new(),
            bodies: VecDeque::new(),
            closed_loop: None,
            next_conn: 0,
            window_jobs: 0,
            window_last_ns: 0,
            step_rtt: [Vec::new(), Vec::new(), Vec::new()],
            late_ns: [Vec::new(), Vec::new(), Vec::new()],
            control_rtt: Vec::new(),
            counters: Counters::default(),
            connect_ns: Vec::new(),
            ramp_s: 0.0,
            first_failure: None,
            busy_poll,
        };
        gen.open(addr, 0)?;
        Ok(gen)
    }

    /// Nanoseconds since the generator's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn control_conn(&self) -> usize {
        self.conns.len() - 1
    }

    /// Connects (blocking: a loopback handshake completes in the kernel),
    /// then switches the socket to non-blocking and registers it at the
    /// end of `conns`.
    fn open(&mut self, addr: SocketAddr, shard: u32) -> Result<u64, String> {
        let t = Instant::now();
        let stream = TcpStream::connect(addr).map_err(io_err("connect"))?;
        let took = t.elapsed().as_nanos() as u64;
        stream
            .set_nonblocking(true)
            .map_err(io_err("set_nonblocking"))?;
        stream.set_nodelay(true).map_err(io_err("set_nodelay"))?;
        let key = self.conns.len() as u64;
        self.poller
            .add(stream.as_raw_fd(), key, epoll::Interest::READ)
            .map_err(io_err("epoll add"))?;
        self.conns.push(Conn {
            stream,
            out: Vec::new(),
            out_pos: 0,
            partial: Vec::new(),
            pending: VecDeque::new(),
            want_write: false,
            shard,
            closed: false,
        });
        Ok(took)
    }

    /// The paced connection ramp: at most [`RAMP_BURST`] connects are
    /// outstanding before a `query shards` round trip on the newest
    /// connection proves the daemon has accepted them all (accepts are
    /// FIFO). Connect latency and ramp time are their own metrics; no RTT
    /// clock runs during the ramp.
    pub fn ramp(&mut self, addr: SocketAddr, conns: usize, shards: usize) -> Result<(), String> {
        let started = Instant::now();
        // Submit connections sit before the control connection.
        let control = self.conns.pop().expect("control connection is open");
        for i in 0..conns {
            let took = self.open(addr, (i % shards) as u32)?;
            self.connect_ns.push(took);
            if (i + 1) % RAMP_BURST == 0 || i + 1 == conns {
                self.call_on(i, Kind::Ping, b"{\"type\":\"query\",\"what\":\"shards\"}\n")?;
            }
        }
        self.n_submit = conns;
        // Re-key the control connection to its new index.
        let key = self.conns.len() as u64;
        self.poller
            .modify(control.stream.as_raw_fd(), key, epoll::Interest::READ)
            .map_err(io_err("epoll modify"))?;
        self.conns.push(control);
        self.ramp_s = started.elapsed().as_secs_f64();
        Ok(())
    }

    /// Queues `frame` on connection `ci` and writes what the socket takes.
    fn send(&mut self, ci: usize, frame: &[u8], pending: Pending) {
        self.counters.frames += 1;
        let conn = &mut self.conns[ci];
        conn.out.extend_from_slice(frame);
        conn.pending.push_back(pending);
        self.flush(ci);
    }

    /// Queues the next submit frame on connection `ci`.
    fn send_submit(&mut self, ci: usize, due_ns: u64, tag: Tag) {
        self.counters.frames += 1;
        let conn = &mut self.conns[ci];
        let before = conn.out.len();
        self.pool.push_frame(conn.shard, &mut conn.out);
        self.counters.bytes_out += (conn.out.len() - before) as u64;
        conn.pending.push_back(Pending {
            due_ns,
            tag,
            kind: Kind::Submit,
            jobs: self.pool.jobs_per_frame as u32,
            shard: conn.shard,
            keep_body: false,
        });
        self.flush(ci);
    }

    fn flush(&mut self, ci: usize) {
        let conn = &mut self.conns[ci];
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => break,
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.closed = true;
                    break;
                }
            }
        }
        if conn.out_pos == conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
        }
        // Write interest only while bytes are unflushed: level-triggered
        // EPOLLOUT on an idle socket would spin.
        let want_write = !conn.out.is_empty() && !conn.closed;
        if want_write != conn.want_write {
            conn.want_write = want_write;
            let interest = if want_write {
                epoll::Interest::READ_WRITE
            } else {
                epoll::Interest::READ
            };
            let _ = self
                .poller
                .modify(conn.stream.as_raw_fd(), ci as u64, interest);
        }
    }

    /// Waits for socket events until `until_ns` at the latest, then turns
    /// every complete reply line into a `Done`. With a processor of its
    /// own the generator polls with a zero timeout throughout, so it never
    /// sleeps and is never late because it had to be woken. Sharing a
    /// processor with the daemon it sleeps in `epoll_wait`, whose timeout
    /// is whole milliseconds, and polls only for the last sub-millisecond.
    fn poll(&mut self, until_ns: u64) -> Result<(), String> {
        loop {
            let now = self.now();
            let left_ms = if self.busy_poll {
                0
            } else {
                until_ns.saturating_sub(now) / 1_000_000
            };
            let n = self
                .poller
                .wait(&mut self.events, Some(Duration::from_millis(left_ms)))
                .map_err(io_err("epoll wait"))?;
            if n > 0 || self.now() >= until_ns {
                break;
            }
        }
        let ready: Vec<epoll::Event> = self.events.iter().collect();
        for ev in ready {
            let ci = ev.key as usize;
            if ev.writable {
                self.flush(ci);
            }
            if ev.readable {
                self.read(ci);
            }
        }
        Ok(())
    }

    /// One read per readiness event (level-triggered epoll reports what
    /// is left), split into lines, each matched FIFO.
    fn read(&mut self, ci: usize) {
        let conn = &mut self.conns[ci];
        if conn.closed {
            return;
        }
        let n = match conn.stream.read(&mut self.scratch) {
            Ok(0) => {
                conn.closed = true;
                let _ = self.poller.delete(conn.stream.as_raw_fd());
                self.counters.peer_closed += 1;
                return;
            }
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                return
            }
            Err(_) => {
                conn.closed = true;
                let _ = self.poller.delete(conn.stream.as_raw_fd());
                self.counters.peer_closed += 1;
                return;
            }
        };
        let at_ns = self.origin.elapsed().as_nanos() as u64;
        if ci < self.n_submit {
            self.counters.bytes_in += n as u64;
        }
        let mut chunk = &self.scratch[..n];
        while let Some(nl) = chunk.iter().position(|&b| b == b'\n') {
            let (head, rest) = chunk.split_at(nl);
            chunk = &rest[1..];
            let joined;
            let line: &[u8] = if conn.partial.is_empty() {
                head
            } else {
                conn.partial.extend_from_slice(head);
                joined = std::mem::take(&mut conn.partial);
                &joined
            };
            match conn.pending.pop_front() {
                Some(pending) => {
                    let outcome = judge(&pending, line);
                    if outcome != Outcome::Ok && self.first_failure.is_none() {
                        let shown = &line[..line.len().min(300)];
                        self.first_failure = Some(format!(
                            "{:?} frame answered {outcome:?}: {}",
                            pending.kind,
                            String::from_utf8_lossy(shown)
                        ));
                    }
                    if pending.kind == Kind::Reshard && outcome == Outcome::Ok {
                        self.counters.jobs_migrated +=
                            u64::from(field_u32(line, b"\"jobs_migrated\":").unwrap_or(0));
                    }
                    self.done.push(Done {
                        conn: ci,
                        pending,
                        at_ns,
                        outcome,
                        body: pending.keep_body.then(|| line.to_vec()),
                    });
                }
                // A reply nobody asked for.
                None => self.counters.out_of_order += 1,
            }
        }
        conn.partial.extend_from_slice(chunk);
    }

    /// Books every answered frame and, in closed loop, re-arms its
    /// connection.
    fn absorb(&mut self) {
        let done = std::mem::take(&mut self.done);
        for d in &done {
            match d.outcome {
                Outcome::Ok => {}
                Outcome::Busy => self.counters.busy += 1,
                Outcome::Rejected => self.counters.rejected += 1,
                Outcome::Error => self.counters.errors += 1,
                Outcome::OutOfOrder => self.counters.out_of_order += 1,
            }
            let rtt = d.at_ns.saturating_sub(d.pending.due_ns);
            if d.pending.kind == Kind::Submit {
                if d.outcome == Outcome::Ok {
                    self.counters.jobs_accepted += u64::from(d.pending.jobs);
                }
                if let Tag::Step(k) = d.pending.tag {
                    self.step_rtt[k].push(rtt);
                }
                if let Some((tag, end_ns)) = self.closed_loop {
                    if d.pending.tag == tag && d.outcome == Outcome::Ok {
                        self.window_jobs += u64::from(d.pending.jobs);
                        self.window_last_ns = d.at_ns;
                    }
                    if d.at_ns < end_ns && d.conn < self.n_submit {
                        self.send_submit(d.conn, d.at_ns, tag);
                    }
                }
            } else if d.pending.tag != Tag::Setup {
                self.control_rtt.push((d.pending.kind, rtt));
            }
        }
        for d in done {
            if let Some(body) = d.body {
                self.bodies.push_back((d.pending.kind, d.outcome, body));
            }
        }
    }

    /// Sends one frame on connection `ci` and waits for its reply body.
    fn call_on(&mut self, ci: usize, kind: Kind, frame: &[u8]) -> Result<Vec<u8>, String> {
        let due_ns = self.now();
        self.send(
            ci,
            frame,
            Pending {
                due_ns,
                tag: Tag::Setup,
                kind,
                jobs: 0,
                shard: 0,
                keep_body: true,
            },
        );
        let limit = due_ns + CALL_LIMIT.as_nanos() as u64;
        loop {
            if let Some((k, outcome, body)) = self.bodies.pop_front() {
                if k != kind || outcome != Outcome::Ok {
                    return Err(format!(
                        "{kind:?} frame answered with {outcome:?}: {}",
                        String::from_utf8_lossy(&body[..body.len().min(200)])
                    ));
                }
                return Ok(body);
            }
            if self.conns[ci].closed {
                return Err(format!("connection closed while waiting for {kind:?}"));
            }
            let now = self.now();
            if now >= limit {
                return Err(format!("no reply to {kind:?} within {CALL_LIMIT:?}"));
            }
            self.poll(now + 100_000_000)?;
            self.absorb();
        }
    }

    /// A synchronous call on the control connection.
    fn call(&mut self, kind: Kind, frame: &[u8]) -> Result<Vec<u8>, String> {
        self.call_on(self.control_conn(), kind, frame)
    }

    /// Runs every pending round (`drain`).
    pub fn drain(&mut self) -> Result<(), String> {
        self.call(Kind::Drain, b"{\"type\":\"drain\"}\n").map(drop)
    }

    /// A `query metrics` snapshot, aggregated over shards.
    pub fn metrics(&mut self) -> Result<MetricsView, String> {
        let body = self.call(
            Kind::Metrics,
            b"{\"type\":\"query\",\"what\":\"metrics\"}\n",
        )?;
        #[derive(Deserialize)]
        struct Reply {
            metrics: MetricsView,
        }
        serde_json::from_slice::<Reply>(&body)
            .map(|r| r.metrics)
            .map_err(|e| format!("metrics reply: {e}"))
    }

    /// A `query telemetry` snapshot.
    pub fn telemetry(&mut self) -> Result<TelemetryView, String> {
        let body = self.call(
            Kind::Telemetry,
            b"{\"type\":\"query\",\"what\":\"telemetry\"}\n",
        )?;
        #[derive(Deserialize)]
        struct Reply {
            telemetry: TelemetryView,
        }
        serde_json::from_slice::<Reply>(&body)
            .map(|r| r.telemetry)
            .map_err(|e| format!("telemetry reply: {e}"))
    }

    /// The verify slice: `jobs` pool jobs pipelined down the control
    /// connection (frame `i` to shard `i % shards`), drained, and read
    /// back as `(job, site)` pairs from `query schedule`.
    pub fn verify_slice(
        &mut self,
        jobs: usize,
        shards: usize,
    ) -> Result<Vec<(u64, usize)>, String> {
        let ci = self.control_conn();
        let frames = jobs / self.pool.jobs_per_frame;
        let limit = self.now() + CALL_LIMIT.as_nanos() as u64;
        for i in 0..frames {
            self.conns[ci].shard = (i % shards) as u32;
            let due = self.now();
            self.send_submit(ci, due, Tag::Setup);
        }
        while !self.conns[ci].pending.is_empty() {
            if self.conns[ci].closed || self.now() >= limit {
                return Err("verify slice was not answered".into());
            }
            let now = self.now();
            self.poll(now + 100_000_000)?;
            self.absorb();
        }
        if self.counters.jobs_accepted != jobs as u64 || self.counters.failed() != 0 {
            return Err(format!(
                "verify slice: {} of {jobs} jobs accepted, {} frames failed",
                self.counters.jobs_accepted,
                self.counters.failed()
            ));
        }
        // Not `drain`: on a wall-clock daemon it fires the armed periodic
        // boundary too and so moves the session clock up to one interval
        // into the future, after which submits stamped "now" are refused
        // until real time catches up. The slice is a whole number of
        // batches, so its rounds fire on their own; wait for them.
        loop {
            let m = self.metrics()?;
            if m.jobs_scheduled == jobs as u64 && m.pending == 0 {
                break;
            }
            if self.now() >= limit {
                return Err(format!(
                    "verify slice: {} of {jobs} jobs scheduled, {} pending",
                    m.jobs_scheduled, m.pending
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let body = self.call(
            Kind::Schedule,
            b"{\"type\":\"query\",\"what\":\"schedule\"}\n",
        )?;
        #[derive(Deserialize)]
        struct Placed {
            job: u64,
            site: usize,
        }
        #[derive(Deserialize)]
        struct Reply {
            assignments: Vec<Placed>,
        }
        let reply: Reply =
            serde_json::from_slice(&body).map_err(|e| format!("schedule reply: {e}"))?;
        Ok(reply.assignments.iter().map(|p| (p.job, p.site)).collect())
    }

    /// Closed loop: every submit connection keeps exactly one frame in
    /// flight until `end_ns`; the frames then in flight are let finish.
    /// Returns the jobs the call's frames had accepted and when the last
    /// `accepted` arrived — a window that starts and ends with idle
    /// connections, so nothing is counted that it did not pay for.
    pub fn closed_loop(&mut self, tag: Tag, end_ns: u64) -> Result<(u64, u64), String> {
        self.closed_loop = Some((tag, end_ns));
        self.window_jobs = 0;
        let now = self.now();
        self.window_last_ns = now;
        for ci in 0..self.n_submit {
            self.send_submit(ci, now, tag);
        }
        loop {
            let now = self.now();
            if now >= end_ns {
                break;
            }
            self.control_tick(now);
            let until = self.control.next_due_ns.map_or(end_ns, |c| c.min(end_ns));
            self.poll(until)?;
            self.absorb();
            self.check_alive()?;
        }
        self.finish_submits()?;
        self.closed_loop = None;
        Ok((self.window_jobs, self.window_last_ns))
    }

    /// Closed loop until `jobs` more jobs are accepted (the warm-up).
    pub fn closed_loop_jobs(&mut self, tag: Tag, jobs: u64) -> Result<(), String> {
        let limit = self.now() + CALL_LIMIT.as_nanos() as u64;
        let target = self.counters.jobs_accepted + jobs;
        self.closed_loop = Some((tag, limit));
        let now = self.now();
        for ci in 0..self.n_submit {
            self.send_submit(ci, now, tag);
        }
        while self.counters.jobs_accepted < target {
            let now = self.now();
            if now >= limit {
                return Err("warm-up did not finish".into());
            }
            self.poll(now + 100_000_000)?;
            self.absorb();
            self.check_alive()?;
        }
        // Stop re-arming, then let what is in flight finish.
        self.closed_loop = Some((tag, 0));
        self.finish_submits()?;
        self.closed_loop = None;
        Ok(())
    }

    /// Waits until no submit connection has a frame in flight. The
    /// control cadence keeps running.
    fn finish_submits(&mut self) -> Result<(), String> {
        let limit = self.now() + CALL_LIMIT.as_nanos() as u64;
        while self.conns[..self.n_submit]
            .iter()
            .any(|c| !c.pending.is_empty())
        {
            let now = self.now();
            if now >= limit {
                return Err("frames in flight were not answered".into());
            }
            self.control_tick(now);
            let until = now + 10_000_000;
            self.poll(self.control.next_due_ns.map_or(until, |c| c.min(until)))?;
            self.absorb();
            self.check_alive()?;
        }
        Ok(())
    }

    /// Sends nothing but the control cadence for `span_ns`: a gap in which
    /// the daemon idles and the host reference is read.
    pub fn idle_for(&mut self, span_ns: u64) -> Result<(), String> {
        let until_ns = self.now() + span_ns;
        loop {
            let now = self.now();
            if now >= until_ns {
                return Ok(());
            }
            self.control_tick(now);
            let until = self
                .control
                .next_due_ns
                .map_or(until_ns, |c| c.min(until_ns));
            self.poll(until)?;
            self.absorb();
            self.check_alive()?;
        }
    }

    /// One open-loop step: sends every frame of `pacer` when it is due,
    /// round-robin over the submit connections, until `end_ns`.
    pub fn paced_step(&mut self, step: usize, mut pacer: Pacer, end_ns: u64) -> Result<(), String> {
        loop {
            let now = self.now();
            while let Some(due) = pacer.pop_due(now) {
                let ci = self.next_conn;
                self.next_conn = (self.next_conn + 1) % self.n_submit;
                self.send_submit(ci, due, Tag::Step(step));
                let late = self.now().saturating_sub(due);
                self.late_ns[step].push(late);
            }
            self.control_tick(now);
            if now >= end_ns {
                break;
            }
            let mut until = end_ns;
            if let Some(c) = self.control.next_due_ns {
                until = until.min(c);
            }
            if let Some(p) = pacer.peek() {
                until = until.min(p);
            }
            self.poll(until)?;
            self.absorb();
            self.check_alive()?;
        }
        Ok(())
    }

    fn check_alive(&self) -> Result<(), String> {
        if self.counters.peer_closed > 0 {
            return Err("the daemon closed a connection mid-run".into());
        }
        Ok(())
    }

    /// Starts the control cadence: one frame every [`CONTROL_PERIOD_NS`].
    pub fn start_control(&mut self) {
        self.control.next_due_ns = Some(self.now());
    }

    /// Stops the cadence; brings a failed site back so the ledger can
    /// balance.
    pub fn stop_control(&mut self) -> Result<(), String> {
        self.control.next_due_ns = None;
        if let Some(site) = self.control.failed_site.take() {
            let frame = format!("{{\"type\":\"rejoin_site\",\"site\":{site}}}\n");
            self.call(Kind::RejoinSite, frame.as_bytes())?;
        }
        Ok(())
    }

    /// Sends every control frame that has come due.
    fn control_tick(&mut self, now_ns: u64) {
        while let Some(due_ns) = self.control.next_due_ns.filter(|&d| d <= now_ns) {
            self.control.next_due_ns = Some(due_ns + CONTROL_PERIOD_NS);
            let c = &mut self.control;
            let mut kind = if c.mixed {
                MIXED_CYCLE[c.sent % MIXED_CYCLE.len()]
            } else {
                Kind::Metrics
            };
            c.sent += 1;
            let frame: Vec<u8> = match kind {
                Kind::Telemetry => b"{\"type\":\"query\",\"what\":\"telemetry\"}\n".to_vec(),
                Kind::Reconfigure => c.reconfigure_frame.clone(),
                Kind::Reshard => {
                    c.reshards += 1;
                    c.reshard_frames[(c.reshards - 1) % 2].clone()
                }
                Kind::FailSite => match c.failed_site.take() {
                    Some(site) => {
                        kind = Kind::RejoinSite;
                        format!("{{\"type\":\"rejoin_site\",\"site\":{site}}}\n").into_bytes()
                    }
                    None => {
                        let site = FAIL_SITES[c.fails % FAIL_SITES.len()];
                        c.fails += 1;
                        c.failed_site = Some(site);
                        format!("{{\"type\":\"fail_site\",\"site\":{site}}}\n").into_bytes()
                    }
                },
                _ => b"{\"type\":\"query\",\"what\":\"metrics\"}\n".to_vec(),
            };
            let tag = self.closed_loop.map_or(Tag::Step(0), |(tag, _)| tag);
            let ci = self.control_conn();
            self.send(
                ci,
                &frame,
                Pending {
                    due_ns,
                    tag,
                    kind,
                    jobs: 0,
                    shard: 0,
                    keep_body: false,
                },
            );
        }
    }

    /// Waits until every frame in flight is answered; what is left after
    /// the limit is counted as unanswered.
    pub fn settle(&mut self) -> Result<(), String> {
        let limit = self.now() + CALL_LIMIT.as_nanos() as u64;
        while self
            .conns
            .iter()
            .any(|c| !c.pending.is_empty() && !c.closed)
        {
            let now = self.now();
            if now >= limit {
                break;
            }
            self.poll(now + 100_000_000)?;
            self.absorb();
        }
        self.counters.unanswered += self
            .conns
            .iter()
            .map(|c| c.pending.len() as u64)
            .sum::<u64>();
        Ok(())
    }

    /// Sends `shutdown` and waits for `bye`.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.call(Kind::Shutdown, b"{\"type\":\"shutdown\"}\n")
            .map(drop)
    }
}

/// The fields of a `metrics` reply the benchmark reads.
#[derive(Debug, Clone, Default, Deserialize)]
pub struct MetricsView {
    /// Jobs accepted over the session.
    pub jobs_submitted: u64,
    /// Jobs with a standing assignment.
    pub jobs_scheduled: u64,
    /// Jobs waiting for a round.
    pub pending: u64,
    /// Non-empty rounds run.
    pub rounds: u64,
    /// Seconds spent inside the scheduler.
    pub scheduler_seconds: f64,
    /// Scheduler nanoseconds of the most recent rounds (≤ 512 per shard).
    pub round_nanos: Vec<u64>,
    /// Jobs refused with `busy`.
    #[serde(default)]
    pub busy_rejections: u64,
}

/// A log2 histogram as the daemon serialises it.
#[derive(Debug, Clone, Default, Deserialize)]
pub struct HistView {
    /// Samples.
    pub count: u64,
    /// Per-bucket counts; bucket `b ≥ 1` holds `[2^(b-1), 2^b − 1]`.
    #[serde(default)]
    pub buckets: Vec<u64>,
}

impl HistView {
    /// Inclusive upper bound of the bucket holding the nearest-rank
    /// median (the daemon's own estimate; within 2× of the true value).
    pub fn p50_upper(&self) -> u64 {
        let rank = self.count.div_ceil(2).max(1);
        let mut seen = 0;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if b == 0 { 0 } else { (1u64 << b.min(63)) - 1 };
            }
        }
        0
    }

    fn merge(&mut self, other: &HistView) {
        self.count += other.count;
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

/// The fields of a `telemetry` reply the benchmark reads.
#[derive(Debug, Clone, Default, Deserialize)]
pub struct TelemetryView {
    shards: Vec<ShardTelemetryView>,
}

#[derive(Debug, Clone, Default, Deserialize)]
struct ShardTelemetryView {
    queue_wait: Vec<TenantWaitView>,
}

#[derive(Debug, Clone, Default, Deserialize)]
struct TenantWaitView {
    wait_micros: HistView,
}

impl TelemetryView {
    /// Queue wait (arrival → start of execution, virtual µs) over every
    /// shard and tenant.
    pub fn queue_wait(&self) -> HistView {
        let mut all = HistView::default();
        for shard in &self.shards {
            for tenant in &shard.queue_wait {
                all.merge(&tenant.wait_micros);
            }
        }
        all
    }
}

/// The ledger after `drain`: every job the client saw accepted is
/// submitted and scheduled, nothing is pending.
pub fn check_ledger(client_accepted: u64, m: &MetricsView) -> Result<(), String> {
    if m.jobs_submitted != client_accepted {
        return Err(format!(
            "ledger: client saw {client_accepted} jobs accepted, daemon counts {} submitted",
            m.jobs_submitted
        ));
    }
    if m.jobs_scheduled != m.jobs_submitted || m.pending != 0 {
        return Err(format!(
            "ledger: {} submitted, {} scheduled, {} pending after drain",
            m.jobs_submitted, m.jobs_scheduled, m.pending
        ));
    }
    Ok(())
}

/// Sorted-sample percentile in µs.
pub fn percentile_us(samples: &mut [u64], q: f64) -> f64 {
    stats::percentile(samples, q) as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending(kind: Kind, jobs: u32, shard: u32) -> Pending {
        Pending {
            due_ns: 0,
            tag: Tag::Saturate,
            kind,
            jobs,
            shard,
            keep_body: false,
        }
    }

    #[test]
    fn fifo_matching_flags_a_swapped_reply() {
        let accepted = |jobs, shard| {
            format!("{{\"type\":\"accepted\",\"jobs\":{jobs},\"shard\":{shard},\"pending\":3,\"rounds\":9}}")
        };
        let submit = pending(Kind::Submit, 1, 0);
        assert_eq!(judge(&submit, accepted(1, 0).as_bytes()), Outcome::Ok);
        // Two pipelined requests whose replies come back swapped: both
        // replies fail the check of the request they are matched with.
        let metrics = b"{\"type\":\"metrics\",\"metrics\":{\"jobs_submitted\":1}}";
        let query = pending(Kind::Metrics, 0, 0);
        assert_eq!(judge(&submit, metrics), Outcome::OutOfOrder);
        assert_eq!(
            judge(&query, accepted(1, 0).as_bytes()),
            Outcome::OutOfOrder
        );
        // Two submits to different shards, swapped.
        let other = pending(Kind::Submit, 1, 1);
        assert_eq!(
            judge(&submit, accepted(1, 1).as_bytes()),
            Outcome::OutOfOrder
        );
        assert_eq!(
            judge(&other, accepted(1, 0).as_bytes()),
            Outcome::OutOfOrder
        );
        // A different job count is a different request's reply too.
        assert_eq!(
            judge(&submit, accepted(64, 0).as_bytes()),
            Outcome::OutOfOrder
        );
        // Typed failures are classified, not lumped together.
        let busy = b"{\"type\":\"busy\",\"jobs\":0,\"shard\":0,\"pending\":8,\"limit\":8}";
        assert_eq!(judge(&submit, busy), Outcome::Busy);
        assert_eq!(
            judge(&submit, b"{\"type\":\"error\",\"message\":\"x\"}"),
            Outcome::Error
        );
        let rejected = b"{\"type\":\"unknown_shard\",\"shard\":7,\"n_shards\":2}";
        assert_eq!(judge(&submit, rejected), Outcome::Rejected);
        assert_eq!(judge(&submit, b"not json"), Outcome::OutOfOrder);
    }

    #[test]
    fn open_loop_due_times_never_drift_with_reply_latency() {
        // 1000 frames/s for one second, polled late and irregularly — as
        // when replies are slow and the loop comes back late.
        let start = 5_000_000_000;
        let mut pacer = Pacer::even(start, 1_000_000_000, 1_000);
        let mut due = Vec::new();
        let mut now = start;
        let mut k = 0u64;
        while pacer.peek().is_some() {
            now += 1_000_000 + (k * 7_919) % 9_000_000; // 1–10 ms later each time
            k += 1;
            while let Some(d) = pacer.pop_due(now) {
                assert!(d <= now);
                due.push(d);
            }
        }
        assert_eq!(due.len(), 1_000);
        for (k, d) in due.iter().enumerate() {
            assert_eq!(*d, start + k as u64 * 1_000_000, "frame {k} drifted");
        }
        // Nothing is due before its time.
        let mut early = Pacer::even(start, 1_000_000_000, 10);
        assert_eq!(early.pop_due(start - 1), None);
        assert_eq!(early.pop_due(start), Some(start));
        assert_eq!(early.pop_due(start), None);
    }

    #[test]
    fn listed_pacer_follows_its_fractions() {
        let mut p = Pacer::listed(100, 1_000, &[0.0, 0.25, 0.25, 1.0]);
        assert_eq!(p.pop_due(99), None);
        assert_eq!(p.pop_due(400), Some(100));
        assert_eq!(p.pop_due(400), Some(350));
        assert_eq!(p.pop_due(400), Some(350));
        assert_eq!(p.pop_due(400), None);
        assert_eq!(p.peek(), Some(1_100));
    }

    #[test]
    fn ledger_check_flags_a_lost_job() {
        let balanced = MetricsView {
            jobs_submitted: 100,
            jobs_scheduled: 100,
            ..MetricsView::default()
        };
        assert!(check_ledger(100, &balanced).is_ok());
        // The client saw 100 accepted frames but the daemon counted 99.
        assert!(check_ledger(101, &balanced).is_err());
        let unscheduled = MetricsView {
            jobs_scheduled: 99,
            ..balanced.clone()
        };
        assert!(check_ledger(100, &unscheduled).is_err());
        let stuck = MetricsView {
            pending: 1,
            ..balanced
        };
        assert!(check_ledger(100, &stuck).is_err());
    }

    #[test]
    fn frames_carry_fresh_ids_and_cycle_the_pool() {
        let tails = vec![",\"w\":1}".to_string(), ",\"w\":2}".to_string()];
        let mut pool = FramePool::new(tails, 3);
        let mut out = Vec::new();
        pool.push_frame(1, &mut out);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "{\"type\":\"submit\",\"shard\":1,\"tenant\":\"gb\",\"jobs\":[\
             {\"id\":0,\"w\":1},{\"id\":1,\"w\":2},{\"id\":2,\"w\":1}]}\n"
        );
        assert_eq!(pool.next_job, 3);
        let frames = first_frames(&pool, 4, 2, 2);
        assert!(frames[0].starts_with(b"{\"type\":\"submit\",\"shard\":0,"));
        assert!(frames[1].starts_with(b"{\"type\":\"submit\",\"shard\":1,"));
        assert!(!frames[3].ends_with(b"\n"));
        assert_eq!(pool.next_job, 3, "first_frames works on a copy");
    }

    #[test]
    fn reply_fields_and_histogram_median() {
        assert_eq!(reply_type(b"{\"type\":\"bye\"}"), b"bye");
        assert_eq!(reply_type(b"{\"kind\":\"bye\"}"), b"");
        assert_eq!(
            field_u32(b"{\"jobs\":64,\"shard\":1}", b"\"shard\":"),
            Some(1)
        );
        assert_eq!(field_u32(b"{\"jobs\":64}", b"\"shard\":"), None);
        assert_eq!(field_u32(b"{\"jobs\":x}", b"\"jobs\":"), None);
        let h = HistView {
            count: 4,
            buckets: vec![0, 1, 0, 3],
        };
        assert_eq!(h.p50_upper(), 7);
        assert_eq!(HistView::default().p50_upper(), 0);
        assert_eq!(
            contiguous_plan(4, 2),
            "{\"type\":\"reshard\",\"shards\":[[0,1],[2,3]]}\n"
        );
    }
}

//! Connection-layer tests for the event-driven front end: many
//! concurrent clients on a fixed thread pool, in-order pipelined
//! responses, the bounded write buffer (a pipelining client that never
//! reads is disconnected, not buffered forever), the idle sweep that
//! reaps half-open peers, scrape-listener isolation (one stuck scraper
//! cannot stall another), prompt autoscaler-ticker exit at shutdown,
//! and the parked-submit path: a submit that cannot reach its shard
//! queue yet (full queue, sealed table, unanswered control frame) waits
//! on its connection and nothing is lost, reordered or answered twice —
//! and a shard thread that dies answers every frame it held with a typed
//! error.
//! Deterministic at every thread count (CI re-runs the serve suites
//! under `RAYON_NUM_THREADS=1` and `4`).

use gridsec_core::{BatchSchedule, Grid, Job, Site, Time};
use gridsec_serve::protocol::encode;
use gridsec_serve::{
    stateless_factory, Client, ClockMode, Daemon, DaemonOptions, QueryWhat, Request, Response,
};
use gridsec_sim::scheduler::{BatchJob, BatchScheduler, EarliestCompletion, GridView};
use gridsec_sim::{BatchPolicy, ShardPlan, SimConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

fn grid() -> Grid {
    Grid::new(vec![
        Site::builder(0)
            .nodes(2)
            .speed(1.0)
            .security_level(1.0)
            .build()
            .unwrap(),
        Site::builder(1)
            .nodes(2)
            .speed(2.0)
            .security_level(0.6)
            .build()
            .unwrap(),
    ])
    .unwrap()
}

fn config() -> SimConfig {
    SimConfig::default()
        .with_interval(Time::new(10.0))
        .with_batch_policy(BatchPolicy::Periodic)
}

fn job(id: u64, arrival: f64, work: f64) -> Job {
    Job::builder(id)
        .arrival(Time::new(arrival))
        .work(work)
        .security_demand(0.5)
        .build()
        .unwrap()
}

/// `n_shards` shards over [`grid`], each running what `make` builds.
fn spawn_with<S: BatchScheduler + Send + 'static>(
    n_shards: usize,
    mut make: impl FnMut() -> S + Send + 'static,
    options: DaemonOptions,
) -> Daemon {
    let grid = grid();
    let plan = ShardPlan::contiguous(&grid, n_shards).unwrap();
    let factory = stateless_factory(config(), move |_| Ok(Box::new(make())));
    Daemon::spawn(grid, plan, factory, "127.0.0.1:0", options).unwrap()
}

fn spawn_daemon(options: DaemonOptions) -> Daemon {
    spawn_with(1, || EarliestCompletion, options)
}

/// Polls `cond` until it holds or `within` elapses; asserts it held.
fn eventually(within: Duration, what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + within;
    while Instant::now() < deadline {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(cond(), "timed out waiting for: {what}");
}

/// A thousand concurrent clients on one daemon: every connection gets
/// its responses in request order, the connection gauge — read in
/// process and scraped off the exposition page, as an operator would —
/// tracks the population, and the daemon's thread count stays a small
/// constant — the C10k property the old thread-per-connection front end
/// lacked.
#[test]
fn a_thousand_concurrent_clients_get_in_order_responses() {
    const N: usize = 1000;
    let daemon = spawn_daemon(DaemonOptions {
        metrics_addr: Some("127.0.0.1:0".into()),
        ..DaemonOptions::default()
    });
    let addr = daemon.addr();
    let mut clients = Vec::with_capacity(N);
    for i in 0..N {
        let stream = loop {
            // Connect retries absorb transient accept-queue overflow
            // while the burst lands.
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        clients.push((i, stream));
    }
    eventually(Duration::from_secs(20), "all clients connected", || {
        daemon.connections() == N
    });
    // The scrape rides its own listener, so it does not perturb the count.
    let mut page = String::new();
    TcpStream::connect(daemon.metrics_addr().expect("metrics listener bound"))
        .unwrap()
        .read_to_string(&mut page)
        .unwrap();
    let scraped = page
        .lines()
        .find_map(|l| l.strip_prefix("gridsec_connections "))
        .expect("exposition page carries gridsec_connections");
    assert_eq!(scraped.trim().parse::<f64>().unwrap(), N as f64);

    // Pipeline three queries per client *before* reading anything, then
    // check each connection's replies arrive and parse in order.
    let line = "{\"type\":\"query\",\"what\":\"shards\"}\n";
    for (_, stream) in &mut clients {
        stream.write_all(line.repeat(3).as_bytes()).unwrap();
    }
    for (i, stream) in &mut clients {
        let mut reader = BufReader::new(stream);
        for k in 0..3 {
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            assert!(
                reply.contains("\"shards\""),
                "client {i} reply {k} malformed: {reply}"
            );
        }
    }

    // The whole front end runs on a fixed pool: well under 2 OS threads
    // per 1000 connections over the pre-connect baseline.
    let threads = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<usize>().ok())
        });
    if let Some(threads) = threads {
        assert!(
            threads < 64,
            "expected a fixed thread pool, found {threads} OS threads for {N} connections"
        );
    }

    drop(clients);
    eventually(Duration::from_secs(20), "disconnects observed", || {
        daemon.connections() == 0
    });

    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.send(&Request::Shutdown).unwrap(), Response::Bye);
    daemon.join();
}

/// A client that pipelines submits but never reads its replies must be
/// disconnected when its buffered responses cross
/// [`DaemonOptions::max_write_buffer`] — not wedge the daemon behind an
/// ever-growing reply queue (the old per-client writer buffered without
/// bound).
#[test]
fn never_reading_pipelining_client_is_disconnected_not_buffered() {
    let daemon = spawn_daemon(DaemonOptions {
        max_write_buffer: 4096,
        ..DaemonOptions::default()
    });
    let mut stream = TcpStream::connect(daemon.addr()).unwrap();

    // Pump frames without ever reading. Replies pile up in the daemon
    // (this end's receive buffer fills, then the daemon's write stalls)
    // until the bound trips and the daemon closes the connection, which
    // surfaces here as a write error (EPIPE/ECONNRESET) — the socket's
    // send buffer masks the close for a while, hence the generous loop.
    let frame = "{\"type\":\"query\",\"what\":\"shards\"}\n".repeat(64);
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut killed = false;
    while Instant::now() < deadline {
        if stream.write_all(frame.as_bytes()).is_err() {
            killed = true;
            break;
        }
        if daemon.slow_disconnects() > 0 {
            killed = true;
            break;
        }
    }
    assert!(killed, "write-bound disconnect never happened");
    eventually(Duration::from_secs(10), "slow disconnect counted", || {
        daemon.slow_disconnects() == 1
    });
    drop(stream);

    // The daemon survived: a fresh, well-behaved client still works.
    let mut client = Client::connect(daemon.addr()).unwrap();
    match client.send(&Request::Submit {
        jobs: vec![job(0, 0.0, 5.0)],
        shard: None,
        tenant: None,
    }) {
        Ok(Response::Accepted { jobs, .. }) => assert_eq!(jobs, 1),
        other => panic!("daemon unhealthy after slow-client disconnect: {other:?}"),
    }
    assert_eq!(client.send(&Request::Shutdown).unwrap(), Response::Bye);
    daemon.join();
}

/// A half-open peer — connected, then silent forever (no FIN, no RST,
/// as after a pulled cable) — never produces a readiness event, so only
/// the idle sweep can reclaim its connection state.
#[test]
fn idle_sweep_reaps_half_open_connections() {
    let daemon = spawn_daemon(DaemonOptions {
        idle_timeout: Some(Duration::from_millis(200)),
        ..DaemonOptions::default()
    });
    // One silent connection; we hold it open (no shutdown/close) while
    // the daemon reaps it server-side.
    let silent = TcpStream::connect(daemon.addr()).unwrap();
    eventually(Duration::from_secs(5), "silent peer connected", || {
        daemon.connections() == 1
    });
    eventually(Duration::from_secs(10), "idle peer reaped", || {
        daemon.idle_reaped() == 1 && daemon.connections() == 0
    });
    drop(silent);

    // An *active* client is not an idle one: keep a lock-step client
    // busy across several sweep periods and it must survive.
    let mut client = Client::connect(daemon.addr()).unwrap();
    for _ in 0..8 {
        std::thread::sleep(Duration::from_millis(60));
        match client.send(&Request::Query {
            what: gridsec_serve::QueryWhat::Shards,
            shard: None,
        }) {
            Ok(Response::Shards { .. }) => {}
            other => panic!("active client reaped or broken: {other:?}"),
        }
    }
    assert_eq!(daemon.idle_reaped(), 1, "active client must not be reaped");
    assert_eq!(client.send(&Request::Shutdown).unwrap(), Response::Bye);
    daemon.join();
}

/// One scraper that connects and never reads must not delay another
/// scraper: each scrape runs on its own deadline-bounded thread (the
/// old accept loop wrote inline, so one stuck peer stalled everyone).
#[test]
fn stuck_scraper_does_not_stall_the_next_scrape() {
    let daemon = spawn_daemon(DaemonOptions {
        metrics_addr: Some("127.0.0.1:0".into()),
        ..DaemonOptions::default()
    });
    let maddr = daemon.metrics_addr().expect("metrics listener bound");

    // Scraper A: connects, sets a tiny receive buffer so the daemon's
    // write cannot complete, and never reads.
    let stuck = TcpStream::connect(maddr).unwrap();
    // Scraper B right behind it must still get the exposition promptly.
    let t0 = Instant::now();
    let mut b = TcpStream::connect(maddr).unwrap();
    b.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut text = String::new();
    b.read_to_string(&mut text).unwrap();
    let elapsed = t0.elapsed();
    assert!(
        text.contains("gridsec_jobs_submitted_total"),
        "scrape B missing exposition: {text:?}"
    );
    assert!(
        text.contains("gridsec_connections"),
        "exposition missing connection gauge: {text:?}"
    );
    assert!(
        elapsed < Duration::from_secs(2),
        "scrape B stalled {elapsed:?} behind a stuck scraper"
    );
    drop(stuck);

    let mut client = Client::connect(daemon.addr()).unwrap();
    assert_eq!(client.send(&Request::Shutdown).unwrap(), Response::Bye);
    daemon.join();
}

/// Shutdown must not wait out the autoscaler's sampling interval: the
/// ticker blocks on a stop channel, not a bare `sleep`, so a daemon
/// with a one-hour interval still joins in milliseconds (the old ticker
/// leaked until its post-shutdown sleep expired).
#[test]
fn autoscaler_ticker_exits_promptly_at_shutdown() {
    let daemon = spawn_with(
        2,
        || EarliestCompletion,
        DaemonOptions {
            autoscale: Some(gridsec_serve::AutoscaleConfig {
                interval: Duration::from_secs(3600),
                ..gridsec_serve::AutoscaleConfig::default()
            }),
            ..DaemonOptions::default()
        },
    );
    let mut client = Client::connect(daemon.addr()).unwrap();
    assert_eq!(client.send(&Request::Shutdown).unwrap(), Response::Bye);
    let t0 = Instant::now();
    daemon.join(); // joins the ticker too — would hang ~1h if it slept
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "join() waited {:?} on the autoscaler ticker",
        t0.elapsed()
    );
}

/// Index of the `sealed` / `full` counts in [`Daemon::submits_parked`]
/// (`[fenced, sealed, full]`).
const SEALED: usize = 1;
const FULL: usize = 2;

/// What the probe scheduler shares with its test: a gate that blocks
/// every round while shut (so the shard thread stops draining its submit
/// queue — a scheduler that is slow *on demand*, no sleeps), how many
/// rounds reached the gate, the security levels each round saw, and
/// whether a round panics once it is through the gate.
#[derive(Clone)]
struct Probe {
    open: Arc<(Mutex<bool>, Condvar)>,
    rounds_entered: Arc<AtomicUsize>,
    levels_seen: Arc<Mutex<Vec<Vec<f64>>>>,
    panic_behind_gate: Arc<AtomicBool>,
}

impl Probe {
    fn new(open: bool) -> Probe {
        Probe {
            open: Arc::new((Mutex::new(open), Condvar::new())),
            rounds_entered: Arc::default(),
            levels_seen: Arc::default(),
            panic_behind_gate: Arc::default(),
        }
    }

    fn open_gate(&self) {
        *self.open.0.lock().unwrap() = true;
        self.open.1.notify_all();
    }
}

/// MCT behind a [`Probe`].
struct ProbedMct(Probe);

impl BatchScheduler for ProbedMct {
    fn name(&self) -> String {
        "probed MCT".into()
    }

    fn schedule(&mut self, batch: &[BatchJob], view: &GridView<'_>) -> BatchSchedule {
        self.0.rounds_entered.fetch_add(1, Ordering::SeqCst);
        let (open, cv) = &*self.0.open;
        drop(cv.wait_while(open.lock().unwrap(), |open| !*open).unwrap());
        if self.0.panic_behind_gate.load(Ordering::SeqCst) {
            panic!("probe: the scheduler panics in this round (the test asked it to)");
        }
        let levels = view.grid.sites().map(|s| s.security_level).collect();
        self.0.levels_seen.lock().unwrap().push(levels);
        EarliestCompletion.schedule(batch, view)
    }
}

fn spawn_probed(n_shards: usize, probe: &Probe, options: DaemonOptions) -> Daemon {
    let probe = probe.clone();
    spawn_with(n_shards, move || ProbedMct(probe.clone()), options)
}

fn submit_line(id: u64, arrival: f64, shard: Option<usize>) -> String {
    encode(&Request::Submit {
        jobs: vec![job(id, arrival, 5.0)],
        shard,
        tenant: None,
    })
}

/// The `gridsec_submits_parked_total{reason=...}` sample of one scrape.
fn scraped_parked(daemon: &Daemon, reason: &str) -> usize {
    let mut text = String::new();
    TcpStream::connect(daemon.metrics_addr().expect("metrics listener bound"))
        .unwrap()
        .read_to_string(&mut text)
        .unwrap();
    let name = format!("gridsec_submits_parked_total{{reason=\"{reason}\"}} ");
    text.lines()
        .find_map(|l| l.strip_prefix(name.as_str()))
        .unwrap_or_else(|| panic!("no {name}sample in:\n{text}"))
        .parse()
        .unwrap()
}

/// Writes `lines` from a helper thread — a parked connection stops
/// reading, so a large pipelined burst may block in `write` until the
/// daemon resumes it (TCP is the backpressure).
fn write_in_background(
    stream: &TcpStream,
    lines: Vec<String>,
    then_half_close: bool,
) -> std::thread::JoinHandle<()> {
    let mut stream = stream.try_clone().unwrap();
    std::thread::spawn(move || {
        for line in lines {
            stream.write_all(line.as_bytes()).unwrap();
        }
        if then_half_close {
            stream.shutdown(Shutdown::Write).unwrap();
        }
    })
}

/// The burst the full-queue tests pipeline: job 0 arrives at 0, every
/// later job at 20 — so the second submit fires the boundary at 10 and
/// its round blocks on the shut gate inside the shard thread, and no
/// other round is due before the final drain (any interleaving of equal
/// arrivals is in order for the virtual clock).
fn burst(n: usize, unknown_shard_every: Option<usize>) -> Vec<String> {
    (0..n)
        .map(|i| {
            let arrival = if i == 0 { 0.0 } else { 20.0 };
            let shard = unknown_shard_every.and_then(|k| (i % k == k - 1).then_some(7));
            submit_line(i as u64, arrival, shard)
        })
        .collect()
}

/// One connection pipelines four queue capacities of submits at a shard
/// that is not draining: the queue fills, the connection parks (full)
/// instead of overflowing anywhere, a second connection — on the other
/// I/O thread when there are two, so nothing but the poll timeout wakes
/// it — parks on the same queue, and once the scheduler resumes every
/// reply arrives, in request order, exactly once.
#[test]
fn full_shard_queue_parks_connections_and_every_reply_arrives_in_order() {
    const FRAMES: usize = 4096; // 4 x the per-shard queue capacity
    for io_threads in [1, 2] {
        let probe = Probe::new(false);
        let daemon = spawn_probed(
            1,
            &probe,
            DaemonOptions {
                io_threads,
                metrics_addr: Some("127.0.0.1:0".into()),
                ..DaemonOptions::default()
            },
        );
        let a = TcpStream::connect(daemon.addr()).unwrap();
        // Every 1000th frame names a shard that does not exist: answered
        // on the I/O thread, it must still come out at its position.
        let writer = write_in_background(&a, burst(FRAMES, Some(1000)), false);
        eventually(Duration::from_secs(20), "connection A parks (full)", || {
            daemon.submits_parked()[FULL] >= 1
        });
        let mut b = TcpStream::connect(daemon.addr()).unwrap();
        b.write_all(submit_line(1_000_000, 20.0, None).as_bytes())
            .unwrap();
        eventually(Duration::from_secs(20), "connection B parks (full)", || {
            daemon.submits_parked()[FULL] >= 2
        });

        probe.open_gate();
        let mut a = Client::from_stream(a).unwrap();
        let mut last_pending = 0;
        for i in 0..FRAMES {
            match a.read_response().unwrap() {
                Response::UnknownShard { shard: 7, .. } if i % 1000 == 999 => {}
                Response::Accepted {
                    jobs: 1, pending, ..
                } if i % 1000 != 999 => {
                    // The shard answers in the order it enqueued.
                    assert!(pending >= last_pending, "reply {i} out of order");
                    last_pending = pending;
                }
                other => panic!("io_threads={io_threads}: reply {i} was {other:?}"),
            }
        }
        writer.join().unwrap();
        let mut b = Client::from_stream(b).unwrap();
        assert!(matches!(
            b.read_response().unwrap(),
            Response::Accepted { jobs: 1, .. }
        ));

        assert!(scraped_parked(&daemon, "full") >= 2);
        assert_eq!(daemon.submits_parked()[SEALED], 0);
        match b.send(&Request::Drain).unwrap() {
            Response::Drained { jobs_scheduled, .. } => {
                assert_eq!(jobs_scheduled, FRAMES - FRAMES / 1000 + 1)
            }
            other => panic!("drain failed: {other:?}"),
        }
        assert_eq!(b.send(&Request::Shutdown).unwrap(), Response::Bye);
        daemon.join();
    }
}

/// `reconfigure` → `submit` → `query` in one write: the submit waits
/// (fenced) for the reconfigure's reply instead of overtaking it through
/// the shard queue, so the round it fires runs under the new trust
/// levels, and the query behind it sees that round's commit.
#[test]
fn submit_pipelined_behind_a_reconfigure_runs_under_the_new_levels() {
    let probe = Probe::new(true);
    let daemon = spawn_probed(1, &probe, DaemonOptions::default());
    let mut client = Client::connect(daemon.addr()).unwrap();
    assert!(matches!(
        client.send_line(&submit_line(0, 0.0, None)).unwrap(),
        Response::Accepted { jobs: 1, .. }
    ));
    // The reconfigure applies at t=5; job 1 arrives at 12 and fires the
    // boundary at 10 with job 0 in the batch. Had the submit overtaken,
    // the clock would be past 5 and the reconfigure refused.
    let frames = [
        encode(&Request::Reconfigure {
            security_levels: vec![0.2, 0.95],
            shard: None,
            at: Some(Time::new(5.0)),
        }),
        submit_line(1, 12.0, None),
        encode(&Request::Query {
            what: QueryWhat::Schedule,
            shard: None,
        }),
    ]
    .concat();
    let mut raw = TcpStream::connect(daemon.addr()).unwrap();
    raw.write_all(frames.as_bytes()).unwrap();
    let mut pipelined = Client::from_stream(raw).unwrap();
    assert_eq!(
        pipelined.read_response().unwrap(),
        Response::Reconfigured { sites: 2 }
    );
    assert!(matches!(
        pipelined.read_response().unwrap(),
        Response::Accepted { jobs: 1, .. }
    ));
    match pipelined.read_response().unwrap() {
        Response::Schedule { assignments } => assert_eq!(assignments.len(), 1),
        other => panic!("expected the schedule last, got {other:?}"),
    }
    assert_eq!(
        *probe.levels_seen.lock().unwrap(),
        vec![vec![0.2, 0.95]],
        "the round ran under the reconfigured levels"
    );
    assert_eq!(client.send(&Request::Shutdown).unwrap(), Response::Bye);
    daemon.join();
}

/// N connections pipeline submits, alternating between the two shards
/// frame by frame, across a live `reshard` whose barrier is held open
/// (the gated scheduler blocks its drain) until every connection has a
/// submit waiting on the sealed table. No reply is lost or reordered
/// (the `shard` of each `accepted` follows the request sequence),
/// exactly one frame per connection waited out the seal, and nothing
/// was fenced — the sticky router-fallback cascade of the old design
/// cannot happen.
#[test]
fn connections_pipelining_through_a_live_reshard_lose_and_reorder_nothing() {
    const N: usize = 8;
    const FRAMES: usize = 400;
    let probe = Probe::new(false);
    let daemon = spawn_probed(
        2,
        &probe,
        DaemonOptions {
            // Wall clock: the daemon stamps arrivals, so submits on
            // either side of the barrier's drain are in order however
            // they interleave (no timer round is due within the test).
            clock: ClockMode::WallClock,
            io_threads: 2,
            metrics_addr: Some("127.0.0.1:0".into()),
            ..DaemonOptions::default()
        },
    );
    let addr = daemon.addr();

    // Checkpoint 1: every first half is written. Checkpoint 2: the
    // reshard is inside its barrier; the second halves may go.
    let checkpoint = Arc::new(Barrier::new(N + 1));
    let workers: Vec<_> = (0..N)
        .map(|c| {
            let checkpoint = Arc::clone(&checkpoint);
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                for i in 0..FRAMES {
                    if i == FRAMES / 2 {
                        checkpoint.wait();
                        checkpoint.wait();
                    }
                    let id = (c * FRAMES + i) as u64;
                    stream
                        .write_all(submit_line(id, 0.0, Some(i % 2)).as_bytes())
                        .unwrap();
                }
                let mut client = Client::from_stream(stream).unwrap();
                for i in 0..FRAMES {
                    match client.read_response().unwrap() {
                        Response::Accepted { jobs: 1, shard, .. } if shard == i % 2 => {}
                        other => panic!("connection {c} reply {i} was {other:?}"),
                    }
                }
            })
        })
        .collect();
    checkpoint.wait();
    let resharder = std::thread::spawn(move || {
        let mut control = Client::connect(addr).unwrap();
        // Same two shards, swapped: explicit shard ids stay valid.
        match control
            .send(&Request::Reshard {
                shards: vec![vec![1], vec![0]],
            })
            .unwrap()
        {
            Response::Resharded { shards: 2, .. } => control,
            other => panic!("reshard failed: {other:?}"),
        }
    });
    // The barrier's drain (which follows the seal) has reached the
    // scheduler and is stuck on the gate.
    eventually(Duration::from_secs(20), "reshard barrier entered", || {
        probe.rounds_entered.load(Ordering::SeqCst) >= 1
    });
    checkpoint.wait();
    eventually(Duration::from_secs(20), "every connection parks", || {
        daemon.submits_parked()[SEALED] == N
    });
    probe.open_gate();
    let mut control = resharder.join().unwrap();
    for w in workers {
        w.join().unwrap();
    }

    assert_eq!(scraped_parked(&daemon, "sealed"), N);
    assert_eq!(scraped_parked(&daemon, "fenced"), 0);
    assert_eq!(daemon.submits_parked(), [0, N, 0]);
    match control.send(&Request::Drain).unwrap() {
        Response::Drained { jobs_scheduled, .. } => assert_eq!(jobs_scheduled, N * FRAMES),
        other => panic!("drain failed: {other:?}"),
    }
    assert_eq!(control.send(&Request::Shutdown).unwrap(), Response::Bye);
    daemon.join();
}

/// `shutdown` → `submit` in one write: the submit waits behind the
/// `bye`, then gets the typed refusal — the shards are gone.
#[test]
fn submit_pipelined_behind_shutdown_is_refused_after_bye() {
    let daemon = spawn_daemon(DaemonOptions::default());
    let mut raw = TcpStream::connect(daemon.addr()).unwrap();
    raw.write_all(format!("{{\"type\":\"shutdown\"}}\n{}", submit_line(0, 0.0, None)).as_bytes())
        .unwrap();
    let mut client = Client::from_stream(raw).unwrap();
    assert_eq!(client.read_response().unwrap(), Response::Bye);
    match client.read_response().unwrap() {
        Response::Error { message } => assert!(
            message.contains("shutting down"),
            "unexpected refusal: {message}"
        ),
        other => panic!("expected an error after bye, got {other:?}"),
    }
    daemon.join();
}

/// A client that sends a burst and half-closes while the daemon still
/// holds a parked frame, undecoded lines and an unterminated tail gets
/// every reply before the daemon closes the socket.
#[test]
fn half_close_with_frames_still_parked_gets_every_reply() {
    const FRAMES: usize = 2048; // 2 x the per-shard queue capacity
    let probe = Probe::new(false);
    let daemon = spawn_probed(1, &probe, DaemonOptions::default());
    let stream = TcpStream::connect(daemon.addr()).unwrap();
    let mut lines = burst(FRAMES, None);
    let tail = lines.last_mut().unwrap();
    tail.truncate(tail.len() - 1); // no final newline: EOF ends the frame
    let writer = write_in_background(&stream, lines, true);
    eventually(
        Duration::from_secs(20),
        "the connection parks (full)",
        || daemon.submits_parked()[FULL] >= 1,
    );
    writer.join().unwrap(); // FIN is queued behind the parked frame
    probe.open_gate();
    let mut client = Client::from_stream(stream).unwrap();
    for i in 0..FRAMES {
        match client.read_response().unwrap() {
            Response::Accepted { jobs: 1, .. } => {}
            other => panic!("reply {i} was {other:?}"),
        }
    }
    let eof = client.read_response().unwrap_err();
    assert_eq!(eof.kind(), std::io::ErrorKind::UnexpectedEof);

    let mut control = Client::connect(daemon.addr()).unwrap();
    assert_eq!(control.send(&Request::Shutdown).unwrap(), Response::Bye);
    daemon.join();
}

/// A scheduler panic takes its shard thread down in the middle of a
/// round, with a full queue behind it. Every frame still gets a typed
/// reply, in request order, within a bounded wait: the frames the dead
/// shard had already answered stay `accepted`; the frame whose round
/// panicked, the 1024 queued behind it, the one parked on the connection,
/// the ones not yet read and the ones sent afterwards are `error`s saying
/// the shard is gone. (No idle sweep runs here: a frame left unanswered
/// would hang its connection for good.)
#[test]
fn a_shard_that_dies_mid_round_answers_every_frame_it_held() {
    const FRAMES: usize = 1200; // the queue's capacity and then some
    let probe = Probe::new(false);
    probe.panic_behind_gate.store(true, Ordering::SeqCst);
    let daemon = spawn_probed(1, &probe, DaemonOptions::default());
    let stream = TcpStream::connect(daemon.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Frame 1 fires the round that blocks on the gate (see `burst`); the
    // queue fills behind it until the connection parks.
    let writer = write_in_background(&stream, burst(FRAMES, None), false);
    eventually(
        Duration::from_secs(20),
        "the connection parks (full)",
        || daemon.submits_parked()[FULL] >= 1,
    );
    probe.open_gate(); // the round panics; the shard thread unwinds

    let shard_down = |what: &str, reply: std::io::Result<Response>| match reply {
        Ok(Response::Error { message }) if message.contains("no longer running") => {}
        other => panic!("{what}: expected the shard-down error, got {other:?}"),
    };
    let mut client = Client::from_stream(stream).unwrap();
    match client.read_response() {
        Ok(Response::Accepted { jobs: 1, .. }) => {}
        other => panic!("frame 0 was enqueued before the panic, got {other:?}"),
    }
    for i in 1..FRAMES {
        shard_down(&format!("frame {i}"), client.read_response());
    }
    writer.join().unwrap();
    let later = submit_line(FRAMES as u64, 20.0, None);
    shard_down("a later frame", client.send_line(&later));
    let mut fresh = Client::connect(daemon.addr()).unwrap();
    shard_down("a fresh connection", fresh.send_line(&later));

    // The drain barrier cannot reach the dead shard; shutdown says so and
    // still winds the daemon down.
    match fresh.send(&Request::Shutdown).unwrap() {
        Response::Error { message } => assert!(message.contains("no longer running")),
        other => panic!("expected the failed-drain error, got {other:?}"),
    }
    daemon.join();
}

/// A control frame scoped to a shard, accepted while that shard's round is
/// stuck behind the gate, then the round panics: the frame is answered
/// with the shard-down error, within the read timeout. (Before the router
/// answered every control frame itself the shard held the frame's reply
/// handle, dropped it as it unwound, and the connection's in-order
/// release stalled behind that sequence number for good.)
fn scoped_frame_queued_behind_a_round_that_panics_is_answered(frame: &Request) {
    const FENCED: usize = 0;
    let probe = Probe::new(false);
    probe.panic_behind_gate.store(true, Ordering::SeqCst);
    let daemon = spawn_probed(1, &probe, DaemonOptions::default());
    // The second submit fires the round that blocks on the gate (see
    // `burst`); both frames stay in flight.
    let submits = TcpStream::connect(daemon.addr()).unwrap();
    write_in_background(&submits, burst(2, None), false)
        .join()
        .unwrap();
    eventually(
        Duration::from_secs(20),
        "the round reaches the gate",
        || probe.rounds_entered.load(Ordering::SeqCst) >= 1,
    );
    // A submit pipelined behind the scoped frame parks (fenced) only
    // after the frame went to the router, which has nothing else to do:
    // the frame is waiting on shard 0 when the gate opens.
    let mut raw = TcpStream::connect(daemon.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all((encode(frame) + &submit_line(2, 20.0, None)).as_bytes())
        .unwrap();
    eventually(Duration::from_secs(20), "the submit parks (fenced)", || {
        daemon.submits_parked()[FENCED] >= 1
    });
    probe.open_gate(); // the round panics; the shard thread unwinds

    let mut client = Client::from_stream(raw).unwrap();
    for what in ["the scoped frame", "the submit fenced behind it"] {
        match client.read_response() {
            Ok(Response::Error { message }) if message.contains("no longer running") => {}
            other => panic!("{what}: expected the shard-down error, got {other:?}"),
        }
    }
    assert!(matches!(
        client.send(&Request::Shutdown).unwrap(),
        Response::Error { .. }
    ));
    daemon.join();
}

#[test]
fn a_scoped_query_queued_behind_a_round_that_panics_is_answered() {
    scoped_frame_queued_behind_a_round_that_panics_is_answered(&Request::Query {
        what: QueryWhat::Metrics,
        shard: Some(0),
    });
}

#[test]
fn a_scoped_reconfigure_queued_behind_a_round_that_panics_is_answered() {
    scoped_frame_queued_behind_a_round_that_panics_is_answered(&Request::Reconfigure {
        security_levels: vec![0.5, 0.5],
        shard: Some(0),
        at: None,
    });
}

//! The observability surface, end to end against live daemons: the
//! `telemetry` wire frame (per-shard histograms + tenant queue waits),
//! the plaintext metrics exposition listener, the `trace_dump` frame,
//! reshard state-file GC, and the automatic flight-recorder dump on a
//! rejected reshard.

use gridsec_core::{BatchSchedule, Grid, Job, Site, Time};
use gridsec_serve::{
    shard_state_path, stateless_factory, Client, Daemon, DaemonOptions, QueryWhat, Request,
    Response, SessionFactory,
};
use gridsec_sim::scheduler::EarliestCompletion;
use gridsec_sim::{BatchJob, BatchPolicy, BatchScheduler, GridView, ShardPlan, SimConfig};
use std::path::PathBuf;

fn grid(n_sites: usize) -> Grid {
    Grid::new(
        (0..n_sites)
            .map(|i| {
                Site::builder(i)
                    .nodes(2)
                    .speed(1.0 + i as f64)
                    .security_level(1.0)
                    .build()
                    .unwrap()
            })
            .collect(),
    )
    .unwrap()
}

fn jobs(n: u64) -> Vec<Job> {
    (0..n)
        .map(|i| {
            Job::builder(i)
                .arrival(Time::new(i as f64))
                .work(25.0 + 5.0 * (i % 4) as f64)
                .security_demand(0.5)
                .build()
                .unwrap()
        })
        .collect()
}

fn config() -> SimConfig {
    SimConfig::default()
        .with_interval(Time::new(10.0))
        .with_batch_policy(BatchPolicy::CountTriggered(3))
}

fn mct_factory() -> SessionFactory {
    stateless_factory(config(), |_| Ok(Box::new(EarliestCompletion)))
}

/// A virtual-clock daemon over `n_sites` sites in `n_shards` contiguous
/// shards, built by `factory`.
fn spawn(
    n_sites: usize,
    n_shards: usize,
    factory: SessionFactory,
    options: DaemonOptions,
) -> Daemon {
    let grid = grid(n_sites);
    let plan = ShardPlan::contiguous(&grid, n_shards).unwrap();
    Daemon::spawn(grid, plan, factory, "127.0.0.1:0", options).expect("daemon binds")
}

fn submit(client: &mut Client, job: Job, shard: Option<usize>, tenant: Option<&str>) {
    match client
        .send(&Request::Submit {
            jobs: vec![job],
            shard,
            tenant: tenant.map(str::to_string),
        })
        .expect("submit frame")
    {
        Response::Accepted { .. } => {}
        other => panic!("submit rejected: {other:?}"),
    }
}

fn shutdown(client: &mut Client, daemon: Daemon) {
    assert_eq!(client.send(&Request::Shutdown).unwrap(), Response::Bye);
    daemon.join();
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gridsec_telemetry_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// `query what=telemetry`: per-shard round/batch histograms carry the
/// served rounds, tenant queue waits are attributed to the submitting
/// tenant, and the recorder reports itself enabled with retained events.
#[test]
fn telemetry_query_reports_histograms_and_tenant_waits() {
    let daemon = spawn(4, 2, mct_factory(), DaemonOptions::default());
    let mut client = Client::connect(daemon.addr()).expect("client connects");
    for (i, job) in jobs(12).into_iter().enumerate() {
        // Interleave so each shard serves both tenants.
        let tenant = if (i / 2) % 2 == 0 { "acme" } else { "globex" };
        submit(&mut client, job, Some(i % 2), Some(tenant));
    }
    match client.send(&Request::Drain).expect("drain") {
        Response::Drained { .. } => {}
        other => panic!("drain failed: {other:?}"),
    }
    let report = match client
        .send(&Request::Query {
            what: QueryWhat::Telemetry,
            shard: None,
        })
        .expect("telemetry query")
    {
        Response::Telemetry { telemetry } => telemetry,
        other => panic!("telemetry query failed: {other:?}"),
    };
    assert_eq!(report.shards.len(), 2);
    for t in &report.shards {
        assert!(t.round_nanos.count > 0, "shard {} served rounds", t.shard);
        assert!(t.batch_size.count > 0);
        assert!(t.round_nanos.p99() >= t.round_nanos.p50());
        let tenants: Vec<&str> = t.queue_wait.iter().map(|w| w.tenant.as_str()).collect();
        assert!(tenants.contains(&"acme") && tenants.contains(&"globex"));
        for w in &t.queue_wait {
            assert!(w.wait_micros.count > 0, "tenant {} has waits", w.tenant);
        }
    }
    assert!(report.recorder.enabled, "daemon enables the recorder");
    assert!(report.recorder.retained > 0);

    // Per-shard scoping: shard 1 alone reports exactly one entry.
    match client
        .send(&Request::Query {
            what: QueryWhat::Telemetry,
            shard: Some(1),
        })
        .expect("scoped telemetry query")
    {
        Response::Telemetry { telemetry } => {
            assert_eq!(telemetry.shards.len(), 1);
            assert_eq!(telemetry.shards[0].shard, 1);
        }
        other => panic!("scoped telemetry failed: {other:?}"),
    }

    shutdown(&mut client, daemon);
}

/// `--metrics-addr`: the write-on-connect exposition page parses line by
/// line and carries the counter, gauge and histogram families.
#[test]
fn metrics_exposition_scrapes_and_parses() {
    use std::io::Read as _;
    let daemon = spawn(
        2,
        1,
        mct_factory(),
        DaemonOptions {
            metrics_addr: Some("127.0.0.1:0".into()),
            ..DaemonOptions::default()
        },
    );
    let maddr = daemon.metrics_addr().expect("metrics listener bound");
    let mut client = Client::connect(daemon.addr()).expect("client connects");
    for job in jobs(9) {
        submit(&mut client, job, None, None);
    }
    match client.send(&Request::Drain).expect("drain") {
        Response::Drained { .. } => {}
        other => panic!("drain failed: {other:?}"),
    }

    let mut text = String::new();
    std::net::TcpStream::connect(maddr)
        .expect("scrape connects")
        .read_to_string(&mut text)
        .expect("scrape reads");
    let mut n_samples = 0;
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (_, value) = line.rsplit_once(' ').expect("`name value` sample line");
        let v: f64 = value.parse().expect("numeric sample value");
        assert!(v.is_finite());
        n_samples += 1;
    }
    assert!(n_samples > 0, "exposition carries samples");
    for family in [
        "gridsec_jobs_submitted_total",
        "gridsec_rounds_total",
        "gridsec_jobs_scheduled",
        "gridsec_pending{shard=\"0\"}",
        "gridsec_round_nanos_bucket",
        "gridsec_round_nanos_sum",
        "gridsec_round_nanos_count",
        "gridsec_batch_size_bucket",
        "gridsec_submits_parked_total{reason=\"fenced\"}",
        "gridsec_submits_parked_total{reason=\"sealed\"}",
        "gridsec_submits_parked_total{reason=\"full\"}",
        "gridsec_direct_queue_depth{shard=\"0\"}",
        "gridsec_sites_failed_total",
        "gridsec_sites_rejoined_total",
        "gridsec_scheduler_seconds_total",
        "gridsec_reshard_migrated_jobs_bucket",
        "gridsec_recorder_events_overwritten_total",
    ] {
        assert!(
            text.lines().any(|l| l.starts_with(family)),
            "family {family} present in:\n{text}"
        );
    }
    // The +Inf bucket equals the count (cumulative histogram invariant).
    let inf: f64 = text
        .lines()
        .find(|l| l.starts_with("gridsec_round_nanos_bucket{le=\"+Inf\"}"))
        .and_then(|l| l.rsplit_once(' '))
        .map(|(_, v)| v.parse().unwrap())
        .expect("+Inf bucket");
    let count: f64 = text
        .lines()
        .find(|l| l.starts_with("gridsec_round_nanos_count"))
        .and_then(|l| l.rsplit_once(' '))
        .map(|(_, v)| v.parse().unwrap())
        .expect("count sample");
    assert_eq!(inf, count);

    shutdown(&mut client, daemon);
}

/// `trace_dump`: a live daemon returns its flight-recorder ring over the
/// wire, timestamp-ordered, containing the router dispatch events and
/// round spans the replay just produced.
#[test]
fn trace_dump_returns_router_and_round_events() {
    let daemon = spawn(2, 1, mct_factory(), DaemonOptions::default());
    let mut client = Client::connect(daemon.addr()).expect("client connects");
    for job in jobs(6) {
        submit(&mut client, job, None, None);
    }
    match client.send(&Request::Drain).expect("drain") {
        Response::Drained { .. } => {}
        other => panic!("drain failed: {other:?}"),
    }
    let events = match client.send(&Request::TraceDump).expect("trace_dump frame") {
        Response::TraceDump { events } => events,
        other => panic!("trace_dump failed: {other:?}"),
    };
    assert!(!events.is_empty(), "ring holds events");
    assert!(
        events.windows(2).all(|w| w[0].t_nanos <= w[1].t_nanos),
        "dump is timestamp-ordered"
    );
    assert!(events.iter().any(|e| e.name == "dispatch"));
    assert!(events
        .iter()
        .any(|e| e.name == "round" && e.kind == "begin"));
    shutdown(&mut client, daemon);
}

/// Persistence compaction: a shrinking 4→2 reshard removes the retired
/// shards' state files (shard 2, shard 3) and keeps the survivors'.
#[test]
fn shrinking_reshard_gcs_retired_state_files() {
    let dir = tmp_dir("gc");
    let prefix = dir.join("state");
    // MCT shards that nevertheless have a snapshot: with a state
    // prefix, that is what makes a stopping shard write its file.
    struct Remembers(usize);
    impl BatchScheduler for Remembers {
        fn name(&self) -> String {
            EarliestCompletion.name()
        }
        fn schedule(&mut self, batch: &[BatchJob], view: &GridView<'_>) -> BatchSchedule {
            EarliestCompletion.schedule(batch, view)
        }
        fn snapshot(&self) -> Option<String> {
            Some(format!("{{\"shard\":{}}}", self.0))
        }
    }
    let factory = stateless_factory(config(), |ctx| Ok(Box::new(Remembers(ctx.shard))));
    let daemon = spawn(
        4,
        4,
        factory,
        DaemonOptions {
            state_prefix: Some(prefix.clone()),
            ..DaemonOptions::default()
        },
    );
    let mut client = Client::connect(daemon.addr()).expect("client connects");
    for (i, job) in jobs(8).into_iter().enumerate() {
        submit(&mut client, job, Some(i % 4), None);
    }
    let target: Vec<Vec<usize>> = vec![vec![0, 1], vec![2, 3]];
    match client
        .send(&Request::Reshard { shards: target })
        .expect("reshard frame")
    {
        Response::Resharded { shards: 2, .. } => {}
        other => panic!("reshard failed: {other:?}"),
    }
    // The old shards wrote their files when they stopped; the router then
    // GCed the retired ones. Survivor indices keep theirs.
    for k in 0..2 {
        assert!(
            shard_state_path(&prefix, k).exists(),
            "surviving shard {k} keeps its state file"
        );
    }
    for k in 2..4 {
        assert!(
            !shard_state_path(&prefix, k).exists(),
            "retired shard {k}'s state file is GCed"
        );
    }
    shutdown(&mut client, daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A post-barrier reshard rejection (the session factory, which built the
/// four boot shards, fails on its second round of calls) automatically
/// dumps the flight recorder: the NDJSON file
/// is non-empty, parses line by line, and contains the barrier span plus
/// the phases that ran before the failure.
#[test]
fn rejected_reshard_dumps_flight_recorder() {
    let dir = tmp_dir("flight");
    let dump = dir.join("flight.ndjson");
    let mut mct = mct_factory();
    let mut calls = 0;
    let failing: SessionFactory = Box::new(move |ctx| {
        calls += 1;
        if calls > 4 {
            return Err("injected factory failure".into());
        }
        mct(ctx)
    });
    let daemon = spawn(
        4,
        4,
        failing,
        DaemonOptions {
            flight_dump: Some(dump.clone()),
            ..DaemonOptions::default()
        },
    );
    let mut client = Client::connect(daemon.addr()).expect("client connects");
    for (i, job) in jobs(8).into_iter().enumerate() {
        submit(&mut client, job, Some(i % 4), None);
    }
    match client
        .send(&Request::Reshard {
            shards: vec![vec![0, 1], vec![2, 3]],
        })
        .expect("reshard frame")
    {
        Response::ReshardRejected { message } => {
            assert!(message.contains("injected factory failure"), "{message}");
        }
        other => panic!("expected a rejection, got {other:?}"),
    }
    let text = std::fs::read_to_string(&dump).expect("flight dump written");
    assert!(!text.trim().is_empty(), "flight dump is non-empty");
    let mut names = Vec::new();
    for line in text.lines() {
        let ev: gridsec_obs::TraceEvent =
            serde_json::from_str(line).expect("NDJSON line parses as a trace event");
        names.push(ev.name);
    }
    for expected in [
        "reshard_barrier",
        "drain_barrier",
        "reshard_export",
        "reshard_transfer",
        "reshard_respawn",
    ] {
        assert!(
            names.iter().any(|n| n == expected),
            "flight dump contains {expected}; got {names:?}"
        );
    }
    assert!(
        !names.iter().any(|n| n == "reshard_swap"),
        "the swap never ran on a rejected reshard"
    );

    // The daemon survived the rejection: the queue still drains.
    match client.send(&Request::Drain).expect("drain") {
        Response::Drained { .. } => {}
        other => panic!("drain failed: {other:?}"),
    }
    shutdown(&mut client, daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

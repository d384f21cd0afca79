//! Wire-protocol robustness tests against a live daemon: malformed
//! frames, oversized lines, partial (byte-trickled) writes, mid-round
//! disconnects, and two concurrent clients with a deterministic
//! interleaving. All deterministic at every thread count (CI re-runs the
//! suite under `RAYON_NUM_THREADS=1`).

use gridsec_core::{Grid, Job, JobId, Site, Time};
use gridsec_serve::{
    stateless_factory, Client, ClockMode, Daemon, DaemonOptions, QueryWhat, Request, Response,
};
use gridsec_sim::scheduler::EarliestCompletion;
use gridsec_sim::{BatchPolicy, ShardPlan, SimConfig};
use std::io::Write;
use std::net::TcpStream;

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

fn job(id: u64, arrival: f64, work: f64) -> Job {
    Job::builder(id)
        .arrival(Time::new(arrival))
        .work(work)
        .security_demand(0.5)
        .build()
        .unwrap()
}

/// A one-shard virtual-clock MCT daemon with a 10 s interval.
fn spawn_daemon(policy: BatchPolicy, options: DaemonOptions) -> Daemon {
    spawn_shards(1, policy, 10.0, options)
}

/// `n_shards` MCT shards over the two-site grid.
fn spawn_shards(
    n_shards: usize,
    policy: BatchPolicy,
    interval: f64,
    options: DaemonOptions,
) -> Daemon {
    let grid = grid();
    let config = SimConfig::default()
        .with_interval(Time::new(interval))
        .with_batch_policy(policy);
    let plan = ShardPlan::contiguous(&grid, n_shards).unwrap();
    let factory = stateless_factory(config, |_| Ok(Box::new(EarliestCompletion)));
    Daemon::spawn(grid, plan, factory, "127.0.0.1:0", options).unwrap()
}

fn shutdown(client: &mut Client, daemon: Daemon) {
    assert_eq!(client.send(&Request::Shutdown).unwrap(), Response::Bye);
    daemon.join();
}

#[test]
fn malformed_frames_get_errors_and_the_connection_survives() {
    let daemon = spawn_daemon(BatchPolicy::Periodic, DaemonOptions::default());
    let mut client = Client::connect(daemon.addr()).unwrap();
    // Broken JSON.
    match client.send_line("{not json").unwrap() {
        Response::Error { message } => assert!(message.contains("invalid frame")),
        other => panic!("expected error, got {other:?}"),
    }
    // Valid JSON, unknown frame type.
    match client.send_line("{\"type\":\"fandango\"}").unwrap() {
        Response::Error { message } => assert!(message.contains("fandango")),
        other => panic!("expected error, got {other:?}"),
    }
    // Valid JSON, not an object.
    assert!(matches!(
        client.send_line("42").unwrap(),
        Response::Error { .. }
    ));
    // The connection still serves real frames.
    let r = client
        .send(&Request::Submit {
            jobs: vec![job(0, 0.0, 5.0)],
            shard: None,
            tenant: None,
        })
        .unwrap();
    assert_eq!(
        r,
        Response::Accepted {
            jobs: 1,
            shard: 0,
            pending: 1,
            rounds: 0
        }
    );
    shutdown(&mut client, daemon);
}

#[test]
fn semantic_errors_leave_the_session_usable() {
    let daemon = spawn_daemon(BatchPolicy::Periodic, DaemonOptions::default());
    let mut client = Client::connect(daemon.addr()).unwrap();
    client
        .send(&Request::Submit {
            jobs: vec![job(1, 5.0, 5.0)],
            shard: None,
            tenant: None,
        })
        .unwrap();
    // Time runs backwards → rejected with a pointer at the clock.
    match client
        .send(&Request::Submit {
            jobs: vec![job(2, 1.0, 5.0)],
            shard: None,
            tenant: None,
        })
        .unwrap()
    {
        Response::Error { message } => assert!(message.contains("arrival order")),
        other => panic!("expected error, got {other:?}"),
    }
    // Duplicate id → rejected.
    assert!(matches!(
        client
            .send(&Request::Submit {
                jobs: vec![job(1, 6.0, 5.0)],
                shard: None,
                tenant: None,
            })
            .unwrap(),
        Response::Error { .. }
    ));
    // Too wide for every site → typed routing rejection (it fits no
    // shard, so derived routing refuses before the session sees it).
    let wide = Job::builder(9).width(64).build().unwrap();
    match client
        .send(&Request::Submit {
            jobs: vec![wide],
            shard: None,
            tenant: None,
        })
        .unwrap()
    {
        Response::RouteRejected { job, shards, .. } => {
            assert_eq!(job, JobId(9));
            assert!(shards.is_empty());
        }
        other => panic!("expected route_rejected, got {other:?}"),
    }
    // Bad reconfigure → rejected; good one applies.
    assert!(matches!(
        client
            .send(&Request::Reconfigure {
                security_levels: vec![0.5],
                shard: None,
                at: None,
            })
            .unwrap(),
        Response::Error { .. }
    ));
    assert_eq!(
        client
            .send(&Request::Reconfigure {
                security_levels: vec![0.9, 0.9],
                shard: None,
                at: None,
            })
            .unwrap(),
        Response::Reconfigured { sites: 2 }
    );
    // And the original job still schedules.
    match client.send(&Request::Drain).unwrap() {
        Response::Drained { jobs_scheduled, .. } => assert_eq!(jobs_scheduled, 1),
        other => panic!("drain failed: {other:?}"),
    }
    shutdown(&mut client, daemon);
}

/// `Time` reads JSON `null` as +∞ (its "never" sentinel), so this frame
/// is well typed. At 675e7e9 it was `accepted`, armed a boundary at +∞,
/// moved the shard's virtual clock there and made every later submit
/// fail with "clock is already at infs".
#[test]
fn a_null_arrival_is_a_typed_error_and_the_virtual_clock_stays_finite() {
    let daemon = spawn_daemon(BatchPolicy::Periodic, DaemonOptions::default());
    let mut client = Client::connect(daemon.addr()).unwrap();
    let frame = |id: u64, arrival: &str| {
        format!(
            "{{\"type\":\"submit\",\"jobs\":[{{\"id\":{id},\"arrival\":{arrival},\
             \"width\":1,\"work\":5.0,\"security_demand\":0.5}}]}}"
        )
    };
    assert!(matches!(
        client.send_line(&frame(1, "1.0")).unwrap(),
        Response::Accepted { jobs: 1, .. }
    ));
    match client.send_line(&frame(2, "null")).unwrap() {
        Response::Error { message } => assert!(message.contains("non-finite"), "{message}"),
        other => panic!("expected error, got {other:?}"),
    }
    // An out-of-range literal reads as +∞ as well; a timestamped
    // injection refuses it the same way and the site stays up.
    match client
        .send_line("{\"type\":\"fail_site\",\"site\":0,\"at\":1e999}")
        .unwrap()
    {
        Response::Error { message } => assert!(message.contains("non-finite"), "{message}"),
        other => panic!("expected error, got {other:?}"),
    }
    // The shard still serves, and the refused id was not consumed.
    assert!(matches!(
        client.send_line(&frame(2, "2.0")).unwrap(),
        Response::Accepted {
            jobs: 1,
            pending: 2,
            ..
        }
    ));
    let metrics = |client: &mut Client| match client
        .send(&Request::Query {
            what: QueryWhat::Metrics,
            shard: None,
        })
        .unwrap()
    {
        Response::Metrics { metrics } => metrics,
        other => panic!("expected metrics, got {other:?}"),
    };
    assert_eq!(metrics(&mut client).virtual_now, Time::new(2.0));
    match client.send(&Request::Drain).unwrap() {
        Response::Drained { jobs_scheduled, .. } => assert_eq!(jobs_scheduled, 2),
        other => panic!("drain failed: {other:?}"),
    }
    let m = metrics(&mut client);
    assert_eq!(m.pending, 0);
    assert!(m.virtual_now.is_finite());
    shutdown(&mut client, daemon);
}

/// A job is valid when it is typed: a well-formed `submit` whose job breaks
/// `JobBuilder::build`'s rule is refused at decode, naming what broke, and
/// never reaches a scheduler. At efb0446 the first two rows were `accepted` and
/// then panicked the shard thread inside the mapping loop ("every batch
/// job has a feasible candidate"), so every later frame read `a shard
/// thread is no longer running`; the other four were accepted and
/// scheduled.
#[test]
fn a_hostile_job_is_a_typed_error_and_the_shard_lives() {
    // (the job's fields after `id` and `arrival`, what the error names)
    let hostile = [
        (
            "\"width\":1,\"work\":1e999,\"security_demand\":0.5",
            "1e999",
        ),
        ("\"width\":0,\"work\":5.0,\"security_demand\":0.5", "width"),
        ("\"width\":1,\"work\":-5,\"security_demand\":0.5", "work"),
        ("\"width\":1,\"work\":0,\"security_demand\":0.5", "work"),
        (
            "\"width\":1,\"work\":5.0,\"security_demand\":7",
            "security_demand",
        ),
        (
            "\"width\":1,\"work\":5.0,\"security_demand\":-1",
            "security_demand",
        ),
    ];
    for (fields, names) in hostile {
        let daemon = spawn_daemon(BatchPolicy::Periodic, DaemonOptions::default());
        let mut client = Client::connect(daemon.addr()).unwrap();
        let frame =
            format!("{{\"type\":\"submit\",\"jobs\":[{{\"id\":1,\"arrival\":1.0,{fields}}}]}}");
        match client.send_line(&frame).unwrap() {
            Response::Error { message } => assert!(
                message.contains("invalid frame") && message.contains(names),
                "{fields}: {message}"
            ),
            other => panic!("{fields}: expected error, got {other:?}"),
        }
        // The refused id was not consumed and the shard still schedules.
        let valid = Request::Submit {
            jobs: vec![job(1, 2.0, 5.0)],
            shard: None,
            tenant: None,
        };
        assert!(
            matches!(
                client.send(&valid).unwrap(),
                Response::Accepted { jobs: 1, .. }
            ),
            "{fields}: a valid submit afterwards"
        );
        match client.send(&Request::Drain).unwrap() {
            Response::Drained { jobs_scheduled, .. } => assert_eq!(jobs_scheduled, 1, "{fields}"),
            other => panic!("{fields}: drain failed: {other:?}"),
        }
        shutdown(&mut client, daemon);
    }
}

/// A 20 KB line nested 20 000 brackets deep. At c8a9ccb the parser
/// recursed once per bracket on the I/O thread, overflowed its stack and
/// aborted the process, taking every connection and every accepted job
/// with it. The parser now refuses the 129th level, so the frame is one
/// `error` and the same connection goes on.
#[test]
fn a_deeply_nested_frame_is_an_error_and_the_daemon_lives() {
    let daemon = spawn_daemon(BatchPolicy::Periodic, DaemonOptions::default());
    let mut client = Client::connect(daemon.addr()).unwrap();
    let deep = format!("{{\"type\":\"submit\",\"tenant\":{}", "[".repeat(20_000));
    match client.send_line(&deep).unwrap() {
        Response::Error { message } => assert!(
            message.contains("invalid frame") && message.contains("nesting deeper than 128"),
            "{message}"
        ),
        other => panic!("expected error, got {other:?}"),
    }
    let valid = Request::Submit {
        jobs: vec![job(1, 2.0, 5.0)],
        shard: None,
        tenant: None,
    };
    assert!(matches!(
        client.send(&valid).unwrap(),
        Response::Accepted { jobs: 1, .. }
    ));
    match client.send(&Request::Drain).unwrap() {
        Response::Drained { jobs_scheduled, .. } => assert_eq!(jobs_scheduled, 1),
        other => panic!("drain failed: {other:?}"),
    }
    shutdown(&mut client, daemon);
}

#[test]
fn oversized_lines_are_rejected_without_desyncing_the_stream() {
    let daemon = spawn_daemon(
        BatchPolicy::Periodic,
        DaemonOptions {
            max_line_bytes: 256,
            ..DaemonOptions::default()
        },
    );
    let mut client = Client::connect(daemon.addr()).unwrap();
    let huge = format!("{{\"type\":\"submit\",\"pad\":\"{}\"}}", "x".repeat(1000));
    match client.send_line(&huge).unwrap() {
        Response::Error { message } => assert!(message.contains("too long")),
        other => panic!("expected error, got {other:?}"),
    }
    // Framing is intact: the next real frame works.
    assert!(matches!(
        client
            .send(&Request::Query {
                what: QueryWhat::Metrics,
                shard: None,
            })
            .unwrap(),
        Response::Metrics { .. }
    ));
    shutdown(&mut client, daemon);
}

#[test]
fn partial_writes_reassemble_into_frames() {
    let daemon = spawn_daemon(BatchPolicy::Periodic, DaemonOptions::default());
    let mut client = Client::connect(daemon.addr()).unwrap();
    // Dribble a submit frame over the socket a few bytes at a time.
    let frame = "{\"type\":\"submit\",\"jobs\":[{\"id\":5,\"arrival\":0.0,\"width\":1,\
                 \"work\":20.0,\"security_demand\":0.4}]}\n";
    let mut raw = TcpStream::connect(daemon.addr()).unwrap();
    for chunk in frame.as_bytes().chunks(3) {
        raw.write_all(chunk).unwrap();
        raw.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let mut dribbled = Client::from_stream(raw).unwrap();
    assert_eq!(
        dribbled.read_response().unwrap(),
        Response::Accepted {
            jobs: 1,
            shard: 0,
            pending: 1,
            rounds: 0
        }
    );
    shutdown(&mut client, daemon);
}

#[test]
fn mid_round_disconnect_does_not_lose_submitted_jobs() {
    let daemon = spawn_daemon(BatchPolicy::Periodic, DaemonOptions::default());
    {
        let mut doomed = Client::connect(daemon.addr()).unwrap();
        doomed
            .send(&Request::Submit {
                jobs: vec![job(0, 1.0, 5.0), job(1, 2.0, 5.0)],
                shard: None,
                tenant: None,
            })
            .unwrap();
        // Connection dropped here, jobs still pending in the daemon.
    }
    let mut survivor = Client::connect(daemon.addr()).unwrap();
    match survivor.send(&Request::Drain).unwrap() {
        Response::Drained {
            jobs_scheduled,
            rounds,
        } => {
            assert_eq!(jobs_scheduled, 2);
            assert!(rounds >= 1);
        }
        other => panic!("drain failed: {other:?}"),
    }
    shutdown(&mut survivor, daemon);
}

#[test]
fn two_clients_interleave_deterministically() {
    // Lock-step acks make the ingest order (and thus the schedule)
    // deterministic; the reference replay over one client must match.
    let run_split = || {
        let daemon = spawn_daemon(BatchPolicy::CountTriggered(2), DaemonOptions::default());
        let mut a = Client::connect(daemon.addr()).unwrap();
        let mut b = Client::connect(daemon.addr()).unwrap();
        for i in 0..6u64 {
            let j = job(i, i as f64, 10.0 + i as f64);
            let c = if i % 2 == 0 { &mut a } else { &mut b };
            match c
                .send(&Request::Submit {
                    jobs: vec![j],
                    shard: None,
                    tenant: None,
                })
                .unwrap()
            {
                Response::Accepted { .. } => {}
                other => panic!("submit failed: {other:?}"),
            }
        }
        a.send(&Request::Drain).unwrap();
        let out = match a
            .send(&Request::Query {
                what: QueryWhat::Schedule,
                shard: None,
            })
            .unwrap()
        {
            Response::Schedule { assignments } => assignments,
            other => panic!("query failed: {other:?}"),
        };
        shutdown(&mut a, daemon);
        out
    };
    let split = run_split();
    // Reference: the same six jobs through one connection.
    let daemon = spawn_daemon(BatchPolicy::CountTriggered(2), DaemonOptions::default());
    let mut solo = Client::connect(daemon.addr()).unwrap();
    for i in 0..6u64 {
        solo.send(&Request::Submit {
            jobs: vec![job(i, i as f64, 10.0 + i as f64)],
            shard: None,
            tenant: None,
        })
        .unwrap();
    }
    solo.send(&Request::Drain).unwrap();
    let reference = match solo
        .send(&Request::Query {
            what: QueryWhat::Schedule,
            shard: None,
        })
        .unwrap()
    {
        Response::Schedule { assignments } => assignments,
        other => panic!("query failed: {other:?}"),
    };
    shutdown(&mut solo, daemon);
    assert_eq!(split, reference);
    assert_eq!(split.len(), 6);
    assert_eq!(split[0].job, JobId(0));
}

#[test]
fn wall_clock_mode_fires_timeout_boundaries() {
    // A 50 ms interval: the daemon must schedule the job on its own
    // timer without any further client traffic.
    let daemon = spawn_shards(
        1,
        BatchPolicy::Periodic,
        0.05,
        DaemonOptions {
            clock: ClockMode::WallClock,
            ..DaemonOptions::default()
        },
    );
    let mut client = Client::connect(daemon.addr()).unwrap();
    client
        .send(&Request::Submit {
            jobs: vec![job(0, 0.0, 1.0)],
            shard: None,
            tenant: None,
        })
        .unwrap();
    let mut scheduled = 0;
    for _ in 0..100 {
        std::thread::sleep(std::time::Duration::from_millis(20));
        if let Response::Metrics { metrics } = client
            .send(&Request::Query {
                what: QueryWhat::Metrics,
                shard: None,
            })
            .unwrap()
        {
            scheduled = metrics.jobs_scheduled;
            if scheduled == 1 {
                break;
            }
        }
    }
    assert_eq!(scheduled, 1, "timer boundary never fired");
    shutdown(&mut client, daemon);
}

/// A barrier (`drain`, `reshard`) fires the armed periodic boundary at
/// its *scheduled* instant, which leaves the session clock up to one
/// interval ahead of the wall clock. Submits stamped right after it must
/// still be accepted — with a 1 s interval the old monotonic-only stamp
/// "arrived" a second in the past and was refused until real time
/// caught up.
#[test]
fn wall_clock_submits_are_accepted_right_after_every_barrier() {
    let daemon = spawn_shards(
        2,
        BatchPolicy::Periodic,
        1.0,
        DaemonOptions {
            clock: ClockMode::WallClock,
            ..DaemonOptions::default()
        },
    );
    let mut client = Client::connect(daemon.addr()).unwrap();
    let submit = |client: &mut Client, id: u64| {
        let response = client
            .send(&Request::Submit {
                jobs: vec![job(id, 0.0, 1.0)],
                shard: Some(0),
                tenant: None,
            })
            .unwrap();
        assert!(
            matches!(response, Response::Accepted { jobs: 1, .. }),
            "submit {id} after a barrier: {response:?}"
        );
    };
    submit(&mut client, 0);
    assert!(matches!(
        client.send(&Request::Drain).unwrap(),
        Response::Drained {
            jobs_scheduled: 1,
            ..
        }
    ));
    submit(&mut client, 1);
    assert!(matches!(
        client
            .send(&Request::Reshard {
                shards: vec![vec![0, 1]],
            })
            .unwrap(),
        Response::Resharded { shards: 1, .. }
    ));
    submit(&mut client, 2);
    // The same stamp serves injections: a reconfigure right behind the
    // barrier applies instead of "running backwards".
    assert_eq!(
        client
            .send(&Request::Reconfigure {
                security_levels: vec![0.9, 0.9],
                shard: None,
                at: None,
            })
            .unwrap(),
        Response::Reconfigured { sites: 2 }
    );
    shutdown(&mut client, daemon);
}

#[test]
fn malformed_reshard_specs_get_typed_rejections() {
    let daemon = spawn_daemon(BatchPolicy::Periodic, DaemonOptions::default());
    let mut client = Client::connect(daemon.addr()).unwrap();
    // Empty partition, duplicated site, out-of-range site, missing site:
    // each is a typed rejection that leaves the old topology serving.
    let malformed: &[&[&[usize]]] = &[&[], &[&[0, 0], &[1]], &[&[0], &[1, 2]], &[&[0]]];
    for spec in malformed {
        let shards: Vec<Vec<usize>> = spec.iter().map(|s| s.to_vec()).collect();
        match client.send(&Request::Reshard { shards }).unwrap() {
            Response::ReshardRejected { message } => assert!(
                message.contains("invalid reshard plan") || message.contains("shard"),
                "unexpected rejection for {spec:?}: {message}"
            ),
            other => panic!("expected reshard_rejected for {spec:?}, got {other:?}"),
        }
    }
    // The refusals are clean: the connection and the topology still
    // serve, and a well-formed partition goes through afterwards.
    assert!(matches!(
        client
            .send(&Request::Query {
                what: QueryWhat::Metrics,
                shard: None,
            })
            .unwrap(),
        Response::Metrics { .. }
    ));
    match client
        .send(&Request::Reshard {
            shards: vec![vec![0], vec![1]],
        })
        .unwrap()
    {
        Response::Resharded {
            shards: 2,
            reshards_completed: 1,
            ..
        } => {}
        other => panic!("valid reshard failed after rejections: {other:?}"),
    }
    shutdown(&mut client, daemon);
}

#[test]
fn shutdown_then_reshard_pipelined_replies_in_order() {
    let daemon = spawn_daemon(BatchPolicy::Periodic, DaemonOptions::default());
    // Pipeline both frames in one write: the daemon must answer `bye`
    // first, then refuse the late reshard instead of hanging or dying.
    let mut raw = TcpStream::connect(daemon.addr()).unwrap();
    raw.write_all(b"{\"type\":\"shutdown\"}\n{\"type\":\"reshard\",\"shards\":[[0],[1]]}\n")
        .unwrap();
    raw.flush().unwrap();
    let mut client = Client::from_stream(raw).unwrap();
    assert_eq!(client.read_response().unwrap(), Response::Bye);
    match client.read_response().unwrap() {
        Response::ReshardRejected { message } => assert!(
            message.contains("draining for shutdown"),
            "unexpected rejection: {message}"
        ),
        other => panic!("expected reshard_rejected after bye, got {other:?}"),
    }
    daemon.join();
}

#[test]
fn pipelined_submits_across_a_plan_swap_answer_in_order() {
    let daemon = spawn_shards(2, BatchPolicy::Periodic, 10.0, DaemonOptions::default());
    // One write carries a submit, the plan swap, a second submit and a
    // query; the four responses must come back in frame order.
    let frames = "{\"type\":\"submit\",\"jobs\":[{\"id\":10,\"arrival\":1.0,\"width\":1,\
                  \"work\":20.0,\"security_demand\":0.4}],\"shard\":0}\n\
                  {\"type\":\"reshard\",\"shards\":[[0,1]]}\n\
                  {\"type\":\"submit\",\"jobs\":[{\"id\":11,\"arrival\":20.0,\"width\":1,\
                  \"work\":20.0,\"security_demand\":0.4}],\"shard\":0}\n\
                  {\"type\":\"query\",\"what\":\"metrics\"}\n";
    let mut raw = TcpStream::connect(daemon.addr()).unwrap();
    raw.write_all(frames.as_bytes()).unwrap();
    raw.flush().unwrap();
    let mut client = Client::from_stream(raw).unwrap();
    assert!(matches!(
        client.read_response().unwrap(),
        Response::Accepted {
            jobs: 1,
            shard: 0,
            ..
        }
    ));
    // The barrier drain schedules the pending job; its commit then moves
    // to the merged shard, whose site set differs — one migration.
    assert_eq!(
        client.read_response().unwrap(),
        Response::Resharded {
            shards: 1,
            jobs_migrated: 1,
            reshards_completed: 1,
        }
    );
    assert!(matches!(
        client.read_response().unwrap(),
        Response::Accepted {
            jobs: 1,
            shard: 0,
            ..
        }
    ));
    match client.read_response().unwrap() {
        Response::Metrics { metrics } => {
            assert_eq!(metrics.jobs_submitted, 2);
            assert_eq!(metrics.reshards_completed, 1);
        }
        other => panic!("expected metrics last, got {other:?}"),
    }
    shutdown(&mut client, daemon);
}

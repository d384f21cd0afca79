//! Per-id work at the reshard barrier, counted rather than timed: the
//! `reshard_transfer` span's `end` event carries `ids`, the number of
//! job ids the barrier handles one at a time (export, transfer, restore
//! and each new shard's first union of the tables it inherited). A
//! barrier that re-keyed every id the daemon ever accepted would count
//! ten times more after ten times the traffic; this one must not.
//! A test binary of its own, because the recorder is process-global.

use gridsec_core::{Grid, Job, Site, Time};
use gridsec_obs::recorder;
use gridsec_serve::{Client, Daemon, DaemonOptions, Request, Response, SessionFactory};
use gridsec_sim::scheduler::EarliestCompletion;
use gridsec_sim::{BatchPolicy, ShardPlan, SimConfig};

/// Jobs per submit frame.
const FRAME: usize = 500;

fn send(client: &mut Client, req: &Request) -> Response {
    client.send(req).expect("frame round-trips")
}

/// The `ids` of every `reshard_transfer` end event of a daemon that
/// settled `n_jobs` jobs on two shards, then split to four and merged
/// back to two.
fn ids_after(n_jobs: usize) -> Vec<i64> {
    let grid = Grid::new(
        (0..4)
            .map(|k| {
                Site::builder(k)
                    .nodes(2)
                    .speed(1.0 + k as f64)
                    .build()
                    .unwrap()
            })
            .collect(),
    )
    .unwrap();
    let config = SimConfig::default()
        .with_interval(Time::new(10.0))
        .with_batch_policy(BatchPolicy::Periodic);
    let plan = ShardPlan::contiguous(&grid, 2).unwrap();
    let factory: SessionFactory = Box::new(|_| Ok(Box::new(EarliestCompletion)));
    let options = DaemonOptions::default();
    let daemon = Daemon::spawn(grid, plan, config, factory, "127.0.0.1:0", options).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    let job = |id: usize, at: f64| {
        Job::builder(id as u64)
            .arrival(Time::new(at))
            .work(5.0)
            .build()
            .unwrap()
    };
    for (shard, ids) in [(0, 0..n_jobs / 2), (1, n_jobs / 2..n_jobs)] {
        let jobs: Vec<Job> = ids.map(|id| job(id, id as f64 * 0.01)).collect();
        for frame in jobs.chunks(FRAME) {
            let req = Request::Submit {
                jobs: frame.to_vec(),
                shard: Some(shard),
                tenant: None,
            };
            match send(&mut client, &req) {
                Response::Accepted { jobs, .. } => assert_eq!(jobs, frame.len()),
                other => panic!("submit refused: {other:?}"),
            }
        }
        // One late job per shard: its round retires every earlier commit,
        // so each shard reaches the barrier with one job in flight
        // whatever it served before.
        let late = Request::Submit {
            jobs: vec![job(n_jobs + shard, 1e6)],
            shard: Some(shard),
            tenant: None,
        };
        assert!(matches!(
            send(&mut client, &late),
            Response::Accepted { .. }
        ));
    }
    assert!(matches!(
        send(&mut client, &Request::Drain),
        Response::Drained { .. }
    ));

    recorder::clear();
    recorder::enable();
    for shards in [
        vec![vec![0], vec![1], vec![2], vec![3]],
        vec![vec![0, 1], vec![2, 3]],
    ] {
        match send(&mut client, &Request::Reshard { shards }) {
            Response::Resharded { .. } => {}
            other => panic!("reshard rejected: {other:?}"),
        }
    }
    recorder::disable();
    let ids: Vec<i64> = recorder::snapshot()
        .iter()
        .filter(|e| e.name == "reshard_transfer" && e.kind == "end")
        .map(|e| {
            let field = e.fields.iter().find(|f| f.key == "ids");
            field.expect("reshard_transfer ends with ids").value
        })
        .collect();
    assert_eq!(send(&mut client, &Request::Shutdown), Response::Bye);
    daemon.join();
    ids
}

#[test]
fn a_reshard_handles_the_same_ids_after_ten_times_the_traffic() {
    let small = ids_after(2_000);
    let large = ids_after(20_000);
    assert_eq!(small.len(), 2, "one transfer per reshard: {small:?}");
    assert_eq!(small, large);
    // The two in-flight jobs and what follows them, not the settled ones.
    assert!(small.iter().all(|&n| n < 100), "{small:?}");
}

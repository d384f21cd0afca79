//! `Daemon::spawn` when a shard cannot be built: the factory runs on the
//! caller's thread before anything is spawned or bound, so the failure is
//! an `InvalidInput` naming the shard (and the state file, if the factory
//! choked on one) with the bind address still free and no thread left.
//! An autoscaler configuration the policy cannot run with fails the same
//! way, naming the field.
//!
//! One `#[test]` on purpose: the process's thread count is asserted, and
//! a sibling test running beside it would move it.

use gridsec_core::{Grid, Site};
use gridsec_serve::{
    shard_state_path, AutoscaleConfig, Client, Daemon, DaemonOptions, Request, Response,
    SessionFactory, ShardBuildContext,
};
use gridsec_sim::scheduler::EarliestCompletion;
use gridsec_sim::{ShardPlan, SimConfig};
use std::net::TcpListener;
use std::time::Duration;

fn grid() -> Grid {
    let site = |i| Site::builder(i).nodes(2 + 2 * i as u32).build().unwrap();
    Grid::new((0..2).map(site).collect()).unwrap()
}

/// MCT shards, except that `sabotage` gets to fail each build.
fn factory(
    mut sabotage: impl FnMut(&ShardBuildContext) -> Result<(), String> + Send + 'static,
) -> SessionFactory {
    Box::new(move |ctx| sabotage(ctx).map(|()| Box::new(EarliestCompletion) as _))
}

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

fn assert_boot_fails(factory: SessionFactory, options: DaemonOptions, needles: &[&str]) {
    let plan = ShardPlan::contiguous(&grid(), 2).unwrap();
    // A port that was free a moment ago, and must be again afterwards.
    let probe = TcpListener::bind("127.0.0.1:0").unwrap();
    let bind = probe.local_addr().unwrap().to_string();
    drop(probe);
    let before = threads();
    let err = Daemon::spawn(grid(), plan, SimConfig::default(), factory, &bind, options)
        .err()
        .expect("boot must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    for needle in needles {
        assert!(err.to_string().contains(needle), "`{err}` lacks `{needle}`");
    }
    assert_eq!(threads(), before, "a failed boot left threads behind");
    TcpListener::bind(&bind).expect("the address is free right after a failed boot");
}

#[test]
fn a_shard_that_cannot_be_built_fails_the_boot_and_leaves_nothing_running() {
    let fails_on_1 = factory(|ctx| match ctx.shard {
        1 => Err("no scheduler for you".into()),
        _ => Ok(()),
    });
    let needles = ["shard 1", "no scheduler for you"];
    assert_boot_fails(fails_on_1, DaemonOptions::default(), &needles);

    // Autoscaler thresholds that would panic the router (`min_shards` 0
    // with one idle shard left) or spin it (`interval` 0).
    let ok = AutoscaleConfig::default();
    for (field, autoscale) in [
        (
            "`min_shards`",
            AutoscaleConfig {
                min_shards: 0,
                ..ok
            },
        ),
        (
            "`max_shards`",
            AutoscaleConfig {
                max_shards: 0,
                ..ok
            },
        ),
        ("`patience`", AutoscaleConfig { patience: 0, ..ok }),
        (
            "`interval`",
            AutoscaleConfig {
                interval: Duration::ZERO,
                ..ok
            },
        ),
    ] {
        let options = DaemonOptions {
            autoscale: Some(autoscale),
            ..DaemonOptions::default()
        };
        assert_boot_fails(factory(|_| Ok(())), options, &[field]);
    }

    // A state file the factory cannot use: the error names the file.
    let prefix = std::env::temp_dir().join(format!("gridsec_boot_{}.v2", std::process::id()));
    let state_file = shard_state_path(&prefix, 0);
    std::fs::write(&state_file, "not a history table").unwrap();
    let with_state = DaemonOptions {
        state_prefix: Some(prefix),
        ..DaemonOptions::default()
    };
    let parses_history = factory(|ctx| match ctx.history_sources.first() {
        Some(text) => Err(format!("cannot parse `{text}`")),
        None => Ok(()),
    });
    let file = state_file.to_str().unwrap();
    let needles = ["shard 0", "cannot parse `not a history table`", file];
    assert_boot_fails(parses_history, with_state.clone(), &needles);

    // The same boot succeeds with a factory that ignores the file, and —
    // every daemon being able to reshard — moves to one shard.
    let plan = ShardPlan::contiguous(&grid(), 2).unwrap();
    let mct = factory(|_| Ok(()));
    let config = SimConfig::default();
    let daemon = Daemon::spawn(grid(), plan, config, mct, "127.0.0.1:0", with_state).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    let merge = Request::Reshard {
        shards: vec![vec![0, 1]],
    };
    let merged = client.send(&merge).unwrap();
    assert!(
        matches!(merged, Response::Resharded { shards: 1, .. }),
        "{merged:?}"
    );
    assert_eq!(client.send(&Request::Shutdown).unwrap(), Response::Bye);
    daemon.join();
    // MCT shards have no history snapshot: nothing overwrote the file.
    assert_eq!(
        std::fs::read_to_string(&state_file).unwrap(),
        "not a history table"
    );
    std::fs::remove_file(&state_file).unwrap();
}

//! `Daemon::spawn` when a shard cannot be built: the factory runs on the
//! caller's thread before anything is spawned or bound, so the failure is
//! an `InvalidInput` naming the shard (and the state file, if the factory
//! choked on one) with the bind address still free and no thread left.
//!
//! One `#[test]` on purpose: the process's thread count is asserted, and
//! a sibling test running beside it would move it.

use gridsec_core::{Grid, Site};
use gridsec_serve::{
    shard_state_path, stateless_factory, Client, Daemon, DaemonOptions, Request, Response,
    SessionFactory, ShardBuildContext,
};
use gridsec_sim::scheduler::EarliestCompletion;
use gridsec_sim::{ShardPlan, SimConfig};
use std::net::TcpListener;

fn grid() -> Grid {
    let site = |i| Site::builder(i).nodes(2 + 2 * i as u32).build().unwrap();
    Grid::new((0..2).map(site).collect()).unwrap()
}

/// MCT shards, except that `sabotage` gets to fail or bend each build.
fn factory(
    mut sabotage: impl FnMut(&mut ShardBuildContext) -> Result<(), String> + Send + 'static,
) -> SessionFactory {
    let mut mct = stateless_factory(SimConfig::default(), |_| Ok(Box::new(EarliestCompletion)));
    Box::new(move |mut ctx| sabotage(&mut ctx).and_then(|()| mct(ctx)))
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
    let err = Daemon::spawn(grid(), plan, factory, &bind, options)
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

    // Shard 1 built over shard 0's subgrid (with a seed that fits it, so
    // the restore itself succeeds).
    let wrong_subgrid = factory(|ctx| {
        if ctx.shard == 1 {
            ctx.subgrid = ShardPlan::contiguous(&grid(), 2)
                .unwrap()
                .subgrid(&grid(), 0)
                .unwrap();
            ctx.seed = gridsec_serve::SessionState::fresh(&ctx.subgrid);
        }
        Ok(())
    });
    let needles = ["shard 1", "wrong subgrid"];
    assert_boot_fails(wrong_subgrid, DaemonOptions::default(), &needles);

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
    let daemon = Daemon::spawn(grid(), plan, mct, "127.0.0.1:0", with_state).unwrap();
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

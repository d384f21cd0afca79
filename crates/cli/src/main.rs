//! `gridsec` — command-line front end for the GridSec scheduling library.
//!
//! ```console
//! gridsec example-spec > exp.json        # write a starter spec
//! gridsec run exp.json                   # run it, print the comparison
//! gridsec run exp.json --json out.json   # also dump machine-readable results
//! gridsec generate psa 1000 > psa.swf    # emit a workload as SWF
//! gridsec generate nas 16000 > nas.swf
//! gridsec serve exp.json --bind 127.0.0.1:7070   # online daemon (NDJSON/TCP)
//! ```

mod spec;

use gridsec_serve::{
    AutoscaleConfig, ClockMode, Daemon, DaemonExit, DaemonOptions, ScenarioRunner, SessionFactory,
};
use gridsec_sim::{simulate, ShardPlan};
use gridsec_workloads::{swf, NasConfig, PsaConfig};
use spec::{ExperimentSpec, ScenarioSpec};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("example-spec") => cmd_example_spec(),
        Some("example-scenario") => cmd_example_scenario(),
        Some("generate") => cmd_generate(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("trace-dump") => cmd_trace_dump(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print_usage();
            0
        }
        Some(other) => {
            eprintln!("error: unknown command `{other}`");
            print_usage();
            2
        }
    };
    std::process::exit(code);
}

fn print_usage() {
    eprintln!(
        "usage:\n  gridsec run <spec.json> [--json <out.json>]\n  \
         gridsec example-spec\n  gridsec example-scenario\n  \
         gridsec generate <psa|nas> <n_jobs> [seed]\n  \
         gridsec serve <spec.json> [--bind <addr>] [--virtual-clock] [--shards <n>]\n\
         \x20             [--state <prefix>] [--max-pending <n>] [--autoscale]\n\
         \x20             [--autoscale-<knob> <n>]\n  \
         gridsec trace-dump <addr>\n  \
         gridsec chaos <scenario.json> [--json <out.json>]\n\
         \n\
         chaos: compiles the scenario's injection program (arrivals, site\n\
         failures/rejoins, trust re-ratings) and replays it through the engine,\n\
         printing the zero-lost-jobs ledger. `example-scenario` writes a starter\n\
         churn spec.\n\
         \n\
         serve: starts the online scheduling daemon (NDJSON frames over TCP) with\n\
         the spec's grid and *first* scheduler; jobs arrive via `submit` frames.\n\
         --bind defaults to 127.0.0.1:0 (ephemeral; the bound address is printed).\n\
         --virtual-clock batches by submitted arrival times instead of wall time.\n\
         --shards <n> partitions the grid into n site-disjoint shards, each with\n\
         \x20            its own scheduler on its own thread (default 1).\n\
         --state <prefix> persists each shard's STGA history table to\n\
         \x20            <prefix>.shard<k>.json at drain/shutdown and reloads on boot.\n\
         --max-pending <n> bounds each shard's pending queue (busy frames past it).\n\
         --metrics-addr <addr> serves a plaintext Prometheus-style exposition page\n\
         \x20            over TCP (write-on-connect; scrape with curl or nc).\n\
         --io-threads <n> event-loop threads multiplexing all client sockets\n\
         \x20            (default: a small pool sized from available parallelism;\n\
         \x20            connections never get threads of their own).\n\
         --idle-timeout-ms <n> reap connections silent this long (half-open\n\
         \x20            peers; default off).\n\
         --flight-dump <path> writes an NDJSON flight-recorder dump on rejected\n\
         \x20            reshards (post-barrier build failures).\n\
         The daemon is elastic: `reshard` frames repartition the grid live, and\n\
         --autoscale splits hot shards / merges cold ones automatically. Knobs\n\
         (each `--autoscale-<knob> <n>` implies --autoscale): min, max,\n\
         split-pending, split-round-micros, merge-pending, patience, interval-ms.\n\
         \n\
         trace-dump: pulls a flight-recorder snapshot from a live daemon over the\n\
         wire (a `trace_dump` frame) and prints it as NDJSON, one span/event per\n\
         line, oldest first."
    );
}

/// `gridsec serve`: exit code 2 for a usage error, 1 for anything that
/// goes wrong from reading the spec to starting the daemon.
fn cmd_serve(args: &[String]) -> i32 {
    match serve(args) {
        Ok(()) => 0,
        Err((code, message)) => {
            eprintln!("error: {message}");
            code
        }
    }
}

fn failed(e: impl std::fmt::Display) -> (i32, String) {
    (1, e.to_string())
}

fn serve(args: &[String]) -> Result<(), (i32, String)> {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err((2, "`serve` needs a spec path".into()));
    };
    let mut bind = "127.0.0.1:0".to_string();
    let mut n_shards = 1usize;
    let mut options = DaemonOptions {
        clock: ClockMode::WallClock,
        ..DaemonOptions::default() // io_threads 0 = auto-size the pool
    };
    let mut autoscale = false;
    let mut autoscale_cfg = AutoscaleConfig::default();
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1);
        let text = || value.cloned().ok_or((2, format!("{flag} needs a value")));
        let number = |least: u64, what: &str| {
            let n = value.and_then(|v| v.parse::<u64>().ok());
            n.filter(|&n| n >= least)
                .ok_or((2, format!("{flag} needs a {what} integer")))
        };
        let mut step = 2; // the flag and its value
        match flag {
            "--autoscale" => (autoscale, step) = (true, 1),
            "--virtual-clock" => (options.clock, step) = (ClockMode::Virtual, 1),
            "--bind" => bind = text()?,
            "--state" => options.state_prefix = Some(text()?.into()),
            "--metrics-addr" => options.metrics_addr = Some(text()?),
            "--flight-dump" => options.flight_dump = Some(text()?.into()),
            "--shards" => n_shards = number(1, "positive")? as usize,
            "--max-pending" => options.max_pending = Some(number(1, "positive")? as usize),
            "--io-threads" => options.io_threads = number(1, "positive")? as usize,
            // Sizes nothing: the daemon has no worker pool. Still taken
            // (a positive integer) because the benchmark harness boots
            // every daemon with `--threads 1`; it goes when that spawn
            // line does.
            "--threads" => {
                number(1, "positive")?;
            }
            "--idle-timeout-ms" => {
                options.idle_timeout = Some(Duration::from_millis(number(1, "positive")?))
            }
            // `--autoscale-<knob> <n>`: tune one autoscaler threshold (and
            // turn the autoscaler on, like bare `--autoscale`).
            _ => match flag.strip_prefix("--autoscale-") {
                Some(knob) => {
                    let n = number(0, "non-negative")?;
                    match knob {
                        "min" => autoscale_cfg.min_shards = n as usize,
                        "max" => autoscale_cfg.max_shards = n as usize,
                        "split-pending" => autoscale_cfg.split_pending = n as usize,
                        "split-round-micros" => autoscale_cfg.split_round_micros = n,
                        "merge-pending" => autoscale_cfg.merge_pending = n as usize,
                        "patience" => autoscale_cfg.patience = n as usize,
                        "interval-ms" => autoscale_cfg.interval = Duration::from_millis(n),
                        _ => return Err((2, format!("unknown autoscale knob `{flag}`"))),
                    }
                    autoscale = true;
                }
                None => return Err((2, format!("unknown serve option `{flag}`"))),
            },
        }
        i += step;
    }
    options.autoscale = autoscale.then_some(autoscale_cfg);
    let text =
        std::fs::read_to_string(path).map_err(|e| (1, format!("cannot read {path}: {e}")))?;
    let spec = ExperimentSpec::from_json(&text).map_err(failed)?;
    let (jobs, grid) = spec.workload.build().map_err(failed)?;
    let Some(sspec) = spec.schedulers.first() else {
        return Err((1, "the spec lists no schedulers".into()));
    };
    if options.state_prefix.is_some() && !sspec.is_stga() {
        eprintln!("note: --state only persists STGA history tables; ignored for this scheduler");
    }
    let plan = ShardPlan::contiguous(&grid, n_shards).map_err(failed)?;
    // The one description of a shard, called for every shard at start-up
    // and again after each `reshard` frame or autoscaler action: the
    // spec's scheduler over the shard's subgrid. An STGA history table is
    // opened from the sources the daemon hands over — the shard's
    // `<prefix>.shard<k>.json` at start-up, the contributing old shards'
    // snapshots at a reshard — and the daemon reads the scheduler's own
    // snapshot back into that file when the shard stops. Only a shard
    // that inherits no table trains one, on the spec's jobs that fit the
    // shard; serving traffic comes in over the wire.
    let name = Arc::new(OnceLock::new()); // the scheduler's display name, for the banner
    let factory: SessionFactory = {
        let sspec = sspec.clone();
        let name = Arc::clone(&name);
        Box::new(move |ctx| {
            let scheduler = sspec
                .build(&jobs, &ctx.subgrid, &ctx.history_sources)
                .map_err(|e| e.to_string())?;
            name.get_or_init(|| scheduler.name());
            Ok(scheduler)
        })
    };
    let clock = options.clock;
    let daemon = Daemon::spawn(grid, plan, spec.sim.clone(), factory, &bind, options)
        .map_err(|e| (1, format!("cannot start daemon on {bind}: {e}")))?;
    let name = name.get().expect("a plan has at least one shard");
    let elastic = if autoscale {
        format!(
            ", autoscaling {}–{} shards",
            autoscale_cfg.min_shards, autoscale_cfg.max_shards
        )
    } else {
        String::new()
    };
    println!(
        "gridsec-serve: {name} × {n_shards} shard(s) on {} ({:?} clock, policy {:?}{elastic}); \
         send NDJSON frames, {{\"type\":\"shutdown\"}} to stop",
        daemon.addr(),
        clock,
        spec.sim.batch_policy,
    );
    if let Some(m) = daemon.metrics_addr() {
        println!("gridsec-serve: metrics exposition on {m} (plaintext, scrape with curl/nc)");
    }
    match daemon.join() {
        DaemonExit::Shutdown => Ok(()),
        DaemonExit::RouterPanicked(message) => {
            Err((1, format!("the daemon's router thread panicked: {message}")))
        }
    }
}

/// `gridsec trace-dump <addr>`: pull the daemon's flight-recorder ring
/// over the wire and print it as NDJSON (one span/event per line).
fn cmd_trace_dump(args: &[String]) -> i32 {
    let [addr] = args else {
        match args.get(1) {
            Some(extra) => {
                eprintln!("error: `trace-dump` takes one address, got `{extra}` after it")
            }
            None => eprintln!("error: `trace-dump` needs a daemon address (host:port)"),
        }
        return 2;
    };
    let addr: std::net::SocketAddr = match addr.parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: invalid address {addr}: {e}");
            return 2;
        }
    };
    let mut client = match gridsec_serve::Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot connect to {addr}: {e}");
            return 1;
        }
    };
    match client.send(&gridsec_serve::Request::TraceDump) {
        Ok(gridsec_serve::Response::TraceDump { events }) => {
            eprintln!("gridsec trace-dump: {} events from {addr}", events.len());
            for ev in &events {
                match serde_json::to_string(ev) {
                    Ok(line) => println!("{line}"),
                    Err(e) => {
                        eprintln!("error: cannot serialise event: {e}");
                        return 1;
                    }
                }
            }
            0
        }
        Ok(other) => {
            eprintln!("error: unexpected response: {other:?}");
            1
        }
        Err(e) => {
            eprintln!("error: trace-dump failed: {e}");
            1
        }
    }
}

/// The spec path and `--json <out>` of `run` / `chaos`. The path is the
/// first argument that is neither a flag nor a flag's value, so it may
/// come before or after `--json <out>`.
fn spec_path_and_json<'a>(
    cmd: &str,
    args: &'a [String],
) -> Result<(&'a String, Option<String>), String> {
    let mut path = None;
    let mut json_out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--json" {
            json_out = Some(it.next().ok_or("--json needs a path")?.clone());
        } else if a.starts_with("--") {
            return Err(format!("`{cmd}` does not take `{a}`"));
        } else if path.is_none() {
            path = Some(a);
        } else {
            return Err(format!("`{cmd}` takes one spec path, got a second: `{a}`"));
        }
    }
    let path = path.ok_or_else(|| format!("`{cmd}` needs a spec path"))?;
    Ok((path, json_out))
}

fn cmd_run(args: &[String]) -> i32 {
    let (path, json_out) = match spec_path_and_json("run", args) {
        Ok(x) => x,
        Err(msg) => {
            eprintln!("error: {msg}");
            return 2;
        }
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return 1;
        }
    };
    let spec = match ExperimentSpec::from_json(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let (jobs, grid) = match spec.workload.build() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    println!(
        "workload: {} jobs on {} sites; sim seed {}",
        jobs.len(),
        grid.len(),
        spec.sim.seed
    );
    let mut outputs = Vec::new();
    for sspec in &spec.schedulers {
        let mut scheduler = match sspec.build(&jobs, &grid, &[]) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        };
        match simulate(&jobs, &grid, scheduler.as_mut(), &spec.sim) {
            Ok(out) => {
                println!("{}", out.summary());
                outputs.push(out);
            }
            Err(e) => {
                eprintln!("error: {} failed: {e}", scheduler.name());
                return 1;
            }
        }
    }
    if let Some(p) = json_out {
        match serde_json::to_string_pretty(&outputs) {
            Ok(s) => {
                if let Err(e) = std::fs::write(&p, s) {
                    eprintln!("error: cannot write {p}: {e}");
                    return 1;
                }
                println!("[wrote {p}]");
            }
            Err(e) => {
                eprintln!("error: serialisation failed: {e}");
                return 1;
            }
        }
    }
    0
}

fn cmd_chaos(args: &[String]) -> i32 {
    let (path, json_out) = match spec_path_and_json("chaos", args) {
        Ok(x) => x,
        Err(msg) => {
            eprintln!("error: {msg}");
            return 2;
        }
    };
    chaos(path, json_out).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        1
    })
}

/// Replays the scenario spec at `path` in process and reports its
/// ledger; `Ok` carries the exit code, 1 when the ledger does not balance.
fn chaos(path: &str, json_out: Option<String>) -> Result<i32, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let spec = ScenarioSpec::from_json(&text).map_err(|e| e.to_string())?;
    let grid = spec.grid.build().map_err(|e| e.to_string())?;
    let stream = spec.scenario.compile(&grid).map_err(|e| e.to_string())?;
    let scheduler = spec.scheduler.build(&[], &grid, &[]);
    let scheduler = scheduler.map_err(|e| e.to_string())?;
    let name = scheduler.name();
    println!(
        "chaos: {} injections ({} arrivals) on {} sites, scheduler {name}, seed {}",
        stream.events.len(),
        stream.n_jobs(),
        grid.len(),
        spec.scenario.seed,
    );
    let replay = ScenarioRunner::new(grid, scheduler, &spec.sim).and_then(|mut runner| {
        for inj in &stream.events {
            runner.apply(inj)?;
        }
        runner.finish()
    });
    let outcome = replay.map_err(|e| format!("replay failed: {e}"))?;
    let m = &outcome.metrics;
    println!(
        "  jobs: {} generated, {} submitted, {} scheduled, {} requeued, {} pending, {} rejected",
        outcome.jobs_generated,
        m.jobs_submitted,
        m.jobs_scheduled,
        m.jobs_requeued,
        m.pending,
        outcome.rejected.len(),
    );
    println!(
        "  churn: {} site failures, {} rejoins; {} rounds, makespan {}",
        m.sites_failed, m.sites_rejoined, m.rounds, m.max_completion,
    );
    if let Some(p) = json_out {
        // `metrics` is the replaying session's own snapshot — the frame a
        // daemon fed the same stream answers `query metrics` with — so one
        // consumer parses both.
        let s = serde_json::to_string_pretty(&outcome);
        let s = s.map_err(|e| format!("serialisation failed: {e}"))?;
        std::fs::write(&p, s).map_err(|e| format!("cannot write {p}: {e}"))?;
        println!("[wrote {p}]");
    }
    if outcome.fully_accounted() {
        println!("  ledger: balanced (every job scheduled, pending, or typed-rejected)");
        Ok(0)
    } else {
        eprintln!("error: ledger does NOT balance — jobs were lost");
        Ok(1)
    }
}

fn cmd_example_scenario() -> i32 {
    let spec = ScenarioSpec::example();
    println!(
        "{}",
        serde_json::to_string_pretty(&spec).expect("example scenario serialises")
    );
    0
}

fn cmd_example_spec() -> i32 {
    let spec = ExperimentSpec::example();
    println!(
        "{}",
        serde_json::to_string_pretty(&spec).expect("example spec serialises")
    );
    0
}

fn cmd_generate(args: &[String]) -> i32 {
    let (Some(kind), Some(n)) = (args.first(), args.get(1)) else {
        eprintln!("error: `generate` needs <psa|nas> <n_jobs>");
        return 2;
    };
    let n: usize = match n.parse() {
        Ok(v) => v,
        Err(_) => {
            eprintln!("error: n_jobs must be an integer");
            return 2;
        }
    };
    let seed: u64 = match args.get(2).map(|s| s.parse()) {
        None => 2005,
        Some(Ok(seed)) => seed,
        Some(Err(_)) => {
            eprintln!("error: seed must be a u64, got `{}`", args[2]);
            return 2;
        }
    };
    if let Some(extra) = args.get(3) {
        eprintln!("error: `generate` takes at most three arguments, got `{extra}` after the seed");
        return 2;
    }
    let jobs = match kind.as_str() {
        "psa" => match PsaConfig::default()
            .with_n_jobs(n)
            .with_seed(seed)
            .generate()
        {
            Ok(w) => w.jobs,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        },
        "nas" => match NasConfig::default()
            .with_n_jobs(n)
            .with_seed(seed)
            .generate()
        {
            Ok(w) => w.jobs,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        },
        other => {
            eprintln!("error: unknown workload kind `{other}`");
            return 2;
        }
    };
    print!("{}", swf::write(&jobs));
    0
}

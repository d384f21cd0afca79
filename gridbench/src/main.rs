//! `gridbench` — the repository's one benchmark.
//!
//! ```console
//! gridbench                                   # all four workloads, default seed
//! gridbench --workload round-stga-c2 --seed 7 # one workload, one seed
//! gridbench --workload wire-mct-c256 --trace 1  # also the traced pass
//! gridbench --out run.json                    # write a result file
//! gridbench --smoke                           # 1 s windows, numbers flagged
//! gridbench --compare a.json b.json           # is b no worse than a?
//! ```
//!
//! Run from the root of a checkout (it builds and boots that checkout's
//! `gridsec serve`). The last line of standard output is one JSON object
//! with exactly `correct`, `attempted`, `failed` and `metrics`. See
//! `README.md` beside this crate for every metric and how to read them.

mod affinity;
mod compare;
mod daemon;
mod host;
mod layers;
mod metrics;
mod reference;
mod report;
mod run;
mod stats;
mod trace;
mod wire;
mod workloads;

use report::{ResultFile, SCHEMA};
use run::RunConfig;
use workloads::{Workload, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`: 2 s windows and 4 s steps.
const DEFAULT_SECONDS: f64 = 22.0;
/// `--smoke`: 1 s windows.
const SMOKE_SECONDS: f64 = 11.0;
/// The seed of an unseeded run (the paper's year).
const DEFAULT_SEED: u64 = 2005;

struct Cli {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  gridbench [--workload <name>]... [--seed <n>] [--seconds <s>] [--trace <0|1>]\n\
         \x20           [--out <file.json>] [--smoke]\n  gridbench --compare <a.json> <b.json>\n\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2);
}

fn parse(args: &[String]) -> Cli {
    let mut cli = Cli {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut seconds_given = false;
    let mut i = 0;
    while i < args.len() {
        let value = || {
            args.get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--workload" => match workloads::find(value()) {
                Some(w) => cli.workloads.push(w),
                None => {
                    eprintln!("error: unknown workload `{}`", value());
                    usage();
                }
            },
            "--seed" => cli.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                cli.seconds = value().parse().unwrap_or_else(|_| usage());
                seconds_given = true;
            }
            "--trace" => {
                cli.trace = match value() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--out" => cli.out = Some(value().to_string()),
            "--smoke" => {
                cli.smoke = true;
                i += 1;
                continue;
            }
            _ => usage(),
        }
        i += 2;
    }
    if !(cli.seconds.is_finite() && cli.seconds > 0.0) {
        usage();
    }
    if cli.smoke && !seconds_given {
        cli.seconds = SMOKE_SECONDS;
    }
    if cli.workloads.is_empty() {
        cli.workloads = WORKLOADS.iter().collect();
    }
    cli
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        match (args.get(1), args.get(2), args.get(3)) {
            (Some(a), Some(b), None) => std::process::exit(compare::run(a, b)),
            _ => usage(),
        }
    }
    let cli = parse(&args);
    let bin = match daemon::build() {
        Ok(bin) => bin,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    // The build above may use every processor; from here on the generator
    // keeps one to itself and the daemon gets the rest.
    let cpus = affinity::allowed()
        .ok()
        .as_deref()
        .and_then(affinity::split);
    let mut fingerprint = host::fingerprint();
    fingerprint.cpu_split = match &cpus {
        Some(s) => format!(
            "generator on cpu {:?}, daemon on cpus {:?}",
            s.generator, s.daemon
        ),
        None => "none: fewer than two processors, generator and daemon share".into(),
    };
    if let Some(split) = &cpus {
        if let Err(e) = affinity::pin(&split.generator) {
            eprintln!("error: cannot set cpu affinity: {e}");
            std::process::exit(1);
        }
    }
    // The daemon's first processor carries the host reference, the rest
    // plain spinners; with one processor the reference floats.
    let reference = reference::start(cpus.as_ref().map(|split| split.daemon[0]));
    let _awake = cpus
        .as_ref()
        .map(|split| affinity::keep_awake(&split.daemon[1..]));
    println!(
        "gridbench: seed {}, {} s per workload{}{}; host: {} × {}, kernel {}, load {}, {}, commit {}; {}",
        cli.seed,
        cli.seconds,
        if cli.trace { ", traced pass on" } else { "" },
        if cli.smoke {
            " — SMOKE RUN, numbers are not comparable"
        } else {
            ""
        },
        fingerprint.nproc,
        fingerprint.cpu_model,
        fingerprint.kernel,
        fingerprint.load_average,
        fingerprint.rustc,
        fingerprint.git_commit,
        fingerprint.cpu_split,
    );
    if let Err(e) = layers::single_worker_thread() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    let cfg = RunConfig {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        // A smoke run is not comparable and a traced run's driver line
        // carries no `setup_s`: neither needs the repeats.
        single_setup: cli.smoke || cli.trace,
    };
    let mut reports = Vec::new();
    let mut last_line = String::new();
    let mut all_correct = true;
    for w in &cli.workloads {
        println!("-- {}: {}", w.name, w.why);
        let result = match run::run_workload(w, cfg, &bin, cpus.as_ref(), &reference) {
            Ok(r) => r,
            Err(e) => {
                // No result line: the driver must not mistake a broken
                // run for a measurement.
                eprintln!("error: {}: {e}", w.name);
                std::process::exit(1);
            }
        };
        let report = report::workload_report(w.name, &result);
        report::print_table(&report, cli.trace);
        all_correct &= report.correct;
        last_line = report::driver_line(&report, cli.trace);
        reports.push(report);
    }
    if let Some(path) = &cli.out {
        let file = ResultFile {
            schema: SCHEMA.to_string(),
            host: fingerprint,
            smoke: cli.smoke,
            seed: cli.seed,
            seconds: cli.seconds,
            workloads: reports,
        };
        let text = serde_json::to_string_pretty(&file).expect("result files serialise");
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("[wrote {path}]");
    }
    println!("{last_line}");
    std::process::exit(if all_correct { 0 } else { 1 });
}

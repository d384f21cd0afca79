//! # gridsec-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§4). One binary per artefact:
//!
//! | binary      | artefact  | what it prints                                        |
//! |-------------|-----------|-------------------------------------------------------|
//! | `fig7a`     | Fig. 7(a) | makespan vs risk threshold `f` (PSA, N = 1000)        |
//! | `fig7b`     | Fig. 7(b) | STGA makespan vs GA iterations (PSA, N = 1000)        |
//! | `fig8`      | Fig. 8    | makespan, N_fail/N_risk, slowdown, response (NAS)     |
//! | `fig9`      | Fig. 9    | per-site utilisation, 12 NAS sites × 7 algorithms     |
//! | `table2`    | Table 2   | α, β ratios and ranking vs the STGA (NAS)             |
//! | `fig10`     | Fig. 10   | PSA scaling, N ∈ {1000, 2000, 5000, 10000}            |
//! | `fig5`      | Fig. 5    | GA-vs-STGA convergence trajectories                   |
//! | `ablations` | DESIGN §6 | λ sweep, failure-timing, history knobs                |
//! | `loadgen`   | —         | end-to-end behaviour checks of the `gridsec-serve` daemon |
//!
//! Every figure binary accepts `--quick` (scaled-down workloads for smoke
//! runs), `--seed <u64>`, `--json <path>` (machine-readable dump used to
//! fill EXPERIMENTS.md), and `--threads <n>` (worker threads for the
//! parallel sections); `fig8` and `fig10` additionally honour `--reps <n>`
//! (independent replications fanned out over the thread pool — see
//! [`replicate`]; the other binaries warn and ignore it). `loadgen` has
//! its own flags (`--help`): the CI `--smoke` check and `--scenario`
//! replays. Nothing here times the serving path — that is `gridbench/`,
//! the repository's one benchmark.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod args;
pub mod runner;
pub mod table;

pub use args::BenchArgs;
pub use runner::{
    make_stga, maybe_dump, nas_setup, nas_sim_config, paper_schedulers, psa_setup, psa_sim_config,
    replicate, replication_seeds, run_one, ExperimentRecord, MetricMeans,
};
pub use table::{format_row, print_header, AsciiTable};

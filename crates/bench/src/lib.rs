//! # gridsec-bench
//!
//! The paper's evaluation (§4) as one program. Every artefact is a
//! function from the run configuration to an [`Artefact`] — records plus
//! text — in [`artefacts`]; the `paper` binary prints them:
//!
//! | `paper <name>` | artefact  | what it shows                                         |
//! |----------------|-----------|-------------------------------------------------------|
//! | `fig5`         | Fig. 5    | GA-vs-STGA convergence trajectories                   |
//! | `fig7a`        | Fig. 7(a) | makespan vs risk threshold `f` (PSA, N = 1000)        |
//! | `fig7b`        | Fig. 7(b) | STGA makespan vs GA iterations (PSA, N = 1000)        |
//! | `fig8`         | Fig. 8    | makespan, N_fail/N_risk, slowdown, response (NAS)     |
//! | `fig9`         | Fig. 9    | per-site utilisation, 12 NAS sites × 7 algorithms     |
//! | `table2`       | Table 2   | α, β ratios and ranking vs the STGA (NAS)             |
//! | `fig10`        | Fig. 10   | PSA scaling, N ∈ {1000, 2000, 5000, 10000}            |
//! | `ablations`    | —         | λ, failure timing, history knobs, NAS batch period    |
//! | `all`          | all of it | the eight above, each experiment simulated once       |
//!
//! Flags: `--quick` (scaled-down workloads), `--seed <u64>`, `--json
//! <path>` (every record of the run), `--threads <n>`, and `--reps <n>`
//! for the artefacts that replicate (`fig8`, `fig10`, and those two
//! within `all`; see [`replicate`]). After the tables `paper` prints the
//! [`claims`] ledger — which of the paper's statements this tree
//! reproduces — and exits nonzero at `--quick --seed 2005` if a status
//! differs from the recorded one; `tests/claims.rs` asserts the same in
//! tier-1, together with a digest of every artefact's records.
//!
//! The crate is the paper alone: it does not depend on `gridsec-serve`,
//! and nothing here times anything — that is `gridbench/`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod args;
pub mod artefacts;
pub mod claims;
pub mod runner;
pub mod table;

pub use args::BenchArgs;
pub use artefacts::{Artefact, NasRoster};
pub use runner::{psa_setup, psa_sim_config, replicate, replication_seeds, Outcome, Record};

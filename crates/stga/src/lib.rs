//! # gridsec-stga
//!
//! The paper's primary contribution: a fast **Space-Time Genetic
//! Algorithm** for trusted on-line Grid job scheduling (§3), plus the
//! conventional GA it improves upon.
//!
//! A conventional GA starts every scheduling round from a random
//! population and needs many generations to converge — too slow for
//! on-line use. The STGA observes that Grid workloads have *temporal
//! locality* (similar batches recur), so it keeps a bounded LRU **history
//! table** of `(batch signature, best chromosome)` pairs. At each round it
//! seeds the initial population with the chromosomes of sufficiently
//! similar past batches (vector similarity, Eq. 2), topped up with
//! heuristic solutions (Min-Min / Sufferage) and random chromosomes for
//! diversity. Evolution then starts near the convergence point — the
//! paper's Fig. 5 — and a handful of generations suffice (Fig. 7b).
//!
//! * [`ga`] — the generic engine: value-based roulette-wheel selection
//!   with elitism, single-point crossover and point mutation over a flat
//!   gene arena, each child evaluated as it is bred.
//! * [`kernel`] — the compiled fitness kernel: the round's grid + trust +
//!   security snapshot lowered into flat structure-of-arrays planes, and
//!   the replay that scores a chromosome against them.
//! * [`history`] — the LRU lookup table and Eq. 2 similarity.
//! * [`Stga`] — the full scheduler (implements
//!   [`BatchScheduler`](gridsec_sim::BatchScheduler)).
//! * [`StandardGa`] — the conventional GA baseline (random-only initial
//!   population), used by the Fig. 5/7b comparisons.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod chromosome;
pub mod conventional;
pub mod fitness;
pub mod ga;
pub mod history;
pub mod kernel;
pub mod ops;
pub mod params;
pub mod selection;
pub mod stga;

pub use chromosome::Chromosome;
pub use conventional::StandardGa;
pub use ga::{evolve, evolve_with_pool, GaPool, GaResult};
pub use history::{BatchSignature, HistoryTable};
pub use kernel::{FitnessKernel, KernelScratch};
pub use params::{GaParams, StgaParams};
pub use stga::Stga;

//! # gridsec-workloads
//!
//! Workload substrate for the IPDPS 2005 reproduction: the two benchmark
//! workloads of the paper's §4.2 plus trace I/O.
//!
//! * [`psa`] — the **parameter-sweep application** generator: `N`
//!   independent width-1 jobs with Poisson arrivals (rate 0.008/s) and
//!   20-level workloads in `[0, 300000]` s, over a 20-site grid with
//!   10-level speeds (Table 1).
//! * [`nas`] — a **synthetic NAS iPSC/860 trace** generator reproducing the
//!   published characteristics of the 1993 NASA Ames trace (Feitelson &
//!   Nitzberg): power-of-two job widths, log-uniform runtimes, diurnal +
//!   weekly modulated arrivals over 92 days, time-squeezed ×2 to 46 days,
//!   mapped to the paper's 12-site grid (4 × 16-node + 8 × 8-node).
//!   The real trace is not redistributable here; [`swf`] loads the genuine
//!   file when available (the substitution is listed in README.md,
//!   "Deviations from the paper").
//! * [`swf`] — Standard Workload Format parser/writer.
//! * [`arrival`] — homogeneous and modulated Poisson arrival processes.
//! * [`security`] — SD/SL assignment from the paper's uniform distributions.
//! * [`GridSpec`] — the grid grammar of scenario spec files.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod arrival;
mod grid_spec;
pub mod nas;
pub mod psa;
pub mod security;
pub mod swf;

pub use grid_spec::GridSpec;
pub use nas::{NasConfig, NasWorkload};
pub use psa::{PsaConfig, PsaWorkload};
pub use security::SecurityParams;

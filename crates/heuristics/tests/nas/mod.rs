//! The NAS-shaped 1024-job rounds the mapping suites run: the grid of
//! the `batch-sufferage-b1024` workload and two ways of stamping a
//! round's arrivals. Pulled into each suite with `mod nas;`.

#![allow(dead_code)] // every suite uses its own subset

use gridsec_core::etc::{EtcMatrix, NodeAvailability};
use gridsec_core::Time;
use gridsec_heuristics::common::MapCtx;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Jobs per round.
pub const JOBS: usize = 1024;

/// How a round's arrivals sit around its `now`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrivals {
    /// `now ± 300 s`, as a trace replayed against a fixed clock: a job
    /// that arrives past `now` cannot start before it arrives.
    Trace,
    /// At most 300 s before `now`, as the daemon stamps them (a job is
    /// only in a round once it has arrived): every job's floor is `now`.
    Daemon,
}

/// The NAS grid: four 16-node and eight 8-node sites, idle at time zero.
pub fn nas_avail() -> Vec<NodeAvailability> {
    let nodes = [16, 16, 16, 16, 8, 8, 8, 8, 8, 8, 8, 8];
    nodes
        .iter()
        .map(|&k| NodeAvailability::new(k, Time::ZERO))
        .collect()
}

/// Round `round` of [`JOBS`] jobs over the 12 NAS sites: power-of-two
/// widths (the 16-wide ones fit only the first four sites), work ÷ site
/// speed as ETC, risky mode (every fitting site is a candidate).
pub fn nas_round(rng: &mut ChaCha8Rng, round: usize, arrivals: Arrivals) -> MapCtx {
    let (n, m) = (JOBS, 12);
    let now = Time::new(round as f64 * 600.0);
    let speeds: Vec<f64> = (0..m).map(|s| 1.0 + (s % 5) as f64 * 0.5).collect();
    let mut etc = Vec::with_capacity(n * m);
    let mut widths = Vec::with_capacity(n);
    for _ in 0..n {
        let width = 1u32 << rng.gen_range(0..=4);
        let work = f64::from(rng.gen_range(1u32..=2_000));
        for (s, speed) in speeds.iter().enumerate() {
            let fits = width <= 8 || s < 4;
            etc.push(if fits { work / speed } else { f64::INFINITY });
        }
        widths.push(width);
    }
    MapCtx {
        etc: EtcMatrix::from_raw(n, m, etc),
        arrivals: (0..n)
            .map(|_| match arrivals {
                Arrivals::Trace => now + Time::new(rng.gen_range(-300.0..300.0)),
                Arrivals::Daemon => now - Time::new(rng.gen_range(0.0..300.0)),
            })
            .collect(),
        candidates: widths
            .iter()
            .map(|&w| (0..m).filter(|&s| w <= 8 || s < 4).collect())
            .collect(),
        widths,
        now,
        commit_order: vec![],
    }
}

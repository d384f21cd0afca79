//! The four workloads: what daemon is booted and what traffic it gets.
//!
//! Everything here is a constant of the benchmark. The offered rates of
//! the paced phase were set once, at about 20/40/80 % of the throughput
//! the commit that added the benchmark sustained (the median `saturate`
//! window over twenty runs: 59k, 2.5k, 21k and 45k jobs/s; 15/30/60 % for
//! `batch-sufferage-b1024`), rounded to two significant digits, and never
//! move afterwards: a later commit is measured against the same offered
//! load, not against a load that follows its own throughput.

/// Which paper grid the daemon serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridKind {
    /// The 20-site parameter-sweep grid (one node per site, width-1 jobs).
    Psa,
    /// The 12-site NAS grid (4 × 16 + 8 × 8 nodes, job widths 1..=8).
    Nas,
}

/// Which scheduler runs the rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedKind {
    /// Minimum completion time, Risky mode.
    MctRisky,
    /// The STGA with the paper's Table-1 parameters.
    StgaTable1,
    /// Sufferage, Risky mode.
    SufferageRisky,
    /// Min-Min, 0.5-Risky mode.
    MinMinHalfRisky,
}

/// When the daemon fires a scheduling round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Periodic boundaries plus an early round at this many pending jobs.
    Hybrid(usize),
    /// A round once this many jobs are pending.
    Count(usize),
}

/// Index into [`Workload::rates`] (`r20`, `r40`, `r80`) of the step the
/// headline latency metrics are read from.
pub const LATENCY_STEP: usize = 1;

/// One workload.
#[derive(Debug)]
pub struct Workload {
    /// The name every result row carries.
    pub name: &'static str,
    /// One sentence: why this workload exists (mirrors `BENCHMARK.json`).
    pub why: &'static str,
    /// The grid served.
    pub grid: GridKind,
    /// The scheduler run each round.
    pub sched: SchedKind,
    /// `--shards` the daemon boots with.
    pub shards: usize,
    /// Batch policy.
    pub policy: Policy,
    /// Wall-clock seconds between periodic boundaries.
    pub interval_s: f64,
    /// Submit connections held by the one generator thread.
    pub conns: usize,
    /// Jobs per submit frame.
    pub jobs_per_frame: usize,
    /// Offered jobs/s of the three paced steps (`r20`, `r40`, `r80`).
    pub rates: [f64; 3],
    /// Latency limit on the p99 submit RTT, µs (for `paced.slo_miss_ratio`
    /// and `paced.rate_under_slo`).
    pub slo_us: f64,
    /// Paced arrivals are bursty (Poisson + Pareto) rather than evenly
    /// spaced, and the control connection cycles heavy operations.
    pub mixed_control: bool,
    /// Jobs pushed closed-loop before the first timed request.
    pub warmup_jobs: usize,
    /// Frames replayed through the in-process pipeline by the traced pass.
    pub trace_frames: usize,
}

/// Table-1 PSA work levels span (0, 300 000] reference seconds — weeks of
/// grid time. A wall-clock daemon fed tens of thousands of such jobs per
/// second could never finish one, so every commit would stay "in flight"
/// forever and the per-round prune of finished work would scan the whole
/// history. The benchmark time-squeezes work (as the paper squeezes the
/// NAS trace) so that a job lasts well under a millisecond and the grid
/// itself is never the bottleneck; scheduling cost does not depend on the
/// scale.
pub const PSA_MAX_WORK: f64 = 5e-4;
/// NAS runtimes, squeezed likewise (log-uniform between these bounds).
pub const NAS_MIN_RUNTIME: f64 = 2e-6;
/// See [`NAS_MIN_RUNTIME`].
pub const NAS_MAX_RUNTIME: f64 = 2e-4;
/// The daemon's grid (and its STGA training jobs) always come from this
/// generator seed: the grid is part of the workload definition, `--seed`
/// drives the traffic.
pub const GRID_SEED: u64 = 2005;
/// Jobs generated from `--seed`; frames cycle through this pool with
/// fresh job ids.
pub const POOL_JOBS: usize = 65_536;
/// Jobs of the verify slice (a whole number of 64-job frames).
pub const VERIFY_JOBS: usize = 4_096;
/// Tenant label on every submit frame (turns on queue-wait telemetry).
pub const TENANT: &str = "gb";

/// `mixed-control-c16`'s periodic boundary, wall-clock seconds. A reshard
/// barrier drains every shard, and a drain fires the armed periodic
/// boundary too — which on a wall-clock daemon moves the session clock up
/// to one interval into the future, after which submits stamped "now" are
/// refused ("arrives at … but the clock is already at …") until real time
/// catches up. With a 1 ms interval the jump is always shorter than the
/// barrier itself, so no frame fails; with the 50 ms the other workloads
/// use, each reshard fails a few hundred submits. (A daemon defect the
/// benchmark steps around rather than measures; see the README.)
pub const MIXED_INTERVAL_S: f64 = 0.001;

/// The workloads, in report order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wire-mct-c256",
        why: "MCT rounds cost microseconds, so the connection layer, frame decode/encode, routing and reply reordering do nearly all the daemon's work across 256 connections.",
        grid: GridKind::Psa,
        sched: SchedKind::MctRisky,
        shards: 2,
        policy: Policy::Hybrid(16),
        interval_s: 0.05,
        conns: 256,
        jobs_per_frame: 1,
        rates: [12_000.0, 24_000.0, 47_000.0],
        slo_us: 2_000.0,
        mixed_control: false,
        warmup_jobs: 20_000,
        trace_frames: 20_000,
    },
    Workload {
        name: "round-stga-c2",
        why: "The Table-1 STGA round (kernel compile, evaluate, evolve, history lookup/insert) is over 90% of daemon CPU and wire work is negligible; conn-layer changes should not move it.",
        grid: GridKind::Psa,
        sched: SchedKind::StgaTable1,
        shards: 1,
        policy: Policy::Hybrid(16),
        interval_s: 0.05,
        conns: 2,
        jobs_per_frame: 1,
        rates: [510.0, 1_000.0, 2_000.0],
        slo_us: 20_000.0,
        mixed_control: false,
        warmup_jobs: 640,
        trace_frames: 1_600,
    },
    Workload {
        name: "batch-sufferage-b1024",
        why: "16-job frames amortise the wire and 1024-job Sufferage rounds on the multi-node NAS grid make the O(batch^2 x sites) mapping loop and NodeAvailability commits dominate.",
        grid: GridKind::Nas,
        sched: SchedKind::SufferageRisky,
        shards: 1,
        policy: Policy::Count(1024),
        interval_s: 3_600.0,
        conns: 2,
        jobs_per_frame: 16,
        rates: [3_200.0, 6_300.0, 13_000.0],
        slo_us: 100_000.0,
        mixed_control: false,
        warmup_jobs: 8_192,
        trace_frames: 768,
    },
    Workload {
        name: "mixed-control-c16",
        why: "Bursty submits beside reconfigure, reshard (2<->4 shards) and fail/rejoin control frames: a submit fast path paid for by the router path, or a broken barrier, shows only here.",
        grid: GridKind::Psa,
        sched: SchedKind::MinMinHalfRisky,
        shards: 2,
        policy: Policy::Hybrid(16),
        interval_s: MIXED_INTERVAL_S,
        conns: 16,
        jobs_per_frame: 1,
        rates: [9_000.0, 18_000.0, 36_000.0],
        slo_us: 400_000.0,
        mixed_control: true,
        warmup_jobs: 10_000,
        trace_frames: 20_000,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How a run's `--seconds` are spent, in units `u = seconds ÷ 11`: the
/// closed-loop `saturate` phase is [`WINDOWS`] back-to-back windows of `u`;
/// then three open-loop steps of `u`, `4·u` and `u` — the middle one, which
/// the headline latencies are read from, gets the time.
#[derive(Debug, Clone, Copy)]
pub struct RunShape {
    /// One `saturate` window, nanoseconds.
    pub window_ns: u64,
    /// The three `paced` steps, nanoseconds.
    pub step_ns: [u64; 3],
}

/// Closed-loop windows per run.
pub const WINDOWS: usize = 5;
/// The idle gap before and after every window in which the host reference
/// is read (on top of `--seconds`).
pub const GAP_NS: u64 = 100_000_000;

impl RunShape {
    /// Splits `seconds` of measurement into the fixed phase proportions.
    pub fn new(seconds: f64) -> RunShape {
        let unit = seconds / 11.0 * 1e9;
        RunShape {
            window_ns: unit as u64,
            step_ns: [unit as u64, (4.0 * unit) as u64, unit as u64],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_rates_ascend() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.rates[0] < w.rates[1] && w.rates[1] < w.rates[2]);
            assert_eq!(find(w.name).unwrap().name, w.name);
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert_eq!(POOL_JOBS % w.jobs_per_frame, 0);
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn run_shape_fills_the_seconds() {
        let s = RunShape::new(22.0);
        assert_eq!(s.window_ns, 2_000_000_000);
        assert_eq!(s.step_ns, [2_000_000_000, 8_000_000_000, 2_000_000_000]);
    }
}

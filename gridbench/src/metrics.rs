//! The metric catalogue: every name, unit, direction and bound the
//! benchmark reports. `BENCHMARK.json` at the repository root carries the
//! same table for the driver; a test keeps the two in step.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

#[cfg(test)]
impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, unique across both tables.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the daemon sees. Reported on every workload with
/// `--trace 0`. Throughput and CPU cost are host-normalised medians of the
/// five `saturate` windows (`reference.rs`); between runs of the commit
/// that added the benchmark they spread 3–9 % (first to third quartile of
/// ten), which three times over is the 25 % the contract caps a bound at.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("jobs_per_s", "jobs/s", Higher, 0.25),
    e2e("daemon_cpu_us_per_job", "us", Lower, 0.25),
    e2e("daemon_rss_mb", "MiB", Lower, 0.20),
];

/// What single layers do. Reported with `--trace 1`; no bounds. Sources:
/// (w) the wire and `/proc/<pid>` of the child during the run, (c) the
/// generator's own counts, (t) the traced in-process pass.
pub const PER_LAYER: &[Metric] = &[
    // Demoted end-to-end metrics: what a client sees, but differing by more
    // than a tenth from run to run on some workload, so reported unbounded.
    layer("submit_rtt_p50_us", "us", Lower),
    layer("submit_rtt_p99_us", "us", Lower),
    layer("control_rtt_p50_us", "us", Lower),
    layer("control_rtt_p90_us", "us", Lower),
    layer("ops_failed_ratio", "ratio", Lower),
    layer("saturate.jobs_per_s_raw", "jobs/s", Higher),
    layer("saturate.cpu_us_per_job_raw", "us", Lower),
    layer("host.slowdown", "ratio", Lower),
    // serve.conn (c, w)
    layer("serve.conn.connect_us_p50", "us", Lower),
    layer("serve.conn.connect_us_p99", "us", Lower),
    layer("serve.conn.ramp_s", "s", Lower),
    layer("serve.conn.cpu_sys_us_per_job", "us", Lower),
    layer("serve.conn.ctx_switches_per_job", "count", Lower),
    layer("serve.conn.bytes_in_per_job", "B", Lower),
    layer("serve.conn.bytes_out_per_job", "B", Lower),
    layer("serve.conn.peer_closed", "count", Lower),
    layer("serve.conn.residual_us", "us", Lower),
    // serve.protocol (t)
    layer("serve.protocol.decode_ns_per_frame", "ns", Lower),
    layer("serve.protocol.decode_ns_per_job", "ns", Lower),
    layer("serve.protocol.encode_ns_per_frame", "ns", Lower),
    layer("serve.protocol.frame_bytes_mean", "B", Lower),
    layer("serve.protocol.reply_bytes_mean", "B", Lower),
    // serve.daemon: the router (w, c)
    layer("serve.daemon.boot_s", "s", Lower),
    layer("serve.daemon.threads", "count", Lower),
    layer("serve.daemon.rss_bytes_per_job", "B", Lower),
    layer("serve.daemon.cpu_user_us_per_job", "us", Lower),
    layer("serve.daemon.query_rtt_us_p50", "us", Lower),
    layer("serve.daemon.telemetry_rtt_us_p50", "us", Lower),
    layer("serve.daemon.reconfigure_rtt_us_p50", "us", Lower),
    layer("serve.daemon.failsite_rtt_us_p50", "us", Lower),
    layer("serve.daemon.control_rtt_us_p99", "us", Lower),
    // serve.shard (w)
    layer("serve.shard.round_us_p50", "us", Lower),
    layer("serve.shard.round_us_p99", "us", Lower),
    layer("serve.shard.rounds", "count", Higher),
    layer("serve.shard.batch_size_mean", "jobs", Higher),
    layer("serve.shard.busy_rejections", "count", Lower),
    layer("serve.shard.queue_wait_us_p50", "us", Lower),
    layer("serve.shard.round_busy_ratio", "ratio", Lower),
    // serve.session (t)
    layer("serve.session.enqueue_ns_per_job", "ns", Lower),
    layer("serve.session.drain_ms", "ms", Lower),
    // serve.reshard (c, t)
    layer("serve.reshard.rtt_ms_p50", "ms", Lower),
    layer("serve.reshard.rtt_ms_max", "ms", Lower),
    layer("serve.reshard.rtt_samples", "count", Higher),
    layer("serve.reshard.jobs_migrated", "jobs", Lower),
    layer("serve.reshard.transfer_us", "us", Lower),
    // sim (t)
    layer("sim.round_us_p50", "us", Lower),
    layer("sim.route_ns_per_job", "ns", Lower),
    layer("sim.engine_jobs_per_s", "jobs/s", Higher),
    layer("sim.verify_makespan_s", "s", Lower),
    layer("sim.verify_schedule_fnv32", "count", Lower),
    layer("sim.scenario_compile_ms", "ms", Lower),
    // heuristics (t)
    layer("heuristics.map_min_min_us_b16", "us", Lower),
    layer("heuristics.map_min_min_us_b1024", "us", Lower),
    layer("heuristics.map_sufferage_us_b16", "us", Lower),
    layer("heuristics.map_sufferage_us_b1024", "us", Lower),
    layer("heuristics.mct_ns_per_job", "ns", Lower),
    // core (t)
    layer("core.avail_commit_ns", "ns", Lower),
    layer("core.etc_build_us_b1024", "us", Lower),
    layer("core.schedule_validate_us", "us", Lower),
    // stga (t)
    layer("stga.kernel_compile_us", "us", Lower),
    layer("stga.evaluate_full_ns_per_gene", "ns", Lower),
    layer("stga.evaluate_delta_ns", "ns", Lower),
    layer("stga.evolve_ms_per_round", "ms", Lower),
    layer("stga.history_lookup_us", "us", Lower),
    layer("stga.history_insert_us", "us", Lower),
    layer("stga.history_hit_ratio", "ratio", Higher),
    layer("stga.train_s", "s", Lower),
    // workloads, vendor (t)
    layer("workloads.generate_jobs_per_s", "jobs/s", Higher),
    layer("vendor.serde_json.parse_mb_per_s", "MB/s", Higher),
    layer("vendor.rayon.dispatch_us", "us", Lower),
    // the generator and the host, so a bad run is recognisable (c)
    layer("gen.late_us_p99", "us", Lower),
    layer("gen.cpu_us_per_job", "us", Lower),
    layer("gen.window_cv", "ratio", Lower),
    layer("gen.drift_ratio", "ratio", Higher),
    layer("paced.r20.rtt_p50_us", "us", Lower),
    layer("paced.r20.rtt_p99_us", "us", Lower),
    layer("paced.r40.rtt_p90_us", "us", Lower),
    layer("paced.r80.rtt_p50_us", "us", Lower),
    layer("paced.r80.rtt_p99_us", "us", Lower),
    layer("paced.slo_miss_ratio", "ratio", Lower),
    layer("paced.rate_under_slo", "jobs/s", Higher),
    layer("host.calib_ms_before", "ms", Lower),
    layer("host.calib_ms_after", "ms", Lower),
    layer("trace.spans", "count", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
];

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad name {}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                m.unit
            );
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name));
            assert!(seen.insert(w.name), "workload name reused: {}", w.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert_eq!(END_TO_END[0].name, "setup_s");
    }

    #[derive(serde::Deserialize)]
    struct MetricEntry {
        name: String,
        unit: String,
        better: String,
        bound: Option<f64>,
    }

    #[derive(serde::Deserialize)]
    struct WorkloadEntry {
        name: String,
        why: String,
    }

    #[derive(serde::Deserialize)]
    struct BenchmarkFile {
        run_seconds: f64,
        workloads: Vec<WorkloadEntry>,
        end_to_end: Vec<MetricEntry>,
        per_layer: Vec<MetricEntry>,
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program prints. They must name the same metrics and workloads.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let file: BenchmarkFile = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(file.run_seconds, crate::DEFAULT_SECONDS);
        assert_eq!(file.end_to_end.len(), END_TO_END.len());
        for (j, m) in file.end_to_end.iter().zip(END_TO_END) {
            assert_eq!((j.name.as_str(), j.unit.as_str()), (m.name, m.unit));
            assert_eq!(j.better, m.better.word());
            let bound = j.bound.expect("end-to-end metrics carry a bound");
            assert!((bound - m.bound).abs() < 1e-12, "{}: bound {bound}", m.name);
        }
        assert_eq!(file.per_layer.len(), PER_LAYER.len());
        for (j, m) in file.per_layer.iter().zip(PER_LAYER) {
            assert_eq!((j.name.as_str(), j.unit.as_str()), (m.name, m.unit));
            assert_eq!(j.better, m.better.word());
            assert!(
                j.bound.is_none(),
                "{}: per-layer metrics have no bound",
                m.name
            );
        }
        assert_eq!(file.workloads.len(), WORKLOADS.len());
        for (j, w) in file.workloads.iter().zip(&WORKLOADS) {
            assert_eq!((j.name.as_str(), j.why.as_str()), (w.name, w.why));
        }
    }
}

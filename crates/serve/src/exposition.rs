//! The Prometheus-style plaintext page served by the metrics listener
//! ([`DaemonOptions::metrics_addr`](crate::DaemonOptions::metrics_addr)).
//!
//! [`render`] is a pure function of a [`Page`]: the router gathers the
//! numbers (merged [`ServeMetrics`] with the archives of retired shards
//! folded in, so a reshard never resets a `_total`; per-shard gauges; the
//! connection layer's counters) and this module only formats them.
//! [`render`] destructures its [`Page`], and the test below
//! `ServeMetrics`, without a rest pattern, so a new field of either does
//! not build until it is rendered or listed as wire-only.

use crate::conn::{PARK_LABELS, WAKE_OUTCOMES};
use crate::protocol::ServeMetrics;
use gridsec_obs::recorder::RecorderStatus;
use gridsec_obs::HistogramSnapshot;
use std::fmt::{Display, Write};

/// Everything one scrape shows. `metrics` is grid-wide (live shards merged
/// with the router's archive); `pending` and `queue_depth` are per live
/// shard; `parked` is in [`PARK_LABELS`] order, `io_wakes` and
/// `shard_pokes` in [`WAKE_OUTCOMES`] order.
pub(crate) struct Page<'a> {
    pub metrics: &'a ServeMetrics,
    pub pending: &'a [usize],
    pub queue_depth: &'a [usize],
    pub reshard_barrier_nanos: &'a HistogramSnapshot,
    pub reshard_migrated_jobs: &'a HistogramSnapshot,
    /// Nanoseconds the router spent per event (control frame, scrape,
    /// autoscaler tick); rendered in seconds.
    pub router_frame_nanos: &'a HistogramSnapshot,
    pub connections: usize,
    pub slow_disconnects: usize,
    pub idle_reaped: usize,
    pub parked: [usize; 3],
    pub io_wakes: [u64; 2],
    pub shard_pokes: [u64; 2],
    pub io_events_per_pass: &'a HistogramSnapshot,
    pub recorder: RecorderStatus,
}

/// Renders the page: the counter families, the gauges, then the
/// round-latency, batch-size, reshard and router-time histograms in
/// cumulative-`le` form.
pub(crate) fn render(page: &Page<'_>) -> String {
    // No rest pattern: a new `Page` field is an unused binding (a build
    // error under CI's `-D warnings`) until it is rendered.
    let Page {
        metrics: m,
        pending,
        queue_depth,
        reshard_barrier_nanos,
        reshard_migrated_jobs,
        router_frame_nanos,
        connections,
        slow_disconnects,
        idle_reaped,
        parked,
        io_wakes,
        shard_pokes,
        io_events_per_pass,
        recorder,
    } = page;
    let overwritten = (recorder.recorded).saturating_sub(recorder.retained as u64);
    #[rustfmt::skip]
    let counters: [(&str, &str, &dyn Display); 12] = [
        ("gridsec_jobs_submitted_total", "Jobs accepted over the daemon's lifetime.", &m.jobs_submitted),
        ("gridsec_rounds_total", "Non-empty scheduling rounds run.", &m.rounds),
        ("gridsec_scheduler_seconds_total", "Wall-clock seconds spent inside the scheduler.", &m.scheduler_seconds),
        ("gridsec_busy_rejections_total", "Submits rejected by queue backpressure.", &m.busy_rejections),
        ("gridsec_sites_failed_total", "Site failures applied.", &m.sites_failed),
        ("gridsec_sites_rejoined_total", "Site rejoins applied.", &m.sites_rejoined),
        ("gridsec_jobs_requeued_total", "Jobs requeued after a site failure.", &m.jobs_requeued),
        ("gridsec_reshards_completed_total", "Completed live reshards.", &m.reshards_completed),
        ("gridsec_jobs_migrated_total", "Jobs that changed shard across reshards.", &m.jobs_migrated),
        ("gridsec_slow_disconnects_total", "Connections dropped for exceeding the write-buffer bound.", slow_disconnects),
        ("gridsec_idle_reaped_total", "Connections reaped by the idle timeout.", idle_reaped),
        ("gridsec_recorder_events_overwritten_total", "Flight-recorder events lost to ring wrap-around (recorded - retained).", &overwritten),
    ];
    #[rustfmt::skip]
    let per_shard = [
        ("gridsec_direct_queue_depth", "Submit frames queued for a shard.", queue_depth),
        ("gridsec_pending", "Jobs waiting for the next round, per shard.", pending),
    ];
    #[rustfmt::skip]
    let gauges = [
        ("gridsec_jobs_scheduled", "Jobs with a standing commitment.", m.jobs_scheduled),
        ("gridsec_connections", "Client connections currently open.", *connections),
    ];
    // The last column: recorded in nanoseconds, shown in seconds.
    #[rustfmt::skip]
    let histograms = [
        ("gridsec_round_nanos", "Scheduler wall-clock nanoseconds per round.", &m.round_nanos_hist, false),
        ("gridsec_batch_size", "Jobs per non-empty scheduling round.", &m.batch_size_hist, false),
        ("gridsec_reshard_barrier_nanos", "Wall-clock nanoseconds a reshard barrier held.", reshard_barrier_nanos, false),
        ("gridsec_reshard_migrated_jobs", "Jobs migrated per completed reshard.", reshard_migrated_jobs, false),
        ("gridsec_router_frame_seconds", "Seconds the router spent on one control frame, scrape or autoscaler tick (no other control frame is served meanwhile).", router_frame_nanos, true),
        ("gridsec_io_events_per_pass", "Epoll events served per I/O-loop pass (its count is the pass count).", io_events_per_pass, false),
    ];

    let mut out = String::with_capacity(4096);
    for (name, help, value) in counters {
        family(&mut out, name, "counter", help);
        let _ = writeln!(out, "{name} {value}");
    }
    let (name, help) = (
        "gridsec_submits_parked_total",
        "Submit frames that waited on their connection.",
    );
    family(&mut out, name, "counter", help);
    for (label, n) in PARK_LABELS.iter().zip(parked) {
        let _ = writeln!(out, "{name}{{reason=\"{label}\"}} {n}");
    }
    #[rustfmt::skip]
    let wakes = [
        ("gridsec_io_wakes_total", "Reply sends that listed a connection for its I/O thread: wrote the waker byte, or found a wake pending.", io_wakes),
        ("gridsec_shard_pokes_total", "Submit pushes: owed the shard a poke (sent at the end of the I/O pass), or found it poked.", shard_pokes),
    ];
    for (name, help, by_outcome) in wakes {
        family(&mut out, name, "counter", help);
        for (label, n) in WAKE_OUTCOMES.iter().zip(by_outcome) {
            let _ = writeln!(out, "{name}{{outcome=\"{label}\"}} {n}");
        }
    }
    for (name, help, values) in per_shard {
        family(&mut out, name, "gauge", help);
        for (k, v) in values.iter().enumerate() {
            let _ = writeln!(out, "{name}{{shard=\"{k}\"}} {v}");
        }
    }
    for (name, help, value) in gauges {
        family(&mut out, name, "gauge", help);
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, help, h, nanos_as_seconds) in histograms {
        histogram(&mut out, name, help, h, nanos_as_seconds);
    }
    out
}

fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
}

/// One histogram family: cumulative `_bucket` lines with log2 `le`
/// bounds, the implicit `+Inf` bucket (the top log2 bucket covers all of
/// `u64`, so it equals the count), then `_sum` and `_count`. With
/// `nanos_as_seconds` the recorded values are nanoseconds and the bounds
/// and the sum are shown in seconds.
fn histogram(
    out: &mut String,
    name: &str,
    help: &str,
    h: &HistogramSnapshot,
    nanos_as_seconds: bool,
) {
    let show = |v: u64| match nanos_as_seconds {
        true => (v as f64 / 1e9).to_string(),
        false => v.to_string(),
    };
    family(out, name, "histogram", help);
    for (upper, c) in h.cumulative_buckets() {
        let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {c}", show(upper));
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
    let _ = writeln!(out, "{name}_sum {}\n{name}_count {}", show(h.sum), h.count);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_core::Time;
    use gridsec_obs::Histogram;

    fn hist(samples: &[u64]) -> HistogramSnapshot {
        let h = Histogram::new();
        samples.iter().for_each(|&s| h.record(s));
        h.snapshot()
    }

    /// Every `ServeMetrics` field is on the page under its own name with
    /// its own value, or is named here as wire-only. The destructuring has
    /// no `..`: a new field breaks this test's build until it is placed.
    #[test]
    fn every_serve_metrics_field_is_rendered_or_listed_as_wire_only() {
        let metrics = ServeMetrics {
            jobs_submitted: 101,
            jobs_scheduled: 102,
            pending: 103,
            rounds: 104,
            scheduler_seconds: 105.5,
            sites_failed: 108,
            sites_rejoined: 109,
            jobs_requeued: 110,
            busy_rejections: 111,
            reshards_completed: 112,
            jobs_migrated: 113,
            round_nanos_hist: hist(&[900, 1_100]),
            batch_size_hist: hist(&[3, 4, 5]),
            round_nanos: vec![900, 1_100],
            virtual_now: Time::new(106.0),
            max_completion: Time::new(107.0),
        };
        let recorder = RecorderStatus {
            enabled: true,
            threads: 2,
            retained: 1_000,
            recorded: 1_120,
            capacity: 4_096,
        };
        let text = render(&Page {
            metrics: &metrics,
            pending: &[100, 3],
            queue_depth: &[7, 0],
            reshard_barrier_nanos: &hist(&[1 << 20]),
            reshard_migrated_jobs: &hist(&[6, 6, 6, 6]),
            router_frame_nanos: &hist(&[1_000, 2_500_000_000]),
            connections: 114,
            slow_disconnects: 115,
            idle_reaped: 116,
            parked: [117, 118, 119],
            io_wakes: [121, 122],
            shard_pokes: [123, 124],
            io_events_per_pass: &hist(&[1, 2, 256]),
            recorder,
        });
        let ServeMetrics {
            jobs_submitted,
            jobs_scheduled,
            pending, // shown where it can be acted on: per shard
            rounds,
            scheduler_seconds,
            sites_failed,
            sites_rejoined,
            jobs_requeued,
            busy_rejections,
            reshards_completed,
            jobs_migrated,
            round_nanos_hist,
            batch_size_hist,
            // Wire-only: the raw latency window `gridbench` reads, and
            // simulated instants (neither a rate nor a level).
            round_nanos: _,
            virtual_now: _,
            max_completion: _,
        } = metrics;
        let lines = format!(
            "gridsec_jobs_submitted_total {jobs_submitted}
gridsec_jobs_scheduled {jobs_scheduled}
gridsec_pending{{shard=\"0\"}} {}
gridsec_pending{{shard=\"1\"}} 3
gridsec_rounds_total {rounds}
gridsec_scheduler_seconds_total {scheduler_seconds}
gridsec_sites_failed_total {sites_failed}
gridsec_sites_rejoined_total {sites_rejoined}
gridsec_jobs_requeued_total {jobs_requeued}
gridsec_busy_rejections_total {busy_rejections}
gridsec_reshards_completed_total {reshards_completed}
gridsec_jobs_migrated_total {jobs_migrated}
gridsec_round_nanos_sum {}
gridsec_round_nanos_count {}
gridsec_batch_size_sum {}
gridsec_batch_size_count {}
gridsec_direct_queue_depth{{shard=\"0\"}} 7
gridsec_reshard_barrier_nanos_count 1
gridsec_reshard_migrated_jobs_sum 24
gridsec_router_frame_seconds_bucket{{le=\"0.000001023\"}} 1
gridsec_router_frame_seconds_sum 2.500001
gridsec_router_frame_seconds_count 2
gridsec_connections 114
gridsec_slow_disconnects_total 115
gridsec_idle_reaped_total 116
gridsec_submits_parked_total{{reason=\"fenced\"}} 117
gridsec_submits_parked_total{{reason=\"sealed\"}} 118
gridsec_submits_parked_total{{reason=\"full\"}} 119
gridsec_recorder_events_overwritten_total 120
gridsec_io_wakes_total{{outcome=\"sent\"}} 121
gridsec_io_wakes_total{{outcome=\"coalesced\"}} 122
gridsec_shard_pokes_total{{outcome=\"sent\"}} 123
gridsec_shard_pokes_total{{outcome=\"coalesced\"}} 124
gridsec_io_events_per_pass_sum 259
gridsec_io_events_per_pass_count 3",
            pending - 3,
            round_nanos_hist.sum,
            round_nanos_hist.count,
            batch_size_hist.sum,
            batch_size_hist.count,
        );
        for line in lines.lines() {
            assert!(text.lines().any(|l| l == line), "no `{line}` in:\n{text}");
        }
    }
}

//! Result files and the two output formats: the table a person reads and
//! the one-line JSON object the driver reads.

use crate::host::Fingerprint;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::run::RunResult;
use serde::{Deserialize, Serialize};

/// Schema tag of result files.
pub const SCHEMA: &str = "gridbench/v1";

/// One reported number.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Reading {
    /// Metric name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
    /// Samples behind a percentile or median, where there are any.
    pub samples: Option<usize>,
    /// `(max − min) ÷ median` over the run's five windows, where the
    /// metric has windows.
    pub spread: Option<f64>,
}

/// One workload's results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadReport {
    /// Workload name.
    pub name: String,
    /// Verify slice, ledger and quality pin held.
    pub correct: bool,
    /// Frames sent.
    pub attempted: u64,
    /// Frames failed.
    pub failed: u64,
    /// The host reference's first and last readings differed by more than a tenth.
    pub noisy: bool,
    /// Remarks (drift, noise, ledger errors).
    pub notes: Vec<String>,
    /// Jobs accepted per second in each `saturate` window, host-normalised.
    pub window_jobs_per_s: Vec<f64>,
    /// The host reference around each window ÷ its nominal reading.
    pub window_slowdown: Vec<f64>,
    /// Every end-to-end metric.
    pub end_to_end: Vec<Reading>,
    /// Every per-layer metric measured (all of them with the traced pass).
    pub per_layer: Vec<Reading>,
}

/// A whole result file (`--out`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResultFile {
    /// [`SCHEMA`].
    pub schema: String,
    /// Where it was measured.
    pub host: Fingerprint,
    /// `--smoke` run: short windows, numbers not comparable.
    pub smoke: bool,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// One entry per workload run.
    pub workloads: Vec<WorkloadReport>,
}

fn readings(
    catalogue: &[Metric],
    values: &std::collections::BTreeMap<&'static str, f64>,
    r: &RunResult,
) -> Vec<Reading> {
    catalogue
        .iter()
        .filter_map(|m| {
            values.get(m.name).map(|&value| Reading {
                name: m.name.to_string(),
                value,
                unit: m.unit.to_string(),
                samples: r.samples.get(m.name).copied(),
                spread: r.window_spread.get(m.name).copied(),
            })
        })
        .collect()
}

/// Turns a run into its report entry.
pub fn workload_report(name: &str, r: &RunResult) -> WorkloadReport {
    WorkloadReport {
        name: name.to_string(),
        correct: r.correct,
        attempted: r.attempted,
        failed: r.failed,
        noisy: r.noisy,
        notes: r.notes.clone(),
        window_jobs_per_s: r.window_jobs_per_s.clone(),
        window_slowdown: r.window_slowdown.clone(),
        end_to_end: readings(END_TO_END, &r.end_to_end, r),
        per_layer: readings(PER_LAYER, &r.per_layer, r),
    }
}

/// The table a person reads.
pub fn print_table(w: &WorkloadReport, with_layers: bool) {
    println!(
        "== {} — correct: {}, frames attempted: {}, failed: {} (ops_failed_ratio {}){}",
        w.name,
        w.correct,
        w.attempted,
        w.failed,
        w.failed as f64 / w.attempted.max(1) as f64,
        if w.noisy { " — NOISY" } else { "" }
    );
    let row = |r: &Reading| {
        let n = r.samples.map_or(String::new(), |n| format!("  n={n}"));
        let s = r.spread.map_or(String::new(), |s| {
            format!("  window spread {:.1}%", s * 100.0)
        });
        println!("  {:<40} {:>16.4} {:<6}{n}{s}", r.name, r.value, r.unit);
    };
    w.end_to_end.iter().for_each(row);
    let windows: Vec<String> = w
        .window_jobs_per_s
        .iter()
        .map(|r| format!("{r:.0}"))
        .collect();
    let slowdown: Vec<String> = w
        .window_slowdown
        .iter()
        .map(|k| format!("{k:.2}"))
        .collect();
    println!(
        "  saturate windows, jobs/s: {}; host slowdown: {}",
        windows.join(" "),
        slowdown.join(" ")
    );
    if with_layers {
        println!("  -- per layer");
        w.per_layer.iter().for_each(row);
    }
    for note in &w.notes {
        println!("  note: {note}");
    }
}

/// The driver's line: exactly `correct`, `attempted`, `failed` and
/// `metrics` — every end-to-end metric, or with the traced pass every
/// per-layer metric. Values keep all their digits.
pub fn driver_line(w: &WorkloadReport, traced: bool) -> String {
    let list = if traced { &w.per_layer } else { &w.end_to_end };
    let metrics: Vec<String> = list
        .iter()
        .map(|r| {
            format!(
                "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                r.name, r.value, r.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        w.correct,
        w.attempted.max(1),
        w.failed,
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> WorkloadReport {
        WorkloadReport {
            name: "w".into(),
            correct: true,
            attempted: 10,
            failed: 0,
            noisy: false,
            notes: vec![],
            window_jobs_per_s: vec![1200.0, 1234.5678901, 1300.0],
            window_slowdown: vec![1.0, 1.1, 0.9],
            end_to_end: vec![Reading {
                name: "jobs_per_s".into(),
                value: 1234.5678901,
                unit: "jobs/s".into(),
                samples: Some(5),
                spread: Some(0.01),
            }],
            per_layer: vec![Reading {
                name: "trace.spans".into(),
                value: 7.0,
                unit: "count".into(),
                samples: None,
                spread: None,
            }],
        }
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = driver_line(&report(), false);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":\
             {\"jobs_per_s\":{\"value\":1234.5678901,\"unit\":\"jobs/s\"}}}"
        );
        assert!(driver_line(&report(), true).contains("\"trace.spans\":{\"value\":7.0,"));
    }

    #[test]
    fn result_files_round_trip() {
        let file = ResultFile {
            schema: SCHEMA.into(),
            host: crate::host::fingerprint(),
            smoke: true,
            seed: 7,
            seconds: 11.0,
            workloads: vec![report()],
        };
        let text = serde_json::to_string_pretty(&file).unwrap();
        let back: ResultFile = serde_json::from_str(&text).unwrap();
        assert_eq!(back.workloads[0].end_to_end[0].value, 1234.5678901);
        assert_eq!(back.workloads[0].per_layer[0].samples, None);
        assert!(back.smoke);
    }
}

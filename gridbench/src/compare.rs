//! `--compare a.json b.json`: is `b` no worse than `a`?
//!
//! One row per workload × end-to-end metric: the relative difference,
//! signed so that positive is worse, against the metric's bound. A metric
//! whose own five windows spread wider than its bound in either file is
//! `unresolved` — the run cannot tell a change of that size from noise —
//! never `ok`. Any `regressed` row (or more failed frames, or a lost
//! correctness check) makes the exit code nonzero.

use crate::metrics::{self, Better};
use crate::report::{ResultFile, WorkloadReport};

/// Verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// The within-run spread exceeds the bound.
    Unresolved,
}

/// One comparison row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Value in the first file.
    pub a: f64,
    /// Value in the second file.
    pub b: f64,
    /// `(b − a) ÷ a`, signed so that positive means worse.
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
    /// Verdict.
    pub verdict: Verdict,
}

/// How much worse `b` is than `a`, as a share of `a`.
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

fn compare_workload(a: &WorkloadReport, b: &WorkloadReport, rows: &mut Vec<Row>) {
    for ra in &a.end_to_end {
        let (Some(rb), Some(m)) = (
            b.end_to_end.iter().find(|r| r.name == ra.name),
            metrics::end_to_end(&ra.name),
        ) else {
            continue;
        };
        let worse = worse_by(m.better, ra.value, rb.value);
        let spread = ra.spread.unwrap_or(0.0).max(rb.spread.unwrap_or(0.0));
        let verdict = if spread > m.bound {
            Verdict::Unresolved
        } else if worse > m.bound {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        rows.push(Row {
            workload: a.name.clone(),
            metric: ra.name.clone(),
            a: ra.value,
            b: rb.value,
            worse_by: worse,
            bound: m.bound,
            verdict,
        });
    }
}

/// Compares two result files; returns the rows and whether `b` regressed.
pub fn compare(a: &ResultFile, b: &ResultFile) -> (Vec<Row>, bool) {
    let mut rows = Vec::new();
    let mut regressed = false;
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            continue;
        };
        compare_workload(wa, wb, &mut rows);
        // A failed frame misses every limit, and a lost correctness check
        // is not a speed question at all.
        let fail_ratio = |w: &WorkloadReport| w.failed as f64 / w.attempted.max(1) as f64;
        if fail_ratio(wb) > fail_ratio(wa) || (wa.correct && !wb.correct) {
            regressed = true;
        }
    }
    regressed |= rows.iter().any(|r| r.verdict == Verdict::Regressed);
    (rows, regressed)
}

/// Prints the comparison; returns the process exit code.
pub fn run(path_a: &str, path_b: &str) -> i32 {
    let load = |path: &str| -> Result<ResultFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    if a.smoke || b.smoke {
        println!("warning: a smoke run is not comparable; rows below are indicative only");
    }
    if a.host.cpu_model != b.host.cpu_model || a.host.nproc != b.host.nproc {
        println!(
            "warning: different hosts ({} × {} vs {} × {})",
            a.host.nproc, a.host.cpu_model, b.host.nproc, b.host.cpu_model
        );
    }
    for w in a.workloads.iter().chain(&b.workloads).filter(|w| w.noisy) {
        println!("warning: {} was measured on a noisy host", w.name);
    }
    let (rows, regressed) = compare(&a, &b);
    println!(
        "{:<24} {:<24} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for r in &rows {
        let verdict = match r.verdict {
            Verdict::Ok => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        };
        println!(
            "{:<24} {:<24} {:>14.4} {:>14.4} {:>8.2}% {:>6.1}%  {verdict}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound * 100.0
        );
    }
    for (wa, wb) in a.workloads.iter().filter_map(|wa| {
        b.workloads
            .iter()
            .find(|w| w.name == wa.name)
            .map(|wb| (wa, wb))
    }) {
        println!(
            "{:<24} frames failed {}/{} vs {}/{}; correct {} vs {}",
            wa.name, wa.failed, wa.attempted, wb.failed, wb.attempted, wa.correct, wb.correct
        );
    }
    if regressed {
        println!("result: REGRESSED");
        1
    } else {
        println!("result: no regression beyond the bounds");
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Reading, SCHEMA};

    fn file(jobs_per_s: f64, cpu_us: f64, spread: f64, failed: u64) -> ResultFile {
        let reading = |name: &str, value: f64, spread: Option<f64>| Reading {
            name: name.into(),
            value,
            unit: "x".into(),
            samples: None,
            spread,
        };
        ResultFile {
            schema: SCHEMA.into(),
            host: crate::host::fingerprint(),
            smoke: false,
            seed: 1,
            seconds: 22.0,
            workloads: vec![WorkloadReport {
                name: "wire-mct-c256".into(),
                correct: true,
                attempted: 1000,
                failed,
                noisy: false,
                notes: vec![],
                window_jobs_per_s: vec![],
                window_slowdown: vec![],
                end_to_end: vec![
                    reading("jobs_per_s", jobs_per_s, Some(spread)),
                    reading("daemon_cpu_us_per_job", cpu_us, None),
                ],
                per_layer: vec![],
            }],
        }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worse_by(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worse_by(Better::Higher, 100.0, 120.0) < 0.0);
        assert_eq!(worse_by(Better::Lower, 0.0, 5.0), 0.0);
    }

    #[test]
    fn regression_unresolved_and_ok_rows() {
        let base = file(50_000.0, 100.0, 0.01, 0);
        let bound = metrics::end_to_end("jobs_per_s").unwrap().bound;
        // Slower by more than the bound, cheaper per job: one regression.
        let slow = file(50_000.0 * (1.0 - bound - 0.02), 90.0, 0.01, 0);
        let (rows, regressed) = compare(&base, &slow);
        assert!(regressed);
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert_eq!(rows[1].verdict, Verdict::Ok);
        // Same drop, but the windows spread wider than the bound.
        let wide = file(50_000.0 * (1.0 - bound - 0.02), 90.0, bound + 0.05, 0);
        let (rows, regressed) = compare(&base, &wide);
        assert!(!regressed);
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
        // Identical numbers, one more failed frame.
        let (_, regressed) = compare(&base, &file(50_000.0, 100.0, 0.01, 1));
        assert!(regressed);
        let (rows, regressed) = compare(&base, &base);
        assert!(!regressed && rows.iter().all(|r| r.verdict == Verdict::Ok));
    }
}

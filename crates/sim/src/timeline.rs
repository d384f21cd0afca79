//! Per-attempt execution timeline — Gantt-chart data for a run.
//!
//! Enabled with [`SimConfig::with_timeline`](crate::SimConfig): the engine
//! records one [`AttemptSpan`] per dispatch, and [`Timeline`] offers query
//! and rendering helpers (per-site lanes, busy intervals, an ASCII Gantt
//! sketch for terminals).

use gridsec_core::{JobId, SiteId, Time};
use serde::{Deserialize, Serialize};

/// One dispatched attempt: where a job ran and how it ended.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttemptSpan {
    /// The job.
    pub job: JobId,
    /// The hosting site.
    pub site: SiteId,
    /// Node width occupied.
    pub width: u32,
    /// Start of execution.
    pub start: Time,
    /// End of node occupation (completion, or the failure instant).
    pub end: Time,
    /// Whether this attempt failed.
    pub failed: bool,
}

/// The recorded timeline of a run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    spans: Vec<AttemptSpan>,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Timeline {
        Timeline::default()
    }

    /// Records one attempt (engine-internal).
    pub fn push(&mut self, span: AttemptSpan) {
        self.spans.push(span);
    }

    /// All spans in dispatch order.
    pub fn spans(&self) -> &[AttemptSpan] {
        &self.spans
    }

    /// Number of recorded attempts.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans that ran on `site`, in dispatch order.
    pub fn site_lane(&self, site: SiteId) -> Vec<&AttemptSpan> {
        self.spans.iter().filter(|s| s.site == site).collect()
    }

    /// All attempts of one job (several when it failed).
    pub fn job_history(&self, job: JobId) -> Vec<&AttemptSpan> {
        self.spans.iter().filter(|s| s.job == job).collect()
    }

    /// The latest end time (0 when empty).
    pub fn horizon(&self) -> Time {
        self.spans.iter().map(|s| s.end).max().unwrap_or(Time::ZERO)
    }

    /// Node-seconds consumed on `site` (failed attempts included).
    pub fn busy_node_seconds(&self, site: SiteId) -> f64 {
        self.site_lane(site)
            .iter()
            .map(|s| f64::from(s.width) * (s.end - s.start).seconds())
            .sum()
    }

    /// A crude ASCII Gantt chart: one row per site, `cols` character
    /// columns spanning `[0, horizon]`; `#` = busy nodes (any), `!` = a
    /// failure ends in that column, `.` = idle.
    pub fn ascii_gantt(&self, n_sites: usize, cols: usize) -> String {
        let horizon = self.horizon().seconds().max(f64::MIN_POSITIVE);
        let cols = cols.max(1);
        let mut out = String::new();
        for site in 0..n_sites {
            let mut row = vec!['.'; cols];
            for span in self.site_lane(SiteId(site)) {
                let a = ((span.start.seconds() / horizon) * cols as f64) as usize;
                let b = ((span.end.seconds() / horizon) * cols as f64).ceil() as usize;
                for c in row.iter_mut().take(b.min(cols)).skip(a.min(cols - 1)) {
                    *c = '#';
                }
                if span.failed {
                    let fb = ((span.end.seconds() / horizon) * cols as f64) as usize;
                    row[fb.min(cols - 1)] = '!';
                }
            }
            out.push_str(&format!("S{:<3} ", site + 1));
            out.extend(row);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(job: u64, site: usize, start: f64, end: f64, failed: bool) -> AttemptSpan {
        AttemptSpan {
            job: JobId(job),
            site: SiteId(site),
            width: 2,
            start: Time::new(start),
            end: Time::new(end),
            failed,
        }
    }

    fn sample() -> Timeline {
        let mut t = Timeline::new();
        t.push(span(0, 0, 0.0, 10.0, false));
        t.push(span(1, 0, 10.0, 15.0, true));
        t.push(span(1, 1, 20.0, 30.0, false));
        t
    }

    #[test]
    fn lanes_and_history() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert_eq!(t.site_lane(SiteId(0)).len(), 2);
        assert_eq!(t.site_lane(SiteId(1)).len(), 1);
        let h = t.job_history(JobId(1));
        assert_eq!(h.len(), 2);
        assert!(h[0].failed && !h[1].failed);
    }

    #[test]
    fn horizon_and_busy() {
        let t = sample();
        assert_eq!(t.horizon(), Time::new(30.0));
        // Site 0: (10 + 5) s × width 2 = 30 node-seconds.
        assert_eq!(t.busy_node_seconds(SiteId(0)), 30.0);
        assert_eq!(t.busy_node_seconds(SiteId(1)), 20.0);
        assert_eq!(t.busy_node_seconds(SiteId(9)), 0.0);
    }

    #[test]
    fn gantt_renders_rows() {
        let t = sample();
        let g = t.ascii_gantt(2, 30);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains('#'));
        assert!(lines[0].contains('!')); // the failure marker
        assert!(lines[1].contains('#'));
        assert!(lines[1].starts_with("S2"));
    }

    #[test]
    fn empty_timeline_is_harmless() {
        let t = Timeline::new();
        assert!(t.is_empty());
        assert_eq!(t.horizon(), Time::ZERO);
        let g = t.ascii_gantt(3, 10);
        assert_eq!(g.lines().count(), 3);
    }
}

//! Shared machinery: security-driven candidate-site selection and the
//! batch context handed to the low-level mapping functions.

use gridsec_core::etc::{EtcMatrix, NodeAvailability};
use gridsec_core::{Job, RiskMode, Time};
use gridsec_sim::{BatchJob, GridView};
use serde::{Deserialize, Serialize};

/// What to do when the risk mode admits *no* site for a job.
///
/// With the paper's distributions (`SD ≤ 0.9`, `SL ≤ 1.0`) a secure
/// placement usually exists, but a particular random grid may offer no site
/// with `SL ≥ SD` for some job, and a job cannot be held forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Fallback {
    /// Use the fitting site(s) with maximal security level — the
    /// risk-minimal choice (default; matches the paper's observation that
    /// secure mode completes all jobs while leaving low-SL sites idle).
    #[default]
    MaxSecurityLevel,
    /// Use every fitting site (degrade to risky for this job).
    AnyFitting,
}

/// The effective risk mode for one batch job: failed jobs are re-scheduled
/// under secure mode regardless of the scheduler's own mode (§2 fail-stop
/// rule).
pub fn effective_mode(mode: RiskMode, secure_only: bool) -> RiskMode {
    if secure_only {
        RiskMode::Secure
    } else {
        mode
    }
}

/// Candidate site indices for a job under a mode, applying `fallback` when
/// the admissible set is empty. The result is non-empty whenever the job
/// fits on at least one site (which the engine guarantees).
pub fn candidate_sites(
    job: &Job,
    secure_only: bool,
    mode: RiskMode,
    view: &GridView<'_>,
    fallback: Fallback,
) -> Vec<usize> {
    let mode = effective_mode(mode, secure_only);
    let admissible: Vec<usize> = view
        .grid
        .sites()
        .filter(|s| s.fits_width(job.width) && mode.admits(&view.model, job.security_demand, s))
        .map(|s| s.id.0)
        .collect();
    if !admissible.is_empty() {
        return admissible;
    }
    let fitting: Vec<usize> = view
        .grid
        .sites()
        .filter(|s| s.fits_width(job.width))
        .map(|s| s.id.0)
        .collect();
    match fallback {
        Fallback::AnyFitting => fitting,
        Fallback::MaxSecurityLevel => {
            let max_sl = fitting
                .iter()
                .map(|&s| view.grid.site(gridsec_core::SiteId(s)).security_level)
                .fold(f64::NEG_INFINITY, f64::max);
            fitting
                .into_iter()
                .filter(|&s| {
                    (view.grid.site(gridsec_core::SiteId(s)).security_level - max_sl).abs() < 1e-12
                })
                .collect()
        }
    }
}

/// Everything a low-level mapping function needs about one batch, with the
/// grid abstracted into an ETC matrix and candidate lists (enabling tests
/// on arbitrary matrices).
#[derive(Debug, Clone)]
pub struct MapCtx {
    /// Execution times, batch-row-major.
    pub etc: EtcMatrix,
    /// Node widths per batch job.
    pub widths: Vec<u32>,
    /// Arrival instants per batch job (floors the start time).
    pub arrivals: Vec<Time>,
    /// Candidate site indices per batch job (non-empty).
    pub candidates: Vec<Vec<usize>>,
    /// The batch boundary instant.
    pub now: Time,
    /// The order in which assignment-replay (GA fitness and dispatch)
    /// commits jobs to sites. Identity by default; the STGA uses a
    /// first-fit-decreasing order (width, then work, descending), which
    /// packs multi-node sites better than arrival order.
    pub commit_order: Vec<usize>,
}

impl MapCtx {
    /// Builds the context for a batch under a risk mode.
    pub fn build(
        batch: &[BatchJob],
        view: &GridView<'_>,
        mode: RiskMode,
        fallback: Fallback,
    ) -> MapCtx {
        let etc = EtcMatrix::from_jobs(batch.iter().map(|b| &b.job), view.grid);
        let widths = batch.iter().map(|b| b.job.width).collect();
        let arrivals = batch.iter().map(|b| b.job.arrival).collect();
        let candidates = batch
            .iter()
            .map(|b| candidate_sites(&b.job, b.secure_only, mode, view, fallback))
            .collect();
        let commit_order = (0..batch.len()).collect();
        MapCtx {
            etc,
            widths,
            arrivals,
            candidates,
            now: view.now,
            commit_order,
        }
    }

    /// Switches to a first-fit-decreasing commit order: widest jobs first,
    /// then largest work — the classic bin-packing order that reduces
    /// fragmentation on multi-node sites.
    pub fn with_ffd_order(mut self) -> MapCtx {
        let works: Vec<f64> = (0..self.n_jobs())
            .map(|j| {
                self.etc
                    .row(j)
                    .iter()
                    .copied()
                    .filter(|t| t.is_finite())
                    .fold(0.0f64, f64::max)
            })
            .collect();
        self.commit_order.sort_by(|&a, &b| {
            self.widths[b]
                .cmp(&self.widths[a])
                .then_with(|| works[b].total_cmp(&works[a]))
                .then_with(|| a.cmp(&b))
        });
        self
    }

    /// Number of batch jobs.
    pub fn n_jobs(&self) -> usize {
        self.widths.len()
    }

    /// The commit order as an iterator: the explicit `commit_order` when
    /// it is a full permutation, identity otherwise (e.g. when a context
    /// is hand-built in tests with an empty order).
    pub fn order_iter(&self) -> impl Iterator<Item = usize> + '_ {
        let explicit = self.commit_order.len() == self.n_jobs();
        (0..self.n_jobs()).map(move |i| if explicit { self.commit_order[i] } else { i })
    }

    /// Estimated completion time of batch job `j` on site `s` against the
    /// given availability state, or `None` if the job does not fit there.
    pub fn completion(&self, avail: &[NodeAvailability], j: usize, s: usize) -> Option<Time> {
        let exec = self.etc.get(j, s);
        if !exec.is_finite() {
            return None;
        }
        let start = avail[s].earliest_start(self.widths[j], self.now.max(self.arrivals[j]))?;
        Some(start + Time::new(exec))
    }

    /// Best (site, completion) for job `j` over its candidates; `None` only
    /// if no candidate fits (cannot happen for engine-validated batches).
    pub fn best(&self, avail: &[NodeAvailability], j: usize) -> Option<(usize, Time)> {
        let mut best: Option<(usize, Time)> = None;
        for &s in &self.candidates[j] {
            if let Some(ct) = self.completion(avail, j, s) {
                if best.is_none_or(|(_, t)| ct < t) {
                    best = Some((s, ct));
                }
            }
        }
        best
    }

    /// Best and second-best completion times for job `j` (the Sufferage
    /// quantities). When only one candidate exists, the second-best equals
    /// the best (sufferage 0).
    pub fn best_two(&self, avail: &[NodeAvailability], j: usize) -> Option<(usize, Time, Time)> {
        let mut best: Option<(usize, Time)> = None;
        let mut second: Option<Time> = None;
        for &s in &self.candidates[j] {
            if let Some(ct) = self.completion(avail, j, s) {
                match best {
                    None => best = Some((s, ct)),
                    Some((_, bt)) => {
                        if ct < bt {
                            second = Some(bt);
                            best = Some((s, ct));
                        } else if second.is_none_or(|t| ct < t) {
                            second = Some(ct);
                        }
                    }
                }
            }
        }
        best.map(|(s, t)| (s, t, second.unwrap_or(t)))
    }

    /// Commits job `j` to site `s`: reserves the nodes until the estimated
    /// completion and returns it.
    pub fn commit(&self, avail: &mut [NodeAvailability], j: usize, s: usize) -> Time {
        let ct = self
            .completion(avail, j, s)
            .expect("commit target must fit");
        avail[s].commit(self.widths[j], ct);
        ct
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_core::{Grid, SecurityModel, Site};

    fn grid() -> Grid {
        Grid::new(vec![
            Site::builder(0)
                .nodes(4)
                .speed(1.0)
                .security_level(0.9)
                .build()
                .unwrap(),
            Site::builder(1)
                .nodes(2)
                .speed(2.0)
                .security_level(0.5)
                .build()
                .unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn effective_mode_overrides_for_failed_jobs() {
        assert_eq!(effective_mode(RiskMode::Risky, true), RiskMode::Secure);
        assert_eq!(effective_mode(RiskMode::Risky, false), RiskMode::Risky);
    }

    #[test]
    fn candidates_respect_mode_and_fallback() {
        let g = grid();
        let avail = vec![
            NodeAvailability::new(4, Time::ZERO),
            NodeAvailability::new(2, Time::ZERO),
        ];
        let v = GridView {
            grid: &g,
            avail: &avail,
            now: Time::ZERO,
            model: SecurityModel::default(),
        };
        let job = Job::builder(0).security_demand(0.7).build().unwrap();
        // Secure: only site 0 (SL 0.9).
        assert_eq!(
            candidate_sites(&job, false, RiskMode::Secure, &v, Fallback::default()),
            vec![0]
        );
        // Risky: both.
        assert_eq!(
            candidate_sites(&job, false, RiskMode::Risky, &v, Fallback::default()),
            vec![0, 1]
        );
        // Demand above every SL → secure admits nothing → fallback to max-SL.
        let hot = Job::builder(1).security_demand(0.95).build().unwrap();
        assert_eq!(
            candidate_sites(
                &hot,
                false,
                RiskMode::Secure,
                &v,
                Fallback::MaxSecurityLevel
            ),
            vec![0]
        );
        assert_eq!(
            candidate_sites(&hot, false, RiskMode::Secure, &v, Fallback::AnyFitting),
            vec![0, 1]
        );
        // secure_only forces secure filtering even in risky mode.
        assert_eq!(
            candidate_sites(&job, true, RiskMode::Risky, &v, Fallback::default()),
            vec![0]
        );
    }

    #[test]
    fn ctx_best_and_commit() {
        let g = grid();
        let avail = vec![
            NodeAvailability::new(4, Time::ZERO),
            NodeAvailability::new(2, Time::ZERO),
        ];
        let v = GridView {
            grid: &g,
            avail: &avail,
            now: Time::ZERO,
            model: SecurityModel::default(),
        };
        let batch = vec![BatchJob {
            job: Job::builder(0)
                .work(100.0)
                .security_demand(0.5)
                .build()
                .unwrap(),
            secure_only: false,
        }];
        let ctx = MapCtx::build(&batch, &v, RiskMode::Risky, Fallback::default());
        let mut work = avail.clone();
        let (s, ct) = ctx.best(&work, 0).unwrap();
        assert_eq!(s, 1); // speed 2 → 50 s
        assert_eq!(ct, Time::new(50.0));
        let committed = ctx.commit(&mut work, 0, s);
        assert_eq!(committed, Time::new(50.0));
        // Site 1 has two nodes: one more identical job still finishes at
        // 50 on the free node; after that both nodes are busy until 50 and
        // a third job would finish at 100.
        assert_eq!(ctx.completion(&work, 0, 1), Some(Time::new(50.0)));
        ctx.commit(&mut work, 0, 1);
        assert_eq!(ctx.completion(&work, 0, 1), Some(Time::new(100.0)));
    }

    #[test]
    fn best_two_degenerates_with_single_candidate() {
        let g = grid();
        let avail = vec![
            NodeAvailability::new(4, Time::ZERO),
            NodeAvailability::new(2, Time::ZERO),
        ];
        let v = GridView {
            grid: &g,
            avail: &avail,
            now: Time::ZERO,
            model: SecurityModel::default(),
        };
        let batch = vec![BatchJob {
            job: Job::builder(0)
                .work(60.0)
                .security_demand(0.7)
                .build()
                .unwrap(),
            secure_only: false,
        }];
        let ctx = MapCtx::build(&batch, &v, RiskMode::Secure, Fallback::default());
        let (s, best, second) = ctx.best_two(&avail, 0).unwrap();
        assert_eq!(s, 0);
        assert_eq!(best, second); // sufferage 0
    }
}

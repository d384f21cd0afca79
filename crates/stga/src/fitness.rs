//! Fitness evaluation: the completion time of the schedule a chromosome
//! encodes (§3: "the fitness value … is the completion time of the
//! schedule represented by the solution"; smallest is best).
//!
//! Many schedules share the same makespan (only the site finishing last
//! matters), so the fitness adds a *flow* term — the mean job completion
//! time scaled by a configurable weight
//! ([`GaParams::flow_weight`](crate::GaParams), default
//! [`DEFAULT_FLOW_WEIGHT`]) — that steers the GA toward schedules that
//! also finish the *other* jobs early. At the default weight it acts as a
//! pure tie-breaker; larger weights trade batch makespan for throughput,
//! which matters in the on-line setting (ablation `flow_weight` in
//! `gridsec-bench`).
//!
//! This module holds the fitness *definition's* parameters; the one
//! evaluator is the compiled [`FitnessKernel`](crate::FitnessKernel). The
//! object-graph walk it was lowered from is the referee in
//! `crates/stga/tests/referee/`.

use serde::{Deserialize, Serialize};

/// Default weight of the mean-completion (flow) term relative to the
/// makespan: small enough to act as a pure tie-breaker.
pub const DEFAULT_FLOW_WEIGHT: f64 = 1e-4;

/// Which quantity the GA minimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum FitnessKind {
    /// Batch makespan (the paper's fitness), with the mean-completion
    /// tie-break.
    #[default]
    Makespan,
    /// Batch makespan with each risky execution inflated by its expected
    /// number of attempts `1/(1−P_fail)` — a risk-aware ablation variant
    /// (not used by the paper's base STGA).
    ExpectedMakespan,
}

/// Security context needed by [`FitnessKind::ExpectedMakespan`]: per-job ×
/// per-site expected-attempt multipliers (1.0 where `SD ≤ SL`).
#[derive(Debug, Clone)]
pub struct RiskWeights {
    n_sites: usize,
    weights: Vec<f64>,
}

impl RiskWeights {
    /// Builds the multiplier table from per-job demands and per-site
    /// levels under a security model.
    pub fn build(model: &gridsec_core::SecurityModel, sds: &[f64], sls: &[f64]) -> RiskWeights {
        let n_sites = sls.len();
        let mut weights = Vec::with_capacity(sds.len() * n_sites);
        for &sd in sds {
            for &sl in sls {
                let w = model.expected_attempts(sd, sl);
                weights.push(if w.is_finite() { w } else { 1e9 });
            }
        }
        RiskWeights { n_sites, weights }
    }

    /// Multiplier for batch job `j` on site `s`.
    #[inline]
    pub fn get(&self, j: usize, s: usize) -> f64 {
        self.weights[j * self.n_sites + s]
    }
}

/// Memoised [`RiskWeights`] keyed by a fingerprint of the security
/// snapshot (model λ, per-site security levels via
/// [`Grid::security_fingerprint`](gridsec_core::Grid::security_fingerprint),
/// per-job demands).
///
/// Risk-aware schedulers previously rebuilt the full `[job × site]`
/// multiplier table on every invocation even when trust and security
/// state had not changed between rounds; this cache rebuilds only when
/// the fingerprint moves — i.e. on trust re-rating or grid
/// reconfiguration — and is explicitly invalidated by the scheduler's
/// `on_reconfigure` hook.
#[derive(Debug, Default)]
pub struct RiskCache {
    fingerprint: Option<u64>,
    weights: Option<RiskWeights>,
    hits: u64,
    misses: u64,
}

impl RiskCache {
    /// An empty cache.
    pub fn new() -> RiskCache {
        RiskCache::default()
    }

    /// Returns the cached table when the `(model, grid security snapshot,
    /// demands)` fingerprint is unchanged, rebuilding it otherwise.
    pub fn get_or_build(
        &mut self,
        model: &gridsec_core::SecurityModel,
        grid_fingerprint: u64,
        sds: &[f64],
        sls: &[f64],
    ) -> &RiskWeights {
        let mut fp = grid_fingerprint ^ model.lambda().to_bits().rotate_left(17);
        for &sd in sds {
            fp = (fp.rotate_left(13) ^ sd.to_bits()).wrapping_mul(0x1000_0000_01b3);
        }
        if self.fingerprint == Some(fp) && self.weights.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
            self.weights = Some(RiskWeights::build(model, sds, sls));
            self.fingerprint = Some(fp);
        }
        self.weights.as_ref().expect("cache was just filled")
    }

    /// Drops the cached table; the next lookup rebuilds unconditionally.
    /// Called when the scheduler is told the grid was reconfigured.
    pub fn invalidate(&mut self) {
        self.fingerprint = None;
        self.weights = None;
    }

    /// `(hits, misses)` counters since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chromosome::Chromosome;
    use crate::kernel::{fitness_once as evaluate, FitnessKernel, KernelScratch};
    use gridsec_core::etc::{EtcMatrix, NodeAvailability};
    use gridsec_core::{SecurityModel, Time};
    use gridsec_heuristics::common::MapCtx;

    fn ctx2() -> (MapCtx, Vec<NodeAvailability>) {
        // 2 jobs × 2 single-node sites.
        let etc = EtcMatrix::from_raw(2, 2, vec![10.0, 20.0, 30.0, 15.0]);
        let ctx = MapCtx {
            etc,
            widths: vec![1, 1],
            arrivals: vec![Time::ZERO; 2],
            candidates: vec![vec![0, 1]; 2],
            now: Time::ZERO,
            commit_order: vec![],
        };
        let avail = vec![
            NodeAvailability::new(1, Time::ZERO),
            NodeAvailability::new(1, Time::ZERO),
        ];
        (ctx, avail)
    }

    /// Strips the tie-break term for exact-makespan assertions.
    fn close(actual: f64, makespan: f64) -> bool {
        (actual - makespan).abs() <= DEFAULT_FLOW_WEIGHT * makespan * 2.0 + 1e-9
    }

    #[test]
    fn fitness_is_schedule_makespan_plus_tiebreak() {
        let (ctx, avail) = ctx2();
        // Both jobs on site 0: 10 then 10+30 = 40.
        let c = Chromosome::from_genes(vec![0, 0]);
        let f = evaluate(&ctx, &avail, &c, FitnessKind::Makespan, None);
        assert!(close(f, 40.0), "f = {f}");
        // Split: max(10, 15) = 15.
        let c = Chromosome::from_genes(vec![0, 1]);
        let f = evaluate(&ctx, &avail, &c, FitnessKind::Makespan, None);
        assert!(close(f, 15.0), "f = {f}");
        // Swapped: max(20, 30) = 30.
        let c = Chromosome::from_genes(vec![1, 0]);
        let f = evaluate(&ctx, &avail, &c, FitnessKind::Makespan, None);
        assert!(close(f, 30.0), "f = {f}");
    }

    #[test]
    fn tiebreak_prefers_earlier_average_completion() {
        // Two schedules with the *same* makespan (100) but different mean
        // completion: A gives CTs {100, 99} (mean 99.5), B gives {100, 50}
        // (mean 75). The tie-break must rank B strictly better.
        let etc = EtcMatrix::from_raw(2, 2, vec![100.0, 100.0, 50.0, 99.0]);
        let ctx = MapCtx {
            etc,
            widths: vec![1, 1],
            arrivals: vec![Time::ZERO; 2],
            candidates: vec![vec![0, 1]; 2],
            now: Time::ZERO,
            commit_order: vec![],
        };
        let avail = vec![
            NodeAvailability::new(1, Time::ZERO),
            NodeAvailability::new(1, Time::ZERO),
        ];
        let a = Chromosome::from_genes(vec![0, 1]); // CTs 100, 99
        let b = Chromosome::from_genes(vec![1, 0]); // CTs 100, 50
        let fa = evaluate(&ctx, &avail, &a, FitnessKind::Makespan, None);
        let fb = evaluate(&ctx, &avail, &b, FitnessKind::Makespan, None);
        assert!(fb < fa, "tie-break should prefer B: {fb} vs {fa}");
        // But the tie-break never overrides a real makespan difference.
        let worse = Chromosome::from_genes(vec![0, 0]); // CTs 100, 150
        let fw = evaluate(&ctx, &avail, &worse, FitnessKind::Makespan, None);
        assert!(fw > fa);
    }

    #[test]
    fn infeasible_gene_is_infinite() {
        let etc = EtcMatrix::from_raw(1, 2, vec![10.0, f64::INFINITY]);
        let ctx = MapCtx {
            etc,
            widths: vec![1],
            arrivals: vec![Time::ZERO],
            candidates: vec![vec![0]],
            now: Time::ZERO,
            commit_order: vec![],
        };
        let avail = vec![
            NodeAvailability::new(1, Time::ZERO),
            NodeAvailability::new(1, Time::ZERO),
        ];
        let c = Chromosome::from_genes(vec![1]);
        assert!(evaluate(&ctx, &avail, &c, FitnessKind::Makespan, None).is_infinite());
    }

    #[test]
    fn fitness_respects_preexisting_load() {
        let (ctx, mut avail) = ctx2();
        avail[1].commit(1, Time::new(100.0));
        let c = Chromosome::from_genes(vec![0, 1]);
        // Job 1 on busy site 1: 100 + 15 = 115.
        let f = evaluate(&ctx, &avail, &c, FitnessKind::Makespan, None);
        assert!(close(f, 115.0), "f = {f}");
    }

    #[test]
    fn scratch_reuse_matches_fresh_allocation() {
        // Whatever an earlier evaluation left in the scratch — here a
        // different chromosome's free-time plane — never reaches a result.
        let (ctx, avail) = ctx2();
        let kernel = FitnessKernel::compile(
            &ctx,
            &avail,
            FitnessKind::Makespan,
            None,
            DEFAULT_FLOW_WEIGHT,
        );
        let c = Chromosome::from_genes(vec![0, 1]);
        let other = Chromosome::from_genes(vec![1, 1]);
        let fresh = evaluate(&ctx, &avail, &c, FitnessKind::Makespan, None);
        let mut scratch = KernelScratch::default();
        let mut cts = Vec::new();
        for _ in 0..3 {
            kernel.evaluate_full(other.genes(), &mut cts, &mut scratch);
            let reused = kernel.evaluate_full(c.genes(), &mut cts, &mut scratch);
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn expected_makespan_penalises_risky_sites() {
        let model = SecurityModel::new(3.0).unwrap();
        // Job 0 has SD 0.9; site 0 is unsafe (SL 0.4), site 1 safe (1.0).
        let risk = RiskWeights::build(&model, &[0.9, 0.5], &[0.4, 1.0]);
        assert!(risk.get(0, 0) > 1.0);
        assert_eq!(risk.get(0, 1), 1.0);
        // SD 0.5 > SL 0.4: risky, multiplier above 1 (but small gap).
        assert!(risk.get(1, 0) > 1.0 && risk.get(1, 0) < risk.get(0, 0));
        assert_eq!(risk.get(1, 1), 1.0);
    }

    #[test]
    fn risk_cache_rebuilds_only_on_snapshot_change() {
        let model = SecurityModel::new(3.0).unwrap();
        let mut cache = RiskCache::new();
        let sds = [0.9, 0.5];
        let sls = [0.4, 1.0];
        let w1 = cache.get_or_build(&model, 7, &sds, &sls).get(0, 0);
        assert_eq!(cache.stats(), (0, 1));
        let w2 = cache.get_or_build(&model, 7, &sds, &sls).get(0, 0);
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(w1.to_bits(), w2.to_bits());
        // A different grid fingerprint (trust re-rate / reconfigure)
        // forces a rebuild; so do different demands.
        cache.get_or_build(&model, 8, &sds, &sls);
        assert_eq!(cache.stats(), (1, 2));
        cache.get_or_build(&model, 8, &[0.9, 0.6], &sls);
        assert_eq!(cache.stats(), (1, 3));
        // Explicit invalidation drops the entry even for an identical key.
        cache.invalidate();
        cache.get_or_build(&model, 8, &[0.9, 0.6], &sls);
        assert_eq!(cache.stats(), (1, 4));
    }

    #[test]
    fn risk_weights_boundary() {
        let model = SecurityModel::new(3.0).unwrap();
        let risk = RiskWeights::build(&model, &[0.5], &[0.5, 0.6]);
        assert_eq!(risk.get(0, 0), 1.0); // SD == SL: safe
        assert_eq!(risk.get(0, 1), 1.0);
    }
}

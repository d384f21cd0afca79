//! Tabu-search batch scheduler — another of Braun et al.'s eleven classic
//! mapping heuristics, included as a metaheuristic baseline next to the
//! GA and simulated annealing.
//!
//! Steepest-descent over single-gene moves with a recency-based tabu list
//! on `(job, site)` re-assignments; an aspiration criterion admits tabu
//! moves that improve on the global best.

use crate::chromosome::Chromosome;
use crate::fitness::{FitnessKind, DEFAULT_FLOW_WEIGHT};
use crate::kernel::{FitnessKernel, KernelScratch};
use gridsec_core::rng::{stream, Stream};
use gridsec_core::{BatchSchedule, Error, Result, RiskMode, SiteId};
use gridsec_heuristics::common::{Fallback, MapCtx};
use gridsec_sim::{BatchJob, BatchScheduler, GridView};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Tabu-search parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TabuParams {
    /// Number of moves (iterations).
    pub iterations: usize,
    /// Length of the tabu list (forbidden recent `(job, site)` pairs).
    pub tenure: usize,
    /// RNG seed (initial solution).
    pub seed: u64,
}

impl Default for TabuParams {
    fn default() -> Self {
        TabuParams {
            iterations: 500,
            tenure: 32,
            seed: 0x7AB0,
        }
    }
}

impl TabuParams {
    /// Validates the parameters.
    pub fn validate(&self) -> Result<()> {
        if self.iterations == 0 {
            return Err(Error::invalid("iterations", "must be ≥ 1"));
        }
        if self.tenure == 0 {
            return Err(Error::invalid("tenure", "must be ≥ 1"));
        }
        Ok(())
    }
}

/// The tabu-search scheduler (risky-mode candidates).
pub struct TabuSearch {
    params: TabuParams,
    rng: ChaCha8Rng,
}

impl TabuSearch {
    /// Creates a tabu-search scheduler.
    pub fn new(params: TabuParams) -> Result<TabuSearch> {
        params.validate()?;
        Ok(TabuSearch {
            rng: stream(params.seed, Stream::Custom(0x7AB7)),
            params,
        })
    }

    /// Runs the search on one batch, returning the best chromosome and
    /// its fitness.
    pub fn search(
        &mut self,
        ctx: &MapCtx,
        base_avail: &[gridsec_core::etc::NodeAvailability],
    ) -> (Chromosome, f64) {
        let kernel = FitnessKernel::compile(
            ctx,
            base_avail,
            FitnessKind::Makespan,
            None,
            DEFAULT_FLOW_WEIGHT,
        );
        let mut scratch = KernelScratch::default();
        let mut cts = Vec::new();
        let mut eval = |c: &Chromosome| kernel.evaluate_full(c.genes(), &mut cts, &mut scratch);
        let mut current = Chromosome::random(&ctx.candidates, &mut self.rng);
        let mut current_fit = eval(&current);
        let mut best = current.clone();
        let mut best_fit = current_fit;
        let mut tabu: VecDeque<(usize, u16)> = VecDeque::with_capacity(self.params.tenure);

        for _ in 0..self.params.iterations {
            // Full single-gene neighbourhood scan (steepest descent).
            let mut move_best: Option<(usize, u16, f64)> = None;
            for j in 0..ctx.n_jobs() {
                let old = current.genes()[j];
                for &s in &ctx.candidates[j] {
                    let s = s as u16;
                    if s == old {
                        continue;
                    }
                    let mut neighbour = current.clone();
                    neighbour.genes_mut()[j] = s;
                    let f = eval(&neighbour);
                    let is_tabu = tabu.contains(&(j, s));
                    // Aspiration: tabu moves allowed if globally improving.
                    if is_tabu && f >= best_fit {
                        continue;
                    }
                    if move_best.is_none_or(|(_, _, bf)| f < bf) {
                        move_best = Some((j, s, f));
                    }
                }
            }
            let Some((j, s, f)) = move_best else {
                break; // whole neighbourhood tabu and non-aspiring
            };
            let old = current.genes()[j];
            current.genes_mut()[j] = s;
            current_fit = f;
            // Forbid undoing this move for `tenure` iterations.
            tabu.push_back((j, old));
            while tabu.len() > self.params.tenure {
                tabu.pop_front();
            }
            if current_fit < best_fit {
                best = current.clone();
                best_fit = current_fit;
            }
        }
        (best, best_fit)
    }
}

impl BatchScheduler for TabuSearch {
    fn name(&self) -> String {
        "Tabu".to_string()
    }

    fn schedule(&mut self, batch: &[BatchJob], view: &GridView<'_>) -> BatchSchedule {
        let ctx = MapCtx::build(batch, view, RiskMode::Risky, Fallback::default());
        let (best, _) = self.search(&ctx, view.avail);
        BatchSchedule::from_pairs(
            batch
                .iter()
                .enumerate()
                .map(|(j, bj)| (bj.job.id, SiteId(best.site_of(j)))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_core::etc::{EtcMatrix, NodeAvailability};
    use gridsec_core::Time;

    fn ctx() -> (MapCtx, Vec<NodeAvailability>) {
        let n = 6;
        let m = 3;
        let mut etc = Vec::new();
        for j in 0..n {
            for _ in 0..m {
                etc.push(10.0 * (j + 1) as f64);
            }
        }
        (
            MapCtx {
                etc: EtcMatrix::from_raw(n, m, etc),
                widths: vec![1; n],
                arrivals: vec![Time::ZERO; n],
                candidates: vec![(0..m).collect(); n],
                now: Time::ZERO,
                commit_order: vec![],
            },
            vec![NodeAvailability::new(1, Time::ZERO); m],
        )
    }

    #[test]
    fn tabu_reaches_the_optimum_on_a_small_instance() {
        let (ctx, avail) = ctx();
        let mut ts = TabuSearch::new(TabuParams {
            iterations: 200,
            ..TabuParams::default()
        })
        .unwrap();
        let (best, fit) = ts.search(&ctx, &avail);
        // Steepest descent with tabu diversification finds the balanced
        // optimum (70) on this 6×3 instance.
        assert!(fit <= 75.0, "fitness {fit}");
        assert!(best.is_feasible(&ctx.candidates));
    }

    #[test]
    fn tabu_is_deterministic_per_seed() {
        let (ctx, avail) = ctx();
        let run = || {
            let mut ts = TabuSearch::new(TabuParams {
                iterations: 100,
                seed: 3,
                ..TabuParams::default()
            })
            .unwrap();
            ts.search(&ctx, &avail)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn params_validated() {
        let p = TabuParams {
            iterations: 0,
            ..TabuParams::default()
        };
        assert!(TabuSearch::new(p).is_err());
        let p = TabuParams {
            tenure: 0,
            ..TabuParams::default()
        };
        assert!(TabuSearch::new(p).is_err());
    }
}

//! Simulated-annealing batch scheduler — the *offline* optimiser the
//! paper's §2 rules out for on-line use ("we cannot afford to use an
//! offline algorithm such as simulated annealing \[20\]").
//!
//! Included as a baseline so that claim is measurable: SA explores the
//! same assignment space as the GA via single-gene moves under a
//! geometric cooling schedule. With enough iterations it matches or beats
//! the GA per batch; at equal wall-clock budget it is the slower
//! converger the paper expects (see `examples/metaheuristics.rs`).

use crate::chromosome::Chromosome;
use crate::fitness::{FitnessKind, DEFAULT_FLOW_WEIGHT};
use crate::kernel::{FitnessKernel, KernelScratch};
use gridsec_core::rng::{stream, Stream};
use gridsec_core::{BatchSchedule, Error, Result, RiskMode, SiteId};
use gridsec_heuristics::common::{Fallback, MapCtx};
use gridsec_sim::{BatchJob, BatchScheduler, GridView};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Simulated-annealing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SaParams {
    /// Number of candidate moves evaluated.
    pub iterations: usize,
    /// Initial temperature as a fraction of the initial fitness (a move
    /// that worsens fitness by `t0_fraction × f0` is accepted with
    /// probability `e^-1` at the start).
    pub t0_fraction: f64,
    /// Geometric cooling factor per iteration (0 < α < 1).
    pub cooling: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SaParams {
    fn default() -> Self {
        SaParams {
            iterations: 20_000,
            t0_fraction: 0.1,
            cooling: 0.9995,
            seed: 0x5A,
        }
    }
}

impl SaParams {
    /// Validates the parameters.
    pub fn validate(&self) -> Result<()> {
        if self.iterations == 0 {
            return Err(Error::invalid("iterations", "must be ≥ 1"));
        }
        if !(self.t0_fraction.is_finite() && self.t0_fraction > 0.0) {
            return Err(Error::invalid("t0_fraction", "must be positive"));
        }
        if !(self.cooling > 0.0 && self.cooling < 1.0) {
            return Err(Error::invalid("cooling", "must be in (0, 1)"));
        }
        Ok(())
    }
}

/// The SA scheduler (risky-mode candidates, like the GA).
pub struct SimulatedAnnealing {
    params: SaParams,
    rng: ChaCha8Rng,
}

impl SimulatedAnnealing {
    /// Creates an SA scheduler.
    pub fn new(params: SaParams) -> Result<SimulatedAnnealing> {
        params.validate()?;
        Ok(SimulatedAnnealing {
            rng: stream(params.seed, Stream::Custom(0x5A5A)),
            params,
        })
    }

    /// Anneals one batch and returns the best chromosome and fitness.
    pub fn anneal(
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
        let mut current = Chromosome::random(&ctx.candidates, &mut self.rng);
        let mut eval = |c: &Chromosome| kernel.evaluate_full(c.genes(), &mut cts, &mut scratch);
        let mut current_fit = eval(&current);
        let mut best = current.clone();
        let mut best_fit = current_fit;
        let mut temperature = (current_fit * self.params.t0_fraction).max(f64::MIN_POSITIVE);
        for _ in 0..self.params.iterations {
            // Single-gene move: re-draw one job's site.
            let j = self.rng.gen_range(0..ctx.n_jobs());
            let cand = &ctx.candidates[j];
            if cand.len() > 1 {
                let old = current.genes()[j];
                let mut pick = cand[self.rng.gen_range(0..cand.len())] as u16;
                while pick == old {
                    pick = cand[self.rng.gen_range(0..cand.len())] as u16;
                }
                let mut neighbour = current.clone();
                neighbour.genes_mut()[j] = pick;
                let neighbour_fit = eval(&neighbour);
                let delta = neighbour_fit - current_fit;
                let accept =
                    delta <= 0.0 || self.rng.gen::<f64>() < (-delta / temperature.max(1e-12)).exp();
                if accept {
                    current = neighbour;
                    current_fit = neighbour_fit;
                    if current_fit < best_fit {
                        best = current.clone();
                        best_fit = current_fit;
                    }
                }
            }
            temperature *= self.params.cooling;
        }
        (best, best_fit)
    }
}

impl BatchScheduler for SimulatedAnnealing {
    fn name(&self) -> String {
        "SA".to_string()
    }

    fn schedule(&mut self, batch: &[BatchJob], view: &GridView<'_>) -> BatchSchedule {
        let ctx = MapCtx::build(batch, view, RiskMode::Risky, Fallback::default());
        let (best, _) = self.anneal(&ctx, view.avail);
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
    fn sa_finds_near_optimal_schedule() {
        let (ctx, avail) = ctx();
        let mut sa = SimulatedAnnealing::new(SaParams {
            iterations: 5_000,
            ..SaParams::default()
        })
        .unwrap();
        let (best, fit) = sa.anneal(&ctx, &avail);
        // Optimum 70 (210 work over 3 sites).
        assert!(fit <= 80.0, "fitness {fit}");
        assert!(best.is_feasible(&ctx.candidates));
    }

    #[test]
    fn sa_is_deterministic_per_seed() {
        let (ctx, avail) = ctx();
        let run = || {
            let mut sa = SimulatedAnnealing::new(SaParams {
                iterations: 2_000,
                seed: 99,
                ..SaParams::default()
            })
            .unwrap();
            sa.anneal(&ctx, &avail)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn params_validated() {
        let p = SaParams {
            iterations: 0,
            ..SaParams::default()
        };
        assert!(SimulatedAnnealing::new(p).is_err());
        let p = SaParams {
            cooling: 1.0,
            ..SaParams::default()
        };
        assert!(SimulatedAnnealing::new(p).is_err());
        let p = SaParams {
            t0_fraction: 0.0,
            ..SaParams::default()
        };
        assert!(SimulatedAnnealing::new(p).is_err());
    }
}

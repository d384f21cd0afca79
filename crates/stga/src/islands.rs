//! Island-model parallel GA: several sub-populations evolve concurrently
//! (fanned out over the shared rayon worker pool, so island-level and
//! fitness-level parallelism draw from the same threads instead of
//! oversubscribing) and exchange their best individuals along a ring after
//! every epoch.
//!
//! Islands are a classic scalability construction for GAs: the per-island
//! populations are smaller (cheaper generations), threads use otherwise
//! idle cores, and the restricted gene flow preserves diversity longer
//! than one panmictic population. The schedule produced is deterministic
//! for a given seed — each island owns an independent RNG stream and the
//! ring migration is order-independent.
//!
//! This is an extension beyond the paper (its GA is single-population);
//! the `ablations` bench compares the two.

use crate::chromosome::Chromosome;
use crate::fitness::{FitnessKind, RiskWeights};
use crate::ga::{evolve_population, GaResult};
use crate::params::GaParams;
use gridsec_core::etc::NodeAvailability;
use gridsec_core::rng::{stream, subseed, Stream};
use gridsec_core::{Error, Result};
use gridsec_heuristics::common::MapCtx;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Island-model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IslandParams {
    /// Per-island GA parameters (`population` is the island size;
    /// `generations` is the total across all epochs).
    pub ga: GaParams,
    /// Number of islands (≥ 1; 1 degenerates to the plain GA).
    pub islands: usize,
    /// Number of migration epochs (the total generations are split evenly
    /// across epochs).
    pub epochs: usize,
    /// Individuals copied to the next island in the ring per epoch.
    pub migrants: usize,
}

impl Default for IslandParams {
    fn default() -> Self {
        IslandParams {
            ga: GaParams::default().with_population(50),
            islands: 4,
            epochs: 5,
            migrants: 2,
        }
    }
}

impl IslandParams {
    /// Validates the parameters.
    pub fn validate(&self) -> Result<()> {
        self.ga.validate()?;
        if self.islands == 0 {
            return Err(Error::invalid("islands", "need at least one island"));
        }
        if self.epochs == 0 {
            return Err(Error::invalid("epochs", "need at least one epoch"));
        }
        if self.migrants >= self.ga.population {
            return Err(Error::invalid(
                "migrants",
                "must be below the island population",
            ));
        }
        Ok(())
    }
}

/// State of one island between epochs.
struct Island {
    population: Vec<Chromosome>,
    fitness: Vec<f64>,
    best: Option<GaResult>,
    seed: u64,
}

/// Runs the island-model GA and returns the globally best result.
///
/// `initial` seeds island 0 (history/heuristic chromosomes); the other
/// islands start random — mirroring the STGA's "diversity" requirement at
/// the island level.
pub fn evolve_islands(
    ctx: &MapCtx,
    base_avail: &[NodeAvailability],
    initial: Vec<Chromosome>,
    params: &IslandParams,
    kind: FitnessKind,
    risk: Option<&RiskWeights>,
) -> GaResult {
    params.validate().expect("island parameters must be valid");
    let per_epoch = (params.ga.generations / params.epochs).max(1);
    let mut islands: Vec<Island> = (0..params.islands)
        .map(|i| Island {
            population: if i == 0 { initial.clone() } else { Vec::new() },
            fitness: Vec::new(),
            best: None,
            seed: subseed(params.ga.seed, 0xA150 + i as u64),
        })
        .collect();

    for epoch in 0..params.epochs {
        // Last epoch absorbs the rounding remainder.
        let gens = if epoch + 1 == params.epochs {
            // Saturating: with epochs > generations, per_epoch is clamped to
            // 1 and the product can exceed the total.
            params
                .ga
                .generations
                .saturating_sub(per_epoch * (params.epochs - 1))
        } else {
            per_epoch
        };
        let epoch_params = GaParams {
            generations: gens.max(1),
            ..params.ga
        };
        islands.par_iter_mut().for_each(|island| {
            let mut rng = stream(island.seed, Stream::Custom(epoch as u64));
            let seeds = std::mem::take(&mut island.population);
            let (result, population, fitness) =
                evolve_population(ctx, base_avail, seeds, &epoch_params, kind, risk, &mut rng);
            island.population = population;
            island.fitness = fitness;
            let better = island
                .best
                .as_ref()
                .is_none_or(|b| result.best_fitness < b.best_fitness);
            if better {
                island.best = Some(result);
            }
        });

        // Ring migration: island i sends its best `migrants` to island
        // (i+1) % k, replacing the receiver's worst individuals.
        if params.islands > 1 && params.migrants > 0 && epoch + 1 < params.epochs {
            let emigrants: Vec<Vec<Chromosome>> = islands
                .iter()
                .map(|isl| {
                    let mut idx: Vec<usize> = (0..isl.population.len()).collect();
                    idx.sort_by(|&a, &b| isl.fitness[a].total_cmp(&isl.fitness[b]));
                    idx.into_iter()
                        .take(params.migrants)
                        .map(|i| isl.population[i].clone())
                        .collect()
                })
                .collect();
            let k = islands.len();
            for (i, migrants) in emigrants.into_iter().enumerate() {
                let to = (i + 1) % k;
                let isl = &mut islands[to];
                let mut idx: Vec<usize> = (0..isl.population.len()).collect();
                idx.sort_by(|&a, &b| isl.fitness[b].total_cmp(&isl.fitness[a])); // worst first
                for (slot, migrant) in idx.into_iter().zip(migrants) {
                    isl.population[slot] = migrant;
                }
            }
        }
    }

    islands
        .into_iter()
        .filter_map(|i| i.best)
        .min_by(|a, b| a.best_fitness.total_cmp(&b.best_fitness))
        .expect("at least one island ran")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_core::etc::EtcMatrix;
    use gridsec_core::Time;

    /// 8 jobs × 4 identical single-node sites.
    fn ctx() -> (MapCtx, Vec<NodeAvailability>) {
        let n = 8;
        let m = 4;
        let mut etc = Vec::new();
        for j in 0..n {
            for _ in 0..m {
                etc.push(5.0 * (j + 1) as f64);
            }
        }
        let ctx = MapCtx {
            etc: EtcMatrix::from_raw(n, m, etc),
            widths: vec![1; n],
            arrivals: vec![Time::ZERO; n],
            candidates: vec![(0..m).collect(); n],
            now: Time::ZERO,
            commit_order: vec![],
        };
        let avail = vec![NodeAvailability::new(1, Time::ZERO); m];
        (ctx, avail)
    }

    fn params() -> IslandParams {
        IslandParams {
            ga: GaParams::default()
                .with_population(20)
                .with_generations(40)
                .with_seed(7),
            islands: 3,
            epochs: 4,
            migrants: 2,
        }
    }

    #[test]
    fn islands_find_good_schedules() {
        let (ctx, avail) = ctx();
        let r = evolve_islands(&ctx, &avail, vec![], &params(), FitnessKind::Makespan, None);
        // Total work 5(1+…+8) = 180 over 4 sites → bound 45; a packing at
        // or near 50 is easily reachable.
        assert!(r.best_fitness <= 60.0, "fitness {}", r.best_fitness);
        assert!(r.best.is_feasible(&ctx.candidates));
    }

    #[test]
    fn deterministic_across_runs() {
        let (ctx, avail) = ctx();
        let a = evolve_islands(&ctx, &avail, vec![], &params(), FitnessKind::Makespan, None);
        let b = evolve_islands(&ctx, &avail, vec![], &params(), FitnessKind::Makespan, None);
        assert_eq!(a.best_fitness, b.best_fitness);
        assert_eq!(a.best, b.best);
    }

    #[test]
    fn single_island_degenerates() {
        let (ctx, avail) = ctx();
        let mut p = params();
        p.islands = 1;
        p.migrants = 0;
        let r = evolve_islands(&ctx, &avail, vec![], &p, FitnessKind::Makespan, None);
        assert!(r.best_fitness.is_finite());
    }

    #[test]
    fn invalid_params_rejected() {
        let mut p = params();
        p.islands = 0;
        assert!(p.validate().is_err());
        let mut p = params();
        p.epochs = 0;
        assert!(p.validate().is_err());
        let mut p = params();
        p.migrants = p.ga.population;
        assert!(p.validate().is_err());
    }

    #[test]
    fn seeded_island_zero_propagates_quality() {
        let (ctx, avail) = ctx();
        // A near-optimal seed in island 0 must never be lost.
        let seed_chrom = Chromosome::from_genes(vec![0, 1, 2, 3, 0, 1, 2, 3]);
        let seed_fit =
            crate::kernel::fitness_once(&ctx, &avail, &seed_chrom, FitnessKind::Makespan, None);
        let r = evolve_islands(
            &ctx,
            &avail,
            vec![seed_chrom],
            &params(),
            FitnessKind::Makespan,
            None,
        );
        assert!(r.best_fitness <= seed_fit + 1e-9);
    }
}

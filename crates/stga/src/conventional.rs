//! The conventional GA baseline: identical engine, but every round starts
//! from a purely random population (no history, no heuristic seeds). This
//! is the "traditional GA" whose slow convergence motivates the STGA
//! (Fig. 5).

use crate::chromosome::Chromosome;
use crate::fitness::{FitnessKind, RiskCache};
use crate::ga::{evolve_with_pool, GaPool, GaResult};
use crate::params::GaParams;
use gridsec_core::rng::{stream, Stream};
use gridsec_core::{BatchSchedule, Result, RiskMode, SiteId};
use gridsec_heuristics::common::{Fallback, MapCtx};
use gridsec_sim::{BatchJob, BatchScheduler, GridView};
use rand_chacha::ChaCha8Rng;

/// Conventional (space-only) genetic algorithm scheduler.
pub struct StandardGa {
    params: GaParams,
    rng: ChaCha8Rng,
    fitness: FitnessKind,
    last_result: Option<GaResult>,
    /// Buffers reused across rounds (see [`GaPool`]).
    pool: GaPool,
    /// Fingerprint-keyed risk-weight cache (see
    /// [`Stga`](crate::Stga)'s counterpart); only consulted for
    /// [`FitnessKind::ExpectedMakespan`].
    risk_cache: RiskCache,
}

impl StandardGa {
    /// Creates a conventional GA scheduler.
    pub fn new(params: GaParams) -> Result<StandardGa> {
        params.validate()?;
        let rng = stream(params.seed, Stream::Genetic);
        Ok(StandardGa {
            params,
            rng,
            fitness: FitnessKind::Makespan,
            last_result: None,
            pool: GaPool::new(),
            risk_cache: RiskCache::new(),
        })
    }

    /// Overrides the fitness variant.
    pub fn with_fitness(mut self, kind: FitnessKind) -> StandardGa {
        self.fitness = kind;
        self
    }

    /// Convergence trajectory of the most recent round.
    pub fn last_trajectory(&self) -> Option<&[f64]> {
        self.last_result.as_ref().map(|r| r.trajectory.as_slice())
    }

    /// The parameters in force.
    pub fn params(&self) -> &GaParams {
        &self.params
    }
}

impl BatchScheduler for StandardGa {
    fn name(&self) -> String {
        "GA".to_string()
    }

    fn on_reconfigure(&mut self) {
        self.risk_cache.invalidate();
    }

    fn schedule(&mut self, batch: &[BatchJob], view: &GridView<'_>) -> BatchSchedule {
        let ctx = MapCtx::build(batch, view, RiskMode::Risky, Fallback::default());
        let risk_weights = match self.fitness {
            FitnessKind::Makespan => None,
            FitnessKind::ExpectedMakespan => {
                let sds: Vec<f64> = batch.iter().map(|b| b.job.security_demand).collect();
                let sls: Vec<f64> = view.grid.security_levels().collect();
                Some(self.risk_cache.get_or_build(
                    &view.model,
                    view.grid.security_fingerprint(),
                    &sds,
                    &sls,
                ))
            }
        };
        let result = evolve_with_pool(
            &ctx,
            view.avail,
            Vec::<Chromosome>::new(),
            &self.params,
            self.fitness,
            risk_weights,
            &mut self.rng,
            &mut self.pool,
        );
        let schedule = BatchSchedule::from_pairs(
            batch
                .iter()
                .enumerate()
                .map(|(j, bj)| (bj.job.id, SiteId(result.best.site_of(j)))),
        );
        self.last_result = Some(result);
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_core::etc::NodeAvailability;
    use gridsec_core::{Grid, Job, SecurityModel, Site, Time};

    #[test]
    fn conventional_ga_schedules_validly() {
        let grid = Grid::new(vec![
            Site::builder(0).nodes(1).speed(1.0).build().unwrap(),
            Site::builder(1).nodes(1).speed(3.0).build().unwrap(),
        ])
        .unwrap();
        let avail = vec![
            NodeAvailability::new(1, Time::ZERO),
            NodeAvailability::new(1, Time::ZERO),
        ];
        let view = GridView {
            grid: &grid,
            avail: &avail,
            now: Time::ZERO,
            model: SecurityModel::default(),
        };
        let jobs: Vec<Job> = (0..6)
            .map(|i| Job::builder(i).work(30.0).build().unwrap())
            .collect();
        let batch: Vec<BatchJob> = jobs
            .iter()
            .cloned()
            .map(|job| BatchJob {
                job,
                secure_only: false,
            })
            .collect();
        let mut ga = StandardGa::new(
            GaParams::default()
                .with_population(30)
                .with_generations(30)
                .with_seed(1),
        )
        .unwrap();
        let s = ga.schedule(&batch, &view);
        assert!(s.validate(&jobs, &grid).is_ok());
        assert_eq!(ga.name(), "GA");
        // 6 × 30 s of work over speeds (1, 3): optimum near 60 s; a short
        // GA run should land below the all-on-one-site extremes.
        let fit = ga.last_result.as_ref().unwrap().best_fitness;
        assert!(fit < 180.0, "fitness {fit}");
    }
}

//! The Space-Time Genetic Algorithm scheduler (§3, Fig. 6).

use crate::chromosome::{gene, Chromosome};
use crate::fitness::{FitnessKind, RiskCache};
use crate::ga::{evolve_with_pool, GaPool, GaResult};
use crate::history::{BatchSignature, HistoryTable};
use crate::params::StgaParams;
use gridsec_core::etc::NodeAvailability;
use gridsec_core::rng::{stream, Stream};
use gridsec_core::{BatchSchedule, Grid, Job, Result, RiskMode, SiteId, Time};
use gridsec_heuristics::common::{Fallback, MapCtx};
use gridsec_heuristics::mapping::{map_min_min, map_sufferage};
use gridsec_sim::{BatchJob, BatchScheduler, GridView};
use rand_chacha::ChaCha8Rng;

/// The STGA scheduler.
///
/// Per scheduling round (Fig. 6):
///
/// 1. build the batch signature (site ready times, ETC matrix, security
///    demands);
/// 2. pull up to `history_fraction × population` chromosomes from
///    sufficiently similar past rounds (Eq. 2 ≥ threshold), adapting them
///    to the current batch;
/// 3. add Min-Min and Sufferage solutions (when enabled) and fill the
///    rest of the population randomly ("to guarantee enough diversity");
/// 4. evolve for `generations` iterations;
/// 5. store the best chromosome back into the LRU history table.
///
/// Like the paper's STGA, jobs are free to take risks (risky-mode
/// candidates); previously-failed jobs are pinned to safe sites.
pub struct Stga {
    params: StgaParams,
    history: HistoryTable,
    rng: ChaCha8Rng,
    fitness: FitnessKind,
    last_result: Option<GaResult>,
    /// Population/fitness buffers reused across scheduling rounds — a
    /// long-lived STGA (one batch after another in the serving daemon)
    /// allocates its GA state once and recycles it forever.
    pool: GaPool,
    /// Memoised risk-weight table for [`FitnessKind::ExpectedMakespan`]:
    /// rebuilt only when the security snapshot fingerprint moves (trust
    /// re-rate / reconfigure), not on every round.
    risk_cache: RiskCache,
}

impl Stga {
    /// Creates an STGA with a fresh history table.
    pub fn new(params: StgaParams) -> Result<Stga> {
        // Before the table is sized by it (a zero capacity panics there).
        params.validate()?;
        let history = HistoryTable::new(params.table_capacity);
        Self::with_history(params, history)
    }

    /// Creates an STGA that owns an existing (possibly pre-trained or
    /// restored) table. Refuses invalid parameters, as [`Stga::new`]
    /// does: a population of one would otherwise panic the first round.
    pub fn with_history(params: StgaParams, history: HistoryTable) -> Result<Stga> {
        params.validate()?;
        let rng = stream(params.ga.seed, Stream::Genetic);
        Ok(Stga {
            params,
            history,
            rng,
            fitness: FitnessKind::Makespan,
            last_result: None,
            pool: GaPool::new(),
            risk_cache: RiskCache::new(),
        })
    }

    /// Overrides the fitness variant (ablations).
    pub fn with_fitness(mut self, kind: FitnessKind) -> Stga {
        self.fitness = kind;
        self
    }

    /// The history table.
    pub fn history(&self) -> &HistoryTable {
        &self.history
    }

    /// The parameters in force.
    pub fn params(&self) -> &StgaParams {
        &self.params
    }

    /// Convergence trajectory of the most recent round (for Fig. 5-style
    /// plots), if any round has run.
    pub fn last_trajectory(&self) -> Option<&[f64]> {
        self.last_result.as_ref().map(|r| r.trajectory.as_slice())
    }

    /// `(hits, misses)` of the risk-weight cache (only populated when the
    /// fitness variant is [`FitnessKind::ExpectedMakespan`]).
    pub fn risk_cache_stats(&self) -> (u64, u64) {
        self.risk_cache.stats()
    }

    /// Pre-populates the history table by running Min-Min and Sufferage
    /// over `jobs` in batches of `batch_size` against an initially idle
    /// copy of `grid`, committing each batch so successive signatures see
    /// evolving load (§4.3: "we use the Min-Min and Sufferage heuristics
    /// \[on\] a fixed number of training jobs to generate the initial
    /// lookup table entries"; Table 1: 500 training jobs).
    pub fn train(&mut self, jobs: &[Job], grid: &Grid, batch_size: usize) -> Result<()> {
        let batch_size = batch_size.max(1);
        let take = jobs.len().min(self.params.training_jobs);
        let mut avail: Vec<NodeAvailability> = grid
            .sites()
            .map(|s| NodeAvailability::new(s.nodes, Time::ZERO))
            .collect();
        for chunk in jobs[..take].chunks(batch_size) {
            let batch: Vec<BatchJob> = chunk
                .iter()
                .cloned()
                .map(|job| BatchJob {
                    job,
                    secure_only: false,
                })
                .collect();
            let view = GridView {
                grid,
                avail: &avail,
                now: Time::ZERO,
                model: gridsec_core::SecurityModel::default(),
            };
            let ctx = MapCtx::build(&batch, &view, RiskMode::Risky, Fallback::default());
            let sig = signature_of(&ctx, &avail, &batch);
            let mut a1 = avail.clone();
            let mm = mapping_to_chromosome(&map_min_min(&ctx, &mut a1), ctx.n_jobs());
            let mut a2 = avail.clone();
            let sf = mapping_to_chromosome(&map_sufferage(&ctx, &mut a2), ctx.n_jobs());
            self.history.insert(sig.clone(), mm.clone());
            self.history.insert(sig, sf);
            // Commit the Min-Min plan so the next training batch sees a
            // loaded grid.
            for (j, s) in mm.genes().iter().enumerate() {
                let s = *s as usize;
                let ct = ctx
                    .completion(&avail, j, s)
                    .expect("training mapping is feasible");
                avail[s].commit(ctx.widths[j], ct);
            }
        }
        Ok(())
    }
}

/// Converts a `(job, site)` mapping into the positional chromosome.
fn mapping_to_chromosome(mapping: &[(usize, usize)], n: usize) -> Chromosome {
    let mut genes = vec![0u16; n];
    for &(j, s) in mapping {
        genes[j] = gene(s);
    }
    Chromosome::from_genes(genes)
}

/// Builds the Eq. 2 signature of a batch: re-based site ready times, the
/// flattened ETC matrix, and the job security demands.
fn signature_of(ctx: &MapCtx, avail: &[NodeAvailability], batch: &[BatchJob]) -> BatchSignature {
    let readies: Vec<f64> = avail.iter().map(|a| a.ready_time().seconds()).collect();
    let base = readies.iter().copied().fold(f64::INFINITY, f64::min);
    let base = if base.is_finite() { base } else { 0.0 };
    BatchSignature {
        ready_times: readies.iter().map(|r| r - base).collect(),
        etc: ctx.etc.raw().to_vec(),
        demands: batch.iter().map(|b| b.job.security_demand).collect(),
    }
}

impl BatchScheduler for Stga {
    fn name(&self) -> String {
        "STGA".to_string()
    }

    fn on_reconfigure(&mut self) {
        // Drop everything compiled from the old security snapshot. The
        // fitness kernel itself is re-lowered from the live snapshot at
        // the start of every round, so the risk table is the only state
        // that could go stale.
        self.risk_cache.invalidate();
    }

    fn snapshot(&self) -> Option<String> {
        Some(self.history.to_json())
    }

    fn schedule(&mut self, batch: &[BatchJob], view: &GridView<'_>) -> BatchSchedule {
        let _eval_span = gridsec_obs::span!("stga_eval", batch = batch.len());
        // First-fit-decreasing commit order: the GA's schedule replay (and
        // the engine's dispatch, which follows the emitted order) packs
        // wide jobs first — strictly better bin-packing on multi-node
        // sites than arrival order.
        let ctx = MapCtx::build(batch, view, RiskMode::Risky, Fallback::default()).with_ffd_order();
        let sig = signature_of(&ctx, view.avail, batch);

        let pop = self.params.ga.population;
        let history_limit = ((pop as f64) * self.params.history_fraction).floor() as usize;
        let history_span = gridsec_obs::span!("stga_history", limit = history_limit => seeds);
        let mut seeds: Vec<Chromosome> = self
            .history
            .lookup(&sig, self.params.similarity_threshold, history_limit)
            .into_iter()
            .map(|c| c.repair(&ctx.candidates, &mut self.rng))
            .collect();
        history_span.end_with(seeds.len() as i64);

        if self.params.heuristic_seeds {
            let mut a1 = view.avail_clone();
            seeds.push(mapping_to_chromosome(
                &map_min_min(&ctx, &mut a1),
                ctx.n_jobs(),
            ));
            let mut a2 = view.avail_clone();
            seeds.push(mapping_to_chromosome(
                &map_sufferage(&ctx, &mut a2),
                ctx.n_jobs(),
            ));
        }

        // Base STGA minimises pure makespan (no risk table); the
        // risk-aware ablation inflates execution times by expected
        // attempts, with the `[job × site]` table served from the
        // fingerprint-keyed cache instead of rebuilt every round.
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
        let evolve_span = gridsec_obs::span!("stga_evolve", seeds = seeds.len());
        let result = evolve_with_pool(
            &ctx,
            view.avail,
            seeds,
            &self.params.ga,
            self.fitness,
            risk_weights,
            &mut self.rng,
            &mut self.pool,
        );
        drop(evolve_span);
        self.history.insert(sig, result.best.clone());

        // Emit in the fitness replay's commit order so the engine realises
        // exactly the schedule the GA evaluated.
        let schedule = BatchSchedule::from_pairs(
            ctx.order_iter()
                .map(|j| (batch[j].job.id, SiteId(result.best.site_of(j)))),
        );
        self.last_result = Some(result);
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chromosome::MAX_SITES;
    use crate::params::GaParams;
    use gridsec_core::{SecurityModel, Site};

    fn params_small() -> StgaParams {
        StgaParams {
            ga: GaParams::default()
                .with_population(30)
                .with_generations(20)
                .with_seed(3),
            ..StgaParams::default()
        }
    }

    fn grid() -> Grid {
        Grid::new(vec![
            Site::builder(0)
                .nodes(2)
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

    fn batch(n: u64) -> Vec<BatchJob> {
        (0..n)
            .map(|i| BatchJob {
                job: Job::builder(i)
                    .work(50.0 + 10.0 * i as f64)
                    .security_demand(0.6 + 0.02 * (i % 10) as f64)
                    .build()
                    .unwrap(),
                secure_only: false,
            })
            .collect()
    }

    #[test]
    fn schedules_whole_batch_validly() {
        let g = grid();
        let avail = vec![
            NodeAvailability::new(2, Time::ZERO),
            NodeAvailability::new(2, Time::ZERO),
        ];
        let view = GridView {
            grid: &g,
            avail: &avail,
            now: Time::ZERO,
            model: SecurityModel::default(),
        };
        let b = batch(8);
        let jobs: Vec<Job> = b.iter().map(|x| x.job.clone()).collect();
        let mut stga = Stga::new(params_small()).unwrap();
        let s = stga.schedule(&b, &view);
        assert!(s.validate(&jobs, &g).is_ok());
        assert!(stga.last_trajectory().is_some());
        // The round was recorded in history.
        assert_eq!(stga.history().len(), 1);
    }

    #[test]
    fn history_grows_and_seeds_later_rounds() {
        let g = grid();
        let avail = vec![
            NodeAvailability::new(2, Time::ZERO),
            NodeAvailability::new(2, Time::ZERO),
        ];
        let view = GridView {
            grid: &g,
            avail: &avail,
            now: Time::ZERO,
            model: SecurityModel::default(),
        };
        let b = batch(6);
        let mut stga = Stga::new(params_small()).unwrap();
        let first = stga.schedule(&b, &view);
        // The same batch again: history should contain a (near-)exact
        // match, and the result should be at least as good.
        let second = stga.schedule(&b, &view);
        assert_eq!(stga.history().len(), 2);
        assert_eq!(first.len(), second.len());
    }

    #[test]
    fn secure_only_jobs_get_safe_sites() {
        let g = grid();
        let avail = vec![
            NodeAvailability::new(2, Time::ZERO),
            NodeAvailability::new(2, Time::ZERO),
        ];
        let view = GridView {
            grid: &g,
            avail: &avail,
            now: Time::ZERO,
            model: SecurityModel::default(),
        };
        // SD 0.8: only site 0 (SL 0.9) is safe.
        let b = vec![BatchJob {
            job: Job::builder(0)
                .work(10.0)
                .security_demand(0.8)
                .build()
                .unwrap(),
            secure_only: true,
        }];
        let mut stga = Stga::new(params_small()).unwrap();
        let s = stga.schedule(&b, &view);
        assert_eq!(s.site_of(gridsec_core::JobId(0)), Some(SiteId(0)));
    }

    /// One STGA round of `n` secure-only jobs (SD 0.9) on 65 537 one-node
    /// sites, all SL 0.1 but the last (SL 1.0): site 65 536 is every
    /// job's one candidate, and no `u16` gene names it. At d421fe1 the
    /// gene wrapped to site 0 (SL 0.1) and the round was accepted.
    fn round_past_the_gene_limit(n: u64) {
        let sites = (0..=MAX_SITES)
            .map(|i| {
                Site::builder(i)
                    .nodes(1)
                    .speed(1.0)
                    .security_level(if i == MAX_SITES { 1.0 } else { 0.1 })
                    .build()
                    .unwrap()
            })
            .collect();
        let g = Grid::new(sites).unwrap();
        let avail = vec![NodeAvailability::new(1, Time::ZERO); MAX_SITES + 1];
        let view = GridView {
            grid: &g,
            avail: &avail,
            now: Time::ZERO,
            model: SecurityModel::default(),
        };
        let b: Vec<BatchJob> = (0..n)
            .map(|i| BatchJob {
                job: Job::builder(i)
                    .work(10.0)
                    .security_demand(0.9)
                    .build()
                    .unwrap(),
                secure_only: true,
            })
            .collect();
        let params = StgaParams {
            ga: GaParams::default()
                .with_population(4)
                .with_generations(2)
                .with_seed(3),
            heuristic_seeds: false,
            ..StgaParams::default()
        };
        let mut stga = Stga::new(params).unwrap();
        let _ = stga.schedule(&b, &view);
    }

    #[test]
    #[should_panic(expected = "site 65536 has no gene: a chromosome names at most 65536 sites")]
    fn a_one_job_round_refuses_a_site_no_gene_names() {
        round_past_the_gene_limit(1);
    }

    #[test]
    #[should_panic(expected = "site 65536 has no gene: a chromosome names at most 65536 sites")]
    fn a_two_job_round_refuses_a_site_no_gene_names() {
        round_past_the_gene_limit(2);
    }

    #[test]
    fn a_shared_history_does_not_bypass_validation() {
        let mut p = params_small();
        p.ga.population = 1;
        let history = HistoryTable::new(p.table_capacity);
        assert!(Stga::with_history(p, history.clone()).is_err());
        assert!(Stga::with_history(params_small(), history).is_ok());
    }

    #[test]
    fn training_populates_history() {
        let g = grid();
        let jobs: Vec<Job> = (0..40)
            .map(|i| {
                Job::builder(i)
                    .work(25.0 + i as f64)
                    .security_demand(0.7)
                    .build()
                    .unwrap()
            })
            .collect();
        let mut stga = Stga::new(params_small()).unwrap();
        stga.train(&jobs, &g, 8).unwrap();
        // 40 jobs / batches of 8 = 5 batches × 2 heuristics = 10 entries.
        assert_eq!(stga.history().len(), 10);
    }

    #[test]
    fn training_respects_training_job_cap() {
        let g = grid();
        let mut p = params_small();
        p.training_jobs = 10;
        let jobs: Vec<Job> = (0..100)
            .map(|i| Job::builder(i).work(20.0).build().unwrap())
            .collect();
        let mut stga = Stga::new(p).unwrap();
        stga.train(&jobs, &g, 5).unwrap();
        // Only 10 jobs used → 2 batches × 2 entries.
        assert_eq!(stga.history().len(), 4);
    }

    #[test]
    fn risk_cache_serves_repeated_rounds_and_reconfigures_invalidate() {
        let g = grid();
        let avail = vec![
            NodeAvailability::new(2, Time::ZERO),
            NodeAvailability::new(2, Time::ZERO),
        ];
        let view = GridView {
            grid: &g,
            avail: &avail,
            now: Time::ZERO,
            model: SecurityModel::default(),
        };
        let b = batch(6);
        let mut stga = Stga::new(params_small())
            .unwrap()
            .with_fitness(FitnessKind::ExpectedMakespan);
        let _ = stga.schedule(&b, &view);
        assert_eq!(stga.risk_cache_stats(), (0, 1), "first round builds");
        let _ = stga.schedule(&b, &view);
        let _ = stga.schedule(&b, &view);
        assert_eq!(
            stga.risk_cache_stats(),
            (2, 1),
            "unchanged snapshot must hit the cache"
        );
        // A trust reconfiguration notification invalidates the table.
        stga.on_reconfigure();
        let _ = stga.schedule(&b, &view);
        assert_eq!(stga.risk_cache_stats(), (2, 2));
        // Base (Makespan) STGA never touches the cache.
        let mut base = Stga::new(params_small()).unwrap();
        let _ = base.schedule(&b, &view);
        assert_eq!(base.risk_cache_stats(), (0, 0));
    }

    #[test]
    fn stga_beats_or_matches_its_heuristic_seeds() {
        // With heuristic seeding + elitism the GA result can never be
        // worse than the better of Min-Min / Sufferage on the same batch.
        let g = grid();
        let avail = vec![
            NodeAvailability::new(2, Time::ZERO),
            NodeAvailability::new(2, Time::ZERO),
        ];
        let view = GridView {
            grid: &g,
            avail: &avail,
            now: Time::ZERO,
            model: SecurityModel::default(),
        };
        let b = batch(10);
        let ctx = MapCtx::build(&b, &view, RiskMode::Risky, Fallback::default());
        let mut a1 = avail.clone();
        let mm = mapping_to_chromosome(&map_min_min(&ctx, &mut a1), ctx.n_jobs());
        let mm_fit = crate::kernel::fitness_once(&ctx, &avail, &mm, FitnessKind::Makespan, None);
        let mut stga = Stga::new(params_small()).unwrap();
        let _ = stga.schedule(&b, &view);
        let best = stga.last_result.as_ref().unwrap().best_fitness;
        assert!(best <= mm_fit + 1e-9, "GA {best} vs Min-Min {mm_fit}");
    }
}

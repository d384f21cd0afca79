//! The generic GA engine: selection → crossover → mutation → elitism.
//!
//! Each generation is one sequential pass driven by one RNG stream: every
//! child is bred into its row of a flat gene arena, evaluated at once
//! against the round's compiled [`FitnessKernel`] and offered, in index
//! order, to an incremental [`Sweep`] (best index, elites and the wheel's
//! extremes for the next generation). Evaluation draws no random number,
//! so breeding and evaluating child by child draws exactly what breeding
//! a whole generation first would. Every buffer lives in a [`GaPool`], so
//! a warm round allocates only its result.
//!
//! Each new genome is evaluated once. A child whose genome equals one of
//! its two parents' — its own parent's, when crossover and mutation left
//! the touched suffix unchanged, or the other parent's, whole — inherits
//! that parent's fitness; so do the elites. Once the history-seeded
//! population converges that is most children: about two thirds on
//! Table-1 PSA rounds (`tests/replay_counts.rs` counts them). Every
//! other individual is replayed fitness-only
//! ([`FitnessKernel::evaluate_fitness`]), on every grid; no completion
//! time is kept.

use crate::chromosome::{gene, randomize, Chromosome};
use crate::fitness::{FitnessKind, RiskWeights};
use crate::kernel::{FitnessKernel, KernelScratch};
use crate::ops::{crossover_into, mutate_tracked};
use crate::params::GaParams;
use crate::selection::{RouletteWheel, Sweep};
use gridsec_core::etc::NodeAvailability;
use gridsec_heuristics::common::MapCtx;
use rand::Rng;

/// Outcome of one evolution run.
#[derive(Debug, Clone, PartialEq)]
pub struct GaResult {
    /// The best chromosome found.
    pub best: Chromosome,
    /// Its fitness (batch makespan + tie-break, seconds).
    pub best_fitness: f64,
    /// Best fitness after each generation (index 0 = initial population),
    /// for convergence plots (Fig. 5 / Fig. 7b). Shorter than
    /// `generations + 1` only when `stall_limit` stopped evolution early.
    pub trajectory: Vec<f64>,
}

/// Cross-round buffer pool for the evolve loop: both generations (gene
/// arenas, fitness vectors, sweeps), the compiled kernel, the roulette
/// table and the kernel's scratch.
///
/// [`evolve`] builds a throwaway pool per call. A long-lived scheduler
/// (the STGA rescheduling every batch inside the serving daemon) owns one
/// across rounds, so a warm round allocates nothing but the [`GaResult`]
/// it returns; `tests/pool_allocations.rs` counts it under a counting
/// allocator.
#[derive(Debug, Default)]
pub struct GaPool {
    /// The generation selected from, and the one being bred (swapped at
    /// the end of every generation).
    current: Generation,
    next: Generation,
    /// The compiled fitness program, re-lowered from the live snapshot at
    /// the start of every round (buffers reused across rounds).
    kernel: FitnessKernel,
    wheel: RouletteWheel,
    scratch: KernelScratch,
}

impl GaPool {
    /// An empty pool; buffers warm up over the first run and are reused
    /// verbatim afterwards.
    pub fn new() -> GaPool {
        GaPool::default()
    }
}

/// One generation: its genomes, their fitness and the sweep over them.
#[derive(Debug, Default)]
struct Generation {
    /// `population + 1` rows of `n` genes: row `i` is individual `i`; the
    /// last row takes the unplaced second child when the non-elite count
    /// is odd (it still consumes its RNG draws).
    genes: Vec<u16>,
    /// Individual `i`'s fitness, appended by `sweep`.
    fitness: Vec<f64>,
    sweep: Sweep,
}

impl Generation {
    /// Sizes the buffers for `population` individuals of `n` genes; rows
    /// keep stale genes until written.
    fn resize(&mut self, population: usize, n: usize) {
        self.genes.resize((population + 1) * n, 0);
    }

    /// Individual `i`'s genome.
    fn row(&self, i: usize, n: usize) -> &[u16] {
        &self.genes[i * n..(i + 1) * n]
    }
}

/// How one individual of the incoming generation gets its fitness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plan {
    /// Replay the whole chromosome from the base availability plane.
    Full,
    /// Byte-identical copy of parent `parent` (elites, and children whose
    /// genome equals one of their parents' — see [`plan_child`]): inherit
    /// its fitness, a pure function of the genes.
    Inherit { parent: usize },
}

/// How a freshly bred child gets its fitness. The child started as a copy
/// of its `own` parent and differs from it at most in genes `from..n`
/// (the crossover cut and mutation index the operators report). It
/// inherits when its genome equals a parent's: its own parent's (the
/// touched suffix came out unchanged) or, whole, the `other` parent's
/// (crossover between near-identical parents hands a child the other's
/// genome). Otherwise it is replayed.
fn plan_child(child: &[u16], own: (usize, &[u16]), other: (usize, &[u16]), from: usize) -> Plan {
    if child[from..] == own.1[from..] {
        Plan::Inherit { parent: own.0 }
    } else if child == other.1 {
        Plan::Inherit { parent: other.0 }
    } else {
        Plan::Full
    }
}

/// The round's compiled kernel, its scratch, and how many individuals
/// inherited their fitness and how many were replayed.
struct Evaluator<'a> {
    kernel: &'a FitnessKernel,
    scratch: &'a mut KernelScratch,
    inherited: u64,
    full: u64,
}

impl Evaluator<'_> {
    /// Evaluates genome `genes` of the incoming generation per its `plan`
    /// and returns its fitness. `parents` is the fitness of the generation
    /// it was bred from.
    fn evaluate(&mut self, genes: &[u16], plan: Plan, parents: &[f64]) -> f64 {
        match plan {
            Plan::Inherit { parent } => {
                self.inherited += 1;
                parents[parent]
            }
            Plan::Full => self.replay(genes),
        }
    }

    /// Fitness-only replay of `genes` ([`FitnessKernel::evaluate_fitness`]).
    fn replay(&mut self, genes: &[u16]) -> f64 {
        self.full += 1;
        self.kernel.evaluate_fitness(genes, self.scratch)
    }
}

/// Evolves `initial` over `params.generations` generations and returns the
/// best solution seen. The initial population is padded with random
/// feasible chromosomes (or truncated) to `params.population`.
///
/// Single-job batches are solved exactly by enumeration — the GA could
/// only ever rediscover the best site, so the engine skips straight to it.
///
/// Determinism: all stochastic choices flow from `rng`; evaluation is
/// sequential and draws nothing, so the installed thread pool is never
/// consulted.
///
/// # Panics
/// Panics if a candidate site is not below
/// [`MAX_SITES`](crate::chromosome::MAX_SITES): a gene cannot name it.
pub fn evolve<R: Rng + ?Sized>(
    ctx: &MapCtx,
    base_avail: &[NodeAvailability],
    initial: Vec<Chromosome>,
    params: &GaParams,
    kind: FitnessKind,
    risk: Option<&RiskWeights>,
    rng: &mut R,
) -> GaResult {
    let mut pool = GaPool::new();
    evolve_with_pool(ctx, base_avail, initial, params, kind, risk, rng, &mut pool)
}

/// The pooled core of [`evolve`]: identical behaviour (bit for bit — the
/// RNG consumption does not depend on the pool's warmth), but every
/// buffer lives in `pool` and survives the call for reuse by the next
/// scheduling round.
#[allow(clippy::too_many_arguments)] // the pooled variant of evolve's already-wide signature
pub fn evolve_with_pool<R: Rng + ?Sized>(
    ctx: &MapCtx,
    base_avail: &[NodeAvailability],
    initial: Vec<Chromosome>,
    params: &GaParams,
    kind: FitnessKind,
    risk: Option<&RiskWeights>,
    rng: &mut R,
    pool: &mut GaPool,
) -> GaResult {
    params.validate().expect("GA parameters must be valid");
    let n = ctx.n_jobs();
    assert!(n > 0, "cannot evolve an empty batch");
    let GaPool {
        current,
        next,
        kernel,
        wheel,
        scratch,
    } = pool;

    if n == 1 {
        kernel.recompile(ctx, base_avail, kind, risk, params.flow_weight);
        return solve_single_job(ctx, kernel, scratch, params);
    }

    // Seed chromosomes fill the first rows, random ones the rest; both
    // consume exactly the RNG draws of building them one by one.
    let population = params.population;
    current.resize(population, n);
    next.resize(population, n);
    let mut rows = current.genes.chunks_exact_mut(n).take(population);
    for (seed, row) in initial.iter().filter(|c| c.len() == n).zip(rows.by_ref()) {
        row.copy_from_slice(seed.genes());
    }
    for row in rows {
        randomize(row, &ctx.candidates, rng);
    }

    // Lower this round's snapshot into the flat kernel (buffers reused
    // across rounds; any grid/trust/availability change since the last
    // round is picked up here).
    kernel.recompile(ctx, base_avail, kind, risk, params.flow_weight);
    let mut eval = Evaluator {
        kernel,
        scratch,
        inherited: 0,
        full: 0,
    };

    // Generation 0 (seeded + random individuals) has no parents: full
    // replays only, of the `population` rows (the arena's spare row is
    // not an individual).
    let Generation {
        genes,
        fitness,
        sweep,
    } = &mut *current;
    let rows = genes.chunks_exact(n).take(population);
    sweep.run(fitness, params.elitism, rows.map(|row| eval.replay(row)));
    let (best_index, mut best_fitness) = sweep.best();
    let mut best = current.row(best_index, n).to_vec();
    let mut trajectory = Vec::with_capacity(params.generations + 1);
    trajectory.push(best_fitness);
    let mut stall = 0usize;

    for _ in 0..params.generations {
        wheel.fill(&current.fitness, current.sweep.extremes());
        let Generation {
            genes,
            fitness,
            sweep,
        } = &mut *next;
        sweep.begin(fitness, params.elitism);
        // The elites are copied to the head rows and inherit their
        // fitness outright.
        let mut filled = 0;
        for &e in current.sweep.elites() {
            let child = &mut genes[filled * n..(filled + 1) * n];
            child.copy_from_slice(current.row(e, n));
            let f = eval.evaluate(child, Plan::Inherit { parent: e }, &current.fitness);
            sweep.offer(fitness, f);
            filled += 1;
        }
        while filled < population {
            let pa = wheel.spin(rng);
            let pb = wheel.spin(rng);
            // Write both children straight from their parents — crossed
            // (`a[..cut] ++ b[cut..]`, same draws as crossing copies) or
            // copied — into rows `filled` and `filled + 1` (the spare row
            // when `filled` is the last), then mutate in place, tracking
            // the lowest touched gene so a child whose touched genes came
            // out unchanged inherits instead of replaying.
            let (a, b) = (current.row(pa, n), current.row(pb, n));
            let (ca, cb) = genes[filled * n..(filled + 2) * n].split_at_mut(n);
            let mut from_a = n;
            let mut from_b = n;
            if rng.gen::<f64>() < params.crossover_prob {
                if let Some(cut) = crossover_into(a, b, ca, cb, rng) {
                    from_a = cut;
                    from_b = cut;
                }
            } else {
                ca.copy_from_slice(a);
                cb.copy_from_slice(b);
            }
            if rng.gen::<f64>() < params.mutation_prob {
                if let Some(j) = mutate_tracked(ca, &ctx.candidates, rng) {
                    from_a = from_a.min(j);
                }
            }
            if rng.gen::<f64>() < params.mutation_prob {
                if let Some(j) = mutate_tracked(cb, &ctx.candidates, rng) {
                    from_b = from_b.min(j);
                }
            }
            // Evaluate and sweep each placed child in index order; the
            // spare row's child is never evaluated.
            let (a, b) = ((pa, a), (pb, b));
            for (child, own, other, from) in [(&*ca, a, b, from_a), (&*cb, b, a, from_b)] {
                if filled == population {
                    break;
                }
                let plan = plan_child(child, own, other, from);
                let f = eval.evaluate(child, plan, &current.fitness);
                sweep.offer(fitness, f);
                filled += 1;
            }
        }
        sweep.finish(fitness);
        std::mem::swap(current, next);
        let (gen_bi, gen_fit) = current.sweep.best();
        if gen_fit < best_fitness {
            best.copy_from_slice(current.row(gen_bi, n));
            best_fitness = gen_fit;
            stall = 0;
        } else {
            stall += 1;
        }
        trajectory.push(best_fitness);
        if let Some(limit) = params.stall_limit {
            if stall >= limit {
                break;
            }
        }
    }

    // One count per path an individual can take, once per round, inside
    // the caller's `stga_eval` span.
    gridsec_obs::event!(
        "stga_children",
        inherited = eval.inherited,
        full = eval.full
    );
    GaResult {
        best: Chromosome::from_genes(best),
        best_fitness,
        trajectory,
    }
}

/// Exact solution for a single-job batch: try every candidate site
/// against the round's compiled kernel.
fn solve_single_job(
    ctx: &MapCtx,
    kernel: &FitnessKernel,
    scratch: &mut KernelScratch,
    params: &GaParams,
) -> GaResult {
    let mut best: Option<(u16, f64)> = None;
    for &s in &ctx.candidates[0] {
        let gene = gene(s);
        let f = kernel.evaluate_fitness(&[gene], scratch);
        if best.is_none_or(|(_, bf)| f < bf) {
            best = Some((gene, f));
        }
    }
    let (gene, best_fitness) = best.expect("single job has at least one candidate");
    GaResult {
        best: Chromosome::from_genes(vec![gene]),
        best_fitness,
        trajectory: vec![best_fitness; params.generations + 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::crossover_into;
    use gridsec_core::etc::EtcMatrix;
    use gridsec_core::rng::{stream, Stream};
    use gridsec_core::Time;

    /// 6 jobs × 3 identical single-node sites; optimum spreads the load.
    fn ctx() -> (MapCtx, Vec<NodeAvailability>) {
        let n = 6;
        let m = 3;
        let mut etc = Vec::new();
        for j in 0..n {
            for _ in 0..m {
                etc.push(10.0 * (j + 1) as f64);
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

    fn small_params() -> GaParams {
        GaParams::default()
            .with_population(40)
            .with_generations(60)
            .with_seed(11)
    }

    #[test]
    fn ga_finds_balanced_schedule() {
        let (ctx, avail) = ctx();
        let mut rng = stream(11, Stream::Genetic);
        let r = evolve(
            &ctx,
            &avail,
            vec![],
            &small_params(),
            FitnessKind::Makespan,
            None,
            &mut rng,
        );
        // Work totals 10+20+…+60 = 210 over 3 sites → lower bound 70.
        // The GA should find a schedule at or near it (optimum = 70).
        assert!(r.best_fitness <= 80.0, "fitness {}", r.best_fitness);
        assert!(r.best.is_feasible(&ctx.candidates));
    }

    #[test]
    fn trajectory_is_monotone_nonincreasing_with_elitism() {
        let (ctx, avail) = ctx();
        let mut rng = stream(12, Stream::Genetic);
        let r = evolve(
            &ctx,
            &avail,
            vec![],
            &small_params(),
            FitnessKind::Makespan,
            None,
            &mut rng,
        );
        assert_eq!(r.trajectory.len(), 61);
        assert!(r.trajectory.windows(2).all(|w| w[1] <= w[0]));
        assert_eq!(*r.trajectory.last().unwrap(), r.best_fitness);
    }

    #[test]
    fn seeded_population_cannot_be_worse_than_seed() {
        let (ctx, avail) = ctx();
        // A deliberately good seed: round-robin.
        let seed_chrom = Chromosome::from_genes(vec![0, 1, 2, 0, 1, 2]);
        let seed_fit =
            crate::kernel::fitness_once(&ctx, &avail, &seed_chrom, FitnessKind::Makespan, None);
        let mut rng = stream(13, Stream::Genetic);
        let r = evolve(
            &ctx,
            &avail,
            vec![seed_chrom],
            &small_params().with_generations(5),
            FitnessKind::Makespan,
            None,
            &mut rng,
        );
        assert!(r.best_fitness <= seed_fit);
    }

    #[test]
    fn deterministic_given_rng() {
        let (ctx, avail) = ctx();
        let run = |seed| {
            let mut rng = stream(seed, Stream::Genetic);
            evolve(
                &ctx,
                &avail,
                vec![],
                &small_params(),
                FitnessKind::Makespan,
                None,
                &mut rng,
            )
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a, b);
    }

    #[test]
    fn wrong_length_seeds_are_dropped() {
        let (ctx, avail) = ctx();
        let mut rng = stream(14, Stream::Genetic);
        let bad = Chromosome::from_genes(vec![0, 1]); // length 2 ≠ 6
        let r = evolve(
            &ctx,
            &avail,
            vec![bad],
            &small_params().with_generations(1),
            FitnessKind::Makespan,
            None,
            &mut rng,
        );
        assert_eq!(r.best.len(), 6);
    }

    #[test]
    fn zero_generations_returns_initial_best() {
        let (ctx, avail) = ctx();
        let mut rng = stream(15, Stream::Genetic);
        let r = evolve(
            &ctx,
            &avail,
            vec![],
            &small_params().with_generations(0),
            FitnessKind::Makespan,
            None,
            &mut rng,
        );
        assert_eq!(r.trajectory.len(), 1);
        assert!(r.best_fitness.is_finite());
    }

    #[test]
    fn single_job_is_solved_exactly() {
        // One job, three sites with different speeds: exact best must be
        // the fastest site, regardless of RNG.
        let etc = EtcMatrix::from_raw(1, 3, vec![30.0, 10.0, 20.0]);
        let ctx = MapCtx {
            etc,
            widths: vec![1],
            arrivals: vec![Time::ZERO],
            candidates: vec![vec![0, 1, 2]],
            now: Time::ZERO,
            commit_order: vec![],
        };
        let avail = vec![NodeAvailability::new(1, Time::ZERO); 3];
        let mut rng = stream(16, Stream::Genetic);
        let r = evolve(
            &ctx,
            &avail,
            vec![],
            &small_params(),
            FitnessKind::Makespan,
            None,
            &mut rng,
        );
        assert_eq!(r.best.site_of(0), 1);
        assert_eq!(r.trajectory.len(), 61);
    }

    /// The sweep's best index over `fitness`, offered one by one as the
    /// evolve loop offers its children.
    fn swept_best(fitness: &[f64]) -> (usize, f64) {
        let (mut sweep, mut flat) = (Sweep::default(), Vec::new());
        sweep.begin(&mut flat, 2);
        for &f in fitness {
            sweep.offer(&mut flat, f);
        }
        sweep.finish(&flat);
        assert_eq!(flat, fitness);
        sweep.best()
    }

    #[test]
    fn current_best_breaks_ties_toward_lowest_index() {
        // Three individuals share the minimal fitness; the lowest index
        // must win (an earlier implementation relied on scan order).
        let mut fitness = vec![50.0; 120];
        fitness[17] = 10.0;
        fitness[71] = 10.0;
        fitness[99] = 10.0;
        assert_eq!(swept_best(&fitness), (17, 10.0));
    }

    #[test]
    fn current_best_handles_all_infinite_fitness() {
        assert_eq!(swept_best(&[f64::INFINITY; 3]), (0, f64::INFINITY));
    }

    #[test]
    fn pooled_evolve_is_bit_identical_to_cold_runs() {
        // One pool reused over several rounds (different seeds, so
        // different populations) must reproduce each cold run exactly —
        // the pool only changes *where* buffers live, never RNG draws.
        let (ctx, avail) = ctx();
        let params = small_params().with_generations(20);
        let mut pool = GaPool::new();
        for seed in [5u64, 6, 7] {
            let mut cold_rng = stream(seed, Stream::Genetic);
            let cold = evolve(
                &ctx,
                &avail,
                vec![],
                &params,
                FitnessKind::Makespan,
                None,
                &mut cold_rng,
            );
            let mut warm_rng = stream(seed, Stream::Genetic);
            let warm = evolve_with_pool(
                &ctx,
                &avail,
                vec![],
                &params,
                FitnessKind::Makespan,
                None,
                &mut warm_rng,
                &mut pool,
            );
            assert_eq!(cold, warm, "seed {seed}");
        }
    }

    #[test]
    fn pool_survives_population_size_changes() {
        let (ctx, avail) = ctx();
        let mut pool = GaPool::new();
        for pop in [40usize, 12, 30] {
            let params = small_params().with_population(pop).with_generations(8);
            let mut rng = stream(9, Stream::Genetic);
            let warm = evolve_with_pool(
                &ctx,
                &avail,
                vec![],
                &params,
                FitnessKind::Makespan,
                None,
                &mut rng,
                &mut pool,
            );
            let mut cold_rng = stream(9, Stream::Genetic);
            let cold = evolve(
                &ctx,
                &avail,
                vec![],
                &params,
                FitnessKind::Makespan,
                None,
                &mut cold_rng,
            );
            assert_eq!(cold, warm, "population {pop}");
        }
    }

    #[test]
    fn stall_limit_stops_early() {
        let (ctx, avail) = ctx();
        let mut params = small_params();
        params.generations = 500;
        params.stall_limit = Some(5);
        let mut rng = stream(17, Stream::Genetic);
        let r = evolve(
            &ctx,
            &avail,
            vec![],
            &params,
            FitnessKind::Makespan,
            None,
            &mut rng,
        );
        assert!(
            r.trajectory.len() < 501,
            "expected early stop, got {} generations",
            r.trajectory.len() - 1
        );
    }

    #[test]
    fn a_child_equal_to_its_other_parent_is_inherited() {
        // Two genomes that differ only in the last gene: any crossover
        // of one with the other hands each child the other's genome.
        let a = Chromosome::from_genes(vec![0, 1, 2, 0, 1, 2]);
        let b = Chromosome::from_genes(vec![0, 1, 2, 0, 1, 0]);
        let (mut child, mut other) = (vec![0; 6], vec![0; 6]);
        let mut rng = stream(18, Stream::Genetic);
        let cut = crossover_into(a.genes(), b.genes(), &mut child, &mut other, &mut rng).unwrap();
        assert_eq!(child, b.genes());
        assert_eq!(
            plan_child(&child, (7, a.genes()), (9, b.genes()), cut),
            Plan::Inherit { parent: 9 }
        );
        // A population of the two, evolved on a one-node and on a
        // two-node grid, returns what 6dbd77f — which replayed such
        // children — returned.
        let (ctx, _) = ctx();
        for (nodes, want) in [
            (
                1u32,
                (
                    vec![0u16, 1, 0, 0, 1, 2],
                    0x4054_004c_756b_2dbd_u64,
                    0x8760_100f_1e82_3398_u64,
                ),
            ),
            (
                2,
                (
                    vec![0, 1, 2, 0, 1, 2],
                    0x404e_0072_b020_c49c,
                    0x34c4_9099_75b6_af5b,
                ),
            ),
        ] {
            let avail = vec![NodeAvailability::new(nodes, Time::ZERO); 3];
            let seeds: Vec<Chromosome> = (0..40)
                .map(|i| if i % 2 == 0 { a.clone() } else { b.clone() })
                .collect();
            let mut rng = stream(18, Stream::Genetic);
            let r = evolve(
                &ctx,
                &avail,
                seeds,
                &small_params().with_generations(30),
                FitnessKind::Makespan,
                None,
                &mut rng,
            );
            let trajectory = r.trajectory.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, f| {
                (h ^ f.to_bits()).wrapping_mul(0x0100_0000_01b3)
            });
            let got = (
                r.best.genes().to_vec(),
                r.best_fitness.to_bits(),
                trajectory,
            );
            assert_eq!(got, want, "{nodes}-node sites");
        }
    }
}

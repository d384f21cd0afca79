//! The generic GA engine: selection → crossover → mutation → elitism.
//!
//! Each generation is bred serially from one RNG stream, then evaluated
//! in one rayon sweep against the round's compiled [`FitnessKernel`];
//! every buffer lives in a [`GaPool`], so a warm round allocates nothing.
//! How a child gets its fitness follows the kernel's compiled shape
//! ([`FitnessKernel::patches`]): where it patches, children that differ
//! from a parent in a gene suffix are delta-evaluated against that
//! parent's retained completion times; where it does not (every site one
//! node — the paper's PSA grid), children are replayed in full or inherit
//! a fitness, and no completion times are retained at all.

use crate::chromosome::Chromosome;
use crate::fitness::{FitnessKind, RiskWeights};
use crate::kernel::{FitnessKernel, KernelScratch};
use crate::ops::{crossover_in_place_tracked, mutate_tracked};
use crate::params::GaParams;
use crate::selection::{elite_indices_into, RouletteWheel};
use gridsec_core::etc::NodeAvailability;
use gridsec_core::Time;
use gridsec_heuristics::common::MapCtx;
use parking_lot::Mutex;
use rand::Rng;
use rayon::prelude::*;

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

/// Cross-round buffer pool for the evolve loop: both population buffers,
/// the fitness vector, the roulette table, the elite-index scratch and
/// the odd-tail spare slot.
///
/// [`evolve`] builds a throwaway pool per call. A long-lived scheduler
/// (the STGA rescheduling every batch inside the serving daemon) owns one
/// across rounds, which amortises even the *initial* random population
/// and first-generation buffer warm-up — the remaining ~1.4k allocations
/// per GA run — to (near) zero; `tests/pool_allocations.rs` asserts that
/// bound under a counting allocator.
#[derive(Debug)]
pub struct GaPool {
    population: Vec<Chromosome>,
    next: Vec<Chromosome>,
    fitness: Vec<f64>,
    /// Per-individual evaluation state for `population` (fitness, and
    /// completion times while the kernel patches), double-buffered with
    /// `next_evals` in lockstep with the population buffers so children
    /// can inherit from, or be delta-evaluated against, their parents.
    evals: Vec<EvalSlot>,
    next_evals: Vec<EvalSlot>,
    /// The compiled fitness program, re-lowered from the live snapshot at
    /// the start of every round (buffers reused across rounds).
    kernel: FitnessKernel,
    wheel: RouletteWheel,
    elites: Vec<usize>,
    spare: Chromosome,
    scratch: ScratchPool,
}

impl Default for GaPool {
    fn default() -> Self {
        GaPool {
            population: Vec::new(),
            next: Vec::new(),
            fitness: Vec::new(),
            evals: Vec::new(),
            next_evals: Vec::new(),
            kernel: FitnessKernel::default(),
            wheel: RouletteWheel::new(),
            elites: Vec::new(),
            spare: Chromosome::from_genes(Vec::new()),
            scratch: ScratchPool::default(),
        }
    }
}

/// How one individual of the incoming generation gets its fitness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plan {
    /// Replay the whole chromosome from the base availability plane.
    Full,
    /// Byte-identical copy of `population[parent]` (elites, and children
    /// that drew neither crossover nor mutation): inherit its fitness —
    /// a pure function of the genes — and, on a patching kernel, its
    /// completion times.
    Inherit { parent: usize },
    /// Differs from `population[parent]` only at genes `from..n` (the
    /// crossover cut / mutation index tracked by the operators): patch
    /// the parent's evaluation instead of replaying from scratch. Only
    /// planned while the kernel patches.
    Delta { parent: usize, from: usize },
}

/// The path a child's evaluation actually took — one per slot per sweep,
/// counted into a [`PathCounts`] after the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Inherited,
    Full,
    Patched,
    /// Sent to `evaluate_delta`, replayed in full anyway.
    DeltaFellBack,
}

/// Children per [`Outcome`] (indexed by discriminant) over one round.
type PathCounts = [u64; 4];

/// Evaluation state of one individual: its fitness, the plan/index
/// wiring for the next parallel evaluation sweep, and — only while the
/// kernel patches — the per-job completion times its children patch from.
#[derive(Debug)]
struct EvalSlot {
    /// Position of this slot's genome in its population buffer (slots are
    /// evaluated out of order across worker chunks).
    idx: usize,
    plan: Plan,
    outcome: Outcome,
    fitness: f64,
    /// Completion time of every job (batch-position indexed); only valid
    /// when `fitness` is finite and the round's kernel patches. On a
    /// non-patching kernel nothing reads or writes it.
    cts: Vec<Time>,
}

impl Default for EvalSlot {
    fn default() -> Self {
        EvalSlot {
            idx: 0,
            plan: Plan::Full,
            outcome: Outcome::Full,
            fitness: f64::INFINITY,
            cts: Vec::new(),
        }
    }
}

/// Truncates or pads `slots` to exactly `len` recycled entries.
fn resize_slots(slots: &mut Vec<EvalSlot>, len: usize) {
    slots.truncate(len);
    while slots.len() < len {
        slots.push(EvalSlot::default());
    }
}

/// Harvests one evaluation sweep: mirrors the slots' fitness values into
/// the flat vector consumed by the roulette wheel, elitism and the
/// best-index reduction (and returned by [`evolve_population`]), and
/// counts the path each child took — plain integers read after the sweep,
/// so the evaluation path itself carries no atomics.
fn sync_fitness(fitness: &mut Vec<f64>, paths: &mut PathCounts, slots: &[EvalSlot]) {
    fitness.clear();
    for slot in slots {
        fitness.push(slot.fitness);
        paths[slot.outcome as usize] += 1;
    }
}

/// Runs one parallel evaluation sweep: every slot's genome (found via
/// `slot.idx` in `genomes`) is evaluated per its plan against the
/// compiled kernel. `parents` carries the previous generation's genomes
/// and slots for the inherit/delta paths; a delta plan referencing a
/// non-finite parent (whose completion times are invalid) falls back to
/// a full replay. Completion times land in the slot while the kernel
/// patches and in the worker's scratch otherwise. Results are
/// thread-count-invariant: each slot is written by exactly one worker
/// and the pooled scratch never influences values.
fn eval_generation(
    kernel: &FitnessKernel,
    genomes: &[Chromosome],
    slots: &mut [EvalSlot],
    parents: Option<(&[Chromosome], &[EvalSlot])>,
    scratch: &ScratchPool,
) {
    let retain = kernel.patches();
    slots.par_iter_mut().for_each_init(
        || scratch.acquire(),
        |guard, slot| {
            let genes = genomes[slot.idx].genes();
            let EvalScratch { kernel: buf, cts } = &mut guard.buf;
            let cts = if retain { &mut slot.cts } else { cts };
            (slot.fitness, slot.outcome) = match (slot.plan, parents) {
                (Plan::Inherit { parent }, Some((_, pe))) => {
                    if retain {
                        cts.clone_from(&pe[parent].cts);
                    }
                    (pe[parent].fitness, Outcome::Inherited)
                }
                (Plan::Delta { parent, from }, Some((pg, pe)))
                    if pe[parent].fitness.is_finite() =>
                {
                    let f = kernel.evaluate_delta(
                        genes,
                        pg[parent].genes(),
                        &pe[parent].cts,
                        from,
                        cts,
                        buf,
                    );
                    if buf.delta_fell_back() {
                        (f, Outcome::DeltaFellBack)
                    } else {
                        (f, Outcome::Patched)
                    }
                }
                _ => (kernel.evaluate_full(genes, cts, buf), Outcome::Full),
            };
        },
    );
}

/// One worker's evaluation scratch: the kernel's free-time plane, and the
/// completion-time vector `evaluate_full` fills when no slot retains one.
#[derive(Debug, Default)]
struct EvalScratch {
    kernel: KernelScratch,
    cts: Vec<Time>,
}

/// Recycled per-chunk kernel scratch (the flat free-time planes the
/// compiled kernel replays schedules into). Each parallel chunk checks a
/// buffer out at `for_each_init` time and its drop guard checks it back
/// in, so a warm pool serves every generation of every round without
/// allocating. Scratch contents never influence results — every
/// evaluation fully initialises the slices it reads — so recycling is
/// invisible to the digest.
#[derive(Debug, Default)]
struct ScratchPool(Mutex<Vec<EvalScratch>>);

impl ScratchPool {
    fn acquire(&self) -> ScratchGuard<'_> {
        ScratchGuard {
            pool: self,
            buf: self.0.lock().pop().unwrap_or_default(),
        }
    }
}

/// A checked-out scratch buffer; returns itself to the pool on drop.
struct ScratchGuard<'p> {
    pool: &'p ScratchPool,
    buf: EvalScratch,
}

impl Drop for ScratchGuard<'_> {
    fn drop(&mut self) {
        self.pool.0.lock().push(std::mem::take(&mut self.buf));
    }
}

impl GaPool {
    /// An empty pool; buffers warm up over the first run and are reused
    /// verbatim afterwards.
    pub fn new() -> GaPool {
        GaPool::default()
    }
}

/// Evolves `initial` over `params.generations` generations and returns the
/// best solution seen. The initial population is padded with random
/// feasible chromosomes (or truncated) to `params.population`.
///
/// Single-job batches are solved exactly by enumeration — the GA could
/// only ever rediscover the best site, so the engine skips straight to it.
///
/// Determinism: all stochastic choices flow from `rng`; fitness evaluation
/// is data-parallel but side-effect-free.
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

/// Like [`evolve`], but also returns the final population and its fitness
/// values — the building block of the island-model GA
/// ([`crate::islands`]), which keeps populations alive across migration
/// epochs.
pub fn evolve_population<R: Rng + ?Sized>(
    ctx: &MapCtx,
    base_avail: &[NodeAvailability],
    initial: Vec<Chromosome>,
    params: &GaParams,
    kind: FitnessKind,
    risk: Option<&RiskWeights>,
    rng: &mut R,
) -> (GaResult, Vec<Chromosome>, Vec<f64>) {
    let mut pool = GaPool::new();
    let r = evolve_with_pool(ctx, base_avail, initial, params, kind, risk, rng, &mut pool);
    if ctx.n_jobs() == 1 {
        // The exact single-job path never touches the population buffers.
        let population = vec![r.best.clone()];
        let fitness = vec![r.best_fitness];
        return (r, population, fitness);
    }
    (r, pool.population, pool.fitness)
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

    if n == 1 {
        pool.kernel
            .recompile(ctx, base_avail, kind, risk, params.flow_weight);
        return solve_single_job(ctx, &pool.kernel, &pool.scratch, params);
    }

    let GaPool {
        population,
        next,
        fitness,
        evals,
        next_evals,
        kernel,
        wheel,
        elites,
        spare,
        scratch,
    } = pool;
    let scratch = &*scratch;
    // A population-size change between rounds just resizes the buffers.
    population.truncate(params.population);
    next.truncate(params.population);

    // Seed chromosomes overwrite recycled slots (clone_from reuses the
    // slot's gene allocation); random fill re-randomizes in place. Both
    // consume exactly the RNG draws the cold path did.
    let mut seeded = 0;
    for c in initial {
        if seeded == params.population {
            break;
        }
        if c.len() != n {
            continue;
        }
        match population.get_mut(seeded) {
            Some(slot) => slot.clone_from(&c),
            None => population.push(c),
        }
        seeded += 1;
    }
    while seeded < params.population {
        match population.get_mut(seeded) {
            Some(slot) => slot.randomize_from(&ctx.candidates, rng),
            None => population.push(Chromosome::random(&ctx.candidates, rng)),
        }
        seeded += 1;
    }

    // Lower this round's snapshot into the flat kernel (buffers reused
    // across rounds; any grid/trust/availability change since the last
    // round is picked up here).
    kernel.recompile(ctx, base_avail, kind, risk, params.flow_weight);
    let patches = kernel.patches();
    resize_slots(evals, params.population);
    resize_slots(next_evals, params.population);

    // Generation 0 (seeded + random individuals) has no parents: full
    // replays only.
    for (i, slot) in evals.iter_mut().enumerate() {
        slot.idx = i;
        slot.plan = Plan::Full;
    }
    eval_generation(kernel, population, evals, None, scratch);
    let mut paths = PathCounts::default();
    sync_fitness(fitness, &mut paths, evals);
    let (mut best, mut best_fitness) = current_best(population, fitness);
    let mut trajectory = Vec::with_capacity(params.generations + 1);
    trajectory.push(best_fitness);
    let mut stall = 0usize;

    // Double-buffered generation state: `next` is the other population
    // buffer (swapped in each generation, so chromosome slots — and their
    // gene vectors, via `clone_from` — are recycled), `wheel` owns the
    // cumulative selection table, `elites` the elite-index scratch, and
    // `spare` absorbs the unplaced second child when the non-elite count
    // is odd. Once the pool's buffers are warm, a whole run allocates
    // nothing beyond the returned result.
    for _ in 0..params.generations {
        wheel.rebuild(fitness);
        elite_indices_into(fitness, params.elitism, elites);
        // All slots must exist up front so children can be built in
        // place; the placeholders are allocation-free and only ever
        // constructed while the pool warms up.
        while next.len() < params.population {
            next.push(Chromosome::from_genes(Vec::new()));
        }
        // Elite splice by index: clone the elites into the head of the
        // recycled buffer (clone_from reuses each slot's gene allocation);
        // their evaluations are inherited outright, never recomputed.
        let mut filled = 0;
        for &e in elites.iter() {
            next[filled].clone_from(&population[e]);
            let slot = &mut next_evals[filled];
            slot.idx = filled;
            slot.plan = Plan::Inherit { parent: e };
            filled += 1;
        }
        while filled < params.population {
            let pa = wheel.spin(rng);
            let pb = wheel.spin(rng);
            // Copy both parents into their destination slots (the odd
            // tail child lands in `spare` — it still consumes its RNG
            // draws, exactly like the discarded child did before), then
            // cross and mutate in place, tracking the lowest touched
            // gene so evaluation can patch instead of replay.
            let has_second = filled + 1 < params.population;
            let (head, tail) = next.split_at_mut(filled + 1);
            let ca = &mut head[filled];
            let cb = if has_second {
                &mut tail[0]
            } else {
                &mut *spare
            };
            ca.clone_from(&population[pa]);
            cb.clone_from(&population[pb]);
            let mut from_a = n;
            let mut from_b = n;
            if rng.gen::<f64>() < params.crossover_prob {
                if let Some(cut) = crossover_in_place_tracked(ca, cb, rng) {
                    from_a = cut;
                    from_b = cut;
                }
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
            let plan_for = |parent: usize, from: usize| {
                if from == n {
                    Plan::Inherit { parent }
                } else if patches {
                    Plan::Delta { parent, from }
                } else {
                    Plan::Full
                }
            };
            let slot = &mut next_evals[filled];
            slot.idx = filled;
            slot.plan = plan_for(pa, from_a);
            if has_second {
                let slot = &mut next_evals[filled + 1];
                slot.idx = filled + 1;
                slot.plan = plan_for(pb, from_b);
            }
            filled += if has_second { 2 } else { 1 };
        }
        // Evaluate the incoming generation against the outgoing one
        // (parents' genomes + completion times back the delta path),
        // then promote it.
        eval_generation(kernel, next, next_evals, Some((population, evals)), scratch);
        std::mem::swap(population, next);
        std::mem::swap(evals, next_evals);
        sync_fitness(fitness, &mut paths, evals);
        let (gen_bi, gen_fit) = best_index(fitness);
        if gen_fit < best_fitness {
            // clone_from reuses `best`'s gene allocation — improvements
            // cost no heap traffic once the pool is warm.
            best.clone_from(&population[gen_bi]);
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

    // One count per path a child can take, once per round, inside the
    // caller's `stga_eval` span (two events: an event carries two fields).
    gridsec_obs::event!(
        "stga_children",
        inherited = paths[Outcome::Inherited as usize],
        full = paths[Outcome::Full as usize]
    );
    gridsec_obs::event!(
        "stga_delta_children",
        patched = paths[Outcome::Patched as usize],
        fell_back = paths[Outcome::DeltaFellBack as usize]
    );
    GaResult {
        best,
        best_fitness,
        trajectory,
    }
}

/// Exact solution for a single-job batch: try every candidate site
/// against the round's compiled kernel.
fn solve_single_job(
    ctx: &MapCtx,
    kernel: &FitnessKernel,
    scratch: &ScratchPool,
    params: &GaParams,
) -> GaResult {
    let mut guard = scratch.acquire();
    let EvalScratch { kernel: buf, cts } = &mut guard.buf;
    let mut best: Option<(u16, f64)> = None;
    for &s in &ctx.candidates[0] {
        let gene = s as u16;
        let f = kernel.evaluate_full(&[gene], cts, buf);
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

/// The best individual of a population. Tie-breaking is explicit: among
/// equal-fitness individuals the **lowest index** wins — guaranteed by the
/// deterministic `indexed_min_by` tree reduction rather than left to scan
/// order, so the result is bit-identical at every thread count.
fn current_best(population: &[Chromosome], fitness: &[f64]) -> (Chromosome, f64) {
    let (bi, bf) = best_index(fitness);
    (population[bi].clone(), bf)
}

/// Index and value of the minimal fitness (lowest index wins ties).
fn best_index(fitness: &[f64]) -> (usize, f64) {
    fitness
        .par_iter()
        .map(|&f| f)
        .indexed_min_by(|a, b| a.total_cmp(b))
        .expect("population is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn current_best_breaks_ties_toward_lowest_index() {
        // Three distinct chromosomes share the minimal fitness; the lowest
        // index must win at every thread count (an earlier implementation
        // relied on scan order).
        let population: Vec<Chromosome> = (0..120)
            .map(|i| Chromosome::from_genes(vec![(i % 4) as u16; 3]))
            .collect();
        let mut fitness = vec![50.0; 120];
        fitness[17] = 10.0;
        fitness[71] = 10.0; // beyond one reduction leaf
        fitness[99] = 10.0;
        for threads in [1, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let (best, fit) = pool.install(|| current_best(&population, &fitness));
            assert_eq!(fit, 10.0);
            assert_eq!(best, population[17], "thread count {threads}");
        }
    }

    #[test]
    fn current_best_handles_all_infinite_fitness() {
        let population: Vec<Chromosome> = (0..3).map(|_| Chromosome::from_genes(vec![0])).collect();
        let fitness = vec![f64::INFINITY; 3];
        let (best, fit) = current_best(&population, &fitness);
        assert_eq!(fit, f64::INFINITY);
        assert_eq!(best, population[0]);
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
}

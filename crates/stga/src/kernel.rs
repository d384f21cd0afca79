//! The compiled fitness kernel: a structure-of-arrays lowering of the
//! grid + trust + security snapshot that turns chromosome evaluation into
//! index arithmetic over flat slices.
//!
//! The object-graph walk this kernel was lowered from
//! (`evaluate_with_scratch`, now the referee in
//! `crates/stga/tests/referee/`) re-walks the ETC matrix, the per-job
//! candidate metadata and the per-site availability objects for every
//! chromosome. The GA evaluates tens of thousands of chromosomes per
//! round against the *same* snapshot, so this module compiles that
//! snapshot once per round (the shape of `simlin`'s compiler → bytecode →
//! VM pipeline) into:
//!
//! - `eff`: a dense `[job × site]` plane of *effective* execution times,
//!   folding the ETC lookup, the security-overhead/risk multiplier
//!   ([`FitnessKind::ExpectedMakespan`]) and every feasibility test
//!   (non-fitting ETC entries, zero widths, widths exceeding a site's
//!   node count) into one `f64` per cell — `+∞` marks infeasible, so the
//!   per-gene test is a single `is_finite()`;
//! - `floors`: the per-job release floor `now.max(arrival)`;
//! - `base_free`: every site's sorted node free-times concatenated into
//!   one flat plane, indexed by `site_off` prefix offsets.
//!
//! The per-job planes (`eff` rows, `floors`, widths) are lowered in
//! commit order, so a replay walks each of them front to back.
//!
//! [`FitnessKernel::evaluate_full`] then replays a chromosome with no
//! hashing, trust branching or graph chasing, and is bit-identical to the
//! reference path because it performs the *same* [`Time`] operations in
//! the *same* commit order on the *same* values.
//!
//! On top of the full replay sits **delta evaluation**
//! ([`FitnessKernel::evaluate_delta`]): a GA child differs from its
//! parent only at crossover/mutation-touched genes, so only the sites
//! those genes moved work onto or off of can change their ready chains.
//! The delta path resets just the affected sites' free-time segments,
//! recomputes completion times for jobs landing on them, copies every
//! other job's completion time from the parent, and re-aggregates — and
//! replays in full when at least half the batch sits on touched sites.
//! Both paths produce bit-identical fitness (the golden-equivalence
//! digests and the proptests in `tests/kernel_equivalence.rs` pin this).
//!
//! Whether patching is offered at all is decided once per round, in
//! [`FitnessKernel::recompile`], from the compiled shape
//! ([`FitnessKernel::patches`]): only on a grid with at least one
//! multi-node site. Where every site is one node, replaying a job is one
//! `max` and one `+`, a patch cannot undercut that, and `evaluate_delta`
//! *is* the full replay — so callers need not retain completion times,
//! and evaluate with the **fitness-only replay**
//! ([`FitnessKernel::evaluate_fitness`]). It writes no completion time,
//! reads a site's one free time by its index, and — when `recompile`
//! proved every effective time, floor and free time sign-clear and not
//! NaN — takes a plain `max` instead of the total-order one. Full,
//! fitness-only and the shapes in between are one replay body specialised
//! by const generics.

use crate::fitness::{FitnessKind, RiskWeights};
use gridsec_core::etc::NodeAvailability;
use gridsec_core::Time;
use gridsec_heuristics::common::MapCtx;

/// A fitness program compiled from one scheduling round's snapshot.
///
/// Compile once per round with [`FitnessKernel::recompile`] (reusing the
/// previous round's buffers), then evaluate every chromosome of every
/// generation against it.
#[derive(Debug, Clone, Default)]
pub struct FitnessKernel {
    n_jobs: usize,
    n_sites: usize,
    flow_weight: f64,
    /// `[commit position × site]` effective execution times: row `k` is
    /// job `order[k]`'s; `+∞` ⇔ infeasible gene.
    eff: Vec<f64>,
    /// Per-commit-position start floor: `now.max(arrival)`, in seconds.
    floors: Vec<f64>,
    /// Per-commit-position node width.
    widths: Vec<u32>,
    /// Resolved commit order (the reference path's `order_iter`):
    /// position `k` commits job `order[k]`.
    order: Vec<u32>,
    /// All sites' sorted free-times in seconds, concatenated in site order.
    base_free: Vec<f64>,
    /// Prefix offsets into `base_free`; site `s` owns `site_off[s]..site_off[s+1]`.
    site_off: Vec<u32>,
    /// Whether [`FitnessKernel::evaluate_delta`] patches on this shape.
    patches: bool,
    /// Every site is one node, so site `s`'s free time is `base_free[s]`.
    one_node: bool,
    /// Every effective time, floor and free time is sign-clear and not
    /// NaN — so is every time a replay computes from them, and [`later`]
    /// may be a plain `max`.
    non_negative: bool,
}

/// Reusable per-evaluation working memory for a [`FitnessKernel`].
///
/// Contents never influence results — every evaluation fully initialises
/// the slices it reads — so buffers can be pooled and shared across
/// chromosomes, generations and rounds exactly like the reference path's
/// availability scratch.
#[derive(Debug, Default)]
pub struct KernelScratch {
    /// Working copy of the `base_free` plane.
    free: Vec<f64>,
    /// Per-site "ready chain affected" marker for delta evaluation.
    site_mask: Vec<bool>,
    /// What the last [`FitnessKernel::evaluate_delta`] call did.
    fell_back: bool,
}

impl KernelScratch {
    /// Whether the last [`FitnessKernel::evaluate_delta`] through this
    /// scratch replayed the whole chromosome instead of patching the
    /// parent's evaluation — the GA's per-round slow-path count reads it.
    #[inline]
    pub fn delta_fell_back(&self) -> bool {
        self.fell_back
    }
}

impl FitnessKernel {
    /// Compiles a fresh kernel from a round snapshot (convenience wrapper
    /// over [`FitnessKernel::recompile`]).
    pub fn compile(
        ctx: &MapCtx,
        base_avail: &[NodeAvailability],
        kind: FitnessKind,
        risk: Option<&RiskWeights>,
        flow_weight: f64,
    ) -> FitnessKernel {
        let mut kernel = FitnessKernel::default();
        kernel.recompile(ctx, base_avail, kind, risk, flow_weight);
        kernel
    }

    /// Re-lowers the snapshot into this kernel's buffers, reusing their
    /// allocations. Called once per scheduling round; any change to the
    /// grid, trust ratings, security levels, availability or batch is
    /// picked up here because the kernel is rebuilt from the live
    /// snapshot, never cached across rounds.
    pub fn recompile(
        &mut self,
        ctx: &MapCtx,
        base_avail: &[NodeAvailability],
        kind: FitnessKind,
        risk: Option<&RiskWeights>,
        flow_weight: f64,
    ) {
        let n = ctx.n_jobs();
        let m = ctx.etc.n_sites();
        let _compile_span = gridsec_obs::span!("kernel_compile", jobs = n, sites = m);
        assert_eq!(
            base_avail.len(),
            m,
            "availability must cover every ETC site"
        );
        self.n_jobs = n;
        self.n_sites = m;
        self.flow_weight = flow_weight;

        self.order.clear();
        self.order.extend(ctx.order_iter().map(|j| j as u32));
        // Every per-job plane is lowered in commit order, so a replay
        // walks each of them front to back.
        self.eff.clear();
        self.eff.reserve(n * m);
        self.floors.clear();
        self.widths.clear();
        for &j in &self.order {
            let j = j as usize;
            let w = ctx.widths[j];
            for (s, site) in base_avail.iter().enumerate() {
                let exec = ctx.etc.get(j, s);
                // The exact expression of the reference path, including the
                // risk multiplier applied *after* the raw-ETC lookup, so
                // finite products carry identical bits.
                let exec = match kind {
                    FitnessKind::Makespan => exec,
                    FitnessKind::ExpectedMakespan => exec * risk.map_or(1.0, |r| r.get(j, s)),
                };
                // Fold both of the reference path's infeasibility exits
                // (non-finite execution time; width 0 or wider than the
                // site) into the +∞ sentinel.
                let feasible = exec.is_finite() && w >= 1 && (w as usize) <= site.nodes();
                self.eff.push(if feasible { exec } else { f64::INFINITY });
            }
            self.floors.push(ctx.now.max(ctx.arrivals[j]).seconds());
            self.widths.push(w);
        }

        self.base_free.clear();
        self.site_off.clear();
        self.site_off.reserve(m + 1);
        self.site_off.push(0);
        for a in base_avail {
            self.base_free
                .extend(a.free_times().iter().map(|t| t.seconds()));
            self.site_off.push(self.base_free.len() as u32);
        }
        // A patch pays by skipping merge-rotate splices on untouched
        // multi-node sites. A one-node site has no splice to skip: its
        // replay is one max and one add per job, cheaper than marking
        // sites, diffing the suffix, counting moved jobs and copying the
        // parent's completion times — and each retained vector is 8n
        // bytes per individual kept hot only so children may patch from
        // it. Measured at Table-1 GA parameters (PR 18, CHANGES.md), with
        // this rule forced either way: on 20 × 1-node sites with 16 jobs
        // 20–31 % of delta calls did the bookkeeping and then replayed in
        // full anyway (roulette on `worst − f` never converges the
        // population far enough for every crossover child to resemble
        // its parent), `evolve` ran 3.5 ms with patching against 3.0
        // without, and the served `round-stga-c2` daemon 266 against
        // 237 µs CPU per job; on the NAS grid (12 sites × 8/16 nodes,
        // widths 1–8) dropping the patch read neutral at 16 and 256 jobs
        // and 5–10 % slower at 64. So the rule reads the node counts and
        // nothing else.
        self.patches = base_avail.iter().any(|a| a.nodes() > 1);
        self.one_node = base_avail.iter().all(|a| a.nodes() == 1);
        // Infeasible cells are +∞, which passes: a replay exits on them
        // before any arithmetic.
        let plain = |t: &f64| t.is_sign_positive() && !t.is_nan();
        self.non_negative = self.eff.iter().all(plain)
            && self.floors.iter().all(plain)
            && self.base_free.iter().all(plain);
    }

    /// Number of jobs the kernel was compiled for.
    #[inline]
    pub fn n_jobs(&self) -> usize {
        self.n_jobs
    }

    /// Number of sites the kernel was compiled for.
    #[inline]
    pub fn n_sites(&self) -> usize {
        self.n_sites
    }

    /// Whether [`FitnessKernel::evaluate_delta`] patches parent
    /// evaluations on this round's shape — true iff some site has more
    /// than one node. When false, `evaluate_delta` is
    /// [`FitnessKernel::evaluate_full`] and never reads its parent
    /// arguments, so a caller need not keep completion times around: it
    /// evaluates with [`FitnessKernel::evaluate_fitness`].
    #[inline]
    pub fn patches(&self) -> bool {
        self.patches
    }

    /// Full replay: evaluates `genes` from the base availability plane,
    /// writing each job's completion time into `cts` (indexed by batch
    /// position). Returns the fitness; `+∞` means an infeasible gene was
    /// hit and `cts` is only partially written (callers must not use it
    /// as a delta parent — the GA gates on finite parent fitness).
    ///
    /// Bit-identical to the referee's `evaluate_with_scratch`
    /// (`crates/stga/tests/referee/`): same commit order, same [`Time`]
    /// arithmetic (`at_least`, `max`, `+`), same aggregation, and a
    /// merge-rotate commit that reproduces the reference's re-sorted
    /// segment bit for bit.
    pub fn evaluate_full(
        &self,
        genes: &[u16],
        cts: &mut Vec<Time>,
        scratch: &mut KernelScratch,
    ) -> f64 {
        debug_assert_eq!(genes.len(), self.n_jobs);
        cts.clear();
        cts.resize(self.n_jobs, Time::ZERO);
        self.replay::<false, false>(genes, scratch, |j, ct| cts[j] = Time::new(ct))
    }

    /// Fitness-only replay: the bits of [`FitnessKernel::evaluate_full`],
    /// with no completion time written anywhere — what a caller that
    /// never patches (a kernel where [`FitnessKernel::patches`] is false)
    /// evaluates with.
    ///
    /// Where every site is one node, the replay reads a site's one free
    /// time by its index; where [`FitnessKernel::recompile`] proved every
    /// time non-negative, the maximum is a plain `max` (the total order and
    /// the IEEE order agree on sign-clear, non-NaN values). Either way it
    /// is the one replay body, specialised.
    pub fn evaluate_fitness(&self, genes: &[u16], scratch: &mut KernelScratch) -> f64 {
        debug_assert_eq!(genes.len(), self.n_jobs);
        match (self.one_node, self.non_negative) {
            (true, true) => self.replay::<true, true>(genes, scratch, |_, _| {}),
            (true, false) => self.replay::<true, false>(genes, scratch, |_, _| {}),
            (false, _) => self.replay::<false, false>(genes, scratch, |_, _| {}),
        }
    }

    /// The one replay body: commits every job in commit order onto the
    /// scratch copy of the free-time plane, hands each completion time to
    /// `record`, and aggregates. `ONE_NODE` requires every site to be one
    /// node; `NON_NEGATIVE` requires the kernel's `non_negative` proof.
    #[inline(always)]
    fn replay<const ONE_NODE: bool, const NON_NEGATIVE: bool>(
        &self,
        genes: &[u16],
        scratch: &mut KernelScratch,
        mut record: impl FnMut(usize, f64),
    ) -> f64 {
        let free = &mut scratch.free;
        free.clear();
        free.extend_from_slice(&self.base_free);
        let m = self.n_sites;
        let mut makespan = 0.0;
        let mut sum_ct = 0.0;
        for (k, &j) in self.order.iter().enumerate() {
            let j = j as usize;
            let s = genes[j] as usize;
            let exec = self.eff[k * m + s];
            if !exec.is_finite() {
                return f64::INFINITY;
            }
            let ct = if ONE_NODE {
                let ct = later::<NON_NEGATIVE>(free[s], self.floors[k]) + exec;
                free[s] = ct;
                ct
            } else {
                self.replay_one(k, s, exec, free)
            };
            record(j, ct);
            makespan = later::<NON_NEGATIVE>(makespan, ct);
            sum_ct += ct;
        }
        makespan + self.flow_weight * (sum_ct / self.n_jobs as f64)
    }

    /// Delta replay: evaluates a child that differs from an
    /// already-evaluated parent only at genes in `from..n` (the
    /// crossover-cut / mutation-touched suffix tracked by the GA's
    /// operators).
    ///
    /// Only sites that genes moved onto or off of can see a different
    /// commit subsequence, so only jobs landing on those sites are
    /// replayed; everything else inherits the parent's completion time
    /// verbatim, and the aggregate is recomputed over all completion
    /// times in commit order — making the result bit-identical to
    /// [`FitnessKernel::evaluate_full`] on the child. Falls back to a
    /// full replay when at least half the batch needs recomputation, and
    /// is the full replay outright on a kernel that does not patch
    /// ([`FitnessKernel::patches`]); [`KernelScratch::delta_fell_back`]
    /// tells which happened.
    ///
    /// `parent_cts` must be the complete completion-time vector of a
    /// *finite-fitness* parent evaluation.
    #[allow(clippy::too_many_arguments)] // flat-slice kernel entry point
    pub fn evaluate_delta(
        &self,
        genes: &[u16],
        parent_genes: &[u16],
        parent_cts: &[Time],
        from: usize,
        cts: &mut Vec<Time>,
        scratch: &mut KernelScratch,
    ) -> f64 {
        let n = self.n_jobs;
        debug_assert_eq!(genes.len(), n);
        debug_assert_eq!(parent_genes.len(), n);
        debug_assert_eq!(parent_cts.len(), n);
        scratch.fell_back = true;
        if !self.patches {
            return self.evaluate_full(genes, cts, scratch);
        }

        // Mark every site whose ready chain the gene diff can perturb.
        scratch.site_mask.clear();
        scratch.site_mask.resize(self.n_sites, false);
        let mut any = false;
        for j in from..n {
            if genes[j] != parent_genes[j] {
                scratch.site_mask[genes[j] as usize] = true;
                scratch.site_mask[parent_genes[j] as usize] = true;
                any = true;
            }
        }
        if !any {
            // Identical genome: the parent's outcome, re-aggregated (the
            // aggregation of a finite evaluation is a pure function of
            // its completion times, so this reproduces the parent
            // fitness bit for bit).
            scratch.fell_back = false;
            cts.clear();
            cts.extend_from_slice(parent_cts);
            return self.aggregate(cts);
        }

        // Wide diffs replay everything — the crossover of two unrelated
        // parents routinely touches most sites, and patching then costs
        // more than the straight-line full pass.
        let moved = genes
            .iter()
            .filter(|&&g| scratch.site_mask[g as usize])
            .count();
        if moved * 2 >= n {
            return self.evaluate_full(genes, cts, scratch);
        }
        scratch.fell_back = false;

        // Reset only the affected sites' segments from the base plane;
        // unaffected segments are never read on this path, so whatever a
        // previous evaluation left there is harmless.
        if scratch.free.len() == self.base_free.len() {
            for s in 0..self.n_sites {
                if scratch.site_mask[s] {
                    let (lo, hi) = self.site_span(s);
                    scratch.free[lo..hi].copy_from_slice(&self.base_free[lo..hi]);
                }
            }
        } else {
            scratch.free.clear();
            scratch.free.extend_from_slice(&self.base_free);
        }

        cts.clear();
        cts.extend_from_slice(parent_cts);
        for (k, &j) in self.order.iter().enumerate() {
            let j = j as usize;
            let s = genes[j] as usize;
            if !scratch.site_mask[s] {
                continue;
            }
            let exec = self.eff[k * self.n_sites + s];
            if !exec.is_finite() {
                return f64::INFINITY;
            }
            cts[j] = Time::new(self.replay_one(k, s, exec, &mut scratch.free));
        }
        self.aggregate(cts)
    }

    /// Commits the job at commit position `k` (feasible, effective time
    /// `exec`) onto site `s`'s segment of the free-time plane and returns
    /// its completion time — the flat-slice form of
    /// `NodeAvailability::earliest_start` + `commit`, with the re-sort
    /// replaced by a merge-rotate.
    ///
    /// The reference path overwrites the segment's first `w` entries with
    /// `ct` and re-sorts the whole segment. Here the segment is known
    /// sorted and `ct ≥ start ≥ seg[w-1] ≥ seg[..w]`, so the same sorted
    /// result is produced by dropping the `w` smallest entries and
    /// splicing `w` copies of `ct` at their ordered position — O(nodes)
    /// moves instead of a sort. Bit-identical: `Time`'s order is
    /// `total_cmp`, under which equal keys have equal bits, so a sorted
    /// segment is a unique byte sequence however it was produced.
    ///
    /// A one-node segment needs none of that: a feasible job there has
    /// width 1, so the splice degenerates to overwriting the one entry.
    #[inline(always)]
    fn replay_one(&self, k: usize, s: usize, exec: f64, free: &mut [f64]) -> f64 {
        let (lo, hi) = self.site_span(s);
        if hi - lo == 1 {
            let ct = later::<false>(free[lo], self.floors[k]) + exec;
            free[lo] = ct;
            return ct;
        }
        let seg = &mut free[lo..hi];
        let w = self.widths[k] as usize;
        let ct = later::<false>(seg[w - 1], self.floors[k]) + exec;
        let p = seg[w..].partition_point(|t| t.total_cmp(&ct).is_lt());
        seg.copy_within(w..w + p, 0);
        seg[p..p + w].fill(ct);
        ct
    }

    /// `base_free` span owned by site `s`.
    #[inline]
    fn site_span(&self, s: usize) -> (usize, usize) {
        (self.site_off[s] as usize, self.site_off[s + 1] as usize)
    }

    /// Fitness from a complete completion-time vector: the same
    /// commit-order accumulation the full replay performs inline.
    fn aggregate(&self, cts: &[Time]) -> f64 {
        let mut makespan = 0.0;
        let mut sum_ct = 0.0;
        for &j in &self.order {
            let ct = cts[j as usize].seconds();
            makespan = later::<false>(makespan, ct);
            sum_ct += ct;
        }
        makespan + self.flow_weight * (sum_ct / self.n_jobs as f64)
    }
}

/// [`Time::max`] on seconds, without the branch: the replay loop takes
/// two maxima per job on values no predictor can guess — every
/// generation's chromosomes are new (`evolve` on 20 one-node sites:
/// 3.4 ms with `Time::max`, 2.95 with this; a micro-benchmark replaying
/// one fixed population reads the other way round, because there the
/// predictor learns).
///
/// Maps both operands to the integer `f64::total_cmp` orders by, takes
/// the integer maximum and maps it back (the map is its own inverse), so
/// it returns the bits `Time::max` (and `at_least`) would — under a total
/// order, equal keys are equal bits, so the maximum is unique. With
/// `NON_NEGATIVE` (both operands sign-clear and not NaN) the IEEE order
/// is that total order, and a plain `max` returns the same bits.
#[inline(always)]
fn later<const NON_NEGATIVE: bool>(a: f64, b: f64) -> f64 {
    if NON_NEGATIVE {
        return if a > b { a } else { b };
    }
    let key = |bits: u64| {
        let bits = bits as i64;
        bits ^ (((bits >> 63) as u64) >> 1) as i64
    };
    let max = key(a.to_bits()).max(key(b.to_bits()));
    f64::from_bits(key(max as u64) as u64)
}

/// One-shot fitness of `chromosome` at the default flow weight — the
/// oracle of the crate's unit tests.
#[cfg(test)]
pub(crate) fn fitness_once(
    ctx: &MapCtx,
    base_avail: &[NodeAvailability],
    chromosome: &crate::chromosome::Chromosome,
    kind: FitnessKind,
    risk: Option<&RiskWeights>,
) -> f64 {
    FitnessKernel::compile(
        ctx,
        base_avail,
        kind,
        risk,
        crate::fitness::DEFAULT_FLOW_WEIGHT,
    )
    .evaluate_full(
        chromosome.genes(),
        &mut Vec::new(),
        &mut KernelScratch::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chromosome::Chromosome;
    use crate::fitness::DEFAULT_FLOW_WEIGHT;
    use gridsec_core::etc::EtcMatrix;
    use gridsec_core::rng::{stream, Stream};
    use rand::Rng;

    /// A deliberately lumpy snapshot: multi-node sites, mixed widths, a
    /// preloaded site, non-zero arrivals and an explicit commit order.
    fn snapshot() -> (MapCtx, Vec<NodeAvailability>) {
        let n = 7;
        let m = 3;
        let mut etc = Vec::new();
        for j in 0..n {
            for s in 0..m {
                etc.push(5.0 + ((j * 31 + s * 17) % 23) as f64);
            }
        }
        // Job 5 fits nowhere but site 0 by ETC; job 6 is wider than site 2.
        etc[5 * m + 1] = f64::INFINITY;
        etc[5 * m + 2] = f64::INFINITY;
        let mut ctx = MapCtx {
            etc: EtcMatrix::from_raw(n, m, etc),
            widths: vec![1, 2, 1, 3, 1, 1, 4],
            arrivals: (0..n).map(|j| Time::new(j as f64 * 0.5)).collect(),
            candidates: vec![vec![0, 1, 2]; n],
            now: Time::new(1.0),
            commit_order: vec![6, 3, 1, 0, 2, 4, 5],
        };
        ctx.candidates[5] = vec![0];
        let mut avail = vec![
            NodeAvailability::new(4, Time::ZERO),
            NodeAvailability::new(4, Time::new(2.0)),
            NodeAvailability::new(2, Time::ZERO),
        ];
        avail[0].commit(2, Time::new(9.0));
        (ctx, avail)
    }

    #[test]
    fn infeasible_genes_are_infinite_in_both_paths() {
        let (ctx, avail) = snapshot();
        let kernel = FitnessKernel::compile(
            &ctx,
            &avail,
            FitnessKind::Makespan,
            None,
            DEFAULT_FLOW_WEIGHT,
        );
        let mut scratch = KernelScratch::default();
        let mut parent_cts = Vec::new();
        let mut cts = Vec::new();
        // Job 5 onto site 1: non-finite ETC. Job 6 onto site 2: width
        // 4 > 2 nodes. Each parent keeps fewer than half the batch on the
        // two sites the move touches, so the delta call takes its own
        // patch path (and +∞ exit) rather than falling back to a full
        // replay.
        for (parent, j, s) in [
            (vec![2u16, 2, 2, 1, 2, 0, 0], 5, 1u16),
            (vec![1, 1, 1, 1, 1, 0, 0], 6, 2),
        ] {
            let pf = kernel.evaluate_full(&parent, &mut parent_cts, &mut scratch);
            assert!(pf.is_finite());
            let mut genes = parent.clone();
            genes[j] = s;
            assert!(kernel
                .evaluate_full(&genes, &mut cts, &mut scratch)
                .is_infinite());
            assert!(kernel
                .evaluate_delta(&genes, &parent, &parent_cts, j, &mut cts, &mut scratch)
                .is_infinite());
        }
    }

    #[test]
    fn delta_matches_full_for_random_patches() {
        let (ctx, avail) = snapshot();
        let kernel = FitnessKernel::compile(
            &ctx,
            &avail,
            FitnessKind::Makespan,
            None,
            DEFAULT_FLOW_WEIGHT,
        );
        let n = ctx.n_jobs();
        let mut scratch = KernelScratch::default();
        let mut parent_cts = Vec::new();
        let mut full_cts = Vec::new();
        let mut delta_cts = Vec::new();
        let mut rng = stream(99, Stream::Genetic);
        let mut tried = 0;
        while tried < 200 {
            let parent = Chromosome::random(&ctx.candidates, &mut rng);
            let pf = kernel.evaluate_full(parent.genes(), &mut parent_cts, &mut scratch);
            if !pf.is_finite() {
                continue;
            }
            // Random patch: between 0 and n random gene rewrites.
            let mut child = parent.clone();
            let k = rng.gen_range(0..=n);
            let mut from = n;
            for _ in 0..k {
                let j = rng.gen_range(0..n);
                let cand = &ctx.candidates[j];
                child.genes_mut()[j] = cand[rng.gen_range(0..cand.len())] as u16;
                from = from.min(j);
            }
            let want = kernel.evaluate_full(child.genes(), &mut full_cts, &mut scratch);
            let got = kernel.evaluate_delta(
                child.genes(),
                parent.genes(),
                &parent_cts,
                from,
                &mut delta_cts,
                &mut scratch,
            );
            assert_eq!(want.to_bits(), got.to_bits(), "patch width {k}");
            if want.is_finite() {
                assert_eq!(full_cts, delta_cts, "completion times must agree");
            }
            tried += 1;
        }
    }

    #[test]
    fn delta_with_empty_patch_reproduces_parent_fitness() {
        let (ctx, avail) = snapshot();
        let kernel = FitnessKernel::compile(
            &ctx,
            &avail,
            FitnessKind::Makespan,
            None,
            DEFAULT_FLOW_WEIGHT,
        );
        let mut scratch = KernelScratch::default();
        let mut parent_cts = Vec::new();
        let mut cts = Vec::new();
        let c = Chromosome::from_genes(vec![0, 1, 2, 0, 1, 0, 0]);
        let pf = kernel.evaluate_full(c.genes(), &mut parent_cts, &mut scratch);
        assert!(pf.is_finite());
        let df =
            kernel.evaluate_delta(c.genes(), c.genes(), &parent_cts, 0, &mut cts, &mut scratch);
        assert_eq!(pf.to_bits(), df.to_bits());
        assert_eq!(parent_cts, cts);
    }

    /// The decision on the two shapes it was measured on. Left of the
    /// rule: the paper's PSA grid, which is also everything `gridbench`'s
    /// `round-stga-c2` serves — full replays only. Right of it: the NAS
    /// grid, which no benchmark workload runs the STGA on — patching,
    /// covered by `tests/kernel_equivalence.rs` and in-process timing.
    #[test]
    fn patching_is_decided_by_the_compiled_node_counts() {
        let mut kernel = FitnessKernel::default();
        let mut patches_on = |nodes: &[u32]| {
            let (n, m) = (16, nodes.len());
            let ctx = MapCtx {
                etc: EtcMatrix::from_raw(n, m, vec![10.0; n * m]),
                widths: vec![1; n],
                arrivals: vec![Time::ZERO; n],
                candidates: vec![(0..m).collect(); n],
                now: Time::ZERO,
                commit_order: vec![],
            };
            let avail: Vec<NodeAvailability> = nodes
                .iter()
                .map(|&k| NodeAvailability::new(k, Time::ZERO))
                .collect();
            // One kernel recompiled across shapes: the answer follows the
            // live snapshot, never the previous round's.
            kernel.recompile(&ctx, &avail, FitnessKind::Makespan, None, 0.0);
            kernel.patches()
        };
        // Table-1 PSA grid: 20 sites × 1 node.
        assert!(!patches_on(&[1; 20]));
        // NAS grid: 4 sites × 16 nodes + 8 sites × 8 nodes.
        assert!(patches_on(&[16, 16, 16, 16, 8, 8, 8, 8, 8, 8, 8, 8]));
        assert!(!patches_on(&[1; 20]));
        // One multi-node site among one-node sites is enough.
        assert!(patches_on(&[1, 1, 4, 1]));
    }

    /// Where `-0.0` meets `+0.0` the total order and the IEEE order
    /// disagree, so the fitness-only replay takes the plain `max` only on
    /// `recompile`'s proof. Here a tie of signed zeros decides the
    /// makespan's sign and a negative subnormal flow term (which
    /// underflows to `-0.0`) carries it to the fitness: `+0.0` under the
    /// total order, `-0.0` under a plain `max`.
    #[test]
    fn signed_zero_ties_take_the_total_order() {
        let tiny = -1e-320;
        let ctx = MapCtx {
            etc: EtcMatrix::from_raw(2, 2, vec![-0.0, f64::INFINITY, f64::INFINITY, -0.0]),
            widths: vec![1, 1],
            arrivals: vec![Time::new(-0.0), Time::new(tiny)],
            candidates: vec![vec![0, 1]; 2],
            now: Time::new(tiny),
            commit_order: vec![],
        };
        let avail = vec![
            NodeAvailability::new(1, Time::ZERO),
            NodeAvailability::new(1, Time::new(tiny)),
        ];
        let kernel = FitnessKernel::compile(&ctx, &avail, FitnessKind::Makespan, None, 1e-4);
        let mut scratch = KernelScratch::default();
        let full = kernel.evaluate_full(&[0, 1], &mut Vec::new(), &mut scratch);
        let fitness = kernel.evaluate_fitness(&[0, 1], &mut scratch);
        assert_eq!(full.to_bits(), 0.0f64.to_bits());
        assert_eq!(fitness.to_bits(), full.to_bits());
    }

    #[test]
    fn recompile_reuses_buffers_across_snapshots() {
        let (ctx, avail) = snapshot();
        let mut kernel = FitnessKernel::compile(
            &ctx,
            &avail,
            FitnessKind::Makespan,
            None,
            DEFAULT_FLOW_WEIGHT,
        );
        // Recompile on a smaller snapshot, then back; results must track
        // the live snapshot exactly — i.e. equal a kernel compiled fresh
        // from it, with nothing of the previous snapshot left behind.
        let etc = EtcMatrix::from_raw(2, 2, vec![10.0, 20.0, 30.0, 15.0]);
        let small_ctx = MapCtx {
            etc,
            widths: vec![1, 1],
            arrivals: vec![Time::ZERO; 2],
            candidates: vec![vec![0, 1]; 2],
            now: Time::ZERO,
            commit_order: vec![],
        };
        let small_avail = vec![
            NodeAvailability::new(1, Time::ZERO),
            NodeAvailability::new(1, Time::ZERO),
        ];
        kernel.recompile(
            &small_ctx,
            &small_avail,
            FitnessKind::Makespan,
            None,
            DEFAULT_FLOW_WEIGHT,
        );
        let mut scratch = KernelScratch::default();
        let mut cts = Vec::new();
        let c = Chromosome::from_genes(vec![0, 1]);
        let got = kernel.evaluate_full(c.genes(), &mut cts, &mut scratch);
        let fresh = fitness_once(&small_ctx, &small_avail, &c, FitnessKind::Makespan, None);
        assert_eq!(got.to_bits(), fresh.to_bits());
        kernel.recompile(
            &ctx,
            &avail,
            FitnessKind::Makespan,
            None,
            DEFAULT_FLOW_WEIGHT,
        );
        let mut rng = stream(3, Stream::Genetic);
        let c = Chromosome::random(&ctx.candidates, &mut rng);
        let got = kernel.evaluate_full(c.genes(), &mut cts, &mut scratch);
        let fresh = fitness_once(&ctx, &avail, &c, FitnessKind::Makespan, None);
        assert_eq!(got.to_bits(), fresh.to_bits());
    }
}

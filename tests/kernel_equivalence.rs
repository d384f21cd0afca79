//! Property tests pinning the compiled fitness kernel to the object-graph
//! evaluator it was lowered from (the referee in
//! `crates/stga/tests/referee/`), bit for bit.
//!
//! Two equivalences (run in CI under `RAYON_NUM_THREADS=1` and `=4`, and
//! once in `--release`):
//!
//! 1. **kernel ≡ object graph**: for random grids, batches and trust
//!    vectors (both fitness kinds, including infeasible genes, zero and
//!    oversized widths, preloaded sites, explicit commit orders),
//!    `FitnessKernel::evaluate_full` returns the same bits as
//!    `evaluate_with_scratch`.
//! 2. **delta ≡ full**: for random touched-gene sets, patching a parent
//!    evaluation returns the same bits (fitness *and* completion times)
//!    as replaying the child from scratch.
//!
//! A third test drives the whole pooled evolve loop (inherit/delta plans
//! under parallel evaluation) at 1, 2 and 4 rayon threads and asserts
//! identical results — the kernel path is thread-count-invariant.

use gridsec::core::etc::{EtcMatrix, NodeAvailability};
use gridsec::core::rng::{stream, Stream};
use gridsec::core::{SecurityModel, Time};
use gridsec::heuristics::common::MapCtx;
use gridsec::stga::fitness::{FitnessKind, RiskWeights};
use gridsec::stga::{evolve_with_pool, Chromosome, FitnessKernel, GaParams, GaPool, KernelScratch};
use proptest::prelude::*;
use referee::evaluate_with_scratch;

#[path = "../crates/stga/tests/referee/mod.rs"]
mod referee;

/// A random scheduling snapshot: ETC plane (with infeasible holes),
/// widths (including 0 and oversized), arrivals, per-site node counts
/// with random preloading, a trust vector (per-job demands + per-site
/// levels), and an occasional explicit commit order.
#[derive(Debug, Clone)]
struct Snapshot {
    ctx: MapCtx,
    avail: Vec<NodeAvailability>,
    sds: Vec<f64>,
    sls: Vec<f64>,
}

#[allow(clippy::type_complexity)]
fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    (1usize..=10, 1usize..=4).prop_flat_map(|(n, m)| {
        (
            (
                // One-in-five ETC entries are +∞ holes (infeasible pairs).
                prop::collection::vec((0.5f64..500.0, 0u32..5), n * m),
                prop::collection::vec(0u32..=5, n),
                prop::collection::vec(0.0f64..100.0, n),
            ),
            (
                prop::collection::vec((1u32..=4, 0.0f64..50.0), m),
                0.0f64..100.0,
                any::<bool>(),
            ),
            (
                prop::collection::vec(0.0f64..=1.0, n),
                prop::collection::vec(0.0f64..=1.0, m),
                any::<u64>(),
            ),
        )
            .prop_map(
                move |((etc, widths, arrivals), (sites, now, explicit), (sds, sls, perm_seed))| {
                    let etc: Vec<f64> = etc
                        .into_iter()
                        .map(|(v, hole)| if hole == 0 { f64::INFINITY } else { v })
                        .collect();
                    let commit_order = if explicit {
                        pseudo_permutation(n, perm_seed)
                    } else {
                        Vec::new()
                    };
                    let avail: Vec<NodeAvailability> = sites
                        .iter()
                        .map(|&(nodes, load)| {
                            let mut a = NodeAvailability::new(nodes, Time::ZERO);
                            if load > 0.0 {
                                a.commit(1 + nodes / 2, Time::new(load));
                            }
                            a
                        })
                        .collect();
                    let ctx = MapCtx {
                        etc: EtcMatrix::from_raw(n, m, etc),
                        widths,
                        arrivals: arrivals.into_iter().map(Time::new).collect(),
                        candidates: vec![(0..m).collect(); n],
                        now: Time::new(now),
                        commit_order,
                    };
                    Snapshot {
                        ctx,
                        avail,
                        sds,
                        sls,
                    }
                },
            )
    })
}

/// A deterministic pseudo-random permutation of `0..n` (Fisher–Yates over
/// an LCG stream) so explicit commit orders are exercised without pulling
/// an RNG crate into the test.
fn pseudo_permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut s = seed | 1;
    for i in (1..n).rev() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        order.swap(i, (s >> 33) as usize % (i + 1));
    }
    order
}

/// Random genes over the full site range — deliberately including
/// infeasible assignments so the `+∞` folding is exercised.
fn arb_genes(s: &Snapshot) -> impl Strategy<Value = Vec<u16>> {
    prop::collection::vec(0..s.ctx.etc.n_sites() as u16, s.ctx.n_jobs())
}

fn reference_fitness(
    s: &Snapshot,
    genes: &[u16],
    kind: FitnessKind,
    risk: Option<&RiskWeights>,
) -> f64 {
    let mut scratch = Vec::new();
    evaluate_with_scratch(
        &s.ctx,
        &s.avail,
        &mut scratch,
        &Chromosome::from_genes(genes.to_vec()),
        kind,
        risk,
        1e-4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tentpole equivalence 1: kernel-evaluate ≡ object-graph evaluate,
    /// bit-exact, for both fitness kinds over random trust vectors.
    #[test]
    fn kernel_matches_object_graph(
        (s, gene_sets) in arb_snapshot().prop_flat_map(|s| {
            let gene_sets = prop::collection::vec(arb_genes(&s), 1..=4);
            (Just(s), gene_sets)
        })
    ) {
        let model = SecurityModel::default();
        let risk = RiskWeights::build(&model, &s.sds, &s.sls);
        let mut scratch = KernelScratch::default();
        let mut cts = Vec::new();
        for (kind, risk) in [
            (FitnessKind::Makespan, None),
            (FitnessKind::ExpectedMakespan, Some(&risk)),
        ] {
            let kernel = FitnessKernel::compile(&s.ctx, &s.avail, kind, risk, 1e-4);
            for genes in &gene_sets {
                let want = reference_fitness(&s, genes, kind, risk);
                let got = kernel.evaluate_full(genes, &mut cts, &mut scratch);
                prop_assert_eq!(want.to_bits(), got.to_bits());
            }
        }
    }

    /// Tentpole equivalence 2: delta-evaluate ≡ full-evaluate for random
    /// touched-gene sets (fitness and completion times, bit-exact).
    #[test]
    fn delta_matches_full(
        (s, parent_genes, patches) in arb_snapshot().prop_flat_map(|s| {
            let genes = arb_genes(&s);
            let n = s.ctx.n_jobs();
            let m = s.ctx.etc.n_sites() as u16;
            let patches = prop::collection::vec((0..n, 0..m), 0..=n);
            (Just(s), genes, patches)
        })
    ) {
        let kernel = FitnessKernel::compile(&s.ctx, &s.avail, FitnessKind::Makespan, None, 1e-4);
        let mut scratch = KernelScratch::default();
        let mut parent_cts = Vec::new();
        let pf = kernel.evaluate_full(&parent_genes, &mut parent_cts, &mut scratch);
        // Delta evaluation is only defined against finite parents (the GA
        // gates on this); skip infeasible parents.
        prop_assume!(pf.is_finite());
        let mut child = parent_genes.clone();
        let mut from = s.ctx.n_jobs();
        for &(j, g) in &patches {
            child[j] = g;
            from = from.min(j);
        }
        let mut full_cts = Vec::new();
        let mut delta_cts = Vec::new();
        let want = kernel.evaluate_full(&child, &mut full_cts, &mut scratch);
        let got = kernel.evaluate_delta(
            &child,
            &parent_genes,
            &parent_cts,
            from,
            &mut delta_cts,
            &mut scratch,
        );
        prop_assert_eq!(want.to_bits(), got.to_bits());
        if want.is_finite() {
            prop_assert_eq!(full_cts, delta_cts);
        }
    }
}

/// The pooled evolve loop (inherit/delta plans under parallel slot
/// evaluation) must be bit-identical at every thread count.
#[test]
fn evolve_is_thread_count_invariant() {
    let n = 14;
    let m = 4;
    let etc: Vec<f64> = (0..n * m)
        .map(|i| 5.0 + ((i * 131 + 17) % 251) as f64)
        .collect();
    let candidates: Vec<Vec<usize>> = (0..n)
        .map(|j| {
            let c: Vec<usize> = (0..m).filter(|s| (j * 7 + s * 13) % 3 != 0).collect();
            if c.is_empty() {
                vec![0]
            } else {
                c
            }
        })
        .collect();
    let ctx = MapCtx {
        etc: EtcMatrix::from_raw(n, m, etc),
        widths: vec![1; n],
        arrivals: vec![Time::ZERO; n],
        candidates,
        now: Time::ZERO,
        commit_order: vec![],
    };
    let avail = vec![NodeAvailability::new(2, Time::ZERO); m];
    let params = GaParams::default()
        .with_population(40)
        .with_generations(25)
        .with_seed(21);
    let mut results = Vec::new();
    for threads in [1usize, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let mut ga_pool = GaPool::new();
        let mut rng = stream(21, Stream::Genetic);
        let r = pool.install(|| {
            evolve_with_pool(
                &ctx,
                &avail,
                vec![],
                &params,
                FitnessKind::Makespan,
                None,
                &mut rng,
                &mut ga_pool,
            )
        });
        results.push((threads, r));
    }
    let (_, first) = &results[0];
    for (threads, r) in &results[1..] {
        assert_eq!(r, first, "thread count {threads} diverged");
    }
}

//! Property tests pinning the compiled fitness kernel to the object-graph
//! evaluator it was lowered from (the referee in
//! `crates/stga/tests/referee/`), bit for bit.
//!
//! Two equivalences (CI also runs them in `--release`):
//!
//! 1. **kernel ≡ object graph**: for random grids, batches and trust
//!    vectors (both fitness kinds, including infeasible genes, zero and
//!    oversized widths, preloaded sites, explicit commit orders),
//!    `FitnessKernel::evaluate_full` returns the same bits as
//!    `evaluate_with_scratch`.
//! 2. **fitness-only ≡ full**: `FitnessKernel::evaluate_fitness` (no
//!    completion times; one-node sites read by index; a plain `max` where
//!    every time is proved non-negative) returns the same bits as
//!    `evaluate_full`, at flow weights 0 and 1e-4, on snapshots with and
//!    without negative and `-0.0` floors, free times and ETC entries.
//!
//! The first runs over three snapshot strategies: small lumpy grids
//! (`arb_snapshot`, 1–4 sites of 1–4 nodes), grids where every site is
//! one node at the paper's PSA size (`arb_single_node_snapshot` — the
//! shape on which the kernel's scalar replay runs), and mixed grids where
//! one-node and multi-node sites meet in one chromosome
//! (`arb_mixed_snapshot`); the second over the last two.

use gridsec::core::etc::{EtcMatrix, NodeAvailability};
use gridsec::core::{SecurityModel, Time};
use gridsec::heuristics::common::MapCtx;
use gridsec::stga::fitness::{FitnessKind, RiskWeights};
use gridsec::stga::{Chromosome, FitnessKernel, KernelScratch};
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

/// A snapshot on a grid with the given node count per site — the shapes
/// [`arb_snapshot`] all but never draws. One ETC entry in twelve is a
/// `+∞` hole; half the snapshots sprinkle widths 0, 2 and 3 among the
/// 1s (zero and oversized widths must hit the one-node scalar branch as
/// `+∞`, not as an out-of-range splice); about half the sites are
/// preloaded; `now` and the arrivals include `0.0` and `-0.0`, which
/// `Time`'s total order tells apart; the commit order is explicit half
/// the time.
#[allow(clippy::type_complexity)]
fn arb_snapshot_on(nodes: impl Strategy<Value = Vec<u32>>) -> impl Strategy<Value = Snapshot> {
    // Maps a tagged draw onto the signed-zero pair now and then.
    fn zeroed((v, tag): (f64, u32)) -> f64 {
        match tag {
            0 => 0.0,
            1 => -0.0,
            _ => v,
        }
    }
    (1usize..=24, nodes).prop_flat_map(|(n, nodes)| {
        let m = nodes.len();
        (
            (
                prop::collection::vec((0.5f64..500.0, 0u32..12), n * m),
                prop::collection::vec(0u32..24, n),
                prop::collection::vec((0.0f64..100.0, 0u32..6), n),
                any::<bool>(),
            ),
            (
                prop::collection::vec((0.0f64..50.0, any::<bool>()), m),
                (0.0f64..100.0, 0u32..4),
                any::<bool>(),
            ),
            (
                prop::collection::vec(0.0f64..=1.0, n),
                prop::collection::vec(0.0f64..=1.0, m),
                any::<u64>(),
            ),
        )
            .prop_map(
                move |(
                    (etc, widths, arrivals, odd_widths),
                    (loads, now, explicit),
                    (sds, sls, perm_seed),
                )| {
                    let etc: Vec<f64> = etc
                        .into_iter()
                        .map(|(v, hole)| if hole == 0 { f64::INFINITY } else { v })
                        .collect();
                    let widths = widths
                        .into_iter()
                        .map(|w| if odd_widths && w < 4 { w } else { 1 })
                        .collect();
                    let avail: Vec<NodeAvailability> = nodes
                        .iter()
                        .zip(&loads)
                        .map(|(&k, &(load, preloaded))| {
                            let mut a = NodeAvailability::new(k, Time::ZERO);
                            if preloaded {
                                a.commit(1 + k / 2, Time::new(load));
                            }
                            a
                        })
                        .collect();
                    let ctx = MapCtx {
                        etc: EtcMatrix::from_raw(n, m, etc),
                        widths,
                        arrivals: arrivals.into_iter().map(|a| Time::new(zeroed(a))).collect(),
                        candidates: vec![(0..m).collect(); n],
                        now: Time::new(zeroed(now)),
                        commit_order: if explicit {
                            pseudo_permutation(n, perm_seed)
                        } else {
                            Vec::new()
                        },
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

/// Every site one node, 8–24 of them: the paper's PSA shape (20 × 1).
fn arb_single_node_snapshot() -> impl Strategy<Value = Snapshot> {
    arb_snapshot_on(prop::collection::vec(Just(1u32), 8..=24))
}

/// One-node and multi-node sites in one grid (at least one of each), so
/// both branches of the kernel's `replay_one` meet in one chromosome.
fn arb_mixed_snapshot() -> impl Strategy<Value = Snapshot> {
    arb_snapshot_on(
        prop::collection::vec(1u32..=4, 3..=10).prop_map(|mut nodes| {
            nodes[0] = 1;
            nodes[1] = 3;
            nodes
        }),
    )
}

/// A one-node snapshot with, per flag, its floors (`now` and every
/// arrival), its first site's free time or its first ETC entry moved to
/// `-x` — `-0.0` when `x` is zero. Any flag set defeats the kernel's
/// non-negative proof, so its total-order `later` runs; none set leaves a
/// sign-clear snapshot, where the plain `max` runs.
fn arb_signed_single_node_snapshot() -> impl Strategy<Value = Snapshot> {
    // A magnitude, zero a third of the time.
    let x = || (0.0f64..50.0, 0u32..3);
    let x_of = |(v, tag): (f64, u32)| if tag == 0 { 0.0 } else { v };
    (
        arb_single_node_snapshot(),
        (any::<bool>(), any::<bool>(), any::<bool>()),
        (x(), x(), x()),
    )
        .prop_map(move |(mut s, (floors, free, etc), (xf, xa, xe))| {
            if floors {
                s.ctx.now = Time::new(-x_of(xf));
                for a in &mut s.ctx.arrivals {
                    *a = Time::new(-a.seconds());
                }
            }
            if free {
                s.avail[0] = NodeAvailability::new(1, Time::new(-x_of(xa)));
            }
            if etc {
                let (n, m) = (s.ctx.n_jobs(), s.ctx.etc.n_sites());
                let mut raw = s.ctx.etc.raw().to_vec();
                raw[0] = -x_of(xe);
                s.ctx.etc = EtcMatrix::from_raw(n, m, raw);
            }
            s
        })
}

/// Property 1 on one snapshot: kernel ≡ object graph for both fitness
/// kinds, bit-exact.
fn check_kernel_matches_object_graph(s: &Snapshot, gene_sets: &[Vec<u16>]) -> Result<(), String> {
    let model = SecurityModel::default();
    let risk = RiskWeights::build(&model, &s.sds, &s.sls);
    let mut scratch = KernelScratch::default();
    let mut cts = Vec::new();
    for (kind, risk) in [
        (FitnessKind::Makespan, None),
        (FitnessKind::ExpectedMakespan, Some(&risk)),
    ] {
        let kernel = FitnessKernel::compile(&s.ctx, &s.avail, kind, risk, 1e-4);
        for genes in gene_sets {
            let want = reference_fitness(s, genes, kind, risk);
            let got = kernel.evaluate_full(genes, &mut cts, &mut scratch);
            prop_assert_eq!(want.to_bits(), got.to_bits());
        }
    }
    Ok(())
}

/// Property 2 on one snapshot: fitness-only ≡ full, bit-exact, with and
/// without the flow term.
fn check_fitness_only_matches_full(s: &Snapshot, gene_sets: &[Vec<u16>]) -> Result<(), String> {
    let mut scratch = KernelScratch::default();
    let mut cts = Vec::new();
    for flow_weight in [0.0, 1e-4] {
        let kernel =
            FitnessKernel::compile(&s.ctx, &s.avail, FitnessKind::Makespan, None, flow_weight);
        for genes in gene_sets {
            let want = kernel.evaluate_full(genes, &mut cts, &mut scratch);
            let got = kernel.evaluate_fitness(genes, &mut scratch);
            prop_assert_eq!(want.to_bits(), got.to_bits());
        }
    }
    Ok(())
}

/// A snapshot with 1–4 random gene sets over it.
fn with_gene_sets(
    snapshots: impl Strategy<Value = Snapshot>,
) -> impl Strategy<Value = (Snapshot, Vec<Vec<u16>>)> {
    snapshots.prop_flat_map(|s| {
        let gene_sets = prop::collection::vec(arb_genes(&s), 1..=4);
        (Just(s), gene_sets)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// kernel ≡ object graph where every site is one node.
    #[test]
    fn kernel_matches_object_graph_on_single_node_grids(
        (s, gene_sets) in with_gene_sets(arb_single_node_snapshot())
    ) {
        check_kernel_matches_object_graph(&s, &gene_sets)?;
    }

    /// kernel ≡ object graph where one-node and multi-node sites mix.
    #[test]
    fn kernel_matches_object_graph_on_mixed_grids(
        (s, gene_sets) in with_gene_sets(arb_mixed_snapshot())
    ) {
        check_kernel_matches_object_graph(&s, &gene_sets)?;
    }

    /// fitness-only ≡ full on one-node grids, with and without negative
    /// and `-0.0` times, and infeasible genes.
    #[test]
    fn fitness_only_matches_full_on_single_node_grids(
        (s, gene_sets) in with_gene_sets(arb_signed_single_node_snapshot())
    ) {
        check_fitness_only_matches_full(&s, &gene_sets)?;
    }

    /// fitness-only ≡ full where one-node and multi-node sites mix.
    #[test]
    fn fitness_only_matches_full_on_mixed_grids(
        (s, gene_sets) in with_gene_sets(arb_mixed_snapshot())
    ) {
        check_fitness_only_matches_full(&s, &gene_sets)?;
    }
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
}

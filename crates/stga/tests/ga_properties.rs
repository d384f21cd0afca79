//! Property tests for the GA machinery: operators preserve feasibility,
//! elitism makes best-fitness monotone, the history table honours its
//! bounds, and Eq. 2 similarity behaves like a similarity.

use gridsec_core::etc::{EtcMatrix, NodeAvailability};
use gridsec_core::rng::{stream, Stream};
use gridsec_core::Time;
use gridsec_heuristics::common::MapCtx;
use gridsec_stga::chromosome::Chromosome;
use gridsec_stga::fitness::FitnessKind;
use gridsec_stga::ga::evolve;
use gridsec_stga::history::{similarity, BatchSignature, HistoryTable};
use gridsec_stga::ops::{crossover, mutate};
use gridsec_stga::GaParams;
use proptest::prelude::*;
use referee::evaluate;

mod referee;

fn arb_candidates() -> impl Strategy<Value = Vec<Vec<usize>>> {
    (1usize..10, 2usize..6).prop_flat_map(|(n, m)| {
        prop::collection::vec(
            prop::collection::btree_set(0usize..m, 1..=m).prop_map(|s| s.into_iter().collect()),
            n..=n,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn operators_preserve_feasibility(cands in arb_candidates(), seed in 0u64..500) {
        let mut rng = stream(seed, Stream::Genetic);
        let a = Chromosome::random(&cands, &mut rng);
        let b = Chromosome::random(&cands, &mut rng);
        let (c, d) = crossover(&a, &b, &mut rng);
        prop_assert!(c.is_feasible(&cands));
        prop_assert!(d.is_feasible(&cands));
        let mut e = c.clone();
        mutate(&mut e, &cands, &mut rng);
        prop_assert!(e.is_feasible(&cands));
    }

    #[test]
    fn repair_always_yields_feasible(
        cands in arb_candidates(),
        genes in prop::collection::vec(0u16..50, 0..20),
        seed in 0u64..500,
    ) {
        let mut rng = stream(seed, Stream::Genetic);
        let c = Chromosome::from_genes(genes);
        let fixed = c.repair(&cands, &mut rng);
        prop_assert!(fixed.is_feasible(&cands));
    }

    #[test]
    fn evolution_never_worsens_with_elitism(
        n in 2usize..8,
        m in 2usize..5,
        seed in 0u64..200,
    ) {
        let data: Vec<f64> = (0..n * m).map(|i| 10.0 + (i * 7 % 90) as f64).collect();
        let ctx = MapCtx {
            etc: EtcMatrix::from_raw(n, m, data),
            widths: vec![1; n],
            arrivals: vec![Time::ZERO; n],
            candidates: vec![(0..m).collect(); n],
            now: Time::ZERO,
            commit_order: vec![],
        };
        let avail = vec![NodeAvailability::new(1, Time::ZERO); m];
        let params = GaParams::default()
            .with_population(20)
            .with_generations(15)
            .with_seed(seed);
        let mut rng = stream(seed, Stream::Genetic);
        let r = evolve(&ctx, &avail, vec![], &params, FitnessKind::Makespan, None, &mut rng);
        prop_assert!(r.trajectory.windows(2).all(|w| w[1] <= w[0] + 1e-12));
        prop_assert!(r.best.is_feasible(&ctx.candidates));
        let check = evaluate(&ctx, &avail, &r.best, FitnessKind::Makespan, None);
        prop_assert!((check - r.best_fitness).abs() < 1e-9);
    }

    #[test]
    fn similarity_is_bounded_symmetric_reflexive(
        a in prop::collection::vec(0.0f64..1_000.0, 0..30),
        b in prop::collection::vec(0.0f64..1_000.0, 0..30),
    ) {
        let sab = similarity(&a, &b);
        let sba = similarity(&b, &a);
        prop_assert!((0.0..=1.0).contains(&sab));
        prop_assert!((sab - sba).abs() < 1e-12);
        prop_assert_eq!(similarity(&a, &a), 1.0);
    }

    #[test]
    fn history_table_never_exceeds_capacity(
        cap in 1usize..20,
        inserts in prop::collection::vec(0.0f64..100.0, 0..60),
    ) {
        let mut t = HistoryTable::new(cap);
        for (i, v) in inserts.iter().enumerate() {
            t.insert(
                BatchSignature {
                    ready_times: vec![*v],
                    etc: vec![*v * 2.0, i as f64],
                    demands: vec![0.7],
                },
                Chromosome::from_genes(vec![0]),
            );
            prop_assert!(t.len() <= cap);
        }
    }

    #[test]
    fn exact_signature_always_hits(
        v in prop::collection::vec(1.0f64..100.0, 1..10),
    ) {
        let mut t = HistoryTable::new(8);
        let sig = BatchSignature {
            ready_times: v.clone(),
            etc: v.iter().map(|x| x * 3.0).collect(),
            demands: vec![0.8; v.len()],
        };
        t.insert(sig.clone(), Chromosome::from_genes(vec![1; v.len()]));
        let hits = t.lookup(&sig, 0.999, 4);
        prop_assert_eq!(hits.len(), 1);
    }
}

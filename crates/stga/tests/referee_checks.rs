//! Fixed-instance checks around the referees in [`referee`]: the shipped
//! kernel and history lookup against them on hand-built lumpy inputs (the
//! randomised versions are `tests/kernel_equivalence.rs` and
//! `tests/properties.rs` at the workspace root), and the referee's own
//! scratch handling.

mod referee;

use gridsec_core::etc::{EtcMatrix, NodeAvailability};
use gridsec_core::rng::{stream, Stream};
use gridsec_core::{SecurityModel, Time};
use gridsec_heuristics::common::MapCtx;
use gridsec_stga::fitness::{FitnessKind, RiskWeights, DEFAULT_FLOW_WEIGHT};
use gridsec_stga::history::{BatchSignature, HistoryTable};
use gridsec_stga::{Chromosome, FitnessKernel, KernelScratch};
use referee::{evaluate, evaluate_with_scratch, lookup_linear, reset_scratch};

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
fn full_replay_matches_reference_bit_for_bit() {
    let (ctx, avail) = snapshot();
    let kernel = FitnessKernel::compile(
        &ctx,
        &avail,
        FitnessKind::Makespan,
        None,
        DEFAULT_FLOW_WEIGHT,
    );
    let mut scratch = KernelScratch::default();
    let mut cts = Vec::new();
    let mut rng = stream(42, Stream::Genetic);
    for _ in 0..200 {
        let c = Chromosome::random(&ctx.candidates, &mut rng);
        let want = evaluate(&ctx, &avail, &c, FitnessKind::Makespan, None);
        let got = kernel.evaluate_full(c.genes(), &mut cts, &mut scratch);
        assert_eq!(want.to_bits(), got.to_bits(), "genes {:?}", c.genes());
    }
    // Job 5 on site 1: non-finite ETC. Job 6 on site 2: width 4 > 2.
    for genes in [vec![0, 0, 0, 0, 0, 1, 0], vec![0, 0, 0, 0, 0, 0, 2]] {
        let c = Chromosome::from_genes(genes);
        assert!(evaluate(&ctx, &avail, &c, FitnessKind::Makespan, None).is_infinite());
        assert!(kernel
            .evaluate_full(c.genes(), &mut cts, &mut scratch)
            .is_infinite());
    }
}

#[test]
fn risk_lowering_matches_reference() {
    let (ctx, avail) = snapshot();
    let model = SecurityModel::new(3.0).unwrap();
    let sds: Vec<f64> = (0..ctx.n_jobs()).map(|j| 0.3 + 0.1 * j as f64).collect();
    let sls = vec![0.9, 0.4, 0.6];
    let risk = RiskWeights::build(&model, &sds, &sls);
    let kernel = FitnessKernel::compile(
        &ctx,
        &avail,
        FitnessKind::ExpectedMakespan,
        Some(&risk),
        DEFAULT_FLOW_WEIGHT,
    );
    let mut scratch = KernelScratch::default();
    let mut cts = Vec::new();
    let mut ref_scratch = Vec::new();
    let mut rng = stream(7, Stream::Genetic);
    for _ in 0..100 {
        let c = Chromosome::random(&ctx.candidates, &mut rng);
        let want = evaluate_with_scratch(
            &ctx,
            &avail,
            &mut ref_scratch,
            &c,
            FitnessKind::ExpectedMakespan,
            Some(&risk),
            DEFAULT_FLOW_WEIGHT,
        );
        let got = kernel.evaluate_full(c.genes(), &mut cts, &mut scratch);
        assert_eq!(want.to_bits(), got.to_bits());
    }
}

#[test]
fn referee_scratch_reuse_matches_fresh_allocation() {
    let (ctx, avail) = snapshot();
    let c = Chromosome::from_genes(vec![0, 1, 2, 0, 1, 0, 0]);
    let fresh = evaluate(&ctx, &avail, &c, FitnessKind::Makespan, None);
    let mut scratch = Vec::new();
    for _ in 0..3 {
        let reused = evaluate_with_scratch(
            &ctx,
            &avail,
            &mut scratch,
            &c,
            FitnessKind::Makespan,
            None,
            DEFAULT_FLOW_WEIGHT,
        );
        assert_eq!(fresh, reused);
    }
}

#[test]
fn reset_scratch_handles_size_changes() {
    let base3 = vec![NodeAvailability::new(2, Time::ZERO); 3];
    let base1 = vec![NodeAvailability::new(4, Time::new(5.0))];
    let mut scratch = Vec::new();
    reset_scratch(&mut scratch, &base3);
    assert_eq!(scratch, base3);
    reset_scratch(&mut scratch, &base1);
    assert_eq!(scratch, base1);
    reset_scratch(&mut scratch, &base3);
    assert_eq!(scratch, base3);
}

#[test]
fn reset_scratch_reclaims_capacity_after_reconfigure() {
    // A big grid warms the scratch; reconfiguring to a small one must
    // eventually release the retained capacity (hysteresis shrink)…
    let big = vec![NodeAvailability::new(1, Time::ZERO); 256];
    let small = vec![NodeAvailability::new(1, Time::ZERO); 4];
    let mut scratch = Vec::new();
    reset_scratch(&mut scratch, &big);
    assert!(scratch.capacity() >= 256);
    reset_scratch(&mut scratch, &small);
    assert!(
        scratch.capacity() <= 64,
        "stale capacity kept: {}",
        scratch.capacity()
    );
    assert_eq!(scratch, small);
    // …while modest jitter around the working size never shrinks.
    let mid = vec![NodeAvailability::new(1, Time::ZERO); 100];
    reset_scratch(&mut scratch, &mid);
    let cap = scratch.capacity();
    let jitter = vec![NodeAvailability::new(1, Time::ZERO); 80];
    reset_scratch(&mut scratch, &jitter);
    assert_eq!(scratch.capacity(), cap, "hysteresis must tolerate jitter");
}

fn sig(ready: &[f64], etc: &[f64], sd: &[f64]) -> BatchSignature {
    BatchSignature {
        ready_times: ready.to_vec(),
        etc: etc.to_vec(),
        demands: sd.to_vec(),
    }
}

#[test]
fn bucketed_lookup_matches_linear_scan() {
    // Mixed dimensions, several thresholds, eviction churn along the
    // way: the bucketed lookup must reproduce the linear scan exactly.
    let mut table = HistoryTable::new(12);
    let make = |t: u64, d: usize| {
        let v: Vec<f64> = (0..d)
            .map(|i| ((t as usize * 13 + i * 5) % 40) as f64)
            .collect();
        (
            sig(&v, &v, &v[..d.min(3)]),
            Chromosome::from_genes(vec![t as u16; d]),
        )
    };
    for t in 0..30u64 {
        let (s, c) = make(t, 2 + (t % 4) as usize);
        table.insert(s, c);
    }
    for t in 0..30u64 {
        for threshold in [0.0, 0.4, 0.8, 0.95] {
            let (q, _) = make(t, 2 + ((t + 1) % 4) as usize);
            let want = lookup_linear(&table, &q, threshold, 5);
            assert_eq!(
                table.lookup(&q, threshold, 5),
                want,
                "query {t} threshold {threshold}"
            );
        }
    }
    assert_eq!(table.len(), 12);
}

#[test]
fn eviction_keeps_bucket_index_consistent() {
    // Capacity 3 with constant churn across two dimension classes;
    // after every insert the bucketed and linear lookups must agree.
    let mut t = HistoryTable::new(3);
    for i in 0..20u64 {
        let d = 1 + (i % 2) as usize;
        let v = vec![i as f64; d];
        t.insert(sig(&v, &v, &v), Chromosome::from_genes(vec![i as u16]));
        let q = sig(&[i as f64], &[i as f64], &[i as f64]);
        let want = lookup_linear(&t, &q, 0.5, 3);
        assert_eq!(t.lookup(&q, 0.5, 3), want, "after insert {i}");
    }
    assert_eq!(t.len(), 3);
}

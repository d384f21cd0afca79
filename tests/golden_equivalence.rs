//! Golden-equivalence suite: pins the exact output of the GA and
//! heuristic hot paths for fixed seeds.
//!
//! The digests below were captured from the pre-PR-3 implementations
//! (fresh-allocation GA generation loop, per-generation roulette tables,
//! linear-scan history lookup, sequential heuristic argmin). The PR 3
//! rewrites — double-buffered populations, bucketed history lookup,
//! cached/parallel mapping loops, deterministic tree reductions — must
//! reproduce every digest bit for bit.
//!
//! If a digest ever changes, that is a *behaviour* change, not a perf
//! change — either fix the regression or, if the change is deliberate,
//! re-capture and document why in the commit.

use gridsec::core::etc::{EtcMatrix, NodeAvailability};
use gridsec::core::rng::{stream, Stream};
use gridsec::heuristics::common::MapCtx;
use gridsec::heuristics::mapping::{map_max_min, map_min_min, map_sufferage};
use gridsec::heuristics::paper_heuristics;
use gridsec::prelude::*;
use gridsec::stga::fitness::FitnessKind;
use gridsec::stga::history::{BatchSignature, HistoryTable};
use gridsec::stga::selection::RouletteWheel;
use gridsec::stga::{evolve, Chromosome, GaParams, StandardGa, Stga, StgaParams};
use gridsec_bench::runner::{nas_setup, nas_sim_config};
use gridsec_bench::{psa_setup, psa_sim_config, replicate, replication_seeds};

/// Order-sensitive digest of exact f64 bits.
fn fold_f64(acc: u64, x: f64) -> u64 {
    acc.rotate_left(7) ^ x.to_bits()
}

/// Order-sensitive digest of integers.
fn fold_u64(acc: u64, x: u64) -> u64 {
    acc.rotate_left(7) ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn digest_report(acc: u64, r: &gridsec::core::metrics::Report) -> u64 {
    let mut d = fold_u64(acc, r.n_jobs as u64);
    d = fold_f64(d, r.makespan.seconds());
    d = fold_f64(d, r.avg_response);
    d = fold_f64(d, r.avg_wait);
    d = fold_f64(d, r.slowdown_ratio);
    d = fold_u64(d, r.n_risk as u64);
    d = fold_u64(d, r.n_fail as u64);
    for &u in &r.site_utilization {
        d = fold_f64(d, u);
    }
    d
}

/// A deterministic, mildly inconsistent ETC instance: `n` jobs × `m`
/// single-node sites, full candidate lists.
fn synthetic_ctx(n: usize, m: usize) -> (MapCtx, Vec<NodeAvailability>) {
    let etc: Vec<f64> = (0..n * m)
        .map(|i| 5.0 + ((i * 131 + 17) % 251) as f64)
        .collect();
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

/// GA evolve loop on a fixed synthetic batch: genes + fitness +
/// trajectory of the best solution.
fn ga_evolve_digest() -> u64 {
    let (ctx, avail) = synthetic_ctx(12, 4);
    let params = GaParams::default()
        .with_population(48)
        .with_generations(40)
        .with_seed(2005);
    let mut rng = stream(2005, Stream::Genetic);
    let r = evolve(
        &ctx,
        &avail,
        vec![],
        &params,
        FitnessKind::Makespan,
        None,
        &mut rng,
    );
    let mut d = fold_f64(0, r.best_fitness);
    for &g in r.best.genes() {
        d = fold_u64(d, g as u64);
    }
    for &t in &r.trajectory {
        d = fold_f64(d, t);
    }
    d
}

/// A low-level mapping entry point (Min-Min / Max-Min / Sufferage).
type MapFn = fn(&MapCtx, &mut [NodeAvailability]) -> Vec<(usize, usize)>;

/// One low-level mapping loop over the synthetic instance.
fn mapping_digest(f: MapFn) -> u64 {
    let (mut ctx, mut avail) = synthetic_ctx(24, 6);
    // Restrict a few candidate lists so the restricted paths are pinned.
    ctx.candidates[3] = vec![1];
    ctx.candidates[7] = vec![0, 2];
    ctx.candidates[15] = vec![4, 5];
    let mapping = f(&ctx, &mut avail);
    let mut d = 0;
    for (j, s) in mapping {
        d = fold_u64(d, j as u64);
        d = fold_u64(d, s as u64);
    }
    for a in &avail {
        d = fold_f64(d, a.ready_time().seconds());
    }
    d
}

/// Full STGA simulation over a PSA workload (training + online rounds).
fn stga_sim_digest() -> u64 {
    let w = psa_setup(100, 2005);
    let mut stga = Stga::new(StgaParams {
        ga: GaParams::default()
            .with_population(40)
            .with_generations(15)
            .with_seed(77),
        ..StgaParams::default()
    })
    .unwrap();
    stga.train(&w.jobs[..50], &w.grid, 8).unwrap();
    let config = SimConfig::default().with_interval(Time::new(1_000.0));
    let out = simulate(&w.jobs, &w.grid, &mut stga, &config).unwrap();
    fold_u64(digest_report(0, &out.metrics), out.n_batches as u64)
}

/// All six paper heuristics over one PSA workload, then the daemon's MCT.
fn heuristics_sim_digests() -> Vec<(String, u64)> {
    let w = psa_setup(150, 2005);
    let config = SimConfig::default().with_interval(Time::new(1_000.0));
    let mct: Box<dyn BatchScheduler> = Box::new(Mct::new(RiskMode::Risky));
    paper_heuristics()
        .into_iter()
        .chain([mct])
        .map(|mut h| {
            let out = simulate(&w.jobs, &w.grid, &mut *h, &config).unwrap();
            let d = fold_u64(digest_report(0, &out.metrics), out.n_batches as u64);
            (out.scheduler_name, d)
        })
        .collect()
}

/// Fig. 5 slice: conventional GA vs STGA trajectories over PSA batches.
fn fig5_slice_digest() -> u64 {
    let batch_size = 10;
    let rounds = 2;
    let w = psa_setup(rounds * batch_size, 2005);
    let ga_params = GaParams::default()
        .with_population(40)
        .with_generations(12)
        .with_seed(2005);
    let mut ga = StandardGa::new(ga_params).unwrap();
    let mut stga = Stga::new(StgaParams {
        ga: ga_params,
        ..StgaParams::default()
    })
    .unwrap();
    let avail: Vec<NodeAvailability> = w
        .grid
        .sites()
        .map(|s| NodeAvailability::new(s.nodes, Time::ZERO))
        .collect();
    let mut d = 0;
    for r in 0..rounds {
        let batch: Vec<BatchJob> = w.jobs[r * batch_size..(r + 1) * batch_size]
            .iter()
            .cloned()
            .map(|job| BatchJob {
                job,
                secure_only: false,
            })
            .collect();
        let view = GridView {
            grid: &w.grid,
            avail: &avail,
            now: Time::ZERO,
            model: SecurityModel::default(),
        };
        let _ = ga.schedule(&batch, &view);
        let _ = stga.schedule(&batch, &view);
        for t in [ga.last_trajectory(), stga.last_trajectory()] {
            for &x in t.expect("scheduler ran") {
                d = fold_f64(d, x);
            }
        }
    }
    d
}

/// Fig. 8 slice: a small replicated sweep, two schedulers × two seeds.
fn fig8_slice_digest() -> u64 {
    let seeds = replication_seeds(2005, 2);
    let mut d = 0;
    let outs = replicate(2, &seeds, |s| {
        let w = psa_setup(60, s);
        let mut sched = MinMin::new(RiskMode::Risky);
        simulate(&w.jobs, &w.grid, &mut sched, &psa_sim_config(s)).unwrap()
    });
    for o in &outs {
        d = digest_report(d, &o.metrics);
    }
    let outs = replicate(2, &seeds, |s| {
        let w = psa_setup(60, s);
        let mut sched = Sufferage::new(RiskMode::Secure);
        simulate(&w.jobs, &w.grid, &mut sched, &psa_sim_config(s)).unwrap()
    });
    for o in &outs {
        d = digest_report(d, &o.metrics);
    }
    d
}

/// History-table insert + thresholded lookup over synthetic signatures of
/// mixed dimensions (exercises the bucketed index end to end).
fn history_lookup_digest() -> u64 {
    let sig = |tag: u64, jobs: usize, sites: usize| -> BatchSignature {
        let f = |i: usize| ((tag as usize * 31 + i * 7) % 100) as f64;
        BatchSignature {
            ready_times: (0..sites).map(f).collect(),
            etc: (0..jobs * sites).map(f).collect(),
            demands: (0..jobs).map(|i| 0.6 + 0.3 * (f(i) / 100.0)).collect(),
        }
    };
    let mut t = HistoryTable::new(40);
    for tag in 0..60u64 {
        let (jobs, sites) = match tag % 3 {
            0 => (8, 4),
            1 => (12, 4),
            _ => (8, 6),
        };
        let genes: Vec<u16> = (0..jobs)
            .map(|i| ((tag as usize + i) % sites) as u16)
            .collect();
        t.insert(sig(tag, jobs, sites), Chromosome::from_genes(genes));
    }
    let mut d = fold_u64(0, t.len() as u64);
    for (tag, jobs, sites, threshold) in [
        (3u64, 8usize, 4usize, 0.8),
        (10, 12, 4, 0.6),
        (20, 8, 6, 0.9),
        (33, 8, 4, 0.0),
        (7, 5, 5, 0.5),
    ] {
        let hits = t.lookup(&sig(tag, jobs, sites), threshold, 6);
        d = fold_u64(d, hits.len() as u64);
        for c in hits {
            for &g in c.genes() {
                d = fold_u64(d, g as u64);
            }
        }
        if let Some(s) = t.best_similarity(&sig(tag, jobs, sites)) {
            d = fold_f64(d, s);
        }
    }
    d
}

/// Roulette-wheel construction + spin sequence for a fixed fitness vector.
fn roulette_digest() -> u64 {
    let fitness = vec![
        40.0,
        55.0,
        f64::INFINITY,
        40.0,
        72.5,
        61.25,
        f64::INFINITY,
        48.0,
    ];
    let wheel = RouletteWheel::build(&fitness);
    let mut rng = stream(2005, Stream::Genetic);
    let mut d = 0;
    for _ in 0..200 {
        d = fold_u64(d, wheel.spin(&mut rng) as u64);
    }
    d
}

/// One engine run folded whole: every attempt span (job, site, start and
/// end bits, outcome), then the batch statistics.
fn engine_digest(out: &SimOutput) -> u64 {
    let mut d = 0;
    for s in out.timeline.as_ref().expect("timeline recorded").spans() {
        d = fold_u64(d, s.job.0);
        d = fold_u64(d, s.site.0 as u64);
        d = fold_f64(d, s.start.seconds());
        d = fold_f64(d, s.end.seconds());
        d = fold_u64(d, s.failed as u64);
    }
    d = fold_u64(d, out.n_batches as u64);
    d = fold_f64(d, out.mean_batch_size);
    d = fold_u64(d, out.max_batch_size as u64);
    // Was the replica-dispatch count, 0 on every kept row: every pin stays valid.
    fold_u64(d, 0)
}

/// The engine paths the periodic digests above never reach: count-
/// triggered and hybrid boundaries with Eq. 1 failures requeued
/// secure-only, the SL walk (its steps land on boundary instants), and
/// multi-node NAS jobs under a hybrid policy.
fn engine_path_digests() -> Vec<(&'static str, u64)> {
    let psa = psa_setup(150, 2005);
    let nas = nas_setup(150, 2005);
    let psa_risky = |config: SimConfig| {
        let mut minmin = MinMin::new(RiskMode::Risky);
        simulate(&psa.jobs, &psa.grid, &mut minmin, &config.with_timeline()).unwrap()
    };
    let count = psa_risky(psa_sim_config(2005).with_batch_policy(BatchPolicy::CountTriggered(4)));
    assert!(count.metrics.n_fail > 0, "the count row must requeue");
    let hybrid = psa_risky(psa_sim_config(2005).with_batch_policy(BatchPolicy::Hybrid(4)));
    assert!(hybrid.metrics.n_fail > 0, "the hybrid row must requeue");
    let walk = psa_risky(psa_sim_config(2005).with_sl_dynamics(SlDynamics {
        period: Time::new(500.0),
        step: 0.1,
        min: 0.3,
        max: 1.0,
    }));
    let config = nas_sim_config(2005)
        .with_batch_policy(BatchPolicy::Hybrid(4))
        .with_timeline();
    let mut minmin = MinMin::new(RiskMode::Risky);
    let nas_hybrid = simulate(&nas.jobs, &nas.grid, &mut minmin, &config).unwrap();
    assert!(nas_hybrid.metrics.n_fail > 0, "the NAS row must requeue");
    let spans = nas_hybrid
        .timeline
        .as_ref()
        .expect("timeline recorded")
        .spans();
    assert!(
        spans.iter().any(|s| s.width > 1),
        "the NAS row must run multi-node jobs"
    );
    vec![
        ("engine/count4_minmin_risky", engine_digest(&count)),
        ("engine/hybrid4_minmin_risky", engine_digest(&hybrid)),
        ("engine/sl_walk_minmin_risky", engine_digest(&walk)),
        (
            "engine/hybrid4_nas_minmin_risky",
            engine_digest(&nas_hybrid),
        ),
    ]
}

/// Captured at bfcc786, before the engine fed `BoundaryClock`. The count
/// and hybrid rows agree: under both policies a sub-threshold enqueue arms
/// the periodic boundary. The NAS row was captured at e6de4e0.
const ENGINE_GOLDEN: &[(&str, u64)] = &[
    ("engine/count4_minmin_risky", 0x8F8A8D79A6E6B824),
    ("engine/hybrid4_minmin_risky", 0x8F8A8D79A6E6B824),
    ("engine/sl_walk_minmin_risky", 0x3CA78298E3E6578A),
    ("engine/hybrid4_nas_minmin_risky", 0x26D70C98BDC12373),
];

#[test]
fn engine_paths_reproduce_parent_goldens() {
    let actual = engine_path_digests();
    let table: Vec<String> = actual
        .iter()
        .map(|(n, d)| format!("    (\"{n}\", 0x{d:016X}),"))
        .collect();
    let expected: Vec<(&str, u64)> = ENGINE_GOLDEN.to_vec();
    assert_eq!(actual, expected, "re-capture with:\n{}", table.join("\n"));
}

/// The golden values. Captured pre-refactor; see module docs. The MCT row
/// was captured at 66b31c7, before MET and OLB left `immediate.rs`.
const GOLDEN: &[(&str, u64)] = &[
    ("ga_evolve", 0x8434022376F7E942),
    ("map_min_min", 0xC2880BD92665EB90),
    ("map_max_min", 0xC8B46EC54F59245B),
    ("map_sufferage", 0x739065C36D97C26E),
    ("stga_sim", 0xC45B7374EBB5F288),
    ("heuristic/Min-Min Secure", 0xBB850453367BE059),
    ("heuristic/Min-Min 0.5-Risky", 0x9961F85D65FB3C79),
    ("heuristic/Min-Min Risky", 0xD15E678A3173B2BA),
    ("heuristic/Sufferage Secure", 0x70DDC364620E3289),
    ("heuristic/Sufferage 0.5-Risky", 0x689EFBEBB5199316),
    ("heuristic/Sufferage Risky", 0x6F10272CA874FD16),
    ("heuristic/MCT Risky", 0xB42037D21E0C7FA2),
    ("fig5_slice", 0xDED51F53AD327B27),
    ("fig8_slice", 0x7268C1CEFBECEF1E),
    ("history_lookup", 0xB560AB6EE7BF278C),
    ("roulette", 0x6B568E337ECB06B7),
];

fn actual_digests() -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = vec![
        ("ga_evolve".into(), ga_evolve_digest()),
        ("map_min_min".into(), mapping_digest(map_min_min)),
        ("map_max_min".into(), mapping_digest(map_max_min)),
        ("map_sufferage".into(), mapping_digest(map_sufferage)),
        ("stga_sim".into(), stga_sim_digest()),
    ];
    for (name, d) in heuristics_sim_digests() {
        out.push((format!("heuristic/{name}"), d));
    }
    out.push(("fig5_slice".into(), fig5_slice_digest()));
    out.push(("fig8_slice".into(), fig8_slice_digest()));
    out.push(("history_lookup".into(), history_lookup_digest()));
    out.push(("roulette".into(), roulette_digest()));
    out
}

#[test]
fn hot_paths_reproduce_pre_refactor_goldens() {
    let actual = actual_digests();
    assert_eq!(actual.len(), GOLDEN.len(), "golden table out of sync");
    let mut mismatches = Vec::new();
    for ((name, got), &(want_name, want)) in actual.iter().zip(GOLDEN) {
        assert_eq!(name, want_name, "golden table order out of sync");
        if *got != want {
            mismatches.push(format!("    (\"{name}\", 0x{got:016X}),"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "digest mismatch — if deliberate, re-capture with:\n{}",
        actual
            .iter()
            .map(|(n, d)| format!("    (\"{n}\", 0x{d:016X}),"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

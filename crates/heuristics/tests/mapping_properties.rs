//! Property tests for the low-level mapping algorithms over arbitrary
//! (including inconsistent) ETC matrices, with the textbook loops of
//! [`textbook`] as the referee.

mod nas;
mod textbook;

use gridsec_core::etc::{EtcMatrix, NodeAvailability};
use gridsec_core::{BatchSchedule, JobId, SiteId, Time};
use gridsec_heuristics::common::MapCtx;
use gridsec_heuristics::mapping::{map_max_min, map_min_min, map_sufferage, mapping_makespan};
use nas::{nas_avail, nas_round, Arrivals};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

type MapFn = fn(&MapCtx, &mut [NodeAvailability]) -> Vec<(usize, usize)>;

/// Each shipped mapper beside its textbook referee.
const PAIRS: [(MapFn, MapFn); 3] = [
    (map_min_min, textbook::map_min_min),
    (map_max_min, textbook::map_max_min),
    (map_sufferage, textbook::map_sufferage),
];

/// Idle instance: n jobs × m single-node sites with arbitrary finite
/// execution times, width-1 jobs, full candidate lists — the shape the
/// makespan bounds and the greedy invariant below are stated for.
fn arb_idle_instance() -> impl Strategy<Value = (MapCtx, Vec<NodeAvailability>)> {
    (1usize..12, 1usize..6).prop_flat_map(|(n, m)| {
        prop::collection::vec(1.0f64..1_000.0, n * m).prop_map(move |data| {
            let ctx = MapCtx {
                etc: EtcMatrix::from_raw(n, m, data),
                widths: vec![1; n],
                arrivals: vec![Time::ZERO; n],
                candidates: vec![(0..m).collect(); n],
                now: Time::ZERO,
                commit_order: vec![],
            };
            let avail = vec![NodeAvailability::new(1, Time::ZERO); m];
            (ctx, avail)
        })
    })
}

/// General instance: multi-node sites (1..=16 nodes) that are already
/// loaded, job widths up to the widest site, arrivals on both sides of
/// `now`, non-finite ETC cells, and candidate lists that are either full
/// and ascending or partial / shuffled / duplicated (and may name sites
/// the job does not fit). `quantised` draws every time from a handful of
/// small integers so that completion times, best/second-best and
/// selection keys tie constantly. Every job keeps one feasible candidate.
fn arb_instance() -> impl Strategy<Value = (MapCtx, Vec<NodeAvailability>)> {
    (
        1usize..=24,
        1usize..=6,
        any::<bool>(),
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(|(n, m, quantised, full_lists, seed)| {
            let rng = &mut ChaCha8Rng::seed_from_u64(seed);
            let time = |rng: &mut ChaCha8Rng, hi: f64| {
                if quantised {
                    f64::from(rng.gen_range(0u32..=4))
                } else {
                    rng.gen_range(0.0..hi)
                }
            };
            let nodes: Vec<usize> = (0..m).map(|_| rng.gen_range(1..=16)).collect();
            let widest = (0..m).max_by_key(|&s| nodes[s]).expect("m >= 1");
            let avail = nodes
                .iter()
                .map(|&k| {
                    NodeAvailability::from_times(
                        (0..k).map(|_| Time::new(time(rng, 500.0))).collect(),
                    )
                })
                .collect();
            let now = Time::new(time(rng, 200.0));
            let mut etc = Vec::with_capacity(n * m);
            let mut widths = Vec::with_capacity(n);
            let mut arrivals = Vec::with_capacity(n);
            let mut candidates = Vec::with_capacity(n);
            for _ in 0..n {
                for s in 0..m {
                    etc.push(if s != widest && rng.gen_bool(0.125) {
                        f64::INFINITY
                    } else {
                        // Mostly positive; a zero or negative time makes a
                        // commit move availability *backwards*.
                        time(rng, 1_000.0) - 1.0
                    });
                }
                widths.push(rng.gen_range(1..=nodes[widest]) as u32);
                arrivals.push(Time::new(time(rng, 400.0)));
                let mut list: Vec<usize> = if full_lists {
                    (0..m).collect()
                } else {
                    let len = rng.gen_range(1..=m + 2);
                    (0..len).map(|_| rng.gen_range(0..m)).collect()
                };
                if !list.contains(&widest) {
                    let at = rng.gen_range(0..=list.len());
                    list.insert(at, widest);
                }
                candidates.push(list);
            }
            let ctx = MapCtx {
                etc: EtcMatrix::from_raw(n, m, etc),
                widths,
                arrivals,
                candidates,
                now,
                commit_order: vec![],
            };
            (ctx, avail)
        })
}

/// Four rounds of [`nas::JOBS`] jobs per mapper, availability carried
/// over so rounds 1..4 map onto a loaded grid: shipped ≡ textbook.
fn nas_four_rounds_match_textbook(arrivals: Arrivals) {
    for (optimized, referee) in PAIRS {
        let rng = &mut ChaCha8Rng::seed_from_u64(2005);
        let mut a1 = nas_avail();
        let mut a2 = a1.clone();
        for round in 0..4 {
            let ctx = nas_round(rng, round, arrivals);
            let got = optimized(&ctx, &mut a1);
            let want = referee(&ctx, &mut a2);
            assert_eq!(got, want, "{arrivals:?} round {round}");
            assert_eq!(a1, a2, "{arrivals:?} round {round}");
        }
    }
}

#[test]
fn nas_b1024_four_rounds_match_textbook() {
    nas_four_rounds_match_textbook(Arrivals::Trace);
}

/// The rounds the daemon runs: every arrival at or before `now`, so
/// every job's floor is `now` and the load of the round before delays
/// them all. The shipped loops take their rescan path 1.3–1.7·10⁵ times
/// a round here (`map_span.rs` asserts more than 10⁴).
#[test]
fn nas_b1024_daemon_rounds_match_textbook() {
    nas_four_rounds_match_textbook(Arrivals::Daemon);
}

#[test]
fn infinite_completion_time_is_a_second_best_but_an_unusable_cell_is_not() {
    // Job 0 cannot use site 1 at all (non-finite ETC): one candidate,
    // sufferage 0. Job 1 can, but the site never frees up (CT = +∞):
    // an infinite sufferage, so it goes first. Were the unusable cell
    // a +∞ sentinel, the two would tie and job 0 would go first.
    let etc = EtcMatrix::from_raw(2, 2, vec![5.0, f64::INFINITY, 1.0, 1.0]);
    let ctx = MapCtx {
        etc,
        widths: vec![1, 1],
        arrivals: vec![Time::ZERO; 2],
        candidates: vec![vec![0, 1]; 2],
        now: Time::ZERO,
        commit_order: vec![],
    };
    let mut avail = vec![
        NodeAvailability::new(1, Time::ZERO),
        NodeAvailability::new(1, Time::INFINITY),
    ];
    assert_eq!(map_sufferage(&ctx, &mut avail), vec![(1, 0), (0, 0)]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn optimized_loops_match_textbook_reference((ctx, avail) in arb_instance()) {
        // The shipped loops must reproduce the textbook O(n²·m) loops
        // exactly — mapping order, sites and final availability state.
        for (optimized, referee) in PAIRS {
            let mut a1 = avail.clone();
            let mut a2 = avail.clone();
            let got = optimized(&ctx, &mut a1);
            let want = referee(&ctx, &mut a2);
            prop_assert_eq!(got, want);
            prop_assert_eq!(a1, a2);
        }
    }

    #[test]
    fn mappings_are_permutations((ctx, avail) in arb_instance()) {
        for f in [map_min_min, map_max_min, map_sufferage] {
            let mut a = avail.clone();
            let mapping = f(&ctx, &mut a);
            let mut jobs: Vec<usize> = mapping.iter().map(|&(j, _)| j).collect();
            jobs.sort_unstable();
            prop_assert_eq!(jobs, (0..ctx.n_jobs()).collect::<Vec<_>>());
            for &(_, s) in &mapping {
                prop_assert!(s < ctx.etc.n_sites());
            }
        }
    }

    #[test]
    fn makespan_at_least_best_single_exec((ctx, avail) in arb_idle_instance()) {
        // Any schedule's makespan is ≥ the largest per-job minimum exec.
        let lb = (0..ctx.n_jobs())
            .map(|j| {
                ctx.etc
                    .row(j)
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min)
            })
            .fold(0.0f64, f64::max);
        for f in [map_min_min, map_max_min, map_sufferage] {
            let mut a = avail.clone();
            let mapping = f(&ctx, &mut a);
            let ms = mapping_makespan(&ctx, avail.clone(), &mapping);
            prop_assert!(ms.seconds() >= lb - 1e-9);
        }
    }

    #[test]
    fn makespan_at_most_serial_sum((ctx, avail) in arb_idle_instance()) {
        // Upper bound: running every job serially at its *worst* time.
        let ub: f64 = (0..ctx.n_jobs())
            .map(|j| {
                ctx.etc
                    .row(j)
                    .iter()
                    .copied()
                    .filter(|t| t.is_finite())
                    .fold(0.0f64, f64::max)
            })
            .sum();
        for f in [map_min_min, map_max_min, map_sufferage] {
            let mut a = avail.clone();
            let mapping = f(&ctx, &mut a);
            let ms = mapping_makespan(&ctx, avail.clone(), &mapping);
            prop_assert!(ms.seconds() <= ub + 1e-6);
        }
    }

    #[test]
    fn min_min_greedy_invariant((ctx, avail) in arb_idle_instance()) {
        // The first Min-Min pick has the globally smallest completion time
        // on an idle grid — i.e. the smallest ETC entry of the matrix.
        let mut a = avail.clone();
        let mapping = map_min_min(&ctx, &mut a);
        let (j0, s0) = mapping[0];
        let first_ct = ctx.etc.get(j0, s0);
        let global_min = ctx
            .etc
            .raw()
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        prop_assert!((first_ct - global_min).abs() < 1e-9);
    }

    #[test]
    fn restricted_candidates_are_honoured(
        (ctx, avail) in arb_idle_instance(),
        pick in any::<prop::sample::Index>(),
    ) {
        // Restrict one job to a single site; every mapping must comply —
        // and every *other* job must stay inside its candidate list.
        let mut ctx = ctx;
        let j = pick.index(ctx.n_jobs());
        let s = pick.index(ctx.etc.n_sites());
        ctx.candidates[j] = vec![s];
        for f in [map_min_min, map_max_min, map_sufferage] {
            let mut a = avail.clone();
            let mapping = f(&ctx, &mut a);
            let schedule = BatchSchedule::from_pairs(
                mapping.iter().map(|&(jj, ss)| (JobId(jj as u64), SiteId(ss))),
            );
            prop_assert_eq!(schedule.site_of(JobId(j as u64)), Some(SiteId(s)));
            for jj in 0..ctx.n_jobs() {
                let site = schedule.site_of(JobId(jj as u64)).unwrap();
                prop_assert!(ctx.candidates[jj].contains(&site.0));
            }
        }
    }
}

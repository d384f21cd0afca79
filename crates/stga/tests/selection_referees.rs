//! The evolve loop's selection and breeding rewrites pinned to the bodies
//! they replaced (kept in `referee/selection.rs`): the one-pass top-k
//! `elite_indices_into` ≡ stable sort + truncate; the `partition_point`
//! wheel spin ≡ the `binary_search_by` spin over the same RNG stream;
//! the wheel built from one pass's extremes ≡ the three-pass build;
//! `Sweep::run` ≡ copy-out + first-minimum best index + elites; the
//! incremental sweep (`begin` / `offer` / `finish`, as the evolve loop
//! offers each child) ≡ `Sweep::run` ≡ those referees; and children
//! written by `crossover_into` ≡ clones crossed in place. CI also runs
//! this in `--release`, where the evolve loop's copy of all of them
//! actually executes.

#[path = "referee/selection.rs"]
mod referee;

use gridsec_core::rng::{stream, Stream};
use gridsec_stga::ops::crossover_into;
use gridsec_stga::selection::{elite_indices_into, RouletteWheel, Sweep};
use proptest::prelude::*;
use rand::{Rng, RngCore};

/// Fitness values drawn with replacement from a small pool, so vectors
/// are full of ties, `±∞` entries and the `-0.0`/`0.0` pair `total_cmp`
/// tells apart.
const POOL: [f64; 9] = [
    0.0,
    -0.0,
    1.0,
    2.5,
    2.5,
    7.0,
    1e9,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

fn arb_tied_fitness() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0usize..POOL.len(), 0..40)
        .prop_map(|picks| picks.into_iter().map(|i| POOL[i]).collect())
}

/// Wheels of every kind `rebuild` distinguishes: ordinary spreads, spreads
/// with `+∞` (zero-weight) individuals, all-equal and all-infinite.
fn arb_wheel_fitness() -> impl Strategy<Value = Vec<f64>> {
    (
        prop::collection::vec((0.5f64..500.0, 0u32..4), 1..40),
        0u32..4,
    )
        .prop_map(|(draws, kind)| match kind {
            0 => draws.iter().map(|&(f, _)| f).collect(),
            1 => draws
                .iter()
                .map(|&(f, hole)| if hole == 0 { f64::INFINITY } else { f })
                .collect(),
            2 => vec![draws[0].0; draws.len()],
            _ => vec![f64::INFINITY; draws.len()],
        })
}

/// Wheel tables as bits, so `-0.0` and `0.0` entries count as different.
fn bits(table: &[f64]) -> Vec<u64> {
    table.iter().map(|f| f.to_bits()).collect()
}

/// The shipped wheel over `fitness` — built directly, and filled from a
/// sweep's extremes as the evolve loop does — against the three-pass
/// referee, bit for bit.
fn assert_wheel_matches(fitness: &[f64]) {
    let want = bits(&referee::rebuild(fitness));
    assert_eq!(
        bits(RouletteWheel::build(fitness).cumulative()),
        want,
        "{fitness:?}"
    );
    let (mut sweep, mut flat, mut wheel) = (Sweep::default(), Vec::new(), RouletteWheel::new());
    sweep.run(&mut flat, 2, fitness.iter().copied());
    wheel.fill(&flat, sweep.extremes());
    assert_eq!(bits(wheel.cumulative()), want, "{fitness:?}");
}

fn assert_elites_match(fitness: &[f64], k: usize) {
    let (mut new, mut old) = (Vec::new(), Vec::new());
    elite_indices_into(fitness, k, &mut new);
    referee::elite_indices_into(fitness, k, &mut old);
    assert_eq!(new, old, "fitness {fitness:?}, k = {k}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Top-k ≡ stable sort + truncate, including `k = 0` and `k ≥ len`.
    #[test]
    fn top_k_matches_stable_sort((fitness, k) in arb_tied_fitness().prop_flat_map(|f| {
        let k = 0..=f.len() + 3;
        (Just(f), k)
    })) {
        assert_elites_match(&fitness, k);
    }

    /// `partition_point` spin ≡ `binary_search_by` spin: same picks from
    /// the same ChaCha8 stream, and the same stream position afterwards.
    #[test]
    fn spin_matches_binary_search(fitness in arb_wheel_fitness(), seed in any::<u64>()) {
        let wheel = RouletteWheel::build(&fitness);
        let mut new_rng = stream(seed, Stream::Genetic);
        let mut old_rng = new_rng.clone();
        for _ in 0..64 {
            prop_assert_eq!(
                wheel.spin(&mut new_rng),
                referee::spin(wheel.cumulative(), &mut old_rng)
            );
        }
        prop_assert_eq!(new_rng.next_u64(), old_rng.next_u64());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One pass's extremes + the cumulative pass ≡ the three-pass build,
    /// over tied, `±∞`-holed and signed-zero vectors.
    #[test]
    fn one_pass_wheel_matches_three_pass_rebuild(fitness in arb_tied_fitness()) {
        prop_assume!(!fitness.is_empty());
        assert_wheel_matches(&fitness);
    }

    /// The same over ordinary spreads, all-equal and all-infinite wheels.
    #[test]
    fn one_pass_wheel_matches_three_pass_rebuild_on_spreads(fitness in arb_wheel_fitness()) {
        assert_wheel_matches(&fitness);
    }

    /// `Sweep::run` ≡ the harvest it replaced: the same fitness vector and
    /// path counts as `sync_fitness`, the first-minimum best, and the
    /// stable-sort elites.
    #[test]
    fn sweep_matches_copy_out_first_best_and_sorted_elites(
        (slots, k) in prop::collection::vec((0usize..POOL.len(), 0usize..4), 1..40)
            .prop_flat_map(|picks| {
                let k = 0..=picks.len() + 2;
                (Just(picks), k)
            })
    ) {
        let slots: Vec<(f64, usize)> = slots.into_iter().map(|(f, p)| (POOL[f], p)).collect();
        let (mut want_fitness, mut want_paths) = (Vec::new(), [0u64; 4]);
        referee::sync_fitness(&mut want_fitness, &mut want_paths, &slots);
        let mut want_elites = Vec::new();
        referee::elite_indices_into(&want_fitness, k, &mut want_elites);

        let (mut sweep, mut fitness, mut paths) = (Sweep::default(), vec![5.0; 3], [0u64; 4]);
        sweep.run(&mut fitness, k, slots.iter().map(|&(f, p)| {
            paths[p] += 1;
            f
        }));
        prop_assert_eq!(bits(&fitness), bits(&want_fitness));
        prop_assert_eq!(paths, want_paths);
        let (bi, bf) = sweep.best();
        let (wi, wf) = referee::best_index(&want_fitness);
        prop_assert_eq!((bi, bf.to_bits()), (wi, wf.to_bits()));
        prop_assert_eq!(sweep.elites(), &want_elites[..]);
    }

    /// Children written from their parents ≡ the splice built here,
    /// `a[..cut] ++ b[cut..]` and `b[..cut] ++ a[cut..]` with the cut drawn
    /// as `gen_range(1..n)` from a clone of the RNG: the same genes, the
    /// same cut, the same RNG position afterwards. Below two genes there
    /// is no cut, the children are copies and nothing is drawn.
    #[test]
    fn spliced_children_match_clones_crossed_in_place(
        (a, b) in (0usize..12).prop_flat_map(|n| (
            prop::collection::vec(0u16..4, n),
            prop::collection::vec(0u16..4, n),
        )),
        seed in any::<u64>(),
    ) {
        let mut new_rng = stream(seed, Stream::Genetic);
        let mut old_rng = new_rng.clone();
        // Arena rows holding stale genes.
        let (mut ca, mut cb) = (vec![9; a.len()], vec![9; a.len()]);
        let cut = crossover_into(&a, &b, &mut ca, &mut cb, &mut new_rng);
        let n = a.len();
        let want_cut = (n >= 2).then(|| old_rng.gen_range(1..n));
        let at = want_cut.unwrap_or(n);
        let splice = |x: &[u16], y: &[u16]| [&x[..at], &y[at..]].concat();
        prop_assert_eq!(cut, want_cut);
        prop_assert_eq!(ca, splice(&a, &b));
        prop_assert_eq!(cb, splice(&b, &a));
        prop_assert_eq!(new_rng.next_u64(), old_rng.next_u64());
    }
}

/// [`POOL`] plus both NaNs, which `total_cmp` puts past `±∞`.
const NAN_POOL: [f64; 11] = [
    0.0,
    -0.0,
    1.0,
    2.5,
    2.5,
    7.0,
    1e9,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    -f64::NAN,
];

fn arb_nan_fitness() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0usize..NAN_POOL.len(), 1..40)
        .prop_map(|picks| picks.into_iter().map(|i| NAN_POOL[i]).collect())
}

/// The finite extremes of `fitness`, folded directly.
fn finite_extremes(fitness: &[f64]) -> Option<(f64, f64)> {
    let finite: Vec<f64> = fitness.iter().copied().filter(|f| f.is_finite()).collect();
    let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (!finite.is_empty()).then_some((lo, hi))
}

/// Extremes as bits, so `-0.0` and `0.0` count as different.
fn extreme_bits(extremes: Option<(f64, f64)>) -> Option<(u64, u64)> {
    extremes.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The evolve loop's incremental sweep — one sweep reused pass after
    /// pass: `begin`, one `offer` per value in index order, `finish` —
    /// ≡ a fresh `Sweep::run` ≡ the referees: best, elites and extremes
    /// for k = 0..=3 over ties, `±∞` and both NaNs.
    #[test]
    fn incremental_sweep_matches_run_and_referees(
        passes in prop::collection::vec((arb_nan_fitness(), 0usize..=3), 1..4)
    ) {
        let (mut sweep, mut flat) = (Sweep::default(), vec![5.0; 3]);
        for (values, k) in passes {
            sweep.begin(&mut flat, k);
            for &f in &values {
                sweep.offer(&mut flat, f);
            }
            sweep.finish(&flat);

            let (mut run, mut run_flat) = (Sweep::default(), Vec::new());
            run.run(&mut run_flat, k, values.iter().copied());
            prop_assert_eq!(bits(&flat), bits(&run_flat));
            prop_assert_eq!(bits(&flat), bits(&values));
            let (bi, bf) = sweep.best();
            let (ri, rf) = run.best();
            let (wi, wf) = referee::best_index(&values);
            prop_assert_eq!((bi, bf.to_bits()), (ri, rf.to_bits()));
            prop_assert_eq!((bi, bf.to_bits()), (wi, wf.to_bits()));
            let mut want_elites = Vec::new();
            referee::elite_indices_into(&values, k, &mut want_elites);
            prop_assert_eq!(sweep.elites(), run.elites());
            prop_assert_eq!(sweep.elites(), &want_elites[..]);
            prop_assert_eq!(extreme_bits(sweep.extremes()), extreme_bits(run.extremes()));
            // Which zero `min`/`max` return from `-0.0` and `0.0` is not
            // specified, so the direct fold is compared by value.
            prop_assert_eq!(sweep.extremes(), finite_extremes(&values));
        }
    }
}

#[test]
fn one_pass_wheel_matches_three_pass_rebuild_on_degenerate_vectors() {
    for fitness in [
        vec![3.0],
        vec![-0.0],
        vec![0.0, -0.0, 0.0],
        vec![4.0; 9],
        vec![f64::INFINITY; 9],
        vec![f64::NEG_INFINITY, f64::INFINITY],
        vec![f64::NEG_INFINITY, 2.0, f64::INFINITY, 2.0],
        (0..9).rev().map(f64::from).collect(),
    ] {
        assert_wheel_matches(&fitness);
    }
}

#[test]
fn top_k_matches_stable_sort_on_degenerate_vectors() {
    for fitness in [
        vec![],
        vec![3.0],
        vec![4.0; 9],
        vec![f64::INFINITY; 9],
        (0..9).rev().map(f64::from).collect(),
    ] {
        for k in 0..=fitness.len() + 1 {
            assert_elites_match(&fitness, k);
        }
    }
}

/// An RNG that returns one fixed word, to land a draw where no random
/// stream would.
struct Fixed(u64);

impl RngCore for Fixed {
    fn next_u32(&mut self) -> u32 {
        self.0 as u32
    }
    fn next_u64(&mut self) -> u64 {
        self.0
    }
}

/// The `Ok(i) → i + 1` arm: a draw exactly on a cumulative entry belongs
/// to the *next* individual under both spins.
#[test]
fn a_draw_exactly_on_a_cumulative_entry_picks_the_next_slot() {
    // No finite individual → uniform wheel, cumulative table 1, 2, 3, 4.
    let wheel = RouletteWheel::build(&[f64::INFINITY; 4]);
    assert_eq!(wheel.cumulative(), [1.0, 2.0, 3.0, 4.0]);
    for (word, slot) in [(1u64 << 62, 1), (1 << 63, 2), (3 << 62, 3), (0, 0)] {
        // `gen::<f64>()` keeps the top 53 bits: word / 2^64 of the total.
        let x: f64 = Fixed(word).gen_range(0.0..4.0);
        assert_eq!(x, slot as f64, "the draw lands exactly on the entry");
        assert_eq!(wheel.spin(&mut Fixed(word)), slot);
        assert_eq!(referee::spin(wheel.cumulative(), &mut Fixed(word)), slot);
    }
}

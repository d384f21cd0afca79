//! The two selection rewrites pinned to the bodies they replaced (kept in
//! `referee/selection.rs`): the one-pass top-k `elite_indices_into` ≡
//! stable sort + truncate, and the `partition_point` wheel spin ≡ the
//! `binary_search_by` spin over the same RNG stream. CI also runs this in
//! `--release`, where the evolve loop's copy of both actually executes.

#[path = "referee/selection.rs"]
mod referee;

use gridsec_core::rng::{stream, Stream};
use gridsec_stga::selection::{elite_indices_into, RouletteWheel};
use proptest::prelude::*;
use rand::{Rng, RngCore};

/// Fitness values drawn with replacement from a small pool, so vectors
/// are full of ties, `+∞` entries and the `-0.0`/`0.0` pair `total_cmp`
/// tells apart.
const POOL: [f64; 8] = [0.0, -0.0, 1.0, 2.5, 2.5, 7.0, 1e9, f64::INFINITY];

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

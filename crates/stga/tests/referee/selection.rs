//! The referees of the evolve loop's selection fast paths — the slow
//! originals, kept word for word (`selection_referees.rs` pins the
//! shipped code to them):
//!
//! * [`elite_indices_into`]: stable-sort every index, keep the first `k`
//!   — what the shipped one-pass top-k (and `Sweep`'s elites) must
//!   return;
//! * [`spin`]: the `binary_search_by` wheel spin that the shipped
//!   `partition_point` replaced, over a wheel's cumulative table;
//! * [`rebuild`]: the three-pass wheel build (worst, best, cumulative)
//!   that `Sweep`'s extremes plus `RouletteWheel::fill` replaced;
//! * [`sync_fitness`] and [`best_index`]: the per-generation harvest the
//!   evolve loop ran before `Sweep::run` — copy the fitness values out
//!   and count paths (over `(fitness, path)` pairs here, the evolve
//!   loop's slots being private), then the first minimum under
//!   `total_cmp` for the best (once a parallel tree reduction with the
//!   same lowest-index tie-break).

use rand::Rng;

/// The pre-top-k elite selection. `out` is cleared first; after the call
/// it holds the `k` best indices in order.
pub fn elite_indices_into(fitness: &[f64], k: usize, out: &mut Vec<usize>) {
    out.clear();
    out.extend(0..fitness.len());
    // Stable sort: equal-fitness individuals keep index order, so elite
    // selection is deterministic and ties go to the lowest index.
    out.sort_by(|&a, &b| fitness[a].total_cmp(&fitness[b]));
    out.truncate(k);
}

/// The pre-`partition_point` spin over `cumulative`
/// (`RouletteWheel::cumulative`, whose last entry is the wheel's total).
///
/// The shipped spin can differ from this in one corner: when the draw
/// equals a cumulative entry that *repeats* (zero-weight individuals
/// follow it), `binary_search_by` may return any of the equal entries, so
/// the `Ok(i) → i + 1` arm can name a zero-weight neighbour, where
/// `partition_point` always steps past all of them.
pub fn spin<R: Rng + ?Sized>(cumulative: &[f64], rng: &mut R) -> usize {
    let total = *cumulative.last().expect("wheel is non-empty");
    let x = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
    match cumulative.binary_search_by(|c| c.partial_cmp(&x).expect("no NaN in wheel")) {
        Ok(i) => (i + 1).min(cumulative.len() - 1),
        Err(i) => i.min(cumulative.len() - 1),
    }
}

/// The pre-sweep wheel build over `fitness`: its cumulative table (whose
/// last entry is the wheel's total). Infinite fitness values get zero
/// weight; when all finite values are equal (or none are finite) the
/// wheel is uniform over the finite (or all) individuals.
pub fn rebuild(fitness: &[f64]) -> Vec<f64> {
    assert!(!fitness.is_empty(), "wheel needs at least one individual");
    let worst = fitness
        .iter()
        .copied()
        .filter(|f| f.is_finite())
        .fold(f64::NEG_INFINITY, f64::max);
    let mut cumulative = Vec::with_capacity(fitness.len());
    let mut total = 0.0;
    if !worst.is_finite() {
        // No finite individual: uniform.
        for _ in fitness {
            total += 1.0;
            cumulative.push(total);
        }
        return cumulative;
    }
    // Small floor so the worst finite individual keeps a sliver of
    // probability (pure (worst − f) would zero it out).
    let span = fitness
        .iter()
        .copied()
        .filter(|f| f.is_finite())
        .fold(f64::INFINITY, f64::min);
    let floor = ((worst - span).abs().max(worst.abs()) * 1e-6).max(f64::MIN_POSITIVE);
    for &f in fitness {
        let w = if f.is_finite() {
            (worst - f) + floor
        } else {
            0.0
        };
        total += w;
        cumulative.push(total);
    }
    if total <= 0.0 {
        // All-equal degenerate case: uniform over finite individuals.
        total = 0.0;
        cumulative.clear();
        for &f in fitness {
            total += if f.is_finite() { 1.0 } else { 0.0 };
            cumulative.push(total);
        }
    }
    cumulative
}

/// The pre-sweep harvest of one evaluation sweep, over `(fitness, path)`
/// pairs: mirrors the fitness values into `fitness` and counts each path.
pub fn sync_fitness(fitness: &mut Vec<f64>, paths: &mut [u64; 4], slots: &[(f64, usize)]) {
    fitness.clear();
    for &(f, path) in slots {
        fitness.push(f);
        paths[path] += 1;
    }
}

/// Index and value of the minimal fitness under `total_cmp`; `min_by`
/// keeps the first of equal minima, so the lowest index wins ties.
pub fn best_index(fitness: &[f64]) -> (usize, f64) {
    fitness
        .iter()
        .copied()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("population is non-empty")
}

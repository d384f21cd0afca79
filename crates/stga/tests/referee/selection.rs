//! The referees of `gridsec_stga::selection`'s fast paths — the slow
//! originals, kept word for word (`selection_referees.rs` pins the
//! shipped code to them):
//!
//! * [`elite_indices_into`]: stable-sort every index, keep the first `k`
//!   — what the shipped one-pass top-k must return;
//! * [`spin`]: the `binary_search_by` wheel spin that the shipped
//!   `partition_point` replaced, over a wheel's cumulative table.

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

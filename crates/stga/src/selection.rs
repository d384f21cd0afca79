//! Selection: value-based roulette wheel with elitism (§3).
//!
//! The scheduling fitness is a *cost* (makespan — smaller is better), so
//! the wheel weights each individual by `(worst − fitness)`: the best
//! solution gets the largest slice, the worst gets (almost) none. Elitism
//! copies the best `k` individuals unchanged into the next generation.

use rand::Rng;

/// Indices of the `k` best (lowest-fitness) individuals, in order.
pub fn elite_indices(fitness: &[f64], k: usize) -> Vec<usize> {
    let mut idx = Vec::new();
    elite_indices_into(fitness, k, &mut idx);
    idx
}

/// [`elite_indices`] into a caller-owned scratch buffer, reusing its
/// allocation. `out` is cleared first; after the call it holds the `k`
/// best indices in order.
///
/// One pass keeping the `k` best seen so far in order — the evolve loop
/// keeps 2 of 200 every generation, which a full sort overpays for. An
/// individual enters only if strictly better than the current `k`-th and
/// lands behind its equals, so ties go to the lowest index: exactly the
/// prefix a stable sort of all indices would leave.
pub fn elite_indices_into(fitness: &[f64], k: usize, out: &mut Vec<usize>) {
    out.clear();
    for i in 0..fitness.len() {
        offer_elite(fitness, k, i, out);
    }
}

/// One step of [`elite_indices_into`]: offers individual `i` to `out`,
/// the `k` best of `fitness[..i]` in order.
#[inline]
fn offer_elite(fitness: &[f64], k: usize, i: usize, out: &mut Vec<usize>) {
    if k == 0 {
        return;
    }
    let f = &fitness[i];
    if out.len() == k {
        if f.total_cmp(&fitness[out[k - 1]]).is_ge() {
            return;
        }
        out.pop();
    }
    let at = out.partition_point(|&e| fitness[e].total_cmp(f).is_le());
    out.insert(at, i);
}

/// The `(lowest, highest)` finite value of nothing yet.
const NO_EXTREMES: (f64, f64) = (f64::INFINITY, f64::NEG_INFINITY);

/// `extremes` widened to cover `f` when it is finite.
#[inline]
fn widen((lo, hi): (f64, f64), f: f64) -> (f64, f64) {
    if f.is_finite() {
        (lo.min(f), hi.max(f))
    } else {
        (lo, hi)
    }
}

/// `extremes`, or `None` when they cover no finite value.
fn finite(extremes: (f64, f64)) -> Option<(f64, f64)> {
    extremes.1.is_finite().then_some(extremes)
}

/// What the next generation's breeding needs from this one's fitness
/// values, gathered in one sequential pass: the best individual, the `k`
/// elites and the finite extremes that weight the [`RouletteWheel`].
///
/// The pass is incremental — [`Sweep::begin`], one [`Sweep::offer`] per
/// individual in index order, [`Sweep::finish`] — so the evolve loop
/// offers each child the moment it is evaluated; [`Sweep::run`] is the
/// same three calls over an iterator.
#[derive(Debug, Clone)]
pub struct Sweep {
    best: Option<(usize, f64)>,
    elites: Vec<usize>,
    extremes: (f64, f64),
    /// Elites asked for (`k`) and held while sweeping (`keep`: at least
    /// one, since the best individual is the first elite).
    k: usize,
    keep: usize,
    /// Once `keep` elites are held, only a value below the last one's can
    /// enter — the common case tested against this copy of it.
    bar: f64,
}

impl Default for Sweep {
    fn default() -> Self {
        Sweep {
            best: None,
            elites: Vec::new(),
            extremes: NO_EXTREMES,
            k: 0,
            keep: 1,
            bar: f64::NAN,
        }
    }
}

impl Sweep {
    /// Refills `fitness` from `values` and sweeps it, keeping `k` elites;
    /// the elite buffer and `fitness` keep their allocations.
    pub fn run(&mut self, fitness: &mut Vec<f64>, k: usize, values: impl IntoIterator<Item = f64>) {
        self.begin(fitness, k);
        for f in values {
            self.offer(fitness, f);
        }
        self.finish(fitness);
    }

    /// Starts a pass keeping `k` elites: empties `fitness` and the elite
    /// buffer, keeping their allocations.
    pub fn begin(&mut self, fitness: &mut Vec<f64>, k: usize) {
        fitness.clear();
        self.elites.clear();
        self.k = k;
        self.keep = k.max(1);
        self.bar = f64::NAN;
        self.extremes = NO_EXTREMES;
    }

    /// Appends the next individual's fitness `f` to `fitness` and sweeps
    /// it. `fitness` must be the vector handed to [`Sweep::begin`], grown
    /// only by this call.
    #[inline]
    pub fn offer(&mut self, fitness: &mut Vec<f64>, f: f64) {
        let i = fitness.len();
        fitness.push(f);
        if self.elites.len() < self.keep || f.total_cmp(&self.bar).is_lt() {
            offer_elite(fitness, self.keep, i, &mut self.elites);
            if self.elites.len() == self.keep {
                self.bar = fitness[self.elites[self.keep - 1]];
            }
        }
        self.extremes = widen(self.extremes, f);
    }

    /// Ends the pass over `fitness`, the vector [`Sweep::offer`] filled.
    pub fn finish(&mut self, fitness: &[f64]) {
        self.best = self.elites.first().map(|&i| (i, fitness[i]));
        self.elites.truncate(self.k);
    }

    /// Index and value of the minimal fitness under `total_cmp` (the
    /// lowest index wins ties).
    ///
    /// # Panics
    /// Panics if the last finished pass saw no value.
    pub fn best(&self) -> (usize, f64) {
        self.best.expect("population is non-empty")
    }

    /// The `k` best indices in order — [`elite_indices_into`]'s result.
    pub fn elites(&self) -> &[usize] {
        &self.elites
    }

    /// The lowest and highest finite fitness, or `None` when no value is
    /// finite.
    pub fn extremes(&self) -> Option<(f64, f64)> {
        finite(self.extremes)
    }
}

/// A pre-built roulette wheel over minimisation fitness values.
#[derive(Debug, Clone)]
pub struct RouletteWheel {
    cumulative: Vec<f64>,
    total: f64,
}

impl Default for RouletteWheel {
    fn default() -> Self {
        Self::new()
    }
}

impl RouletteWheel {
    /// An empty wheel to be filled by [`RouletteWheel::rebuild`] — lets
    /// the evolve loop own one cumulative table for its whole run instead
    /// of allocating a fresh one per generation.
    pub fn new() -> RouletteWheel {
        RouletteWheel {
            cumulative: Vec::new(),
            total: 0.0,
        }
    }

    /// Builds the wheel. Infinite fitness values get zero weight. When all
    /// finite values are equal (or none are finite) the wheel degenerates
    /// to uniform over the finite (or all) individuals.
    pub fn build(fitness: &[f64]) -> RouletteWheel {
        let mut wheel = RouletteWheel::new();
        wheel.rebuild(fitness);
        wheel
    }

    /// Rebuilds the wheel in place over new fitness values, reusing the
    /// cumulative table's allocation. Semantics are exactly those of
    /// [`RouletteWheel::build`].
    pub fn rebuild(&mut self, fitness: &[f64]) {
        let extremes = fitness.iter().fold(NO_EXTREMES, |e, &f| widen(e, f));
        self.fill(fitness, finite(extremes));
    }

    /// The cumulative pass of [`RouletteWheel::rebuild`], given the
    /// finite extremes of `fitness` ([`Sweep::extremes`]) — the evolve
    /// loop has them from its sweep.
    pub fn fill(&mut self, fitness: &[f64], extremes: Option<(f64, f64)>) {
        assert!(!fitness.is_empty(), "wheel needs at least one individual");
        self.cumulative.clear();
        self.total = 0.0;
        let Some((best, worst)) = extremes else {
            // No finite individual: uniform.
            for _ in fitness {
                self.total += 1.0;
                self.cumulative.push(self.total);
            }
            return;
        };
        // Small floor so the worst finite individual keeps a sliver of
        // probability (pure (worst − f) would zero it out).
        let floor = ((worst - best).abs().max(worst.abs()) * 1e-6).max(f64::MIN_POSITIVE);
        for &f in fitness {
            let w = if f.is_finite() {
                (worst - f) + floor
            } else {
                0.0
            };
            self.total += w;
            self.cumulative.push(self.total);
        }
        if self.total <= 0.0 {
            // All-equal degenerate case: uniform over finite individuals.
            self.total = 0.0;
            self.cumulative.clear();
            for &f in fitness {
                self.total += if f.is_finite() { 1.0 } else { 0.0 };
                self.cumulative.push(self.total);
            }
        }
    }

    /// Spins the wheel, returning an individual index: the first slot
    /// whose cumulative weight exceeds the draw.
    pub fn spin<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let x = rng.gen_range(0.0..self.total.max(f64::MIN_POSITIVE));
        self.cumulative
            .partition_point(|c| *c <= x)
            .min(self.cumulative.len() - 1)
    }

    /// The cumulative weight table the wheel spins over (its last entry
    /// is the total) — read by the spin referee in `tests/referee/`.
    pub fn cumulative(&self) -> &[f64] {
        &self.cumulative
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_core::rng::{stream, Stream};

    #[test]
    fn elite_returns_best_indices() {
        let fit = vec![5.0, 1.0, 3.0, 0.5];
        assert_eq!(elite_indices(&fit, 2), vec![3, 1]);
        assert_eq!(elite_indices(&fit, 0), Vec::<usize>::new());
        assert_eq!(elite_indices(&fit, 10), vec![3, 1, 2, 0]);
    }

    #[test]
    fn wheel_prefers_low_fitness() {
        let fit = vec![10.0, 100.0]; // index 0 is much better
        let wheel = RouletteWheel::build(&fit);
        let mut rng = stream(1, Stream::Genetic);
        let mut count0 = 0;
        for _ in 0..10_000 {
            if wheel.spin(&mut rng) == 0 {
                count0 += 1;
            }
        }
        // Weight ratio ≈ 90 : ~0 → index 0 should win almost always.
        assert!(count0 > 9_500, "count0 = {count0}");
    }

    #[test]
    fn wheel_uniform_when_all_equal() {
        let fit = vec![7.0; 4];
        let wheel = RouletteWheel::build(&fit);
        let mut rng = stream(2, Stream::Genetic);
        let mut counts = [0usize; 4];
        for _ in 0..8_000 {
            counts[wheel.spin(&mut rng)] += 1;
        }
        for c in counts {
            assert!(c > 1_500, "counts {counts:?}");
        }
    }

    #[test]
    fn wheel_excludes_infinite_individuals() {
        let fit = vec![f64::INFINITY, 5.0, f64::INFINITY, 6.0];
        let wheel = RouletteWheel::build(&fit);
        let mut rng = stream(3, Stream::Genetic);
        for _ in 0..2_000 {
            let i = wheel.spin(&mut rng);
            assert!(i == 1 || i == 3, "picked infeasible {i}");
        }
    }

    #[test]
    fn rebuild_matches_build_and_reuses_allocation() {
        let fits: [&[f64]; 4] = [
            &[4.0, 2.0, 9.0],
            &[7.0; 4],
            &[f64::INFINITY, 5.0, f64::INFINITY, 6.0],
            &[f64::INFINITY; 3],
        ];
        let mut wheel = RouletteWheel::new();
        wheel.rebuild(&[1.0; 8]); // warm the allocation past every case
        let cap = wheel.cumulative.capacity();
        for fit in fits {
            wheel.rebuild(fit);
            let fresh = RouletteWheel::build(fit);
            assert_eq!(wheel.cumulative, fresh.cumulative);
            assert_eq!(wheel.total, fresh.total);
            assert_eq!(wheel.cumulative.capacity(), cap, "table re-allocated");
        }
    }

    #[test]
    fn elite_indices_into_reuses_buffer() {
        let fit = vec![5.0, 1.0, 3.0, 0.5];
        let mut out = Vec::with_capacity(8);
        let cap = out.capacity();
        elite_indices_into(&fit, 2, &mut out);
        assert_eq!(out, vec![3, 1]);
        elite_indices_into(&fit, 10, &mut out);
        assert_eq!(out, vec![3, 1, 2, 0]);
        assert_eq!(out.capacity(), cap);
        // Equal fitness: stable order, lowest indices first.
        elite_indices_into(&[2.0; 5], 3, &mut out);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn wheel_handles_all_infinite() {
        let fit = vec![f64::INFINITY; 3];
        let wheel = RouletteWheel::build(&fit);
        let mut rng = stream(4, Stream::Genetic);
        let i = wheel.spin(&mut rng);
        assert!(i < 3);
    }
}

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

/// [`elite_indices`] into a caller-owned scratch buffer — the evolve loop
/// calls this once per generation without re-allocating. `out` is
/// cleared first; after the call it holds the `k` best indices in order.
///
/// One pass keeping the `k` best seen so far in order — the evolve loop
/// keeps 2 of 200 every generation, which a full sort overpays for. An
/// individual enters only if strictly better than the current `k`-th and
/// lands behind its equals, so ties go to the lowest index: exactly the
/// prefix a stable sort of all indices would leave.
pub fn elite_indices_into(fitness: &[f64], k: usize, out: &mut Vec<usize>) {
    out.clear();
    if k == 0 {
        return;
    }
    for (i, f) in fitness.iter().enumerate() {
        if out.len() == k {
            if f.total_cmp(&fitness[out[k - 1]]).is_ge() {
                continue;
            }
            out.pop();
        }
        let at = out.partition_point(|&e| fitness[e].total_cmp(f).is_le());
        out.insert(at, i);
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
        assert!(!fitness.is_empty(), "wheel needs at least one individual");
        let worst = fitness
            .iter()
            .copied()
            .filter(|f| f.is_finite())
            .fold(f64::NEG_INFINITY, f64::max);
        self.cumulative.clear();
        self.cumulative.reserve(fitness.len());
        self.total = 0.0;
        if !worst.is_finite() {
            // No finite individual: uniform.
            for _ in fitness {
                self.total += 1.0;
                self.cumulative.push(self.total);
            }
            return;
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

//! Chromosome encoding (paper Fig. 4).
//!
//! A chromosome is an array indexed by *batch position*; the element is
//! the site assigned to that job. Genes are always drawn from the job's
//! candidate-site list (the security-driven filter), so every chromosome
//! in a population is feasible by construction; [`Chromosome::repair`]
//! restores feasibility after history adaptation.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A job→site assignment vector (gene `i` = site index of batch job `i`).
#[derive(Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Chromosome {
    genes: Vec<u16>,
}

// Manual Clone so `clone_from` reuses the destination's gene allocation —
// the GA's elite splice clones into recycled population slots every
// generation (derived Clone would always allocate afresh).
impl Clone for Chromosome {
    fn clone(&self) -> Self {
        Chromosome {
            genes: self.genes.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.genes.clone_from(&source.genes);
    }
}

impl Chromosome {
    /// Wraps a raw gene vector.
    pub fn from_genes(genes: Vec<u16>) -> Self {
        Chromosome { genes }
    }

    /// A uniformly random feasible chromosome: each gene sampled from that
    /// job's candidate list.
    ///
    /// # Panics
    /// Panics if any candidate list is empty (engine-validated batches
    /// always have candidates).
    pub fn random<R: Rng + ?Sized>(candidates: &[Vec<usize>], rng: &mut R) -> Self {
        let mut c = Chromosome { genes: Vec::new() };
        c.randomize_from(candidates, rng);
        c
    }

    /// Re-randomizes this chromosome in place, reusing its gene
    /// allocation — the population pool's replacement for
    /// [`Chromosome::random`] when refilling recycled slots. Consumes the
    /// exact same RNG sequence (one `gen_range` per gene, in order), so a
    /// pooled evolve run is bit-identical to a cold one.
    ///
    /// # Panics
    /// Panics if any candidate list is empty.
    pub fn randomize_from<R: Rng + ?Sized>(&mut self, candidates: &[Vec<usize>], rng: &mut R) {
        self.genes.clear();
        self.genes.extend(candidates.iter().map(|c| {
            assert!(!c.is_empty(), "every job needs at least one candidate");
            c[rng.gen_range(0..c.len())] as u16
        }));
    }

    /// Number of genes (batch size).
    pub fn len(&self) -> usize {
        self.genes.len()
    }

    /// Whether the chromosome is empty.
    pub fn is_empty(&self) -> bool {
        self.genes.is_empty()
    }

    /// The site index for batch job `i`.
    #[inline]
    pub fn site_of(&self, i: usize) -> usize {
        self.genes[i] as usize
    }

    /// Immutable gene view.
    pub fn genes(&self) -> &[u16] {
        &self.genes
    }

    /// Mutable gene view (used by the genetic operators).
    pub(crate) fn genes_mut(&mut self) -> &mut [u16] {
        &mut self.genes
    }

    /// Overwrites this chromosome with `head[..cut] ++ tail[cut..]`,
    /// reusing its gene allocation — a crossover child written straight
    /// from its parents.
    ///
    /// # Panics
    /// Panics if `cut` exceeds either parent's length.
    pub(crate) fn splice(&mut self, head: &Chromosome, tail: &Chromosome, cut: usize) {
        self.genes.clear();
        self.genes.extend_from_slice(&head.genes[..cut]);
        self.genes.extend_from_slice(&tail.genes[cut..]);
    }

    /// Adapts this chromosome to a (possibly different-sized) batch:
    /// truncates extra genes, extends missing ones randomly, and replaces
    /// any gene that is not in the job's candidate list with a random
    /// candidate. This is how history entries from earlier batches seed
    /// the current population.
    pub fn repair<R: Rng + ?Sized>(&self, candidates: &[Vec<usize>], rng: &mut R) -> Chromosome {
        let genes = candidates
            .iter()
            .enumerate()
            .map(|(i, c)| {
                assert!(!c.is_empty(), "every job needs at least one candidate");
                match self.genes.get(i) {
                    Some(&g) if c.contains(&(g as usize)) => g,
                    _ => c[rng.gen_range(0..c.len())] as u16,
                }
            })
            .collect();
        Chromosome { genes }
    }

    /// Whether every gene is drawn from its candidate list.
    pub fn is_feasible(&self, candidates: &[Vec<usize>]) -> bool {
        self.genes.len() == candidates.len()
            && self
                .genes
                .iter()
                .zip(candidates)
                .all(|(&g, c)| c.contains(&(g as usize)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_core::rng::{stream, Stream};

    fn cands() -> Vec<Vec<usize>> {
        vec![vec![0, 1, 2], vec![1], vec![0, 2]]
    }

    #[test]
    fn random_is_feasible() {
        let mut rng = stream(1, Stream::Genetic);
        for _ in 0..100 {
            let c = Chromosome::random(&cands(), &mut rng);
            assert!(c.is_feasible(&cands()));
            assert_eq!(c.site_of(1), 1); // only candidate
        }
    }

    #[test]
    fn repair_fixes_infeasible_genes() {
        let mut rng = stream(2, Stream::Genetic);
        let bad = Chromosome::from_genes(vec![7, 0, 1]);
        let fixed = bad.repair(&cands(), &mut rng);
        assert!(fixed.is_feasible(&cands()));
    }

    #[test]
    fn repair_adapts_length() {
        let mut rng = stream(3, Stream::Genetic);
        // Too short: extended.
        let short = Chromosome::from_genes(vec![0]);
        let fixed = short.repair(&cands(), &mut rng);
        assert_eq!(fixed.len(), 3);
        assert!(fixed.is_feasible(&cands()));
        // Too long: truncated.
        let long = Chromosome::from_genes(vec![0, 1, 2, 1, 0]);
        let fixed = long.repair(&cands(), &mut rng);
        assert_eq!(fixed.len(), 3);
        assert!(fixed.is_feasible(&cands()));
    }

    #[test]
    fn repair_preserves_feasible_genes() {
        let mut rng = stream(4, Stream::Genetic);
        let ok = Chromosome::from_genes(vec![2, 1, 0]);
        let fixed = ok.repair(&cands(), &mut rng);
        assert_eq!(fixed, ok);
    }

    #[test]
    fn feasibility_checks_length() {
        let c = Chromosome::from_genes(vec![0, 1]);
        assert!(!c.is_feasible(&cands()));
    }
}

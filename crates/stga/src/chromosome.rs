//! Chromosome encoding (paper Fig. 4).
//!
//! A chromosome is an array indexed by *batch position*; the element is
//! the site assigned to that job. Genes are always drawn from the job's
//! candidate-site list (the security-driven filter), so every chromosome
//! in a population is feasible by construction; [`Chromosome::repair`]
//! restores feasibility after history adaptation.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Sites a gene can name: genes are `u16`, so sites `0..MAX_SITES`.
pub const MAX_SITES: usize = 1 << 16;

/// The gene naming `site`.
///
/// # Panics
/// Panics if `site` is not below [`MAX_SITES`] — a `u16` gene cannot
/// name it, and a wrapped one would name another site.
#[inline]
pub(crate) fn gene(site: usize) -> u16 {
    u16::try_from(site).unwrap_or_else(|_| {
        panic!("site {site} has no gene: a chromosome names at most {MAX_SITES} sites")
    })
}

/// Fills `genes` with a uniformly random feasible assignment: gene `i`
/// sampled from job `i`'s candidate list, one `gen_range` per gene in
/// order.
///
/// # Panics
/// Panics if any candidate list is empty (engine-validated batches
/// always have candidates).
pub(crate) fn randomize<R: Rng + ?Sized>(
    genes: &mut [u16],
    candidates: &[Vec<usize>],
    rng: &mut R,
) {
    for (g, c) in genes.iter_mut().zip(candidates) {
        assert!(!c.is_empty(), "every job needs at least one candidate");
        *g = gene(c[rng.gen_range(0..c.len())]);
    }
}

/// A job→site assignment vector (gene `i` = site index of batch job `i`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Chromosome {
    genes: Vec<u16>,
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
        let mut genes = vec![0; candidates.len()];
        randomize(&mut genes, candidates, rng);
        Chromosome { genes }
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
                    _ => gene(c[rng.gen_range(0..c.len())]),
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

//! Genetic operators (§3): single-point crossover and point mutation.

use crate::chromosome::{gene, Chromosome};
use rand::Rng;

/// Single-point crossover: swaps the tails of two chromosomes after a
/// random cut point (paper: "random swapping of two portions of two
/// arbitrarily selected chromosomes").
///
/// Both parents must have equal length ≥ 2; the cut is chosen in
/// `1..len`, so both children differ from their parents whenever the
/// tails differ.
pub fn crossover<R: Rng + ?Sized>(
    a: &Chromosome,
    b: &Chromosome,
    rng: &mut R,
) -> (Chromosome, Chromosome) {
    let mut ca = vec![0; a.len()];
    let mut cb = vec![0; b.len()];
    crossover_into(a.genes(), b.genes(), &mut ca, &mut cb, rng);
    (Chromosome::from_genes(ca), Chromosome::from_genes(cb))
}

/// [`crossover`] on two already-materialised children: swaps the tails of
/// `a` and `b` in place, allocation-free. RNG consumption is identical to
/// `crossover` (one cut draw when `len ≥ 2`, none otherwise).
pub fn crossover_in_place<R: Rng + ?Sized>(a: &mut Chromosome, b: &mut Chromosome, rng: &mut R) {
    let _ = crossover_in_place_tracked(a, b, rng);
}

/// [`crossover_in_place`] that also reports the cut point, or `None` when
/// the chromosomes are too short to cross. Both children differ from
/// their respective parents only at genes `cut..len` — the touched-gene
/// bound the GA's inherit rule compares. RNG consumption
/// is identical to the untracked form (which delegates here).
pub fn crossover_in_place_tracked<R: Rng + ?Sized>(
    a: &mut Chromosome,
    b: &mut Chromosome,
    rng: &mut R,
) -> Option<usize> {
    cross_tails(a.genes_mut(), b.genes_mut(), rng)
}

/// [`crossover_in_place_tracked`] into caller-owned rows: writes the two
/// children of genomes `a` and `b` into `ca` (`a[..cut] ++ b[cut..]`) and
/// `cb` (the other way round), and returns the cut. With fewer than two
/// genes the children are plain copies and nothing is drawn. The children
/// are written as copies of `a` and `b` crossed in place: two whole-row
/// copies, of one length all round, and one tail swap cost less than four
/// copies of random lengths.
///
/// # Panics
/// Panics unless all four slices have the same length.
pub fn crossover_into<R: Rng + ?Sized>(
    a: &[u16],
    b: &[u16],
    ca: &mut [u16],
    cb: &mut [u16],
    rng: &mut R,
) -> Option<usize> {
    ca.copy_from_slice(a);
    cb.copy_from_slice(b);
    cross_tails(ca, cb, rng)
}

/// Swaps the tails of genomes `a` and `b` after a cut drawn in `1..len`
/// and returns it; `None`, drawing nothing, when they are too short to
/// cross.
fn cross_tails<R: Rng + ?Sized>(a: &mut [u16], b: &mut [u16], rng: &mut R) -> Option<usize> {
    assert_eq!(a.len(), b.len(), "crossover needs equal-length parents");
    let n = a.len();
    if n < 2 {
        return None;
    }
    let cut = rng.gen_range(1..n);
    a[cut..].swap_with_slice(&mut b[cut..]);
    Some(cut)
}

/// Point mutation: re-draws the site of one random job from its candidate
/// list (paper: "randomly changing the site assignment of a randomly
/// selected job … to some other site").
///
/// When the job has more than one candidate the new gene is guaranteed to
/// differ from the old one.
pub fn mutate<R: Rng + ?Sized>(c: &mut Chromosome, candidates: &[Vec<usize>], rng: &mut R) {
    let _ = mutate_tracked(c.genes_mut(), candidates, rng);
}

/// [`mutate`] on a genome, reporting which gene changed (`None` when the
/// drawn job had at most one candidate and the genome was left
/// untouched) — the second half of the GA's touched-gene tracking. RNG
/// consumption is identical to the untracked form (which delegates here).
pub fn mutate_tracked<R: Rng + ?Sized>(
    genes: &mut [u16],
    candidates: &[Vec<usize>],
    rng: &mut R,
) -> Option<usize> {
    if genes.is_empty() {
        return None;
    }
    let j = rng.gen_range(0..genes.len());
    let cand = &candidates[j];
    if cand.len() <= 1 {
        return None;
    }
    let old = usize::from(genes[j]);
    let mut pick = cand[rng.gen_range(0..cand.len())];
    while pick == old {
        pick = cand[rng.gen_range(0..cand.len())];
    }
    genes[j] = gene(pick);
    Some(j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_core::rng::{stream, Stream};

    #[test]
    fn crossover_swaps_tails() {
        let mut rng = stream(1, Stream::Genetic);
        let a = Chromosome::from_genes(vec![0, 0, 0, 0, 0]);
        let b = Chromosome::from_genes(vec![1, 1, 1, 1, 1]);
        let (c, d) = crossover(&a, &b, &mut rng);
        // Each child is a prefix of one parent + suffix of the other.
        let cut = c.genes().iter().position(|&g| g == 1).unwrap();
        assert!((1..5).contains(&cut));
        assert!(c.genes()[..cut].iter().all(|&g| g == 0));
        assert!(c.genes()[cut..].iter().all(|&g| g == 1));
        assert!(d.genes()[..cut].iter().all(|&g| g == 1));
        assert!(d.genes()[cut..].iter().all(|&g| g == 0));
    }

    #[test]
    fn crossover_preserves_multiset_per_position() {
        let mut rng = stream(2, Stream::Genetic);
        let a = Chromosome::from_genes(vec![0, 1, 2, 3]);
        let b = Chromosome::from_genes(vec![4, 5, 6, 7]);
        let (c, d) = crossover(&a, &b, &mut rng);
        for i in 0..4 {
            let mut got = [c.genes()[i], d.genes()[i]];
            got.sort_unstable();
            let mut want = [a.genes()[i], b.genes()[i]];
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn in_place_crossover_matches_allocating_crossover() {
        for seed in 0..20 {
            let mut r1 = stream(seed, Stream::Genetic);
            let mut r2 = stream(seed, Stream::Genetic);
            let a = Chromosome::from_genes(vec![0, 1, 2, 3, 4, 5]);
            let b = Chromosome::from_genes(vec![9, 8, 7, 6, 5, 4]);
            let (ca, cb) = crossover(&a, &b, &mut r1);
            let mut da = a.clone();
            let mut db = b.clone();
            crossover_in_place(&mut da, &mut db, &mut r2);
            assert_eq!((da, db), (ca, cb), "seed {seed}");
            // Both paths consumed the same RNG state.
            assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
        }
    }

    #[test]
    fn crossover_of_singletons_is_identity() {
        let mut rng = stream(3, Stream::Genetic);
        let a = Chromosome::from_genes(vec![0]);
        let b = Chromosome::from_genes(vec![1]);
        let (c, d) = crossover(&a, &b, &mut rng);
        assert_eq!(c, a);
        assert_eq!(d, b);
    }

    #[test]
    fn mutation_changes_exactly_one_gene_when_possible() {
        let mut rng = stream(4, Stream::Genetic);
        let cands = vec![vec![0, 1, 2]; 6];
        for _ in 0..50 {
            let mut c = Chromosome::from_genes(vec![0; 6]);
            let before = c.clone();
            mutate(&mut c, &cands, &mut rng);
            let diff = c
                .genes()
                .iter()
                .zip(before.genes())
                .filter(|(x, y)| x != y)
                .count();
            assert_eq!(diff, 1);
            assert!(c.is_feasible(&cands));
        }
    }

    #[test]
    fn tracked_ops_report_exact_touched_genes() {
        for seed in 0..30 {
            let mut rng = stream(100 + seed, Stream::Genetic);
            let a0 = Chromosome::from_genes(vec![0, 1, 2, 3, 4, 5, 6, 7]);
            let b0 = Chromosome::from_genes(vec![7, 6, 5, 4, 3, 2, 1, 0]);
            let mut a = a0.clone();
            let mut b = b0.clone();
            let cut = crossover_in_place_tracked(&mut a, &mut b, &mut rng).unwrap();
            // Genes before the cut are untouched in both children.
            assert_eq!(a.genes()[..cut], a0.genes()[..cut]);
            assert_eq!(b.genes()[..cut], b0.genes()[..cut]);
            let cands = vec![vec![0usize, 1, 2, 3, 4, 5, 6, 7]; 8];
            let before = a.clone();
            let j = mutate_tracked(a.genes_mut(), &cands, &mut rng).unwrap();
            for (i, (x, y)) in a.genes().iter().zip(before.genes()).enumerate() {
                assert_eq!(i == j, x != y, "only the reported gene may change");
            }
        }
    }

    #[test]
    fn mutation_noop_with_single_candidate() {
        let mut rng = stream(5, Stream::Genetic);
        let cands = vec![vec![2]; 3];
        let mut c = Chromosome::from_genes(vec![2, 2, 2]);
        mutate(&mut c, &cands, &mut rng);
        assert_eq!(c.genes(), &[2, 2, 2]);
    }
}

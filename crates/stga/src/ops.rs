//! Genetic operators (§3): single-point crossover and point mutation.

use crate::chromosome::gene;
use rand::Rng;

/// Single-point crossover (paper: "random swapping of two portions of two
/// arbitrarily selected chromosomes") into caller-owned rows: writes the
/// two children of genomes `a` and `b` into `ca` (`a[..cut] ++ b[cut..]`)
/// and `cb` (the other way round), and returns the cut, drawn in `1..len`
/// so both children differ from their parents whenever the tails differ.
/// Both children differ from their parents only at genes `cut..len` — the
/// touched-gene bound the GA's inherit rule compares. With fewer than two
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

/// Point mutation (paper: "randomly changing the site assignment of a
/// randomly selected job … to some other site") on a genome: re-draws
/// the site of one random job from its candidate list and reports which
/// gene changed — the second half of the GA's touched-gene tracking. When
/// the job has more than one candidate the new gene is guaranteed to
/// differ from the old one; otherwise the genome is left untouched and
/// the result is `None`.
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
    use crate::chromosome::Chromosome;
    use gridsec_core::rng::{stream, Stream};

    /// The two children of `a` and `b`, with the cut.
    fn cross<R: Rng>(a: &[u16], b: &[u16], rng: &mut R) -> (Vec<u16>, Vec<u16>, Option<usize>) {
        let (mut ca, mut cb) = (vec![0; a.len()], vec![0; b.len()]);
        let cut = crossover_into(a, b, &mut ca, &mut cb, rng);
        (ca, cb, cut)
    }

    #[test]
    fn crossover_swaps_tails() {
        let mut rng = stream(1, Stream::Genetic);
        let (c, d, cut) = cross(&[0; 5], &[1; 5], &mut rng);
        // Each child is a prefix of one parent + suffix of the other.
        let cut = cut.unwrap();
        assert!((1..5).contains(&cut));
        assert_eq!(c.iter().position(|&g| g == 1), Some(cut));
        assert!(c[..cut].iter().all(|&g| g == 0));
        assert!(c[cut..].iter().all(|&g| g == 1));
        assert!(d[..cut].iter().all(|&g| g == 1));
        assert!(d[cut..].iter().all(|&g| g == 0));
    }

    #[test]
    fn crossover_preserves_multiset_per_position() {
        let mut rng = stream(2, Stream::Genetic);
        let (a, b) = ([0, 1, 2, 3], [4, 5, 6, 7]);
        let (c, d, _) = cross(&a, &b, &mut rng);
        for i in 0..4 {
            let mut got = [c[i], d[i]];
            got.sort_unstable();
            let mut want = [a[i], b[i]];
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    /// Children written over a reused row's stale genes ≡ children
    /// written into fresh rows, with the same RNG consumption.
    #[test]
    fn in_place_crossover_matches_allocating_crossover() {
        for seed in 0..20 {
            let mut r1 = stream(seed, Stream::Genetic);
            let mut r2 = stream(seed, Stream::Genetic);
            let a = [0, 1, 2, 3, 4, 5];
            let b = [9, 8, 7, 6, 5, 4];
            let fresh = cross(&a, &b, &mut r1);
            let (mut da, mut db) = ([3; 6], [7; 6]);
            let cut = crossover_into(&a, &b, &mut da, &mut db, &mut r2);
            assert_eq!((da.to_vec(), db.to_vec(), cut), fresh, "seed {seed}");
            // Both paths consumed the same RNG state.
            assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
        }
    }

    #[test]
    fn crossover_of_singletons_is_identity() {
        let mut rng = stream(3, Stream::Genetic);
        let mut untouched = rng.clone();
        assert_eq!(cross(&[0], &[1], &mut rng), (vec![0], vec![1], None));
        assert_eq!(rng.gen::<u64>(), untouched.gen::<u64>(), "nothing drawn");
    }

    #[test]
    fn mutation_changes_exactly_one_gene_when_possible() {
        let mut rng = stream(4, Stream::Genetic);
        let cands = vec![vec![0, 1, 2]; 6];
        for _ in 0..50 {
            let mut genes = vec![0; 6];
            assert!(mutate_tracked(&mut genes, &cands, &mut rng).is_some());
            assert_eq!(genes.iter().filter(|&&g| g != 0).count(), 1);
            assert!(Chromosome::from_genes(genes).is_feasible(&cands));
        }
    }

    #[test]
    fn tracked_ops_report_exact_touched_genes() {
        for seed in 0..30 {
            let mut rng = stream(100 + seed, Stream::Genetic);
            let a0 = [0, 1, 2, 3, 4, 5, 6, 7];
            let b0 = [7, 6, 5, 4, 3, 2, 1, 0];
            let (mut a, b, cut) = cross(&a0, &b0, &mut rng);
            let cut = cut.unwrap();
            // Genes before the cut are untouched in both children.
            assert_eq!(a[..cut], a0[..cut]);
            assert_eq!(b[..cut], b0[..cut]);
            let cands = vec![vec![0usize, 1, 2, 3, 4, 5, 6, 7]; 8];
            let before = a.clone();
            let j = mutate_tracked(&mut a, &cands, &mut rng).unwrap();
            for (i, (x, y)) in a.iter().zip(&before).enumerate() {
                assert_eq!(i == j, x != y, "only the reported gene may change");
            }
        }
    }

    #[test]
    fn mutation_noop_with_single_candidate() {
        let mut rng = stream(5, Stream::Genetic);
        let cands = vec![vec![2]; 3];
        let mut genes = [2, 2, 2];
        assert_eq!(mutate_tracked(&mut genes, &cands, &mut rng), None);
        assert_eq!(genes, [2, 2, 2]);
    }
}

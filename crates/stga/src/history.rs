//! The STGA history (lookup) table: evolution over *time* (§3).
//!
//! Each entry stores the three input parameters of a past scheduling round
//! — (1) next-available times of the sites, (2) the job-execution-time
//! (ETC) matrix, (3) the job security demands — plus the best chromosome
//! the GA found for that round. New batches are matched against entries by
//! the average of the per-parameter vector similarities (Eq. 2); entries
//! above the similarity threshold seed the initial population. The table
//! is bounded (Table 1: 150 entries) with LRU replacement.

use crate::chromosome::Chromosome;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Eq. 2 as printed: `1 − Σ|aᵢ−bᵢ| / max{max aᵢ, max bᵢ}`, clamped to
/// `[0, 1]`.
///
/// As printed the sum is not normalised by the vector length, so for long
/// vectors the similarity collapses to 0 unless the vectors are nearly
/// identical; [`similarity`] (the default used by the table) divides the
/// summed deviation by `k` (the mean absolute deviation), which keeps the
/// 0.8 threshold meaningful at realistic batch sizes. Both are exposed;
/// README.md, "Deviations from the paper", records the deviation.
pub fn eq2_similarity(a: &[f64], b: &[f64]) -> f64 {
    pairwise_similarity(a, b, false)
}

/// Length-normalised Eq. 2: `1 − (Σ|aᵢ−bᵢ|/k) / max{max aᵢ, max bᵢ}`.
pub fn similarity(a: &[f64], b: &[f64]) -> f64 {
    pairwise_similarity(a, b, true)
}

fn pairwise_similarity(a: &[f64], b: &[f64], normalise: bool) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let denom = a
        .iter()
        .chain(b.iter())
        .copied()
        .fold(0.0f64, |acc, x| acc.max(x.abs()));
    deviation_score(a, b, denom, normalise)
}

/// `max |x|` over `v` (0 when empty) — the per-vector half of
/// [`pairwise_similarity`]'s denominator. `max` is exact, so the larger
/// of two vectors' values is the fold over both, bit for bit.
fn max_abs(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |acc, x| acc.max(x.abs()))
}

/// [`similarity`] of `a` and `b` given their [`max_abs`] values: the
/// deviation pass alone.
fn similarity_with_max(a: &[f64], a_max: f64, b: &[f64], b_max: f64) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    deviation_score(a, b, a_max.max(b_max), true)
}

/// Eq. 2 for two non-empty vectors whose largest `|x|` is `denom`.
fn deviation_score(a: &[f64], b: &[f64], denom: f64, normalise: bool) -> f64 {
    if denom == 0.0 {
        return 1.0; // both all-zero
    }
    let k = a.len().min(b.len());
    let mut sum = 0.0;
    for i in 0..k {
        sum += (a[i] - b[i]).abs();
    }
    // Length mismatch beyond the common prefix counts as full deviation.
    let extra = (a.len().max(b.len()) - k) as f64 * denom;
    let dev = if normalise {
        (sum + extra) / a.len().max(b.len()) as f64
    } else {
        sum + extra
    };
    (1.0 - dev / denom).clamp(0.0, 1.0)
}

/// The signature of one scheduling round: the three Eq. 2 input vectors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchSignature {
    /// Per-site next-available (ready) times at the batch boundary,
    /// re-based so the earliest is 0 (batches at different absolute times
    /// with the same *relative* load should match).
    pub ready_times: Vec<f64>,
    /// Flattened ETC matrix (row-major, jobs × sites).
    pub etc: Vec<f64>,
    /// Per-job security demands.
    pub demands: Vec<f64>,
}

impl BatchSignature {
    /// Average of the three per-parameter similarities (§3).
    pub fn similarity(&self, other: &BatchSignature) -> f64 {
        let s1 = similarity(&self.ready_times, &other.ready_times);
        let s2 = similarity(&self.etc, &other.etc);
        let s3 = similarity(&self.demands, &other.demands);
        (s1 + s2 + s3) / 3.0
    }

    /// The batch-size signature: the three vector lengths. Entries with
    /// the same dimensions share a lookup bucket.
    fn dims(&self) -> SigDims {
        (self.ready_times.len(), self.etc.len(), self.demands.len())
    }

    /// [`max_abs`] of the three vectors, in signature order.
    fn maxima(&self) -> [f64; 3] {
        [
            max_abs(&self.ready_times),
            max_abs(&self.etc),
            max_abs(&self.demands),
        ]
    }
}

/// Bucket key: the lengths of (ready_times, etc, demands).
type SigDims = (usize, usize, usize);

/// Upper bound on the similarity of two equal-length-or-not vectors,
/// derived from lengths alone: the length-mismatch penalty in
/// [`similarity`] caps the score at `min_len / max_len` (and at 1 when
/// the lengths match).
fn length_similarity_bound(a: usize, b: usize) -> f64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    if hi == 0 {
        1.0 // both empty → similarity() returns 1
    } else {
        lo as f64 / hi as f64
    }
}

/// Upper bound on [`BatchSignature::similarity`] from dimensions alone,
/// used to skip whole lookup buckets without changing any result.
///
/// The bound holds in real arithmetic, but `similarity` and this function
/// round differently (`1 − (maxlen−k)/maxlen` vs `k/maxlen`), so the true
/// score can exceed the raw bound by a few ulps. [`BOUND_MARGIN`] absorbs
/// that: the filter compares against `bound + BOUND_MARGIN`, which can
/// only admit extra buckets (still scored exactly), never skip one whose
/// entries could pass the threshold.
fn dims_similarity_bound(a: SigDims, b: SigDims) -> f64 {
    (length_similarity_bound(a.0, b.0)
        + length_similarity_bound(a.1, b.1)
        + length_similarity_bound(a.2, b.2))
        / 3.0
}

/// Rounding slack added to [`dims_similarity_bound`] before filtering —
/// far above the few-ulp gap (≤ ~1e-15 on unit-range scores), far below
/// any meaningful threshold granularity.
const BOUND_MARGIN: f64 = 1e-9;

/// One history entry: a past round's signature and its best schedule.
/// This is the *wire* representation (used by [`HistoryTable::to_json`]);
/// in memory the ETC block is interned (one shared block per distinct
/// matrix).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Entry {
    /// The round's input signature.
    pub signature: BatchSignature,
    /// The best chromosome the GA found for it.
    pub chromosome: Chromosome,
    last_used: u64,
}

/// An interned ETC block: entries whose batches share an execution-time
/// matrix (every training batch inserts two entries with one signature,
/// and recurring batches re-insert the same matrix) reference one shared
/// allocation instead of each cloning the `jobs × sites` `f64` matrix —
/// the matrix dominates an entry's footprint, so deduplication shrinks
/// the table by up to the sharing factor.
type EtcBlock = Arc<Vec<f64>>;

/// FNV-1a over the exact f64 bits (plus the length), keying the intern
/// pool. Collisions are harmless: the pool compares contents before
/// sharing a block.
fn etc_content_hash(etc: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    h ^= etc.len() as u64;
    h = h.wrapping_mul(0x0000_0100_0000_01b3);
    for &x in etc {
        h ^= x.to_bits();
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One stored round: the signature split into its parts, with the ETC
/// matrix behind a content-hash-interned shared block, and the
/// [`BatchSignature::maxima`] of those parts (derived, never
/// serialised).
#[derive(Debug, Clone)]
struct StoredEntry {
    ready_times: Vec<f64>,
    etc: EtcBlock,
    demands: Vec<f64>,
    maxima: [f64; 3],
    chromosome: Chromosome,
    last_used: u64,
}

impl StoredEntry {
    fn dims(&self) -> SigDims {
        (self.ready_times.len(), self.etc.len(), self.demands.len())
    }

    /// Eq. 2 similarity against a query signature whose
    /// [`BatchSignature::maxima`] are `qmax` — bit for bit
    /// [`BatchSignature::similarity`], without re-scanning either side
    /// for its maximum.
    fn similarity(&self, query: &BatchSignature, qmax: &[f64; 3]) -> f64 {
        let [r, e, d] = self.maxima;
        let s1 = similarity_with_max(&self.ready_times, r, &query.ready_times, qmax[0]);
        let s2 = similarity_with_max(&self.etc, e, &query.etc, qmax[1]);
        let s3 = similarity_with_max(&self.demands, d, &query.demands, qmax[2]);
        (s1 + s2 + s3) / 3.0
    }

    /// Reassembles the full wire signature (serialisation only).
    fn to_signature(&self) -> BatchSignature {
        BatchSignature {
            ready_times: self.ready_times.clone(),
            etc: (*self.etc).clone(),
            demands: self.demands.clone(),
        }
    }
}

/// Bounded LRU table of past scheduling solutions.
///
/// Lookup is bucketed by batch-size signature (the three vector lengths):
/// similarity between signatures of mismatched dimensions is capped at
/// the length ratio, so buckets whose bound falls below the query
/// threshold are skipped wholesale and only plausibly-similar entries are
/// scored. The pruning is exact — results are identical to a linear scan
/// of every entry (`lookup_linear`, the referee in
/// `crates/stga/tests/referee/`) for every query.
#[derive(Debug, Clone)]
pub struct HistoryTable {
    capacity: usize,
    clock: u64,
    entries: Vec<StoredEntry>,
    /// Entry indices grouped by signature dimensions (unordered within a
    /// bucket; lookup sorts the surviving candidates).
    buckets: HashMap<SigDims, Vec<usize>>,
    /// The ETC intern pool: content hash → blocks with that hash (more
    /// than one only on hash collision). Pruned on eviction.
    etc_pool: HashMap<u64, Vec<EtcBlock>>,
}

/// The serialised form: everything but the derived bucket index.
#[derive(Serialize, Deserialize)]
struct HistoryTableWire {
    capacity: usize,
    clock: u64,
    entries: Vec<Entry>,
}

impl HistoryTable {
    /// Creates an empty table with the given capacity (≥ 1).
    ///
    /// # Panics
    /// Panics if `capacity` is 0.
    pub fn new(capacity: usize) -> HistoryTable {
        assert!(capacity >= 1, "history table capacity must be ≥ 1");
        HistoryTable {
            capacity,
            clock: 0,
            entries: Vec::with_capacity(capacity),
            buckets: HashMap::new(),
            etc_pool: HashMap::new(),
        }
    }

    /// Interns an ETC matrix: returns the pooled block when an identical
    /// one is already stored, otherwise adopts `etc` as a new block.
    fn intern_etc(&mut self, etc: Vec<f64>) -> EtcBlock {
        let hash = etc_content_hash(&etc);
        let bucket = self.etc_pool.entry(hash).or_default();
        if let Some(existing) = bucket.iter().find(|b| ***b == etc) {
            return Arc::clone(existing);
        }
        let block = Arc::new(etc);
        bucket.push(Arc::clone(&block));
        block
    }

    /// Drops one entry's reference into the intern pool: when no other
    /// entry shares the block (strong count = the entry's clone passed
    /// here + the pool's copy), the pooled copy is removed too.
    fn release_etc(&mut self, block: EtcBlock) {
        if Arc::strong_count(&block) > 2 {
            return; // other entries still share it
        }
        let hash = etc_content_hash(&block);
        if let Some(bucket) = self.etc_pool.get_mut(&hash) {
            if let Some(pos) = bucket.iter().position(|b| Arc::ptr_eq(b, &block)) {
                bucket.swap_remove(pos);
            }
            if bucket.is_empty() {
                self.etc_pool.remove(&hash);
            }
        }
    }

    /// Removes entry `i` from the table, keeping the bucket index
    /// consistent with the `swap_remove` (the former last entry takes
    /// index `i`) and pruning the ETC intern pool.
    fn remove_entry(&mut self, i: usize) {
        let dims = self.entries[i].dims();
        let bucket = self.buckets.get_mut(&dims).expect("indexed entry");
        let pos = bucket.iter().position(|&x| x == i).expect("indexed entry");
        bucket.swap_remove(pos);
        if bucket.is_empty() {
            self.buckets.remove(&dims);
        }
        let last = self.entries.len() - 1;
        if i != last {
            let moved_dims = self.entries[last].dims();
            let moved = self
                .buckets
                .get_mut(&moved_dims)
                .expect("indexed entry")
                .iter_mut()
                .find(|x| **x == last)
                .expect("indexed entry");
            *moved = i;
        }
        let removed = self.entries.swap_remove(i);
        self.release_etc(removed.etc);
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The table capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts a round's result, evicting the least-recently-used entry if
    /// full.
    pub fn insert(&mut self, signature: BatchSignature, chromosome: Chromosome) {
        self.clock += 1;
        if self.entries.len() >= self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("non-empty at capacity");
            self.remove_entry(lru);
        }
        self.buckets
            .entry(signature.dims())
            .or_default()
            .push(self.entries.len());
        let maxima = signature.maxima();
        let BatchSignature {
            ready_times,
            etc,
            demands,
        } = signature;
        let etc = self.intern_etc(etc);
        self.entries.push(StoredEntry {
            ready_times,
            etc,
            demands,
            maxima,
            chromosome,
            last_used: self.clock,
        });
    }

    /// Number of distinct ETC blocks held by the intern pool — at most
    /// [`HistoryTable::len`], and strictly fewer whenever entries share a
    /// matrix (diagnostics for the ~10× table-shrink claim).
    pub fn interned_etc_blocks(&self) -> usize {
        self.etc_pool.values().map(|b| b.len()).sum()
    }

    /// Returns up to `limit` chromosomes whose signatures are at least
    /// `threshold`-similar to `query`, best matches first, touching their
    /// LRU stamps.
    ///
    /// Only buckets whose dimension-derived similarity bound reaches
    /// `threshold` are scored; results are identical to scoring every
    /// entry (the referee's `lookup_linear`, `crates/stga/tests/referee/`).
    pub fn lookup(
        &mut self,
        query: &BatchSignature,
        threshold: f64,
        limit: usize,
    ) -> Vec<Chromosome> {
        self.clock += 1;
        let clock = self.clock;
        let qdims = query.dims();
        let qmax = query.maxima();
        let mut candidates: Vec<usize> = self
            .buckets
            .iter()
            .filter(|(&dims, _)| dims_similarity_bound(qdims, dims) + BOUND_MARGIN >= threshold)
            .flat_map(|(_, idx)| idx.iter().copied())
            .collect();
        // Entry order, so equal-similarity ties sort exactly as in the
        // linear scan (the sort below is stable).
        candidates.sort_unstable();
        let mut scored: Vec<(usize, f64)> = candidates
            .into_iter()
            .map(|i| (i, self.entries[i].similarity(query, &qmax)))
            .filter(|&(_, s)| s >= threshold)
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        scored.truncate(limit);
        let mut out = Vec::with_capacity(scored.len());
        for (i, _) in scored {
            self.entries[i].last_used = clock;
            out.push(self.entries[i].chromosome.clone());
        }
        out
    }

    /// The best similarity of any entry against `query` (diagnostics).
    pub fn best_similarity(&self, query: &BatchSignature) -> Option<f64> {
        let qmax = query.maxima();
        self.entries
            .iter()
            .map(|e| e.similarity(query, &qmax))
            .max_by(f64::total_cmp)
    }

    /// Serialises the table to JSON — lets a production scheduler persist
    /// its learned history across restarts (the paper's "time" dimension
    /// survives the process). The bucket index is derived state and is
    /// not serialised; the wire format is unchanged from before
    /// bucketing.
    pub fn to_json(&self) -> String {
        let wire = HistoryTableWire {
            capacity: self.capacity,
            clock: self.clock,
            entries: self
                .entries
                .iter()
                .map(|e| Entry {
                    signature: e.to_signature(),
                    chromosome: e.chromosome.clone(),
                    last_used: e.last_used,
                })
                .collect(),
        };
        serde_json::to_string(&wire).expect("history serialises")
    }

    /// Merges several tables into one of the given capacity — the
    /// resharding state-transfer primitive (shard merges hand each new
    /// shard the histories of every source shard it absorbs).
    ///
    /// Entries from all sources are ordered by their LRU stamp (ties
    /// break by source position, then entry position — deterministic for
    /// any input), exact duplicates (same signature *and* chromosome)
    /// collapse to their most-recent copy, and when the union exceeds
    /// `capacity` only the most-recently-used entries survive — exactly
    /// the eviction the LRU table itself would have applied. Stamps are
    /// renumbered densely, so splitting one table into N copies and
    /// merging them back reconstructs the original recency order and
    /// therefore identical lookups.
    ///
    /// # Panics
    /// Panics if `capacity` is 0.
    fn merge(sources: &[HistoryTable], capacity: usize) -> HistoryTable {
        let mut tagged: Vec<(u64, usize, usize)> = sources
            .iter()
            .enumerate()
            .flat_map(|(si, t)| {
                t.entries
                    .iter()
                    .enumerate()
                    .map(move |(ei, e)| (e.last_used, si, ei))
            })
            .collect();
        tagged.sort_unstable();
        // Ascending recency order: a later exact duplicate supersedes an
        // earlier one (split copies re-merging must not double-count).
        let mut last_pos: HashMap<(Vec<u64>, Vec<u16>), usize> = HashMap::new();
        for (pos, &(_, si, ei)) in tagged.iter().enumerate() {
            let e = &sources[si].entries[ei];
            let mut bits: Vec<u64> =
                Vec::with_capacity(e.ready_times.len() + e.etc.len() + e.demands.len() + 3);
            for part in [&e.ready_times[..], &e.etc[..], &e.demands[..]] {
                bits.push(part.len() as u64);
                bits.extend(part.iter().map(|x| x.to_bits()));
            }
            last_pos.insert((bits, e.chromosome.genes().to_vec()), pos);
        }
        let mut survivors = vec![false; tagged.len()];
        for &pos in last_pos.values() {
            survivors[pos] = true;
        }
        let mut kept: Vec<(usize, usize)> = tagged
            .iter()
            .enumerate()
            .filter(|&(pos, _)| survivors[pos])
            .map(|(_, &(_, si, ei))| (si, ei))
            .collect();
        if kept.len() > capacity {
            // Most-recent entries win, order preserved.
            kept.drain(..kept.len() - capacity);
        }
        let mut table = HistoryTable::new(capacity);
        for (si, ei) in kept {
            let e = &sources[si].entries[ei];
            // `insert` stamps clock+1 per entry: dense 1..=n stamps in
            // recency order, clock = n.
            table.insert(e.to_signature(), e.chromosome.clone());
        }
        table
    }

    /// Opens the table a scheduler starts from, given the
    /// [`HistoryTable::to_json`] snapshots it inherits: none — a fresh
    /// table of `capacity`; one — that table exactly as saved (a restart
    /// or a shard split resumes entry for entry); several — their merge,
    /// at the largest source capacity, so a table split into full copies
    /// and re-merged keeps its original bound. One snapshot is not merged
    /// with nothing: a merge re-orders entries by recency (entry order
    /// breaks lookup ties) and collapses exact duplicates. Errors on a
    /// zero `capacity` with no source, or on any undecodable snapshot.
    pub fn from_snapshots(
        sources: &[String],
        capacity: usize,
    ) -> gridsec_core::Result<HistoryTable> {
        match sources {
            [] if capacity == 0 => Err(gridsec_core::Error::invalid(
                "history",
                "history table capacity must be ≥ 1",
            )),
            [] => Ok(HistoryTable::new(capacity)),
            [one] => HistoryTable::from_json(one),
            many => {
                let tables = many
                    .iter()
                    .map(|s| HistoryTable::from_json(s))
                    .collect::<gridsec_core::Result<Vec<_>>>()?;
                let capacity = tables.iter().map(|t| t.capacity).max().expect("several");
                Ok(HistoryTable::merge(&tables, capacity))
            }
        }
    }

    /// Restores a table saved with [`HistoryTable::to_json`], rebuilding
    /// the bucket index and re-interning the ETC blocks.
    pub fn from_json(text: &str) -> gridsec_core::Result<HistoryTable> {
        let wire: HistoryTableWire = serde_json::from_str(text).map_err(|e| {
            gridsec_core::Error::invalid("history", format!("invalid history JSON: {e}"))
        })?;
        if wire.capacity == 0 {
            return Err(gridsec_core::Error::invalid(
                "history",
                "history table capacity must be ≥ 1",
            ));
        }
        // Eviction keeps a table at its capacity; one restored above it
        // would never evict again.
        if wire.entries.len() > wire.capacity {
            return Err(gridsec_core::Error::invalid(
                "history",
                format!(
                    "history snapshot holds {} entries, more than its capacity {}",
                    wire.entries.len(),
                    wire.capacity
                ),
            ));
        }
        let mut table = HistoryTable {
            capacity: wire.capacity,
            clock: wire.clock,
            entries: Vec::with_capacity(wire.entries.len()),
            buckets: HashMap::new(),
            etc_pool: HashMap::new(),
        };
        for (i, e) in wire.entries.into_iter().enumerate() {
            table.buckets.entry(e.signature.dims()).or_default().push(i);
            let maxima = e.signature.maxima();
            let BatchSignature {
                ready_times,
                etc,
                demands,
            } = e.signature;
            let etc = table.intern_etc(etc);
            table.entries.push(StoredEntry {
                ready_times,
                etc,
                demands,
                maxima,
                chromosome: e.chromosome,
                last_used: e.last_used,
            });
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(ready: &[f64], etc: &[f64], sd: &[f64]) -> BatchSignature {
        BatchSignature {
            ready_times: ready.to_vec(),
            etc: etc.to_vec(),
            demands: sd.to_vec(),
        }
    }

    #[test]
    fn similarity_reflexive_and_bounded() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(similarity(&a, &a), 1.0);
        assert_eq!(eq2_similarity(&a, &a), 1.0);
        let b = [3.0, 2.0, 1.0];
        let s = similarity(&a, &b);
        assert!((0.0..=1.0).contains(&s));
        assert!(s < 1.0);
    }

    #[test]
    fn similarity_symmetric() {
        let a = [1.0, 5.0, 2.0];
        let b = [2.0, 3.0, 4.0];
        assert_eq!(similarity(&a, &b), similarity(&b, &a));
    }

    #[test]
    fn eq2_collapses_on_long_vectors_normalised_does_not() {
        // 100 elements each off by 10 % of max.
        let a: Vec<f64> = vec![10.0; 100];
        let b: Vec<f64> = vec![9.0; 100];
        assert_eq!(eq2_similarity(&a, &b), 0.0); // Σdev = 100 > max = 10
        let s = similarity(&a, &b);
        assert!((s - 0.9).abs() < 1e-12, "s = {s}");
    }

    #[test]
    fn empty_and_zero_vectors() {
        assert_eq!(similarity(&[], &[]), 1.0);
        assert_eq!(similarity(&[1.0], &[]), 0.0);
        assert_eq!(similarity(&[0.0, 0.0], &[0.0, 0.0]), 1.0);
    }

    #[test]
    fn length_mismatch_penalised() {
        let a = [5.0, 5.0];
        let b = [5.0, 5.0, 5.0, 5.0];
        let s = similarity(&a, &b);
        // Two missing elements of four count as full deviation: 1 − 0.5.
        assert!((s - 0.5).abs() < 1e-12, "s = {s}");
    }

    #[test]
    fn signature_similarity_averages_three_parts() {
        let a = sig(&[0.0, 10.0], &[1.0, 2.0], &[0.7]);
        let b = sig(&[0.0, 10.0], &[1.0, 2.0], &[0.7]);
        assert_eq!(a.similarity(&b), 1.0);
        let c = sig(&[10.0, 0.0], &[1.0, 2.0], &[0.7]);
        let s = a.similarity(&c);
        assert!(s < 1.0 && s > 0.3);
    }

    #[test]
    fn table_insert_and_lookup() {
        let mut t = HistoryTable::new(10);
        let s1 = sig(&[0.0], &[10.0, 20.0], &[0.6]);
        t.insert(s1.clone(), Chromosome::from_genes(vec![0]));
        let hits = t.lookup(&s1, 0.8, 5);
        assert_eq!(hits.len(), 1);
        // A very different signature misses.
        let s2 = sig(&[1000.0], &[900.0, 1.0], &[0.9]);
        assert!(t.lookup(&s2, 0.8, 5).is_empty());
    }

    #[test]
    fn lru_eviction() {
        let mut t = HistoryTable::new(2);
        let s1 = sig(&[1.0], &[1.0], &[0.6]);
        let s2 = sig(&[2.0], &[2.0], &[0.7]);
        let s3 = sig(&[3.0], &[3.0], &[0.8]);
        t.insert(s1.clone(), Chromosome::from_genes(vec![1]));
        t.insert(s2.clone(), Chromosome::from_genes(vec![2]));
        // Touch s1 so s2 becomes LRU.
        let _ = t.lookup(&s1, 0.99, 1);
        t.insert(s3.clone(), Chromosome::from_genes(vec![3]));
        assert_eq!(t.len(), 2);
        // s2 was evicted; s1 and s3 still match themselves.
        assert_eq!(t.lookup(&s1, 0.99, 1).len(), 1);
        assert_eq!(t.lookup(&s3, 0.99, 1).len(), 1);
        assert!(t.lookup(&s2, 0.999, 1).is_empty());
    }

    #[test]
    fn lookup_orders_by_similarity_and_limits() {
        let mut t = HistoryTable::new(10);
        let q = sig(&[10.0, 10.0], &[5.0], &[0.7]);
        t.insert(
            sig(&[10.0, 10.0], &[5.0], &[0.7]),
            Chromosome::from_genes(vec![0]),
        ); // exact
        t.insert(
            sig(&[10.0, 9.0], &[5.0], &[0.7]),
            Chromosome::from_genes(vec![1]),
        ); // close
        t.insert(
            sig(&[10.0, 5.0], &[5.0], &[0.7]),
            Chromosome::from_genes(vec![2]),
        ); // farther
        let hits = t.lookup(&q, 0.5, 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0], Chromosome::from_genes(vec![0]));
        assert_eq!(hits[1], Chromosome::from_genes(vec![1]));
    }

    #[test]
    fn shared_history_json_roundtrip_preserves_lookups() {
        let mut h = HistoryTable::new(4);
        let s1 = sig(&[1.0], &[1.0], &[0.6]);
        let s2 = sig(&[9.0], &[5.0], &[0.8]);
        h.insert(s1.clone(), Chromosome::from_genes(vec![0]));
        h.insert(s2.clone(), Chromosome::from_genes(vec![1]));
        let json = h.to_json();
        let mut back = HistoryTable::from_json(&json).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(
            back.lookup(&s1, 0.99, 1),
            vec![Chromosome::from_genes(vec![0])]
        );
        assert_eq!(back.best_similarity(&s2), Some(1.0));
        // The snapshot is a copy: later inserts into the original do not
        // leak into the restored table.
        h.insert(sig(&[2.0], &[2.0], &[0.5]), Chromosome::from_genes(vec![2]));
        assert_eq!(back.len(), 2);
        assert!(HistoryTable::from_json("{").is_err());
    }

    #[test]
    fn json_roundtrip_preserves_entries_and_lru() {
        let mut t = HistoryTable::new(3);
        let s1 = sig(&[1.0], &[1.0], &[0.6]);
        let s2 = sig(&[9.0], &[5.0], &[0.8]);
        t.insert(s1.clone(), Chromosome::from_genes(vec![0]));
        t.insert(s2.clone(), Chromosome::from_genes(vec![1]));
        let json = t.to_json();
        let mut back = HistoryTable::from_json(&json).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.capacity(), 3);
        assert_eq!(
            back.lookup(&s1, 0.99, 1),
            vec![Chromosome::from_genes(vec![0])]
        );
        assert_eq!(
            back.lookup(&s2, 0.99, 1),
            vec![Chromosome::from_genes(vec![1])]
        );
        assert!(HistoryTable::from_json("{").is_err());
    }

    #[test]
    fn merge_of_split_copies_restores_recency_order() {
        // Shard-split copies the whole table to each half; merging the
        // halves back must reconstruct the original (dedup by exact
        // signature+chromosome, recency order preserved).
        let mut t = HistoryTable::new(2);
        let s1 = sig(&[1.0], &[1.0], &[0.6]);
        let s2 = sig(&[9.0], &[5.0], &[0.8]);
        t.insert(s1.clone(), Chromosome::from_genes(vec![0]));
        t.insert(s2.clone(), Chromosome::from_genes(vec![1]));
        let _ = t.lookup(&s1, 0.99, 1); // s2 is now LRU
        let a = HistoryTable::from_json(&t.to_json()).unwrap();
        let b = HistoryTable::from_json(&t.to_json()).unwrap();
        let mut merged = HistoryTable::merge(&[a, b], 2);
        assert_eq!(merged.len(), 2);
        // A third insert evicts the LRU — which must still be s2.
        let s3 = sig(&[4.0], &[4.0], &[0.7]);
        merged.insert(s3.clone(), Chromosome::from_genes(vec![2]));
        assert_eq!(merged.lookup(&s1, 0.99, 1).len(), 1);
        assert!(merged.lookup(&s2, 0.999, 1).is_empty());
    }

    #[test]
    fn merge_unions_disjoint_tables_and_caps_by_recency() {
        let mut a = HistoryTable::new(4);
        let mut b = HistoryTable::new(4);
        let s1 = sig(&[1.0], &[1.0], &[0.6]);
        let s2 = sig(&[9.0], &[5.0], &[0.8]);
        let s3 = sig(&[4.0], &[4.0], &[0.7]);
        a.insert(s1.clone(), Chromosome::from_genes(vec![0])); // stamp 1
        b.insert(s2.clone(), Chromosome::from_genes(vec![1])); // stamp 1 (tie: source order)
        b.insert(s3.clone(), Chromosome::from_genes(vec![2])); // stamp 2
        let full = HistoryTable::merge(&[a.clone(), b.clone()], 4);
        assert_eq!(full.len(), 3);
        // Capacity 2 keeps the most recent two: s2 outranks s1 on the
        // stamp tie only via source order — s1 (source 0) is older.
        let mut capped = HistoryTable::merge(&[a, b], 2);
        assert_eq!(capped.len(), 2);
        assert!(capped.lookup(&s1, 0.999, 1).is_empty());
        assert_eq!(capped.lookup(&s2, 0.99, 1).len(), 1);
        assert_eq!(capped.lookup(&s3, 0.99, 1).len(), 1);
    }

    #[test]
    fn merge_json_takes_max_capacity_and_rejects_garbage() {
        let mut a = HistoryTable::new(3);
        let b = HistoryTable::new(8);
        let s1 = sig(&[1.0], &[1.0], &[0.6]);
        a.insert(s1.clone(), Chromosome::from_genes(vec![0]));
        let mut merged = HistoryTable::from_snapshots(&[a.to_json(), b.to_json()], 1).unwrap();
        assert_eq!(merged.len(), 1);
        assert_eq!(merged.capacity(), 8);
        assert_eq!(merged.lookup(&s1, 0.99, 1).len(), 1);
        let garbage = [a.to_json(), "{".to_string()];
        assert!(HistoryTable::from_snapshots(&garbage, 8).is_err());
    }

    /// Why [`HistoryTable::from_snapshots`] restores one snapshot with
    /// `from_json`: merging a table with nothing re-orders its entries by
    /// recency (entry order breaks lookup ties) and collapses exact
    /// duplicates.
    #[test]
    fn merge_json_of_one_snapshot_is_not_the_identity() {
        let s = sig(&[1.0, 2.0], &[3.0, 4.0], &[0.5]);
        let (a, b) = (
            Chromosome::from_genes(vec![0]),
            Chromosome::from_genes(vec![1]),
        );
        let mut live = HistoryTable::new(8);
        live.insert(s.clone(), a.clone());
        live.insert(s.clone(), b.clone());
        // Both entries tie on every query; entry order puts `a` first,
        // and serving it makes it the more recently used of the two.
        assert_eq!(live.lookup(&s, 0.5, 1), vec![a.clone()]);
        let saved = [live.to_json()];
        let merge_one =
            |json: &str| HistoryTable::merge(&[HistoryTable::from_json(json).unwrap()], 8);

        let mut restored = HistoryTable::from_snapshots(&saved, 8).unwrap();
        assert_eq!(restored.to_json(), saved[0]);
        assert_eq!(restored.lookup(&s, 0.5, 1), vec![a.clone()]);
        let mut merged = merge_one(&saved[0]);
        assert_ne!(merged.to_json(), saved[0]);
        assert_eq!(merged.lookup(&s, 0.5, 1), vec![b], "recency order");

        // An exact duplicate survives a restore and not a merge.
        live.insert(s.clone(), a);
        let saved = live.to_json();
        assert_eq!(HistoryTable::from_json(&saved).unwrap().len(), 3);
        assert_eq!(merge_one(&saved).len(), 2);

        // No snapshot: a fresh table of the asked-for capacity.
        assert!(HistoryTable::from_snapshots(&[], 8).unwrap().is_empty());
        assert!(HistoryTable::from_snapshots(&[], 0).is_err());
    }

    #[test]
    fn dims_bound_never_undercuts_true_similarity() {
        let cases = [
            (
                sig(&[1.0, 2.0], &[3.0], &[0.5]),
                sig(&[1.0], &[3.0, 4.0], &[0.5, 0.6]),
            ),
            (sig(&[], &[1.0], &[0.5]), sig(&[2.0], &[1.0], &[0.5])),
            (sig(&[], &[], &[]), sig(&[], &[], &[])),
            (
                sig(&[9.0; 5], &[1.0; 10], &[0.7; 5]),
                sig(&[9.0; 3], &[1.0; 10], &[0.7; 4]),
            ),
        ];
        for (a, b) in cases {
            let bound = dims_similarity_bound(a.dims(), b.dims());
            let real = a.similarity(&b);
            assert!(
                real <= bound + BOUND_MARGIN,
                "similarity {real} exceeds bound {bound} for {:?} vs {:?}",
                a.dims(),
                b.dims()
            );
        }
    }

    #[test]
    fn bucket_filter_survives_bound_rounding() {
        // Adversarial rounding case: identical common prefixes, so each
        // mismatched component scores 1 − 2/3 = 0.33333333333333337 —
        // a few ulps ABOVE the raw k/maxlen bound of 0.3333333333333333.
        // With a threshold right at the true similarity, a margin-less
        // filter would skip the bucket holding the one entry that passes.
        let entry = sig(&[1.0, 1.0, 1.0], &[2.0, 2.0], &[1.0, 1.0, 1.0]);
        let query = sig(&[1.0], &[2.0, 2.0], &[1.0]);
        let mut bucketed = HistoryTable::new(4);
        bucketed.insert(entry.clone(), Chromosome::from_genes(vec![7]));
        let threshold = entry.similarity(&query);
        assert!(threshold > dims_similarity_bound(entry.dims(), query.dims()));
        let hits = bucketed.lookup(&query, threshold, 4);
        assert_eq!(hits, vec![Chromosome::from_genes(vec![7])]);
    }

    #[test]
    fn identical_etc_blocks_are_interned_once() {
        let mut t = HistoryTable::new(10);
        let etc = vec![10.0, 20.0, 30.0, 40.0];
        // Same ETC under different ready times / demands (the training
        // pattern: one signature, two heuristic entries — plus a later
        // recurring batch).
        for i in 0..4u16 {
            t.insert(
                sig(&[i as f64], &etc, &[0.5 + 0.1 * i as f64]),
                Chromosome::from_genes(vec![i]),
            );
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.interned_etc_blocks(), 1);
        // A different matrix gets its own block.
        t.insert(
            sig(&[9.0], &[1.0, 2.0], &[0.7]),
            Chromosome::from_genes(vec![9]),
        );
        assert_eq!(t.interned_etc_blocks(), 2);
    }

    #[test]
    fn eviction_prunes_the_intern_pool() {
        let mut t = HistoryTable::new(2);
        t.insert(
            sig(&[1.0], &[1.0, 1.0], &[0.5]),
            Chromosome::from_genes(vec![0]),
        );
        t.insert(
            sig(&[2.0], &[2.0, 2.0], &[0.5]),
            Chromosome::from_genes(vec![1]),
        );
        assert_eq!(t.interned_etc_blocks(), 2);
        // Evicts the LRU (first) entry; its block must leave the pool.
        t.insert(
            sig(&[3.0], &[3.0, 3.0], &[0.5]),
            Chromosome::from_genes(vec![2]),
        );
        assert_eq!(t.len(), 2);
        assert_eq!(t.interned_etc_blocks(), 2);
        // Shared block survives as long as one sharer remains.
        let mut shared = HistoryTable::new(2);
        shared.insert(
            sig(&[1.0], &[7.0, 7.0], &[0.5]),
            Chromosome::from_genes(vec![0]),
        );
        shared.insert(
            sig(&[2.0], &[7.0, 7.0], &[0.5]),
            Chromosome::from_genes(vec![1]),
        );
        assert_eq!(shared.interned_etc_blocks(), 1);
        shared.insert(
            sig(&[3.0], &[8.0, 8.0], &[0.5]),
            Chromosome::from_genes(vec![2]),
        );
        // One of the sharers was evicted, the other still references the
        // 7.0 block: pool holds both blocks.
        assert_eq!(shared.len(), 2);
        assert_eq!(shared.interned_etc_blocks(), 2);
    }

    #[test]
    fn interning_round_trips_through_json() {
        let mut t = HistoryTable::new(8);
        let etc = vec![5.0, 6.0, 7.0];
        t.insert(sig(&[0.0], &etc, &[0.6]), Chromosome::from_genes(vec![1]));
        t.insert(sig(&[1.0], &etc, &[0.7]), Chromosome::from_genes(vec![2]));
        let json = t.to_json();
        let back = HistoryTable::from_json(&json).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.interned_etc_blocks(), 1);
        // And the restored table serialises to the same wire text.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn a_snapshot_holding_more_entries_than_its_capacity_is_refused() {
        let mut t = HistoryTable::new(3);
        for i in 0..3u16 {
            t.insert(
                sig(&[f64::from(i)], &[1.0], &[0.5]),
                Chromosome::from_genes(vec![i]),
            );
        }
        let full = t.to_json();
        assert!(HistoryTable::from_json(&full).is_ok());
        let over = full.replacen("\"capacity\":3", "\"capacity\":2", 1);
        assert_ne!(over, full);
        let err = HistoryTable::from_json(&over).unwrap_err().to_string();
        assert!(
            err.contains("history snapshot holds 3 entries, more than its capacity 2"),
            "{err}"
        );
        assert!(HistoryTable::from_snapshots(&[over], 2).is_err());
    }

    /// Vector parts drawn from a small pool: ties, zeros of both signs,
    /// negative values and `+∞` (the ETC cell of a site a job cannot
    /// use), at lengths 0..6 so the two sides often differ in length.
    fn arb_part() -> impl Strategy<Value = Vec<f64>> {
        const POOL: [f64; 8] = [0.0, -0.0, 1.0, 2.5, -3.0, 7.0, 1e9, f64::INFINITY];
        prop::collection::vec(0usize..POOL.len(), 0..6)
            .prop_map(|picks| picks.into_iter().map(|i| POOL[i]).collect())
    }

    fn arb_sig() -> impl Strategy<Value = BatchSignature> {
        (arb_part(), arb_part(), arb_part()).prop_map(|(r, e, d)| sig(&r, &e, &d))
    }

    /// `signature` as the table stores it.
    fn stored(signature: &BatchSignature) -> StoredEntry {
        StoredEntry {
            ready_times: signature.ready_times.clone(),
            etc: Arc::new(signature.etc.clone()),
            demands: signature.demands.clone(),
            maxima: signature.maxima(),
            chromosome: Chromosome::from_genes(vec![]),
            last_used: 0,
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Scoring against cached maxima ≡ `BatchSignature::similarity`
        /// (the max fold over both vectors, then the deviation pass), bit
        /// for bit.
        #[test]
        fn cached_maxima_scores_equal_similarity(entry in arb_sig(), query in arb_sig()) {
            let got = stored(&entry).similarity(&query, &query.maxima());
            prop_assert_eq!(got.to_bits(), entry.similarity(&query).to_bits());
        }
    }

    #[test]
    fn cached_maxima_scores_equal_similarity_on_zero_vectors() {
        for (a, b) in [
            (
                sig(&[0.0, 0.0], &[-0.0], &[]),
                sig(&[0.0], &[0.0, 0.0], &[]),
            ),
            (sig(&[], &[], &[]), sig(&[0.0], &[], &[0.0])),
            (
                sig(&[0.0; 3], &[5.0], &[0.0]),
                sig(&[0.0; 3], &[0.0], &[0.0]),
            ),
        ] {
            let got = stored(&a).similarity(&b, &b.maxima());
            assert_eq!(got.to_bits(), a.similarity(&b).to_bits(), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn best_similarity_reports() {
        let mut t = HistoryTable::new(4);
        let s1 = sig(&[1.0], &[1.0], &[0.6]);
        assert!(t.best_similarity(&s1).is_none());
        t.insert(s1.clone(), Chromosome::from_genes(vec![0]));
        assert_eq!(t.best_similarity(&s1), Some(1.0));
    }
}

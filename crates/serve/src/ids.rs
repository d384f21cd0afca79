//! A session's accepted-id set, [`KnownIds`]: every job id it has
//! accepted, which duplicate-id protection reads on every submit. This
//! module owns the set's whole format — the compressed chunks of one set,
//! and the inheritance a reshard hands over whole and the session's first
//! change settles.
//!
//! One set is laid out like a Roaring bitmap (Chambi, Lemire, Kaser &
//! Godin, 2016). Ids fall into chunks of 4096 keyed by `id >> 12`. A chunk
//! holding many ids is a 512-byte bitmap, so the ids a daemon hands out in
//! order cost a bit each on a line the previous id already touched. Every
//! other id sits in a sparse tier of its own, an ordered set of whole ids,
//! so ids scattered over all of `u64` cost no more than they would in a
//! hash table and no client-chosen id is ever hashed. A chunk's sparse ids
//! become a bitmap once there are [`PROMOTE`] of them, or at once when the
//! chunk before it is at least half full (ids handed out in order); a
//! bitmap left with fewer than [`DEMOTE`] ids goes back to the sparse
//! tier. Every operation is O(log n) in the worst case.

use gridsec_core::JobId;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;
use std::sync::Arc;

/// Ids per chunk, as a shift.
const CHUNK_BITS: u32 = 12;
/// Words in a chunk's bitmap.
const WORDS: usize = 1 << (CHUNK_BITS - 6);
/// Sparse ids in one chunk that make it a bitmap: about where 64 ids in
/// the ordered set cost as much as the 512-byte bitmap.
const PROMOTE: usize = 64;
/// A bitmap left with fewer ids than this goes back to the sparse tier
/// (half of [`PROMOTE`], so no id flips a chunk back and forth).
const DEMOTE: u32 = 32;
/// A new chunk whose predecessor holds at least this many ids starts as a
/// bitmap: ids handed out in order, or every other one of them.
const HALF: u32 = 1 << (CHUNK_BITS - 1);

fn key(id: u64) -> u64 {
    id >> CHUNK_BITS
}

/// The ids of chunk `key`, inclusive.
fn span(key: u64) -> std::ops::RangeInclusive<u64> {
    let lo = key << CHUNK_BITS;
    lo..=lo | ((1 << CHUNK_BITS) - 1)
}

/// Where id `id` sits in its chunk's bitmap: word and mask.
fn slot(id: u64) -> (usize, u64) {
    let bit = id & ((1 << CHUNK_BITS) - 1);
    ((bit >> 6) as usize, 1 << (bit & 63))
}

/// The positions of the set bits of `word`, lowest first.
fn bits(mut word: u64) -> impl Iterator<Item = u64> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros();
            word &= word - 1;
            u64::from(b)
        })
    })
}

/// One dense chunk.
#[derive(Clone)]
struct Bitmap {
    words: [u64; WORDS],
    /// Set bits.
    len: u32,
}

impl Bitmap {
    fn ids(&self, key: u64) -> impl Iterator<Item = u64> + '_ {
        let base = key << CHUNK_BITS;
        let words = self.words.iter().enumerate();
        words.flat_map(move |(w, &word)| bits(word).map(move |b| base + ((w as u64) << 6) + b))
    }
}

/// One compressed set of job ids (see the module doc).
#[derive(Clone, Default)]
struct IdSet {
    /// Dense chunks by key.
    dense: BTreeMap<u64, Box<Bitmap>>,
    /// Ids of every chunk that is not dense.
    sparse: BTreeSet<u64>,
    len: usize,
}

impl IdSet {
    fn contains(&self, id: JobId) -> bool {
        match self.dense.get(&key(id.0)) {
            Some(b) => {
                let (w, mask) = slot(id.0);
                b.words[w] & mask != 0
            }
            None => self.sparse.contains(&id.0),
        }
    }

    /// Every id, in ascending order. No sparse id falls inside a dense
    /// chunk, so the two tiers merge chunk by chunk.
    fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        let mut dense = self.dense.iter().peekable();
        let mut sparse = self.sparse.iter().copied().peekable();
        let runs = std::iter::from_fn(move || match (dense.peek(), sparse.peek()) {
            (Some(&(&k, _)), Some(&id)) if key(id) < k => Some((None, sparse.next())),
            (Some(_), _) => Some((dense.next(), None)),
            (None, _) => Some((None, Some(sparse.next()?))),
        });
        runs.flat_map(|(chunk, id)| chunk.into_iter().flat_map(|(&k, b)| b.ids(k)).chain(id))
    }

    /// Adds `id`; false if it was there.
    fn add(&mut self, id: u64) -> bool {
        let k = key(id);
        let (w, mask) = slot(id);
        let b = match self.dense.get_mut(&k) {
            Some(b) => b,
            None => {
                let ordered = k
                    .checked_sub(1)
                    .and_then(|p| self.dense.get(&p))
                    .is_some_and(|p| p.len >= HALF);
                if !ordered {
                    if !self.sparse.insert(id) {
                        return false;
                    }
                    self.len += 1;
                    if self.sparse.range(span(k)).take(PROMOTE).count() == PROMOTE {
                        self.promote(k);
                    }
                    return true;
                }
                self.promote(k)
            }
        };
        if b.words[w] & mask != 0 {
            return false;
        }
        b.words[w] |= mask;
        b.len += 1;
        self.len += 1;
        true
    }

    /// Drops `id`; false if it was not there.
    fn remove(&mut self, id: u64) -> bool {
        let k = key(id);
        let Some(b) = self.dense.get_mut(&k) else {
            let gone = self.sparse.remove(&id);
            self.len -= usize::from(gone);
            return gone;
        };
        let (w, mask) = slot(id);
        if b.words[w] & mask == 0 {
            return false;
        }
        b.words[w] &= !mask;
        b.len -= 1;
        self.len -= 1;
        if b.len < DEMOTE {
            self.demote(k);
        }
        true
    }

    /// Makes chunk `k` a bitmap, moving its sparse ids in.
    fn promote(&mut self, k: u64) -> &mut Bitmap {
        let mut b = Box::new(Bitmap {
            words: [0; WORDS],
            len: 0,
        });
        while let Some(&id) = self.sparse.range(span(k)).next() {
            self.sparse.remove(&id);
            let (w, mask) = slot(id);
            b.words[w] |= mask;
            b.len += 1;
        }
        self.dense.entry(k).or_insert(b)
    }

    /// Moves chunk `k`'s ids back to the sparse tier.
    fn demote(&mut self, k: u64) {
        if let Some(b) = self.dense.remove(&k) {
            self.sparse.extend(b.ids(k));
        }
    }

    /// Adds every id of `other` that is not in `skip`, chunk by chunk: a
    /// bitmap is one word OR per 64 ids, a sparse id one insert.
    fn union(&mut self, other: &IdSet, skip: &HashSet<JobId>) {
        let mut skip: Vec<u64> = skip.iter().map(|id| id.0).collect();
        skip.sort_unstable();
        for (&k, theirs) in &other.dense {
            let mut words = theirs.words;
            let range = span(k);
            let from = skip.partition_point(|&id| id < *range.start());
            let to = skip.partition_point(|&id| id <= *range.end());
            for &id in &skip[from..to] {
                let (w, mask) = slot(id);
                words[w] &= !mask;
            }
            let ours = match self.dense.get_mut(&k) {
                Some(b) => b,
                None => self.promote(k),
            };
            let mut len = 0;
            for (o, t) in ours.words.iter_mut().zip(words) {
                *o |= t;
                len += o.count_ones();
            }
            let added = (len - ours.len) as usize;
            ours.len = len;
            self.len += added;
            if len < DEMOTE {
                self.demote(k);
            }
        }
        for &id in &other.sparse {
            if skip.binary_search(&id).is_err() {
                self.add(id);
            }
        }
    }
}

impl fmt::Debug for IdSet {
    /// The ids in order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.ids()).finish()
    }
}

/// Every job id a session has accepted, held by shared ownership so that
/// a reshard barrier hands it over whole: exporting it is O(1), and
/// [`transfer`](crate::transfer) moves only the ids of pending and
/// in-flight jobs one at a time.
///
/// Each whole set is compressed (see the module doc): at 10⁶ ids handed
/// out in order that is 0.14 requested bytes per id, for every other id
/// 0.27, and for ids drawn from all of `u64` 15.4, less than a `HashMap`
/// took (`crates/serve/tests/id_budget.rs`). Every operation is O(log n)
/// in the worst case, and no id is hashed.
///
/// The set a session builds is *settled*: one set. A set a reshard seeds
/// is *inherited*: the whole sets of the old sessions it takes over, each
/// less the ids that left it for other shards, plus the ids moved in from
/// them. The session's first change to an inherited set unions the
/// smaller sets into the largest, chunk by chunk (a word OR per 64 ids of
/// a bitmap). By then the old sessions and their exports are gone, so the
/// largest changes hands without a copy.
#[derive(Debug, Clone)]
pub struct KnownIds {
    /// Whole sets, each with the ids that left it.
    parts: Vec<Part>,
    /// Ids moved in one at a time.
    moved_in: IdSet,
}

#[derive(Debug, Clone)]
struct Part {
    table: Arc<IdSet>,
    left: HashSet<JobId>,
}

impl Default for KnownIds {
    /// An empty settled set.
    fn default() -> KnownIds {
        KnownIds {
            parts: vec![Part {
                table: Arc::default(),
                left: HashSet::new(),
            }],
            moved_in: IdSet::default(),
        }
    }
}

impl KnownIds {
    /// An inheritance with nothing in it yet, for
    /// [`transfer`](crate::transfer) to fill.
    pub fn inherit() -> KnownIds {
        KnownIds {
            parts: Vec::new(),
            moved_in: IdSet::default(),
        }
    }

    fn is_settled(&self) -> bool {
        matches!(self.parts.as_slice(), [p] if p.left.is_empty()) && self.moved_in.len == 0
    }

    /// The part a settle keeps: the largest set, the first of equals.
    fn largest(&self) -> Option<usize> {
        (0..self.parts.len())
            .rev()
            .max_by_key(|&i| self.parts[i].table.len)
    }

    /// Whether `id` was accepted: held by a set it did not leave, or
    /// moved in.
    pub fn contains(&self, id: JobId) -> bool {
        let mut held = self.parts.iter().filter(|p| !p.left.contains(&id));
        held.any(|p| p.table.contains(id)) || self.moved_in.contains(id)
    }

    /// The one set, after settling an inheritance. Copies the set only
    /// if something else (an export, an old session) still holds it.
    fn settled(&mut self) -> &mut IdSet {
        if !self.is_settled() {
            let mut base = match self.largest() {
                Some(i) => self.parts.swap_remove(i),
                None => Part {
                    table: Arc::default(),
                    left: HashSet::new(),
                },
            };
            let table = Arc::make_mut(&mut base.table);
            for &id in &base.left {
                table.remove(id.0);
            }
            for p in &self.parts {
                table.union(&p.table, &p.left);
            }
            table.union(&self.moved_in, &HashSet::new());
            base.left.clear();
            self.parts = vec![base];
            self.moved_in = IdSet::default();
        }
        Arc::make_mut(&mut self.parts[0].table)
    }

    /// Adds `id`; false if it was already there.
    pub fn insert(&mut self, id: JobId) -> bool {
        self.settled().add(id.0)
    }

    /// Drops `id`; false if it was not there.
    pub fn remove(&mut self, id: JobId) -> bool {
        self.settled().remove(id.0)
    }

    /// Every id in ascending order (of a settled copy, when the set is
    /// inherited).
    pub fn entries(&self) -> Vec<JobId> {
        if self.is_settled() {
            return self.parts[0].table.ids().map(JobId).collect();
        }
        self.clone().settled().ids().map(JobId).collect()
    }

    /// Takes `whole` over as it is, less the ids in `left`; returns the
    /// ids handled one at a time (its own moved-in ids and the ids that
    /// left).
    pub fn take_over(&mut self, whole: &KnownIds, left: &HashSet<JobId>) -> usize {
        for p in &whole.parts {
            self.parts.push(Part {
                table: Arc::clone(&p.table),
                left: p.left.union(left).copied().collect(),
            });
        }
        for id in whole.moved_in.ids().map(JobId) {
            if !left.contains(&id) {
                self.move_in(id);
            }
        }
        whole.moved_in.len + left.len() * whole.parts.len()
    }

    /// Adds one id moved in from another shard.
    pub fn move_in(&mut self, id: JobId) {
        self.moved_in.add(id.0);
    }

    /// The ids the first settle handles one at a time: all but the
    /// largest set's.
    pub fn settle_cost(&self) -> usize {
        if self.is_settled() {
            return 0;
        }
        let big = self.largest();
        let parts = self.parts.iter().enumerate().map(|(i, p)| {
            let whole = if Some(i) == big { 0 } else { p.table.len };
            whole + p.left.len()
        });
        parts.sum::<usize>() + self.moved_in.len
    }
}

impl PartialEq for KnownIds {
    /// Equal when they hold the same ids, however they are split.
    fn eq(&self, other: &KnownIds) -> bool {
        self.entries() == other.entries()
    }
}

#[cfg(test)]
impl KnownIds {
    /// Whether both hold one whole set (not copies of it).
    pub(crate) fn shares(&self, other: &KnownIds) -> bool {
        let tables = |t: &KnownIds| t.parts.iter().map(|p| Arc::as_ptr(&p.table)).collect();
        let ours: HashSet<_> = tables(self);
        tables(other).iter().any(|t| ours.contains(t))
    }
}

/// A settled set of these ids — for the tests of this crate.
#[cfg(test)]
impl FromIterator<JobId> for KnownIds {
    fn from_iter<I: IntoIterator<Item = JobId>>(ids: I) -> KnownIds {
        let mut t = KnownIds::default();
        for id in ids {
            t.insert(id);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(m: &IdSet) -> Vec<u64> {
        m.ids().collect()
    }

    /// What a bitmap and the sparse tier hold, per chunk key.
    fn layout(m: &IdSet) -> (Vec<u64>, usize) {
        (m.dense.keys().copied().collect(), m.sparse.len())
    }

    #[test]
    fn a_chunk_turns_dense_at_the_threshold_and_sparse_below_half_of_it() {
        let mut m = IdSet::default();
        let base = 5 << CHUNK_BITS;
        for i in 0..PROMOTE as u64 - 1 {
            assert!(m.add(base + 2 * i));
        }
        assert_eq!(layout(&m), (vec![], PROMOTE - 1));
        m.add(u64::MAX);
        m.add(base + 4095);
        assert_eq!(layout(&m), (vec![5], 1));
        assert_eq!(m.len, PROMOTE + 1);
        for i in 0..=(PROMOTE as u64 - DEMOTE as u64) {
            assert!(m.remove(base + 2 * i));
        }
        assert_eq!(layout(&m), (vec![], DEMOTE as usize));
        assert!(m.contains(JobId(base + 4095)) && !m.contains(JobId(base)));
        assert_eq!(ids(&m).len(), m.len);
    }

    #[test]
    fn ids_in_order_fill_the_next_chunk_as_a_bitmap_at_once() {
        let mut m = IdSet::default();
        for id in 0..(1 << CHUNK_BITS) + 1 {
            m.add(id);
        }
        assert_eq!(layout(&m), (vec![0, 1], 0));
        assert_eq!(ids(&m), (0..(1 << CHUNK_BITS) + 1).collect::<Vec<_>>());
    }

    #[test]
    fn a_union_ors_bitmaps_and_skips_the_ids_that_left() {
        let mut a = IdSet::default();
        let mut b = IdSet::default();
        for id in 0..200 {
            a.add(id);
            b.add(id + 100);
        }
        b.add(5000);
        let skip = HashSet::from([JobId(120), JobId(250)]);
        a.union(&b, &skip);
        // 0..300 less 250, which only `b` held, plus 5000; 120 stays
        // because `a` held it itself.
        assert_eq!(a.len, 300);
        let want: Vec<u64> = (0..300).filter(|&id| id != 250).chain([5000]).collect();
        assert_eq!(ids(&a), want);
        assert_eq!(layout(&a), (vec![0], 1));
    }

    /// An inherited set reads as the union of its parts, each less the
    /// ids that left it, and its first change settles it into the largest
    /// part in place when nothing else holds that.
    #[test]
    fn an_inherited_table_settles_into_its_largest_part_in_place() {
        let big: KnownIds = (0..100).map(JobId).collect();
        let small: KnownIds = [5, 200, 201].map(JobId).into_iter().collect();
        let big_table = Arc::as_ptr(&big.parts[0].table);
        let mut t = KnownIds::inherit();
        assert_eq!(t.take_over(&small, &HashSet::from([JobId(201)])), 1);
        assert_eq!(t.take_over(&big, &HashSet::from([JobId(7)])), 1);
        t.move_in(JobId(7));
        t.move_in(JobId(300));
        drop((big, small));
        // 99 of the big set's ids, plus 200, 7 (moved back in) and 300.
        assert_eq!(t.entries().len(), 102);
        assert!(t.contains(JobId(5)) && t.contains(JobId(7)));
        assert!(!t.contains(JobId(201)));
        // The small set's 3 ids, the 2 ids that left, 2 moved in.
        assert_eq!(t.settle_cost(), 7);
        assert!(t.insert(JobId(400)));
        assert!(std::ptr::eq(Arc::as_ptr(&t.parts[0].table), big_table));
        assert_eq!((t.entries().len(), t.settle_cost()), (103, 0));
        assert!(t.contains(JobId(5)) && !t.contains(JobId(201)));
    }
}

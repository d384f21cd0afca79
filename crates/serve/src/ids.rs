//! A compressed map from job ids to small values, laid out like a Roaring
//! bitmap (Chambi, Lemire, Kaser & Godin, 2016): the storage under a
//! session's [`IdTable`](crate::session::IdTable)s.
//!
//! Ids fall into chunks of 4096 keyed by `id >> 12`. A chunk holding
//! many ids is a 512-byte bitmap, so the ids a daemon hands out in order
//! cost a bit each on a line the previous id already touched. Every other
//! id sits in a sparse tier of its own, an ordered set of whole ids, so
//! ids scattered over all of `u64` cost no more than they would in a hash
//! table and no client-chosen id is ever hashed. A chunk's sparse ids
//! become a bitmap once there are [`PROMOTE`] of them, or at once when
//! the chunk before it is at least half full (ids handed out in order);
//! a bitmap left with fewer than [`DEMOTE`] ids goes back to the sparse
//! tier.
//!
//! An id's value is [`Merge::ONE`] unless the side map says otherwise; the
//! side map is read only when it is not empty, which for an accepted-id
//! set is always and for standing commits is whenever no job holds two.
//! Every operation is O(log n) in the worst case.

use crate::session::Merge;
use gridsec_core::JobId;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;

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

/// A set of job ids, each with a value (see the module doc).
#[derive(Clone)]
pub(crate) struct IdMap<V> {
    /// Dense chunks by key.
    dense: BTreeMap<u64, Box<Bitmap>>,
    /// Ids of every chunk that is not dense.
    sparse: BTreeSet<u64>,
    /// The values other than [`Merge::ONE`].
    values: BTreeMap<u64, V>,
    len: usize,
}

impl<V> Default for IdMap<V> {
    fn default() -> IdMap<V> {
        IdMap {
            dense: BTreeMap::new(),
            sparse: BTreeSet::new(),
            values: BTreeMap::new(),
            len: 0,
        }
    }
}

impl<V> IdMap<V> {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn contains(&self, id: JobId) -> bool {
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
    fn drop_id(&mut self, id: u64) -> bool {
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
}

impl<V: Merge> IdMap<V> {
    /// `id`'s value, given that the map holds it.
    fn value(&self, id: u64) -> V {
        if self.values.is_empty() {
            return V::ONE;
        }
        self.values.get(&id).copied().unwrap_or(V::ONE)
    }

    fn set_value(&mut self, id: u64, v: V) {
        if v != V::ONE {
            self.values.insert(id, v);
        } else if !self.values.is_empty() {
            self.values.remove(&id);
        }
    }

    pub(crate) fn get(&self, id: JobId) -> Option<V> {
        self.contains(id).then(|| self.value(id.0))
    }

    /// Sets `id`'s value; returns the one it replaced.
    pub(crate) fn insert(&mut self, id: JobId, v: V) -> Option<V> {
        let old = (!self.add(id.0)).then(|| self.value(id.0));
        self.set_value(id.0, v);
        old
    }

    pub(crate) fn remove(&mut self, id: JobId) -> Option<V> {
        if !self.drop_id(id.0) {
            return None;
        }
        if self.values.is_empty() {
            return Some(V::ONE);
        }
        Some(self.values.remove(&id.0).unwrap_or(V::ONE))
    }

    /// Merges `v` into `id`'s value (sets it when `id` is new).
    pub(crate) fn merge_in(&mut self, id: JobId, v: V) {
        if self.add(id.0) {
            self.set_value(id.0, v);
        } else {
            let mut w = self.value(id.0);
            w.merge(v);
            self.set_value(id.0, w);
        }
    }

    /// Every entry, in ascending id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (JobId, V)> + '_ {
        self.ids().map(|id| (JobId(id), self.value(id)))
    }

    /// Merges every entry of `other` whose id is not in `skip` into this
    /// map, chunk by chunk: a bitmap is one word OR per 64 ids, and only
    /// the ids both maps hold, where merging two [`Merge::ONE`]s is not
    /// one, and the values other than it are handled one at a time.
    pub(crate) fn union(&mut self, other: &IdMap<V>, skip: &HashSet<JobId>) {
        let counts = {
            let mut two = V::ONE;
            two.merge(V::ONE);
            two != V::ONE
        };
        // Ids whose own value must travel first, while this map still
        // tells which ids it held; the OR below leaves them alone.
        let mut aside: Vec<u64> = skip.iter().map(|id| id.0).collect();
        for (&id, &v) in &other.values {
            if !skip.contains(&JobId(id)) {
                self.merge_in(JobId(id), v);
                aside.push(id);
            }
        }
        aside.sort_unstable();
        for (&k, theirs) in &other.dense {
            let mut words = theirs.words;
            let range = span(k);
            let from = aside.partition_point(|&id| id < *range.start());
            let to = aside.partition_point(|&id| id <= *range.end());
            for &id in &aside[from..to] {
                let (w, mask) = slot(id);
                words[w] &= !mask;
            }
            let ours = match self.dense.get_mut(&k) {
                Some(b) => b,
                None => self.promote(k),
            };
            let mut both = [0u64; WORDS];
            let mut len = 0;
            for ((o, t), b) in ours.words.iter_mut().zip(words).zip(&mut both) {
                *b = *o & t;
                *o |= t;
                len += o.count_ones();
            }
            let added = (len - ours.len) as usize;
            ours.len = len;
            self.len += added;
            if counts {
                let base = k << CHUNK_BITS;
                for (w, &word) in both.iter().enumerate() {
                    for id in bits(word).map(|b| base + ((w as u64) << 6) + b) {
                        let mut v = self.value(id);
                        v.merge(V::ONE);
                        self.set_value(id, v);
                    }
                }
            }
            if len < DEMOTE {
                self.demote(k);
            }
        }
        for &id in &other.sparse {
            if aside.binary_search(&id).is_err() {
                self.merge_in(JobId(id), V::ONE);
            }
        }
    }

    /// How many of this map's ids `other` holds, less those in `skip`:
    /// a popcount per pair of bitmaps, a lookup per sparse id.
    pub(crate) fn overlap(&self, other: &IdMap<V>, skip: &HashSet<JobId>) -> usize {
        let mut n = 0;
        for (&k, ours) in &self.dense {
            n += match other.dense.get(&k) {
                Some(theirs) => (ours.words.iter().zip(&theirs.words))
                    .map(|(a, b)| (a & b).count_ones() as usize)
                    .sum(),
                None => (other.sparse.range(span(k)))
                    .filter(|&&id| {
                        let (w, mask) = slot(id);
                        ours.words[w] & mask != 0
                    })
                    .count(),
            };
        }
        n += self
            .sparse
            .iter()
            .filter(|&&id| other.contains(JobId(id)))
            .count();
        let skipped = skip
            .iter()
            .filter(|&&id| self.contains(id) && other.contains(id));
        n - skipped.count()
    }
}

impl<V: fmt::Debug> fmt::Debug for IdMap<V> {
    /// The ids in order, then the values other than [`Merge::ONE`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Ids<'a, V>(&'a IdMap<V>);
        impl<V> fmt::Debug for Ids<'_, V> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_set().entries(self.0.ids()).finish()
            }
        }
        f.debug_struct("IdMap")
            .field("ids", &Ids(self))
            .field("values", &self.values)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids<V>(m: &IdMap<V>) -> Vec<u64> {
        m.ids().collect()
    }

    /// What a bitmap and the sparse tier hold, per chunk key.
    fn layout<V>(m: &IdMap<V>) -> (Vec<u64>, usize) {
        (m.dense.keys().copied().collect(), m.sparse.len())
    }

    #[test]
    fn a_chunk_turns_dense_at_the_threshold_and_sparse_below_half_of_it() {
        let mut m = IdMap::<()>::default();
        let base = 5 << CHUNK_BITS;
        for i in 0..PROMOTE as u64 - 1 {
            assert!(m.add(base + 2 * i));
        }
        assert_eq!(layout(&m), (vec![], PROMOTE - 1));
        m.add(u64::MAX);
        m.add(base + 4095);
        assert_eq!(layout(&m), (vec![5], 1));
        assert_eq!(m.len(), PROMOTE + 1);
        for i in 0..=(PROMOTE as u64 - DEMOTE as u64) {
            assert!(m.drop_id(base + 2 * i));
        }
        assert_eq!(layout(&m), (vec![], DEMOTE as usize));
        assert!(m.contains(JobId(base + 4095)) && !m.contains(JobId(base)));
        assert_eq!(ids(&m).len(), m.len());
    }

    #[test]
    fn ids_in_order_fill_the_next_chunk_as_a_bitmap_at_once() {
        let mut m = IdMap::<u32>::default();
        for id in 0..(1 << CHUNK_BITS) + 1 {
            m.merge_in(JobId(id), 1);
        }
        assert_eq!(layout(&m), (vec![0, 1], 0));
        assert_eq!(ids(&m), (0..(1 << CHUNK_BITS) + 1).collect::<Vec<_>>());
        assert!(m.values.is_empty());
    }

    #[test]
    fn values_other_than_one_live_beside_the_ids() {
        let mut m = IdMap::<u32>::default();
        m.merge_in(JobId(7), 1);
        m.merge_in(JobId(7), 1);
        m.insert(JobId(9), 0);
        assert_eq!((m.get(JobId(7)), m.get(JobId(9))), (Some(2), Some(0)));
        assert_eq!(m.insert(JobId(7), 1), Some(2));
        assert_eq!(m.remove(JobId(9)), Some(0));
        assert!(m.values.is_empty());
        assert_eq!(m.get(JobId(8)), None);
    }

    #[test]
    fn a_union_ors_bitmaps_and_adds_counts_where_both_hold_an_id() {
        let mut a = IdMap::<u32>::default();
        let mut b = IdMap::<u32>::default();
        for id in 0..200 {
            a.merge_in(JobId(id), 1);
            b.merge_in(JobId(id + 100), 1);
        }
        b.insert(JobId(150), 3);
        b.insert(JobId(5000), 1);
        let skip = HashSet::from([JobId(120), JobId(250)]);
        assert_eq!(a.overlap(&b, &skip), 99);
        a.union(&b, &skip);
        // 0..300 less 250, which only `b` held, plus 5000.
        assert_eq!(a.len(), 300);
        assert_eq!(a.get(JobId(110)), Some(2));
        assert_eq!(a.get(JobId(150)), Some(4));
        assert_eq!(a.get(JobId(120)), Some(1));
        assert_eq!(a.get(JobId(250)), None);
        assert_eq!(a.get(JobId(299)), Some(1));
        assert_eq!(a.get(JobId(5000)), Some(1));
    }
}

//! The referee of `gridsec-serve`'s job-id tables: `IdTable` as it
//! shipped while every whole table was a `HashMap` (commit c948d4e), before
//! the tables became compressed id maps (`crates/serve/src/ids.rs`).
//! `id_tables.rs` drives it and the shipped `IdTable` with the same random
//! operations and compares every answer; `id_budget.rs` measures its
//! memory beside the shipped one's.
//!
//! The body below the adapters is the replaced code word for word. Do not
//! "fix" it to match the shipped path — a difference between the two is a
//! finding. No shipped crate calls anything here.

#![allow(dead_code)] // every suite uses its own subset

use gridsec_core::JobId;
use gridsec_serve::session::Merge;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The ids a session has accepted.
pub type KnownIds = IdTable<()>;

/// The standing commits per job.
pub type LiveCommits = IdTable<u32>;

/// The shipped table's public operations, each as the shipped session
/// spelled it on the settled map.
impl<V: Merge> IdTable<V> {
    pub fn insert(&mut self, id: JobId, v: V) -> Option<V> {
        self.settled().insert(id, v)
    }

    pub fn remove(&mut self, id: JobId) -> Option<V> {
        self.settled().remove(&id)
    }

    pub fn add(&mut self, id: JobId, v: V) {
        self.settled()
            .entry(id)
            .and_modify(|e| e.merge(v))
            .or_insert(v);
    }

    pub fn entries(&self) -> Vec<(JobId, V)> {
        let mut all: Vec<(JobId, V)> = self.resolved().into_iter().collect();
        all.sort_unstable_by_key(|&(id, _)| id.0);
        all
    }
}

impl LiveCommits {
    /// `OnlineSession::fail_site`'s loop body, for one stranded id.
    pub fn release(&mut self, id: JobId) {
        let live = self.settled();
        if let Some(n) = live.get_mut(&id) {
            *n -= 1;
            if *n == 0 {
                live.remove(&id);
            }
        }
    }
}

/// One of a session's job-id tables, held by shared ownership so that a
/// reshard barrier hands it over whole: exporting it is O(1), and
/// `transfer` moves only the ids of pending and
/// in-flight jobs one at a time.
///
/// The table a session builds is *settled*: one map. A table a reshard
/// seeds is *inherited*: the whole tables of the old sessions it takes
/// over, each less the ids that left it for other shards, plus the ids
/// moved in from them. The session's first change to an inherited table
/// unions the smaller tables into the largest. By then the old sessions
/// and their exports are gone, so the largest changes hands without a
/// copy, and from then on a lookup is one hash probe.
#[derive(Debug, Clone)]
pub struct IdTable<V> {
    /// Whole tables, each with the ids that left it.
    parts: Vec<Part<V>>,
    /// Entries moved in one at a time.
    moved_in: HashMap<JobId, V>,
}

#[derive(Debug, Clone)]
struct Part<V> {
    table: Arc<HashMap<JobId, V>>,
    left: HashSet<JobId>,
}

impl<V> Default for IdTable<V> {
    /// An empty settled table.
    fn default() -> IdTable<V> {
        IdTable {
            parts: vec![Part {
                table: Arc::default(),
                left: HashSet::new(),
            }],
            moved_in: HashMap::new(),
        }
    }
}

impl<V: Merge> IdTable<V> {
    /// An inheritance with nothing in it yet, for
    /// `transfer` to fill.
    pub(crate) fn inherit() -> IdTable<V> {
        IdTable {
            parts: Vec::new(),
            moved_in: HashMap::new(),
        }
    }

    fn is_settled(&self) -> bool {
        matches!(self.parts.as_slice(), [p] if p.left.is_empty()) && self.moved_in.is_empty()
    }

    /// The part a settle keeps: the largest table, the first of equals.
    fn largest(&self) -> Option<usize> {
        (0..self.parts.len())
            .rev()
            .max_by_key(|&i| self.parts[i].table.len())
    }

    /// Every entry outside part `keep` — each other part less the ids
    /// that left it, then the moved-in entries: what a settle unions into
    /// `keep`.
    fn rest(&self, keep: Option<usize>) -> impl Iterator<Item = (JobId, V)> + '_ {
        let others = self.parts.iter().enumerate();
        let others = others.filter(move |&(i, _)| Some(i) != keep);
        let held = others.flat_map(|(_, p)| {
            let held = p.table.iter().filter(|(id, _)| !p.left.contains(id));
            held.map(|(&id, &v)| (id, v))
        });
        held.chain(self.moved_in.iter().map(|(&id, &v)| (id, v)))
    }

    /// The entry for `id`: merged over every table that still holds it.
    pub(crate) fn get(&self, id: JobId) -> Option<V> {
        let held = self.parts.iter().filter(|p| !p.left.contains(&id));
        let mut entries = held
            .filter_map(|p| p.table.get(&id))
            .chain(self.moved_in.get(&id))
            .copied();
        let first = entries.next()?;
        Some(entries.fold(first, |mut v, w| {
            v.merge(w);
            v
        }))
    }

    /// The number of ids, counted once each however many inherited tables
    /// hold them. O(1) once settled; before that, O(the entries a settle
    /// would union).
    pub(crate) fn len(&self) -> usize {
        let Some(big) = self.largest() else {
            return self.moved_in.len();
        };
        let base = &self.parts[big];
        if self.is_settled() {
            return base.table.len();
        }
        let in_base = |id: &JobId| base.table.contains_key(id) && !base.left.contains(id);
        let extra: HashSet<JobId> = self.rest(Some(big)).map(|(id, _)| id).collect();
        let gone = base.left.iter().filter(|id| base.table.contains_key(id));
        base.table.len() - gone.count() + extra.iter().filter(|id| !in_base(id)).count()
    }

    /// The one map, after settling an inheritance. Copies the map only
    /// if something else (an export, an old session) still holds it.
    fn settled(&mut self) -> &mut HashMap<JobId, V> {
        if !self.is_settled() {
            let mut base = match self.largest() {
                Some(i) => self.parts.swap_remove(i),
                None => Part {
                    table: Arc::default(),
                    left: HashSet::new(),
                },
            };
            let table = Arc::make_mut(&mut base.table);
            for id in &base.left {
                table.remove(id);
            }
            for (id, v) in self.rest(None) {
                table.entry(id).and_modify(|e| e.merge(v)).or_insert(v);
            }
            base.left.clear();
            self.parts = vec![base];
            self.moved_in.clear();
        }
        Arc::make_mut(&mut self.parts[0].table)
    }

    /// Takes `whole` over as it is, less the ids in `left`; returns the
    /// entries handled one at a time (its own moved-in entries and the
    /// ids that left).
    pub(crate) fn take_over(&mut self, whole: &IdTable<V>, left: &HashSet<JobId>) -> usize {
        for p in &whole.parts {
            self.parts.push(Part {
                table: Arc::clone(&p.table),
                left: p.left.union(left).copied().collect(),
            });
        }
        for (&id, &v) in &whole.moved_in {
            if !left.contains(&id) {
                self.move_in(id, v);
            }
        }
        whole.moved_in.len() + left.len() * whole.parts.len()
    }

    /// Adds one entry moved in from another shard.
    pub(crate) fn move_in(&mut self, id: JobId, v: V) {
        self.moved_in
            .entry(id)
            .and_modify(|e| e.merge(v))
            .or_insert(v);
    }

    /// The entries the first settle handles one at a time: all but the
    /// largest table's.
    pub(crate) fn settle_cost(&self) -> usize {
        if self.is_settled() {
            return 0;
        }
        let big = self.largest();
        let parts = self.parts.iter().enumerate().map(|(i, p)| {
            let whole = if Some(i) == big { 0 } else { p.table.len() };
            whole + p.left.len()
        });
        parts.sum::<usize>() + self.moved_in.len()
    }

    /// The table as one map, unioned into a copy (test comparisons).
    fn resolved(&self) -> HashMap<JobId, V> {
        std::mem::take(self.clone().settled())
    }
}

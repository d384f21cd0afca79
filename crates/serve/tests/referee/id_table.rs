//! The referee of `gridsec-serve`'s accepted-id set: `KnownIds` as it
//! shipped while every whole set was a `HashMap` (commit c948d4e), before
//! the sets became compressed (`crates/serve/src/ids.rs`).
//! `id_tables.rs` drives it and the shipped `KnownIds` with the same
//! random operations and compares every answer; `id_budget.rs` measures
//! its memory beside the shipped one's.
//!
//! The body below the adapters is the replaced code with its value type
//! fixed to the accepted-id set's `()`: each `HashMap<JobId, ()>` is the
//! `HashSet<JobId>` it always was underneath. Do not "fix" it to match the
//! shipped path — a difference between the two is a finding. No shipped
//! crate calls anything here.

#![allow(dead_code)] // every suite uses its own subset

use gridsec_core::JobId;
use std::collections::HashSet;
use std::sync::Arc;

/// The shipped set's public operations, each as the shipped session
/// spelled it on the settled set.
impl KnownIds {
    pub fn insert(&mut self, id: JobId) -> bool {
        self.settled().insert(id)
    }

    pub fn remove(&mut self, id: JobId) -> bool {
        self.settled().remove(&id)
    }

    pub fn entries(&self) -> Vec<JobId> {
        let mut all: Vec<JobId> = self.resolved().into_iter().collect();
        all.sort_unstable_by_key(|id| id.0);
        all
    }
}

/// The ids a session has accepted, held by shared ownership so that a
/// reshard barrier hands them over whole: exporting them is O(1), and
/// `transfer` moves only the ids of pending and in-flight jobs one at a
/// time.
///
/// The set a session builds is *settled*: one set. A set a reshard seeds
/// is *inherited*: the whole sets of the old sessions it takes over, each
/// less the ids that left it for other shards, plus the ids moved in from
/// them. The session's first change to an inherited set unions the
/// smaller sets into the largest. By then the old sessions and their
/// exports are gone, so the largest changes hands without a copy, and
/// from then on a lookup is one hash probe.
#[derive(Debug, Clone)]
pub struct KnownIds {
    /// Whole sets, each with the ids that left it.
    parts: Vec<Part>,
    /// Ids moved in one at a time.
    moved_in: HashSet<JobId>,
}

#[derive(Debug, Clone)]
struct Part {
    table: Arc<HashSet<JobId>>,
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
            moved_in: HashSet::new(),
        }
    }
}

impl KnownIds {
    /// An inheritance with nothing in it yet, for `transfer` to fill.
    pub(crate) fn inherit() -> KnownIds {
        KnownIds {
            parts: Vec::new(),
            moved_in: HashSet::new(),
        }
    }

    fn is_settled(&self) -> bool {
        matches!(self.parts.as_slice(), [p] if p.left.is_empty()) && self.moved_in.is_empty()
    }

    /// The part a settle keeps: the largest set, the first of equals.
    fn largest(&self) -> Option<usize> {
        (0..self.parts.len())
            .rev()
            .max_by_key(|&i| self.parts[i].table.len())
    }

    /// Every id outside part `keep` — each other part less the ids that
    /// left it, then the moved-in ids: what a settle unions into `keep`.
    fn rest(&self, keep: Option<usize>) -> impl Iterator<Item = JobId> + '_ {
        let others = self.parts.iter().enumerate();
        let others = others.filter(move |&(i, _)| Some(i) != keep);
        let held = others.flat_map(|(_, p)| p.table.iter().filter(|id| !p.left.contains(id)));
        held.chain(&self.moved_in).copied()
    }

    /// Whether `id` is held by a set it did not leave, or moved in.
    pub(crate) fn contains(&self, id: JobId) -> bool {
        let mut held = self.parts.iter().filter(|p| !p.left.contains(&id));
        held.any(|p| p.table.contains(&id)) || self.moved_in.contains(&id)
    }

    /// The one set, after settling an inheritance. Copies the set only
    /// if something else (an export, an old session) still holds it.
    fn settled(&mut self) -> &mut HashSet<JobId> {
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
            table.extend(self.rest(None));
            base.left.clear();
            self.parts = vec![base];
            self.moved_in.clear();
        }
        Arc::make_mut(&mut self.parts[0].table)
    }

    /// Takes `whole` over as it is, less the ids in `left`; returns the
    /// ids handled one at a time (its own moved-in ids and the ids that
    /// left).
    pub(crate) fn take_over(&mut self, whole: &KnownIds, left: &HashSet<JobId>) -> usize {
        for p in &whole.parts {
            self.parts.push(Part {
                table: Arc::clone(&p.table),
                left: p.left.union(left).copied().collect(),
            });
        }
        for &id in &whole.moved_in {
            if !left.contains(&id) {
                self.move_in(id);
            }
        }
        whole.moved_in.len() + left.len() * whole.parts.len()
    }

    /// Adds one id moved in from another shard.
    pub(crate) fn move_in(&mut self, id: JobId) {
        self.moved_in.insert(id);
    }

    /// The ids the first settle handles one at a time: all but the
    /// largest set's.
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

    /// The set as one, unioned into a copy (test comparisons).
    fn resolved(&self) -> HashSet<JobId> {
        std::mem::take(self.clone().settled())
    }
}

//! The referee of `gridsec-serve`'s settled-commit ledger: the plain
//! `Vec<Placed>` a session kept every commit in (and the router kept the
//! archive of retired shards in) before both became compact ledgers
//! (`crates/serve/src/ledger.rs`). `ledger.rs` drives it and the shipped
//! `Ledger` with the same appends and compares what they hold;
//! `ledger_budget.rs` measures its memory beside the shipped one's.
//!
//! Do not "fix" it to match the shipped path — a difference between the
//! two is a finding. No shipped crate calls anything here.

#![allow(dead_code)] // every suite uses its own subset

use gridsec_serve::Placed;

/// Every commit, in commit order, 40 bytes each.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    committed: Vec<Placed>,
}

impl Ledger {
    pub fn push(&mut self, p: &Placed) {
        self.committed.push(*p);
    }

    pub fn extend(&mut self, other: impl IntoIterator<Item = Placed>) {
        self.committed.extend(other);
    }

    pub fn len(&self) -> usize {
        self.committed.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = Placed> + '_ {
        self.committed.iter().copied()
    }

    pub fn to_vec(&self) -> Vec<Placed> {
        self.committed.clone()
    }
}

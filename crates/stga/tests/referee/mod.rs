//! The referees of `gridsec-stga`'s fast paths — the slow originals, kept
//! word for word so the equivalence suites compare the shipped code with
//! the same source they always did:
//!
//! * [`evaluate_with_scratch`] (with [`evaluate`] and [`reset_scratch`]):
//!   the object-graph fitness walk the compiled
//!   [`FitnessKernel`](gridsec_stga::FitnessKernel) was lowered from and
//!   must match bit for bit (`tests/kernel_equivalence.rs`,
//!   `referee_checks.rs`);
//! * [`lookup_linear`]: the score-every-entry history lookup that
//!   [`HistoryTable::lookup`]'s bucket pruning must reproduce exactly
//!   (`tests/properties.rs`, `referee_checks.rs`).
//!
//! Pulled into each suite with `#[path]`/`mod`; no shipped crate calls
//! anything here. The selection referees sit beside this file in
//! `selection.rs` (they need `rand`, which the workspace-root suites that
//! pull this module in do not depend on).

#![allow(dead_code)] // every suite uses its own subset

use gridsec_core::etc::NodeAvailability;
use gridsec_core::Time;
use gridsec_heuristics::common::MapCtx;
use gridsec_stga::fitness::{FitnessKind, RiskWeights, DEFAULT_FLOW_WEIGHT};
use gridsec_stga::history::{BatchSignature, Entry, HistoryTable};
use gridsec_stga::Chromosome;

/// Above this ratio of retained capacity to live size, `reset_scratch`
/// releases the tail — hysteresis so ordinary batch-size jitter never
/// triggers a shrink, while a reconfiguration to a much smaller grid
/// stops pinning the old grid's buffers forever.
const SCRATCH_SHRINK_FACTOR: usize = 4;
/// Scratch capacity worth keeping regardless of ratio (tiny buffers are
/// not worth churning).
const SCRATCH_SHRINK_FLOOR: usize = 16;

/// Resets `scratch` to mirror `base` without reallocating inner buffers.
///
/// When a previous round left far more capacity than `base` now needs
/// (e.g. the grid was reconfigured down), the excess is released — see
/// [`SCRATCH_SHRINK_FACTOR`]; steady-state rounds never shrink, keeping
/// the hot path allocation-free.
pub fn reset_scratch(scratch: &mut Vec<NodeAvailability>, base: &[NodeAvailability]) {
    scratch.truncate(base.len());
    if scratch.capacity() > SCRATCH_SHRINK_FLOOR
        && scratch.capacity() / SCRATCH_SHRINK_FACTOR >= base.len()
    {
        scratch.shrink_to(base.len().max(SCRATCH_SHRINK_FLOOR));
    }
    for (i, b) in base.iter().enumerate() {
        if i < scratch.len() {
            scratch[i].clone_from(b);
        } else {
            scratch.push(b.clone());
        }
    }
}

/// Evaluates a chromosome against a caller-provided scratch availability
/// buffer (reused across calls — the hot path of the GA).
pub fn evaluate_with_scratch(
    ctx: &MapCtx,
    base_avail: &[NodeAvailability],
    scratch: &mut Vec<NodeAvailability>,
    chromosome: &Chromosome,
    kind: FitnessKind,
    risk: Option<&RiskWeights>,
    flow_weight: f64,
) -> f64 {
    debug_assert_eq!(chromosome.len(), ctx.n_jobs());
    reset_scratch(scratch, base_avail);
    let mut makespan = Time::ZERO;
    let mut sum_ct = 0.0;
    for j in ctx.order_iter() {
        let s = chromosome.site_of(j);
        let exec = ctx.etc.get(j, s);
        if !exec.is_finite() {
            return f64::INFINITY;
        }
        let exec = match kind {
            FitnessKind::Makespan => exec,
            FitnessKind::ExpectedMakespan => exec * risk.map_or(1.0, |r| r.get(j, s)),
        };
        let start = match scratch[s].earliest_start(ctx.widths[j], ctx.now.max(ctx.arrivals[j])) {
            Some(t) => t,
            None => return f64::INFINITY,
        };
        let ct = start + Time::new(exec);
        scratch[s].commit(ctx.widths[j], ct);
        makespan = makespan.max(ct);
        sum_ct += ct.seconds();
    }
    makespan.seconds() + flow_weight * (sum_ct / ctx.n_jobs() as f64)
}

/// Convenience wrapper allocating its own scratch buffer: replays the
/// chromosome's assignments (in batch order) and returns the fitness.
/// Infeasible genes (non-fitting sites) yield `f64::INFINITY`, so they can
/// never win selection.
pub fn evaluate(
    ctx: &MapCtx,
    base_avail: &[NodeAvailability],
    chromosome: &Chromosome,
    kind: FitnessKind,
    risk: Option<&RiskWeights>,
) -> f64 {
    let mut scratch = Vec::with_capacity(base_avail.len());
    evaluate_with_scratch(
        ctx,
        base_avail,
        &mut scratch,
        chromosome,
        kind,
        risk,
        DEFAULT_FLOW_WEIGHT,
    )
}

/// The pre-bucketing history lookup: scores every entry of `table` (in
/// entry order, read back through the table's own serialised form) and
/// returns up to `limit` chromosomes at least `threshold`-similar to
/// `query`, best first, ties in entry order. Unlike
/// [`HistoryTable::lookup`] it does not touch the LRU stamps, so it can
/// be asked about the very table the shipped lookup is about to search.
pub fn lookup_linear(
    table: &HistoryTable,
    query: &BatchSignature,
    threshold: f64,
    limit: usize,
) -> Vec<Chromosome> {
    #[derive(serde::Deserialize)]
    struct Wire {
        entries: Vec<Entry>,
    }
    let wire: Wire = serde_json::from_str(&table.to_json()).expect("history round-trips");
    let mut scored: Vec<(usize, f64)> = wire
        .entries
        .iter()
        .enumerate()
        .map(|(i, e)| (i, e.signature.similarity(query)))
        .filter(|&(_, s)| s >= threshold)
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1));
    scored.truncate(limit);
    scored
        .into_iter()
        .map(|(i, _)| wire.entries[i].chromosome.clone())
        .collect()
}

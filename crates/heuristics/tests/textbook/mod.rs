//! The textbook O(n²·m) mapping loops: a full rescan of every unassigned
//! job's candidates each round, sequential first-strictly-better
//! selection. They are the behavioural referee for the shipped loops in
//! `gridsec_heuristics::mapping`, which must match them bit for bit —
//! mapping order, sites and final availability.

use gridsec_core::etc::NodeAvailability;
use gridsec_core::Time;
use gridsec_heuristics::common::MapCtx;

/// Textbook Min-Min.
pub fn map_min_min(ctx: &MapCtx, avail: &mut [NodeAvailability]) -> Vec<(usize, usize)> {
    map_by_best(ctx, avail, |best, incumbent| best < incumbent)
}

/// Textbook Max-Min.
pub fn map_max_min(ctx: &MapCtx, avail: &mut [NodeAvailability]) -> Vec<(usize, usize)> {
    map_by_best(ctx, avail, |best, incumbent| best > incumbent)
}

fn map_by_best(
    ctx: &MapCtx,
    avail: &mut [NodeAvailability],
    prefer: impl Fn(Time, Time) -> bool,
) -> Vec<(usize, usize)> {
    let n = ctx.n_jobs();
    let mut unassigned: Vec<usize> = (0..n).collect();
    let mut out = Vec::with_capacity(n);
    while !unassigned.is_empty() {
        let mut pick: Option<(usize, usize, Time)> = None; // (pos, site, ct)
        for (pos, &j) in unassigned.iter().enumerate() {
            let (s, ct) = ctx
                .best(avail, j)
                .expect("every batch job has a feasible candidate");
            if pick.is_none_or(|(_, _, t)| prefer(ct, t)) {
                pick = Some((pos, s, ct));
            }
        }
        let (pos, site, _) = pick.expect("non-empty unassigned set");
        let job = unassigned.remove(pos);
        ctx.commit(avail, job, site);
        out.push((job, site));
    }
    out
}

/// Textbook Sufferage.
pub fn map_sufferage(ctx: &MapCtx, avail: &mut [NodeAvailability]) -> Vec<(usize, usize)> {
    let n = ctx.n_jobs();
    let mut unassigned: Vec<usize> = (0..n).collect();
    let mut out = Vec::with_capacity(n);
    while !unassigned.is_empty() {
        let mut pick: Option<(usize, usize, Time)> = None; // (pos, site, sufferage)
        for (pos, &j) in unassigned.iter().enumerate() {
            let (s, best, second) = ctx
                .best_two(avail, j)
                .expect("every batch job has a feasible candidate");
            let sufferage = second - best;
            if pick.is_none_or(|(_, _, v)| sufferage > v) {
                pick = Some((pos, s, sufferage));
            }
        }
        let (pos, site, _) = pick.expect("non-empty unassigned set");
        let job = unassigned.remove(pos);
        ctx.commit(avail, job, site);
        out.push((job, site));
    }
    out
}

//! Low-level batch-mapping algorithms over explicit ETC matrices.
//!
//! These functions implement the two-phase greedy loops of Min-Min,
//! Max-Min and Sufferage against a [`MapCtx`] and a mutable availability
//! state, returning `(job, site)` pairs in dispatch order. They are pure
//! with respect to the grid: tests drive them with hand-written
//! (including inconsistent) ETC matrices such as the paper's Fig. 2
//! example.
//!
//! ## Hot-path structure
//!
//! The textbook loops (the referee in `tests/textbook/`) are O(n²·m): every
//! round rescans every unassigned job's candidates. The three mappers here
//! share one loop, `map_by_key`, that is **bit-identical** to them (the
//! property suite asserts it on random and NAS-shaped instances):
//!
//! * **One completion-time plane.** The CT of every (job, candidate) cell,
//!   computed with the same `Time` operations as [`MapCtx::completion`],
//!   plus a per-job record of best site, best CT and second-best CT.
//! * **A commit refreshes one column.** Committing to site `s` changes only
//!   `avail[s]`: one `free[w-1].at_least(floor) + exec` per remaining job.
//!   A record is touched only if `s` held its best or second-best — O(1)
//!   while `s` stays the unique minimum, otherwise re-derived from the
//!   job's *cached* row (a "rescan").
//! * **One selection key.** The mappers differ only in the key they
//!   minimise (`best`, `−best`, `−(second − best)`); the argmin rides along
//!   with the column refresh and keeps the first job on ties.
//!
//! Cells and keys are `ord_key`s — `i64`s that order exactly like `Time`
//! — and a cell the job cannot use (not a candidate, non-finite ETC, width
//! 0 or wider than the site) is `ABSENT`, which no `Time` maps to: it is
//! left out of every scan, unlike a real `+∞` CT, which still counts as a
//! second-best.

use crate::common::MapCtx;
use gridsec_core::etc::NodeAvailability;
use gridsec_core::Time;

/// Min-Min: repeatedly pick the unassigned job whose *best* completion
/// time is smallest, and assign it there. Ties break on lower job index,
/// then the earlier site in the job's candidate list (deterministic).
pub fn map_min_min(ctx: &MapCtx, avail: &mut [NodeAvailability]) -> Vec<(usize, usize)> {
    map_by_key(ctx, avail, |best, _| best)
}

/// Max-Min: the dual — pick the unassigned job whose best completion time
/// is *largest* (runs long jobs early).
pub fn map_max_min(ctx: &MapCtx, avail: &mut [NodeAvailability]) -> Vec<(usize, usize)> {
    map_by_key(ctx, avail, |best, _| !best)
}

/// Sufferage: repeatedly pick the unassigned job with the largest
/// *sufferage* (second-best CT − best CT) and assign it to its best site.
/// A job with a single candidate has sufferage 0.
pub fn map_sufferage(ctx: &MapCtx, avail: &mut [NodeAvailability]) -> Vec<(usize, usize)> {
    map_by_key(ctx, avail, |best, second| {
        !ord_key(key_time(second) - key_time(best))
    })
}

/// A plane cell the job cannot use: above every real CT (`+∞` included)
/// and the `ord_key` of no `Time` — its bit pattern is a NaN.
const ABSENT: i64 = i64::MAX;

/// Maps a `Time` to an `i64` with the same total order (the transform
/// `f64::total_cmp` applies to both sides); `!key` reverses the order.
fn ord_key(t: Time) -> i64 {
    flip(t.seconds().to_bits() as i64)
}

/// Inverse of [`ord_key`].
fn key_time(key: i64) -> Time {
    Time::new(f64::from_bits(flip(key) as u64))
}

/// Flips the magnitude bits of negative values (an involution).
fn flip(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// What the loop keeps per job, beside the job's row of the plane.
struct Record {
    /// Node width, the start-time floor `now.max(arrival)`, and [`rescan`]'s
    /// result.
    width: usize,
    floor: Time,
    site: usize,
    best: i64,
    second: i64,
    /// The selection key of (`best`, `second`); the smallest is mapped next.
    key: i64,
}

/// What [`MapCtx::best_two`] computes, from the job's cached row: the
/// first site in candidate-list order holding the smallest CT, that CT, and
/// the smallest CT over the other entries (the best again if there is none).
fn rescan(row: &[i64], candidates: &[usize]) -> (usize, i64, i64) {
    let (mut site, mut best, mut second) = (usize::MAX, ABSENT, ABSENT);
    for &s in candidates {
        let ct = row[s];
        // The larger of the cell and the best so far is a runner-up.
        second = second.min(ct.max(best));
        if ct < best {
            (site, best) = (s, ct);
        }
    }
    assert!(best != ABSENT, "every batch job has a feasible candidate");
    (site, best, if second == ABSENT { best } else { second })
}

/// The loop behind all three mappers (see the module docs): map the job with
/// the smallest `key_of(best, second)` to its best site, refresh that column.
fn map_by_key(
    ctx: &MapCtx,
    avail: &mut [NodeAvailability],
    key_of: impl Fn(i64, i64) -> i64,
) -> Vec<(usize, usize)> {
    let (n, m, etc) = (ctx.n_jobs(), ctx.etc.n_sites(), ctx.etc.raw());
    let span = gridsec_obs::span!("map", jobs = n => rescans);
    let mut rescans = 0i64;

    // The result outlives the call: allocated first, it sits below the
    // transient plane and records instead of pinning their freed space.
    let mut out = Vec::with_capacity(n);
    let mut plane = vec![ABSENT; n * m];
    let mut records: Vec<Record> = Vec::with_capacity(n);
    // (position in `remaining`, key) of the next job to map: the first
    // strictly smaller key wins, so ties stay with the lowest job index.
    let mut pick = (0, i64::MAX);
    for j in 0..n {
        let row = &mut plane[j * m..(j + 1) * m];
        for &s in &ctx.candidates[j] {
            if let Some(ct) = ctx.completion(avail, j, s) {
                row[s] = ord_key(ct);
            }
        }
        let (site, best, second) = rescan(row, &ctx.candidates[j]);
        let key = key_of(best, second);
        if key < pick.1 {
            pick = (j, key);
        }
        records.push(Record {
            width: ctx.widths[j] as usize,
            floor: ctx.now.max(ctx.arrivals[j]),
            site,
            best,
            second,
            key,
        });
    }

    let mut remaining: Vec<usize> = (0..n).collect();
    while !remaining.is_empty() {
        let job = remaining.remove(pick.0);
        let site = records[job].site;
        ctx.commit(avail, job, site);
        out.push((job, site));
        pick = (0, i64::MAX);

        // Only `avail[site]` moved, so only column `site` can.
        let free = avail[site].free_times();
        for (pos, &j) in remaining.iter().enumerate() {
            let r = &mut records[j];
            let row = &mut plane[j * m..(j + 1) * m];
            let old = row[site];
            if old != ABSENT {
                let ct = free[r.width - 1].at_least(r.floor) + Time::new(etc[j * m + site]);
                let new = ord_key(ct);
                row[site] = new;
                // Only a cell that held the best or second-best matters (or
                // one that moved earlier: a negative execution time).
                if new != old && (old <= r.second || new < old) {
                    if site == r.site && old < new && new < r.second {
                        r.best = new;
                    } else {
                        (r.site, r.best, r.second) = rescan(row, &ctx.candidates[j]);
                        rescans += 1;
                    }
                    r.key = key_of(r.best, r.second);
                }
            }
            if r.key < pick.1 {
                pick = (pos, r.key);
            }
        }
    }
    span.end_with(rescans);
    out
}

/// Makespan implied by a mapping: latest committed completion time. Takes
/// a *fresh* availability state and replays the mapping.
pub fn mapping_makespan(
    ctx: &MapCtx,
    mut avail: Vec<NodeAvailability>,
    mapping: &[(usize, usize)],
) -> Time {
    let mut makespan = Time::ZERO;
    for &(j, s) in mapping {
        let ct = ctx.commit(&mut avail, j, s);
        makespan = makespan.max(ct);
    }
    makespan
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_core::etc::EtcMatrix;

    /// A hand-constructed inconsistent ETC instance in the spirit of the
    /// paper's Fig. 2: three jobs, two single-node sites. Min-Min commits
    /// J2 then J1 to S1 and forces J3 late (makespan 14); Sufferage sees
    /// J3's huge penalty on S2, gives it S1 first, and finishes at 11.
    fn fig2_ctx() -> (MapCtx, Vec<NodeAvailability>) {
        // Rows J1..J3, columns S1, S2.
        let etc = EtcMatrix::from_raw(3, 2, vec![4.0, 8.0, 3.0, 6.0, 7.0, 18.0]);
        let ctx = MapCtx {
            etc,
            widths: vec![1, 1, 1],
            arrivals: vec![Time::ZERO; 3],
            candidates: vec![vec![0, 1]; 3],
            now: Time::ZERO,
            commit_order: vec![],
        };
        let avail = vec![
            NodeAvailability::new(1, Time::ZERO),
            NodeAvailability::new(1, Time::ZERO),
        ];
        (ctx, avail)
    }

    #[test]
    fn fig2_min_min_schedules_smallest_first() {
        let (ctx, mut avail) = fig2_ctx();
        let mapping = map_min_min(&ctx, &mut avail);
        // J2 (index 1) has the smallest earliest ETC (3 on S1) — first.
        assert_eq!(mapping[0], (1, 0));
        // Then J1 stays on S1 (3+4=7 beats 8 on S2), trapping J3.
        assert_eq!(mapping[1], (0, 0));
        assert_eq!(mapping[2], (2, 0));
        let (ctx, avail) = fig2_ctx();
        let ms = mapping_makespan(&ctx, avail, &mapping);
        assert_eq!(ms, Time::new(14.0));
    }

    #[test]
    fn fig2_sufferage_rescues_the_suffering_job() {
        let (ctx, mut avail) = fig2_ctx();
        let mapping = map_sufferage(&ctx, &mut avail);
        // J3 (index 2) suffers most (18 − 7 = 11) — scheduled first to S1.
        assert_eq!(mapping[0], (2, 0));
        let (ctx, avail) = fig2_ctx();
        let ms = mapping_makespan(&ctx, avail, &mapping);
        assert_eq!(ms, Time::new(11.0));
    }

    #[test]
    fn fig2_sufferage_beats_min_min() {
        let (ctx, mut a1) = fig2_ctx();
        let mm = map_min_min(&ctx, &mut a1);
        let (ctx2, mut a2) = fig2_ctx();
        let sf = map_sufferage(&ctx2, &mut a2);
        let (ctx3, a3) = fig2_ctx();
        let ms_mm = mapping_makespan(&ctx3, a3.clone(), &mm);
        let ms_sf = mapping_makespan(&ctx3, a3, &sf);
        assert!(ms_sf < ms_mm, "sufferage {ms_sf} vs min-min {ms_mm}");
    }

    #[test]
    fn max_min_runs_long_jobs_first() {
        let (ctx, mut avail) = fig2_ctx();
        let mapping = map_max_min(&ctx, &mut avail);
        // J3's best CT (7) is the largest best — scheduled first.
        assert_eq!(mapping[0], (2, 0));
    }

    #[test]
    fn all_mappings_cover_each_job_once() {
        let (ctx, a) = fig2_ctx();
        for f in [map_min_min, map_max_min, map_sufferage] {
            let mut avail = a.clone();
            let m = f(&ctx, &mut avail);
            let mut jobs: Vec<usize> = m.iter().map(|&(j, _)| j).collect();
            jobs.sort_unstable();
            assert_eq!(jobs, vec![0, 1, 2]);
        }
    }

    #[test]
    fn candidates_restrict_assignments() {
        let etc = EtcMatrix::from_raw(2, 2, vec![1.0, 10.0, 1.0, 10.0]);
        let ctx = MapCtx {
            etc,
            widths: vec![1, 1],
            arrivals: vec![Time::ZERO; 2],
            // Job 0 may only use the slow site 1.
            candidates: vec![vec![1], vec![0, 1]],
            now: Time::ZERO,
            commit_order: vec![],
        };
        let mut avail = vec![
            NodeAvailability::new(1, Time::ZERO),
            NodeAvailability::new(1, Time::ZERO),
        ];
        let m = map_min_min(&ctx, &mut avail);
        let schedule = gridsec_core::BatchSchedule::from_pairs(
            m.iter()
                .map(|&(j, s)| (gridsec_core::JobId(j as u64), gridsec_core::SiteId(s))),
        );
        let site_of = |j: u64| schedule.site_of(gridsec_core::JobId(j)).unwrap().0;
        assert_eq!(site_of(0), 1);
        assert_eq!(site_of(1), 0);
    }

    #[test]
    fn ord_key_orders_like_time_and_round_trips() {
        let tiny = f64::MIN_POSITIVE;
        let times = [
            f64::NEG_INFINITY,
            -7.5,
            -tiny,
            -0.0,
            0.0,
            tiny,
            7.5,
            f64::INFINITY,
        ];
        for a in times.map(Time::new) {
            assert_eq!(
                key_time(ord_key(a)).seconds().to_bits(),
                a.seconds().to_bits()
            );
            assert!(ord_key(a) < ABSENT);
            for b in times.map(Time::new) {
                assert_eq!(ord_key(a).cmp(&ord_key(b)), a.cmp(&b), "{a} vs {b}");
                assert_eq!((!ord_key(a)).cmp(&!ord_key(b)), b.cmp(&a), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn arrival_floor_delays_start() {
        let etc = EtcMatrix::from_raw(1, 1, vec![5.0]);
        let ctx = MapCtx {
            etc,
            widths: vec![1],
            arrivals: vec![Time::new(100.0)],
            candidates: vec![vec![0]],
            now: Time::new(50.0),
            commit_order: vec![],
        };
        let avail = vec![NodeAvailability::new(1, Time::ZERO)];
        let mut a = avail.clone();
        let m = map_min_min(&ctx, &mut a);
        let ms = mapping_makespan(&ctx, avail, &m);
        // Start no earlier than the arrival (100), not `now` (50).
        assert_eq!(ms, Time::new(105.0));
    }
}

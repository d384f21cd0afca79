//! A warm [`GaPool`] must make a scheduling round allocation-free but for
//! its result: four rounds through one pre-warmed pool allocate at least
//! 4× less than the same four rounds with a cold pool each — and return
//! the same results — and one warm round allocates exactly the returned
//! best genome and trajectory. Counted exactly under a counting global
//! allocator, which is process-wide: this binary holds exactly one
//! `#[test]`.

use gridsec_core::etc::{EtcMatrix, NodeAvailability};
use gridsec_core::rng::{stream, Stream};
use gridsec_core::Time;
use gridsec_heuristics::common::MapCtx;
use gridsec_stga::fitness::FitnessKind;
use gridsec_stga::{evolve, evolve_with_pool, GaParams, GaPool, GaResult};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations performed while running `work`.
fn count_allocs<R>(work: impl FnOnce() -> R) -> (u64, R) {
    let start = ALLOCATIONS.load(Ordering::Relaxed);
    let r = work();
    (ALLOCATIONS.load(Ordering::Relaxed) - start, r)
}

#[test]
fn warm_pool_rounds_allocate_at_least_4x_less_than_cold_rounds() {
    let (n, m) = (16, 6);
    let etc: Vec<f64> = (0..n * m)
        .map(|i| 5.0 + ((i * 131 + 17) % 251) as f64)
        .collect();
    let candidates: Vec<Vec<usize>> = (0..n)
        .map(|j| {
            let mut c: Vec<usize> = (0..m).filter(|&s| (j * 7 + s * 13) % 2 == 0).collect();
            if c.is_empty() {
                c.push(j % m);
            }
            c
        })
        .collect();
    let ctx = MapCtx {
        etc: EtcMatrix::from_raw(n, m, etc),
        widths: vec![1; n],
        arrivals: vec![Time::ZERO; n],
        candidates,
        now: Time::ZERO,
        commit_order: vec![],
    };
    let avail = vec![NodeAvailability::new(2, Time::ZERO); m];
    let seed = 2005;
    let params = GaParams::default()
        .with_population(60)
        .with_generations(12)
        .with_seed(seed);
    let rounds = 0..4u64;

    // The daemon's steady state: the pool has served a round already.
    let mut pool = GaPool::new();
    let mut rng = stream(seed, Stream::Genetic);
    let kind = FitnessKind::Makespan;
    evolve_with_pool(
        &ctx,
        &avail,
        vec![],
        &params,
        kind,
        None,
        &mut rng,
        &mut pool,
    );

    let (cold_allocs, cold): (u64, Vec<GaResult>) = count_allocs(|| {
        rounds
            .clone()
            .map(|round| {
                let mut rng = stream(seed + round, Stream::Genetic);
                evolve(&ctx, &avail, vec![], &params, kind, None, &mut rng)
            })
            .collect()
    });
    let (warm_allocs, warm): (u64, Vec<GaResult>) = count_allocs(|| {
        rounds
            .clone()
            .map(|round| {
                let mut rng = stream(seed + round, Stream::Genetic);
                evolve_with_pool(
                    &ctx,
                    &avail,
                    vec![],
                    &params,
                    kind,
                    None,
                    &mut rng,
                    &mut pool,
                )
            })
            .collect()
    });

    assert_eq!(cold, warm, "the pool's warmth must never reach a result");
    assert!(
        warm_allocs * 4 <= cold_allocs,
        "population pool must cut allocations ≥ 4× (cold {cold_allocs}, warm {warm_allocs})"
    );

    // Counted, not timed: a warm round's two allocations are the
    // `GaResult`'s best genome and trajectory.
    let (round_allocs, _) = count_allocs(|| {
        let mut rng = stream(seed, Stream::Genetic);
        evolve_with_pool(
            &ctx,
            &avail,
            vec![],
            &params,
            kind,
            None,
            &mut rng,
            &mut pool,
        )
    });
    assert_eq!(round_allocs, 2, "a warm round allocates only its result");
}

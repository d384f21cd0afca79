//! Memory budget of a session's accepted-id set, counted rather than
//! timed so it holds on any host. A counting global allocator (requested bytes
//! live, and one count per `alloc` or `realloc`) makes this its own test
//! binary, with a single test so nothing else allocates while it counts.
//!
//! At 10⁶ ids, per id: ids in order and every other id (one of two shards
//! sharing a counter) cost at most one byte, and ids drawn uniformly from
//! all of `u64` cost no more than in the `HashMap` the set was until it
//! became compressed (`referee/id_table.rs`: about 18.9 bytes per id
//! right after its last resize). And 10⁴ ids in order allocate once per
//! new chunk, plus what the sparse tier allocates before the first chunk
//! becomes a bitmap.

#[path = "referee/id_table.rs"]
mod referee;

use gridsec_core::JobId;
use gridsec_serve::session::KnownIds;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const N: u64 = 1_000_000;

/// Requested bytes per id that `build` leaves live, and the allocations
/// it made.
fn cost<T>(build: impl FnOnce() -> T) -> (f64, usize) {
    let (bytes, allocs) = (LIVE.load(Ordering::Relaxed), ALLOCS.load(Ordering::Relaxed));
    let table = black_box(build());
    let bytes = LIVE.load(Ordering::Relaxed) - bytes;
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs;
    drop(table);
    (bytes as f64 / N as f64, allocs)
}

/// One shape of 10⁶ ids, drawn afresh on each call.
type Ids = Box<dyn Iterator<Item = JobId>>;

fn in_order() -> Ids {
    Box::new((0..N).map(JobId))
}

fn every_other() -> Ids {
    Box::new((0..N).map(|i| JobId(2 * i)))
}

/// SplitMix64 from a fixed seed.
fn random_u64() -> Ids {
    let mut state = 2005u64;
    Box::new((0..N).map(move |_| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        JobId(z ^ (z >> 31))
    }))
}

/// Bytes per id of an accepted-id set, shipped and referee.
fn per_id(ids: fn() -> Ids) -> [f64; 2] {
    let known = cost(|| {
        let mut t = KnownIds::default();
        ids().for_each(|id| assert!(t.insert(id)));
        t
    });
    let known_ref = cost(|| {
        let mut t = referee::KnownIds::default();
        ids().for_each(|id| assert!(t.insert(id)));
        t
    });
    [known.0, known_ref.0]
}

#[test]
fn id_tables_stay_within_their_byte_and_allocation_budgets() {
    let shapes = [
        ("in order", in_order as fn() -> Ids),
        ("every other", every_other),
        ("random u64", random_u64),
    ];
    for (name, ids) in shapes {
        let [known, known_ref] = per_id(ids);
        println!("{name}: bytes per id {known:.2} (HashMap {known_ref:.2})");
        if name == "random u64" {
            assert!(known <= known_ref, "{name}: {known} > {known_ref}");
        } else {
            assert!(known <= 1.0, "{name}: {known}");
        }
    }

    // What the sparse tier allocates on the way to its one promotion:
    // the 63 ids of a chunk before the 64th makes it a bitmap.
    let (_, sparse) = cost(|| {
        let mut t = KnownIds::default();
        (0..63).for_each(|i| assert!(t.insert(JobId(i))));
        t
    });
    // 10⁴ ids in order span three chunks: the first promoted, each later
    // one a bitmap at once (one allocation), plus the first bitmap and
    // the chunk index's one node.
    let (_, allocs) = cost(|| {
        let mut t = KnownIds::default();
        (0..10_000).for_each(|i| assert!(t.insert(JobId(i))));
        t
    });
    println!("10^4 ids in order: {allocs} allocations ({sparse} before the promotion)");
    assert!(
        allocs <= sparse + 2 + 2,
        "{allocs} allocations, {sparse} sparse"
    );
}

//! Allocation budget of the wire codec, counted rather than timed so it
//! holds on any host: decoding gridbench-shaped submit frames of 1 and 16
//! jobs, and encoding one `accepted` reply. A counting global allocator
//! (one count per `alloc` or `realloc`) makes this its own test binary,
//! with a single test so nothing else allocates while it counts.
//!
//! At c8a9ccb, when derived `Deserialize` cloned every field and the
//! writer formatted numbers through temporary `String`s, the counts were
//! 39, 328 and 17; at b40caca, when every frame was still parsed into a
//! `Value` tree and every reply built one, they were 15, 107 and 8.

use gridsec_core::{Job, Time};
use gridsec_serve::protocol::{encode, parse_request};
use gridsec_serve::{Request, Response};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by one call of `f` (after one warm-up call, so lazy
/// one-time state is not counted).
fn allocations<T>(mut f: impl FnMut() -> T) -> usize {
    black_box(f());
    let before = ALLOCS.load(Ordering::Relaxed);
    black_box(f());
    ALLOCS.load(Ordering::Relaxed) - before
}

/// A submit frame as gridbench's `FramePool` writes it: shard and tenant
/// first, then `n` jobs in the program's own serialisation.
fn submit_frame(n: u64) -> Vec<u8> {
    let jobs: Vec<String> = (0..n)
        .map(|id| {
            let job = Job::builder(1_000 + id)
                .arrival(Time::new(12.5 + id as f64))
                .width(1 + (id % 4) as u32)
                .work(1234.5678 + id as f64 * 17.25)
                .security_demand(0.6 + (id % 7) as f64 * 0.05)
                .build()
                .unwrap();
            serde_json::to_string(&job).unwrap()
        })
        .collect();
    format!(
        "{{\"type\":\"submit\",\"shard\":1,\"tenant\":\"gb\",\"jobs\":[{}]}}",
        jobs.join(",")
    )
    .into_bytes()
}

#[test]
fn the_codec_stays_within_its_allocation_budget() {
    let one = submit_frame(1);
    let sixteen = submit_frame(16);
    for frame in [&one, &sixteen] {
        assert!(matches!(
            parse_request(frame),
            Ok(Some(Request::Submit { .. }))
        ));
    }
    let accepted = Response::Accepted {
        jobs: 16,
        shard: 1,
        pending: 211,
        rounds: 4_096,
    };
    // (what, allocations, budget): only what the value keeps — the
    // `Vec<Job>` (growing 4 → 8 → 16 for sixteen jobs) and the tenant —
    // and the output line.
    let counts = [
        (
            "decode 1-job submit",
            allocations(|| parse_request(&one)),
            2,
        ),
        (
            "decode 16-job submit",
            allocations(|| parse_request(&sixteen)),
            4,
        ),
        ("encode accepted", allocations(|| encode(&accepted)), 1),
    ];
    let table: String = counts
        .iter()
        .map(|(what, count, budget)| format!("\n  {what}: {count} allocations (budget {budget})"))
        .collect();
    assert!(
        counts.iter().all(|(_, count, budget)| count <= budget),
        "over budget:{table}"
    );
}

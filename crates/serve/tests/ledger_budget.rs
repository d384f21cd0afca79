//! Memory budget of the settled-commit ledger, counted rather than timed
//! so it holds on any host. A counting global allocator (requested bytes
//! live) makes this its own test binary, with a single test so nothing
//! else allocates while it counts.
//!
//! At 10⁶ commits shaped like a benchmark daemon shard's — ids ascending
//! two apart (one of two shards sharing the id counter), wall-clock
//! instants a few seconds into the run, width-1 jobs of at most half a
//! millisecond on a 20-site grid placed by minimum completion time in
//! 16-job rounds — a ledger holds at most 16 requested bytes per entry.
//! With every field random (ids from all of `u64`, any site below 2¹⁶,
//! any width, times anywhere on the line) it holds at most 48. The
//! `Vec<Placed>` it replaced (`referee/ledger.rs`) holds 40 and up to
//! twice that right after a resize.

#[path = "referee/ledger.rs"]
mod referee;

use gridsec_core::{JobId, SiteId, Time};
use gridsec_serve::{Ledger, Placed};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicIsize, Ordering};

struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const N: usize = 1_000_000;

/// SplitMix64 from a fixed seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A benchmark shard's commits: `wire-mct-c256`'s PSA grid (20 one-node
/// sites, speeds 1–10), work squeezed to at most 5·10⁻⁴ reference
/// seconds in 20 levels, ids `1, 3, 5, …`, and a 16-job round every
/// ≈ 0.2 ms of wall clock, starting 3 s after boot, each job on the site
/// that completes it first.
fn benchmark_shaped() -> Vec<Placed> {
    let mut rng = Rng(2005);
    let speeds: Vec<f64> = (0..20).map(|s| f64::from(1 + s % 10)).collect();
    let mut free = vec![0.0f64; speeds.len()];
    let mut now = 3.0;
    let mut out = Vec::with_capacity(N);
    for i in 0..N {
        if i % 16 == 0 {
            now += 1e-4 + 2e-4 * rng.unit();
        }
        let work = 5e-4 * (1 + rng.next() % 20) as f64 / 20.0;
        let (site, start, end) = (0..speeds.len())
            .map(|s| {
                let start = free[s].max(now);
                (s, start, start + work / speeds[s])
            })
            .min_by(|a, b| a.2.total_cmp(&b.2))
            .expect("sites");
        free[site] = end;
        out.push(Placed {
            job: JobId(2 * i as u64 + 1),
            site: SiteId(site),
            width: 1,
            start: Time::new(start),
            end: Time::new(end),
        });
    }
    out
}

/// Every field random.
fn random() -> Vec<Placed> {
    let mut rng = Rng(44);
    let time = |rng: &mut Rng| loop {
        let t = f64::from_bits(rng.next());
        if !t.is_nan() {
            return Time::new(t);
        }
    };
    (0..N)
        .map(|_| Placed {
            job: JobId(rng.next()),
            site: SiteId((rng.next() % 65_536) as usize),
            width: rng.next() as u32,
            start: time(&mut rng),
            end: time(&mut rng),
        })
        .collect()
}

/// Requested bytes per entry that `build` leaves live.
fn per_entry<T>(build: impl FnOnce() -> T) -> f64 {
    let before = LIVE.load(Ordering::Relaxed);
    let ledger = black_box(build());
    let bytes = LIVE.load(Ordering::Relaxed) - before;
    drop(ledger);
    bytes as f64 / N as f64
}

#[test]
fn a_ledger_entry_costs_at_most_16_bytes_in_order_and_48_at_random() {
    for (name, entries, bound) in [
        ("benchmark-shaped", benchmark_shaped(), 16.0),
        ("random", random(), 48.0),
    ] {
        let shipped = per_entry(|| {
            let mut l = Ledger::new();
            entries.iter().for_each(|p| l.push(p));
            l
        });
        let reference = per_entry(|| {
            let mut l = referee::Ledger::default();
            entries.iter().for_each(|p| l.push(p));
            l
        });
        println!("{name}: {shipped:.2} bytes per entry (Vec<Placed>: {reference:.2})");
        assert!(
            shipped <= bound,
            "{name}: {shipped} bytes per entry > {bound}"
        );
    }
}

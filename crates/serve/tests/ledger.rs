//! The compact settled-commit ledger ≡ its referee. `Ledger` stores each
//! commit as a zigzag-varint id delta, a varint site, a varint width with
//! a flag for "starts where the site's last entry ended", and the non-zero
//! bytes of `start` XOR the previous `start` (unless flagged) and of `end`
//! XOR its own `start`, in sealed blocks of 4 096 entries; the referee in
//! `referee/ledger.rs` is the `Vec<Placed>` it replaced. Both take the same
//! random appends, and iteration and `to_vec()` must give back every
//! field bit for bit (`-0.0` is not `+0.0` here, though `Time` compares
//! them equal).
//!
//! The appends cross block edges (lengths around multiples of 4 096),
//! and the values are hostile: job ids descending, 0, `u64::MAX` and
//! random; sites up to 65 535 and widths up to `u32::MAX`; times `-0.0`,
//! subnormal, `+∞` and `-∞`, with equal and unequal neighbours, and
//! starts equal to the last end on their site (below and above the 256
//! sites the encoder remembers). The
//! router's order — archived commits of retired shards first (appended
//! one exported schedule after another), then the live shards in shard
//! order — is checked the same way.

#[path = "referee/ledger.rs"]
mod referee;

use gridsec_core::{JobId, SiteId, Time};
use gridsec_serve::ledger::{BLOCK, SITE_MEMORY};
use gridsec_serve::{Ledger, Placed};
use std::collections::HashMap;

/// SplitMix64: a seeded stream with no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }
}

/// Instants no arithmetic on schedules usually meets, and ones it does.
const HOSTILE_TIMES: [f64; 10] = [
    0.0,
    -0.0,
    5e-324,                   // the smallest subnormal
    2.225_073_858_507_2e-308, // the largest subnormal
    f64::MIN_POSITIVE,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MAX,
    1.0,
    -1.5,
];

/// One append stream: ids, sites, widths and times each drawn from one of
/// several shapes, so neighbours are equal, close, far or hostile.
struct Gen {
    rng: Rng,
    job: u64,
    start: f64,
    /// The last end on each site.
    site_end: HashMap<usize, f64>,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            rng: Rng(seed),
            job: 0,
            start: 0.0,
            site_end: HashMap::new(),
        }
    }

    fn next(&mut self) -> Placed {
        let r = &mut self.rng;
        self.job = match r.below(6) {
            0 => self.job.wrapping_add(1),
            1 => self.job.wrapping_add(2),
            2 => self.job.wrapping_sub(1 + r.below(1000)), // descending
            3 => r.pick(&[0, u64::MAX, u64::MAX - 1, 1 << 63]),
            _ => r.next(),
        };
        let site = match r.below(3) {
            0 => r.below(20),
            1 => r.pick(&[0, 127, 128, 255, 256, 65_535]),
            _ => r.below(65_536),
        } as usize;
        let width = match r.below(3) {
            0 => 1,
            1 => r.pick(&[0, 127, 128, u32::MAX]),
            _ => r.next() as u32,
        };
        self.start = match r.below(8) {
            0 => self.start, // equal neighbour
            // A busy site: the job starts where the site's last one ended.
            6 | 7 => self.site_end.get(&site).copied().unwrap_or(0.0),
            1 => self.start + r.below(1_000) as f64 * 1e-6,
            2 => r.pick(&HOSTILE_TIMES),
            3 => f64::from_bits(r.next() >> 1 | r.next() & (1 << 63)).max(-1e300),
            _ => r.below(1 << 40) as f64 / 1e6,
        };
        if self.start.is_nan() {
            self.start = -0.0;
        }
        let end = match r.below(4) {
            0 => self.start, // zero length
            1 => r.pick(&HOSTILE_TIMES),
            _ => self.start + r.below(1 << 20) as f64 * 1e-7,
        };
        let end = if end.is_nan() { f64::INFINITY } else { end };
        self.site_end.insert(site, end);
        Placed {
            job: JobId(self.job),
            site: SiteId(site),
            width,
            start: Time::new(self.start),
            end: Time::new(end),
        }
    }
}

/// Every field, times as bit patterns.
fn bits(p: &Placed) -> (u64, usize, u32, u64, u64) {
    (
        p.job.0,
        p.site.0,
        p.width,
        p.start.seconds().to_bits(),
        p.end.seconds().to_bits(),
    )
}

fn assert_same(what: &str, got: impl IntoIterator<Item = Placed>, want: &[Placed]) {
    let got: Vec<_> = got.into_iter().map(|p| bits(&p)).collect();
    let want: Vec<_> = want.iter().map(bits).collect();
    assert_eq!(got.len(), want.len(), "{what}: length");
    if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
        panic!(
            "{what}: entry {i} is {:?}, the referee's {:?}",
            got[i], want[i]
        );
    }
}

/// Both ledgers fed the same `n` appends.
fn fill(seed: u64, n: usize) -> (Ledger, referee::Ledger) {
    let mut gen = Gen::new(seed);
    let (mut shipped, mut reference) = (Ledger::new(), referee::Ledger::default());
    for _ in 0..n {
        let p = gen.next();
        shipped.push(&p);
        reference.push(&p);
    }
    (shipped, reference)
}

#[test]
fn iteration_and_to_vec_equal_the_referee_across_block_edges() {
    let lengths = [
        0,
        1,
        2,
        BLOCK - 1,
        BLOCK,
        BLOCK + 1,
        2 * BLOCK,
        2 * BLOCK + 7,
        3 * BLOCK - 1,
    ];
    for (seed, &n) in lengths.iter().enumerate() {
        let (shipped, reference) = fill(seed as u64, n);
        let want = reference.to_vec();
        assert_eq!(shipped.len(), reference.len(), "n = {n}");
        assert_eq!(shipped.is_empty(), n == 0);
        assert_same(&format!("iter, n = {n}"), shipped.iter(), &want);
        assert_same(&format!("to_vec, n = {n}"), shipped.to_vec(), &want);
        assert_same(&format!("clone, n = {n}"), shipped.clone().iter(), &want);
    }
}

#[test]
fn random_lengths_with_every_prefix_read_back() {
    let mut rng = Rng(44);
    for round in 0..12 {
        let n = rng.below(3 * BLOCK as u64) as usize;
        let mut gen = Gen::new(1_000 + round);
        let (mut shipped, mut reference) = (Ledger::new(), referee::Ledger::default());
        // Read back after appends of random size, so a decode that
        // depends on where a block ends shows at any length.
        while reference.len() < n {
            for _ in 0..=rng.below(600) {
                let p = gen.next();
                shipped.push(&p);
                reference.push(&p);
            }
            assert_same(
                &format!("round {round} at {}", reference.len()),
                &shipped,
                &reference.to_vec(),
            );
        }
    }
}

#[test]
fn each_hostile_value_round_trips_alone_and_between_neighbours() {
    let ids = [0, 1, u64::MAX, u64::MAX - 1, 1 << 63, 42, 7];
    let widths = [0, 1, 127, 128, 16_383, 16_384, u32::MAX];
    let sites = [0, 1, 127, 128, 65_535];
    let mut want = Vec::new();
    for (i, &a) in HOSTILE_TIMES.iter().enumerate() {
        for &b in &HOSTILE_TIMES {
            want.push(Placed {
                job: JobId(ids[i % ids.len()]),
                site: SiteId(sites[i % sites.len()]),
                width: widths[i % widths.len()],
                start: Time::new(a),
                end: Time::new(b),
            });
        }
    }
    // Descending ids, each site and width once more.
    want.extend((0..64u64).rev().map(|k| Placed {
        job: JobId(k * 1_000_003),
        site: SiteId(sites[k as usize % sites.len()]),
        width: widths[k as usize % widths.len()],
        start: Time::new(-0.0),
        end: Time::new(5e-324),
    }));
    // Chains that start where their site last ended, on the first and
    // last remembered sites and the first forgotten one, interleaved.
    for (k, &site) in [0, SITE_MEMORY - 1, SITE_MEMORY, 0].iter().enumerate() {
        let mut t = HOSTILE_TIMES[k];
        for step in 0..4 {
            let end = if step == 3 { f64::INFINITY } else { t + 1.0 };
            want.push(Placed {
                job: JobId(u64::MAX - step),
                site: SiteId(site),
                width: u32::MAX - step as u32,
                start: Time::new(t),
                end: Time::new(end),
            });
            t = end;
        }
    }
    let mut shipped = Ledger::new();
    want.iter().for_each(|p| shipped.push(p));
    assert_same("hostile", &shipped, &want);
}

#[test]
fn archive_then_live_shards_concatenate_like_the_referee() {
    // Two retired topologies' exports go into the archive one after the
    // other (a reshard appends each exported schedule), then the live
    // shards follow in shard order.
    let mut seed = 90;
    let mut next = |n: usize| {
        seed += 1;
        fill(seed, n)
    };
    let (mut archive, mut archive_ref) = (Ledger::new(), referee::Ledger::default());
    for n in [BLOCK - 3, 5, BLOCK + 9, 0, 2 * BLOCK] {
        let (retired, retired_ref) = next(n);
        archive.extend(retired.to_vec());
        archive_ref.extend(retired_ref.to_vec());
    }
    let live: Vec<_> = [7, BLOCK, 1].into_iter().map(&mut next).collect();
    let query = archive
        .iter()
        .chain(live.iter().flat_map(|(shipped, _)| shipped.iter()));
    let mut want = archive_ref.to_vec();
    want.extend(live.iter().flat_map(|(_, reference)| reference.iter()));
    assert_same("archive then live", query, &want);
    assert_eq!(archive.len(), archive_ref.len());
}

#[test]
fn bytes_count_what_the_ledger_holds() {
    assert_eq!(Ledger::new().bytes(), 0);
    let (shipped, _) = fill(7, 3 * BLOCK + 5);
    // At least the two mask bytes and three one-byte varints an entry.
    assert!(shipped.bytes() >= 5 * shipped.len(), "{}", shipped.bytes());
}

//! The shipped accepted-id set ≡ its referee. Every whole set of a
//! session's `KnownIds` is compressed (bitmaps for dense chunks, an
//! ordered set for the rest); the referee in `referee/id_table.rs` is the
//! `HashMap`-backed table it replaced. Both are driven with the same
//! random operations and every answer is compared: `insert`, `remove`,
//! `contains`, the ids in order, `take_over` with a `left` set,
//! `move_in`, and the first change that settles an inheritance of 2–4
//! parts (some of them still inherited themselves).
//!
//! Ids come in five shapes: chunk edges (0, 4095, 4096, 2⁶⁴ − 1, …),
//! runs in order, every other id (two shards sharing one counter),
//! uniformly random `u64`, and a few crowded chunks that a fill phase
//! pushes past the bitmap threshold and a drain phase back under it.

#[path = "referee/id_table.rs"]
mod referee;

use gridsec_core::JobId;
use gridsec_serve::session::KnownIds;
use std::collections::HashSet;

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

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

#[derive(Clone, Copy, Debug)]
enum Shape {
    Edges,
    Sequential,
    EveryOther,
    Random,
    Crowded,
}

const SHAPES: [Shape; 5] = [
    Shape::Edges,
    Shape::Sequential,
    Shape::EveryOther,
    Shape::Random,
    Shape::Crowded,
];

const EDGES: [u64; 14] = [
    0,
    1,
    4095,
    4096,
    4097,
    8191,
    8192,
    (1 << 32) - 1,
    1 << 32,
    u64::MAX - 4096,
    u64::MAX - 4095,
    u64::MAX - 1,
    u64::MAX,
    1 << 63,
];

/// Where one table's ids come from.
struct Ids {
    shape: Shape,
    base: u64,
    /// The next id in order (sequential shapes).
    next: u64,
    /// Every id drawn so far, so operations also hit present ids.
    seen: Vec<u64>,
}

impl Ids {
    fn new(shape: Shape, rng: &mut Rng, part: u64) -> Ids {
        let base = match rng.below(3) {
            0 => 0,
            1 => u64::MAX - 6000,
            _ => rng.next(),
        };
        Ids {
            shape,
            base,
            // Every other id: part p takes base + p, base + p + 2, …
            next: if matches!(shape, Shape::EveryOther) {
                part % 2
            } else {
                0
            },
            seen: Vec::new(),
        }
    }

    /// An id drawn from those seen, with chance `reuse` percent, else a
    /// new one of the shape.
    fn draw(&mut self, rng: &mut Rng, reuse: u64) -> JobId {
        if !self.seen.is_empty() && rng.chance(reuse) {
            return JobId(self.seen[rng.below(self.seen.len() as u64) as usize]);
        }
        let id = match self.shape {
            Shape::Edges => EDGES[rng.below(EDGES.len() as u64) as usize]
                .wrapping_add(rng.below(3))
                .wrapping_sub(1),
            Shape::Sequential => {
                self.next += 1;
                self.base.wrapping_add(self.next)
            }
            Shape::EveryOther => {
                self.next += 2;
                self.base.wrapping_add(self.next)
            }
            Shape::Random => rng.next(),
            // Two chunks, from which a fill phase draws about 80 ids
            // each.
            Shape::Crowded => (self.base & !4095).wrapping_add(rng.below(2 * 4096)),
        };
        self.seen.push(id);
        JobId(id)
    }
}

/// The same set twice.
struct Pair {
    ours: KnownIds,
    theirs: referee::KnownIds,
}

impl Pair {
    fn settled() -> Pair {
        Pair {
            ours: KnownIds::default(),
            theirs: referee::KnownIds::default(),
        }
    }

    fn inherit() -> Pair {
        Pair {
            ours: KnownIds::inherit(),
            theirs: referee::KnownIds::inherit(),
        }
    }

    fn check(&self, what: &str) {
        assert_eq!(
            self.ours.entries(),
            self.theirs.entries(),
            "{what}: entries"
        );
    }

    /// One random operation on both, growing the set with chance `grow`
    /// percent, else removing or only looking up; every answer compared.
    /// A shrinking step mostly names ids already seen.
    fn step(&mut self, rng: &mut Rng, ids: &mut Ids, grow: u64) {
        let id = ids.draw(rng, if grow < 50 { 90 } else { 30 });
        let (ours, theirs) = (&mut self.ours, &mut self.theirs);
        let roll = rng.below(100);
        if roll < grow {
            assert_eq!(ours.insert(id), theirs.insert(id), "insert {id:?}");
        } else if roll < grow + (90 - grow) / 2 {
            assert_eq!(ours.remove(id), theirs.remove(id), "remove {id:?}");
        }
        assert_eq!(ours.contains(id), theirs.contains(id), "contains {id:?}");
    }

    /// A fill phase, a drain phase and a mixed one.
    fn run(&mut self, rng: &mut Rng, ids: &mut Ids, ops: usize) {
        for grow in [75, 15, 45] {
            for _ in 0..ops {
                self.step(rng, ids, grow);
            }
            self.check("after a phase");
        }
    }
}

/// One case: 2–4 shard sets, an inheritance of all of them with random
/// `left` sets and moved-in ids, its first change, and more operations.
fn case(seed: u64) {
    let mut rng = Rng(seed);
    let shape = SHAPES[(seed % SHAPES.len() as u64) as usize];
    let n_parts = 2 + rng.below(3);
    let ops = 50 + rng.below(250) as usize;
    let mut parts = Vec::new();
    let mut all_ids = Vec::new();
    for p in 0..n_parts {
        let mut ids = Ids::new(shape, &mut rng, p);
        let mut pair = Pair::settled();
        if matches!(shape, Shape::Sequential | Shape::EveryOther) {
            // A served run first: up to three chunks filled in order, so
            // the chunk after a full one starts as a bitmap.
            for _ in 0..rng.below(3 * 4096) {
                let id = ids.draw(&mut rng, 0);
                pair.ours.insert(id);
                pair.theirs.insert(id);
            }
        }
        pair.run(&mut rng, &mut ids, ops);
        if rng.chance(30) {
            // Still inherited from an earlier reshard (a split that a
            // merge undoes before the shard changed anything).
            let left: HashSet<JobId> = (0..rng.below(10)).map(|_| ids.draw(&mut rng, 90)).collect();
            let mut heir = Pair::inherit();
            heir.ours.take_over(&pair.ours, &left);
            heir.theirs.take_over(&pair.theirs, &left);
            let id = ids.draw(&mut rng, 50);
            heir.ours.move_in(id);
            heir.theirs.move_in(id);
            pair = heir;
        }
        all_ids.extend(ids.seen);
        parts.push(pair);
    }

    let mut heir = Pair::inherit();
    let pick = |rng: &mut Rng| JobId(all_ids[rng.below(all_ids.len() as u64) as usize]);
    for part in &parts {
        let left: HashSet<JobId> = (0..rng.below(20)).map(|_| pick(&mut rng)).collect();
        assert_eq!(
            heir.ours.take_over(&part.ours, &left),
            heir.theirs.take_over(&part.theirs, &left),
            "take_over"
        );
    }
    for _ in 0..rng.below(30) {
        let id = pick(&mut rng);
        heir.ours.move_in(id);
        heir.theirs.move_in(id);
    }
    assert_eq!(heir.ours.settle_cost(), heir.theirs.settle_cost(), "cost");
    heir.check("inherited");
    for _ in 0..50 {
        let id = pick(&mut rng);
        assert_eq!(
            heir.ours.contains(id),
            heir.theirs.contains(id),
            "inherited contains"
        );
    }

    // Half the cases settle while the old tables are still held (the
    // settle copies), half after they are gone (it takes one over).
    let exported: Vec<_> = parts.iter().map(|p| p.theirs.entries()).collect();
    if rng.chance(50) {
        parts.clear();
    }
    // The first change: a remove one time in three, else an insert.
    let id = pick(&mut rng);
    let (ours, theirs) = (&mut heir.ours, &mut heir.theirs);
    match rng.below(3) {
        1 => assert_eq!(ours.remove(id), theirs.remove(id), "first remove"),
        _ => assert_eq!(ours.insert(id), theirs.insert(id), "first insert"),
    }
    assert_eq!(heir.ours.settle_cost(), 0, "settled");
    heir.check("settled");
    for (part, before) in parts.iter().zip(&exported) {
        assert_eq!(&part.ours.entries(), before, "an old table moved");
    }
    let mut ids = Ids::new(shape, &mut rng, 0);
    ids.seen = all_ids;
    heir.run(&mut rng, &mut ids, ops);
}

#[test]
fn accepted_id_sets_match_the_referee() {
    for seed in 0..50 {
        case(seed);
    }
}

/// The crowded shape's fill phase takes a chunk past the bitmap
/// threshold; removing its ids one by one takes it back under the sparse
/// one, with both sets compared at every step.
#[test]
fn the_cases_cross_the_bitmap_threshold_both_ways() {
    let mut rng = Rng(7);
    let mut ids = Ids::new(Shape::Crowded, &mut rng, 0);
    let mut pair = Pair::settled();
    let mut peak = 0;
    for _ in 0..300 {
        pair.step(&mut rng, &mut ids, 75);
        peak = peak.max(pair.ours.entries().len());
    }
    // Two chunks: more than 64 ids in one of them, then fewer than 32
    // in both.
    assert!(peak > 2 * 64, "fill reached {peak} ids");
    let mut seen = ids.seen;
    while pair.ours.entries().len() >= 32 {
        let id = JobId(seen.swap_remove(rng.below(seen.len() as u64) as usize));
        assert_eq!(pair.ours.remove(id), pair.theirs.remove(id), "remove");
        pair.check("draining");
    }
}

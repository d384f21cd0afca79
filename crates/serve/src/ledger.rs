//! The settled-commit ledger: every assignment a session has committed,
//! in commit order, kept compact because a daemon serves with no end
//! date and keeps each of them.
//!
//! A [`Ledger`] is append-only. Entries go into blocks of [`BLOCK`]
//! entries; a full block is sealed into an exactly sized byte slice and
//! the next one opens, so the slack of a growing buffer is bounded by one
//! block. Each entry is a byte stream that round-trips every field bit
//! for bit:
//!
//! * the job id as a zigzag varint of its wrapping difference from the
//!   previous entry's id (per-shard ids mostly ascend: one byte);
//! * the site as a varint;
//! * twice the width, plus one when `start` is bit for bit the `end` of
//!   the last entry on the same site (a site below [`SITE_MEMORY`]) — on
//!   a busy site a job starts when the one before it ends, so `start`
//!   then costs nothing more;
//! * otherwise one mask byte for `start`, then one for `end`, then the
//!   non-zero bytes of `start` XOR the previous entry's `start`, then
//!   those of `end` XOR this entry's `start` — Gorilla's lossless float
//!   encoding (Pelkonen et al., VLDB 2015) at byte rather than bit grain.
//!   Neighbouring instants share their sign, exponent and leading
//!   mantissa bytes, so the XOR of two of them is mostly zero bytes.
//!
//! The encoder's context — the previous entry and each site's last end —
//! runs on across block edges (it starts at id 0 and `+0.0`), so the
//! blocks only chunk the storage: iteration decodes them in order.
//! `crates/serve/tests/ledger.rs` referees it against a plain `Vec` of
//! the same records.

use crate::protocol::Placed;
use gridsec_core::{JobId, SiteId, Time};

/// Entries per sealed block.
pub const BLOCK: usize = 4096;

/// Sites whose last `end` the encoder remembers (a shard's sites are
/// numbered from 0; a grid's are a few dozen).
pub const SITE_MEMORY: usize = 256;

/// An append-only, compressed list of committed assignments. See the
/// module documentation for the encoding.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Full blocks of [`BLOCK`] entries, each sized exactly.
    sealed: Vec<Box<[u8]>>,
    /// The block being filled.
    open: Vec<u8>,
    /// Entries in `open`.
    open_len: usize,
    /// What the next entry is encoded against.
    context: Context,
}

/// What an entry is encoded against: the previous entry's job id and
/// `start` bits, and the `end` bits of the last entry on each site below
/// [`SITE_MEMORY`] (grown as sites appear).
#[derive(Debug, Clone, Default)]
struct Context {
    job: u64,
    start: u64,
    site_end: Vec<u64>,
}

impl Context {
    /// The last `end` on `site`, if it is remembered.
    fn site_end(&self, site: usize) -> Option<u64> {
        match site < SITE_MEMORY {
            true => Some(self.site_end.get(site).copied().unwrap_or(0)),
            false => None,
        }
    }

    fn advance(&mut self, job: u64, site: usize, start: u64, end: u64) {
        (self.job, self.start) = (job, start);
        if site < SITE_MEMORY {
            if self.site_end.len() <= site {
                self.site_end.resize(site + 1, 0);
            }
            self.site_end[site] = end;
        }
    }
}

impl Ledger {
    /// An empty ledger (allocates nothing).
    pub fn new() -> Ledger {
        Ledger::default()
    }

    /// Entries recorded.
    pub fn len(&self) -> usize {
        self.sealed.len() * BLOCK + self.open_len
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes held: the sealed blocks, the open block's capacity, the
    /// block index and the per-site context.
    pub fn bytes(&self) -> usize {
        self.sealed.iter().map(|b| b.len()).sum::<usize>()
            + self.open.capacity()
            + self.sealed.capacity() * std::mem::size_of::<Box<[u8]>>()
            + self.context.site_end.capacity() * std::mem::size_of::<u64>()
    }

    /// Appends one assignment.
    pub fn push(&mut self, p: &Placed) {
        let (out, cx) = (&mut self.open, &mut self.context);
        let delta = p.job.0.wrapping_sub(cx.job) as i64;
        put_varint(out, ((delta << 1) ^ (delta >> 63)) as u64);
        put_varint(out, p.site.0 as u64);
        let start = p.start.seconds().to_bits();
        let end = p.end.seconds().to_bits();
        let after_site = cx.site_end(p.site.0) == Some(start);
        put_varint(out, u64::from(p.width) << 1 | u64::from(after_site));
        let xe = end ^ start;
        if after_site {
            out.push(mask(xe));
        } else {
            let xs = start ^ cx.start;
            out.extend_from_slice(&[mask(xs), mask(xe)]);
            put_nonzero(out, xs);
        }
        put_nonzero(out, xe);
        cx.advance(p.job.0, p.site.0, start, end);
        self.open_len += 1;
        if self.open_len == BLOCK {
            // The next block will need about what this one took.
            let next = Vec::with_capacity(self.open.len());
            let full = std::mem::replace(&mut self.open, next);
            self.sealed.push(full.into_boxed_slice());
            self.open_len = 0;
        }
    }

    /// Appends every entry of `other`, in order.
    pub fn extend(&mut self, other: impl IntoIterator<Item = Placed>) {
        for p in other {
            self.push(&p);
        }
    }

    /// The entries in commit order, decoded on the fly.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            blocks: self.sealed.iter(),
            open: Some(&self.open[..]),
            bytes: &[],
            context: Context::default(),
        }
    }

    /// The entries decoded into a vector.
    pub fn to_vec(&self) -> Vec<Placed> {
        let mut v = Vec::with_capacity(self.len());
        v.extend(self.iter());
        v
    }
}

impl<'a> IntoIterator for &'a Ledger {
    type Item = Placed;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Decoding iterator over a [`Ledger`] ([`Ledger::iter`]).
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    blocks: std::slice::Iter<'a, Box<[u8]>>,
    open: Option<&'a [u8]>,
    /// What is left of the block being decoded.
    bytes: &'a [u8],
    context: Context,
}

impl Iterator for Iter<'_> {
    type Item = Placed;

    fn next(&mut self) -> Option<Placed> {
        while self.bytes.is_empty() {
            self.bytes = match self.blocks.next() {
                Some(block) => block,
                None => self.open.take()?,
            };
        }
        let (b, cx) = (&mut self.bytes, &mut self.context);
        let zigzag = get_varint(b);
        let delta = ((zigzag >> 1) as i64) ^ -((zigzag & 1) as i64);
        let job = cx.job.wrapping_add(delta as u64);
        let site = get_varint(b) as usize;
        let flagged_width = get_varint(b);
        let width = (flagged_width >> 1) as u32;
        let (start, me) = if flagged_width & 1 == 1 {
            let start = cx.site_end(site).expect("flagged on a remembered site");
            (start, take(b))
        } else {
            let (ms, me) = (take(b), take(b));
            (get_nonzero(b, ms) ^ cx.start, me)
        };
        let end = get_nonzero(b, me) ^ start;
        cx.advance(job, site, start, end);
        Some(Placed {
            job: JobId(job),
            site: SiteId(site),
            width,
            start: Time::new(f64::from_bits(start)),
            end: Time::new(f64::from_bits(end)),
        })
    }
}

fn take(b: &mut &[u8]) -> u8 {
    let byte = b[0];
    *b = &b[1..];
    byte
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn get_varint(b: &mut &[u8]) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let byte = take(b);
        v |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Bit `i` is set when byte `i` (little-endian) of `x` is not zero.
fn mask(x: u64) -> u8 {
    x.to_le_bytes()
        .iter()
        .enumerate()
        .fold(0, |m, (i, &byte)| m | (u8::from(byte != 0) << i))
}

fn put_nonzero(out: &mut Vec<u8>, x: u64) {
    out.extend(x.to_le_bytes().into_iter().filter(|&byte| byte != 0));
}

fn get_nonzero(b: &mut &[u8], mask: u8) -> u64 {
    let mut bytes = [0u8; 8];
    for (i, byte) in bytes.iter_mut().enumerate() {
        if mask & (1 << i) != 0 {
            *byte = take(b);
        }
    }
    u64::from_le_bytes(bytes)
}

//! The flight recorder: a process-wide set of bounded per-thread ring
//! buffers holding structured spans and events.
//!
//! * **Zero-alloc hot path.** A recorded event is a 32-byte `Copy`
//!   slot — the timestamp and kind in one word, a `&'static` call-site
//!   descriptor ([`Callsite`]: the name and field keys, built once per
//!   call site by the macros) and two integer values — written into a
//!   preallocated ring; nothing allocates after a thread's first event.
//!   Each thread owns its ring, so recording takes one relaxed atomic
//!   load (the enable flag) plus one uncontended mutex lock.
//! * **Bounded.** Rings hold [`RING_CAPACITY`] events and overwrite the
//!   oldest; the recorder can never grow without bound in a soak.
//! * **Monotonic timestamps.** All events are stamped from one
//!   process-wide monotonic epoch, so a merged dump is totally ordered
//!   across threads.
//! * **Inert.** When disabled (the default), [`span!`](macro@crate::span)/[`event!`](macro@crate::event) cost
//!   one relaxed atomic load and record nothing. Enabled or not,
//!   nothing here influences scheduling — the root determinism test
//!   pins bit-identical schedules with the recorder on vs. off.
//!
//! Dumps ([`snapshot`], [`dump_ndjson`]) merge every thread's ring,
//! sort by timestamp, and render one JSON object per event — the
//! `trace_dump` wire frame and the daemon's automatic
//! `reshard_rejected` dump both go through this path.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Events retained per thread before the ring wraps.
pub const RING_CAPACITY: usize = 4096;

/// What an event marks: the start of a span, its end (with the span's
/// own fields, or with [`Span::end_with`]'s value in the second field),
/// or a point event. Stored in the top two bits of a slot's timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Begin,
    End,
    EndWith,
    Instant,
}

impl Kind {
    const ALL: [Kind; 4] = [Kind::Begin, Kind::End, Kind::EndWith, Kind::Instant];

    fn as_str(self) -> &'static str {
        match self {
            Kind::Begin => "begin",
            Kind::End | Kind::EndWith => "end",
            Kind::Instant => "event",
        }
    }
}

/// Bits of a slot's stamp below the kind: nanoseconds since the epoch
/// (2⁶² ns is over a century).
const NANOS_BITS: u32 = 62;

/// What a `span!` or `event!` call site records besides its values: the
/// name, up to two field keys, and the key a span's
/// [`end_with`](Span::end_with) value goes under. The macros build one
/// `static` per call site, so a ring slot holds a reference, not the
/// strings.
#[derive(Debug)]
pub struct Callsite {
    name: &'static str,
    keys: [Option<&'static str>; 2],
    end_key: Option<&'static str>,
}

impl Callsite {
    /// A descriptor with the given name, at most two field keys and at
    /// most one end key (the macros' `=> key`).
    pub const fn new(name: &'static str, keys: &[&'static str], end: &[&'static str]) -> Callsite {
        let keys = match keys {
            [] => [None, None],
            [k1] => [Some(*k1), None],
            [k1, k2] => [Some(*k1), Some(*k2)],
            _ => panic!("a recorder event has at most two fields"),
        };
        let end_key = match end {
            [] => None,
            [k] => Some(*k),
            _ => panic!("a span has at most one end key"),
        };
        Callsite {
            name,
            keys,
            end_key,
        }
    }
}

/// One ring slot: 32 bytes, `Copy`, no heap references.
#[derive(Debug, Clone, Copy)]
struct RawEvent {
    /// Nanoseconds since the epoch, the [`Kind`] in the top two bits.
    stamp: u64,
    site: &'static Callsite,
    values: [i64; 2],
}

impl RawEvent {
    fn nanos(&self) -> u64 {
        self.stamp & ((1 << NANOS_BITS) - 1)
    }

    fn kind(&self) -> Kind {
        Kind::ALL[(self.stamp >> NANOS_BITS) as usize]
    }

    /// The named fields, in declaration order.
    fn fields(&self) -> impl Iterator<Item = TraceField> + '_ {
        let [k1, k2] = self.site.keys;
        let k2 = match self.kind() {
            Kind::EndWith => self.site.end_key,
            _ => k2,
        };
        [k1, k2]
            .into_iter()
            .zip(self.values)
            .filter_map(|(key, value)| {
                key.map(|key| TraceField {
                    key: key.to_string(),
                    value,
                })
            })
    }
}

struct RingInner {
    events: Vec<RawEvent>,
    next: usize,
    total: u64,
}

struct Ring {
    thread: u64,
    inner: Mutex<RingInner>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_nanos() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

thread_local! {
    static LOCAL: Arc<Ring> = {
        let ring = Arc::new(Ring {
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            inner: Mutex::new(RingInner {
                events: Vec::with_capacity(RING_CAPACITY),
                next: 0,
                total: 0,
            }),
        });
        registry().lock().expect("recorder registry").push(ring.clone());
        ring
    };
}

/// Turns recording on (idempotent). The timestamp epoch is fixed at the
/// first call, so all subsequent events share one monotonic origin.
pub fn enable() {
    let _ = epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns recording off; rings keep their contents for dumping.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether the recorder is currently recording.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Empties every thread's ring (test isolation).
pub fn clear() {
    for ring in registry().lock().expect("recorder registry").iter() {
        let mut inner = ring.inner.lock().expect("recorder ring");
        inner.events.clear();
        inner.next = 0;
        inner.total = 0;
    }
}

#[inline]
fn record(kind: Kind, site: &'static Callsite, values: [i64; 2]) {
    if !is_enabled() {
        return;
    }
    let ev = RawEvent {
        stamp: now_nanos() & ((1 << NANOS_BITS) - 1) | (kind as u64) << NANOS_BITS,
        site,
        values,
    };
    LOCAL.with(|ring| {
        let mut inner = ring.inner.lock().expect("recorder ring");
        let at = inner.next;
        if inner.events.len() < RING_CAPACITY {
            inner.events.push(ev);
        } else {
            inner.events[at] = ev;
        }
        inner.next = (at + 1) % RING_CAPACITY;
        inner.total += 1;
    });
}

/// The two value slots of an event with `values.len()` (at most two)
/// fields.
#[inline]
fn slots(values: &[i64]) -> [i64; 2] {
    let mut slots = [0; 2];
    slots[..values.len()].copy_from_slice(values);
    slots
}

/// Records a point event. Use the [`event!`](macro@crate::event) macro,
/// which builds the call site's descriptor.
pub fn instant(site: &'static Callsite, values: &[i64]) {
    record(Kind::Instant, site, slots(values));
}

/// An active span: records a `begin` event on creation and an `end`
/// event (same name and fields, unless [`Span::end_with`] adds one) when
/// dropped. Use the [`span!`](macro@crate::span) macro.
#[must_use = "a span records its end when dropped"]
pub struct Span {
    site: &'static Callsite,
    values: [i64; 2],
    kind: Kind,
}

/// Opens a span. Use the [`span!`](macro@crate::span) macro, which builds
/// the call site's descriptor.
pub fn span(site: &'static Callsite, values: &[i64]) -> Span {
    let values = slots(values);
    record(Kind::Begin, site, values);
    Span {
        site,
        values,
        kind: Kind::End,
    }
}

impl Span {
    /// Ends the span with `value` as the second field of its `end` event,
    /// under the key the `span!` call named after `=>` — for a count
    /// only known once the work is done.
    pub fn end_with(mut self, value: i64) {
        debug_assert!(self.site.end_key.is_some(), "span! names no end key");
        self.values[1] = value;
        self.kind = Kind::EndWith;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        record(self.kind, self.site, self.values);
    }
}

/// Opens a [`Span`] with up to two named integer fields:
/// `span!("round", shard = 3, batch = 17)`. The guard records the
/// matching `end` event when it goes out of scope. A trailing `=> key`
/// names the field [`Span::end_with`] adds to the `end` event:
/// `span!("map", jobs = 9 => rescans)`.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $value:expr)* $(=> $end:ident)?) => {{
        static SITE: $crate::recorder::Callsite = $crate::recorder::Callsite::new(
            $name,
            &[$(stringify!($key)),*],
            &[$(stringify!($end))?],
        );
        $crate::recorder::span(&SITE, &[$(($value) as i64),*])
    }};
}

/// Records a point event with up to two named integer fields:
/// `event!("reshard_rejected", from = 4, to = 2)`.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:ident = $value:expr)*) => {{
        static SITE: $crate::recorder::Callsite =
            $crate::recorder::Callsite::new($name, &[$(stringify!($key)),*], &[]);
        $crate::recorder::instant(&SITE, &[$(($value) as i64),*])
    }};
}

/// One named integer field of a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceField {
    /// Field name (e.g. `shard`).
    pub key: String,
    /// Field value.
    pub value: i64,
}

/// One flight-recorder event as dumped: the serializable form of a ring
/// slot, used by the `trace_dump` wire frame and the NDJSON dump.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Nanoseconds since the recorder epoch (monotonic).
    pub t_nanos: u64,
    /// Recording thread (recorder-local id, stable per thread).
    pub thread: u64,
    /// `begin`, `end`, or `event`.
    pub kind: String,
    /// Span/event name.
    pub name: String,
    /// Named integer fields, in declaration order.
    #[serde(default)]
    pub fields: Vec<TraceField>,
}

/// Recorder health, returned in the `telemetry` wire frame.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecorderStatus {
    /// Whether recording is on.
    pub enabled: bool,
    /// Threads that have recorded at least one event.
    pub threads: usize,
    /// Events currently retained across all rings.
    pub retained: usize,
    /// Events recorded since start (including overwritten ones).
    pub recorded: u64,
    /// Ring capacity per thread.
    pub capacity: usize,
}

/// The recorder's current status.
pub fn status() -> RecorderStatus {
    let rings = registry().lock().expect("recorder registry");
    let mut retained = 0;
    let mut recorded = 0;
    let mut threads = 0;
    for ring in rings.iter() {
        let inner = ring.inner.lock().expect("recorder ring");
        if inner.total > 0 {
            threads += 1;
        }
        retained += inner.events.len();
        recorded += inner.total;
    }
    RecorderStatus {
        enabled: is_enabled(),
        threads,
        retained,
        recorded,
        capacity: RING_CAPACITY,
    }
}

/// Heap bytes the rings hold: each recording thread's ring is allocated
/// whole at its first event.
pub fn bytes() -> usize {
    let rings = registry().lock().expect("recorder registry");
    rings
        .iter()
        .map(|ring| ring.inner.lock().expect("recorder ring").events.capacity())
        .sum::<usize>()
        * std::mem::size_of::<RawEvent>()
}

/// Merges every thread's ring into one timestamp-ordered event list
/// (oldest first). Rings are locked one at a time; recording threads
/// stall at most for their own ring's copy.
pub fn snapshot() -> Vec<TraceEvent> {
    let rings: Vec<Arc<Ring>> = registry().lock().expect("recorder registry").clone();
    let mut out = Vec::new();
    for ring in rings {
        let inner = ring.inner.lock().expect("recorder ring");
        // Ring order: next..end is the oldest segment once wrapped.
        let (older, newer) = if inner.events.len() < RING_CAPACITY {
            (&inner.events[..0], &inner.events[..])
        } else {
            inner.events.split_at(inner.next)
        };
        for ev in newer.iter().chain(older) {
            out.push(TraceEvent {
                t_nanos: ev.nanos(),
                thread: ring.thread,
                kind: ev.kind().as_str().to_string(),
                name: ev.site.name.to_string(),
                fields: ev.fields().collect(),
            });
        }
    }
    out.sort_by_key(|e| (e.t_nanos, e.thread));
    out
}

/// Renders [`snapshot`] as NDJSON: one JSON object per line, oldest
/// event first.
pub fn dump_ndjson() -> String {
    let mut out = String::new();
    for ev in snapshot() {
        out.push_str(&serde_json::to_string(&ev).expect("trace event serialises"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is process-global, so exercise everything from one
    // test to avoid cross-test interference under the parallel runner.
    /// A ring slot is four words, so a full ring is 128 KiB.
    #[test]
    fn a_ring_slot_is_32_bytes() {
        assert_eq!(std::mem::size_of::<RawEvent>(), 32);
    }

    #[test]
    fn record_wrap_dump_status_round_trip() {
        clear();
        enable();
        assert!(is_enabled());

        {
            let _outer = crate::span!("reshard_barrier", from = 4, to = 2);
            crate::event!("dispatch", shard = 1);
            let _inner = crate::span!("round", batch = 17);
        }
        crate::span!("map", jobs = 9 => rescans).end_with(3);
        let events = snapshot();
        assert!(events.len() >= 7, "begin/end pairs plus the event");
        let map: Vec<&TraceEvent> = events.iter().filter(|e| e.name == "map").collect();
        assert_eq!((map[0].kind.as_str(), map[0].fields.len()), ("begin", 1));
        assert_eq!((map[1].kind.as_str(), map[1].fields.len()), ("end", 2));
        assert_eq!(
            (map[1].fields[1].key.as_str(), map[1].fields[1].value),
            ("rescans", 3)
        );
        assert!(events.windows(2).all(|w| w[0].t_nanos <= w[1].t_nanos));
        let barrier: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.name == "reshard_barrier")
            .collect();
        assert_eq!(barrier.len(), 2);
        assert_eq!(barrier[0].kind, "begin");
        assert_eq!(barrier[1].kind, "end");
        assert_eq!(barrier[0].fields[0].key, "from");
        assert_eq!(barrier[0].fields[0].value, 4);

        // NDJSON: one parseable object per line, round-tripping.
        let dump = dump_ndjson();
        for line in dump.lines() {
            let ev: TraceEvent = serde_json::from_str(line).expect("NDJSON line parses");
            assert!(!ev.name.is_empty());
        }

        // Wrap: over-filling the ring keeps it bounded.
        for i in 0..(RING_CAPACITY + 10) {
            crate::event!("spin", i = i);
        }
        let st = status();
        assert!(st.enabled);
        assert!(st.retained <= st.threads * RING_CAPACITY);
        assert!(st.recorded > RING_CAPACITY as u64);
        let events = snapshot();
        assert!(events.len() <= status().threads * RING_CAPACITY);

        // Disabled: recording is a no-op.
        disable();
        let before = status().recorded;
        crate::event!("ignored");
        assert_eq!(status().recorded, before);
        clear();
        assert_eq!(status().retained, 0);
    }
}

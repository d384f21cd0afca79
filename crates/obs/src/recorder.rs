//! The flight recorder: a process-wide set of bounded per-thread ring
//! buffers holding structured spans and events.
//!
//! * **Zero-alloc hot path.** A recorded event is a `Copy` struct of
//!   `&'static str` names and integer fields written into a
//!   preallocated ring slot; nothing allocates after a thread's first
//!   event. Each thread owns its ring, so recording takes one relaxed
//!   atomic load (the enable flag) plus one uncontended mutex lock.
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

/// What an event marks: the start of a span, its end, or a point event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Begin,
    End,
    Instant,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Begin => "begin",
            Kind::End => "end",
            Kind::Instant => "event",
        }
    }
}

/// One ring slot: fixed-size, `Copy`, no heap references.
#[derive(Debug, Clone, Copy)]
struct RawEvent {
    nanos: u64,
    kind: Kind,
    name: &'static str,
    f1: Option<(&'static str, i64)>,
    f2: Option<(&'static str, i64)>,
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
fn record(
    kind: Kind,
    name: &'static str,
    f1: Option<(&'static str, i64)>,
    f2: Option<(&'static str, i64)>,
) {
    if !is_enabled() {
        return;
    }
    let ev = RawEvent {
        nanos: now_nanos(),
        kind,
        name,
        f1,
        f2,
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

/// Records a point event. Prefer the [`event!`](macro@crate::event) macro, which names the
/// fields.
pub fn instant(
    name: &'static str,
    f1: Option<(&'static str, i64)>,
    f2: Option<(&'static str, i64)>,
) {
    record(Kind::Instant, name, f1, f2);
}

/// An active span: records a `begin` event on creation and an `end`
/// event (same name and fields, unless [`Span::end_with`] adds one) when
/// dropped. Prefer the [`span!`](macro@crate::span) macro.
#[must_use = "a span records its end when dropped"]
pub struct Span {
    name: &'static str,
    f1: Option<(&'static str, i64)>,
    f2: Option<(&'static str, i64)>,
}

/// Opens a span. Prefer the [`span!`](macro@crate::span) macro, which names the fields.
pub fn span(
    name: &'static str,
    f1: Option<(&'static str, i64)>,
    f2: Option<(&'static str, i64)>,
) -> Span {
    record(Kind::Begin, name, f1, f2);
    Span { name, f1, f2 }
}

impl Span {
    /// Ends the span with `key = value` as the second field of its `end`
    /// event — for a count only known once the work is done.
    pub fn end_with(mut self, key: &'static str, value: i64) {
        self.f2 = Some((key, value));
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        record(Kind::End, self.name, self.f1, self.f2);
    }
}

/// Opens a [`Span`] with up to two named integer fields:
/// `span!("round", shard = 3, batch = 17)`. The guard records the
/// matching `end` event when it goes out of scope.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::recorder::span($name, None, None)
    };
    ($name:expr, $k1:ident = $v1:expr) => {
        $crate::recorder::span($name, Some((stringify!($k1), ($v1) as i64)), None)
    };
    ($name:expr, $k1:ident = $v1:expr, $k2:ident = $v2:expr) => {
        $crate::recorder::span(
            $name,
            Some((stringify!($k1), ($v1) as i64)),
            Some((stringify!($k2), ($v2) as i64)),
        )
    };
}

/// Records a point event with up to two named integer fields:
/// `event!("reshard_rejected", from = 4, to = 2)`.
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        $crate::recorder::instant($name, None, None)
    };
    ($name:expr, $k1:ident = $v1:expr) => {
        $crate::recorder::instant($name, Some((stringify!($k1), ($v1) as i64)), None)
    };
    ($name:expr, $k1:ident = $v1:expr, $k2:ident = $v2:expr) => {
        $crate::recorder::instant(
            $name,
            Some((stringify!($k1), ($v1) as i64)),
            Some((stringify!($k2), ($v2) as i64)),
        )
    };
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
            let mut fields = Vec::new();
            for f in [ev.f1, ev.f2].into_iter().flatten() {
                fields.push(TraceField {
                    key: f.0.to_string(),
                    value: f.1,
                });
            }
            out.push(TraceEvent {
                t_nanos: ev.nanos,
                thread: ring.thread,
                kind: ev.kind.as_str().to_string(),
                name: ev.name.to_string(),
                fields,
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
        crate::span!("map", jobs = 9).end_with("rescans", 3);
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

//! The span recorder of the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions: name, start, end, the span that
//! caused it, and the request `(connection, seq)` every span of one
//! request shares. They stay in memory until the pass ends and are then
//! written as NDJSON. A layer's *self time* is its span's duration minus
//! the part its child spans cover.
//!
//! The recorder is thread-local because one layer boundary — the
//! scheduler called from inside the session — is only reachable through a
//! wrapper object that the session owns, which cannot carry a `&mut`
//! recorder of its own.

use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// No parent: the span is the root of its request.
const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `serve.protocol.decode`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was started.
    pub end_ns: u64,
    /// Index of the causing span, or `u32::MAX` for a request root.
    pub parent: u32,
    /// Request id: the connection the frame belongs to …
    pub conn: u32,
    /// … and its sequence number on that connection.
    pub seq: u32,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: (u32, u32),
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread (dropping any earlier recording).
pub fn start(capacity: usize) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::new(),
            request: (0, 0),
        });
    });
}

/// Stops recording and returns the spans, in begin order.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map_or_else(Vec::new, |rec| rec.spans))
}

/// Sets the request id stamped on spans begun from now on.
pub fn set_request(conn: u32, seq: u32) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.request = (conn, seq);
        }
    });
}

/// An open span; closes when dropped. A no-op while nothing records, so
/// the same pipeline code runs traced and untraced.
pub struct Open(Option<u32>);

/// Opens a span under the innermost open one.
pub fn span(name: &'static str) -> Open {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return Open(None);
        };
        let id = rec.spans.len() as u32;
        let parent = rec.stack.last().copied().unwrap_or(NO_PARENT);
        let (conn, seq) = rec.request;
        rec.stack.push(id);
        let start_ns = rec.origin.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            conn,
            seq,
        });
        Open(Some(id))
    })
}

impl Drop for Open {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[id as usize].end_ns = rec.origin.elapsed().as_nanos() as u64;
                let top = rec.stack.pop();
                debug_assert_eq!(top, Some(id), "spans close innermost first");
            }
        });
    }
}

/// Self time of every span: duration minus the durations of its direct
/// children (children never overlap — one thread, strictly nested).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Writes the spans as NDJSON, one object per line.
pub fn write_ndjson(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"conn\":{},\"seq\":{}}}",
            s.name, s.start_ns, s.end_ns, s.conn, s.seq
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_subtracts_children() {
        start(8);
        set_request(3, 9);
        {
            let _root = span("request");
            {
                let _a = span("decode");
            }
            {
                let _b = span("submit");
                let _c = span("round");
            }
        }
        let spans = finish();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert_eq!(spans[3].parent, 2);
        assert!(spans.iter().all(|s| (s.conn, s.seq) == (3, 9)));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let own = self_times(&spans);
        let dur = |i: usize| spans[i].end_ns - spans[i].start_ns;
        assert_eq!(own[0], dur(0) - dur(1) - dur(2));
        assert_eq!(own[2], dur(2) - dur(3));
        assert_eq!(own[3], dur(3));
        // Self times of a request's spans sum to the request's duration.
        assert_eq!(own.iter().sum::<u64>(), dur(0));
    }

    #[test]
    fn nothing_records_when_not_started() {
        let _ = finish();
        {
            let _s = span("idle");
        }
        assert!(finish().is_empty());
    }
}

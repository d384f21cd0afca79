//! The simulator's event queue: what the simulation itself creates.
//!
//! A binary heap of time-stamped events with deterministic tie-breaking:
//! events at the same instant are processed in *kind priority* order
//! (attempt completions, then arrivals, then SL-walk steps), and FIFO
//! within the same kind (sequence numbers). Batch boundaries are not
//! events: they live on the round core's
//! [`BoundaryClock`](crate::BoundaryClock), and the engine fires one only
//! when it is strictly earlier than the next event here — so every event
//! at an instant, a job failing on a boundary among them, runs before the
//! boundary at that instant and joins its batch.

use gridsec_core::{JobId, SiteId, Time};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happens at an event instant.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A running attempt of `job` on `site` ends.
    AttemptEnd {
        /// The job whose attempt ends.
        job: JobId,
        /// Where the attempt ran.
        site: SiteId,
        /// Whether the attempt failed (sampled at dispatch).
        failed: bool,
    },
    /// A job arrives in the system and joins the pending queue.
    Arrival {
        /// The arriving job.
        job: JobId,
    },
    /// A security-level random-walk step (only with
    /// [`SlDynamics`](crate::config::SlDynamics)).
    SlWalk,
}

impl EventKind {
    /// Tie-break priority at equal timestamps (lower runs first).
    fn priority(&self) -> u8 {
        match self {
            EventKind::AttemptEnd { .. } => 0,
            EventKind::Arrival { .. } => 1,
            EventKind::SlWalk => 2,
        }
    }
}

/// A time-stamped event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// When the event fires.
    pub at: Time,
    /// What it is.
    pub kind: EventKind,
    seq: u64,
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is popped
        // first, then kind priority, then FIFO sequence.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.kind.priority().cmp(&self.kind.priority()))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Deterministic priority queue of [`Event`]s.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes an event.
    pub fn push(&mut self, at: Time, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { at, kind, seq });
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// Peeks at the earliest event's timestamp.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::new(5.0), EventKind::SlWalk);
        q.push(Time::new(1.0), EventKind::Arrival { job: JobId(0) });
        q.push(
            Time::new(3.0),
            EventKind::AttemptEnd {
                job: JobId(1),
                site: SiteId(0),
                failed: false,
            },
        );
        assert_eq!(q.pop().unwrap().at, Time::new(1.0));
        assert_eq!(q.pop().unwrap().at, Time::new(3.0));
        assert_eq!(q.pop().unwrap().at, Time::new(5.0));
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_instant_kind_priority() {
        let mut q = EventQueue::new();
        let t = Time::new(10.0);
        q.push(t, EventKind::SlWalk);
        q.push(t, EventKind::Arrival { job: JobId(7) });
        q.push(
            t,
            EventKind::AttemptEnd {
                job: JobId(3),
                site: SiteId(0),
                failed: true,
            },
        );
        assert!(matches!(
            q.pop().unwrap().kind,
            EventKind::AttemptEnd { .. }
        ));
        assert!(matches!(q.pop().unwrap().kind, EventKind::Arrival { .. }));
        assert!(matches!(q.pop().unwrap().kind, EventKind::SlWalk));
    }

    #[test]
    fn fifo_within_kind() {
        let mut q = EventQueue::new();
        let t = Time::new(1.0);
        q.push(t, EventKind::Arrival { job: JobId(1) });
        q.push(t, EventKind::Arrival { job: JobId(2) });
        q.push(t, EventKind::Arrival { job: JobId(3) });
        let ids: Vec<u64> = (0..3)
            .map(|_| match q.pop().unwrap().kind {
                EventKind::Arrival { job } => job.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn len_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Time::new(2.0), EventKind::SlWalk);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(Time::new(2.0)));
    }
}

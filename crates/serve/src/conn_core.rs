//! The protocol core of one client connection: every decision the
//! connection layer makes, with no socket, lock, atomic or clock
//! ("sans-I/O"). The I/O shell ([`IoLoop`](crate::conn::IoLoop)) tells it
//! what happened (bytes read, EOF, replies, bytes written, what became of
//! a push) and does what it answers (dispatch, write, re-arm, close).
//!
//! **Frames.** One request per `\n`-terminated line (after EOF, the
//! unterminated tail too); every line but a blank keep-alive one takes the
//! next sequence number. A `submit` goes to its shard's queue, any other
//! request (a *control* frame) to the router, and a line that does not
//! parse or is over the limit is answered here with an `error` frame.
//!
//! **Parking.** A submit that cannot be pushed now is parked on its
//! connection ([`ParkReason`]): the core keeps that one frame, decodes
//! nothing behind it and stops wanting reads (TCP is the backpressure), so
//! per-client order holds by construction. *Fenced*: a control frame ahead
//! of it is unanswered, and the shard drains its queue ahead of every
//! control message, so the submit would overtake it — it goes when that
//! reply is released. *Sealed*: the router sealed the table ahead of a
//! reshard or shutdown barrier — retried, against the new plan, on the
//! next publish. *Full*: the shard's queue is at capacity — retried every
//! loop pass. A park counts once per reason, however often it is retried.
//!
//! **Reorder and dedup.** Replies arrive in any order and are released
//! strictly in sequence order, each number once: one whose number is
//! already released or held is dropped, here and only here. A submit that
//! raced its shard's exit is answered both by the push that found the
//! shard dead and by the shard's death notice, and one answer is enough.
//! Held replies count against the write bound with the unwritten bytes.

use crate::conn::READ_CHUNK;
use crate::daemon::Reply;
use crate::protocol::{parse_request, Line, LineDecoder, Request, Response};
use gridsec_core::Job;
use std::cmp::Ordering;
use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::VecDeque;
use std::sync::mpsc::Sender;

/// Why a decoded `submit` is waiting on its connection (also the index
/// of its parked counter and [`PARK_LABELS`] entry).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ParkReason {
    Fenced,
    Sealed,
    Full,
}

/// Exposition labels of the [`ParkReason`]s, in counter order.
pub(crate) const PARK_LABELS: [&str; 3] = ["fenced", "sealed", "full"];

/// A decoded `submit` frame.
pub(crate) struct Submit {
    pub(crate) jobs: Vec<Job>,
    /// The target the client named, if any (re-routed on every retry).
    pub(crate) shard: Option<usize>,
    pub(crate) tenant: Option<String>,
    pub(crate) seq: u64,
}

/// What the shell does next for a connection ([`ConnCore::next_step`]).
pub(crate) enum Step {
    /// Push it; the shard answers it, or the shell hands the core a local
    /// answer ([`ConnCore::on_reply`]) or the park ([`ConnCore::park`]).
    Submit(Submit),
    /// Hand this control frame and its `seq` to the router.
    Control(Request, u64),
    /// A submit parked for a reason it had not waited for: count it.
    Parked(ParkReason),
}

/// One connection's protocol state (module doc).
#[derive(Default)]
pub(crate) struct ConnCore {
    max_line: usize,
    max_write_buffer: usize,
    /// Sequence number the next decoded frame takes.
    seq: u64,
    /// Sequence number of the next reply to release.
    next_release: u64,
    /// Seq of the latest control frame; submits are fenced until its
    /// reply is released (`next_release` past it).
    last_control_seq: Option<u64>,
    decoder: LineDecoder,
    /// The submit that could not be pushed yet; while set, nothing is
    /// decoded.
    parked: Option<(Submit, ParkReason)>,
    /// The park is not yet reported as a [`Step::Parked`].
    unreported: bool,
    /// What the submit out with the shell was parked for until now
    /// (`None`: a fresh one).
    retried: Option<ParkReason>,
    /// Replies not yet released, by sequence number, and their bytes.
    held: BTreeMap<u64, Reply>,
    held_bytes: usize,
    /// Out bytes: `out[out_pos..]` is unwritten.
    out: Vec<u8>,
    out_pos: usize,
    /// Stream offset of `out[0]` (for flush marks).
    out_base: u64,
    /// `(offset, signal)`: passed once every byte before `offset` is
    /// written.
    flush_marks: VecDeque<(u64, Sender<()>)>,
    read_closed: bool,
    /// A scrape: reads nothing, gets one reply (`seq` 0), is not a client.
    scrape: bool,
}

impl ConnCore {
    /// A connection that refuses lines over `max_line` bytes and is over
    /// its write bound past `max_write_buffer` bytes.
    pub(crate) fn new(max_line: usize, max_write_buffer: usize, scrape: bool) -> ConnCore {
        ConnCore {
            max_line,
            max_write_buffer,
            // A scrape's page is asked for at accept, as `seq` 0.
            seq: u64::from(scrape),
            decoder: LineDecoder::new(max_line),
            read_closed: scrape,
            scrape,
            ..ConnCore::default()
        }
    }

    /// Bytes read from the socket; none is EOF, after which an
    /// unterminated tail is a line.
    pub(crate) fn on_read(&mut self, bytes: &[u8]) {
        self.read_closed |= bytes.is_empty();
        self.decoder.push(bytes);
    }

    /// The next step: a park to count, a submit whose fence has lifted, or
    /// the next decoded frame (lines that are no frame are answered on the
    /// way). `None` once the input runs out or while a submit waits.
    pub(crate) fn next_step(&mut self) -> Option<Step> {
        loop {
            let fenced = self
                .last_control_seq
                .is_some_and(|s| self.next_release <= s);
            if let Some((_, reason)) = self.parked {
                if std::mem::take(&mut self.unreported) {
                    return Some(Step::Parked(reason));
                }
                if reason != ParkReason::Fenced || fenced {
                    return None;
                }
                self.retried = Some(reason);
                return self.parked.take().map(|(submit, _)| Step::Submit(submit));
            }
            let max = self.max_line;
            let parsed = match self.decoder.next_line(self.read_closed)? {
                Line::Frame(body) => parse_request(body),
                Line::TooLong(n) => Err(format!("frame too long ({n} bytes > {max} limit)")),
            };
            let Some(request) = parsed.transpose() else {
                continue; // blank keep-alive line, no sequence consumed
            };
            let seq = self.seq;
            self.seq += 1;
            match request {
                Ok(Request::Submit {
                    jobs,
                    shard,
                    tenant,
                }) => {
                    let submit = Submit {
                        jobs,
                        shard,
                        tenant,
                        seq,
                    };
                    self.retried = None;
                    if !fenced {
                        return Some(Step::Submit(submit));
                    }
                    self.park(submit, ParkReason::Fenced);
                }
                Ok(control) => {
                    self.last_control_seq = Some(seq);
                    return Some(Step::Control(control, seq));
                }
                Err(message) => self.on_reply(Reply::frame(seq, &Response::Error { message })),
            }
        }
    }

    /// Hands a submit parked on a sealed table or a full queue back to
    /// the shell to push again (it retries those every loop pass).
    pub(crate) fn retry(&mut self) -> Option<Submit> {
        let (submit, reason) = self.parked.take_if(|p| p.1 != ParkReason::Fenced)?;
        self.retried = Some(reason);
        Some(submit)
    }

    /// The shell could not push `submit` for `reason`: it waits here.
    pub(crate) fn park(&mut self, submit: Submit, reason: ParkReason) {
        self.unreported = self.retried.take() != Some(reason);
        self.parked = Some((submit, reason));
    }

    /// A reply from the connection's mailbox, or one its own thread made
    /// (a routing rejection, a closed table or router): released if it is
    /// the next in sequence (with every held reply it unblocks), held if it is
    /// early, and dropped if its number is released or held already.
    pub(crate) fn on_reply(&mut self, reply: Reply) {
        match reply.seq.cmp(&self.next_release) {
            Ordering::Less => {}
            Ordering::Greater => {
                if let Entry::Vacant(slot) = self.held.entry(reply.seq) {
                    self.held_bytes += reply.line.len();
                    slot.insert(reply);
                }
            }
            Ordering::Equal => {
                self.release(reply);
                while let Some(next) = self.held.remove(&self.next_release) {
                    self.held_bytes -= next.line.len();
                    self.release(next);
                }
            }
        }
    }

    fn release(&mut self, reply: Reply) {
        if self.out.is_empty() && reply.line.len() > READ_CHUNK {
            // A long reply (a whole schedule) becomes the buffer rather
            // than being copied into it.
            self.out = reply.line.into_bytes();
        } else {
            self.out.extend_from_slice(reply.line.as_bytes());
        }
        if let Some(tx) = reply.flushed {
            let offset = self.out_base + self.out.len() as u64;
            self.flush_marks.push_back((offset, tx));
        }
        self.next_release += 1;
    }

    /// The out bytes not yet written.
    pub(crate) fn unwritten(&self) -> &[u8] {
        &self.out[self.out_pos..]
    }

    /// The socket took `n` more out bytes: the flush marks they pass go
    /// to `passed`, for the shell to signal.
    pub(crate) fn on_written(&mut self, n: usize, passed: &mut Vec<Sender<()>>) {
        self.out_pos += n;
        let written = self.out_base + self.out_pos as u64;
        while self.flush_marks.front().is_some_and(|m| m.0 <= written) {
            passed.extend(self.flush_marks.pop_front().map(|m| m.1));
        }
        if self.out_pos == self.out.len() {
            self.out_base += self.out.len() as u64;
            self.out.clear();
            // Drained: what one long reply grew the buffer to goes back.
            self.out.shrink_to(READ_CHUNK);
            self.out_pos = 0;
        } else if self.out_pos > READ_CHUNK {
            // Compact so a slowly draining connection cannot grow the
            // buffer by its own written prefix.
            self.out.drain(..self.out_pos);
            self.out_base += self.out_pos as u64;
            self.out_pos = 0;
        }
    }

    /// Whether the socket is to be read: not after EOF, and not while a
    /// submit waits.
    pub(crate) fn reading(&self) -> bool {
        !self.read_closed && self.parked.is_none()
    }

    /// The epoll interest the connection wants, `(read, write)`.
    pub(crate) fn interest(&self) -> (bool, bool) {
        (self.reading(), !self.unwritten().is_empty())
    }

    /// More than `max_write_buffer` bytes unwritten or held: the client
    /// is not reading. A scrape's backlog is its one page, bounded
    /// already.
    pub(crate) fn over_limit(&self) -> bool {
        !self.scrape && self.unwritten().len() + self.held_bytes > self.max_write_buffer
    }

    /// Whether the daemon still owes the connection a reply: a decoded
    /// frame whose reply is unreleased, a parked one among them. Unwritten
    /// bytes are owed by nobody — they wait on the peer.
    pub(crate) fn owed(&self) -> bool {
        self.next_release < self.seq
    }

    /// EOF seen, every frame answered and every byte written. (After EOF
    /// lines stay undecoded only behind a parked, so unanswered, frame.)
    pub(crate) fn finished(&self) -> bool {
        self.read_closed && !self.owed() && self.unwritten().is_empty()
    }

    /// A client connection, not a scrape.
    pub(crate) fn is_client(&self) -> bool {
        !self.scrape
    }
}

#[cfg(test)]
impl ConnCore {
    /// Replies released so far.
    pub(crate) fn released(&self) -> u64 {
        self.next_release
    }

    /// What the out buffer keeps allocated.
    pub(crate) fn out_capacity(&self) -> usize {
        self.out.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode, QueryWhat};
    use proptest::prelude::*;

    const MAX_LINE: usize = 160;

    /// What a generated line is, and so what the core must make of it.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Kind {
        Submit(u64),
        Control,
        Blank,
        TooLong,
        Invalid,
    }

    fn kind((tag, id): (u8, u64)) -> Kind {
        match tag {
            0 | 1 => Kind::Submit(id),
            2 => Kind::Control,
            3 => Kind::Blank,
            4 => Kind::TooLong,
            _ => Kind::Invalid,
        }
    }

    fn line(kind: Kind) -> String {
        match kind {
            Kind::Submit(id) => encode(&Request::Submit {
                jobs: vec![Job::builder(id).work(1.0).build().unwrap()],
                shard: None,
                tenant: None,
            }),
            Kind::Control => encode(&Request::Query {
                what: QueryWhat::Shards,
                shard: None,
            }),
            Kind::Blank => " \r\n".into(),
            Kind::TooLong => format!("{}\n", "x".repeat(MAX_LINE + 1)),
            Kind::Invalid => "{\"type\":\n".into(),
        }
    }

    fn reply(seq: u64, text: &str) -> Reply {
        Reply {
            seq,
            line: format!("{text}\n"),
            flushed: None,
        }
    }

    /// Plays the shell over `input` cut into chunks of the `cuts` sizes,
    /// then EOF: a submit is queued and answered at once (`s<seq>`); a
    /// control frame is answered (`c<seq>`) only once the core stalls, so
    /// a submit behind it must wait for that. Returns the
    /// frames dispatched and the out bytes; the connection ends finished.
    fn drive(input: &[u8], mut cuts: impl Iterator<Item = usize>) -> (Vec<String>, String) {
        let mut core = ConnCore::new(MAX_LINE, usize::MAX, false);
        let mut frames = Vec::new();
        let mut controls: Vec<u64> = Vec::new();
        // Until nothing is left to do: every step the core has ready, then
        // the answers to the control frames among them.
        let mut settle = |core: &mut ConnCore| loop {
            while let Some(step) = core.next_step() {
                match step {
                    Step::Submit(s) => {
                        assert!(controls.is_empty(), "submit {} overtook a control", s.seq);
                        frames.push(format!("{} submit {}", s.seq, s.jobs[0].id.0));
                        core.on_reply(reply(s.seq, &format!("s{}", s.seq)));
                    }
                    Step::Control(_, seq) => {
                        frames.push(format!("{seq} control"));
                        controls.push(seq);
                    }
                    Step::Parked(reason) => assert_eq!(reason, ParkReason::Fenced),
                }
            }
            if controls.is_empty() {
                return;
            }
            for seq in controls.drain(..) {
                core.on_reply(reply(seq, &format!("c{seq}")));
            }
        };
        let mut rest = input;
        while !rest.is_empty() {
            let (chunk, tail) = rest.split_at(cuts.next().unwrap().min(rest.len()));
            core.on_read(chunk);
            settle(&mut core);
            rest = tail;
        }
        core.on_read(&[]);
        settle(&mut core);
        let out = String::from_utf8(core.unwritten().to_vec()).unwrap();
        core.on_written(out.len(), &mut Vec::new());
        assert!(core.finished(), "every frame answered, every byte written");
        (frames, out)
    }

    /// Delivers `deliveries` (seqs, duplicates allowed) to a core that has
    /// dispatched `n` submits; returns its out bytes.
    fn deliver(n: u64, deliveries: impl Iterator<Item = u64>) -> (ConnCore, String) {
        let mut core = ConnCore::new(MAX_LINE, usize::MAX, false);
        let input: String = (0..n).map(|id| line(Kind::Submit(id))).collect();
        core.on_read(input.as_bytes());
        while let Some(step) = core.next_step() {
            assert!(matches!(step, Step::Submit(_)));
        }
        for seq in deliveries {
            core.on_reply(reply(seq, &format!("r{seq}")));
        }
        let out = String::from_utf8(core.unwritten().to_vec()).unwrap();
        (core, out)
    }

    /// The `Step::Parked` reports of a core's steps until it stalls.
    fn parks(core: &mut ConnCore) -> Vec<ParkReason> {
        std::iter::from_fn(|| core.next_step())
            .map(|step| match step {
                Step::Parked(reason) => reason,
                _ => panic!("a parked connection dispatches nothing"),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// However the stream is cut — 1-byte chunks included — the core
        /// dispatches the same frames with the same `seq`s and answers
        /// the same lines itself as when it is fed whole: one `seq` per
        /// line but blank ones, in order, and a submit never overtakes an
        /// unanswered control frame.
        #[test]
        fn any_chunking_yields_the_frames_and_answers_of_the_whole_stream(
            lines in prop::collection::vec((0u8..6, 0u64..1000), 0..40),
            unterminated in 0u8..2,
            (bytewise, sizes) in (0u8..3, prop::collection::vec(1usize..97, 1..32)),
        ) {
            let kinds: Vec<Kind> = lines.into_iter().map(kind).collect();
            let mut input: String = kinds.iter().map(|&k| line(k)).collect();
            if unterminated == 1 {
                input.pop(); // EOF ends the last line
            }
            let whole = drive(input.as_bytes(), std::iter::repeat(usize::MAX));
            let cuts: Box<dyn Iterator<Item = usize>> = if bytewise == 0 {
                Box::new(std::iter::repeat(1))
            } else {
                Box::new(sizes.into_iter().cycle())
            };
            let cut = drive(input.as_bytes(), cuts);
            prop_assert_eq!(&cut, &whole);

            let (frames, out) = whole;
            let framed: Vec<Kind> = kinds.into_iter().filter(|&k| k != Kind::Blank).collect();
            let replies: Vec<&str> = out.lines().collect();
            prop_assert_eq!(replies.len(), framed.len());
            let mut dispatched = frames.iter();
            for (seq, (kind, reply)) in framed.iter().zip(replies).enumerate() {
                let expected = match kind {
                    Kind::Submit(id) => {
                        prop_assert_eq!(dispatched.next(), Some(&format!("{seq} submit {id}")));
                        reply == format!("s{seq}")
                    }
                    Kind::Control => {
                        prop_assert_eq!(dispatched.next(), Some(&format!("{seq} control")));
                        reply == format!("c{seq}")
                    }
                    Kind::TooLong => reply.contains("frame too long"),
                    _ => reply.contains("invalid frame"),
                };
                prop_assert!(expected, "seq {seq}: {kind:?} answered {reply}");
            }
            prop_assert_eq!(dispatched.next(), None);
        }

        /// Replies delivered in any order, with duplicates of held and of
        /// already released `seq`s, come out as the in-order
        /// concatenation, each line once, and nothing stays held.
        #[test]
        fn replies_in_any_order_with_duplicates_come_out_in_order_once(
            (n, extra, keys) in (1u64..40).prop_flat_map(|n| (
                Just(n),
                prop::collection::vec(0..n, 0..80),
                prop::collection::vec(any::<u64>(), n as usize..=n as usize),
            )),
        ) {
            let mut every: Vec<u64> = (0..n).collect();
            every.sort_by_key(|&seq| keys[seq as usize]);
            let (core, out) = deliver(n, extra.into_iter().chain(every));
            let expected: String = (0..n).map(|seq| format!("r{seq}\n")).collect();
            prop_assert_eq!(out, expected);
            prop_assert_eq!(core.released(), n);
            prop_assert_eq!(core.held_bytes, 0);
            prop_assert!(!core.owed());
        }

        /// A submit parked full and retried `k` times is reported once; one
        /// fenced, then sealed and retried `k` times, once for each.
        #[test]
        fn a_park_is_reported_once_per_reason_however_often_retried(k in 1usize..20) {
            let mut core = ConnCore::new(MAX_LINE, usize::MAX, false);
            core.on_read(line(Kind::Submit(0)).as_bytes());
            let Some(Step::Submit(submit)) = core.next_step() else { panic!() };
            core.park(submit, ParkReason::Full);
            prop_assert_eq!(parks(&mut core), [ParkReason::Full]);
            for _ in 0..k {
                let submit = core.retry().expect("a full park is retried");
                core.park(submit, ParkReason::Full);
                prop_assert_eq!(parks(&mut core), []);
            }

            let mut core = ConnCore::new(MAX_LINE, usize::MAX, false);
            let input = line(Kind::Control) + &line(Kind::Submit(1));
            core.on_read(input.as_bytes());
            prop_assert!(matches!(core.next_step(), Some(Step::Control(_, 0))));
            prop_assert_eq!(parks(&mut core), [ParkReason::Fenced]);
            prop_assert!(core.retry().is_none(), "a fenced park waits for its reply");
            core.on_reply(reply(0, "c0"));
            let Some(Step::Submit(submit)) = core.next_step() else { panic!() };
            core.park(submit, ParkReason::Sealed);
            prop_assert_eq!(parks(&mut core), [ParkReason::Sealed]);
            for _ in 0..k {
                let submit = core.retry().expect("a sealed park is retried");
                core.park(submit, ParkReason::Sealed);
                prop_assert_eq!(parks(&mut core), []);
            }
            prop_assert!(core.owed() && !core.reading());
        }

        /// The write bound trips at `max_write_buffer + 1` bytes of
        /// backlog — unwritten and held together — not at
        /// `max_write_buffer`.
        #[test]
        fn the_write_bound_trips_one_byte_past_the_buffer(
            max in 2usize..5000,
            split in any::<u64>(),
        ) {
            for (backlog, over) in [(max, false), (max + 1, true)] {
                let mut core = ConnCore::new(MAX_LINE, max, false);
                let written = 1 + split as usize % (max - 1);
                for (seq, len) in [(0, written), (2, backlog - written)] {
                    let text = "x".repeat(len - 1);
                    core.on_reply(reply(seq, &text));
                }
                prop_assert_eq!(core.unwritten().len(), written);
                prop_assert!(core.over_limit() == over, "backlog {backlog} of {max}");
            }
        }
    }
}

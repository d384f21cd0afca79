//! The NDJSON wire protocol: one JSON object per `\n`-terminated line,
//! requests up / responses down the same TCP connection.
//!
//! Frames are internally tagged with a `"type"` field:
//!
//! ```json
//! {"type":"submit","jobs":[{"id":0,"arrival":0.0,"width":1,"work":120.0,"security_demand":0.7}]}
//! {"type":"submit","shard":1,"jobs":[{"id":1,"arrival":2.0,"width":1,"work":80.0,"security_demand":0.5}]}
//! {"type":"submit","tenant":"batch","jobs":[{"id":2,"arrival":3.0,"width":1,"work":40.0,"security_demand":0.6}]}
//! {"type":"query","what":"metrics"}
//! {"type":"query","what":"schedule","shard":0}
//! {"type":"query","what":"shards"}
//! {"type":"query","what":"telemetry"}
//! {"type":"trace_dump"}
//! {"type":"reconfigure","security_levels":[0.9,0.4,0.75]}
//! {"type":"reconfigure","shard":1,"security_levels":[0.8]}
//! {"type":"fail_site","site":2}
//! {"type":"fail_site","site":2,"at":120.0}
//! {"type":"rejoin_site","site":2,"at":300.0}
//! {"type":"drain"}
//! {"type":"reshard","shards":[[0,1],[2],[3]]}
//! {"type":"shutdown"}
//! ```
//!
//! `fail_site` / `rejoin_site` inject site churn (the chaos scenario
//! engine's wire form): site ids are always global, the router owns the
//! offline set, and the owning shard requeues any job stranded mid-
//! execution on a failed site — nothing is silently lost. The optional
//! `at` stamps the virtual instant (virtual-clock mode; wall-clock
//! daemons stamp their monotonic clock, as with arrivals). A downed site
//! is excluded from derived routing: a job whose every eligible site is
//! offline gets a typed `site_offline` response instead of a placement.
//!
//! A daemon serving several shards routes `submit` frames by the `shard`
//! field, or — when it is absent — derives the shard from the job's
//! eligible sites (unambiguous only when all of them sit in one shard;
//! spanning jobs are rejected with a typed `route_rejected` frame).
//! Queries and `reconfigure` address one shard via `shard`, or all shards
//! when it is absent (aggregated views / a global trust update). `drain`
//! always barriers every shard.
//!
//! `reshard` reshapes the topology live (elastic daemons only): the
//! router drains every shard, transfers per-shard state to the sessions
//! of the new plan, and swaps plans atomically — see `Request::Reshard`.
//!
//! Every request gets exactly one response frame (`accepted`, `busy`,
//! `schedule`, `metrics`, `telemetry`, `trace_dump`, `shards`,
//! `reconfigured`, `drained`, `resharded`, `reshard_rejected`, `bye`,
//! `route_rejected`, `unknown_shard`, or `error`). Requests may be
//! pipelined: responses always come back in request order (per-client
//! sequence numbers reorder replies arriving from different shard
//! threads), so lock-step clients and pipelining clients both stay in
//! sync.

use gridsec_core::{Job, JobId, SiteId, Time};
use gridsec_obs::{HistogramSnapshot, RecorderStatus, TraceEvent};
use serde::{Deserialize, Serialize};

/// Default cap on one frame line (bytes, newline included). Oversized
/// lines are consumed and rejected with an [`Response::Error`] instead of
/// buffering without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A client → daemon frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum Request {
    /// Submit jobs. In virtual-clock mode the job `arrival` times drive
    /// batching and must be non-decreasing per shard; in wall-clock mode
    /// arrivals are stamped by the daemon.
    Submit {
        /// The jobs to enqueue, in arrival order.
        jobs: Vec<Job>,
        /// Target shard; absent → derived from the jobs' eligible sites.
        shard: Option<usize>,
        /// Tenant label for per-tenant queue-wait telemetry; absent →
        /// the `"default"` tenant. Purely observational: routing and
        /// scheduling never read it.
        #[serde(default)]
        tenant: Option<String>,
    },
    /// Read server state without changing it.
    Query {
        /// Which view to return.
        what: QueryWhat,
        /// One shard's view; absent → aggregated over all shards.
        shard: Option<usize>,
    },
    /// Update the per-site trust state (an IDS re-rating sites): one
    /// security level per site, in site order.
    Reconfigure {
        /// New security levels, all in `[0, 1]` — one per site of the
        /// addressed shard (in shard-local site order), or one per site
        /// of the whole grid (global site order) when `shard` is absent.
        security_levels: Vec<f64>,
        /// Scope the update to one shard; absent → whole grid.
        shard: Option<usize>,
        /// Virtual instant the re-rating applies at (fires due boundaries
        /// first, like an arrival). Absent → applies at the session's
        /// current clock; ignored in wall-clock mode.
        at: Option<Time>,
    },
    /// Take a site offline (chaos injection). Jobs stranded mid-
    /// execution on it are requeued into the owning shard's next batch.
    FailSite {
        /// Global site id.
        site: usize,
        /// Virtual failure instant; absent → the session's current
        /// clock. Ignored in wall-clock mode (stamped from the monotonic
        /// clock).
        at: Option<Time>,
    },
    /// Bring a failed site back online with all nodes free.
    RejoinSite {
        /// Global site id.
        site: usize,
        /// Virtual rejoin instant; see [`Request::FailSite::at`].
        at: Option<Time>,
    },
    /// Run scheduling rounds until every shard's pending queue is empty
    /// (a barrier across all shards).
    Drain,
    /// Reshape the shard topology to an explicit target plan: at a drain
    /// barrier, per-shard state (availability, pending queues, in-flight
    /// commits, STGA history snapshots) transfers to the new shards and
    /// the router swaps plans atomically. `shards` lists the global site
    /// ids of every new shard — a full site-disjoint partition of the
    /// grid. Only daemons started with a session factory (the elastic
    /// mode) accept this; a malformed partition gets a typed
    /// `reshard_rejected`.
    Reshard {
        /// Global site ids per new shard (every grid site exactly once).
        shards: Vec<Vec<usize>>,
    },
    /// Pull a flight-recorder snapshot: every thread's ring buffer,
    /// merged and timestamp-ordered (`gridsec trace-dump`).
    TraceDump,
    /// Drain all shards, reply `bye`, and stop the daemon.
    Shutdown,
}

/// What a [`Request::Query`] asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum QueryWhat {
    /// Every assignment committed so far (the served schedule).
    Schedule,
    /// Aggregate serving metrics.
    Metrics,
    /// The shard topology: which sites each shard owns, its scheduler and
    /// cheap per-shard counters.
    Shards,
    /// Histogram summaries per shard (round latency, batch size,
    /// per-tenant queue wait), reshard barrier timings, and the flight
    /// recorder's status.
    Telemetry,
}

/// One committed assignment on the wire: the round core's own commit record
/// (`job`, `site`, `width`, `start`, `end`), serialised as it stands.
pub use gridsec_sim::CommittedAssignment as Placed;

/// Aggregate serving metrics (cheap to compute, safe to poll).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeMetrics {
    /// Jobs accepted over the session.
    pub jobs_submitted: usize,
    /// Jobs with at least one committed assignment.
    pub jobs_scheduled: usize,
    /// Jobs waiting for the next round.
    pub pending: usize,
    /// Non-empty scheduling rounds run.
    pub rounds: usize,
    /// Scheduler wall-clock nanoseconds of the most recent rounds, in
    /// round order, at most [`METRICS_WINDOW`] per shard. The
    /// distribution is [`ServeMetrics::round_nanos_hist`]; this raw window
    /// stays on the wire because `gridbench` reads its percentiles.
    pub round_nanos: Vec<u64>,
    /// Total wall-clock seconds spent inside the scheduler.
    pub scheduler_seconds: f64,
    /// The session's virtual clock (last arrival / boundary instant).
    pub virtual_now: Time,
    /// Latest committed completion time (the running makespan).
    pub max_completion: Time,
    /// Site failures injected (`fail_site` frames applied).
    #[serde(default)]
    pub sites_failed: usize,
    /// Site rejoins injected (`rejoin_site` frames applied).
    #[serde(default)]
    pub sites_rejoined: usize,
    /// Jobs requeued after the site running them failed mid-execution.
    #[serde(default)]
    pub jobs_requeued: usize,
    /// Jobs refused with a `busy` frame by the bounded pending queue.
    #[serde(default)]
    pub busy_rejections: usize,
    /// Topology changes completed (`reshard` frames plus autoscaler
    /// actions applied at a drain barrier).
    #[serde(default)]
    pub reshards_completed: usize,
    /// Pending or in-flight jobs whose owning shard changed across a
    /// reshard (state moved to a shard with a different site set).
    #[serde(default)]
    pub jobs_migrated: usize,
    /// Log2 histogram of scheduler nanoseconds per round, over the whole
    /// session.
    #[serde(default)]
    pub round_nanos_hist: HistogramSnapshot,
    /// Log2 histogram of batch sizes per round, over the whole session.
    #[serde(default)]
    pub batch_size_hist: HistogramSnapshot,
}

/// Entries retained in the windowed `round_nanos` of a [`ServeMetrics`]
/// frame (per shard).
pub const METRICS_WINDOW: usize = 512;

impl ServeMetrics {
    /// Aggregates per-shard metrics into one grid-wide view: counters and
    /// scheduler seconds are summed, histograms merged, the round-latency
    /// windows concatenated in shard order, and the clock/makespan fields
    /// take the maximum over shards.
    pub fn merge(per_shard: &[ServeMetrics]) -> ServeMetrics {
        let mut out = ServeMetrics {
            jobs_submitted: 0,
            jobs_scheduled: 0,
            pending: 0,
            rounds: 0,
            round_nanos: Vec::new(),
            scheduler_seconds: 0.0,
            virtual_now: Time::ZERO,
            max_completion: Time::ZERO,
            sites_failed: 0,
            sites_rejoined: 0,
            jobs_requeued: 0,
            busy_rejections: 0,
            reshards_completed: 0,
            jobs_migrated: 0,
            round_nanos_hist: HistogramSnapshot::default(),
            batch_size_hist: HistogramSnapshot::default(),
        };
        for m in per_shard {
            out.jobs_submitted += m.jobs_submitted;
            out.jobs_scheduled += m.jobs_scheduled;
            out.pending += m.pending;
            out.rounds += m.rounds;
            out.round_nanos.extend_from_slice(&m.round_nanos);
            out.scheduler_seconds += m.scheduler_seconds;
            out.virtual_now = out.virtual_now.max(m.virtual_now);
            out.max_completion = out.max_completion.max(m.max_completion);
            out.sites_failed += m.sites_failed;
            out.sites_rejoined += m.sites_rejoined;
            out.jobs_requeued += m.jobs_requeued;
            out.busy_rejections += m.busy_rejections;
            out.reshards_completed += m.reshards_completed;
            out.jobs_migrated += m.jobs_migrated;
            out.round_nanos_hist.merge(&m.round_nanos_hist);
            out.batch_size_hist.merge(&m.batch_size_hist);
        }
        out
    }
}

/// One tenant's queue-wait distribution within a shard.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantWait {
    /// Tenant label (`"default"` for untagged submits).
    pub tenant: String,
    /// Log2 histogram of virtual microseconds between a job's arrival
    /// and the start of its committed execution.
    pub wait_micros: HistogramSnapshot,
}

/// One shard's histogram summaries (the `query what=telemetry` view).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardTelemetry {
    /// The shard id.
    pub shard: usize,
    /// Scheduler nanoseconds per round.
    pub round_nanos: HistogramSnapshot,
    /// Batch size per round.
    pub batch_size: HistogramSnapshot,
    /// Queue-wait distributions per tenant, in first-seen order.
    pub queue_wait: Vec<TenantWait>,
}

/// The aggregated `query what=telemetry` response: per-shard histogram
/// summaries, router-level reshard timings, and the flight recorder's
/// status.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// One entry per addressed shard, ascending by shard id.
    pub shards: Vec<ShardTelemetry>,
    /// Wall-clock nanoseconds of each completed reshard barrier (drain
    /// → transfer → respawn → swap).
    #[serde(default)]
    pub reshard_barrier_nanos: HistogramSnapshot,
    /// Jobs migrated per completed reshard.
    #[serde(default)]
    pub reshard_migrated_jobs: HistogramSnapshot,
    /// Flight-recorder health.
    #[serde(default)]
    pub recorder: RecorderStatus,
}

/// One shard's topology and cheap counters (the `query what=shards`
/// view).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardInfo {
    /// The shard id.
    pub shard: usize,
    /// Global site ids this shard owns.
    pub sites: Vec<SiteId>,
    /// The shard scheduler's display name.
    pub scheduler: String,
    /// Jobs accepted by this shard.
    pub jobs_submitted: usize,
    /// Jobs with at least one committed assignment.
    pub jobs_scheduled: usize,
    /// Jobs waiting for the shard's next round.
    pub pending: usize,
    /// Non-empty scheduling rounds this shard has run.
    pub rounds: usize,
}

/// A daemon → client frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum Response {
    /// Submit accepted.
    Accepted {
        /// Jobs enqueued by this frame.
        jobs: usize,
        /// The shard that accepted them.
        shard: usize,
        /// The shard's queue depth after the frame (rounds may have fired
        /// mid-frame).
        pending: usize,
        /// Rounds the shard has run so far.
        rounds: usize,
    },
    /// The shard's bounded pending queue is full: jobs beyond `jobs`
    /// were **not** enqueued — resubmit them once the shard runs a round
    /// (nothing is dropped silently, the accepted prefix stays accepted).
    Busy {
        /// Jobs from this frame that were enqueued before the limit hit.
        jobs: usize,
        /// The shard that refused.
        shard: usize,
        /// The shard's current queue depth (= the limit).
        pending: usize,
        /// The configured per-shard queue bound.
        limit: usize,
    },
    /// The served schedule (response to `query what=schedule`).
    Schedule {
        /// Every committed assignment, in commit order.
        assignments: Vec<Placed>,
    },
    /// Serving metrics (response to `query what=metrics`).
    Metrics {
        /// The metrics snapshot.
        metrics: ServeMetrics,
    },
    /// Histogram summaries and recorder status (response to
    /// `query what=telemetry`).
    Telemetry {
        /// The telemetry snapshot.
        telemetry: TelemetryReport,
    },
    /// A flight-recorder snapshot (response to `trace_dump`): every
    /// thread's ring, merged oldest-first. Render as NDJSON with one
    /// event per line.
    TraceDump {
        /// Timestamp-ordered events.
        events: Vec<TraceEvent>,
    },
    /// Trust state updated.
    Reconfigured {
        /// Number of sites updated.
        sites: usize,
    },
    /// Site taken offline (response to `fail_site`).
    SiteFailed {
        /// The global site id now offline.
        site: usize,
        /// The shard that owns the site.
        shard: usize,
        /// Jobs stranded mid-execution on it, requeued for the shard's
        /// next round (never silently lost).
        requeued: usize,
    },
    /// Site back online (response to `rejoin_site`).
    SiteRejoined {
        /// The global site id back online.
        site: usize,
        /// The shard that owns the site.
        shard: usize,
    },
    /// Derived routing refused a job because every site it is eligible
    /// on is currently offline. Frame-atomic like `route_rejected`:
    /// nothing from the frame was enqueued — resubmit after a rejoin.
    SiteOffline {
        /// The job that could not be routed.
        job: JobId,
        /// The offline sites the job would have been eligible on.
        sites: Vec<SiteId>,
        /// Human-readable explanation.
        message: String,
    },
    /// Pending queue flushed.
    Drained {
        /// Total rounds run so far.
        rounds: usize,
        /// Jobs with at least one committed assignment.
        jobs_scheduled: usize,
    },
    /// The shard topology (response to `query what=shards`).
    Shards {
        /// One entry per addressed shard, ascending by shard id.
        shards: Vec<ShardInfo>,
    },
    /// Derived routing failed: the named job is eligible on sites
    /// spanning several shards (or none, or a different shard than the
    /// frame's other jobs), and no explicit `shard` was given. Routing
    /// is frame-atomic — **nothing** from the frame was enqueued, so the
    /// client resubmits the whole frame (split, or with an explicit
    /// shard).
    RouteRejected {
        /// The job that could not be routed.
        job: JobId,
        /// The shards holding sites the job is eligible on (empty when
        /// it fits nowhere).
        shards: Vec<usize>,
        /// Human-readable explanation.
        message: String,
    },
    /// Topology change applied: state transferred, sessions respawned,
    /// the router now serves the new plan (response to `reshard` or
    /// reported for autoscaler actions via metrics counters).
    Resharded {
        /// Shards in the new plan.
        shards: usize,
        /// Pending/in-flight jobs whose owning shard changed.
        jobs_migrated: usize,
        /// Total topology changes this daemon has completed.
        reshards_completed: usize,
    },
    /// The `reshard` request was refused — malformed partition, no
    /// session factory, a session failed to rebuild, or the daemon is
    /// draining for shutdown. The previous topology keeps serving
    /// untouched.
    ReshardRejected {
        /// Human-readable explanation.
        message: String,
    },
    /// The request named a shard the daemon does not serve.
    UnknownShard {
        /// The shard id the request named.
        shard: usize,
        /// How many shards the daemon serves (valid ids are
        /// `0..n_shards`).
        n_shards: usize,
    },
    /// Shutdown acknowledged; the daemon exits after this frame.
    Bye,
    /// The request failed; the connection stays usable.
    Error {
        /// What went wrong.
        message: String,
    },
}

/// One decoded line, borrowed from the [`LineDecoder`] that produced it.
#[derive(Debug, PartialEq, Eq)]
pub enum Line<'a> {
    /// A complete line (without the trailing newline).
    Frame(&'a [u8]),
    /// The line exceeded the cap; it was consumed up to its newline so
    /// the stream stays framed, and its body length is reported.
    TooLong(usize),
}

/// The incremental NDJSON line decoder — the one frame decoder, behind
/// both the daemon's I/O threads and the blocking [`Client`](crate::Client).
///
/// [`push`](LineDecoder::push) each read, then pull lines with
/// [`next_line`](LineDecoder::next_line) until `None`. Any segmentation
/// of a byte stream yields the same lines. A line over the cap is
/// *consumed, then rejected*: its bytes are dropped as they arrive
/// (memory stays bounded by the cap plus what was pushed) and one
/// [`Line::TooLong`] carrying its full body length comes out where it
/// ends. Pulling one line at a time lets a caller stop mid-buffer and
/// resume later (the daemon parks connections this way).
#[derive(Debug, Default)]
pub struct LineDecoder {
    max: usize,
    /// Pushed bytes; `buf[start..]` is not yet consumed.
    buf: Vec<u8>,
    start: usize,
    /// `buf[start..scan]` is known to hold no newline.
    scan: usize,
    /// Body bytes of the current (oversized) line already dropped.
    dropped: usize,
}

impl LineDecoder {
    /// A decoder that rejects lines whose body exceeds `max` bytes.
    pub fn new(max: usize) -> LineDecoder {
        LineDecoder {
            max,
            ..LineDecoder::default()
        }
    }

    /// Appends freshly read bytes (reclaiming the consumed prefix).
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.start);
        self.scan -= self.start;
        self.start = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// The next line, or `None` when the buffered input ends mid-line.
    /// With `eof` (the stream has ended) the end of input also ends the
    /// last line, if there is one.
    pub fn next_line(&mut self, eof: bool) -> Option<Line<'_>> {
        let from = self.start;
        let to = match self.buf[self.scan..].iter().position(|&b| b == b'\n') {
            Some(p) => {
                self.start = self.scan + p + 1;
                self.start - 1
            }
            None => {
                let end = self.buf.len();
                self.scan = end;
                let oversized = self.dropped > 0 || end - from > self.max;
                if !eof || (end == from && !oversized) {
                    if oversized {
                        // Discard mode: count the body, keep none of it.
                        self.dropped += end - from;
                        self.start = end;
                    }
                    return None;
                }
                self.start = end;
                end
            }
        };
        self.scan = self.start;
        let len = std::mem::take(&mut self.dropped) + (to - from);
        Some(if len > self.max {
            Line::TooLong(len)
        } else {
            Line::Frame(&self.buf[from..to])
        })
    }
}

/// Parses a frame line into a request (empty/whitespace lines are
/// `Ok(None)` — keep-alive newlines are tolerated). Parses straight from
/// the byte line (`serde_json::from_slice`): no whole-frame UTF-8 pass,
/// string contents are validated where they are decoded.
pub fn parse_request(line: &[u8]) -> Result<Option<Request>, String> {
    if line.iter().all(u8::is_ascii_whitespace) {
        return Ok(None);
    }
    serde_json::from_slice(line)
        .map(Some)
        .map_err(|e| format!("invalid frame: {e}"))
}

/// Serialises any frame as one NDJSON line (newline included).
pub fn encode<T: Serialize>(frame: &T) -> String {
    let mut s = serde_json::to_string(frame).expect("frames serialise");
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_frames_round_trip() {
        let frames = vec![
            Request::Submit {
                jobs: vec![Job::builder(3)
                    .arrival(Time::new(2.0))
                    .work(50.0)
                    .security_demand(0.6)
                    .build()
                    .unwrap()],
                shard: None,
                tenant: None,
            },
            Request::Submit {
                jobs: vec![],
                shard: Some(2),
                tenant: Some("batch".into()),
            },
            Request::Query {
                what: QueryWhat::Schedule,
                shard: None,
            },
            Request::Query {
                what: QueryWhat::Metrics,
                shard: Some(0),
            },
            Request::Query {
                what: QueryWhat::Shards,
                shard: None,
            },
            Request::Query {
                what: QueryWhat::Telemetry,
                shard: None,
            },
            Request::TraceDump,
            Request::Reconfigure {
                security_levels: vec![0.5, 0.9],
                shard: None,
                at: None,
            },
            Request::Reconfigure {
                security_levels: vec![0.7],
                shard: Some(1),
                at: Some(Time::new(45.0)),
            },
            Request::FailSite { site: 2, at: None },
            Request::FailSite {
                site: 0,
                at: Some(Time::new(120.0)),
            },
            Request::RejoinSite {
                site: 2,
                at: Some(Time::new(300.0)),
            },
            Request::Drain,
            Request::Reshard {
                shards: vec![vec![0, 1], vec![2], vec![3]],
            },
            Request::Shutdown,
        ];
        for f in frames {
            let line = encode(&f);
            assert!(line.ends_with('\n'));
            let back = parse_request(line.as_bytes()).unwrap().unwrap();
            assert_eq!(back, f);
        }
    }

    #[test]
    fn pre_sharding_frames_still_parse() {
        // PR 4 clients never send a `shard` field; those frames must keep
        // parsing (shard = None → derived routing / aggregated views).
        let submit = parse_request(
            b"{\"type\":\"submit\",\"jobs\":[{\"id\":0,\"arrival\":0.0,\"width\":1,\
              \"work\":10.0,\"security_demand\":0.5}]}",
        )
        .unwrap()
        .unwrap();
        match submit {
            Request::Submit {
                jobs,
                shard,
                tenant,
            } => {
                assert_eq!(jobs.len(), 1);
                assert_eq!(shard, None);
                assert_eq!(tenant, None);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        let query = parse_request(b"{\"type\":\"query\",\"what\":\"metrics\"}")
            .unwrap()
            .unwrap();
        assert_eq!(
            query,
            Request::Query {
                what: QueryWhat::Metrics,
                shard: None
            }
        );
        let reconf = parse_request(b"{\"type\":\"reconfigure\",\"security_levels\":[0.4]}")
            .unwrap()
            .unwrap();
        assert_eq!(
            reconf,
            Request::Reconfigure {
                security_levels: vec![0.4],
                shard: None,
                at: None
            }
        );
        // A chaos frame without `at` applies at the session clock.
        let fail = parse_request(b"{\"type\":\"fail_site\",\"site\":1}")
            .unwrap()
            .unwrap();
        assert_eq!(fail, Request::FailSite { site: 1, at: None });
        // Metrics frames emitted before the failure counters existed
        // still parse (counters default to zero).
        let m: ServeMetrics = serde_json::from_str(
            "{\"jobs_submitted\":1,\"jobs_scheduled\":1,\"pending\":0,\"rounds\":1,\
             \"batch_sizes\":[1],\"round_nanos\":[5],\"scheduler_seconds\":0.1,\
             \"virtual_now\":10.0,\"max_completion\":20.0}",
        )
        .unwrap();
        assert_eq!(m.sites_failed, 0);
        assert_eq!(m.jobs_requeued, 0);
        assert_eq!(m.busy_rejections, 0);
        assert_eq!(m.reshards_completed, 0);
        assert_eq!(m.jobs_migrated, 0);
        // Histograms introduced in PR 9 default to empty.
        assert_eq!(m.round_nanos_hist, HistogramSnapshot::default());
        assert_eq!(m.batch_size_hist, HistogramSnapshot::default());
    }

    fn hist_of(samples: &[u64]) -> HistogramSnapshot {
        let h = gridsec_obs::Histogram::new();
        for &s in samples {
            h.record(s);
        }
        h.snapshot()
    }

    #[test]
    fn metrics_merge_sums_counters_and_concatenates_distributions() {
        let a = ServeMetrics {
            jobs_submitted: 3,
            jobs_scheduled: 2,
            pending: 1,
            rounds: 2,
            round_nanos: vec![10, 20],
            scheduler_seconds: 0.5,
            virtual_now: Time::new(30.0),
            max_completion: Time::new(90.0),
            sites_failed: 1,
            sites_rejoined: 1,
            jobs_requeued: 2,
            busy_rejections: 4,
            reshards_completed: 1,
            jobs_migrated: 2,
            round_nanos_hist: hist_of(&[10, 20]),
            batch_size_hist: hist_of(&[1, 1]),
        };
        let b = ServeMetrics {
            jobs_submitted: 5,
            jobs_scheduled: 5,
            pending: 0,
            rounds: 1,
            round_nanos: vec![7],
            scheduler_seconds: 0.25,
            virtual_now: Time::new(50.0),
            max_completion: Time::new(60.0),
            sites_failed: 2,
            sites_rejoined: 0,
            jobs_requeued: 3,
            busy_rejections: 0,
            reshards_completed: 0,
            jobs_migrated: 3,
            round_nanos_hist: hist_of(&[7]),
            batch_size_hist: hist_of(&[5]),
        };
        let m = ServeMetrics::merge(&[a.clone(), b]);
        assert_eq!(m.jobs_submitted, 8);
        assert_eq!(m.jobs_scheduled, 7);
        assert_eq!(m.pending, 1);
        assert_eq!(m.rounds, 3);
        assert_eq!(m.round_nanos, vec![10, 20, 7]);
        assert_eq!(m.scheduler_seconds, 0.75);
        assert_eq!(m.virtual_now, Time::new(50.0));
        assert_eq!(m.max_completion, Time::new(90.0));
        assert_eq!(m.sites_failed, 3);
        assert_eq!(m.sites_rejoined, 1);
        assert_eq!(m.jobs_requeued, 5);
        assert_eq!(m.busy_rejections, 4);
        assert_eq!(m.reshards_completed, 1);
        assert_eq!(m.jobs_migrated, 5);
        // Histograms merge by per-bucket addition: the merged histogram
        // equals one built from the concatenated samples.
        assert_eq!(m.round_nanos_hist, hist_of(&[10, 20, 7]));
        assert_eq!(m.batch_size_hist, hist_of(&[1, 1, 5]));
        // Merging one shard is the identity.
        assert_eq!(ServeMetrics::merge(std::slice::from_ref(&a)), a);
        // And the merged view crosses the wire losslessly.
        let frame = Response::Metrics { metrics: m };
        let back: Response = serde_json::from_str(encode(&frame).trim()).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn response_frames_round_trip() {
        let frames = vec![
            Response::Accepted {
                jobs: 2,
                shard: 0,
                pending: 5,
                rounds: 1,
            },
            Response::Busy {
                jobs: 1,
                shard: 2,
                pending: 8,
                limit: 8,
            },
            Response::Schedule {
                assignments: vec![Placed {
                    job: JobId(7),
                    site: SiteId(1),
                    width: 2,
                    start: Time::new(10.0),
                    end: Time::new(60.0),
                }],
            },
            Response::Shards {
                shards: vec![ShardInfo {
                    shard: 1,
                    sites: vec![SiteId(2), SiteId(3)],
                    scheduler: "MinMin".into(),
                    jobs_submitted: 4,
                    jobs_scheduled: 3,
                    pending: 1,
                    rounds: 2,
                }],
            },
            Response::RouteRejected {
                job: JobId(9),
                shards: vec![0, 1],
                message: "spanning".into(),
            },
            Response::SiteFailed {
                site: 2,
                shard: 1,
                requeued: 3,
            },
            Response::SiteRejoined { site: 2, shard: 1 },
            Response::SiteOffline {
                job: JobId(11),
                sites: vec![SiteId(0), SiteId(2)],
                message: "all eligible sites offline".into(),
            },
            Response::Resharded {
                shards: 4,
                jobs_migrated: 3,
                reshards_completed: 2,
            },
            Response::Telemetry {
                telemetry: TelemetryReport {
                    shards: vec![ShardTelemetry {
                        shard: 0,
                        round_nanos: hist_of(&[1_000, 2_000]),
                        batch_size: hist_of(&[2, 3]),
                        queue_wait: vec![TenantWait {
                            tenant: "default".into(),
                            wait_micros: hist_of(&[15, 90]),
                        }],
                    }],
                    reshard_barrier_nanos: hist_of(&[500_000]),
                    reshard_migrated_jobs: hist_of(&[4]),
                    recorder: gridsec_obs::recorder::status(),
                },
            },
            Response::TraceDump {
                events: vec![gridsec_obs::TraceEvent {
                    t_nanos: 42,
                    thread: 0,
                    kind: "event".into(),
                    name: "dispatch".into(),
                    fields: vec![gridsec_obs::TraceField {
                        key: "shard".into(),
                        value: 1,
                    }],
                }],
            },
            Response::ReshardRejected {
                message: "site 1 appears in more than one shard".into(),
            },
            Response::UnknownShard {
                shard: 7,
                n_shards: 2,
            },
            Response::Bye,
            Response::Error {
                message: "nope".into(),
            },
        ];
        for f in frames {
            let line = encode(&f);
            let back: Response = serde_json::from_str(line.trim()).unwrap();
            assert_eq!(back, f);
        }
    }

    /// Python's `json.dumps` writes 😀 as a UTF-16 surrogate pair of `\u`
    /// escapes (`ensure_ascii=True`). At c8a9ccb such a frame failed with
    /// `invalid codepoint`.
    #[test]
    fn an_escaped_emoji_tenant_parses() {
        let frame = b"{\"type\":\"submit\",\"jobs\":[],\"tenant\":\"\\ud83d\\ude00\"}";
        assert_eq!(
            parse_request(frame).unwrap(),
            Some(Request::Submit {
                jobs: vec![],
                shard: None,
                tenant: Some("\u{1f600}".into()),
            })
        );
    }

    #[test]
    fn blank_lines_are_ignored() {
        assert_eq!(parse_request(b"").unwrap(), None);
        assert_eq!(parse_request(b"   \t").unwrap(), None);
        assert!(parse_request(b"{oops").is_err());
        assert!(parse_request(&[0xFF, 0xFE]).is_err());
    }

    /// Pushes `data` in `chunk`-byte pieces (1 = the harshest possible
    /// TCP segmentation), pulling every line after each push and the
    /// tail at EOF. Lines come back owned: `Ok(body)` or `Err(length)`.
    fn decode(data: &[u8], chunk: usize, max: usize) -> Vec<Result<Vec<u8>, usize>> {
        fn own(line: Line<'_>) -> Result<Vec<u8>, usize> {
            match line {
                Line::Frame(body) => Ok(body.to_vec()),
                Line::TooLong(n) => Err(n),
            }
        }
        let mut decoder = LineDecoder::new(max);
        let mut lines = Vec::new();
        for piece in data.chunks(chunk) {
            decoder.push(piece);
            while let Some(line) = decoder.next_line(false) {
                lines.push(own(line));
            }
        }
        while let Some(line) = decoder.next_line(true) {
            lines.push(own(line));
        }
        lines
    }

    #[test]
    fn bounded_reader_handles_partial_reads() {
        // The unterminated tail is still delivered at EOF, then nothing.
        assert_eq!(
            decode(b"{\"type\":\"drain\"}\nrest", 1, 64),
            vec![Ok(b"{\"type\":\"drain\"}".to_vec()), Ok(b"rest".to_vec())]
        );
    }

    #[test]
    fn bounded_reader_rejects_oversized_lines_and_stays_framed() {
        let mut data = vec![b'x'; 100];
        data.push(b'\n');
        data.extend_from_slice(b"ok\n");
        // The next frame parses cleanly: the oversized line was consumed
        // exactly up to its newline, whether it arrived in pieces (and
        // was dropped as it came) or whole.
        for chunk in [7, 200] {
            assert_eq!(decode(&data, chunk, 10), vec![Err(100), Ok(b"ok".to_vec())]);
        }
        // The cap is on the body: exactly `max` bytes still pass.
        assert_eq!(decode(b"0123456789\n", 3, 10).len(), 1);
        assert_eq!(
            decode(b"0123456789\n", 3, 10)[0],
            Ok(b"0123456789".to_vec())
        );
    }

    #[test]
    fn bounded_reader_eof_inside_oversized_line() {
        assert_eq!(decode(&[b'y'; 50], 8, 16), vec![Err(50)]);
    }

    #[test]
    fn decoder_can_stop_mid_buffer_and_resume() {
        // What parking a connection relies on: lines left in the buffer
        // survive until they are pulled, across later pushes.
        let mut decoder = LineDecoder::new(64);
        decoder.push(b"a\nb\nc");
        assert_eq!(decoder.next_line(false), Some(Line::Frame(b"a")));
        decoder.push(b"d\n");
        assert_eq!(decoder.next_line(false), Some(Line::Frame(b"b")));
        assert_eq!(decoder.next_line(false), Some(Line::Frame(b"cd")));
        assert_eq!(decoder.next_line(false), None);
        assert_eq!(decoder.next_line(true), None);
    }
}

//! The codec's bytes, pinned: what `parse_request` makes of each frame
//! line (the value, or the error text with its byte position), and the
//! exact line `encode` writes for one instance of every `Request` and
//! `Response` variant. The expected values were captured at c8a9ccb,
//! before the vendored codec stopped cloning and started formatting in
//! place, so any byte that moves fails here. The rows of [`added_rows`]
//! come from the two fixes that came with that change (nesting depth,
//! `\u` surrogate pairs); every other row is the parent's answer.

use gridsec_core::{Job, JobId, SiteId, Time};
use gridsec_obs::{HistogramSnapshot, RecorderStatus, TraceEvent, TraceField};
use gridsec_serve::protocol::{encode, parse_request};
use gridsec_serve::{
    Placed, QueryWhat, Request, Response, ServeMetrics, ShardInfo, ShardTelemetry, TelemetryReport,
    TenantWait,
};

/// Part 1: frame line → `Debug` text of `parse_request(line)`.
const DECODE: &[(&[u8], &str)] = &[
    // Every variant, as gridbench and the docs write them.
    (
        br#"{"type":"submit","shard":0,"tenant":"gb","jobs":[{"id":7,"arrival":0.0,"width":1,"work":1234.5678,"security_demand":0.71}]}"#,
        r#"Ok(Some(Submit { jobs: [Job { id: JobId(7), arrival: Time(0.0), width: 1, work: 1234.5678, security_demand: 0.71 }], shard: Some(0), tenant: Some("gb") }))"#,
    ),
    (
        br#"{"type":"query","what":"metrics"}"#,
        r#"Ok(Some(Query { what: Metrics, shard: None }))"#,
    ),
    (
        br#"{"type":"query","what":"schedule","shard":0}"#,
        r#"Ok(Some(Query { what: Schedule, shard: Some(0) }))"#,
    ),
    (
        br#"{"type":"query","what":"shards"}"#,
        r#"Ok(Some(Query { what: Shards, shard: None }))"#,
    ),
    (
        br#"{"type":"query","what":"telemetry"}"#,
        r#"Ok(Some(Query { what: Telemetry, shard: None }))"#,
    ),
    (
        br#"{"type":"reconfigure","security_levels":[0.9,0.4,1,0],"shard":1,"at":12.5}"#,
        r#"Ok(Some(Reconfigure { security_levels: [0.9, 0.4, 1.0, 0.0], shard: Some(1), at: Some(Time(12.5)) }))"#,
    ),
    (
        br#"{"type":"fail_site","site":2,"at":120}"#,
        r#"Ok(Some(FailSite { site: 2, at: Some(Time(120.0)) }))"#,
    ),
    (
        br#"{"type":"rejoin_site","site":2,"at":300.0}"#,
        r#"Ok(Some(RejoinSite { site: 2, at: Some(Time(300.0)) }))"#,
    ),
    (br#"{"type":"drain"}"#, r#"Ok(Some(Drain))"#),
    (
        br#"{"type":"reshard","shards":[[0,1],[2],[]]}"#,
        r#"Ok(Some(Reshard { shards: [[0, 1], [2], []] }))"#,
    ),
    (br#"{"type":"trace_dump"}"#, r#"Ok(Some(TraceDump))"#),
    (br#"{"type":"shutdown"}"#, r#"Ok(Some(Shutdown))"#),
    // Absent and `null` optionals; blank lines.
    (
        br#"{"type":"submit","jobs":[{"id":1,"arrival":2.5,"width":2,"work":10.0,"security_demand":0.6}]}"#,
        r#"Ok(Some(Submit { jobs: [Job { id: JobId(1), arrival: Time(2.5), width: 2, work: 10.0, security_demand: 0.6 }], shard: None, tenant: None }))"#,
    ),
    (
        br#"{"type":"submit","jobs":[],"shard":null,"tenant":null}"#,
        r#"Ok(Some(Submit { jobs: [], shard: None, tenant: None }))"#,
    ),
    (
        br#"{"type":"reconfigure","security_levels":[],"at":null}"#,
        r#"Ok(Some(Reconfigure { security_levels: [], shard: None, at: None }))"#,
    ),
    (b"", r#"Ok(None)"#),
    (b" \t\r ", r#"Ok(None)"#),
    (
        b"\t{ \"type\" : \"query\" ,\r\n \"what\" : \"metrics\" , \"shard\" : 1 } \t",
        r#"Ok(Some(Query { what: Metrics, shard: Some(1) }))"#,
    ),
    // A `null` `Time` reads as +inf, which a job refuses.
    (
        br#"{"type":"submit","jobs":[{"id":1,"arrival":null,"width":1,"work":5.0,"security_demand":0.5}]}"#,
        r#"Err("invalid frame: invalid parameter `arrival`: non-finite arrival time")"#,
    ),
    // Duplicate keys: the first one wins, at every level.
    (
        br#"{"type":"fail_site","site":1,"site":2}"#,
        r#"Ok(Some(FailSite { site: 1, at: None }))"#,
    ),
    (br#"{"type":"drain","type":"shutdown"}"#, r#"Ok(Some(Drain))"#),
    (
        br#"{"type":"submit","jobs":[{"id":1,"id":2,"arrival":0,"width":1,"work":1,"security_demand":0.5}],"tenant":"a","tenant":"b","jobs":[]}"#,
        r#"Ok(Some(Submit { jobs: [Job { id: JobId(1), arrival: Time(0.0), width: 1, work: 1.0, security_demand: 0.5 }], shard: None, tenant: Some("a") }))"#,
    ),
    // Unknown fields are ignored, however they nest.
    (
        br#"{"type":"drain","extra":[1,{"x":null,"y":[true,false]}],"more":"s"}"#,
        r#"Ok(Some(Drain))"#,
    ),
    (
        br#"{"":1,"type":"drain","x":[[[[[[[[[[1]]]]]]]]]]}"#,
        r#"Ok(Some(Drain))"#,
    ),
    (
        br#"{"type":"submit","jobs":[{"id":3,"arrival":1,"width":1,"work":2,"security_demand":0.5,"note":{"a":[]}}]}"#,
        r#"Ok(Some(Submit { jobs: [Job { id: JobId(3), arrival: Time(1.0), width: 1, work: 2.0, security_demand: 0.5 }], shard: None, tenant: None }))"#,
    ),
    // Escapes, raw non-ASCII and raw control bytes inside strings.
    (
        r#"{"type":"submit","jobs":[],"tenant":"q\"b\\s\/n\nr\rt\tb\bf\fu\u00e9\u20AC\u0000é€😀"}"#
            .as_bytes(),
        r#"Ok(Some(Submit { jobs: [], shard: None, tenant: Some("q\"b\\s/n\nr\rt\tb\u{8}f\u{c}ué€\0é€😀") }))"#,
    ),
    (b"{\"type\":\"submit\",\"jobs\":[],\"tenant\":\"a\tb\x01\"}", r#"Ok(Some(Submit { jobs: [], shard: None, tenant: Some("a\tb\u{1}") }))"#),
    // Invalid UTF-8 inside a string, in a value and in a key.
    (
        b"{\"type\":\"submit\",\"jobs\":[],\"tenant\":\"\xff\"}",
        r#"Err("invalid frame: invalid UTF-8 in string")"#,
    ),
    (b"{\"type\":\"drain\",\"\xc3\x28\":1}", r#"Err("invalid frame: invalid UTF-8 in string")"#),
    (b"\xef\xbb\xbf{\"type\":\"drain\"}", r#"Err("invalid frame: expected value at byte 0")"#),
    // Numbers: out of range, integral floats, signs, odd spellings.
    (
        br#"{"type":"fail_site","site":0,"at":1e999}"#,
        r#"Err("invalid frame: invalid number `1e999` (non-finite) at byte 39")"#,
    ),
    (
        br#"{"type":"fail_site","site":0,"at":-1e999}"#,
        r#"Err("invalid frame: invalid number `-1e999` (non-finite) at byte 40")"#,
    ),
    (br#"{"type":"fail_site","site":1.0}"#, r#"Ok(Some(FailSite { site: 1, at: None }))"#),
    (br#"{"type":"fail_site","site":1.5}"#, r#"Err("invalid frame: expected usize, got F64(1.5)")"#),
    (br#"{"type":"fail_site","site":-1}"#, r#"Err("invalid frame: expected usize, got I64(-1)")"#),
    (
        br#"{"type":"fail_site","site":18446744073709551615}"#,
        r#"Ok(Some(FailSite { site: 18446744073709551615, at: None }))"#,
    ),
    (
        br#"{"type":"fail_site","site":18446744073709551616}"#,
        r#"Err("invalid frame: expected usize, got F64(1.8446744073709552e19)")"#,
    ),
    (br#"{"type":"fail_site","site":01}"#, r#"Ok(Some(FailSite { site: 1, at: None }))"#),
    (br#"{"type":"fail_site","site":1,"at":-}"#, r#"Err("invalid frame: invalid number `-`")"#),
    (br#"{"type":"fail_site","site":1,"at":1e}"#, r#"Err("invalid frame: invalid number `1e`")"#),
    (br#"{"type":"fail_site","site":1,"at":.5}"#, r#"Ok(Some(FailSite { site: 1, at: Some(Time(0.5)) }))"#),
    (br#"{"type":"fail_site","site":1,"at":1e-999}"#, r#"Ok(Some(FailSite { site: 1, at: Some(Time(0.0)) }))"#),
    (br#"{"type":"fail_site","site":1,"at":+2}"#, r#"Ok(Some(FailSite { site: 1, at: Some(Time(2.0)) }))"#),
    // Wrong types.
    (br#"{"type":"fail_site","site":"2"}"#, r#"Err("invalid frame: expected usize, got Str(\"2\")")"#),
    (br#"{"type":"submit","jobs":{}}"#, r#"Err("invalid frame: expected array, got Object([])")"#),
    (br#"{"type":"submit","jobs":[7]}"#, r#"Err("invalid frame: expected object for struct JobBuilder, got I64(7)")"#),
    (br#"{"type":5}"#, r#"Err("invalid frame: missing or non-string tag `type` for enum Request")"#),
    (br#"{"type":"query","what":"everything"}"#, r#"Err("invalid frame: unknown QueryWhat variant `everything`")"#),
    (br#"{"type":"query","what":7}"#, r#"Err("invalid frame: cannot deserialise QueryWhat from I64(7)")"#),
    (
        br#"{"type":"reconfigure","security_levels":[0.5,"x"]}"#,
        r#"Err("invalid frame: expected f64, got Str(\"x\")")"#,
    ),
    (br#"{"type":"submit","jobs":[],"tenant":7}"#, r#"Err("invalid frame: expected string, got I64(7)")"#),
    // Missing fields and a missing or unknown `type`.
    (br#"{"type":"submit","jobs":[{"id":1}]}"#, r#"Err("invalid frame: missing field `arrival`")"#),
    (br#"{"type":"fail_site"}"#, r#"Err("invalid frame: missing field `site`")"#),
    (br#"{"type":"submit"}"#, r#"Err("invalid frame: missing field `jobs`")"#),
    (br#"{"site":1}"#, r#"Err("invalid frame: missing or non-string tag `type` for enum Request")"#),
    (br#"{}"#, r#"Err("invalid frame: missing or non-string tag `type` for enum Request")"#),
    (br#"{"type":"fandango"}"#, r#"Err("invalid frame: unknown Request tag `fandango`")"#),
    // Not an object.
    (b"42", r#"Err("invalid frame: missing or non-string tag `type` for enum Request")"#),
    (br#"[{"type":"drain"}]"#, r#"Err("invalid frame: missing or non-string tag `type` for enum Request")"#),
    (br#""drain""#, r#"Err("invalid frame: missing or non-string tag `type` for enum Request")"#),
    (b"null", r#"Err("invalid frame: missing or non-string tag `type` for enum Request")"#),
    // Trailing characters.
    (br#"{"type":"drain"} x"#, r#"Err("invalid frame: trailing characters at byte 17")"#),
    (br#"{"type":"drain"}}"#, r#"Err("invalid frame: trailing characters at byte 16")"#),
    (br#"{"type":"drain"}{"type":"drain"}"#, r#"Err("invalid frame: trailing characters at byte 16")"#),
    // Broken syntax.
    (b"{oops", r#"Err("invalid frame: expected `\"` at byte 1")"#),
    (br#"{"type":"drain""#, r#"Err("invalid frame: expected `,` or `}` at byte 15")"#),
    (br#"{"type" "drain"}"#, r#"Err("invalid frame: expected `:` at byte 8")"#),
    (br#"{"type":"drain",}"#, r#"Err("invalid frame: expected `\"` at byte 16")"#),
    (br#"{"type":tru}"#, r#"Err("invalid frame: invalid literal at byte 8")"#),
    (br#"{"type":nul}"#, r#"Err("invalid frame: invalid literal at byte 8")"#),
    (br#"{"type":"dr"#, r#"Err("invalid frame: unterminated string at byte 11")"#),
    (br#"{"type":"\x"}"#, r#"Err("invalid frame: invalid escape at byte 10")"#),
    (br#"{"type":"\u12"}"#, r#"Err("invalid frame: invalid \\u escape")"#),
    (br#"{"type":"\uZZZZ"}"#, r#"Err("invalid frame: invalid \\u escape")"#),
    (br#"{"type":"drain","x":[1,,2]}"#, r#"Err("invalid frame: expected value at byte 23")"#),
    (br#"{"type":"drain","x":[1 2]}"#, r#"Err("invalid frame: expected `,` or `]` at byte 23")"#),
    (br#"{"type":"drain","x":}"#, r#"Err("invalid frame: expected value at byte 20")"#),
    (br#"{"type":"drain","x":[}"#, r#"Err("invalid frame: expected value at byte 21")"#),
    (br#"{type:"drain"}"#, r#"Err("invalid frame: expected `\"` at byte 1")"#),
    (b"{", r#"Err("invalid frame: expected `\"` at byte 1")"#),
    (b"[", r#"Err("invalid frame: unexpected end of input at byte 1")"#),
    (b"}", r#"Err("invalid frame: expected value at byte 0")"#),
    // A job that breaks `JobBuilder::build` fails the frame, naming why.
    (
        br#"{"type":"submit","jobs":[{"id":1,"arrival":1.0,"width":0,"work":5.0,"security_demand":0.5}]}"#,
        r#"Err("invalid frame: invalid parameter `width`: job width must be at least 1")"#,
    ),
    (
        br#"{"type":"submit","jobs":[{"id":1,"arrival":1.0,"width":1,"work":-5,"security_demand":0.5}]}"#,
        r#"Err("invalid frame: invalid parameter `work`: work must be positive and finite, got -5")"#,
    ),
    (
        br#"{"type":"submit","jobs":[{"id":1,"arrival":1.0,"width":1,"work":5.0,"security_demand":7}]}"#,
        r#"Err("invalid frame: invalid parameter `security_demand`: SD must be in [0, 1], got 7")"#,
    ),
    (
        br#"{"type":"submit","jobs":[{"id":1,"arrival":-1,"width":1,"work":5.0,"security_demand":0.5}]}"#,
        r#"Err("invalid frame: invalid parameter `arrival`: arrival must be non-negative")"#,
    ),
    (
        br#"{"type":"submit","jobs":[{"id":1,"arrival":1.0,"width":4294967296,"work":5.0,"security_demand":0.5}]}"#,
        r#"Err("invalid frame: expected u32, got I64(4294967296)")"#,
    ),
];

/// Compares `actual` with `expected` row by row and fails once, listing
/// every row that differs with its actual text.
fn check(part: &str, rows: &[(String, String, &str)]) {
    let mut diffs = String::new();
    for (label, actual, expected) in rows {
        if actual != expected {
            diffs.push_str(&format!(
                "\n{label}\n  expected: {expected}\n  actual:   r#\"{actual}\"#"
            ));
        }
    }
    assert!(diffs.is_empty(), "{part}: rows differ:{diffs}");
}

/// Rows added by the two fixes; at c8a9ccb the first aborted the process
/// (stack overflow) and the surrogate rows read `invalid codepoint`.
fn added_rows() -> Vec<(Vec<u8>, &'static str)> {
    let frame = |head: &str, body: String, tail: &str| format!("{head}{body}{tail}").into_bytes();
    vec![
        // Nesting depth: the outer object is level 1, so the 128th `[`
        // (byte 26 + 127) is the one refused.
        (
            frame(r#"{"type":"submit","tenant":"#, "[".repeat(20_000), ""),
            r#"Err("invalid frame: nesting deeper than 128 levels at byte 153")"#,
        ),
        (
            frame(
                r#"{"type":"drain","x":"#,
                "[".repeat(127) + &"]".repeat(127),
                "}",
            ),
            r#"Ok(Some(Drain))"#,
        ),
        // `\u` surrogate pairs, as Python's `json.dumps` writes 😀.
        (
            br#"{"type":"submit","jobs":[],"tenant":"\ud83d\ude00"}"#.to_vec(),
            r#"Ok(Some(Submit { jobs: [], shard: None, tenant: Some("😀") }))"#,
        ),
        (
            br#"{"type":"submit","jobs":[],"tenant":"\ud83d"}"#.to_vec(),
            r#"Err("invalid frame: unpaired surrogate `\\ud83d` at byte 37")"#,
        ),
        (
            br#"{"type":"submit","jobs":[],"tenant":"\ude00\ud83d"}"#.to_vec(),
            r#"Err("invalid frame: unpaired surrogate `\\ude00` at byte 37")"#,
        ),
    ]
}

#[test]
fn every_frame_decodes_as_pinned() {
    let added = added_rows();
    let rows: Vec<(String, String, &str)> = DECODE
        .iter()
        .copied()
        .chain(added.iter().map(|(line, expected)| (&line[..], *expected)))
        .map(|(line, expected)| {
            let label: String = String::from_utf8_lossy(line).chars().take(120).collect();
            (label, format!("{:?}", parse_request(line)), expected)
        })
        .collect();
    check("decode", &rows);
}

fn job(id: u64, arrival: f64, width: u32, work: f64, sd: f64) -> Job {
    Job::builder(id)
        .arrival(Time::new(arrival))
        .width(width)
        .work(work)
        .security_demand(sd)
        .build()
        .unwrap()
}

fn hist(count: u64, sum: u64, buckets: &[u64]) -> HistogramSnapshot {
    HistogramSnapshot {
        count,
        sum,
        buckets: buckets.to_vec(),
    }
}

/// Floats that walk every branch of the writer: `{:.1}` below 1e15,
/// `{:e}` above, shortest round-trip `{}` otherwise, `null` if non-finite.
const FLOATS: [f64; 16] = [
    0.0,
    -0.0,
    1.0,
    0.1,
    0.30000000000000004,
    1e-7,
    123456.789,
    999999999999999.0,
    1e15,
    1.5e300,
    f64::MAX,
    f64::MIN_POSITIVE,
    5e-324,
    -2.5,
    f64::NAN,
    f64::INFINITY,
];

fn requests() -> Vec<Request> {
    vec![
        Request::Submit {
            jobs: vec![
                job(7, 0.0, 1, 1234.5678, 0.71),
                job(u64::MAX, 1e15, 64, 0.1, 1.0),
            ],
            shard: Some(3),
            tenant: Some("q\"b\\s/n\nr\rt\tc\u{1}\u{1f}\u{7f}é€😀".into()),
        },
        Request::Submit {
            jobs: vec![],
            shard: None,
            tenant: None,
        },
        Request::Query {
            what: QueryWhat::Telemetry,
            shard: Some(0),
        },
        Request::Reconfigure {
            security_levels: FLOATS.to_vec(),
            shard: None,
            at: Some(Time::new(45.25)),
        },
        Request::FailSite {
            site: 2,
            at: Some(Time::new(120.0)),
        },
        Request::RejoinSite { site: 0, at: None },
        Request::Drain,
        Request::Reshard {
            shards: vec![vec![0, 1], vec![], vec![2]],
        },
        Request::TraceDump,
        Request::Shutdown,
    ]
}

fn metrics() -> ServeMetrics {
    ServeMetrics {
        jobs_submitted: 12,
        jobs_scheduled: 11,
        pending: 1,
        rounds: 3,
        round_nanos: vec![1_500, 0, u64::MAX],
        scheduler_seconds: 0.000123456789,
        virtual_now: Time::new(300.0),
        max_completion: Time::INFINITY,
        sites_failed: 1,
        sites_rejoined: 0,
        jobs_requeued: 2,
        busy_rejections: 0,
        reshards_completed: 4,
        jobs_migrated: 5,
        round_nanos_hist: hist(3, 1_500, &[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2]),
        batch_size_hist: HistogramSnapshot::default(),
    }
}

fn responses() -> Vec<Response> {
    vec![
        Response::Accepted {
            jobs: 1,
            shard: 0,
            pending: 17,
            rounds: 4096,
        },
        Response::Busy {
            jobs: 1,
            shard: 2,
            pending: 8,
            limit: 8,
        },
        Response::Schedule {
            assignments: vec![
                Placed {
                    job: JobId(7),
                    site: SiteId(1),
                    width: 2,
                    start: Time::new(10.0),
                    end: Time::new(60.125),
                },
                Placed {
                    job: JobId(8),
                    site: SiteId(0),
                    width: 1,
                    start: Time::new(1e16),
                    end: Time::INFINITY,
                },
            ],
        },
        Response::Metrics { metrics: metrics() },
        Response::Telemetry {
            telemetry: TelemetryReport {
                shards: vec![ShardTelemetry {
                    shard: 0,
                    round_nanos: hist(2, 3_000, &[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2]),
                    batch_size: hist(2, 5, &[0, 0, 2]),
                    queue_wait: vec![TenantWait {
                        tenant: "default".into(),
                        wait_micros: hist(2, 105, &[0, 0, 0, 0, 1, 0, 0, 1]),
                    }],
                }],
                reshard_barrier_nanos: hist(1, 500_000, &[]),
                reshard_migrated_jobs: HistogramSnapshot::default(),
                recorder: RecorderStatus {
                    enabled: true,
                    threads: 3,
                    retained: 100,
                    recorded: 12_345,
                    capacity: 4096,
                },
            },
        },
        Response::TraceDump {
            events: vec![TraceEvent {
                t_nanos: 42,
                thread: 0,
                kind: "event".into(),
                name: "dispatch".into(),
                fields: vec![
                    TraceField {
                        key: "shard".into(),
                        value: 1,
                    },
                    TraceField {
                        key: "delta".into(),
                        value: i64::MIN,
                    },
                ],
            }],
        },
        Response::Reconfigured { sites: 10 },
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
        Response::Drained {
            rounds: 9,
            jobs_scheduled: 40,
        },
        Response::Shards {
            shards: vec![ShardInfo {
                shard: 1,
                sites: vec![SiteId(2), SiteId(3)],
                scheduler: "Min-Min".into(),
                jobs_submitted: 4,
                jobs_scheduled: 3,
                pending: 1,
                rounds: 2,
            }],
        },
        Response::RouteRejected {
            job: JobId(9),
            shards: vec![],
            message: "job J9 fits no shard".into(),
        },
        Response::Resharded {
            shards: 4,
            jobs_migrated: 3,
            reshards_completed: 2,
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
            message: "invalid frame: expected `,` or `}` at byte 15".into(),
        },
    ]
}

/// Part 2: one instance of every `Request`, then every `Response`
/// variant, in the order [`requests`] and [`responses`] build them →
/// its `encode` line.
const ENCODE: &[&str] = &[
    "{\"type\":\"submit\",\"jobs\":[{\"id\":7,\"arrival\":0.0,\"width\":1,\"work\":1234.5678,\"security_demand\":0.71},{\"id\":18446744073709551615,\"arrival\":1e15,\"width\":64,\"work\":0.1,\"security_demand\":1.0}],\"shard\":3,\"tenant\":\"q\\\"b\\\\s/n\\nr\\rt\\tc\\u0001\\u001fé€😀\"}\n",
    "{\"type\":\"submit\",\"jobs\":[],\"shard\":null,\"tenant\":null}\n",
    "{\"type\":\"query\",\"what\":\"telemetry\",\"shard\":0}\n",
    "{\"type\":\"reconfigure\",\"security_levels\":[0.0,-0.0,1.0,0.1,0.30000000000000004,0.0000001,123456.789,999999999999999.0,1e15,1.5e300,1.7976931348623157e308,0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000022250738585072014,0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000005,-2.5,null,null],\"shard\":null,\"at\":45.25}\n",
    "{\"type\":\"fail_site\",\"site\":2,\"at\":120.0}\n",
    "{\"type\":\"rejoin_site\",\"site\":0,\"at\":null}\n",
    "{\"type\":\"drain\"}\n",
    "{\"type\":\"reshard\",\"shards\":[[0,1],[],[2]]}\n",
    "{\"type\":\"trace_dump\"}\n",
    "{\"type\":\"shutdown\"}\n",
    "{\"type\":\"accepted\",\"jobs\":1,\"shard\":0,\"pending\":17,\"rounds\":4096}\n",
    "{\"type\":\"busy\",\"jobs\":1,\"shard\":2,\"pending\":8,\"limit\":8}\n",
    "{\"type\":\"schedule\",\"assignments\":[{\"job\":7,\"site\":1,\"width\":2,\"start\":10.0,\"end\":60.125},{\"job\":8,\"site\":0,\"width\":1,\"start\":1e16,\"end\":null}]}\n",
    "{\"type\":\"metrics\",\"metrics\":{\"jobs_submitted\":12,\"jobs_scheduled\":11,\"pending\":1,\"rounds\":3,\"round_nanos\":[1500,0,18446744073709551615],\"scheduler_seconds\":0.000123456789,\"virtual_now\":300.0,\"max_completion\":null,\"sites_failed\":1,\"sites_rejoined\":0,\"jobs_requeued\":2,\"busy_rejections\":0,\"reshards_completed\":4,\"jobs_migrated\":5,\"round_nanos_hist\":{\"count\":3,\"sum\":1500,\"buckets\":[1,0,0,0,0,0,0,0,0,0,0,2]},\"batch_size_hist\":{\"count\":0,\"sum\":0,\"buckets\":[]}}}\n",
    "{\"type\":\"telemetry\",\"telemetry\":{\"shards\":[{\"shard\":0,\"round_nanos\":{\"count\":2,\"sum\":3000,\"buckets\":[0,0,0,0,0,0,0,0,0,0,0,2]},\"batch_size\":{\"count\":2,\"sum\":5,\"buckets\":[0,0,2]},\"queue_wait\":[{\"tenant\":\"default\",\"wait_micros\":{\"count\":2,\"sum\":105,\"buckets\":[0,0,0,0,1,0,0,1]}}]}],\"reshard_barrier_nanos\":{\"count\":1,\"sum\":500000,\"buckets\":[]},\"reshard_migrated_jobs\":{\"count\":0,\"sum\":0,\"buckets\":[]},\"recorder\":{\"enabled\":true,\"threads\":3,\"retained\":100,\"recorded\":12345,\"capacity\":4096}}}\n",
    "{\"type\":\"trace_dump\",\"events\":[{\"t_nanos\":42,\"thread\":0,\"kind\":\"event\",\"name\":\"dispatch\",\"fields\":[{\"key\":\"shard\",\"value\":1},{\"key\":\"delta\",\"value\":-9223372036854775808}]}]}\n",
    "{\"type\":\"reconfigured\",\"sites\":10}\n",
    "{\"type\":\"site_failed\",\"site\":2,\"shard\":1,\"requeued\":3}\n",
    "{\"type\":\"site_rejoined\",\"site\":2,\"shard\":1}\n",
    "{\"type\":\"site_offline\",\"job\":11,\"sites\":[0,2],\"message\":\"all eligible sites offline\"}\n",
    "{\"type\":\"drained\",\"rounds\":9,\"jobs_scheduled\":40}\n",
    "{\"type\":\"shards\",\"shards\":[{\"shard\":1,\"sites\":[2,3],\"scheduler\":\"Min-Min\",\"jobs_submitted\":4,\"jobs_scheduled\":3,\"pending\":1,\"rounds\":2}]}\n",
    "{\"type\":\"route_rejected\",\"job\":9,\"shards\":[],\"message\":\"job J9 fits no shard\"}\n",
    "{\"type\":\"resharded\",\"shards\":4,\"jobs_migrated\":3,\"reshards_completed\":2}\n",
    "{\"type\":\"reshard_rejected\",\"message\":\"site 1 appears in more than one shard\"}\n",
    "{\"type\":\"unknown_shard\",\"shard\":7,\"n_shards\":2}\n",
    "{\"type\":\"bye\"}\n",
    "{\"type\":\"error\",\"message\":\"invalid frame: expected `,` or `}` at byte 15\"}\n",
];

/// The pretty writer shares the number and string paths with `encode`;
/// one document pins its indentation.
const PRETTY_METRICS: &str = "{\n  \"jobs_submitted\": 12,\n  \"jobs_scheduled\": 11,\n  \"pending\": 1,\n  \"rounds\": 3,\n  \"round_nanos\": [\n    1500,\n    0,\n    18446744073709551615\n  ],\n  \"scheduler_seconds\": 0.000123456789,\n  \"virtual_now\": 300.0,\n  \"max_completion\": null,\n  \"sites_failed\": 1,\n  \"sites_rejoined\": 0,\n  \"jobs_requeued\": 2,\n  \"busy_rejections\": 0,\n  \"reshards_completed\": 4,\n  \"jobs_migrated\": 5,\n  \"round_nanos_hist\": {\n    \"count\": 3,\n    \"sum\": 1500,\n    \"buckets\": [\n      1,\n      0,\n      0,\n      0,\n      0,\n      0,\n      0,\n      0,\n      0,\n      0,\n      0,\n      2\n    ]\n  },\n  \"batch_size_hist\": {\n    \"count\": 0,\n    \"sum\": 0,\n    \"buckets\": []\n  }\n}";

#[test]
fn every_variant_encodes_as_pinned() {
    let actual: Vec<String> = requests()
        .iter()
        .map(encode)
        .chain(responses().iter().map(encode))
        .collect();
    assert_eq!(actual.len(), ENCODE.len(), "one pinned line per variant");
    let rows: Vec<(String, String, &str)> = actual
        .into_iter()
        .zip(ENCODE)
        .enumerate()
        .map(|(i, (line, &expected))| (format!("row {i}"), line, expected))
        .collect();
    check("encode", &rows);
    let pretty = serde_json::to_string_pretty(&metrics()).unwrap();
    check("pretty", &[("metrics".to_string(), pretty, PRETTY_METRICS)]);
}

#[test]
fn every_pinned_line_decodes_back() {
    // Requests come back as themselves (the floats that are not finite
    // come back as `null`, which `Vec<f64>` refuses, so that row is
    // checked for its error); responses parse as `Response`.
    for (req, line) in requests().iter().zip(ENCODE) {
        let back = parse_request(line.as_bytes());
        match req {
            Request::Reconfigure { .. } => assert!(back.is_err(), "{line}"),
            _ => assert_eq!(back, Ok(Some(req.clone())), "{line}"),
        }
    }
    for line in &ENCODE[requests().len()..] {
        serde_json::from_str::<Response>(line.trim_end()).unwrap();
    }
}

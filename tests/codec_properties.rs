//! The wire codec as properties: every `Request` survives `encode` →
//! `parse_request` unchanged, and no mutation of a valid frame — cut
//! short, one byte flipped, or a run of up to 10⁵ `[` or `{` spliced in —
//! makes `parse_request` panic or overflow the stack of a thread the size
//! of a daemon I/O thread's.

use gridsec_core::{Job, Time};
use gridsec_serve::protocol::{encode, parse_request};
use gridsec_serve::{QueryWhat, Request};
use proptest::prelude::*;

/// Characters a tenant label is drawn from: everything the writer escapes,
/// multi-byte UTF-8 of every width, and the edges of the scalar range.
const AWKWARD: &str = "\"\\/\n\r\t\u{0}\u{1f}\u{7f}é€😀\u{ffff}\u{10ffff}";

fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec((0u8..3, 0u32..0x11_0000), 0..12).prop_map(|picks| {
        let awkward: Vec<char> = AWKWARD.chars().collect();
        picks
            .into_iter()
            .map(|(kind, code)| match kind {
                0 => awkward[code as usize % awkward.len()],
                1 => char::from(b' ' + (code % 95) as u8),
                _ => char::from_u32(code).unwrap_or('\u{fffd}'),
            })
            .collect()
    })
}

/// Any finite float, from its bits (non-finite patterns fold to 0.5).
fn arb_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        let x = f64::from_bits(bits);
        if x.is_finite() {
            x
        } else {
            0.5
        }
    })
}

fn arb_time() -> impl Strategy<Value = Option<Time>> {
    (any::<bool>(), arb_f64()).prop_map(|(some, x)| some.then(|| Time::new(x)))
}

fn arb_job() -> impl Strategy<Value = Job> {
    (
        any::<u64>(),
        arb_f64(),
        1u32..=4096,
        arb_f64(),
        0.0f64..=1.0,
    )
        .prop_map(|(id, arrival, width, work, sd)| {
            let work = if work == 0.0 { 1.0 } else { work.abs() };
            Job::builder(id)
                .arrival(Time::new(arrival.abs()))
                .width(width)
                .work(work)
                .security_demand(sd)
                .build()
                .unwrap()
        })
}

/// Every `Request` variant, with optionals present and absent.
fn arb_request() -> impl Strategy<Value = Request> {
    (
        0u8..10,
        prop::collection::vec(arb_job(), 0..5),
        (any::<bool>(), 0usize..64, any::<bool>(), arb_text()),
        prop::collection::vec(arb_f64(), 0..6),
        arb_time(),
        prop::collection::vec(prop::collection::vec(0usize..100, 0..4), 0..4),
    )
        .prop_map(
            |(variant, jobs, (has_shard, shard, has_tenant, tenant), levels, at, shards)| {
                let shard = has_shard.then_some(shard);
                let what = [
                    QueryWhat::Schedule,
                    QueryWhat::Metrics,
                    QueryWhat::Shards,
                    QueryWhat::Telemetry,
                ][shards.len()];
                match variant {
                    0 => Request::Submit {
                        jobs,
                        shard,
                        tenant: has_tenant.then_some(tenant),
                    },
                    1 => Request::Query { what, shard },
                    2 => Request::Reconfigure {
                        security_levels: levels,
                        shard,
                        at,
                    },
                    3 => Request::FailSite {
                        site: shard.unwrap_or(0),
                        at,
                    },
                    4 => Request::RejoinSite {
                        site: shard.unwrap_or(0),
                        at,
                    },
                    5 => Request::Drain,
                    6 => Request::Reshard { shards },
                    7 => Request::TraceDump,
                    8 => Request::Shutdown,
                    // Submits dominate the wire, so they get a second slot.
                    _ => Request::Submit {
                        jobs,
                        shard: None,
                        tenant: Some(tenant),
                    },
                }
            },
        )
}

proptest! {
    #[test]
    fn every_request_round_trips(request in arb_request()) {
        let line = encode(&request);
        prop_assert_eq!(parse_request(line.trim_end().as_bytes()), Ok(Some(request)));
    }
}

/// Runs `body` on a thread with the 2 MiB stack a daemon I/O thread gets.
fn on_io_thread_stack(body: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(body)
        .unwrap()
        .join()
        .expect("the codec panicked");
}

#[test]
fn mutated_frames_never_panic() {
    on_io_thread_stack(|| {
        let strategy = (
            arb_request(),
            0u8..3,
            any::<prop::sample::Index>(),
            1u8..=255,
            1usize..=100_000,
            any::<bool>(),
        );
        proptest::run_property("mutated_frames_never_panic", 256, |runner| {
            let (request, mutation, at, mask, run, square) = strategy.generate(runner);
            let mut frame = encode(&request).into_bytes();
            frame.pop();
            let i = at.index(frame.len());
            match mutation {
                0 => frame.truncate(i),
                1 => frame[i] ^= mask,
                _ => {
                    let open = if square { b'[' } else { b'{' };
                    frame.splice(i..i, std::iter::repeat_n(open, run));
                }
            }
            // Ok or Err are both answers; only a panic or an abort fails.
            let _ = parse_request(&frame);
            Ok(())
        });
    });
}

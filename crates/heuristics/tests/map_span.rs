//! One flight-recorder span per mapper call: `map` with the batch size,
//! and on its `end` event how often the slow path (a row rescan) ran.
//! A test binary of its own, because the recorder is process-global.

use gridsec_core::etc::{EtcMatrix, NodeAvailability};
use gridsec_core::Time;
use gridsec_heuristics::common::MapCtx;
use gridsec_heuristics::mapping::map_sufferage;
use gridsec_obs::recorder;

#[test]
fn a_mapper_call_records_one_map_span_with_its_rescans() {
    // Two single-node sites, site 0 twice as fast: every commit moves the
    // best or second-best of every remaining job, so rescans must occur.
    let n = 6;
    let etc: Vec<f64> = (0..n)
        .flat_map(|j| [1.0 + j as f64, 2.0 + 2.0 * j as f64])
        .collect();
    let ctx = MapCtx {
        etc: EtcMatrix::from_raw(n, 2, etc),
        widths: vec![1; n],
        arrivals: vec![Time::ZERO; n],
        candidates: vec![vec![0, 1]; n],
        now: Time::ZERO,
        commit_order: vec![],
    };
    let mut avail = vec![NodeAvailability::new(1, Time::ZERO); 2];
    recorder::clear();
    recorder::enable();
    let mapping = map_sufferage(&ctx, &mut avail);
    recorder::disable();
    assert_eq!(mapping.len(), n);

    let events = recorder::snapshot();
    assert_eq!(events.len(), 2, "one span, nothing per job: {events:?}");
    let (begin, end) = (&events[0], &events[1]);
    assert_eq!((begin.name.as_str(), begin.kind.as_str()), ("map", "begin"));
    assert_eq!((end.name.as_str(), end.kind.as_str()), ("map", "end"));
    assert_eq!(
        (begin.fields[0].key.as_str(), begin.fields[0].value),
        ("jobs", 6)
    );
    assert_eq!(end.fields[1].key, "rescans");
    assert!(end.fields[1].value > 0);
}

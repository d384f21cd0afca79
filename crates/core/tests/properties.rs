//! Property-based tests for the core model: availability reservation,
//! the failure law, ETC construction and the metrics identities.

use gridsec_core::etc::{EtcMatrix, NodeAvailability};
use gridsec_core::metrics::{JobOutcome, MetricsCollector};
use gridsec_core::{Grid, Job, JobId, RiskMode, SecurityModel, Site, SiteId, Time};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fail_probability_is_a_probability(
        lambda in 0.01f64..50.0,
        sd in 0.0f64..=1.0,
        sl in 0.0f64..=1.0,
    ) {
        let m = SecurityModel::new(lambda).unwrap();
        let p = m.fail_probability(sd, sl);
        // p may round to exactly 1.0 for large λ·gap in f64.
        prop_assert!((0.0..=1.0).contains(&p));
        if sd <= sl {
            prop_assert_eq!(p, 0.0);
        } else {
            prop_assert!(p > 0.0);
        }
    }

    #[test]
    fn fail_probability_monotone_in_gap(
        lambda in 0.01f64..50.0,
        sl in 0.0f64..0.5,
        gap1 in 0.0f64..0.25,
        gap2 in 0.25f64..0.5,
    ) {
        let m = SecurityModel::new(lambda).unwrap();
        let p1 = m.fail_probability(sl + gap1, sl);
        let p2 = m.fail_probability(sl + gap2, sl);
        prop_assert!(p2 >= p1);
    }

    #[test]
    fn f_risky_admission_matches_gap_inverse(
        lambda in 0.1f64..20.0,
        f in 0.01f64..0.99,
        sd in 0.0f64..=1.0,
        sl in 0.0f64..=1.0,
    ) {
        let m = SecurityModel::new(lambda).unwrap();
        let site = Site::builder(0).security_level(sl).build().unwrap();
        let admitted = RiskMode::FRisky(f).admits(&m, sd, &site);
        let by_gap = sd - sl <= m.max_gap_for(f) + 1e-12;
        prop_assert_eq!(admitted, by_gap);
    }

    #[test]
    fn availability_commit_preserves_sortedness_and_capacity(
        commits in prop::collection::vec((1u32..=8, 0.0f64..10_000.0), 0..40),
    ) {
        let mut a = NodeAvailability::new(8, Time::ZERO);
        for (w, finish) in commits {
            let before = a.nodes();
            a.commit(w, Time::new(finish));
            prop_assert_eq!(a.nodes(), before);
            // ready ≤ drain always.
            prop_assert!(a.ready_time() <= a.drain_time());
        }
    }

    #[test]
    fn availability_commit_matches_overwrite_then_sort(
        // Small integers, so free times and finishes tie and a finish
        // often lands before nodes that are still busy.
        times in prop::collection::vec(0u32..12, 1..=16),
        commits in prop::collection::vec((any::<prop::sample::Index>(), 0u32..12), 1..24),
    ) {
        let time = |t: u32| Time::new(f64::from(t));
        let mut want: Vec<Time> = times.iter().copied().map(time).collect();
        let mut a = NodeAvailability::from_times(want.clone());
        want.sort_unstable();
        for (width, finish) in commits {
            let w = width.index(want.len()) + 1;
            a.commit(w as u32, time(finish));
            want[..w].fill(time(finish));
            want.sort_unstable();
            prop_assert_eq!(a.free_times(), &want[..]);
        }
    }

    #[test]
    fn earliest_start_monotone_in_width(
        commits in prop::collection::vec((1u32..=8, 0.0f64..1_000.0), 0..20),
        not_before in 0.0f64..500.0,
    ) {
        let mut a = NodeAvailability::new(8, Time::ZERO);
        for (w, finish) in commits {
            a.commit(w, Time::new(finish));
        }
        let nb = Time::new(not_before);
        let mut prev = Time::ZERO;
        for w in 1..=8u32 {
            let s = a.earliest_start(w, nb).unwrap();
            prop_assert!(s >= nb);
            prop_assert!(s >= prev, "wider jobs can't start earlier");
            prev = s;
        }
        prop_assert!(a.earliest_start(9, nb).is_none());
    }

    #[test]
    fn etc_matrix_entries_match_manual_computation(
        works in prop::collection::vec(1.0f64..10_000.0, 1..10),
        speeds in prop::collection::vec(0.5f64..8.0, 1..6),
    ) {
        let jobs: Vec<Job> = works
            .iter()
            .enumerate()
            .map(|(i, &w)| Job::builder(i as u64).work(w).build().unwrap())
            .collect();
        let grid = Grid::new(
            speeds
                .iter()
                .enumerate()
                .map(|(i, &v)| Site::builder(i).speed(v).nodes(2).build().unwrap())
                .collect(),
        )
        .unwrap();
        let etc = EtcMatrix::build(&jobs, &grid);
        for (j, &w) in works.iter().enumerate() {
            for (s, &v) in speeds.iter().enumerate() {
                prop_assert!((etc.get(j, s) - w / v).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn metrics_identities_hold(
        outcomes in prop::collection::vec(
            (0.0f64..1_000.0, 0.0f64..1_000.0, 1.0f64..1_000.0, any::<bool>(), 0u32..3),
            1..50,
        ),
    ) {
        let mut c = MetricsCollector::new(vec![4]);
        for (i, (arrival, wait, service, risk_raw, fails)) in outcomes.iter().enumerate() {
            // failures imply risk taken (the model invariant the engine
            // maintains); mirror it here.
            let risk = *risk_raw || *fails > 0;
            let a = *arrival;
            let b = a + wait;
            let done = b + service;
            c.record_outcome(JobOutcome {
                id: JobId(i as u64),
                arrival: Time::new(a),
                first_start: Time::new(b),
                completion: Time::new(done),
                final_site: SiteId(0),
                risk_taken: risk,
                failures: *fails,
            });
        }
        let r = c.report(None);
        prop_assert!(r.n_fail <= r.n_risk);
        prop_assert!(r.slowdown_ratio >= 1.0 - 1e-9);
        prop_assert!(r.avg_response + 1e-9 >= r.avg_service);
        prop_assert!((r.avg_response - (r.avg_wait + r.avg_service)).abs() < 1e-6);
    }

    /// One rule in one place: what `JobBuilder::build` accepts reads back
    /// equal from its own JSON, and the same text with one field moved
    /// outside the rule is refused by `Deserialize`, naming that field.
    #[test]
    fn a_job_is_valid_when_it_is_typed(
        id in any::<u64>(),
        arrival in 0.0f64..1.0e9,
        width in 1u32..=4096,
        work in 1.0e-6f64..1.0e9,
        sd in 0.0f64..=1.0,
        x in 1.0e-3f64..1.0e6,
    ) {
        let job = Job::builder(id)
            .arrival(Time::new(arrival))
            .width(width)
            .work(work)
            .security_demand(sd)
            .build()
            .unwrap();
        let text = serde_json::to_string(&job).unwrap();
        prop_assert_eq!(&serde_json::from_str::<Job>(&text).unwrap(), &job);

        // The job's JSON with one field's value replaced by a raw literal.
        let serde_json::Value::Object(fields) = serde_json::from_str(&text).unwrap() else {
            panic!("a job serialises as an object");
        };
        let with = |name: &str, literal: String| {
            let field = |(k, v): &(String, serde_json::Value)| {
                let own = serde_json::to_string(v).unwrap();
                format!("\"{k}\":{}", if k == name { &literal } else { &own })
            };
            format!("{{{}}}", fields.iter().map(field).collect::<Vec<_>>().join(","))
        };
        prop_assert_eq!(&with("", String::new()), &text);
        for (name, value) in [
            ("width", "0".to_string()),
            ("work", "0".to_string()),
            ("work", format!("-{x}")),
            ("security_demand", format!("{}", 1.0 + x)),
            ("security_demand", format!("-{x}")),
            ("arrival", format!("-{x}")),
            ("arrival", "null".to_string()),
        ] {
            let mutated = with(name, value);
            let err = serde_json::from_str::<Job>(&mutated).unwrap_err().to_string();
            prop_assert!(err.contains(&format!("`{name}`")), "{}: {}", mutated, err);
        }
        // +∞ cannot even be written: the literal is not a number.
        let err = serde_json::from_str::<Job>(&with("work", "1e999".into())).unwrap_err();
        prop_assert!(err.to_string().contains("1e999"), "{}", err);
    }

    #[test]
    fn time_ordering_consistent_with_f64(
        a in -1.0e12f64..1.0e12,
        b in -1.0e12f64..1.0e12,
    ) {
        let ta = Time::new(a);
        let tb = Time::new(b);
        prop_assert_eq!(ta < tb, a < b);
        prop_assert_eq!(ta == tb, a == b);
        prop_assert_eq!(ta.max(tb).seconds(), a.max(b));
    }
}

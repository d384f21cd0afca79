//! Where a round's time goes, as a standing record: every STGA round
//! records one `stga_history` span (the history lookup and the repair of
//! its seeds) and one `stga_evolve` span (the GA) inside its `stga_eval`
//! span, and nothing per generation. The recorder is process-wide: this
//! binary holds exactly one `#[test]`.

use gridsec_core::etc::NodeAvailability;
use gridsec_core::{Grid, Job, SecurityModel, Site, Time};
use gridsec_obs::recorder::{self, TraceEvent};
use gridsec_sim::{BatchJob, BatchScheduler, GridView};
use gridsec_stga::{GaParams, Stga, StgaParams};

const ROUNDS: usize = 3;
const GENERATIONS: usize = 12;

fn grid() -> Grid {
    Grid::new(
        (0..3)
            .map(|i| {
                Site::builder(i)
                    .nodes(2)
                    .speed(1.0 + i as f64)
                    .security_level(0.9)
                    .build()
                    .unwrap()
            })
            .collect(),
    )
    .unwrap()
}

fn batch(round: usize) -> Vec<BatchJob> {
    (0..6)
        .map(|i| BatchJob {
            job: Job::builder((round * 6 + i) as u64)
                .work(40.0 + 9.0 * i as f64)
                .security_demand(0.6)
                .build()
                .unwrap(),
            secure_only: false,
        })
        .collect()
}

/// `(begin, end)` counts of the span `name` in `events`.
fn spans(events: &[TraceEvent], name: &str) -> (usize, usize) {
    let count = |kind: &str| {
        events
            .iter()
            .filter(|e| e.name == name && e.kind == kind)
            .count()
    };
    (count("begin"), count("end"))
}

#[test]
fn a_round_records_one_history_and_one_evolve_span() {
    let grid = grid();
    let avail = vec![NodeAvailability::new(2, Time::ZERO); 3];
    let view = GridView {
        grid: &grid,
        avail: &avail,
        now: Time::ZERO,
        model: SecurityModel::default(),
    };
    let params = StgaParams {
        ga: GaParams::default()
            .with_population(20)
            .with_generations(GENERATIONS)
            .with_seed(4),
        ..StgaParams::default()
    };
    let mut stga = Stga::new(params).unwrap();

    recorder::clear();
    recorder::enable();
    for round in 0..ROUNDS {
        let _ = stga.schedule(&batch(round), &view);
    }
    recorder::disable();
    let events = recorder::snapshot();

    for name in ["stga_eval", "stga_history", "stga_evolve"] {
        assert_eq!(spans(&events, name), (ROUNDS, ROUNDS), "{name}: {events:?}");
    }
    // Per round, in order: eval opens, history opens and closes, evolve
    // opens and closes, eval closes.
    let order: Vec<(&str, &str)> = events
        .iter()
        .filter(|e| e.name.starts_with("stga_") && e.kind != "event")
        .map(|e| (e.name.as_str(), e.kind.as_str()))
        .collect();
    let round = [
        ("stga_eval", "begin"),
        ("stga_history", "begin"),
        ("stga_history", "end"),
        ("stga_evolve", "begin"),
        ("stga_evolve", "end"),
        ("stga_eval", "end"),
    ];
    assert_eq!(order, round.repeat(ROUNDS));
    // Later rounds are seeded from the history the earlier ones stored.
    let seeds: Vec<i64> = events
        .iter()
        .filter(|e| e.name == "stga_history" && e.kind == "end")
        .map(|e| e.fields[1].value)
        .collect();
    assert_eq!(seeds[0], 0);
    assert!(seeds[1..].iter().all(|&s| s > 0), "{seeds:?}");
    // Nothing scales with the generation count: no name is recorded
    // more than twice per round (the two seeding mappers' `map` spans).
    for e in &events {
        let n = events.iter().filter(|o| o.name == e.name).count();
        assert!(
            n <= 2 * 2 * ROUNDS,
            "{n} `{}` events in {ROUNDS} rounds",
            e.name
        );
    }
}

//! Property tests for the workload substrate: generator invariants over
//! random configurations and SWF round-trips over random job lists.

use gridsec_core::{Job, Time};
use gridsec_workloads::swf::{self, ConvertOptions};
use gridsec_workloads::{NasConfig, PsaConfig, SecurityParams};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn psa_generator_invariants(
        n in 1usize..400,
        sites in 1usize..30,
        rate in 0.001f64..0.1,
        levels in 1u32..40,
        seed in 0u64..10_000,
    ) {
        let mut cfg = PsaConfig::default().with_n_jobs(n).with_seed(seed);
        cfg.n_sites = sites;
        cfg.arrival_rate = rate;
        cfg.work_levels = levels;
        let w = cfg.generate().unwrap();
        prop_assert_eq!(w.jobs.len(), n);
        prop_assert_eq!(w.grid.len(), sites);
        // Arrivals sorted and strictly positive.
        prop_assert!(w.jobs.windows(2).all(|p| p[0].arrival <= p[1].arrival));
        prop_assert!(w.jobs[0].arrival > Time::ZERO);
        // Work on the level grid, ids dense.
        for (i, j) in w.jobs.iter().enumerate() {
            prop_assert_eq!(j.id.0, i as u64);
            let level = j.work / cfg.max_work * f64::from(levels);
            prop_assert!((level - level.round()).abs() < 1e-6);
        }
    }

    #[test]
    fn nas_generator_invariants(
        n in 1usize..400,
        fold in 1u32..=16,
        seed in 0u64..10_000,
    ) {
        let mut cfg = NasConfig::default().with_n_jobs(n).with_seed(seed);
        cfg.fold_width = fold;
        let w = cfg.generate().unwrap();
        prop_assert_eq!(w.jobs.len(), n);
        for j in &w.jobs {
            prop_assert!(j.width <= fold.clamp(1, 16));
            prop_assert!(j.work > 0.0);
            prop_assert!((0.6..=0.9).contains(&j.security_demand));
        }
        // Every job fits the grid.
        let max_nodes = w.grid.max_nodes();
        prop_assert!(w.jobs.iter().all(|j| j.width <= max_nodes));
    }

    #[test]
    fn swf_roundtrip_any_jobs(
        specs in prop::collection::vec(
            (1.0f64..100_000.0, 0.0f64..1_000_000.0, 1u32..=128),
            1..60,
        ),
    ) {
        let jobs: Vec<Job> = specs
            .iter()
            .enumerate()
            .map(|(i, &(work, arrival, width))| {
                Job::builder(i as u64)
                    .work(work)
                    .arrival(Time::new(arrival))
                    .width(width)
                    .build()
                    .unwrap()
            })
            .collect();
        let text = swf::write(&jobs);
        let records = swf::parse(&text).unwrap();
        prop_assert_eq!(records.len(), jobs.len());
        let opts = ConvertOptions {
            max_width: 128,
            time_squeeze: 1.0,
            security: SecurityParams::default(),
            seed: 1,
        };
        let back = swf::to_jobs(&records, &opts).unwrap();
        // to_jobs sorts by submit; compare as multisets of (arrival, work,
        // width) triples.
        let mut a: Vec<(u64, u64, u32)> = jobs
            .iter()
            .map(|j| (j.arrival.seconds().to_bits(), j.work.to_bits(), j.width))
            .collect();
        let mut b: Vec<(u64, u64, u32)> = back
            .iter()
            .map(|j| (j.arrival.seconds().to_bits(), j.work.to_bits(), j.width))
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }
}

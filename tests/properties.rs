//! Cross-crate property tests: random workloads and grids through the
//! full pipeline must uphold the model invariants.

use gridsec::prelude::*;
use proptest::prelude::*;

#[path = "../crates/stga/tests/referee/mod.rs"]
mod referee;

/// Random but valid grids: 1–6 sites, 1–8 nodes, speeds 0.5–4, SL 0–1.
fn arb_grid() -> impl Strategy<Value = Grid> {
    prop::collection::vec((1u32..=8, 0.5f64..4.0, 0.0f64..=1.0), 1..=6).prop_map(|specs| {
        Grid::new(
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (nodes, speed, sl))| {
                    Site::builder(i)
                        .nodes(nodes)
                        .speed(speed)
                        .security_level(sl)
                        .build()
                        .unwrap()
                })
                .collect(),
        )
        .unwrap()
    })
}

/// Random jobs with widths that always fit the widest site of `max_nodes`.
fn arb_jobs(max_nodes: u32) -> impl Strategy<Value = Vec<Job>> {
    prop::collection::vec(
        (1.0f64..5_000.0, 0.0f64..=1.0, 0.0f64..50_000.0, 1u32..=8),
        1..40,
    )
    .prop_map(move |specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (work, sd, arrival, width))| {
                Job::builder(i as u64)
                    .work(work)
                    .security_demand(sd)
                    .arrival(Time::new(arrival))
                    .width(width.min(max_nodes))
                    .build()
                    .unwrap()
            })
            .collect()
    })
}

/// A coupled (grid, jobs) case where every job fits somewhere.
fn arb_case() -> impl Strategy<Value = (Grid, Vec<Job>)> {
    arb_grid().prop_flat_map(|grid| {
        let max = grid.max_nodes();
        arb_jobs(max).prop_map(move |jobs| (grid.clone(), jobs))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn minmin_simulation_upholds_invariants(
        (grid, jobs) in arb_case(),
        seed in 0u64..1000,
    ) {
        let config = SimConfig::default()
            .with_interval(Time::new(500.0))
            .with_seed(seed);
        let out = simulate(&jobs, &grid, &mut MinMin::new(RiskMode::FRisky(0.5)), &config).unwrap();
        prop_assert_eq!(out.metrics.n_jobs, jobs.len());
        prop_assert!(out.metrics.n_fail <= out.metrics.n_risk);
        prop_assert!(out.metrics.slowdown_ratio >= 1.0 - 1e-9);
        prop_assert!(out.metrics.avg_wait >= -1e-9);
        // Makespan is at least the longest single execution lower bound.
        let fastest_speed = grid.sites().map(|s| s.speed).fold(f64::MIN, f64::max);
        let lb = jobs
            .iter()
            .map(|j| j.work / fastest_speed)
            .fold(0.0f64, f64::max);
        prop_assert!(out.metrics.makespan.seconds() >= lb - 1e-6);
    }

    #[test]
    fn all_modes_complete_everything(
        (grid, jobs) in arb_case(),
        seed in 0u64..200,
    ) {
        let config = SimConfig::default()
            .with_interval(Time::new(750.0))
            .with_seed(seed);
        for mode in [RiskMode::Secure, RiskMode::FRisky(0.3), RiskMode::Risky] {
            let out = simulate(&jobs, &grid, &mut Sufferage::new(mode), &config).unwrap();
            prop_assert_eq!(out.metrics.n_jobs, jobs.len());
        }
    }

    #[test]
    fn utilization_in_range(
        (grid, jobs) in arb_case(),
        seed in 0u64..200,
    ) {
        let config = SimConfig::default().with_seed(seed);
        let out = simulate(&jobs, &grid, &mut Mct::new(RiskMode::Risky), &config).unwrap();
        for &u in &out.metrics.site_utilization {
            prop_assert!((0.0..=100.0 + 1e-9).contains(&u));
        }
    }

    #[test]
    fn roulette_wheel_distribution_is_sane(
        mut fitness in prop::collection::vec(1.0f64..1_000.0, 2..20),
        infinite in prop::collection::vec(0usize..20, 0..4),
        seed in 0u64..1_000,
    ) {
        use gridsec::core::rng::{stream, Stream};
        use gridsec::stga::selection::RouletteWheel;

        for i in infinite {
            if i < fitness.len() {
                fitness[i] = f64::INFINITY;
            }
        }
        prop_assume!(fitness.iter().any(|f| f.is_finite()));
        let wheel = RouletteWheel::build(&fitness);
        let mut rng = stream(seed, Stream::Genetic);
        let spins = 4_000;
        let mut counts = vec![0usize; fitness.len()];
        for _ in 0..spins {
            let i = wheel.spin(&mut rng);
            prop_assert!(i < fitness.len());
            counts[i] += 1;
        }
        // Infeasible (infinite-fitness) individuals are never selected.
        for (i, &f) in fitness.iter().enumerate() {
            if !f.is_finite() {
                prop_assert!(counts[i] == 0, "picked infeasible {}", i);
            }
        }
        // The value-based wheel weights by (worst − f): the best finite
        // individual can never be sampled (meaningfully) less often than
        // the worst. 5% slack on 4000 spins ≈ 13σ for a fair wheel.
        let best = (0..fitness.len()).min_by(|&a, &b| fitness[a].total_cmp(&fitness[b])).unwrap();
        let worst = (0..fitness.len())
            .filter(|&i| fitness[i].is_finite())
            .max_by(|&a, &b| fitness[a].total_cmp(&fitness[b]))
            .unwrap();
        prop_assert!(
            counts[best] + spins / 20 >= counts[worst],
            "best {} picked {} < worst {} picked {}",
            best, counts[best], worst, counts[worst]
        );
    }

    #[test]
    fn bucketed_history_lookup_equals_linear_scan(
        entries in prop::collection::vec(
            (1usize..5, 1usize..5, 0.0f64..100.0, 0u16..8),
            1..40,
        ),
        query in (1usize..5, 1usize..5, 0.0f64..100.0),
        threshold in 0.0f64..=1.0,
        limit in 1usize..8,
    ) {
        use gridsec::stga::history::{BatchSignature, HistoryTable};
        use gridsec::stga::Chromosome;

        let make_sig = |jobs: usize, sites: usize, x: f64| BatchSignature {
            ready_times: (0..sites).map(|i| x + i as f64).collect(),
            etc: (0..jobs * sites).map(|i| x * 0.5 + i as f64).collect(),
            demands: (0..jobs).map(|i| (x * 0.01 + i as f64 * 0.07) % 1.0).collect(),
        };
        let mut table = HistoryTable::new(24);
        for (jobs, sites, x, gene) in entries {
            table.insert(make_sig(jobs, sites, x), Chromosome::from_genes(vec![gene; jobs]));
        }
        let q = make_sig(query.0, query.1, query.2);
        let want = referee::lookup_linear(&table, &q, threshold, limit);
        prop_assert_eq!(table.lookup(&q, threshold, limit), want);
        // And a follow-up query on the table the first lookup has
        // re-stamped still agrees.
        let want = referee::lookup_linear(&table, &q, threshold / 2.0, limit);
        prop_assert_eq!(table.lookup(&q, threshold / 2.0, limit), want);
    }
}

/// Random chaos-scenario programs on a fixed 4-site grid: an arrival
/// phase, an explicit outage (with or without rejoin), a fault storm and
/// a trust storm, all driven by an arbitrary master seed.
fn arb_scenario() -> impl Strategy<Value = gridsec::sim::Scenario> {
    use gridsec::sim::{ArrivalPhase, ArrivalProcess, FaultSpec, Scenario, TrustSpec};
    (
        any::<u64>(),
        0.01f64..0.2,
        (50.0f64..200.0, any::<bool>(), 250.0f64..400.0),
        0.002f64..0.02,
        0.005f64..0.05,
    )
        .prop_map(
            |(seed, rate, (fail_at, rejoins, until), storm_rate, trust_rate)| Scenario {
                seed,
                arrivals: vec![ArrivalPhase {
                    tenant: "prop".into(),
                    start: 0.0,
                    end: 400.0,
                    process: ArrivalProcess::Poisson { rate },
                    width_min: 1,
                    width_max: 4,
                    work_min: 20.0,
                    work_max: 300.0,
                    sd_min: 0.3,
                    sd_max: 0.7,
                }],
                faults: vec![
                    FaultSpec::SiteDown {
                        site: 1,
                        at: fail_at,
                        until: rejoins.then_some(until),
                    },
                    FaultSpec::FaultStorm {
                        start: 100.0,
                        end: 350.0,
                        rate: storm_rate,
                        mttr: 50.0,
                        sites: None,
                    },
                ],
                trust: vec![TrustSpec::TrustStorm {
                    start: 0.0,
                    end: 400.0,
                    rate: trust_rate,
                    jitter: 0.1,
                }],
                max_jobs: Some(40),
            },
        )
}

fn scenario_grid() -> Grid {
    Grid::new(
        (0..4)
            .map(|i| {
                Site::builder(i)
                    .nodes([2, 4, 2, 4][i])
                    .speed(1.0 + i as f64 * 0.5)
                    .security_level(0.9)
                    .build()
                    .unwrap()
            })
            .collect(),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_scenarios_replay_deterministically_and_lose_nothing(
        scenario in arb_scenario()
    ) {
        use gridsec::serve::ScenarioRunner;
        let grid = scenario_grid();
        // Compilation is a pure function of (spec, grid).
        let stream = scenario.compile(&grid).unwrap();
        prop_assert_eq!(&stream.events, &scenario.compile(&grid).unwrap().events);
        // Replay is deterministic and the ledger always balances: every
        // generated job ends scheduled, pending, or typed-rejected, no
        // matter what the churn program did.
        let config = SimConfig::default().with_interval(Time::new(30.0));
        let run = || {
            ScenarioRunner::new(grid.clone(), Box::new(MinMin::new(RiskMode::Risky)), &config)
                .unwrap()
                .run(&stream)
                .unwrap()
        };
        let a = run();
        let b = run();
        prop_assert!(a.fully_accounted(), "ledger must balance: {:?}", a);
        prop_assert_eq!(&a.timeline, &b.timeline);
        prop_assert_eq!(a.metrics.jobs_scheduled, b.metrics.jobs_scheduled);
        prop_assert_eq!(a.metrics.pending, b.metrics.pending);
        prop_assert_eq!(&a.rejected, &b.rejected);
    }

    #[test]
    fn shard_slices_partition_every_scenario_stream(
        scenario in arb_scenario()
    ) {
        use gridsec::sim::{InjectionKind, ShardPlan};
        let grid = scenario_grid();
        let stream = scenario.compile(&grid).unwrap();
        let plan = ShardPlan::contiguous(&grid, 2).unwrap();
        let slices: Vec<_> = (0..2)
            .map(|k| stream.slice_for_shard(&plan, &grid, k))
            .collect();
        // Every global arrival that fits somewhere lands on exactly one
        // shard; site events go to the owning shard only.
        let global_arrivals = stream
            .events
            .iter()
            .filter(|e| match &e.kind {
                InjectionKind::Arrive(job) => !plan.eligible_shards(&grid, job).is_empty(),
                _ => false,
            })
            .count();
        let sliced_arrivals: usize = slices
            .iter()
            .map(|s| {
                s.events
                    .iter()
                    .filter(|e| matches!(e.kind, InjectionKind::Arrive(_)))
                    .count()
            })
            .sum();
        prop_assert_eq!(global_arrivals, sliced_arrivals);
        for (k, slice) in slices.iter().enumerate() {
            for e in &slice.events {
                if let InjectionKind::SiteFail(s) | InjectionKind::SiteRejoin(s) = &e.kind {
                    // Slice site ids are shard-local; they must map back
                    // into this shard's global site set.
                    let global = plan.to_global(k, *s);
                    prop_assert_eq!(plan.shard_of(global), Some(k));
                }
            }
        }
    }
}

/// A random full partition of `n_sites` sites: a shuffled site list cut
/// at random points, so shards need not be contiguous runs of site ids.
fn arb_partition(n_sites: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    (
        prop::collection::vec(any::<u64>(), n_sites),
        prop::collection::vec(any::<bool>(), n_sites),
    )
        .prop_map(move |(keys, cuts)| {
            // Shuffle by sorting site ids under random keys.
            let mut order: Vec<usize> = (0..n_sites).collect();
            order.sort_by_key(|&i| keys[i]);
            let mut shards = vec![Vec::new()];
            for (i, site) in order.into_iter().enumerate() {
                if i > 0 && cuts[i] {
                    shards.push(Vec::new());
                }
                shards.last_mut().unwrap().push(site);
            }
            shards
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random reshard plans: both partitions cover every site exactly
    /// once, and `transfer` conserves everything it moves — per-site
    /// availability and offline flags travel with their site, pending
    /// jobs are neither lost nor duplicated, and each new shard's clock
    /// is the max over the old shards it inherits sites from.
    #[test]
    fn reshard_transfer_keeps_every_site_in_exactly_one_shard(
        (grid, old_spec, new_spec, n_pending) in arb_grid().prop_flat_map(|g| {
            let n = g.len();
            (Just(g), arb_partition(n), arb_partition(n), 0usize..8)
        })
    ) {
        use gridsec::serve::{transfer, ServeMetrics, ShardStateExport};
        use gridsec::sim::ShardPlan;

        let to_plan = |spec: &Vec<Vec<usize>>| {
            ShardPlan::from_shards(
                &grid,
                spec.iter()
                    .map(|s| s.iter().map(|&x| SiteId(x)).collect())
                    .collect(),
            )
            .expect("a full partition is a valid plan")
        };
        let old_plan = to_plan(&old_spec);
        let new_plan = to_plan(&new_spec);
        for plan in [&old_plan, &new_plan] {
            let mut seen = vec![0usize; grid.len()];
            for k in 0..plan.n_shards() {
                for s in plan.sites_of(k) {
                    seen[s.0] += 1;
                    prop_assert_eq!(plan.shard_of(*s), Some(k));
                }
            }
            prop_assert!(seen.iter().all(|&c| c == 1), "every site in exactly one shard");
        }

        // Synthetic exports: recognisable per-site availability, offline
        // every third site, clocks distinct per shard, pending jobs
        // round-robined over the old shards.
        let avail = |s: usize| vec![Time::new(s as f64 + 1.0); grid.site(SiteId(s)).nodes as usize];
        let exports: Vec<ShardStateExport> = (0..old_plan.n_shards())
            .map(|k| ShardStateExport {
                shard: k,
                clock: Time::new(10.0 * (k as f64 + 1.0)),
                sites: old_plan
                    .sites_of(k)
                    .iter()
                    .map(|s| (*s, avail(s.0), s.0 % 3 == 0))
                    .collect(),
                pending: (0..n_pending)
                    .filter(|i| i % old_plan.n_shards() == k)
                    .map(|i| BatchJob {
                        job: Job::builder(i as u64)
                            .arrival(Time::new(0.0))
                            .work(10.0)
                            .width(1)
                            .security_demand(0.1)
                            .build()
                            .unwrap(),
                        secure_only: false,
                    })
                    .collect(),
                inflight: Vec::new(),
                live: Default::default(),
                known: Default::default(),
                tenants: Vec::new(),
                history_json: None,
                metrics: ServeMetrics::merge(&[]),
                schedule: Vec::new(),
            })
            .collect();
        let moved = transfer(&grid, &old_plan, &exports, &new_plan)
            .expect("a full partition transfers");
        prop_assert_eq!(moved.seeds.len(), new_plan.n_shards());

        let mut pending_seen = Vec::new();
        for (k, seed) in moved.seeds.iter().enumerate() {
            let sites = new_plan.sites_of(k);
            prop_assert_eq!(seed.state.sites.len(), sites.len());
            for (i, s) in sites.iter().enumerate() {
                let (free, offline) = &seed.state.sites[i];
                prop_assert_eq!(free, &avail(s.0));
                prop_assert_eq!(*offline, s.0 % 3 == 0);
            }
            let expected_clock = (0..old_plan.n_shards())
                .filter(|&j| old_plan.sites_of(j).iter().any(|s| sites.contains(s)))
                .map(|j| exports[j].clock)
                .fold(Time::new(0.0), Time::max);
            prop_assert_eq!(seed.state.clock, expected_clock);
            pending_seen.extend(seed.state.pending.iter().map(|b| b.job.id.0));
        }
        pending_seen.sort_unstable();
        let expected: Vec<u64> = (0..n_pending as u64).collect();
        prop_assert_eq!(pending_seen, expected);
    }

    /// STGA history tables survive a topology change: splitting entries
    /// across shard-local tables and merging the JSON snapshots back
    /// loses nothing — every entry stays retrievable by its own
    /// signature, and the merged snapshot round-trips byte-identically.
    #[test]
    fn history_split_then_merge_through_json_is_lossless(
        entries in prop::collection::vec(
            (
                prop::collection::vec(0.0f64..100.0, 1..6),
                prop::collection::vec(0.0f64..50.0, 1..10),
                prop::collection::vec(0u16..4, 1..6),
            ),
            1..12,
        )
    ) {
        use gridsec::stga::{BatchSignature, Chromosome, HistoryTable};

        let sig = |i: usize, rt: &[f64], etc: &[f64]| BatchSignature {
            // Salt the first component so every signature is distinct.
            ready_times: rt
                .iter()
                .enumerate()
                .map(|(j, v)| if j == 0 { v + 1_000.0 * i as f64 } else { *v })
                .collect(),
            etc: etc.to_vec(),
            demands: vec![0.5; rt.len()],
        };
        // Split: entries alternate between two shard-local tables.
        let mut halves = [HistoryTable::new(64), HistoryTable::new(64)];
        for (i, (rt, etc, genes)) in entries.iter().enumerate() {
            halves[i % 2].insert(sig(i, rt, etc), Chromosome::from_genes(genes.clone()));
        }
        let mut merged =
            HistoryTable::from_snapshots(&[halves[0].to_json(), halves[1].to_json()], 64)
                .expect("snapshots merge");
        prop_assert_eq!(merged.len(), halves[0].len() + halves[1].len());
        for (i, (rt, etc, genes)) in entries.iter().enumerate() {
            let probe = sig(i, rt, etc);
            let hits = merged.lookup(&probe, 0.999, entries.len());
            let chrom = Chromosome::from_genes(genes.clone());
            prop_assert!(
                hits.contains(&chrom),
                "entry {} lost in the split-then-merge", i
            );
        }
        // The merged snapshot is stable under a JSON round trip.
        let rejoined = HistoryTable::from_json(&merged.to_json()).expect("round trip");
        prop_assert_eq!(rejoined.to_json(), merged.to_json());
    }
}

// --- Telemetry histograms --------------------------------------------------

/// Samples spanning the full bucket range the daemon actually records
/// (zeros, small counts, nanosecond latencies).
fn arb_hist_samples() -> impl Strategy<Value = Vec<u64>> {
    // Skew toward small values but cover the full recorded range
    // (zeros, batch counts, nanosecond latencies).
    prop::collection::vec((0u64..=(1 << 40), 0u32..=40), 0..=120)
        .prop_map(|vs| vs.into_iter().map(|(v, shift)| v >> shift).collect())
}

fn snapshot_of(samples: &[u64]) -> gridsec::obs::HistogramSnapshot {
    let h = gridsec::obs::Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging snapshots is commutative and associative — per-shard
    /// histograms can be aggregated in any order (the router's
    /// scatter-gather makes no ordering promise).
    #[test]
    fn histogram_merge_is_commutative_and_associative(
        a in arb_hist_samples(),
        b in arb_hist_samples(),
        c in arb_hist_samples(),
    ) {
        let (sa, sb, sc) = (snapshot_of(&a), snapshot_of(&b), snapshot_of(&c));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba);
        let mut ab_c = ab.clone();
        ab_c.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut a_bc = sa.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);
        // And equals recording everything into one histogram.
        let mut all = a.clone();
        all.extend_from_slice(&b);
        all.extend_from_slice(&c);
        prop_assert_eq!(&ab_c, &snapshot_of(&all));
    }

    /// The quantile estimate never under-reports and stays within the
    /// true quantile's log2 bucket: `truth <= estimate <= 2*truth - 1`
    /// (and exactly 0 for a true quantile of 0).
    #[test]
    fn histogram_quantile_bounds_true_quantile_within_one_bucket(
        samples in prop::collection::vec(0u64..=(1u64 << 40), 1..=200),
        q in 0.0f64..=1.0,
    ) {
        let snap = snapshot_of(&samples);
        let estimate = snap.quantile(q);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let truth = sorted[rank - 1];
        prop_assert!(
            estimate >= truth,
            "estimate {} under-reports true quantile {}", estimate, truth
        );
        if truth == 0 {
            prop_assert_eq!(estimate, 0);
        } else {
            prop_assert!(
                estimate < truth.saturating_mul(2),
                "estimate {} beyond true quantile {}'s bucket", estimate, truth
            );
        }
    }
}

/// Runs `bytes` through the daemon's frame decoder, pushed in pieces of
/// the given sizes (cycled; one whole push when `cuts` is empty), pulling
/// every line after each push and the tail at EOF. `Ok(body)` is a
/// frame, `Err(n)` a too-long rejection reporting `n` body bytes.
fn decode_lines(bytes: &[u8], cuts: &[usize], max: usize) -> Vec<Result<Vec<u8>, usize>> {
    use gridsec::serve::protocol::{Line, LineDecoder};
    fn own(line: Line<'_>) -> Result<Vec<u8>, usize> {
        match line {
            Line::Frame(body) => Ok(body.to_vec()),
            Line::TooLong(n) => Err(n),
        }
    }
    let mut decoder = LineDecoder::new(max);
    let mut lines = Vec::new();
    let mut rest = bytes;
    let mut cuts = cuts.iter().cycle();
    while !rest.is_empty() {
        let n = cuts.next().map_or(rest.len(), |&n| n.min(rest.len()));
        decoder.push(&rest[..n]);
        rest = &rest[n..];
        while let Some(line) = decoder.next_line(false) {
            lines.push(own(line));
        }
    }
    while let Some(line) = decoder.next_line(true) {
        lines.push(own(line));
    }
    lines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The wire decoder under hostile input: arbitrary bytes (a quarter
    /// of them newlines, so lines of every length around the cap occur)
    /// under arbitrary segmentation never panic, decode to the same
    /// lines as one whole push, and match the byte-level truth — the
    /// input split at newlines, an unterminated tail delivered only if
    /// non-empty, each body over the cap rejected with its true length.
    #[test]
    fn frame_decoder_is_segmentation_invariant_and_reports_true_lengths(
        raw in prop::collection::vec((0u8..=255, 0u8..4), 0..300),
        cuts in prop::collection::vec(1usize..=9, 1..=8),
        max in 0usize..=12,
    ) {
        let bytes: Vec<u8> = raw
            .into_iter()
            .map(|(b, newline)| if newline == 0 { b'\n' } else { b })
            .collect();
        let mut truth: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
        if truth.last().is_some_and(|tail| tail.is_empty()) {
            truth.pop();
        }
        let truth: Vec<Result<Vec<u8>, usize>> = truth
            .into_iter()
            .map(|body| if body.len() > max { Err(body.len()) } else { Ok(body.to_vec()) })
            .collect();
        let whole = decode_lines(&bytes, &[], max);
        prop_assert_eq!(&whole, &truth);
        prop_assert_eq!(decode_lines(&bytes, &cuts, max), whole);
    }
}

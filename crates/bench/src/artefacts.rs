//! The paper's artefacts (§4) as functions from the run configuration to
//! an [`Artefact`]: the records behind a figure and the text that shows
//! it. Nothing here prints — the `paper` binary, the CI step and the
//! in-process claims test all read the same value — and each distinct
//! experiment is simulated once: Fig. 8, Fig. 9 and Table 2 are three
//! renderings of one [`NasRoster`].

use crate::runner::{
    idle_sites, make_stga, nas_setup, nas_sim_config, paper_schedulers, psa_setup, psa_sim_config,
    replicate, replication_seeds, run_one, table2_ranks, MetricMeans, Outcome, Record,
};
use crate::table::AsciiTable;
use crate::BenchArgs;
use gridsec_core::etc::NodeAvailability;
use gridsec_core::rng::subseed;
use gridsec_core::{FailureDetection, Grid, Job, RiskMode, SecurityModel, Time};
use gridsec_heuristics::{MinMin, Sufferage};
use gridsec_sim::{BatchJob, BatchScheduler, GridView, SimConfig, SimOutput};
use gridsec_stga::{GaParams, StandardGa, Stga, StgaParams};

/// Every artefact `paper` can print, in the paper's order.
pub const NAMES: [&str; 8] = [
    "fig5",
    "fig7a",
    "fig7b",
    "fig8",
    "fig9",
    "table2",
    "fig10",
    "ablations",
];

/// The artefacts `--reps` applies to (the others are single runs).
pub const REPLICATED: [&str; 2] = ["fig8", "fig10"];

/// One artefact: what was measured and how it reads.
#[derive(Debug, Clone)]
pub struct Artefact {
    /// The artefact's name (one of [`NAMES`]); every record carries it.
    pub name: &'static str,
    /// One record per simulation or GA run, in execution order.
    pub records: Vec<Record>,
    /// The header, per-run summary lines and tables.
    pub text: String,
}

impl Artefact {
    fn titled(name: &'static str, title: &str) -> Artefact {
        let mut a = Artefact {
            name,
            records: Vec::new(),
            text: String::new(),
        };
        a.header(title);
        a
    }

    fn header(&mut self, title: &str) {
        self.line(&format!("\n=== {title} ==="));
    }

    fn line(&mut self, s: &str) {
        self.text.push_str(s);
        self.text.push('\n');
    }

    fn table(&mut self, t: &AsciiTable) {
        self.text.push_str(&t.render());
    }

    fn push(&mut self, params: impl Into<String>, output: Outcome) {
        self.records.push(Record {
            experiment: self.name.to_string(),
            params: params.into(),
            output,
        });
    }

    /// Logs a simulation's summary line and records it.
    fn keep(&mut self, params: impl Into<String>, out: SimOutput) {
        self.line(&out.summary());
        self.push(params, Outcome::Sim(out));
    }

    /// Appends the table of ablation `k`'s sweep — the simulations kept
    /// as `<k> key=value …` — one row each: the values under their keys,
    /// then every column's cell.
    fn tabulate(&mut self, k: usize, columns: &[Column]) {
        fn labels(r: &Record) -> impl Iterator<Item = (&str, &str)> {
            r.params.split(' ').filter_map(|p| p.split_once('='))
        }
        let prefix = format!("{k} ");
        let sweep = self.records.iter();
        let sweep: Vec<&Record> = sweep.filter(|r| r.params.starts_with(&prefix)).collect();
        let keys = labels(sweep[0]).map(|(key, _)| key);
        let mut t = AsciiTable::new(keys.chain(columns.iter().map(|c| c.0)).collect());
        for r in sweep {
            let out = r.sim().expect("a sweep keeps simulations");
            let values = labels(r).map(|(_, value)| value.to_string());
            t.row(values.chain(columns.iter().map(|c| c.1(out))).collect());
        }
        self.table(&t);
    }

    /// Runs one simulation and keeps it.
    fn sim(
        &mut self,
        params: impl Into<String>,
        (jobs, grid): (&[Job], &Grid),
        scheduler: &mut dyn BatchScheduler,
        config: &SimConfig,
    ) -> SimOutput {
        let out = run_one(jobs, grid, scheduler, config);
        self.keep(params, out.clone());
        out
    }
}

/// Runs `which` (one of [`NAMES`], or `"all"`) and returns the artefacts
/// in the paper's order; the NAS roster is simulated at most once.
pub fn run(which: &str, args: &BenchArgs) -> Vec<Artefact> {
    let roster = std::cell::OnceCell::new();
    let roster = || roster.get_or_init(|| NasRoster::run(args));
    let wanted = NAMES
        .into_iter()
        .filter(|&name| which == "all" || which == name);
    wanted
        .map(|name| match name {
            "fig5" => fig5(args),
            "fig7a" => fig7a(args),
            "fig7b" => fig7b(args),
            "fig8" => roster().fig8(),
            "fig9" => roster().fig9(),
            "table2" => roster().table2(),
            "fig10" => fig10(args),
            _ => ablations(args),
        })
        .collect()
}

/// Seconds in the tables' scientific notation.
fn sci(x: f64) -> String {
    format!("{x:.3e}")
}

/// A column of an ablation table: its header and the cell it reads off a
/// simulation.
type Column = (&'static str, fn(&SimOutput) -> String);
const MAKESPAN: Column = ("makespan (s)", |o| sci(o.metrics.makespan.seconds()));
const N_FAIL: Column = ("Nfail", |o| o.metrics.n_fail.to_string());
const N_RISK: Column = ("Nrisk", |o| o.metrics.n_risk.to_string());
const AVG_RESPONSE: Column = ("avg response (s)", |o| sci(o.metrics.avg_response));
const SCHED_TIME: Column = ("scheduler time (s)", |o| {
    format!("{:.3}", o.scheduler_seconds)
});

/// An idle grid at time zero, for Fig. 5's single-batch GA comparison.
fn idle(grid: &Grid) -> Vec<NodeAvailability> {
    grid.sites()
        .map(|s| NodeAvailability::new(s.nodes, Time::ZERO))
        .collect()
}

fn as_batch(jobs: &[Job]) -> Vec<BatchJob> {
    jobs.iter()
        .cloned()
        .map(|job| BatchJob {
            job,
            secure_only: false,
        })
        .collect()
}

/// Fig. 5: a sequence of similar PSA batches through the conventional GA
/// and the STGA; each round's generation-0 and final best fitness. Once
/// the STGA's table holds similar batches its initial population starts
/// near the convergence point, while the GA keeps starting from scratch.
pub fn fig5(args: &BenchArgs) -> Artefact {
    let rounds = if args.quick { 4 } else { 10 };
    let batch_size = 12;
    let w = psa_setup(rounds * batch_size, args.seed);
    let mut a = Artefact::titled(
        "fig5",
        "Fig. 5: initial-population quality, conventional GA vs STGA",
    );

    let ga_params = GaParams::default()
        .with_population(if args.quick { 50 } else { 200 })
        .with_generations(if args.quick { 30 } else { 100 })
        .with_seed(args.seed);
    let mut ga = StandardGa::new(ga_params).expect("valid GA params");
    let mut stga = Stga::new(StgaParams {
        ga: ga_params,
        ..StgaParams::default()
    })
    .expect("valid STGA params");

    let avail = idle(&w.grid);
    let view = GridView {
        grid: &w.grid,
        avail: &avail,
        now: Time::ZERO,
        model: SecurityModel::default(),
    };
    let mut table = AsciiTable::new(vec![
        "round",
        "GA initial",
        "GA final",
        "STGA initial",
        "STGA final",
        "STGA head-start %",
    ]);
    for r in 0..rounds {
        let batch = as_batch(&w.jobs[r * batch_size..(r + 1) * batch_size]);
        let _ = ga.schedule(&batch, &view);
        let _ = stga.schedule(&batch, &view);
        let tga = ga.last_trajectory().expect("GA ran");
        let tst = stga.last_trajectory().expect("STGA ran");
        let head_start = 100.0 * (tga[0] - tst[0]) / tga[0];
        table.row(vec![
            (r + 1).to_string(),
            format!("{:.0}", tga[0]),
            format!("{:.0}", tga[tga.len() - 1]),
            format!("{:.0}", tst[0]),
            format!("{:.0}", tst[tst.len() - 1]),
            format!("{head_start:+.1}"),
        ]);
        a.push(
            format!("round={} GA", r + 1),
            Outcome::Trajectory(tga.to_vec()),
        );
        a.push(
            format!("round={} STGA", r + 1),
            Outcome::Trajectory(tst.to_vec()),
        );
    }
    a.line("");
    a.table(&table);
    a.line(
        "\nhead-start = how much better the STGA's initial population is than\n\
         the conventional GA's random initial population (positive = better).",
    );
    a
}

/// Fig. 7(a): makespan of Min-Min and Sufferage f-risky as the risk
/// threshold `f` sweeps 0 → 1 (PSA, N = 1000). The paper observes two
/// concave curves with minima around f ≈ 0.5–0.6, hence f = 0.5.
pub fn fig7a(args: &BenchArgs) -> Artefact {
    let n = if args.quick { 200 } else { 1000 };
    let w = psa_setup(n, args.seed);
    let config = psa_sim_config(args.seed);
    let mut a = Artefact::titled("fig7a", &format!("Fig. 7(a): makespan vs f (PSA, N = {n})"));

    let mut table = AsciiTable::new(vec!["f", "Min-Min f-Risky", "Sufferage f-Risky"]);
    let on = (&w.jobs[..], &w.grid);
    for f in (0..=10).map(|i| i as f64 / 10.0) {
        let mode = RiskMode::FRisky(f);
        let (mut minmin, mut sufferage) = (MinMin::new(mode), Sufferage::new(mode));
        let mm = a.sim(format!("f={f:.1} minmin"), on, &mut minmin, &config);
        let sf = a.sim(format!("f={f:.1} sufferage"), on, &mut sufferage, &config);
        table.row(vec![
            format!("{f:.1}"),
            format!("{:.0}", mm.metrics.makespan.seconds()),
            format!("{:.0}", sf.metrics.makespan.seconds()),
        ]);
    }
    a.line("");
    a.table(&table);
    a
}

/// Fig. 7(b): STGA makespan against the number of GA iterations (PSA,
/// N = 1000). The paper reports fluctuation below ~25 iterations,
/// convergence onset near 40 and a flat constant beyond ~50.
pub fn fig7b(args: &BenchArgs) -> Artefact {
    let n = if args.quick { 200 } else { 1000 };
    let w = psa_setup(n, args.seed);
    let config = psa_sim_config(args.seed);
    let title = format!("Fig. 7(b): STGA makespan vs iterations (PSA, N = {n})");
    let mut a = Artefact::titled("fig7b", &title);

    let gens: &[usize] = if args.quick {
        &[0, 10, 25, 50, 100]
    } else {
        &[0, 10, 25, 40, 50, 75, 100, 150, 200]
    };
    let mut table = AsciiTable::new(vec!["iterations", "makespan (s)", "scheduler time (s)"]);
    let on = (&w.jobs[..], &w.grid);
    for &g in gens {
        let mut stga = make_stga(&w.jobs, &w.grid, args.seed, g, 8).expect("valid STGA params");
        let out = a.sim(format!("generations={g}"), on, &mut stga, &config);
        table.row(vec![
            g.to_string(),
            format!("{:.0}", out.metrics.makespan.seconds()),
            format!("{:.3}", out.scheduler_seconds),
        ]);
    }
    a.line("");
    a.table(&table);
    a
}

/// The seven-algorithm roster on the NAS trace, one run per replication
/// seed: the experiment behind Fig. 8 (means over the replications) and
/// behind Fig. 9 and Table 2 (the base-seed replication).
pub struct NasRoster {
    n: usize,
    seeds: Vec<u64>,
    /// Per replication: its grid and the seven outputs in roster order.
    runs: Vec<(Grid, Vec<SimOutput>)>,
}

impl NasRoster {
    /// Simulates the roster once per replication seed, replications in
    /// parallel on `args.threads` workers.
    pub fn run(args: &BenchArgs) -> NasRoster {
        let n = if args.quick { 1_000 } else { 16_000 };
        let seeds = replication_seeds(args.seed, args.reps);
        let runs = replicate(args.threads, &seeds, |seed| {
            let w = nas_setup(n, seed);
            let config = nas_sim_config(seed);
            let outs = paper_schedulers(&w.jobs, &w.grid, seed, 15)
                .into_iter()
                .map(|mut s| run_one(&w.jobs, &w.grid, s.as_mut(), &config))
                .collect();
            (w.grid, outs)
        });
        NasRoster { n, seeds, runs }
    }

    /// Fig. 8: (a) makespan, (b) N_fail / N_risk, (c) slowdown ratio,
    /// (d) average response time, as means over the replications.
    pub fn fig8(&self) -> Artefact {
        let mut a = Artefact::titled(
            "fig8",
            &format!(
                "Fig. 8: seven algorithms on the NAS trace (N = {}, mean of {} replications)",
                self.n,
                self.seeds.len()
            ),
        );
        let mut table = AsciiTable::new(vec![
            "algorithm",
            "makespan (s)",
            "Nfail",
            "Nrisk",
            "slowdown",
            "avg response (s)",
        ]);
        for i in 0..self.runs[0].1.len() {
            let m = MetricMeans::of(self.runs.iter().map(|(_, outs)| &outs[i]));
            table.row(vec![
                self.runs[0].1[i].scheduler_name.clone(),
                sci(m.makespan),
                format!("{:.1}", m.n_fail),
                format!("{:.1}", m.n_risk),
                format!("{:.2}", m.slowdown),
                sci(m.avg_response),
            ]);
            for ((_, outs), seed) in self.runs.iter().zip(&self.seeds) {
                let params = format!("{} seed={seed}", outs[i].scheduler_name);
                a.push(params, Outcome::Sim(outs[i].clone()));
            }
        }
        a.line("");
        a.table(&table);
        a
    }

    /// The base-seed replication as an artefact: header, the seven
    /// summary lines and records. Fig. 9 and Table 2 do not average.
    fn base(&self, name: &'static str, title: &str) -> Artefact {
        let of = self.seeds.len();
        let mut a = Artefact::titled(
            name,
            &format!("{title} (N = {}, replication 1 of {of})", self.n),
        );
        for out in &self.runs[0].1 {
            a.keep(out.scheduler_name.clone(), out.clone());
        }
        a.line("");
        a
    }

    /// Fig. 9: per-site utilisation (%) of the 12 NAS sites under each
    /// algorithm.
    pub fn fig9(&self) -> Artefact {
        let mut a = self.base("fig9", "Fig. 9: site utilisation on the NAS trace");
        let (grid, outs) = &self.runs[0];
        let mut headers = vec!["algorithm".to_string()];
        headers.extend((1..=grid.len()).map(|i| format!("S{i}")));
        headers.push("idle sites".to_string());
        headers.push("fairness".to_string());
        let mut table = AsciiTable::new(headers);
        for out in outs {
            let util = &out.metrics.site_utilization;
            let mut cells = vec![out.scheduler_name.clone()];
            cells.extend(util.iter().map(|u| format!("{u:.0}%")));
            cells.push(idle_sites(out).to_string());
            cells.push(format!("{:.3}", out.metrics.utilization_fairness));
            table.row(cells);
        }
        a.table(&table);
        a.line(&format!(
            "\nSite legend: S1–S4 are the 16-node sites, S5–S12 the 8-node sites;\n\
             security levels: {}",
            grid.sites()
                .map(|s| format!("{:.2}", s.security_level))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        a
    }

    /// Table 2: makespan ratio α and response-time ratio β of every
    /// algorithm relative to the STGA, ranked by α + β (smaller is better).
    pub fn table2(&self) -> Artefact {
        let mut a = self.base("table2", "Table 2: α/β ratios vs STGA on the NAS trace");
        let outs: Vec<&SimOutput> = self.runs[0].1.iter().collect();
        let mut table = AsciiTable::new(vec!["heuristic", "alpha", "beta", "rank"]);
        for (out, (alpha, beta, rank)) in outs.iter().zip(table2_ranks(&outs)) {
            table.row(vec![
                out.scheduler_name.clone(),
                format!("{alpha:.3}"),
                format!("{beta:.3}"),
                ordinal(rank),
            ]);
        }
        a.table(&table);
        a
    }
}

fn ordinal(n: usize) -> String {
    let suffix = match (n % 10, n % 100) {
        (1, 11) | (2, 12) | (3, 13) => "th",
        (1, _) => "st",
        (2, _) => "nd",
        (3, _) => "rd",
        _ => "th",
    };
    format!("{n}{suffix}")
}

/// Fig. 10: the PSA workload scaled over N ∈ {1000, 2000, 5000, 10000}
/// for Min-Min f-risky, Sufferage f-risky and the STGA — (a) makespan,
/// (b) N_fail / N_risk, (c) slowdown, (d) average response — as means
/// over the replications.
pub fn fig10(args: &BenchArgs) -> Artefact {
    const MODE: RiskMode = RiskMode::FRisky(RiskMode::PAPER_F);
    let sizes: &[usize] = if args.quick {
        &[200, 500]
    } else {
        &[1_000, 2_000, 5_000, 10_000]
    };
    let reps = args.reps;
    let title = format!("Fig. 10: PSA scaling, N in {sizes:?}, mean of {reps} replications");
    let mut a = Artefact::titled("fig10", &title);
    // One parallel task per (N, seed) pair: the workers load-balance the
    // mixed run lengths.
    let seeds = replication_seeds(args.seed, args.reps);
    let pairs = sizes
        .iter()
        .flat_map(|&n| seeds.iter().map(move |&s| (n, s)));
    let pairs: Vec<(usize, u64)> = pairs.collect();
    let runs: Vec<[SimOutput; 3]> = replicate(args.threads, &pairs, |(n, seed)| {
        let w = psa_setup(n, seed);
        let config = psa_sim_config(seed);
        let mut stga = make_stga(&w.jobs, &w.grid, seed, 100, 8).expect("valid STGA params");
        [
            run_one(&w.jobs, &w.grid, &mut MinMin::new(MODE), &config),
            run_one(&w.jobs, &w.grid, &mut Sufferage::new(MODE), &config),
            run_one(&w.jobs, &w.grid, &mut stga, &config),
        ]
    });
    for ((n, seed), outs) in pairs.iter().zip(&runs) {
        for o in outs {
            let params = format!("N={n} seed={seed} {}", o.scheduler_name);
            a.push(params, Outcome::Sim(o.clone()));
        }
    }

    type MeanFmt = fn(&MetricMeans) -> String;
    for (title, f) in [
        ("(a) makespan (s)", (|m| sci(m.makespan)) as MeanFmt),
        ("(b) Nfail / Nrisk", |m| {
            format!("{:.1} / {:.1}", m.n_fail, m.n_risk)
        }),
        ("(c) slowdown ratio", |m| format!("{:.2}", m.slowdown)),
        ("(d) avg response (s)", |m| sci(m.avg_response)),
    ] {
        a.line(&format!("\nFig. 10{title}"));
        let mut table = AsciiTable::new(vec!["N", "Min-Min f-Risky", "Sufferage f-Risky", "STGA"]);
        for &n in sizes {
            let mut cells = vec![n.to_string()];
            for algo in 0..3 {
                let of_n = pairs.iter().zip(&runs).filter(|((pn, _), _)| *pn == n);
                cells.push(f(&MetricMeans::of(of_n.map(|(_, outs)| &outs[algo]))));
            }
            table.row(cells);
        }
        a.table(&table);
    }
    a
}

/// Ablations of the knobs the paper leaves open (README, "Deviations from
/// the paper"): failure-law λ, failure-detection timing, the STGA's
/// history capacity, similarity threshold and seeding mix, and the NAS
/// batch period.
pub fn ablations(args: &BenchArgs) -> Artefact {
    let n = if args.quick { 200 } else { 1000 };
    let w = psa_setup(n, args.seed);
    let on = (&w.jobs[..], &w.grid);
    let base = psa_sim_config(args.seed);
    let risky = || MinMin::new(RiskMode::Risky);
    let mut a = Artefact::titled(
        "ablations",
        "Ablation 1: failure-law λ sweep (Min-Min Risky, PSA)",
    );

    for lambda in [0.5, 1.0, 3.0, 6.0, 12.0] {
        let config = base.clone().with_lambda(lambda).expect("positive λ");
        a.sim(format!("1 lambda={lambda:.1}"), on, &mut risky(), &config);
    }
    a.tabulate(1, &[MAKESPAN, N_FAIL, N_RISK]);
    a.header("Ablation 2: failure-detection timing (Min-Min Risky, PSA)");

    for (label, fd) in [
        ("at-end", FailureDetection::AtEnd),
        ("uniform-fraction", FailureDetection::UniformFraction),
    ] {
        let config = base.clone().with_failure_detection(fd);
        a.sim(format!("2 detection={label}"), on, &mut risky(), &config);
    }
    a.tabulate(2, &[MAKESPAN, AVG_RESPONSE]);
    a.header("Ablation 3: STGA history-table capacity");

    let ga = GaParams::default()
        .with_generations(if args.quick { 30 } else { 100 })
        .with_seed(subseed(args.seed, 0x57A6));
    // An STGA on the defaults as `set` changes them, its history warmed on
    // the workload unless the history seeds are switched off.
    let stga_of = |set: &dyn Fn(&mut StgaParams)| {
        let mut params = StgaParams {
            ga,
            ..StgaParams::default()
        };
        set(&mut params);
        let mut stga = Stga::new(params).expect("valid params");
        if params.history_fraction > 0.0 {
            stga.train(&w.jobs, &w.grid, 8).expect("training");
        }
        stga
    };

    for capacity in [1usize, 25, 150, 600] {
        let mut stga = stga_of(&|p| p.table_capacity = capacity);
        a.sim(format!("3 capacity={capacity}"), on, &mut stga, &base);
    }
    a.tabulate(3, &[MAKESPAN, SCHED_TIME]);
    a.header("Ablation 4: STGA similarity threshold");

    for threshold in [0.5, 0.8, 0.95, 0.999] {
        let mut stga = stga_of(&|p| p.similarity_threshold = threshold);
        a.sim(format!("4 threshold={threshold:.3}"), on, &mut stga, &base);
    }
    a.tabulate(4, &[MAKESPAN]);
    a.header("Ablation 5: population seeding mix");

    let on_off = |b: bool| if b { "on" } else { "off" };
    for (history, heuristics) in [(0.5, true), (0.5, false), (0.0, true), (0.0, false)] {
        let mut stga =
            stga_of(&|p| (p.history_fraction, p.heuristic_seeds) = (history, heuristics));
        let (history, heuristics) = (on_off(history > 0.0), on_off(heuristics));
        let params = format!("5 history={history} heuristics={heuristics}");
        a.sim(params, on, &mut stga, &base);
    }
    a.tabulate(5, &[MAKESPAN]);

    // Where batch-global optimisation separates from greedy mapping: the
    // longer the period, the larger the batch the GA gets to arrange.
    let nas_n = if args.quick { 1_000 } else { 16_000 };
    let nas = nas_setup(nas_n, args.seed);
    let on = (&nas.jobs[..], &nas.grid);
    let arrivals_per_second =
        nas_n as f64 / (nas.config.trace_days / nas.config.squeeze * 86_400.0);
    for period in [3_600.0, 14_400.0] {
        a.header(&format!(
            "Ablation 6: NAS N = {nas_n}, batch period = {period} s"
        ));
        let config = nas_sim_config(args.seed).with_interval(Time::new(period));
        let batch = (arrivals_per_second * period).ceil() as usize;
        let mut stga =
            make_stga(&nas.jobs, &nas.grid, args.seed, 100, batch).expect("valid STGA params");
        let mut sufferage = Sufferage::new(RiskMode::Risky);
        let params = format!("6 period={period}");
        a.sim(format!("{params} minmin"), on, &mut risky(), &config);
        a.sim(format!("{params} sufferage"), on, &mut sufferage, &config);
        a.sim(format!("{params} stga"), on, &mut stga, &config);
    }
    a
}

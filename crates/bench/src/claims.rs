//! The claims ledger: the qualitative statements of the paper's §4, each
//! as a set of inequalities over an artefact's records, with the status
//! this tree gives it — *reproduces* or *does not reproduce* — at
//! `--quick --seed 2005`. `paper` prints the ledger after the tables at
//! any scale; `tests/claims.rs` asserts every recorded status in tier-1,
//! so a change that flips a claim in either direction has to say so here.
//! A status is whatever the inequalities evaluated to when it was
//! recorded: no parameter, seed or workload size is tuned to make one pass.

use crate::artefacts::Artefact;
use crate::runner::{idle_sites, table2_ranks, Record};
use crate::BenchArgs;
use gridsec_sim::SimOutput;

/// One statement of the paper, checkable against records.
pub struct Claim {
    /// The artefact whose records it reads (`"all"`: every record of the run).
    pub artefact: &'static str,
    /// The statement.
    pub text: &'static str,
    /// Whether this tree reproduces it at `--quick --seed 2005`.
    pub reproduces: bool,
    /// Whether the inequalities are strict.
    pub strict: bool,
    /// The statement as `(l, r)` pairs: it holds iff `l <= r` for every
    /// pair (`l < r` where `strict`).
    pub pairs: fn(&[&Record]) -> Vec<(f64, f64)>,
}

fn sims<'a>(records: &'a [&'a Record]) -> impl Iterator<Item = &'a SimOutput> + Clone {
    records.iter().filter_map(|r| r.sim())
}

fn named<'a>(records: &'a [&'a Record], name: &str) -> &'a SimOutput {
    let found = sims(records).find(|o| o.scheduler_name == name);
    found.unwrap_or_else(|| panic!("no record of `{name}`"))
}

/// The roster's risky heuristics: neither a secure mode nor the STGA.
fn risky<'a>(records: &'a [&'a Record]) -> impl Iterator<Item = &'a SimOutput> {
    sims(records).filter(|o| o.scheduler_name != "STGA" && !o.scheduler_name.ends_with("Secure"))
}

fn makespan(o: &SimOutput) -> f64 {
    o.metrics.makespan.seconds()
}

fn n_fail(o: &SimOutput) -> f64 {
    o.metrics.n_fail as f64
}

/// Fig. 10's records come as (Min-Min, Sufferage, STGA) per size: the
/// STGA's `metric` against the better heuristic's.
fn stga_vs_best(records: &[&Record], metric: fn(&SimOutput) -> f64) -> Vec<(f64, f64)> {
    let sims: Vec<&SimOutput> = sims(records).collect();
    let trios = sims.chunks(3);
    trios
        .map(|c| (metric(c[2]), metric(c[0]).min(metric(c[1]))))
        .collect()
}

/// Every claim, in the paper's order.
pub static LEDGER: [Claim; 11] = [
    Claim {
        artefact: "all",
        text: "only jobs placed at risk fail: N_fail <= N_risk in every simulation",
        reproduces: true,
        strict: false,
        pairs: |r| {
            let pair = |o: &SimOutput| (n_fail(o), o.metrics.n_risk as f64);
            sims(r).map(pair).collect()
        },
    },
    Claim {
        artefact: "fig5",
        text: "the STGA's initial population beats the cold GA's in every round",
        reproduces: true,
        strict: true,
        // Records alternate (GA, STGA) trajectories, one pair per round.
        pairs: |r| {
            let first = |rec: &Record| rec.trajectory().expect("fig5 records trajectories")[0];
            r.chunks(2).map(|c| (first(c[1]), first(c[0]))).collect()
        },
    },
    Claim {
        artefact: "fig7a",
        text: "both makespan-vs-f curves dip below their f = 0 and f = 1 ends inside (0, 1)",
        reproduces: true,
        strict: true,
        // Records alternate Min-Min / Sufferage over f = 0.0, 0.1, … 1.0.
        pairs: |r| {
            let interior_vs_ends = |heuristic: usize| {
                let curve: Vec<f64> = sims(r).skip(heuristic).step_by(2).map(makespan).collect();
                let inner = &curve[1..curve.len() - 1];
                let lowest = inner.iter().fold(f64::INFINITY, |m, &x| m.min(x));
                (lowest, curve[0].min(curve[curve.len() - 1]))
            };
            vec![interior_vs_ends(0), interior_vs_ends(1)]
        },
    },
    Claim {
        artefact: "fig7b",
        text: "STGA makespan is non-increasing from 50 iterations on",
        reproduces: false,
        strict: false,
        pairs: |r| {
            let generations = |rec: &Record| {
                let g = rec.params.strip_prefix("generations=");
                g.and_then(|g| g.parse::<usize>().ok())
                    .expect("fig7b params")
            };
            let from_50 = r.iter().filter(|rec| generations(rec) >= 50);
            let tail: Vec<f64> = from_50.filter_map(|rec| rec.sim().map(makespan)).collect();
            tail.windows(2).map(|w| (w[1], w[0])).collect()
        },
    },
    Claim {
        artefact: "fig8",
        text: "secure modes take no risk: N_risk = N_fail = 0",
        reproduces: true,
        strict: false,
        pairs: |r| {
            let secure = sims(r).filter(|o| o.scheduler_name.ends_with("Secure"));
            let at_risk = |o: &SimOutput| n_fail(o) + o.metrics.n_risk as f64;
            secure.map(|o| (at_risk(o), 0.0)).collect()
        },
    },
    Claim {
        artefact: "fig8",
        text: "risky and f-risky modes finish no later than their secure mode",
        reproduces: true,
        strict: false,
        pairs: |r| {
            let secure_of = |o: &SimOutput| {
                let family = o.scheduler_name.split(' ').next().expect("a name");
                named(r, &format!("{family} Secure"))
            };
            let pair = |o| (makespan(o), makespan(secure_of(o)));
            risky(r).map(pair).collect()
        },
    },
    Claim {
        artefact: "fig8",
        text: "the STGA fails no more jobs than any risky heuristic",
        reproduces: false,
        strict: false,
        pairs: |r| {
            let stga = n_fail(named(r, "STGA"));
            risky(r).map(|o| (stga, n_fail(o))).collect()
        },
    },
    Claim {
        artefact: "fig9",
        text: "the STGA leaves the fewest sites idle and has the highest Jain fairness",
        reproduces: true,
        strict: true,
        pairs: |r| {
            let idle = |o: &SimOutput| idle_sites(o) as f64;
            let fair = |o: &SimOutput| o.metrics.utilization_fairness;
            let stga = named(r, "STGA");
            let others = sims(r).filter(|o| o.scheduler_name != "STGA");
            let pairs = others.flat_map(|o| [(idle(stga), idle(o)), (fair(o), fair(stga))]);
            pairs.collect()
        },
    },
    Claim {
        artefact: "table2",
        text: "the STGA ranks first of seven by alpha + beta",
        reproduces: false,
        strict: false,
        pairs: |r| {
            let sims: Vec<&SimOutput> = sims(r).collect();
            let stga = sims.iter().position(|o| o.scheduler_name == "STGA");
            let rank = table2_ranks(&sims)[stga.expect("roster includes the STGA")].2;
            vec![(rank as f64, 1.0)]
        },
    },
    Claim {
        artefact: "fig10",
        text: "the STGA has the lowest slowdown ratio at every N",
        reproduces: true,
        strict: false,
        pairs: |r| stga_vs_best(r, |o| o.metrics.slowdown_ratio),
    },
    Claim {
        artefact: "fig10",
        text: "the STGA's makespan is no longer than either f-risky heuristic's at every N",
        reproduces: false,
        strict: false,
        pairs: |r| stga_vs_best(r, makespan),
    },
];

/// Whether `args` is the configuration whose statuses [`LEDGER`] records.
pub fn is_pinned(args: &BenchArgs) -> bool {
    args.quick && args.seed == BenchArgs::default().seed && args.reps == 1
}

impl Claim {
    /// Evaluates the claim on `artefacts` (`"all"` claims read the records
    /// of all of them): whether it holds, and how many inequalities were
    /// checked with the worst of them. `None` if its artefact is not there.
    pub fn check(&self, artefacts: &[Artefact]) -> Option<(bool, String)> {
        let read = |a: &&Artefact| self.artefact == "all" || self.artefact == a.name;
        let records = artefacts.iter().filter(read).flat_map(|a| &a.records);
        let records: Vec<&Record> = records.collect();
        if records.is_empty() {
            return None;
        }
        let pairs = (self.pairs)(&records);
        let holds = |&(l, r): &(f64, f64)| if self.strict { l < r } else { l <= r };
        // The pair closest to (or furthest past) breaking its inequality.
        let slack = |&(l, r): &(f64, f64)| (l - r) / (l.abs() + r.abs() + 1.0);
        let (l, r) = pairs.iter().max_by(|a, b| slack(a).total_cmp(&slack(b)))?;
        let op = if self.strict { "<" } else { "<=" };
        let evidence = format!("{} checked, worst: {l:.3} {op} {r:.3}", pairs.len());
        Some((pairs.iter().all(holds), evidence))
    }
}

/// The ledger as text — each claim run by `artefacts` with its recorded
/// status, this run's status and the numbers behind it — and how many
/// statuses differ from the recorded ones.
pub fn report(artefacts: &[Artefact]) -> (String, usize) {
    let status = |reproduces: bool| match reproduces {
        true => "reproduces",
        false => "does not reproduce",
    };
    let mut out = "\n=== Claims ledger (status recorded at --quick --seed 2005) ===\n".to_string();
    let mut drifted = 0;
    for claim in &LEDGER {
        let Some((holds, evidence)) = claim.check(artefacts) else {
            continue;
        };
        drifted += usize::from(holds != claim.reproduces);
        let (ledger, now) = (status(claim.reproduces), status(holds));
        out.push_str(&format!(
            "{:<9} {}\n{:<9} ledger: {ledger} | this run: {now} | {evidence}\n",
            claim.artefact, claim.text, ""
        ));
    }
    (out, drifted)
}

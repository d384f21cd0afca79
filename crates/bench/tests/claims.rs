//! Tier-1 guard on the paper's artefacts: at `--quick --seed 2005`, run
//! in-process exactly as `paper all` runs them,
//!
//! * every claim of the ledger (`src/claims.rs`) evaluates to the status
//!   recorded for it — a claim that starts *or stops* reproducing fails;
//! * every artefact's records fold to a pinned digest — the values for
//!   `fig7a fig7b fig8 fig9 table2 fig10` were computed from the JSON
//!   dumps of the ten pre-`paper` programs at e759721, so the collapse
//!   into one program is proven against the programs it replaced (Fig. 5
//!   and the ablations could not dump there; theirs are captured here);
//! * `--reps 1` is the replicated path with one seed, and replication 0
//!   of `--reps 3` is that run bit for bit.
//!
//! Wall-clock `scheduler_seconds` is never folded or compared. CI re-runs
//! this suite under `RAYON_NUM_THREADS=1` and `=4`.

use gridsec_bench::{artefacts, claims, Artefact, BenchArgs, NasRoster, Outcome, Record};
use gridsec_sim::SimOutput;
use std::sync::OnceLock;

fn quick(reps: usize) -> BenchArgs {
    BenchArgs {
        quick: true,
        reps,
        ..BenchArgs::default()
    }
}

/// Everything the suite simulates, once: `paper all --quick --seed 2005`
/// and, on a second thread so the two overlap, Fig. 8 at `--reps 3`.
fn suite() -> &'static (Vec<Artefact>, Artefact) {
    static SUITE: OnceLock<(Vec<Artefact>, Artefact)> = OnceLock::new();
    SUITE.get_or_init(|| {
        std::thread::scope(|s| {
            let three = s.spawn(|| NasRoster::run(&quick(3)).fig8());
            let all = artefacts::run("all", &quick(1));
            (all, three.join().expect("the --reps 3 roster ran"))
        })
    })
}

fn all() -> &'static [Artefact] {
    &suite().0
}

fn artefact(name: &str) -> &'static Artefact {
    all()
        .iter()
        .find(|a| a.name == name)
        .unwrap_or_else(|| panic!("`all` has no {name}"))
}

/// The simulations of an artefact, in record order.
fn sims(name: &str) -> Vec<&'static SimOutput> {
    let records = &artefact(name).records;
    records.iter().filter_map(Record::sim).collect()
}

// The fold of tests/golden_equivalence.rs.
fn fold_f64(acc: u64, x: f64) -> u64 {
    acc.rotate_left(7) ^ x.to_bits()
}

fn fold_u64(acc: u64, x: u64) -> u64 {
    acc.rotate_left(7) ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn digest_report(acc: u64, r: &gridsec_core::metrics::Report) -> u64 {
    let mut d = fold_u64(acc, r.n_jobs as u64);
    d = fold_f64(d, r.makespan.seconds());
    d = fold_f64(d, r.avg_response);
    d = fold_f64(d, r.avg_wait);
    d = fold_f64(d, r.slowdown_ratio);
    d = fold_u64(d, r.n_risk as u64);
    d = fold_u64(d, r.n_fail as u64);
    for &u in &r.site_utilization {
        d = fold_f64(d, u);
    }
    d
}

/// Order-sensitive digest of everything simulated in `records`.
fn digest(records: &[Record]) -> u64 {
    records.iter().fold(0, |d, r| match &r.output {
        Outcome::Sim(o) => {
            let d = digest_report(d, &o.metrics);
            let d = fold_u64(d, o.n_batches as u64);
            let d = fold_u64(d, o.max_batch_size as u64);
            // Was the replica-dispatch count, always 0 here: every pin stays valid.
            fold_u64(d, 0)
        }
        Outcome::Trajectory(t) => t.iter().fold(d, |d, &x| fold_f64(d, x)),
    })
}

/// Two simulations agree on everything but the wall clock.
fn assert_same_run(a: &SimOutput, b: &SimOutput) {
    let strip = |o: &SimOutput| SimOutput {
        scheduler_seconds: 0.0,
        ..o.clone()
    };
    assert_eq!(strip(a), strip(b));
}

#[test]
fn every_claim_has_its_recorded_status() {
    assert!(claims::is_pinned(&quick(1)));
    for claim in &claims::LEDGER {
        let (holds, evidence) = claim.check(all()).expect("`all` exercises every claim");
        assert_eq!(
            holds, claim.reproduces,
            "[{}] \"{}\" is recorded as reproduces = {} but evaluated to {holds} ({evidence}); \
             if the change is deliberate, update LEDGER and README's reproduction status",
            claim.artefact, claim.text, claim.reproduces
        );
    }
}

#[test]
fn artefact_digests_match_the_parents_programs() {
    // Fig. 8, Fig. 9 and Table 2 render one roster, as they re-ran one
    // experiment at the parent: one value three times.
    const NAS_ROSTER: u64 = 0x3C16_4E40_915D_CC07;
    let pinned = [
        ("fig5", 0x6FD4_54D4_2CF0_9FDB),
        ("fig7a", 0xCADD_A36C_0301_3962),
        ("fig7b", 0x3CC9_2EC9_F91A_F15A),
        ("fig8", NAS_ROSTER),
        ("fig9", NAS_ROSTER),
        ("table2", NAS_ROSTER),
        ("fig10", 0xF581_6E7F_567A_334E),
        ("ablations", 0x5B75_985A_51B8_2885),
    ];
    assert_eq!(pinned.map(|(name, _)| name), artefacts::NAMES);
    for (name, want) in pinned {
        let got = digest(&artefact(name).records);
        assert_eq!(
            got, want,
            "{name}: records digest 0x{got:016X}, pinned 0x{want:016X} — the artefact's \
             numbers moved; that is a behaviour change, not a perf change"
        );
    }
}

/// `paper all --seed 2005` at paper scale (PSA 1000, NAS 16 000): every
/// claim has the status README's "paper scale" column gives it, and every
/// artefact's records fold to the digest captured at bfcc786. About 75 s
/// in release, so it is `#[ignore]`d in tier-1 and run by the scheduled CI
/// job: `cargo test --release -p gridsec-bench --test claims -- --ignored`.
#[test]
#[ignore = "paper scale, ~75 s in release"]
fn paper_scale_matches_the_readme() {
    let all = artefacts::run("all", &BenchArgs::default());
    // README "Reproduction status", paper-scale column, in ledger order.
    let readme = [
        true, true, true, false, true, true, false, false, false, true, false,
    ];
    for (claim, want) in claims::LEDGER.iter().zip(readme) {
        let (holds, evidence) = claim.check(&all).expect("`all` exercises every claim");
        assert_eq!(
            holds, want,
            "[{}] \"{}\" at paper scale: {holds} ({evidence}), README says {want}",
            claim.artefact, claim.text
        );
    }
    const NAS_ROSTER: u64 = 0x0C33_BE6F_FF0D_65EB;
    let pinned = [
        ("fig5", 0x2365_EEFA_C80F_688A),
        ("fig7a", 0x6634_64A0_5043_29CF),
        ("fig7b", 0x4A11_A734_3F37_9139),
        ("fig8", NAS_ROSTER),
        ("fig9", NAS_ROSTER),
        ("table2", NAS_ROSTER),
        ("fig10", 0xC3DB_FB5F_D368_E664),
        ("ablations", 0x8645_7467_9021_8BCB),
    ];
    let got = all.iter().map(|a| (a.name, digest(&a.records)));
    let got: Vec<(&str, u64)> = got.collect();
    let table: Vec<String> = got.iter().map(|(n, d)| format!("{n} 0x{d:016X}")).collect();
    assert_eq!(got, pinned, "paper-scale digests:\n{}", table.join("\n"));
}

/// The values ISSUE 21 quotes from the parent's `fig8`, `fig7a` and
/// `fig10` tables, readable where a digest is not.
#[test]
fn quoted_cross_check_values() {
    let fig8 = sims("fig8");
    let n_fail: Vec<usize> = fig8.iter().map(|o| o.metrics.n_fail).collect();
    let n_risk: Vec<usize> = fig8.iter().map(|o| o.metrics.n_risk).collect();
    assert_eq!(n_fail, [0, 129, 126, 0, 98, 128, 110]);
    assert_eq!(n_risk, [0, 502, 484, 0, 414, 407, 410]);

    // Min-Min is every other record, f = 0.0, 0.1, … 1.0.
    let fig7a = sims("fig7a");
    let min_min = |f10: usize| fig7a[2 * f10].metrics.makespan.seconds().round();
    assert_eq!(
        [min_min(0), min_min(5), min_min(10)],
        [534_571.0, 379_333.0, 405_500.0]
    );

    let fig10 = sims("fig10");
    let at_500: Vec<(usize, usize)> = fig10[3..]
        .iter()
        .map(|o| (o.metrics.n_fail, o.metrics.n_risk))
        .collect();
    assert_eq!(at_500, [(99, 294), (115, 301), (139, 301)]);
}

/// `--json` is honoured by every artefact: each yields records (Fig. 5's
/// as trajectories) and they survive the dump.
#[test]
fn every_artefact_dumps_round_tripping_records() {
    for a in all() {
        assert!(!a.records.is_empty(), "{} has no records", a.name);
        assert!(a.records.iter().all(|r| r.experiment == a.name));
        let json = serde_json::to_string_pretty(&a.records).expect("records serialise");
        let back: Vec<Record> = serde_json::from_str(&json).expect("records parse back");
        assert_eq!(back, a.records, "{} records changed in the dump", a.name);
    }
    let trajectories = |name: &str| {
        let records = &artefact(name).records;
        records.iter().filter_map(Record::trajectory).count()
    };
    assert_eq!(trajectories("fig5"), 8);
    assert_eq!(trajectories("ablations"), 0);
}

/// One run path: Fig. 8 at `--reps 1` is the replicated body with one
/// seed, and replication 0 of `--reps 3` is that run bit for bit.
#[test]
fn replication_zero_is_the_single_run() {
    let fig8 = &suite().1;
    let single = sims("fig8");
    assert!(fig8.text.contains("mean of 3 replications"));
    // Records are scheduler-major, replication-minor.
    let replicated: Vec<&SimOutput> = fig8.records.iter().filter_map(Record::sim).collect();
    assert_eq!(replicated.len(), 3 * single.len());
    for (i, one) in single.iter().enumerate() {
        assert_same_run(one, replicated[3 * i]);
        assert_ne!(one.seed, replicated[3 * i + 1].seed);
    }
    // Fig. 9 and Table 2 read the same base-seed replication.
    for (a, b) in sims("fig9").iter().zip(sims("table2")) {
        assert_same_run(a, b);
    }
    for (a, b) in single.iter().zip(sims("fig9")) {
        assert_same_run(a, b);
    }
}

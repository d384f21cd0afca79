//! `paper <all|fig5|fig7a|fig7b|fig8|fig9|table2|fig10|ablations>`: prints
//! the artefact(s), then the claims ledger; `--json` dumps every record.

use gridsec_bench::{artefacts, claims, BenchArgs, Record};

fn main() {
    let (which, args) = BenchArgs::parse();
    let artefacts = artefacts::run(&which, &args);
    artefacts.iter().for_each(|a| print!("{}", a.text));
    // The ledger's inequalities read single runs, not replications.
    let drifted = if args.reps == 1 {
        let (ledger, drifted) = claims::report(&artefacts);
        print!("{ledger}");
        drifted
    } else {
        0
    };
    if let Some(path) = &args.json {
        let records: Vec<&Record> = artefacts.iter().flat_map(|a| &a.records).collect();
        let json = serde_json::to_string_pretty(&records).expect("records serialise");
        std::fs::write(path, json).expect("write JSON dump");
        println!("[wrote {path}]");
    }
    if claims::is_pinned(&args) && drifted > 0 {
        eprintln!("error: {drifted} claim(s) differ from the status the ledger records");
        std::process::exit(1);
    }
}

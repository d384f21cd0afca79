//! `paper`'s command line: an artefact name, then flags.

use crate::artefacts::{NAMES, REPLICATED};

/// The run configuration every artefact is a function of.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Scale workloads down for a fast smoke run.
    pub quick: bool,
    /// Experiment seed.
    pub seed: u64,
    /// Optional path for a JSON dump of the results.
    pub json: Option<String>,
    /// Worker threads for parallel sections (`None` = the rayon default:
    /// `RAYON_NUM_THREADS` or all available cores).
    pub threads: Option<usize>,
    /// Independent replications per configuration (seeds derived from
    /// `seed`; replications run in parallel on the thread pool).
    pub reps: usize,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            quick: false,
            seed: 2005,
            json: None,
            threads: None,
            reps: 1,
        }
    }
}

impl BenchArgs {
    /// Parses the process arguments — `<artefact|all>` then the flags of
    /// [`parse_from`](Self::parse_from) — and sizes the global thread pool
    /// to `--threads`. An unknown artefact or flag, or `--reps` for a
    /// single artefact that does not replicate, exits 2 with the usage.
    pub fn parse() -> (String, BenchArgs) {
        let mut argv = std::env::args().skip(1);
        let which = match argv.next() {
            None => usage("missing artefact name"),
            Some(a) if a == "--help" || a == "-h" => usage(""),
            Some(a) => a,
        };
        if which != "all" && !NAMES.contains(&which.as_str()) {
            usage(&format!("unknown artefact `{which}`"));
        }
        let out = Self::parse_from(argv);
        if out.reps != 1 && which != "all" && !REPLICATED.contains(&which.as_str()) {
            usage(&format!(
                "`{which}` has no replicated mode; --reps does not apply"
            ));
        }
        if let Some(n) = out.threads {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build_global()
                .expect("no parallel work has run yet");
        }
        (which, out)
    }

    /// Parses `--quick`, `--seed <u64>`, `--json <path>`, `--threads <n>`
    /// and `--reps <n>`; unknown arguments exit 2 with the usage.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> BenchArgs {
        let mut out = BenchArgs::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => out.quick = true,
                "--seed" => {
                    let v = value(&mut it, "--seed");
                    out.seed = v.parse().unwrap_or_else(|_| usage("--seed must be a u64"));
                }
                "--json" => out.json = Some(value(&mut it, "--json")),
                "--threads" => out.threads = Some(positive(&mut it, "--threads")),
                "--reps" => out.reps = positive(&mut it, "--reps"),
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown argument `{other}`")),
            }
        }
        out
    }
}

/// The value following `flag`.
fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> String {
    it.next()
        .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
}

fn positive(it: &mut impl Iterator<Item = String>, flag: &str) -> usize {
    match value(it, flag).parse() {
        Ok(n) if n > 0 => n,
        _ => usage(&format!("{flag} must be a positive integer")),
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: paper <all|{}> [--quick] [--seed <u64>] [--json <path>]\n\
         \x20            [--threads <n>] [--reps <n>]\n\
         \n\
         --quick        scaled-down workloads (the configuration the claims ledger pins)\n\
         --json <path>  write every record of the run as JSON\n\
         --threads <n>  worker threads for parallel sections\n\
         \x20              (default: RAYON_NUM_THREADS or all available cores)\n\
         --reps <n>     independent replications, run in parallel and averaged\n\
         \x20              (default: 1; {} and all only)",
        NAMES.join("|"),
        REPLICATED.join(", ")
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> BenchArgs {
        BenchArgs::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = v(&[]);
        assert!(!a.quick);
        assert_eq!(a.seed, 2005);
        assert!(a.json.is_none());
        assert!(a.threads.is_none());
        assert_eq!(a.reps, 1);
    }

    #[test]
    fn parses_flags() {
        let a = v(&[
            "--quick",
            "--seed",
            "42",
            "--json",
            "out.json",
            "--threads",
            "3",
            "--reps",
            "5",
        ]);
        assert!(a.quick);
        assert_eq!(a.seed, 42);
        assert_eq!(a.json.as_deref(), Some("out.json"));
        assert_eq!(a.threads, Some(3));
        assert_eq!(a.reps, 5);
    }
}

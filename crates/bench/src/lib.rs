//! Experiment harness of the LiFTinG reproduction.
//!
//! [`experiments`] has one function per table and figure of the paper's
//! evaluation plus the sweep over every registered scenario family;
//! [`claims`] reads the paper's checkable numbers off those experiments as one
//! table, which `run_all_experiments` prints and the `paper_claims` test
//! checks (the repository's `README.md`, "Paper claims", holds the table, and
//! "Scenario families" says what `run_all_experiments` writes). Per-layer
//! metrics and the micro-probes of the building blocks come from one place,
//! the repo benchmark (`benchmark run --trace`); `profile_scenario` adds the
//! queue readout, memory walk and per-event table that `ci.sh` gates.
//!
//! Scale: every experiment accepts a [`Scale`]; `Scale::Paper` uses the
//! paper's population sizes and durations, `Scale::Quick` shrinks them so the
//! whole suite runs in seconds (used by `run_all_experiments --quick` and CI).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod claims;
pub mod experiments;
pub mod listing;

pub use experiments::Scale;

/// A binary's usage line. A bad command line is reported through it — one
/// line naming the problem plus the usage line on stderr, exit status 2 —
/// never as a panic.
pub struct Usage(pub &'static str);

impl Usage {
    /// Reports `problem` and exits with status 2.
    pub fn error(&self, problem: impl std::fmt::Display) -> ! {
        eprintln!("{problem}\n{}", self.0);
        std::process::exit(2)
    }

    /// Checks `args` against the flags the binary knows — `switches` stand
    /// alone, `valued` flags are followed by their value — and returns what
    /// is left, the positional arguments. Any other `-` argument is a usage
    /// error; `--help` / `-h` print the usage line and exit with status 0.
    pub fn positionals<'a>(
        &self,
        args: &'a [String],
        switches: &[&str],
        valued: &[&str],
    ) -> Vec<&'a str> {
        let mut positionals = Vec::new();
        let mut rest = args.iter().map(String::as_str);
        while let Some(arg) = rest.next() {
            if arg == "--help" || arg == "-h" {
                println!("{}", self.0);
                std::process::exit(0)
            } else if valued.contains(&arg) {
                rest.next(); // its value; `flag_value` reports a missing or bad one
            } else if !arg.starts_with('-') {
                positionals.push(arg);
            } else if !switches.contains(&arg) {
                self.error(format_args!("unknown flag {arg}"));
            }
        }
        positionals
    }

    /// The parsed value following `flag`, `None` when the flag is absent; a
    /// flag without a value of the right type (`what`) is a usage error.
    pub fn flag_value<T: std::str::FromStr>(
        &self,
        args: &[String],
        flag: &str,
        what: &str,
    ) -> Option<T> {
        let at = args.iter().position(|a| a == flag)?;
        match args.get(at + 1).map(|value| value.parse()) {
            Some(Ok(value)) => Some(value),
            _ => self.error(format_args!("{flag} needs {what}")),
        }
    }
}

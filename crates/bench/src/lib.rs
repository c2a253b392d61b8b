//! Experiment harness of the LiFTinG reproduction.
//!
//! Every table and figure of the paper's evaluation has a corresponding
//! experiment function here and a thin binary under `src/bin/` that prints the
//! same rows/series the paper reports (see `EXPERIMENTS.md` at the repository
//! root for the measured results). The functions are also reused by the
//! Criterion benches in `benches/`.
//!
//! Scale: every experiment accepts a [`Scale`]; `Scale::Paper` uses the
//! paper's population sizes and durations, `Scale::Quick` shrinks them so the
//! whole suite runs in seconds (used by `run_all_experiments --quick`, CI and
//! the Criterion experiment bench).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod listing;
pub mod output;

pub use experiments::Scale;

/// Parses the experiment scale from the process arguments (`--quick` selects
/// the reduced scale).
pub fn scale_from_args() -> Scale {
    if std::env::args().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::Paper
    }
}

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

//! `run_scenario`, `profile_scenario` and `run_all_experiments` report bad
//! command lines as usage errors (exit status 2, one line plus the usage line
//! on stderr), never as a panic — and never by silently ignoring an argument
//! they do not know.

use std::path::Path;
use std::process::Command;

fn usage_error_of_bin(bin: &str, args: &[&str]) -> String {
    usage_error_in(Path::new("."), bin, args)
}

fn usage_error_in(cwd: &Path, bin: &str, args: &[&str]) -> String {
    let name = Path::new(bin).file_name().unwrap().to_str().unwrap();
    let out = Command::new(bin)
        .args(args)
        .current_dir(cwd)
        .output()
        .unwrap_or_else(|e| panic!("{name} starts: {e}"));
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a readout");
    assert!(
        stderr.contains(&format!("usage: {name}")) && !stderr.contains("panicked"),
        "{args:?}: {stderr}"
    );
    stderr
}

fn usage_error_of(args: &[&str]) -> String {
    usage_error_of_bin(env!("CARGO_BIN_EXE_run_scenario"), args)
}

#[test]
fn bad_command_lines_are_usage_errors() {
    assert!(usage_error_of(&[]).contains("no scenario name"));
    assert!(usage_error_of(&["--quick"]).contains("no scenario name"));
    assert!(usage_error_of(&["headline/planetlab", "--seed"]).contains("--seed needs"));
    assert!(usage_error_of(&["headline/planetlab", "--seed", "x"]).contains("--seed needs"));
    assert!(usage_error_of(&["headline/planetlab", "--shards"]).contains("--shards needs"));
    assert!(usage_error_of(&["no/such-scenario", "--quick"]).contains("unknown scenario"));
    // A misspelt flag used to run the Paper scale without complaint.
    assert!(usage_error_of(&["smoke/small", "--qiuck"]).contains("unknown flag --qiuck"));
    assert!(usage_error_of(&["smoke/small", "-q"]).contains("unknown flag -q"));
    assert!(usage_error_of(&["smoke/small", "--quick", "7"]).contains("unexpected argument"));
    // The retired registry switches are unknown flags now.
    for retired in ["--list-names", "--validate-registry"] {
        assert!(usage_error_of(&[retired]).contains(&format!("unknown flag {retired}")));
    }
    // The exporter registry's typed error, naming the known exporters.
    let stderr = usage_error_of(&["headline/planetlab", "--quick", "--exporter", "yaml"]);
    assert!(
        stderr.contains("yaml") && stderr.contains("digest"),
        "{stderr}"
    );
}

#[test]
fn profile_scenario_bad_command_lines_are_usage_errors() {
    let of = |args: &[&str]| usage_error_of_bin(env!("CARGO_BIN_EXE_profile_scenario"), args);
    // Sharded runs are `run_scenario --shards K`'s; this binary has no such flag.
    assert!(of(&["--shards", "2"]).contains("unknown flag --shards"));
    assert!(of(&["--scenario"]).contains("--scenario needs"));
    assert!(of(&["--scenario", "no/such"]).contains("unknown scenario"));
    // Both used to run the full profile.
    assert!(of(&["--bogus"]).contains("unknown flag --bogus"));
    assert!(of(&["headline/planetlab"]).contains("unexpected argument"));
}

#[test]
fn run_all_experiments_bad_command_lines_are_usage_errors() {
    // Run from an empty directory: a rejected command line must not leave a
    // summary or a bench snapshot behind.
    let cwd = std::env::temp_dir().join(format!("run_all_cli_{}", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("scratch directory");
    let of = |args: &[&str]| {
        let stderr = usage_error_in(&cwd, env!("CARGO_BIN_EXE_run_all_experiments"), args);
        assert_eq!(stderr.lines().count(), 2, "{args:?}: {stderr}");
        stderr
    };
    assert!(of(&["--quick", "--filter"]).contains("--filter needs"));
    // The retired scale and tier switches are unknown flags now.
    for retired in ["--paper", "--both", "--tier", "--list"] {
        assert!(of(&["--quick", retired]).contains(&format!("unknown flag {retired}")));
    }
    let stderr = of(&["--quick", "--filter", "no-such-job"]);
    assert!(
        stderr.contains("matches no experiment") && stderr.contains("multistream"),
        "{stderr}"
    );
    // Like its two siblings, it no longer ignores what it does not know.
    assert!(of(&["--qiuck"]).contains("unknown flag --qiuck"));
    assert!(of(&["quick"]).contains("unexpected argument"));
    let left_behind = std::fs::read_dir(&cwd).expect("scratch directory").count();
    std::fs::remove_dir_all(&cwd).expect("scratch directory removed");
    assert_eq!(left_behind, 0, "a rejected command line wrote to the cwd");
}

#[test]
fn a_flag_value_is_not_mistaken_for_the_scenario_name() {
    let out = Command::new(env!("CARGO_BIN_EXE_run_scenario"))
        .args([
            "--seed",
            "7",
            "smoke/small",
            "--quick",
            "--exporter",
            "digest",
        ])
        .output()
        .expect("run_scenario starts");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(stdout.starts_with("smoke/small: 0x"), "{stdout}");
}

#[test]
fn help_prints_the_usage_line_and_exits_zero() {
    for (bin, name) in [
        (env!("CARGO_BIN_EXE_run_scenario"), "run_scenario"),
        (env!("CARGO_BIN_EXE_profile_scenario"), "profile_scenario"),
        (
            env!("CARGO_BIN_EXE_run_all_experiments"),
            "run_all_experiments",
        ),
    ] {
        for flag in ["--help", "-h"] {
            let out = Command::new(bin).arg(flag).output().expect("binary starts");
            assert_eq!(out.status.code(), Some(0), "{name} {flag}");
            let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
            assert_eq!(stdout.lines().count(), 1, "{name} {flag} ran: {stdout}");
            assert!(stdout.starts_with(&format!("usage: {name}")), "{stdout}");
            assert!(out.stderr.is_empty());
        }
    }
}

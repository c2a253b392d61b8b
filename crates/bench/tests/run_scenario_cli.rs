//! `run_scenario` reports bad command lines as usage errors (exit status 2,
//! one line plus the usage line on stderr), never as a panic.

use std::process::Command;

fn usage_error_of(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_run_scenario"))
        .args(args)
        .output()
        .expect("run_scenario starts");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a readout");
    assert!(
        stderr.contains("usage: run_scenario") && !stderr.contains("panicked"),
        "{args:?}: {stderr}"
    );
    stderr
}

#[test]
fn bad_command_lines_are_usage_errors() {
    assert!(usage_error_of(&[]).contains("no scenario name"));
    assert!(usage_error_of(&["--quick"]).contains("no scenario name"));
    assert!(usage_error_of(&["headline/planetlab", "--seed"]).contains("--seed needs"));
    assert!(usage_error_of(&["headline/planetlab", "--seed", "x"]).contains("--seed needs"));
    assert!(usage_error_of(&["headline/planetlab", "--shards"]).contains("--shards needs"));
    assert!(usage_error_of(&["no/such-scenario", "--quick"]).contains("unknown scenario"));
    // The exporter registry's typed error, naming the known exporters.
    let stderr = usage_error_of(&["headline/planetlab", "--quick", "--exporter", "yaml"]);
    assert!(
        stderr.contains("yaml") && stderr.contains("digest"),
        "{stderr}"
    );
}

//! The paper's claims, checked (`lifting_bench::claims`). At quick scale every
//! row holds unless it declares a known deviation, and a declared deviation
//! that starts to hold fails as well: the table says exactly what the
//! reproduction reproduces. The README's "Paper claims" table — the `--paper`
//! print-out of `run_all_experiments` — must list the same claims with the
//! same paper values, checks and verdicts.

use lifting_bench::claims::{table, Evidence};
use lifting_bench::Scale;

/// The cells of a markdown table line.
fn cells(line: &str) -> Vec<&str> {
    line.trim()
        .trim_matches('|')
        .split('|')
        .map(str::trim)
        .collect()
}

#[test]
fn paper_claims_hold_or_deviate_as_declared_and_the_readme_lists_them() {
    let claims = table(&Evidence::run(Scale::Quick));
    let changed: Vec<_> = claims
        .iter()
        .filter(|c| c.holds == c.deviation.is_some())
        .collect();
    assert!(
        changed.is_empty(),
        "claims whose verdict changed (a row that should hold deviates, or a declared \
         deviation holds):\n{changed:#?}"
    );

    let readme = include_str!("../../../README.md");
    let section = readme
        .split("<!-- claims:begin -->")
        .nth(1)
        .and_then(|rest| rest.split("<!-- claims:end -->").next())
        .expect("README.md has a claims section");
    let rows: Vec<Vec<&str>> = section
        .lines()
        .filter(|line| line.starts_with("| `"))
        .map(cells)
        .collect();
    let regenerate = "regenerate README's claims section from `run_all_experiments --paper`";
    assert_eq!(rows.len(), claims.len(), "{regenerate}");
    for claim in &claims {
        let line = claim.markdown_row();
        let ours = cells(&line);
        let readme_row = rows
            .iter()
            .find(|row| row[0] == ours[0])
            .unwrap_or_else(|| panic!("README lacks {}; {regenerate}", claim.id));
        // The scale-independent cells — id, source, quantity, paper value,
        // check — and the verdict; the analytic and measured columns are the
        // paper-scale numbers.
        assert_eq!(readme_row[..5], ours[..5], "{regenerate}");
        assert_eq!(readme_row[7], ours[7], "{regenerate}");
    }
}

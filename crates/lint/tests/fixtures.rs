//! Fixture corpus: every rule has a positive fixture (must fire) and a
//! negative one (must stay silent), plus a suppression fixture. The
//! fixtures live under `tests/fixtures/` as plain `.rs` files scanned
//! under a synthetic output-crate path, so adding a hazard pattern is a
//! one-file change.

use std::collections::BTreeMap;
use std::path::Path;

use ichannels_lint::rules::{run_rules, Finding, RuleId};
use ichannels_lint::scanner::scan_str;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// Scans a fixture as if it lived in an output-producing crate.
fn scan_fixture(name: &str) -> Vec<Finding> {
    run_rules(&scan_str(
        &format!("crates/core/src/{name}"),
        &fixture(name),
    ))
}

fn active(findings: &[Finding], rule: RuleId) -> usize {
    findings
        .iter()
        .filter(|f| f.rule == rule && !f.suppressed)
        .count()
}

fn suppressed(findings: &[Finding], rule: RuleId) -> usize {
    findings
        .iter()
        .filter(|f| f.rule == rule && f.suppressed)
        .count()
}

fn assert_only(findings: &[Finding], rule: RuleId, at_least: usize) {
    assert!(
        active(findings, rule) >= at_least,
        "{rule:?}: expected >= {at_least} active findings, got {findings:#?}"
    );
    for f in findings {
        assert!(
            f.rule == rule || f.suppressed,
            "unexpected extra finding: {f:#?}"
        );
    }
}

fn assert_silent(findings: &[Finding]) {
    let loud: Vec<&Finding> = findings.iter().filter(|f| !f.suppressed).collect();
    assert!(loud.is_empty(), "negative fixture fired: {loud:#?}");
}

#[test]
fn d001_fixture_pair() {
    assert_only(&scan_fixture("d001_positive.rs"), RuleId::D001, 3);
    assert_silent(&scan_fixture("d001_negative.rs"));
}

#[test]
fn d001_is_scoped_to_output_crates() {
    let outside = run_rules(&scan_str(
        "crates/obs/src/fixture.rs",
        &fixture("d001_positive.rs"),
    ));
    assert_eq!(active(&outside, RuleId::D001), 0);
}

#[test]
fn d002_fixture_pair() {
    assert_only(&scan_fixture("d002_positive.rs"), RuleId::D002, 2);
    assert_silent(&scan_fixture("d002_negative.rs"));
}

#[test]
fn d002_allowlist_covers_bench() {
    let bench = run_rules(&scan_str(
        "crates/bench/src/fixture.rs",
        &fixture("d002_positive.rs"),
    ));
    assert_eq!(active(&bench, RuleId::D002), 0);
}

#[test]
fn d003_fixture_pair() {
    assert_only(&scan_fixture("d003_positive.rs"), RuleId::D003, 3);
    assert_silent(&scan_fixture("d003_negative.rs"));
}

#[test]
fn d004_fixture_pair() {
    assert_only(&scan_fixture("d004_positive.rs"), RuleId::D004, 2);
    assert_silent(&scan_fixture("d004_negative.rs"));
}

#[test]
fn r001_fixture_pair() {
    assert_only(&scan_fixture("r001_positive.rs"), RuleId::R001, 3);
    assert_silent(&scan_fixture("r001_negative.rs"));
}

#[test]
fn r002_fixture_pair() {
    assert_only(&scan_fixture("r002_positive.rs"), RuleId::R002, 2);
    assert_silent(&scan_fixture("r002_negative.rs"));
}

#[test]
fn suppression_fixture_counts_nothing_but_stays_auditable() {
    let findings = scan_fixture("suppressed.rs");
    assert_eq!(active(&findings, RuleId::D001), 0, "{findings:#?}");
    assert_eq!(suppressed(&findings, RuleId::D001), 3);
    // The unjustified allow is broken (L001) and does NOT silence the
    // unwrap it sits on.
    assert_eq!(active(&findings, RuleId::L001), 1);
    assert_eq!(active(&findings, RuleId::R001), 1);
}

#[test]
fn every_fixture_is_exercised() {
    // Catch orphaned fixture files: each .rs under tests/fixtures/ must
    // be referenced by this harness.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let me = include_str!("fixtures.rs");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("fixtures dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let mut missing: BTreeMap<String, ()> = BTreeMap::new();
    for name in names {
        if name.ends_with(".rs") && !me.contains(&format!("\"{name}\"")) {
            missing.insert(name, ());
        }
    }
    assert!(missing.is_empty(), "unreferenced fixtures: {missing:?}");
}

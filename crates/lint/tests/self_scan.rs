//! The linter's sharpest test subject is this workspace itself: a
//! fresh scan must find no active finding, and seeding a hazard into a
//! pipeline crate must flip the verdict.

use std::path::{Path, PathBuf};
use std::process::Command;

use ichannels_lint::report::Report;
use ichannels_lint::rules::{run_rules, unreferenced_pub, RuleId};
use ichannels_lint::scanner::scan_str;
use ichannels_lint::{check, find_workspace_root, scan_references, scan_workspace};

fn root() -> PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("the lint crate lives inside the workspace")
}

#[test]
fn workspace_is_clean() {
    let report = check(&root()).expect("scan");
    assert!(
        report.clean(),
        "the workspace must lint clean; active findings: {:#?}",
        report
            .findings
            .iter()
            .filter(|f| !f.suppressed)
            .collect::<Vec<_>>()
    );
    assert!(report.files_scanned > 100, "walker found the workspace");
}

#[test]
fn seeding_a_hazard_into_a_pipeline_crate_regresses() {
    // Simulate the change that re-introduces a HashMap iteration, an
    // unwrap and a public helper nothing calls into campaign code: the
    // injected file's active findings are exactly those three rules,
    // and the report is no longer clean.
    let path = "crates/lab/src/injected.rs";
    let injected = scan_str(
        path,
        "use std::collections::HashMap;\npub fn injected_orphan(m: &HashMap<u8, u8>) -> u8 {\n    *m.values().next().unwrap()\n}\n",
    );
    let mut sources = scan_workspace(&root()).expect("scan");
    sources.push(injected);
    let mut findings = Vec::new();
    for file in &sources {
        findings.extend(run_rules(file));
    }
    findings.extend(unreferenced_pub(
        &sources,
        &scan_references(&root()).expect("scan"),
    ));
    let mut rules: Vec<RuleId> = findings
        .iter()
        .filter(|f| f.path == path && !f.suppressed)
        .map(|f| f.rule)
        .collect();
    rules.sort();
    rules.dedup();
    assert_eq!(rules, [RuleId::D001, RuleId::R001, RuleId::R003]);
    let report = Report {
        files_scanned: sources.len(),
        findings,
    };
    assert!(!report.clean());
}

#[test]
fn cli_exits_zero_on_the_workspace_and_nonzero_on_a_seeded_tree() {
    let lint = env!("CARGO_BIN_EXE_ichannels-lint");

    let ok = Command::new(lint)
        .args(["check", "--root"])
        .arg(root())
        .output()
        .expect("run lint");
    assert!(
        ok.status.success(),
        "clean workspace must exit 0: {}{}",
        String::from_utf8_lossy(&ok.stdout),
        String::from_utf8_lossy(&ok.stderr)
    );

    // A miniature workspace with one hazard: the run must fail with
    // exit 1, not an IO error.
    let dir = std::env::temp_dir().join(format!("ichannels-lint-seeded-{}", std::process::id()));
    let src = dir.join("crates/lab/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("manifest");
    std::fs::write(
        src.join("lib.rs"),
        "pub fn f(v: Option<u8>) -> u8 { v.unwrap() }\n",
    )
    .expect("hazard");

    let run = |dir: &Path| {
        Command::new(lint)
            .args(["check", "--json", "--root"])
            .arg(dir)
            .output()
            .expect("run lint")
    };
    let bad = run(&dir);
    assert_eq!(bad.status.code(), Some(1), "seeded hazard must exit 1");
    let json = String::from_utf8_lossy(&bad.stdout);
    assert!(json.contains("\"status\": \"fail\""), "{json}");
    assert!(json.contains("\"rule\": \"R001\""), "{json}");

    // R003 alone flips the verdict: without the unwrap, the public `f`
    // that nothing else names still fails the run, and a test that
    // calls it makes the tree clean again.
    std::fs::write(
        src.join("lib.rs"),
        "pub fn f(v: Option<u8>) -> u8 { v.unwrap_or(0) }\n",
    )
    .expect("orphan");
    let orphan = run(&dir);
    let json = String::from_utf8_lossy(&orphan.stdout);
    assert_eq!(orphan.status.code(), Some(1), "orphan must exit 1: {json}");
    assert!(json.contains("\"rule\": \"R003\""), "{json}");
    assert!(!json.contains("\"rule\": \"R001\""), "{json}");
    std::fs::create_dir_all(dir.join("tests")).expect("mkdir");
    std::fs::write(
        dir.join("tests/uses_f.rs"),
        "#[test]\nfn t() { assert_eq!(lab::f(None), 0); }\n",
    )
    .expect("user");
    let used = run(&dir);
    assert_eq!(
        used.status.code(),
        Some(0),
        "a test that names f clears R003: {}",
        String::from_utf8_lossy(&used.stdout)
    );

    // The baseline flags are gone: they are unknown flags now.
    for flag in ["--ratchet-down", "--write-baseline", "--baseline"] {
        let out = Command::new(lint)
            .args(["check", flag, "--root"])
            .arg(&dir)
            .output()
            .expect("run lint");
        assert_eq!(out.status.code(), Some(2), "{flag} must be unknown");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn json_report_of_the_real_tree_is_deterministic() {
    let report = check(&root()).expect("scan");
    let again = check(&root()).expect("scan");
    assert_eq!(report.render_json(), again.render_json());
    assert!(report.render_json().contains("ichannels-lint-report-v2"));
}

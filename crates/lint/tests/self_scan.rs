//! The linter's sharpest test subject is this workspace itself: the
//! committed `lint_baseline.json` must hold against a fresh scan, and
//! seeding a hazard into a pipeline crate must flip the verdict.

use std::path::{Path, PathBuf};
use std::process::Command;

use ichannels_lint::baseline::{count_findings, Baseline};
use ichannels_lint::rules::{run_rules, unreferenced_pub, RuleId};
use ichannels_lint::scanner::scan_str;
use ichannels_lint::{check, find_workspace_root, scan_references, scan_workspace};

fn root() -> PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("the lint crate lives inside the workspace")
}

fn committed_baseline() -> Baseline {
    let path = root().join("lint_baseline.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} must be committed: {e}", path.display()));
    Baseline::parse(&text).expect("committed baseline parses")
}

#[test]
fn workspace_is_clean_against_the_committed_baseline() {
    let report = check(&root(), &committed_baseline()).expect("scan");
    assert!(
        report.clean(),
        "the workspace must lint clean; regressions: {:#?}, broken allows: {:#?}",
        report.ratchet.regressions,
        report
            .findings
            .iter()
            .filter(|f| f.rule == RuleId::L001)
            .collect::<Vec<_>>()
    );
    assert!(report.files_scanned > 100, "walker found the workspace");
}

#[test]
fn burned_down_crates_hold_at_zero_r001() {
    // PR 9 burned crates/core, crates/lab, and crates/analysis down to
    // zero unsuppressed R001 sites; the baseline must not quietly
    // re-grandfather them.
    let b = committed_baseline();
    for file in scan_workspace(&root()).expect("scan") {
        let prefix_ok = ["crates/core/", "crates/lab/", "crates/analysis/", "src/"]
            .iter()
            .any(|p| file.path.starts_with(p));
        if prefix_ok {
            assert_eq!(
                b.allowed(RuleId::R001, &file.path),
                0,
                "{} must stay fully burned down",
                file.path
            );
        }
    }
}

#[test]
fn seeding_a_hazard_into_a_pipeline_crate_regresses() {
    // Simulate the change that re-introduces a HashMap iteration, an
    // unwrap and a public helper nothing calls into campaign code:
    // merge the injected file's findings with the real scan and the
    // committed baseline must reject it.
    let injected = scan_str(
        "crates/lab/src/injected.rs",
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
    let ratchet = committed_baseline().compare(&count_findings(&findings));
    let regressed: Vec<(RuleId, &str)> = ratchet
        .regressions
        .iter()
        .map(|d| (d.rule, d.path.as_str()))
        .collect();
    assert!(
        regressed.contains(&(RuleId::D001, "crates/lab/src/injected.rs")),
        "{regressed:?}"
    );
    assert!(
        regressed.contains(&(RuleId::R001, "crates/lab/src/injected.rs")),
        "{regressed:?}"
    );
    assert!(
        regressed.contains(&(RuleId::R003, "crates/lab/src/injected.rs")),
        "{regressed:?}"
    );
    assert_eq!(regressed.len(), 3, "only the injected file regresses");
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

    // A miniature workspace with one hazard and an empty baseline: the
    // ratchet must fail the run (exit 1, not an IO error).
    let dir = std::env::temp_dir().join(format!("ichannels-lint-seeded-{}", std::process::id()));
    let src = dir.join("crates/lab/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("manifest");
    std::fs::write(
        src.join("lib.rs"),
        "pub fn f(v: Option<u8>) -> u8 { v.unwrap() }\n",
    )
    .expect("hazard");
    std::fs::write(
        dir.join("lint_baseline.json"),
        Baseline::default().to_json(),
    )
    .expect("baseline");

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
    assert!(json.contains("\"status\": \"regressions\""), "{json}");
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
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        used.status.code(),
        Some(0),
        "a test that names f clears R003: {}",
        String::from_utf8_lossy(&used.stdout)
    );
}

#[test]
fn json_report_of_the_real_tree_is_deterministic() {
    let report = check(&root(), &committed_baseline()).expect("scan");
    let again = check(&root(), &committed_baseline()).expect("scan");
    assert_eq!(report.render_json(), again.render_json());
    assert!(report.render_json().contains("ichannels-lint-report-v1"));
}

//! `ichannels-lint`: a hand-rolled, workspace-aware static analyzer
//! that rejects determinism and robustness hazards before they reach
//! the campaign pipeline.
//!
//! Everything this reproduction ships — goldens, shard merges, fuzz
//! findings, `analysis.jsonl` — rests on one contract: campaign bytes
//! are a pure function of (catalog, seed), invariant under threads,
//! shards, and row order. The golden/invariance suites enforce that
//! contract *dynamically*, after a violation lands; this crate rejects
//! the common hazard classes *statically*, at CI time:
//!
//! | rule | hazard |
//! |------|--------|
//! | D001 | `HashMap`/`HashSet` in output-producing crates |
//! | D002 | `Instant::now`/`SystemTime` outside the timing allowlist |
//! | D003 | ambient entropy (`thread_rng`, `from_entropy`, …) |
//! | D004 | `{:?}` Debug formatting feeding formatted output |
//! | L001 | malformed or unjustified `lint:allow` |
//! | R001 | `unwrap()`/`expect()`/`panic!` in non-test pipeline code |
//! | R002 | `env::var` reads outside the documented set |
//! | R003 | `pub fn`/`pub const`/`pub static` no other file references |
//!
//! Findings are suppressible only via an inline justification
//! (`// lint:allow(D001): reason`). There is no baseline: any
//! unsuppressed finding of any rule fails the check.
//! `docs/LINTS.md` documents every rule and the suppression syntax.
//!
//! One dependency, `ichannels-obs`, which has none of its own: the
//! JSON report's strings go through its escaper
//! (`ichannels_obs::json::escape`); the lint reads no JSON. The
//! scanner, rules, and report rendering are hand-rolled here.

#![deny(missing_docs)]

pub mod report;
pub mod rules;
pub mod scanner;

use std::io;
use std::path::{Path, PathBuf};

use report::Report;
use rules::{run_rules, unreferenced_pub};
use scanner::{scan_str, SourceFile};

/// Directories under `crates/` that are never scanned: vendored
/// API-compatible stand-ins are third-party idiom, not pipeline code.
const SKIP_CRATES: [&str; 1] = ["compat"];

/// Collects every scannable `.rs` file: `src/` (the umbrella crate)
/// plus `crates/<member>/src/` for every member except [`SKIP_CRATES`],
/// in sorted workspace-relative order. Test trees (`tests/`,
/// `examples/`, fixtures) are outside these roots by construction.
///
/// # Errors
///
/// Propagates I/O errors from the directory walk.
fn workspace_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let umbrella = root.join("src");
    if umbrella.is_dir() {
        walk(&umbrella, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .filter(|p| {
                !SKIP_CRATES
                    .iter()
                    .any(|skip| p.file_name().and_then(|n| n.to_str()) == Some(skip))
            })
            .collect();
        members.sort();
        for member in members {
            let src = member.join("src");
            if src.is_dir() {
                walk(&src, &mut files)?;
            }
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, files)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// The files R003 reads for references besides [`workspace_sources`],
/// in sorted order (see [`scan_references`]).
///
/// # Errors
///
/// Propagates I/O errors from the directory walk.
fn reference_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut dirs = vec![
        root.join("tests"),
        root.join("examples"),
        root.join("perfbench/src"),
    ];
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in std::fs::read_dir(&crates)? {
            let member = entry?.path();
            let skipped = SKIP_CRATES
                .iter()
                .any(|skip| member.file_name().and_then(|n| n.to_str()) == Some(skip));
            if !skipped {
                dirs.push(member.join("tests"));
            }
        }
    }
    let mut files = Vec::new();
    for dir in dirs.iter().filter(|d| d.is_dir()) {
        walk(dir, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn scan_paths(root: &Path, paths: Vec<PathBuf>) -> io::Result<Vec<SourceFile>> {
    let mut scanned = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        scanned.push(scan_str(&rel, &text));
    }
    Ok(scanned)
}

/// Scans every workspace source file under `root`.
///
/// # Errors
///
/// Propagates I/O errors from the walk and the file reads.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    scan_paths(root, workspace_sources(root)?)
}

/// Scans every file R003 reads for references only, under `root`:
/// `crates/<member>/tests/`, `tests/`, `examples/` and
/// `perfbench/src/`.
///
/// # Errors
///
/// Propagates I/O errors from the walk and the file reads.
pub fn scan_references(root: &Path) -> io::Result<Vec<SourceFile>> {
    scan_paths(root, reference_sources(root)?)
}

/// Runs the full check: scan, then every rule.
///
/// # Errors
///
/// Propagates I/O errors from the workspace scan.
pub fn check(root: &Path) -> io::Result<Report> {
    let files = scan_workspace(root)?;
    let mut findings = Vec::new();
    for file in &files {
        findings.extend(run_rules(file));
    }
    findings.extend(unreferenced_pub(&files, &scan_references(root)?));
    Ok(Report {
        files_scanned: files.len(),
        findings,
    })
}

/// Locates the workspace root: ascends from `start` until a directory
/// holding both `Cargo.toml` and `crates/` is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> PathBuf {
        find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("the lint crate lives inside the workspace")
    }

    #[test]
    fn walker_covers_the_pipeline_and_skips_compat() {
        let files = workspace_sources(&repo_root()).expect("walk");
        let rels: Vec<String> = files
            .iter()
            .map(|p| {
                p.strip_prefix(repo_root())
                    .expect("under root")
                    .to_string_lossy()
                    .replace('\\', "/")
            })
            .collect();
        assert!(rels.iter().any(|p| p == "crates/lab/src/campaigns.rs"));
        assert!(
            rels.iter().any(|p| p == "crates/lint/src/lib.rs"),
            "scans itself"
        );
        assert!(rels.iter().any(|p| p == "src/lib.rs"));
        assert!(
            !rels.iter().any(|p| p.contains("compat")),
            "compat is vendored"
        );
        assert!(!rels.iter().any(|p| p.contains("tests/")), "no test trees");
        let mut sorted = rels.clone();
        sorted.sort();
        assert_eq!(rels, sorted, "deterministic order");
    }

    #[test]
    fn reference_walker_covers_tests_examples_and_perfbench() {
        let root = repo_root();
        let rels: Vec<String> = reference_sources(&root)
            .expect("walk")
            .iter()
            .map(|p| {
                p.strip_prefix(&root)
                    .expect("under root")
                    .to_string_lossy()
                    .replace('\\', "/")
            })
            .collect();
        for want in [
            "tests/golden_figures.rs",
            "examples/quickstart.rs",
            "crates/lint/tests/self_scan.rs",
            "perfbench/src/main.rs",
        ] {
            assert!(rels.iter().any(|p| p == want), "{want} missing");
        }
        assert!(!rels
            .iter()
            .any(|p| p.contains("/src/") && p.starts_with("crates/")));
        assert!(!rels.iter().any(|p| p.contains("compat")));
    }
}

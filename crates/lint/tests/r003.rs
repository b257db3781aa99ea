//! R003, the one workspace-level rule: a `pub fn`/`pub const`/
//! `pub static` that no other file names in code. Each case builds a
//! tiny in-memory workspace of scanned files, so the reference roots
//! (tests, examples, the benchmark) are explicit per case.

use ichannels_lint::rules::{run_rules, unreferenced_pub, Finding, RuleId};
use ichannels_lint::scanner::{scan_str, SourceFile};

const DECL: &str = "crates/pdn/src/model.rs";

fn decl(src: &str) -> SourceFile {
    scan_str(DECL, src)
}

fn active(findings: &[Finding]) -> Vec<(usize, String)> {
    findings
        .iter()
        .filter(|f| f.rule == RuleId::R003 && !f.suppressed)
        .map(|f| (f.line, f.path.clone()))
        .collect()
}

#[test]
fn fires_on_an_unreferenced_pub_fn_const_and_static() {
    let file = decl(
        "pub fn orphan() -> u8 { 1 }\n\
         pub const fn orphan_const_fn() -> u8 { 2 }\n\
         pub const ORPHAN: u8 = 3;\n\
         pub static ORPHAN_STATIC: u8 = 4;\n\
         pub(crate) fn narrowed() -> u8 { 5 }\n\
         pub struct Orphan;\n\
         fn private() -> u8 { orphan() + ORPHAN }\n",
    );
    let hits = unreferenced_pub(&[file], &[]);
    assert_eq!(
        active(&hits),
        vec![
            (1, DECL.to_string()),
            (2, DECL.to_string()),
            (3, DECL.to_string()),
            (4, DECL.to_string()),
        ],
        "{hits:#?}"
    );
    assert!(hits[0].message.contains("`orphan`"), "{}", hits[0].message);
}

#[test]
fn a_use_from_another_source_or_any_reference_root_keeps_it_quiet() {
    let user = |path: &str| {
        scan_str(
            path,
            "use ichannels_pdn::model::orphan;\nfn main() { orphan(); }\n",
        )
    };
    let from_source = unreferenced_pub(
        &[decl("pub fn orphan() {}\n"), user("crates/lab/src/user.rs")],
        &[],
    );
    assert!(active(&from_source).is_empty(), "{from_source:#?}");
    for path in [
        "crates/pdn/tests/model.rs",
        "tests/model.rs",
        "examples/model.rs",
        "perfbench/src/main.rs",
    ] {
        let hits = unreferenced_pub(&[decl("pub fn orphan() {}\n")], &[user(path)]);
        assert!(active(&hits).is_empty(), "{path}: {hits:#?}");
    }
}

#[test]
fn comments_strings_reexports_and_declarations_are_not_references() {
    let other = scan_str(
        "crates/lab/src/other.rs",
        "// orphan() is mentioned here\n\
         /// [`orphan`] in a doc comment\n\
         pub use ichannels_pdn::model::orphan;\n\
         pub use ichannels_pdn::model::{\n    helper,\n    orphan,\n};\n\
         const MSG: &str = \"call orphan() here\";\n\
         fn orphan() {}\n",
    );
    let hits = unreferenced_pub(&[decl("pub fn orphan() {}\n"), other], &[]);
    assert_eq!(active(&hits), vec![(1, DECL.to_string())], "{hits:#?}");
}

#[test]
fn items_inside_cfg_test_are_exempt() {
    let file = decl(
        "#[cfg(test)]\n\
         pub fn test_helper() {}\n\
         #[cfg(test)]\n\
         mod tests {\n    pub fn fixture() {}\n    pub const N: u8 = 1;\n}\n",
    );
    assert!(active(&unreferenced_pub(&[file], &[])).is_empty());
}

#[test]
fn a_justified_allow_suppresses_and_a_bare_allow_is_l001() {
    let justified = decl(
        "/// Documented public API.\n\
         // lint:allow(R003): named by a public signature elsewhere\n\
         pub fn kept() {}\n",
    );
    let hits = unreferenced_pub(std::slice::from_ref(&justified), &[]);
    assert_eq!(hits.len(), 1, "reported for audit");
    assert!(hits[0].suppressed);
    assert!(active(&hits).is_empty());

    let bare = decl("// lint:allow(R003)\npub fn kept() {}\n");
    assert_eq!(
        active(&unreferenced_pub(std::slice::from_ref(&bare), &[])).len(),
        1
    );
    let l001: Vec<RuleId> = run_rules(&bare)
        .iter()
        .filter(|f| !f.suppressed)
        .map(|f| f.rule)
        .collect();
    assert_eq!(l001, vec![RuleId::L001]);
}

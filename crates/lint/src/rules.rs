//! The rule set: determinism hazards (D00x) and robustness hazards
//! (R00x), each documented in `docs/LINTS.md`. Every rule but R003
//! looks at one file at a time ([`run_rules`]); R003 is one pass over
//! the whole workspace ([`unreferenced_pub`]).
//!
//! Every rule is a line/token-level approximation — the scanner gives
//! lexical truth (code vs comment vs string), not types. Where a rule
//! over-approximates (a `HashMap` that is provably never iterated, a
//! telemetry-gated clock read) the remedy is an inline
//! `// lint:allow(RULE): reason` justification; where it
//! under-approximates, the dynamic golden/invariance suites remain the
//! backstop.

use std::collections::{BTreeMap, BTreeSet};

use crate::scanner::{statement_range, Line, SourceFile};

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Unordered `HashMap`/`HashSet` in an output-producing crate.
    D001,
    /// Wall-clock reads (`Instant::now`/`SystemTime`) outside the
    /// timing allowlist.
    D002,
    /// Ambient entropy: unseeded RNG construction.
    D003,
    /// Debug formatting (`{:?}`) feeding formatted output in an
    /// output-producing crate.
    D004,
    /// Malformed or unjustified `lint:allow` suppression.
    L001,
    /// `unwrap()`/`expect()`/`panic!` in non-test pipeline code.
    R001,
    /// `std::env::var` reads outside the documented variable set.
    R002,
    /// `pub fn`/`pub const`/`pub static` that no other file references.
    R003,
}

impl RuleId {
    /// Every rule, in report order.
    pub const ALL: [RuleId; 8] = [
        RuleId::D001,
        RuleId::D002,
        RuleId::D003,
        RuleId::D004,
        RuleId::L001,
        RuleId::R001,
        RuleId::R002,
        RuleId::R003,
    ];

    /// The rule's stable name (`D001`, …).
    pub fn name(self) -> &'static str {
        match self {
            RuleId::D001 => "D001",
            RuleId::D002 => "D002",
            RuleId::D003 => "D003",
            RuleId::D004 => "D004",
            RuleId::L001 => "L001",
            RuleId::R001 => "R001",
            RuleId::R002 => "R002",
            RuleId::R003 => "R003",
        }
    }

    /// One-line summary (the full rationale lives in `docs/LINTS.md`).
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::D001 => "unordered HashMap/HashSet in an output-producing crate",
            RuleId::D002 => "wall-clock read outside the timing allowlist",
            RuleId::D003 => "ambient entropy source (unseeded RNG)",
            RuleId::D004 => "Debug formatting ({:?}) in formatted output",
            RuleId::L001 => "malformed or unjustified lint:allow",
            RuleId::R001 => "unwrap()/expect()/panic! in non-test pipeline code",
            RuleId::R002 => "env var read outside the documented set",
            RuleId::R003 => "pub fn/const/static referenced by no other file",
        }
    }

    /// Parses a rule name (`"D001"` → [`RuleId::D001`]).
    pub fn parse(name: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.name() == name)
    }
}

/// One rule hit at one source line.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule that fired.
    pub rule: RuleId,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// What is wrong and what to do instead.
    pub message: String,
    /// The offending line, trimmed and capped.
    pub excerpt: String,
    /// `Some` when an inline `lint:allow` suppresses this finding (the
    /// finding is still reported for audit, but does not count).
    pub suppressed: bool,
}

/// Crates whose artifacts (JSONL/CSV/goldens/stdout contracts) make
/// unordered iteration and Debug formatting byte hazards. Matched as
/// path prefixes on the workspace-relative path.
const OUTPUT_CRATE_PREFIXES: [&str; 6] = [
    "src/",
    "crates/core/",
    "crates/lab/",
    "crates/meter/",
    "crates/analysis/",
    "crates/bench/",
];

/// Files allowed to read the wall clock without justification: the obs
/// span probe (off-by-default telemetry) and the bench crate (its whole
/// purpose is timing).
const D002_ALLOWLIST: [&str; 2] = ["crates/obs/src/span.rs", "crates/bench/"];

/// Environment variables the workspace documents (README): anything
/// else read via `env::var` is an undeclared knob.
const DOCUMENTED_ENV: [&str; 2] = ["ICHANNELS_REGOLDEN", "ICHANNELS_RESULTS"];

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// True when `hay` contains `tok` delimited by non-identifier bytes.
fn has_token(hay: &str, tok: &str) -> bool {
    token_at(hay, tok).is_some()
}

fn token_at(hay: &str, tok: &str) -> Option<usize> {
    let bytes = hay.as_bytes();
    let mut from = 0usize;
    while let Some(rel) = hay[from..].find(tok) {
        let at = from + rel;
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let end = at + tok.len();
        let after_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

fn in_output_crate(path: &str) -> bool {
    OUTPUT_CRATE_PREFIXES.iter().any(|p| path.starts_with(p))
}

fn excerpt(line: &Line) -> String {
    let t = line.raw.trim();
    if t.chars().count() > 120 {
        let cut: String = t.chars().take(117).collect();
        format!("{cut}...")
    } else {
        t.to_string()
    }
}

/// Diagnostic-context markers: a formatted string whose statement
/// builds a panic, assertion, error value, or stderr message dies with
/// the process (or lands on stderr) instead of in an artifact, so D004
/// exempts it.
const DIAGNOSTIC_MARKERS: [&str; 9] = [
    "panic!",
    "assert",
    "unreachable!",
    "eprint",
    "Err(",
    "err(",
    "Error",
    "message:",
    "reject(",
];

fn statement_text(file: &SourceFile, i: usize) -> String {
    let (start, end) = statement_range(&file.lines, i);
    let mut text = String::new();
    for line in &file.lines[start..=end] {
        text.push_str(&line.masked);
        text.push('\n');
    }
    text
}

fn push(findings: &mut Vec<Finding>, file: &SourceFile, i: usize, rule: RuleId, message: String) {
    let line = &file.lines[i];
    findings.push(Finding {
        rule,
        path: file.path.clone(),
        line: i + 1,
        message,
        excerpt: excerpt(line),
        suppressed: line.allows.contains(&rule),
    });
}

/// Runs every rule over one scanned file.
pub fn run_rules(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let output_crate = in_output_crate(&file.path);
    let d002_allowed = D002_ALLOWLIST.iter().any(|p| file.path.starts_with(p));
    let mut d004_statements_hit: Vec<usize> = Vec::new();

    for (i, line) in file.lines.iter().enumerate() {
        // L001 fires even in test code: a broken suppression anywhere
        // undermines the audit trail.
        for problem in &line.bad_allows {
            push(&mut findings, file, i, RuleId::L001, problem.clone());
        }
        if line.in_test {
            continue;
        }
        let masked = line.masked.as_str();

        // D001 — unordered std collections where bytes are produced.
        if output_crate {
            for coll in ["HashMap", "HashSet"] {
                if has_token(masked, coll) {
                    push(
                        &mut findings,
                        file,
                        i,
                        RuleId::D001,
                        format!(
                            "`{coll}` in an output-producing crate: iteration order is \
                             unordered and can leak into persisted bytes — use \
                             BTreeMap/BTreeSet, or justify a never-iterated use with \
                             lint:allow(D001)"
                        ),
                    );
                }
            }
        }

        // D002 — wall-clock reads.
        if !d002_allowed {
            for clock in ["Instant::now", "SystemTime"] {
                if masked.contains(clock) && token_boundary_ok(masked, clock) {
                    push(
                        &mut findings,
                        file,
                        i,
                        RuleId::D002,
                        format!(
                            "`{clock}` outside the timing allowlist: wall-clock values \
                             must never feed campaign bytes — keep timing in obs \
                             spans/bench, or justify an out-of-band read with \
                             lint:allow(D002)"
                        ),
                    );
                }
            }
        }

        // D003 — ambient entropy.
        for source in ["thread_rng", "from_entropy", "OsRng", "getrandom"] {
            if has_token(masked, source) {
                push(
                    &mut findings,
                    file,
                    i,
                    RuleId::D003,
                    format!(
                        "`{source}` is an ambient entropy source: every RNG must be \
                         seeded from the campaign's (catalog, seed) cell-key \
                         derivation so trials replay bit-identically"
                    ),
                );
            }
        }
        if masked.contains("rand::random") {
            push(
                &mut findings,
                file,
                i,
                RuleId::D003,
                "`rand::random` draws from ambient entropy: derive a seeded SmallRng \
                 from the cell-key rule instead"
                    .to_string(),
            );
        }

        // D004 — Debug specs inside format strings (anchored once per
        // statement; diagnostic statements are exempt).
        if output_crate && has_debug_spec(line) {
            let (start, _) = statement_range(&file.lines, i);
            if !d004_statements_hit.contains(&start) {
                d004_statements_hit.push(start);
                let stmt = statement_text(file, i);
                let diagnostic = DIAGNOSTIC_MARKERS.iter().any(|m| stmt.contains(m));
                if !diagnostic {
                    push(
                        &mut findings,
                        file,
                        i,
                        RuleId::D004,
                        "Debug formatting (`{:?}`) feeding formatted output: Debug is \
                         not a stable serialization and may change across toolchains — \
                         render each field explicitly, or audit the consumer and \
                         justify with lint:allow(D004)"
                            .to_string(),
                    );
                }
            }
        }

        // R001 — panicking escape hatches in pipeline code.
        for (pat, what) in [
            (".unwrap()", "unwrap()"),
            (".expect(\"", "expect()"),
            ("panic!", "panic!"),
        ] {
            let hit = if pat == "panic!" {
                has_token(masked, "panic!")
            } else {
                masked.contains(pat)
            };
            if hit {
                push(
                    &mut findings,
                    file,
                    i,
                    RuleId::R001,
                    format!(
                        "`{what}` in non-test pipeline code aborts the whole shard: \
                         surface a typed error (ChannelError, ResumeCorruption, \
                         io::Error) or justify a structural invariant with \
                         lint:allow(R001)"
                    ),
                );
            }
        }

        // R002 — undocumented environment reads.
        for pat in ["env::var_os(", "env::var("] {
            let Some(at) = masked.find(pat) else { continue };
            let arg = first_string_literal(&line.raw[at + pat.len()..]);
            match arg {
                Some(name) if DOCUMENTED_ENV.contains(&name.as_str()) => {}
                Some(name) => push(
                    &mut findings,
                    file,
                    i,
                    RuleId::R002,
                    format!(
                        "environment variable `{name}` is not in the documented set \
                         ({}): document it in README + docs/LINTS.md or drop the read",
                        DOCUMENTED_ENV.join(", ")
                    ),
                ),
                None => push(
                    &mut findings,
                    file,
                    i,
                    RuleId::R002,
                    "env read with a non-literal variable name cannot be audited \
                     against the documented set"
                        .to_string(),
                ),
            }
            break; // one finding per line is enough
        }
    }
    findings
}

/// R003 — one pass over the workspace: flags every `pub fn`,
/// `pub const` and `pub static` declared in non-test code of `sources`
/// whose name appears as a code token in no other file of `sources` or
/// `references` (test, example, bench and benchmark trees).
///
/// Tokens are read from the masked view, so a name in a comment or a
/// string is no reference; neither is a `pub use` re-export, nor the
/// name a declaration (`fn x`, `const X`, `static X`) gives itself.
/// Types are out of scope: code often uses one through inference
/// without ever naming it.
pub fn unreferenced_pub(sources: &[SourceFile], references: &[SourceFile]) -> Vec<Finding> {
    let mut decls: Vec<(&SourceFile, usize, &str)> = Vec::new();
    for file in sources {
        for (i, line) in file.lines.iter().enumerate() {
            if let Some(name) = pub_value_name(&line.masked).filter(|_| !line.in_test) {
                decls.push((file, i, name));
            }
        }
    }
    let mut users: BTreeMap<&str, BTreeSet<&str>> = decls
        .iter()
        .map(|&(_, _, name)| (name, BTreeSet::new()))
        .collect();
    for file in sources.iter().chain(references) {
        let mut in_reexport = false;
        for line in &file.lines {
            let code = line.masked.trim();
            if in_reexport || code.starts_with("pub use ") {
                in_reexport = !code.ends_with(';');
                continue;
            }
            let mut prev = "";
            for tok in idents(code) {
                if !matches!(prev, "fn" | "const" | "static") {
                    if let Some(files) = users.get_mut(tok) {
                        files.insert(&file.path);
                    }
                }
                prev = tok;
            }
        }
    }
    let mut findings = Vec::new();
    for (file, i, name) in decls {
        if users[name].iter().all(|&p| p == file.path) {
            push(
                &mut findings,
                file,
                i,
                RuleId::R003,
                format!(
                    "`{name}` is `pub` but no other file references it: narrow it to \
                     pub(crate) or private (rustc then reports it if dead), delete it, \
                     or justify a public-API need with lint:allow(R003)"
                ),
            );
        }
    }
    findings
}

/// The identifier tokens of a masked line, in order.
fn idents(masked: &str) -> impl Iterator<Item = &str> {
    masked
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|t| !t.is_empty())
}

/// The name a masked line declares as a bare-`pub` function, constant
/// or static (`pub const fn`, `pub unsafe fn`, `pub static mut` …);
/// `None` for any other line, `pub(crate)` items included.
fn pub_value_name(masked: &str) -> Option<&str> {
    let rest = masked.trim_start().strip_prefix("pub ")?;
    let mut toks = idents(rest).peekable();
    loop {
        match toks.next()? {
            "fn" => return toks.next(),
            "static" => return toks.find(|&t| t != "mut"),
            "const" if !matches!(toks.peek(), Some(&("fn" | "unsafe" | "async" | "extern"))) => {
                return toks.next().filter(|&t| t != "_");
            }
            "const" | "unsafe" | "async" | "extern" | "_" => {}
            _ => return None,
        }
    }
}

/// `contains` plus an identifier-boundary check on both ends of the
/// match (for multi-segment patterns like `Instant::now`).
fn token_boundary_ok(hay: &str, pat: &str) -> bool {
    let bytes = hay.as_bytes();
    let mut from = 0usize;
    while let Some(rel) = hay[from..].find(pat) {
        let at = from + rel;
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let end = at + pat.len();
        let after_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        from = at + 1;
    }
    false
}

/// True when the line holds a `{…:?}` / `{…:#?}` Debug spec *inside a
/// string literal* (masked content shows `_` at that byte position).
fn has_debug_spec(line: &Line) -> bool {
    let raw = line.raw.as_bytes();
    let masked = line.masked.as_bytes();
    for pat in [":?}", ":#?}"] {
        let mut from = 0usize;
        while let Some(rel) = line.raw[from..].find(pat) {
            let at = from + rel;
            if masked.get(at) == Some(&b'_') && raw.get(at) == Some(&b':') {
                return true;
            }
            from = at + 1;
        }
    }
    false
}

/// Extracts the first `"…"` literal from a raw-text slice (used for
/// the R002 variable-name audit).
fn first_string_literal(rest: &str) -> Option<String> {
    let bytes = rest.as_bytes();
    let open = rest.find('"')?;
    // Only accept a literal that starts the argument list (allowing
    // whitespace), so `env::var(name)` stays non-literal.
    if !rest[..open].trim().is_empty() {
        return None;
    }
    let mut out = String::new();
    let mut i = open + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return Some(out),
            b'\\' => {
                if i + 1 < bytes.len() {
                    out.push(bytes[i + 1] as char);
                    i += 1;
                }
                i += 1;
            }
            b => {
                out.push(b as char);
                i += 1;
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan_str;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        run_rules(&scan_str(path, src))
    }

    fn rules_of(f: &[Finding]) -> Vec<RuleId> {
        f.iter().filter(|f| !f.suppressed).map(|f| f.rule).collect()
    }

    #[test]
    fn d001_only_fires_in_output_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(
            rules_of(&findings("crates/lab/src/x.rs", src)),
            vec![RuleId::D001]
        );
        assert!(rules_of(&findings("crates/obs/src/x.rs", src)).is_empty());
    }

    #[test]
    fn d002_respects_the_allowlist() {
        let src = "let t = std::time::Instant::now();\n";
        assert_eq!(
            rules_of(&findings("crates/soc/src/x.rs", src)),
            vec![RuleId::D002]
        );
        assert!(rules_of(&findings("crates/obs/src/span.rs", src)).is_empty());
        assert!(rules_of(&findings("crates/bench/src/bin/x.rs", src)).is_empty());
    }

    #[test]
    fn d004_skips_diagnostic_statements_and_anchors_once() {
        let persisted = "let key = format!(\n    \"{a:?}|{b:?}\",\n);\n";
        let hits = findings("crates/core/src/x.rs", persisted);
        assert_eq!(rules_of(&hits), vec![RuleId::D004]);
        let diagnostic = "return Err(format!(\"bad {x:?}\"));\n";
        assert!(rules_of(&findings("crates/core/src/x.rs", diagnostic)).is_empty());
        let assertion = "assert!(ok, \"state = {s:?}\");\n";
        assert!(rules_of(&findings("crates/core/src/x.rs", assertion)).is_empty());
    }

    #[test]
    fn r001_matches_real_panics_not_lookalikes() {
        let src = "x.unwrap();\ny.expect(\"msg\");\npanic!(\"boom\");\ncur.expect(':');\nlet z = x.unwrap_or_default();\n";
        assert_eq!(
            rules_of(&findings("crates/pdn/src/x.rs", src)),
            vec![RuleId::R001, RuleId::R001, RuleId::R001]
        );
    }

    #[test]
    fn r001_skips_test_modules_and_strings() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\n";
        assert!(rules_of(&findings("crates/core/src/x.rs", src)).is_empty());
        let in_string = "let msg = \"call .unwrap() here\";\n";
        assert!(rules_of(&findings("crates/core/src/x.rs", in_string)).is_empty());
    }

    #[test]
    fn r002_audits_the_documented_set() {
        let documented = "let v = std::env::var_os(\"ICHANNELS_REGOLDEN\");\n";
        assert!(rules_of(&findings("crates/core/src/x.rs", documented)).is_empty());
        let rogue = "let v = std::env::var(\"ICHANNELS_SECRET\");\n";
        assert_eq!(
            rules_of(&findings("crates/core/src/x.rs", rogue)),
            vec![RuleId::R002]
        );
        let dynamic = "let v = std::env::var(name);\n";
        assert_eq!(
            rules_of(&findings("crates/core/src/x.rs", dynamic)),
            vec![RuleId::R002]
        );
    }

    #[test]
    fn d003_flags_entropy_sources() {
        let src = "let mut rng = thread_rng();\nlet r = SmallRng::from_entropy();\n";
        assert_eq!(
            rules_of(&findings("crates/soc/src/x.rs", src)),
            vec![RuleId::D003, RuleId::D003]
        );
        let seeded = "let mut rng = SmallRng::seed_from_u64(seed);\n";
        assert!(rules_of(&findings("crates/soc/src/x.rs", seeded)).is_empty());
    }

    #[test]
    fn suppressed_findings_are_reported_but_do_not_count() {
        let src = "// lint:allow(D001): memo cache is keyed lookup only, never iterated\nuse std::collections::HashMap;\n";
        let all = findings("crates/core/src/x.rs", src);
        assert_eq!(all.len(), 1);
        assert!(all[0].suppressed);
        assert!(rules_of(&all).is_empty());
    }

    #[test]
    fn l001_flags_unjustified_allows_even_in_tests() {
        let src = "let a = 1; // lint:allow(R001)\n";
        assert_eq!(
            rules_of(&findings("crates/core/src/x.rs", src)),
            vec![RuleId::L001]
        );
    }
}

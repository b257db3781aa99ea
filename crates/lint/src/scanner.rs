//! Line/token-level source model: comment/string masking, `#[cfg(test)]`
//! tracking, statement grouping, and `lint:allow` suppressions.
//!
//! The scanner never parses Rust properly — it maintains just enough
//! lexical state (block comments, string/char literals, brace depth)
//! to answer the questions the rules ask:
//!
//! * "is this token in code, a comment, or a string?" — via the
//!   length-preserving [`Line::masked`] view, where comment bytes
//!   become spaces and string/char *contents* become `_` (quotes are
//!   kept), so byte positions line up with [`Line::raw`];
//! * "is this line test code?" — `#[cfg(test)]` items are tracked by
//!   brace depth and whole test/fixture trees are never scanned;
//! * "is this finding suppressed?" — a `// lint:allow(RULE): reason`
//!   comment covers the statement it precedes (or sits on).

use crate::rules::RuleId;

/// One source line with its lexical annotations.
#[derive(Debug, Clone)]
pub struct Line {
    /// The original line text (no trailing newline).
    pub raw: String,
    /// `raw` with comments blanked to spaces and string/char literal
    /// contents replaced by `_`, byte-for-byte the same length.
    pub masked: String,
    /// True inside a `#[cfg(test)]` item (including the attribute and
    /// closing-brace lines).
    pub in_test: bool,
    /// Rules suppressed on this line by a justified `lint:allow`.
    pub allows: Vec<RuleId>,
    /// `lint:allow` comments on this line that could not be honored
    /// (unknown rule, missing `: reason`), with a description.
    pub bad_allows: Vec<String>,
}

/// A scanned source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// The annotated lines.
    pub lines: Vec<Line>,
}

/// Lexical state carried across lines by the masker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lex {
    Normal,
    /// Nested block comment depth.
    Block(u32),
    /// Inside a `"…"` string literal.
    Str,
    /// Inside a raw string literal closed by `"` + this many `#`.
    RawStr(u32),
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Masks one line, mutating the carried lexical state. Returns the
/// masked bytes (same length as the input).
fn mask_line(raw: &[u8], state: &mut Lex) -> Vec<u8> {
    let mut out = Vec::with_capacity(raw.len());
    let mut i = 0usize;
    while i < raw.len() {
        let b = raw[i];
        match *state {
            Lex::Block(depth) => {
                if b == b'/' && raw.get(i + 1) == Some(&b'*') {
                    *state = Lex::Block(depth + 1);
                    out.extend([b' ', b' ']);
                    i += 2;
                } else if b == b'*' && raw.get(i + 1) == Some(&b'/') {
                    *state = if depth == 1 {
                        Lex::Normal
                    } else {
                        Lex::Block(depth - 1)
                    };
                    out.extend([b' ', b' ']);
                    i += 2;
                } else {
                    out.push(b' ');
                    i += 1;
                }
            }
            Lex::Str => {
                if b == b'\\' {
                    out.push(b'_');
                    if i + 1 < raw.len() {
                        out.push(b'_');
                        i += 1;
                    }
                    i += 1;
                } else if b == b'"' {
                    *state = Lex::Normal;
                    out.push(b'"');
                    i += 1;
                } else {
                    out.push(b'_');
                    i += 1;
                }
            }
            Lex::RawStr(hashes) => {
                let closes = b == b'"'
                    && raw[i + 1..].len() >= hashes as usize
                    && raw[i + 1..i + 1 + hashes as usize]
                        .iter()
                        .all(|&c| c == b'#');
                if closes {
                    *state = Lex::Normal;
                    out.push(b'"');
                    out.extend(std::iter::repeat_n(b'#', hashes as usize));
                    i += 1 + hashes as usize;
                } else {
                    out.push(b'_');
                    i += 1;
                }
            }
            Lex::Normal => {
                if b == b'/' && raw.get(i + 1) == Some(&b'/') {
                    // Line comment: blank the rest of the line.
                    out.extend(std::iter::repeat_n(b' ', raw.len() - i));
                    i = raw.len();
                } else if b == b'/' && raw.get(i + 1) == Some(&b'*') {
                    *state = Lex::Block(1);
                    out.extend([b' ', b' ']);
                    i += 2;
                } else if b == b'"' {
                    *state = Lex::Str;
                    out.push(b'"');
                    i += 1;
                } else if (b == b'r' || b == b'b') && (i == 0 || !is_ident(raw[i - 1])) {
                    if let Some((prefix_len, hashes)) = raw_string_hashes(&raw[i..]) {
                        // `b"…"` processes escapes like a plain string;
                        // any `r` prefix makes the body raw.
                        let rawish = b == b'r' || raw.get(i + 1) == Some(&b'r');
                        out.extend_from_slice(&raw[i..i + prefix_len]);
                        *state = if rawish {
                            Lex::RawStr(hashes)
                        } else {
                            Lex::Str
                        };
                        i += prefix_len;
                    } else {
                        out.push(b);
                        i += 1;
                    }
                } else if b == b'\'' {
                    if let Some(len) = char_literal_len(&raw[i..]) {
                        out.push(b'\'');
                        out.extend(std::iter::repeat_n(b'_', len - 2));
                        out.push(b'\'');
                        i += len;
                    } else {
                        // A lifetime: keep the tick, scan on.
                        out.push(b'\'');
                        i += 1;
                    }
                } else {
                    out.push(b);
                    i += 1;
                }
            }
        }
    }
    out
}

/// If `bytes` starts a raw/byte string literal (`r"`, `r#"`, `br##"`,
/// `b"` …), returns `(prefix_len_including_quote, hash_count)`.
fn raw_string_hashes(bytes: &[u8]) -> Option<(usize, u32)> {
    let mut i = 0usize;
    if bytes.get(i) == Some(&b'b') {
        i += 1;
    }
    let rawish = bytes.get(i) == Some(&b'r');
    if rawish {
        i += 1;
    }
    let mut hashes = 0u32;
    while bytes.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    if bytes.get(i) != Some(&b'"') {
        return None;
    }
    if !rawish && hashes > 0 {
        return None;
    }
    // A plain identifier `b` followed by `"` only counts with the
    // leading b/r actually present.
    if i == 0 {
        return None;
    }
    Some((i + 1, hashes))
}

/// If `bytes` (starting at a `'`) is a char literal, returns its total
/// byte length (including both quotes); `None` means it is a lifetime.
fn char_literal_len(bytes: &[u8]) -> Option<usize> {
    debug_assert_eq!(bytes.first(), Some(&b'\''));
    match bytes.get(1)? {
        b'\\' => {
            // Escaped char: skip the escaped byte, then scan (bounded)
            // for the closing quote — covers `'\u{1F600}'`.
            let mut i = 3usize;
            while i < bytes.len().min(12) {
                if bytes[i] == b'\'' {
                    return Some(i + 1);
                }
                i += 1;
            }
            None
        }
        &lead if lead >= 0xC0 => {
            // Multibyte scalar: its UTF-8 length, then the close quote.
            let len = if lead >= 0xF0 {
                4
            } else if lead >= 0xE0 {
                3
            } else {
                2
            };
            (bytes.get(1 + len) == Some(&b'\'')).then_some(len + 3)
        }
        _ => (bytes.get(2) == Some(&b'\'')).then_some(3),
    }
}

/// Parses every `// lint:allow(RULE): reason` on a raw line. Returns
/// `(honored_rules, problems)`.
///
/// Only a *real*, non-doc `//` comment carries directives: a `//`
/// inside a string literal (masked to `_`) is data, and `///`/`//!`
/// doc text merely *describes* the syntax. The masked view is
/// length-preserving, so the comment is found by its blanked bytes.
fn parse_allows(raw: &str, masked: &str) -> (Vec<RuleId>, Vec<String>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    let Some(comment_at) = comment_start(raw, masked) else {
        return (allows, bad);
    };
    if raw[comment_at..].starts_with("///") || raw[comment_at..].starts_with("//!") {
        return (allows, bad);
    }
    let comment = &raw[comment_at..];
    let mut rest = comment;
    while let Some(at) = rest.find("lint:allow(") {
        let tail = &rest[at + "lint:allow(".len()..];
        let Some(close) = tail.find(')') else {
            bad.push("unterminated lint:allow(".to_string());
            break;
        };
        let name = tail[..close].trim();
        let after = &tail[close + 1..];
        match RuleId::parse(name) {
            None => bad.push(format!("lint:allow names unknown rule `{name}`")),
            Some(rule) => {
                let justified = after
                    .strip_prefix(':')
                    .map(|r| {
                        let reason = r.split("lint:allow(").next().unwrap_or("");
                        !reason.trim().is_empty()
                    })
                    .unwrap_or(false);
                if justified {
                    allows.push(rule);
                } else {
                    bad.push(format!(
                        "lint:allow({name}) has no `: reason` justification"
                    ));
                }
            }
        }
        rest = after;
    }
    (allows, bad)
}

/// The byte offset of the line's real `//` comment, if any: the first
/// `//` in `raw` whose bytes the masker blanked to spaces (a `//`
/// kept verbatim is code, one masked to `_` is string content).
fn comment_start(raw: &str, masked: &str) -> Option<usize> {
    let rb = raw.as_bytes();
    let mb = masked.as_bytes();
    (0..rb.len().saturating_sub(1).min(mb.len().saturating_sub(1)))
        .find(|&i| rb[i] == b'/' && rb[i + 1] == b'/' && mb[i] == b' ' && mb[i + 1] == b' ')
}

/// Statement-grouping cap: a suppression or statement window never
/// spans more than this many lines.
const STATEMENT_CAP: usize = 16;

fn ends_statement(masked: &str) -> bool {
    matches!(
        masked.trim_end().as_bytes().last(),
        Some(b';' | b'{' | b'}')
    )
}

/// The line range (inclusive) of the statement containing line `i`:
/// back to the previous terminator (`;`/`{`/`}`) or blank line, forward
/// to the next, both capped at [`STATEMENT_CAP`].
pub(crate) fn statement_range(lines: &[Line], i: usize) -> (usize, usize) {
    let mut start = i;
    while start > 0 && i - (start - 1) < STATEMENT_CAP {
        let prev = lines[start - 1].masked.trim();
        if prev.is_empty() || ends_statement(&lines[start - 1].masked) {
            break;
        }
        start -= 1;
    }
    let mut end = i;
    while end + 1 < lines.len() && (end - i) < STATEMENT_CAP {
        if ends_statement(&lines[end].masked) {
            break;
        }
        end += 1;
    }
    (start, end)
}

/// Scans `text` under the given workspace-relative `path`.
pub fn scan_str(path: &str, text: &str) -> SourceFile {
    let mut state = Lex::Normal;
    let mut lines: Vec<Line> = Vec::new();
    for raw in text.lines() {
        let masked_bytes = mask_line(raw.as_bytes(), &mut state);
        let masked = String::from_utf8_lossy(&masked_bytes).into_owned();
        let (allows, bad_allows) = parse_allows(raw, &masked);
        lines.push(Line {
            raw: raw.to_string(),
            masked,
            in_test: false,
            allows,
            bad_allows,
        });
    }
    mark_tests(&mut lines);
    spread_allows(&mut lines);
    SourceFile {
        path: path.to_string(),
        lines,
    }
}

/// Marks every line belonging to a `#[cfg(test)]` item by tracking
/// brace depth from the attribute to the item's closing brace.
fn mark_tests(lines: &mut [Line]) {
    let mut depth: i64 = 0;
    let mut pending_attr = false;
    let mut test_entry: Option<i64> = None;
    for line in lines.iter_mut() {
        let was_test = test_entry.is_some();
        let has_attr = test_entry.is_none() && line.masked.contains("#[cfg(test)]");
        if has_attr {
            pending_attr = true;
        }
        let mut entered = false;
        for &b in line.masked.as_bytes() {
            match b {
                b'{' => {
                    if pending_attr && test_entry.is_none() {
                        test_entry = Some(depth);
                        pending_attr = false;
                        entered = true;
                    }
                    depth += 1;
                }
                b'}' => {
                    depth -= 1;
                    if test_entry == Some(depth) {
                        test_entry = None;
                        entered = true; // the closing line is still test code
                    }
                }
                _ => {}
            }
        }
        // A braceless `#[cfg(test)] use …;` item ends at the semicolon.
        if pending_attr && test_entry.is_none() && ends_statement(&line.masked) && !has_attr {
            pending_attr = false;
        }
        line.in_test = was_test || test_entry.is_some() || has_attr || pending_attr || entered;
    }
}

/// Extends each `lint:allow` to cover the statement it precedes: from
/// the first code line at/after the comment through the statement
/// terminator, capped at [`STATEMENT_CAP`] lines.
fn spread_allows(lines: &mut [Line]) {
    // Spread from a snapshot of the comment-authored allows only, so a
    // line that merely *received* coverage does not re-spread past its
    // own statement terminator.
    let authored: Vec<Vec<RuleId>> = lines.iter().map(|l| l.allows.clone()).collect();
    for (i, allows) in authored.iter().enumerate() {
        if allows.is_empty() {
            continue;
        }
        // Find the first code-bearing line at or after the comment.
        let mut j = i;
        while j < lines.len() && lines[j].masked.trim().is_empty() {
            j += 1;
            if j - i >= STATEMENT_CAP {
                break;
            }
        }
        let mut covered = 0usize;
        while j < lines.len() && covered < STATEMENT_CAP {
            for &rule in allows {
                if !lines[j].allows.contains(&rule) {
                    lines[j].allows.push(rule);
                }
            }
            if j > i && ends_statement(&lines[j].masked) {
                break;
            }
            j += 1;
            covered += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn masked(src: &str) -> Vec<String> {
        scan_str("crates/core/src/x.rs", src)
            .lines
            .iter()
            .map(|l| l.masked.clone())
            .collect()
    }

    #[test]
    fn comments_and_strings_are_masked_length_preserving() {
        let src = "let x = \"HashMap\"; // HashMap here\nlet y = 1; /* multi\nline */ let z = 2;";
        let m = masked(src);
        assert!(!m[0].contains("HashMap"), "{}", m[0]);
        assert!(m[0].contains("\"_______\""), "{}", m[0]);
        assert!(!m[1].contains("multi"), "{}", m[1]);
        assert!(
            m[2].contains("let z = 2;") && !m[2].contains("line"),
            "{}",
            m[2]
        );
        for (r, mm) in src.lines().zip(&m) {
            assert_eq!(r.len(), mm.len(), "masking must preserve byte length");
        }
    }

    #[test]
    fn char_literals_mask_but_lifetimes_survive() {
        let m = masked("fn f<'a>(x: &'a str) -> char { '\\'' }\nlet c = 'x'; let u = '\u{3a9}';");
        assert!(m[0].contains("<'a>"), "{}", m[0]);
        assert!(m[0].contains("'__'"), "{}", m[0]);
        assert!(m[1].contains("'_'"), "{}", m[1]);
    }

    #[test]
    fn raw_strings_mask_to_the_matching_terminator() {
        let m = masked("let s = r#\"a \"quoted\" {:?}\"#; let t = 1;");
        assert!(m[0].contains("let t = 1;"), "{}", m[0]);
        assert!(!m[0].contains("quoted"), "{}", m[0]);
    }

    #[test]
    fn cfg_test_items_are_marked_to_their_closing_brace() {
        let f = scan_str(
            "crates/core/src/x.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn live2() {}\n",
        );
        let flags: Vec<bool> = f.lines.iter().map(|l| l.in_test).collect();
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn allow_comment_covers_the_following_statement() {
        let f = scan_str(
            "crates/core/src/x.rs",
            "// lint:allow(D004): audited\nlet s = format!(\n    \"{x:?}\",\n);\nlet t = 1;\n",
        );
        assert!(f.lines[1].allows.contains(&RuleId::D004));
        assert!(f.lines[2].allows.contains(&RuleId::D004));
        assert!(!f.lines[4].allows.contains(&RuleId::D004));
    }

    #[test]
    fn allows_in_strings_and_doc_comments_are_inert() {
        let f = scan_str(
            "crates/core/src/x.rs",
            "/// Suppress with `// lint:allow(RULE): reason`.\nlet u = \"// lint:allow(D999)\";\n//! syntax: lint:allow(RULE)\n",
        );
        for line in &f.lines {
            assert!(line.allows.is_empty(), "{:?}", line.raw);
            assert!(line.bad_allows.is_empty(), "{:?}", line.raw);
        }
    }

    #[test]
    fn unjustified_or_unknown_allows_are_reported() {
        let f = scan_str(
            "crates/core/src/x.rs",
            "let a = 1; // lint:allow(D001)\nlet b = 2; // lint:allow(D999): whatever\n",
        );
        assert!(f.lines[0].allows.is_empty());
        assert_eq!(f.lines[0].bad_allows.len(), 1);
        assert!(f.lines[1].bad_allows[0].contains("D999"));
    }
}

//! Report rendering: the human summary printed by `check` and the
//! deterministic JSON document CI uploads as an artifact.

use std::fmt::Write as _;

use ichannels_obs::json::escape;

use crate::rules::{Finding, RuleId};

/// Schema tag of the JSON report.
const REPORT_SCHEMA: &str = "ichannels-lint-report-v2";

/// Everything one `check` run produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// Files scanned.
    pub files_scanned: usize,
    /// Every finding (including suppressed ones, for audit).
    pub findings: Vec<Finding>,
}

impl Report {
    /// True when CI should pass: no unsuppressed finding of any rule.
    pub fn clean(&self) -> bool {
        self.active().next().is_none()
    }

    /// The unsuppressed findings, in scan order.
    fn active(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.suppressed)
    }

    /// (active, suppressed) finding totals per rule, in rule order.
    fn totals(&self) -> Vec<(RuleId, usize, usize)> {
        RuleId::ALL
            .iter()
            .map(|&rule| {
                let active = self.active().filter(|f| f.rule == rule).count();
                let suppressed = self
                    .findings
                    .iter()
                    .filter(|f| f.rule == rule && f.suppressed)
                    .count();
                (rule, active, suppressed)
            })
            .collect()
    }

    /// The human summary: per-rule totals, then every active finding
    /// with its line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "ichannels-lint: scanned {} files", self.files_scanned);
        let _ = writeln!(out, "  rule  active  suppressed  summary");
        for (rule, active, suppressed) in self.totals() {
            let _ = writeln!(
                out,
                "  {:<5} {:>6} {:>11}  {}",
                rule.name(),
                active,
                suppressed,
                rule.summary()
            );
        }
        if self.clean() {
            let _ = writeln!(out, "\nOK: no active finding");
            return out;
        }
        let _ = writeln!(out, "\nactive findings:");
        for f in self.active() {
            let _ = writeln!(
                out,
                "  {} {}:{}: {}\n    -> {}",
                f.rule.name(),
                f.path,
                f.line,
                f.excerpt,
                f.message
            );
        }
        let _ = writeln!(
            out,
            "\nFAIL: fix the site or justify it with `// lint:allow(RULE): reason` \
             (see docs/LINTS.md)"
        );
        out
    }

    /// The deterministic JSON document (sorted findings, stable field
    /// order) CI uploads as an artifact.
    pub fn render_json(&self) -> String {
        let mut findings = self.findings.clone();
        findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
        let totals = json_lines(self.totals().iter().map(|(rule, active, suppressed)| {
            format!(
                "\"{}\": {{\"active\": {active}, \"suppressed\": {suppressed}}}",
                rule.name()
            )
        }));
        let findings = json_lines(findings.iter().map(|f| {
            format!(
                "{{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \
                 \"suppressed\": {}, \"message\": \"{}\", \"excerpt\": \"{}\"}}",
                f.rule.name(),
                escape(&f.path),
                f.line,
                f.suppressed,
                escape(&f.message),
                escape(&f.excerpt)
            )
        }));
        format!(
            "{{\n  \"schema\": \"{REPORT_SCHEMA}\",\n  \"files_scanned\": {},\n  \"status\": \"{}\",\n  \
             \"totals\": {{{totals}\n  }},\n  \"findings\": [{findings}\n  ]\n}}\n",
            self.files_scanned,
            if self.clean() { "clean" } else { "fail" },
        )
    }
}

/// Renders each item on its own indented line, comma-separated.
fn json_lines(items: impl Iterator<Item = String>) -> String {
    items
        .map(|item| format!("\n    {item}"))
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::run_rules;
    use crate::scanner::scan_str;

    fn report_for(src: &str) -> Report {
        Report {
            files_scanned: 1,
            findings: run_rules(&scan_str("crates/core/src/x.rs", src)),
        }
    }

    #[test]
    fn clean_report_is_short_and_regressions_carry_detail() {
        let clean = report_for("let x = 1;\n");
        assert!(clean.clean());
        assert!(clean.render_human().contains("OK: no active finding"));

        let dirty = report_for("x.unwrap();\n");
        assert!(!dirty.clean());
        let human = dirty.render_human();
        assert!(human.contains("R001 crates/core/src/x.rs:1: x.unwrap();"));
        assert!(human.contains("FAIL"));
    }

    #[test]
    fn json_report_is_deterministic_and_tagged() {
        let r = report_for("x.unwrap();\nlet m: std::collections::HashMap<u8, u8>;\n");
        let a = r.render_json();
        let b = r.render_json();
        assert_eq!(a, b);
        assert!(a.contains(REPORT_SCHEMA));
        assert!(a.contains("\"status\": \"fail\""));
        assert!(a.contains("\"rule\": \"D001\""));
        assert!(!a.contains("regressions"));
    }

    #[test]
    fn broken_allow_fails_even_with_empty_baseline() {
        let r = report_for("let a = 1; // lint:allow(R001)\n");
        assert!(!r.clean());
        assert!(r.render_human().contains("L001 crates/core/src/x.rs:1:"));
    }

    #[test]
    fn suppressed_findings_are_listed_in_json_but_do_not_fail() {
        let r = report_for("// lint:allow(R001): fixture\nx.unwrap();\n");
        assert!(r.clean(), "{:#?}", r.findings);
        assert!(r.render_json().contains("\"suppressed\": true"));
    }
}

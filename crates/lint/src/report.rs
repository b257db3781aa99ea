//! Report rendering: the human summary printed by `check` and the
//! deterministic JSON document CI uploads as an artifact.

use std::fmt::Write as _;

use ichannels_obs::json::escape;

use crate::baseline::{Baseline, Delta, Ratchet};
use crate::rules::{Finding, RuleId};

/// Schema tag of the JSON report.
const REPORT_SCHEMA: &str = "ichannels-lint-report-v1";

/// Everything one `check` run produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// Files scanned.
    pub files_scanned: usize,
    /// Every finding (including suppressed ones, for audit).
    pub findings: Vec<Finding>,
    /// The scan-vs-baseline comparison.
    pub ratchet: Ratchet,
}

impl Report {
    /// True when CI should pass: no count above its grandfathered
    /// baseline and no broken suppression.
    pub fn clean(&self) -> bool {
        self.ratchet.regressions.is_empty() && !self.has_broken_allows()
    }

    /// True when any `lint:allow` was malformed or unjustified.
    pub fn has_broken_allows(&self) -> bool {
        self.findings
            .iter()
            .any(|f| f.rule == RuleId::L001 && !f.suppressed)
    }

    /// (active, suppressed) finding totals per rule, in rule order.
    fn totals(&self) -> Vec<(RuleId, usize, usize)> {
        RuleId::ALL
            .iter()
            .map(|&rule| {
                let active = self
                    .findings
                    .iter()
                    .filter(|f| f.rule == rule && !f.suppressed)
                    .count();
                let suppressed = self
                    .findings
                    .iter()
                    .filter(|f| f.rule == rule && f.suppressed)
                    .count();
                (rule, active, suppressed)
            })
            .collect()
    }

    /// The human summary. Grandfathered findings are totalled, not
    /// listed — only regressions (and broken suppressions) print line
    /// detail, so a clean run stays a short table.
    pub fn render_human(&self, baseline: &Baseline) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "ichannels-lint: scanned {} files", self.files_scanned);
        let _ = writeln!(out, "  rule  active  suppressed  baseline  summary");
        for (rule, active, suppressed) in self.totals() {
            let _ = writeln!(
                out,
                "  {:<5} {:>6} {:>11} {:>9}  {}",
                rule.name(),
                active,
                suppressed,
                baseline.total(rule),
                rule.summary()
            );
        }
        if self.has_broken_allows() {
            let _ = writeln!(
                out,
                "\nbroken suppressions (fix the comment, L001 is never grandfathered):"
            );
            for f in self.findings.iter().filter(|f| f.rule == RuleId::L001) {
                let _ = writeln!(out, "  {}:{}: {}", f.path, f.line, f.message);
            }
        }
        if self.ratchet.regressions.is_empty() {
            if !self.has_broken_allows() {
                let _ = writeln!(
                    out,
                    "\nOK: no (rule, file) count exceeds lint_baseline.json"
                );
            }
            if !self.ratchet.improvements.is_empty() {
                let _ = writeln!(
                    out,
                    "{} (rule, file) count(s) are below baseline — run `check --ratchet-down` \
                     to lock in the improvement",
                    self.ratchet.improvements.len()
                );
            }
        } else {
            let _ = writeln!(out, "\nbaseline regressions:");
            for delta in &self.ratchet.regressions {
                let _ = writeln!(
                    out,
                    "  {} in {}: {} found, {} grandfathered",
                    delta.rule.name(),
                    delta.path,
                    delta.found,
                    delta.baseline
                );
                for f in self
                    .findings
                    .iter()
                    .filter(|f| f.rule == delta.rule && f.path == delta.path && !f.suppressed)
                {
                    let _ = writeln!(out, "    line {}: {}", f.line, f.excerpt);
                }
                if let Some(f) = self
                    .findings
                    .iter()
                    .find(|f| f.rule == delta.rule && f.path == delta.path)
                {
                    let _ = writeln!(out, "    -> {}", f.message);
                }
            }
            let _ = writeln!(
                out,
                "\nFAIL: fix the site, justify it with `// lint:allow(RULE): reason`, \
                 or (for deliberate policy changes) re-bless via `check --write-baseline` \
                 (see docs/LINTS.md)"
            );
        }
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
        let deltas = |deltas: &[Delta]| {
            json_lines(deltas.iter().map(|d| {
                format!(
                    "{{\"rule\": \"{}\", \"path\": \"{}\", \"found\": {}, \"baseline\": {}}}",
                    d.rule.name(),
                    escape(&d.path),
                    d.found,
                    d.baseline
                )
            }))
        };
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
             \"totals\": {{{totals}\n  }},\n  \"regressions\": [{}\n  ],\n  \
             \"improvements\": [{}\n  ],\n  \"findings\": [{findings}\n  ]\n}}\n",
            self.files_scanned,
            if self.clean() { "clean" } else { "regressions" },
            deltas(&self.ratchet.regressions),
            deltas(&self.ratchet.improvements),
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
    use crate::baseline::count_findings;
    use crate::rules::run_rules;
    use crate::scanner::scan_str;

    fn report_for(src: &str, baseline: &Baseline) -> Report {
        let findings = run_rules(&scan_str("crates/core/src/x.rs", src));
        let ratchet = baseline.compare(&count_findings(&findings));
        Report {
            files_scanned: 1,
            findings,
            ratchet,
        }
    }

    #[test]
    fn clean_report_is_short_and_regressions_carry_detail() {
        let empty = Baseline::default();
        let clean = report_for("let x = 1;\n", &empty);
        assert!(clean.clean());
        assert!(clean.render_human(&empty).contains("OK: no (rule, file)"));

        let dirty = report_for("x.unwrap();\n", &empty);
        assert!(!dirty.clean());
        let human = dirty.render_human(&empty);
        assert!(human.contains("R001 in crates/core/src/x.rs: 1 found, 0 grandfathered"));
        assert!(human.contains("line 1: x.unwrap();"));
    }

    #[test]
    fn json_report_is_deterministic_and_tagged() {
        let empty = Baseline::default();
        let r = report_for(
            "x.unwrap();\nlet m: std::collections::HashMap<u8, u8>;\n",
            &empty,
        );
        let a = r.render_json();
        let b = r.render_json();
        assert_eq!(a, b);
        assert!(a.contains(REPORT_SCHEMA));
        assert!(a.contains("\"status\": \"regressions\""));
        assert!(a.contains("\"rule\": \"D001\""));
    }

    #[test]
    fn broken_allow_fails_even_with_empty_baseline() {
        let empty = Baseline::default();
        let r = report_for("let a = 1; // lint:allow(R001)\n", &empty);
        assert!(!r.clean());
        assert!(r.render_human(&empty).contains("broken suppressions"));
    }
}

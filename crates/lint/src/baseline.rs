//! The CI ratchet: `lint_baseline.json` grandfathers existing finding
//! counts per (rule, file) and fails any increase.
//!
//! Counts may only go down: a PR that fixes sites runs
//! `check --ratchet-down` to rewrite the baseline with the lower
//! counts, and a PR that adds an unsuppressed hazard fails with the
//! exact (rule, file) regression. The file is JSON with sorted keys,
//! so rewrites are deterministic and diff cleanly; it is read back
//! with the workspace's shared reader (`ichannels_obs::json`).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io;

use ichannels_obs::json::{self, escape, Value};

use crate::rules::{Finding, RuleId};

/// Schema tag of the baseline file.
const BASELINE_SCHEMA: &str = "ichannels-lint-baseline-v1";

/// Grandfathered finding counts: rule name → file → count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    counts: BTreeMap<String, BTreeMap<String, usize>>,
}

/// One (rule, file) whose count moved relative to the baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    /// Rule that moved.
    pub rule: RuleId,
    /// Workspace-relative file.
    pub path: String,
    /// Grandfathered count.
    pub baseline: usize,
    /// Count found by this scan.
    pub found: usize,
}

/// The scan-vs-baseline comparison.
#[derive(Debug, Clone, Default)]
pub struct Ratchet {
    /// Counts that went up (CI failure).
    pub regressions: Vec<Delta>,
    /// Counts that went down (eligible for `--ratchet-down`).
    pub improvements: Vec<Delta>,
}

/// Tallies unsuppressed findings into (rule, file) counts. L001
/// (broken suppressions) is never grandfathered — it is excluded here
/// and handled as an unconditional failure by the caller.
pub fn count_findings(findings: &[Finding]) -> BTreeMap<(RuleId, String), usize> {
    let mut counts = BTreeMap::new();
    for f in findings {
        if f.suppressed || f.rule == RuleId::L001 {
            continue;
        }
        *counts.entry((f.rule, f.path.clone())).or_insert(0) += 1;
    }
    counts
}

impl Baseline {
    /// Builds a baseline holding exactly `counts`.
    pub fn from_counts(counts: &BTreeMap<(RuleId, String), usize>) -> Self {
        let mut b = Baseline::default();
        for (&(rule, ref path), &n) in counts {
            if n > 0 {
                b.counts
                    .entry(rule.name().to_string())
                    .or_default()
                    .insert(path.clone(), n);
            }
        }
        b
    }

    /// The grandfathered count for one (rule, file); zero when absent.
    pub fn allowed(&self, rule: RuleId, path: &str) -> usize {
        self.counts
            .get(rule.name())
            .and_then(|files| files.get(path))
            .copied()
            .unwrap_or(0)
    }

    /// Total grandfathered count for one rule.
    pub fn total(&self, rule: RuleId) -> usize {
        self.counts
            .get(rule.name())
            .map(|files| files.values().sum())
            .unwrap_or(0)
    }

    /// Compares a scan against the baseline.
    pub fn compare(&self, counts: &BTreeMap<(RuleId, String), usize>) -> Ratchet {
        let mut ratchet = Ratchet::default();
        for (&(rule, ref path), &found) in counts {
            let baseline = self.allowed(rule, path);
            if found > baseline {
                ratchet.regressions.push(Delta {
                    rule,
                    path: path.clone(),
                    baseline,
                    found,
                });
            } else if found < baseline {
                ratchet.improvements.push(Delta {
                    rule,
                    path: path.clone(),
                    baseline,
                    found,
                });
            }
        }
        // Baseline entries with no findings at all are improvements to
        // zero (the file was fixed or deleted).
        for (rule_name, files) in &self.counts {
            let Some(rule) = RuleId::parse(rule_name) else {
                continue;
            };
            for (path, &baseline) in files {
                if !counts.contains_key(&(rule, path.clone())) && baseline > 0 {
                    ratchet.improvements.push(Delta {
                        rule,
                        path: path.clone(),
                        baseline,
                        found: 0,
                    });
                }
            }
        }
        ratchet
            .regressions
            .sort_by(|a, b| (a.rule, &a.path).cmp(&(b.rule, &b.path)));
        ratchet
            .improvements
            .sort_by(|a, b| (a.rule, &a.path).cmp(&(b.rule, &b.path)));
        ratchet
    }

    /// Renders the deterministic JSON document.
    pub fn to_json(&self) -> String {
        let rules: Vec<String> = self
            .counts
            .iter()
            .filter(|(_, files)| !files.is_empty())
            .map(|(rule, files)| {
                let files: Vec<String> = files
                    .iter()
                    .map(|(path, n)| format!("\n      \"{}\": {n}", escape(path)))
                    .collect();
                format!("\n    \"{}\": {{{}\n    }}", escape(rule), files.join(","))
            })
            .collect();
        format!(
            "{{\n  \"schema\": \"{BASELINE_SCHEMA}\",\n  \"counts\": {{{}\n  }}\n}}\n",
            rules.join(",")
        )
    }

    /// Parses the JSON document written by [`Baseline::to_json`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for anything that is not a baseline file
    /// (wrong schema tag, malformed JSON, non-integer counts).
    pub fn parse(text: &str) -> io::Result<Self> {
        let doc = json::parse(text).map_err(|e| invalid(e.to_string()))?;
        let mut schema_seen = false;
        let mut baseline = Baseline::default();
        for (key, value) in object(&doc, "the document")? {
            match key.as_ref() {
                "schema" if value.as_str() == Some(BASELINE_SCHEMA) => schema_seen = true,
                "schema" => return Err(invalid(format!("schema is not `{BASELINE_SCHEMA}`"))),
                "counts" => {
                    for (rule, files) in object(value, "counts")? {
                        let counts = baseline.counts.entry(rule.to_string()).or_default();
                        for (path, n) in object(files, rule)? {
                            let n = n
                                .as_u64()
                                .and_then(|n| usize::try_from(n).ok())
                                .ok_or_else(|| {
                                    invalid(format!("`{path}` under `{rule}` is not a count"))
                                })?;
                            counts.insert(path.to_string(), n);
                        }
                    }
                }
                other => return Err(invalid(format!("unexpected key `{other}`"))),
            }
        }
        if !schema_seen {
            return Err(invalid("missing schema tag".to_string()));
        }
        Ok(baseline)
    }
}

fn object<'v, 'a>(value: &'v Value<'a>, what: &str) -> io::Result<&'v [(Cow<'a, str>, Value<'a>)]> {
    value
        .as_object()
        .ok_or_else(|| invalid(format!("{what} is not an object")))
}

fn invalid(message: String) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("lint_baseline: {message}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(entries: &[(RuleId, &str, usize)]) -> BTreeMap<(RuleId, String), usize> {
        entries
            .iter()
            .map(|&(r, p, n)| ((r, p.to_string()), n))
            .collect()
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let b = Baseline::from_counts(&counts(&[
            (RuleId::R001, "crates/core/src/a.rs", 3),
            (RuleId::D001, "crates/lab/src/b.rs", 1),
        ]));
        let json = b.to_json();
        assert!(json.contains(BASELINE_SCHEMA));
        let back = Baseline::parse(&json).expect("round-trips");
        assert_eq!(back, b);
        assert_eq!(back.allowed(RuleId::R001, "crates/core/src/a.rs"), 3);
        assert_eq!(back.allowed(RuleId::R001, "crates/core/src/zzz.rs"), 0);
    }

    #[test]
    fn regressions_and_improvements_are_detected() {
        let b = Baseline::from_counts(&counts(&[
            (RuleId::R001, "a.rs", 2),
            (RuleId::R001, "b.rs", 2),
            (RuleId::R001, "c.rs", 2),
        ]));
        let now = counts(&[
            (RuleId::R001, "a.rs", 3), // worse
            (RuleId::R001, "b.rs", 1), // better
            // c.rs fixed entirely
            (RuleId::D001, "d.rs", 1), // brand new
        ]);
        let r = b.compare(&now);
        assert_eq!(r.regressions.len(), 2);
        assert_eq!(r.regressions[0].rule, RuleId::D001);
        assert_eq!(r.regressions[1].path, "a.rs");
        assert_eq!(r.improvements.len(), 2);
        assert_eq!(r.improvements[1].found, 0, "cleared file ratchets to zero");
    }

    #[test]
    fn ratchet_down_counts_produce_a_smaller_baseline() {
        let before = Baseline::from_counts(&counts(&[(RuleId::R001, "a.rs", 5)]));
        let now = counts(&[(RuleId::R001, "a.rs", 2)]);
        assert!(before.compare(&now).regressions.is_empty());
        let after = Baseline::from_counts(&now);
        assert_eq!(after.allowed(RuleId::R001, "a.rs"), 2);
        assert!(after.to_json().len() < before.to_json().len() + 16);
    }

    #[test]
    fn quoted_and_backslashed_paths_round_trip() {
        let b = Baseline::from_counts(&counts(&[
            (RuleId::R001, "crates/x/src/\"odd\".rs", 2),
            (RuleId::D001, "crates\\win\\path.rs", 1),
        ]));
        let back = Baseline::parse(&b.to_json()).expect("round-trips");
        assert_eq!(back, b);
        assert_eq!(back.allowed(RuleId::R001, "crates/x/src/\"odd\".rs"), 2);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "{\"schema\": \"ichannels-lint-baseline-v1\", \"counts\": {\"R001\": {\"a.rs\": 1 \"b.rs\": 2}}}",
            "{\"schema\": \"ichannels-lint-baseline-v1\" \"counts\": {}}",
            "{\"schema\": \"ichannels-lint-baseline-v1\", \"counts\": {\"R001\": {\"a.rs\": 1.5}}}",
            "{\"schema\": \"ichannels-lint-baseline-v1\", \"counts\": {\"R001\": {\"a.rs\": -1}}}",
            "{\"schema\": \"ichannels-lint-baseline-v1\", \"extra\": 1}",
            "{\"counts\": {}}",
            "{\"schema\": 1}",
            "[]",
        ] {
            let err = Baseline::parse(bad).expect_err(bad);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad}");
        }
    }

    #[test]
    fn committed_baseline_rewrites_byte_identically() {
        let text = include_str!("../../../lint_baseline.json");
        let b = Baseline::parse(text).expect("parses");
        assert_eq!(b.to_json(), text);
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let err =
            Baseline::parse("{\"schema\": \"nope\", \"counts\": {}}").expect_err("must reject");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}

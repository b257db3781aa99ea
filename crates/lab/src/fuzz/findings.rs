//! The replayable findings report (`fuzz_findings.jsonl`).
//!
//! One JSONL row per flagged case, in case-index order, rendered with
//! a stable field order through the same [`JsonlRow`] path the trial
//! streams use — so a findings file is byte-identical across runs,
//! thread counts, and shard splits (shard findings concatenate and
//! sort by case index back into the unsharded bytes).
//!
//! Every row carries enough to replay without the report: the fuzz
//! base seed plus the case index regenerate the sampled scenario, and
//! the shrunk cell key plus its derived trial seed pin the minimal
//! reproducer a characterization test should construct.

use ichannels_meter::export::{jsonl_to_string, JsonlRow};
use ichannels_meter::parse::{field, parse_jsonl_line};
use ichannels_obs::json::Value;

use super::oracle::AnomalyKind;

/// One shrunk, replayable anomaly.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Case index within the fuzz run (replays the sampled scenario).
    pub case: u64,
    /// The fuzz run's base seed.
    pub seed: u64,
    /// Anomaly class label ([`AnomalyKind::label`]).
    pub kind: String,
    /// Cell key of the originally sampled scenario.
    pub cell: String,
    /// Derived trial seed of the sampled cell.
    pub cell_seed: u64,
    /// Measured error rate at the sampled cell (`NaN` for non-rate
    /// anomalies).
    pub measured: f64,
    /// The envelope it broke (`NaN` for non-rate anomalies).
    pub allowed: f64,
    /// Cell key of the minimal reproducer.
    pub shrunk_cell: String,
    /// Derived trial seed of the minimal reproducer.
    pub shrunk_seed: u64,
    /// Payload symbols of the minimal reproducer.
    pub shrunk_symbols: u64,
    /// Measured error rate at the minimal reproducer.
    pub shrunk_measured: f64,
    /// Envelope at the minimal reproducer.
    pub shrunk_allowed: f64,
    /// Accepted shrink steps.
    pub shrink_steps: u64,
    /// Oracle evaluations the shrinker spent.
    pub shrink_evals: u64,
    /// Readable context from the anomaly.
    pub detail: String,
}

impl Finding {
    /// Renders the finding as one JSONL row (stable field order).
    pub fn jsonl_row(&self) -> JsonlRow {
        JsonlRow::new()
            .int("case", self.case)
            .int("seed", self.seed)
            .str("kind", &self.kind)
            .str("cell", &self.cell)
            .int("cell_seed", self.cell_seed)
            .num("measured", self.measured)
            .num("allowed", self.allowed)
            .str("shrunk_cell", &self.shrunk_cell)
            .int("shrunk_seed", self.shrunk_seed)
            .int("shrunk_symbols", self.shrunk_symbols)
            .num("shrunk_measured", self.shrunk_measured)
            .num("shrunk_allowed", self.shrunk_allowed)
            .int("shrink_steps", self.shrink_steps)
            .int("shrink_evals", self.shrink_evals)
            .str("detail", &self.detail)
    }

    /// Parses one findings row back.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field or
    /// the underlying JSON syntax error.
    pub fn parse(line: &str) -> Result<Self, String> {
        let fields = parse_jsonl_line(line).map_err(|e| e.to_string())?;
        let text = |key: &str| -> Result<String, String> {
            field(&fields, key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field `{key}`"))
        };
        let uint = |key: &str| -> Result<u64, String> {
            field(&fields, key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing integer field `{key}`"))
        };
        let float = |key: &str| -> Result<f64, String> {
            field(&fields, key)
                .and_then(Value::as_f64_or_nan)
                .ok_or_else(|| format!("missing numeric field `{key}`"))
        };
        Ok(Finding {
            case: uint("case")?,
            seed: uint("seed")?,
            kind: text("kind")?,
            cell: text("cell")?,
            cell_seed: uint("cell_seed")?,
            measured: float("measured")?,
            allowed: float("allowed")?,
            shrunk_cell: text("shrunk_cell")?,
            shrunk_seed: uint("shrunk_seed")?,
            shrunk_symbols: uint("shrunk_symbols")?,
            shrunk_measured: float("shrunk_measured")?,
            shrunk_allowed: float("shrunk_allowed")?,
            shrink_steps: uint("shrink_steps")?,
            shrink_evals: uint("shrink_evals")?,
            detail: text("detail")?,
        })
    }

    /// True for the anomaly-kind label.
    pub fn is_kind(&self, kind: AnomalyKind) -> bool {
        self.kind == kind.label()
    }
}

/// Renders findings as one in-memory JSONL document (rows in the
/// given order — callers keep case-index order).
pub fn findings_to_jsonl(findings: &[Finding]) -> String {
    jsonl_to_string(findings.iter().map(Finding::jsonl_row))
}

/// Merges shard findings back into unsharded byte order: every finding
/// is pure in its case index, so sorting by case re-interleaves shard
/// outputs into exactly the unsharded report.
pub fn merge_findings(mut findings: Vec<Finding>) -> Vec<Finding> {
    findings.sort_by_key(|f| f.case);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Finding {
        Finding {
            case: 17,
            seed: 0xF0552,
            kind: AnomalyKind::ErrorRateDeviation.label().to_string(),
            cell: "cannon_lake/IccThreadCovert/high/none/noapp/randomx12".to_string(),
            cell_seed: 123,
            measured: 0.31,
            allowed: 0.22,
            shrunk_cell: "cannon_lake/IccThreadCovert/high/none/noapp/randomx4".to_string(),
            shrunk_seed: 456,
            shrunk_symbols: 4,
            shrunk_measured: 0.5,
            shrunk_allowed: 0.22,
            shrink_steps: 2,
            shrink_evals: 9,
            detail: "error rate 0.3100 breaks the model envelope 0.2200".to_string(),
        }
    }

    #[test]
    fn rows_round_trip_byte_exactly() {
        let mut nan_field = sample();
        nan_field.measured = f64::NAN;
        for f in [sample(), nan_field] {
            let line = f.jsonl_row().to_json();
            let reparsed = Finding::parse(&line).expect("row parses");
            assert_eq!(reparsed.jsonl_row().to_json(), line);
            assert_eq!(reparsed.cell, f.cell);
        }
    }

    #[test]
    fn merge_sorts_by_case() {
        let mut a = sample();
        a.case = 9;
        let mut b = sample();
        b.case = 2;
        let merged = merge_findings(vec![a.clone(), b.clone()]);
        assert_eq!(merged[0].case, 2);
        assert_eq!(findings_to_jsonl(&merged), findings_to_jsonl(&[b, a]),);
    }

    #[test]
    fn truncated_rows_fail_to_parse() {
        let line = sample().jsonl_row().to_json();
        assert!(Finding::parse(&line).is_ok());
        assert!(Finding::parse(&line[..line.len() / 2]).is_err());
        assert!(Finding::parse("{\"case\":1}").is_err());
    }
}

//! Trial records, per-cell aggregation, and CSV/JSONL rendering.
//!
//! Raw trials stream to JSONL (one object per line, byte-stable field
//! order); cells aggregate through [`ichannels_meter::stats`] into
//! summary rows (mean/σ BER, throughput distribution percentiles,
//! capacity) rendered as CSV.
//!
//! Rendering is row-based: a [`TrialRecord`] (live scenario + metrics)
//! lowers to a [`TrialRow`] (the exported field set), and a `TrialRow`
//! also parses back from a JSONL line. Writer and reader share the one
//! [`TrialRow::jsonl_row`] render path, which is what makes shard
//! merge/resume byte-identical to a fresh unsharded run.

use std::collections::BTreeMap;

use ichannels_meter::export::{CsvTable, JsonlRow};
use ichannels_meter::parse::{field, parse_jsonl_line};
use ichannels_meter::stats::{percentile, summarize, Summary};
use ichannels_obs::json::Value;

use crate::scenario::{mitigations_label, AppSpec, Scenario};

/// Flat per-trial measurements. Metrics that do not apply to a channel
/// family (e.g. 2-bit BER on a 7-level alphabet, capacity on a
/// baseline) are `NaN` and render as JSON `null` / empty CSV cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialMetrics {
    /// Bit error rate (2-bit symbols).
    pub ber: f64,
    /// Symbol error rate.
    pub ser: f64,
    /// Gross throughput (bits/s).
    pub throughput_bps: f64,
    /// Effective capacity (bits/s): bias-corrected MI × symbol rate.
    pub capacity_bps: f64,
    /// Bias-corrected mutual information per transaction (bits).
    pub mi_bits_per_symbol: f64,
    /// Minimum separation between adjacent calibrated levels (cycles).
    pub min_separation_cycles: f64,
    /// Number of payload symbols evaluated.
    pub n_symbols: usize,
    /// Primary probe measurement (TP µs, iteration duration µs,
    /// normalized undelivered fraction, duration cycles, Vcc mV —
    /// depending on the [`crate::scenario::ProbeKind`]); `NaN` for
    /// channel trials.
    pub probe_value: f64,
    /// Secondary probe measurement (Icc A for operating-point probes);
    /// `NaN` unless the probe defines one.
    pub probe_aux: f64,
}

impl TrialMetrics {
    /// The all-undefined metrics of a trial that never produced a
    /// measurement (every value `NaN`, zero symbols) — what a failed
    /// trial records next to its error.
    pub const fn undefined() -> Self {
        TrialMetrics {
            ber: f64::NAN,
            ser: f64::NAN,
            throughput_bps: f64::NAN,
            capacity_bps: f64::NAN,
            mi_bits_per_symbol: f64::NAN,
            min_separation_cycles: f64::NAN,
            n_symbols: 0,
            probe_value: f64::NAN,
            probe_aux: f64::NAN,
        }
    }
}

/// One completed trial: the scenario plus its measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// The scenario that produced this record.
    pub scenario: Scenario,
    /// The measurements.
    pub metrics: TrialMetrics,
    /// The readable failure of a trial whose channel run errored
    /// (`None` for a successful trial). A failed trial keeps its row —
    /// undefined metrics plus this message — so one bad cell never
    /// aborts a campaign or shard.
    pub error: Option<String>,
}

/// The exported field set of one trial: what a JSONL/CSV row carries.
///
/// A `TrialRow` is a [`TrialRecord`] stripped to its serialized axis
/// labels — enough to rebuild the trial CSV and the per-cell summaries
/// from a reloaded stream, and to key resume/merge dedup, but not to
/// re-run the trial (a row has no `calib_reps`, for instance).
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRow {
    /// Cell key (every axis except the trial index).
    pub cell: String,
    /// Platform label.
    pub platform: String,
    /// Channel label.
    pub channel: String,
    /// Noise label.
    pub noise: String,
    /// Mitigation-set label.
    pub mitigations: String,
    /// Concurrent-app label (`"noapp"` when undisturbed).
    pub app: String,
    /// Payload-shape label.
    pub payload: String,
    /// Trial index within the cell.
    pub trial: u64,
    /// The trial's master seed.
    pub seed: u64,
    /// The measurements.
    pub metrics: TrialMetrics,
    /// Failure message of an errored trial (`None` for a success). The
    /// field renders only when present, so successful rows are
    /// byte-identical to the pre-error-channel format.
    pub error: Option<String>,
}

impl TrialRow {
    /// Lowers a live record to its exported row.
    pub fn from_record(record: &TrialRecord) -> Self {
        let s = &record.scenario;
        TrialRow {
            cell: s.cell_key(),
            platform: s.platform.label().to_string(),
            channel: s.channel.label(),
            noise: s.noise.label(),
            mitigations: mitigations_label(&s.mitigations),
            app: s.app.map_or_else(|| "noapp".to_string(), AppSpec::label),
            payload: s.payload.label(),
            trial: u64::from(s.trial),
            seed: s.seed,
            metrics: record.metrics,
            error: record.error.clone(),
        }
    }

    /// The unique trial key (`cell#trial`) — matches
    /// [`Scenario::label`], so resume can match rows to scenarios.
    pub fn trial_key(&self) -> String {
        format!("{}#{}", self.cell, self.trial)
    }

    /// Renders the row as one JSONL object (stable field order) — the
    /// single render path shared by fresh runs and reloaded streams.
    /// The `error` field is appended only for errored trials, keeping
    /// every successful row byte-identical to the historical format.
    pub fn jsonl_row(&self) -> JsonlRow {
        let m = &self.metrics;
        let row = JsonlRow::new()
            .str("cell", &self.cell)
            .str("platform", &self.platform)
            .str("channel", &self.channel)
            .str("noise", &self.noise)
            .str("mitigations", &self.mitigations)
            .str("app", &self.app)
            .str("payload", &self.payload)
            .int("trial", self.trial)
            .int("seed", self.seed)
            .int("n_symbols", m.n_symbols as u64)
            .num("ber", m.ber)
            .num("ser", m.ser)
            .num("throughput_bps", m.throughput_bps)
            .num("capacity_bps", m.capacity_bps)
            .num("mi_bits_per_symbol", m.mi_bits_per_symbol)
            .num("min_separation_cycles", m.min_separation_cycles)
            .num("probe_value", m.probe_value)
            .num("probe_aux", m.probe_aux);
        match &self.error {
            Some(e) => row.str("error", e),
            None => row,
        }
    }

    /// Parses one JSONL trial line back into a row.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field
    /// (or the underlying JSON syntax error) — truncated lines from an
    /// interrupted campaign land here and are skipped by resume.
    pub fn parse(line: &str) -> Result<Self, String> {
        let fields = parse_jsonl_line(line).map_err(|e| e.to_string())?;
        TrialRow::from_fields(&fields)
    }

    /// Reads a row from the `(key, value)` fields of an already parsed
    /// JSONL line ([`parse_jsonl_line`]), so a caller that also checks
    /// the line for another schema parses it only once.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_fields(fields: &[(String, Value)]) -> Result<Self, String> {
        let text = |key: &str| -> Result<String, String> {
            field(fields, key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field `{key}`"))
        };
        let uint = |key: &str| -> Result<u64, String> {
            field(fields, key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing integer field `{key}`"))
        };
        let float = |key: &str| -> Result<f64, String> {
            field(fields, key)
                .and_then(Value::as_f64_or_nan)
                .ok_or_else(|| format!("missing numeric field `{key}`"))
        };
        Ok(TrialRow {
            cell: text("cell")?,
            platform: text("platform")?,
            channel: text("channel")?,
            noise: text("noise")?,
            mitigations: text("mitigations")?,
            app: text("app")?,
            payload: text("payload")?,
            trial: uint("trial")?,
            seed: uint("seed")?,
            // Optional: only errored trials carry the field.
            error: field(fields, "error")
                .and_then(Value::as_str)
                .map(str::to_string),
            metrics: TrialMetrics {
                n_symbols: uint("n_symbols")? as usize,
                ber: float("ber")?,
                ser: float("ser")?,
                throughput_bps: float("throughput_bps")?,
                capacity_bps: float("capacity_bps")?,
                mi_bits_per_symbol: float("mi_bits_per_symbol")?,
                min_separation_cycles: float("min_separation_cycles")?,
                probe_value: float("probe_value")?,
                probe_aux: float("probe_aux")?,
            },
        })
    }
}

fn csv_float(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        String::new()
    }
}

/// The CSV header of [`rows_to_csv`].
const TRIAL_CSV_HEADER: [&str; 18] = [
    "cell",
    "platform",
    "channel",
    "noise",
    "mitigations",
    "app",
    "payload",
    "trial",
    "seed",
    "n_symbols",
    "ber",
    "ser",
    "throughput_bps",
    "capacity_bps",
    "mi_bits_per_symbol",
    "min_separation_cycles",
    "probe_value",
    "probe_aux",
];

/// Renders trial rows as one CSV table.
pub fn rows_to_csv(rows: &[TrialRow]) -> CsvTable {
    let mut table = CsvTable::new(TRIAL_CSV_HEADER);
    for r in rows {
        let m = &r.metrics;
        table.push_row([
            &r.cell,
            &r.platform,
            &r.channel,
            &r.noise,
            &r.mitigations,
            &r.app,
            &r.payload,
            &r.trial.to_string(),
            &r.seed.to_string(),
            &m.n_symbols.to_string(),
            &csv_float(m.ber),
            &csv_float(m.ser),
            &csv_float(m.throughput_bps),
            &csv_float(m.capacity_bps),
            &csv_float(m.mi_bits_per_symbol),
            &csv_float(m.min_separation_cycles),
            &csv_float(m.probe_value),
            &csv_float(m.probe_aux),
        ]);
    }
    table
}

/// Renders trial rows as one in-memory JSONL document.
pub fn rows_to_jsonl(rows: &[TrialRow]) -> String {
    ichannels_meter::export::jsonl_to_string(rows.iter().map(TrialRow::jsonl_row))
}

/// Aggregated statistics of one grid cell (all trials of one axis
/// combination).
#[derive(Debug, Clone, PartialEq)]
pub struct CellSummary {
    /// The cell key (every axis except the trial index).
    pub cell: String,
    /// Number of trials aggregated.
    pub trials: usize,
    /// BER summary over trials with a defined BER.
    pub ber: Option<Summary>,
    /// Throughput summary (b/s).
    pub throughput: Option<Summary>,
    /// Throughput distribution percentiles `(p5, p50, p95)`.
    pub throughput_percentiles: Option<(f64, f64, f64)>,
    /// Capacity summary (b/s).
    pub capacity: Option<Summary>,
    /// Mean minimum level separation (cycles).
    pub mean_min_separation: Option<f64>,
    /// Probe-measurement summary over trials with a defined probe value.
    pub probe: Option<Summary>,
}

fn finite(rows: &[&TrialRow], f: impl Fn(&TrialMetrics) -> f64) -> Vec<f64> {
    rows.iter()
        .map(|r| f(&r.metrics))
        .filter(|v| v.is_finite())
        .collect()
}

/// Groups trial rows by cell key and aggregates each group. Output is
/// sorted by cell key, so summaries are deterministic.
pub fn summarize_rows(rows: &[TrialRow]) -> Vec<CellSummary> {
    let mut groups: BTreeMap<String, Vec<&TrialRow>> = BTreeMap::new();
    for r in rows {
        groups.entry(r.cell.clone()).or_default().push(r);
    }
    groups
        .into_iter()
        .map(|(cell, group)| {
            let bers = finite(&group, |m| m.ber);
            let tps = finite(&group, |m| m.throughput_bps);
            let caps = finite(&group, |m| m.capacity_bps);
            let seps = finite(&group, |m| m.min_separation_cycles);
            let probes = finite(&group, |m| m.probe_value);
            CellSummary {
                cell,
                trials: group.len(),
                ber: (!bers.is_empty()).then(|| summarize(&bers)),
                throughput: (!tps.is_empty()).then(|| summarize(&tps)),
                throughput_percentiles: (!tps.is_empty()).then(|| {
                    (
                        percentile(&tps, 5.0),
                        percentile(&tps, 50.0),
                        percentile(&tps, 95.0),
                    )
                }),
                capacity: (!caps.is_empty()).then(|| summarize(&caps)),
                mean_min_separation: (!seps.is_empty())
                    .then(|| seps.iter().sum::<f64>() / seps.len() as f64),
                probe: (!probes.is_empty()).then(|| summarize(&probes)),
            }
        })
        .collect()
}

/// Renders cell summaries as one CSV table.
pub fn summaries_to_csv(cells: &[CellSummary]) -> CsvTable {
    let mut table = CsvTable::new([
        "cell",
        "trials",
        "ber_mean",
        "ber_std",
        "throughput_mean_bps",
        "throughput_p5_bps",
        "throughput_p50_bps",
        "throughput_p95_bps",
        "capacity_mean_bps",
        "min_separation_cycles",
        "probe_mean",
        "probe_std",
    ]);
    for c in cells {
        let (p5, p50, p95) = c
            .throughput_percentiles
            .unwrap_or((f64::NAN, f64::NAN, f64::NAN));
        table.push_row([
            c.cell.clone(),
            c.trials.to_string(),
            c.ber.map_or_else(String::new, |s| csv_float(s.mean)),
            c.ber.map_or_else(String::new, |s| csv_float(s.std_dev)),
            c.throughput.map_or_else(String::new, |s| csv_float(s.mean)),
            csv_float(p5),
            csv_float(p50),
            csv_float(p95),
            c.capacity.map_or_else(String::new, |s| csv_float(s.mean)),
            c.mean_min_separation.map_or_else(String::new, csv_float),
            c.probe.map_or_else(String::new, |s| csv_float(s.mean)),
            c.probe.map_or_else(String::new, |s| csv_float(s.std_dev)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use crate::scenario::NoiseSpec;
    use ichannels::channel::ChannelKind;

    fn sample_records() -> Vec<TrialRecord> {
        let grid = Grid::new()
            .kinds(&[ChannelKind::Thread])
            .noises(vec![NoiseSpec::Quiet, NoiseSpec::Low])
            .trials(2)
            .payload_symbols(6);
        crate::exec::Executor::serial().run(&grid.scenarios())
    }

    fn to_rows(records: &[TrialRecord]) -> Vec<TrialRow> {
        records.iter().map(TrialRow::from_record).collect()
    }

    #[test]
    fn jsonl_rows_carry_every_axis() {
        let records = sample_records();
        let json = rows_to_jsonl(&to_rows(&records));
        assert_eq!(json.lines().count(), records.len());
        let first = json.lines().next().unwrap();
        for key in [
            "cell", "platform", "channel", "noise", "trial", "seed", "ber",
        ] {
            assert!(first.contains(&format!("\"{key}\":")), "{first}");
        }
    }

    #[test]
    fn csv_has_one_row_per_record() {
        let records = sample_records();
        let table = rows_to_csv(&to_rows(&records));
        assert_eq!(table.len(), records.len());
    }

    #[test]
    fn cells_group_trials() {
        let records = sample_records();
        let cells = summarize_rows(&to_rows(&records));
        assert_eq!(cells.len(), 2, "quiet and low noise cells");
        for c in &cells {
            assert_eq!(c.trials, 2);
            assert!(c.ber.is_some());
            assert!(c.throughput.is_some());
            let (p5, p50, p95) = c.throughput_percentiles.unwrap();
            assert!(p5 <= p50 && p50 <= p95);
        }
        assert_eq!(summaries_to_csv(&cells).len(), 2);
    }

    #[test]
    fn rows_round_trip_byte_exactly() {
        let mut records = sample_records();
        // Exercise the NaN → null → NaN path too.
        records[0].metrics.capacity_bps = f64::NAN;
        let rows = to_rows(&records);
        let rendered = rows_to_jsonl(&rows);
        let reparsed: Vec<TrialRow> = rendered
            .lines()
            .map(|l| TrialRow::parse(l).expect("row parses"))
            .collect();
        // Byte-identical re-rendering (JSONL and CSV), identical cells.
        assert_eq!(rows_to_jsonl(&reparsed), rendered);
        assert_eq!(rows_to_csv(&reparsed).to_csv(), rows_to_csv(&rows).to_csv());
        assert_eq!(
            summaries_to_csv(&summarize_rows(&reparsed)).to_csv(),
            summaries_to_csv(&summarize_rows(&rows)).to_csv()
        );
        // Keys match the scenario labels resume looks up.
        for (row, record) in reparsed.iter().zip(&records) {
            assert_eq!(row.trial_key(), record.scenario.label());
            assert_eq!(row.seed, record.scenario.seed);
        }
    }

    #[test]
    fn truncated_rows_fail_to_parse() {
        let records = sample_records();
        let line = rows_to_jsonl(&to_rows(&records[..1]));
        let line = line.trim_end();
        assert!(TrialRow::parse(line).is_ok());
        for cut in [1, line.len() / 2, line.len() - 1] {
            assert!(
                TrialRow::parse(&line[..cut]).is_err(),
                "accepted truncation at {cut}"
            );
        }
        // A structurally valid object missing trial fields also fails.
        assert!(TrialRow::parse("{\"cell\":\"x\"}").is_err());
    }

    #[test]
    fn errored_rows_carry_their_message_and_round_trip() {
        let records = sample_records();
        let mut errored = TrialRow::from_record(&records[0]);
        errored.error = Some("IccThreadCovert receiver missed transactions".to_string());
        errored.metrics = TrialMetrics::undefined();
        let line = errored.jsonl_row().to_json();
        assert!(line.contains("\"error\":\"IccThreadCovert"), "{line}");
        let reparsed = TrialRow::parse(&line).expect("errored row parses");
        assert_eq!(reparsed.error, errored.error);
        assert_eq!(reparsed.jsonl_row().to_json(), line);
        // Successful rows keep the historical byte format: no `error`
        // key at all.
        let clean = TrialRow::from_record(&records[0]);
        assert_eq!(clean.error, None);
        assert!(!clean.jsonl_row().to_json().contains("\"error\""));
        // Undefined metrics drop out of the cell aggregates.
        let cells = summarize_rows(&[errored]);
        assert_eq!(cells[0].trials, 1);
        assert!(cells[0].ber.is_none());
        assert!(cells[0].throughput.is_none());
    }

    #[test]
    fn nan_metrics_render_as_null_and_empty() {
        let mut records = sample_records();
        records[0].metrics.capacity_bps = f64::NAN;
        let rows = to_rows(&records[..1]);
        let json = rows_to_jsonl(&rows);
        assert!(json.contains("\"capacity_bps\":null"), "{json}");
        let table = rows_to_csv(&rows);
        // The NaN capacity column renders empty between its neighbors.
        assert!(table.to_csv().lines().nth(1).unwrap().contains(",,"));
        let cells = summarize_rows(&rows);
        assert!(cells[0].capacity.is_none());
    }
}

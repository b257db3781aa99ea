//! Sharding: split one campaign across processes, merge the streams
//! back.
//!
//! A [`ShardSpec`] deterministically partitions a grid's scenario list
//! by round-robin over enumeration order: scenario `i` belongs to shard
//! `i % count`. The union of all shards is therefore the unsharded work
//! list exactly once, every shard's size differs by at most one
//! scenario (balanced wall-clock across CI jobs), and — because
//! per-trial seeds derive from cell keys, not enumeration positions —
//! every shard reproduces exactly the trials the unsharded run would
//! have produced.
//!
//! Sharded JSONL outputs carry one header line
//! (`{"shard_campaign":…,"shard_index":…,"shard_count":…,"shard_total":…}`)
//! ahead of the trial rows; [`merge_streams`] uses it to re-interleave
//! N shard streams back into grid enumeration order, verifying along
//! the way that every shard is present exactly once, that shard lengths
//! match the round-robin partition of the recorded total, and that no
//! trial key is duplicated or missing. The merged stream is
//! byte-identical to the unsharded run's JSONL (headerless), so the
//! trial/cell CSVs re-derived from it are byte-identical too.

use std::borrow::Cow;
use std::fmt;
use std::fs;
use std::path::Path;

use ichannels_meter::export::JsonlRow;
use ichannels_meter::parse::{field, parse_jsonl_line};
use ichannels_obs::json::Value;

use crate::report::TrialRow;

/// Which slice of a campaign this process runs: shard `index` of
/// `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    index: usize,
    count: usize,
}

/// A rejected shard specification (malformed or out of range).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpecError {
    message: String,
}

impl fmt::Display for ShardSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid shard spec: {}", self.message)
    }
}

impl std::error::Error for ShardSpecError {}

impl ShardSpec {
    /// Shard `index` of `count`.
    ///
    /// # Errors
    ///
    /// Rejects `count == 0` and `index >= count`.
    pub fn new(index: usize, count: usize) -> Result<Self, ShardSpecError> {
        if count == 0 {
            return Err(ShardSpecError {
                message: format!("shard count must be at least 1 (got {index}/{count})"),
            });
        }
        if index >= count {
            return Err(ShardSpecError {
                message: format!(
                    "shard index {index} out of range for {count} shard(s) \
                     (valid: 0/{count}..{}/{count})",
                    count - 1
                ),
            });
        }
        Ok(ShardSpec { index, count })
    }

    /// Parses an `I/N` spec (e.g. `0/3`), as passed to `--shard`.
    ///
    /// # Errors
    ///
    /// Rejects anything that is not two integers joined by `/` with
    /// `0 <= I < N` — `0/0`, `3/2`, `1-4`, and friends all fail with a
    /// message naming the expected shape.
    pub fn parse(spec: &str) -> Result<Self, ShardSpecError> {
        let (index, count) = spec.split_once('/').ok_or_else(|| ShardSpecError {
            message: format!("expected I/N (e.g. 0/3), got {spec:?}"),
        })?;
        let parse_part = |part: &str, what: &str| {
            part.trim().parse::<usize>().map_err(|_| ShardSpecError {
                message: format!("{what} {part:?} is not a non-negative integer in {spec:?}"),
            })
        };
        ShardSpec::new(
            parse_part(index, "shard index")?,
            parse_part(count, "shard count")?,
        )
    }

    /// The degenerate single-shard spec: the whole campaign.
    pub const fn full() -> Self {
        ShardSpec { index: 0, count: 1 }
    }

    /// True for the single-shard spec — runs behave exactly as
    /// unsharded (no header line, unsuffixed file names).
    pub const fn is_full(self) -> bool {
        self.count == 1
    }

    /// Shard index (`0..count`).
    pub const fn index(self) -> usize {
        self.index
    }

    /// Total number of shards.
    pub const fn count(self) -> usize {
        self.count
    }

    /// The export file stem for campaign `name`: `name` itself for the
    /// full spec, `name_shard{I}of{N}` otherwise (so shards of one
    /// campaign can land in one directory without colliding).
    pub fn file_stem(self, name: &str) -> String {
        if self.is_full() {
            name.to_string()
        } else {
            format!("{name}_shard{}of{}", self.index, self.count)
        }
    }

    /// True if item `i` of the enumeration belongs to this shard.
    pub const fn owns(self, i: usize) -> bool {
        i % self.count == self.index
    }

    /// Number of items this shard owns out of `total`.
    pub const fn len_of(self, total: usize) -> usize {
        total / self.count + ((total % self.count > self.index) as usize)
    }

    /// Selects this shard's items, preserving enumeration order.
    pub fn select<T: Clone>(self, items: &[T]) -> Vec<T> {
        items
            .iter()
            .enumerate()
            .filter(|(i, _)| self.owns(*i))
            .map(|(_, item)| item.clone())
            .collect()
    }

    /// The JSONL header line written ahead of a sharded trial stream.
    pub fn header_row(self, campaign: &str, total: usize) -> JsonlRow {
        JsonlRow::new()
            .str("shard_campaign", campaign)
            .int("shard_index", self.index as u64)
            .int("shard_count", self.count as u64)
            .int("shard_total", total as u64)
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Parses one line as a shard header, if it is one: returns
/// `(campaign, spec, total)`. Trial rows, torn lines, and anything
/// else that is not a well-formed header return `None` — resume uses
/// this to recognize (and then verify) the stream it is about to
/// trust.
pub fn parse_header_line(line: &str) -> Option<(String, ShardSpec, usize)> {
    header_from_fields(&parse_jsonl_line(line).ok()?)
}

/// Reads a shard header from the `(key, value)` fields of an already
/// parsed JSONL line, if they are one: the check [`parse_header_line`]
/// makes, for a caller that also reads the line as a trial row.
pub fn header_from_fields(
    fields: &[(Cow<'_, str>, Value<'_>)],
) -> Option<(String, ShardSpec, usize)> {
    let campaign = field(fields, "shard_campaign")
        .and_then(Value::as_str)?
        .to_string();
    let uint = |key: &str| field(fields, key).and_then(Value::as_u64);
    let spec = ShardSpec::new(uint("shard_index")? as usize, uint("shard_count")? as usize).ok()?;
    let total = uint("shard_total")? as usize;
    Some((campaign, spec, total))
}

/// One reloaded shard output: the header plus its trial rows in shard
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStream {
    /// Campaign name recorded in the header.
    pub campaign: String,
    /// Which shard this stream is.
    pub spec: ShardSpec,
    /// Unsharded scenario count recorded in the header.
    pub total: usize,
    /// The shard's trial rows, in enumeration order.
    pub rows: Vec<TrialRow>,
}

/// Why a set of shard streams cannot be merged.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeError {
    /// A file could not be read.
    Io(String),
    /// The first line of a stream is not a shard header (unsharded
    /// outputs have none and need no merge).
    MissingHeader(String),
    /// A trial line failed to parse.
    BadRow {
        /// Which stream.
        source: String,
        /// 1-based line number.
        line: usize,
        /// Parse failure description.
        message: String,
    },
    /// No input streams were given.
    NoStreams,
    /// A single shard-of-one stream was given: it already is the
    /// complete campaign, so "merging" it would only lose the header's
    /// provenance — copy the file or rerun unsharded instead.
    SingleStream(String),
    /// Streams disagree on campaign name, shard count, or total.
    InconsistentHeaders(String),
    /// The same shard index appears twice.
    DuplicateShard(usize),
    /// A shard index of the recorded count is absent.
    MissingShard(usize),
    /// A shard's row count does not match the round-robin partition of
    /// the recorded total (an interrupted or doctored shard run).
    ShardLength {
        /// Which shard.
        index: usize,
        /// Rows the partition predicts.
        expected: usize,
        /// Rows actually present.
        got: usize,
    },
    /// One trial key appears more than once across the streams.
    DuplicateTrial(String),
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Io(m) => write!(f, "{m}"),
            MergeError::MissingHeader(src) => {
                write!(f, "{src}: no shard header (not a sharded trial stream)")
            }
            MergeError::BadRow {
                source,
                line,
                message,
            } => write!(f, "{source}:{line}: {message}"),
            MergeError::NoStreams => write!(f, "no shard streams to merge"),
            MergeError::SingleStream(campaign) => write!(
                f,
                "campaign {campaign:?}: a single 1/1 stream is already the complete \
                 campaign; copy it (or rerun unsharded) instead of merging"
            ),
            MergeError::InconsistentHeaders(m) => write!(f, "inconsistent shard headers: {m}"),
            MergeError::DuplicateShard(i) => write!(f, "shard {i} appears more than once"),
            MergeError::MissingShard(i) => write!(f, "shard {i} is missing"),
            MergeError::ShardLength {
                index,
                expected,
                got,
            } => write!(
                f,
                "shard {index} has {got} trial row(s), expected {expected} \
                 (incomplete or duplicated cells)"
            ),
            MergeError::DuplicateTrial(key) => {
                write!(f, "trial {key} appears in more than one shard")
            }
        }
    }
}

impl std::error::Error for MergeError {}

impl ShardStream {
    /// Parses a sharded JSONL document (header line + trial rows).
    /// `source` names the stream in error messages.
    ///
    /// # Errors
    ///
    /// Returns [`MergeError`] for a missing/malformed header or any
    /// unparseable trial line.
    pub fn parse(source: &str, text: &str) -> Result<Self, MergeError> {
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| MergeError::MissingHeader(source.to_string()))?;
        let fields =
            parse_jsonl_line(header).map_err(|_| MergeError::MissingHeader(source.to_string()))?;
        let campaign = field(&fields, "shard_campaign")
            .and_then(Value::as_str)
            .ok_or_else(|| MergeError::MissingHeader(source.to_string()))?
            .to_string();
        let uint = |key: &str| {
            field(&fields, key)
                .and_then(Value::as_u64)
                .ok_or_else(|| MergeError::MissingHeader(source.to_string()))
        };
        let spec = ShardSpec::new(uint("shard_index")? as usize, uint("shard_count")? as usize)
            .map_err(|e| MergeError::InconsistentHeaders(e.to_string()))?;
        let total = uint("shard_total")? as usize;
        let mut rows = Vec::new();
        for (i, line) in lines.enumerate() {
            rows.push(TrialRow::parse(line).map_err(|message| MergeError::BadRow {
                source: source.to_string(),
                line: i + 2,
                message,
            })?);
        }
        Ok(ShardStream {
            campaign,
            spec,
            total,
            rows,
        })
    }

    /// Reads and parses one sharded JSONL file.
    ///
    /// # Errors
    ///
    /// Returns [`MergeError::Io`] for read failures, plus everything
    /// [`ShardStream::parse`] rejects.
    pub fn read(path: impl AsRef<Path>) -> Result<Self, MergeError> {
        let path = path.as_ref();
        let text = fs::read_to_string(path)
            .map_err(|e| MergeError::Io(format!("{}: {e}", path.display())))?;
        ShardStream::parse(&path.display().to_string(), &text)
    }
}

/// Merges shard streams back into one campaign in grid enumeration
/// order: the inverse of [`ShardSpec::select`] over all shards.
///
/// Returns `(campaign_name, rows)`; the rows render byte-identically
/// to the unsharded run's trial stream.
///
/// # Errors
///
/// Returns [`MergeError`] when the streams are not exactly the N
/// shards of one campaign run: no streams at all, a lone shard-of-one
/// (already complete — nothing to merge), mixed campaigns or shard
/// counts, duplicate or missing shard indices, shard lengths
/// inconsistent with the recorded scenario total (missing cells), or
/// duplicated trial keys.
pub fn merge_streams(streams: Vec<ShardStream>) -> Result<(String, Vec<TrialRow>), MergeError> {
    let first = streams.first().ok_or(MergeError::NoStreams)?;
    let (campaign, count, total) = (first.campaign.clone(), first.spec.count(), first.total);
    if streams.len() == 1 && count == 1 {
        // Without this, a lone 1/1 stream would "merge" into a mere
        // copy and silently bless whatever partial content it holds.
        return Err(MergeError::SingleStream(campaign));
    }
    if count != streams.len() {
        return Err(MergeError::InconsistentHeaders(format!(
            "headers declare {count} shard(s) but {} stream(s) were given",
            streams.len()
        )));
    }
    let mut by_index: Vec<Option<ShardStream>> = (0..count).map(|_| None).collect();
    for stream in streams {
        if stream.campaign != campaign {
            return Err(MergeError::InconsistentHeaders(format!(
                "campaign {:?} mixed with {campaign:?}",
                stream.campaign
            )));
        }
        if stream.spec.count() != count {
            return Err(MergeError::InconsistentHeaders(format!(
                "shard counts {} and {count} mixed",
                stream.spec.count()
            )));
        }
        if stream.total != total {
            return Err(MergeError::InconsistentHeaders(format!(
                "scenario totals {} and {total} mixed",
                stream.total
            )));
        }
        let slot = &mut by_index[stream.spec.index()];
        if slot.is_some() {
            return Err(MergeError::DuplicateShard(stream.spec.index()));
        }
        *slot = Some(stream);
    }
    // Validated shards surrender their rows, so the interleave below
    // moves every row exactly once — no clones.
    let mut shard_rows = Vec::with_capacity(count);
    for (i, slot) in by_index.into_iter().enumerate() {
        let stream = slot.ok_or(MergeError::MissingShard(i))?;
        let expected = stream.spec.len_of(total);
        if stream.rows.len() != expected {
            return Err(MergeError::ShardLength {
                index: i,
                expected,
                got: stream.rows.len(),
            });
        }
        shard_rows.push(stream.rows.into_iter());
    }
    let mut merged = Vec::with_capacity(total);
    for i in 0..total {
        merged.push(
            shard_rows[i % count]
                .next()
                // lint:allow(R001): each shard's row count was checked
                // against the partition just above.
                .expect("shard lengths validated against the partition"),
        );
    }
    if let Some(key) = duplicate_trial(&merged) {
        return Err(MergeError::DuplicateTrial(key));
    }
    Ok((campaign, merged))
}

/// The trial key [`merge_streams`] reports when `rows` repeat one: the
/// smallest repeated `cell#trial` string. Rows are compared as
/// `(cell, trial)` pairs, which repeat exactly when their keys do (the
/// trial part of a key is digits after the last `#`), so the key
/// strings are built only when a repeat exists.
fn duplicate_trial(rows: &[TrialRow]) -> Option<String> {
    let mut pairs: Vec<(&str, u64)> = rows.iter().map(|r| (r.cell.as_str(), r.trial)).collect();
    pairs.sort_unstable();
    if pairs.windows(2).all(|pair| pair[0] != pair[1]) {
        return None;
    }
    // Key strings sort differently from pairs (`a#10` < `a#2`), so the
    // reported key is chosen among the strings, as it always was.
    let mut keys: Vec<String> = rows.iter().map(TrialRow::trial_key).collect();
    keys.sort_unstable();
    keys.windows(2)
        .find(|pair| pair[0] == pair[1])
        .map(|pair| pair[0].clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;
    use crate::grid::Grid;
    use crate::report::{rows_to_jsonl, TrialRow};
    use crate::scenario::NoiseSpec;
    use ichannels::channel::ChannelKind;
    use ichannels_meter::export::jsonl_to_string;

    #[test]
    fn parse_accepts_well_formed_specs() {
        assert_eq!(
            ShardSpec::parse("0/3").unwrap(),
            ShardSpec::new(0, 3).unwrap()
        );
        assert_eq!(ShardSpec::parse("2/3").unwrap().index(), 2);
        assert_eq!(ShardSpec::parse("0/1").unwrap(), ShardSpec::full());
        assert!(ShardSpec::parse("0/1").unwrap().is_full());
        assert_eq!(ShardSpec::parse("1/4").unwrap().to_string(), "1/4");
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in ["", "3", "0/0", "3/2", "3/3", "-1/3", "a/3", "0/b", "1/2/3"] {
            let err = ShardSpec::parse(bad).expect_err(bad);
            assert!(err.to_string().starts_with("invalid shard spec"), "{err}");
        }
    }

    #[test]
    fn shards_cover_the_list_exactly_once() {
        let items: Vec<usize> = (0..17).collect();
        for count in 1..=8 {
            let mut seen = Vec::new();
            for index in 0..count {
                let spec = ShardSpec::new(index, count).unwrap();
                let part = spec.select(&items);
                assert_eq!(part.len(), spec.len_of(items.len()));
                seen.extend(part);
            }
            seen.sort_unstable();
            assert_eq!(seen, items, "count {count}");
        }
    }

    #[test]
    fn file_stems_distinguish_shards() {
        assert_eq!(ShardSpec::full().file_stem("demo"), "demo");
        assert_eq!(
            ShardSpec::new(1, 3).unwrap().file_stem("demo"),
            "demo_shard1of3"
        );
    }

    fn rows_for(grid: &Grid) -> Vec<TrialRow> {
        Executor::serial()
            .run(&grid.scenarios())
            .iter()
            .map(TrialRow::from_record)
            .collect()
    }

    fn sharded_text(rows: &[TrialRow], spec: ShardSpec, total: usize) -> String {
        let mut doc = jsonl_to_string([spec.header_row("demo", total)].iter());
        doc.push_str(&rows_to_jsonl(&spec.select(rows)));
        doc
    }

    fn demo_grid() -> Grid {
        Grid::new()
            .kinds(&[ChannelKind::Thread, ChannelKind::Cores])
            .noises(vec![NoiseSpec::Quiet, NoiseSpec::Low])
            .trials(2)
            .payload_symbols(4)
    }

    #[test]
    fn merge_reassembles_enumeration_order() {
        let rows = rows_for(&demo_grid());
        let total = rows.len();
        assert_eq!(total, 8);
        let streams: Vec<ShardStream> = (0..3)
            .map(|i| {
                let spec = ShardSpec::new(i, 3).unwrap();
                ShardStream::parse("mem", &sharded_text(&rows, spec, total)).expect("parses")
            })
            .collect();
        // Shuffle the stream order; merge keys off headers, not order.
        let shuffled = vec![streams[2].clone(), streams[0].clone(), streams[1].clone()];
        let (campaign, merged) = merge_streams(shuffled).expect("merges");
        assert_eq!(campaign, "demo");
        assert_eq!(rows_to_jsonl(&merged), rows_to_jsonl(&rows));
    }

    #[test]
    fn merge_detects_missing_duplicate_and_short_shards() {
        let rows = rows_for(&demo_grid());
        let total = rows.len();
        let stream = |i: usize| {
            let spec = ShardSpec::new(i, 3).unwrap();
            ShardStream::parse("mem", &sharded_text(&rows, spec, total)).expect("parses")
        };
        assert_eq!(merge_streams(vec![]), Err(MergeError::NoStreams));
        // A lone 1/1 stream is already complete: merging it must fail
        // loudly rather than writing a blessed-looking copy.
        let full = ShardSpec::full();
        let lone = ShardStream::parse("mem", &sharded_text(&rows, full, total)).expect("parses");
        let err = merge_streams(vec![lone]).expect_err("single 1/1 stream");
        assert_eq!(err, MergeError::SingleStream("demo".to_string()));
        assert!(err.to_string().contains("already the complete"), "{err}");
        // Wrong stream count.
        assert!(matches!(
            merge_streams(vec![stream(0), stream(1)]),
            Err(MergeError::InconsistentHeaders(_))
        ));
        // Duplicate shard index.
        assert_eq!(
            merge_streams(vec![stream(0), stream(1), stream(1)]),
            Err(MergeError::DuplicateShard(1))
        );
        // A shard with a dropped trailing row.
        let mut short = stream(2);
        short.rows.pop();
        assert_eq!(
            merge_streams(vec![stream(0), stream(1), short]),
            Err(MergeError::ShardLength {
                index: 2,
                expected: 2,
                got: 1
            })
        );
        // A duplicated cell smuggled in at the right length.
        let mut dup = stream(2);
        dup.rows[1] = dup.rows[0].clone();
        let err = merge_streams(vec![stream(0), stream(1), dup]).unwrap_err();
        assert!(matches!(err, MergeError::DuplicateTrial(_)), "{err}");
    }

    fn bare_row(cell: &str, trial: u64) -> TrialRow {
        let label = String::new;
        TrialRow {
            cell: cell.to_string(),
            platform: label(),
            channel: label(),
            noise: label(),
            mitigations: label(),
            app: label(),
            payload: label(),
            trial,
            seed: trial,
            metrics: crate::report::TrialMetrics::undefined(),
            error: None,
        }
    }

    #[test]
    fn duplicate_trials_report_the_smallest_key_string() {
        // What merge reported before it compared `(cell, trial)` pairs:
        // the first repeat among the sorted key strings.
        let by_strings = |rows: &[TrialRow]| {
            let mut keys: Vec<String> = rows.iter().map(TrialRow::trial_key).collect();
            keys.sort_unstable();
            keys.windows(2)
                .find(|pair| pair[0] == pair[1])
                .map(|pair| pair[0].clone())
        };
        let distinct: Vec<TrialRow> = [("a", 2), ("a", 10), ("a!", 1), ("a#1", 2), ("a", 1)]
            .iter()
            .map(|&(cell, trial)| bare_row(cell, trial))
            .collect();
        assert_eq!(duplicate_trial(&distinct), None);
        assert_eq!(by_strings(&distinct), None);
        // Two repeats whose pair order and string order disagree: pairs
        // put `a#2` before `a#10` and `a` before `a!`, strings do not.
        for (first, second, expected) in
            [(("a", 2), ("a", 10), "a#10"), (("a", 1), ("a!", 1), "a!#1")]
        {
            let mut rows = distinct.clone();
            rows.push(bare_row(first.0, first.1));
            rows.push(bare_row(second.0, second.1));
            assert_eq!(duplicate_trial(&rows).as_deref(), Some(expected));
            assert_eq!(duplicate_trial(&rows), by_strings(&rows));
        }
        // Through `merge_streams`: both shards of a 2-way split repeat
        // the same two trials.
        let shard = |index: usize, rows: Vec<TrialRow>| ShardStream {
            campaign: "demo".to_string(),
            spec: ShardSpec::new(index, 2).unwrap(),
            total: 4,
            rows,
        };
        let pair = || vec![bare_row("a", 2), bare_row("a", 10)];
        assert_eq!(
            merge_streams(vec![shard(0, pair()), shard(1, pair())]),
            Err(MergeError::DuplicateTrial("a#10".to_string()))
        );
    }

    #[test]
    fn unsharded_streams_are_rejected() {
        let rows = rows_for(&Grid::new().payload_symbols(4));
        let err = ShardStream::parse("mem", &rows_to_jsonl(&rows)).unwrap_err();
        assert!(matches!(err, MergeError::MissingHeader(_)), "{err}");
    }
}

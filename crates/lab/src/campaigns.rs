//! Ready-made campaigns: named grids answering the evaluation questions
//! the ROADMAP keeps asking, plus the run-and-export drivers.
//!
//! [`run_to_dir`] is the one writer of campaign artifacts: trial rows
//! land in the campaign's JSONL **in enumeration order while the run
//! executes**, optionally restricted to one [`ShardSpec`] slice and
//! optionally resuming a previous partial stream (completed trials are
//! loaded, verified against their scenario seeds, and skipped).
//! [`merge_files`] is the inverse of sharding: N shard streams back
//! into the byte-identical unsharded artifacts. [`run`] runs a grid in
//! memory and writes nothing (the figure harnesses read its records).

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use ichannels::channel::ChannelKind;
use ichannels::mitigations::Mitigation;
use ichannels_meter::export::JsonlWriter;

use crate::exec::Executor;
use crate::grid::Grid;
use crate::report::{
    rows_to_csv, summaries_to_csv, summarize_rows, CellSummary, TrialRecord, TrialRow,
};
use crate::scenario::{AlphabetSpec, ChannelSelect, NoiseSpec, PlatformId, ReceiverSpec, Scenario};
use crate::shard::{merge_streams, MergeError, ShardSpec, ShardStream};

/// A completed in-memory campaign: its raw trials.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// Raw trial records, in grid enumeration order.
    pub records: Vec<TrialRecord>,
}

/// Runs a grid on `executor` in memory.
pub fn run(name: &str, grid: &Grid, executor: Executor) -> CampaignReport {
    CampaignReport {
        name: name.to_string(),
        records: executor.run(&grid.scenarios()),
    }
}

/// How a streamed campaign run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Which slice of the grid this process runs.
    pub shard: ShardSpec,
    /// Scan an existing trial JSONL and skip its completed trials.
    pub resume: bool,
    /// Print a live progress ticker (cells done/total, ETA, error
    /// cells) to stderr. Strictly out-of-band: stdout and every
    /// artifact stay byte-identical with the ticker on or off.
    pub progress: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            shard: ShardSpec::full(),
            resume: false,
            progress: false,
        }
    }
}

/// The `--progress` stderr ticker: tracks cell completion over the
/// scheduled scenarios and repaints one status line per emitted trial
/// row. Writes only to stderr, so artifacts and stdout are untouched.
struct ProgressTicker {
    name: String,
    started: std::time::Instant,
    /// Trials not yet emitted, per cell key; a cell is done when its
    /// count reaches zero.
    remaining: BTreeMap<String, usize>,
    cells_total: usize,
    cells_done: usize,
    error_cells: BTreeSet<String>,
    trials_total: usize,
    trials_done: usize,
}

impl ProgressTicker {
    fn new(name: &str, scenarios: &[Scenario]) -> Self {
        let mut remaining: BTreeMap<String, usize> = BTreeMap::new();
        for s in scenarios {
            *remaining.entry(s.cell_key()).or_insert(0) += 1;
        }
        ProgressTicker {
            name: name.to_string(),
            // lint:allow(D002): ETA estimate for the stderr ticker only;
            // never reaches an artifact.
            started: std::time::Instant::now(),
            cells_total: remaining.len(),
            trials_total: scenarios.len(),
            remaining,
            cells_done: 0,
            error_cells: BTreeSet::new(),
            trials_done: 0,
        }
    }

    /// Accounts one emitted row (resumed or executed) and repaints.
    fn record(&mut self, row: &TrialRow) {
        self.trials_done += 1;
        if let Some(left) = self.remaining.get_mut(&row.cell) {
            *left = left.saturating_sub(1);
            if *left == 0 {
                self.cells_done += 1;
            }
        }
        if row.error.is_some() {
            self.error_cells.insert(row.cell.clone());
        }
        self.paint();
    }

    fn eta(&self) -> String {
        let left = self.trials_total.saturating_sub(self.trials_done);
        if self.trials_done == 0 || left == 0 {
            return "--".to_string();
        }
        let per_trial = self.started.elapsed().as_secs_f64() / self.trials_done as f64;
        let secs = per_trial * left as f64;
        if secs >= 90.0 {
            format!("{:.1}min", secs / 60.0)
        } else {
            format!("{secs:.0}s")
        }
    }

    fn paint(&self) {
        eprint!(
            "\r{}: cells {}/{} · trials {}/{} · {} error cell(s) · ETA {}   ",
            self.name,
            self.cells_done,
            self.cells_total,
            self.trials_done,
            self.trials_total,
            self.error_cells.len(),
            self.eta()
        );
    }

    /// Final repaint plus the newline that releases the status line.
    fn finish(&self) {
        self.paint();
        eprintln!();
    }
}

/// A completed streamed campaign run (one shard of it, possibly
/// resumed).
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// Campaign name.
    pub name: String,
    /// Export file stem (`name`, or `name_shardIofN` when sharded).
    pub stem: String,
    /// This run's trial rows, in grid enumeration order.
    pub rows: Vec<TrialRow>,
    /// Per-cell aggregates of this run's rows (partial cells for a
    /// shard — the merged stream is the authoritative aggregate).
    pub cells: Vec<CellSummary>,
    /// Trials executed by this invocation.
    pub executed: usize,
    /// Trials reloaded from the resumed stream instead of re-run.
    pub resumed: usize,
    /// Files written.
    pub paths: Vec<PathBuf>,
}

/// Rejects a resume against a stream this run must not trust: the
/// JSONL shard header ties a sharded stream to its campaign, its
/// `I/N` spec, and its scenario total, and resuming across a partition
/// mismatch would silently re-seed another shard's slice. A missing,
/// empty, or torn-at-the-first-line stream is fine — there is simply
/// nothing to resume.
fn validate_resume_stream(
    text: &str,
    path: &Path,
    name: &str,
    shard: ShardSpec,
    total: usize,
) -> io::Result<()> {
    let Some(first) = text.lines().next() else {
        return Ok(());
    };
    let reject = |message: String| {
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("refusing to resume {}: {message}", path.display()),
        ))
    };
    match crate::shard::parse_header_line(first) {
        Some((campaign, spec, recorded)) => {
            if shard.is_full() {
                return reject(format!(
                    "stream was written by shard {spec} of campaign {campaign:?} but this \
                     run is unsharded — rerun with --shard {spec}, merge the shards, or \
                     delete the stream"
                ));
            }
            if campaign != name || spec != shard || recorded != total {
                return reject(format!(
                    "stream header records campaign {campaign:?} shard {spec} over \
                     {recorded} scenario(s); this run is campaign {name:?} shard {shard} \
                     over {total} — rerun with the original spec or delete the stream"
                ));
            }
            Ok(())
        }
        None if !shard.is_full() && TrialRow::parse(first).is_ok() => reject(format!(
            "stream has no shard header (written by an unsharded run?) but this run is \
             shard {shard} — resume without --shard or delete the stream"
        )),
        None => Ok(()),
    }
}

/// The resume bookkeeping and the reloaded stream disagreed: a slot
/// that was counted as resumed has no row when it is laid back over
/// the scenario list. The layout loop in [`run_to_dir`] makes this
/// structurally unreachable, so hitting it means the in-memory state
/// was corrupted mid-run — surfaced as a typed `InvalidData` error
/// (downcastable from the `io::Error`) instead of a panic, with the
/// recovery spelled out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeCorruption {
    /// Campaign whose resume pass broke.
    pub campaign: String,
    /// Enumeration index (within this shard's slice) of the bad slot.
    pub slot: usize,
    /// Label of the trial whose resumed row went missing.
    pub trial: String,
}

impl std::fmt::Display for ResumeCorruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "campaign `{}` resume state is corrupt: trial `{}` (slot {}) was counted as \
             resumed but its reloaded row is missing — delete the trial stream or rerun \
             without --resume",
            self.campaign, self.trial, self.slot
        )
    }
}

impl std::error::Error for ResumeCorruption {}

/// Wraps a [`ResumeCorruption`] as the `InvalidData` I/O error
/// [`run_to_dir`] propagates.
fn resume_corruption(campaign: &str, slot: usize, trial: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        ResumeCorruption {
            campaign: campaign.to_string(),
            slot,
            trial: trial.to_string(),
        },
    )
}

/// Keys the trial rows of a (possibly partial) campaign JSONL for
/// resume. Header lines, truncated trailing lines, and any other
/// unparseable content are skipped rather than failing — an
/// interrupted run left them behind.
fn completed_rows(text: &str) -> BTreeMap<String, TrialRow> {
    let mut completed = BTreeMap::new();
    for line in text.lines() {
        if let Ok(row) = TrialRow::parse(line) {
            completed.insert(row.trial_key(), row);
        }
    }
    completed
}

/// Runs `grid` (the `config.shard` slice of it) on `executor`,
/// streaming trial rows to `{stem}_trials.jsonl` under `dir` in
/// enumeration order while the run executes.
///
/// With `config.resume`, an existing stream at that path is scanned
/// first: rows whose trial key **and seed** match a scheduled scenario
/// are reloaded instead of re-run, and the file is rewritten in full —
/// so the final artifact is byte-identical to a fresh run no matter
/// how many times the campaign was interrupted. Unsharded runs also
/// write the per-trial and per-cell CSVs; sharded runs write only
/// their JSONL (CSVs are re-derived by [`merge_files`]).
///
/// # Errors
///
/// Propagates I/O errors from the stream writes, and rejects
/// `config.resume` with `InvalidData` when the existing stream's shard
/// header does not match this run's campaign, `--shard I/N` spec, and
/// scenario total (resuming across a partition mismatch would silently
/// re-seed another shard's slice).
pub fn run_to_dir(
    name: &str,
    grid: &Grid,
    executor: Executor,
    dir: impl AsRef<Path>,
    config: RunConfig,
) -> io::Result<CampaignRun> {
    let dir = dir.as_ref();
    let all = grid.scenarios();
    let total = all.len();
    let scenarios = config.shard.select(&all);
    let stem = config.shard.file_stem(name);
    let jsonl_path = dir.join(format!("{stem}_trials.jsonl"));

    let completed = if config.resume {
        // One read serves both the header check and the row reload; a
        // missing stream simply means there is nothing to resume.
        let text = fs::read_to_string(&jsonl_path).unwrap_or_default();
        validate_resume_stream(&text, &jsonl_path, name, config.shard, total)?;
        completed_rows(&text)
    } else {
        BTreeMap::new()
    };
    let mut rows: Vec<Option<TrialRow>> = vec![None; scenarios.len()];
    let mut todo: Vec<Scenario> = Vec::new();
    let mut todo_pos: Vec<usize> = Vec::new();
    for (i, scenario) in scenarios.iter().enumerate() {
        match completed.get(&scenario.label()) {
            // A stale stream (changed base seed, edited grid) must not
            // satisfy resume: the seed ties the row to the scenario.
            Some(row) if row.seed == scenario.seed => rows[i] = Some(row.clone()),
            _ => {
                todo.push(scenario.clone());
                todo_pos.push(i);
            }
        }
    }
    let resumed = scenarios.len() - todo.len();

    let mut ticker = config
        .progress
        .then(|| ProgressTicker::new(name, &scenarios));
    let mut writer = JsonlWriter::create(&jsonl_path)?;
    if !config.shard.is_full() {
        writer.write_row(&config.shard.header_row(name, total))?;
    }
    // An interruption tears a stream at its tail, so reloaded rows
    // normally form a contiguous prefix: write it back (each row is
    // flushed) before executing anything, so a second interruption
    // never loses progress a first one already paid for.
    let prefix_end = todo_pos.first().copied().unwrap_or(scenarios.len());
    for (i, row) in rows[..prefix_end].iter().enumerate() {
        let row = row
            .as_ref()
            .ok_or_else(|| resume_corruption(name, i, &scenarios[i].label()))?;
        writer.write_row(&row.jsonl_row())?;
        if let Some(t) = ticker.as_mut() {
            t.record(row);
        }
    }
    writer.flush()?;
    // The sink interleaves any remaining reloaded rows with fresh
    // results so the file grows as a valid in-order prefix; I/O
    // failures are latched and re-raised after the pool drains.
    let mut write_err: Option<io::Error> = None;
    let mut cursor = prefix_end;
    let records = executor.map_streamed(&todo, Scenario::run, |j, record| {
        if write_err.is_some() {
            return;
        }
        let pos = todo_pos[j];
        let fresh = TrialRow::from_record(record);
        let result = (cursor..pos)
            .try_for_each(|k| {
                let row = rows[k]
                    .as_ref()
                    .ok_or_else(|| resume_corruption(name, k, &scenarios[k].label()))?;
                writer.write_row(&row.jsonl_row())?;
                if let Some(t) = ticker.as_mut() {
                    t.record(row);
                }
                Ok(())
            })
            .and_then(|()| writer.write_row(&fresh.jsonl_row()))
            // Per-trial flush: the live stream on disk is always a
            // whole-line prefix of the run, so a kill costs at most
            // the in-flight trial.
            .and_then(|()| writer.flush());
        match result {
            Ok(()) => {
                cursor = pos + 1;
                if let Some(t) = ticker.as_mut() {
                    t.record(&fresh);
                }
            }
            Err(e) => write_err = Some(e),
        }
    });
    let executed = records.len();
    for (j, record) in records.iter().enumerate() {
        rows[todo_pos[j]] = Some(TrialRow::from_record(record));
    }
    if let Some(e) = write_err {
        return Err(e);
    }
    let rows: Vec<TrialRow> = rows
        .into_iter()
        .enumerate()
        .map(|(i, row)| row.ok_or_else(|| resume_corruption(name, i, &scenarios[i].label())))
        .collect::<io::Result<_>>()?;
    for row in &rows[cursor..] {
        writer.write_row(&row.jsonl_row())?;
        if let Some(t) = ticker.as_mut() {
            t.record(row);
        }
    }
    writer.finish()?;
    if let Some(t) = ticker.as_ref() {
        t.finish();
    }

    let cells = summarize_rows(&rows);
    let mut paths = vec![jsonl_path];
    if config.shard.is_full() {
        paths.extend(write_trial_csvs(&rows, &cells, dir, &stem)?);
    }
    Ok(CampaignRun {
        name: name.to_string(),
        stem,
        rows,
        cells,
        executed,
        resumed,
        paths,
    })
}

/// Writes the per-trial and per-cell CSVs derived from `rows` under
/// `dir` as `{stem}_trials.csv` / `{stem}_cells.csv` — the one
/// derivation shared by unsharded runs, `merge_files`, and
/// `repro_all --merged`, so the artifacts those paths produce can
/// never drift apart. Returns the two paths.
///
/// # Errors
///
/// Propagates I/O errors from the writes.
pub fn write_trial_csvs(
    rows: &[TrialRow],
    cells: &[CellSummary],
    dir: impl AsRef<Path>,
    stem: &str,
) -> io::Result<[PathBuf; 2]> {
    let dir = dir.as_ref();
    let trials_path = dir.join(format!("{stem}_trials.csv"));
    rows_to_csv(rows).write_to(&trials_path)?;
    let cells_path = dir.join(format!("{stem}_cells.csv"));
    summaries_to_csv(cells).write_to(&cells_path)?;
    Ok([trials_path, cells_path])
}

/// Loads a complete (headerless, e.g. merged or unsharded) trial
/// stream back into rows.
///
/// # Errors
///
/// Returns an I/O error for unreadable files and `InvalidData` for any
/// line that is not a trial row — unlike resume's lenient scan, a
/// stream consumed as an artifact must be whole.
pub fn load_trials(path: impl AsRef<Path>) -> io::Result<Vec<TrialRow>> {
    let path = path.as_ref();
    let text = fs::read_to_string(path)?;
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            TrialRow::parse(line).map_err(|message| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}:{}: {message}", path.display(), i + 1),
                )
            })
        })
        .collect()
}

/// A merged campaign: the reassembled stream plus its re-derived
/// artifacts.
#[derive(Debug, Clone)]
pub struct MergedCampaign {
    /// Campaign name recorded in the shard headers.
    pub name: String,
    /// The merged trial rows, in grid enumeration order.
    pub rows: Vec<TrialRow>,
    /// Per-cell aggregates re-derived from the merged stream.
    pub cells: Vec<CellSummary>,
    /// Files written.
    pub paths: Vec<PathBuf>,
}

/// Merges N sharded trial streams back into the unsharded artifacts:
/// `{name}_trials.jsonl`, `{name}_trials.csv`, and `{name}_cells.csv`
/// under `out_dir`, byte-identical to what an unsharded run writes.
///
/// # Errors
///
/// Returns [`MergeError`] when the inputs are not exactly the N shards
/// of one campaign run (see [`merge_streams`]), or wraps the I/O error
/// if reading an input or writing an artifact fails.
pub fn merge_files<P: AsRef<Path>>(
    out_dir: impl AsRef<Path>,
    inputs: &[P],
) -> Result<MergedCampaign, MergeError> {
    let streams = inputs
        .iter()
        .map(ShardStream::read)
        .collect::<Result<Vec<_>, _>>()?;
    let (name, rows) = merge_streams(streams)?;
    let out_dir = out_dir.as_ref();
    fn io_err(path: &Path) -> impl Fn(io::Error) -> MergeError + '_ {
        move |e| MergeError::Io(format!("{}: {e}", path.display()))
    }
    let jsonl_path = out_dir.join(format!("{name}_trials.jsonl"));
    (|| -> io::Result<()> {
        let mut writer = JsonlWriter::create(&jsonl_path)?;
        for row in &rows {
            writer.write_row(&row.jsonl_row())?;
        }
        writer.finish()?;
        Ok(())
    })()
    .map_err(io_err(&jsonl_path))?;
    let cells = summarize_rows(&rows);
    let [trials_path, cells_path] =
        write_trial_csvs(&rows, &cells, out_dir, &name).map_err(io_err(out_dir))?;
    Ok(MergedCampaign {
        name,
        rows,
        cells,
        paths: vec![jsonl_path, trials_path, cells_path],
    })
}

/// Client-vs-server sweep: all three channels across the client
/// platforms and the §6.4 server extrapolation, quiet vs low noise.
/// Answers "do the channels carry over beyond the paper's parts?".
pub fn client_vs_server(quick: bool) -> Grid {
    Grid::new()
        .platforms(vec![
            PlatformId::CannonLake,
            PlatformId::CoffeeLake,
            PlatformId::SkylakeServer,
        ])
        .kinds(&[ChannelKind::Thread, ChannelKind::Smt, ChannelKind::Cores])
        .noises(vec![NoiseSpec::Quiet, NoiseSpec::Low])
        .payload_symbols(if quick { 8 } else { 40 })
        .calib_reps(if quick { 2 } else { 3 })
        .trials(if quick { 1 } else { 3 })
        .base_seed(0x00C1_1E57)
}

/// Noise-robustness sweep: the same-thread channel under interrupt and
/// context-switch storms across four orders of magnitude (Figure 14(a)
/// generalized to every rate × both event kinds at once).
fn noise_robustness(quick: bool) -> Grid {
    let mut noises = vec![NoiseSpec::Quiet];
    for rate in [10.0, 100.0, 1_000.0, 10_000.0] {
        noises.push(NoiseSpec::Interrupts(rate));
        noises.push(NoiseSpec::CtxSwitches(rate));
    }
    Grid::new()
        .kinds(&[ChannelKind::Thread])
        .noises(noises)
        .payload_symbols(if quick { 40 } else { 250 })
        .calib_reps(3)
        .trials(if quick { 1 } else { 3 })
        .base_seed(0x0014_015E)
}

/// Mitigation-coverage sweep: every §7 mitigation set (including the
/// all-three stack) against every channel — Table 1 generalized to
/// combined defenses.
fn mitigation_coverage(quick: bool) -> Grid {
    Grid::new()
        .kinds(&[ChannelKind::Thread, ChannelKind::Smt, ChannelKind::Cores])
        .mitigation_sets(vec![
            vec![],
            vec![Mitigation::PerCoreVr],
            vec![Mitigation::ImprovedThrottling],
            vec![Mitigation::SecureMode],
            vec![
                Mitigation::PerCoreVr,
                Mitigation::ImprovedThrottling,
                Mitigation::SecureMode,
            ],
        ])
        .payload_symbols(if quick { 24 } else { 60 })
        .calib_reps(if quick { 2 } else { 3 })
        .base_seed(0x7AB_1E1)
}

/// Modulation-capacity sweep: the 4/6/7-level alphabets over the
/// same-thread and cross-core channels, on a client part and the §6.4
/// server extrapolation. Answers the ROADMAP question "how many
/// bits/transaction survive beyond the paper's 2-bit modulation?".
fn modulation_capacity(quick: bool) -> Grid {
    let mut channels = Vec::new();
    for kind in [ChannelKind::Thread, ChannelKind::Cores] {
        for alpha in [
            AlphabetSpec::Paper4,
            AlphabetSpec::Phi6,
            AlphabetSpec::Full7,
        ] {
            channels.push(ChannelSelect::MultiLevel(kind, alpha));
        }
    }
    Grid::new()
        .platforms(vec![PlatformId::CannonLake, PlatformId::SkylakeServer])
        .channels(channels)
        .payload_symbols(if quick { 24 } else { 80 })
        .calib_reps(if quick { 2 } else { 3 })
        .trials(if quick { 1 } else { 3 })
        .base_seed(0x0A1F_ABE7)
}

/// Receiver-calibration sweep: the cross-core channel decoded by the
/// legacy fixed-window receiver, the platform-calibrated adaptive
/// receiver, and an explicit window×votes grid, on the client parts
/// against the §6.4 server extrapolation. Documents the fix for the
/// ROADMAP outlier: the 0.9 mΩ server load-line compresses cross-core
/// separation into the jitter floor, a single fixed-window sample
/// decodes at BER ≈ 0.19, and repeat-and-vote brings the cell below
/// 0.05 while every client cell is already clean at one sample (and
/// stays bit-identical under the calibrated default).
fn receiver_calibration(quick: bool) -> Grid {
    let mut receivers = vec![ReceiverSpec::Legacy, ReceiverSpec::Calibrated];
    for window_scale in [1.0, 2.0] {
        for votes in [3, 5] {
            receivers.push(ReceiverSpec::Fixed {
                window_scale,
                votes,
            });
        }
    }
    Grid::new()
        .platforms(vec![
            PlatformId::CannonLake,
            PlatformId::CoffeeLake,
            PlatformId::SkylakeServer,
        ])
        .kinds(&[ChannelKind::Cores])
        .receivers(receivers)
        .payload_symbols(if quick { 24 } else { 60 })
        .calib_reps(if quick { 2 } else { 3 })
        .trials(if quick { 1 } else { 3 })
        .base_seed(0x00AD_A003)
}

/// Every named campaign, for CLI dispatch: `(name, grid builder)`.
pub fn catalog(quick: bool) -> Vec<(&'static str, Grid)> {
    vec![
        ("client_vs_server", client_vs_server(quick)),
        ("noise_robustness", noise_robustness(quick)),
        ("mitigation_coverage", mitigation_coverage(quick)),
        ("modulation_capacity", modulation_capacity(quick)),
        ("receiver_calibration", receiver_calibration(quick)),
    ]
}

/// Convenience used by the figure harnesses: a single-platform grid
/// over explicit channel selections.
pub fn channel_shootout(
    channels: Vec<ChannelSelect>,
    payload_symbols: usize,
    base_seed: u64,
) -> Grid {
    Grid::new()
        .channels(channels)
        .payload_symbols(payload_symbols)
        .calib_reps(3)
        .base_seed(base_seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique() {
        let cat = catalog(true);
        assert_eq!(cat.len(), 5);
        let mut names: Vec<&str> = cat.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn quick_campaigns_have_expected_shape() {
        // client_vs_server: 3 platforms × 3 kinds × 2 noises, minus the
        // SMT hole on Coffee Lake (no SMT) → 16 scenarios.
        assert_eq!(client_vs_server(true).cardinality(), 18);
        assert_eq!(client_vs_server(true).scenarios().len(), 16);
        // noise_robustness: 1 × 9 noises.
        assert_eq!(noise_robustness(true).scenarios().len(), 9);
        // mitigation_coverage: 3 kinds × 5 sets.
        assert_eq!(mitigation_coverage(true).scenarios().len(), 15);
        // modulation_capacity: 2 platforms × 2 kinds × 3 alphabets.
        assert_eq!(modulation_capacity(true).scenarios().len(), 12);
        // receiver_calibration: 3 platforms × 6 receivers × 1 kind.
        assert_eq!(receiver_calibration(true).scenarios().len(), 18);
    }

    #[test]
    fn resume_corruption_is_typed_and_actionable() {
        let err = resume_corruption("unit", 3, "cannon_lake/IccThreadCovert/quiet/t00");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("slot 3"), "{msg}");
        assert!(msg.contains("rerun without --resume"), "{msg}");
        let inner = err
            .into_inner()
            .expect("carries a source")
            .downcast::<ResumeCorruption>()
            .expect("downcasts to the typed error");
        assert_eq!(inner.campaign, "unit");
        assert_eq!(inner.slot, 3);
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ichannels_lab_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_grid() -> Grid {
        Grid::new()
            .kinds(&[ChannelKind::Thread, ChannelKind::Cores])
            .noises(vec![NoiseSpec::Quiet, NoiseSpec::Low])
            .trials(2)
            .payload_symbols(4)
    }

    #[test]
    fn run_to_dir_matches_the_in_memory_report() {
        let dir = temp_dir("run_to_dir");
        let grid = small_grid();
        let run_out =
            run_to_dir("unit", &grid, Executor::new(3), &dir, RunConfig::default()).unwrap();
        assert_eq!(run_out.executed, 8);
        assert_eq!(run_out.resumed, 0);
        assert_eq!(run_out.paths.len(), 3, "jsonl + trials csv + cells csv");
        let rows: Vec<TrialRow> = run("unit", &grid, Executor::serial())
            .records
            .iter()
            .map(TrialRow::from_record)
            .collect();
        let expected = [
            crate::report::rows_to_jsonl(&rows),
            rows_to_csv(&rows).to_csv(),
            summaries_to_csv(&summarize_rows(&rows)).to_csv(),
        ];
        for (path, want) in run_out.paths.iter().zip(&expected) {
            assert_eq!(
                &std::fs::read_to_string(path).unwrap(),
                want,
                "{} diverges from the in-memory rows",
                path.display()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_runs_merge_back_byte_identical() {
        let dir = temp_dir("shard_merge");
        let grid = small_grid();
        let full = run_to_dir(
            "unit",
            &grid,
            Executor::serial(),
            &dir,
            RunConfig::default(),
        )
        .unwrap();
        let mut shard_paths = Vec::new();
        for index in 0..3 {
            let config = RunConfig {
                shard: ShardSpec::new(index, 3).unwrap(),
                ..RunConfig::default()
            };
            let shard_run = run_to_dir("unit", &grid, Executor::new(2), &dir, config).unwrap();
            assert_eq!(shard_run.paths.len(), 1, "shards write JSONL only");
            // The shard stream leads with its header line.
            let text = std::fs::read_to_string(&shard_run.paths[0]).unwrap();
            assert!(text.starts_with("{\"shard_campaign\":\"unit\""), "{text}");
            shard_paths.push(shard_run.paths[0].clone());
        }
        let merged_dir = temp_dir("shard_merge_out");
        let merged = merge_files(&merged_dir, &shard_paths).unwrap();
        assert_eq!(merged.name, "unit");
        assert_eq!(merged.rows.len(), full.rows.len());
        for (merged_path, full_path) in merged.paths.iter().zip(&full.paths) {
            assert_eq!(
                std::fs::read_to_string(merged_path).unwrap(),
                std::fs::read_to_string(full_path).unwrap(),
                "{} diverges",
                merged_path.display()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&merged_dir);
    }

    #[test]
    fn resume_skips_completed_trials_and_rewrites_identically() {
        let dir = temp_dir("resume");
        let grid = small_grid();
        let fresh = run_to_dir(
            "unit",
            &grid,
            Executor::serial(),
            &dir,
            RunConfig::default(),
        )
        .unwrap();
        let jsonl = &fresh.paths[0];
        let pristine = std::fs::read_to_string(jsonl).unwrap();
        // Simulate an interruption: keep 3 complete rows and one
        // truncated line (the classic torn tail of a killed process).
        let lines: Vec<&str> = pristine.lines().collect();
        let torn = format!(
            "{}\n{}\n",
            lines[..3].join("\n"),
            &lines[3][..lines[3].len() / 2]
        );
        std::fs::write(jsonl, &torn).unwrap();
        let resume = RunConfig {
            resume: true,
            ..RunConfig::default()
        };
        let resumed = run_to_dir("unit", &grid, Executor::new(2), &dir, resume).unwrap();
        assert_eq!(resumed.resumed, 3, "three intact rows reloaded");
        assert_eq!(resumed.executed, 5, "torn + missing trials re-run");
        assert_eq!(std::fs::read_to_string(jsonl).unwrap(), pristine);
        // A second resume of the complete stream re-runs nothing.
        let again = run_to_dir("unit", &grid, Executor::serial(), &dir, resume).unwrap();
        assert_eq!(again.resumed, 8);
        assert_eq!(again.executed, 0);
        assert_eq!(std::fs::read_to_string(jsonl).unwrap(), pristine);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_ignores_stale_seeds() {
        let dir = temp_dir("resume_stale");
        let grid = small_grid();
        run_to_dir(
            "unit",
            &grid,
            Executor::serial(),
            &dir,
            RunConfig::default(),
        )
        .unwrap();
        // A different base seed invalidates every cached row.
        let reseeded = small_grid().base_seed(0xDEAD_BEEF);
        let resume = RunConfig {
            resume: true,
            ..RunConfig::default()
        };
        let rerun = run_to_dir("unit", &reseeded, Executor::serial(), &dir, resume).unwrap();
        assert_eq!(rerun.resumed, 0, "stale rows must not satisfy resume");
        assert_eq!(rerun.executed, 8);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

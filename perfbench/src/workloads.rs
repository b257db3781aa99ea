//! The four workloads. Each is a closed loop run from one process: the
//! next iteration starts when the previous one finishes, and iteration
//! `i` takes its inputs from `mix(seed, i)`, so a seed fixes every
//! iteration's inputs and outputs.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use ichannels::channel::{ChannelConfig, ChannelKind};
use ichannels_analysis::bootstrap::fnv1a;
use ichannels_analysis::{analyze_stream, AnalysisConfig};
use ichannels_lab::campaigns::{self, load_trials, merge_files, RunConfig};
use ichannels_lab::fuzz::{self, gen, FuzzConfig, FuzzReport};
use ichannels_lab::report::rows_to_jsonl;
use ichannels_lab::scenario::{AppKind, AppSpec};
use ichannels_lab::{Executor, Grid, Scenario, ShardSpec, TrialRow};

use crate::probes::catalog_pass;
use crate::stats::{mix, Timers};

/// Names of the workloads, in `BENCHMARK.json` order.
pub const NAMES: &[&str] = &["catalog_cold", "long_transmit", "fuzz_hunt", "stream_post"];

/// What one iteration did and whether its output passed the checks.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Work units done (trials, simulated seconds, cases, or rows).
    pub work: f64,
    /// Units attempted.
    pub attempted: u64,
    /// Units that errored plus checks that failed.
    pub failed: u64,
    /// A description of each failure.
    pub failures: Vec<String>,
    /// FNV-1a digest of the iteration's output bytes.
    pub digest: u64,
}

impl Verdict {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// One workload, set up and ready to iterate.
pub trait Workload {
    /// The timed body of iteration `iter`; the outside timers wrap the
    /// calls it makes into each layer.
    fn run(&mut self, iter: u64, timers: &mut Timers) -> io::Result<()>;
    /// Checks the output of the last `run` (untimed).
    fn verify(&mut self) -> Verdict;
    /// Outside timers that cover a layer of the body (for
    /// `trace.coverage`), beyond the trial span the program emits.
    fn leaf_timers(&self) -> &'static [&'static str] {
        &[]
    }
    /// Two disjoint fresh-seed samples of the body's trials for the
    /// replay: one to time whole, one to decompose.
    fn replay_sample(&self) -> (Vec<Scenario>, Vec<Scenario>) {
        (Vec::new(), Vec::new())
    }
    /// Fuzz findings of the last `run` (0 for the other workloads).
    fn findings(&self) -> u64 {
        0
    }
}

/// Sets up workload `name` for `seed`; `rep` numbers repeated set-ups
/// (only `stream_post` simulates while setting up, and it gives each
/// repetition its own seeds so no repetition is served by the memo).
pub fn setup(name: &str, seed: u64, rep: u64, dir: &Path) -> io::Result<Box<dyn Workload>> {
    fs::create_dir_all(dir)?;
    Ok(match name {
        "catalog_cold" => Box::new(CatalogCold::new(seed, dir)),
        "long_transmit" => Box::new(LongTransmit::new(seed)),
        "fuzz_hunt" => Box::new(FuzzHunt::new(seed)),
        "stream_post" => Box::new(StreamPost::new(seed, rep, dir)?),
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown workload {other:?}; expected one of {NAMES:?}"),
            ))
        }
    })
}

/// Worker threads workload `name`'s body runs on.
pub fn threads(name: &str) -> usize {
    if name == "fuzz_hunt" {
        FUZZ_WORKERS
    } else {
        1
    }
}

/// How `setup_s` is measured: `(up-front set-ups, one more after each
/// iteration)`. Spreading the set-ups over the run makes their median
/// see the same host conditions as the iterations; `stream_post`, whose
/// set-up simulates a catalog pass, sets up only before the loop.
pub fn setup_plan(name: &str) -> (u64, bool) {
    if name == "stream_post" {
        (5, false)
    } else {
        (5, true)
    }
}

// ---------------------------------------------------------------------
// catalog_cold

/// The five full catalog grids through `run_to_dir` on one thread, then
/// `analyze_stream` over the written streams. Pass `i` re-bases every
/// grid on seeds from `mix(seed, ·)`, so no pass reuses a calibration.
struct CatalogCold {
    seed: u64,
    dir: PathBuf,
    expected: Vec<usize>,
    last: Vec<(usize, String, String)>,
}

impl CatalogCold {
    fn new(seed: u64, dir: &Path) -> Self {
        let expected = catalog_pass(seed, 0)
            .iter()
            .map(|(_, grid)| grid.scenarios().len())
            .collect();
        CatalogCold {
            seed,
            dir: dir.to_path_buf(),
            expected,
            last: Vec::new(),
        }
    }
}

impl Workload for CatalogCold {
    fn run(&mut self, iter: u64, t: &mut Timers) -> io::Result<()> {
        self.last.clear();
        for (name, grid) in catalog_pass(self.seed, iter) {
            let run = t.time("lab.campaign", || {
                campaigns::run_to_dir(
                    name,
                    &grid,
                    Executor::new(1),
                    &self.dir,
                    RunConfig::default(),
                )
            })?;
            let text = t.time("io.read", || fs::read_to_string(&run.paths[0]))?;
            let analysis = t
                .time("analysis.add", || {
                    analyze_stream(name, &text, AnalysisConfig::default())
                })
                .map_err(|(line, e)| invalid(format!("{name}:{line}: {e:?}")))?;
            let report = t.time("analysis.finish", || analysis.finish().to_jsonl());
            self.last.push((run.rows.len(), text, report));
        }
        Ok(())
    }

    fn verify(&mut self) -> Verdict {
        let mut v = Verdict::default();
        let mut bytes = Vec::new();
        for ((rows, text, report), expected) in self.last.iter().zip(&self.expected) {
            v.work += *rows as f64;
            v.attempted += *rows as u64;
            v.check(rows == expected, || {
                format!("{rows} rows, grid has {expected}")
            });
            for line in text.lines() {
                match TrialRow::parse(line) {
                    Ok(row) => {
                        v.check(row.jsonl_row().to_json() == line, || {
                            format!("row does not re-render byte-identically: {line}")
                        });
                        v.check(row.error.is_none(), || format!("errored trial: {line}"));
                    }
                    Err(e) => v.check(false, || format!("row does not parse ({e}): {line}")),
                }
            }
            bytes.extend_from_slice(text.as_bytes());
            bytes.extend_from_slice(report.as_bytes());
        }
        v.check(self.last.len() == self.expected.len(), || {
            "a campaign of the pass is missing".to_string()
        });
        v.digest = fnv1a(&bytes);
        v
    }

    fn leaf_timers(&self) -> &'static [&'static str] {
        &["io.read", "analysis.add", "analysis.finish"]
    }

    fn replay_sample(&self) -> (Vec<Scenario>, Vec<Scenario>) {
        let pass = |p: u64| -> Vec<Scenario> {
            catalog_pass(self.seed, p)
                .iter()
                .flat_map(|(_, g)| g.scenarios())
                .collect()
        };
        (pass(1 << 41), pass(1 << 42))
    }
}

// ---------------------------------------------------------------------
// long_transmit

/// The §6.3 experiment: one same-thread trial beside the 7-zip-like app
/// over 60 s of simulated time, through `Scenario::run` on one thread.
struct LongTransmit {
    grid: Grid,
    seed: u64,
    /// The scenarios of the first iterations, enumerated while setting
    /// up; later iterations enumerate their own.
    prepared: Vec<Scenario>,
    last: Option<TrialRow>,
}

/// Iterations whose inputs `long_transmit` prepares while setting up:
/// more than a run of the benchmark ever reaches.
const PREPARED_ITERATIONS: u64 = 64;

/// The Figure 14 / §6.3 grid on a given base seed.
pub fn sevenzip_grid(base_seed: u64) -> Grid {
    let slot_s = ChannelConfig::default_cannon_lake().slot_period.as_secs();
    Grid::new()
        .kinds(&[ChannelKind::Thread])
        .apps(vec![Some(AppSpec {
            kind: AppKind::SevenZip,
            rate_hz: 0.0,
            burst_insts: 0,
        })])
        .payload_symbols((60.0 / slot_s) as usize)
        .calib_reps(3)
        .base_seed(base_seed)
}

impl LongTransmit {
    fn new(seed: u64) -> Self {
        let mut w = LongTransmit {
            grid: sevenzip_grid(seed),
            seed,
            prepared: Vec::new(),
            last: None,
        };
        w.prepared = (0..PREPARED_ITERATIONS).map(|i| w.scenario(i)).collect();
        w
    }

    fn scenario(&self, stream: u64) -> Scenario {
        let scenarios = self
            .grid
            .clone()
            .base_seed(mix(self.seed, stream))
            .scenarios();
        scenarios
            .into_iter()
            .next()
            .expect("the 7-zip grid has one cell")
    }
}

impl Workload for LongTransmit {
    fn run(&mut self, iter: u64, t: &mut Timers) -> io::Result<()> {
        let scenario = match self.prepared.get(iter as usize) {
            Some(s) => s.clone(),
            None => self.scenario(iter),
        };
        let record = t.time("lab.trial", || scenario.run());
        self.last = Some(TrialRow::from_record(&record));
        Ok(())
    }

    fn verify(&mut self) -> Verdict {
        let mut v = Verdict {
            attempted: 1,
            ..Verdict::default()
        };
        let Some(row) = &self.last else {
            v.check(false, || "no trial ran".to_string());
            return v;
        };
        let m = &row.metrics;
        v.check(row.error.is_none(), || {
            format!("trial errored: {:?}", row.error)
        });
        v.check(m.ber < 0.07, || {
            format!("BER {} is not below 0.07 (§6.3)", m.ber)
        });
        v.check((2_800.0..=3_000.0).contains(&m.throughput_bps), || {
            format!(
                "throughput {} b/s is outside 2.8-3.0 kb/s (§6.2)",
                m.throughput_bps
            )
        });
        // Simulated transmission time: two bits per symbol at the
        // measured throughput.
        v.work = m.n_symbols as f64 * 2.0 / m.throughput_bps;
        v.digest = fnv1a(row.jsonl_row().to_json().as_bytes());
        v
    }

    fn replay_sample(&self) -> (Vec<Scenario>, Vec<Scenario>) {
        (vec![self.scenario(1 << 41)], vec![self.scenario(1 << 42)])
    }
}

// ---------------------------------------------------------------------
// fuzz_hunt

/// Seeded cases per fuzz run.
const FUZZ_CASES: u64 = 512;

/// Pool workers of the fuzz run.
const FUZZ_WORKERS: usize = 2;

/// `fuzz::run` over seeded cases on two workers.
struct FuzzHunt {
    seed: u64,
    executor: Executor,
    /// The cases the first run samples, drawn while setting up; the
    /// check that findings name their sampled cells reads them.
    first_cases: Vec<Scenario>,
    last: Option<(u64, FuzzReport)>,
}

impl FuzzHunt {
    fn new(seed: u64) -> Self {
        let mut w = FuzzHunt {
            seed,
            executor: Executor::new(FUZZ_WORKERS),
            first_cases: Vec::new(),
            last: None,
        };
        w.first_cases = w.cases(0);
        w
    }

    fn config(&self, stream: u64) -> FuzzConfig {
        FuzzConfig {
            seed: mix(self.seed, stream),
            cases: FUZZ_CASES,
            ..FuzzConfig::default()
        }
    }

    fn cases(&self, stream: u64) -> Vec<Scenario> {
        let cfg = self.config(stream);
        (0..cfg.cases)
            .map(|case| gen::sample_scenario(cfg.seed, case))
            .collect()
    }
}

impl Workload for FuzzHunt {
    fn run(&mut self, iter: u64, t: &mut Timers) -> io::Result<()> {
        let config = self.config(iter);
        let executor = self.executor;
        self.last = Some((iter, t.time("lab.fuzz", || fuzz::run(&config, &executor))));
        Ok(())
    }

    fn verify(&mut self) -> Verdict {
        let mut v = Verdict {
            attempted: FUZZ_CASES,
            ..Verdict::default()
        };
        let Some((iter, report)) = &self.last else {
            v.check(false, || "no fuzz run".to_string());
            return v;
        };
        let sampled = if *iter == 0 {
            self.first_cases.clone()
        } else {
            self.cases(*iter)
        };
        v.work = report.cases_run as f64;
        v.check(report.cases_run as u64 == FUZZ_CASES, || {
            format!("{} of {FUZZ_CASES} cases ran", report.cases_run)
        });
        for finding in &report.findings {
            // A purity violation means a trial is not a pure function
            // of its scenario: the byte contract is broken.
            v.check(finding.kind != "purity-violation", || {
                format!("purity violation in case {}", finding.case)
            });
            let cell = sampled.get(finding.case as usize).map(Scenario::cell_key);
            v.check(cell.as_deref() == Some(finding.cell.as_str()), || {
                format!("finding for case {} names another cell", finding.case)
            });
        }
        v.digest = fnv1a(report.to_jsonl().as_bytes());
        v
    }

    fn replay_sample(&self) -> (Vec<Scenario>, Vec<Scenario>) {
        (self.cases(1 << 41), self.cases(1 << 42))
    }

    fn findings(&self) -> u64 {
        self.last
            .as_ref()
            .map_or(0, |(_, r)| r.findings.len() as u64)
    }
}

// ---------------------------------------------------------------------
// stream_post

/// Rows per cell of the synthetic stream: above the analysis reservoir
/// (512), so the reservoir's sampling path runs.
pub const ROWS_PER_CELL: usize = 520;

/// Shards the stream is rendered as.
const SHARDS: usize = 3;

/// Name of the synthetic campaign.
const STREAM_NAME: &str = "stream_post";

/// No simulation in the body: the stream is rendered as three shard
/// streams, merged, reloaded, and analyzed.
struct StreamPost {
    dir: PathBuf,
    rows: Vec<TrialRow>,
    unsharded: String,
    merged: Option<(String, usize, String)>,
}

/// Builds the synthetic stream from real rows: each cell of `source`
/// gets `per_cell` rows, cycling through its real rows, each re-indexed
/// with a fresh trial number and seed. Cells keep their first-seen
/// order.
pub fn synthetic_stream(source: &[TrialRow], per_cell: usize) -> Vec<TrialRow> {
    let mut cells: Vec<(String, Vec<&TrialRow>)> = Vec::new();
    for row in source {
        match cells.iter_mut().find(|(cell, _)| *cell == row.cell) {
            Some((_, rows)) => rows.push(row),
            None => cells.push((row.cell.clone(), vec![row])),
        }
    }
    let mut out = Vec::with_capacity(cells.len() * per_cell);
    for (_, rows) in &cells {
        for k in 0..per_cell {
            let mut row = rows[k % rows.len()].clone();
            row.trial = k as u64;
            row.seed = mix(row.seed, k as u64);
            out.push(row);
        }
    }
    out
}

/// Renders `rows` as shard `index` of `count`, header line first.
pub fn render_shard(rows: &[TrialRow], index: usize, count: usize) -> String {
    let spec = ShardSpec::new(index, count).expect("index below count");
    let header = spec.header_row(STREAM_NAME, rows.len()).to_json();
    format!("{header}\n{}", rows_to_jsonl(&spec.select(rows)))
}

impl StreamPost {
    fn new(seed: u64, rep: u64, dir: &Path) -> io::Result<Self> {
        let source: Vec<TrialRow> = catalog_pass(mix(seed, rep), 0)
            .iter()
            .flat_map(|(name, grid)| campaigns::run(name, grid, Executor::new(1)).records)
            .map(|record| TrialRow::from_record(&record))
            .collect();
        // Every sixteenth cell: one cell from each of the five campaigns,
        // and an iteration short enough for a steady median.
        let mut cells: Vec<&str> = Vec::new();
        for row in &source {
            if !cells.contains(&row.cell.as_str()) {
                cells.push(&row.cell);
            }
        }
        let kept: Vec<TrialRow> = source
            .iter()
            .filter(|row| {
                cells
                    .iter()
                    .position(|c| *c == row.cell)
                    .is_some_and(|i| i % 16 == 0)
            })
            .cloned()
            .collect();
        let rows = synthetic_stream(&kept, ROWS_PER_CELL);
        let unsharded = rows_to_jsonl(&rows);
        Ok(StreamPost {
            dir: dir.to_path_buf(),
            rows,
            unsharded,
            merged: None,
        })
    }
}

impl Workload for StreamPost {
    fn run(&mut self, _iter: u64, t: &mut Timers) -> io::Result<()> {
        let mut paths = Vec::with_capacity(SHARDS);
        for index in 0..SHARDS {
            let text = t.time("meter.render", || render_shard(&self.rows, index, SHARDS));
            let path = self.dir.join(format!("shard{index}.jsonl"));
            t.time("io.write", || fs::write(&path, text))?;
            paths.push(path);
        }
        let out_dir = self.dir.join("merged");
        fs::create_dir_all(&out_dir)?;
        let merged = t
            .time("lab.shard.merge", || merge_files(&out_dir, &paths))
            .map_err(|e| invalid(e.to_string()))?;
        let loaded = t.time("meter.parse", || load_trials(&merged.paths[0]))?;
        let text = t.time("io.read", || fs::read_to_string(&merged.paths[0]))?;
        let analysis = t
            .time("analysis.add", || {
                analyze_stream(STREAM_NAME, &text, AnalysisConfig::default())
            })
            .map_err(|(line, e)| invalid(format!("merged stream line {line}: {e:?}")))?;
        let report = t.time("analysis.finish", || analysis.finish().to_jsonl());
        self.merged = Some((text, loaded.len(), report));
        Ok(())
    }

    fn verify(&mut self) -> Verdict {
        let n = self.rows.len();
        let mut v = Verdict {
            work: n as f64,
            attempted: n as u64,
            ..Verdict::default()
        };
        let Some((text, loaded, report)) = &self.merged else {
            v.check(false, || "no merge ran".to_string());
            return v;
        };
        v.check(*text == self.unsharded, || {
            "merged stream differs from the unsharded render".to_string()
        });
        v.check(*loaded == n, || format!("reloaded {loaded} of {n} rows"));
        let mut bytes = text.as_bytes().to_vec();
        bytes.extend_from_slice(report.as_bytes());
        v.digest = fnv1a(&bytes);
        v
    }

    fn leaf_timers(&self) -> &'static [&'static str] {
        &[
            "meter.render",
            "io.write",
            "lab.shard.merge",
            "meter.parse",
            "io.read",
            "analysis.add",
            "analysis.finish",
        ]
    }
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use ichannels::channel::calibration::fingerprint;
    use ichannels_lab::scenario::{ChannelSelect, NoiseSpec};

    use super::*;

    #[test]
    fn catalog_passes_never_share_a_calibration_fingerprint() {
        let mut seen = BTreeSet::new();
        let mut total = 0;
        for pass in 0..6 {
            for (_, grid) in catalog_pass(7, pass) {
                for s in grid.scenarios() {
                    let kind = match s.channel {
                        ChannelSelect::Icc(kind) | ChannelSelect::MultiLevel(kind, _) => kind,
                        other => panic!("catalog holds only channel trials, got {other:?}"),
                    };
                    seen.insert(fingerprint(kind, &s.channel_config(), s.calib_reps));
                    total += 1;
                }
            }
        }
        assert_eq!(total, 6 * 180);
        assert_eq!(
            seen.len(),
            total,
            "a fingerprint recurs, so the memo could hit"
        );
    }

    #[test]
    fn synthetic_stream_merges_back_byte_identically() {
        let grid = Grid::new()
            .kinds(&[ChannelKind::Thread, ChannelKind::Cores])
            .noises(vec![NoiseSpec::Quiet, NoiseSpec::Low])
            .trials(2)
            .payload_symbols(4);
        let source: Vec<TrialRow> = campaigns::run("unit", &grid, Executor::new(1))
            .records
            .iter()
            .map(TrialRow::from_record)
            .collect();
        let rows = synthetic_stream(&source, 7);
        assert_eq!(
            rows.len(),
            4 * 7,
            "every cell gets exactly the requested rows"
        );
        let keys: BTreeSet<String> = rows.iter().map(TrialRow::trial_key).collect();
        assert_eq!(keys.len(), rows.len(), "trial keys are fresh");

        let dir = std::env::temp_dir().join(format!("perfbench_merge_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let paths: Vec<PathBuf> = (0..SHARDS)
            .map(|i| {
                let path = dir.join(format!("shard{i}.jsonl"));
                fs::write(&path, render_shard(&rows, i, SHARDS)).unwrap();
                path
            })
            .collect();
        let merged = merge_files(dir.join("out"), &paths).unwrap();
        let text = fs::read_to_string(&merged.paths[0]).unwrap();
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(text, rows_to_jsonl(&rows));
    }

    #[test]
    fn stream_cells_exceed_the_analysis_reservoir() {
        assert!(ROWS_PER_CELL > AnalysisConfig::default().reservoir);
    }
}

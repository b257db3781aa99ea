//! Runs `ichannels-lab` experiment campaigns from the command line,
//! optionally sharded across processes and resumable after an
//! interruption.
//!
//! ```text
//! campaign [--campaign NAME|all] [--threads N] [--quick]
//!          [--shard I/N] [--resume] [--telemetry DIR] [--progress]
//!          [--fail-on-error]
//! campaign list [--json] [--quick]
//! campaign merge [--fail-on-error] <out-dir> <shard_trials.jsonl>...
//! campaign fuzz [--seed S] [--cases N] [--tolerance T] [--shard I/N]
//!               [--threads N]
//! campaign fuzz merge <out.jsonl> <shard_findings.jsonl>...
//! campaign profile [--campaign NAME|all] [--quick] [--threads N]
//! campaign telemetry <out.json> <telemetry.json>...
//! campaign analyze [--json] [--seed S] [--resamples B] <dir>
//! ```
//!
//! Campaigns: `client_vs_server`, `noise_robustness`,
//! `mitigation_coverage`, `modulation_capacity`,
//! `receiver_calibration`, or `all`. Results
//! stream to `results/<name>_trials.jsonl` (plus per-trial and
//! per-cell CSVs for unsharded runs; override the directory with
//! `ICHANNELS_RESULTS`). `--shard I/N` runs the deterministic
//! round-robin slice `I` of `N` and suffixes the stream
//! `<name>_shardIofN_trials.jsonl`; `merge` reassembles N such streams
//! into artifacts byte-identical to an unsharded run. `--resume` scans
//! an existing stream and skips its completed trials.
//!
//! `--fail-on-error` (on `run` and `merge`) exits nonzero when any
//! trial recorded a typed `ChannelError`, so CI catches error cells
//! instead of scrolling past the "N trial(s), K errored" line.
//!
//! `fuzz` samples `--cases` randomized scenarios from `--seed` across
//! every lab axis, judges each against the load-line/guard-band
//! envelope model and the engine invariants, shrinks anything flagged
//! to a minimal reproducer, and writes the replayable
//! `results/fuzz_findings.jsonl` (suffixed `_shardIofN` when sharded;
//! `fuzz merge` reassembles shard findings byte-identically).
//!
//! `list` prints the catalog with its scenario counts (quick counts
//! with `--quick`); `list --json` prints it machine-readable (name,
//! axes with value labels, cell and scenario counts) so a dispatcher
//! can enumerate work without parsing human output.
//!
//! Every subcommand exits 2 on a bad invocation (an unknown flag, a
//! missing or unparseable flag value, an unknown campaign) before it
//! writes anything, and 1 when the work itself fails.
//!
//! `analyze` runs the `ichannels-analysis` statistics layer over every
//! `<name>_trials.jsonl` stream in a directory (an unsharded results
//! dir or a `campaign merge` output dir — lone shard streams are
//! rejected with a pointer to `merge`) and writes the per-cell /
//! per-axis capacity and error-rate report to `<dir>/analysis.jsonl`;
//! the bytes depend only on the trial-row set and the analysis
//! configuration (see `docs/METHODOLOGY.md`). `--json` echoes the
//! report to stdout.
//!
//! Observability (all strictly out-of-band — artifacts are
//! byte-identical with every flag on or off): `--telemetry DIR` runs
//! with the `ichannels-obs` layer enabled and writes the merged
//! snapshot to `DIR/telemetry.json` (suffixed `_shardIofN` when
//! sharded) next to — never inside — the JSONL; `--progress` paints a
//! stderr ticker (cells done/total, ETA, error cells); `profile` runs
//! campaigns with spans enabled and prints the per-phase time
//! breakdown; `telemetry` merges shard snapshots back into one and
//! sanity-checks the schema.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

use ichannels_analysis::AnalysisConfig;
use ichannels_lab::campaigns::{self, RunConfig};
use ichannels_lab::fuzz::{self, findings};
use ichannels_lab::{Executor, FuzzConfig, Grid, Scenario, ShardSpec};
use ichannels_obs::json::escape;

/// What a subcommand ends with: `Ok` exits 0, `Err` carries the exit
/// code (2 for a bad invocation, 1 for a failed run).
type Outcome = Result<(), ExitCode>;

fn campaign_names() -> String {
    campaigns::catalog(true)
        .iter()
        .map(|(name, _)| *name)
        .collect::<Vec<_>>()
        .join(", ")
}

fn usage_text() -> String {
    format!(
        "usage: campaign [--campaign NAME|all] [--threads N] [--quick]\n\
         \x20                [--shard I/N] [--resume] [--telemetry DIR] [--progress]\n\
         \x20                [--fail-on-error]\n\
         \x20      campaign list [--json] [--quick]\n\
         \x20      campaign merge [--fail-on-error] <out-dir> <shard_trials.jsonl>...\n\
         \x20      campaign fuzz [--seed S] [--cases N] [--tolerance T] [--shard I/N]\n\
         \x20                    [--threads N]\n\
         \x20      campaign fuzz merge <out.jsonl> <shard_findings.jsonl>...\n\
         \x20      campaign profile [--campaign NAME|all] [--quick] [--threads N]\n\
         \x20      campaign telemetry <out.json> <telemetry.json>...\n\
         \x20      campaign analyze [--json] [--seed S] [--resamples B] <dir>\n\
         campaigns: {}",
        campaign_names()
    )
}

fn usage() -> ExitCode {
    eprintln!("{}", usage_text());
    ExitCode::from(2)
}

/// Prints `message` and yields the failed-run exit code.
fn fail(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("{message}");
    ExitCode::FAILURE
}

/// The value after a flag, read by `parse`. A missing value, or one
/// `parse` rejects, is a usage error.
fn value<'a, T>(
    args: &mut impl Iterator<Item = &'a String>,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, ExitCode> {
    args.next().and_then(|v| parse(v)).ok_or_else(usage)
}

/// A value read with its type's `FromStr`.
fn parsed<T: FromStr>(v: &str) -> Option<T> {
    v.parse().ok()
}

/// A `--threads` value: a worker count of at least one.
fn parse_threads(v: &str) -> Option<usize> {
    parsed(v).filter(|&n| n >= 1)
}

/// A seed (`fuzz --seed`, `analyze --seed`): decimal or `0x`-prefixed
/// hex.
fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// A `--shard I/N` value. A malformed spec exits 2 with its own
/// `invalid shard spec` message rather than the usage text.
fn shard_value<'a>(args: &mut impl Iterator<Item = &'a String>) -> Result<ShardSpec, ExitCode> {
    value(args, |v| Some(ShardSpec::parse(v)))?.map_err(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}

/// The catalog campaigns `which` names (`all` selects every one). An
/// unknown name is a usage error that lists the catalog.
fn select(which: &str, quick: bool) -> Result<Vec<(&'static str, Grid)>, ExitCode> {
    let selected: Vec<_> = campaigns::catalog(quick)
        .into_iter()
        .filter(|(name, _)| which == "all" || which == *name)
        .collect();
    if selected.is_empty() {
        eprintln!(
            "unknown campaign {which:?}; valid campaigns: {}, all",
            campaign_names()
        );
        return Err(ExitCode::from(2));
    }
    Ok(selected)
}

/// Writes `contents` to `path`, creating its parent directory first.
fn write_file(path: &Path, contents: &str) -> Outcome {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| fail(format!("cannot create {}: {e}", parent.display())))?;
    }
    std::fs::write(path, contents)
        .map_err(|e| fail(format!("cannot write {}: {e}", path.display())))
}

fn merge_main(args: &[String]) -> Outcome {
    let fail_on_error = args.iter().any(|a| a == "--fail-on-error");
    let args: Vec<&String> = args.iter().filter(|a| *a != "--fail-on-error").collect();
    let (out_dir, inputs) = match &args[..] {
        [] => {
            eprintln!("merge needs an output directory and at least two shard streams");
            return Err(usage());
        }
        [out_dir] => {
            eprintln!(
                "merge {out_dir}: no shard streams given — pass every \
                 <name>_shardIofN_trials.jsonl of one campaign"
            );
            return Err(usage());
        }
        [out_dir, single] => {
            eprintln!(
                "merge {out_dir}: only one shard stream given ({single}) — a lone stream \
                 is either already complete (unsharded) or missing its sibling shards; \
                 pass every shard of the campaign, or copy the file instead of merging"
            );
            return Err(usage());
        }
        [out_dir, inputs @ ..] => (PathBuf::from(out_dir), inputs),
    };
    let inputs: Vec<PathBuf> = inputs.iter().map(PathBuf::from).collect();
    let merged = campaigns::merge_files(&out_dir, &inputs)
        .map_err(|e| fail(format!("merge failed: {e}")))?;
    println!(
        "merged {} shard stream(s) of campaign {}: {} trials, {} cells",
        inputs.len(),
        merged.name,
        merged.rows.len(),
        merged.cells.len()
    );
    println!("  {}", error_summary(&merged.rows));
    for p in &merged.paths {
        println!("  wrote {}", p.display());
    }
    let errored = errored_count(&merged.rows);
    if fail_on_error && errored > 0 {
        return Err(fail(format!(
            "merge failed --fail-on-error: {errored} trial(s) errored"
        )));
    }
    Ok(())
}

/// Trials that recorded a typed `ChannelError` — what `--fail-on-error`
/// gates on.
fn errored_count(rows: &[ichannels_lab::TrialRow]) -> usize {
    rows.iter().filter(|r| r.error.is_some()).count()
}

/// The one-line error-cell summary printed after `run` and `merge`
/// so typed `ChannelError`s are visible without grepping JSONL.
fn error_summary(rows: &[ichannels_lab::TrialRow]) -> String {
    format!("{} trial(s), {} errored", rows.len(), errored_count(rows))
}

/// Renders one catalog entry as a JSON object: name, cell/scenario
/// counts, per-cell shape, and every axis with its value labels.
fn campaign_json(name: &str, grid: &Grid, quick: bool) -> String {
    let scenarios = grid.scenarios();
    let cells: BTreeSet<String> = scenarios.iter().map(Scenario::cell_key).collect();
    let axes = grid
        .axes()
        .iter()
        .map(|a| {
            let values = a
                .values
                .iter()
                .map(|v| format!("\"{}\"", escape(v)))
                .collect::<Vec<_>>()
                .join(",");
            format!("\"{}\":[{values}]", a.axis)
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"name\":\"{}\",\"quick\":{quick},\"cells\":{},\"scenarios\":{},\
         \"trials_per_cell\":{},\"payload_symbols\":{},\"axes\":{{{axes}}}}}",
        escape(name),
        cells.len(),
        scenarios.len(),
        grid.trials_per_cell(),
        grid.payload_symbols_per_trial(),
    )
}

fn list_main(args: &[String]) -> Outcome {
    let mut json = false;
    let mut quick = false;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            "--quick" => quick = true,
            other => {
                eprintln!("unknown list argument: {other}");
                return Err(usage());
            }
        }
    }
    let catalog = campaigns::catalog(quick);
    if json {
        let entries: Vec<String> = catalog
            .iter()
            .map(|(name, grid)| campaign_json(name, grid, quick))
            .collect();
        println!("[\n{}\n]", entries.join(",\n"));
    } else {
        for (name, grid) in catalog {
            println!(
                "{name} ({} {} scenario(s), {} trial(s)/cell)",
                grid.scenarios().len(),
                if quick { "quick" } else { "full" },
                grid.trials_per_cell()
            );
        }
    }
    Ok(())
}

/// The five trial phases `campaign profile` breaks a run into, in
/// pipeline order. Span histograms record nanoseconds under these
/// exact names.
const TRIAL_PHASES: [&str; 5] = [
    "trial.resolve",
    "trial.config",
    "trial.calibration",
    "trial.transmit",
    "trial.metrics",
];

/// `campaign profile [--campaign NAME|all] [--quick] [--threads N]`:
/// runs each selected campaign with spans enabled and prints the
/// per-phase time breakdown. Defaults to one thread so the phase sums
/// are directly comparable to wall time (on N threads the busy sums
/// exceed one wall clock).
fn profile_main(args: &[String]) -> Outcome {
    let mut which = "all".to_string();
    let mut quick = false;
    let mut threads = 1usize;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--campaign" | "-c" => which = value(&mut iter, parsed)?,
            "--quick" => quick = true,
            "--threads" | "-j" => threads = value(&mut iter, parse_threads)?,
            other => {
                eprintln!("unknown profile argument: {other}");
                return Err(usage());
            }
        }
    }
    let selected = select(&which, quick)?;

    let executor = Executor::new(threads);
    for (name, grid) in selected {
        let scenarios = grid.scenarios();
        ichannels_bench::banner(&format!(
            "campaign profile {name}: {} scenario(s) on {threads} thread(s)",
            scenarios.len()
        ));
        ichannels_obs::reset();
        ichannels_obs::set_enabled(true);
        let started = Instant::now();
        let records = executor.run(&scenarios);
        let wall = started.elapsed();
        ichannels_obs::set_enabled(false);
        let snap = ichannels_obs::global().snapshot();

        let wall_ns = wall.as_nanos() as f64;
        println!(
            "  {:<18} {:>12} {:>7} {:>8} {:>12}",
            "phase", "total ms", "share", "samples", "mean µs"
        );
        let mut phase_sum_ns = 0u64;
        for phase in TRIAL_PHASES {
            let h = snap.histogram(phase);
            phase_sum_ns += h.sum;
            println!(
                "  {:<18} {:>12.1} {:>6.1}% {:>8} {:>12.1}",
                phase.trim_start_matches("trial."),
                h.sum as f64 / 1e6,
                h.sum as f64 / wall_ns * 100.0,
                h.count,
                h.mean() / 1e3,
            );
        }
        let total = snap.histogram("trial.total");
        println!(
            "  {:<18} {:>12.1} {:>6.1}% {:>8} {:>12.1}",
            "(trial total)",
            total.sum as f64 / 1e6,
            total.sum as f64 / wall_ns * 100.0,
            total.count,
            total.mean() / 1e3,
        );
        println!(
            "  phases sum to {:.1} ms = {:.1}% of {:.1} ms wall",
            phase_sum_ns as f64 / 1e6,
            phase_sum_ns as f64 / wall_ns * 100.0,
            wall_ns / 1e6,
        );
        let step = snap.histogram("soc.step_ns");
        println!(
            "  soc stepping: {:.1} ms over {} rearm(s), {} slot(s) simulated",
            step.sum as f64 / 1e6,
            snap.counter("soc.rearms"),
            snap.counter("soc.slots_simulated"),
        );
        println!(
            "  calibration: {} training(s)",
            snap.counter("calibration.requests"),
        );
        let errored = records.iter().filter(|r| r.error.is_some()).count();
        println!("  {} trial(s), {errored} errored", records.len());
    }
    Ok(())
}

/// `campaign telemetry <out.json> <telemetry.json>...`: merges shard
/// telemetry snapshots back into one (associatively — any grouping
/// gives the same bytes) and sanity-checks the result: the schema tag
/// and a non-zero trial count. The CI merge job runs this over the
/// shard artifacts.
fn telemetry_main(args: &[String]) -> Outcome {
    let [out, inputs @ ..] = args else {
        eprintln!("telemetry needs an output path and at least one snapshot");
        return Err(usage());
    };
    if inputs.is_empty() {
        eprintln!("telemetry {out}: no input snapshots given");
        return Err(usage());
    }
    let mut merged = ichannels_obs::MetricsSnapshot::new();
    for input in inputs {
        let text = std::fs::read_to_string(input)
            .map_err(|e| fail(format!("cannot read {input}: {e}")))?;
        let snap = ichannels_obs::MetricsSnapshot::parse(&text)
            .map_err(|e| fail(format!("{input}: {e}")))?;
        merged.merge(&snap);
    }
    let trials = merged.counter("trial.runs");
    if trials == 0 {
        return Err(fail(
            "sanity check failed: merged snapshot records zero trials (trial.runs)",
        ));
    }
    let out = PathBuf::from(out);
    write_file(&out, &format!("{}\n", merged.to_json()))?;
    println!(
        "merged {} snapshot(s): {trials} trial(s), {} calibration request(s), {} error(s)",
        inputs.len(),
        merged.counter("calibration.requests"),
        merged.counter("trial.errors"),
    );
    println!("  wrote {}", out.display());
    Ok(())
}

fn analyze_main(args: &[String]) -> Outcome {
    let mut json = false;
    let mut config = AnalysisConfig::default();
    let mut dir: Option<PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--seed" => config.seed = value(&mut iter, parse_seed)?,
            "--resamples" => config.resamples = value(&mut iter, parsed)?,
            other if dir.is_none() && !other.starts_with('-') => dir = Some(PathBuf::from(other)),
            other => {
                eprintln!("unknown analyze argument: {other}");
                return Err(usage());
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("analyze needs a directory of <name>_trials.jsonl streams");
        return Err(usage());
    };

    let streams: Vec<(String, PathBuf)> = std::fs::read_dir(&dir)
        .map_err(|e| fail(format!("cannot read {}: {e}", dir.display())))?
        .filter_map(Result::ok)
        .filter_map(|entry| {
            let name = entry.file_name().into_string().ok()?;
            let campaign = name.strip_suffix("_trials.jsonl")?;
            Some((campaign.to_string(), entry.path()))
        })
        .collect();
    if streams.is_empty() {
        return Err(fail(format!(
            "analyze {}: no <name>_trials.jsonl streams found — point it at an \
             unsharded results directory or a `campaign merge` output directory",
            dir.display()
        )));
    }

    let out = dir.join("analysis.jsonl");
    let document = ichannels_bench::analyze_streams(streams, config, &out).map_err(fail)?;
    if json {
        print!("{document}");
    }
    println!("wrote {}", out.display());
    Ok(())
}

/// `campaign fuzz merge <out.jsonl> <shard_findings.jsonl>...`:
/// reassembles shard findings into the unsharded report. Findings are
/// pure in their case index, so sorting by case re-interleaves the
/// shards into exactly the bytes an unsharded run writes.
fn fuzz_merge_main(args: &[String]) -> Outcome {
    let [out, inputs @ ..] = args else {
        eprintln!("fuzz merge needs an output path and at least one shard findings file");
        return Err(usage());
    };
    if inputs.is_empty() {
        eprintln!("fuzz merge {out}: no shard findings given");
        return Err(usage());
    }
    let mut all = Vec::new();
    for input in inputs {
        let text = std::fs::read_to_string(input)
            .map_err(|e| fail(format!("cannot read {input}: {e}")))?;
        for (n, line) in text.lines().enumerate() {
            let finding = findings::Finding::parse(line)
                .map_err(|e| fail(format!("{input}:{}: {e}", n + 1)))?;
            all.push(finding);
        }
    }
    let merged = findings::merge_findings(all);
    let out = PathBuf::from(out);
    write_file(&out, &findings::findings_to_jsonl(&merged))?;
    println!(
        "merged {} shard findings file(s): {} finding(s)",
        inputs.len(),
        merged.len()
    );
    println!("  wrote {}", out.display());
    Ok(())
}

/// `campaign fuzz [--seed S] [--cases N] [--tolerance T] [--shard I/N]
/// [--threads N]`: the randomized-scenario anomaly hunter. Samples,
/// judges, and shrinks on the worker pool, then writes the replayable
/// findings report under the results directory. Exit code reflects the
/// run, not the findings — a finding is a report row to triage into a
/// pinned test, not a CI failure by itself.
fn fuzz_main(args: &[String]) -> Outcome {
    if args.first().map(String::as_str) == Some("merge") {
        return fuzz_merge_main(&args[1..]);
    }
    let mut config = FuzzConfig::default();
    let mut threads: Option<usize> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seed" => config.seed = value(&mut iter, parse_seed)?,
            "--cases" => config.cases = value(&mut iter, parsed)?,
            "--tolerance" => {
                config.tolerance =
                    value(&mut iter, |v| parsed(v).filter(|t| (0.0..=1.0).contains(t)))?
            }
            "--shard" => config.shard = shard_value(&mut iter)?,
            "--threads" | "-j" => threads = Some(value(&mut iter, parse_threads)?),
            other => {
                eprintln!("unknown fuzz argument: {other}");
                return Err(usage());
            }
        }
    }
    let executor = threads.map_or_else(Executor::auto, Executor::new);
    ichannels_bench::banner(&format!(
        "campaign fuzz: {} case(s), seed {:#x}{} on {} threads",
        config.cases,
        config.seed,
        if config.shard.is_full() {
            String::new()
        } else {
            format!(" [shard {}]", config.shard)
        },
        executor.threads()
    ));
    let report = fuzz::run(&config, &executor);
    for f in &report.findings {
        println!(
            "  case {:>5}: {} at {} (measured {:.4}, allowed {:.4}; shrunk from {})",
            f.case, f.kind, f.shrunk_cell, f.shrunk_measured, f.shrunk_allowed, f.cell
        );
    }
    println!(
        "  {} case(s) judged, {} finding(s)",
        report.cases_run,
        report.findings.len()
    );
    let path = ichannels_bench::results_dir()
        .join(format!("{}.jsonl", config.shard.file_stem("fuzz_findings")));
    write_file(&path, &report.to_jsonl())?;
    println!("  wrote {}", path.display());
    Ok(())
}

/// `campaign [--campaign NAME|all] [--threads N] [--quick] ...`: runs
/// the selected catalog campaigns into the results directory.
fn run_main(args: &[String]) -> Outcome {
    let mut which = "all".to_string();
    let mut threads: Option<usize> = None;
    let mut quick = false;
    let mut config = RunConfig::default();
    let mut fail_on_error = false;
    let mut telemetry: Option<PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--campaign" | "-c" => which = value(&mut iter, parsed)?,
            "--threads" | "-j" => threads = Some(value(&mut iter, parse_threads)?),
            "--quick" => quick = true,
            "--shard" => config.shard = shard_value(&mut iter)?,
            "--resume" => config.resume = true,
            "--progress" => config.progress = true,
            "--fail-on-error" => fail_on_error = true,
            "--telemetry" => telemetry = Some(value(&mut iter, parsed)?),
            // Requested help is a success; only bad invocations exit 2.
            "--help" | "-h" => {
                println!("{}", usage_text());
                return Ok(());
            }
            other => {
                eprintln!("unknown argument: {other}");
                return Err(usage());
            }
        }
    }

    let executor = threads.map_or_else(Executor::auto, Executor::new);
    let selected = select(&which, quick)?;
    if telemetry.is_some() {
        ichannels_obs::set_enabled(true);
    }
    let results_dir = ichannels_bench::results_dir();
    let mut total_errored = 0usize;
    for (name, grid) in selected {
        let scheduled = config.shard.len_of(grid.scenarios().len());
        ichannels_bench::banner(&format!(
            "campaign {name}{}: {scheduled} scenario(s) on {} threads{}",
            if config.shard.is_full() {
                String::new()
            } else {
                format!(" [shard {}]", config.shard)
            },
            executor.threads(),
            if config.resume { ", resuming" } else { "" }
        ));
        let run = campaigns::run_to_dir(name, &grid, executor, &results_dir, config)
            .map_err(|e| fail(format!("  FAILED to run campaign {name}: {e}")))?;
        if run.resumed > 0 {
            println!(
                "  resumed {} completed trial(s), executed {}",
                run.resumed, run.executed
            );
        }
        for cell in &run.cells {
            let ber = cell
                .ber
                .map_or_else(|| "-".to_string(), |s| format!("{:.4}", s.mean));
            let tp = cell
                .throughput
                .map_or_else(|| "-".to_string(), |s| format!("{:.0}", s.mean));
            println!("  {:<64} ber {ber:>8}  tp {tp:>8} b/s", cell.cell);
        }
        println!("  {}", error_summary(&run.rows));
        total_errored += errored_count(&run.rows);
        for p in &run.paths {
            println!("  wrote {}", p.display());
        }
    }
    if let Some(dir) = telemetry {
        // One snapshot per invocation, covering every selected
        // campaign, written next to the JSONL — never inside it.
        ichannels_obs::set_enabled(false);
        let snap = ichannels_obs::global().snapshot();
        let path = dir.join(format!("{}.json", config.shard.file_stem("telemetry")));
        write_file(&path, &format!("{}\n", snap.to_json()))?;
        println!("  wrote {}", path.display());
    }
    if fail_on_error && total_errored > 0 {
        return Err(fail(format!(
            "run failed --fail-on-error: {total_errored} trial(s) errored"
        )));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("merge") => merge_main(&args[1..]),
        Some("fuzz") => fuzz_main(&args[1..]),
        Some("list") => list_main(&args[1..]),
        Some("profile") => profile_main(&args[1..]),
        Some("telemetry") => telemetry_main(&args[1..]),
        Some("analyze") => analyze_main(&args[1..]),
        _ => run_main(&args),
    };
    outcome.err().unwrap_or(ExitCode::SUCCESS)
}

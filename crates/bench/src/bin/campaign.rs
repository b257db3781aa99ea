//! Runs `ichannels-lab` experiment campaigns from the command line,
//! optionally sharded across processes and resumable after an
//! interruption.
//!
//! ```text
//! campaign [--campaign NAME|all] [--threads N] [--quick] [--list]
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
//! `list --json` prints the machine-readable catalog (name, axes with
//! value labels, cell and scenario counts) so a dispatcher can
//! enumerate work without parsing human output.
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
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ichannels_analysis::AnalysisConfig;
use ichannels_lab::campaigns::{self, RunConfig};
use ichannels_lab::fuzz::{self, findings};
use ichannels_lab::{Executor, FuzzConfig, Grid, Scenario, ShardSpec};
use ichannels_obs::json::escape;

fn campaign_names() -> String {
    campaigns::catalog(true)
        .iter()
        .map(|(name, _)| *name)
        .collect::<Vec<_>>()
        .join(", ")
}

fn usage_text() -> String {
    format!(
        "usage: campaign [--campaign NAME|all] [--threads N] [--quick] [--list]\n\
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

fn merge_main(args: &[String]) -> ExitCode {
    let mut fail_on_error = false;
    let args: Vec<String> = args
        .iter()
        .filter(|a| {
            let flag = a.as_str() == "--fail-on-error";
            fail_on_error |= flag;
            !flag
        })
        .cloned()
        .collect();
    let (out_dir, inputs) = match &args[..] {
        [] => {
            eprintln!("merge needs an output directory and at least two shard streams");
            return usage();
        }
        [out_dir] => {
            eprintln!(
                "merge {out_dir}: no shard streams given — pass every \
                 <name>_shardIofN_trials.jsonl of one campaign"
            );
            return usage();
        }
        [out_dir, single] => {
            eprintln!(
                "merge {out_dir}: only one shard stream given ({single}) — a lone stream \
                 is either already complete (unsharded) or missing its sibling shards; \
                 pass every shard of the campaign, or copy the file instead of merging"
            );
            return usage();
        }
        [out_dir, inputs @ ..] => (PathBuf::from(out_dir), inputs),
    };
    let inputs: Vec<PathBuf> = inputs.iter().map(PathBuf::from).collect();
    match campaigns::merge_files(&out_dir, &inputs) {
        Ok(merged) => {
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
                eprintln!("merge failed --fail-on-error: {errored} trial(s) errored");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("merge failed: {e}");
            ExitCode::FAILURE
        }
    }
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

fn list_main(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut quick = false;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            "--quick" => quick = true,
            other => {
                eprintln!("unknown list argument: {other}");
                return usage();
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
    ExitCode::SUCCESS
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
fn profile_main(args: &[String]) -> ExitCode {
    let mut which = "all".to_string();
    let mut quick = false;
    let mut threads = 1usize;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--campaign" | "-c" => match iter.next() {
                Some(name) => which = name.clone(),
                None => return usage(),
            },
            "--quick" => quick = true,
            "--threads" | "-j" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => threads = n,
                _ => return usage(),
            },
            other => {
                eprintln!("unknown profile argument: {other}");
                return usage();
            }
        }
    }
    let selected: Vec<_> = campaigns::catalog(quick)
        .into_iter()
        .filter(|(name, _)| which == "all" || which == *name)
        .collect();
    if selected.is_empty() {
        eprintln!(
            "unknown campaign {which:?}; valid campaigns: {}, all",
            campaign_names()
        );
        return ExitCode::from(2);
    }

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
    ExitCode::SUCCESS
}

/// `campaign telemetry <out.json> <telemetry.json>...`: merges shard
/// telemetry snapshots back into one (associatively — any grouping
/// gives the same bytes) and sanity-checks the result: the schema tag
/// and a non-zero trial count. The CI merge job runs this over the
/// shard artifacts.
fn telemetry_main(args: &[String]) -> ExitCode {
    let [out, inputs @ ..] = args else {
        eprintln!("telemetry needs an output path and at least one snapshot");
        return usage();
    };
    if inputs.is_empty() {
        eprintln!("telemetry {out}: no input snapshots given");
        return usage();
    }
    let mut merged = ichannels_obs::MetricsSnapshot::new();
    for input in inputs {
        let text = match std::fs::read_to_string(input) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("cannot read {input}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match ichannels_obs::MetricsSnapshot::parse(&text) {
            Ok(snap) => merged.merge(&snap),
            Err(e) => {
                eprintln!("{input}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let trials = merged.counter("trial.runs");
    if trials == 0 {
        eprintln!("sanity check failed: merged snapshot records zero trials (trial.runs)");
        return ExitCode::FAILURE;
    }
    let out = PathBuf::from(out);
    if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(parent) {
            eprintln!("cannot create {}: {e}", parent.display());
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = std::fs::write(&out, format!("{}\n", merged.to_json())) {
        eprintln!("cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "merged {} snapshot(s): {trials} trial(s), {} calibration request(s), {} error(s)",
        inputs.len(),
        merged.counter("calibration.requests"),
        merged.counter("trial.errors"),
    );
    println!("  wrote {}", out.display());
    ExitCode::SUCCESS
}

fn analyze_main(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut config = AnalysisConfig::default();
    let mut dir: Option<PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--seed" => match iter.next().and_then(|v| parse_seed(v)) {
                Some(seed) => config.seed = seed,
                None => return usage(),
            },
            "--resamples" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.resamples = n,
                None => return usage(),
            },
            other if dir.is_none() && !other.starts_with('-') => dir = Some(PathBuf::from(other)),
            other => {
                eprintln!("unknown analyze argument: {other}");
                return usage();
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("analyze needs a directory of <name>_trials.jsonl streams");
        return usage();
    };

    // Every `<name>_trials.jsonl` in the directory, in name order, so
    // the report's campaign order (and its bytes) never depends on
    // directory enumeration order.
    let mut streams: Vec<(String, PathBuf)> = match std::fs::read_dir(&dir) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .filter_map(|entry| {
                let name = entry.file_name().into_string().ok()?;
                let campaign = name.strip_suffix("_trials.jsonl")?;
                Some((campaign.to_string(), entry.path()))
            })
            .collect(),
        Err(e) => {
            eprintln!("cannot read {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    streams.sort();
    if streams.is_empty() {
        eprintln!(
            "analyze {}: no <name>_trials.jsonl streams found — point it at an \
             unsharded results directory or a `campaign merge` output directory",
            dir.display()
        );
        return ExitCode::FAILURE;
    }

    let mut document = String::new();
    for (campaign, path) in &streams {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let analysis = match ichannels_analysis::analyze_stream(campaign, &text, config) {
            Ok(analysis) => analysis,
            Err((line, e)) => {
                eprintln!("{}:{line}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let report = analysis.finish();
        ichannels_bench::print_analysis_summary(&report);
        document.push_str(&report.to_jsonl());
    }

    let out = dir.join("analysis.jsonl");
    if let Err(e) = std::fs::write(&out, &document) {
        eprintln!("cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    if json {
        print!("{document}");
    }
    println!("wrote {}", out.display());
    ExitCode::SUCCESS
}

/// Parses a seed argument (`fuzz --seed`, `analyze --seed`): decimal
/// or `0x`-prefixed hex.
fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// `campaign fuzz merge <out.jsonl> <shard_findings.jsonl>...`:
/// reassembles shard findings into the unsharded report. Findings are
/// pure in their case index, so sorting by case re-interleaves the
/// shards into exactly the bytes an unsharded run writes.
fn fuzz_merge_main(args: &[String]) -> ExitCode {
    let [out, inputs @ ..] = args else {
        eprintln!("fuzz merge needs an output path and at least one shard findings file");
        return usage();
    };
    if inputs.is_empty() {
        eprintln!("fuzz merge {out}: no shard findings given");
        return usage();
    }
    let mut all = Vec::new();
    for input in inputs {
        let text = match std::fs::read_to_string(input) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("cannot read {input}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for (n, line) in text.lines().enumerate() {
            match findings::Finding::parse(line) {
                Ok(f) => all.push(f),
                Err(e) => {
                    eprintln!("{input}:{}: {e}", n + 1);
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let merged = findings::merge_findings(all);
    let out = PathBuf::from(out);
    if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(parent) {
            eprintln!("cannot create {}: {e}", parent.display());
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = std::fs::write(&out, findings::findings_to_jsonl(&merged)) {
        eprintln!("cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "merged {} shard findings file(s): {} finding(s)",
        inputs.len(),
        merged.len()
    );
    println!("  wrote {}", out.display());
    ExitCode::SUCCESS
}

/// `campaign fuzz [--seed S] [--cases N] [--tolerance T] [--shard I/N]
/// [--threads N]`: the randomized-scenario anomaly hunter. Samples,
/// judges, and shrinks on the worker pool, then writes the replayable
/// findings report under the results directory. Exit code reflects the
/// run, not the findings — a finding is a report row to triage into a
/// pinned test, not a CI failure by itself.
fn fuzz_main(args: &[String]) -> ExitCode {
    if args.first().map(String::as_str) == Some("merge") {
        return fuzz_merge_main(&args[1..]);
    }
    let mut config = FuzzConfig::default();
    let mut threads: Option<usize> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seed" => match iter.next().map(String::as_str).and_then(parse_seed) {
                Some(seed) => config.seed = seed,
                None => return usage(),
            },
            "--cases" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.cases = n,
                None => return usage(),
            },
            "--tolerance" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(t) if (0.0..=1.0).contains(&t) => config.tolerance = t,
                _ => return usage(),
            },
            "--shard" => match iter.next() {
                Some(spec) => match ShardSpec::parse(spec) {
                    Ok(parsed) => config.shard = parsed,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::from(2);
                    }
                },
                None => return usage(),
            },
            "--threads" | "-j" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => threads = Some(n),
                _ => return usage(),
            },
            other => {
                eprintln!("unknown fuzz argument: {other}");
                return usage();
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
    let results_dir = ichannels_bench::results_dir();
    if let Err(e) = std::fs::create_dir_all(&results_dir) {
        eprintln!("cannot create {}: {e}", results_dir.display());
        return ExitCode::FAILURE;
    }
    let path = results_dir.join(format!("{}.jsonl", config.shard.file_stem("fuzz_findings")));
    if let Err(e) = std::fs::write(&path, report.to_jsonl()) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("  wrote {}", path.display());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("merge") => return merge_main(&args[1..]),
        Some("fuzz") => return fuzz_main(&args[1..]),
        Some("list") => return list_main(&args[1..]),
        Some("profile") => return profile_main(&args[1..]),
        Some("telemetry") => return telemetry_main(&args[1..]),
        Some("analyze") => return analyze_main(&args[1..]),
        _ => {}
    }
    let mut which = "all".to_string();
    let mut threads: Option<usize> = None;
    let mut quick = false;
    let mut shard = ShardSpec::full();
    let mut resume = false;
    let mut progress = false;
    let mut fail_on_error = false;
    let mut telemetry: Option<PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--campaign" | "-c" => match iter.next() {
                Some(name) => which = name.clone(),
                None => return usage(),
            },
            "--threads" | "-j" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => threads = Some(n),
                _ => return usage(),
            },
            "--quick" => quick = true,
            "--shard" => match iter.next() {
                Some(spec) => match ShardSpec::parse(spec) {
                    Ok(parsed) => shard = parsed,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::from(2);
                    }
                },
                None => return usage(),
            },
            "--resume" => resume = true,
            "--progress" => progress = true,
            "--fail-on-error" => fail_on_error = true,
            "--telemetry" => match iter.next() {
                Some(dir) => telemetry = Some(PathBuf::from(dir)),
                None => return usage(),
            },
            "--list" => {
                for (name, grid) in campaigns::catalog(true) {
                    println!("{name} ({} quick scenarios)", grid.scenarios().len());
                }
                return ExitCode::SUCCESS;
            }
            // Requested help is a success; only bad invocations exit 2.
            "--help" | "-h" => {
                println!("{}", usage_text());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return usage();
            }
        }
    }

    let executor = threads.map_or_else(Executor::auto, Executor::new);
    let catalog = campaigns::catalog(quick);
    let selected: Vec<_> = catalog
        .into_iter()
        .filter(|(name, _)| which == "all" || which == *name)
        .collect();
    if selected.is_empty() {
        eprintln!(
            "unknown campaign {which:?}; valid campaigns: {}, all",
            campaign_names()
        );
        return ExitCode::from(2);
    }

    if telemetry.is_some() {
        ichannels_obs::set_enabled(true);
    }
    let results_dir = ichannels_bench::results_dir();
    let config = RunConfig {
        shard,
        resume,
        progress,
    };
    let mut total_errored = 0usize;
    for (name, grid) in selected {
        let scheduled = shard.len_of(grid.scenarios().len());
        ichannels_bench::banner(&format!(
            "campaign {name}{}: {scheduled} scenario(s) on {} threads{}",
            if shard.is_full() {
                String::new()
            } else {
                format!(" [shard {shard}]")
            },
            executor.threads(),
            if resume { ", resuming" } else { "" }
        ));
        match campaigns::run_to_dir(name, &grid, executor, &results_dir, config) {
            Ok(run) => {
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
            Err(e) => {
                eprintln!("  FAILED to run campaign {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(dir) = telemetry {
        // One snapshot per invocation, covering every selected
        // campaign, written next to the JSONL — never inside it.
        ichannels_obs::set_enabled(false);
        let snap = ichannels_obs::global().snapshot();
        let path = dir.join(format!("{}.json", shard.file_stem("telemetry")));
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("cannot create {}: {e}", parent.display());
                return ExitCode::FAILURE;
            }
        }
        if let Err(e) = std::fs::write(&path, format!("{}\n", snap.to_json())) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("  wrote {}", path.display());
    }
    if fail_on_error && total_errored > 0 {
        eprintln!("run failed --fail-on-error: {total_errored} trial(s) errored");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

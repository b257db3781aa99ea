//! Runs every figure/table harness in sequence, then regenerates the
//! catalog campaign artifacts, writing all CSVs to `results/` — the
//! one entry point of the paper reproduction. Each harness also prints
//! its paper ratios and verdicts.
//!
//! ```text
//! repro_all [--quick] [--merged DIR]
//! ```
//!
//! With `--merged DIR`, a campaign whose merged trial stream
//! `DIR/<name>_trials.jsonl` exists (e.g. assembled by
//! `campaign merge` from a sharded CI matrix) is **not** re-simulated:
//! its trial/cell CSVs are re-derived from the stream instead, which
//! is byte-identical to running the campaign here.
//!
//! After the campaigns, an analysis stage runs the
//! `ichannels-analysis` statistics layer over every campaign's trial
//! stream (merged or locally produced) and writes
//! `results/analysis.jsonl` — the same report `campaign analyze`
//! produces, byte for byte (see `docs/METHODOLOGY.md`).

use std::process::ExitCode;

use ichannels_analysis::AnalysisConfig;
use ichannels_lab::campaigns;
use ichannels_lab::report::summarize_rows;
use ichannels_lab::Executor;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut merged_dir: Option<std::path::PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => {}
            "--merged" => match iter.next() {
                Some(dir) => merged_dir = Some(dir.into()),
                None => {
                    eprintln!("usage: repro_all [--quick] [--merged DIR]");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument: {other}\nusage: repro_all [--quick] [--merged DIR]");
                return ExitCode::from(2);
            }
        }
    }
    println!(
        "IChannels (ISCA 2021) full reproduction{}",
        if quick { " (quick mode)" } else { "" }
    );
    use ichannels_bench::figs;
    figs::fig06::run(quick);
    figs::fig07::run(quick);
    figs::fig08::run(quick);
    figs::fig09::run(quick);
    figs::fig10::run(quick);
    let _ = figs::fig11::run(quick);
    let _ = figs::fig12::run(quick);
    let _ = figs::fig13::run(quick);
    figs::fig14::run(quick);
    let _ = figs::table1::run(quick);
    let _ = figs::table2::run(quick);
    figs::ablation::run(quick);

    let results_dir = ichannels_bench::results_dir();
    let mut trial_streams: Vec<(String, std::path::PathBuf)> = Vec::new();
    for (name, grid) in campaigns::catalog(quick) {
        let merged = merged_dir
            .as_ref()
            .map(|dir| dir.join(format!("{name}_trials.jsonl")))
            .filter(|p| p.exists());
        if let Some(stream) = merged {
            trial_streams.push((name.to_string(), stream.clone()));
            ichannels_bench::banner(&format!(
                "campaign {name}: consuming merged stream {}",
                stream.display()
            ));
            let rows = match campaigns::load_trials(&stream) {
                Ok(rows) => rows,
                Err(e) => {
                    eprintln!("  FAILED to load merged stream: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // The stream must be this grid's run: same trials, same
            // order, same seeds. A count/key/seed mismatch means a
            // stale stream or a quick-vs-full mode mix-up — deriving
            // CSVs from it would silently mislabel the reproduction.
            let scenarios = grid.scenarios();
            let mismatch = if rows.len() != scenarios.len() {
                Some(format!(
                    "{} trial row(s), grid expects {}",
                    rows.len(),
                    scenarios.len()
                ))
            } else {
                rows.iter().zip(&scenarios).find_map(|(row, scenario)| {
                    (row.trial_key() != scenario.label() || row.seed != scenario.seed).then(|| {
                        format!(
                            "trial {} does not match {}",
                            row.trial_key(),
                            scenario.label()
                        )
                    })
                })
            };
            if let Some(why) = mismatch {
                eprintln!(
                    "  FAILED: merged stream {} does not match the {} grid ({why}); \
                     was it produced with a different --quick mode or an older grid?",
                    stream.display(),
                    if quick { "quick" } else { "full" }
                );
                return ExitCode::FAILURE;
            }
            match campaigns::write_trial_csvs(&rows, &summarize_rows(&rows), &results_dir, name) {
                Ok(paths) => {
                    for p in paths {
                        println!("  wrote {}", p.display());
                    }
                }
                Err(e) => {
                    eprintln!("  FAILED to write campaign CSVs: {e}");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            ichannels_bench::banner(&format!("campaign {name}"));
            if let Err(e) = campaigns::run_to_dir(
                name,
                &grid,
                Executor::auto(),
                &results_dir,
                Default::default(),
            ) {
                eprintln!("  FAILED to run campaign {name}: {e}");
                return ExitCode::FAILURE;
            }
            trial_streams.push((
                name.to_string(),
                results_dir.join(format!("{name}_trials.jsonl")),
            ));
        }
    }

    ichannels_bench::banner("campaign analysis");
    let analysis_path = results_dir.join("analysis.jsonl");
    if let Err(e) =
        ichannels_bench::analyze_streams(trial_streams, AnalysisConfig::default(), &analysis_path)
    {
        eprintln!("  FAILED: {e}");
        return ExitCode::FAILURE;
    }
    println!("  wrote {}", analysis_path.display());

    println!();
    println!(
        "All artifacts regenerated; CSVs in {}",
        results_dir.display()
    );
    ExitCode::SUCCESS
}

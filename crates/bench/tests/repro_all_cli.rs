//! CLI contract tests of the `repro_all` binary, the one entry point of
//! the paper reproduction: a quick run writes every golden artifact and
//! the same `analysis.jsonl` as `campaign analyze`, and `--merged DIR`
//! over a sharded-and-merged catalog reproduces the same bytes without
//! re-simulating.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The catalog campaigns whose trial/cell CSVs `repro_all` writes.
const CAMPAIGNS: [&str; 5] = [
    "client_vs_server",
    "noise_robustness",
    "mitigation_coverage",
    "modulation_capacity",
    "receiver_calibration",
];

fn repro_all(results_dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .args(args)
        .env("ICHANNELS_RESULTS", results_dir)
        .output()
        .expect("repro_all binary runs")
}

fn campaign(results_dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .env("ICHANNELS_RESULTS", results_dir)
        .output()
        .expect("campaign binary runs")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ichannels_repro_all_cli_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// The `GOLDEN_FILES` list of `tests/golden_figures.rs`: every artifact
/// a quick run must produce.
fn golden_files() -> Vec<&'static str> {
    include_str!("../../../tests/golden_figures.rs")
        .split("const GOLDEN_FILES")
        .nth(1)
        .and_then(|rest| rest.split("];").next())
        .unwrap_or_default()
        .lines()
        .filter_map(|line| line.trim().strip_prefix('"')?.strip_suffix("\","))
        .collect()
}

/// Runs `repro_all --quick` into a fresh directory.
fn quick_run(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    let out = repro_all(&dir, &["--quick"]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    dir
}

/// Runs the quick catalog as three shard processes and merges each
/// campaign, as CI's shard matrix does. Returns the merge directory.
fn merged_catalog(tag: &str) -> PathBuf {
    let shard_dir = temp_dir(&format!("{tag}_shards"));
    let merged_dir = temp_dir(&format!("{tag}_merged"));
    for i in 0..3 {
        let spec = format!("{i}/3");
        let out = campaign(
            &shard_dir,
            &["--quick", "--campaign", "all", "--shard", &spec],
        );
        assert!(out.status.success(), "shard {spec}: {}", stderr_of(&out));
    }
    for name in CAMPAIGNS {
        let shards: Vec<String> = (0..3)
            .map(|i| {
                let path = shard_dir.join(format!("{name}_shard{i}of3_trials.jsonl"));
                path.to_str().unwrap().to_string()
            })
            .collect();
        let mut args = vec!["merge", merged_dir.to_str().unwrap()];
        args.extend(shards.iter().map(String::as_str));
        let out = campaign(&shard_dir, &args);
        assert!(out.status.success(), "merge {name}: {}", stderr_of(&out));
    }
    let _ = std::fs::remove_dir_all(&shard_dir);
    merged_dir
}

#[test]
fn quick_run_writes_every_golden_and_the_analyze_report() {
    let dir = quick_run("quick");

    // Every artifact of the golden suite, byte for byte.
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let goldens = golden_files();
    assert!(!goldens.is_empty(), "GOLDEN_FILES not found");
    for name in goldens {
        assert!(
            read(&dir.join(name)) == read(&golden_dir.join(name)),
            "{name} differs from its golden"
        );
    }

    // `campaign analyze` over the same directory rewrites the same bytes.
    let report = read(&dir.join("analysis.jsonl"));
    assert!(!report.is_empty());
    let out = campaign(&dir, &["analyze", dir.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert!(
        read(&dir.join("analysis.jsonl")) == report,
        "repro_all and campaign analyze wrote different analysis.jsonl"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merged_streams_reproduce_the_same_bytes() {
    let plain = quick_run("merged_plain");
    let merged = merged_catalog("merged");
    let repro = temp_dir("merged_repro");
    let out = repro_all(&repro, &["--quick", "--merged", merged.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("consuming merged stream"), "{stdout}");

    let mut artifacts = vec!["analysis.jsonl".to_string()];
    for name in CAMPAIGNS {
        artifacts.push(format!("{name}_trials.csv"));
        artifacts.push(format!("{name}_cells.csv"));
    }
    for artifact in &artifacts {
        assert!(
            read(&plain.join(artifact)) == read(&repro.join(artifact)),
            "{artifact} differs between a plain and a --merged run"
        );
    }

    // The merge job's own report agrees too.
    let out = campaign(&merged, &["analyze", merged.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert!(
        read(&merged.join("analysis.jsonl")) == read(&repro.join("analysis.jsonl")),
        "campaign analyze of the merge dir differs from repro_all --merged"
    );

    // A merged stream one row short is not this grid's run.
    let stream = merged.join("noise_robustness_trials.jsonl");
    let text = String::from_utf8(read(&stream)).expect("stream is UTF-8");
    let mut rows: Vec<&str> = text.lines().collect();
    rows.pop();
    std::fs::write(&stream, rows.join("\n") + "\n").expect("truncated stream written");
    let out = repro_all(&repro, &["--quick", "--merged", merged.to_str().unwrap()]);
    assert!(!out.status.success(), "a truncated stream was accepted");
    assert!(
        stderr_of(&out).contains("does not match"),
        "{}",
        stderr_of(&out)
    );

    for dir in [&plain, &merged, &repro] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn bad_arguments_exit_2_and_write_nothing() {
    let dir = temp_dir("bad_args");
    for bad in [&["--frobnicate"][..], &["--quick", "--merged"]] {
        let out = repro_all(&dir, bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?} was accepted");
    }
    assert!(!dir.exists(), "rejected runs must not write results");
}

#[test]
fn an_unwritable_results_dir_stops_at_the_first_csv() {
    // A results directory under a regular file cannot be created, so
    // Figure 6's first CSV fails: the run must stop there, with one
    // FAILED line, instead of reporting every later write.
    let dir = temp_dir("unwritable");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let blocker = dir.join("not_a_dir");
    std::fs::write(&blocker, "").expect("regular file");
    let out = repro_all(&blocker.join("results"), &["--quick"]);
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = stderr_of(&out);
    assert!(!out.status.success(), "an unwritable results dir exited 0");
    let failed = stdout
        .lines()
        .chain(stderr.lines())
        .filter(|l| l.contains("FAILED"))
        .count();
    assert_eq!(failed, 1, "{stdout}{stderr}");
    assert!(!stdout.contains("Figure 7"), "{stdout}");
}

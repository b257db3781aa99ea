//! CLI contract tests of the `campaign` binary: argument validation
//! exits nonzero with actionable messages, and the sharded
//! multi-process workflow (`--shard` runs + `merge`) reproduces the
//! unsharded artifacts byte for byte.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn campaign_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
}

fn run_in(results_dir: &Path, args: &[&str]) -> Output {
    campaign_bin()
        .args(args)
        .env("ICHANNELS_RESULTS", results_dir)
        .output()
        .expect("campaign binary runs")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ichannels_campaign_cli_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn unknown_campaign_exits_nonzero_with_the_catalog() {
    let dir = temp_dir("unknown");
    let out = run_in(&dir, &["--quick", "--campaign", "no_such_campaign"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("unknown campaign"), "{err}");
    for name in [
        "client_vs_server",
        "noise_robustness",
        "mitigation_coverage",
        "modulation_capacity",
        "receiver_calibration",
    ] {
        assert!(
            err.contains(name),
            "catalog name {name} missing from: {err}"
        );
    }
}

#[test]
fn malformed_shard_specs_are_rejected() {
    let dir = temp_dir("badshard");
    for bad in ["0/0", "3/2", "2/2", "x/3", "1", "1/2/3"] {
        let out = run_in(&dir, &["--quick", "--shard", bad]);
        assert!(!out.status.success(), "--shard {bad} accepted");
        let err = stderr_of(&out);
        assert!(err.contains("invalid shard spec"), "--shard {bad}: {err}");
    }
    assert!(!dir.exists(), "rejected runs must not write results");
}

#[test]
fn bad_run_and_profile_arguments_exit_2_and_write_nothing() {
    let dir = temp_dir("bad_args");
    for bad in [
        // A value flag with no value.
        &["--quick", "--campaign"][..],
        &["--quick", "-c"],
        &["--quick", "--threads"],
        &["--quick", "-j"],
        &["--quick", "--telemetry"],
        &["profile", "--quick", "--threads"],
        &["profile", "--quick", "--campaign"],
        // A worker count of zero.
        &["--quick", "--threads", "0"],
        &["profile", "--quick", "--threads", "0"],
        // An unknown campaign.
        &["profile", "--quick", "--campaign", "nope"],
    ] {
        let out = run_in(&dir, bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?} was accepted");
        assert!(
            String::from_utf8_lossy(&out.stdout).is_empty(),
            "{bad:?} ran: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
    assert!(!dir.exists(), "rejected invocations must not write results");
}

#[test]
fn sharded_processes_merge_byte_identical_to_unsharded() {
    let full_dir = temp_dir("merge_full");
    let shard_dir = temp_dir("merge_shards");
    let merged_dir = temp_dir("merge_out");
    let campaign = "noise_robustness";

    let full = run_in(&full_dir, &["--quick", "--campaign", campaign]);
    assert!(full.status.success(), "{}", stderr_of(&full));

    // Three separate OS processes, one per shard.
    let mut shard_paths = Vec::new();
    for i in 0..3 {
        let spec = format!("{i}/3");
        let out = run_in(
            &shard_dir,
            &["--quick", "--campaign", campaign, "--shard", &spec],
        );
        assert!(out.status.success(), "shard {spec}: {}", stderr_of(&out));
        shard_paths.push(shard_dir.join(format!("{campaign}_shard{i}of3_trials.jsonl")));
    }

    let mut merge = campaign_bin();
    merge.arg("merge").arg(&merged_dir).args(&shard_paths);
    let out = merge.output().expect("merge runs");
    assert!(out.status.success(), "merge: {}", stderr_of(&out));

    for artifact in [
        format!("{campaign}_trials.jsonl"),
        format!("{campaign}_trials.csv"),
        format!("{campaign}_cells.csv"),
    ] {
        assert_eq!(
            std::fs::read(full_dir.join(&artifact)).expect("unsharded artifact"),
            std::fs::read(merged_dir.join(&artifact)).expect("merged artifact"),
            "{artifact} diverges between unsharded and merged"
        );
    }

    // Merging a wrong subset fails loudly.
    let mut partial = campaign_bin();
    partial
        .arg("merge")
        .arg(&merged_dir)
        .args(&shard_paths[..2]);
    let out = partial.output().expect("merge runs");
    assert!(!out.status.success(), "partial merge must fail");
    assert!(
        stderr_of(&out).contains("merge failed"),
        "{}",
        stderr_of(&out)
    );

    for dir in [&full_dir, &shard_dir, &merged_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn merge_without_enough_streams_fails_actionably() {
    let dir = temp_dir("merge_contract");
    std::fs::create_dir_all(&dir).expect("dir created");
    let out_dir = dir.join("out");

    // Zero inputs after the output directory.
    let out = campaign_bin()
        .arg("merge")
        .arg(&out_dir)
        .output()
        .expect("merge runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_of(&out).contains("no shard streams given"),
        "{}",
        stderr_of(&out)
    );

    // A single input: a lone stream is never a mergeable campaign.
    let lone = dir.join("demo_trials.jsonl");
    std::fs::write(&lone, "{\"cell\":\"x\"}\n").expect("lone stream written");
    let out = campaign_bin()
        .arg("merge")
        .arg(&out_dir)
        .arg(&lone)
        .output()
        .expect("merge runs");
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(err.contains("only one shard stream given"), "{err}");
    assert!(err.contains("copy the file"), "{err}");

    // Neither rejected invocation may leave artifacts behind.
    assert!(
        !out_dir.exists(),
        "rejected merges must not write artifacts"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_completes_a_truncated_stream_identically() {
    let dir = temp_dir("resume");
    let campaign = "noise_robustness";
    let out = run_in(&dir, &["--quick", "--campaign", campaign]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stream = dir.join(format!("{campaign}_trials.jsonl"));
    let pristine = std::fs::read_to_string(&stream).expect("stream readable");

    // Tear the stream mid-line, as an interrupted process would.
    let cut = pristine.len() * 2 / 5;
    std::fs::write(&stream, &pristine[..cut]).expect("torn stream written");

    let out = run_in(&dir, &["--quick", "--campaign", campaign, "--resume"]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("resumed"), "{stdout}");
    assert_eq!(
        std::fs::read_to_string(&stream).expect("stream readable"),
        pristine,
        "resumed stream must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn list_json_is_machine_readable() {
    let dir = temp_dir("list_json");
    let out = run_in(&dir, &["list", "--json", "--quick"]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let trimmed = stdout.trim();
    assert!(
        trimmed.starts_with('[') && trimmed.ends_with(']'),
        "not a JSON array: {trimmed}"
    );
    // One object per catalog campaign, each parseable as a flat-ish
    // JSON line once the array framing and separators are stripped.
    let entries: Vec<&str> = trimmed
        .lines()
        .filter(|l| l.trim_start().starts_with('{'))
        .collect();
    assert_eq!(entries.len(), 5, "{trimmed}");
    for entry in entries {
        for key in [
            "\"name\"",
            "\"cells\"",
            "\"scenarios\"",
            "\"axes\"",
            "\"trials_per_cell\"",
        ] {
            assert!(entry.contains(key), "{key} missing from {entry}");
        }
    }
    assert!(
        trimmed.contains("\"name\":\"client_vs_server\""),
        "{trimmed}"
    );
    assert!(trimmed.contains("\"platforms\":["), "{trimmed}");
    // An unknown flag is rejected, not ignored.
    let out = run_in(&dir, &["list", "--jsn"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn telemetry_flag_writes_a_snapshot_next_to_the_jsonl() {
    let dir = temp_dir("telemetry_run");
    let campaign = "noise_robustness";

    // A plain run first: the telemetry flag must not move its bytes.
    let plain = run_in(&dir, &["--quick", "--campaign", campaign]);
    assert!(plain.status.success(), "{}", stderr_of(&plain));
    let stream = dir.join(format!("{campaign}_trials.jsonl"));
    let pristine = std::fs::read(&stream).expect("stream readable");

    let out = run_in(
        &dir,
        &[
            "--quick",
            "--campaign",
            campaign,
            "--telemetry",
            dir.to_str().unwrap(),
            "--progress",
        ],
    );
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert_eq!(
        std::fs::read(&stream).expect("stream readable"),
        pristine,
        "--telemetry/--progress moved trial bytes"
    );
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("trial(s), 0 errored"), "{stdout}");
    // The ticker paints cells/ETA on stderr only.
    let err = stderr_of(&out);
    assert!(err.contains("cells"), "{err}");
    assert!(err.contains("ETA"), "{err}");

    let snapshot_path = dir.join("telemetry.json");
    let text = std::fs::read_to_string(&snapshot_path).expect("telemetry.json written");
    assert_eq!(text.lines().count(), 1, "one-line snapshot: {text}");
    assert!(
        text.contains("\"schema\":\"ichannels-telemetry-v1\""),
        "{text}"
    );
    for key in [
        "\"trial.runs\"",
        "\"calibration.requests\"",
        "\"trial.transmit\"",
        "\"soc.step_ns\"",
    ] {
        assert!(text.contains(key), "{key} missing from {text}");
    }
    assert!(
        !String::from_utf8_lossy(&pristine).contains("schema"),
        "telemetry must never land inside the JSONL"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_telemetry_snapshots_merge_and_sanity_check() {
    let dir = temp_dir("telemetry_shards");
    let campaign = "noise_robustness";
    let mut snapshot_paths = Vec::new();
    for i in 0..2 {
        let spec = format!("{i}/2");
        let out = run_in(
            &dir,
            &[
                "--quick",
                "--campaign",
                campaign,
                "--shard",
                &spec,
                "--telemetry",
                dir.to_str().unwrap(),
            ],
        );
        assert!(out.status.success(), "shard {spec}: {}", stderr_of(&out));
        snapshot_paths.push(dir.join(format!("telemetry_shard{i}of2.json")));
    }
    for p in &snapshot_paths {
        assert!(p.exists(), "{} missing", p.display());
    }

    let merged_path = dir.join("merged_telemetry.json");
    let mut merge = campaign_bin();
    merge
        .arg("telemetry")
        .arg(&merged_path)
        .args(&snapshot_paths);
    let out = merge.output().expect("telemetry merge runs");
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("merged 2 snapshot(s)"), "{stdout}");
    assert!(std::fs::read_to_string(&merged_path)
        .expect("merged snapshot written")
        .contains("\"schema\":\"ichannels-telemetry-v1\""),);

    // The sanity checks fail loudly: an empty snapshot has no trials…
    let empty = dir.join("empty.json");
    std::fs::write(
        &empty,
        "{\"schema\":\"ichannels-telemetry-v1\",\"counters\":{},\"gauges\":{},\"histograms\":{}}\n",
    )
    .expect("empty snapshot written");
    let out = campaign_bin()
        .arg("telemetry")
        .arg(dir.join("nope.json"))
        .arg(&empty)
        .output()
        .expect("telemetry runs");
    assert!(!out.status.success(), "zero-trial snapshot must fail");
    assert!(
        stderr_of(&out).contains("zero trials"),
        "{}",
        stderr_of(&out)
    );
    // …and garbage is rejected as not-a-snapshot.
    let junk = dir.join("junk.json");
    std::fs::write(&junk, "{\"schema\":\"something-else\"}\n").expect("junk written");
    let out = campaign_bin()
        .arg("telemetry")
        .arg(dir.join("nope.json"))
        .arg(&junk)
        .output()
        .expect("telemetry runs");
    assert!(!out.status.success(), "wrong schema must fail");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_prints_a_phase_breakdown_covering_the_wall_clock() {
    let dir = temp_dir("profile");
    // The acceptance bar: phase times sum to ≥90% of wall time. Wall
    // time includes involuntary descheduling between phases, so under
    // CPU contention (the rest of this suite spawns campaign binaries
    // concurrently) an individual run can honestly fall short; the bar
    // must be reachable, not reached every time, so retry a few times.
    let mut last_percent = 0.0;
    for attempt in 0..3 {
        let out = run_in(&dir, &["profile", "--campaign", "modulation_capacity"]);
        assert!(out.status.success(), "{}", stderr_of(&out));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        for phase in ["resolve", "config", "calibration", "transmit", "metrics"] {
            assert!(stdout.contains(phase), "phase {phase} missing: {stdout}");
        }
        assert!(stdout.contains("soc stepping"), "{stdout}");
        assert!(stdout.contains("calibration: "), "{stdout}");
        // Re-arm reuse (PR 10) must not break the telemetry ledger:
        // every trial re-arms at least once, and every rearm simulates
        // at least one slot, so `trials <= rearms <= slots`.
        let stepping_line = stdout
            .lines()
            .find(|l| l.contains("soc stepping"))
            .unwrap_or_else(|| panic!("no soc stepping line in {stdout}"));
        let count_before = |marker: &str| -> u64 {
            stepping_line
                .split(marker)
                .next()
                .and_then(|s| s.rsplit(' ').find(|w| !w.is_empty()))
                .and_then(|w| w.parse().ok())
                .unwrap_or_else(|| panic!("unparseable stepping line: {stepping_line}"))
        };
        let rearms = count_before(" rearm(s)");
        let slots = count_before(" slot(s)");
        let trials = stdout
            .lines()
            .find_map(|l| l.strip_suffix(" errored")?.trim().split(' ').next())
            .and_then(|w| w.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no trial count line in {stdout}"));
        assert!(rearms >= trials, "{rearms} rearm(s) < {trials} trial(s)");
        assert!(slots >= rearms, "{slots} slot(s) < {rearms} rearm(s)");
        let coverage_line = stdout
            .lines()
            .find(|l| l.contains("phases sum to"))
            .unwrap_or_else(|| panic!("no coverage line in {stdout}"));
        last_percent = coverage_line
            .split('=')
            .nth(1)
            .and_then(|s| s.trim().split('%').next())
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or_else(|| panic!("unparseable coverage line: {coverage_line}"));
        if last_percent >= 90.0 {
            break;
        }
        eprintln!("attempt {attempt}: phase coverage {last_percent}% below the 90% bar; retrying");
    }
    assert!(
        last_percent >= 90.0,
        "phase coverage {last_percent}% below the 90% bar on every attempt"
    );
    // An unknown campaign is rejected like the run path rejects it.
    let out = run_in(&dir, &["profile", "--campaign", "no_such_campaign"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn fuzz_findings_are_replayable_and_shards_merge_byte_identical() {
    let dir_a = temp_dir("fuzz_a");
    let dir_b = temp_dir("fuzz_b");
    // Seed 7 flags a case within the first 64, so the byte comparisons
    // below cover a real shrunk finding row, not just empty files.
    let args = ["fuzz", "--cases", "96", "--seed", "7", "--threads", "2"];
    for dir in [&dir_a, &dir_b] {
        let out = run_in(dir, &args);
        assert!(out.status.success(), "{}", stderr_of(&out));
    }
    let findings =
        std::fs::read_to_string(dir_a.join("fuzz_findings.jsonl")).expect("findings written");
    assert!(
        findings.contains("\"kind\":"),
        "expected at least one finding row, got: {findings:?}"
    );
    assert_eq!(
        findings,
        std::fs::read_to_string(dir_b.join("fuzz_findings.jsonl")).expect("findings written"),
        "two identical invocations wrote different findings"
    );

    // Two shard processes, then `fuzz merge` back into the unsharded
    // bytes. Hex and decimal seeds must mean the same run.
    let shard_dir = temp_dir("fuzz_shards");
    let mut shard_paths = Vec::new();
    for i in 0..2 {
        let spec = format!("{i}/2");
        let out = run_in(
            &shard_dir,
            &["fuzz", "--cases", "96", "--seed", "0x7", "--shard", &spec],
        );
        assert!(out.status.success(), "shard {spec}: {}", stderr_of(&out));
        shard_paths.push(shard_dir.join(format!("fuzz_findings_shard{i}of2.jsonl")));
    }
    let merged_path = shard_dir.join("merged_findings.jsonl");
    let mut merge = campaign_bin();
    merge
        .arg("fuzz")
        .arg("merge")
        .arg(&merged_path)
        .args(&shard_paths);
    let out = merge.output().expect("fuzz merge runs");
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert_eq!(
        std::fs::read_to_string(&merged_path).expect("merged findings"),
        findings,
        "sharded findings did not merge back into the unsharded bytes"
    );

    for dir in [&dir_a, &dir_b, &shard_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn fuzz_rejects_bad_arguments() {
    let dir = temp_dir("fuzz_bad");
    for bad in [
        &["fuzz", "--seed", "not-a-seed"][..],
        &["fuzz", "--cases", "many"],
        &["fuzz", "--tolerance", "2.0"],
        &["fuzz", "--shard", "3/2"],
        &["fuzz", "--frobnicate"],
        &["fuzz", "merge"],
        &["fuzz", "merge", "out.jsonl"],
    ] {
        let out = run_in(&dir, bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?} was accepted");
    }
    assert!(!dir.exists(), "rejected fuzz runs must not write results");
}

#[test]
fn fail_on_error_gates_run_and_merge() {
    // A clean catalog campaign passes the gate.
    let dir = temp_dir("fail_on_error_clean");
    let out = run_in(
        &dir,
        &[
            "--quick",
            "--campaign",
            "noise_robustness",
            "--fail-on-error",
        ],
    );
    assert!(out.status.success(), "{}", stderr_of(&out));
    let _ = std::fs::remove_dir_all(&dir);

    // An errored campaign fails it. The catalog has no error cells, so
    // build shard streams of one through the lab API: a collapsed
    // transaction-reset override under a heavy constant payload breaks
    // the slot schedule into a typed `ChannelError` on every trial.
    use ichannels_lab::campaigns::run_to_dir;
    use ichannels_lab::scenario::{Knob, PayloadSpec};
    use ichannels_lab::{Executor, Grid, RunConfig, ShardSpec};
    let dir = temp_dir("fail_on_error_merge");
    let grid = Grid::new()
        .knobs(vec![Some(Knob::ResetTimeUs(0.001))])
        .payloads(vec![PayloadSpec::Constant(3)])
        .trials(2)
        .payload_symbols(24);
    let mut shard_paths = Vec::new();
    for i in 0..2 {
        let config = RunConfig {
            shard: ShardSpec::new(i, 2).expect("valid shard"),
            ..RunConfig::default()
        };
        let run = run_to_dir("errored", &grid, Executor::serial(), &dir, config)
            .expect("errored campaign still streams");
        assert!(run.rows.iter().any(|r| r.error.is_some()));
        shard_paths.push(dir.join(format!("errored_shard{i}of2_trials.jsonl")));
    }
    let merged_dir = dir.join("merged");
    let mut gated = campaign_bin();
    gated
        .arg("merge")
        .arg("--fail-on-error")
        .arg(&merged_dir)
        .args(&shard_paths);
    let out = gated.output().expect("merge runs");
    assert!(
        !out.status.success(),
        "--fail-on-error must gate error cells"
    );
    let err = stderr_of(&out);
    assert!(err.contains("--fail-on-error"), "{err}");
    assert!(err.contains("errored"), "{err}");

    // Without the flag the same merge succeeds and only reports.
    let mut plain = campaign_bin();
    plain.arg("merge").arg(&merged_dir).args(&shard_paths);
    let out = plain.output().expect("merge runs");
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("errored"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analyze_writes_a_deterministic_report() {
    let dir = temp_dir("analyze");
    let out = run_in(&dir, &["--quick", "--campaign", "noise_robustness"]);
    assert!(out.status.success(), "{}", stderr_of(&out));

    let analyze = |extra: &[&str]| {
        let mut args = vec!["analyze"];
        args.extend_from_slice(extra);
        args.push(dir.to_str().unwrap());
        run_in(&dir, &args)
    };
    let out = analyze(&["--json"]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let report_path = dir.join("analysis.jsonl");
    let report = std::fs::read_to_string(&report_path).expect("analysis.jsonl written");
    // --json echoes exactly the written report.
    assert!(
        stdout.contains(&report),
        "stdout lacks the report: {stdout}"
    );
    for key in [
        "\"record\":\"campaign\"",
        "\"record\":\"cell\"",
        "\"record\":\"axis\"",
        "\"record\":\"sensitivity\"",
        "\"error_rate_ci_lo\"",
        "\"error_rate_ci_hi\"",
        "\"capacity_model_bits_per_symbol\"",
    ] {
        assert!(report.contains(key), "{key} missing from {report}");
    }

    // A second invocation reproduces the report byte for byte.
    let out = analyze(&[]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert_eq!(
        std::fs::read_to_string(&report_path).expect("analysis.jsonl rewritten"),
        report,
        "two analyze invocations wrote different bytes"
    );

    // A different seed moves the CIs: the report is a function of the
    // analysis configuration too.
    let out = analyze(&["--seed", "0x9"]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert_ne!(
        std::fs::read_to_string(&report_path).expect("analysis.jsonl rewritten"),
        report,
        "--seed must reseed the bootstrap"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analyze_rejects_shard_streams_and_bad_arguments() {
    // No directory → usage.
    let no_dir = campaign_bin().arg("analyze").output().expect("runs");
    assert_eq!(no_dir.status.code(), Some(2));
    assert!(
        stderr_of(&no_dir).contains("_trials.jsonl"),
        "{}",
        stderr_of(&no_dir)
    );
    // Unknown flags and unparseable values → usage.
    let dir = temp_dir("analyze_bad");
    for bad in [
        &["analyze", "--frobnicate", "."][..],
        &["analyze", "--seed", "not-a-seed", "."],
        &["analyze", "--resamples", "many", "."],
    ] {
        let out = run_in(&dir, bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?} was accepted");
    }

    // An empty directory has nothing to analyze.
    std::fs::create_dir_all(&dir).expect("dir created");
    let out = run_in(&dir, &["analyze", dir.to_str().unwrap()]);
    assert!(!out.status.success(), "empty dir must fail");
    assert!(
        stderr_of(&out).contains("no <name>_trials.jsonl"),
        "{}",
        stderr_of(&out)
    );

    // A lone shard stream is a slice, not a campaign: point at merge.
    let out = run_in(
        &dir,
        &[
            "--quick",
            "--campaign",
            "noise_robustness",
            "--shard",
            "0/3",
        ],
    );
    assert!(out.status.success(), "{}", stderr_of(&out));
    let out = run_in(&dir, &["analyze", dir.to_str().unwrap()]);
    assert!(!out.status.success(), "shard stream must be rejected");
    let err = stderr_of(&out);
    assert!(err.contains("campaign merge"), "{err}");
    assert!(!dir.join("analysis.jsonl").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

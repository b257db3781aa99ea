//! Golden-output regression suite: every figure/table module runs in
//! quick mode and the CSV artifacts it emits must match the checked-in
//! files under `tests/golden/` byte for byte, as must the trial/cell
//! CSVs of every catalog campaign.
//!
//! This is what makes engine refactors safe: any change to seeding,
//! enumeration order, probe math, aggregation, or export formatting
//! shows up as a diff against the goldens instead of silently shifting
//! the paper artifacts. To bless an intentional change, run
//!
//! ```text
//! ICHANNELS_REGOLDEN=1 cargo test --test golden_figures
//! ```
//!
//! and commit the regenerated files with a note explaining why the
//! numbers moved.
//!
//! The goldens were recorded after the campaign-engine migration; they
//! are the first golden snapshot of the repository, not an update to an
//! older one.

use std::fs;
use std::path::PathBuf;

use ichannels_bench::figs;
use ichannels_repro::ichannels_lab::{campaigns, Executor};

/// Every artifact the quick-mode run must produce.
const GOLDEN_FILES: &[&str] = &[
    // Figure/table modules.
    "fig06a_vcc_steps.csv",
    "fig06b_calculix.csv",
    "fig07a_limits.csv",
    "fig07b_phases.csv",
    "fig08a_tp_distribution.csv",
    "fig09a_guardband.csv",
    "fig09c_pstate.csv",
    "fig10a_tp_sweep.csv",
    "fig10b_preceded.csv",
    "fig11_idq_undelivered.csv",
    "fig12_throughput.csv",
    "fig13_tp_distribution.csv",
    "fig14a_ber_vs_event_rate.csv",
    "fig14b_error_matrix.csv",
    "fig14c_ber_vs_app_rate.csv",
    "table1_mitigations.csv",
    "table2_comparison.csv",
    "ablation_slew.csv",
    "ablation_reset_time.csv",
    "ablation_jitter.csv",
    // Catalog campaigns (quick): raw trials + per-cell aggregates.
    "client_vs_server_trials.csv",
    "client_vs_server_cells.csv",
    "noise_robustness_trials.csv",
    "noise_robustness_cells.csv",
    "mitigation_coverage_trials.csv",
    "mitigation_coverage_cells.csv",
    "modulation_capacity_trials.csv",
    "modulation_capacity_cells.csv",
    "receiver_calibration_trials.csv",
    "receiver_calibration_cells.csv",
];

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// First line where two documents differ, for a readable failure.
fn first_diff(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("line {}: golden `{la}` vs produced `{lb}`", i + 1);
        }
    }
    format!(
        "line counts differ: golden {} vs produced {}",
        a.lines().count(),
        b.lines().count()
    )
}

#[test]
fn golden_figure_outputs_match() {
    let out = std::env::temp_dir().join("ichannels_golden_results");
    let _ = fs::remove_dir_all(&out);
    // The figure modules write through `ichannels_bench::write_csv`,
    // which honors this variable. This test binary owns the variable
    // (single #[test] touching it), so there is no cross-test race.
    std::env::set_var("ICHANNELS_RESULTS", &out);

    figs::fig06::run(true).expect("harness runs");
    figs::fig07::run(true).expect("harness runs");
    figs::fig08::run(true).expect("harness runs");
    figs::fig09::run(true).expect("harness runs");
    figs::fig10::run(true).expect("harness runs");
    figs::fig11::run(true).expect("harness runs");
    figs::fig12::run(true).expect("harness runs");
    figs::fig13::run(true).expect("harness runs");
    figs::fig14::run(true).expect("harness runs");
    figs::table1::run(true).expect("harness runs");
    figs::table2::run(true).expect("harness runs");
    figs::ablation::run(true).expect("harness runs");
    // The same writer `campaign` and `repro_all` use.
    for (name, grid) in campaigns::catalog(true) {
        campaigns::run_to_dir(name, &grid, Executor::auto(), &out, Default::default())
            .expect("campaign artifacts written");
    }

    let regolden = std::env::var_os("ICHANNELS_REGOLDEN").is_some();
    let mut failures = Vec::new();
    for name in GOLDEN_FILES {
        let produced = match fs::read_to_string(out.join(name)) {
            Ok(s) => s,
            Err(e) => {
                failures.push(format!("{name}: not produced ({e})"));
                continue;
            }
        };
        let gpath = golden_path(name);
        if regolden {
            fs::create_dir_all(gpath.parent().expect("golden dir")).expect("mkdir golden");
            fs::write(&gpath, &produced).expect("golden written");
            continue;
        }
        match fs::read_to_string(&gpath) {
            Ok(golden) if golden == produced => {}
            Ok(golden) => failures.push(format!("{name}: {}", first_diff(&golden, &produced))),
            Err(e) => failures.push(format!(
                "{name}: golden missing ({e}) — record with ICHANNELS_REGOLDEN=1"
            )),
        }
    }
    assert!(
        failures.is_empty(),
        "golden mismatches:\n  {}",
        failures.join("\n  ")
    );
    let _ = fs::remove_dir_all(&out);
}

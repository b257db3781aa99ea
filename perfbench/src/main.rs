//! `perfbench`: the end-to-end and per-layer benchmark of the IChannels
//! reproduction. See `README.md` for the workload and metric catalog.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with all telemetry off.
//! `--trace 1` is a separate invocation for the per-layer metrics: it
//! alternates untraced and traced iterations of the same body (the
//! traced ones with the outside timers and `ichannels_obs` on), then
//! replays a fresh-seed sample of the body's trials through the layer
//! calls and measures unit costs in isolation. Either way the last line
//! of stdout is one JSON object; a failed output check exits 1.

mod catalog;
mod layers;
mod probes;
mod replay;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use catalog::{Metric, END_TO_END, PER_LAYER};
use stats::{median, peak_rss_mb, Timers};
use workloads::Verdict;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {:?}",
            workloads::NAMES
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A scratch directory inside the working directory, removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Removed only once no concurrent run still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Totals over the measured iterations.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    work: f64,
    failures: Vec<String>,
    digest: Option<u64>,
}

impl Tally {
    fn add(&mut self, v: Verdict) {
        self.attempted += v.attempted;
        self.failed += v.failed;
        self.work += v.work;
        self.digest.get_or_insert(v.digest);
        for f in v.failures {
            if self.failures.len() < 10 {
                self.failures.push(f);
            }
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    cap_malloc_arenas(workloads::threads(&args.workload));
    let work = WorkDir(Path::new(".perfbench_work").join(std::process::id().to_string()));
    match run(&args, &work.0) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}

/// Caps glibc's malloc arenas at one per thread the workload runs: the
/// main thread plus its pool workers. The pool spawns fresh scoped
/// workers for every call, and the scope returns before an exiting
/// worker has handed its arena back, so the next worker can make glibc
/// create another arena. Uncapped, that race moved `catalog_cold`'s
/// peak RSS between 28 and 50 MB from run to run; capped, every run
/// keeps the arena count a run without the race has.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn cap_malloc_arenas(workers: usize) {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    let arenas = i32::try_from(workers + 1).unwrap_or(i32::MAX);
    // SAFETY: `mallopt` only sets a glibc allocator parameter; any
    // positive M_ARENA_MAX is valid, and no allocation is in flight on
    // another thread because none has been spawned yet.
    unsafe {
        mallopt(M_ARENA_MAX, arenas);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn cap_malloc_arenas(_workers: usize) {}

/// Runs the benchmark; `Ok(false)` when an output check failed.
fn run(args: &Args, dir: &Path) -> std::io::Result<bool> {
    // Set-up: repeated with the same seed, the median reported; the
    // last up-front repetition's state is the one measured.
    let (upfront, interleaved) = workloads::setup_plan(&args.workload);
    let mut setup_times = Vec::new();
    let mut state = None;
    let mut rep = 0;
    let mut set_up = |setup_times: &mut Vec<f64>| {
        let started = Instant::now();
        let w = workloads::setup(&args.workload, args.seed, rep, dir);
        setup_times.push(started.elapsed().as_secs_f64());
        rep += 1;
        w
    };
    for _ in 0..upfront {
        state = Some(set_up(&mut setup_times)?);
    }
    let mut w = state.expect("at least one set-up");

    let mut tally = Tally::default();
    let mut plain = Vec::new();
    let mut traced = layers::Traced::default();
    let started = Instant::now();
    let mut iter = 0u64;
    // Traced invocations alternate untraced and traced iterations.
    let min_iters = if args.trace { 4 } else { 3 };
    while iter < min_iters || started.elapsed().as_secs_f64() < args.seconds {
        let trace_this = args.trace && iter % 2 == 1;
        let mut timers = Timers::new(trace_this);
        if trace_this {
            ichannels_obs::reset();
            ichannels_obs::set_enabled(true);
        }
        let t0 = Instant::now();
        w.run(iter, &mut timers)?;
        let dt = t0.elapsed().as_secs_f64();
        let verdict = w.verify();
        if trace_this {
            ichannels_obs::set_enabled(false);
            let snap = ichannels_obs::global().snapshot();
            traced.add(dt, &timers, snap, &verdict, w.findings());
        } else {
            plain.push(dt);
        }
        tally.add(verdict);
        iter += 1;
        if interleaved {
            set_up(&mut setup_times)?;
        }
    }
    let setup_s = median(&setup_times);
    let run_s = median(&plain);
    let work_per_s = tally.work / plain.iter().chain(&traced.walls).sum::<f64>();

    let values: Vec<(Metric, f64)> = if args.trace {
        let threads = workloads::threads(&args.workload);
        let layer = layers::measure(w.as_ref(), threads, &traced, run_s, args.seed, dir)?;
        // A cold catalog must never be served by the calibration memo:
        // a hit means passes share seeds and the run measures warm.
        let hits = layer.get("core.calibration.memo_hit_ratio");
        if args.workload == "catalog_cold" && hits != 0.0 {
            tally.failed += 1;
            tally
                .failures
                .push(format!("memo hit ratio {hits} on a cold catalog"));
        }
        layers::print_table(&args.workload, &layer);
        PER_LAYER.iter().map(|&m| (m, layer.get(m.name))).collect()
    } else {
        let values = [setup_s, run_s, work_per_s, peak_rss_mb()];
        END_TO_END.iter().copied().zip(values).collect()
    };

    println!(
        "workload {} seed {}: {} iterations, {} attempted, {} failed (failed_frac {}), \
         output digest fnv1a {:#018x} (iteration 0)",
        args.workload,
        args.seed,
        iter,
        tally.attempted,
        tally.failed,
        stats::ratio(tally.failed as f64, tally.attempted as f64),
        tally.digest.unwrap_or(0)
    );
    println!(
        "  untraced iteration wall: min {:.6} s, median {:.6} s, p90 {:.6} s, max {:.6} s over {} iterations",
        stats::quantile(&plain, 0.0),
        run_s,
        stats::quantile(&plain, 0.9),
        stats::quantile(&plain, 1.0),
        plain.len()
    );
    for f in &tally.failures {
        println!("  check: {f}");
    }
    for (m, v) in &values {
        println!("  {:<34} {:>16.6} {}", m.name, v, m.unit);
    }
    let correct = tally.failed == 0;
    let metrics: Vec<String> = values
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(*v),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics.join(", ")
    );
    Ok(correct)
}

/// A JSON number with every digit Rust's shortest round-trip rendering
/// gives; non-finite values (nothing measured) print as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_benchmark_json_metric_is_printed_and_well_named() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let listed = |section: &str| -> Vec<String> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split("\"name\":")
                .skip(1)
                .map(|s| {
                    s.trim()
                        .trim_start_matches('"')
                        .split('"')
                        .next()
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        for (section, printed) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let names = listed(section);
            let ours: Vec<&str> = printed.iter().map(|m| m.name).collect();
            assert_eq!(
                names, ours,
                "{section} in BENCHMARK.json vs the printed metrics"
            );
            for m in printed {
                assert!(catalog::valid_name(m.name), "bad metric name {}", m.name);
                assert!(
                    text.contains(&format!("\"unit\": \"{}\"", m.unit)),
                    "{}",
                    m.unit
                );
            }
        }
        for name in workloads::NAMES {
            assert!(text.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>());
        let ok = args("--workload stream_post --seed 7 --seconds 2 --trace 1").unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 2.0, true));
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload stream_post --trace 2").is_err());
        assert!(args("--seed 1").is_err());
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_num(1.2034567891), "1.2034567891");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(f64::NAN), "0.0");
    }
}

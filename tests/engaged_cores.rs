//! The simulator steps only *engaged* cores — the cores a program has
//! been spawned on since construction or the last re-arm — and the
//! PMU scans only the cores that have executed something. Every other
//! core is as constructed, contributes `+0.0` to every sum and nothing
//! to every minimum, so skipping it must not move a single bit.
//!
//! There is no second, full-scan code path to compare against. Instead,
//! each schedule runs twice: once as-is, and once after an
//! immediately-halting program has been spawned on every core. The
//! halting programs retire nothing, draw no randomness and leave every
//! core idle, but they engage all cores, so the second run visits every
//! core on every event, exactly as a full scan does. Both runs must
//! agree bit for bit on the trace, every thread's retired instructions,
//! the receiver's timestamps, the final instant, the electrical state
//! and the number of events.

use std::cell::RefCell;
use std::rc::Rc;

use ichannels_repro::ichannels_soc::config::{PlatformSpec, SocConfig};
use ichannels_repro::ichannels_soc::noise::NoiseConfig;
use ichannels_repro::ichannels_soc::program::{Action, FnProgram, ProgCtx, Script};
use ichannels_repro::ichannels_soc::sim::{Soc, StepCounts};
use ichannels_repro::ichannels_soc::trace::Sample;
use ichannels_repro::ichannels_uarch::isa::InstClass;
use ichannels_repro::ichannels_uarch::time::{Freq, SimTime};

/// A sample with every `f64` as its bit pattern.
type SampleBits = (SimTime, u64, u64, Freq, u64, Vec<bool>, Vec<u64>);

fn sample_bits(s: &Sample) -> SampleBits {
    (
        s.time,
        s.vcc_mv.to_bits(),
        s.icc_a.to_bits(),
        s.freq,
        s.temp_c.to_bits(),
        s.throttled.clone(),
        s.core_ipc.iter().map(|x| x.to_bits()).collect(),
    )
}

/// Everything a run exposes, with every `f64` as its bit pattern.
#[derive(Debug, PartialEq)]
struct Observed {
    end: SimTime,
    counts: StepCounts,
    samples: Vec<SampleBits>,
    /// Retired instructions of every (core, SMT) hardware thread.
    retired: Vec<u64>,
    /// The receiver's `rdtsc` value at every action boundary.
    rx_tsc: Vec<u64>,
    freq: Freq,
    vcc_mv: u64,
    icc_a: u64,
    temp_c: u64,
}

/// A sender on core 0 that raises the license level by level, then
/// sleeps past the 650 µs reset-time (its license decays and its AVX
/// gate closes) before one last 512b burst.
fn sender() -> Script {
    let mut actions = Vec::new();
    for class in [
        InstClass::Heavy128,
        InstClass::Heavy256,
        InstClass::Heavy512,
        InstClass::Light256,
    ] {
        actions.push(Action::Run {
            class,
            instructions: 30_000,
        });
        actions.push(Action::SleepFor(SimTime::from_us(120.0)));
    }
    actions.push(Action::SleepFor(SimTime::from_us(700.0)));
    actions.push(Action::Run {
        class: InstClass::Heavy512,
        instructions: 20_000,
    });
    Script::new(actions, "sender")
}

/// A receiver that measures short 128b loops, as the IChannels
/// receiver does, and logs `rdtsc` at every action boundary.
fn receiver(log: Rc<RefCell<Vec<u64>>>) -> FnProgram<impl FnMut(&ProgCtx) -> Action> {
    let mut n = 0;
    FnProgram::new("receiver", move |ctx: &ProgCtx| {
        log.borrow_mut().push(ctx.tsc);
        n += 1;
        match n {
            40.. => Action::Halt,
            _ if n % 2 == 1 => Action::Run {
                class: InstClass::Heavy128,
                instructions: 8_000,
            },
            _ => Action::SleepFor(SimTime::from_us(60.0)),
        }
    })
}

/// Runs the schedule on `cfg`. With `engage_all`, a halting program is
/// first spawned on every core.
///
/// The schedule: the sender on (0, 0) from the start, a scalar loop on
/// its SMT sibling where there is one, a mixed application on the
/// middle core on parts with more than two cores, and the receiver on
/// the last core (core 27 on the server part), spawned mid-run while
/// that core is still idle and the sender's first ramp is in flight.
fn drive(cfg: &SocConfig, engage_all: bool) -> Observed {
    let n_cores = cfg.platform.n_cores;
    let threads = cfg.platform.threads_per_core();
    let mut soc = Soc::new(cfg.clone());
    if engage_all {
        for core in 0..n_cores {
            soc.spawn(
                core,
                0,
                Box::new(FnProgram::new("halt", |_: &ProgCtx| Action::Halt)),
            );
        }
    }
    soc.spawn(0, 0, Box::new(sender()));
    if threads > 1 {
        soc.spawn(
            0,
            1,
            Box::new(Script::run_loop(InstClass::Scalar64, 200_000)),
        );
    }
    if n_cores > 2 {
        let app = Script::new(
            vec![
                Action::SleepFor(SimTime::from_us(60.0)),
                Action::Run {
                    class: InstClass::Light512,
                    instructions: 50_000,
                },
                Action::Run {
                    class: InstClass::Scalar64,
                    instructions: 100_000,
                },
            ],
            "app",
        );
        soc.spawn(n_cores / 2, 0, Box::new(app));
    }
    soc.run_until(SimTime::from_us(3.0));
    let rx_tsc = Rc::new(RefCell::new(Vec::new()));
    soc.spawn(n_cores - 1, 0, Box::new(receiver(rx_tsc.clone())));
    let end = soc.run_until_idle(SimTime::from_ms(4.0));
    let retired = (0..n_cores)
        .flat_map(|c| (0..threads).map(move |s| (c, s)))
        .map(|(c, s)| soc.inst_retired(c, s).to_bits())
        .collect();
    let rx_tsc = rx_tsc.borrow().clone();
    Observed {
        end,
        counts: soc.step_counts(),
        samples: soc.trace().samples().iter().map(sample_bits).collect(),
        retired,
        rx_tsc,
        freq: soc.freq(),
        vcc_mv: soc.vcc_mv().to_bits(),
        icc_a: soc.icc_a().to_bits(),
        temp_c: soc.temp_c().to_bits(),
    }
}

/// Heavy OS noise: many arrivals on every engaged thread.
fn noisy() -> NoiseConfig {
    let mut n = NoiseConfig::quiet();
    n.interrupt_rate_hz = 50_000.0;
    n.ctx_switch_rate_hz = 5_000.0;
    n
}

/// Every platform under every configuration the engaged-core loops
/// branch on: turbo (performance governor, so frequency retargets
/// run the electrical-limit search), pinned frequency, shared and
/// per-core VR, secure mode, improved throttling, quiet and noisy.
fn configs() -> Vec<(String, SocConfig)> {
    let mut out = Vec::new();
    for platform in [
        PlatformSpec::cannon_lake(),
        PlatformSpec::coffee_lake(),
        PlatformSpec::haswell(),
        PlatformSpec::skylake_server(),
    ] {
        let name = platform.name;
        let freq = platform.pstates.highest_not_above(Freq::from_ghz(2.0));
        let pinned = SocConfig::pinned(platform.clone(), freq);
        let variants = [
            ("turbo", SocConfig::quiet(platform.clone())),
            ("pinned", pinned.clone()),
            ("noisy", pinned.clone().with_noise(noisy())),
            (
                "turbo noisy",
                SocConfig::quiet(platform.clone()).with_noise(noisy()),
            ),
            ("per-core VR", pinned.clone().with_per_core_vr()),
            ("secure mode", pinned.clone().with_secure_mode()),
            (
                "improved throttling",
                pinned.clone().with_improved_throttling(),
            ),
            (
                "per-core VR noisy",
                pinned.clone().with_per_core_vr().with_noise(noisy()),
            ),
        ];
        for (label, cfg) in variants {
            let mut cfg = cfg.with_trace(SimTime::from_us(7.0));
            cfg.seed = 0x5EED_0017;
            out.push((format!("{name} {label}"), cfg));
        }
    }
    out
}

#[test]
fn stepping_only_engaged_cores_is_bit_identical_to_stepping_all() {
    for (label, cfg) in configs() {
        let sparse = drive(&cfg, false);
        let full = drive(&cfg, true);
        assert!(sparse.end > SimTime::from_ms(1.0), "{label}: ended early");
        assert!(sparse.rx_tsc.len() == 40, "{label}: receiver did not run");
        assert!(!sparse.samples.is_empty(), "{label}: no trace");
        let first_diff = (0..sparse.samples.len().max(full.samples.len()))
            .find(|&i| sparse.samples.get(i) != full.samples.get(i));
        if let Some(i) = first_diff {
            panic!(
                "{label}: trace sample {i} differs: {:?} vs {:?}",
                sparse.samples.get(i),
                full.samples.get(i)
            );
        }
        assert_eq!(sparse, full, "{label}");
    }
}

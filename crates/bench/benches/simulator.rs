//! Criterion microbenchmarks of the simulator substrate: event-loop
//! throughput, IDQ cycle model, PMU request path, and VR scheduling.

use criterion::{criterion_group, criterion_main, Criterion};
use ichannels_pdn::guardband::{CdynTable, GuardbandModel};
use ichannels_pdn::regulator::VrModel;
use ichannels_pmu::central::{CentralPmu, PmuConfig, VrRail, MAX_SEGMENTS};
use ichannels_soc::config::{PlatformSpec, SocConfig};
use ichannels_soc::program::Script;
use ichannels_soc::sim::Soc;
use ichannels_uarch::idq::{Idq, ThreadDemand};
use ichannels_uarch::isa::InstClass;
use ichannels_uarch::time::{Freq, SimTime};

fn bench_soc(c: &mut Criterion) {
    let mut group = c.benchmark_group("soc");
    group.sample_size(10);
    group.bench_function("phi_loop_1ms", |b| {
        b.iter(|| {
            let cfg = SocConfig::pinned(PlatformSpec::cannon_lake(), Freq::from_ghz(1.4));
            let mut soc = Soc::new(cfg);
            soc.spawn(
                0,
                0,
                Box::new(Script::run_loop(InstClass::Heavy256, 1_400_000)),
            );
            soc.run_until_idle(SimTime::from_ms(5.0))
        })
    });
    group.bench_function("idle_60s_fast_forward", |b| {
        b.iter(|| {
            let cfg = SocConfig::pinned(PlatformSpec::cannon_lake(), Freq::from_ghz(1.4));
            let mut soc = Soc::new(cfg);
            soc.run_until(SimTime::from_secs(60.0));
            soc.now()
        })
    });
    group.finish();
}

fn bench_idq(c: &mut Criterion) {
    c.bench_function("idq_100k_cycles_throttled", |b| {
        b.iter(|| {
            let mut idq = Idq::new();
            idq.set_throttled(true);
            let mut total = 0u64;
            for _ in 0..100_000 {
                total += u64::from(
                    idq.cycle(ThreadDemand::busy(), ThreadDemand::busy())
                        .total(),
                );
            }
            total
        })
    });
}

fn bench_pmu(c: &mut Criterion) {
    c.bench_function("pmu_license_request", |b| {
        let cfg = PmuConfig {
            n_cores: 2,
            guardband: GuardbandModel::new(CdynTable::default(), 1.9),
            vr_model: VrModel::mbvr(),
            reset_time: SimTime::from_us(650.0),
            per_core_vr: false,
            secure_mode: false,
        };
        b.iter(|| {
            let mut pmu = CentralPmu::new(cfg.clone(), Freq::from_ghz(1.4), 760.0);
            let mut t = SimTime::ZERO;
            for _ in 0..100 {
                let g = pmu.on_execute(0, InstClass::Heavy512, t);
                t = g.ready_at + SimTime::from_us(700.0);
                pmu.process_decays(t);
            }
            pmu.package_setpoint_mv()
        })
    });
    // `pmu_license_request` cannot see the cost of a full rail: it
    // rebuilds the PMU every iteration and schedules only ~200 ramps,
    // far below the `MAX_SEGMENTS` history window. A long trial (the
    // 60-s §6.3 run schedules ~170k ramps) spends almost all its
    // transitions on a rail whose history is full, so that path gets
    // its own bench. One iteration is 1,000 `schedule` calls on a rail
    // already holding `MAX_SEGMENTS` ramps; divide by 1,000 for the
    // per-call cost.
    c.bench_function("pmu_rail_schedule_saturated", |b| {
        let mut rail = VrRail::new(VrModel::mbvr(), 760.0);
        let mut t = SimTime::ZERO;
        let mut step = |rail: &mut VrRail, i: usize| {
            let target = if i.is_multiple_of(2) { 790.0 } else { 760.0 };
            t = rail.schedule(t, target).1 + SimTime::from_us(1.0);
        };
        for i in 0..MAX_SEGMENTS {
            step(&mut rail, i);
        }
        b.iter(|| {
            for i in 0..1_000 {
                step(&mut rail, i);
            }
            rail.setpoint_mv()
        })
    });
}

criterion_group!(benches, bench_soc, bench_idq, bench_pmu);
criterion_main!(benches);

//! Criterion microbenchmarks of the covert-channel hot paths: one full
//! transaction per channel kind, calibration, symbol coding and
//! decoding.

use criterion::{criterion_group, criterion_main, Criterion};
use ichannels::ber::random_symbols;
use ichannels::channel::IChannel;
use ichannels::symbols::{bits_to_symbols, symbols_to_bits, Symbol};

fn bench_transactions(c: &mut Criterion) {
    let mut group = c.benchmark_group("channel_transaction");
    group.sample_size(10);
    for (name, ch) in [
        ("icc_thread_covert", IChannel::icc_thread_covert()),
        ("icc_smt_covert", IChannel::icc_smt_covert()),
        ("icc_cores_covert", IChannel::icc_cores_covert()),
    ] {
        let cal = ch.try_calibrate(2).unwrap();
        let symbols = random_symbols(4, 7);
        group.bench_function(name, |b| {
            b.iter(|| {
                let tx = ch.try_transmit_symbols(&symbols, &cal).unwrap();
                assert_eq!(tx.sent.len(), 4);
                tx
            })
        });
    }
    group.finish();
}

fn bench_calibration(c: &mut Criterion) {
    let mut group = c.benchmark_group("calibration");
    group.sample_size(10);
    let ch = IChannel::icc_thread_covert();
    group.bench_function("calibrate_2_reps", |b| {
        b.iter(|| ch.try_calibrate(2).unwrap())
    });
    group.finish();
}

fn bench_coding(c: &mut Criterion) {
    let bits: Vec<bool> = (0..1024).map(|i| i % 3 == 0).collect();
    c.bench_function("symbol_coding_1kbit", |b| {
        b.iter(|| {
            let symbols = bits_to_symbols(&bits);
            symbols_to_bits(&symbols)
        })
    });
    let ch = IChannel::icc_thread_covert();
    let cal = ch.try_calibrate(2).unwrap();
    c.bench_function("nearest_mean_decode", |b| {
        b.iter(|| {
            let mut acc = 0u8;
            for d in [10_000u64, 20_000, 30_000, 40_000] {
                acc ^= cal.decode(d).value();
            }
            acc
        })
    });
    let _ = Symbol::ALL;
}

criterion_group!(benches, bench_transactions, bench_calibration, bench_coding);
criterion_main!(benches);

//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **KS vs Welch decision quality** is covered by unit tests (Welch
//!   misses equal-mean distribution changes); here we measure the *cost*
//!   ratio on trace-shaped features.
//! * **Warp aggregation**: A-DCFG construction versus per-thread trace
//!   recording for the same execution.
//! * **Countermeasure overhead**: the constant-access scan AES versus the
//!   leaky T-table AES (the price of the scatter-gather-style fix).

use criterion::{criterion_group, criterion_main, Criterion};
use owl_baselines::record_per_thread;
use owl_core::{Recorder, RunSpec};
use owl_host::Device;
use owl_workloads::aes::{AesScan, AesTTable};
use owl_workloads::dummy::DummySbox;
use std::time::Duration;

fn quick(c: &mut Criterion) -> criterion::BenchmarkGroup<'_, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group("ablation");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    g
}

fn bench_aggregation(c: &mut Criterion) {
    let mut g = quick(c);
    let dummy = DummySbox::new(2048);
    let recorder = Recorder::default();
    g.bench_function("aggregation/owl-adcfg-2k-threads", |b| {
        b.iter(|| {
            let attempt = recorder.record(&dummy, &1, &RunSpec::default());
            attempt.result.expect("trace")
        })
    });
    g.bench_function("aggregation/per-thread-2k-threads", |b| {
        b.iter(|| record_per_thread(&dummy, &1).expect("trace"))
    });
    g.finish();
}

fn bench_countermeasure(c: &mut Criterion) {
    let mut g = quick(c);
    let leaky = AesTTable::new(32);
    let ct = AesScan::with_rounds(32, 10);
    let key = [0x42u8; 16];
    g.bench_function("countermeasure/aes-ttable-encrypt", |b| {
        b.iter(|| leaky.encrypt(&mut Device::new(), &key).expect("ct"))
    });
    g.bench_function("countermeasure/aes-scan-encrypt", |b| {
        b.iter(|| ct.encrypt(&mut Device::new(), &key).expect("ct"))
    });
    g.finish();
}

criterion_group!(benches, bench_aggregation, bench_countermeasure);
criterion_main!(benches);

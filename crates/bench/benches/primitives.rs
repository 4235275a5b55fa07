//! Criterion benches for the statistical and graph primitives: the KS
//! test (vs Welch's t-test, the paper's ablation against prior work),
//! Myers alignment, and A-DCFG construction/merging.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use owl_dcfg::{myers_align, Adcfg, AdcfgBuilder};
use owl_stats::{ks_two_sample, welch_t_test, WeightedSamples};
use std::time::Duration;

fn quick<'a>(
    c: &'a mut Criterion,
    name: &str,
) -> criterion::BenchmarkGroup<'a, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group(name);
    g.sample_size(20);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    g
}

fn samples(n: u64, shift: u64) -> WeightedSamples {
    WeightedSamples::from_pairs((0..n).map(|i| (((i * 37 + shift) % 256) as f64, 1 + i % 4)))
}

fn bench_distribution_tests(c: &mut Criterion) {
    let mut g = quick(c, "distribution-tests");
    for n in [64u64, 512, 4096] {
        let x = samples(n, 0);
        let y = samples(n, 5);
        g.bench_with_input(BenchmarkId::new("ks", n), &n, |b, _| {
            b.iter(|| ks_two_sample(&x, &y, 0.95))
        });
        g.bench_with_input(BenchmarkId::new("welch", n), &n, |b, _| {
            b.iter(|| welch_t_test(&x, &y, 4.5))
        });
    }
    g.finish();
}

fn bench_myers(c: &mut Criterion) {
    let mut g = quick(c, "myers");
    for n in [16usize, 128, 1024] {
        let a: Vec<u32> = (0..n as u32).collect();
        let mut b_seq = a.clone();
        // ~10% edits.
        for i in (0..n).step_by(10) {
            b_seq[i] = u32::MAX - i as u32;
        }
        g.bench_with_input(BenchmarkId::new("align", n), &n, |b, _| {
            b.iter(|| myers_align(&a, &b_seq))
        });
    }
    g.finish();
}

fn build_graph(warps: u64) -> Adcfg {
    let mut b = AdcfgBuilder::new();
    for w in 0..warps {
        for bb in [0u32, 1, 2, 1, 2, 3] {
            b.enter_block(w, bb);
            b.block_recorder(w)
                .access(0, [(w * 13 + u64::from(bb) * 7) % 256]);
        }
    }
    b.finish()
}

fn bench_adcfg(c: &mut Criterion) {
    let mut g = quick(c, "adcfg");
    for warps in [4u64, 64, 1024] {
        g.bench_with_input(BenchmarkId::new("build", warps), &warps, |b, &w| {
            b.iter(|| build_graph(w))
        });
    }
    let a = build_graph(64);
    let b2 = build_graph(64);
    g.bench_function("merge-64-warp-graphs", |b| {
        b.iter(|| {
            let mut m = a.clone();
            m.merge(&b2);
            m
        })
    });
    g.finish();
}

criterion_group!(benches, bench_distribution_tests, bench_myers, bench_adcfg);
criterion_main!(benches);

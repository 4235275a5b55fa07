//! Criterion benches for the Table IV phase costs: trace collection per
//! workload, evidence merging, the distribution tests, and the evidence
//! phase's serial-vs-parallel wall time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use owl_core::{
    detect, leakage_test, AnalysisConfig, Evidence, OwlConfig, ProgramTrace, Recorder, RunSpec,
    TracedProgram,
};
use owl_workloads::aes::AesTTable;
use owl_workloads::dummy::DummySbox;
use owl_workloads::jpeg::JpegEncode;
use owl_workloads::rsa::RsaSquareMultiply;
use owl_workloads::torch::{TorchFunction, TorchOpKind};
use std::time::Duration;

fn quick(c: &mut Criterion) -> criterion::BenchmarkGroup<'_, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group("table4");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    g
}

/// One standalone recording of `program` over `input`.
fn trace_of<P: TracedProgram>(program: &P, input: &P::Input) -> ProgramTrace {
    let attempt = Recorder::default().record(program, input, &RunSpec::default());
    attempt.result.expect("trace").0
}

fn bench_trace_collection(c: &mut Criterion) {
    let mut g = quick(c);

    let aes = AesTTable::new(32);
    let key = [0x3cu8; 16];
    g.bench_function("trace/aes128-ttable", |b| b.iter(|| trace_of(&aes, &key)));

    let rsa = RsaSquareMultiply::new(32);
    g.bench_function("trace/rsa-sqm", |b| {
        b.iter(|| trace_of(&rsa, &0xdead_beefu64))
    });

    let relu = TorchFunction::new(TorchOpKind::Relu);
    let input = relu.random_input(1);
    g.bench_function("trace/torch-relu", |b| b.iter(|| trace_of(&relu, &input)));

    let enc = JpegEncode::new(16, 16);
    let img = enc.random_input(1);
    g.bench_function("trace/jpeg-encode", |b| b.iter(|| trace_of(&enc, &img)));

    let dummy = DummySbox::new(1024);
    g.bench_function("trace/dummy-1k-threads", |b| {
        b.iter(|| trace_of(&dummy, &7))
    });
    g.finish();
}

fn bench_evidence_and_tests(c: &mut Criterion) {
    let mut g = quick(c);

    let aes = AesTTable::new(32);
    let fixed: Vec<_> = (0..20).map(|_| trace_of(&aes, &[1u8; 16])).collect();
    let random: Vec<_> = (0..20)
        .map(|s| trace_of(&aes, &aes.random_input(s)))
        .collect();

    g.bench_function("evidence/merge-20-aes-traces", |b| {
        b.iter(|| Evidence::from_traces(fixed.iter().cloned()))
    });

    let e_fix = Evidence::from_traces(fixed.iter().cloned());
    let e_rnd = Evidence::from_traces(random.iter().cloned());
    let cfg = AnalysisConfig::default();
    g.bench_function("tests/ks-leakage-test-aes", |b| {
        b.iter(|| leakage_test(&e_fix, &e_rnd, &cfg))
    });
    g.finish();
}

/// The tentpole speedup: one full detection (force-analysis, so phase 3
/// always runs) at increasing worker counts. By the determinism contract
/// the reports are bit-identical across the sweep; only the evidence-phase
/// wall time should move.
fn bench_parallel_evidence(c: &mut Criterion) {
    let mut g = quick(c);

    let aes = AesTTable::new(32);
    let keys = [[0u8; 16], [0x3cu8; 16]];
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut worker_counts = vec![1usize, 2, 4, cores];
    worker_counts.sort_unstable();
    worker_counts.dedup();
    for workers in worker_counts {
        g.bench_with_input(
            BenchmarkId::new("evidence/detect-aes-workers", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    detect(
                        &aes,
                        &keys,
                        &OwlConfig {
                            runs: 10,
                            parallelism: workers,
                            force_analysis: true,
                            ..OwlConfig::default()
                        },
                    )
                    .expect("detection")
                })
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_trace_collection,
    bench_evidence_and_tests,
    bench_parallel_evidence
);
criterion_main!(benches);

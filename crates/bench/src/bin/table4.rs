//! Regenerates Table IV: Owl's per-phase cost per workload — trace size
//! and collection time, evidence merge time, distribution-test time, peak
//! evidence footprint, and total detection time.
//!
//! ```text
//! cargo run --release -p owl-bench --bin table4 [--runs N]
//! ```

use owl_bench::{fmt_bytes, write_bench_json};
use owl_core::{detect, OwlConfig, Recorder, RunSpec, SimCounters, TracedProgram};
use owl_workloads::aes::AesTTable;
use owl_workloads::jpeg::{synthetic_image, JpegDecode, JpegEncode};
use owl_workloads::rsa::RsaSquareMultiply;
use owl_workloads::torch::{Tensor, TorchFunction, TorchInput, TorchOpKind};
use std::time::Instant;

#[derive(serde::Serialize)]
struct Row {
    name: String,
    trace_bytes: usize,
    trace_time_ms: f64,
    evidence_traces: usize,
    evidence_ms: f64,
    test_ms: f64,
    peak_bytes: usize,
    total_ms: f64,
    counters: SimCounters,
}

fn measure<P>(name: &str, program: &P, inputs: &[P::Input], runs: usize) -> Row
where
    P: TracedProgram + Sync,
    P::Input: Send + Sync,
{
    // Per-trace cost, measured directly (the Table IV "Trace Collection"
    // columns are per trace).
    let t0 = Instant::now();
    let recorded = Recorder::default().record(program, &inputs[0], &RunSpec::default());
    let (trace, _) = recorded.result.expect("trace");
    let trace_time_ms = t0.elapsed().as_secs_f64() * 1e3;
    let trace_bytes = trace.size_bytes();

    let detection = detect(
        program,
        inputs,
        &OwlConfig {
            runs,
            force_analysis: true, // always measure the full pipeline
            ..OwlConfig::default()
        },
    )
    .expect("detection");
    Row {
        name: name.to_string(),
        trace_bytes,
        trace_time_ms,
        evidence_traces: detection.stats.evidence_traces,
        evidence_ms: detection.stats.evidence_time.as_secs_f64() * 1e3,
        test_ms: detection.stats.test_time.as_secs_f64() * 1e3,
        peak_bytes: detection.stats.peak_evidence_bytes,
        total_ms: detection.stats.total_time.as_secs_f64() * 1e3,
        counters: detection.counters,
    }
}

fn runs_from_args() -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--runs" {
            return args.next().and_then(|v| v.parse().ok()).expect("--runs N");
        }
    }
    100
}

fn main() {
    let runs = runs_from_args();
    let mut rows = Vec::new();

    let keys = [[0u8; 16], [0xff; 16], *b"owl-sca-detector"];
    rows.push(measure("aes128-ttable", &AesTTable::new(32), &keys, runs));
    rows.push(measure(
        "rsa-sqm",
        &RsaSquareMultiply::new(32),
        &[0x8000_0001u64, 0xffff_ffff, 3],
        runs,
    ));
    for kind in TorchOpKind::ALL {
        let f = TorchFunction::new(kind);
        let mut inputs: Vec<TorchInput> = (0..3).map(|s| f.random_input(500 + s)).collect();
        if kind == TorchOpKind::TensorRepr {
            inputs.push(TorchInput::Tensor(Tensor::zeros([
                owl_workloads::torch::function::VEC_N,
            ])));
        }
        rows.push(measure(kind.label(), &f, &inputs, runs));
    }
    let enc = JpegEncode::new(16, 16);
    let images: Vec<Vec<u8>> = (0..3).map(|s| synthetic_image(s, 16, 16)).collect();
    rows.push(measure("jpeg-encode", &enc, &images, runs));
    let dec = JpegDecode::new(16, 16);
    let coeffs: Vec<Vec<i32>> = (0..3).map(|s| dec.random_input(s)).collect();
    rows.push(measure("jpeg-decode", &dec, &coeffs, runs));

    println!("Table IV — performance of Owl ({runs} fixed + {runs} random runs per class)");
    println!("{:-<108}", "");
    println!(
        "{:<16} | {:>12} {:>10} | {:>7} {:>10} | {:>9} | {:>12} {:>10}",
        "function", "trace size", "time", "traces", "evidence", "KS tests", "peak RAM*", "total"
    );
    println!("{:-<108}", "");
    for r in &rows {
        println!(
            "{:<16} | {:>12} {:>8.2}ms | {:>7} {:>8.1}ms | {:>7.2}ms | {:>12} {:>8.1}ms",
            r.name,
            fmt_bytes(r.trace_bytes),
            r.trace_time_ms,
            r.evidence_traces,
            r.evidence_ms,
            r.test_ms,
            fmt_bytes(r.peak_bytes),
            r.total_ms,
        );
    }
    println!("{:-<108}", "");
    println!("* peak RAM counts the resident evidence structures (the dominant state),");
    println!("  mirroring the paper's maximum-RAM column at simulator scale.");
    let path = write_bench_json("table4", &rows).expect("write BENCH_table4.json");
    println!("machine-readable rows: {}", path.display());
}

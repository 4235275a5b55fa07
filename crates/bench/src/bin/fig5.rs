//! Regenerates Fig. 5: growth of Owl's trace size with input size, for the
//! three growth patterns the paper identifies:
//!
//! 1. **fixed threads** — `Tensor.__repr__` uses a fixed thread count, so
//!    its trace size is constant;
//! 2. **volatile threads, bounded accesses** — the dummy S-box program's
//!    distinct addresses saturate, so the trace plateaus;
//! 3. **volatile threads, unbounded accesses** — the JPEG encoder touches
//!    fresh pixels per thread, so the trace grows linearly.
//!
//! Memory-allocation and kernel-invocation record sizes stay constant
//! throughout (they are host-side, per-call records).
//!
//! ```text
//! cargo run --release -p owl-bench --bin fig5 [--large]
//! ```
//!
//! `--large` extends the sweep to the paper's 128,000-thread scale.

use owl_bench::{fmt_bytes, write_bench_json};
use owl_core::{ProgramTrace, Recorder, RunSpec, TracedProgram};
use owl_workloads::dummy::DummySbox;
use owl_workloads::jpeg::JpegEncode;
use owl_workloads::torch::{TorchFunction, TorchOpKind};

/// One point of the trace-size growth sweep, tagged with its series.
#[derive(serde::Serialize)]
struct GrowthPoint {
    series: String,
    input: String,
    total_bytes: usize,
    kernel_bytes: usize,
    malloc_bytes: usize,
}

/// One standalone recording of `program` over `input`.
fn trace_of<P: TracedProgram>(program: &P, input: &P::Input) -> ProgramTrace {
    let attempt = Recorder::default().record(program, input, &RunSpec::default());
    attempt.result.expect("trace").0
}

fn main() {
    let large = std::env::args().any(|a| a == "--large");
    let mut points = Vec::new();

    println!("Fig. 5 — trace size growth by input size");
    println!();
    println!("(a) dummy S-box: threads grow with input, distinct addresses saturate");
    println!(
        "{:>10} {:>14} {:>12} {:>12}",
        "threads", "total", "kernels", "mallocs"
    );
    let dummy_sizes: Vec<usize> = if large {
        vec![64, 256, 1024, 4096, 16384, 65536, 131072]
    } else {
        vec![64, 256, 1024, 4096, 16384]
    };
    for elems in dummy_sizes {
        let d = DummySbox::new(elems);
        let trace = trace_of(&d, &0x5eed);
        let (k, m) = trace.size_breakdown();
        println!(
            "{:>10} {:>14} {:>12} {:>12}",
            elems,
            fmt_bytes(trace.size_bytes()),
            fmt_bytes(k),
            fmt_bytes(m)
        );
        points.push(GrowthPoint {
            series: "dummy-sbox".into(),
            input: format!("{elems} threads"),
            total_bytes: trace.size_bytes(),
            kernel_bytes: k,
            malloc_bytes: m,
        });
    }

    println!();
    println!("(b) JPEG encode: every thread contributes fresh pixel addresses → linear");
    println!(
        "{:>10} {:>10} {:>14} {:>12} {:>12}",
        "pixels", "threads", "total", "kernels", "mallocs"
    );
    let jpeg_sides: Vec<usize> = if large {
        vec![16, 32, 64, 128, 256]
    } else {
        vec![16, 32, 64, 128]
    };
    for side in jpeg_sides {
        let enc = JpegEncode::new(side, side);
        let img = enc.random_input(1);
        let trace = trace_of(&enc, &img);
        let (k, m) = trace.size_breakdown();
        println!(
            "{:>10} {:>10} {:>14} {:>12} {:>12}",
            side * side,
            enc.blocks(),
            fmt_bytes(trace.size_bytes()),
            fmt_bytes(k),
            fmt_bytes(m)
        );
        points.push(GrowthPoint {
            series: "jpeg-encode".into(),
            input: format!("{} pixels", side * side),
            total_bytes: trace.size_bytes(),
            kernel_bytes: k,
            malloc_bytes: m,
        });
    }

    println!();
    println!("(c) Tensor.__repr__: fixed thread count → constant trace size");
    println!("{:>10} {:>14}", "input", "total");
    // The repr scan uses a single guarded thread regardless of how the
    // secret tensor's values look; vary the secret to show constancy.
    let f = TorchFunction::new(TorchOpKind::TensorRepr);
    for seed in [1u64, 2, 3, 4] {
        let input = f.random_input(seed);
        let trace = trace_of(&f, &input);
        println!(
            "{:>10} {:>14}",
            format!("seed {seed}"),
            fmt_bytes(trace.size_bytes())
        );
        let (k, m) = trace.size_breakdown();
        points.push(GrowthPoint {
            series: "tensor-repr".into(),
            input: format!("seed {seed}"),
            total_bytes: trace.size_bytes(),
            kernel_bytes: k,
            malloc_bytes: m,
        });
    }

    let path = write_bench_json("fig5", &points).expect("write BENCH_fig5.json");
    println!();
    println!("machine-readable points: {}", path.display());
}

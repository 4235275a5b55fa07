//! The parallel evidence pipeline's determinism contract: `detect()` must
//! produce bit-identical results for every `parallelism` setting, with and
//! without simulated ASLR, on leaky and clean workloads alike. The
//! replication audit checks the `deterministic_host` claims that let a
//! detection record a fixed class once and replicate it.

use owl::core::{
    detect, fix_stream, Detection, DetectionSummary, OwlConfig, ProgramTrace, Recorder, RunSpec,
    SimCounters, TracedProgram, Verdict,
};
use owl::workloads::aes::{AesScan, AesTTable};
use owl::workloads::coalescing::CoalescingStride;
use owl::workloads::dummy::{DummySbox, NoiseDummy};
use owl::workloads::histogram::{HistogramDirect, HistogramOblivious};
use owl::workloads::jpeg::{JpegDecode, JpegEncode, JpegEncodeFixedLength};
use owl::workloads::mlp::MlpHiddenWidth;
use owl::workloads::render::GlyphRender;
use owl::workloads::rsa::{RsaLadder, RsaSquareMultiply};
use owl::workloads::search::{BinarySearchEarlyExit, BinarySearchFixedDepth};
use owl::workloads::torch::{TorchFunction, TorchOpKind};

fn config(parallelism: usize, aslr_seed: Option<u64>) -> OwlConfig {
    OwlConfig {
        runs: 20,
        parallelism,
        aslr_seed,
        // Exercise phase 3 even when filtering finds one class (the
        // clean workload would otherwise return before the fan-out).
        force_analysis: true,
        ..OwlConfig::default()
    }
}

fn run<P>(
    program: &P,
    inputs: &[P::Input],
    parallelism: usize,
    aslr_seed: Option<u64>,
) -> Detection<P::Input>
where
    P: TracedProgram + Sync,
    P::Input: Send + Sync,
{
    detect(program, inputs, &config(parallelism, aslr_seed)).expect("detection")
}

fn assert_bit_identical<P>(program: &P, inputs: &[P::Input], aslr_seed: Option<u64>)
where
    P: TracedProgram + Sync,
    P::Input: Send + Sync,
{
    let serial = run(program, inputs, 1, aslr_seed);
    let serial_summary = DetectionSummary::new("workload", &serial, &config(1, aslr_seed));
    for parallelism in [2, 4, 8] {
        let parallel = run(program, inputs, parallelism, aslr_seed);
        assert_eq!(
            serial.verdict, parallel.verdict,
            "verdict changed at parallelism {parallelism} (aslr {aslr_seed:?})"
        );
        assert_eq!(
            serial.report, parallel.report,
            "report changed at parallelism {parallelism} (aslr {aslr_seed:?})"
        );
        // Byte-identical, not just structurally equal: the serialized
        // reports (floats and all) must match exactly.
        assert_eq!(
            serde_json::to_string(&serial.report).expect("json"),
            serde_json::to_string(&parallel.report).expect("json"),
            "serialized report changed at parallelism {parallelism} (aslr {aslr_seed:?})"
        );
        assert_eq!(
            serial.filter.classes.len(),
            parallel.filter.classes.len(),
            "input classes changed at parallelism {parallelism} (aslr {aslr_seed:?})"
        );
        // Counter totals merge associatively, so the fan-out must not
        // change them — no matter how runs are chunked across workers.
        assert_eq!(
            serial.counters, parallel.counters,
            "counter totals changed at parallelism {parallelism} (aslr {aslr_seed:?})"
        );
        // With zero injected faults the fault machinery must be inert:
        // empty log, all-zero counters, at every worker count.
        assert!(
            parallel.faults.is_empty() && parallel.fault_counters.is_zero(),
            "fault-free detection produced fault accounting at parallelism {parallelism}"
        );
        // The machine-readable summary (counters included) is the public
        // face of the contract: byte-identical across worker counts.
        let parallel_summary =
            DetectionSummary::new("workload", &parallel, &config(parallelism, aslr_seed));
        assert_eq!(
            serde_json::to_string_pretty(&serial_summary).expect("json"),
            serde_json::to_string_pretty(&parallel_summary).expect("json"),
            "detection summary changed at parallelism {parallelism} (aslr {aslr_seed:?})"
        );
    }
}

#[test]
fn leaky_workload_is_parallelism_invariant() {
    let aes = AesTTable::new(32);
    let keys = [[0u8; 16], [0xffu8; 16], *b"owl-sca-detector"];
    for aslr_seed in [None, Some(0xA51A)] {
        assert_bit_identical(&aes, &keys, aslr_seed);
    }
}

#[test]
fn clean_workload_is_parallelism_invariant() {
    let rsa = RsaLadder::new(32);
    let exponents = [0x8000_0001u64, 0xffff_ffff, 3];
    for aslr_seed in [None, Some(0xA51A)] {
        assert_bit_identical(&rsa, &exponents, aslr_seed);
    }
}

/// Per-run noise is a function of the run's identity, not of which worker
/// records the run when, so even an impure host is byte-identical.
#[test]
fn noise_workload_is_parallelism_invariant() {
    for aslr_seed in [None, Some(0xA51A)] {
        assert_bit_identical(&NoiseDummy::new(), &[1, 2, 3], aslr_seed);
    }
}

#[test]
fn leaky_workload_verdict_survives_parallelism() {
    let aes = AesTTable::new(32);
    let keys = [[0u8; 16], [0xffu8; 16], *b"owl-sca-detector"];
    let detection = run(&aes, &keys, 4, None);
    assert_eq!(detection.verdict, Verdict::Leaky);
    assert!(detection.stats.evidence_workers >= 1);
    assert!(detection.stats.evidence_cpu_time >= detection.stats.evidence_time / 2);
    assert!(
        detection.counters.instructions > 0,
        "the parallel pipeline must still accumulate execution counters"
    );
}

#[test]
fn evidence_worker_count_is_clamped_to_the_item_count() {
    let aes = AesTTable::new(32);
    let keys = [[0u8; 16], [0xffu8; 16], *b"owl-sca-detector"];
    // Far more workers than work: runs=20 → 3 chunks per stream, and
    // (classes + 1) streams, so the evidence fan-out has at most
    // 3 * (classes + 1) items to hand out.
    let detection = run(&aes, &keys, 64, None);
    let chunks_per_stream = 20usize.div_ceil(8);
    let max_items = chunks_per_stream * (detection.filter.classes.len() + 1);
    assert!(
        detection.stats.evidence_workers <= max_items,
        "evidence_workers {} exceeds the {} work items",
        detection.stats.evidence_workers,
        max_items
    );
    assert!(detection.stats.evidence_workers >= 1);
}

/// Records one fixed input of `program` as class 0's fixed evidence at run
/// indices 0, 1 and 7, each with the default recorder and ASLR off: the
/// runs a replicated detection skips.
fn fixed_runs<P: TracedProgram>(program: &P) -> Vec<(ProgramTrace, SimCounters)> {
    let input = program.random_input(0);
    [0, 1, 7]
        .into_iter()
        .map(|run_index| {
            let spec = RunSpec {
                stream: fix_stream(0),
                run_index,
                ..RunSpec::default()
            };
            Recorder::default()
                .record(program, &input, &spec)
                .result
                .unwrap_or_else(|e| panic!("{}: run {run_index} failed: {e}", program.name()))
        })
        .collect()
}

/// `true` when every fixed run of `program` reproduces the first one's
/// trace, digest and counters exactly.
fn replicates<P: TracedProgram>(program: &P) -> bool {
    let runs = fixed_runs(program);
    let (first, first_counters) = &runs[0];
    runs.iter().all(|(trace, counters)| {
        trace == first && trace.digest() == first.digest() && counters == first_counters
    })
}

/// Asserts `program` claims a deterministic host and that the claim holds.
fn assert_replicates<P: TracedProgram>(program: &P) {
    assert!(
        program.deterministic_host(),
        "{} no longer claims a deterministic host",
        program.name()
    );
    assert!(
        replicates(program),
        "{} claims a deterministic host, but its fixed runs differ",
        program.name()
    );
}

#[test]
fn every_deterministic_host_replicates_its_fixed_runs() {
    assert_replicates(&AesTTable::new(32));
    assert_replicates(&AesScan::with_rounds(1, 1));
    assert_replicates(&HistogramDirect::new(64));
    assert_replicates(&HistogramOblivious::new(64));
    assert_replicates(&BinarySearchEarlyExit::new(32));
    assert_replicates(&BinarySearchFixedDepth::new(32));
    assert_replicates(&RsaSquareMultiply::new(32));
    assert_replicates(&RsaLadder::new(32));
    assert_replicates(&CoalescingStride::new());
    assert_replicates(&MlpHiddenWidth::new());
    assert_replicates(&JpegEncode::new(16, 16));
    assert_replicates(&JpegEncodeFixedLength::new(16, 16));
    assert_replicates(&JpegDecode::new(16, 16));
    assert_replicates(&DummySbox::new(64));
    assert_replicates(&GlyphRender::new());
    for kind in TorchOpKind::ALL {
        assert_replicates(&TorchFunction::new(kind));
    }
}

#[test]
fn an_impure_host_does_not_replicate() {
    let noise = NoiseDummy::new();
    assert!(!noise.deterministic_host());
    assert!(
        !replicates(&noise),
        "the per-run nonce must make fixed runs differ"
    );
}

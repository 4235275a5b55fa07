//! Detection tests for the extended workload set: atomics-based
//! histogramming, binary search, architecture extraction, and the
//! fixed-length JPEG countermeasure.

use owl::core::{detect, LeakKind, LeakLocation, OwlConfig, TracedProgram, Verdict};
use owl::workloads::histogram::{HistogramDirect, HistogramOblivious};
use owl::workloads::jpeg::{synthetic_image, JpegEncodeFixedLength};
use owl::workloads::mlp::{MlpHiddenWidth, WIDTHS};
use owl::workloads::search::{BinarySearchEarlyExit, BinarySearchFixedDepth};

fn config(runs: usize) -> OwlConfig {
    OwlConfig {
        runs,
        ..OwlConfig::default()
    }
}

#[test]
fn direct_histogram_leaks_through_atomic_addresses() {
    let h = HistogramDirect::new(64);
    let inputs: Vec<Vec<u8>> = (0..4).map(|s| h.random_input(100 + s)).collect();
    let detection = detect(&h, &inputs, &config(40)).expect("detection");
    assert_eq!(detection.verdict, Verdict::Leaky);
    assert!(
        detection.report.count(LeakKind::DataFlow) >= 1,
        "{}",
        detection.report
    );
}

#[test]
fn oblivious_histogram_is_clean() {
    let h = HistogramOblivious::new(64);
    let inputs: Vec<Vec<u8>> = (0..4).map(|s| h.random_input(200 + s)).collect();
    let detection = detect(&h, &inputs, &config(15)).expect("detection");
    assert_eq!(detection.verdict, Verdict::LeakFree, "{}", detection.report);
}

#[test]
fn early_exit_search_leaks_control_flow() {
    let s = BinarySearchEarlyExit::new(32);
    let keys: Vec<u64> = (0..5).map(|i| s.random_input(300 + i)).collect();
    let detection = detect(&s, &keys, &config(40)).expect("detection");
    assert_eq!(detection.verdict, Verdict::Leaky);
    assert!(
        detection.report.count(LeakKind::ControlFlow) >= 1,
        "{}",
        detection.report
    );
    assert!(
        detection.report.count(LeakKind::DataFlow) >= 1,
        "probe addresses leak too: {}",
        detection.report
    );
}

#[test]
fn fixed_depth_search_leaks_data_flow_only() {
    // Removing the branches fixes the control-flow channel but the probe
    // addresses still follow the key — the access-pattern leak survives.
    let s = BinarySearchFixedDepth::new(32);
    let keys: Vec<u64> = (0..5).map(|i| s.random_input(400 + i)).collect();
    let detection = detect(&s, &keys, &config(40)).expect("detection");
    assert_eq!(detection.verdict, Verdict::Leaky);
    assert_eq!(
        detection.report.count(LeakKind::ControlFlow),
        0,
        "{}",
        detection.report
    );
    assert!(
        detection.report.count(LeakKind::DataFlow) >= 1,
        "{}",
        detection.report
    );
}

#[test]
fn mlp_hidden_width_leaks_as_kernel_leak() {
    let mlp = MlpHiddenWidth::new();
    let detection = detect(&mlp, &WIDTHS.map(|w| w), &config(40)).expect("detection");
    assert_eq!(detection.verdict, Verdict::Leaky);
    assert!(
        detection.report.count(LeakKind::Kernel) >= 1,
        "{}",
        detection.report
    );
    // The leak is host-side: launch geometry / allocation sizing.
    assert!(
        detection.report.of_kind(LeakKind::Kernel).any(|l| matches!(
            l.location,
            LeakLocation::Invocation(_) | LeakLocation::Alloc(_)
        )),
        "{}",
        detection.report
    );
}

#[test]
fn fixed_length_jpeg_encoder_is_clean() {
    let enc = JpegEncodeFixedLength::new(16, 16);
    let inputs: Vec<Vec<u8>> = (0..4).map(|s| synthetic_image(s, 16, 16)).collect();
    let detection = detect(&enc, &inputs, &config(15)).expect("detection");
    assert_eq!(detection.verdict, Verdict::LeakFree, "{}", detection.report);
}

#[test]
fn fixed_length_encoder_preserves_coefficients() {
    // The countermeasure must not change the data, only the coding.
    let fixed = JpegEncodeFixedLength::new(16, 16);
    let plain = owl::workloads::jpeg::JpegEncode::new(16, 16);
    let img = synthetic_image(9, 16, 16);
    let mut d1 = owl::host::Device::new();
    let mut d2 = owl::host::Device::new();
    let stream = fixed.encode(&mut d1, &img).expect("encode");
    let (coeffs, _, _) = plain.encode(&mut d2, &img).expect("encode");
    // The fixed-length stream is the zig-zag permutation of the dense
    // coefficients.
    use owl::workloads::jpeg::host::ZIGZAG;
    for blk in 0..fixed.blocks() {
        for (i, &zz) in ZIGZAG.iter().enumerate() {
            assert_eq!(
                stream[blk * 64 + i],
                coeffs[blk * 64 + zz as usize],
                "block {blk} slot {i}"
            );
        }
    }
}

#[test]
fn coalescing_only_leak_is_caught_by_cost_feature() {
    // The strided gather's aggregated address histograms are identical for
    // every secret stride — the paper's A-DCFG aggregation alone would
    // miss it. The per-event transaction-cost histograms (our extension)
    // recover the leak.
    use owl::workloads::coalescing::CoalescingStride;
    let w = CoalescingStride::new();
    let strides = [1u64, 33, 65, 97];
    let detection = detect(&w, &strides, &config(40)).expect("detection");
    assert_eq!(detection.verdict, Verdict::Leaky);
    let cost_leaks: Vec<_> = detection
        .report
        .of_kind(LeakKind::DataFlow)
        .filter(|l| l.detail.contains("transaction cost"))
        .collect();
    assert!(!cost_leaks.is_empty(), "{}", detection.report);
}

/// The RQ2 scale point: trace a 131,072-thread launch and keep the trace
/// at Fig. 5's plateau size. Run with `cargo test -- --ignored --release`.
#[test]
#[ignore = "large-scale stress; run explicitly (fast in release builds)"]
fn stress_131k_threads_traces_within_plateau() {
    use owl::workloads::dummy::DummySbox;
    let d = DummySbox::new(131_072);
    let recorder = owl::core::Recorder::default();
    let attempt = recorder.record(&d, &0x5eed, &owl::core::RunSpec::default());
    let (trace, _) = attempt.result.expect("trace");
    // The plateau: every table line already touched, constant structure.
    assert!(
        trace.size_bytes() < 64 * 1024,
        "{} bytes",
        trace.size_bytes()
    );
}

#[test]
fn embedding_leaks_token_ids_layernorm_is_clean() {
    // The modern-DNN extension of the paper's PyTorch sweep: embedding
    // gathers rows by the secret token id (data-flow leak, the token-
    // privacy concern in LLM serving); layer norm is purely numerical.
    use owl::workloads::torch::{TorchFunction, TorchInput, TorchOpKind};
    let emb = TorchFunction::new(TorchOpKind::Embedding);
    let inputs: Vec<TorchInput> = (0..4).map(|s| emb.random_input(500 + s)).collect();
    let detection = detect(&emb, &inputs, &config(40)).expect("detection");
    assert_eq!(detection.verdict, Verdict::Leaky);
    assert!(
        detection.report.count(LeakKind::DataFlow) >= 1,
        "{}",
        detection.report
    );

    let ln = TorchFunction::new(TorchOpKind::LayerNorm);
    let inputs: Vec<TorchInput> = (0..3).map(|s| ln.random_input(600 + s)).collect();
    let detection = detect(&ln, &inputs, &config(10)).expect("detection");
    assert_eq!(detection.verdict, Verdict::LeakFree, "{}", detection.report);
}

#[test]
fn glyph_renderer_leaks_text_through_texture_fetches() {
    // The rendering side channel of the paper's §III-A: the font-atlas
    // texel coordinates carry the secret glyph ids.
    use owl::workloads::render::GlyphRender;
    let r = GlyphRender::new();
    let inputs: Vec<Vec<u8>> = (0..4).map(|s| r.random_input(700 + s)).collect();
    let detection = detect(&r, &inputs, &config(40)).expect("detection");
    assert_eq!(detection.verdict, Verdict::Leaky);
    assert!(
        detection.report.count(LeakKind::DataFlow) >= 1,
        "{}",
        detection.report
    );
    // The leak must be located at the texture fetch, not the tid-driven
    // framebuffer traffic.
    assert!(
        detection
            .report
            .of_kind(LeakKind::DataFlow)
            .all(|l| l.severity_bits > 0.0),
        "{}",
        detection.report
    );
}

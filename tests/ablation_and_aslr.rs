//! Ablation of the paper's statistical choice (KS vs Welch's t-test) and
//! end-to-end detection under simulated device ASLR.

use owl::core::{
    detect, leakage_test, AnalysisConfig, Engine, Evidence, InvocationKey, KernelInvocation,
    LeakKind, OwlConfig, ProgramTrace, Verdict,
};
use owl::dcfg::AdcfgBuilder;
use owl::host::CallSite;
use owl::workloads::aes::AesTTable;
use owl::workloads::dummy::DummySbox;

/// One-invocation trace with a single access that alternates between two
/// addresses (bimodal) or sits at their midpoint (unimodal): equal means,
/// different distributions.
fn trace_with_addr(addr: u64) -> ProgramTrace {
    let mut b = AdcfgBuilder::new();
    b.enter_block(0, 0);
    b.record_access(0, 0, [addr]);
    ProgramTrace {
        invocations: vec![KernelInvocation::new(
            InvocationKey {
                call_site: CallSite {
                    file: "f.rs",
                    line: 1,
                    column: 1,
                },
                kernel: "k".into(),
            },
            ((1, 1, 1), (32, 1, 1)),
            b.finish(),
        )],
        mallocs: vec![],
    }
}

#[test]
fn ks_catches_equal_mean_distribution_change_welch_misses() {
    // Fixed inputs: the access alternates between offsets 0 and 128
    // (mean 64). Random inputs: always offset 64 (same mean). This is the
    // motivating case for the paper's KS choice over prior work's t-test.
    let fix =
        Evidence::from_traces((0..60).map(|i| trace_with_addr(if i % 2 == 0 { 0 } else { 128 })));
    let rnd = Evidence::from_traces((0..60).map(|_| trace_with_addr(64)));

    let ks = leakage_test(
        &fix,
        &rnd,
        &AnalysisConfig {
            method: Engine::Ks,
            ..AnalysisConfig::default()
        },
    );
    assert_eq!(ks.count(LeakKind::DataFlow), 1, "KS must reject: {ks}");

    let welch = leakage_test(
        &fix,
        &rnd,
        &AnalysisConfig {
            method: Engine::Tvla,
            ..AnalysisConfig::default()
        },
    );
    assert_eq!(
        welch.count(LeakKind::DataFlow),
        0,
        "Welch is mean-blind here: {welch}"
    );
}

#[test]
fn welch_still_catches_mean_shifts() {
    let fix = Evidence::from_traces((0..60).map(|_| trace_with_addr(0)));
    let rnd = Evidence::from_traces((0..60).map(|i| trace_with_addr(512 + (i % 8) * 8)));
    let welch = leakage_test(
        &fix,
        &rnd,
        &AnalysisConfig {
            method: Engine::Tvla,
            ..AnalysisConfig::default()
        },
    );
    assert_eq!(welch.count(LeakKind::DataFlow), 1, "{welch}");
}

#[test]
fn welch_method_detects_aes_end_to_end() {
    // The T-table leak shifts address distributions strongly enough that
    // even the t-test sees it — the ablation is about *sensitivity*, not
    // about Welch being useless.
    let aes = AesTTable::new(32);
    let keys = [[0u8; 16], [0xff; 16], *b"owl-sca-detector"];
    let detection = detect(
        &aes,
        &keys,
        &OwlConfig {
            runs: 40,
            method: Engine::Tvla,
            ..OwlConfig::default()
        },
    )
    .expect("detection");
    assert_eq!(detection.verdict, Verdict::Leaky);
    assert!(detection.report.count(LeakKind::DataFlow) >= 1);
}

#[test]
fn detection_under_aslr_matches_plain_detection() {
    // With per-run randomised layouts, the tracer's offset normalisation
    // must keep verdicts and leak locations identical to the plain run.
    let d = DummySbox::new(64);
    let inputs = [1u64, 2, 3, 4];
    let plain = detect(
        &d,
        &inputs,
        &OwlConfig {
            runs: 40,
            ..OwlConfig::default()
        },
    )
    .expect("plain detection");
    let aslr = detect(
        &d,
        &inputs,
        &OwlConfig {
            runs: 40,
            aslr_seed: Some(0xA51A),
            ..OwlConfig::default()
        },
    )
    .expect("aslr detection");
    assert_eq!(plain.verdict, aslr.verdict);
    assert_eq!(
        plain.report, aslr.report,
        "normalisation removes layout noise"
    );
}

#[test]
fn aslr_clean_program_stays_clean() {
    use owl::workloads::rsa::RsaLadder;
    let rsa = RsaLadder::new(32);
    let detection = detect(
        &rsa,
        &[3u64, 0xffff_ffff, 0x0f0f_0f0f],
        &OwlConfig {
            runs: 10,
            aslr_seed: Some(7),
            ..OwlConfig::default()
        },
    )
    .expect("detection");
    assert_eq!(detection.verdict, Verdict::LeakFree, "{}", detection.report);
}

#[test]
fn reports_serialize_to_json() {
    let aes = AesTTable::new(32);
    let keys = [[0u8; 16], [0xff; 16]];
    let detection = detect(
        &aes,
        &keys,
        &OwlConfig {
            runs: 30,
            ..OwlConfig::default()
        },
    )
    .expect("detection");
    let json = serde_json::to_string(&detection.report).expect("serialize");
    assert!(json.contains("DataFlow"), "{json}");
    assert!(json.contains("aes128_ttable"), "{json}");
}

#[test]
fn wave64_detection_still_finds_the_aes_leak() {
    // The paper's conclusion: the approach "can also be applied to other
    // similar SIMT architectures". Re-run the AES detection with 64-lane
    // wavefronts — the leak and its locations must survive the width
    // change.
    let aes = AesTTable::new(32);
    let keys = [[0u8; 16], [0xff; 16], *b"owl-sca-detector"];
    let detection = detect(
        &aes,
        &keys,
        &OwlConfig {
            runs: 40,
            warp_size: 64,
            ..OwlConfig::default()
        },
    )
    .expect("detection");
    assert_eq!(detection.verdict, Verdict::Leaky);
    assert!(detection.report.count(LeakKind::DataFlow) >= 100);
}

#[test]
fn wave16_keeps_clean_programs_clean() {
    use owl::workloads::rsa::RsaLadder;
    let rsa = RsaLadder::new(32);
    let detection = detect(
        &rsa,
        &[3u64, 0xffff_ffff],
        &OwlConfig {
            runs: 10,
            warp_size: 16,
            ..OwlConfig::default()
        },
    )
    .expect("detection");
    assert_eq!(detection.verdict, Verdict::LeakFree, "{}", detection.report);
}

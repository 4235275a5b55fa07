//! Golden-fixture regression for the machine-readable detection summary.
//!
//! Refactors of the detector (the hot path, the recorder, the verdict and
//! fault bookkeeping) must not change a single observable byte: the
//! pretty-printed [`DetectionSummary`] of each case below is pinned to a
//! checked-in fixture. The cases cover the single-engine path, the
//! cross-engine comparison path, and the two quarantine paths the CLI's
//! `--inject quarantine` and `--inject budget` scenarios take (fault
//! counters and the fault log included). Regenerate with
//!
//! ```sh
//! OWL_REGEN_GOLDEN=1 cargo test --test golden_summary
//! ```
//!
//! and inspect the diff — any change here is a determinism-contract break
//! until proven otherwise.

use owl::core::{
    detect, DetectionSummary, ExecFaultKind, FaultPlan, FaultyProgram, InjectedFault, OwlConfig,
    OwlConfigBuilder, ResourceKind, TracedProgram, STREAM_RND,
};
use owl::workloads::aes::AesTTable;
use owl::workloads::dummy::DummySbox;

/// One pinned detection: its fixture file and the summary it produces.
struct Case {
    fixture: &'static str,
    summary: fn() -> String,
}

const CASES: [Case; 4] = [
    Case {
        fixture: "aes_ttable_summary.json",
        summary: || aes_ttable(aes_config().build()),
    },
    Case {
        fixture: "aes_ttable_compare_engines_summary.json",
        summary: || aes_ttable(aes_config().engines_all().build()),
    },
    Case {
        fixture: "dummy_quarantine_summary.json",
        summary: || {
            // `owl-detect dummy --inject quarantine`.
            dummy_sbox(FaultPlan::new().fail_stream(
                STREAM_RND,
                InjectedFault::Exec(ExecFaultKind::FuelExhausted),
            ))
        },
    },
    Case {
        fixture: "dummy_budget_summary.json",
        summary: || {
            // `owl-detect dummy --inject budget`.
            dummy_sbox(FaultPlan::new().fail_stream(
                STREAM_RND,
                InjectedFault::BudgetExhausted(ResourceKind::MemEvents),
            ))
        },
    },
];

fn aes_config() -> OwlConfigBuilder {
    OwlConfig::builder()
        .runs(10)
        .parallelism(2)
        .aslr_seed(0xA51A)
        .force_analysis(true)
}

fn aes_ttable(config: OwlConfig) -> String {
    let aes = AesTTable::new(32);
    let keys = [[0u8; 16], [0xffu8; 16], *b"owl-sca-detector"];
    summary_json("aes-ttable", &aes, &keys, &config)
}

fn dummy_sbox(plan: FaultPlan) -> String {
    let config = OwlConfig {
        runs: 8,
        parallelism: 2,
        ..OwlConfig::default()
    };
    let program = FaultyProgram::new(DummySbox::new(64), plan);
    summary_json("dummy", &program, &[1, 2, 3, 4], &config)
}

fn summary_json<P>(name: &str, program: &P, inputs: &[P::Input], config: &OwlConfig) -> String
where
    P: TracedProgram + Sync,
    P::Input: Send + Sync,
{
    let detection = detect(program, inputs, config).expect("detection");
    let summary = DetectionSummary::new(name, &detection, config);
    let mut json = serde_json::to_string_pretty(&summary).expect("json");
    json.push('\n');
    json
}

#[test]
fn detection_summary_matches_golden_fixture() {
    let regen = std::env::var_os("OWL_REGEN_GOLDEN").is_some();
    for case in &CASES {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(case.fixture);
        let actual = (case.summary)();
        if regen {
            std::fs::write(&path, &actual).expect("write fixture");
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing fixture {} ({e}); regenerate with OWL_REGEN_GOLDEN=1",
                path.display()
            )
        });
        assert_eq!(
            actual, expected,
            "{}: detection summary drifted from the golden fixture; if the \
             change is intentional, regenerate with OWL_REGEN_GOLDEN=1 and \
             justify the diff in the PR",
            case.fixture
        );
    }
}

//! Golden-fixture regression for the machine-readable detection summary.
//!
//! Refactors of the detector (the hot path, the recorder, the verdict and
//! fault bookkeeping) must not change a single observable byte: the
//! pretty-printed [`DetectionSummary`] of each case below is pinned to a
//! checked-in fixture. The cases cover the single-engine path, the
//! cross-engine comparison path, the two quarantine paths the CLI's
//! `--inject quarantine` and `--inject budget` scenarios take (fault
//! counters and the fault log included), and the control-flow and kernel
//! leak paths of the analysis walk: square-and-multiply RSA (control
//! flow), early-exit binary search (control and data flow), the
//! hidden-width MLP (allocation and launch-geometry kernel leaks) and
//! tensor printing (unaligned invocations). Regenerate with
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
use owl::workloads::mlp::{MlpHiddenWidth, WIDTHS};
use owl::workloads::rsa::RsaSquareMultiply;
use owl::workloads::search::BinarySearchEarlyExit;
use owl::workloads::torch::function::VEC_N;
use owl::workloads::torch::{Tensor, TorchFunction, TorchInput, TorchOpKind};

/// One pinned detection: its fixture file and the summary it produces.
struct Case {
    fixture: &'static str,
    summary: fn() -> String,
}

const CASES: [Case; 8] = [
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
    Case {
        fixture: "rsa_square_multiply_compare_engines_summary.json",
        summary: || {
            // `owl-detect rsa-sqm --compare-engines`.
            let rsa = RsaSquareMultiply::new(32);
            let exps = [0x8000_0001u64, 0xffff_ffff, 0x0f0f_0f0f, 3];
            summary_json("rsa-sqm", &rsa, &exps, &compare_config())
        },
    },
    Case {
        fixture: "search_compare_engines_summary.json",
        summary: || {
            // `owl-detect search --compare-engines`.
            let search = BinarySearchEarlyExit::new(32);
            let keys: Vec<u64> = (0..5).map(|s| search.random_input(s)).collect();
            summary_json("search", &search, &keys, &compare_config())
        },
    },
    Case {
        fixture: "mlp_compare_engines_summary.json",
        summary: || {
            // `owl-detect mlp --compare-engines`.
            summary_json("mlp", &MlpHiddenWidth::new(), &WIDTHS, &compare_config())
        },
    },
    Case {
        fixture: "torch_repr_compare_engines_summary.json",
        summary: || {
            // `owl-detect torch:repr --compare-engines`.
            let repr = TorchFunction::new(TorchOpKind::TensorRepr);
            let mut inputs: Vec<TorchInput> = (0..4).map(|s| repr.random_input(7000 + s)).collect();
            inputs.push(TorchInput::Tensor(Tensor::zeros([VEC_N])));
            summary_json("torch:repr", &repr, &inputs, &compare_config())
        },
    },
];

/// The CLI's `--compare-engines` detection, shortened to ten runs.
fn compare_config() -> OwlConfig {
    OwlConfig::builder()
        .runs(10)
        .parallelism(2)
        .engines_all()
        .build()
}

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

//! The resource-governance contract: deterministic budgets quarantine
//! runaway runs into `Inconclusive` verdicts (never a hang, never a
//! silent clean), budget-exhausted detections are byte-identical for
//! every parallelism setting, cooperative cancellation stops a detection
//! promptly without poisoning later calls, and nonsensical budget
//! configurations are rejected up front with typed errors.

use owl::core::{
    detect, detect_with_cancel, CancelToken, ConfigError, DetectPhase, Detection, DetectionSummary,
    ExecFaultKind, FaultPlan, InjectedFault, OwlConfig, ResourceKind, RetryPolicy, Verdict,
    STREAM_RND,
};
use owl::workloads::dummy::{DummySbox, RunawaySpin};
use owl::workloads::rsa::RsaLadder;
use std::time::Duration;

const RUNS: usize = 12;

fn config(parallelism: usize) -> OwlConfig {
    OwlConfig {
        runs: RUNS,
        parallelism,
        retry: RetryPolicy::no_retries(),
        force_analysis: true,
        ..OwlConfig::default()
    }
}

fn summary_json<I>(detection: &Detection<I>, config: &OwlConfig) -> String {
    let summary = DetectionSummary::new("workload", detection, config);
    serde_json::to_string_pretty(&summary).expect("json")
}

/// The acceptance scenario: a kernel that never terminates, run under a
/// small instruction budget. Every run exhausts its fuel, is quarantined
/// with the budget-exhaustion kind, and the detection returns
/// `Inconclusive` promptly instead of hanging.
#[test]
fn runaway_kernel_under_instruction_budget_is_inconclusive() {
    let w = RunawaySpin::new();
    let config = OwlConfig::builder()
        .runs(4)
        .retry(RetryPolicy::no_retries())
        .max_instructions(10_000)
        .validate()
        .expect("valid config");
    let detection = detect(&w, &[1u64, 2, 3], &config).expect("detection survives exhaustion");
    assert_eq!(detection.verdict, Verdict::Inconclusive);
    assert!(detection.report.is_clean(), "no fabricated leaks");
    // Phase 1 already loses every input to the budget.
    assert!(detection.filter.classes.is_empty());
    assert_eq!(detection.fault_counters.trace_collection.quarantined, 3);
    assert_eq!(
        detection.fault_counters.trace_collection.budget_exhausted,
        3
    );
    for record in &detection.faults {
        assert_eq!(record.error.kind(), "exec_fuel_exhausted");
        assert_eq!(record.context.phase, DetectPhase::TraceCollection);
    }
}

/// A real (non-injected) memory-event budget trips deterministically: the
/// same runs are quarantined at every parallelism setting and the full
/// summary — fault log and counters included — is byte-identical.
#[test]
fn budget_exhausted_summaries_are_byte_identical_across_parallelism() {
    let w = DummySbox::new(64);
    let inputs = [1u64, 2, 3, 4];
    let mut jsons = Vec::new();
    for parallelism in [1usize, 2, 4, 8] {
        let config = OwlConfig {
            budget: owl::core::ResourceBudget {
                max_mem_events: Some(1),
                ..owl::core::ResourceBudget::DEFAULT
            },
            ..config(parallelism)
        };
        let detection = detect(&w, &inputs, &config).expect("detection survives exhaustion");
        assert_eq!(detection.verdict, Verdict::Inconclusive, "p{parallelism}");
        assert_eq!(
            detection.fault_counters.trace_collection.budget_exhausted,
            inputs.len() as u64,
            "every phase-1 run over budget at p{parallelism}"
        );
        for record in &detection.faults {
            assert_eq!(record.error.kind(), "budget_exhausted");
            let rendered = record.error.to_string();
            assert!(
                rendered.contains("mem_events"),
                "budget error names the resource: {rendered}"
            );
        }
        jsons.push(summary_json(&detection, &config));
    }
    assert!(
        jsons.windows(2).all(|w| w[0] == w[1]),
        "budget-exhausted summaries must not depend on the worker count"
    );
}

/// The injected resource faults follow the quarantine matrix: a
/// persistent budget fault on the random stream starves the quorum into
/// `Inconclusive`; a single expired-deadline run is quarantined without
/// changing a quorum-intact verdict.
#[test]
fn injected_resource_faults_follow_the_quarantine_matrix() {
    let w = DummySbox::new(64);
    let inputs = [1u64, 2, 3, 4];

    let plan = FaultPlan::new().fail_stream(
        STREAM_RND,
        InjectedFault::BudgetExhausted(ResourceKind::MemEvents),
    );
    let faulty = owl::core::FaultyProgram::new(&w, plan);
    let detection = detect(&faulty, &inputs, &config(2)).expect("detection");
    assert_eq!(detection.verdict, Verdict::Inconclusive);
    assert_eq!(
        detection.fault_counters.evidence.budget_exhausted,
        RUNS as u64
    );
    assert_eq!(detection.fault_counters.evidence.quarantined, RUNS as u64);

    let plan = FaultPlan::new().fail_run(STREAM_RND, 0, InjectedFault::DeadlineExpired);
    let faulty = owl::core::FaultyProgram::new(&w, plan);
    let detection = detect(&faulty, &inputs, &config(2)).expect("detection");
    assert_eq!(
        detection.verdict,
        Verdict::Leaky,
        "one lost run leaves the quorum intact"
    );
    assert_eq!(detection.fault_counters.evidence.cancelled, 1);
    assert_eq!(detection.fault_counters.evidence.quarantined, 1);
    assert_eq!(detection.faults.records()[0].error.kind(), "cancelled");
}

/// A caller-cancelled token stops the detection promptly — every run
/// fast-fails into quarantine, the verdict is `Inconclusive` — and leaves
/// no poisoned state behind: the very next uncancelled detection on the
/// same program succeeds normally.
#[test]
fn cancellation_is_prompt_and_leaves_no_poisoned_state() {
    let w = DummySbox::new(64);
    let inputs = [1u64, 2, 3, 4];
    let config = config(2);

    let token = CancelToken::new();
    token.cancel();
    let detection =
        detect_with_cancel(&w, &inputs, &config, Some(&token)).expect("cancel is not an error");
    assert_eq!(detection.verdict, Verdict::Inconclusive);
    assert!(detection.report.is_clean());
    assert!(detection.fault_counters.trace_collection.cancelled >= inputs.len() as u64);
    for record in &detection.faults {
        assert!(
            matches!(record.error.kind(), "cancelled" | "exec_cancelled"),
            "unexpected kind {}",
            record.error.kind()
        );
    }

    // An already-expired deadline behaves identically to a cancelled token.
    let expired = CancelToken::new().deadline_in(Duration::ZERO);
    let detection =
        detect_with_cancel(&w, &inputs, &config, Some(&expired)).expect("deadline is not an error");
    assert_eq!(detection.verdict, Verdict::Inconclusive);

    // No poisoned state: the same workload immediately detects cleanly.
    let fresh = detect(&w, &inputs, &config).expect("fresh detection");
    assert_eq!(fresh.verdict, Verdict::Leaky);
    assert!(fresh.faults.is_empty());
    assert!(fresh.fault_counters.is_zero());
}

/// The total evidence footprint budget flags an overrun as
/// `Inconclusive` without quarantining any individual run: the evidence
/// was recorded fine, it is the detection-level bound that tripped.
#[test]
fn evidence_budget_overrun_is_inconclusive_without_quarantining_runs() {
    let w = RsaLadder::new(32);
    let exponents = [0x8000_0001u64, 0xffff_ffff, 3];
    let config = OwlConfig {
        budget: owl::core::ResourceBudget {
            max_evidence_bytes: Some(1),
            ..owl::core::ResourceBudget::DEFAULT
        },
        ..config(2)
    };
    let detection = detect(&w, &exponents, &config).expect("detection");
    assert_eq!(detection.verdict, Verdict::Inconclusive);
    assert!(detection.report.is_clean());
    assert_eq!(detection.fault_counters.evidence.budget_exhausted, 1);
    assert_eq!(
        detection.fault_counters.evidence.quarantined, 0,
        "no individual run is quarantined for a detection-level overrun"
    );
    let record = &detection.faults.records()[0];
    assert_eq!(record.error.kind(), "budget_exhausted");
    assert!(record.error.to_string().contains("evidence_bytes"));
}

/// `detect` does not validate, so it clamps a zero quorum to one run per
/// set: losing the whole random stream stays `Inconclusive` instead of a
/// "kernel invoked under fixed inputs but not under random inputs" leak
/// read off an empty random evidence set.
#[test]
fn zero_quorum_never_tests_an_empty_evidence_set() {
    let plan = FaultPlan::new().fail_stream(
        STREAM_RND,
        InjectedFault::Exec(ExecFaultKind::FuelExhausted),
    );
    let faulty = owl::core::FaultyProgram::new(DummySbox::new(64), plan);
    let config = OwlConfig {
        runs: 8,
        parallelism: 2,
        min_runs_per_set: Some(0),
        ..OwlConfig::default()
    };
    assert_eq!(config.quorum(), 1);
    let detection = detect(&faulty, &[1u64, 2, 3, 4], &config).expect("detection");
    assert_eq!(detection.verdict, Verdict::Inconclusive);
    assert!(detection.report.is_clean(), "{}", detection.report);
    assert_eq!(detection.fault_counters.evidence.quarantined, 8);
}

/// `validate` rejects nonsensical configurations with typed errors that
/// render a human-readable reason, before any run is recorded.
#[test]
fn config_validation_rejects_nonsense() {
    assert_eq!(
        OwlConfig::builder().runs(0).validate().unwrap_err(),
        ConfigError::ZeroRuns
    );
    assert!(matches!(
        OwlConfig::builder().alpha(1.5).validate().unwrap_err(),
        ConfigError::AlphaOutOfRange { .. }
    ));
    assert!(matches!(
        OwlConfig::builder().warp_size(0).validate().unwrap_err(),
        ConfigError::WarpSizeOutOfRange { .. }
    ));
    assert_eq!(
        OwlConfig::builder().parallelism(0).validate().unwrap_err(),
        ConfigError::ZeroParallelism
    );
    assert!(matches!(
        OwlConfig::builder()
            .runs(4)
            .min_runs_per_set(9)
            .validate()
            .unwrap_err(),
        ConfigError::QuorumExceedsRuns { quorum: 9, runs: 4 }
    ));
    assert_eq!(
        OwlConfig::builder()
            .min_runs_per_set(0)
            .validate()
            .unwrap_err(),
        ConfigError::ZeroQuorum
    );
    for (err, needle) in [
        (
            OwlConfig::builder().max_instructions(0).validate(),
            "instructions",
        ),
        (
            OwlConfig::builder().max_mem_events(0).validate(),
            "mem_events",
        ),
        (
            OwlConfig::builder().max_allocations(0).validate(),
            "allocations",
        ),
        (
            OwlConfig::builder().max_evidence_bytes(0).validate(),
            "evidence_bytes",
        ),
        (
            OwlConfig::builder().deadline(Duration::ZERO).validate(),
            "deadline",
        ),
    ] {
        let err = err.unwrap_err();
        assert!(matches!(err, ConfigError::ZeroBudget { .. }));
        let rendered = err.to_string();
        assert!(rendered.contains(needle), "{rendered} names {needle}");
    }
    // A sane configuration passes through unchanged.
    let config = OwlConfig::builder()
        .runs(8)
        .max_instructions(1_000_000)
        .deadline(Duration::from_secs(30))
        .validate()
        .expect("sane config");
    assert_eq!(config.budget.max_instructions, 1_000_000);
}

/// The budget-utilization block in the metrics report records actual
/// consumption next to the configured limits — and lives outside the
/// deterministic summary, which carries only the configured budgets.
#[test]
fn metrics_report_tracks_budget_utilization_for_governed_runs() {
    let w = RunawaySpin::new();
    let config = OwlConfig::builder()
        .runs(4)
        .retry(RetryPolicy::no_retries())
        .max_instructions(10_000)
        .validate()
        .expect("valid config");
    let detection = detect(&w, &[1u64, 2], &config).expect("detection");
    let report = owl::core::MetricsReport::new("runaway-spin", &detection, &config);
    assert_eq!(report.budget.max_instructions_per_launch, 10_000);
    assert_eq!(report.budget.budget_exhausted_runs, 2);
    let summary = summary_json(&detection, &config);
    assert!(
        summary.contains("\"max_instructions\": 10000"),
        "summary echoes the configured budget"
    );
}

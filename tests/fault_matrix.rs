//! The fault-tolerance contract, exercised through the deterministic
//! injection harness: every fault the pipeline can meet (each `ExecError`
//! variant, host errors, instrumentation mismatches, worker panics) must
//! be survived — transient faults recover through retries with
//! byte-identical results, persistent faults quarantine into the fault
//! log, and a detection that loses too much evidence reports
//! `Inconclusive`, never a silent clean verdict. All of it bit-identical
//! for parallelism 1/2/4/8.

use owl::core::{
    detect, fix_stream, DetectPhase, Detection, DetectionSummary, FaultPlan, FaultRule,
    FaultyProgram, InjectedFault, OwlConfig, RetryPolicy, TracedProgram, Verdict, STREAM_RND,
    STREAM_USER,
};
use owl::gpu::hook::WarpRef;
use owl::gpu::isa::MemSpace;
use owl::gpu::mem::AccessError;
use owl::gpu::{BlockId, ExecError};
use owl::workloads::dummy::DummySbox;
use owl::workloads::rsa::RsaLadder;

const RUNS: usize = 12;
/// One attempt per run: every injected fault quarantines its run.
const ONE_ATTEMPT: RetryPolicy = RetryPolicy { max_attempts: 1 };

fn config(parallelism: usize, retry: RetryPolicy) -> OwlConfig {
    OwlConfig {
        runs: RUNS,
        parallelism,
        retry,
        // Exercise phase 3 even when filtering finds one class (the clean
        // workload would otherwise return before the evidence fan-out).
        force_analysis: true,
        ..OwlConfig::default()
    }
}

fn detect_injected<P>(
    program: &P,
    inputs: &[P::Input],
    plan: FaultPlan,
    parallelism: usize,
    retry: RetryPolicy,
) -> Detection<P::Input>
where
    P: TracedProgram + Sync,
    P::Input: Send + Sync,
{
    let faulty = FaultyProgram::new(program, plan);
    detect(&faulty, inputs, &config(parallelism, retry)).expect("detection survives faults")
}

fn summary_json<I>(detection: &Detection<I>, parallelism: usize, retry: RetryPolicy) -> String {
    let summary = DetectionSummary::new("workload", detection, &config(parallelism, retry));
    serde_json::to_string_pretty(&summary).expect("json")
}

/// The summary JSON with the fault-accounting keys (`faults`,
/// `fault_log`) removed — what "byte-identical modulo fault counters"
/// compares.
fn summary_json_without_faults<I>(
    detection: &Detection<I>,
    parallelism: usize,
    retry: RetryPolicy,
) -> String {
    let json = summary_json(detection, parallelism, retry);
    let value: serde_json::Value = serde_json::from_str(&json).expect("summary parses");
    let serde_json::Value::Map(entries) = value else {
        panic!("summary is a JSON object");
    };
    let filtered: Vec<(serde_json::Value, serde_json::Value)> = entries
        .into_iter()
        .filter(|(k, _)| !matches!(k.as_str(), Some("faults") | Some("fault_log")))
        .collect();
    serde_json::to_string_pretty(&serde_json::Value::Map(filtered)).expect("json")
}

/// An out-of-bounds global load: the launch failure with the most context.
fn memory_fault() -> ExecError {
    ExecError::Memory {
        bb: BlockId(0),
        inst_idx: 0,
        warp: WarpRef { cta: 0, warp: 0 },
        space: MemSpace::Global,
        source: AccessError {
            addr: 0xdead_beef,
            width: 8,
        },
    }
}

fn every_fault() -> Vec<(&'static str, InjectedFault)> {
    let warp = WarpRef { cta: 0, warp: 0 };
    let exec_errors = [
        memory_fault(),
        ExecError::DivisionByZero {
            bb: BlockId(0),
            inst_idx: 0,
            warp,
        },
        ExecError::ParamOutOfRange {
            index: 7,
            provided: 0,
        },
        ExecError::BarrierDivergence { warp },
        ExecError::BarrierDeadlock,
        ExecError::FuelExhausted,
        ExecError::Cancelled,
        ExecError::EmptyLaunch,
        ExecError::InvalidWarpSize { warp_size: 0 },
        ExecError::UnboundTexture { slot: 3 },
    ];
    let mut faults: Vec<(&'static str, InjectedFault)> = exec_errors
        .into_iter()
        .map(|error| {
            // The error-kind tag the quarantine record must carry. The match
            // is exhaustive: a new variant fails to compile here until it
            // has a tag, and a representative above.
            let tag = match error {
                ExecError::Memory { .. } => "exec_memory",
                ExecError::DivisionByZero { .. } => "exec_division_by_zero",
                ExecError::ParamOutOfRange { .. } => "exec_param_out_of_range",
                ExecError::BarrierDivergence { .. } => "exec_barrier_divergence",
                ExecError::BarrierDeadlock => "exec_barrier_deadlock",
                ExecError::FuelExhausted => "exec_fuel_exhausted",
                ExecError::Cancelled => "exec_cancelled",
                ExecError::EmptyLaunch => "exec_empty_launch",
                ExecError::InvalidWarpSize { .. } => "exec_invalid_warp_size",
                ExecError::UnboundTexture { .. } => "exec_unbound_texture",
            };
            (tag, InjectedFault::Exec(error))
        })
        .collect();
    faults.push(("host_memcpy", InjectedFault::Memcpy));
    faults.push(("host_invalid_free", InjectedFault::InvalidFree));
    faults.push(("trace_mismatch", InjectedFault::TraceMismatch));
    faults.push(("worker_panic", InjectedFault::Panic));
    faults
}

/// Every fault in the taxonomy, injected persistently into one evidence
/// run: the detection survives, quarantines exactly that run with the
/// right error kind and context, and (the workload being leaky with the
/// quorum intact) still reports the leak.
#[test]
fn every_fault_kind_is_quarantined_not_fatal() {
    let w = DummySbox::new(64);
    let inputs = [1u64, 2, 3, 4];
    for (tag, fault) in every_fault() {
        let plan = FaultPlan::new().fail_run(STREAM_RND, 1, fault);
        let detection = detect_injected(&w, &inputs, plan, 2, ONE_ATTEMPT);
        assert_eq!(detection.verdict, Verdict::Leaky, "fault {tag}");
        assert_eq!(detection.faults.len(), 1, "fault {tag}");
        let record = &detection.faults[0];
        assert_eq!(record.error.kind(), tag);
        assert_eq!(record.context.phase, DetectPhase::Evidence);
        assert_eq!(record.context.stream, STREAM_RND);
        assert_eq!(record.context.run_index, 1);
        assert_eq!(record.attempts, 1);
        assert_eq!(detection.fault_counters.evidence.quarantined, 1);
        let expected_panics = u64::from(fault == InjectedFault::Panic);
        assert_eq!(
            detection.fault_counters.evidence.panics, expected_panics,
            "fault {tag}"
        );
    }
}

/// Transient faults (every random-evidence run failing its first attempt)
/// recover through retries: nothing is quarantined and the summary is
/// byte-identical to the fault-free run once the fault-accounting keys are
/// set aside — for every parallelism setting.
#[test]
fn transient_faults_recover_to_byte_identical_summaries() {
    let w = DummySbox::new(64);
    let inputs = [1u64, 2, 3, 4];
    let retry = RetryPolicy::default();
    let clean = detect(&w, &inputs, &config(1, retry)).expect("fault-free detection");
    let clean_json = summary_json_without_faults(&clean, 1, retry);
    assert!(clean.faults.is_empty());
    assert!(clean.fault_counters.is_zero());

    let plan = || {
        FaultPlan::new().rule(FaultRule {
            stream: Some(STREAM_RND),
            run_index: None,
            attempts_below: Some(1),
            fault: InjectedFault::Exec(ExecError::FuelExhausted),
        })
    };
    let mut full_jsons = Vec::new();
    for parallelism in [1, 2, 4, 8] {
        let detection = detect_injected(&w, &inputs, plan(), parallelism, retry);
        assert_eq!(detection.verdict, clean.verdict, "p{parallelism}");
        assert!(detection.faults.is_empty(), "p{parallelism}");
        assert_eq!(
            detection.fault_counters.evidence.retried, RUNS as u64,
            "each random run retried once at p{parallelism}"
        );
        assert_eq!(detection.fault_counters.evidence.quarantined, 0);
        assert_eq!(
            summary_json_without_faults(&detection, parallelism, retry),
            clean_json,
            "retry-recovered summary must match the fault-free bytes at p{parallelism}"
        );
        full_jsons.push(summary_json(&detection, parallelism, retry));
    }
    // The fault counters themselves are part of the determinism contract.
    assert!(
        full_jsons.windows(2).all(|w| w[0] == w[1]),
        "full summaries (fault counters included) must not depend on the worker count"
    );
}

/// A persistently failing random stream starves `E_rnd` below the quorum:
/// the detection completes, skips the untrustworthy tests, and reports
/// `Inconclusive` with every lost run in the fault log — bit-identically
/// for every parallelism setting.
#[test]
fn quarantine_below_quorum_is_inconclusive() {
    let w = RsaLadder::new(32);
    let exponents = [0x8000_0001u64, 0xffff_ffff, 3];
    let retry = ONE_ATTEMPT;
    let plan = || FaultPlan::new().fail_stream(STREAM_RND, InjectedFault::Exec(memory_fault()));
    let mut jsons = Vec::new();
    for parallelism in [1, 2, 4, 8] {
        let detection = detect_injected(&w, &exponents, plan(), parallelism, retry);
        assert_eq!(detection.verdict, Verdict::Inconclusive, "p{parallelism}");
        assert!(detection.report.is_clean(), "no fabricated leaks");
        assert_eq!(
            detection.faults.len(),
            RUNS,
            "every random run quarantined at p{parallelism}"
        );
        for (run, record) in detection.faults.iter().enumerate() {
            assert_eq!(record.context.phase, DetectPhase::Evidence);
            assert_eq!(record.context.stream, STREAM_RND);
            assert_eq!(record.context.run_index, run as u64, "run order");
            assert_eq!(record.error.kind(), "exec_memory");
        }
        assert_eq!(detection.fault_counters.evidence.quarantined, RUNS as u64);
        jsons.push(summary_json(&detection, parallelism, retry));
    }
    assert!(
        jsons.windows(2).all(|w| w[0] == w[1]),
        "inconclusive summaries (fault log included) must not depend on the worker count"
    );
}

/// Losing a user input in phase 1 blocks the leak-free shortcut: the
/// surviving inputs may collapse into one class, but the verdict must be
/// `Inconclusive`, not `LeakFree`.
#[test]
fn lost_user_input_downgrades_leak_free_to_inconclusive() {
    let w = RsaLadder::new(32);
    let exponents = [0x8000_0001u64, 0xffff_ffff, 3];
    let plan = FaultPlan::new().fail_run(STREAM_USER, 0, InjectedFault::Exec(memory_fault()));
    let faulty = FaultyProgram::new(&w, plan);
    // No force_analysis: the single surviving class takes the early return.
    let config = OwlConfig {
        runs: RUNS,
        parallelism: 2,
        retry: ONE_ATTEMPT,
        ..OwlConfig::default()
    };
    let detection = detect(&faulty, &exponents, &config).expect("detection");
    assert_eq!(detection.verdict, Verdict::Inconclusive);
    assert_eq!(detection.filter.classes.len(), 1, "survivors still filter");
    assert_eq!(detection.faults.len(), 1);
    let record = &detection.faults[0];
    assert_eq!(record.context.phase, DetectPhase::TraceCollection);
    assert_eq!(record.context.run_index, 0);
    assert_eq!(detection.fault_counters.trace_collection.quarantined, 1);
}

/// Every user input failing persistently still completes the call: no
/// evidence, no classes, an `Inconclusive` verdict, and one quarantine
/// record per input.
#[test]
fn all_inputs_lost_is_inconclusive_not_an_error() {
    let w = RsaLadder::new(32);
    let exponents = [0x8000_0001u64, 0xffff_ffff, 3];
    let plan = FaultPlan::new().fail_stream(STREAM_USER, InjectedFault::Exec(memory_fault()));
    let detection = detect_injected(&w, &exponents, plan, 2, ONE_ATTEMPT);
    assert_eq!(detection.verdict, Verdict::Inconclusive);
    assert!(detection.filter.classes.is_empty());
    assert_eq!(detection.faults.len(), exponents.len());
    assert_eq!(
        detection.fault_counters.trace_collection.quarantined,
        exponents.len() as u64
    );
}

/// Worker panics in one class's fixed evidence never poison the fan-out:
/// every panic is caught and quarantined, the starved class's test is
/// skipped, and leaks found on the surviving classes still surface as
/// `Leaky`.
#[test]
fn worker_panics_never_poison_the_detection() {
    let w = DummySbox::new(64);
    let inputs = [1u64, 2, 3, 4];
    let plan = || FaultPlan::new().fail_stream(fix_stream(0), InjectedFault::Panic);
    for parallelism in [1, 2, 4, 8] {
        let detection = detect_injected(&w, &inputs, plan(), parallelism, ONE_ATTEMPT);
        assert_eq!(
            detection.verdict,
            Verdict::Leaky,
            "leaks on surviving evidence are real at p{parallelism}"
        );
        assert_eq!(detection.fault_counters.evidence.panics, RUNS as u64);
        assert_eq!(detection.fault_counters.evidence.quarantined, RUNS as u64);
        assert_eq!(detection.faults.len(), RUNS);
        for record in &detection.faults {
            assert_eq!(record.error.kind(), "worker_panic");
            assert_eq!(record.context.stream, fix_stream(0));
        }
    }
}

/// Retries consume their budget exactly: a fault injected on attempts
/// `0..2` under a 3-attempt budget recovers on the third attempt, and the
/// accounting shows two failed attempts and zero quarantines.
#[test]
fn retry_budget_is_honoured_per_run() {
    let w = DummySbox::new(64);
    let inputs = [1u64, 2, 3, 4];
    let plan = FaultPlan::new().fail_attempts(
        STREAM_RND,
        3,
        2,
        InjectedFault::Exec(ExecError::BarrierDeadlock),
    );
    let detection = detect_injected(&w, &inputs, plan, 2, RetryPolicy { max_attempts: 3 });
    assert!(detection.faults.is_empty(), "third attempt succeeds");
    assert_eq!(detection.fault_counters.evidence.failed_attempts, 2);
    assert_eq!(detection.fault_counters.evidence.retried, 2);
    assert_eq!(detection.fault_counters.evidence.quarantined, 0);
    // One fewer attempt and the same fault becomes a quarantine.
    let plan = FaultPlan::new().fail_attempts(
        STREAM_RND,
        3,
        2,
        InjectedFault::Exec(ExecError::BarrierDeadlock),
    );
    let detection = detect_injected(&w, &inputs, plan, 2, RetryPolicy { max_attempts: 2 });
    assert_eq!(detection.faults.len(), 1);
    assert_eq!(detection.fault_counters.evidence.quarantined, 1);
    assert_eq!(detection.faults[0].attempts, 2);
}

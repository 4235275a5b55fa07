//! Deterministic fault injection — the test substrate for the detector's
//! fault tolerance.
//!
//! [`FaultyProgram`] wraps any [`TracedProgram`] and injects failures
//! according to a [`FaultPlan`]: a list of rules keyed on the run identity
//! `(stream, run_index, attempt)` from the [`RunSpec`] the recorder passes
//! down. Because the plan keys on the *attempt*, one plan can express both
//! transient faults (fail the first `k` attempts, then succeed — the retry
//! loop recovers) and persistent ones (fail every attempt — the run is
//! quarantined). Injection is a pure function of the spec, so detections
//! over a faulty program keep the bit-identical determinism contract for
//! every `parallelism` setting.
//!
//! The injectable faults cover the whole failure taxonomy the pipeline can
//! meet: every [`ExecError`] variant (synthesized as a launch failure),
//! host-runtime errors, an instrumentation trace-count mismatch (the hook
//! is silently detached so device graphs go missing), worker panics, and
//! the detector's own budget and deadline faults. All of them surface
//! through [`TracedProgram::run_with_spec`], the one seam the recorder
//! calls.

use crate::error::DetectError;
use crate::govern::ResourceKind;
use crate::program::TracedProgram;
use crate::record::RunSpec;
use owl_gpu::hook::WarpRef;
use owl_gpu::isa::MemSpace;
use owl_gpu::mem::AccessError;
use owl_gpu::{BlockId, ExecError};
use owl_host::{Device, HostError};

/// Which [`ExecError`] variant to synthesize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecFaultKind {
    /// [`ExecError::Memory`].
    Memory,
    /// [`ExecError::DivisionByZero`].
    DivisionByZero,
    /// [`ExecError::ParamOutOfRange`].
    ParamOutOfRange,
    /// [`ExecError::BarrierDivergence`].
    BarrierDivergence,
    /// [`ExecError::BarrierDeadlock`].
    BarrierDeadlock,
    /// [`ExecError::FuelExhausted`].
    FuelExhausted,
    /// [`ExecError::Cancelled`].
    Cancelled,
    /// [`ExecError::EmptyLaunch`].
    EmptyLaunch,
    /// [`ExecError::InvalidWarpSize`].
    InvalidWarpSize,
    /// [`ExecError::UnboundTexture`].
    UnboundTexture,
}

impl ExecFaultKind {
    /// Every variant, for exhaustive fault-matrix tests.
    pub const ALL: [ExecFaultKind; 10] = [
        ExecFaultKind::Memory,
        ExecFaultKind::DivisionByZero,
        ExecFaultKind::ParamOutOfRange,
        ExecFaultKind::BarrierDivergence,
        ExecFaultKind::BarrierDeadlock,
        ExecFaultKind::FuelExhausted,
        ExecFaultKind::Cancelled,
        ExecFaultKind::EmptyLaunch,
        ExecFaultKind::InvalidWarpSize,
        ExecFaultKind::UnboundTexture,
    ];

    /// A representative [`ExecError`] of this kind.
    pub fn synthesize(self) -> ExecError {
        let warp = WarpRef { cta: 0, warp: 0 };
        match self {
            ExecFaultKind::Memory => ExecError::Memory {
                bb: BlockId(0),
                inst_idx: 0,
                warp,
                space: MemSpace::Global,
                source: AccessError {
                    addr: 0xdead_beef,
                    width: 8,
                },
            },
            ExecFaultKind::DivisionByZero => ExecError::DivisionByZero {
                bb: BlockId(0),
                inst_idx: 0,
                warp,
            },
            ExecFaultKind::ParamOutOfRange => ExecError::ParamOutOfRange {
                index: 7,
                provided: 0,
            },
            ExecFaultKind::BarrierDivergence => ExecError::BarrierDivergence { warp },
            ExecFaultKind::BarrierDeadlock => ExecError::BarrierDeadlock,
            ExecFaultKind::FuelExhausted => ExecError::FuelExhausted,
            ExecFaultKind::Cancelled => ExecError::Cancelled,
            ExecFaultKind::EmptyLaunch => ExecError::EmptyLaunch,
            ExecFaultKind::InvalidWarpSize => ExecError::InvalidWarpSize { warp_size: 0 },
            ExecFaultKind::UnboundTexture => ExecError::UnboundTexture { slot: 3 },
        }
    }
}

/// What a matching rule injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// A kernel-launch failure with the given [`ExecError`] variant.
    Exec(ExecFaultKind),
    /// A host↔device copy failure ([`HostError::Memcpy`]).
    Memcpy,
    /// An invalid `free` ([`HostError::InvalidFree`]).
    InvalidFree,
    /// An instrumentation trace-count mismatch: the device hook is
    /// detached before the inner program runs, so its launches record host
    /// events but no device graphs. (A no-op for programs that never
    /// launch.)
    TraceMismatch,
    /// A worker panic in the middle of the run.
    Panic,
    /// A detector-level resource-budget exhaustion for the given resource,
    /// raised instead of running the wrapped program — simulates a run the
    /// budget checker rejected without having to build a program that
    /// actually overruns it.
    BudgetExhausted(ResourceKind),
    /// A detector-level deadline expiry: the run fails as
    /// [`DetectError::Cancelled`], exactly like a run whose token fired
    /// before it started.
    DeadlineExpired,
}

/// One injection rule. `None` fields are wildcards; `attempts_below`
/// bounds the fault to early retry attempts (`Some(k)` = inject while
/// `attempt < k`, making the fault transient under a retry budget `> k`;
/// `None` = inject on every attempt, a persistent fault).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    /// The recording stream to hit (`None` = every stream).
    pub stream: Option<u64>,
    /// The run index to hit (`None` = every run).
    pub run_index: Option<u64>,
    /// Inject only while `attempt < k`, when set.
    pub attempts_below: Option<u32>,
    /// The fault to inject.
    pub fault: InjectedFault,
}

impl FaultRule {
    fn matches(&self, spec: &RunSpec) -> bool {
        self.stream.is_none_or(|s| s == spec.stream)
            && self.run_index.is_none_or(|r| r == spec.run_index)
            && self.attempts_below.is_none_or(|k| spec.attempt < k)
    }
}

/// A deterministic injection schedule: an ordered rule list, first match
/// wins.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a raw rule (builder style).
    #[must_use]
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Persistently fails one run: every attempt of `(stream, run_index)`
    /// injects `fault`, so the run exhausts its retries and is
    /// quarantined.
    #[must_use]
    pub fn fail_run(self, stream: u64, run_index: u64, fault: InjectedFault) -> Self {
        self.rule(FaultRule {
            stream: Some(stream),
            run_index: Some(run_index),
            attempts_below: None,
            fault,
        })
    }

    /// Transiently fails one run: attempts `0..attempts` inject `fault`,
    /// later attempts succeed — a retry budget above `attempts` recovers.
    #[must_use]
    pub fn fail_attempts(
        self,
        stream: u64,
        run_index: u64,
        attempts: u32,
        fault: InjectedFault,
    ) -> Self {
        self.rule(FaultRule {
            stream: Some(stream),
            run_index: Some(run_index),
            attempts_below: Some(attempts),
            fault,
        })
    }

    /// Persistently fails every run of a stream (e.g. to push an evidence
    /// set below quorum).
    #[must_use]
    pub fn fail_stream(self, stream: u64, fault: InjectedFault) -> Self {
        self.rule(FaultRule {
            stream: Some(stream),
            run_index: None,
            attempts_below: None,
            fault,
        })
    }

    /// `true` when the plan has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The fault to inject for this run identity, if any (first matching
    /// rule wins).
    pub fn fault_for(&self, spec: &RunSpec) -> Option<InjectedFault> {
        self.rules
            .iter()
            .find(|rule| rule.matches(spec))
            .map(|rule| rule.fault)
    }
}

/// A [`TracedProgram`] wrapper that deterministically injects faults from
/// a [`FaultPlan`].
///
/// Every recording hands the wrapper its [`RunSpec`] through
/// [`TracedProgram::run_with_spec`], so injection keys on the run identity
/// alone; only a direct [`TracedProgram::run`] call, with no spec, sees the
/// inner program unmodified. The wrapper always reports
/// `deterministic_host() == false`: injection keys on `(run_index,
/// attempt)`, so fixed-input runs are *not* interchangeable and the
/// record-once replication fast path must stay off.
#[derive(Debug, Clone)]
pub struct FaultyProgram<P> {
    inner: P,
    plan: FaultPlan,
}

impl<P: TracedProgram> FaultyProgram<P> {
    /// Wraps `inner` with an injection plan.
    pub fn new(inner: P, plan: FaultPlan) -> Self {
        FaultyProgram { inner, plan }
    }

    /// The injection plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The wrapped program.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: TracedProgram> TracedProgram for FaultyProgram<P> {
    type Input = P::Input;

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn run(&self, device: &mut Device, input: &Self::Input) -> Result<(), HostError> {
        self.inner.run(device, input)
    }

    fn run_with_spec(
        &self,
        device: &mut Device,
        input: &Self::Input,
        spec: &RunSpec,
    ) -> Result<(), DetectError> {
        match self.plan.fault_for(spec) {
            None => self.inner.run_with_spec(device, input, spec),
            Some(InjectedFault::Exec(kind)) => Err(HostError::Launch(kind.synthesize()).into()),
            Some(InjectedFault::Memcpy) => Err(HostError::Memcpy(AccessError {
                addr: 0xbad_c0de,
                width: 16,
            })
            .into()),
            Some(InjectedFault::InvalidFree) => {
                Err(HostError::InvalidFree { addr: 0xbad_f4ee }.into())
            }
            Some(InjectedFault::TraceMismatch) => {
                device.detach_hook();
                self.inner.run_with_spec(device, input, spec)
            }
            Some(InjectedFault::Panic) => panic!(
                "injected panic at stream {} run {} attempt {}",
                spec.stream, spec.run_index, spec.attempt
            ),
            Some(InjectedFault::BudgetExhausted(resource)) => Err(DetectError::BudgetExhausted {
                resource,
                // Synthesized magnitudes: any `used > limit` pair names the
                // exhaustion without simulating real consumption.
                used: 1,
                limit: 0,
            }),
            Some(InjectedFault::DeadlineExpired) => Err(DetectError::Cancelled),
        }
    }

    fn random_input(&self, seed: u64) -> Self::Input {
        self.inner.random_input(seed)
    }

    fn deterministic_host(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DetectError;
    use crate::record::record_run_metered;
    use owl_gpu::build::KernelBuilder;
    use owl_gpu::grid::LaunchConfig;
    use owl_gpu::isa::{MemWidth, SpecialReg};
    use owl_gpu::Kernel;

    /// A minimal well-behaved program: one kernel, one malloc.
    struct Probe(Kernel);

    impl Probe {
        fn new() -> Self {
            let b = KernelBuilder::new("probe");
            let buf = b.param(0);
            let tid = b.special(SpecialReg::GlobalTid);
            let addr = b.add(buf, b.mul(tid, 8u64));
            let v = b.load_global(addr, MemWidth::B8);
            b.store_global(addr, b.add(v, 1u64), MemWidth::B8);
            Self(b.finish())
        }
    }

    impl TracedProgram for Probe {
        type Input = u64;

        fn name(&self) -> &str {
            "probe"
        }

        fn run(&self, device: &mut Device, _input: &u64) -> Result<(), HostError> {
            let buf = device.malloc(8 * 32);
            device.launch(&self.0, LaunchConfig::new(1u32, 32u32), &[buf.addr()])?;
            Ok(())
        }

        fn random_input(&self, seed: u64) -> u64 {
            seed
        }
    }

    fn spec(stream: u64, run_index: u64, attempt: u32) -> RunSpec {
        RunSpec {
            warp_size: 32,
            aslr_seed: None,
            stream,
            run_index,
            attempt,
        }
    }

    #[test]
    fn unmatched_runs_pass_through_unchanged() {
        let plan = FaultPlan::new().fail_run(1, 0, InjectedFault::Exec(ExecFaultKind::Memory));
        let faulty = FaultyProgram::new(Probe::new(), plan);
        let clean = record_run_metered(&Probe::new(), &0, &spec(0, 5, 0)).expect("clean run");
        let wrapped = record_run_metered(&faulty, &0, &spec(0, 5, 0)).expect("unmatched run");
        assert_eq!(clean, wrapped);
    }

    #[test]
    fn every_exec_fault_kind_surfaces_with_its_kind_tag() {
        for kind in ExecFaultKind::ALL {
            let plan = FaultPlan::new().fail_run(1, 2, InjectedFault::Exec(kind));
            let faulty = FaultyProgram::new(Probe::new(), plan);
            let err = record_run_metered(&faulty, &0, &spec(1, 2, 0)).expect_err("injected");
            assert_eq!(
                err,
                DetectError::Host(HostError::Launch(kind.synthesize())),
                "kind {kind:?}"
            );
            assert!(err.kind().starts_with("exec_"), "kind {kind:?}");
        }
    }

    #[test]
    fn attempt_bounded_rules_are_transient() {
        let plan =
            FaultPlan::new().fail_attempts(1, 2, 2, InjectedFault::Exec(ExecFaultKind::Memory));
        let faulty = FaultyProgram::new(Probe::new(), plan);
        assert!(record_run_metered(&faulty, &0, &spec(1, 2, 0)).is_err());
        assert!(record_run_metered(&faulty, &0, &spec(1, 2, 1)).is_err());
        let recovered =
            record_run_metered(&faulty, &0, &spec(1, 2, 2)).expect("attempt 2 succeeds");
        let clean = record_run_metered(&Probe::new(), &0, &spec(1, 2, 2)).expect("clean");
        assert_eq!(recovered, clean);
    }

    #[test]
    fn trace_mismatch_injection_detaches_instrumentation() {
        let plan = FaultPlan::new().fail_run(0, 0, InjectedFault::TraceMismatch);
        let faulty = FaultyProgram::new(Probe::new(), plan);
        let err = record_run_metered(&faulty, &0, &spec(0, 0, 0)).expect_err("mismatch");
        assert_eq!(err.kind(), "trace_mismatch");
        match err {
            DetectError::TraceMismatch { launches, graphs } => {
                assert_eq!((launches, graphs), (1, 0));
            }
            other => panic!("expected TraceMismatch, got {other:?}"),
        }
    }

    #[test]
    fn detector_level_faults_fire_before_recording() {
        let plan = FaultPlan::new()
            .fail_run(
                1,
                0,
                InjectedFault::BudgetExhausted(ResourceKind::MemEvents),
            )
            .fail_run(1, 1, InjectedFault::DeadlineExpired);
        let faulty = FaultyProgram::new(Probe::new(), plan);
        let err = record_run_metered(&faulty, &0, &spec(1, 0, 0)).expect_err("budget fault");
        assert_eq!(err.kind(), "budget_exhausted");
        assert!(err.to_string().contains("mem_events"), "{err}");
        let err = record_run_metered(&faulty, &0, &spec(1, 1, 0)).expect_err("deadline fault");
        assert_eq!(err.kind(), "cancelled");
        assert!(record_run_metered(&faulty, &0, &spec(2, 0, 0)).is_ok());
    }

    #[test]
    fn stream_wide_rules_hit_every_run() {
        let plan = FaultPlan::new().fail_stream(3, InjectedFault::InvalidFree);
        let faulty = FaultyProgram::new(Probe::new(), plan);
        for run in [0u64, 1, 7] {
            let err = record_run_metered(&faulty, &0, &spec(3, run, 0)).expect_err("injected");
            assert_eq!(err.kind(), "host_invalid_free");
        }
        assert!(record_run_metered(&faulty, &0, &spec(2, 0, 0)).is_ok());
    }
}

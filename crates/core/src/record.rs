//! Phase 1 — trace recording (paper §V).
//!
//! One recorded execution = a fresh device set up from the run's
//! [`RunSpec`], the Owl tracer attached, the program run once, and the
//! host/device observations zipped into a [`ProgramTrace`]: kernel
//! launches (host side, with call-site identity) paired with their A-DCFGs
//! (device side), plus allocation records.
//!
//! [`Recorder::record`] is the one recording entry point. It owns every
//! step of a run: the cancellation pre-check, the device and tracer, the
//! per-run budget check, and the deterministic retry loop that turns
//! panics into typed faults.
//! [`record_run_metered`] is a single unguarded attempt of the same steps.

use crate::error::DetectError;
use crate::fault::{panic_message, RetryPolicy, RunAttempt};
use crate::govern::{CancelToken, ResourceBudget};
use crate::program::TracedProgram;
use crate::trace::{InvocationKey, KernelInvocation, MallocRecord, ProgramTrace};
use crate::tracer::OwlTracer;
use owl_gpu::exec::{launch_lowered, Interpreter, LaunchOptions};
use owl_host::{Device, HostEvent};
use owl_metrics::SimCounters;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

/// Identity of one recording: everything needed to set up the device
/// deterministically, independent of which thread records the run or in
/// which order runs execute.
///
/// The detector assigns every recording a `(stream, run_index)` pair —
/// phase-1 user-input recordings, the shared `E_rnd` recordings, and each
/// class's `E_fix` recordings live in distinct streams — and the simulated
/// ASLR layout is a pure mix of `(aslr_seed, stream, run_index)`. Two
/// [`Recorder::record`] calls with equal arguments produce equal traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    /// SIMT warp width for the recording device.
    pub warp_size: u32,
    /// Base ASLR seed (`None` = ASLR off).
    pub aslr_seed: Option<u64>,
    /// The recording stream this run belongs to.
    pub stream: u64,
    /// The run's index within its stream.
    pub run_index: u64,
    /// The retry attempt this recording belongs to (0 = first try). Folded
    /// into the layout seed so retried runs stay pure functions of their
    /// spec: attempt 0 reproduces the pre-retry layout exactly, and each
    /// retry sees a fresh (but deterministic) layout under ASLR.
    pub attempt: u32,
}

impl Default for RunSpec {
    /// A standalone recording: the default warp width, ASLR off, the first
    /// attempt of run 0 in stream 0.
    fn default() -> Self {
        RunSpec {
            warp_size: owl_gpu::grid::WARP_SIZE,
            aslr_seed: None,
            stream: 0,
            run_index: 0,
            attempt: 0,
        }
    }
}

impl RunSpec {
    /// The per-run ASLR layout seed: a pure function of
    /// `(aslr_seed, stream, run_index, attempt)`, never of recording
    /// order. `attempt == 0` contributes nothing, keeping first-try
    /// layouts identical to the retry-free detector.
    pub fn layout_seed(&self) -> Option<u64> {
        let attempt_salt = u64::from(self.attempt).wrapping_mul(ATTEMPT_SALT);
        self.aslr_seed.map(|base| {
            mix64(
                mix64(base ^ STREAM_SALT.wrapping_mul(self.stream)) ^ self.run_index ^ attempt_salt,
            )
        })
    }

    /// The same run identity at a different retry attempt.
    #[must_use]
    pub fn with_attempt(mut self, attempt: u32) -> Self {
        self.attempt = attempt;
        self
    }
}

const STREAM_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
const ATTEMPT_SALT: u64 = 0xd1b5_4a32_d192_ed03;

/// SplitMix64 finalizer: a bijective avalanche mix.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// How runs are recorded: the interpreter, the resource budget, the
/// cancellation token and the retry policy.
///
/// The default records on the lowered interpreter under the default budget
/// (simulator fuel only), with no token and the default retry policy.
/// `detect()` builds one from its [`OwlConfig`](crate::OwlConfig); the
/// conformance tests swap in the reference oracle
/// (`owl_conformance::launch_oracle`) and assert the traces, digests and
/// counters come out bit-identical.
#[derive(Debug, Clone)]
pub struct Recorder {
    /// The simulator interpreter every launch runs on.
    pub interpreter: Interpreter,
    /// The instruction budget becomes each launch's fuel; the memory-event
    /// and allocation budgets are checked once a run completes.
    pub budget: ResourceBudget,
    /// Polled before each attempt and cooperatively at basic-block
    /// boundaries (`None` = never cancelled).
    pub cancel: Option<CancelToken>,
    /// Attempts per run.
    pub retry: RetryPolicy,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            interpreter: launch_lowered,
            budget: ResourceBudget::default(),
            cancel: None,
            retry: RetryPolicy::default(),
        }
    }
}

impl Recorder {
    /// Records one run of `program` over `input`: a pure function of
    /// `(program, input, spec)` and the recorder.
    ///
    /// Attempt `k` records `spec.with_attempt(k)` (the `attempt` field of
    /// `spec` is overwritten), on a fresh device whose layout derives from
    /// [`RunSpec::layout_seed`] — so any thread may record any run in any
    /// order and produce bit-identical traces. A panic inside an attempt
    /// is caught and becomes [`DetectError::WorkerPanic`]. Failures are
    /// retried up to [`RetryPolicy::max_attempts`], except the ones no
    /// retry can fix: cancellation, budget exhaustion and
    /// [`DetectError::NoInputs`].
    ///
    /// A cancelled run never yields a partial trace: it fails with
    /// [`DetectError::Cancelled`] and the whole run is dropped, which is
    /// what keeps surviving evidence deterministic under deadlines.
    pub fn record<P: TracedProgram>(
        &self,
        program: &P,
        input: &P::Input,
        spec: &RunSpec,
    ) -> RunAttempt {
        let max_attempts = self.retry.max_attempts.max(1);
        let mut panics = 0u32;
        let mut attempt = 0u32;
        loop {
            let attempt_spec = spec.with_attempt(attempt);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                self.record_once(program, input, &attempt_spec)
            }));
            let error = match outcome {
                Ok(Ok(recorded)) => {
                    return RunAttempt {
                        result: Ok(recorded),
                        attempts: attempt + 1,
                        panics,
                    }
                }
                Ok(Err(e)) => e,
                Err(payload) => {
                    panics += 1;
                    DetectError::WorkerPanic {
                        message: panic_message(payload),
                    }
                }
            };
            attempt += 1;
            if attempt >= max_attempts || is_permanent(&error) {
                return RunAttempt {
                    result: Err(error),
                    attempts: attempt,
                    panics,
                };
            }
        }
    }

    /// One attempt: the cancellation pre-check, the traced run, the budget
    /// check.
    fn record_once<P: TracedProgram>(
        &self,
        program: &P,
        input: &P::Input,
        spec: &RunSpec,
    ) -> Result<(ProgramTrace, SimCounters), DetectError> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Err(DetectError::Cancelled);
        }
        let mut device = spec
            .layout_seed()
            .map_or_else(Device::new, Device::with_aslr);
        device.set_launch_options(LaunchOptions {
            warp_size: spec.warp_size,
            interpreter: self.interpreter,
            fuel: self.budget.max_instructions,
            cancel: self.cancel.clone(),
        });
        let trace = trace_run(program, input, &mut device, spec)?;
        let counters = device.total_stats().counters;
        self.budget
            .check_run(counters.mem_accesses, trace.mallocs.len() as u64)?;
        Ok((trace, counters))
    }
}

/// Whether retrying `error` is pointless. [`DetectError::NoInputs`] is a
/// caller error, not a run failure; a cancelled or budget-exhausted run
/// fails identically on every retry (budgets are deterministic; a fired
/// token never un-fires), so retrying only burns wall clock. Every
/// program-level failure is worth another attempt: each runs on a fresh
/// device, and under ASLR with a fresh layout. `FuelExhausted` from the
/// simulator stays retryable: with the default generous fuel it signals a
/// runaway that the injection harness deliberately recovers from on retry.
fn is_permanent(error: &DetectError) -> bool {
    matches!(
        error,
        DetectError::NoInputs | DetectError::Cancelled | DetectError::BudgetExhausted { .. }
    )
}

/// One attempt of [`Recorder::default`] — the lowered interpreter, no
/// budget beyond the default fuel, no token — returning the trace and the
/// run's simulator execution counters, with no retry and no panic guard.
///
/// The counters are kept **out of** [`ProgramTrace`] on purpose: traces are
/// compared and digested by the duplicate filter, and folding counters into
/// them would change trace identity. The counters are deterministic for a
/// given `(program, input, spec)` — they come from the warp-lockstep
/// execution itself — so they inherit the same purity as the trace.
///
/// # Errors
///
/// [`DetectError::Host`] if the program fails,
/// [`DetectError::TraceMismatch`] if instrumentation lost events, or the
/// fault a [`FaultyProgram`](crate::FaultyProgram) injects.
pub fn record_run_metered<P: TracedProgram>(
    program: &P,
    input: &P::Input,
    spec: &RunSpec,
) -> Result<(ProgramTrace, SimCounters), DetectError> {
    Recorder::default().record_once(program, input, spec)
}

/// Runs `program` once on `device` under the Owl tracer and zips the host
/// events with the device graphs into a [`ProgramTrace`]. The spec reaches
/// [`TracedProgram::run_with_spec`], so spec-aware programs (the
/// fault-injection wrapper) can key behaviour on the run identity.
fn trace_run<P: TracedProgram>(
    program: &P,
    input: &P::Input,
    device: &mut Device,
    spec: &RunSpec,
) -> Result<ProgramTrace, DetectError> {
    let tracer = Rc::new(RefCell::new(OwlTracer::new()));
    device.attach_hook(tracer.clone());
    let run_result = program.run_with_spec(device, input, spec);
    device.detach_hook();
    run_result?;

    let graphs = tracer.borrow_mut().take_graphs();
    let mut graphs = graphs.into_iter();
    let mut invocations = Vec::new();
    let mut mallocs = Vec::new();
    let mut launches = 0usize;
    for event in device.events() {
        match event {
            HostEvent::Launch {
                call_site,
                kernel,
                config,
                ..
            } => {
                launches += 1;
                let adcfg = graphs.next().ok_or(DetectError::TraceMismatch {
                    launches,
                    graphs: launches - 1,
                })?;
                invocations.push(KernelInvocation::new(
                    InvocationKey {
                        call_site: *call_site,
                        kernel: kernel.clone(),
                    },
                    (
                        (config.grid.x, config.grid.y, config.grid.z),
                        (config.block.x, config.block.y, config.block.z),
                    ),
                    adcfg,
                ));
            }
            HostEvent::Malloc {
                call_site, size, ..
            } => mallocs.push(MallocRecord {
                call_site: *call_site,
                size: *size,
            }),
            HostEvent::Free { .. } => {}
        }
    }
    let leftover = graphs.count();
    if leftover > 0 {
        return Err(DetectError::TraceMismatch {
            launches,
            graphs: launches + leftover,
        });
    }
    Ok(ProgramTrace {
        invocations,
        mallocs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_gpu::build::KernelBuilder;
    use owl_gpu::grid::LaunchConfig;
    use owl_gpu::isa::{CmpOp, MemWidth, SpecialReg};
    use owl_gpu::Kernel;
    use owl_host::HostError;

    /// A toy program with a secret-dependent host decision: launches a
    /// second kernel only when the secret is odd.
    struct Toy {
        k1: Kernel,
        k2: Kernel,
    }

    impl Toy {
        fn new() -> Self {
            let mk = |name: &str| {
                let b = KernelBuilder::new(name);
                let buf = b.param(0);
                let secret = b.param(1);
                let tid = b.special(SpecialReg::GlobalTid);
                // The whole warp indexes with the secret (like a shared
                // AES key): the aggregated histogram stays secret-dependent.
                let _ = tid;
                let addr = b.add(buf, b.mul(b.rem(secret, 32u64), 8u64));
                let v = b.load_global(addr, MemWidth::B8);
                // A secret-dependent branch, uniform across the warp.
                let p = b.setp(CmpOp::GtU, b.and(secret, 1u64), 0u64);
                b.if_then(p, |b| {
                    b.store_global(addr, b.add(v, 1u64), MemWidth::B8);
                });
                b.finish()
            };
            Toy {
                k1: mk("toy_k1"),
                k2: mk("toy_k2"),
            }
        }
    }

    impl TracedProgram for Toy {
        type Input = u64;

        fn name(&self) -> &str {
            "toy"
        }

        fn run(&self, device: &mut Device, input: &u64) -> Result<(), HostError> {
            let buf = device.malloc(8 * 32);
            device.launch(
                &self.k1,
                LaunchConfig::new(1u32, 32u32),
                &[buf.addr(), *input],
            )?;
            if input % 2 == 1 {
                device.launch(
                    &self.k2,
                    LaunchConfig::new(1u32, 32u32),
                    &[buf.addr(), *input],
                )?;
            }
            Ok(())
        }

        fn random_input(&self, seed: u64) -> u64 {
            seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        }
    }

    /// One recording with the default recorder and `spec`.
    fn trace_at(toy: &Toy, input: u64, spec: &RunSpec) -> ProgramTrace {
        let attempt = Recorder::default().record(toy, &input, spec);
        assert_eq!(attempt.attempts, 1);
        attempt.result.expect("recording succeeds").0
    }

    fn trace(toy: &Toy, input: u64) -> ProgramTrace {
        trace_at(toy, input, &RunSpec::default())
    }

    #[test]
    fn trace_structure_reflects_host_behaviour() {
        let toy = Toy::new();
        let even = trace(&toy, 2);
        let odd = trace(&toy, 3);
        assert_eq!(even.invocations.len(), 1);
        assert_eq!(odd.invocations.len(), 2);
        assert_eq!(even.mallocs.len(), 1);
        assert_eq!(odd.invocations[1].key.kernel, "toy_k2");
    }

    #[test]
    fn equal_inputs_equal_traces() {
        let toy = Toy::new();
        let a = trace(&toy, 6);
        let b = trace(&toy, 6);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn different_secrets_different_graphs() {
        let toy = Toy::new();
        let a = trace(&toy, 2);
        let b = trace(&toy, 4);
        // Same kernel sequence, but the table index differs → different
        // address histograms.
        assert_eq!(a.invocations.len(), b.invocations.len());
        assert_ne!(a.invocations[0].adcfg, b.invocations[0].adcfg);
    }

    #[test]
    fn recording_is_aslr_invariant() {
        let toy = Toy::new();
        let plain = trace(&toy, 5);
        let aslr = RunSpec {
            aslr_seed: Some(42),
            ..RunSpec::default()
        };
        assert!(aslr.layout_seed().is_some());
        assert_eq!(plain, trace_at(&toy, 5, &aslr));
    }

    /// Allocation churn before a launch: mallocs three buffers, frees the
    /// second, mallocs a fourth, then launches one kernel that loads from
    /// buffers 1 and 3 and stores to buffer 4.
    struct Churn {
        kernel: Kernel,
    }

    impl Churn {
        fn new() -> Self {
            let b = KernelBuilder::new("churn");
            let (first, third, fourth) = (b.param(0), b.param(1), b.param(2));
            let off = b.mul(b.special(SpecialReg::GlobalTid), 8u64);
            let x = b.load_global(b.add(first, off), MemWidth::B8);
            let y = b.load_global(b.add(third, off), MemWidth::B8);
            b.store_global(b.add(fourth, off), b.add(x, y), MemWidth::B8);
            Churn { kernel: b.finish() }
        }
    }

    impl TracedProgram for Churn {
        type Input = ();

        fn name(&self) -> &str {
            "churn"
        }

        fn run(&self, device: &mut Device, _input: &()) -> Result<(), HostError> {
            let first = device.malloc(8 * 32);
            let second = device.malloc(8 * 32);
            let third = device.malloc(8 * 32);
            device.free(second)?;
            let fourth = device.malloc(8 * 32);
            device.launch(
                &self.kernel,
                LaunchConfig::new(1u32, 32u32),
                &[first.addr(), third.addr(), fourth.addr()],
            )?;
            Ok(())
        }

        fn random_input(&self, _seed: u64) {}
    }

    #[test]
    fn recording_resolves_addresses_after_a_free() {
        let churn = Churn::new();
        let record = |recorder: &Recorder, spec: &RunSpec| {
            recorder
                .record(&churn, &(), spec)
                .result
                .expect("recording succeeds")
                .0
        };
        let plain = record(&Recorder::default(), &RunSpec::default());
        for seed in [42, 0xC0FFEE] {
            let aslr = RunSpec {
                aslr_seed: Some(seed),
                ..RunSpec::default()
            };
            assert_eq!(plain, record(&Recorder::default(), &aslr), "seed {seed}");
        }
        let oracle = Recorder {
            interpreter: owl_conformance::launch_oracle,
            ..Recorder::default()
        };
        assert_eq!(plain, record(&oracle, &RunSpec::default()));

        // Global features carry `alloc + 1` above bit 40: allocations 0, 2
        // and 3, never the freed allocation 1 or the unresolved tag bit.
        let [invocation] = plain.invocations.as_slice() else {
            panic!("expected one invocation");
        };
        let allocs: std::collections::BTreeSet<u64> = invocation
            .adcfg
            .nodes
            .values()
            .flat_map(|node| node.mem.values().flatten())
            .flat_map(|hist| hist.iter().map(|(feature, _)| feature >> 40))
            .collect();
        assert_eq!(allocs, [1, 3, 4].into());
    }

    #[test]
    fn record_run_is_pure_in_its_spec() {
        let toy = Toy::new();
        let spec = RunSpec {
            warp_size: 32,
            aslr_seed: Some(7),
            stream: 3,
            run_index: 11,
            attempt: 0,
        };
        assert_eq!(trace_at(&toy, 5, &spec), trace_at(&toy, 5, &spec));
    }

    #[test]
    fn metered_recording_is_pure_and_counts_execution() {
        let toy = Toy::new();
        let spec = RunSpec {
            warp_size: 32,
            aslr_seed: Some(9),
            stream: 1,
            run_index: 4,
            attempt: 0,
        };
        let (trace_a, counters_a) = record_run_metered(&toy, &5, &spec).unwrap();
        let (trace_b, counters_b) = record_run_metered(&toy, &5, &spec).unwrap();
        assert_eq!(trace_a, trace_b);
        assert_eq!(counters_a, counters_b);
        assert!(counters_a.instructions > 0);
        assert!(counters_a.mem_accesses > 0);
        // The retrying recorder sees the same trace and counters.
        let attempt = Recorder::default().record(&toy, &5, &spec);
        assert_eq!(attempt.result.unwrap(), (trace_a, counters_a));
    }

    #[test]
    fn oracle_recording_matches_lowered_recording() {
        let toy = Toy::new();
        let spec = RunSpec {
            warp_size: 32,
            aslr_seed: Some(13),
            stream: 2,
            run_index: 7,
            attempt: 0,
        };
        let oracle = Recorder {
            interpreter: owl_conformance::launch_oracle,
            ..Recorder::default()
        };
        for input in [2u64, 5] {
            let (fast, fast_counters) = Recorder::default()
                .record(&toy, &input, &spec)
                .result
                .unwrap();
            let (slow, slow_counters) = oracle.record(&toy, &input, &spec).result.unwrap();
            assert_eq!(fast, slow);
            assert_eq!(fast.digest(), slow.digest());
            assert_eq!(fast_counters, slow_counters);
        }
    }

    #[test]
    fn classifier_defaults() {
        assert!(is_permanent(&DetectError::NoInputs));
        assert!(!is_permanent(&DetectError::WorkerPanic {
            message: "x".into()
        }));
        assert!(!is_permanent(&DetectError::TraceMismatch {
            launches: 1,
            graphs: 0
        }));
    }

    #[test]
    fn governance_failures_are_permanent_but_fuel_stays_transient() {
        use crate::govern::ResourceKind;
        assert!(is_permanent(&DetectError::Cancelled));
        assert!(is_permanent(&DetectError::BudgetExhausted {
            resource: ResourceKind::MemEvents,
            used: 2,
            limit: 1,
        }));
        // The injection harness relies on FuelExhausted recovering on retry.
        assert!(!is_permanent(&DetectError::Host(HostError::Launch(
            owl_gpu::ExecError::FuelExhausted
        ))));
        assert!(!is_permanent(&DetectError::Host(HostError::Launch(
            owl_gpu::ExecError::Cancelled
        ))));
    }

    #[test]
    fn layout_seed_separates_streams_and_runs() {
        let spec = |stream, run_index| RunSpec {
            warp_size: 32,
            aslr_seed: Some(0xABCD),
            stream,
            run_index,
            attempt: 0,
        };
        // Distinct (stream, run) pairs get distinct layouts; equal pairs
        // agree; ASLR off means no layout at all.
        assert_eq!(spec(0, 5).layout_seed(), spec(0, 5).layout_seed());
        assert_ne!(spec(0, 5).layout_seed(), spec(1, 5).layout_seed());
        assert_ne!(spec(0, 5).layout_seed(), spec(0, 6).layout_seed());
        assert_ne!(spec(1, 0).layout_seed(), spec(2, 0).layout_seed());
        assert_eq!(
            RunSpec {
                aslr_seed: None,
                ..spec(0, 0)
            }
            .layout_seed(),
            None
        );
    }

    #[test]
    fn layout_seed_separates_retry_attempts() {
        let base = RunSpec {
            warp_size: 32,
            aslr_seed: Some(0xABCD),
            stream: 1,
            run_index: 5,
            attempt: 0,
        };
        // Attempt 0 is the run's canonical identity (pre-retry layouts are
        // reproduced exactly); each retry sees a distinct deterministic
        // layout.
        assert_eq!(base.layout_seed(), base.with_attempt(0).layout_seed());
        assert_ne!(base.layout_seed(), base.with_attempt(1).layout_seed());
        assert_ne!(
            base.with_attempt(1).layout_seed(),
            base.with_attempt(2).layout_seed()
        );
        assert_eq!(
            base.with_attempt(2).layout_seed(),
            base.with_attempt(2).layout_seed()
        );
    }
}

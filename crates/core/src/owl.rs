//! The Owl detector: the three phases end to end.

use crate::analysis::{leakage_test, AnalysisConfig};
use crate::engine::{Engine, EngineComparison};
use crate::error::{DetectError, DetectPhase, RunContext};
use crate::evidence::Evidence;
use crate::fault::{FaultRecord, RetryPolicy, RunAttempt};
use crate::filter::{ClassFilter, FilterOutcome};
use crate::govern::{CancelToken, ResourceBudget, ResourceKind};
use crate::parallel::parallel_fold;
use crate::program::TracedProgram;
use crate::record::{Recorder, RunSpec};
use crate::report::LeakReport;
use crate::trace::ProgramTrace;
use owl_metrics::{FaultCounters, PhaseFaultCounters, SimCounters, Spans};
use std::time::{Duration, Instant};

/// Recording stream of the phase-1 user-input recordings.
pub const STREAM_USER: u64 = 0;
/// Recording stream of the shared random evidence `E_rnd`.
pub const STREAM_RND: u64 = 1;
/// Recording stream of input class `class`'s fixed evidence `E_fix`.
pub fn fix_stream(class: usize) -> u64 {
    2 + class as u64
}

/// Runs per evidence work item: the recording fan-out granularity. Chunk
/// boundaries depend only on the run count — never on the worker count —
/// so the partial-evidence merge tree, and therefore the merged evidence,
/// is bit-identical for every `parallelism` setting.
const EVIDENCE_CHUNK: usize = 8;

/// Detection parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OwlConfig {
    /// Executions per evidence side (the paper uses 100 fixed + 100
    /// random).
    pub runs: usize,
    /// KS confidence level (the paper uses 0.95).
    pub alpha: f64,
    /// Base seed for drawing random inputs (reproducibility).
    pub seed: u64,
    /// Run the leakage analysis even when filtering found a single input
    /// class (the paper would stop and declare the program leak-free).
    pub force_analysis: bool,
    /// The analysis engine deciding per-feature input dependence (the
    /// paper's KS test unless overridden; see [`Engine`]).
    pub method: Engine,
    /// Run *every* engine over the shared evidence and record the
    /// cross-engine agreement table in [`Detection::engine_comparison`].
    /// The primary report and verdict still come from [`OwlConfig::
    /// method`], so exit codes and verdicts are unchanged by this flag.
    pub compare_engines: bool,
    /// SIMT warp width used for every recorded execution (32 = NVIDIA
    /// warps, 64 = AMD-style wavefronts).
    pub warp_size: u32,
    /// When set, every recording runs on a device with simulated ASLR
    /// derived from this seed (a *different* layout per run), exercising
    /// the tracer's address normalisation end to end. Each run's layout is
    /// a pure function of `(aslr_seed, stream, run_index, attempt)`, never
    /// of recording order.
    pub aslr_seed: Option<u64>,
    /// Worker threads for the recording and analysis fan-out. Defaults to
    /// the number of available cores; `1` keeps everything inline on the
    /// calling thread. Results are bit-identical for every value — the
    /// evidence merge tree depends only on the run count.
    pub parallelism: usize,
    /// Retry policy for failed recordings. Each attempt re-records the run
    /// with the attempt index folded into its [`RunSpec`], so retries stay
    /// pure functions of their spec and the determinism contract holds.
    /// Runs that exhaust the budget are quarantined into
    /// [`Detection::faults`] instead of aborting.
    pub retry: RetryPolicy,
    /// Minimum surviving runs per evidence set (the shared `E_rnd` and each
    /// class's `E_fix`) for the distribution tests to be trusted. Sets that
    /// fall below the quorum make the verdict [`Verdict::Inconclusive`]
    /// rather than silently under-powered. `None` = half the configured
    /// runs (at least 2, never more than `runs`).
    pub min_runs_per_set: Option<usize>,
    /// Resource budgets and deadline for the whole detection. Exhaustion
    /// surfaces as typed faults feeding the quarantine machinery, never as
    /// an abort; see [`ResourceBudget`] for the determinism contract.
    pub budget: ResourceBudget,
}

impl Default for OwlConfig {
    fn default() -> Self {
        OwlConfig {
            runs: 100,
            alpha: 0.95,
            seed: 0x0071_5eed,
            force_analysis: false,
            method: Engine::Ks,
            compare_engines: false,
            warp_size: owl_gpu::grid::WARP_SIZE,
            aslr_seed: None,
            parallelism: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            retry: RetryPolicy::default(),
            min_runs_per_set: None,
            budget: ResourceBudget::DEFAULT,
        }
    }
}

impl OwlConfig {
    /// The effective per-set quorum: [`OwlConfig::min_runs_per_set`], or
    /// half the configured runs (at least 2), capped at `runs` — and never
    /// below 1, so an empty evidence set is never tested.
    pub fn quorum(&self) -> usize {
        self.min_runs_per_set
            .unwrap_or((self.runs / 2).max(2))
            .min(self.runs)
            .max(1)
    }

    /// Rejects configurations that cannot produce a meaningful detection —
    /// zero runs, a zero quorum or one no run count can satisfy, a
    /// zero-attempt retry budget, zero resource budgets, out-of-range alpha
    /// or warp size.
    ///
    /// `detect` does not call this: the detector's own clamping keeps every
    /// config *safe* (it cannot crash), but a nonsensical config silently
    /// clamped is a user error hidden. Front ends (the CLI, harnesses)
    /// validate up front and render the typed [`ConfigError`] instead.
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] found, in field order.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.runs == 0 {
            return Err(ConfigError::ZeroRuns);
        }
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(ConfigError::AlphaOutOfRange { alpha: self.alpha });
        }
        if !(1..=64).contains(&self.warp_size) {
            return Err(ConfigError::WarpSizeOutOfRange {
                warp_size: self.warp_size,
            });
        }
        if self.parallelism == 0 {
            return Err(ConfigError::ZeroParallelism);
        }
        if self.retry.max_attempts == 0 {
            return Err(ConfigError::ZeroRetryAttempts);
        }
        match self.min_runs_per_set {
            Some(0) => return Err(ConfigError::ZeroQuorum),
            Some(quorum) if quorum > self.runs => {
                return Err(ConfigError::QuorumExceedsRuns {
                    quorum,
                    runs: self.runs,
                })
            }
            _ => {}
        }
        if self.budget.max_instructions == 0 {
            return Err(ConfigError::ZeroBudget {
                resource: ResourceKind::Instructions,
            });
        }
        if self.budget.max_mem_events == Some(0) {
            return Err(ConfigError::ZeroBudget {
                resource: ResourceKind::MemEvents,
            });
        }
        if self.budget.max_allocations == Some(0) {
            return Err(ConfigError::ZeroBudget {
                resource: ResourceKind::Allocations,
            });
        }
        if self.budget.max_evidence_bytes == Some(0) {
            return Err(ConfigError::ZeroBudget {
                resource: ResourceKind::EvidenceBytes,
            });
        }
        if self.budget.deadline == Some(Duration::ZERO) {
            return Err(ConfigError::ZeroBudget {
                resource: ResourceKind::Deadline,
            });
        }
        Ok(())
    }
}

/// A configuration that cannot produce a meaningful detection, caught by
/// [`OwlConfig::validate`] before any run is recorded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `runs == 0`: no evidence could be recorded.
    ZeroRuns,
    /// `alpha` outside the open interval `(0, 1)`.
    AlphaOutOfRange {
        /// The rejected confidence level.
        alpha: f64,
    },
    /// `warp_size` outside the simulator's supported `1..=64`.
    WarpSizeOutOfRange {
        /// The rejected warp width.
        warp_size: u32,
    },
    /// `parallelism == 0`: no worker could run.
    ZeroParallelism,
    /// `retry.max_attempts == 0`: every run would quarantine untried.
    ZeroRetryAttempts,
    /// `min_runs_per_set == 0`: an evidence set that lost every run would
    /// still be tested.
    ZeroQuorum,
    /// `min_runs_per_set > runs`: the quorum can never be met.
    QuorumExceedsRuns {
        /// The configured quorum.
        quorum: usize,
        /// The configured run count.
        runs: usize,
    },
    /// A resource budget of zero: every run (or the whole detection) would
    /// exhaust immediately.
    ZeroBudget {
        /// The zero-budgeted resource.
        resource: ResourceKind,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroRuns => {
                write!(f, "runs must be at least 1 (0 records no evidence)")
            }
            ConfigError::AlphaOutOfRange { alpha } => {
                write!(f, "alpha must be strictly between 0 and 1, got {alpha}")
            }
            ConfigError::WarpSizeOutOfRange { warp_size } => {
                write!(f, "warp size must be within 1..=64, got {warp_size}")
            }
            ConfigError::ZeroParallelism => {
                write!(f, "parallelism must be at least 1")
            }
            ConfigError::ZeroRetryAttempts => write!(
                f,
                "retry budget must allow at least 1 attempt (0 quarantines every run untried)"
            ),
            ConfigError::ZeroQuorum => write!(
                f,
                "min runs per set must be at least 1 (0 tests evidence sets that lost every run)"
            ),
            ConfigError::QuorumExceedsRuns { quorum, runs } => write!(
                f,
                "min runs per set ({quorum}) exceeds the configured runs ({runs}); \
                 the quorum could never be met"
            ),
            ConfigError::ZeroBudget { resource } => write!(
                f,
                "the {resource} budget must be nonzero (0 exhausts immediately)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Cost accounting for one detection, mirroring the columns of the paper's
/// Table IV.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStats {
    /// Wall time of the trace-recording phase (filtering inputs).
    pub trace_collection_time: Duration,
    /// Mean bytes per recorded trace.
    pub trace_bytes: usize,
    /// Evidence traces the detection plans: `runs × (1 + classes)`, the
    /// shared random side plus one fixed side per input class. A fixed
    /// class replicated from a single recording (see
    /// [`TracedProgram::deterministic_host`]) counts all `runs`, and
    /// quarantined runs are not subtracted, so this can exceed the number
    /// of recordings actually made.
    pub evidence_traces: usize,
    /// Wall time to record + merge the evidence.
    pub evidence_time: Duration,
    /// Sum of the per-worker recording time of the evidence phase. The
    /// ratio `evidence_cpu_time / evidence_time` is the observed parallel
    /// speedup (≈ 1 when `parallelism = 1`).
    pub evidence_cpu_time: Duration,
    /// Worker threads actually used by the evidence phase (`parallelism`
    /// clamped to the number of work items).
    pub evidence_workers: usize,
    /// Wall time of the distribution tests.
    pub test_time: Duration,
    /// The merged random evidence plus the largest merged fixed evidence,
    /// in bytes: the footprint of one class's distribution test. Not the
    /// resident peak: the evidence phase holds every class's merged
    /// evidence, plus up to `4 × workers` chunk partials waiting to merge.
    pub peak_evidence_bytes: usize,
    /// Total wall time of the detection.
    pub total_time: Duration,
}

/// The detector's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// All user inputs produced identical traces (§VI: leak-free).
    LeakFree,
    /// Differences existed but none survived the distribution tests: they
    /// are attributed to non-deterministic execution noise.
    NoInputDependence,
    /// Input-dependent leaks were found.
    Leaky,
    /// The detection completed but lost too many runs to quarantine to
    /// certify a clean result: user inputs went unrecorded, an evidence
    /// set fell below the [quorum](OwlConfig::min_runs_per_set), or a
    /// class's distribution test was lost to a panic. Never silently
    /// reported as clean — consult [`Detection::faults`]. (Leaks found on
    /// the surviving evidence still yield [`Verdict::Leaky`]: missing data
    /// can hide a leak, not fabricate one.)
    Inconclusive,
}

/// The complete result of one detection.
#[derive(Debug, Clone)]
pub struct Detection<I> {
    /// The input classes from the duplicates-removing phase.
    pub filter: FilterOutcome<I>,
    /// The merged leak report over all classes.
    pub report: LeakReport,
    /// The verdict.
    pub verdict: Verdict,
    /// Cost accounting.
    pub stats: PhaseStats,
    /// Simulator execution counters totalled over every recorded run
    /// (phase 1 and evidence alike). Deterministic: bit-identical for every
    /// `parallelism` setting, like the report itself.
    pub counters: SimCounters,
    /// Wall-clock spans of the detector phases, in phase order.
    /// Non-deterministic by nature — excluded from any reproducible output.
    pub spans: Spans,
    /// Every run quarantined after exhausting its retries, in run order
    /// (phase-1 inputs, then evidence chunks, then analysis classes).
    /// Empty on a fault-free detection.
    pub faults: Vec<FaultRecord>,
    /// Per-phase fault counters (retries, quarantines, caught panics).
    /// All-zero on a fault-free detection; merged associatively from
    /// per-chunk counters, so bit-identical for every `parallelism`.
    pub fault_counters: FaultCounters,
    /// The cross-engine agreement table, present only when the detection
    /// ran with [`OwlConfig::compare_engines`] and the analysis phase
    /// executed (deterministic like the report itself).
    pub engine_comparison: Option<EngineComparison>,
}

/// The evidence phase's work items, derived from the item index alone so
/// the plan is O(1) in `runs`: item `i` is chunk `i % per_set` of evidence
/// set `i / per_set`, where set 0 is the shared `E_rnd` and set `c + 1` is
/// class `c`'s `E_fix`. Item order is today's fold order: the random
/// chunks, then each class's fixed chunks, each set in run order.
struct EvidencePlan {
    runs: usize,
    /// Chunks per evidence set.
    per_set: usize,
    /// Work items over every set.
    items: usize,
}

impl EvidencePlan {
    /// # Panics
    ///
    /// Panics if the sets hold more than `usize::MAX` chunks between them.
    fn new(runs: usize, classes: usize) -> Self {
        let per_set = runs.div_ceil(EVIDENCE_CHUNK);
        let items = per_set
            .checked_mul(classes + 1)
            .expect("the evidence plan has at most usize::MAX chunks");
        EvidencePlan {
            runs,
            per_set,
            items,
        }
    }

    /// Work item `i`, for `i < self.items`.
    fn item(&self, i: usize) -> EvidenceItem {
        let class = (i / self.per_set).checked_sub(1);
        let start = (i % self.per_set)
            .checked_mul(EVIDENCE_CHUNK)
            .expect("a chunk starts below `runs`");
        EvidenceItem {
            class,
            stream: class.map_or(STREAM_RND, fix_stream),
            start,
            end: start + (self.runs - start).min(EVIDENCE_CHUNK),
        }
    }
}

/// One evidence-phase work item: a contiguous chunk of run indices for one
/// recording stream (the shared `E_rnd` or one class's `E_fix`).
struct EvidenceItem {
    /// `None` = random evidence, `Some(c)` = class `c`'s fixed evidence.
    class: Option<usize>,
    /// The stream the runs belong to.
    stream: u64,
    /// First run index of the chunk.
    start: usize,
    /// One past the last run index of the chunk.
    end: usize,
}

/// What one evidence chunk produced: the partial evidence over its
/// surviving runs, plus the chunk's fault accounting. Chunks never fail —
/// faulty runs inside them are quarantined per run.
#[derive(Default)]
struct ChunkOutcome {
    partial: Evidence,
    counters: SimCounters,
    fault_counters: PhaseFaultCounters,
    faults: Vec<FaultRecord>,
    kept: usize,
    elapsed: Duration,
}

/// The merged evidence the distribution tests compare.
struct EvidenceSets {
    rnd: Evidence,
    /// One fixed-input evidence set per input class.
    fixes: Vec<Evidence>,
    /// Per class: both sides of its test kept at least the quorum.
    quorate: Vec<bool>,
}

/// What the analysis phase produced: the configured engine's report and,
/// in comparison mode, the cross-engine agreement table.
#[derive(Default)]
struct Analysis {
    report: LeakReport,
    engine_comparison: Option<EngineComparison>,
}

/// Everything the phases add to on the way to the [`Detection`].
#[derive(Default)]
struct Ledger {
    stats: PhaseStats,
    counters: SimCounters,
    spans: Spans,
    faults: Vec<FaultRecord>,
    fault_counters: FaultCounters,
    /// A user input, a run below quorum, a class's test or the evidence
    /// budget was lost, so a clean result cannot be certified.
    lost: bool,
}

impl Ledger {
    /// The finaliser. `analysis` is `None` when filtering settled the
    /// detection and no distribution test ran.
    ///
    /// Leaks found on surviving evidence are real regardless of what was
    /// lost; a clean-looking result is only certified when nothing was —
    /// leak-free when filtering found a single class, no input dependence
    /// when the distribution tests ran.
    fn finish<I>(
        self,
        filter: FilterOutcome<I>,
        analysis: Option<Analysis>,
        started: Instant,
    ) -> Detection<I> {
        let analysed = analysis.is_some();
        let Analysis {
            report,
            engine_comparison,
        } = analysis.unwrap_or_default();
        let verdict = if !report.is_clean() {
            Verdict::Leaky
        } else if self.lost {
            Verdict::Inconclusive
        } else if analysed {
            Verdict::NoInputDependence
        } else {
            Verdict::LeakFree
        };
        Detection {
            filter,
            report,
            verdict,
            stats: PhaseStats {
                total_time: started.elapsed(),
                ..self.stats
            },
            counters: self.counters,
            spans: self.spans,
            faults: self.faults,
            fault_counters: self.fault_counters,
            engine_comparison,
        }
    }
}

/// The identity of a run (or class test) in the fault log.
fn run_context(
    phase: DetectPhase,
    class: Option<usize>,
    stream: u64,
    run_index: usize,
) -> RunContext {
    RunContext {
        phase,
        class,
        stream,
        run_index: run_index as u64,
    }
}

/// Folds a run's attempts into the phase counters and returns what it
/// recorded; a lost run is logged to `faults` instead.
fn settle(
    attempt: RunAttempt,
    context: RunContext,
    counters: &mut PhaseFaultCounters,
    faults: &mut Vec<FaultRecord>,
) -> Option<(ProgramTrace, SimCounters)> {
    attempt.count_into(counters);
    match attempt.result {
        Ok(recorded) => Some(recorded),
        Err(error) => {
            faults.push(FaultRecord {
                context,
                attempts: attempt.attempts,
                error,
            });
            None
        }
    }
}

/// A work item lost in one attempt: a cancelled class test, or a panic
/// that escaped the recorder's own guard (a bookkeeping bug, quarantined
/// all the same rather than crashing the detection).
fn lost_item(error: DetectError) -> RunAttempt {
    let panics = u32::from(matches!(error, DetectError::WorkerPanic { .. }));
    RunAttempt {
        result: Err(error),
        attempts: 1,
        panics,
    }
}

/// Runs the full Owl pipeline on `program` with the given user inputs.
///
/// Phase 1 records one trace per user input; phase 2 groups them into
/// classes (identical traces ⇒ same class); phase 3, for each class
/// representative, merges `runs` fixed-input executions into `E_fix`,
/// merges `runs` random-input executions into a shared `E_rnd`, and runs
/// the leak tests. Reports of all classes are merged, deduplicated by code
/// location.
///
/// Recording and analysis fan out across [`OwlConfig::parallelism`] worker
/// threads. Every recording is a pure function of its
/// `(stream, run_index, attempt)` identity (see [`RunSpec`]), chunk
/// boundaries depend only on the run count, and partial evidences merge in
/// chunk order — so the returned report, verdict, evidence, fault log and
/// fault counters are bit-identical for every `parallelism` value. Each
/// worker owns its simulated device and tracer end to end (they are
/// deliberately not thread-safe); only the finished, plain-data traces
/// cross threads.
///
/// # Fault tolerance
///
/// A failing run no longer aborts the detection. Each recording retries
/// under [`OwlConfig::retry`] (every attempt a pure function of its spec);
/// runs that exhaust the budget are *quarantined* into
/// [`Detection::faults`] and excluded from the evidence. Worker panics are
/// caught at the run boundary and quarantined the same way. The detection
/// completes on the surviving evidence; a clean result is reported as
/// [`Verdict::Inconclusive`] instead of leak-free whenever user inputs
/// were lost, an evidence set fell below the quorum
/// ([`OwlConfig::min_runs_per_set`]), or a class's distribution test was
/// lost — never a silent [`Verdict::LeakFree`].
///
/// # Errors
///
/// Returns [`DetectError::NoInputs`] when `user_inputs` is empty — the one
/// caller error left; program failures are quarantined, not returned.
///
/// # Example
///
/// See the crate-level documentation.
pub fn detect<P>(
    program: &P,
    user_inputs: &[P::Input],
    config: &OwlConfig,
) -> Result<Detection<P::Input>, DetectError>
where
    P: TracedProgram + Sync,
    P::Input: Send + Sync,
{
    detect_with_cancel(program, user_inputs, config, None)
}

/// [`detect`] with a caller-provided [`CancelToken`].
///
/// The effective token combines the caller's with the config's deadline
/// ([`ResourceBudget::deadline`]): either firing cancels the detection
/// cooperatively. Cancellation never aborts — in-flight runs are abandoned
/// at the next basic-block boundary, queued runs fail fast, and everything
/// lost is quarantined like any other fault. The detection returns a
/// *partial* result over the surviving evidence, quorum-evaluated: leaks
/// found stand ([`Verdict::Leaky`]), a clean-looking result degrades to
/// [`Verdict::Inconclusive`] when anything was lost.
///
/// # Errors
///
/// See [`detect`]. A cancelled detection still returns `Ok` — the losses
/// live in [`Detection::faults`] and the verdict.
pub fn detect_with_cancel<P>(
    program: &P,
    user_inputs: &[P::Input],
    config: &OwlConfig,
    cancel: Option<&CancelToken>,
) -> Result<Detection<P::Input>, DetectError>
where
    P: TracedProgram + Sync,
    P::Input: Send + Sync,
{
    if user_inputs.is_empty() {
        return Err(DetectError::NoInputs);
    }
    let started = Instant::now();
    // The effective token: the caller's, tightened by the config deadline.
    // A deadline with no caller token gets a fresh token to hang off.
    let cancel = match (cancel, config.budget.deadline) {
        (Some(t), Some(d)) => Some(t.deadline_in(d)),
        (Some(t), None) => Some(t.clone()),
        (None, Some(d)) => Some(CancelToken::new().deadline_in(d)),
        (None, None) => None,
    };
    let pipeline = Pipeline {
        program,
        config,
        recorder: Recorder {
            budget: config.budget,
            cancel,
            retry: config.retry,
            ..Recorder::default()
        },
        workers: config.parallelism.max(1),
    };
    let mut ledger = Ledger::default();
    let filter = pipeline.filter_user_inputs(user_inputs, &mut ledger);
    // Filtering settles the detection when no class is left (every input
    // quarantined) or a single one (the paper stops there).
    let settled = filter.classes.is_empty() || (filter.single_class() && !config.force_analysis);
    let analysis = (!settled).then(|| {
        let evidence = pipeline.collect_evidence(&filter, &mut ledger);
        pipeline.analyse(&evidence, &mut ledger)
    });
    Ok(ledger.finish(filter, analysis, started))
}

/// The read-only side of one detection: the program, its configuration,
/// the recorder every run goes through, and the worker count.
struct Pipeline<'a, P> {
    program: &'a P,
    config: &'a OwlConfig,
    recorder: Recorder,
    workers: usize,
}

impl<P> Pipeline<'_, P>
where
    P: TracedProgram + Sync,
    P::Input: Send + Sync,
{
    /// The first-attempt identity of run `run_index` in `stream`.
    fn spec(&self, stream: u64, run_index: usize) -> RunSpec {
        RunSpec {
            warp_size: self.config.warp_size,
            aslr_seed: self.config.aslr_seed,
            stream,
            run_index: run_index as u64,
            attempt: 0,
        }
    }

    fn token(&self) -> Option<&CancelToken> {
        self.recorder.cancel.as_ref()
    }

    /// Phases 1 and 2: records one trace per user input (fanned out) and
    /// files each one, in input order, under its class as it lands — only
    /// one trace per class is kept. Counters merge in input order; u64
    /// addition commutes, so the totals match the serial run. Failed inputs
    /// are quarantined in input order and excluded from filtering — their
    /// loss blocks any clean verdict.
    fn filter_user_inputs(
        &self,
        user_inputs: &[P::Input],
        ledger: &mut Ledger,
    ) -> FilterOutcome<P::Input> {
        let started = Instant::now();
        let mut filter = ClassFilter::default();
        let (mut kept, mut trace_bytes) = (0usize, 0usize);
        parallel_fold(
            self.workers,
            user_inputs.len(),
            self.token(),
            |i| {
                self.recorder
                    .record(self.program, &user_inputs[i], &self.spec(STREAM_USER, i))
            },
            |i, slot| {
                let context = run_context(DetectPhase::TraceCollection, None, STREAM_USER, i);
                if let Some((trace, run_counters)) = settle(
                    slot.unwrap_or_else(lost_item),
                    context,
                    &mut ledger.fault_counters.trace_collection,
                    &mut ledger.faults,
                ) {
                    ledger.counters.merge(&run_counters);
                    kept += 1;
                    trace_bytes += trace.size_bytes();
                    filter.push(&user_inputs[i], trace);
                }
            },
        );
        ledger.stats.trace_bytes = trace_bytes / kept.max(1);
        ledger.lost |= kept < user_inputs.len();
        let filter = filter.finish();
        ledger.stats.trace_collection_time = started.elapsed();
        ledger
            .spans
            .record("trace_collection", ledger.stats.trace_collection_time);
        filter
    }

    /// Phase 3, evidence: one work item per run chunk, for the shared
    /// random evidence and every class's fixed evidence alike. Workers
    /// fold their chunk into a partial [`Evidence`], and each partial
    /// merges into its set in chunk order as soon as every earlier chunk
    /// has, so only a fixed window of partials is ever resident. Then the
    /// evidence budget and the per-set quorum are checked.
    fn collect_evidence(
        &self,
        filter: &FilterOutcome<P::Input>,
        ledger: &mut Ledger,
    ) -> EvidenceSets {
        let config = self.config;
        let started = Instant::now();
        let classes = filter.classes.len();
        let plan = EvidencePlan::new(config.runs, classes);
        let evidence_workers = self.workers.min(plan.items).max(1);
        let mut rnd = Evidence::default();
        let mut rnd_kept = 0usize;
        let mut fixes = vec![Evidence::default(); classes];
        let mut fix_kept = vec![0usize; classes];
        parallel_fold(
            evidence_workers,
            plan.items,
            self.token(),
            |i| self.record_chunk(&plan.item(i), filter),
            |i, slot| {
                let item = plan.item(i);
                match slot {
                    Ok(chunk) => {
                        ledger.stats.evidence_cpu_time += chunk.elapsed;
                        ledger.counters.merge(&chunk.counters);
                        ledger.fault_counters.evidence.merge(&chunk.fault_counters);
                        ledger.faults.extend(chunk.faults);
                        let (set, kept) = match item.class {
                            None => (&mut rnd, &mut rnd_kept),
                            Some(c) => (&mut fixes[c], &mut fix_kept[c]),
                        };
                        set.merge(chunk.partial);
                        *kept += chunk.kept;
                    }
                    Err(error) => {
                        // The recorder catches program panics, so losing a
                        // whole chunk is a bookkeeping bug — quarantine every
                        // run in it deterministically rather than abort.
                        let lost = (item.end - item.start) as u64;
                        let counters = &mut ledger.fault_counters.evidence;
                        counters.panics += 1;
                        counters.failed_attempts += lost;
                        counters.quarantined += lost;
                        let context =
                            run_context(DetectPhase::Evidence, item.class, item.stream, item.start);
                        ledger.faults.push(FaultRecord {
                            context,
                            attempts: 1,
                            error,
                        });
                    }
                }
            },
        );
        ledger.stats.evidence_time = started.elapsed();
        ledger.spans.record("evidence", ledger.stats.evidence_time);
        ledger.stats.evidence_traces = config.runs.saturating_mul(1 + classes);
        ledger.stats.evidence_workers = evidence_workers;
        ledger.stats.peak_evidence_bytes =
            rnd.size_bytes() + fixes.iter().map(Evidence::size_bytes).max().unwrap_or(0);

        // Evidence-footprint budget: the *total* merged evidence this
        // detection holds. Checked on the main thread after the merge, so
        // the outcome is a pure function of `(program, inputs, config)` —
        // the deterministic-budget contract. The evidence is kept (it was
        // already paid for and may prove a leak); the overrun is recorded
        // as a fault and blocks any clean verdict.
        let evidence_bytes =
            rnd.size_bytes() + fixes.iter().map(Evidence::size_bytes).sum::<usize>();
        if let Err(error) = config.budget.check_evidence(evidence_bytes) {
            ledger.lost = true;
            ledger.fault_counters.evidence.budget_exhausted += 1;
            ledger.faults.push(FaultRecord {
                context: run_context(DetectPhase::Evidence, None, STREAM_RND, 0),
                attempts: 1,
                error,
            });
        }

        // Quorum: a distribution test is only trusted when both of its
        // sides kept enough runs. Shortfalls skip the affected tests
        // (never fake them) and block any clean verdict.
        let quorum = config.quorum();
        let quorate: Vec<bool> = fix_kept
            .iter()
            .map(|&kept| rnd_kept >= quorum && kept >= quorum)
            .collect();
        ledger.lost |= quorate.contains(&false);
        EvidenceSets {
            rnd,
            fixes,
            quorate,
        }
    }

    /// Records one evidence chunk. Runs that exhaust their retries are
    /// quarantined inside the chunk; the chunk still yields the rest.
    fn record_chunk(&self, item: &EvidenceItem, filter: &FilterOutcome<P::Input>) -> ChunkOutcome {
        let config = self.config;
        let started = Instant::now();
        let mut outcome = ChunkOutcome::default();
        // With ASLR off and a host audited pure (`deterministic_host`), a
        // fixed-class run is a pure function of `(program, input)` —
        // `run_index` only feeds the layout seed — so every run of this
        // item produces a bit-identical trace and counters. Record once and
        // replicate exactly instead of re-recording `n` identical runs.
        // Impure hosts (e.g. a per-run nonce) must keep re-recording: their
        // fixed-run noise has to reach the evidence so the differential
        // test can dismiss it.
        if let (Some(c), None, true) = (
            item.class,
            config.aslr_seed,
            self.program.deterministic_host(),
        ) {
            let input = &filter.classes[c].representative;
            let attempt =
                self.recorder
                    .record(self.program, input, &self.spec(item.stream, item.start));
            // A failed probe falls through to the per-run loop: each run
            // then earns its own retries and its own quarantine record,
            // exactly as an impure host would. The probe's attempts are not
            // counted — the per-run loop re-derives the failure. A
            // successful probe records once for the whole chunk, so its
            // retry accounting folds exactly once (not per replica).
            if attempt.result.is_ok() {
                attempt.count_into(&mut outcome.fault_counters);
            }
            if let Ok((trace, run_counters)) = attempt.result {
                let n = item.end - item.start;
                for _ in 0..n {
                    outcome.counters.merge(&run_counters);
                }
                outcome.partial.merge_trace_repeated(trace, n as u64);
                outcome.kept = n;
                outcome.elapsed = started.elapsed();
                return outcome;
            }
        }
        for run in item.start..item.end {
            let random_input;
            let input = match item.class {
                None => {
                    random_input = self
                        .program
                        .random_input(config.seed.wrapping_add(run as u64));
                    &random_input
                }
                Some(c) => &filter.classes[c].representative,
            };
            let attempt = self
                .recorder
                .record(self.program, input, &self.spec(item.stream, run));
            let context = run_context(DetectPhase::Evidence, item.class, item.stream, run);
            if let Some((trace, run_counters)) = settle(
                attempt,
                context,
                &mut outcome.fault_counters,
                &mut outcome.faults,
            ) {
                outcome.counters.merge(&run_counters);
                outcome.partial.merge_trace(trace);
                outcome.kept += 1;
            }
        }
        outcome.elapsed = started.elapsed();
        outcome
    }

    /// Phase 3, analysis: one distribution test per class, fanned out and
    /// merged in class order. In comparison mode every engine analyses the
    /// same evidence; the per-engine reports merge engine-wise in class
    /// order, the primary report is the configured engine's, and the
    /// agreement table is derived from the merged per-engine reports.
    fn analyse(&self, evidence: &EvidenceSets, ledger: &mut Ledger) -> Analysis {
        let config = self.config;
        let started = Instant::now();
        let classes = evidence.fixes.len();
        let engines: &[Engine] = if config.compare_engines {
            &Engine::ALL
        } else {
            std::slice::from_ref(&config.method)
        };
        let mut merged: Vec<(Engine, LeakReport)> = engines
            .iter()
            .map(|&engine| (engine, LeakReport::default()))
            .collect();
        let mut fold = |c: usize, slot: Result<Option<Vec<LeakReport>>, DetectError>| match slot {
            Ok(Some(reports)) => {
                for ((_, acc), report) in merged.iter_mut().zip(&reports) {
                    acc.merge(report);
                }
            }
            Ok(None) => {} // below quorum — already marked lost
            Err(error) => {
                ledger.lost = true;
                let context = run_context(DetectPhase::Analysis, Some(c), fix_stream(c), 0);
                let counters = &mut ledger.fault_counters.analysis;
                settle(lost_item(error), context, counters, &mut ledger.faults);
            }
        };
        // Cancellation is snapshotted once: either the whole analysis runs
        // or none of it does, so a deadline racing the fan-out cannot yield
        // a report built from an unpredictable subset of classes.
        let cancelled = self.token().is_some_and(CancelToken::is_cancelled);
        if cancelled {
            for c in 0..classes {
                fold(c, Err(DetectError::Cancelled));
            }
        } else {
            parallel_fold(
                self.workers,
                classes,
                self.token(),
                |c| {
                    evidence.quorate[c].then(|| {
                        engines
                            .iter()
                            .map(|&method| {
                                let analysis = AnalysisConfig {
                                    alpha: config.alpha,
                                    method,
                                };
                                leakage_test(&evidence.fixes[c], &evidence.rnd, &analysis)
                            })
                            .collect::<Vec<_>>()
                    })
                },
                fold,
            );
        }
        ledger.stats.test_time = started.elapsed();
        ledger.spans.record("analysis", ledger.stats.test_time);
        Analysis {
            // A cancelled analysis compared nothing, so it has no table.
            engine_comparison: (config.compare_engines && !cancelled)
                .then(|| EngineComparison::from_reports(&merged)),
            report: merged
                .into_iter()
                .find_map(|(engine, report)| (engine == config.method).then_some(report))
                .unwrap_or_default(),
        }
    }
}

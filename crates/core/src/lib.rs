//! # Owl — differential side-channel leakage detection for GPU programs
//!
//! A reproduction of *"Owl: Differential-based Side-Channel Leakage
//! Detection for CUDA Applications"* (DSN 2024) on top of the `owl-gpu`
//! SIMT simulator and the `owl-host` runtime.
//!
//! The detector runs in the paper's three phases:
//!
//! 1. **Trace recording** ([`record`]): the program under test (a
//!    [`TracedProgram`]) runs under instrumentation through a
//!    [`Recorder`]; each kernel launch is reconstructed into an A-DCFG,
//!    and host allocations/launches are recorded with call-site identity.
//! 2. **Duplicates removing** ([`filter`]): user inputs whose traces are
//!    identical collapse into classes; a single class means no observable
//!    input dependence.
//! 3. **Leakage analysis** ([`analysis`]): repeated fixed-input and
//!    random-input executions are merged into evidence ([`evidence`]) and
//!    compared feature-by-feature by the configured [`engine`] (the
//!    paper's two-sample KS test by default; TVLA and mutual-information
//!    engines are selectable, and a comparison mode cross-checks all
//!    three);
//!    failures are located as kernel, device control-flow, or device
//!    data-flow leaks ([`report`]).
//!
//! # Example
//!
//! ```
//! use owl_core::{detect, OwlConfig, TracedProgram, Verdict};
//! use owl_gpu::build::KernelBuilder;
//! use owl_gpu::grid::LaunchConfig;
//! use owl_gpu::isa::{MemWidth, SpecialReg};
//! use owl_host::{Device, HostError};
//!
//! /// A toy "crypto" kernel that indexes a table with the secret — the
//! /// classic leaky pattern.
//! struct TableLookup(owl_gpu::KernelProgram);
//!
//! impl TableLookup {
//!     fn new() -> Self {
//!         let b = KernelBuilder::new("lookup");
//!         let table = b.param(0);
//!         let out = b.param(1);
//!         let secret = b.param(2);
//!         let tid = b.special(SpecialReg::GlobalTid);
//!         let idx = b.rem(b.add(secret, tid), 64u64);
//!         let v = b.load_global(b.add(table, b.mul(idx, 8u64)), MemWidth::B8);
//!         b.store_global(b.add(out, b.mul(tid, 8u64)), v, MemWidth::B8);
//!         Self(b.finish())
//!     }
//! }
//!
//! impl TracedProgram for TableLookup {
//!     type Input = u64;
//!     fn name(&self) -> &str { "table-lookup" }
//!     fn run(&self, dev: &mut Device, secret: &u64) -> Result<(), HostError> {
//!         let table = dev.malloc(8 * 64);
//!         let out = dev.malloc(8 * 32);
//!         dev.launch(&self.0, LaunchConfig::new(1u32, 32u32),
//!                    &[table.addr(), out.addr(), *secret])?;
//!         Ok(())
//!     }
//!     fn random_input(&self, seed: u64) -> u64 {
//!         seed.wrapping_mul(0x9e3779b97f4a7c15)
//!     }
//! }
//!
//! let program = TableLookup::new();
//! let detection = detect(
//!     &program,
//!     &[0, 1, 17, 40],
//!     &OwlConfig { runs: 40, ..OwlConfig::default() },
//! )?;
//! assert_eq!(detection.verdict, Verdict::Leaky);
//! assert!(detection.report.count(owl_core::LeakKind::DataFlow) >= 1);
//! # Ok::<(), owl_core::DetectError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod engine;
pub mod error;
pub mod evidence;
pub mod fault;
pub mod filter;
pub mod govern;
pub mod inject;
pub mod owl;
mod parallel;
pub mod program;
pub mod record;
pub mod report;
pub mod summary;
pub mod trace;
pub mod tracer;

pub use analysis::{leakage_test, AnalysisConfig};
pub use engine::{Engine, EngineComparison, EngineOutcome, EngineRow, EngineVerdict};
pub use error::{DetectError, DetectPhase, RunContext};
pub use evidence::Evidence;
pub use fault::{FaultLog, FaultRecord, RetryPolicy, RunAttempt};
pub use filter::{filter_traces, FilterOutcome, InputClass};
pub use govern::{CancelToken, ResourceBudget, ResourceKind};
pub use inject::{ExecFaultKind, FaultPlan, FaultRule, FaultyProgram, InjectedFault};
pub use owl::{
    detect, detect_with_cancel, fix_stream, ConfigError, Detection, OwlConfig, OwlConfigBuilder,
    PhaseStats, Verdict, STREAM_RND, STREAM_USER,
};
pub use owl_metrics::{
    FaultCounters, PhaseFaultCounters, PhaseSpan, SimCounters, Spans, SCHEMA_VERSION,
};
pub use program::TracedProgram;
pub use record::{record_run_metered, Recorder, RunSpec};
pub use report::{Leak, LeakKind, LeakLocation, LeakReport};
pub use summary::{verdict_name, BudgetUtilization, DetectionSummary, MetricsReport, PhaseStatsMs};
pub use trace::{InvocationKey, KernelInvocation, MallocRecord, ProgramTrace};
pub use tracer::OwlTracer;

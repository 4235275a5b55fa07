//! Detector errors, with the run context that locates a failure.

use crate::govern::ResourceKind;
use owl_host::HostError;

/// The detector phase a run belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DetectPhase {
    /// Phase 1 — one recording per user input.
    TraceCollection,
    /// Phase 3 — fixed/random evidence recording.
    Evidence,
    /// The distribution tests (no program code runs here; only worker
    /// panics can occur).
    Analysis,
}

impl DetectPhase {
    /// The phase's stable machine-readable name (matches the span names
    /// the detector records).
    pub fn name(self) -> &'static str {
        match self {
            DetectPhase::TraceCollection => "trace_collection",
            DetectPhase::Evidence => "evidence",
            DetectPhase::Analysis => "analysis",
        }
    }
}

impl std::fmt::Display for DetectPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Where a failed run sat in the detection: which phase, which recording
/// stream and which run — everything needed to name the failure and to
/// reproduce it (runs are pure functions of their
/// [`RunSpec`](crate::record::RunSpec)). The retry attempt that lost lives
/// in the [`FaultRecord`](crate::fault::FaultRecord) holding the context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunContext {
    /// The detector phase.
    pub phase: DetectPhase,
    /// The evidence class the run recorded for (`None` for phase-1 runs
    /// and the shared random evidence).
    pub class: Option<usize>,
    /// The recording stream.
    pub stream: u64,
    /// The run's index within its stream.
    pub run_index: u64,
}

impl std::fmt::Display for RunContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "phase {}, stream {}, run {}",
            self.phase, self.stream, self.run_index
        )?;
        if let Some(class) = self.class {
            write!(f, ", class {class}")?;
        }
        Ok(())
    }
}

/// An error raised while recording traces or running detection.
#[derive(Debug, Clone, PartialEq)]
pub enum DetectError {
    /// The program under test failed.
    Host(HostError),
    /// The number of device-side kernel graphs did not match the number of
    /// host-side launch events — the instrumentation contract was violated.
    TraceMismatch {
        /// Host-side launch count.
        launches: usize,
        /// Device-side graph count.
        graphs: usize,
    },
    /// Detection was asked to run with no user inputs.
    NoInputs,
    /// A worker panicked; the unwind was caught at the work-item boundary
    /// and converted into this typed, deterministic failure instead of
    /// aborting the fan-out.
    WorkerPanic {
        /// The panic payload, rendered (`&str`/`String` payloads verbatim,
        /// anything else a fixed placeholder).
        message: String,
    },
    /// A configured resource budget was exceeded. Deterministic budgets
    /// (instructions, memory events, allocations, evidence bytes) fire
    /// identically at every parallelism level.
    BudgetExhausted {
        /// Which resource ran out.
        resource: ResourceKind,
        /// How much was consumed when the budget tripped.
        used: u64,
        /// The configured limit.
        limit: u64,
    },
    /// The run was cancelled before or during execution — by the caller's
    /// [`CancelToken`](crate::govern::CancelToken) or an expired wall-clock
    /// deadline. Cancellation always drops *whole* runs, so surviving
    /// evidence stays deterministic.
    Cancelled,
}

impl DetectError {
    /// A stable snake_case tag naming the failure, drilling through the
    /// host/exec layers — the key fault logs and retry classifiers switch
    /// on.
    pub fn kind(&self) -> &'static str {
        use owl_gpu::ExecError;
        match self {
            DetectError::Host(HostError::Memcpy(_)) => "host_memcpy",
            DetectError::Host(HostError::InvalidFree { .. }) => "host_invalid_free",
            DetectError::Host(HostError::Launch(e)) => match e {
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
            },
            DetectError::TraceMismatch { .. } => "trace_mismatch",
            DetectError::NoInputs => "no_inputs",
            DetectError::WorkerPanic { .. } => "worker_panic",
            DetectError::BudgetExhausted { .. } => "budget_exhausted",
            DetectError::Cancelled => "cancelled",
        }
    }
}

impl std::fmt::Display for DetectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetectError::Host(e) => write!(f, "program under test failed: {e}"),
            DetectError::TraceMismatch { launches, graphs } => write!(
                f,
                "instrumentation mismatch: {launches} host launches vs {graphs} device graphs"
            ),
            DetectError::NoInputs => write!(f, "detection requires at least one user input"),
            DetectError::WorkerPanic { message } => write!(f, "worker panicked: {message}"),
            DetectError::BudgetExhausted {
                resource,
                used,
                limit,
            } => write!(
                f,
                "resource budget exhausted: {used} {resource} used, limit {limit}"
            ),
            DetectError::Cancelled => {
                write!(f, "run cancelled (caller cancellation or deadline)")
            }
        }
    }
}

impl std::error::Error for DetectError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DetectError::Host(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HostError> for DetectError {
    fn from(e: HostError) -> Self {
        DetectError::Host(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_gpu::ExecError;

    #[test]
    fn kinds_are_stable_and_drill_through_layers() {
        let launch = |e| DetectError::Host(HostError::Launch(e));
        assert_eq!(
            launch(ExecError::FuelExhausted).kind(),
            "exec_fuel_exhausted"
        );
        assert_eq!(
            launch(ExecError::BarrierDeadlock).kind(),
            "exec_barrier_deadlock"
        );
        assert_eq!(
            DetectError::TraceMismatch {
                launches: 2,
                graphs: 1
            }
            .kind(),
            "trace_mismatch"
        );
        assert_eq!(
            DetectError::WorkerPanic {
                message: "boom".into()
            }
            .kind(),
            "worker_panic"
        );
        assert_eq!(DetectError::NoInputs.kind(), "no_inputs");
        assert_eq!(launch(ExecError::Cancelled).kind(), "exec_cancelled");
        assert_eq!(DetectError::Cancelled.kind(), "cancelled");
        assert_eq!(
            DetectError::BudgetExhausted {
                resource: ResourceKind::MemEvents,
                used: 11,
                limit: 10,
            }
            .kind(),
            "budget_exhausted"
        );
    }

    #[test]
    fn governance_errors_render_the_resource() {
        let e = DetectError::BudgetExhausted {
            resource: ResourceKind::EvidenceBytes,
            used: 2048,
            limit: 1024,
        };
        let text = e.to_string();
        assert!(text.contains("evidence_bytes"), "{text}");
        assert!(text.contains("2048"), "{text}");
        assert!(text.contains("limit 1024"), "{text}");
        assert!(DetectError::Cancelled.to_string().contains("cancelled"));
    }
}

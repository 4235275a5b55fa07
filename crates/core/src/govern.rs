//! Resource governance: deterministic budgets and wall-clock deadlines
//! for detections.
//!
//! A [`ResourceBudget`] bounds what one `detect()` call may consume along
//! four axes — instructions per launch (the gpu-sim fuel budget surfaced
//! through the detector API), memory events and allocations per run,
//! evidence bytes per detection — plus a wall-clock deadline. The first
//! three are *deterministic*: whether they fire is a pure function of
//! `(program, inputs, config)`, so budget-exhausted detections keep the
//! parallelism byte-identity contract. The deadline is inherently
//! wall-clock and only ever cancels *whole* runs (a run either completes
//! untouched or is quarantined entirely), so the surviving evidence stays
//! deterministic even when the set of cancelled runs is not.
//!
//! Exhaustion never aborts a detection: it surfaces as typed faults
//! ([`DetectError::BudgetExhausted`], [`DetectError::Cancelled`]) that
//! flow through the same retry/quarantine machinery as execution faults,
//! degrading the verdict to `Inconclusive` when too much was lost — never
//! a silent clean result.

use crate::error::DetectError;
use std::time::Duration;

pub use owl_gpu::cancel::CancelToken;

/// The resource a budget bounds (and names in exhaustion faults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceKind {
    /// Per-launch instruction budget (the simulator's fuel).
    Instructions,
    /// Per-run memory-access events.
    MemEvents,
    /// Per-run device allocations.
    Allocations,
    /// Per-detection merged evidence footprint in bytes.
    EvidenceBytes,
    /// The wall-clock deadline of the whole detection.
    Deadline,
}

impl ResourceKind {
    /// Stable snake_case name, used in error messages and serialized
    /// fault records.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ResourceKind::Instructions => "instructions",
            ResourceKind::MemEvents => "mem_events",
            ResourceKind::Allocations => "allocations",
            ResourceKind::EvidenceBytes => "evidence_bytes",
            ResourceKind::Deadline => "deadline",
        }
    }
}

impl std::fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Resource bounds for one detection. See the [module docs](self) for the
/// determinism split between the first three budgets and the deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceBudget {
    /// Instruction budget per kernel launch (the simulator fuel). Always
    /// finite — the default is gpu-sim's generous
    /// [`DEFAULT_FUEL`](owl_gpu::exec::DEFAULT_FUEL) runaway guard.
    pub max_instructions: u64,
    /// Memory-access events one recorded run may produce (`None` =
    /// unbounded). Checked after the run completes; each launch is already
    /// bounded by `max_instructions`, so the check itself is bounded.
    pub max_mem_events: Option<u64>,
    /// Device allocations one recorded run may perform (`None` =
    /// unbounded).
    pub max_allocations: Option<u64>,
    /// Total merged evidence footprint one detection may hold, in bytes
    /// (`None` = unbounded). Checked deterministically after the chunk
    /// merge, on the main thread.
    pub max_evidence_bytes: Option<usize>,
    /// Wall-clock deadline for the whole detection (`None` = unbounded).
    /// When it expires, in-flight and queued runs are cancelled *whole*
    /// and quarantined; completed evidence is kept and quorum-evaluated.
    pub deadline: Option<Duration>,
}

impl ResourceBudget {
    /// The default budget as a `const` (usable in statics): default fuel,
    /// everything else unbounded.
    pub const DEFAULT: ResourceBudget = ResourceBudget {
        max_instructions: owl_gpu::exec::DEFAULT_FUEL,
        max_mem_events: None,
        max_allocations: None,
        max_evidence_bytes: None,
        deadline: None,
    };

    /// Checks one completed run against the per-run budgets.
    ///
    /// # Errors
    ///
    /// [`DetectError::BudgetExhausted`] naming the first exceeded
    /// resource.
    pub fn check_run(&self, mem_events: u64, allocations: u64) -> Result<(), DetectError> {
        if let Some(limit) = self.max_mem_events {
            if mem_events > limit {
                return Err(DetectError::BudgetExhausted {
                    resource: ResourceKind::MemEvents,
                    used: mem_events,
                    limit,
                });
            }
        }
        if let Some(limit) = self.max_allocations {
            if allocations > limit {
                return Err(DetectError::BudgetExhausted {
                    resource: ResourceKind::Allocations,
                    used: allocations,
                    limit,
                });
            }
        }
        Ok(())
    }

    /// Checks the merged evidence footprint against
    /// [`max_evidence_bytes`](Self::max_evidence_bytes).
    ///
    /// # Errors
    ///
    /// [`DetectError::BudgetExhausted`] for [`ResourceKind::EvidenceBytes`].
    pub fn check_evidence(&self, bytes: usize) -> Result<(), DetectError> {
        if let Some(limit) = self.max_evidence_bytes {
            if bytes > limit {
                return Err(DetectError::BudgetExhausted {
                    resource: ResourceKind::EvidenceBytes,
                    used: bytes as u64,
                    limit: limit as u64,
                });
            }
        }
        Ok(())
    }
}

impl Default for ResourceBudget {
    fn default() -> Self {
        ResourceBudget::DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_fuel_only() {
        let budget = ResourceBudget::default();
        assert_eq!(budget.max_instructions, owl_gpu::exec::DEFAULT_FUEL);
        assert_eq!(budget.max_mem_events, None);
        assert_eq!(budget.max_allocations, None);
        assert_eq!(budget.max_evidence_bytes, None);
        assert_eq!(budget.deadline, None);
    }

    #[test]
    fn check_run_flags_the_first_exceeded_resource() {
        let budget = ResourceBudget {
            max_mem_events: Some(10),
            max_allocations: Some(2),
            ..ResourceBudget::default()
        };
        assert!(budget.check_run(10, 2).is_ok(), "limits are inclusive");
        match budget.check_run(11, 0) {
            Err(DetectError::BudgetExhausted {
                resource: ResourceKind::MemEvents,
                used: 11,
                limit: 10,
            }) => {}
            other => panic!("expected mem-event exhaustion, got {other:?}"),
        }
        match budget.check_run(0, 3) {
            Err(DetectError::BudgetExhausted {
                resource: ResourceKind::Allocations,
                used: 3,
                limit: 2,
            }) => {}
            other => panic!("expected allocation exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn check_evidence_compares_bytes() {
        let budget = ResourceBudget {
            max_evidence_bytes: Some(100),
            ..ResourceBudget::default()
        };
        assert!(budget.check_evidence(100).is_ok());
        match budget.check_evidence(101) {
            Err(DetectError::BudgetExhausted {
                resource: ResourceKind::EvidenceBytes,
                used: 101,
                limit: 100,
            }) => {}
            other => panic!("expected evidence exhaustion, got {other:?}"),
        }
    }
}

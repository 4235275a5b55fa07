//! Fault tolerance for the recording pipeline: deterministic retry,
//! quarantine, and the typed fault log.
//!
//! Real targets crash, deadlock, and time out mid-campaign; the detector's
//! job is to survive them and *account for* them. Two pieces live here:
//!
//! * [`RetryPolicy`] — the attempt budget of the bounded, deterministic
//!   retry loop that [`Recorder::record`](crate::record::Recorder::record)
//!   runs around every recording. The retry attempt is folded into the
//!   run's [`RunSpec`](crate::record::RunSpec) (it feeds the ASLR layout
//!   seed), so a retried run is still a pure function of
//!   `(program, input, spec)` and the bit-identical determinism contract
//!   holds for every `parallelism` setting. Panics inside an attempt are
//!   caught and become [`DetectError::WorkerPanic`], so a crashing program
//!   can never abort the detection or poison the fan-out; the loop's
//!   outcome is a [`RunAttempt`].
//! * [`FaultRecord`] / [`FaultLog`] — runs that exhaust their retries are
//!   *quarantined*: excluded from the evidence with a typed, serializable
//!   record of what failed where. The log is deterministic — records
//!   appear in run order, never in completion order.

use crate::error::{DetectError, RunContext};
use crate::trace::ProgramTrace;
use owl_metrics::{PhaseFaultCounters, SimCounters};
use serde::ser::Serialize;
use serde::Value;

/// Bounded retry for failed recordings.
///
/// Attempt `k` of a run records with `RunSpec { attempt: k, .. }`; since
/// the layout seed mixes the attempt in, retries are pure functions of
/// their spec and the detector stays bit-identical across worker counts.
/// Cancelled and budget-exhausted runs are never retried: they would fail
/// identically on every attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per run, the first try included (`1` = no retries).
    /// Clamped to at least 1.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3 }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt per run).
    pub fn no_retries() -> Self {
        RetryPolicy::with_max_attempts(1)
    }

    /// A policy with the given attempt budget.
    pub fn with_max_attempts(max_attempts: u32) -> Self {
        RetryPolicy { max_attempts }
    }
}

/// The outcome of one run driven through the retry loop of
/// [`Recorder::record`](crate::record::Recorder::record).
#[derive(Debug)]
pub struct RunAttempt {
    /// The recorded trace and its execution counters, or the error of the
    /// last (losing) attempt.
    pub result: Result<(ProgramTrace, SimCounters), DetectError>,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// How many of those attempts ended in a caught panic.
    pub panics: u32,
}

impl RunAttempt {
    /// Folds this run's outcome into a phase's fault counters. Quarantines
    /// caused by resource governance are additionally tallied into the
    /// `budget_exhausted` / `cancelled` counters (keyed on the error's
    /// stable kind, so both detector-level and simulator-level exhaustion
    /// count).
    pub fn count_into(&self, counters: &mut PhaseFaultCounters) {
        let failed = match self.result {
            Ok(_) => self.attempts - 1,
            Err(_) => self.attempts,
        };
        counters.failed_attempts += u64::from(failed);
        counters.retried += u64::from(self.attempts.saturating_sub(1));
        counters.panics += u64::from(self.panics);
        if let Err(error) = &self.result {
            counters.quarantined += 1;
            match error.kind() {
                "budget_exhausted" | "exec_fuel_exhausted" => counters.budget_exhausted += 1,
                "cancelled" | "exec_cancelled" => counters.cancelled += 1,
                _ => {}
            }
        }
    }
}

/// Renders a caught panic payload (`&str` and `String` payloads verbatim).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// One quarantined run: its identity, how many attempts it consumed, and
/// the error of the last attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// The failed run (the `attempt` field is the last, losing attempt).
    pub context: RunContext,
    /// Attempts consumed before quarantine.
    pub attempts: u32,
    /// The last attempt's error.
    pub error: DetectError,
}

impl FaultRecord {
    /// The failure as a contextual [`DetectError`] (for error reporting).
    pub fn to_error(&self) -> DetectError {
        self.error.clone().with_context(self.context)
    }
}

impl Serialize for FaultRecord {
    /// `{phase, class, stream, run_index, attempts, error_kind, error}` —
    /// the error rendered as its stable kind tag plus a human-readable
    /// message (the typed error stays available in memory).
    fn to_value(&self) -> Value {
        let key = |s: &str| Value::Str(s.to_string());
        Value::Map(vec![
            (key("phase"), Value::Str(self.context.phase.name().into())),
            (
                key("class"),
                match self.context.class {
                    Some(c) => Value::Int(c as i128),
                    None => Value::Null,
                },
            ),
            (key("stream"), Value::Int(i128::from(self.context.stream))),
            (
                key("run_index"),
                Value::Int(i128::from(self.context.run_index)),
            ),
            (key("attempts"), Value::Int(i128::from(self.attempts))),
            (key("error_kind"), Value::Str(self.error.kind().into())),
            (key("error"), Value::Str(self.error.to_string())),
        ])
    }
}

/// The quarantine log of one detection: every run that exhausted its
/// retries, in deterministic run order (phase 1 inputs first, then
/// evidence items in chunk order, then analysis classes).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultLog {
    records: Vec<FaultRecord>,
}

impl FaultLog {
    /// An empty log.
    pub fn new() -> Self {
        FaultLog::default()
    }

    /// Appends a quarantined run.
    pub fn push(&mut self, record: FaultRecord) {
        self.records.push(record);
    }

    /// Appends every record of `other`, preserving order.
    pub fn extend(&mut self, other: FaultLog) {
        self.records.extend(other.records);
    }

    /// The quarantined runs, in run order.
    pub fn records(&self) -> &[FaultRecord] {
        &self.records
    }

    /// Number of quarantined runs.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing was quarantined.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates the quarantined runs in run order.
    pub fn iter(&self) -> std::slice::Iter<'_, FaultRecord> {
        self.records.iter()
    }
}

impl Serialize for FaultLog {
    /// A flat JSON array of records (see [`FaultRecord`]'s format).
    fn to_value(&self) -> Value {
        Value::Seq(self.records.iter().map(Serialize::to_value).collect())
    }
}

impl<'a> IntoIterator for &'a FaultLog {
    type Item = &'a FaultRecord;
    type IntoIter = std::slice::Iter<'a, FaultRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DetectPhase;

    #[test]
    fn count_into_tallies_governance_quarantines() {
        use crate::govern::ResourceKind;
        let mut counters = PhaseFaultCounters::default();
        RunAttempt {
            result: Err(DetectError::BudgetExhausted {
                resource: ResourceKind::Allocations,
                used: 9,
                limit: 4,
            }),
            attempts: 1,
            panics: 0,
        }
        .count_into(&mut counters);
        RunAttempt {
            result: Err(DetectError::Cancelled),
            attempts: 1,
            panics: 0,
        }
        .count_into(&mut counters);
        // Simulator-level exhaustion/cancellation counts too.
        RunAttempt {
            result: Err(DetectError::Host(owl_host::HostError::Launch(
                owl_gpu::ExecError::FuelExhausted,
            ))),
            attempts: 1,
            panics: 0,
        }
        .count_into(&mut counters);
        RunAttempt {
            result: Err(DetectError::Host(owl_host::HostError::Launch(
                owl_gpu::ExecError::Cancelled,
            ))),
            attempts: 1,
            panics: 0,
        }
        .count_into(&mut counters);
        assert_eq!(counters.quarantined, 4);
        assert_eq!(counters.budget_exhausted, 2);
        assert_eq!(counters.cancelled, 2);
    }

    #[test]
    fn retry_policies_compare_and_copy() {
        let a = RetryPolicy::default();
        let b = a;
        assert_eq!(a, b);
        assert_eq!(RetryPolicy::no_retries().max_attempts, 1);
        assert_eq!(RetryPolicy::with_max_attempts(5).max_attempts, 5);
    }

    #[test]
    fn run_attempt_counts_fold_deterministically() {
        let mut counters = PhaseFaultCounters::default();
        // Succeeded on the third attempt, one of the failures a panic.
        RunAttempt {
            result: Ok((ProgramTrace::default(), SimCounters::default())),
            attempts: 3,
            panics: 1,
        }
        .count_into(&mut counters);
        assert_eq!(counters.failed_attempts, 2);
        assert_eq!(counters.retried, 2);
        assert_eq!(counters.panics, 1);
        assert_eq!(counters.quarantined, 0);
        // Quarantined after two attempts.
        RunAttempt {
            result: Err(DetectError::NoInputs),
            attempts: 2,
            panics: 0,
        }
        .count_into(&mut counters);
        assert_eq!(counters.failed_attempts, 4);
        assert_eq!(counters.retried, 3);
        assert_eq!(counters.quarantined, 1);
    }

    #[test]
    fn fault_log_serializes_records_in_order() {
        let mut log = FaultLog::new();
        log.push(FaultRecord {
            context: RunContext {
                phase: DetectPhase::Evidence,
                class: None,
                stream: 1,
                run_index: 3,
                attempt: 2,
            },
            attempts: 3,
            error: DetectError::WorkerPanic {
                message: "injected".into(),
            },
        });
        assert_eq!(log.len(), 1);
        let json = serde_json::to_string(&log).expect("json");
        assert!(json.contains("\"worker_panic\""), "{json}");
        assert!(json.contains("\"evidence\""), "{json}");
        assert!(json.contains("\"run_index\""), "{json}");
        let value: serde_json::Value = serde_json::from_str(&json).expect("parses");
        assert_eq!(value.as_seq().map(<[_]>::len), Some(1));
    }
}

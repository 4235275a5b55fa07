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
//! * [`FaultRecord`] — runs that exhaust their retries are *quarantined*:
//!   excluded from the evidence with a typed, serializable record of what
//!   failed where. A detection's fault log is a plain `Vec<FaultRecord>`
//!   in run order, never in completion order, so it is deterministic.

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
///
/// Renders as `run failed [<context>[, attempt k]]: <error>`, where `k` is
/// the last, losing attempt (shown only when the run was retried).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// The failed run.
    pub context: RunContext,
    /// Attempts consumed before quarantine.
    pub attempts: u32,
    /// The last attempt's error.
    pub error: DetectError,
}

impl std::fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "run failed [{}", self.context)?;
        if self.attempts > 1 {
            write!(f, ", attempt {}", self.attempts - 1)?;
        }
        write!(f, "]: {}", self.error)
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
    fn fault_record_renders_the_run_and_the_losing_attempt() {
        let record = FaultRecord {
            context: RunContext {
                phase: DetectPhase::Evidence,
                class: Some(2),
                stream: 4,
                run_index: 17,
            },
            attempts: 2,
            error: DetectError::Host(owl_host::HostError::Launch(
                owl_gpu::ExecError::FuelExhausted,
            )),
        };
        assert_eq!(
            record.to_string(),
            "run failed [phase evidence, stream 4, run 17, class 2, attempt 1]: \
             program under test failed: kernel launch failed: instruction budget exhausted"
        );
        // A first-try loss names no attempt.
        let first_try = FaultRecord {
            attempts: 1,
            ..record
        };
        assert_eq!(
            first_try.to_string(),
            "run failed [phase evidence, stream 4, run 17, class 2]: \
             program under test failed: kernel launch failed: instruction budget exhausted"
        );
    }

    #[test]
    fn fault_log_serializes_records_in_order() {
        let log = vec![FaultRecord {
            context: RunContext {
                phase: DetectPhase::Evidence,
                class: None,
                stream: 1,
                run_index: 3,
            },
            attempts: 3,
            error: DetectError::WorkerPanic {
                message: "injected".into(),
            },
        }];
        assert_eq!(log.len(), 1);
        let json = serde_json::to_string(&log).expect("json");
        assert!(json.contains("\"worker_panic\""), "{json}");
        assert!(json.contains("\"evidence\""), "{json}");
        assert!(json.contains("\"run_index\""), "{json}");
        let value: serde_json::Value = serde_json::from_str(&json).expect("parses");
        assert_eq!(value.as_seq().map(<[_]>::len), Some(1));
    }
}

//! Deterministic work fan-out for the recording and analysis phases.
//!
//! The detector's parallelism is deliberately simple: a scoped thread pool
//! pulling indices off an atomic counter, with results collected into
//! index-ordered slots. Determinism falls out of the structure — the work
//! function must be a pure function of its index, and the caller always
//! receives `[f(0), f(1), …]` regardless of worker count or scheduling.
//! (A `rayon` dependency would provide the same shape; the workspace
//! builds without network access, so the ~30 lines are written out.)
//!
//! Panics are isolated per work item: an unwind out of `f(i)` is caught
//! (`catch_unwind(AssertUnwindSafe(..))`) and surfaces as that item's
//! `Err(CaughtPanic)` result slot. No panic propagates across items, no
//! mutex is poisoned, and every other item still completes — the caller
//! decides, deterministically and by index order (first-index-wins), how
//! to report the failure. The inline `workers <= 1` path catches unwinds
//! identically, so panic behaviour is part of the bit-identical
//! determinism contract rather than an artifact of threading.

use crate::error::DetectError;
use crate::govern::CancelToken;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A panic caught at a work-item boundary, rendered for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CaughtPanic {
    /// The rendered panic payload.
    pub message: String,
}

impl From<CaughtPanic> for DetectError {
    fn from(panic: CaughtPanic) -> Self {
        DetectError::WorkerPanic {
            message: panic.message,
        }
    }
}

/// Applies `f` to every index in `0..n` on up to `workers` threads and
/// returns the results in index order, one `Result` per item: `Err` holds
/// the caught panic when `f(i)` unwound.
///
/// With `workers <= 1` or `n <= 1` everything runs inline on the calling
/// thread — the exact serial behaviour (including panic isolation), with
/// no threads spawned.
///
/// `cancel` makes the fan-out responsive to the detection's deadline:
/// once the token fires, workers stop claiming *new* indices and drain.
/// Every index still receives a value — after the threads join, unclaimed
/// slots are filled inline by calling `f(i)` on the caller's thread, which
/// is cheap because a cancel-aware `f` fast-fails on a fired token. The
/// fan-out therefore never changes *what* is computed for any index (the
/// determinism contract), only how promptly in-flight work is abandoned.
pub(crate) fn parallel_map<T, F>(
    workers: usize,
    n: usize,
    cancel: Option<&CancelToken>,
    f: F,
) -> Vec<Result<T, CaughtPanic>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let run_item = |i: usize| {
        catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|payload| CaughtPanic {
            message: crate::fault::panic_message(payload),
        })
    };
    if workers <= 1 || n <= 1 {
        return (0..n).map(run_item).collect();
    }
    let workers = workers.min(n);
    let slots: Vec<Mutex<Option<Result<T, CaughtPanic>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if cancel.is_some_and(CancelToken::is_cancelled) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = run_item(i);
                *slots[i].lock().expect("result slot") = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| match slot.into_inner().expect("result slot") {
            Some(value) => value,
            // Skipped by a cancelled worker: produce the item's value
            // inline (fast — `f` sees the fired token and fails typed).
            None => run_item(i),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unwrap_all<T>(results: Vec<Result<T, CaughtPanic>>) -> Vec<T> {
        results.into_iter().map(|r| r.expect("no panic")).collect()
    }

    #[test]
    fn results_come_back_in_index_order() {
        for workers in [1, 2, 4, 16] {
            let out = unwrap_all(parallel_map(workers, 37, None, |i| i * i));
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_items_is_empty() {
        let out: Vec<Result<u32, _>> = parallel_map(4, 0, None, |_| unreachable!("no items"));
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = unwrap_all(parallel_map(64, 3, None, |i| i + 1));
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn work_actually_spreads_across_threads() {
        let ids = unwrap_all(parallel_map(4, 64, None, |_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            format!("{:?}", std::thread::current().id())
        }));
        let distinct: std::collections::BTreeSet<String> = ids.into_iter().collect();
        assert!(distinct.len() > 1, "expected more than one worker thread");
    }

    #[test]
    fn panics_are_isolated_per_item_for_every_worker_count() {
        for workers in [1, 2, 4, 8] {
            let out = parallel_map(workers, 9, None, |i| {
                if i % 3 == 1 {
                    panic!("boom at {i}");
                }
                i * 10
            });
            assert_eq!(out.len(), 9);
            for (i, slot) in out.into_iter().enumerate() {
                if i % 3 == 1 {
                    let panic = slot.expect_err("items 1,4,7 panic");
                    assert_eq!(panic.message, format!("boom at {i}"));
                } else {
                    assert_eq!(slot.expect("other items succeed"), i * 10);
                }
            }
        }
    }

    #[test]
    fn cancelled_fanout_still_fills_every_slot() {
        let token = CancelToken::new();
        token.cancel();
        // Workers refuse to claim, so every slot is filled inline by the
        // caller — `f` still runs once per index.
        let out = unwrap_all(parallel_map(4, 16, Some(&token), |i| i * 3));
        assert_eq!(out, (0..16).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn mid_flight_cancellation_completes_all_indices() {
        let token = CancelToken::new();
        let fired = std::sync::atomic::AtomicBool::new(false);
        let out = unwrap_all(parallel_map(2, 32, Some(&token), |i| {
            if i == 3 {
                token.cancel();
                fired.store(true, Ordering::Relaxed);
            }
            if fired.load(Ordering::Relaxed) {
                // A cancel-aware work function fast-fails.
                return usize::MAX;
            }
            i
        }));
        assert_eq!(out.len(), 32, "every index produced a value");
    }

    #[test]
    fn non_string_payloads_render_as_placeholder() {
        let out = parallel_map(1, 1, None, |_| std::panic::panic_any(42u32));
        let panic = out.into_iter().next().unwrap().expect_err("panicked");
        assert_eq!(panic.message, "opaque panic payload");
    }
}

//! Deterministic, bounded-memory work fan-out for the recording and
//! analysis phases.
//!
//! [`parallel_fold`] is the detector's one fan-out primitive: a scoped
//! thread pool claims indices in order, and every result is handed to a
//! sink exactly once, in index order, as soon as all earlier results have
//! been handed over. Determinism falls out of the structure — the work
//! function must be a pure function of its index, and the sink sees
//! `f(0), f(1), …` in that order regardless of worker count or scheduling.
//! Memory stays bounded: a worker claims index `i` only while `i` lies
//! within a fixed window of the sink's progress, so however many items
//! there are, at most that window of results waits to be folded. (A
//! `rayon` dependency would provide a similar shape; the workspace builds
//! without network access, so the primitive is written out.)
//!
//! Whoever completes the frontier index folds: the worker that lands the
//! result the sink is waiting for drains every ready result through the
//! sink, so no extra consumer thread is needed and folding overlaps the
//! other workers' recording.
//!
//! Panics in the work function are isolated per item: an unwind out of
//! `f(i)` is caught (`catch_unwind(AssertUnwindSafe(..))`) and reaches the
//! sink as that item's `Err(DetectError::WorkerPanic)`. No such panic
//! propagates across items and every other item still completes — the
//! sink decides, deterministically and in index order, how to report the
//! failure. The inline `workers <= 1` path catches unwinds identically, so
//! panic behaviour is part of the bit-identical determinism contract
//! rather than an artifact of threading. A panic in the *sink* is a bug in
//! the caller's fold, not a work-item failure: it stops the workers and
//! resumes unwinding on the calling thread.

use crate::error::DetectError;
use crate::govern::CancelToken;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};

/// Results each worker may run ahead of the sink: a worker claims index
/// `i` only while `i < folded + WINDOW_PER_WORKER × workers`.
const WINDOW_PER_WORKER: usize = 4;

/// The fan-out state shared by the workers, under one mutex.
struct Frontier<T, S> {
    /// The next index to claim.
    next: usize,
    /// Indices whose sink call has returned.
    folded: usize,
    /// The index of `landed[0]`: indices below it have left the window.
    base: usize,
    /// Results of the claimed indices `base..next`, `None` until landed.
    landed: VecDeque<Option<Result<T, DetectError>>>,
    /// The sink, taken out by the worker that is draining (so a `None`
    /// sink with no `panic` means a drain is in progress).
    sink: Option<S>,
    /// The sink's unwind payload, once it panicked.
    panic: Option<Box<dyn Any + Send>>,
}

impl<T, S> Frontier<T, S> {
    /// The frontier result and the sink, if the frontier has landed and no
    /// other worker is draining: the caller becomes the drainer.
    fn take_ready(&mut self) -> Option<(usize, Result<T, DetectError>, S)> {
        if !matches!(self.landed.front(), Some(Some(_))) {
            return None;
        }
        let sink = self.sink.take()?;
        let value = self.landed.pop_front().flatten()?;
        let index = self.base;
        self.base += 1;
        Some((index, value, sink))
    }
}

/// Runs `f` on every index in `0..n` on up to `workers` threads and hands
/// each result to `sink` exactly once, in index order: `sink(i, f(i))` runs
/// as soon as `sink` has seen every index below `i`. `Err` holds the caught
/// panic, as [`DetectError::WorkerPanic`], when `f(i)` unwound.
///
/// With `workers <= 1` or `n <= 1` everything runs inline on the calling
/// thread — `for i in 0..n { sink(i, f(i)) }`, including panic isolation —
/// with no threads spawned. Otherwise the sink runs on whichever worker
/// lands the frontier result, one call at a time, and at most
/// `4 × workers` results that `f` has returned wait for it.
///
/// `cancel` makes the fan-out responsive to the detection's deadline:
/// once the token fires, workers stop claiming *new* indices and drain.
/// Every index still reaches the sink — after the threads join, unclaimed
/// indices run inline on the caller's thread, in order, which is cheap
/// because a cancel-aware `f` fast-fails on a fired token. The fan-out
/// therefore never changes *what* is computed for any index (the
/// determinism contract), only how promptly in-flight work is abandoned.
///
/// # Panics
///
/// Resumes the unwind of a panic raised by `sink`, after every worker has
/// stopped; no further index reaches the sink once it panicked.
pub(crate) fn parallel_fold<T, F, S>(
    workers: usize,
    n: usize,
    cancel: Option<&CancelToken>,
    f: F,
    mut sink: S,
) where
    T: Send,
    F: Fn(usize) -> T + Sync,
    S: FnMut(usize, Result<T, DetectError>) + Send,
{
    let run_item = |i: usize| {
        catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|payload| DetectError::WorkerPanic {
            message: crate::fault::panic_message(payload),
        })
    };
    if workers <= 1 || n <= 1 {
        for i in 0..n {
            sink(i, run_item(i));
        }
        return;
    }
    let workers = workers.min(n);
    let window = WINDOW_PER_WORKER * workers;
    let frontier = Mutex::new(Frontier {
        next: 0,
        folded: 0,
        base: 0,
        landed: VecDeque::with_capacity(window),
        sink: Some(sink),
        panic: None,
    });
    // Signalled whenever `folded` advances or the sink panics.
    let progress = Condvar::new();
    let lock = || frontier.lock().expect("fan-out state: no panic while held");
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // Claim the next index once it is inside the window.
                let i = {
                    let mut state = lock();
                    loop {
                        if state.panic.is_some()
                            || state.next >= n
                            || cancel.is_some_and(CancelToken::is_cancelled)
                        {
                            return;
                        }
                        if state.next < state.folded + window {
                            break;
                        }
                        state = progress
                            .wait(state)
                            .expect("fan-out state: no panic while held");
                    }
                    state.next += 1;
                    state.landed.push_back(None);
                    state.next - 1
                };
                let value = run_item(i);
                let mut state = lock();
                let slot = i - state.base;
                state.landed[slot] = Some(value);
                // Landed the frontier with no drain in progress: hand every
                // ready result to the sink, unlocked during each call so the
                // other workers keep claiming and landing.
                while let Some((i, value, mut sink)) = state.take_ready() {
                    drop(state);
                    let outcome = catch_unwind(AssertUnwindSafe(|| sink(i, value)));
                    state = lock();
                    state.folded += 1;
                    progress.notify_all();
                    match outcome {
                        Ok(()) => state.sink = Some(sink),
                        Err(payload) => state.panic = Some(payload),
                    }
                }
            });
        }
    });
    let state = frontier
        .into_inner()
        .expect("fan-out state: no panic while held");
    if let Some(payload) = state.panic {
        resume_unwind(payload);
    }
    debug_assert_eq!(state.folded, state.next, "every claimed result was folded");
    let mut sink = state.sink.expect("every drain returns the sink");
    // Indices a cancelled worker did not claim: run them inline, in order
    // (fast — a cancel-aware `f` sees the fired token and fails typed).
    for i in state.next..n {
        sink(i, run_item(i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Folds every result into a `Vec`, checking the sink sees `0..n` in
    /// order.
    fn collect<T: Send>(
        workers: usize,
        n: usize,
        cancel: Option<&CancelToken>,
        f: impl Fn(usize) -> T + Sync,
    ) -> Vec<Result<T, DetectError>> {
        let mut out = Vec::new();
        parallel_fold(workers, n, cancel, f, |i, value| {
            assert_eq!(i, out.len(), "the sink sees indices in order");
            out.push(value);
        });
        out
    }

    fn unwrap_all<T>(results: Vec<Result<T, DetectError>>) -> Vec<T> {
        results.into_iter().map(|r| r.expect("no panic")).collect()
    }

    #[test]
    fn results_come_back_in_index_order() {
        for workers in [1, 2, 4, 16] {
            let out = unwrap_all(collect(workers, 37, None, |i| i * i));
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn sink_sees_every_index_once_in_order_under_uneven_costs() {
        for workers in [1, 2, 4, 16] {
            let mut seen = Vec::new();
            parallel_fold(
                workers,
                64,
                None,
                |i| {
                    // Early indices are the slowest, so later ones land first.
                    let micros = if i % 7 == 0 { 400 } else { (64 - i) * 10 };
                    std::thread::sleep(std::time::Duration::from_micros(micros as u64));
                    i
                },
                |i, value| {
                    assert_eq!(value.expect("no panic"), i);
                    seen.push(i);
                },
            );
            assert_eq!(seen, (0..64).collect::<Vec<_>>(), "workers {workers}");
        }
    }

    #[test]
    fn unfolded_results_never_exceed_the_window() {
        for workers in [2, 4, 16] {
            let waiting = AtomicUsize::new(0);
            let most = AtomicUsize::new(0);
            parallel_fold(
                workers,
                200,
                None,
                |i| {
                    if i % 5 == 0 {
                        std::thread::sleep(std::time::Duration::from_micros(300));
                    }
                    let now = waiting.fetch_add(1, Ordering::SeqCst) + 1;
                    most.fetch_max(now, Ordering::SeqCst);
                },
                |_, _| {
                    // A slow sink lets the workers run ahead to the window.
                    std::thread::sleep(std::time::Duration::from_micros(50));
                    waiting.fetch_sub(1, Ordering::SeqCst);
                },
            );
            let most = most.load(Ordering::SeqCst);
            assert!(
                most <= WINDOW_PER_WORKER * workers,
                "{most} unfolded results at {workers} workers"
            );
        }
    }

    #[test]
    fn a_panicking_sink_unwinds_instead_of_hanging() {
        for workers in [1, 2, 4] {
            let (done, outcome) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let result = catch_unwind(|| {
                    parallel_fold(
                        workers,
                        100,
                        None,
                        |i| i,
                        |i, _| assert!(i != 3, "sink at 3"),
                    );
                });
                done.send(result.map_err(crate::fault::panic_message))
                    .expect("the test waits");
            });
            let result = outcome
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("parallel_fold returned instead of hanging");
            assert_eq!(result, Err("sink at 3".to_string()), "workers {workers}");
        }
    }

    #[test]
    fn zero_items_is_empty() {
        let out: Vec<Result<u32, _>> = collect(4, 0, None, |_| unreachable!("no items"));
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = unwrap_all(collect(64, 3, None, |i| i + 1));
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn work_actually_spreads_across_threads() {
        let ids = unwrap_all(collect(4, 64, None, |_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            format!("{:?}", std::thread::current().id())
        }));
        let distinct: std::collections::BTreeSet<String> = ids.into_iter().collect();
        assert!(distinct.len() > 1, "expected more than one worker thread");
    }

    #[test]
    fn panics_are_isolated_per_item_for_every_worker_count() {
        for workers in [1, 2, 4, 8] {
            let out = collect(workers, 9, None, |i| {
                if i % 3 == 1 {
                    panic!("boom at {i}");
                }
                i * 10
            });
            assert_eq!(out.len(), 9);
            for (i, slot) in out.into_iter().enumerate() {
                if i % 3 == 1 {
                    let panic = slot.expect_err("items 1,4,7 panic");
                    assert_eq!(
                        panic,
                        DetectError::WorkerPanic {
                            message: format!("boom at {i}")
                        }
                    );
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
        // Workers refuse to claim, so every index runs inline on the
        // caller — `f` still runs once per index.
        let out = unwrap_all(collect(4, 16, Some(&token), |i| i * 3));
        assert_eq!(out, (0..16).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn mid_flight_cancellation_completes_all_indices() {
        let token = CancelToken::new();
        let fired = std::sync::atomic::AtomicBool::new(false);
        let out = unwrap_all(collect(2, 32, Some(&token), |i| {
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
        let out = collect(1, 1, None, |_| std::panic::panic_any(42u32));
        let panic = out.into_iter().next().unwrap().expect_err("panicked");
        assert_eq!(
            panic,
            DetectError::WorkerPanic {
                message: "opaque panic payload".into()
            }
        );
    }
}

//! A detection's live heap does not grow with `runs`: the evidence phase
//! folds each chunk into the merged sets as it lands, so only a fixed
//! window of unmerged chunks is ever resident, whatever the run count.
//!
//! A counting global allocator tracks live and peak heap bytes. The
//! counters are process-wide, so this file holds a single test.

use owl::core::{detect, record_run_metered, Evidence, OwlConfig, RunSpec, TracedProgram, Verdict};
use owl::workloads::dummy::DummySbox;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting live heap bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` requirements are passed through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller guarantees `new_size` is valid for it.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs per evidence chunk (the detector's `EVIDENCE_CHUNK`).
const CHUNK_RUNS: u64 = 8;
/// Evidence workers of the parallel detections.
const WORKERS: usize = 4;
/// Chunks an evidence fold over `WORKERS` workers may have claimed but not
/// yet folded: its window of `WINDOW_PER_WORKER × workers`.
const WINDOW: usize = 4 * WORKERS;

/// Peak live heap above the starting level while one detection runs (its
/// result included), in bytes.
fn detection_peak(runs: usize, parallelism: usize) -> usize {
    let config = OwlConfig {
        runs,
        parallelism,
        ..OwlConfig::default()
    };
    let program = DummySbox::new(64);
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let detection = detect(&program, &[1, 2, 3], &config).expect("detection runs");
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert_eq!(detection.verdict, Verdict::Leaky);
    assert_eq!(detection.filter.classes.len(), 3, "the evidence phase runs");
    peak
}

/// The heap footprint of one chunk of random-input runs (the kind with the
/// most distinct addresses), recorded and folded into partial evidence as an
/// evidence worker does: the peak above the starting level while it is
/// built, and the bytes its finished partial evidence holds.
fn chunk_footprint() -> (usize, usize) {
    let program = DummySbox::new(64);
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let partial = Evidence::from_traces((0..CHUNK_RUNS).map(|run| {
        let spec = RunSpec {
            run_index: run,
            ..RunSpec::default()
        };
        let input = program.random_input(run);
        record_run_metered(&program, &input, &spec)
            .expect("run records")
            .0
    }));
    let held = LIVE.load(Ordering::Relaxed) - base;
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert_eq!(partial.runs, CHUNK_RUNS);
    (peak, held)
}

#[test]
fn evidence_memory_is_flat_in_runs() {
    // 32 runs are 4 chunks per evidence set, 256 runs are 32. At one worker
    // the fold keeps at most one unmerged chunk, so the peak barely moves.
    let small = detection_peak(32, 1);
    let large = detection_peak(256, 1);
    let ratio = large as f64 / small as f64;
    assert!(
        ratio <= 1.1,
        "parallelism 1: peak live heap {large} B at 256 runs vs {small} B at 32 runs \
         ({ratio:.2}x, bound 1.1x)"
    );
    // With more workers, up to `WINDOW` chunks may be claimed but not yet
    // folded besides the merged sets: at most `WORKERS` of them recording,
    // the rest landed partial evidence. How full the window gets depends on
    // scheduling. 32 runs reach the same merged sets and per-worker state as
    // 256 runs, so under any interleaving 256 runs exceed their peak by at
    // most one full window.
    let (recording, partial) = chunk_footprint();
    let small = detection_peak(32, WORKERS);
    let large = detection_peak(256, WORKERS);
    let bound = small + WORKERS * recording + (WINDOW - WORKERS) * partial;
    assert!(
        large <= bound,
        "parallelism {WORKERS}: peak live heap {large} B at 256 runs vs {small} B at 32 runs \
         plus a window of {WORKERS} recording chunks of {recording} B and {} landed ones of \
         {partial} B ({bound} B)",
        WINDOW - WORKERS
    );
}

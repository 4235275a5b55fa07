//! A detection's live heap does not grow with `runs`: the evidence phase
//! folds each chunk into the merged sets as it lands, so only a fixed
//! window of unmerged chunks is ever resident, whatever the run count.
//!
//! A counting global allocator tracks live and peak heap bytes. The
//! counters are process-wide, so this file holds a single test.

use owl::core::{detect, OwlConfig, Verdict};
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

#[test]
fn evidence_memory_is_flat_in_runs() {
    // 32 runs are 4 chunks per evidence set, 256 runs are 32. At one worker
    // the fold keeps at most one unmerged chunk; at four, a window of them.
    for (parallelism, bound) in [(1, 1.1), (4, 2.0)] {
        let small = detection_peak(32, parallelism);
        let large = detection_peak(256, parallelism);
        let ratio = large as f64 / small as f64;
        assert!(
            ratio <= bound,
            "parallelism {parallelism}: peak live heap {large} B at 256 runs vs \
             {small} B at 32 runs ({ratio:.2}x, bound {bound}x)"
        );
    }
}

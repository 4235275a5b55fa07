//! Property-based tests for the SIMT simulator.

use owl_gpu::build::KernelBuilder;
use owl_gpu::exec::launch;
use owl_gpu::grid::LaunchConfig;
use owl_gpu::hook::{NullHook, RecordingHook};
use owl_gpu::isa::{CmpOp, MemWidth, SpecialReg};
use owl_gpu::mem::DeviceMemory;
use proptest::prelude::*;

/// Builds a kernel: `out[i] = (in[i] * mul + add) ^ xor_mask`, then if
/// `out[i] < pivot` double it, else add one; then `k` loop rounds of `+= 3`.
fn arithmetic_kernel(
    mul: u64,
    add: u64,
    xor_mask: u64,
    pivot: u64,
    rounds: u64,
) -> owl_gpu::Kernel {
    let b = KernelBuilder::new("arith");
    let inp = b.param(0);
    let out = b.param(1);
    let tid = b.special(SpecialReg::GlobalTid);
    let off = b.mul(tid, 8u64);
    let x0 = b.load_global(b.add(inp, off), MemWidth::B8);
    let x1 = b.xor(b.add(b.mul(x0, mul), add), xor_mask);
    let acc = b.mov(x1);
    let p = b.setp(CmpOp::LtU, acc, pivot);
    b.if_then_else(
        p,
        |b| {
            let d = b.mul(acc, 2u64);
            b.assign(acc, d);
        },
        |b| {
            let d = b.add(acc, 1u64);
            b.assign(acc, d);
        },
    );
    b.for_range(0u64, rounds, |b, _| {
        let d = b.add(acc, 3u64);
        b.assign(acc, d);
    });
    b.store_global(b.add(out, off), acc, MemWidth::B8);
    b.finish()
}

/// The same function computed on the host.
fn arithmetic_reference(x: u64, mul: u64, add: u64, xor_mask: u64, pivot: u64, rounds: u64) -> u64 {
    let mut v = x.wrapping_mul(mul).wrapping_add(add) ^ xor_mask;
    if v < pivot {
        v = v.wrapping_mul(2);
    } else {
        v = v.wrapping_add(1);
    }
    v.wrapping_add(3 * rounds)
}

fn run_kernel(
    kernel: &owl_gpu::Kernel,
    inputs: &[u64],
    hook: &mut dyn owl_gpu::KernelHook,
) -> Vec<u64> {
    let mut mem = DeviceMemory::new();
    let n = inputs.len();
    let (_, a) = mem.alloc(8 * n);
    let (_, o) = mem.alloc(8 * n);
    for (i, &v) in inputs.iter().enumerate() {
        mem.store(a + 8 * i as u64, 8, v).unwrap();
    }
    let threads = n as u32;
    launch(
        &mut mem,
        kernel,
        LaunchConfig::new(threads.div_ceil(64), 64u32.min(threads)),
        &[a, o],
        hook,
    )
    .unwrap();
    (0..n)
        .map(|i| mem.load(o + 8 * i as u64, 8).unwrap())
        .collect()
}

proptest! {
    /// SIMD execution with divergence matches a scalar reference, lane by
    /// lane, for any inputs and parameters.
    #[test]
    fn simd_matches_scalar_reference(
        inputs in prop::collection::vec(any::<u64>(), 1..130),
        mul in any::<u64>(),
        add in any::<u64>(),
        xor_mask in any::<u64>(),
        pivot in any::<u64>(),
        rounds in 0u64..8,
    ) {
        let kernel = arithmetic_kernel(mul, add, xor_mask, pivot, rounds);
        // Geometry must cover all inputs; pad to a multiple of block size.
        let mut padded = inputs.clone();
        while padded.len() % 64 != 0 {
            padded.push(0);
        }
        let got = run_kernel(&kernel, &padded, &mut NullHook);
        for (i, (&x, &y)) in padded.iter().zip(&got).enumerate() {
            prop_assert_eq!(
                y,
                arithmetic_reference(x, mul, add, xor_mask, pivot, rounds),
                "lane {}", i
            );
        }
    }

    /// Execution is deterministic: two runs produce identical results and
    /// identical traces.
    #[test]
    fn execution_and_traces_deterministic(
        inputs in prop::collection::vec(any::<u64>(), 64..=64),
        pivot in any::<u64>(),
    ) {
        let kernel = arithmetic_kernel(3, 5, 0xff, pivot, 2);
        let mut h1 = RecordingHook::default();
        let mut h2 = RecordingHook::default();
        let r1 = run_kernel(&kernel, &inputs, &mut h1);
        let r2 = run_kernel(&kernel, &inputs, &mut h2);
        prop_assert_eq!(r1, r2);
        prop_assert_eq!(h1, h2);
    }

    /// Instrumentation must not perturb results (DBI transparency).
    #[test]
    fn instrumentation_transparent(
        inputs in prop::collection::vec(any::<u64>(), 64..=64),
    ) {
        let kernel = arithmetic_kernel(7, 11, 0, 1 << 63, 1);
        let plain = run_kernel(&kernel, &inputs, &mut NullHook);
        let traced = run_kernel(&kernel, &inputs, &mut RecordingHook::default());
        prop_assert_eq!(plain, traced);
    }

    /// A data-independent kernel produces an identical basic-block trace for
    /// any two inputs (the no-leak base case Owl relies on).
    #[test]
    fn uniform_kernel_trace_is_input_independent(
        a in prop::collection::vec(any::<u64>(), 64..=64),
        b in prop::collection::vec(any::<u64>(), 64..=64),
    ) {
        // No branches: out[i] = in[i] + 1.
        let kb = KernelBuilder::new("inc");
        let inp = kb.param(0);
        let out = kb.param(1);
        let tid = kb.special(SpecialReg::GlobalTid);
        let off = kb.mul(tid, 8u64);
        let v = kb.load_global(kb.add(inp, off), MemWidth::B8);
        kb.store_global(kb.add(out, off), kb.add(v, 1u64), MemWidth::B8);
        let kernel = kb.finish();

        let mut ha = RecordingHook::default();
        let mut hb = RecordingHook::default();
        run_kernel(&kernel, &a, &mut ha);
        run_kernel(&kernel, &b, &mut hb);
        prop_assert_eq!(ha.bb_entries, hb.bb_entries);
    }

    /// Divergent-loop trip count equals the per-lane maximum and every lane
    /// accumulates exactly its own count.
    #[test]
    fn loop_divergence_per_lane_counts(counts in prop::collection::vec(0u64..50, 32..=32)) {
        let b = KernelBuilder::new("trip");
        let inp = b.param(0);
        let out = b.param(1);
        let tid = b.special(SpecialReg::GlobalTid);
        let off = b.mul(tid, 8u64);
        let bound = b.load_global(b.add(inp, off), MemWidth::B8);
        let i = b.mov(0u64);
        b.while_loop(
            |b| b.setp(CmpOp::LtU, i, bound),
            |b| {
                let n = b.add(i, 1u64);
                b.assign(i, n);
            },
        );
        b.store_global(b.add(out, off), i, MemWidth::B8);
        let kernel = b.finish();

        let mut hook = RecordingHook::default();
        let got = run_kernel(&kernel, &counts, &mut hook);
        prop_assert_eq!(&got, &counts);
        // The warp iterates until its slowest lane leaves, so the loop
        // condition block — the most-visited block — is entered exactly
        // max(counts) + 1 times; every other block once.
        let mut visits = std::collections::HashMap::new();
        for &(_, bb) in &hook.bb_entries {
            *visits.entry(bb).or_insert(0usize) += 1;
        }
        let most_visited = visits.values().copied().max().unwrap();
        let expected = *counts.iter().max().unwrap() as usize + 1;
        prop_assert_eq!(most_visited, expected);
    }
}

//! The launch engine: grids, CTAs, warps, barriers.
//!
//! The engine executes CTAs sequentially and, within a CTA, runs each warp
//! until it finishes or parks at a barrier; when every warp of the CTA has
//! parked, the barrier releases and all warps resume. This models the
//! paper's abstraction (§V-A): "we consider all warps under different
//! blocks in a kernel as executing simultaneously" — scheduling-induced
//! leakage is explicitly out of scope, so a deterministic order is not only
//! acceptable but desirable for differential analysis.

use crate::cancel::CancelToken;
use crate::error::ExecError;
use crate::grid::LaunchConfig;
use crate::hook::{KernelHook, LaunchInfo, MemEventBatch};
use crate::mem::{DeviceMemory, LinearMemory};
use crate::program::Kernel;
use crate::warp::{ExecEnv, WarpExec, WarpStatus};
use owl_metrics::SimCounters;

/// Default per-launch instruction budget; generous enough for every
/// workload in this repository while still catching runaway loops.
pub const DEFAULT_FUEL: u64 = 2_000_000_000;

/// Basic-block entries between [`CancelToken`] polls. Striding keeps the
/// clock read (armed deadlines call `Instant::now`) off the per-block hot
/// path while still bounding the reaction latency to a few hundred
/// instructions; an un-armed launch pays one branch per block entry.
pub(crate) const CANCEL_CHECK_STRIDE: u32 = 64;

/// Counters describing one completed launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LaunchStats {
    /// Number of CTAs executed.
    pub ctas: u64,
    /// Number of non-empty warps executed.
    pub warps: u64,
    /// Detailed execution counters (dynamic instructions, divergence,
    /// reconvergence, memory transactions, bank conflicts, …) accumulated
    /// by the interpreter.
    pub counters: SimCounters,
}

impl LaunchStats {
    /// Accumulates another launch's statistics into this one (used by the
    /// host runtime to keep per-device running totals).
    pub fn accumulate(&mut self, other: &LaunchStats) {
        self.ctas += other.ctas;
        self.warps += other.warps;
        self.counters.merge(&other.counters);
    }
}

/// Which interpreter executes a launch.
///
/// Both interpreters implement the same observable contract — identical
/// memory effects, hook event streams, [`LaunchStats`] and errors — and the
/// conformance suite (`genkernel`/`oracle`) holds them to it by running
/// random kernels through both and demanding bit-equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Interpreter {
    /// The production fast path: whole-warp execution of the kernel's
    /// register-allocated blocks, batched memory events.
    #[default]
    Lowered,
    /// The deliberately naive reference oracle ([`crate::oracle`]): executes
    /// the program as written, one register per value, one instruction and
    /// one hook event at a time, sharing no interpretation logic with the
    /// fast path.
    Oracle,
}

/// Launch options beyond geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchOptions {
    /// Instruction budget for the launch.
    pub fuel: u64,
    /// SIMT warp width in lanes (1..=64). 32 models NVIDIA warps; 64
    /// models AMD wavefronts — the paper's conclusion claims the approach
    /// "can also be applied to other similar SIMT architectures", and this
    /// knob lets the whole pipeline be exercised at those widths.
    pub warp_size: u32,
    /// Which interpreter runs the kernel (default: the lowered fast path).
    pub interpreter: Interpreter,
    /// Cooperative cancellation handle, polled at basic-block boundaries
    /// by both interpreters; `None` disarms the checks entirely.
    pub cancel: Option<CancelToken>,
}

impl Default for LaunchOptions {
    fn default() -> Self {
        LaunchOptions {
            fuel: DEFAULT_FUEL,
            warp_size: crate::grid::WARP_SIZE,
            interpreter: Interpreter::default(),
            cancel: None,
        }
    }
}

/// Launches `kernel` over `mem` with the given geometry and arguments,
/// reporting every instrumentation event to `hook`. The kernel was
/// validated when it was built, so a launch does no validation.
///
/// # Errors
///
/// Returns an [`ExecError`] when the launch is empty or its warp size out
/// of range, a lane faults, a barrier is misused, the launch is cancelled,
/// or the instruction budget runs out.
///
/// # Example
///
/// ```
/// use owl_gpu::build::KernelBuilder;
/// use owl_gpu::grid::LaunchConfig;
/// use owl_gpu::hook::NullHook;
/// use owl_gpu::isa::{MemWidth, SpecialReg};
/// use owl_gpu::mem::DeviceMemory;
/// use owl_gpu::exec::launch;
///
/// // out[i] = i * 2
/// let b = KernelBuilder::new("double");
/// let out = b.param(0);
/// let tid = b.special(SpecialReg::GlobalTid);
/// let two_tid = b.mul(tid, 2u64);
/// let addr = b.add(out, b.mul(tid, 8u64));
/// b.store_global(addr, two_tid, MemWidth::B8);
/// let kernel = b.finish();
///
/// let mut mem = DeviceMemory::new();
/// let (_, base) = mem.alloc(8 * 64);
/// launch(&mut mem, &kernel, LaunchConfig::new(2u32, 32u32), &[base], &mut NullHook)?;
/// assert_eq!(mem.load(base + 8 * 10, 8)?, 20);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn launch(
    mem: &mut DeviceMemory,
    kernel: &Kernel,
    config: LaunchConfig,
    args: &[u64],
    hook: &mut dyn KernelHook,
) -> Result<LaunchStats, ExecError> {
    launch_with_options(mem, kernel, config, args, hook, LaunchOptions::default())
}

/// [`launch`] with explicit [`LaunchOptions`].
///
/// # Errors
///
/// See [`launch`].
pub fn launch_with_options(
    mem: &mut DeviceMemory,
    kernel: &Kernel,
    config: LaunchConfig,
    args: &[u64],
    hook: &mut dyn KernelHook,
    options: LaunchOptions,
) -> Result<LaunchStats, ExecError> {
    if options.interpreter == Interpreter::Oracle {
        return crate::oracle::launch_oracle(mem, kernel, config, args, hook, options);
    }
    if config.total_threads() == 0 {
        return Err(ExecError::EmptyLaunch);
    }
    if !(1..=crate::grid::MAX_WARP_SIZE).contains(&options.warp_size) {
        return Err(ExecError::InvalidWarpSize {
            warp_size: options.warp_size,
        });
    }
    // A token that fired before the launch started: bail before the hook
    // sees `kernel_begin`, so no half-open kernel appears in any trace.
    if options
        .cancel
        .as_ref()
        .is_some_and(CancelToken::is_cancelled)
    {
        return Err(ExecError::Cancelled);
    }
    let info = LaunchInfo {
        kernel: kernel.name.clone(),
        config,
        warp_size: options.warp_size,
    };
    hook.kernel_begin(&info);

    let mut fuel = options.fuel;
    let mut cancel_countdown = 0u32;
    let mut counters = SimCounters::default();
    let mut stats = LaunchStats::default();
    // One warp runs at a time, so a single reusable event batch serves the
    // whole launch; `WarpExec::run` flushes it before returning.
    let mut batch = MemEventBatch::new();

    let n_ctas = config.grid.total();
    let warps_per_block = config.warps_per_block_for(options.warp_size);
    for cta in 0..n_ctas {
        stats.ctas += 1;
        let mut shared = LinearMemory::new(kernel.shared_mem_bytes as usize);
        let mut warps: Vec<WarpExec<'_>> = (0..warps_per_block)
            .map(|w| {
                WarpExec::new(
                    kernel,
                    config.grid,
                    config.block,
                    cta as u32,
                    w,
                    options.warp_size,
                )
            })
            .filter(|w| !w.is_empty())
            .collect();
        stats.warps += warps.len() as u64;

        // Run all warps to the next barrier (or completion); repeat until
        // every warp is done.
        loop {
            let mut any_running = false;
            let mut at_barrier = 0usize;
            let mut done = 0usize;
            for warp in warps.iter_mut() {
                if warp.is_done() {
                    done += 1;
                    continue;
                }
                any_running = true;
                let mut env = ExecEnv {
                    mem,
                    shared: &mut shared,
                    hook,
                    fuel: &mut fuel,
                    cancel: options.cancel.as_ref(),
                    cancel_countdown: &mut cancel_countdown,
                    args,
                    counters: &mut counters,
                    batch: &mut batch,
                };
                match warp.run(&mut env)? {
                    WarpStatus::AtBarrier => at_barrier += 1,
                    WarpStatus::Done => done += 1,
                }
            }
            if !any_running || done == warps.len() {
                break;
            }
            // Everyone who is not done must be parked at the barrier; a mix
            // of done and parked warps can never release it.
            if at_barrier > 0 && done > 0 {
                return Err(ExecError::BarrierDeadlock);
            }
            if at_barrier == 0 {
                break;
            }
            // All parked: barrier releases, loop resumes every warp.
        }
    }

    stats.counters = counters;
    hook.kernel_end(&info);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::KernelBuilder;
    use crate::grid::LaunchConfig;
    use crate::hook::{NullHook, RecordingHook};
    use crate::isa::{CmpOp, MemWidth, SpecialReg};

    /// out[i] = in[i] + 1 over one warp.
    #[test]
    fn elementwise_add_roundtrip() {
        let b = KernelBuilder::new("inc");
        let inp = b.param(0);
        let out = b.param(1);
        let tid = b.special(SpecialReg::GlobalTid);
        let off = b.mul(tid, 8u64);
        let src = b.add(inp, off);
        let v = b.load_global(src, MemWidth::B8);
        let v1 = b.add(v, 1u64);
        let dst = b.add(out, off);
        b.store_global(dst, v1, MemWidth::B8);
        let k = b.finish();

        let mut mem = DeviceMemory::new();
        let (_, a) = mem.alloc(8 * 32);
        let (_, o) = mem.alloc(8 * 32);
        for i in 0..32u64 {
            mem.store(a + i * 8, 8, i * 10).unwrap();
        }
        let stats = launch(
            &mut mem,
            &k,
            LaunchConfig::new(1u32, 32u32),
            &[a, o],
            &mut NullHook,
        )
        .unwrap();
        for i in 0..32u64 {
            assert_eq!(mem.load(o + i * 8, 8).unwrap(), i * 10 + 1);
        }
        assert_eq!(stats.ctas, 1);
        assert_eq!(stats.warps, 1);
        assert!(stats.counters.instructions > 0);
    }

    /// A partial warp (block of 40 threads = warp of 32 + warp of 8) only
    /// writes the cells of valid lanes.
    #[test]
    fn partial_warp_masks_invalid_lanes() {
        let b = KernelBuilder::new("fill");
        let out = b.param(0);
        let tid = b.special(SpecialReg::GlobalTid);
        let addr = b.add(out, b.mul(tid, 1u64));
        b.store_global(addr, 7u64, MemWidth::B1);
        let k = b.finish();

        let mut mem = DeviceMemory::new();
        let (_, o) = mem.alloc(64);
        launch(
            &mut mem,
            &k,
            LaunchConfig::new(1u32, 40u32),
            &[o],
            &mut NullHook,
        )
        .unwrap();
        for i in 0..64u64 {
            let expect = if i < 40 { 7 } else { 0 };
            assert_eq!(mem.load(o + i, 1).unwrap(), expect, "byte {i}");
        }
    }

    /// Divergent if/else: even lanes write 1, odd lanes write 2, and the
    /// warp visits both blocks exactly once.
    #[test]
    fn divergent_if_else_reconverges() {
        let b = KernelBuilder::new("diverge");
        let out = b.param(0);
        let tid = b.special(SpecialReg::GlobalTid);
        let bit = b.and(tid, 1u64);
        let addr = b.add(out, b.mul(tid, 1u64));
        let p = b.setp(CmpOp::Eq, bit, 0u64);
        b.if_then_else(
            p,
            |b| {
                b.store_global(addr, 1u64, MemWidth::B1);
            },
            |b| {
                b.store_global(addr, 2u64, MemWidth::B1);
            },
        );
        // Post-reconvergence block: every lane adds 10 to its cell.
        let v = b.load_global(addr, MemWidth::B1);
        let v10 = b.add(v, 10u64);
        b.store_global(addr, v10, MemWidth::B1);
        let k = b.finish();

        let mut mem = DeviceMemory::new();
        let (_, o) = mem.alloc(32);
        let mut hook = RecordingHook::default();
        launch(
            &mut mem,
            &k,
            LaunchConfig::new(1u32, 32u32),
            &[o],
            &mut hook,
        )
        .unwrap();
        for i in 0..32u64 {
            let expect = if i % 2 == 0 { 11 } else { 12 };
            assert_eq!(mem.load(o + i, 1).unwrap(), expect, "byte {i}");
        }
        // One warp, four blocks visited: entry, then, else, join.
        assert_eq!(hook.bb_entries.len(), 4);
    }

    /// Uniform branch: only the taken side's block is visited.
    #[test]
    fn uniform_branch_skips_untaken_block() {
        for (flag, expect_byte) in [(1u64, 1u8), (0u64, 2u8)] {
            let b = KernelBuilder::new("uniform");
            let out = b.param(0);
            let f = b.param(1);
            let tid = b.special(SpecialReg::GlobalTid);
            let addr = b.add(out, tid);
            let p = b.setp(CmpOp::Ne, f, 0u64);
            b.if_then_else(
                p,
                |b| {
                    b.store_global(addr, 1u64, MemWidth::B1);
                },
                |b| {
                    b.store_global(addr, 2u64, MemWidth::B1);
                },
            );
            let k = b.finish();
            let mut mem = DeviceMemory::new();
            let (_, o) = mem.alloc(32);
            let mut hook = RecordingHook::default();
            launch(
                &mut mem,
                &k,
                LaunchConfig::new(1u32, 32u32),
                &[o, flag],
                &mut hook,
            )
            .unwrap();
            assert_eq!(mem.load(o, 1).unwrap(), u64::from(expect_byte));
            // Entry block + exactly one of the two branch blocks.
            assert_eq!(hook.bb_entries.len(), 2, "flag {flag}");
        }
    }

    /// Execution counters: a divergent `If` records one divergence and one
    /// reconvergence, and memory accesses classify by coalescing.
    #[test]
    fn counters_track_divergence_and_coalescing() {
        let b = KernelBuilder::new("ctr");
        let out = b.param(0);
        let tid = b.special(SpecialReg::GlobalTid);
        let bit = b.and(tid, 1u64);
        let addr = b.add(out, tid);
        let p = b.setp(CmpOp::Eq, bit, 0u64);
        b.if_then_else(
            p,
            |b| {
                b.store_global(addr, 1u64, MemWidth::B1);
            },
            |b| {
                b.store_global(addr, 2u64, MemWidth::B1);
            },
        );
        // Scattered load: stride 64 bytes puts every lane in its own
        // 32-byte segment.
        let sc = b.add(out, b.mul(tid, 64u64));
        let _ = b.load_global(sc, MemWidth::B1);
        let k = b.finish();

        let mut mem = DeviceMemory::new();
        let (_, o) = mem.alloc(64 * 32);
        let stats = launch(
            &mut mem,
            &k,
            LaunchConfig::new(1u32, 32u32),
            &[o],
            &mut NullHook,
        )
        .unwrap();
        let c = stats.counters;
        assert_eq!(c.divergence_events, 1);
        assert_eq!(c.reconvergences, 1);
        assert!(c.branches >= 1);
        assert_eq!(c.mem_accesses, 3);
        // Each side's store covers 32 consecutive bytes (16 lanes, stride
        // 2) = 1 segment; the scattered load costs 32 transactions.
        assert_eq!(c.mem_transactions, 1 + 1 + 32);
        assert_eq!(c.coalesced_accesses, 2);
        assert_eq!(c.serialized_accesses, 1);
        assert_eq!(c.bank_conflicts, 0);
    }

    /// Execution counters on a divergent loop: lane `i` of 32 iterates `i`
    /// times, shedding one lane per iteration — 31 divergence events, one
    /// reconvergence when the loop drains, 32 condition evaluations.
    #[test]
    fn counters_track_loop_divergence() {
        let b = KernelBuilder::new("loopctr");
        let tid = b.special(SpecialReg::GlobalTid);
        let i = b.mov(0u64);
        b.while_loop(
            |b| b.setp(CmpOp::LtU, i, tid),
            |b| {
                let ip = b.add(i, 1u64);
                b.assign(i, ip);
            },
        );
        let k = b.finish();

        let mut mem = DeviceMemory::new();
        let stats = launch(
            &mut mem,
            &k,
            LaunchConfig::new(1u32, 32u32),
            &[],
            &mut NullHook,
        )
        .unwrap();
        let c = stats.counters;
        assert_eq!(c.branches, 32);
        assert_eq!(c.divergence_events, 31);
        assert_eq!(c.reconvergences, 1);
    }

    /// A uniform branch and a uniform (all-lanes-exit-together) loop count
    /// no divergence and no reconvergence.
    #[test]
    fn counters_uniform_control_flow_is_convergent() {
        let b = KernelBuilder::new("uni");
        let out = b.param(0);
        let tid = b.special(SpecialReg::GlobalTid);
        let addr = b.add(out, tid);
        let p = b.setp(CmpOp::LtU, tid, 64u64);
        b.if_then_else(
            p,
            |b| {
                b.store_global(addr, 1u64, MemWidth::B1);
            },
            |b| {
                b.store_global(addr, 2u64, MemWidth::B1);
            },
        );
        let i = b.mov(0u64);
        b.while_loop(
            |b| b.setp(CmpOp::LtU, i, 3u64),
            |b| {
                let ip = b.add(i, 1u64);
                b.assign(i, ip);
            },
        );
        let k = b.finish();

        let mut mem = DeviceMemory::new();
        let (_, o) = mem.alloc(32);
        let stats = launch(
            &mut mem,
            &k,
            LaunchConfig::new(1u32, 32u32),
            &[o],
            &mut NullHook,
        )
        .unwrap();
        let c = stats.counters;
        // One If + four loop condition evaluations.
        assert_eq!(c.branches, 5);
        assert_eq!(c.divergence_events, 0);
        assert_eq!(c.reconvergences, 0);
    }

    /// SIMT loop divergence: lane `i` iterates `i` times; the warp iterates
    /// max(i) times and each lane accumulates its own count.
    #[test]
    fn divergent_loop_trip_counts() {
        let b = KernelBuilder::new("loop");
        let out = b.param(0);
        let tid = b.special(SpecialReg::GlobalTid);
        let addr = b.add(out, b.mul(tid, 8u64));
        let i = b.mov(0u64);
        b.while_loop(
            |b| b.setp(CmpOp::LtU, i, tid),
            |b| {
                let v = b.load_global(addr, MemWidth::B8);
                let v1 = b.add(v, 1u64);
                b.store_global(addr, v1, MemWidth::B8);
                let ip = b.add(i, 1u64);
                b.assign(i, ip);
            },
        );
        let k = b.finish();

        let mut mem = DeviceMemory::new();
        let (_, o) = mem.alloc(8 * 32);
        launch(
            &mut mem,
            &k,
            LaunchConfig::new(1u32, 32u32),
            &[o],
            &mut NullHook,
        )
        .unwrap();
        for t in 0..32u64 {
            assert_eq!(mem.load(o + t * 8, 8).unwrap(), t, "lane {t}");
        }
    }

    /// Shared memory + barrier: block-wide reversal via shared staging.
    #[test]
    fn shared_memory_barrier_reversal() {
        let b = KernelBuilder::new("reverse");
        b.set_shared_bytes(32 * 8);
        let inp = b.param(0);
        let out = b.param(1);
        let tid = b.special(SpecialReg::TidX);
        let off = b.mul(tid, 8u64);
        let v = b.load_global(b.add(inp, off), MemWidth::B8);
        b.store_shared(off, v, MemWidth::B8);
        b.sync();
        let rev = b.sub(31u64, tid);
        let roff = b.mul(rev, 8u64);
        let rv = b.load_shared(roff, MemWidth::B8);
        b.store_global(b.add(out, off), rv, MemWidth::B8);
        let k = b.finish();

        let mut mem = DeviceMemory::new();
        let (_, a) = mem.alloc(8 * 32);
        let (_, o) = mem.alloc(8 * 32);
        for i in 0..32u64 {
            mem.store(a + i * 8, 8, 100 + i).unwrap();
        }
        launch(
            &mut mem,
            &k,
            LaunchConfig::new(1u32, 32u32),
            &[a, o],
            &mut NullHook,
        )
        .unwrap();
        for i in 0..32u64 {
            assert_eq!(mem.load(o + i * 8, 8).unwrap(), 100 + (31 - i));
        }
    }

    /// Barrier across multiple warps in one CTA: warp 1's writes must be
    /// visible to warp 0 after the sync.
    #[test]
    fn barrier_orders_warps_within_cta() {
        let b = KernelBuilder::new("xwarp");
        b.set_shared_bytes(64 * 8);
        let out = b.param(0);
        let tid = b.special(SpecialReg::TidX);
        let off = b.mul(tid, 8u64);
        // Each thread stages tid*2 into shared.
        let v2 = b.mul(tid, 2u64);
        b.store_shared(off, v2, MemWidth::B8);
        b.sync();
        // Each thread reads its partner from the *other* warp.
        let partner = b.xor(tid, 32u64);
        let pv = b.load_shared(b.mul(partner, 8u64), MemWidth::B8);
        b.store_global(b.add(out, off), pv, MemWidth::B8);
        let k = b.finish();

        let mut mem = DeviceMemory::new();
        let (_, o) = mem.alloc(8 * 64);
        launch(
            &mut mem,
            &k,
            LaunchConfig::new(1u32, 64u32),
            &[o],
            &mut NullHook,
        )
        .unwrap();
        for t in 0..64u64 {
            assert_eq!(mem.load(o + t * 8, 8).unwrap(), (t ^ 32) * 2, "thread {t}");
        }
    }

    /// Multi-CTA launch writes disjoint slices.
    #[test]
    fn multi_cta_launch() {
        let b = KernelBuilder::new("grid");
        let out = b.param(0);
        let tid = b.special(SpecialReg::GlobalTid);
        let cta = b.special(SpecialReg::CtaidX);
        b.store_global(b.add(out, b.mul(tid, 8u64)), cta, MemWidth::B8);
        let k = b.finish();

        let mut mem = DeviceMemory::new();
        let (_, o) = mem.alloc(8 * 128);
        let stats = launch(
            &mut mem,
            &k,
            LaunchConfig::new(4u32, 32u32),
            &[o],
            &mut NullHook,
        )
        .unwrap();
        assert_eq!(stats.ctas, 4);
        assert_eq!(stats.warps, 4);
        for t in 0..128u64 {
            assert_eq!(mem.load(o + t * 8, 8).unwrap(), t / 32);
        }
    }

    /// Predicated (guarded) stores execute only in passing lanes while the
    /// block trace stays uniform.
    #[test]
    fn predicated_store_is_control_flow_invisible() {
        let b = KernelBuilder::new("pred");
        let out = b.param(0);
        let tid = b.special(SpecialReg::GlobalTid);
        let addr = b.add(out, tid);
        let p = b.setp(CmpOp::LtU, tid, 5u64);
        b.store_global_if(p, true, addr, 9u64, MemWidth::B1);
        let k = b.finish();

        let mut mem = DeviceMemory::new();
        let (_, o) = mem.alloc(32);
        let mut hook = RecordingHook::default();
        launch(
            &mut mem,
            &k,
            LaunchConfig::new(1u32, 32u32),
            &[o],
            &mut hook,
        )
        .unwrap();
        for i in 0..32u64 {
            assert_eq!(mem.load(o + i, 1).unwrap(), u64::from(i < 5) * 9);
        }
        // Single block, single visit — predication is invisible.
        assert_eq!(hook.bb_entries.len(), 1);
        // The store event carries exactly the 5 passing lanes.
        assert_eq!(hook.accesses.len(), 1);
        assert_eq!(hook.accesses[0].1.lane_addrs.len(), 5);
    }

    /// Zero-thread launches are rejected.
    #[test]
    fn empty_launch_rejected() {
        let b = KernelBuilder::new("nop");
        let _ = b.mov(0u64);
        let k = b.finish();
        let mut mem = DeviceMemory::new();
        let err = launch(
            &mut mem,
            &k,
            LaunchConfig::new(0u32, 32u32),
            &[],
            &mut NullHook,
        );
        assert_eq!(err.unwrap_err(), ExecError::EmptyLaunch);
    }

    /// The fuel limit stops infinite loops.
    #[test]
    fn runaway_loop_exhausts_fuel() {
        let b = KernelBuilder::new("spin");
        let one = b.mov(1u64);
        b.while_loop(
            |b| b.setp(CmpOp::Eq, one, 1u64),
            |b| {
                let _ = b.add(one, 0u64);
            },
        );
        let k = b.finish();
        let mut mem = DeviceMemory::new();
        let err = launch_with_options(
            &mut mem,
            &k,
            LaunchConfig::new(1u32, 32u32),
            &[],
            &mut NullHook,
            LaunchOptions {
                fuel: 10_000,
                ..LaunchOptions::default()
            },
        );
        assert_eq!(err.unwrap_err(), ExecError::FuelExhausted);
    }

    /// An expired deadline stops a runaway loop with `Cancelled` — on both
    /// interpreters, well before the (huge) fuel budget would.
    #[test]
    fn expired_deadline_cancels_runaway_loop() {
        let b = KernelBuilder::new("spin");
        let one = b.mov(1u64);
        b.while_loop(
            |b| b.setp(CmpOp::Eq, one, 1u64),
            |b| {
                let _ = b.add(one, 0u64);
            },
        );
        let k = b.finish();
        for interpreter in [Interpreter::Lowered, Interpreter::Oracle] {
            let mut mem = DeviceMemory::new();
            let token = crate::cancel::CancelToken::new();
            let err = launch_with_options(
                &mut mem,
                &k,
                LaunchConfig::new(1u32, 32u32),
                &[],
                &mut NullHook,
                LaunchOptions {
                    cancel: Some(token.deadline_in(std::time::Duration::from_millis(5))),
                    interpreter,
                    ..LaunchOptions::default()
                },
            );
            assert_eq!(
                err.unwrap_err(),
                ExecError::Cancelled,
                "{interpreter:?} must abandon the launch at a block boundary"
            );
        }
    }

    /// A token that fired before launch bails out before `kernel_begin`:
    /// the hook observes no events at all.
    #[test]
    fn pre_cancelled_token_emits_no_events() {
        let b = KernelBuilder::new("noop");
        let _ = b.mov(0u64);
        let k = b.finish();
        for interpreter in [Interpreter::Lowered, Interpreter::Oracle] {
            let token = crate::cancel::CancelToken::new();
            token.cancel();
            let mut mem = DeviceMemory::new();
            let mut hook = RecordingHook::default();
            let err = launch_with_options(
                &mut mem,
                &k,
                LaunchConfig::new(1u32, 32u32),
                &[],
                &mut hook,
                LaunchOptions {
                    cancel: Some(token.clone()),
                    interpreter,
                    ..LaunchOptions::default()
                },
            );
            assert_eq!(err.unwrap_err(), ExecError::Cancelled);
            assert!(
                hook.kernels.is_empty(),
                "{interpreter:?} must not announce a cancelled launch"
            );
        }
    }

    /// Every NaN an `F*` op produces is `CANONICAL_NAN`, whatever the
    /// operands' payloads, on both interpreters and on full and partial
    /// warps (whose rows the compiler may split into vector and scalar
    /// parts).
    #[test]
    fn float_nan_results_are_canonical() {
        let b = KernelBuilder::new("nan");
        let out = b.param(0);
        let tid = b.special(SpecialReg::GlobalTid);
        let nan_a = b.mov(0x7fc0_0001u64);
        let nan_b = b.mov(0xffc0_0002u64);
        let minus_one = b.mov(u64::from((-1.0f32).to_bits()));
        let results = [
            b.fadd(nan_a, nan_b),
            b.fsub(nan_a, nan_b),
            b.fmul(nan_a, nan_b),
            b.fdiv(nan_a, nan_b),
            b.fmin(nan_a, nan_b),
            b.fmax(nan_a, nan_b),
            b.fsqrt(minus_one),
            b.fln(minus_one),
        ];
        let n = results.len() as u64;
        let row = b.add(out, b.mul(tid, 8 * n));
        for (i, v) in results.into_iter().enumerate() {
            b.store_global(b.add(row, 8 * i as u64), v, MemWidth::B8);
        }
        let k = b.finish();
        for threads in [32u32, 7] {
            for interpreter in [Interpreter::Lowered, Interpreter::Oracle] {
                let mut mem = DeviceMemory::new();
                let (_, o) = mem.alloc(8 * n as usize * threads as usize);
                launch_with_options(
                    &mut mem,
                    &k,
                    LaunchConfig::new(1u32, threads),
                    &[o],
                    &mut NullHook,
                    LaunchOptions {
                        interpreter,
                        ..LaunchOptions::default()
                    },
                )
                .unwrap();
                for slot in 0..n * u64::from(threads) {
                    assert_eq!(
                        mem.load(o + 8 * slot, 8).unwrap(),
                        u64::from(crate::isa::CANONICAL_NAN),
                        "{interpreter:?}, {threads} threads: lane {}, op {}",
                        slot / n,
                        slot % n
                    );
                }
            }
        }
    }

    /// Out-of-bounds access reports the faulting location.
    #[test]
    fn oob_access_reports_location() {
        let b = KernelBuilder::new("oob");
        let out = b.param(0);
        let big = b.add(out, 1_000_000u64);
        b.store_global(big, 1u64, MemWidth::B8);
        let k = b.finish();
        let mut mem = DeviceMemory::new();
        let (_, o) = mem.alloc(64);
        let err = launch(
            &mut mem,
            &k,
            LaunchConfig::new(1u32, 32u32),
            &[o],
            &mut NullHook,
        )
        .unwrap_err();
        match err {
            ExecError::Memory { space, .. } => assert_eq!(space, crate::isa::MemSpace::Global),
            other => panic!("expected memory fault, got {other:?}"),
        }
    }

    /// Missing kernel arguments surface as ParamOutOfRange.
    #[test]
    fn missing_param_reported() {
        let b = KernelBuilder::new("param");
        let _ = b.param(2);
        let k = b.finish();
        let mut mem = DeviceMemory::new();
        let err = launch(
            &mut mem,
            &k,
            LaunchConfig::new(1u32, 32u32),
            &[0],
            &mut NullHook,
        )
        .unwrap_err();
        assert_eq!(
            err,
            ExecError::ParamOutOfRange {
                index: 2,
                provided: 1
            }
        );
    }

    /// Instrumented and uninstrumented runs produce identical memory — the
    /// "original behaviour remains unaffected" DBI property.
    #[test]
    fn instrumentation_does_not_perturb_semantics() {
        let build = || {
            let b = KernelBuilder::new("same");
            let out = b.param(0);
            let tid = b.special(SpecialReg::GlobalTid);
            let addr = b.add(out, b.mul(tid, 8u64));
            let sq = b.mul(tid, tid);
            b.store_global(addr, sq, MemWidth::B8);
            b.finish()
        };
        let run = |hook: &mut dyn KernelHook| {
            let mut mem = DeviceMemory::new();
            let (_, o) = mem.alloc(8 * 64);
            launch(
                &mut mem,
                &build(),
                LaunchConfig::new(2u32, 32u32),
                &[o],
                hook,
            )
            .unwrap();
            (0..64u64)
                .map(|i| mem.load(o + i * 8, 8).unwrap())
                .collect::<Vec<_>>()
        };
        let plain = run(&mut NullHook);
        let mut rec = RecordingHook::default();
        let traced = run(&mut rec);
        assert_eq!(plain, traced);
        assert!(!rec.accesses.is_empty());
    }
}

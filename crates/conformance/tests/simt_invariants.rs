//! SIMT execution invariants, property-tested over randomly generated
//! kernels and asserted on *both* interpreters (lowered fast path and the
//! reference oracle):
//!
//! 1. The divergence stack unwinds completely: a probe block appended at
//!    the top level of the body observes the warp's full initial active
//!    mask via `Ballot`, for every thread.
//! 2. Every non-exited thread retires exactly once: an atomic retire
//!    counter bumped by the probe equals the launch's thread count.
//! 3. Reconvergence events never exceed divergence events, and divergence
//!    events never exceed branches (asserted via `SimCounters`).

use owl_conformance::genkernel::{run_kernel, GeneratedKernel};
use owl_conformance::INTERPRETERS;
use owl_gpu::exec::{launch_lowered, launch_with_options, Interpreter, LaunchOptions, LaunchStats};
use owl_gpu::hook::NullHook;
use owl_gpu::isa::{
    AtomicOp, BinOp, CmpOp, Inst, InstOp, MemSpace, MemWidth, Operand, Pred, Reg, SpecialReg,
};
use owl_gpu::mem::DeviceMemory;
use owl_gpu::program::{BasicBlock, BlockId, Kernel, Stmt};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Probe scratch registers. The generator reserves `r28..=r31` as
/// always-dead temporaries, so the probe can clobber them freely; `p0` is
/// a scratch predicate with no live uses after the generated body.
const R_BALLOT: Reg = Reg(28);
const R_TID: Reg = Reg(29);
const R_BASE: Reg = Reg(30);
const R_OLD: Reg = Reg(31);

/// Appends a probe basic block at the *top level* of the generated body.
/// By the reconvergence contract, the warp must re-enter top-level
/// statements with its full initial mask, so the probe's ballot observes
/// exactly the lanes that were live at kernel entry. Layout of the probe
/// buffer (parameter index `kernel.n_params()`):
///
/// ```text
/// [0..8)              atomic retire counter
/// [8 + 8*gtid ..]     ballot mask observed by thread `gtid`
/// ```
fn with_probe(mut kernel: GeneratedKernel) -> GeneratedKernel {
    let probe_param = kernel.n_params();
    let insts = vec![
        Inst::new(InstOp::LdParam {
            dst: R_BASE,
            index: probe_param,
        }),
        // Retire exactly once: one atomic increment per thread.
        Inst::new(InstOp::Atomic {
            op: AtomicOp::Add,
            dst: R_OLD,
            space: MemSpace::Global,
            addr: Operand::Reg(R_BASE),
            value: Operand::Imm(1),
            width: MemWidth::B8,
        }),
        Inst::new(InstOp::Special {
            dst: R_TID,
            sr: SpecialReg::GlobalTid,
        }),
        // Always-true predicate, so Ballot reports the active mask itself.
        Inst::new(InstOp::SetP {
            pred: Pred(0),
            op: CmpOp::GeU,
            a: Operand::Reg(R_TID),
            b: Operand::Imm(0),
        }),
        Inst::new(InstOp::Ballot {
            dst: R_BALLOT,
            pred: Pred(0),
        }),
        Inst::new(InstOp::Bin {
            op: BinOp::Mul,
            dst: R_TID,
            a: Operand::Reg(R_TID),
            b: Operand::Imm(8),
        }),
        Inst::new(InstOp::Bin {
            op: BinOp::Add,
            dst: R_TID,
            a: Operand::Reg(R_TID),
            b: Operand::Reg(R_BASE),
        }),
        Inst::new(InstOp::Bin {
            op: BinOp::Add,
            dst: R_TID,
            a: Operand::Reg(R_TID),
            b: Operand::Imm(8),
        }),
        Inst::new(InstOp::St {
            space: MemSpace::Global,
            addr: Operand::Reg(R_TID),
            value: Operand::Reg(R_BALLOT),
            width: MemWidth::B8,
        }),
    ];
    let bb = BlockId(kernel.program.blocks.len() as u32);
    kernel.program.blocks.push(BasicBlock { insts });
    kernel.program.body.0.push(Stmt::Block(bb));
    // The probe adds dynamic instructions; lift deliberately-tiny fuel
    // budgets so the invariants are observed on completed launches.
    kernel.fuel = kernel.fuel.max(2_000_000);
    kernel
        .program
        .validate()
        .expect("probe must keep the program valid");
    kernel
}

/// Runs a probed kernel and returns `(retire counter, per-thread ballots,
/// stats)`, or `None` when the launch faults (wild loads, division by
/// zero, ... — the generator plants those deliberately).
fn run_probed(
    kernel: &GeneratedKernel,
    interpreter: Interpreter,
) -> Option<(u64, Vec<u64>, LaunchStats)> {
    let mut mem = DeviceMemory::new();
    let mut args = kernel.setup(&mut mem);
    let total = kernel.config.total_threads();
    let probe_bytes = 8 + 8 * total as usize;
    let (_, probe_base) = mem.alloc(probe_bytes);
    mem.write_bytes(probe_base, &vec![0u8; probe_bytes])
        .expect("probe buffer zero-fill");
    args.push(probe_base);
    let launchable = Kernel::new(kernel.program.clone()).expect("probed programs validate");
    let stats = launch_with_options(
        &mut mem,
        &launchable,
        kernel.config,
        &args,
        &mut NullHook,
        LaunchOptions {
            fuel: kernel.fuel,
            warp_size: kernel.warp_size,
            interpreter,
            cancel: None,
        },
    )
    .ok()?;
    let retired = mem.load(probe_base, 8).expect("retire counter readback");
    let ballots = (0..total)
        .map(|i| {
            mem.load(probe_base + 8 + 8 * i, 8)
                .expect("ballot slot readback")
        })
        .collect();
    Some((retired, ballots, stats))
}

/// The full initial active mask of the warp containing global thread
/// `gtid`: one bit per lane whose linear thread id falls inside the block.
fn expected_warp_mask(kernel: &GeneratedKernel, gtid: u64) -> u64 {
    let block_threads = kernel.config.block.total();
    let ws = u64::from(kernel.warp_size);
    let tid_linear = gtid % block_threads;
    let warp_in_block = tid_linear / ws;
    let live = (block_threads - warp_in_block * ws).min(ws);
    if live == 64 {
        u64::MAX
    } else {
        (1u64 << live) - 1
    }
}

fn assert_probe_invariants(
    kernel: &GeneratedKernel,
    (name, interpreter): (&str, Interpreter),
) -> Result<bool, TestCaseError> {
    let Some((retired, ballots, stats)) = run_probed(kernel, interpreter) else {
        return Ok(false);
    };
    let total = kernel.config.total_threads();
    prop_assert_eq!(
        retired,
        total,
        "{}: every thread must retire exactly once",
        name
    );
    for (gtid, &ballot) in ballots.iter().enumerate() {
        prop_assert_eq!(
            ballot,
            expected_warp_mask(kernel, gtid as u64),
            "{}: thread {} saw a partial mask at top level — the \
             divergence stack did not unwind",
            name,
            gtid
        );
    }
    let c = &stats.counters;
    prop_assert!(
        c.reconvergences <= c.divergence_events,
        "{}: reconvergences {} > divergence events {}",
        name,
        c.reconvergences,
        c.divergence_events
    );
    prop_assert!(
        c.divergence_events <= c.branches,
        "{}: divergence events {} > branches {}",
        name,
        c.divergence_events,
        c.branches
    );
    Ok(true)
}

proptest! {
    /// Invariants 1 and 2 (mask restoration, retire-once) plus the
    /// counter orderings, on both interpreters, for random kernels.
    #[test]
    fn probe_observes_full_mask_and_single_retirement(seed in any::<u64>()) {
        let kernel = with_probe(GeneratedKernel::generate(seed));
        for interpreter in INTERPRETERS {
            assert_probe_invariants(&kernel, interpreter)?;
        }
    }

    /// Invariant 3 on unmodified generated kernels (including the
    /// tiny-fuel and deliberately-faulting population): whenever a launch
    /// completes, reconvergences ≤ divergence events ≤ branches.
    #[test]
    fn counter_ordering_holds_on_raw_kernels(seed in any::<u64>()) {
        let kernel = GeneratedKernel::generate(seed);
        for (_, interpreter) in INTERPRETERS {
            if let Ok(stats) = &run_kernel(&kernel, interpreter).result {
                let c = &stats.counters;
                prop_assert!(c.reconvergences <= c.divergence_events);
                prop_assert!(c.divergence_events <= c.branches);
            }
        }
    }
}

/// Guard against the skip-everything degeneracy: over a fixed seed range,
/// a clear majority of probed launches must complete so the property
/// tests above actually exercise the invariants.
#[test]
fn most_probed_launches_complete() {
    let mut completed = 0;
    for seed in 0..64u64 {
        let kernel = with_probe(GeneratedKernel::generate(seed));
        if run_probed(&kernel, launch_lowered).is_some() {
            completed += 1;
        }
    }
    assert!(
        completed >= 40,
        "only {completed}/64 probed launches completed — generator fault \
         rates drifted and the invariant tests lost their coverage"
    );
}

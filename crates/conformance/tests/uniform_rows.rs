//! Uniform rows against the reference oracle, one hand-built kernel per
//! way a warp-uniform value can stop being uniform.
//!
//! The warp interpreter tags a register slot whose row holds one value in
//! every lane, evaluates instructions on tagged operands once, and loads a
//! shared address once; the oracle runs every lane on its own. Each kernel
//! below writes a value where a wrong tag would hand some lane another
//! lane's bits, so the mistake shows in memory: every test checks the
//! expected output and that both interpreters agree on the launch outcome,
//! memory and every hook event.

use owl_conformance::launch_oracle;
use owl_gpu::error::ExecError;
use owl_gpu::exec::{launch_lowered, launch_with_options, Interpreter, LaunchOptions, LaunchStats};
use owl_gpu::grid::LaunchConfig;
use owl_gpu::hook::RecordingHook;
use owl_gpu::isa::{
    BinOp, CmpOp, Inst, InstOp, MemSpace, MemWidth, Operand, Pred, Reg, ShflMode, SpecialReg,
};
use owl_gpu::mem::DeviceMemory;
use owl_gpu::program::{BasicBlock, BlockId, Kernel, KernelProgram, Region, Stmt};

/// Bytes between output rows: one 8-byte cell per thread, up to 64 threads.
const ROW: u64 = 512;

/// Instructions per launch: far more than any kernel here needs, so a
/// loop a wrong tag keeps alive ends in `FuelExhausted` at once.
const FUEL: u64 = 100_000;

fn r(n: u16) -> Operand {
    Operand::Reg(Reg(n))
}

fn bin(dst: u16, op: BinOp, a: Operand, b: impl Into<Operand>) -> Inst {
    Inst::new(InstOp::Bin {
        op,
        dst: Reg(dst),
        a,
        b: b.into(),
    })
}

fn mov(dst: u16, src: impl Into<Operand>) -> Inst {
    Inst::new(InstOp::Mov {
        dst: Reg(dst),
        src: src.into(),
    })
}

fn param(dst: u16, index: u16) -> Inst {
    Inst::new(InstOp::LdParam {
        dst: Reg(dst),
        index,
    })
}

fn special(dst: u16, sr: SpecialReg) -> Inst {
    Inst::new(InstOp::Special { dst: Reg(dst), sr })
}

fn setp(pred: u16, op: CmpOp, a: Operand, b: impl Into<Operand>) -> Inst {
    Inst::new(InstOp::SetP {
        pred: Pred(pred),
        op,
        a,
        b: b.into(),
    })
}

fn sel(dst: u16, pred: u16, a: Operand, b: impl Into<Operand>) -> Inst {
    Inst::new(InstOp::Sel {
        dst: Reg(dst),
        pred: Pred(pred),
        a,
        b: b.into(),
    })
}

fn ld(dst: u16, space: MemSpace, addr: impl Into<Operand>) -> Inst {
    Inst::new(InstOp::Ld {
        dst: Reg(dst),
        space,
        addr: addr.into(),
        width: MemWidth::B8,
    })
}

fn st(space: MemSpace, addr: impl Into<Operand>, value: u16) -> Inst {
    Inst::new(InstOp::St {
        space,
        addr: addr.into(),
        value: r(value),
        width: MemWidth::B8,
    })
}

/// The prologue every kernel starts with: `r0 = out`, `r1 = global tid`.
fn prologue() -> Vec<Inst> {
    vec![param(0, 0), special(1, SpecialReg::GlobalTid)]
}

/// `[out + row * ROW + tid * 8] = value`, through `tmp`.
fn store_cell(tmp: u16, row: u64, value: u16) -> [Inst; 4] {
    [
        bin(tmp, BinOp::Mul, r(1), 8u64),
        bin(tmp, BinOp::Add, r(tmp), r(0)),
        bin(tmp, BinOp::Add, r(tmp), row * ROW),
        st(MemSpace::Global, r(tmp), value),
    ]
}

fn block(id: u32) -> Stmt {
    Stmt::Block(BlockId(id))
}

/// `if p0 { then } else { else_ }` between blocks `head` and `join`.
fn diverge(head: u32, then: Option<u32>, else_: Option<u32>, join: u32) -> Vec<Stmt> {
    let region = |b: Option<u32>| Region(b.into_iter().map(block).collect());
    vec![
        block(head),
        Stmt::If {
            pred: Pred(0),
            then_region: region(then),
            else_region: region(else_),
        },
        block(join),
    ]
}

/// A kernel of `num_regs` registers, two predicates, and the given shared
/// and per-lane local bytes.
fn kernel(
    name: &str,
    num_regs: u16,
    blocks: Vec<Vec<Inst>>,
    body: Vec<Stmt>,
    shared_mem_bytes: u32,
    local_mem_bytes: u32,
) -> Kernel {
    Kernel::new(KernelProgram {
        name: name.into(),
        blocks: blocks
            .into_iter()
            .map(|insts| BasicBlock { insts })
            .collect(),
        body: Region(body),
        num_regs,
        num_preds: 2,
        shared_mem_bytes,
        local_mem_bytes,
    })
    .expect("hand-built kernels validate")
}

/// What one interpreter left behind.
struct Outcome {
    result: Result<LaunchStats, ExecError>,
    /// `rows` output rows of one value per global thread.
    rows: Vec<Vec<u64>>,
    events: RecordingHook,
    /// The address of the input buffer (parameter 1).
    input: u64,
}

/// Runs `kernel` over `config` on both interpreters, with a zeroed output
/// buffer as parameter 0 and `input` as parameter 1, asserts that they
/// agree on the launch outcome, memory and every hook event, and returns
/// the warp interpreter's outcome.
fn run_both(kernel: &Kernel, config: LaunchConfig, input: &[u64], rows: u64) -> Outcome {
    let threads = config.total_threads();
    let run = |interpreter: Interpreter| {
        let mut mem = DeviceMemory::new();
        let (_, out) = mem.alloc((rows * ROW) as usize);
        let (_, input_addr) = mem.alloc(8 * input.len().max(1));
        for (i, &v) in input.iter().enumerate() {
            mem.store(input_addr + 8 * i as u64, 8, v).unwrap();
        }
        let mut events = RecordingHook::default();
        let result = launch_with_options(
            &mut mem,
            kernel,
            config,
            &[out, input_addr],
            &mut events,
            LaunchOptions {
                interpreter,
                fuel: FUEL,
                ..LaunchOptions::default()
            },
        );
        let rows = (0..rows)
            .map(|row| {
                (0..threads)
                    .map(|t| mem.load(out + row * ROW + 8 * t, 8).unwrap())
                    .collect()
            })
            .collect();
        Outcome {
            result,
            rows,
            events,
            input: input_addr,
        }
    };
    let fast = run(launch_lowered);
    let oracle = run(launch_oracle);
    let name = &kernel.name;
    assert_eq!(
        fast.result, oracle.result,
        "{name}: outcome differs from the oracle"
    );
    assert_eq!(
        fast.rows, oracle.rows,
        "{name}: memory differs from the oracle"
    );
    assert_eq!(
        fast.events, oracle.events,
        "{name}: events differ from the oracle"
    );
    fast
}

/// Like [`run_both`], for a launch that must succeed; returns its rows.
fn rows_of(kernel: &Kernel, config: LaunchConfig, input: &[u64], rows: u64) -> Vec<Vec<u64>> {
    let outcome = run_both(kernel, config, input, rows);
    if let Err(e) = outcome.result {
        panic!("{}: {e}", kernel.name);
    }
    outcome.rows
}

fn one_warp() -> LaunchConfig {
    LaunchConfig::new(1u32, 32u32)
}

/// A uniform register rewritten on both sides of a divergent `if`, each
/// under a partial mask, then read by every lane: even lanes see the
/// then-side's value, odd lanes the else-side's, so neither write may tag
/// the row.
#[test]
fn uniform_register_rewritten_under_a_partial_mask() {
    let mut head = prologue();
    head.extend([
        mov(2, 7u64),
        bin(3, BinOp::And, r(1), 1u64),
        setp(0, CmpOp::Eq, r(3), 0u64),
    ]);
    let then = vec![bin(2, BinOp::Mul, r(2), 3u64)];
    let else_ = vec![bin(2, BinOp::Add, r(2), 1u64)];
    let mut join = vec![bin(4, BinOp::Add, r(2), 1000u64)];
    join.extend(store_cell(5, 0, 2));
    join.extend(store_cell(5, 1, 4));
    let k = kernel(
        "partial_rewrite",
        6,
        vec![head, then, else_, join],
        diverge(0, Some(1), Some(2), 3),
        0,
        0,
    );
    let rows = rows_of(&k, one_warp(), &[], 2);
    for (t, (&r2, &r4)) in rows[0].iter().zip(&rows[1]).enumerate() {
        let expect = if t % 2 == 0 { 21 } else { 8 };
        assert_eq!([r2, r4], [expect, expect + 1000], "thread {t}");
    }
}

/// A divergent `if` whose taken side writes uniform values (a parameter
/// and a ballot) and whose other side writes nothing: lanes that skipped
/// the branch keep 0, and a comparison after the join splits the warp.
#[test]
fn divergent_if_writes_a_uniform_value_on_one_side_only() {
    let mut head = prologue();
    head.extend([
        bin(3, BinOp::And, r(1), 3u64),
        setp(0, CmpOp::LtU, r(3), 1u64),
    ]);
    let then = vec![
        param(2, 1),
        Inst::new(InstOp::Ballot {
            dst: Reg(4),
            pred: Pred(0),
        }),
    ];
    let mut join = vec![setp(1, CmpOp::Ne, r(2), 0u64), sel(6, 1, r(4), 99u64)];
    join.extend(store_cell(5, 0, 2));
    join.extend(store_cell(5, 1, 6));
    let k = kernel(
        "one_sided_write",
        7,
        vec![head, then, join],
        diverge(0, Some(1), None, 2),
        0,
        0,
    );
    let outcome = run_both(&k, one_warp(), &[1], 2);
    outcome.result.expect("launch succeeds");
    for t in 0..32 {
        let taken = t % 4 == 0;
        let got = [outcome.rows[0][t], outcome.rows[1][t]];
        let expect = if taken {
            [outcome.input, 0x1111_1111]
        } else {
            [0, 99]
        };
        assert_eq!(got, expect, "thread {t}");
    }
}

/// A `while` whose mask shrinks writes a register that was uniform before
/// the loop: thread `t` iterates `t % 8 + 1` times, so the first iteration
/// runs whole-warp and every later one under a partial mask.
#[test]
fn shrinking_loop_rewrites_a_register_that_was_uniform() {
    let mut entry = prologue();
    entry.extend([
        mov(2, 100u64),
        bin(3, BinOp::And, r(1), 7u64),
        bin(3, BinOp::Add, r(3), 1u64),
        mov(4, 0u64),
    ]);
    let cond = vec![setp(0, CmpOp::LtU, r(4), r(3))];
    let body = vec![
        bin(2, BinOp::Add, r(2), 10u64),
        bin(4, BinOp::Add, r(4), 1u64),
    ];
    let mut exit = store_cell(5, 0, 2).to_vec();
    exit.extend(store_cell(5, 1, 4));
    let k = kernel(
        "shrinking_loop",
        6,
        vec![entry, cond, body, exit],
        vec![
            block(0),
            Stmt::While {
                cond_block: BlockId(1),
                pred: Pred(0),
                body: Region(vec![block(2)]),
            },
            block(3),
        ],
        0,
        0,
    );
    let rows = rows_of(&k, one_warp(), &[], 2);
    for t in 0..32u64 {
        let trips = t % 8 + 1;
        let got = [rows[0][t as usize], rows[1][t as usize]];
        assert_eq!(got, [100 + 10 * trips, trips], "thread {t}");
    }
}

/// A shuffle of a tagged register gives every lane its value, whole-warp
/// and under a guard; a shuffle into that slot from a per-lane source
/// then gives each lane its peer's value.
#[test]
fn shuffle_of_a_tagged_register() {
    let shfl = |mode, dst: u16, src: u16, lane: Operand| InstOp::Shfl {
        mode,
        dst: Reg(dst),
        src: Reg(src),
        lane,
    };
    let mut insts = prologue();
    insts.extend([
        param(2, 1),
        bin(2, BinOp::Add, r(2), 5u64),
        bin(3, BinOp::Add, r(1), 3u64),
        Inst::new(shfl(ShflMode::Idx, 4, 2, r(3))),
        bin(5, BinOp::And, r(1), 1u64),
        setp(0, CmpOp::Eq, r(5), 0u64),
        Inst::guarded(shfl(ShflMode::Xor, 6, 2, Operand::Imm(1)), Pred(0), true),
        Inst::new(shfl(ShflMode::Xor, 2, 1, Operand::Imm(2))),
    ]);
    insts.extend(store_cell(7, 0, 4));
    insts.extend(store_cell(7, 1, 6));
    insts.extend(store_cell(7, 2, 2));
    let k = kernel("tagged_shuffle", 8, vec![insts], vec![block(0)], 0, 0);
    let outcome = run_both(&k, one_warp(), &[], 3);
    outcome.result.expect("launch succeeds");
    let v = outcome.input + 5;
    for t in 0..32u64 {
        let got: Vec<u64> = outcome.rows.iter().map(|row| row[t as usize]).collect();
        let guarded = if t % 2 == 0 { v } else { 0 };
        assert_eq!(got, [v, guarded, t ^ 2], "thread {t}");
    }
}

/// Per-warp special registers (`CtaidX`, `WarpId`, `NCtaidX`) next to
/// per-lane ones (`LaneId`, `TidX`), over two one-warp blocks and one
/// two-warp block, with a per-lane read landing in a slot that held a
/// per-warp value and the other way round.
#[test]
fn uniform_special_register_next_to_a_per_lane_one() {
    let mut insts = prologue();
    insts.extend([
        special(2, SpecialReg::CtaidX),
        special(3, SpecialReg::LaneId),
        bin(4, BinOp::Mul, r(2), 1000u64),
        bin(4, BinOp::Add, r(4), r(3)),
        special(2, SpecialReg::LaneId),
        special(3, SpecialReg::WarpId),
        special(5, SpecialReg::TidX),
        special(5, SpecialReg::NCtaidX),
        bin(5, BinOp::Add, r(5), r(3)),
    ]);
    insts.extend(store_cell(6, 0, 4));
    insts.extend(store_cell(6, 1, 2));
    insts.extend(store_cell(6, 2, 5));
    let k = kernel("special_registers", 7, vec![insts], vec![block(0)], 0, 0);
    let rows = rows_of(&k, LaunchConfig::new(2u32, 32u32), &[], 3);
    for t in 0..64u64 {
        let (cta, lane) = (t / 32, t % 32);
        let got: Vec<u64> = rows.iter().map(|row| row[t as usize]).collect();
        assert_eq!(got, [cta * 1000 + lane, lane, 2], "thread {t}");
    }
    let rows = rows_of(&k, LaunchConfig::new(1u32, 64u32), &[], 3);
    for t in 0..64u64 {
        let got: Vec<u64> = rows.iter().map(|row| row[t as usize]).collect();
        assert_eq!(got, [t % 32, t % 32, 1 + t / 32], "thread {t}");
    }
}

/// A select of two uniform operands under a mixed predicate picks per
/// lane; under a predicate that agrees on every active lane it is a move
/// of the operand it picks, uniform or not.
#[test]
fn select_on_uniform_operands_under_a_mixed_predicate() {
    let mut insts = prologue();
    insts.extend([
        mov(2, 11u64),
        mov(3, 22u64),
        bin(4, BinOp::And, r(1), 1u64),
        setp(0, CmpOp::Eq, r(4), 0u64),
        sel(5, 0, r(2), r(3)),
        // All false: the select picks `b`.
        setp(1, CmpOp::GeU, r(1), 1000u64),
        sel(6, 1, r(1), r(2)),
        sel(7, 1, r(3), r(1)),
        // All true: the select picks `a`.
        setp(1, CmpOp::LtU, r(1), 1000u64),
        sel(6, 1, r(6), r(7)),
        bin(6, BinOp::Add, r(6), r(7)),
    ]);
    insts.extend(store_cell(8, 0, 5));
    insts.extend(store_cell(8, 1, 6));
    let k = kernel("mixed_select", 9, vec![insts], vec![block(0)], 0, 0);
    let rows = rows_of(&k, one_warp(), &[], 2);
    for t in 0..32u64 {
        let picked = if t % 2 == 0 { 11 } else { 22 };
        let got = [rows[0][t as usize], rows[1][t as usize]];
        assert_eq!(got, [picked, 11 + t], "thread {t}");
    }
}

/// Every lane loads local address 8, where each lane's private memory
/// holds its own value: one address, 32 different values, so a local load
/// is never a broadcast.
#[test]
fn local_load_from_one_address_reads_each_lanes_own_memory() {
    let mut insts = prologue();
    insts.extend([
        bin(2, BinOp::Mul, r(1), 7u64),
        bin(2, BinOp::Add, r(2), 1u64),
        st(MemSpace::Local, 8u64, 2),
        mov(3, 8u64),
        ld(4, MemSpace::Local, r(3)),
        ld(5, MemSpace::Local, 8u64),
        bin(5, BinOp::Add, r(5), r(4)),
    ]);
    insts.extend(store_cell(6, 0, 5));
    let k = kernel("local_broadcast", 7, vec![insts], vec![block(0)], 0, 16);
    let rows = rows_of(&k, one_warp(), &[], 1);
    for t in 0..32u64 {
        assert_eq!(rows[0][t as usize], 2 * (7 * t + 1), "thread {t}");
    }
}

/// A broadcast load of an out-of-bounds address fails as the per-lane
/// loop does: `ExecError::Memory` at the first active lane, with no event
/// for the load; the store before it still lands.
#[test]
fn broadcast_load_from_an_out_of_bounds_address_faults() {
    for (space, addr) in [(MemSpace::Global, 0xdead_0000u64), (MemSpace::Shared, 64)] {
        let mut insts = prologue();
        insts.extend([mov(2, 5u64), mov(3, addr)]);
        insts.extend(store_cell(4, 0, 2));
        insts.extend([ld(2, space, r(3)), bin(2, BinOp::Add, r(2), 1u64)]);
        insts.extend(store_cell(4, 1, 2));
        let k = kernel("faulting_broadcast", 5, vec![insts], vec![block(0)], 64, 0);
        let outcome = run_both(&k, one_warp(), &[], 2);
        match outcome.result {
            Err(ExecError::Memory {
                inst_idx,
                space: s,
                warp,
                source,
                ..
            }) => {
                assert_eq!((inst_idx, s, warp.warp), (8, space, 0));
                assert_eq!((source.addr, source.width), (addr, 8));
            }
            other => panic!("{space:?}: expected a memory fault, got {other:?}"),
        }
        assert_eq!(outcome.rows[0], vec![5; 32], "{space:?}");
        assert_eq!(outcome.rows[1], vec![0; 32], "{space:?}");
        assert_eq!(
            outcome.events.accesses.len(),
            1,
            "{space:?}: only the store"
        );
    }
}

/// A block of 40 threads: one full warp and one of 8 valid lanes, which
/// never runs whole-warp. Both load a shared global address, compute on
/// uniform values, compare them and store per thread.
#[test]
fn partial_warp_uses_uniform_values() {
    let mut insts = prologue();
    insts.extend([
        param(2, 1),
        bin(2, BinOp::Add, r(2), 16u64),
        ld(3, MemSpace::Global, r(2)),
        bin(4, BinOp::Mul, r(3), 3u64),
        special(5, SpecialReg::WarpId),
        bin(4, BinOp::Add, r(4), r(5)),
        setp(0, CmpOp::GtU, r(4), 200u64),
        sel(6, 0, r(4), r(1)),
        bin(6, BinOp::Add, r(6), r(1)),
    ]);
    insts.extend(store_cell(7, 0, 4));
    insts.extend(store_cell(7, 1, 6));
    let k = kernel("partial_warp_uniform", 8, vec![insts], vec![block(0)], 0, 0);
    let rows = rows_of(&k, LaunchConfig::new(1u32, 40u32), &[0, 0, 67, 0], 2);
    for t in 0..40u64 {
        let v = 201 + t / 32;
        let got = [rows[0][t as usize], rows[1][t as usize]];
        assert_eq!(got, [v, v + t], "thread {t}");
    }
}

//! The register allocation against the reference oracle, one hand-built
//! kernel per hazard of the sharing rule.
//!
//! The warp interpreter runs a kernel's register-allocated blocks, where
//! block-local temporaries share slots; the oracle runs the program as
//! written, one register per value. Each kernel below places a value where
//! a wrong rule would hand it a slot that still holds another value's
//! bits, so the mistake shows in memory: every test checks the expected
//! output and that both interpreters agree on memory and every hook event.

use owl_conformance::launch_oracle;
use owl_gpu::exec::{launch_lowered, launch_with_options, Interpreter, LaunchOptions};
use owl_gpu::grid::LaunchConfig;
use owl_gpu::hook::RecordingHook;
use owl_gpu::isa::{
    BinOp, CmpOp, Inst, InstOp, MemSpace, MemWidth, Operand, Pred, Reg, ShflMode, SpecialReg,
};
use owl_gpu::mem::DeviceMemory;
use owl_gpu::program::{BasicBlock, BlockId, Kernel, KernelProgram, Region, Stmt};

/// Bytes between output rows: one 8-byte cell per thread, up to 64 threads.
const ROW: u64 = 512;

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

fn param(dst: u16) -> Inst {
    Inst::new(InstOp::LdParam {
        dst: Reg(dst),
        index: 0,
    })
}

fn tid(dst: u16) -> Inst {
    Inst::new(InstOp::Special {
        dst: Reg(dst),
        sr: SpecialReg::GlobalTid,
    })
}

fn setp(pred: u16, op: CmpOp, a: Operand, b: impl Into<Operand>) -> Inst {
    Inst::new(InstOp::SetP {
        pred: Pred(pred),
        op,
        a,
        b: b.into(),
    })
}

/// `[addr] = value`, eight bytes of global memory.
fn st(addr: u16, value: u16) -> Inst {
    Inst::new(InstOp::St {
        space: MemSpace::Global,
        addr: r(addr),
        value: r(value),
        width: MemWidth::B8,
    })
}

/// `dst = out + row * ROW + tid * 8`, through `dst` alone, from the
/// registers holding `out` and `tid`.
fn cell(dst: u16, out: u16, tid: u16, row: u64) -> [Inst; 3] {
    [
        bin(dst, BinOp::Mul, r(tid), 8u64),
        bin(dst, BinOp::Add, r(dst), r(out)),
        bin(dst, BinOp::Add, r(dst), row * ROW),
    ]
}

/// Builds the kernel and checks that its allocation shares slots at all.
fn program(name: &str, num_regs: u16, blocks: Vec<Vec<Inst>>, body: Vec<Stmt>) -> Kernel {
    let kernel = Kernel::new(KernelProgram {
        name: name.into(),
        blocks: blocks
            .into_iter()
            .map(|insts| BasicBlock { insts })
            .collect(),
        body: Region(body),
        num_regs,
        num_preds: 1,
        shared_mem_bytes: 0,
        local_mem_bytes: 0,
    })
    .expect("hand-built kernels validate");
    assert!(
        kernel.slots() < kernel.num_regs,
        "{}: the kernel must share slots for the test to mean anything",
        kernel.name
    );
    kernel
}

fn block(id: u32) -> Stmt {
    Stmt::Block(BlockId(id))
}

/// Runs `kernel` over one CTA of `threads` threads on both interpreters,
/// asserts that they agree on the launch outcome, memory and every hook
/// event, and returns `rows` output rows of one value per thread.
fn run_both(kernel: &Kernel, threads: u32, rows: u64) -> Vec<Vec<u64>> {
    let run = |interpreter: Interpreter| {
        let mut mem = DeviceMemory::new();
        let (_, out) = mem.alloc((rows * ROW) as usize);
        let mut hook = RecordingHook::default();
        let result = launch_with_options(
            &mut mem,
            kernel,
            LaunchConfig::new(1u32, threads),
            &[out],
            &mut hook,
            LaunchOptions {
                interpreter,
                ..LaunchOptions::default()
            },
        );
        let values: Vec<Vec<u64>> = (0..rows)
            .map(|row| {
                (0..u64::from(threads))
                    .map(|t| mem.load(out + row * ROW + 8 * t, 8).unwrap())
                    .collect()
            })
            .collect();
        (result, values, hook)
    };
    let (fast_result, fast, fast_events) = run(launch_lowered);
    let (oracle_result, oracle, oracle_events) = run(launch_oracle);
    let name = &kernel.name;
    assert_eq!(
        fast_result, oracle_result,
        "{name}: outcome differs from the oracle"
    );
    assert_eq!(fast, oracle, "{name}: memory differs from the oracle");
    assert_eq!(
        fast_events, oracle_events,
        "{name}: events differ from the oracle"
    );
    if let Err(e) = fast_result {
        panic!("{name}: {e}");
    }
    fast
}

/// A value first written on the taken side of a divergent `if` lives in
/// two blocks, so it keeps its own slot: lanes that skipped the branch
/// read 0 after the join, not an entry-block temporary's bits.
#[test]
fn value_first_written_in_a_divergent_branch_reads_zero_after_the_join() {
    let entry = vec![
        param(0),
        tid(1),
        // Entry temporaries, nonzero in every lane.
        bin(2, BinOp::Add, r(1), 100u64),
        bin(3, BinOp::Mul, r(2), 3u64),
        bin(4, BinOp::Xor, r(3), 0x5a5au64),
        bin(5, BinOp::And, r(1), 1u64),
        setp(0, CmpOp::Eq, r(5), 0u64),
    ];
    let taken = vec![
        bin(6, BinOp::Mul, r(1), 3u64),
        bin(7, BinOp::Add, r(6), 1u64),
    ];
    let join: Vec<Inst> = cell(8, 0, 1, 0).into_iter().chain([st(8, 7)]).collect();
    let kernel = program(
        "divergent_first_write",
        9,
        vec![entry, taken, join],
        vec![
            block(0),
            Stmt::If {
                pred: Pred(0),
                then_region: Region(vec![block(1)]),
                else_region: Region::new(),
            },
            block(2),
        ],
    );
    let rows = run_both(&kernel, 32, 1);
    for (t, &v) in rows[0].iter().enumerate() {
        let expect = if t % 2 == 0 { 3 * t as u64 + 1 } else { 0 };
        assert_eq!(v, expect, "thread {t}");
    }
}

/// A value first written under a guard keeps its own slot: lanes the guard
/// skipped read 0, not the bits of a temporary that died just before.
#[test]
fn value_first_written_under_a_guard_reads_zero_where_the_guard_failed() {
    let mut insts = vec![param(0), tid(1)];
    insts.extend(cell(2, 0, 1, 0));
    insts.extend([
        bin(3, BinOp::Mul, r(1), 11u64),
        bin(4, BinOp::Add, r(3), 13u64),
        st(2, 4),
        bin(5, BinOp::And, r(1), 3u64),
        setp(0, CmpOp::Eq, r(5), 0u64),
        // r6's first write is guarded.
        Inst::guarded(
            InstOp::Bin {
                op: BinOp::Add,
                dst: Reg(6),
                a: r(1),
                b: Operand::Imm(7),
            },
            Pred(0),
            true,
        ),
    ]);
    insts.extend(cell(7, 0, 1, 1));
    insts.push(st(7, 6));
    let kernel = program("guarded_first_write", 8, vec![insts], vec![block(0)]);
    let rows = run_both(&kernel, 32, 2);
    for t in 0..32u64 {
        assert_eq!(rows[0][t as usize], 11 * t + 13, "thread {t}");
        let expect = if t % 4 == 0 { t + 7 } else { 0 };
        assert_eq!(rows[1][t as usize], expect, "thread {t}");
    }
}

/// A register read before any write must read 0, even where the slot of a
/// temporary that just died would be free for it.
#[test]
fn register_read_before_any_write_reads_zero_in_a_freed_slot() {
    let mut insts = vec![param(0), tid(1)];
    insts.extend(cell(2, 0, 1, 0));
    insts.extend([bin(3, BinOp::Add, r(1), 21u64), st(2, 3)]);
    insts.extend(cell(4, 0, 1, 1));
    // r5 is read here, before anything writes it.
    insts.push(st(4, 5));
    insts.push(bin(5, BinOp::Add, r(1), 5u64));
    insts.extend(cell(6, 0, 1, 2));
    insts.push(st(6, 5));
    let kernel = program("read_before_write", 7, vec![insts], vec![block(0)]);
    let rows = run_both(&kernel, 32, 3);
    for t in 0..32u64 {
        let got: Vec<u64> = rows.iter().map(|row| row[t as usize]).collect();
        assert_eq!(got, [t + 21, 0, t + 5], "thread {t}");
    }
}

/// A slot stays taken until its temporary's last access, not its last
/// read: a dead write after the last read must not land in the slot of a
/// temporary born in between.
#[test]
fn dead_write_after_the_last_read_keeps_the_slot_until_the_write() {
    let mut insts = vec![
        param(0),
        tid(1),
        bin(2, BinOp::Add, r(1), 21u64),
        // r2's last read.
        bin(3, BinOp::Mul, r(2), 2u64),
        bin(4, BinOp::Add, r(1), 5u64),
        // A dead write to r2 while r4 is live.
        mov(2, 99u64),
    ];
    insts.extend(cell(5, 0, 1, 0));
    insts.push(st(5, 3));
    insts.extend(cell(6, 0, 1, 1));
    insts.push(st(6, 4));
    let kernel = program("dead_write", 7, vec![insts], vec![block(0)]);
    let rows = run_both(&kernel, 32, 2);
    for t in 0..32u64 {
        let got: Vec<u64> = rows.iter().map(|row| row[t as usize]).collect();
        assert_eq!(got, [2 * (t + 21), t + 5], "thread {t}");
    }
}

/// Temporaries of a loop body visited with a shrinking mask: thread `t`
/// iterates `t % 8 + 1` times. `r11` lives only in the body and is read
/// before the body writes it, so it carries each lane's previous
/// iteration (0 in the first) and keeps its own slot.
#[test]
fn loop_body_temporaries_survive_a_shrinking_mask() {
    let entry = vec![
        param(0),
        tid(1),
        bin(2, BinOp::And, r(1), 7u64),
        bin(3, BinOp::Add, r(2), 1u64),
        mov(4, 0u64),
        mov(5, 0u64),
    ];
    let cond = vec![setp(0, CmpOp::LtU, r(4), r(3))];
    let body = vec![
        bin(6, BinOp::Mul, r(4), 7u64),
        bin(7, BinOp::Add, r(6), r(1)),
        bin(8, BinOp::Mul, r(7), r(7)),
        bin(5, BinOp::Add, r(5), r(8)),
        bin(5, BinOp::Add, r(5), r(11)),
        mov(11, r(8)),
        bin(4, BinOp::Add, r(4), 1u64),
    ];
    let exit: Vec<Inst> = cell(9, 0, 1, 0).into_iter().chain([st(9, 5)]).collect();
    let kernel = program(
        "shrinking_loop",
        12,
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
    );
    let rows = run_both(&kernel, 32, 1);
    for t in 0..32u64 {
        let squares: Vec<u64> = (0..t % 8 + 1).map(|i| (7 * i + t).pow(2)).collect();
        let carried: u64 = squares[..squares.len() - 1].iter().sum();
        assert_eq!(
            rows[0][t as usize],
            squares.iter().sum::<u64>() + carried,
            "thread {t}"
        );
    }
}

/// A block of 40 threads: the second warp has 8 valid lanes. A shuffle
/// across the 8-lane boundary reads an inactive peer there and keeps the
/// lane's own value, and a divergent branch and a guarded write behave as
/// in a full warp.
#[test]
fn partial_warp_agrees_with_the_oracle() {
    let entry = vec![
        param(0),
        tid(1),
        bin(2, BinOp::Mul, r(1), 5u64),
        bin(3, BinOp::Add, r(2), 3u64),
        Inst::new(InstOp::Shfl {
            mode: ShflMode::Xor,
            dst: Reg(4),
            src: Reg(3),
            lane: Operand::Imm(8),
        }),
        bin(5, BinOp::And, r(1), 1u64),
        setp(0, CmpOp::Eq, r(5), 0u64),
    ];
    let taken = vec![bin(6, BinOp::Add, r(4), 1u64)];
    let mut join: Vec<Inst> = cell(7, 0, 1, 0).into_iter().collect();
    join.extend([
        st(7, 4),
        Inst::guarded(
            InstOp::Mov {
                dst: Reg(8),
                src: r(1),
            },
            Pred(0),
            false,
        ),
    ]);
    join.extend(cell(9, 0, 1, 1));
    join.push(st(9, 6));
    join.extend(cell(10, 0, 1, 2));
    join.push(st(10, 8));
    let kernel = program(
        "partial_warp",
        11,
        vec![entry, taken, join],
        vec![
            block(0),
            Stmt::If {
                pred: Pred(0),
                then_region: Region(vec![block(1)]),
                else_region: Region::new(),
            },
            block(2),
        ],
    );
    let rows = run_both(&kernel, 40, 3);
    for t in 0..40u64 {
        // Lanes of the second warp have no valid peer across bit 3.
        let shuffled = if t < 32 { 5 * (t ^ 8) + 3 } else { 5 * t + 3 };
        let even = t % 2 == 0;
        let got: Vec<u64> = rows.iter().map(|row| row[t as usize]).collect();
        assert_eq!(
            got,
            [
                shuffled,
                if even { shuffled + 1 } else { 0 },
                if even { 0 } else { t },
            ],
            "thread {t}"
        );
    }
}

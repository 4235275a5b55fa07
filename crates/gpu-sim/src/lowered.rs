//! Register allocation: the form of a kernel the warp interpreter runs.
//!
//! [`crate::build::KernelBuilder`] gives every value a register of its
//! own, so an unrolled kernel declares thousands of registers, and a warp
//! would zero and walk a register file that large on every launch.
//! [`allocate`] runs once per kernel, in [`Kernel::new`], and renumbers a
//! copy of the blocks so that *block-local temporaries* share register
//! slots. The warp interpreter executes that copy; the authoring IR, which
//! the static readers (disassembler, static baseline, leak annotation) see,
//! keeps one register per value. The copy is private to this crate, so an
//! interpreter built outside it, such as the conformance suite's reference
//! oracle, can only execute the program as written.
//!
//! A register is a block-local temporary when every read and write of it
//! lies in one basic block and the first of them is an *unguarded* write.
//! Temporaries share slots through a linear scan in instruction order: a
//! slot frees after its temporary's last access and is reused from the
//! next instruction on. Every other register keeps a slot of its own.
//!
//! Why sharing is unobservable: within one visit of a block the active
//! mask is fixed, so an unguarded first write sets every lane that can
//! read the value during that visit. ALU write-back, memory instructions
//! and `Shfl` (which reads only active peers) touch only active lanes, so
//! the bits an inactive lane keeps from another value are never read.
//! Three cases would expose such bits, and the rule gives each its own
//! slot: a value first written in one branch and read after the join
//! (accesses in two blocks), a value first written under a guard, and a
//! register read before any write, which must read 0.
//!
//! Only register numbers change: instruction order, guards, immediates
//! and every instruction (dead ones included) stay as written, so block
//! ids, `inst_idx` coordinates, memory events, counters and fuel are the
//! program's own. [`same_shape`] states that property, and `Kernel::new`
//! debug-asserts it of every kernel it builds.
//!
//! [`Kernel::new`]: crate::program::Kernel::new

use crate::isa::{Inst, InstOp, Operand, Reg};
use crate::program::{BasicBlock, KernelProgram};

/// How an instruction touches one of its registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    Read,
    Write,
}

/// Calls `f` on every register operand of `op`: its reads first, in
/// operand order, then its destination. An instruction that reads and
/// writes one register therefore reads it first, as it executes.
fn visit_regs(op: &mut InstOp, f: &mut impl FnMut(&mut Reg, Access)) {
    fn read(o: &mut Operand, f: &mut impl FnMut(&mut Reg, Access)) {
        if let Operand::Reg(r) = o {
            f(r, Access::Read);
        }
    }
    let dst = match op {
        InstOp::Mov { dst, src } => {
            read(src, f);
            Some(dst)
        }
        InstOp::Un { dst, a, .. } => {
            read(a, f);
            Some(dst)
        }
        InstOp::Ld { dst, addr, .. } => {
            read(addr, f);
            Some(dst)
        }
        InstOp::Bin { dst, a, b, .. } | InstOp::Sel { dst, a, b, .. } => {
            read(a, f);
            read(b, f);
            Some(dst)
        }
        InstOp::Atomic {
            dst, addr, value, ..
        } => {
            read(addr, f);
            read(value, f);
            Some(dst)
        }
        InstOp::Tex { dst, x, y, .. } => {
            read(x, f);
            read(y, f);
            Some(dst)
        }
        InstOp::Shfl { dst, src, lane, .. } => {
            f(src, Access::Read);
            read(lane, f);
            Some(dst)
        }
        InstOp::SetP { a, b, .. } => {
            read(a, f);
            read(b, f);
            None
        }
        InstOp::St { addr, value, .. } => {
            read(addr, f);
            read(value, f);
            None
        }
        InstOp::LdParam { dst, .. } | InstOp::Special { dst, .. } | InstOp::Ballot { dst, .. } => {
            Some(dst)
        }
    };
    if let Some(dst) = dst {
        f(dst, Access::Write);
    }
}

/// `inst` with every register operand replaced by `r0`.
fn without_regs(inst: &Inst) -> Inst {
    let mut inst = inst.clone();
    visit_regs(&mut inst.op, &mut |r, _| *r = Reg(0));
    inst
}

/// The registers `inst` names, in visiting order.
fn regs_of(inst: &Inst) -> Vec<u16> {
    let mut regs = Vec::new();
    visit_regs(&mut inst.clone().op, &mut |r, _| regs.push(r.0));
    regs
}

/// Whether `allocated` has `program`'s shape: the same blocks,
/// instructions, opcodes, guards and immediates, with only register
/// numbers changed, each register renamed to one slot below
/// `slots <= num_regs` everywhere it appears.
pub(crate) fn same_shape(program: &KernelProgram, allocated: &[BasicBlock], slots: u16) -> bool {
    let mut slot_of = vec![None; usize::from(program.num_regs)];
    slots <= program.num_regs
        && allocated.len() == program.blocks.len()
        && program
            .blocks
            .iter()
            .zip(allocated)
            .all(|(written, allocated)| {
                written.insts.len() == allocated.insts.len()
                    && written.insts.iter().zip(&allocated.insts).all(|(w, a)| {
                        without_regs(w) == without_regs(a)
                            && regs_of(w).into_iter().zip(regs_of(a)).all(|(r, s)| {
                                s < slots && *slot_of[usize::from(r)].get_or_insert(s) == s
                            })
                    })
            })
}

/// Where one register of the program is accessed.
#[derive(Debug, Clone, Copy)]
struct Live {
    /// The block of its first access.
    block: usize,
    /// Index of its first and last access within `block`.
    first: usize,
    last: usize,
    /// Every access is in `block`, and the first is an unguarded write.
    temp: bool,
}

/// Allocates `program`'s registers (see the [module docs](self)) and
/// returns the renumbered copy of its blocks with the number of register
/// slots each lane needs. `program` must be valid.
pub(crate) fn allocate(program: &KernelProgram) -> (Vec<BasicBlock>, u16) {
    let mut blocks = program.blocks.clone();
    let mut live: Vec<Option<Live>> = vec![None; usize::from(program.num_regs)];
    for (b, block) in blocks.iter_mut().enumerate() {
        for (i, inst) in block.insts.iter_mut().enumerate() {
            let guarded = inst.guard.is_some();
            visit_regs(&mut inst.op, &mut |r, access| {
                let entry = &mut live[usize::from(r.0)];
                match entry {
                    None => {
                        *entry = Some(Live {
                            block: b,
                            first: i,
                            last: i,
                            temp: access == Access::Write && !guarded,
                        });
                    }
                    Some(l) if l.block == b => l.last = i,
                    Some(l) => l.temp = false,
                }
            });
        }
    }

    // Registers that are not temporaries keep slots of their own, in
    // register order; the temporaries' slots follow them.
    let mut slot = vec![0u16; live.len()];
    let mut fixed = 0u16;
    for (r, l) in live.iter().enumerate() {
        if l.is_some_and(|l| !l.temp) {
            slot[r] = fixed;
            fixed += 1;
        }
    }
    let mut temp_slots = 0u16;
    let mut free = Vec::new();
    let mut ended = Vec::new();
    for block in &mut blocks {
        // No temporary outlives its block, so every block starts with all
        // temporary slots free.
        free.clear();
        let mut used = 0u16;
        for (i, inst) in block.insts.iter_mut().enumerate() {
            visit_regs(&mut inst.op, &mut |r, access| {
                let orig = usize::from(r.0);
                let l = live[orig].expect("every accessed register was seen");
                if l.temp {
                    if access == Access::Write && l.first == i {
                        slot[orig] = fixed
                            + free.pop().unwrap_or_else(|| {
                                used += 1;
                                used - 1
                            });
                    }
                    if l.last == i && !ended.contains(&orig) {
                        ended.push(orig);
                    }
                }
                *r = Reg(slot[orig]);
            });
            // Freed only after the instruction, so a slot is never read
            // and written by the same instruction for two values.
            free.extend(ended.drain(..).map(|r| slot[r] - fixed));
        }
        temp_slots = temp_slots.max(used);
    }
    (blocks, fixed + temp_slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::KernelBuilder;
    use crate::isa::{BinOp, CmpOp, MemSpace, MemWidth, Pred, SpecialReg};
    use crate::program::{BlockId, Kernel, Region, Stmt};

    /// The allocated copy has the program's shape ([`same_shape`]).
    fn assert_same_shape(kernel: &Kernel) {
        assert!(same_shape(kernel, kernel.allocated(), kernel.slots()));
    }

    /// A register renamed to two slots, a slot count below the slots named
    /// and a dropped instruction each break the shape.
    #[test]
    fn same_shape_rejects_a_changed_copy() {
        let b = KernelBuilder::new("broken");
        let out = b.param(0);
        let tid = b.special(SpecialReg::GlobalTid);
        b.store_global(b.add(out, tid), tid, MemWidth::B1);
        let k = b.finish();
        let mut copy = k.allocated().to_vec();
        visit_regs(&mut copy[0].insts[1].op, &mut |r, _| *r = Reg(r.0 + 1));
        assert!(!same_shape(&k, &copy, k.slots()));
        assert!(!same_shape(&k, k.allocated(), 0));
        let mut copy = k.allocated().to_vec();
        copy.last_mut().unwrap().insts.pop();
        assert!(!same_shape(&k, &copy, k.slots()));
    }

    #[test]
    fn allocated_copy_has_the_programs_shape() {
        let b = KernelBuilder::new("shape");
        let out = b.param(0);
        let tid = b.special(SpecialReg::GlobalTid);
        let p = b.setp(CmpOp::LtU, tid, 8u64);
        let acc = b.mov(0u64);
        b.if_then(p, |b| {
            let t = b.mul(tid, 3u64);
            b.assign_if(p, true, acc, b.add(t, 1u64));
        });
        b.store_global(b.add(out, tid), acc, MemWidth::B1);
        assert_same_shape(&b.finish());
    }

    /// The slot each register of `kernel` was renamed to.
    fn slot_map(kernel: &Kernel) -> Vec<Option<u16>> {
        let mut slot_of = vec![None; usize::from(kernel.num_regs)];
        let written = kernel.blocks.iter().flat_map(|b| &b.insts);
        let allocated = kernel.allocated().iter().flat_map(|b| &b.insts);
        for (w, a) in written.zip(allocated) {
            for (r, s) in regs_of(w).into_iter().zip(regs_of(a)) {
                slot_of[usize::from(r)] = Some(s);
            }
        }
        slot_of
    }

    /// A chain of sums in one block needs two slots however long it is.
    #[test]
    fn a_block_local_chain_reuses_two_slots() {
        let b = KernelBuilder::new("chain");
        let out = b.param(0);
        let mut v = b.special(SpecialReg::GlobalTid);
        for k in 0..64u64 {
            v = b.add(v, k);
        }
        b.store_global(out, v, MemWidth::B8);
        let k = b.finish();
        assert_eq!(k.num_regs, 66);
        // `out` holds one slot; each sum takes the slot its operand's
        // operand freed one instruction earlier.
        assert_eq!(k.slots(), 3);
    }

    /// Temporaries share slots; a value read after a join, a guarded first
    /// write and a read before any write keep slots of their own.
    #[test]
    fn only_block_local_temporaries_share_slots() {
        let r = |n| Operand::Reg(Reg(n));
        let add = |dst, a, b| {
            Inst::new(InstOp::Bin {
                op: BinOp::Add,
                dst: Reg(dst),
                a,
                b,
            })
        };
        let entry = vec![
            Inst::new(InstOp::Special {
                dst: Reg(0),
                sr: SpecialReg::GlobalTid,
            }),
            Inst::new(InstOp::SetP {
                pred: Pred(0),
                op: CmpOp::LtU,
                a: r(0),
                b: Operand::Imm(8),
            }),
            add(1, r(0), Operand::Imm(1)),
            add(2, r(1), Operand::Imm(1)),
            add(3, r(2), Operand::Imm(1)),
            Inst::guarded(
                InstOp::Mov {
                    dst: Reg(4),
                    src: r(0),
                },
                Pred(0),
                true,
            ),
            add(5, r(4), r(6)),
        ];
        let then = vec![add(7, r(0), Operand::Imm(2))];
        let join = vec![Inst::new(InstOp::St {
            space: MemSpace::Global,
            addr: r(7),
            value: r(0),
            width: MemWidth::B8,
        })];
        let k = Kernel::new(KernelProgram {
            name: "hazards".into(),
            blocks: [entry, then, join]
                .into_iter()
                .map(|insts| BasicBlock { insts })
                .collect(),
            body: Region(vec![
                Stmt::Block(BlockId(0)),
                Stmt::If {
                    pred: Pred(0),
                    then_region: Region(vec![Stmt::Block(BlockId(1))]),
                    else_region: Region::new(),
                },
                Stmt::Block(BlockId(2)),
            ]),
            num_regs: 8,
            num_preds: 1,
            shared_mem_bytes: 0,
            local_mem_bytes: 0,
        })
        .unwrap();
        assert_same_shape(&k);
        // r0 (read in three blocks), r4 (guarded first write), r6 (read
        // before any write) and r7 (written in a branch, read after the
        // join) hold slots 0..4 in register order. The temporaries r1, r2,
        // r3 and r5 share slots 4 and 5: r3 reuses r1's slot, freed after
        // r2 read it, and r5 reuses it again.
        let expected = [0, 4, 5, 4, 1, 4, 2, 3].map(Some);
        assert_eq!(slot_map(&k), expected);
        assert_eq!(k.slots(), 6);
    }
}

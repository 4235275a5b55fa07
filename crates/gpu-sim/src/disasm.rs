//! A human-readable disassembly of kernel programs.
//!
//! Owl's leak reports locate leaks as `(kernel, block, instruction)`
//! triples; [`dump_program`] renders the kernel so those coordinates can be
//! read straight off, e.g.:
//!
//! ```text
//! .kernel lookup (regs: 6, preds: 1)
//! bb0:
//!   [0] r0 = param[0]
//!   [1] r1 = special GlobalTid
//!   [2] r2 = r1 * 0x4
//!   ...
//! ```

use crate::isa::{BinOp, CmpOp, Inst, InstOp, Operand, UnOp};
use crate::program::{KernelProgram, Region, Stmt};
use std::fmt::Write as _;

fn operand(o: Operand) -> String {
    match o {
        Operand::Reg(r) => r.to_string(),
        Operand::Imm(v) if v > 9 => format!("{v:#x}"),
        Operand::Imm(v) => v.to_string(),
    }
}

fn bin_op(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::DivU => "/",
        BinOp::RemU => "%",
        BinOp::And => "&",
        BinOp::Or => "|",
        BinOp::Xor => "^",
        BinOp::Shl => "<<",
        BinOp::Shr => ">>",
        BinOp::Sar => ">>s",
        BinOp::MinU => "min",
        BinOp::MaxU => "max",
        BinOp::MinS => "mins",
        BinOp::MaxS => "maxs",
        BinOp::FAdd => "+f",
        BinOp::FSub => "-f",
        BinOp::FMul => "*f",
        BinOp::FDiv => "/f",
        BinOp::FMin => "fmin",
        BinOp::FMax => "fmax",
    }
}

fn un_op(op: UnOp) -> &'static str {
    match op {
        UnOp::Not => "not",
        UnOp::Neg => "neg",
        UnOp::FNeg => "fneg",
        UnOp::FAbs => "fabs",
        UnOp::FSqrt => "fsqrt",
        UnOp::FExp => "fexp",
        UnOp::FLn => "fln",
        UnOp::FFloor => "ffloor",
        UnOp::I2F => "i2f",
        UnOp::F2I => "f2i",
    }
}

fn cmp_op(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "==",
        CmpOp::Ne => "!=",
        CmpOp::LtU => "<u",
        CmpOp::LeU => "<=u",
        CmpOp::GtU => ">u",
        CmpOp::GeU => ">=u",
        CmpOp::LtS => "<s",
        CmpOp::LeS => "<=s",
        CmpOp::GtS => ">s",
        CmpOp::GeS => ">=s",
        CmpOp::FLt => "<f",
        CmpOp::FLe => "<=f",
        CmpOp::FGt => ">f",
        CmpOp::FGe => ">=f",
        CmpOp::FEq => "==f",
        CmpOp::FNe => "!=f",
    }
}

/// Renders one instruction in assembly-like form.
pub fn format_inst(inst: &Inst) -> String {
    let body = match &inst.op {
        InstOp::Mov { dst, src } => format!("{dst} = {}", operand(*src)),
        InstOp::Bin { op, dst, a, b } => {
            format!("{dst} = {} {} {}", operand(*a), bin_op(*op), operand(*b))
        }
        InstOp::Un { op, dst, a } => format!("{dst} = {} {}", un_op(*op), operand(*a)),
        InstOp::SetP { pred, op, a, b } => {
            format!("{pred} = {} {} {}", operand(*a), cmp_op(*op), operand(*b))
        }
        InstOp::Sel { dst, pred, a, b } => {
            format!("{dst} = {pred} ? {} : {}", operand(*a), operand(*b))
        }
        InstOp::Ld {
            dst,
            space,
            addr,
            width,
        } => format!(
            "{dst} = ld.{space}.b{} [{}]",
            width.bytes() * 8,
            operand(*addr)
        ),
        InstOp::St {
            space,
            addr,
            value,
            width,
        } => format!(
            "st.{space}.b{} [{}], {}",
            width.bytes() * 8,
            operand(*addr),
            operand(*value)
        ),
        InstOp::LdParam { dst, index } => format!("{dst} = param[{index}]"),
        InstOp::Special { dst, sr } => format!("{dst} = special {sr:?}"),
        InstOp::Atomic {
            op,
            dst,
            space,
            addr,
            value,
            width,
        } => format!(
            "{dst} = atom.{op:?}.{space}.b{} [{}], {}",
            width.bytes() * 8,
            operand(*addr),
            operand(*value)
        ),
        InstOp::Shfl {
            mode,
            dst,
            src,
            lane,
        } => format!("{dst} = shfl.{mode:?} {src}, {}", operand(*lane)),
        InstOp::Ballot { dst, pred } => format!("{dst} = ballot {pred}"),
        InstOp::Tex { dst, slot, x, y } => {
            format!("{dst} = tex2d[{slot}] ({}, {})", operand(*x), operand(*y))
        }
    };
    match inst.guard {
        Some(g) => format!("@{}{} {body}", if g.expected { "" } else { "!" }, g.pred),
        None => body,
    }
}

fn dump_region(p: &KernelProgram, region: &Region, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    for stmt in &region.0 {
        match stmt {
            Stmt::Block(id) => {
                let _ = writeln!(out, "{pad}bb{}:", id.0);
                for (i, inst) in p.blocks[id.0 as usize].insts.iter().enumerate() {
                    let _ = writeln!(out, "{pad}  [{i}] {}", format_inst(inst));
                }
            }
            Stmt::If {
                pred,
                then_region,
                else_region,
            } => {
                let _ = writeln!(out, "{pad}if {pred} {{");
                dump_region(p, then_region, indent + 1, out);
                if !else_region.is_empty() {
                    let _ = writeln!(out, "{pad}}} else {{");
                    dump_region(p, else_region, indent + 1, out);
                }
                let _ = writeln!(out, "{pad}}}");
            }
            Stmt::While {
                cond_block,
                pred,
                body,
            } => {
                let _ = writeln!(out, "{pad}while bb{} → {pred} {{", cond_block.0);
                for (i, inst) in p.blocks[cond_block.0 as usize].insts.iter().enumerate() {
                    let _ = writeln!(out, "{pad}  (cond) [{i}] {}", format_inst(inst));
                }
                dump_region(p, body, indent + 1, out);
                let _ = writeln!(out, "{pad}}}");
            }
            Stmt::Sync => {
                let _ = writeln!(out, "{pad}__syncthreads()");
            }
        }
    }
}

/// Renders a whole kernel with its structured control flow and block ids —
/// the coordinates leak reports use.
pub fn dump_program(p: &KernelProgram) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        ".kernel {} (blocks: {}, regs: {}, preds: {}, shared: {} B, local: {} B)",
        p.name,
        p.block_count(),
        p.num_regs,
        p.num_preds,
        p.shared_mem_bytes,
        p.local_mem_bytes
    );
    dump_region(p, &p.body, 0, &mut out);
    out
}

/// Looks up the disassembly of one instruction by the `(block,
/// instruction)` coordinates a leak report carries.
pub fn instruction_at(p: &KernelProgram, bb: u32, inst_idx: u32) -> Option<String> {
    p.blocks
        .get(bb as usize)
        .and_then(|b| b.insts.get(inst_idx as usize))
        .map(format_inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::KernelBuilder;
    use crate::isa::{MemWidth, SpecialReg};
    use crate::program::Kernel;

    fn sample() -> Kernel {
        let b = KernelBuilder::new("sample");
        let t = b.param(0);
        let tid = b.special(SpecialReg::GlobalTid);
        let p = b.setp(CmpOp::LtU, tid, 16u64);
        b.if_then(p, |b| {
            let v = b.load_global(b.add(t, b.mul(tid, 4u64)), MemWidth::B4);
            b.store_global_if(p, true, t, v, MemWidth::B4);
        });
        b.while_loop(
            |b| b.setp(CmpOp::Ne, tid, 0u64),
            |b| {
                let _ = b.mov(0u64);
            },
        );
        b.finish()
    }

    #[test]
    fn dump_contains_structure_and_coordinates() {
        let text = dump_program(&sample());
        assert!(text.contains(".kernel sample"), "{text}");
        assert!(text.contains("if p0 {"), "{text}");
        assert!(text.contains("while bb"), "{text}");
        assert!(text.contains("ld.global.b32"), "{text}");
        assert!(text.contains("@p0 st.global.b32"), "{text}");
    }

    #[test]
    fn instruction_lookup_matches_dump() {
        let p = sample();
        let inst = instruction_at(&p, 0, 0).expect("bb0:0 exists");
        assert!(inst.contains("param[0]"), "{inst}");
        assert!(instruction_at(&p, 99, 0).is_none());
        assert!(instruction_at(&p, 0, 99).is_none());
    }
}

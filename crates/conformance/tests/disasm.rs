//! The disassembler over generated kernels, which cover the whole ISA.

use owl_conformance::genkernel::GeneratedKernel;
use owl_gpu::build::KernelBuilder;
use owl_gpu::disasm::{format_inst, instruction_at};
use owl_gpu::isa::{CmpOp, Inst, InstOp, MemWidth, Operand, Pred, Reg, SpecialReg};
use owl_gpu::program::{Kernel, KernelProgram};
use std::collections::HashMap;

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

/// The operator or memory-space spelling `format_inst` writes for `op`,
/// with the variant it stands for. An operator's spelling is what
/// `format_inst` puts between the operands of an instruction over fixed
/// registers. Register, predicate and the other enum names come from
/// `Display`/`Debug` and cannot collide.
fn spelling(op: &InstOp) -> Option<(&'static str, String, String)> {
    let (dst, a, b) = (Reg(0), Operand::Reg(Reg(1)), Operand::Reg(Reg(2)));
    let between = |op: InstOp, prefix: &str, suffix: &str| {
        let text = format_inst(&Inst::new(op));
        text.strip_prefix(prefix)
            .and_then(|t| t.strip_suffix(suffix))
            .unwrap_or_else(|| panic!("{text:?} is not {prefix:?} … {suffix:?}"))
            .to_string()
    };
    Some(match op {
        InstOp::Bin { op, .. } => (
            "binary operator",
            between(InstOp::Bin { op: *op, dst, a, b }, "r0 = r1 ", " r2"),
            format!("{op:?}"),
        ),
        InstOp::Un { op, .. } => (
            "unary operator",
            between(InstOp::Un { op: *op, dst, a }, "r0 = ", " r1"),
            format!("{op:?}"),
        ),
        InstOp::SetP { op, .. } => (
            "comparison",
            between(
                InstOp::SetP {
                    pred: Pred(0),
                    op: *op,
                    a,
                    b,
                },
                "p0 = r1 ",
                " r2",
            ),
            format!("{op:?}"),
        ),
        InstOp::Ld { space, .. } | InstOp::St { space, .. } | InstOp::Atomic { space, .. } => {
            ("memory space", space.to_string(), format!("{space:?}"))
        }
        _ => return None,
    })
}

/// Over the hand-built sample and 64 generated kernels (which cover the
/// whole ISA), every instruction formats to non-empty text,
/// [`instruction_at`] agrees with [`format_inst`] at every coordinate,
/// no two distinct instructions format to the same text, and no two
/// guards, operators or memory spaces share a spelling (which the
/// previous check only sees when two instructions also share their
/// operands) — so a leak's disassembly names exactly one instruction.
#[test]
fn every_instruction_formats_without_panicking() {
    let programs = std::iter::once(KernelProgram::clone(&sample()))
        .chain((0..64u64).map(|seed| GeneratedKernel::generate(seed).program));
    let mut texts: HashMap<String, Inst> = HashMap::new();
    let mut spellings: HashMap<(&str, String), String> = HashMap::new();
    let mut spell = |kind: &'static str, spelled: String, name: String| {
        if let Some(other) = spellings.insert((kind, spelled.clone()), name.clone()) {
            assert_eq!(other, name, "two {kind}s are spelled {spelled:?}");
        }
    };
    for p in programs {
        for (bb, block) in p.blocks.iter().enumerate() {
            for (i, inst) in block.insts.iter().enumerate() {
                let text = format_inst(inst);
                assert!(!text.is_empty());
                assert_eq!(
                    instruction_at(&p, bb as u32, i as u32).as_deref(),
                    Some(text.as_str()),
                    "{} bb{bb}:{i}",
                    p.name
                );
                if let Some(other) = texts.insert(text.clone(), inst.clone()) {
                    assert_eq!(&other, inst, "two instructions format as {text:?}");
                }
                let bare = format_inst(&Inst {
                    op: inst.op.clone(),
                    guard: None,
                });
                let guard = text.strip_suffix(&bare).expect("a guard only prefixes");
                spell("guard", guard.to_string(), format!("{:?}", inst.guard));
                if let Some((kind, spelled, name)) = spelling(&inst.op) {
                    spell(kind, spelled, name);
                }
            }
            assert!(instruction_at(&p, bb as u32, block.insts.len() as u32).is_none());
        }
    }
}

//! A naive static IR taint analyser (the haybale-pitchfork stand-in).
//!
//! The paper applies an LLVM-IR analysis to CUDA kernels and observes "a
//! substantial number of false positives, where … it erroneously flags
//! array accesses determined by thread IDs (a common practice in CUDA
//! programming) … \[and\] misidentifies control flow leaks as it fails to
//! account for predicate execution". This module reproduces that failure
//! mode honestly: a flow-insensitive taint analysis over the kernel IR
//! that treats *any* non-constant address or branch as potentially
//! secret-dependent, with the taint source recorded so false positives can
//! be counted.

use owl_gpu::isa::{InstOp, Operand, Reg, SpecialReg};
use owl_gpu::program::{KernelProgram, Region, Stmt};
use std::collections::BTreeSet;

/// What a value may be derived from (a join-semilattice; `Data ∪ Tid`
/// dominates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Taint {
    /// Compile-time constant.
    Constant,
    /// Derived from thread/block indices only (benign in CUDA practice,
    /// but flagged by the naive analysis).
    Tid,
    /// Derived from kernel parameters or loaded data (potential secret).
    Data,
}

impl Taint {
    fn join(self, other: Taint) -> Taint {
        self.max(other)
    }
}

/// Why an instruction was flagged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// Memory access with a data-derived address.
    DataAddress,
    /// Memory access whose address only depends on thread indices — the
    /// classic CUDA false positive.
    TidAddress,
    /// A branch predicate that depends on data.
    DataBranch,
    /// A branch predicate that depends only on thread indices.
    TidBranch,
}

/// One static finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticFinding {
    /// Basic block of the flagged instruction (or branch condition block).
    pub bb: u32,
    /// Instruction index within the block; `u32::MAX` for region branches.
    pub inst_idx: u32,
    /// The reason.
    pub kind: FindingKind,
}

/// The analysis result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StaticReport {
    /// All findings, in block order.
    pub findings: Vec<StaticFinding>,
}

impl StaticReport {
    /// Findings of one kind.
    pub fn count(&self, kind: FindingKind) -> usize {
        self.findings.iter().filter(|f| f.kind == kind).count()
    }

    /// Findings that a thread-id-aware analysis would *not* have raised —
    /// the false-positive surface the paper describes.
    pub fn tid_only(&self) -> usize {
        self.count(FindingKind::TidAddress) + self.count(FindingKind::TidBranch)
    }
}

struct Analyzer<'p> {
    program: &'p KernelProgram,
    regs: Vec<Taint>,
    preds: Vec<Taint>,
    findings: BTreeSet<(u32, u32, u8)>,
}

impl<'p> Analyzer<'p> {
    fn operand(&self, op: Operand) -> Taint {
        match op {
            Operand::Imm(_) => Taint::Constant,
            Operand::Reg(Reg(r)) => self.regs[usize::from(r)],
        }
    }

    fn set_reg(&mut self, r: Reg, t: Taint) -> bool {
        let cur = &mut self.regs[usize::from(r.0)];
        let joined = cur.join(t);
        let changed = joined != *cur;
        *cur = joined;
        changed
    }

    fn pass(&mut self) -> bool {
        let mut changed = false;
        for block in &self.program.blocks {
            for inst in &block.insts {
                changed |= self.transfer(&inst.op);
            }
        }
        changed
    }

    fn transfer(&mut self, op: &InstOp) -> bool {
        match op {
            InstOp::Mov { dst, src } => {
                let t = self.operand(*src);
                self.set_reg(*dst, t)
            }
            InstOp::Bin { dst, a, b, .. } => {
                let t = self.operand(*a).join(self.operand(*b));
                self.set_reg(*dst, t)
            }
            InstOp::Un { dst, a, .. } => {
                let t = self.operand(*a);
                self.set_reg(*dst, t)
            }
            InstOp::SetP { pred, a, b, .. } => {
                let t = self.operand(*a).join(self.operand(*b));
                let cur = &mut self.preds[usize::from(pred.0)];
                let joined = cur.join(t);
                let changed = joined != *cur;
                *cur = joined;
                changed
            }
            InstOp::Sel { dst, pred, a, b } => {
                let t = self.preds[usize::from(pred.0)]
                    .join(self.operand(*a))
                    .join(self.operand(*b));
                self.set_reg(*dst, t)
            }
            // Loaded data is data (could carry secrets); the analysis has
            // no value model, so every load taints.
            InstOp::Ld { dst, .. } => self.set_reg(*dst, Taint::Data),
            InstOp::St { .. } => false,
            // Kernel parameters are attacker-relevant inputs.
            InstOp::LdParam { dst, .. } => self.set_reg(*dst, Taint::Data),
            InstOp::Atomic { dst, .. } => self.set_reg(*dst, Taint::Data),
            InstOp::Shfl { dst, src, .. } => {
                let t = self.regs[usize::from(src.0)];
                self.set_reg(*dst, t)
            }
            InstOp::Ballot { dst, pred } => {
                let t = self.preds[usize::from(pred.0)];
                self.set_reg(*dst, t)
            }
            InstOp::Tex { dst, .. } => self.set_reg(*dst, Taint::Data),
            InstOp::Special { dst, sr } => {
                let t = match sr {
                    SpecialReg::TidX
                    | SpecialReg::TidY
                    | SpecialReg::TidZ
                    | SpecialReg::CtaidX
                    | SpecialReg::CtaidY
                    | SpecialReg::CtaidZ
                    | SpecialReg::LaneId
                    | SpecialReg::WarpId
                    | SpecialReg::GlobalTid => Taint::Tid,
                    _ => Taint::Constant,
                };
                self.set_reg(*dst, t)
            }
        }
    }

    fn flag_accesses(&mut self) {
        for (bb, block) in self.program.blocks.iter().enumerate() {
            for (idx, inst) in block.insts.iter().enumerate() {
                let addr = match &inst.op {
                    InstOp::Ld { addr, .. } => Some(*addr),
                    InstOp::St { addr, .. } => Some(*addr),
                    InstOp::Atomic { addr, .. } => Some(*addr),
                    // The naive analysis treats the x coordinate as the
                    // address proxy of a texture fetch.
                    InstOp::Tex { x, .. } => Some(*x),
                    _ => None,
                };
                if let Some(addr) = addr {
                    let kind = match self.operand(addr) {
                        Taint::Data => 0u8,
                        Taint::Tid => 1,
                        Taint::Constant => continue,
                    };
                    self.findings.insert((bb as u32, idx as u32, kind));
                }
            }
        }
    }

    fn flag_branches(&mut self, region: &Region) {
        for stmt in &region.0 {
            match stmt {
                Stmt::If {
                    pred,
                    then_region,
                    else_region,
                } => {
                    self.flag_pred(*pred);
                    self.flag_branches(then_region);
                    self.flag_branches(else_region);
                }
                Stmt::While {
                    cond_block,
                    pred,
                    body,
                } => {
                    let _ = cond_block;
                    self.flag_pred(*pred);
                    self.flag_branches(body);
                }
                Stmt::Block(_) | Stmt::Sync => {}
            }
        }
    }

    fn flag_pred(&mut self, p: owl_gpu::isa::Pred) {
        let kind = match self.preds[usize::from(p.0)] {
            Taint::Data => 2u8,
            Taint::Tid => 3,
            Taint::Constant => return,
        };
        // Branch findings anchor to the predicate id (no block).
        self.findings.insert((u32::MAX, u32::from(p.0), kind));
    }
}

/// Analyses a kernel statically, without executing it and without any
/// model of predicated execution or warp aggregation.
pub fn analyze_kernel(program: &KernelProgram) -> StaticReport {
    let mut a = Analyzer {
        program,
        regs: vec![Taint::Constant; usize::from(program.num_regs)],
        preds: vec![Taint::Constant; usize::from(program.num_preds)],
        findings: BTreeSet::new(),
    };
    // Fixpoint (loops feed registers back).
    while a.pass() {}
    a.flag_accesses();
    a.flag_branches(&program.body);
    StaticReport {
        findings: a
            .findings
            .iter()
            .map(|&(bb, inst_idx, kind)| StaticFinding {
                bb: if bb == u32::MAX { 0 } else { bb },
                inst_idx,
                kind: match kind {
                    0 => FindingKind::DataAddress,
                    1 => FindingKind::TidAddress,
                    2 => FindingKind::DataBranch,
                    _ => FindingKind::TidBranch,
                },
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_gpu::build::KernelBuilder;
    use owl_gpu::isa::{CmpOp, MemWidth};

    /// A perfectly clean kernel: out[tid] = in[tid] * 2.
    fn clean_kernel() -> KernelProgram {
        let b = KernelBuilder::new("clean");
        let x = b.param(0);
        let out = b.param(1);
        let tid = b.special(SpecialReg::GlobalTid);
        let v = b.load_global(b.add(x, b.mul(tid, 8u64)), MemWidth::B8);
        b.store_global(b.add(out, b.mul(tid, 8u64)), b.mul(v, 2u64), MemWidth::B8);
        b.finish()
    }

    #[test]
    fn flags_tid_indexed_accesses_on_clean_kernels() {
        // The false-positive mechanism: the clean kernel's accesses are
        // all flagged because their addresses are not constants. (The
        // address mixes a Data-tainted base pointer with a Tid index, so
        // the naive lattice reports Data.)
        let report = analyze_kernel(&clean_kernel());
        assert!(report.count(FindingKind::DataAddress) >= 2, "{report:?}");
    }

    #[test]
    fn pure_tid_addresses_are_flagged_as_tid() {
        // Shared-memory staging addressed purely by tid: flagged TidAddress.
        let b = KernelBuilder::new("stage");
        b.set_shared_bytes(256 * 8);
        let tid = b.special(SpecialReg::TidX);
        b.store_shared(b.mul(tid, 8u64), 7u64, MemWidth::B8);
        let report = analyze_kernel(&b.finish());
        assert_eq!(report.count(FindingKind::TidAddress), 1, "{report:?}");
        assert_eq!(report.tid_only(), 1);
    }

    #[test]
    fn tid_guard_branches_are_flagged() {
        // The ubiquitous `if (tid < n)` guard: n is a parameter (Data), so
        // the naive analysis flags the branch as data-dependent — on every
        // kernel in this repository.
        let b = KernelBuilder::new("guarded");
        let n = b.param(0);
        let tid = b.special(SpecialReg::GlobalTid);
        let p = b.setp(CmpOp::LtU, tid, n);
        b.if_then(p, |b| {
            let _ = b.mov(1u64);
        });
        let report = analyze_kernel(&b.finish());
        assert_eq!(report.count(FindingKind::DataBranch), 1, "{report:?}");
    }

    #[test]
    fn constant_accesses_are_not_flagged() {
        let b = KernelBuilder::new("constaddr");
        b.set_shared_bytes(64);
        b.store_shared(0u64, 1u64, MemWidth::B8);
        let report = analyze_kernel(&b.finish());
        assert!(report.findings.is_empty(), "{report:?}");
    }

    #[test]
    fn loop_carried_taint_reaches_fixpoint() {
        // i starts constant but accumulates a loaded value inside the loop:
        // the address using i must end up Data-tainted.
        let b = KernelBuilder::new("loopcarry");
        let base = b.param(0);
        let i = b.mov(0u64);
        b.while_loop(
            |b| b.setp(CmpOp::LtU, i, 10u64),
            |b| {
                let v = b.load_global(base, MemWidth::B8);
                b.assign(i, b.add(i, v));
            },
        );
        b.store_global(b.add(base, i), 0u64, MemWidth::B8);
        let report = analyze_kernel(&b.finish());
        assert!(report.count(FindingKind::DataAddress) >= 1);
        assert!(report.count(FindingKind::DataBranch) >= 1);
    }

    #[test]
    fn static_analysis_false_positives_vs_owl_on_relu() {
        // The paper's RQ3 point in one test: the naive static tool flags
        // the leak-free relu kernel; Owl (dynamic, warp-aware) must not.
        // Owl's verdict for relu is established in the integration tests;
        // here we pin the static side.
        let report = analyze_kernel(&clean_kernel());
        assert!(!report.findings.is_empty());
    }
}

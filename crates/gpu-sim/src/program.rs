//! Kernel programs: basic blocks plus a structured control-flow tree.
//!
//! The simulator executes *structured* control flow (the shape `nvcc` emits
//! for well-behaved CUDA C): straight-line basic blocks composed by `if` /
//! `if-else` and top-tested `while` regions. Structured form makes SIMT
//! reconvergence exact — a diverged warp always reconverges at the end of
//! the enclosing region, which is the immediate post-dominator.
//!
//! Basic blocks carry the instructions; the [`Region`] tree references them
//! by [`BlockId`]. The block id doubles as the NVBit-style identifier Owl
//! records in its traces ("the offset of the basic block inside the
//! kernel").

use crate::isa::{Inst, Pred};
use serde::{Deserialize, Serialize};

/// Identifier of a basic block within one kernel (its index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockId(pub u32);

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// A straight-line sequence of instructions.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BasicBlock {
    /// The instructions, executed in order.
    pub insts: Vec<Inst>,
}

/// One statement of the structured control-flow tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Stmt {
    /// Execute a basic block.
    Block(BlockId),
    /// Diverge on `pred`: lanes where `pred == true` run `then_region`,
    /// the rest run `else_region`; the warp reconverges afterwards.
    If {
        /// Predicate computed by a preceding block.
        pred: Pred,
        /// Taken region.
        then_region: Region,
        /// Not-taken region (may be empty).
        else_region: Region,
    },
    /// Top-tested loop: run `cond_block`, test `pred`, run `body` with the
    /// lanes still active, repeat. The warp keeps iterating until *all*
    /// lanes have dropped out (SIMT loop divergence).
    While {
        /// Block that (re)computes the continuation predicate.
        cond_block: BlockId,
        /// Continue while this predicate is true.
        pred: Pred,
        /// Loop body.
        body: Region,
    },
    /// Block-wide barrier (`__syncthreads`). Executing it with a partially
    /// active warp is an execution error, mirroring CUDA's undefined
    /// behaviour for divergent barriers.
    Sync,
}

/// A sequence of statements executed under one activity mask.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Region(pub Vec<Stmt>);

impl Region {
    /// An empty region.
    pub fn new() -> Self {
        Region(Vec::new())
    }

    /// `true` when the region contains no statements.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// A kernel as written: basic blocks, the structured body and the
/// resources it declares, with one register per value.
///
/// A `KernelProgram` is plain data that nothing checks on its own: the
/// kernel generator and its shrinker edit programs freely. [`Kernel::new`]
/// validates one and makes it launchable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelProgram {
    /// Human-readable kernel name (the `__global__` function name).
    pub name: String,
    /// The basic blocks, indexed by [`BlockId`].
    pub blocks: Vec<BasicBlock>,
    /// The structured body.
    pub body: Region,
    /// Number of general-purpose registers each thread needs.
    pub num_regs: u16,
    /// Number of predicate registers each thread needs.
    pub num_preds: u16,
    /// Bytes of shared memory per CTA.
    pub shared_mem_bytes: u32,
    /// Bytes of local (per-thread) memory.
    pub local_mem_bytes: u32,
}

/// A validated kernel, register-allocated once for the warp interpreter:
/// the only thing a launch accepts.
///
/// [`Kernel::new`] validates the program, then allocates its registers
/// (see the `lowered` module): block-local temporaries share slots in a
/// copy of the blocks the warp interpreter executes, so a warp's register
/// file has [`Kernel::slots`] rows instead of one per value. The kernel
/// derefs, read-only, to the [`KernelProgram`] as written, which the
/// static readers inspect. The allocated copy is private to this crate, so
/// an interpreter built outside it (the conformance suite's reference
/// oracle) executes the program as written and takes the `Kernel` only as
/// proof of validation. A `Kernel` cannot change after it is built, so its
/// allocated form needs no cache key and no invalidation.
///
/// Kernels are plain data: the parallel evidence phase shares them freely
/// across recording workers (each worker owns its own `Device`, but all of
/// them launch the same kernels). The assertion below keeps that contract
/// from silently breaking if a non-`Send`/`Sync` field is added.
#[derive(Debug, Clone)]
pub struct Kernel {
    program: KernelProgram,
    /// `program.blocks` with registers renumbered to slots.
    allocated: Vec<BasicBlock>,
    slots: u16,
}

// Recording workers in `owl-core` borrow kernels across threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Kernel>();
};

impl Kernel {
    /// Validates `program` and allocates its registers. Debug builds also
    /// check that the allocated copy keeps the program's shape.
    ///
    /// # Errors
    ///
    /// The first [`ProgramError`] [`KernelProgram::validate`] finds.
    pub fn new(program: KernelProgram) -> Result<Kernel, ProgramError> {
        program.validate()?;
        let (allocated, slots) = crate::lowered::allocate(&program);
        debug_assert!(
            crate::lowered::same_shape(&program, &allocated, slots),
            "{}: register allocation changed the program's shape",
            program.name
        );
        Ok(Kernel {
            program,
            allocated,
            slots,
        })
    }

    /// Registers per lane the warp interpreter allocates: at most
    /// [`KernelProgram::num_regs`].
    pub fn slots(&self) -> u16 {
        self.slots
    }

    /// The program's blocks with registers renumbered to slots: what the
    /// warp interpreter executes.
    pub(crate) fn allocated(&self) -> &[BasicBlock] {
        &self.allocated
    }
}

impl std::ops::Deref for Kernel {
    type Target = KernelProgram;

    fn deref(&self) -> &KernelProgram {
        &self.program
    }
}

/// Errors detected while validating a [`KernelProgram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A statement references a block id outside `blocks`.
    UnknownBlock(BlockId),
    /// An instruction names a register `>= num_regs`.
    RegisterOutOfRange {
        /// The offending register index.
        reg: u16,
        /// The declared register count.
        num_regs: u16,
    },
    /// An instruction or statement names a predicate `>= num_preds`.
    PredicateOutOfRange {
        /// The offending predicate index.
        pred: u16,
        /// The declared predicate count.
        num_preds: u16,
    },
    /// A `Sync` statement appears inside an `If` or `While` region, where
    /// warp-divergent execution could deadlock a real GPU.
    SyncInsideDivergentRegion,
    /// An atomic targets a read-only or thread-private memory space.
    AtomicOnReadOnlySpace(crate::isa::MemSpace),
    /// A plain load/store targets the texture space (use `Tex`).
    LdStOnTextureSpace,
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::UnknownBlock(b) => write!(f, "statement references unknown {b}"),
            ProgramError::RegisterOutOfRange { reg, num_regs } => {
                write!(
                    f,
                    "register r{reg} out of range (kernel declares {num_regs})"
                )
            }
            ProgramError::PredicateOutOfRange { pred, num_preds } => {
                write!(
                    f,
                    "predicate p{pred} out of range (kernel declares {num_preds})"
                )
            }
            ProgramError::SyncInsideDivergentRegion => {
                write!(f, "barrier inside a divergent region")
            }
            ProgramError::AtomicOnReadOnlySpace(space) => {
                write!(f, "atomic operation on {space} memory")
            }
            ProgramError::LdStOnTextureSpace => {
                write!(f, "plain load/store on texture memory (use tex2d)")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

impl KernelProgram {
    /// Validates structural invariants: block references in range, register
    /// and predicate indices within the declared counts, and barriers only
    /// in non-divergent (top-level) position.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found.
    pub fn validate(&self) -> Result<(), ProgramError> {
        self.validate_region(&self.body, true)?;
        for block in &self.blocks {
            for inst in &block.insts {
                self.validate_inst(inst)?;
            }
        }
        Ok(())
    }

    fn check_block(&self, id: BlockId) -> Result<(), ProgramError> {
        if (id.0 as usize) < self.blocks.len() {
            Ok(())
        } else {
            Err(ProgramError::UnknownBlock(id))
        }
    }

    fn check_pred(&self, p: Pred) -> Result<(), ProgramError> {
        if p.0 < self.num_preds {
            Ok(())
        } else {
            Err(ProgramError::PredicateOutOfRange {
                pred: p.0,
                num_preds: self.num_preds,
            })
        }
    }

    fn check_reg(&self, r: crate::isa::Reg) -> Result<(), ProgramError> {
        if r.0 < self.num_regs {
            Ok(())
        } else {
            Err(ProgramError::RegisterOutOfRange {
                reg: r.0,
                num_regs: self.num_regs,
            })
        }
    }

    fn check_operand(&self, o: crate::isa::Operand) -> Result<(), ProgramError> {
        match o {
            crate::isa::Operand::Reg(r) => self.check_reg(r),
            crate::isa::Operand::Imm(_) => Ok(()),
        }
    }

    fn validate_inst(&self, inst: &Inst) -> Result<(), ProgramError> {
        use crate::isa::InstOp::*;
        if let Some(g) = inst.guard {
            self.check_pred(g.pred)?;
        }
        match &inst.op {
            Mov { dst, src } => {
                self.check_reg(*dst)?;
                self.check_operand(*src)
            }
            Bin { dst, a, b, .. } => {
                self.check_reg(*dst)?;
                self.check_operand(*a)?;
                self.check_operand(*b)
            }
            Un { dst, a, .. } => {
                self.check_reg(*dst)?;
                self.check_operand(*a)
            }
            SetP { pred, a, b, .. } => {
                self.check_pred(*pred)?;
                self.check_operand(*a)?;
                self.check_operand(*b)
            }
            Sel { dst, pred, a, b } => {
                self.check_reg(*dst)?;
                self.check_pred(*pred)?;
                self.check_operand(*a)?;
                self.check_operand(*b)
            }
            Ld {
                dst, space, addr, ..
            } => {
                if *space == crate::isa::MemSpace::Texture {
                    return Err(ProgramError::LdStOnTextureSpace);
                }
                self.check_reg(*dst)?;
                self.check_operand(*addr)
            }
            St {
                space, addr, value, ..
            } => {
                if *space == crate::isa::MemSpace::Texture {
                    return Err(ProgramError::LdStOnTextureSpace);
                }
                self.check_operand(*addr)?;
                self.check_operand(*value)
            }
            LdParam { dst, .. } | Special { dst, .. } => self.check_reg(*dst),
            Atomic {
                dst,
                space,
                addr,
                value,
                ..
            } => {
                if !matches!(
                    space,
                    crate::isa::MemSpace::Global | crate::isa::MemSpace::Shared
                ) {
                    return Err(ProgramError::AtomicOnReadOnlySpace(*space));
                }
                self.check_reg(*dst)?;
                self.check_operand(*addr)?;
                self.check_operand(*value)
            }
            Shfl { dst, src, lane, .. } => {
                self.check_reg(*dst)?;
                self.check_reg(*src)?;
                self.check_operand(*lane)
            }
            Ballot { dst, pred } => {
                self.check_reg(*dst)?;
                self.check_pred(*pred)
            }
            Tex { dst, x, y, .. } => {
                self.check_reg(*dst)?;
                self.check_operand(*x)?;
                self.check_operand(*y)
            }
        }
    }

    fn validate_region(&self, region: &Region, top_level: bool) -> Result<(), ProgramError> {
        for stmt in &region.0 {
            match stmt {
                Stmt::Block(id) => self.check_block(*id)?,
                Stmt::If {
                    pred,
                    then_region,
                    else_region,
                } => {
                    self.check_pred(*pred)?;
                    self.validate_region(then_region, false)?;
                    self.validate_region(else_region, false)?;
                }
                Stmt::While {
                    cond_block,
                    pred,
                    body,
                } => {
                    self.check_block(*cond_block)?;
                    self.check_pred(*pred)?;
                    self.validate_region(body, false)?;
                }
                Stmt::Sync => {
                    if !top_level {
                        return Err(ProgramError::SyncInsideDivergentRegion);
                    }
                }
            }
        }
        Ok(())
    }

    /// Total number of instructions across all blocks.
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Number of basic blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{InstOp, Operand, Reg};

    fn empty_kernel() -> KernelProgram {
        KernelProgram {
            name: "k".into(),
            blocks: vec![BasicBlock::default()],
            body: Region(vec![Stmt::Block(BlockId(0))]),
            num_regs: 1,
            num_preds: 1,
            shared_mem_bytes: 0,
            local_mem_bytes: 0,
        }
    }

    #[test]
    fn valid_kernel_passes() {
        assert_eq!(empty_kernel().validate(), Ok(()));
    }

    #[test]
    fn unknown_block_rejected() {
        let mut k = empty_kernel();
        k.body = Region(vec![Stmt::Block(BlockId(7))]);
        assert_eq!(k.validate(), Err(ProgramError::UnknownBlock(BlockId(7))));
    }

    #[test]
    fn register_out_of_range_rejected() {
        let mut k = empty_kernel();
        k.blocks[0].insts.push(Inst::new(InstOp::Mov {
            dst: Reg(5),
            src: Operand::Imm(0),
        }));
        assert_eq!(
            k.validate(),
            Err(ProgramError::RegisterOutOfRange {
                reg: 5,
                num_regs: 1
            })
        );
    }

    #[test]
    fn predicate_out_of_range_rejected() {
        let mut k = empty_kernel();
        k.body = Region(vec![Stmt::If {
            pred: Pred(3),
            then_region: Region::new(),
            else_region: Region::new(),
        }]);
        assert_eq!(
            k.validate(),
            Err(ProgramError::PredicateOutOfRange {
                pred: 3,
                num_preds: 1
            })
        );
    }

    #[test]
    fn sync_inside_if_rejected() {
        let mut k = empty_kernel();
        k.body = Region(vec![Stmt::If {
            pred: Pred(0),
            then_region: Region(vec![Stmt::Sync]),
            else_region: Region::new(),
        }]);
        assert_eq!(k.validate(), Err(ProgramError::SyncInsideDivergentRegion));
    }

    #[test]
    fn sync_at_top_level_allowed() {
        let mut k = empty_kernel();
        k.body = Region(vec![Stmt::Block(BlockId(0)), Stmt::Sync]);
        assert_eq!(k.validate(), Ok(()));
    }

    #[test]
    fn inst_and_block_counts() {
        let mut k = empty_kernel();
        k.blocks[0].insts.push(Inst::new(InstOp::Mov {
            dst: Reg(0),
            src: Operand::Imm(0),
        }));
        assert_eq!(k.inst_count(), 1);
        assert_eq!(k.block_count(), 1);
    }
}

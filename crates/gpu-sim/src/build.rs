//! A structured kernel-builder DSL — the stand-in for `nvcc`.
//!
//! [`KernelBuilder`] assembles a [`KernelProgram`] from straight-line
//! operations plus structured control flow (`if_then`, `if_then_else`,
//! `while_loop`, `for_range`) and barriers. Every emitted program is
//! well-formed by construction: reconvergence points exist at every region
//! end, and `finish` returns it as a validated [`Kernel`].
//!
//! Builder methods take `&self` (state lives in a `RefCell`) so value
//! expressions compose naturally:
//!
//! ```
//! use owl_gpu::build::KernelBuilder;
//! use owl_gpu::isa::{MemWidth, SpecialReg};
//!
//! let b = KernelBuilder::new("axpy");
//! let x = b.param(0);
//! let tid = b.special(SpecialReg::GlobalTid);
//! let addr = b.add(x, b.mul(tid, 8u64));
//! let v = b.load_global(addr, MemWidth::B8);
//! b.store_global(addr, b.mul(v, 3u64), MemWidth::B8);
//! let kernel = b.finish();
//! assert_eq!(kernel.name, "axpy");
//! ```

use crate::isa::{
    AtomicOp, BinOp, CmpOp, Guard, Inst, InstOp, MemSpace, MemWidth, Operand, Pred, Reg, ShflMode,
    SpecialReg, UnOp,
};
use crate::program::{BasicBlock, BlockId, Kernel, KernelProgram, Region, Stmt};
use std::cell::RefCell;

/// A value handle: a general-purpose register produced by a builder method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Val(Reg);

impl From<Val> for Operand {
    fn from(v: Val) -> Operand {
        Operand::Reg(v.0)
    }
}

/// A predicate handle produced by [`KernelBuilder::setp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredVal(Pred);

struct BuilderState {
    blocks: Vec<BasicBlock>,
    /// Stack of open regions; the innermost is last. The bottom entry is
    /// the kernel body.
    regions: Vec<Vec<Stmt>>,
    /// Straight-line instructions not yet sealed into a block.
    current: Vec<Inst>,
    next_reg: u16,
    next_pred: u16,
    shared_bytes: u32,
    local_bytes: u32,
}

/// Builds [`Kernel`]s. See the [module docs](self) for an example.
pub struct KernelBuilder {
    name: String,
    state: RefCell<BuilderState>,
}

impl KernelBuilder {
    /// Starts a kernel named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        KernelBuilder {
            name: name.into(),
            state: RefCell::new(BuilderState {
                blocks: Vec::new(),
                regions: vec![Vec::new()],
                current: Vec::new(),
                next_reg: 0,
                next_pred: 0,
                shared_bytes: 0,
                local_bytes: 0,
            }),
        }
    }

    /// Declares `bytes` of shared memory per CTA.
    pub fn set_shared_bytes(&self, bytes: u32) {
        self.state.borrow_mut().shared_bytes = bytes;
    }

    /// Declares `bytes` of local (per-thread) memory.
    pub fn set_local_bytes(&self, bytes: u32) {
        self.state.borrow_mut().local_bytes = bytes;
    }

    fn fresh_reg(&self) -> Reg {
        let mut s = self.state.borrow_mut();
        let r = Reg(s.next_reg);
        s.next_reg = s
            .next_reg
            .checked_add(1)
            .expect("kernel exceeds 65535 registers");
        r
    }

    fn fresh_pred(&self) -> Pred {
        let mut s = self.state.borrow_mut();
        let p = Pred(s.next_pred);
        s.next_pred = s
            .next_pred
            .checked_add(1)
            .expect("kernel exceeds 65535 predicates");
        p
    }

    fn emit(&self, op: InstOp) {
        self.state.borrow_mut().current.push(Inst::new(op));
    }

    fn emit_guarded(&self, op: InstOp, p: PredVal, expected: bool) {
        self.state.borrow_mut().current.push(Inst {
            op,
            guard: Some(Guard {
                pred: p.0,
                expected,
            }),
        });
    }

    /// Seals pending straight-line code into a block and appends a
    /// `Stmt::Block` to the innermost open region.
    fn flush_stmt(&self) {
        let mut s = self.state.borrow_mut();
        if s.current.is_empty() {
            return;
        }
        let insts = std::mem::take(&mut s.current);
        let id = BlockId(s.blocks.len() as u32);
        s.blocks.push(BasicBlock { insts });
        s.regions
            .last_mut()
            .expect("region stack never empty")
            .push(Stmt::Block(id));
    }

    /// Seals pending straight-line code into a block *without* appending a
    /// statement — used for loop condition blocks.
    fn flush_into_block(&self) -> BlockId {
        let mut s = self.state.borrow_mut();
        let insts = std::mem::take(&mut s.current);
        let id = BlockId(s.blocks.len() as u32);
        s.blocks.push(BasicBlock { insts });
        id
    }

    // ---- values -----------------------------------------------------------

    /// Copies `src` into a fresh register.
    pub fn mov(&self, src: impl Into<Operand>) -> Val {
        let dst = self.fresh_reg();
        self.emit(InstOp::Mov {
            dst,
            src: src.into(),
        });
        Val(dst)
    }

    /// Overwrites the register behind `dst` with `src` (for loop counters
    /// and accumulators).
    pub fn assign(&self, dst: Val, src: impl Into<Operand>) {
        self.emit(InstOp::Mov {
            dst: dst.0,
            src: src.into(),
        });
    }

    /// Overwrites `dst` with `src` only in lanes where `p == expected`.
    pub fn assign_if(&self, p: PredVal, expected: bool, dst: Val, src: impl Into<Operand>) {
        self.emit_guarded(
            InstOp::Mov {
                dst: dst.0,
                src: src.into(),
            },
            p,
            expected,
        );
    }

    /// Loads kernel parameter `index`.
    pub fn param(&self, index: u16) -> Val {
        let dst = self.fresh_reg();
        self.emit(InstOp::LdParam { dst, index });
        Val(dst)
    }

    /// Reads a special register.
    pub fn special(&self, sr: SpecialReg) -> Val {
        let dst = self.fresh_reg();
        self.emit(InstOp::Special { dst, sr });
        Val(dst)
    }

    fn bin(&self, op: BinOp, a: impl Into<Operand>, b: impl Into<Operand>) -> Val {
        let dst = self.fresh_reg();
        self.emit(InstOp::Bin {
            op,
            dst,
            a: a.into(),
            b: b.into(),
        });
        Val(dst)
    }

    fn un(&self, op: UnOp, a: impl Into<Operand>) -> Val {
        let dst = self.fresh_reg();
        self.emit(InstOp::Un {
            op,
            dst,
            a: a.into(),
        });
        Val(dst)
    }

    /// Wrapping integer addition.
    pub fn add(&self, a: impl Into<Operand>, b: impl Into<Operand>) -> Val {
        self.bin(BinOp::Add, a, b)
    }

    /// Wrapping integer subtraction.
    pub fn sub(&self, a: impl Into<Operand>, b: impl Into<Operand>) -> Val {
        self.bin(BinOp::Sub, a, b)
    }

    /// Wrapping integer multiplication.
    pub fn mul(&self, a: impl Into<Operand>, b: impl Into<Operand>) -> Val {
        self.bin(BinOp::Mul, a, b)
    }

    /// Unsigned division (division by zero is a launch-time error).
    pub fn div(&self, a: impl Into<Operand>, b: impl Into<Operand>) -> Val {
        self.bin(BinOp::DivU, a, b)
    }

    /// Unsigned remainder (remainder by zero is a launch-time error).
    pub fn rem(&self, a: impl Into<Operand>, b: impl Into<Operand>) -> Val {
        self.bin(BinOp::RemU, a, b)
    }

    /// Bitwise AND.
    pub fn and(&self, a: impl Into<Operand>, b: impl Into<Operand>) -> Val {
        self.bin(BinOp::And, a, b)
    }

    /// Bitwise OR.
    pub fn or(&self, a: impl Into<Operand>, b: impl Into<Operand>) -> Val {
        self.bin(BinOp::Or, a, b)
    }

    /// Bitwise XOR.
    pub fn xor(&self, a: impl Into<Operand>, b: impl Into<Operand>) -> Val {
        self.bin(BinOp::Xor, a, b)
    }

    /// Logical shift left.
    pub fn shl(&self, a: impl Into<Operand>, b: impl Into<Operand>) -> Val {
        self.bin(BinOp::Shl, a, b)
    }

    /// Logical shift right.
    pub fn shr(&self, a: impl Into<Operand>, b: impl Into<Operand>) -> Val {
        self.bin(BinOp::Shr, a, b)
    }

    /// Arithmetic shift right.
    pub fn sar(&self, a: impl Into<Operand>, b: impl Into<Operand>) -> Val {
        self.bin(BinOp::Sar, a, b)
    }

    /// Unsigned minimum.
    pub fn min_u(&self, a: impl Into<Operand>, b: impl Into<Operand>) -> Val {
        self.bin(BinOp::MinU, a, b)
    }

    /// Unsigned maximum.
    pub fn max_u(&self, a: impl Into<Operand>, b: impl Into<Operand>) -> Val {
        self.bin(BinOp::MaxU, a, b)
    }

    /// Signed minimum.
    pub fn min_s(&self, a: impl Into<Operand>, b: impl Into<Operand>) -> Val {
        self.bin(BinOp::MinS, a, b)
    }

    /// Signed maximum.
    pub fn max_s(&self, a: impl Into<Operand>, b: impl Into<Operand>) -> Val {
        self.bin(BinOp::MaxS, a, b)
    }

    /// `f32` addition.
    pub fn fadd(&self, a: impl Into<Operand>, b: impl Into<Operand>) -> Val {
        self.bin(BinOp::FAdd, a, b)
    }

    /// `f32` subtraction.
    pub fn fsub(&self, a: impl Into<Operand>, b: impl Into<Operand>) -> Val {
        self.bin(BinOp::FSub, a, b)
    }

    /// `f32` multiplication.
    pub fn fmul(&self, a: impl Into<Operand>, b: impl Into<Operand>) -> Val {
        self.bin(BinOp::FMul, a, b)
    }

    /// `f32` division.
    pub fn fdiv(&self, a: impl Into<Operand>, b: impl Into<Operand>) -> Val {
        self.bin(BinOp::FDiv, a, b)
    }

    /// `f32` minimum.
    pub fn fmin(&self, a: impl Into<Operand>, b: impl Into<Operand>) -> Val {
        self.bin(BinOp::FMin, a, b)
    }

    /// `f32` maximum.
    pub fn fmax(&self, a: impl Into<Operand>, b: impl Into<Operand>) -> Val {
        self.bin(BinOp::FMax, a, b)
    }

    /// Bitwise NOT.
    pub fn not(&self, a: impl Into<Operand>) -> Val {
        self.un(UnOp::Not, a)
    }

    /// Two's-complement negation.
    pub fn neg(&self, a: impl Into<Operand>) -> Val {
        self.un(UnOp::Neg, a)
    }

    /// `f32` negation.
    pub fn fneg(&self, a: impl Into<Operand>) -> Val {
        self.un(UnOp::FNeg, a)
    }

    /// `f32` absolute value.
    pub fn fabs(&self, a: impl Into<Operand>) -> Val {
        self.un(UnOp::FAbs, a)
    }

    /// `f32` square root.
    pub fn fsqrt(&self, a: impl Into<Operand>) -> Val {
        self.un(UnOp::FSqrt, a)
    }

    /// `f32` exponential.
    pub fn fexp(&self, a: impl Into<Operand>) -> Val {
        self.un(UnOp::FExp, a)
    }

    /// `f32` natural logarithm.
    pub fn fln(&self, a: impl Into<Operand>) -> Val {
        self.un(UnOp::FLn, a)
    }

    /// `f32` floor.
    pub fn ffloor(&self, a: impl Into<Operand>) -> Val {
        self.un(UnOp::FFloor, a)
    }

    /// Signed integer to `f32`.
    pub fn i2f(&self, a: impl Into<Operand>) -> Val {
        self.un(UnOp::I2F, a)
    }

    /// `f32` to signed integer (truncating).
    pub fn f2i(&self, a: impl Into<Operand>) -> Val {
        self.un(UnOp::F2I, a)
    }

    /// Compares `a` and `b`, producing a predicate.
    pub fn setp(&self, op: CmpOp, a: impl Into<Operand>, b: impl Into<Operand>) -> PredVal {
        let pred = self.fresh_pred();
        self.emit(InstOp::SetP {
            pred,
            op,
            a: a.into(),
            b: b.into(),
        });
        PredVal(pred)
    }

    /// `p ? a : b` — the if-conversion primitive.
    pub fn sel(&self, p: PredVal, a: impl Into<Operand>, b: impl Into<Operand>) -> Val {
        let dst = self.fresh_reg();
        self.emit(InstOp::Sel {
            dst,
            pred: p.0,
            a: a.into(),
            b: b.into(),
        });
        Val(dst)
    }

    // ---- memory -----------------------------------------------------------

    /// Loads from an arbitrary memory space.
    pub fn ld(&self, space: MemSpace, addr: impl Into<Operand>, width: MemWidth) -> Val {
        let dst = self.fresh_reg();
        self.emit(InstOp::Ld {
            dst,
            space,
            addr: addr.into(),
            width,
        });
        Val(dst)
    }

    /// Stores to an arbitrary memory space.
    pub fn st(
        &self,
        space: MemSpace,
        addr: impl Into<Operand>,
        value: impl Into<Operand>,
        width: MemWidth,
    ) {
        self.emit(InstOp::St {
            space,
            addr: addr.into(),
            value: value.into(),
            width,
        });
    }

    /// Guarded load: executes only in lanes where `p == expected`.
    pub fn ld_if(
        &self,
        p: PredVal,
        expected: bool,
        space: MemSpace,
        addr: impl Into<Operand>,
        width: MemWidth,
    ) -> Val {
        let dst = self.fresh_reg();
        self.emit_guarded(
            InstOp::Ld {
                dst,
                space,
                addr: addr.into(),
                width,
            },
            p,
            expected,
        );
        Val(dst)
    }

    /// Guarded store: executes only in lanes where `p == expected`.
    pub fn st_if(
        &self,
        p: PredVal,
        expected: bool,
        space: MemSpace,
        addr: impl Into<Operand>,
        value: impl Into<Operand>,
        width: MemWidth,
    ) {
        self.emit_guarded(
            InstOp::St {
                space,
                addr: addr.into(),
                value: value.into(),
                width,
            },
            p,
            expected,
        );
    }

    /// Global-memory load.
    pub fn load_global(&self, addr: impl Into<Operand>, width: MemWidth) -> Val {
        self.ld(MemSpace::Global, addr, width)
    }

    /// Global-memory store.
    pub fn store_global(
        &self,
        addr: impl Into<Operand>,
        value: impl Into<Operand>,
        width: MemWidth,
    ) {
        self.st(MemSpace::Global, addr, value, width);
    }

    /// Guarded global-memory store.
    pub fn store_global_if(
        &self,
        p: PredVal,
        expected: bool,
        addr: impl Into<Operand>,
        value: impl Into<Operand>,
        width: MemWidth,
    ) {
        self.st_if(p, expected, MemSpace::Global, addr, value, width);
    }

    /// Shared-memory load.
    pub fn load_shared(&self, addr: impl Into<Operand>, width: MemWidth) -> Val {
        self.ld(MemSpace::Shared, addr, width)
    }

    /// Shared-memory store.
    pub fn store_shared(
        &self,
        addr: impl Into<Operand>,
        value: impl Into<Operand>,
        width: MemWidth,
    ) {
        self.st(MemSpace::Shared, addr, value, width);
    }

    /// Local-memory load.
    pub fn load_local(&self, addr: impl Into<Operand>, width: MemWidth) -> Val {
        self.ld(MemSpace::Local, addr, width)
    }

    /// Local-memory store.
    pub fn store_local(
        &self,
        addr: impl Into<Operand>,
        value: impl Into<Operand>,
        width: MemWidth,
    ) {
        self.st(MemSpace::Local, addr, value, width);
    }

    /// Constant-bank load.
    pub fn load_const(&self, addr: impl Into<Operand>, width: MemWidth) -> Val {
        self.ld(MemSpace::Constant, addr, width)
    }

    /// Atomic read-modify-write; returns the old value.
    pub fn atomic(
        &self,
        op: AtomicOp,
        space: MemSpace,
        addr: impl Into<Operand>,
        value: impl Into<Operand>,
        width: MemWidth,
    ) -> Val {
        let dst = self.fresh_reg();
        self.emit(InstOp::Atomic {
            op,
            dst,
            space,
            addr: addr.into(),
            value: value.into(),
            width,
        });
        Val(dst)
    }

    /// `atomicAdd` on global memory; returns the old value.
    pub fn atomic_add_global(
        &self,
        addr: impl Into<Operand>,
        value: impl Into<Operand>,
        width: MemWidth,
    ) -> Val {
        self.atomic(AtomicOp::Add, MemSpace::Global, addr, value, width)
    }

    /// `atomicAdd` on shared memory; returns the old value.
    pub fn atomic_add_shared(
        &self,
        addr: impl Into<Operand>,
        value: impl Into<Operand>,
        width: MemWidth,
    ) -> Val {
        self.atomic(AtomicOp::Add, MemSpace::Shared, addr, value, width)
    }

    /// Warp butterfly shuffle (`__shfl_xor_sync`): reads `src` of the lane
    /// `laneid ^ mask`.
    pub fn shfl_xor(&self, src: Val, mask: impl Into<Operand>) -> Val {
        let dst = self.fresh_reg();
        self.emit(InstOp::Shfl {
            mode: ShflMode::Xor,
            dst,
            src: src.0,
            lane: mask.into(),
        });
        Val(dst)
    }

    /// Warp indexed shuffle (`__shfl_sync`): reads `src` of the given lane.
    pub fn shfl_idx(&self, src: Val, lane: impl Into<Operand>) -> Val {
        let dst = self.fresh_reg();
        self.emit(InstOp::Shfl {
            mode: ShflMode::Idx,
            dst,
            src: src.0,
            lane: lane.into(),
        });
        Val(dst)
    }

    /// Warp ballot (`__ballot_sync`): the 32-bit mask of lanes where `p`
    /// holds, identical in every active lane.
    pub fn ballot(&self, p: PredVal) -> Val {
        let dst = self.fresh_reg();
        self.emit(InstOp::Ballot { dst, pred: p.0 });
        Val(dst)
    }

    /// 2-D texture fetch with clamp-to-edge addressing.
    pub fn tex2d(&self, slot: u16, x: impl Into<Operand>, y: impl Into<Operand>) -> Val {
        let dst = self.fresh_reg();
        self.emit(InstOp::Tex {
            dst,
            slot,
            x: x.into(),
            y: y.into(),
        });
        Val(dst)
    }

    // ---- control flow -----------------------------------------------------

    /// Lanes where `p` is true run `then_f`; the warp reconverges after.
    pub fn if_then(&self, p: PredVal, then_f: impl FnOnce(&Self)) {
        self.if_then_else(p, then_f, |_| {});
    }

    /// Lanes split on `p` between `then_f` and `else_f`, reconverging after.
    pub fn if_then_else(&self, p: PredVal, then_f: impl FnOnce(&Self), else_f: impl FnOnce(&Self)) {
        self.flush_stmt();
        let then_region = self.build_region(then_f);
        let else_region = self.build_region(else_f);
        self.state
            .borrow_mut()
            .regions
            .last_mut()
            .expect("region stack never empty")
            .push(Stmt::If {
                pred: p.0,
                then_region,
                else_region,
            });
    }

    /// Top-tested loop: `cond_f` computes the continuation predicate each
    /// iteration; lanes leave individually, the warp loops until all left.
    pub fn while_loop(&self, cond_f: impl FnOnce(&Self) -> PredVal, body_f: impl FnOnce(&Self)) {
        self.flush_stmt();
        let pred = cond_f(self);
        let cond_block = self.flush_into_block();
        let body = self.build_region(body_f);
        self.state
            .borrow_mut()
            .regions
            .last_mut()
            .expect("region stack never empty")
            .push(Stmt::While {
                cond_block,
                pred: pred.0,
                body,
            });
    }

    /// Counted loop `for i in start..end { body_f(i) }` built from
    /// [`Self::while_loop`]. `start`/`end` are evaluated once, before the
    /// loop.
    pub fn for_range(
        &self,
        start: impl Into<Operand>,
        end: impl Into<Operand>,
        body_f: impl FnOnce(&Self, Val),
    ) {
        let i = self.mov(start);
        let end = self.mov(end);
        self.while_loop(
            |b| b.setp(CmpOp::LtU, i, end),
            |b| {
                body_f(b, i);
                let next = b.add(i, 1u64);
                b.assign(i, next);
            },
        );
    }

    /// Block-wide barrier (`__syncthreads`). Only valid at the top level.
    pub fn sync(&self) {
        self.flush_stmt();
        self.state
            .borrow_mut()
            .regions
            .last_mut()
            .expect("region stack never empty")
            .push(Stmt::Sync);
    }

    fn build_region<R>(&self, f: impl FnOnce(&Self) -> R) -> Region {
        self.state.borrow_mut().regions.push(Vec::new());
        let _ = f(self);
        self.flush_stmt();
        Region(
            self.state
                .borrow_mut()
                .regions
                .pop()
                .expect("region pushed above"),
        )
    }

    /// Seals the kernel and returns it validated and register-allocated.
    ///
    /// # Panics
    ///
    /// Panics if the produced program fails validation — that would be a
    /// builder bug, not a user error.
    pub fn finish(self) -> Kernel {
        self.flush_stmt();
        let state = self.state.into_inner();
        assert_eq!(
            state.regions.len(),
            1,
            "unbalanced region stack — builder bug"
        );
        let mut regions = state.regions;
        let program = KernelProgram {
            name: self.name,
            blocks: state.blocks,
            body: Region(regions.pop().expect("length checked")),
            num_regs: state.next_reg.max(1),
            num_preds: state.next_pred.max(1),
            shared_mem_bytes: state.shared_bytes,
            local_mem_bytes: state.local_bytes,
        };
        Kernel::new(program).expect("builder produced an invalid program")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_is_one_block() {
        let b = KernelBuilder::new("k");
        let x = b.mov(1u64);
        let _ = b.add(x, 2u64);
        let k = b.finish();
        assert_eq!(k.block_count(), 1);
        assert_eq!(k.blocks[0].insts.len(), 2);
        assert_eq!(k.body.0.len(), 1);
    }

    #[test]
    fn if_then_else_creates_three_regions() {
        let b = KernelBuilder::new("k");
        let x = b.mov(1u64);
        let p = b.setp(CmpOp::Eq, x, 1u64);
        b.if_then_else(
            p,
            |b| {
                let _ = b.mov(2u64);
            },
            |b| {
                let _ = b.mov(3u64);
            },
        );
        let _ = b.mov(4u64);
        let k = b.finish();
        // entry block, then block, else block, join block.
        assert_eq!(k.block_count(), 4);
        assert_eq!(k.body.0.len(), 3); // entry, If, join
        match &k.body.0[1] {
            Stmt::If {
                then_region,
                else_region,
                ..
            } => {
                assert_eq!(then_region.0.len(), 1);
                assert_eq!(else_region.0.len(), 1);
            }
            other => panic!("expected If, got {other:?}"),
        }
    }

    #[test]
    fn empty_else_is_empty_region() {
        let b = KernelBuilder::new("k");
        let x = b.mov(0u64);
        let p = b.setp(CmpOp::Eq, x, 0u64);
        b.if_then(p, |b| {
            let _ = b.mov(1u64);
        });
        let k = b.finish();
        match &k.body.0[1] {
            Stmt::If { else_region, .. } => assert!(else_region.is_empty()),
            other => panic!("expected If, got {other:?}"),
        }
    }

    #[test]
    fn while_loop_shape() {
        let b = KernelBuilder::new("k");
        let i = b.mov(0u64);
        b.while_loop(
            |b| b.setp(CmpOp::LtU, i, 10u64),
            |b| {
                let n = b.add(i, 1u64);
                b.assign(i, n);
            },
        );
        let k = b.finish();
        let Stmt::While {
            cond_block, body, ..
        } = &k.body.0[1]
        else {
            panic!("expected While as second stmt");
        };
        assert!(!k.blocks[cond_block.0 as usize].insts.is_empty());
        assert_eq!(body.0.len(), 1);
        k.validate().unwrap();
    }

    #[test]
    fn nested_regions_balance() {
        let b = KernelBuilder::new("k");
        let x = b.mov(0u64);
        let p = b.setp(CmpOp::Eq, x, 0u64);
        b.if_then(p, |b| {
            let q = b.setp(CmpOp::Ne, x, 5u64);
            b.if_then_else(
                q,
                |b| {
                    let _ = b.mov(1u64);
                },
                |b| {
                    let _ = b.mov(2u64);
                },
            );
        });
        let k = b.finish();
        k.validate().unwrap();
    }

    #[test]
    fn for_range_counts() {
        let b = KernelBuilder::new("k");
        b.for_range(2u64, 7u64, |b, i| {
            let _ = b.add(i, 0u64);
        });
        let k = b.finish();
        k.validate().unwrap();
        assert!(matches!(k.body.0.last(), Some(Stmt::While { .. })));
    }

    #[test]
    fn shared_and_local_sizes_propagate() {
        let b = KernelBuilder::new("k");
        b.set_shared_bytes(128);
        b.set_local_bytes(64);
        let _ = b.mov(0u64);
        let k = b.finish();
        assert_eq!(k.shared_mem_bytes, 128);
        assert_eq!(k.local_mem_bytes, 64);
    }

    #[test]
    fn register_counts_reported() {
        let b = KernelBuilder::new("k");
        let x = b.mov(0u64);
        let _ = b.add(x, x);
        let _ = b.setp(CmpOp::Eq, x, 0u64);
        let k = b.finish();
        assert_eq!(k.num_regs, 2);
        assert_eq!(k.num_preds, 1);
    }
}

//! Lockstep warp execution with SIMT divergence and reconvergence.
//!
//! A warp executes the kernel's structured control-flow tree with an
//! explicit frame stack and a 32-bit activity mask:
//!
//! * `If` pushes the not-taken region (with the false-lane mask) and the
//!   taken region (with the true-lane mask); after both frames pop, the
//!   parent continues with the full mask — exact reconvergence at the
//!   immediate post-dominator.
//! * `While` keeps a shrinking activity mask: once a lane fails the loop
//!   condition it leaves the loop permanently and waits at the
//!   reconvergence point, while the warp keeps iterating until every lane
//!   has left (SIMT loop divergence).
//! * Predicated (guarded) instructions execute only in guard-passing lanes
//!   but never alter warp control flow, so they are invisible to the
//!   basic-block trace — CUDA's predicated execution.
//!
//! The explicit stack lets a warp *pause* at a block-wide barrier and be
//! resumed by the engine once all warps of the CTA arrive.
//!
//! Instructions execute whole-warp, from the kernel's register-allocated
//! blocks (see [`Kernel`]), so the register file has [`Kernel::slots`]
//! rows. It is register-major (slot `r` of lane `l` lives at
//! `regs[r * warp_size + l]`), and each predicate register is one lane
//! mask. An ALU-class instruction matches its opcode once, evaluates one
//! loop over every lane into a stack row, and writes back the active
//! lanes. Inactive lanes are evaluated too, so every ALU function is
//! total; only an *active* lane's zero divisor is an error. Memory
//! instructions visit the active lanes in lane order.
//!
//! # Uniform rows
//!
//! Many values are the same in every lane (a kernel parameter, a block
//! index, a loop counter, a moment every thread recomputes). Each slot
//! carries a *uniform* tag with one invariant: a tagged slot's row holds
//! one value in every lane, valid or not. Rows stay materialised, so every
//! per-lane reader is unchanged; only [`WarpExec::row`] reads the tag, and
//! gives a tagged register as a [`Row::Splat`].
//!
//! * `Mov`, `Bin` and `Un` on immediates and tagged registers, `LdParam`,
//!   `Ballot`, a `Shfl` of a tagged source, the per-warp special registers
//!   (`Ctaid*`, `NTid*`, `NCtaid*`, `WarpId`) and a `Sel` whose predicate
//!   agrees on every active lane and picks a uniform operand evaluate
//!   once. Under the whole-warp mask the value fills the row and tags the
//!   slot; under a partial mask it goes to the active lanes and clears the
//!   tag, since the inactive lanes keep their old values.
//! * Every other write (a lane-vector ALU row, a per-lane load, atomic or
//!   texel, `Tid*`, `LaneId`, `GlobalTid`) clears the tag.
//! * `SetP` on two uniform operands compares once.
//! * A *broadcast load* — a global, shared or constant `Ld` whose active
//!   lanes share one address — reads memory once and writes that value to
//!   the active lanes (tagging the slot under the whole-warp mask). Its
//!   event still lists every active lane's `(lane, addr)`, so hooks and
//!   the cost model see the per-lane stream, and a faulting address fails
//!   at the first active lane with no register written. `Local` memory is
//!   private to each lane, so local loads keep the per-lane loop.
//!
//! A warp whose lanes extend past its block never reaches the whole-warp
//! mask, so its slots are never tagged once written.

use crate::cancel::CancelToken;
use crate::error::ExecError;
use crate::exec::CANCEL_CHECK_STRIDE;
use crate::grid::{Dim3, MAX_WARP_SIZE};
use crate::hook::{AccessKind, KernelHook, MemEventBatch, WarpRef};
use crate::isa::{
    AtomicOp, BinOp, CmpOp, Inst, InstOp, MemSpace, Operand, Pred, Reg, ShflMode, UnOp,
    CANONICAL_NAN,
};
use crate::mem::{DeviceMemory, LinearMemory};
use crate::program::{BlockId, Kernel, Region, Stmt};
use owl_metrics::SimCounters;

/// An activity mask wide enough for any supported warp (up to 64 lanes).
pub type Mask = u64;

/// Lanes of the widest supported warp: the length of an ALU result row.
const MAX_LANES: usize = MAX_WARP_SIZE as usize;

/// The lanes set in `mask`, lowest first.
fn lanes(mut mask: Mask) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// Execution resources shared by the warps of one launch, threaded through
/// the interpreter by the engine.
pub(crate) struct ExecEnv<'a> {
    /// Device global + constant memory.
    pub mem: &'a mut DeviceMemory,
    /// The CTA's shared-memory bank.
    pub shared: &'a mut LinearMemory,
    /// Instrumentation sink.
    pub hook: &'a mut dyn KernelHook,
    /// Per-block memory-event batch, reused across blocks and warps and
    /// flushed to the hook at every block exit.
    pub batch: &'a mut MemEventBatch,
    /// Remaining instruction budget for the whole launch.
    pub fuel: &'a mut u64,
    /// Cooperative cancellation handle, polled at block entry.
    pub cancel: Option<&'a CancelToken>,
    /// Block entries until the next cancellation poll (shared across the
    /// launch so the stride holds globally, not per warp).
    pub cancel_countdown: &'a mut u32,
    /// Kernel arguments.
    pub args: &'a [u64],
    /// Execution counters for launch statistics (instructions, branches,
    /// divergence, memory transactions, …).
    pub counters: &'a mut SimCounters,
}

/// Where a warp stopped when control returned to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WarpStatus {
    /// The warp reached a `Sync` and waits for the rest of its CTA.
    AtBarrier,
    /// The warp ran its whole body.
    Done,
}

enum FrameKind<'p> {
    /// Sequential statements of a region.
    Seq { items: &'p [Stmt], idx: usize },
    /// A `While` loop with its shrinking activity mask.
    Loop {
        cond_block: BlockId,
        pred: Pred,
        body: &'p Region,
        active: Mask,
        /// Some iteration shed a strict, non-empty subset of lanes — the
        /// loop has diverged and its eventual drain is a reconvergence.
        diverged: bool,
    },
}

struct Frame<'p> {
    kind: FrameKind<'p>,
    mask: Mask,
    /// Popping this frame rejoins a diverged warp (it is the last-finishing
    /// side of a divergent `If`), so the pop counts as a reconvergence.
    rejoin: bool,
}

/// What the interpreter loop decided to do next; extracted from the frame
/// stack so no borrow is held across execution.
enum Action<'p> {
    /// The top frame is exhausted.
    Pop,
    /// Execute one statement under the given mask.
    Stmt(&'p Stmt, Mask),
    /// Run one loop iteration: condition block, then possibly the body.
    LoopIter {
        cond_block: BlockId,
        pred: Pred,
        body: &'p Region,
        active: Mask,
    },
}

/// One warp's execution state.
pub(crate) struct WarpExec<'p> {
    /// The kernel, whose allocated blocks the warp executes.
    kernel: &'p Kernel,
    warp_ref: WarpRef,
    frames: Vec<Frame<'p>>,
    /// Initial activity mask (lanes that map to real threads).
    init_mask: Mask,
    /// Every lane of the warp, valid or not: under this mask a result row
    /// is written back with one copy.
    full_mask: Mask,
    /// Lanes per warp, the length of one register row.
    warp_size: usize,
    /// Register-major file: slot `r` is the row
    /// `regs[r * warp_size..(r + 1) * warp_size]`.
    regs: Vec<u64>,
    /// `uniform[r]`: slot `r`'s row holds one value in every lane.
    uniform: Vec<bool>,
    /// One lane mask per predicate register.
    preds: Vec<Mask>,
    /// Per-lane private (local) memory, allocated only when the kernel
    /// declares local bytes.
    local: Vec<LinearMemory>,
    ctaid: (u32, u32, u32),
    grid: Dim3,
    block: Dim3,
    cta_linear: u32,
    warp_in_block: u32,
    done: bool,
}

impl<'p> WarpExec<'p> {
    /// Creates the warp covering threads `[warp_in_block*32, ...+31]` of the
    /// given CTA. Lanes beyond the block size start inactive.
    pub fn new(
        kernel: &'p Kernel,
        grid: Dim3,
        block: Dim3,
        cta_linear: u32,
        warp_in_block: u32,
        warp_size: u32,
    ) -> Self {
        debug_assert!((1..=crate::grid::MAX_WARP_SIZE).contains(&warp_size));
        let block_threads = block.total();
        let mut init_mask: Mask = 0;
        for lane in 0..warp_size {
            let tid_linear = u64::from(warp_in_block) * u64::from(warp_size) + u64::from(lane);
            if tid_linear < block_threads {
                init_mask |= 1 << lane;
            }
        }
        let n_lanes = warp_size as usize;
        let local = if kernel.local_mem_bytes > 0 {
            (0..n_lanes)
                .map(|_| LinearMemory::new(kernel.local_mem_bytes as usize))
                .collect()
        } else {
            Vec::new()
        };
        let mut frames = Vec::with_capacity(8);
        frames.push(Frame {
            kind: FrameKind::Seq {
                items: &kernel.body.0,
                idx: 0,
            },
            mask: init_mask,
            rejoin: false,
        });
        WarpExec {
            kernel,
            warp_ref: WarpRef {
                cta: cta_linear,
                warp: warp_in_block,
            },
            frames,
            init_mask,
            full_mask: Mask::MAX >> (Mask::BITS - warp_size),
            warp_size: n_lanes,
            regs: vec![0; usize::from(kernel.slots()) * n_lanes],
            // Every row starts as zeros: one value.
            uniform: vec![true; usize::from(kernel.slots())],
            preds: vec![0; usize::from(kernel.num_preds)],
            local,
            ctaid: grid.unlinearize(u64::from(cta_linear)),
            grid,
            block,
            cta_linear,
            warp_in_block,
            done: false,
        }
    }

    /// `true` when the warp has no active lanes at all (a fully padded
    /// warp); such warps are never launched by hardware.
    pub fn is_empty(&self) -> bool {
        self.init_mask == 0
    }

    /// `true` once the warp has finished its body.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Register `r` across the warp.
    #[inline]
    fn reg_row(&self, r: Reg) -> &[u64] {
        &self.regs[usize::from(r.0) * self.warp_size..][..self.warp_size]
    }

    /// Register `r` across the warp, for writing.
    #[inline]
    fn reg_row_mut(&mut self, r: Reg) -> &mut [u64] {
        &mut self.regs[usize::from(r.0) * self.warp_size..][..self.warp_size]
    }

    /// Writes one lane of register `r`, which may now differ across lanes.
    #[inline]
    fn set_reg(&mut self, lane: usize, r: Reg, v: u64) {
        self.regs[usize::from(r.0) * self.warp_size + lane] = v;
        self.uniform[usize::from(r.0)] = false;
    }

    /// An operand across the warp: a tagged register or an immediate is a
    /// [`Row::Splat`].
    #[inline]
    fn row(&self, op: Operand) -> Row<'_> {
        match op {
            Operand::Reg(r) if self.uniform[usize::from(r.0)] => {
                Row::Splat(self.regs[usize::from(r.0) * self.warp_size])
            }
            Operand::Reg(r) => Row::Lanes(self.reg_row(r)),
            Operand::Imm(v) => Row::Splat(v),
        }
    }

    /// The one value an operand holds in every `active` lane, if it does.
    fn common_value(&self, op: Operand, active: Mask) -> Option<u64> {
        match self.row(op) {
            Row::Splat(v) => Some(v),
            Row::Lanes(row) => {
                let mut values = lanes(active).map(|lane| row[lane]);
                let first = values.next()?;
                values.all(|v| v == first).then_some(first)
            }
        }
    }

    /// An operand's value in one lane.
    #[inline]
    fn eval(&self, lane: usize, op: Operand) -> u64 {
        match op {
            Operand::Reg(r) => self.regs[usize::from(r.0) * self.warp_size + lane],
            Operand::Imm(v) => v,
        }
    }

    /// Mask of lanes (within `mask`) where predicate `p` is true.
    #[inline]
    fn pred_mask(&self, mask: Mask, p: Pred) -> Mask {
        mask & self.preds[usize::from(p.0)]
    }

    /// Evaluates `f` over every lane into a stack row, then writes the
    /// row's `active` lanes to register `dst`, whose lanes may now differ.
    #[inline]
    fn alu(&mut self, dst: Reg, active: Mask, f: impl FnOnce(&Self, &mut [u64])) {
        let mut buf = [0; MAX_LANES];
        let out = &mut buf[..self.warp_size];
        f(self, out);
        let full = active == self.full_mask;
        let row = self.reg_row_mut(dst);
        if full {
            row.copy_from_slice(out);
        } else {
            for lane in lanes(active) {
                row[lane] = out[lane];
            }
        }
        self.uniform[usize::from(dst.0)] = false;
    }

    /// Writes `v` to the `active` lanes of register `dst`. Under the
    /// whole-warp mask the row becomes one value and the slot is tagged
    /// uniform; under a partial mask the inactive lanes keep their values,
    /// so the tag is cleared.
    #[inline]
    fn write_uniform(&mut self, dst: Reg, active: Mask, v: u64) {
        let full = active == self.full_mask;
        let row = self.reg_row_mut(dst);
        if full {
            row.fill(v);
        } else {
            for lane in lanes(active) {
                row[lane] = v;
            }
        }
        self.uniform[usize::from(dst.0)] = full;
    }

    /// Runs until the next barrier or completion.
    pub fn run(&mut self, env: &mut ExecEnv<'_>) -> Result<WarpStatus, ExecError> {
        debug_assert!(!self.done, "running a finished warp");
        loop {
            // Extract what to do next from the top frame without holding the
            // borrow across execution.
            let action = match self.frames.last_mut() {
                None => {
                    self.done = true;
                    return Ok(WarpStatus::Done);
                }
                Some(frame) => {
                    let mask = frame.mask;
                    match &mut frame.kind {
                        FrameKind::Seq { items, idx } => {
                            // Copy the `&'p` slice out of the frame so the
                            // statement reference outlives the frame borrow.
                            let items: &'p [Stmt] = items;
                            if *idx >= items.len() {
                                Action::Pop
                            } else {
                                let stmt = &items[*idx];
                                *idx += 1;
                                Action::Stmt(stmt, mask)
                            }
                        }
                        FrameKind::Loop {
                            cond_block,
                            pred,
                            body,
                            active,
                            ..
                        } => {
                            if *active == 0 {
                                Action::Pop
                            } else {
                                Action::LoopIter {
                                    cond_block: *cond_block,
                                    pred: *pred,
                                    body,
                                    active: *active,
                                }
                            }
                        }
                    }
                }
            };
            match action {
                Action::Pop => {
                    self.pop_frame(env.counters);
                }
                Action::Stmt(stmt, mask) => match stmt {
                    Stmt::Block(id) => self.exec_block(*id, mask, env)?,
                    Stmt::If {
                        pred,
                        then_region,
                        else_region,
                    } => {
                        env.counters.branches += 1;
                        let m_then = self.pred_mask(mask, *pred);
                        let m_else = mask & !m_then;
                        // A divergence event: the branch splits the active
                        // mask into two non-empty paths. The frame that pops
                        // *last* carries the matching reconvergence.
                        let diverged = m_then != 0 && m_else != 0;
                        if diverged {
                            env.counters.divergence_events += 1;
                        }
                        let push_else = m_else != 0 && !else_region.is_empty();
                        let push_then = m_then != 0 && !then_region.is_empty();
                        // Push else first so the taken path runs first; both
                        // paths complete before the parent frame resumes —
                        // reconvergence at the immediate post-dominator.
                        if push_else {
                            self.frames.push(Frame {
                                kind: FrameKind::Seq {
                                    items: &else_region.0,
                                    idx: 0,
                                },
                                mask: m_else,
                                // The else frame is below the then frame, so
                                // it pops last and hosts the reconvergence.
                                rejoin: diverged,
                            });
                        }
                        if push_then {
                            self.frames.push(Frame {
                                kind: FrameKind::Seq {
                                    items: &then_region.0,
                                    idx: 0,
                                },
                                mask: m_then,
                                rejoin: diverged && !push_else,
                            });
                        }
                        if diverged && !push_else && !push_then {
                            // Both regions empty: the warp rejoins right
                            // here at the post-dominator.
                            env.counters.reconvergences += 1;
                        }
                    }
                    Stmt::While {
                        cond_block,
                        pred,
                        body,
                    } => {
                        self.frames.push(Frame {
                            kind: FrameKind::Loop {
                                cond_block: *cond_block,
                                pred: *pred,
                                body,
                                active: mask,
                                diverged: false,
                            },
                            mask,
                            rejoin: false,
                        });
                    }
                    Stmt::Sync => {
                        // Validation restricts Sync to the top level, so the
                        // mask here is the warp's full initial mask; anything
                        // else is divergence.
                        if mask != self.init_mask {
                            return Err(ExecError::BarrierDivergence {
                                warp: self.warp_ref,
                            });
                        }
                        return Ok(WarpStatus::AtBarrier);
                    }
                },
                Action::LoopIter {
                    cond_block,
                    pred,
                    body,
                    active,
                } => {
                    self.exec_block(cond_block, active, env)?;
                    env.counters.branches += 1;
                    let still = self.pred_mask(active, pred);
                    let Some(Frame {
                        kind:
                            FrameKind::Loop {
                                active: a,
                                diverged,
                                ..
                            },
                        ..
                    }) = self.frames.last_mut()
                    else {
                        unreachable!("loop frame cannot disappear during its own condition");
                    };
                    *a = still;
                    if still != 0 && still != active {
                        // Some active lanes exited while others continue —
                        // SIMT loop divergence.
                        *diverged = true;
                        env.counters.divergence_events += 1;
                    }
                    if still == 0 {
                        self.pop_frame(env.counters);
                    } else {
                        self.frames.push(Frame {
                            kind: FrameKind::Seq {
                                items: &body.0,
                                idx: 0,
                            },
                            mask: still,
                            rejoin: false,
                        });
                    }
                }
            }
        }
    }

    /// Pops the top frame, counting the reconvergence it may represent: a
    /// diverged `If` rejoins when its last-finishing side pops, a diverged
    /// loop rejoins when it drains.
    fn pop_frame(&mut self, counters: &mut SimCounters) {
        let Some(frame) = self.frames.pop() else {
            return;
        };
        let loop_rejoin = matches!(frame.kind, FrameKind::Loop { diverged: true, .. });
        if frame.rejoin || loop_rejoin {
            counters.reconvergences += 1;
        }
    }

    /// Delivers the block's buffered memory events, with the launch's
    /// memory, to the hook in one virtual call. Must run before control
    /// leaves the block — on success *and* on error — so hooks observe the
    /// same event stream as the oracle's one-event batches.
    fn flush_batch(&self, env: &mut ExecEnv<'_>) {
        if !env.batch.is_empty() {
            env.hook.mem_batch(self.warp_ref, env.batch, env.mem);
            env.batch.clear();
        }
    }

    fn exec_block(
        &mut self,
        id: BlockId,
        mask: Mask,
        env: &mut ExecEnv<'_>,
    ) -> Result<(), ExecError> {
        debug_assert_ne!(mask, 0, "executing a block with no active lanes");
        // Cancellation poll, strided so armed deadlines read the clock at
        // most once every `CANCEL_CHECK_STRIDE` block entries. Checked
        // before `bb_entry` so an abandoned launch emits no partial block.
        if let Some(token) = env.cancel {
            if *env.cancel_countdown == 0 {
                if token.is_cancelled() {
                    return Err(ExecError::Cancelled);
                }
                *env.cancel_countdown = CANCEL_CHECK_STRIDE;
            }
            *env.cancel_countdown -= 1;
        }
        env.hook.bb_entry(self.warp_ref, id);
        let block = &self.kernel.allocated()[id.0 as usize];
        let n = block.insts.len() as u64;
        // Charge fuel and the instruction counter for every instruction
        // the budget covers up front, keeping the per-instruction loop free
        // of budget branches. An execution error refunds the instructions
        // that never ran, and a budget shorter than the block stops where
        // it runs out, so totals match per-instruction accounting exactly.
        let runnable = n.min(*env.fuel);
        *env.fuel -= runnable;
        env.counters.instructions += runnable;
        let mut result = Ok(());
        for (inst_idx, inst) in block.insts[..runnable as usize].iter().enumerate() {
            if let Err(e) = self.exec_inst(id, inst_idx as u32, inst, mask, env) {
                let unexecuted = runnable - (inst_idx as u64 + 1);
                *env.fuel += unexecuted;
                env.counters.instructions -= unexecuted;
                result = Err(e);
                break;
            }
        }
        if result.is_ok() && runnable < n {
            result = Err(ExecError::FuelExhausted);
        }
        self.flush_batch(env);
        result
    }

    fn guard_mask(&self, mask: Mask, inst: &Inst) -> Mask {
        match inst.guard {
            None => mask,
            Some(g) => {
                let p = self.preds[usize::from(g.pred.0)];
                mask & if g.expected { p } else { !p }
            }
        }
    }

    fn exec_inst(
        &mut self,
        bb: BlockId,
        inst_idx: u32,
        inst: &Inst,
        mask: Mask,
        env: &mut ExecEnv<'_>,
    ) -> Result<(), ExecError> {
        let active = self.guard_mask(mask, inst);
        if active == 0 {
            return Ok(());
        }
        match inst.op {
            InstOp::Mov { dst, src } => match self.row(src) {
                Row::Splat(v) => self.write_uniform(dst, active, v),
                Row::Lanes(_) => self.alu(dst, active, |w, out| map1(out, w.row(src), |x| x)),
            },
            InstOp::Bin { op, dst, a, b } => {
                if divides_by_zero(op, self.row(b), active) {
                    return Err(ExecError::DivisionByZero {
                        bb,
                        inst_idx,
                        warp: self.warp_ref,
                    });
                }
                match (self.row(a), self.row(b)) {
                    (x @ Row::Splat(_), y @ Row::Splat(_)) => {
                        let v = once(|out| eval_bin(op, x, y, out));
                        self.write_uniform(dst, active, v);
                    }
                    _ => self.alu(dst, active, |w, out| eval_bin(op, w.row(a), w.row(b), out)),
                }
            }
            InstOp::Un { op, dst, a } => match self.row(a) {
                x @ Row::Splat(_) => {
                    let v = once(|out| eval_un(op, x, out));
                    self.write_uniform(dst, active, v);
                }
                Row::Lanes(_) => self.alu(dst, active, |w, out| eval_un(op, w.row(a), out)),
            },
            InstOp::SetP { pred, op, a, b } => {
                let bits = match (self.row(a), self.row(b)) {
                    (x @ Row::Splat(_), y @ Row::Splat(_)) => {
                        if eval_cmp(op, x, y, &mut [0]) == 1 {
                            Mask::MAX
                        } else {
                            0
                        }
                    }
                    (x, y) => eval_cmp(op, x, y, &mut [0; MAX_LANES][..self.warp_size]),
                };
                // Inactive lanes keep their predicate bits.
                let p = &mut self.preds[usize::from(pred.0)];
                *p = (*p & !active) | (bits & active);
            }
            InstOp::Sel { dst, pred, a, b } => {
                let p = self.preds[usize::from(pred.0)];
                // A predicate that agrees on every active lane makes the
                // select a move of the operand it picks.
                let picked = match p & active {
                    taken if taken == active => Some(a),
                    0 => Some(b),
                    _ => None,
                };
                match picked.map(|op| self.row(op)) {
                    Some(Row::Splat(v)) => self.write_uniform(dst, active, v),
                    _ => self.alu(dst, active, |w, out| select(p, w.row(a), w.row(b), out)),
                }
            }
            InstOp::Ld {
                dst,
                space,
                addr,
                width,
            } => {
                let width = width.bytes();
                env.batch.begin_event(bb, inst_idx, space, AccessKind::Read);
                // Local memory is private to each lane, so one local address
                // is still one value per lane.
                let broadcast = match space {
                    MemSpace::Global | MemSpace::Shared | MemSpace::Constant => {
                        self.common_value(addr, active)
                    }
                    MemSpace::Local | MemSpace::Texture => None,
                };
                let loaded = match broadcast {
                    Some(a) => {
                        for lane in lanes(active) {
                            env.batch.push_addr(lane as u8, a);
                        }
                        let first = active.trailing_zeros() as usize;
                        self.load(space, first, a, width, env)
                            .map(|v| self.write_uniform(dst, active, v))
                    }
                    None => lanes(active).try_for_each(|lane| {
                        let a = self.eval(lane, addr);
                        env.batch.push_addr(lane as u8, a);
                        let v = self.load(space, lane, a, width, env)?;
                        self.set_reg(lane, dst, v);
                        Ok(())
                    }),
                };
                if let Err(source) = loaded {
                    env.batch.abort_event();
                    return Err(ExecError::Memory {
                        bb,
                        inst_idx,
                        warp: self.warp_ref,
                        space,
                        source,
                    });
                }
                env.batch.finish_event(env.counters);
            }
            InstOp::St {
                space,
                addr,
                value,
                width,
            } => {
                let width = width.bytes();
                env.batch
                    .begin_event(bb, inst_idx, space, AccessKind::Write);
                for lane in lanes(active) {
                    let a = self.eval(lane, addr);
                    let v = self.eval(lane, value);
                    env.batch.push_addr(lane as u8, a);
                    if let Err(source) = self.store(space, lane, a, width, v, env) {
                        env.batch.abort_event();
                        return Err(ExecError::Memory {
                            bb,
                            inst_idx,
                            warp: self.warp_ref,
                            space,
                            source,
                        });
                    }
                }
                env.batch.finish_event(env.counters);
            }
            InstOp::LdParam { dst, index } => {
                let v = *env
                    .args
                    .get(usize::from(index))
                    .ok_or(ExecError::ParamOutOfRange {
                        index,
                        provided: env.args.len(),
                    })?;
                self.write_uniform(dst, active, v);
            }
            InstOp::Special { dst, sr } if per_warp(sr) => {
                let v = self.special(active.trailing_zeros() as usize, sr);
                self.write_uniform(dst, active, v);
            }
            InstOp::Special { dst, sr } => {
                for lane in lanes(active) {
                    let v = self.special(lane, sr);
                    self.set_reg(lane, dst, v);
                }
            }
            InstOp::Atomic {
                op,
                dst,
                space,
                addr,
                value,
                width,
            } => {
                let width = width.bytes();
                let value_mask = u64::MAX >> (64 - 8 * width);
                env.batch
                    .begin_event(bb, inst_idx, space, AccessKind::Atomic);
                // Lanes serialise in lane order — a deterministic pick of
                // the order hardware serialises atomics in.
                for lane in lanes(active) {
                    let a = self.eval(lane, addr);
                    let v = self.eval(lane, value);
                    env.batch.push_addr(lane as u8, a);
                    let old = match self.load(space, lane, a, width, env) {
                        Ok(old) => old,
                        Err(source) => {
                            env.batch.abort_event();
                            return Err(ExecError::Memory {
                                bb,
                                inst_idx,
                                warp: self.warp_ref,
                                space,
                                source,
                            });
                        }
                    };
                    let new = match op {
                        AtomicOp::Add => old.wrapping_add(v) & value_mask,
                        AtomicOp::MinU => old.min(v & value_mask),
                        AtomicOp::MaxU => old.max(v & value_mask),
                        AtomicOp::Exch => v & value_mask,
                    };
                    if let Err(source) = self.store(space, lane, a, width, new, env) {
                        env.batch.abort_event();
                        return Err(ExecError::Memory {
                            bb,
                            inst_idx,
                            warp: self.warp_ref,
                            space,
                            source,
                        });
                    }
                    self.set_reg(lane, dst, old);
                }
                env.batch.finish_event(env.counters);
            }
            InstOp::Shfl {
                mode,
                dst,
                src,
                lane: lane_sel,
            } => match self.row(Operand::Reg(src)) {
                // Every peer, active or not, holds the same value.
                Row::Splat(v) => self.write_uniform(dst, active, v),
                // The result row is built before any lane writes, so every
                // lane reads its peer's *pre-instruction* value.
                Row::Lanes(_) => self.alu(dst, active, |w, out| {
                    let (src, sel, ws) = (w.reg_row(src), w.row(lane_sel), w.warp_size);
                    for (lane, o) in out.iter_mut().enumerate() {
                        let sel = sel.at(lane) as usize;
                        let peer = match mode {
                            ShflMode::Xor => (lane ^ sel) % ws,
                            ShflMode::Idx => sel % ws,
                        };
                        // Inactive peer: keep own value (hardware leaves it
                        // undefined; a deterministic choice is required here).
                        *o = if active & (1 << peer) != 0 {
                            src[peer]
                        } else {
                            src[lane]
                        };
                    }
                }),
            },
            InstOp::Ballot { dst, pred } => {
                let mask = self.pred_mask(active, pred);
                self.write_uniform(dst, active, mask);
            }
            InstOp::Tex { dst, slot, x, y } => {
                let texture = env
                    .mem
                    .texture(slot)
                    .ok_or(ExecError::UnboundTexture { slot })?;
                env.batch
                    .begin_event(bb, inst_idx, MemSpace::Texture, AccessKind::Read);
                for lane in lanes(active) {
                    let (xi, yi) = (self.eval(lane, x) as i64, self.eval(lane, y) as i64);
                    let (texel, idx) = texture.fetch(xi, yi);
                    env.batch.push_addr(lane as u8, idx);
                    self.set_reg(lane, dst, u64::from(texel));
                }
                env.batch.finish_event(env.counters);
            }
        }
        Ok(())
    }

    fn load(
        &mut self,
        space: MemSpace,
        lane: usize,
        addr: u64,
        width: u64,
        env: &mut ExecEnv<'_>,
    ) -> Result<u64, crate::mem::AccessError> {
        match space {
            MemSpace::Global => env.mem.load(addr, width),
            MemSpace::Shared => env.shared.load(addr, width),
            MemSpace::Constant => env.mem.constant().load(addr, width),
            MemSpace::Local => self
                .local
                .get(lane)
                .ok_or(crate::mem::AccessError { addr, width })?
                .load(addr, width),
            // Validation rejects plain loads on the texture space.
            MemSpace::Texture => Err(crate::mem::AccessError { addr, width }),
        }
    }

    fn store(
        &mut self,
        space: MemSpace,
        lane: usize,
        addr: u64,
        width: u64,
        value: u64,
        env: &mut ExecEnv<'_>,
    ) -> Result<(), crate::mem::AccessError> {
        match space {
            MemSpace::Global => env.mem.store(addr, width, value),
            MemSpace::Shared => env.shared.store(addr, width, value),
            MemSpace::Constant => Err(crate::mem::AccessError { addr, width }),
            MemSpace::Local => self
                .local
                .get_mut(lane)
                .ok_or(crate::mem::AccessError { addr, width })?
                .store(addr, width, value),
            // Validation rejects plain stores on the texture space.
            MemSpace::Texture => Err(crate::mem::AccessError { addr, width }),
        }
    }

    fn special(&self, lane: usize, sr: crate::isa::SpecialReg) -> u64 {
        use crate::isa::SpecialReg::*;
        debug_assert!(
            self.init_mask >> lane & 1 != 0,
            "special register read in an invalid lane"
        );
        // The thread's linear index in its block; each coordinate is
        // derived only when it is read.
        let tid_linear = u64::from(self.warp_in_block) * self.warp_size as u64 + lane as u64;
        let (x, y) = (u64::from(self.block.x), u64::from(self.block.y));
        match sr {
            TidX => tid_linear % x,
            TidY => tid_linear / x % y,
            TidZ => tid_linear / (x * y),
            CtaidX => u64::from(self.ctaid.0),
            CtaidY => u64::from(self.ctaid.1),
            CtaidZ => u64::from(self.ctaid.2),
            NTidX => u64::from(self.block.x),
            NTidY => u64::from(self.block.y),
            NTidZ => u64::from(self.block.z),
            NCtaidX => u64::from(self.grid.x),
            NCtaidY => u64::from(self.grid.y),
            NCtaidZ => u64::from(self.grid.z),
            LaneId => lane as u64,
            WarpId => u64::from(self.warp_in_block),
            GlobalTid => u64::from(self.cta_linear) * self.block.total() + tid_linear,
        }
    }
}

/// `true` for the special registers that hold one value per warp.
fn per_warp(sr: crate::isa::SpecialReg) -> bool {
    use crate::isa::SpecialReg::*;
    match sr {
        CtaidX | CtaidY | CtaidZ | NTidX | NTidY | NTidZ | NCtaidX | NCtaidY | NCtaidZ | WarpId => {
            true
        }
        TidX | TidY | TidZ | LaneId | GlobalTid => false,
    }
}

/// An ALU operand across the warp: a register row, or one value every lane
/// reads (an immediate or a uniform register).
#[derive(Clone, Copy)]
enum Row<'a> {
    Lanes(&'a [u64]),
    Splat(u64),
}

impl Row<'_> {
    /// The operand's value in `lane`.
    #[inline]
    fn at(self, lane: usize) -> u64 {
        match self {
            Row::Lanes(row) => row[lane],
            Row::Splat(v) => v,
        }
    }
}

/// `out[l] = f(a[l])` over every lane, one monomorphic loop per operand
/// shape.
#[inline(always)]
fn map1(out: &mut [u64], a: Row<'_>, f: impl Fn(u64) -> u64) {
    match a {
        Row::Lanes(a) => {
            for (o, &x) in out.iter_mut().zip(a) {
                *o = f(x);
            }
        }
        Row::Splat(x) => out.fill(f(x)),
    }
}

/// `out[l] = f(a[l], b[l])` over every lane, one monomorphic loop per
/// operand shape.
#[inline(always)]
fn map2(out: &mut [u64], a: Row<'_>, b: Row<'_>, f: impl Fn(u64, u64) -> u64) {
    match (a, b) {
        (Row::Lanes(a), Row::Lanes(b)) => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = f(x, y);
            }
        }
        (Row::Lanes(a), Row::Splat(y)) => {
            for (o, &x) in out.iter_mut().zip(a) {
                *o = f(x, y);
            }
        }
        (Row::Splat(x), Row::Lanes(b)) => {
            for (o, &y) in out.iter_mut().zip(b) {
                *o = f(x, y);
            }
        }
        (Row::Splat(x), Row::Splat(y)) => out.fill(f(x, y)),
    }
}

/// The one result of an ALU function whose operands are all
/// [`Row::Splat`]: its evaluation over a one-lane row.
#[inline(always)]
fn once(f: impl FnOnce(&mut [u64])) -> u64 {
    let mut out = [0];
    f(&mut out);
    out[0]
}

fn f32_of(bits: u64) -> f32 {
    f32::from_bits(bits as u32)
}

/// The register bits of an `F*` result; every NaN becomes the ISA's
/// [`CANONICAL_NAN`].
fn bits_of(v: f32) -> u64 {
    if v.is_nan() {
        u64::from(CANONICAL_NAN)
    } else {
        u64::from(v.to_bits())
    }
}

/// `true` when `op` divides and an *active* lane's divisor is zero — the
/// one ALU error. Inactive lanes may hold any divisor.
fn divides_by_zero(op: BinOp, b: Row<'_>, active: Mask) -> bool {
    matches!(op, BinOp::DivU | BinOp::RemU) && lanes(active).any(|lane| b.at(lane) == 0)
}

/// Evaluates a binary ALU operation over every lane into `out`. Total: a
/// zero divisor yields 0, so [`divides_by_zero`] must vet the active lanes
/// first.
fn eval_bin(op: BinOp, a: Row<'_>, b: Row<'_>, out: &mut [u64]) {
    match op {
        BinOp::Add => map2(out, a, b, u64::wrapping_add),
        BinOp::Sub => map2(out, a, b, u64::wrapping_sub),
        BinOp::Mul => map2(out, a, b, u64::wrapping_mul),
        BinOp::DivU => map2(out, a, b, |x, y| x.checked_div(y).unwrap_or(0)),
        BinOp::RemU => map2(out, a, b, |x, y| x.checked_rem(y).unwrap_or(0)),
        BinOp::And => map2(out, a, b, |x, y| x & y),
        BinOp::Or => map2(out, a, b, |x, y| x | y),
        BinOp::Xor => map2(out, a, b, |x, y| x ^ y),
        BinOp::Shl => map2(out, a, b, |x, y| x.wrapping_shl(y as u32)),
        BinOp::Shr => map2(out, a, b, |x, y| x.wrapping_shr(y as u32)),
        BinOp::Sar => map2(out, a, b, |x, y| (x as i64).wrapping_shr(y as u32) as u64),
        BinOp::MinU => map2(out, a, b, u64::min),
        BinOp::MaxU => map2(out, a, b, u64::max),
        BinOp::MinS => map2(out, a, b, |x, y| (x as i64).min(y as i64) as u64),
        BinOp::MaxS => map2(out, a, b, |x, y| (x as i64).max(y as i64) as u64),
        BinOp::FAdd => map2(out, a, b, |x, y| bits_of(f32_of(x) + f32_of(y))),
        BinOp::FSub => map2(out, a, b, |x, y| bits_of(f32_of(x) - f32_of(y))),
        BinOp::FMul => map2(out, a, b, |x, y| bits_of(f32_of(x) * f32_of(y))),
        BinOp::FDiv => map2(out, a, b, |x, y| bits_of(f32_of(x) / f32_of(y))),
        BinOp::FMin => map2(out, a, b, |x, y| bits_of(f32_of(x).min(f32_of(y)))),
        BinOp::FMax => map2(out, a, b, |x, y| bits_of(f32_of(x).max(f32_of(y)))),
    }
}

/// Evaluates a unary ALU operation over every lane into `out`.
fn eval_un(op: UnOp, a: Row<'_>, out: &mut [u64]) {
    match op {
        UnOp::Not => map1(out, a, |x| !x),
        UnOp::Neg => map1(out, a, |x| (x as i64).wrapping_neg() as u64),
        UnOp::FNeg => map1(out, a, |x| bits_of(-f32_of(x))),
        UnOp::FAbs => map1(out, a, |x| bits_of(f32_of(x).abs())),
        UnOp::FSqrt => map1(out, a, |x| bits_of(f32_of(x).sqrt())),
        UnOp::FExp => map1(out, a, |x| bits_of(f32_of(x).exp())),
        UnOp::FLn => map1(out, a, |x| bits_of(f32_of(x).ln())),
        UnOp::FFloor => map1(out, a, |x| bits_of(f32_of(x).floor())),
        UnOp::I2F => map1(out, a, |x| bits_of(x as i64 as f32)),
        UnOp::F2I => map1(out, a, |x| {
            let f = f32_of(x);
            if f.is_nan() {
                0
            } else {
                (f as i64) as u64
            }
        }),
    }
}

/// Evaluates a comparison over every lane, using `scratch` (one slot per
/// lane) for the per-lane results, and returns them as a lane mask.
fn eval_cmp(op: CmpOp, a: Row<'_>, b: Row<'_>, scratch: &mut [u64]) -> Mask {
    match op {
        CmpOp::Eq => map2(scratch, a, b, |x, y| u64::from(x == y)),
        CmpOp::Ne => map2(scratch, a, b, |x, y| u64::from(x != y)),
        CmpOp::LtU => map2(scratch, a, b, |x, y| u64::from(x < y)),
        CmpOp::LeU => map2(scratch, a, b, |x, y| u64::from(x <= y)),
        CmpOp::GtU => map2(scratch, a, b, |x, y| u64::from(x > y)),
        CmpOp::GeU => map2(scratch, a, b, |x, y| u64::from(x >= y)),
        CmpOp::LtS => map2(scratch, a, b, |x, y| u64::from((x as i64) < (y as i64))),
        CmpOp::LeS => map2(scratch, a, b, |x, y| u64::from((x as i64) <= (y as i64))),
        CmpOp::GtS => map2(scratch, a, b, |x, y| u64::from((x as i64) > (y as i64))),
        CmpOp::GeS => map2(scratch, a, b, |x, y| u64::from((x as i64) >= (y as i64))),
        CmpOp::FLt => map2(scratch, a, b, |x, y| u64::from(f32_of(x) < f32_of(y))),
        CmpOp::FLe => map2(scratch, a, b, |x, y| u64::from(f32_of(x) <= f32_of(y))),
        CmpOp::FGt => map2(scratch, a, b, |x, y| u64::from(f32_of(x) > f32_of(y))),
        CmpOp::FGe => map2(scratch, a, b, |x, y| u64::from(f32_of(x) >= f32_of(y))),
        CmpOp::FEq => map2(scratch, a, b, |x, y| u64::from(f32_of(x) == f32_of(y))),
        CmpOp::FNe => map2(scratch, a, b, |x, y| u64::from(f32_of(x) != f32_of(y))),
    }
    scratch
        .iter()
        .enumerate()
        .fold(0, |mask, (lane, &bit)| mask | bit << lane)
}

/// `out[l] = if p has lane l { a[l] } else { b[l] }` over every lane.
fn select(p: Mask, a: Row<'_>, b: Row<'_>, out: &mut [u64]) {
    for (lane, o) in out.iter_mut().enumerate() {
        *o = if p >> lane & 1 != 0 {
            a.at(lane)
        } else {
            b.at(lane)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One lane's `eval_bin`, with its `divides_by_zero` check as `None`.
    fn bin(op: BinOp, a: u64, b: u64) -> Option<u64> {
        let mut out = [0];
        if divides_by_zero(op, Row::Splat(b), 1) {
            return None;
        }
        eval_bin(op, Row::Splat(a), Row::Splat(b), &mut out);
        Some(out[0])
    }

    fn un(op: UnOp, a: u64) -> u64 {
        let mut out = [0];
        eval_un(op, Row::Lanes(&[a]), &mut out);
        out[0]
    }

    fn cmp(op: CmpOp, a: u64, b: u64) -> bool {
        eval_cmp(op, Row::Lanes(&[a]), Row::Splat(b), &mut [0]) == 1
    }

    #[test]
    fn bin_ops_basic() {
        assert_eq!(bin(BinOp::Add, u64::MAX, 1), Some(0));
        assert_eq!(bin(BinOp::Sub, 0, 1), Some(u64::MAX));
        assert_eq!(bin(BinOp::DivU, 7, 2), Some(3));
        assert_eq!(bin(BinOp::DivU, 7, 0), None);
        assert_eq!(bin(BinOp::RemU, 7, 0), None);
        assert_eq!(bin(BinOp::MinS, (-1i64) as u64, 1), Some((-1i64) as u64));
        assert_eq!(bin(BinOp::MaxU, (-1i64) as u64, 1), Some(u64::MAX));
        assert_eq!(bin(BinOp::Sar, (-8i64) as u64, 2), Some((-2i64) as u64));
        // A zero divisor in an inactive lane is no error, and evaluates
        // to 0 there.
        let divisors = [2, 0];
        assert!(!divides_by_zero(BinOp::DivU, Row::Lanes(&divisors), 0b01));
        assert!(divides_by_zero(BinOp::DivU, Row::Lanes(&divisors), 0b11));
        let mut out = [9; 2];
        eval_bin(BinOp::DivU, Row::Splat(7), Row::Lanes(&divisors), &mut out);
        assert_eq!(out, [3, 0]);
    }

    #[test]
    fn float_ops_roundtrip_bits() {
        let a = bits_of(1.5);
        let b = bits_of(2.0);
        assert_eq!(bin(BinOp::FMul, a, b), Some(bits_of(3.0)));
        assert_eq!(un(UnOp::FSqrt, bits_of(9.0)), bits_of(3.0));
        assert_eq!(un(UnOp::I2F, (-3i64) as u64), bits_of(-3.0));
        assert_eq!(un(UnOp::F2I, bits_of(-3.7)), (-3i64) as u64);
        assert_eq!(un(UnOp::F2I, bits_of(f32::NAN)), 0);
    }

    #[test]
    fn cmp_ops_signedness() {
        let neg1 = (-1i64) as u64;
        assert!(cmp(CmpOp::LtS, neg1, 0));
        assert!(!cmp(CmpOp::LtU, neg1, 0));
        assert!(cmp(CmpOp::FLt, bits_of(-1.0), bits_of(0.0)));
        assert!(!cmp(CmpOp::FLt, bits_of(f32::NAN), bits_of(0.0)));
        assert!(cmp(CmpOp::FNe, bits_of(f32::NAN), bits_of(f32::NAN)));
    }
}

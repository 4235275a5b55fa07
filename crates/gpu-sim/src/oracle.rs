//! A deliberately naive reference interpreter — the conformance oracle.
//!
//! This module is the independent semantics the differential conformance
//! suite checks the production interpreter against (cuFuzz-style random
//! program differential testing). It executes a [`Kernel`]'s
//! [`KernelProgram`] as written, with one register per value, never the
//! register-allocated blocks the production interpreter runs:
//!
//! * plain recursive descent over the structured statement tree — no
//!   explicit frame stack;
//! * one `match` per [`InstOp`] — no pre-resolved
//!   operand tables;
//! * one single-event [`KernelHook::mem_batch`] call per memory
//!   instruction, emitted once every lane has succeeded — no per-block
//!   batching, no mid-instruction abort, no block-exit flush;
//! * per-lane `Vec<Vec<u64>>` register files — no flat indexing tricks;
//! * per-instruction fuel accounting — no block-level budget charging.
//!
//! The only things it shares with the fast path are the *contract
//! definitions*: the ISA types, the memory model ([`crate::mem`]), the hook
//! interface with its event container and cost model ([`crate::hook`]), and
//! the error type, plus [`Kernel`] as the proof that a program was
//! validated. It must never read the allocated blocks or depend on
//! `crate::lowered` — if the two interpreters shared interpretation
//! logic or register numbering, a bug there would be invisible to the
//! differential suite, which is also what checks the register allocation.
//!
//! The observable contract both interpreters satisfy:
//!
//! * identical device memory after the launch (and identical partial
//!   effects when the launch errors),
//! * identical hook event sequences (`kernel_begin`, `bb_entry`,
//!   per-instruction memory events in execution order, `kernel_end`) once
//!   each memory batch is flattened into its events,
//! * identical [`LaunchStats`] including every [`SimCounters`] field,
//! * identical `Result`, including the exact [`ExecError`] variant and
//!   fields on failure.

use crate::error::ExecError;
use crate::grid::{Dim3, LaunchConfig};
use crate::hook::{AccessKind, KernelHook, LaunchInfo, MemEventBatch, WarpRef};
use crate::isa::{
    AtomicOp, BinOp, CmpOp, Guard, Inst, InstOp, MemSpace, Operand, ShflMode, SpecialReg, UnOp,
    CANONICAL_NAN,
};
use crate::mem::{AccessError, DeviceMemory, LinearMemory};
use crate::program::{BlockId, Kernel, KernelProgram, Region, Stmt};
use owl_metrics::SimCounters;

use crate::exec::{LaunchOptions, LaunchStats};

/// Execution resources threaded through the oracle, mirroring the engine's
/// environment but without the shared event batch (the oracle builds one
/// batch per event).
struct OracleEnv<'a> {
    mem: &'a mut DeviceMemory,
    shared: &'a mut LinearMemory,
    hook: &'a mut dyn KernelHook,
    fuel: &'a mut u64,
    cancel: Option<&'a crate::cancel::CancelToken>,
    cancel_countdown: &'a mut u32,
    args: &'a [u64],
    counters: &'a mut SimCounters,
}

/// Where an oracle warp stopped when control returned to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OracleStatus {
    AtBarrier,
    Done,
}

/// One warp's state in the oracle: per-lane register files plus a cursor
/// into the top-level statement list (barriers are top-level only, so the
/// cursor is all the resumption state a warp needs — nested control flow
/// runs to completion inside one `run` call).
struct OracleWarp<'p> {
    program: &'p KernelProgram,
    warp_ref: WarpRef,
    init_mask: u64,
    warp_size: u32,
    /// `regs[lane][reg]` — one register file per lane.
    regs: Vec<Vec<u64>>,
    /// `preds[lane][pred]` — one predicate file per lane.
    preds: Vec<Vec<bool>>,
    /// Per-lane `(tid.x, tid.y, tid.z)`; `None` for padding lanes.
    tids: Vec<Option<(u32, u32, u32)>>,
    local: Vec<LinearMemory>,
    ctaid: (u32, u32, u32),
    grid: Dim3,
    block: Dim3,
    cta_linear: u32,
    warp_in_block: u32,
    /// Index of the next top-level statement to execute.
    next_top: usize,
    done: bool,
}

impl<'p> OracleWarp<'p> {
    fn new(
        program: &'p KernelProgram,
        grid: Dim3,
        block: Dim3,
        cta_linear: u32,
        warp_in_block: u32,
        warp_size: u32,
    ) -> Self {
        let block_threads = block.total();
        let n_lanes = warp_size as usize;
        let mut tids = vec![None; n_lanes];
        let mut init_mask = 0u64;
        for lane in 0..warp_size {
            let tid_linear = u64::from(warp_in_block) * u64::from(warp_size) + u64::from(lane);
            if tid_linear < block_threads {
                tids[lane as usize] = Some(block.unlinearize(tid_linear));
                init_mask |= 1 << lane;
            }
        }
        let local = if program.local_mem_bytes > 0 {
            (0..n_lanes)
                .map(|_| LinearMemory::new(program.local_mem_bytes as usize))
                .collect()
        } else {
            Vec::new()
        };
        OracleWarp {
            program,
            warp_ref: WarpRef {
                cta: cta_linear,
                warp: warp_in_block,
            },
            init_mask,
            warp_size,
            regs: vec![vec![0; usize::from(program.num_regs)]; n_lanes],
            preds: vec![vec![false; usize::from(program.num_preds)]; n_lanes],
            tids,
            local,
            ctaid: grid.unlinearize(u64::from(cta_linear)),
            grid,
            block,
            cta_linear,
            warp_in_block,
            next_top: 0,
            done: false,
        }
    }

    fn is_empty(&self) -> bool {
        self.init_mask == 0
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn eval(&self, lane: usize, op: Operand) -> u64 {
        match op {
            Operand::Reg(r) => self.regs[lane][usize::from(r.0)],
            Operand::Imm(v) => v,
        }
    }

    /// Lanes of `mask` (low-to-high) as indices.
    fn lanes_of(&self, mask: u64) -> impl Iterator<Item = usize> + '_ {
        (0..self.warp_size as usize).filter(move |&l| mask & (1 << l) != 0)
    }

    /// Mask of lanes (within `mask`) where predicate `p` is true.
    fn pred_mask(&self, mask: u64, p: u16) -> u64 {
        let mut out = 0;
        for lane in self.lanes_of(mask) {
            if self.preds[lane][usize::from(p)] {
                out |= 1 << lane;
            }
        }
        out
    }

    /// Runs until the next barrier or completion. Validation restricts
    /// `Sync` to the top level, so everything below the top statement list
    /// executes in one recursive descent.
    fn run(&mut self, env: &mut OracleEnv<'_>) -> Result<OracleStatus, ExecError> {
        debug_assert!(!self.done, "running a finished oracle warp");
        while self.next_top < self.program.body.0.len() {
            let stmt = &self.program.body.0[self.next_top];
            self.next_top += 1;
            if let Stmt::Sync = stmt {
                // The top-level mask is always the warp's full initial
                // mask; a divergent barrier is unreachable here (validation
                // rejects nested `Sync`) but the contract keeps the check.
                return Ok(OracleStatus::AtBarrier);
            }
            self.exec_stmt(stmt, self.init_mask, env)?;
        }
        self.done = true;
        Ok(OracleStatus::Done)
    }

    fn exec_region(
        &mut self,
        region: &'p Region,
        mask: u64,
        env: &mut OracleEnv<'_>,
    ) -> Result<(), ExecError> {
        for stmt in &region.0 {
            self.exec_stmt(stmt, mask, env)?;
        }
        Ok(())
    }

    fn exec_stmt(
        &mut self,
        stmt: &'p Stmt,
        mask: u64,
        env: &mut OracleEnv<'_>,
    ) -> Result<(), ExecError> {
        match stmt {
            Stmt::Block(id) => self.exec_block(*id, mask, env),
            Stmt::If {
                pred,
                then_region,
                else_region,
            } => {
                env.counters.branches += 1;
                let m_then = self.pred_mask(mask, pred.0);
                let m_else = mask & !m_then;
                let diverged = m_then != 0 && m_else != 0;
                if diverged {
                    env.counters.divergence_events += 1;
                }
                let run_then = m_then != 0 && !then_region.is_empty();
                let run_else = m_else != 0 && !else_region.is_empty();
                // Taken side first; each side's completion point carries the
                // reconvergence of a diverged branch exactly where the
                // engine's frame pops count it (the last-finishing side).
                if run_then {
                    self.exec_region(then_region, m_then, env)?;
                    if diverged && !run_else {
                        env.counters.reconvergences += 1;
                    }
                }
                if run_else {
                    self.exec_region(else_region, m_else, env)?;
                    if diverged {
                        env.counters.reconvergences += 1;
                    }
                }
                if diverged && !run_then && !run_else {
                    env.counters.reconvergences += 1;
                }
                Ok(())
            }
            Stmt::While {
                cond_block,
                pred,
                body,
            } => {
                let mut active = mask;
                let mut diverged = false;
                loop {
                    if active == 0 {
                        if diverged {
                            env.counters.reconvergences += 1;
                        }
                        return Ok(());
                    }
                    self.exec_block(*cond_block, active, env)?;
                    env.counters.branches += 1;
                    let still = self.pred_mask(active, pred.0);
                    if still != 0 && still != active {
                        // A strict non-empty subset of lanes left the loop:
                        // SIMT loop divergence (shedding to zero is a
                        // uniform exit, not a divergence).
                        diverged = true;
                        env.counters.divergence_events += 1;
                    }
                    active = still;
                    if active != 0 {
                        self.exec_region(body, active, env)?;
                    }
                }
            }
            Stmt::Sync => {
                // Validation restricts barriers to the top level, which
                // `run` intercepts; a nested barrier would have divergent
                // potential and is rejected before launch.
                if mask != self.init_mask {
                    return Err(ExecError::BarrierDivergence {
                        warp: self.warp_ref,
                    });
                }
                unreachable!("top-level Sync is handled by OracleWarp::run");
            }
        }
    }

    fn exec_block(
        &mut self,
        id: BlockId,
        mask: u64,
        env: &mut OracleEnv<'_>,
    ) -> Result<(), ExecError> {
        debug_assert_ne!(mask, 0, "executing a block with no active lanes");
        // Same strided cancellation poll as the lowered engine, before
        // `bb_entry`, so both interpreters abandon at identical points.
        if let Some(token) = env.cancel {
            if *env.cancel_countdown == 0 {
                if token.is_cancelled() {
                    return Err(ExecError::Cancelled);
                }
                *env.cancel_countdown = crate::exec::CANCEL_CHECK_STRIDE;
            }
            *env.cancel_countdown -= 1;
        }
        env.hook.bb_entry(self.warp_ref, id);
        let block = &self.program.blocks[id.0 as usize];
        for (inst_idx, inst) in block.insts.iter().enumerate() {
            if *env.fuel == 0 {
                return Err(ExecError::FuelExhausted);
            }
            *env.fuel -= 1;
            env.counters.instructions += 1;
            self.exec_inst(id, inst_idx as u32, inst, mask, env)?;
        }
        Ok(())
    }

    fn guard_mask(&self, mask: u64, guard: Option<Guard>) -> u64 {
        match guard {
            None => mask,
            Some(g) => {
                let p = self.pred_mask(mask, g.pred.0);
                if g.expected {
                    p
                } else {
                    mask & !p
                }
            }
        }
    }

    /// Emits one memory event as a single-event batch: counters first
    /// (through [`MemEventBatch::finish_event`]), then the hook callback.
    /// Events are emitted only after every lane succeeded — a faulting
    /// lane discards the event while keeping the memory effects of the
    /// lanes before it.
    fn emit_event(
        &self,
        bb: BlockId,
        inst_idx: u32,
        space: MemSpace,
        kind: AccessKind,
        lane_addrs: Vec<(u8, u64)>,
        env: &mut OracleEnv<'_>,
    ) {
        let mut batch = MemEventBatch::new();
        batch.begin_event(bb, inst_idx, space, kind);
        for (lane, addr) in lane_addrs {
            batch.push_addr(lane, addr);
        }
        batch.finish_event(env.counters);
        env.hook.mem_batch(self.warp_ref, &batch, env.mem);
    }

    #[allow(clippy::too_many_lines)]
    fn exec_inst(
        &mut self,
        bb: BlockId,
        inst_idx: u32,
        inst: &Inst,
        mask: u64,
        env: &mut OracleEnv<'_>,
    ) -> Result<(), ExecError> {
        let active = self.guard_mask(mask, inst.guard);
        if active == 0 {
            // Guarded-out instructions skip entirely — including the
            // parameter-range check of `LdParam`.
            return Ok(());
        }
        let lanes: Vec<usize> = self.lanes_of(active).collect();
        let warp_ref = self.warp_ref;
        let mem_err = move |space, source| ExecError::Memory {
            bb,
            inst_idx,
            warp: warp_ref,
            space,
            source,
        };
        match &inst.op {
            InstOp::Mov { dst, src } => {
                for &lane in &lanes {
                    let v = self.eval(lane, *src);
                    self.regs[lane][usize::from(dst.0)] = v;
                }
            }
            InstOp::Bin { op, dst, a, b } => {
                for &lane in &lanes {
                    let (x, y) = (self.eval(lane, *a), self.eval(lane, *b));
                    let v = alu_bin(*op, x, y).ok_or(ExecError::DivisionByZero {
                        bb,
                        inst_idx,
                        warp: self.warp_ref,
                    })?;
                    self.regs[lane][usize::from(dst.0)] = v;
                }
            }
            InstOp::Un { op, dst, a } => {
                for &lane in &lanes {
                    let x = self.eval(lane, *a);
                    self.regs[lane][usize::from(dst.0)] = alu_un(*op, x);
                }
            }
            InstOp::SetP { pred, op, a, b } => {
                for &lane in &lanes {
                    let (x, y) = (self.eval(lane, *a), self.eval(lane, *b));
                    self.preds[lane][usize::from(pred.0)] = alu_cmp(*op, x, y);
                }
            }
            InstOp::Sel { dst, pred, a, b } => {
                for &lane in &lanes {
                    let v = if self.preds[lane][usize::from(pred.0)] {
                        self.eval(lane, *a)
                    } else {
                        self.eval(lane, *b)
                    };
                    self.regs[lane][usize::from(dst.0)] = v;
                }
            }
            InstOp::Ld {
                dst,
                space,
                addr,
                width,
            } => {
                let mut lane_addrs = Vec::with_capacity(lanes.len());
                for &lane in &lanes {
                    let a = self.eval(lane, *addr);
                    lane_addrs.push((lane as u8, a));
                    let v = self
                        .load(*space, lane, a, width.bytes(), env)
                        .map_err(|source| mem_err(*space, source))?;
                    self.regs[lane][usize::from(dst.0)] = v;
                }
                self.emit_event(bb, inst_idx, *space, AccessKind::Read, lane_addrs, env);
            }
            InstOp::St {
                space,
                addr,
                value,
                width,
            } => {
                let mut lane_addrs = Vec::with_capacity(lanes.len());
                for &lane in &lanes {
                    let a = self.eval(lane, *addr);
                    let v = self.eval(lane, *value);
                    lane_addrs.push((lane as u8, a));
                    self.store(*space, lane, a, width.bytes(), v, env)
                        .map_err(|source| mem_err(*space, source))?;
                }
                self.emit_event(bb, inst_idx, *space, AccessKind::Write, lane_addrs, env);
            }
            InstOp::LdParam { dst, index } => {
                let v = *env
                    .args
                    .get(usize::from(*index))
                    .ok_or(ExecError::ParamOutOfRange {
                        index: *index,
                        provided: env.args.len(),
                    })?;
                for &lane in &lanes {
                    self.regs[lane][usize::from(dst.0)] = v;
                }
            }
            InstOp::Special { dst, sr } => {
                for &lane in &lanes {
                    let v = self.special(lane, *sr);
                    self.regs[lane][usize::from(dst.0)] = v;
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
                // Lanes serialise in lane order, matching the engine's
                // deterministic pick. The operand mask confines the result
                // to the access width, exactly as the store truncates.
                let value_mask = match width.bytes() {
                    8 => u64::MAX,
                    w => (1u64 << (w * 8)) - 1,
                };
                let mut lane_addrs = Vec::with_capacity(lanes.len());
                for &lane in &lanes {
                    let a = self.eval(lane, *addr);
                    let v = self.eval(lane, *value);
                    lane_addrs.push((lane as u8, a));
                    let old = self
                        .load(*space, lane, a, width.bytes(), env)
                        .map_err(|source| mem_err(*space, source))?;
                    let new = match op {
                        AtomicOp::Add => old.wrapping_add(v) & value_mask,
                        AtomicOp::MinU => old.min(v & value_mask),
                        AtomicOp::MaxU => old.max(v & value_mask),
                        AtomicOp::Exch => v & value_mask,
                    };
                    self.store(*space, lane, a, width.bytes(), new, env)
                        .map_err(|source| mem_err(*space, source))?;
                    self.regs[lane][usize::from(dst.0)] = old;
                }
                self.emit_event(bb, inst_idx, *space, AccessKind::Atomic, lane_addrs, env);
            }
            InstOp::Shfl {
                mode,
                dst,
                src,
                lane: lane_sel,
            } => {
                // Every lane reads its peer's pre-instruction value.
                let snapshot: Vec<u64> = (0..self.warp_size as usize)
                    .map(|l| self.regs[l][usize::from(src.0)])
                    .collect();
                let ws = self.warp_size as usize;
                for &lane in &lanes {
                    let sel = self.eval(lane, *lane_sel) as usize;
                    let peer = match mode {
                        ShflMode::Xor => (lane ^ sel) % ws,
                        ShflMode::Idx => sel % ws,
                    };
                    // Inactive peer: keep own value.
                    let v = if active & (1 << peer) != 0 {
                        snapshot[peer]
                    } else {
                        snapshot[lane]
                    };
                    self.regs[lane][usize::from(dst.0)] = v;
                }
            }
            InstOp::Ballot { dst, pred } => {
                let ballot = self.pred_mask(active, pred.0);
                for &lane in &lanes {
                    self.regs[lane][usize::from(dst.0)] = ballot;
                }
            }
            InstOp::Tex { dst, slot, x, y } => {
                let texture = env
                    .mem
                    .texture(*slot)
                    .ok_or(ExecError::UnboundTexture { slot: *slot })?;
                // Gather all coordinates before any destination write: the
                // destination register may alias a coordinate operand.
                let coords: Vec<(usize, i64, i64)> = lanes
                    .iter()
                    .map(|&lane| (lane, self.eval(lane, *x) as i64, self.eval(lane, *y) as i64))
                    .collect();
                let mut lane_addrs = Vec::with_capacity(lanes.len());
                let mut texels = Vec::with_capacity(lanes.len());
                for &(lane, xi, yi) in &coords {
                    let (texel, idx) = texture.fetch(xi, yi);
                    lane_addrs.push((lane as u8, idx));
                    texels.push((lane, texel));
                }
                for (lane, texel) in texels {
                    self.regs[lane][usize::from(dst.0)] = u64::from(texel);
                }
                self.emit_event(
                    bb,
                    inst_idx,
                    MemSpace::Texture,
                    AccessKind::Read,
                    lane_addrs,
                    env,
                );
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
        env: &mut OracleEnv<'_>,
    ) -> Result<u64, AccessError> {
        match space {
            MemSpace::Global => env.mem.load(addr, width),
            MemSpace::Shared => env.shared.load(addr, width),
            MemSpace::Constant => env.mem.constant().load(addr, width),
            MemSpace::Local => self
                .local
                .get(lane)
                .ok_or(AccessError { addr, width })?
                .load(addr, width),
            MemSpace::Texture => Err(AccessError { addr, width }),
        }
    }

    fn store(
        &mut self,
        space: MemSpace,
        lane: usize,
        addr: u64,
        width: u64,
        value: u64,
        env: &mut OracleEnv<'_>,
    ) -> Result<(), AccessError> {
        match space {
            MemSpace::Global => env.mem.store(addr, width, value),
            MemSpace::Shared => env.shared.store(addr, width, value),
            MemSpace::Constant => Err(AccessError { addr, width }),
            MemSpace::Local => self
                .local
                .get_mut(lane)
                .ok_or(AccessError { addr, width })?
                .store(addr, width, value),
            MemSpace::Texture => Err(AccessError { addr, width }),
        }
    }

    fn special(&self, lane: usize, sr: SpecialReg) -> u64 {
        let tid = self.tids[lane].expect("special register read in a padding lane");
        match sr {
            SpecialReg::TidX => u64::from(tid.0),
            SpecialReg::TidY => u64::from(tid.1),
            SpecialReg::TidZ => u64::from(tid.2),
            SpecialReg::CtaidX => u64::from(self.ctaid.0),
            SpecialReg::CtaidY => u64::from(self.ctaid.1),
            SpecialReg::CtaidZ => u64::from(self.ctaid.2),
            SpecialReg::NTidX => u64::from(self.block.x),
            SpecialReg::NTidY => u64::from(self.block.y),
            SpecialReg::NTidZ => u64::from(self.block.z),
            SpecialReg::NCtaidX => u64::from(self.grid.x),
            SpecialReg::NCtaidY => u64::from(self.grid.y),
            SpecialReg::NCtaidZ => u64::from(self.grid.z),
            SpecialReg::LaneId => lane as u64,
            SpecialReg::WarpId => u64::from(self.warp_in_block),
            SpecialReg::GlobalTid => {
                let tid_linear = u64::from(tid.0)
                    + u64::from(tid.1) * u64::from(self.block.x)
                    + u64::from(tid.2) * u64::from(self.block.x) * u64::from(self.block.y);
                u64::from(self.cta_linear) * self.block.total() + tid_linear
            }
        }
    }
}

/// [`crate::exec::launch_with_options`] executed by the reference oracle.
///
/// The engine loop mirrors the production engine (sequential CTAs, warps
/// run to the next barrier, barrier releases when every non-done warp has
/// parked) but drives `OracleWarp`s over the program as written. Like the
/// production engine it does no validation: [`Kernel::new`] did.
///
/// # Errors
///
/// Exactly the errors the production engine reports, with identical
/// variants and fields — error equality is part of the conformance
/// contract.
pub fn launch_oracle(
    mem: &mut DeviceMemory,
    kernel: &Kernel,
    config: LaunchConfig,
    args: &[u64],
    hook: &mut dyn KernelHook,
    options: LaunchOptions,
) -> Result<LaunchStats, ExecError> {
    let program: &KernelProgram = kernel;
    if config.total_threads() == 0 {
        return Err(ExecError::EmptyLaunch);
    }
    if !(1..=crate::grid::MAX_WARP_SIZE).contains(&options.warp_size) {
        return Err(ExecError::InvalidWarpSize {
            warp_size: options.warp_size,
        });
    }
    // Pre-launch token check, mirroring the lowered engine: a fired token
    // bails before `kernel_begin` reaches the hook.
    if options
        .cancel
        .as_ref()
        .is_some_and(crate::cancel::CancelToken::is_cancelled)
    {
        return Err(ExecError::Cancelled);
    }
    let info = LaunchInfo {
        kernel: program.name.clone(),
        config,
        warp_size: options.warp_size,
    };
    hook.kernel_begin(&info);

    let mut fuel = options.fuel;
    let mut cancel_countdown = 0u32;
    let mut counters = SimCounters::default();
    let mut stats = LaunchStats::default();

    let n_ctas = config.grid.total();
    let warps_per_block = config.warps_per_block_for(options.warp_size);
    for cta in 0..n_ctas {
        stats.ctas += 1;
        let mut shared = LinearMemory::new(program.shared_mem_bytes as usize);
        let mut warps: Vec<OracleWarp<'_>> = (0..warps_per_block)
            .map(|w| {
                OracleWarp::new(
                    program,
                    config.grid,
                    config.block,
                    cta as u32,
                    w,
                    options.warp_size,
                )
            })
            .filter(|w| !w.is_empty())
            .collect();
        stats.warps += warps.len() as u64;

        loop {
            let mut any_running = false;
            let mut at_barrier = 0usize;
            let mut done = 0usize;
            for warp in warps.iter_mut() {
                if warp.is_done() {
                    done += 1;
                    continue;
                }
                any_running = true;
                let mut env = OracleEnv {
                    mem,
                    shared: &mut shared,
                    hook,
                    fuel: &mut fuel,
                    cancel: options.cancel.as_ref(),
                    cancel_countdown: &mut cancel_countdown,
                    args,
                    counters: &mut counters,
                };
                match warp.run(&mut env)? {
                    OracleStatus::AtBarrier => at_barrier += 1,
                    OracleStatus::Done => done += 1,
                }
            }
            if !any_running || done == warps.len() {
                break;
            }
            if at_barrier > 0 && done > 0 {
                return Err(ExecError::BarrierDeadlock);
            }
            if at_barrier == 0 {
                break;
            }
        }
    }

    stats.counters = counters;
    hook.kernel_end(&info);
    Ok(stats)
}

/// Naive binary ALU evaluation; `None` signals division by zero. Kept
/// independent of the fast path's evaluator on purpose — the differential
/// suite compares the two implementations.
fn alu_bin(op: BinOp, a: u64, b: u64) -> Option<u64> {
    let f = |bits: u64| f32::from_bits(bits as u32);
    let out = |v: f32| {
        if v.is_nan() {
            u64::from(CANONICAL_NAN)
        } else {
            u64::from(v.to_bits())
        }
    };
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::DivU => {
            if b == 0 {
                return None;
            }
            a / b
        }
        BinOp::RemU => {
            if b == 0 {
                return None;
            }
            a % b
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32),
        BinOp::Shr => a.wrapping_shr(b as u32),
        BinOp::Sar => (a as i64).wrapping_shr(b as u32) as u64,
        BinOp::MinU => a.min(b),
        BinOp::MaxU => a.max(b),
        BinOp::MinS => (a as i64).min(b as i64) as u64,
        BinOp::MaxS => (a as i64).max(b as i64) as u64,
        BinOp::FAdd => out(f(a) + f(b)),
        BinOp::FSub => out(f(a) - f(b)),
        BinOp::FMul => out(f(a) * f(b)),
        BinOp::FDiv => out(f(a) / f(b)),
        BinOp::FMin => out(f(a).min(f(b))),
        BinOp::FMax => out(f(a).max(f(b))),
    })
}

/// Naive unary ALU evaluation.
fn alu_un(op: UnOp, a: u64) -> u64 {
    let f = |bits: u64| f32::from_bits(bits as u32);
    let out = |v: f32| {
        if v.is_nan() {
            u64::from(CANONICAL_NAN)
        } else {
            u64::from(v.to_bits())
        }
    };
    match op {
        UnOp::Not => !a,
        UnOp::Neg => (a as i64).wrapping_neg() as u64,
        UnOp::FNeg => out(-f(a)),
        UnOp::FAbs => out(f(a).abs()),
        UnOp::FSqrt => out(f(a).sqrt()),
        UnOp::FExp => out(f(a).exp()),
        UnOp::FLn => out(f(a).ln()),
        UnOp::FFloor => out(f(a).floor()),
        UnOp::I2F => out(a as i64 as f32),
        UnOp::F2I => {
            let v = f(a);
            if v.is_nan() {
                0
            } else {
                (v as i64) as u64
            }
        }
    }
}

/// Naive comparison evaluation.
fn alu_cmp(op: CmpOp, a: u64, b: u64) -> bool {
    let f = |bits: u64| f32::from_bits(bits as u32);
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::LtU => a < b,
        CmpOp::LeU => a <= b,
        CmpOp::GtU => a > b,
        CmpOp::GeU => a >= b,
        CmpOp::LtS => (a as i64) < (b as i64),
        CmpOp::LeS => (a as i64) <= (b as i64),
        CmpOp::GtS => (a as i64) > (b as i64),
        CmpOp::GeS => (a as i64) >= (b as i64),
        CmpOp::FLt => f(a) < f(b),
        CmpOp::FLe => f(a) <= f(b),
        CmpOp::FGt => f(a) > f(b),
        CmpOp::FGe => f(a) >= f(b),
        CmpOp::FEq => f(a) == f(b),
        CmpOp::FNe => f(a) != f(b),
    }
}

#[cfg(test)]
mod tests {
    use crate::build::KernelBuilder;
    use crate::exec::{launch_with_options, Interpreter, LaunchOptions};
    use crate::grid::LaunchConfig;
    use crate::hook::NullHook;
    use crate::isa::{CmpOp, MemWidth, SpecialReg};
    use crate::mem::DeviceMemory;

    fn oracle_opts() -> LaunchOptions {
        LaunchOptions {
            interpreter: Interpreter::Oracle,
            ..LaunchOptions::default()
        }
    }

    /// The engine's pinned loop-divergence fixture, replayed on the
    /// oracle: lane `i` of 32 iterates `i` times.
    #[test]
    fn oracle_counters_track_loop_divergence() {
        let b = KernelBuilder::new("loopctr");
        let tid = b.special(SpecialReg::GlobalTid);
        let i = b.mov(0u64);
        b.while_loop(
            |b| b.setp(CmpOp::LtU, i, tid),
            |b| {
                let ip = b.add(i, 1u64);
                b.assign(i, ip);
            },
        );
        let k = b.finish();

        let mut mem = DeviceMemory::new();
        let stats = launch_with_options(
            &mut mem,
            &k,
            LaunchConfig::new(1u32, 32u32),
            &[],
            &mut NullHook,
            oracle_opts(),
        )
        .unwrap();
        let c = stats.counters;
        assert_eq!(c.branches, 32);
        assert_eq!(c.divergence_events, 31);
        assert_eq!(c.reconvergences, 1);
    }

    /// The engine's pinned uniform-control-flow fixture on the oracle.
    #[test]
    fn oracle_counters_uniform_control_flow_is_convergent() {
        let b = KernelBuilder::new("uni");
        let out = b.param(0);
        let tid = b.special(SpecialReg::GlobalTid);
        let addr = b.add(out, tid);
        let p = b.setp(CmpOp::LtU, tid, 64u64);
        b.if_then_else(
            p,
            |b| {
                b.store_global(addr, 1u64, MemWidth::B1);
            },
            |b| {
                b.store_global(addr, 2u64, MemWidth::B1);
            },
        );
        let i = b.mov(0u64);
        b.while_loop(
            |b| b.setp(CmpOp::LtU, i, 3u64),
            |b| {
                let ip = b.add(i, 1u64);
                b.assign(i, ip);
            },
        );
        let k = b.finish();

        let mut mem = DeviceMemory::new();
        let (_, o) = mem.alloc(32);
        let stats = launch_with_options(
            &mut mem,
            &k,
            LaunchConfig::new(1u32, 32u32),
            &[o],
            &mut NullHook,
            oracle_opts(),
        )
        .unwrap();
        let c = stats.counters;
        assert_eq!(c.branches, 5);
        assert_eq!(c.divergence_events, 0);
        assert_eq!(c.reconvergences, 0);
    }

    /// The engine's pinned divergence + coalescing fixture on the oracle.
    #[test]
    fn oracle_counters_track_divergence_and_coalescing() {
        let b = KernelBuilder::new("ctr");
        let out = b.param(0);
        let tid = b.special(SpecialReg::GlobalTid);
        let bit = b.and(tid, 1u64);
        let addr = b.add(out, tid);
        let p = b.setp(CmpOp::Eq, bit, 0u64);
        b.if_then_else(
            p,
            |b| {
                b.store_global(addr, 1u64, MemWidth::B1);
            },
            |b| {
                b.store_global(addr, 2u64, MemWidth::B1);
            },
        );
        let sc = b.add(out, b.mul(tid, 64u64));
        let _ = b.load_global(sc, MemWidth::B1);
        let k = b.finish();

        let mut mem = DeviceMemory::new();
        let (_, o) = mem.alloc(64 * 32);
        let stats = launch_with_options(
            &mut mem,
            &k,
            LaunchConfig::new(1u32, 32u32),
            &[o],
            &mut NullHook,
            oracle_opts(),
        )
        .unwrap();
        let c = stats.counters;
        assert_eq!(c.divergence_events, 1);
        assert_eq!(c.reconvergences, 1);
        assert_eq!(c.mem_accesses, 3);
        assert_eq!(c.mem_transactions, 1 + 1 + 32);
        assert_eq!(c.coalesced_accesses, 2);
        assert_eq!(c.serialized_accesses, 1);
        assert_eq!(c.bank_conflicts, 0);
    }

    /// Shared memory + barrier on the oracle: block-wide reversal via
    /// shared staging, exercising Sync resumption across warps.
    #[test]
    fn oracle_shared_memory_barrier_reversal() {
        let b = KernelBuilder::new("rev");
        b.set_shared_bytes(64 * 8);
        let out = b.param(0);
        let tid = b.special(SpecialReg::TidX);
        let off = b.mul(tid, 8u64);
        b.store_shared(off, tid, MemWidth::B8);
        b.sync();
        let rev = b.sub(63u64, tid);
        let roff = b.mul(rev, 8u64);
        let v = b.load_shared(roff, MemWidth::B8);
        b.store_global(b.add(out, off), v, MemWidth::B8);
        let k = b.finish();

        let mut mem = DeviceMemory::new();
        let (_, o) = mem.alloc(64 * 8);
        launch_with_options(
            &mut mem,
            &k,
            LaunchConfig::new(1u32, 64u32),
            &[o],
            &mut NullHook,
            oracle_opts(),
        )
        .unwrap();
        for i in 0..64u64 {
            assert_eq!(mem.load(o + i * 8, 8).unwrap(), 63 - i, "slot {i}");
        }
    }
}

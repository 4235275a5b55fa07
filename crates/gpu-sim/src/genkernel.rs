//! Random well-formed kernel generation for differential conformance
//! testing (cuFuzz-style).
//!
//! [`GeneratedKernel::generate`] maps a `u64` seed deterministically to a
//! valid [`KernelProgram`] plus launch geometry, device buffers, constant
//! bank, textures and scalar parameters. Programs cover the full ISA —
//! nested divergence, predication, every memory space, shared-memory bank
//! patterns, bounded (possibly lane-divergent) loops, warp shuffles,
//! ballots, atomics and texture fetches — and occasionally include
//! deliberate faults (wild addresses, division by zero, out-of-range
//! parameters, unbound texture slots, tiny fuel) so that *error* equality
//! between interpreters is fuzzed too.
//!
//! [`diff_case`] is the differential driver: it runs one generated kernel
//! through the production lowered interpreter, which executes the
//! register-allocated blocks of a [`Kernel`], and through the naive
//! reference oracle ([`crate::oracle`]), which executes the program as
//! written, and demands bit-identical results
//! (launch outcome, [`LaunchStats`], every hook event in order, and final
//! device memory). [`shrink`] greedily minimises a failing kernel for the
//! regression corpus, which is why generated kernels stay plain, editable
//! [`KernelProgram`]s until a launch builds the [`Kernel`].
//!
//! The module is self-contained (seed-driven, no external RNG crate) so it
//! can live in `src/` and be reused by unit tests, integration tests and
//! the CI conformance job alike; property-test harnesses drive it by
//! generating seeds.

use serde::{Deserialize, Serialize};

use crate::exec::{launch_with_options, Interpreter, LaunchOptions, LaunchStats};
use crate::grid::LaunchConfig;
use crate::hook::RecordingHook;
use crate::isa::{
    AtomicOp, BinOp, CmpOp, Inst, InstOp, MemSpace, MemWidth, Operand, Pred, Reg, ShflMode,
    SpecialReg, UnOp,
};
use crate::mem::DeviceMemory;
use crate::program::{BasicBlock, BlockId, Kernel, KernelProgram, Region, Stmt};

/// SplitMix64 — a tiny, deterministic, dependency-free generator. The
/// sequence is part of the corpus format: a persisted seed must keep
/// reproducing the same kernel.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `pct`/100.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

// Register map (num_regs = 32). The generator writes scratch, address-temp
// and loop-bookkeeping registers only through the roles below, which keeps
// every memory address in bounds by construction (modulo the deliberate
// rare faults).
const SCRATCH: u16 = 0; // r0..r7: random-op values (lane-varying seeds)
const N_SCRATCH: u16 = 8;
const BUF_BASE: u16 = 8; // r8..r11: global buffer base pointers
const LOOP_CTR: u16 = 12; // r12..r15: while-loop counters, one per nest depth
const LOOP_BOUND: u16 = 16; // r16..r19: lane-varying loop bounds
const ADDR_GLOBAL: u16 = 20; // r20..r23: per-space address temporaries
const ADDR_SHARED: u16 = 21;
const ADDR_LOCAL: u16 = 22;
const ADDR_CONST: u16 = 23;
const SCALAR_BASE: u16 = 24; // r24..r27: scalar parameters
const TMP: u16 = 28; // r28..r29: short-lived address arithmetic
const NUM_REGS: u16 = 32;
const NUM_PREDS: u16 = 8; // p0..p3 scratch predicates, p4..p7 loop conds

const SHARED_BYTES: u32 = 256;
const LOCAL_BYTES: u32 = 64;
const CONST_BYTES: u32 = 128;

/// A generated kernel plus everything needed to launch it reproducibly:
/// geometry, buffer sizes, scalar parameters, constant bank and textures.
/// Serialisable so shrunk counterexamples can be persisted as regression
/// corpus files under `tests/corpus/`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeneratedKernel {
    /// The program itself (always passes [`KernelProgram::validate`]).
    pub program: KernelProgram,
    /// Launch geometry.
    pub config: LaunchConfig,
    /// SIMT width for the launch.
    pub warp_size: u32,
    /// Instruction budget (occasionally tiny, to fuzz `FuelExhausted`).
    pub fuel: u64,
    /// Global buffer sizes in bytes (powers of two); parameters `0..n`
    /// receive their base addresses.
    pub buffers: Vec<u64>,
    /// Scalar parameters appended after the buffer bases.
    pub scalars: Vec<u64>,
    /// Texture extents, bound in order to slots `0..n`.
    pub textures: Vec<(u32, u32)>,
    /// Seed for deterministic buffer/constant/texel contents.
    pub init_seed: u64,
}

/// Transient generator state.
struct Gen {
    rng: SplitMix64,
    blocks: Vec<BasicBlock>,
    buffer_sizes: Vec<u64>,
    n_buffers: u16,
    n_scalars: u16,
    n_textures: u16,
    loop_depth: u16,
    /// Hard cap on emitted statements, so programs stay small.
    stmt_budget: u32,
}

impl GeneratedKernel {
    /// Deterministically generates a kernel from `seed`. Equal seeds yield
    /// byte-identical kernels — the conformance suite and the corpus rely
    /// on this.
    pub fn generate(seed: u64) -> GeneratedKernel {
        let mut rng = SplitMix64::new(seed);
        let n_buffers = 2 + rng.below(2) as u16; // 2..=3
        let n_scalars = 2;
        let n_textures = 2;

        let buffer_sizes: Vec<u64> = (0..n_buffers)
            .map(|_| 64u64 << rng.below(4)) // 64..=512 bytes, power of two
            .collect();
        let scalars: Vec<u64> = (0..n_scalars)
            .map(|_| {
                if rng.chance(50) {
                    rng.below(256)
                } else {
                    rng.next_u64()
                }
            })
            .collect();
        let textures = vec![(8, 8), (4, 16)];

        let warp_size = [8u32, 16, 32, 32, 32, 64][rng.below(6) as usize];
        let block_threads = [1u32, 7, 13, 32, 33, 48, 64][rng.below(7) as usize];
        let grid = 1 + rng.below(2) as u32;
        let config = LaunchConfig::new(grid, block_threads);
        // ~2% of kernels run on a shoestring budget to fuzz FuelExhausted
        // equality; everything else gets more than any generated program
        // can consume.
        let fuel = if rng.chance(2) {
            5 + rng.below(60)
        } else {
            1_000_000
        };

        let mut g = Gen {
            rng,
            blocks: Vec::new(),
            buffer_sizes: buffer_sizes.clone(),
            n_buffers,
            n_scalars,
            n_textures,
            loop_depth: 0,
            stmt_budget: 24,
        };

        let mut top = vec![Stmt::Block(g.prologue())];
        g.gen_region_into(&mut top, 0);
        let init_seed = g.rng.next_u64();

        let program = KernelProgram {
            name: format!("fuzz_{seed:016x}"),
            blocks: g.blocks,
            body: Region(top),
            num_regs: NUM_REGS,
            num_preds: NUM_PREDS,
            shared_mem_bytes: SHARED_BYTES,
            local_mem_bytes: LOCAL_BYTES,
        };
        debug_assert!(
            program.validate().is_ok(),
            "generator emitted invalid program"
        );
        GeneratedKernel {
            program,
            config,
            warp_size,
            fuel,
            buffers: buffer_sizes,
            scalars,
            textures,
            init_seed,
        }
    }

    /// Allocates and initialises device state (buffers, constant bank,
    /// textures) and returns the launch argument list: buffer bases
    /// followed by the scalars.
    pub fn setup(&self, mem: &mut DeviceMemory) -> Vec<u64> {
        let mut rng = SplitMix64::new(self.init_seed);
        let mut args = Vec::new();
        for &size in &self.buffers {
            let (_, base) = mem.alloc(size as usize);
            let bytes: Vec<u8> = (0..size).map(|_| rng.next_u64() as u8).collect();
            mem.write_bytes(base, &bytes)
                .expect("freshly allocated buffer must accept its fill");
            args.push(base);
        }
        let cbytes: Vec<u8> = (0..CONST_BYTES).map(|_| rng.next_u64() as u8).collect();
        mem.set_constant(&cbytes);
        for &(w, h) in &self.textures {
            let texels: Vec<u8> = (0..w * h).map(|_| rng.next_u64() as u8).collect();
            mem.bind_texture(w, h, &texels);
        }
        args.extend_from_slice(&self.scalars);
        args
    }

    /// Total number of launch parameters (`buffers` then `scalars`).
    pub fn n_params(&self) -> u16 {
        (self.buffers.len() + self.scalars.len()) as u16
    }
}

impl Gen {
    /// Block 0: loads parameters, seeds the scratch registers with
    /// lane-varying values, initialises the per-space address temporaries
    /// and the lane-varying loop bounds, and gives the scratch predicates
    /// divergent initial values.
    fn prologue(&mut self) -> BlockId {
        let mut insts = Vec::new();
        for i in 0..self.n_buffers {
            insts.push(Inst::new(InstOp::LdParam {
                dst: Reg(BUF_BASE + i),
                index: i,
            }));
        }
        for j in 0..self.n_scalars {
            insts.push(Inst::new(InstOp::LdParam {
                dst: Reg(SCALAR_BASE + j),
                index: self.n_buffers + j,
            }));
        }
        let specials = [
            SpecialReg::GlobalTid,
            SpecialReg::LaneId,
            SpecialReg::TidX,
            SpecialReg::WarpId,
        ];
        for (i, sr) in specials.iter().enumerate() {
            insts.push(Inst::new(InstOp::Special {
                dst: Reg(SCRATCH + i as u16),
                sr: *sr,
            }));
        }
        for i in 4..N_SCRATCH {
            insts.push(Inst::new(InstOp::Mov {
                dst: Reg(SCRATCH + i),
                src: Operand::Imm(self.rng.next_u64()),
            }));
        }
        // Lane-varying loop bounds r16..r19 (small: trip counts stay tiny).
        for (i, mask) in [3u64, 3, 1, 7].iter().enumerate() {
            insts.push(Inst::new(InstOp::Bin {
                op: BinOp::And,
                dst: Reg(LOOP_BOUND + i as u16),
                a: Operand::Reg(Reg(SCRATCH + (i as u16 % 2))),
                b: Operand::Imm(*mask),
            }));
        }
        // Address temporaries start at a valid address of their space.
        insts.push(Inst::new(InstOp::Mov {
            dst: Reg(ADDR_GLOBAL),
            src: Operand::Reg(Reg(BUF_BASE)),
        }));
        for r in [ADDR_SHARED, ADDR_LOCAL, ADDR_CONST] {
            insts.push(Inst::new(InstOp::Mov {
                dst: Reg(r),
                src: Operand::Imm(0),
            }));
        }
        // Divergent scratch predicates.
        insts.push(Inst::new(InstOp::SetP {
            pred: Pred(0),
            op: CmpOp::LtU,
            a: Operand::Reg(Reg(SCRATCH + 1)),
            b: Operand::Imm(16),
        }));
        insts.push(Inst::new(InstOp::Bin {
            op: BinOp::And,
            dst: Reg(TMP),
            a: Operand::Reg(Reg(SCRATCH)),
            b: Operand::Imm(1),
        }));
        insts.push(Inst::new(InstOp::SetP {
            pred: Pred(1),
            op: CmpOp::Eq,
            a: Operand::Reg(Reg(TMP)),
            b: Operand::Imm(0),
        }));
        insts.push(Inst::new(InstOp::SetP {
            pred: Pred(2),
            op: CmpOp::LtU,
            a: Operand::Reg(Reg(SCRATCH)),
            b: Operand::Imm(1 + self.rng.below(48)),
        }));
        insts.push(Inst::new(InstOp::SetP {
            pred: Pred(3),
            op: CmpOp::GeU,
            a: Operand::Reg(Reg(SCRATCH + 1)),
            b: Operand::Imm(self.rng.below(32)),
        }));
        self.push_block(insts)
    }

    fn push_block(&mut self, insts: Vec<Inst>) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BasicBlock { insts });
        id
    }

    fn gen_region_into(&mut self, out: &mut Vec<Stmt>, depth: u32) {
        let n = 1 + self.rng.below(3 + u64::from(depth == 0));
        for _ in 0..n {
            if self.stmt_budget == 0 {
                return;
            }
            self.stmt_budget -= 1;
            let roll = self.rng.below(100);
            if depth == 0 && roll < 5 {
                out.push(Stmt::Sync);
            } else if depth < 3 && roll < 22 {
                out.push(self.gen_if(depth));
            } else if depth < 3 && self.loop_depth < 4 && roll < 38 {
                self.gen_while_into(out, depth);
            } else {
                let id = self.gen_random_block();
                out.push(Stmt::Block(id));
            }
        }
    }

    fn gen_if(&mut self, depth: u32) -> Stmt {
        let pred = Pred(self.rng.below(4) as u16);
        let mut then_region = Vec::new();
        self.gen_region_into(&mut then_region, depth + 1);
        let mut else_region = Vec::new();
        if self.rng.chance(60) {
            self.gen_region_into(&mut else_region, depth + 1);
        }
        Stmt::If {
            pred,
            then_region: Region(then_region),
            else_region: Region(else_region),
        }
    }

    /// Emits `init-block; while cond-block → p { body }`. The condition
    /// block increments the depth-reserved counter and compares it against
    /// either an immediate or a lane-varying bound register, so roughly
    /// half the generated loops diverge.
    fn gen_while_into(&mut self, out: &mut Vec<Stmt>, depth: u32) {
        let d = self.loop_depth;
        let ctr = Reg(LOOP_CTR + d);
        let pred = Pred(4 + d);
        self.loop_depth += 1;

        let init = self.push_block(vec![Inst::new(InstOp::Mov {
            dst: ctr,
            src: Operand::Imm(0),
        })]);
        out.push(Stmt::Block(init));

        let bound = if self.rng.chance(50) {
            Operand::Imm(1 + self.rng.below(4))
        } else {
            Operand::Reg(Reg(LOOP_BOUND + self.rng.below(4) as u16))
        };
        let cond = self.push_block(vec![
            Inst::new(InstOp::Bin {
                op: BinOp::Add,
                dst: ctr,
                a: Operand::Reg(ctr),
                b: Operand::Imm(1),
            }),
            Inst::new(InstOp::SetP {
                pred,
                op: CmpOp::LeU,
                a: Operand::Reg(ctr),
                b: bound,
            }),
        ]);
        let mut body = Vec::new();
        self.gen_region_into(&mut body, depth + 1);
        out.push(Stmt::While {
            cond_block: cond,
            pred,
            body: Region(body),
        });
        self.loop_depth -= 1;
    }

    fn gen_random_block(&mut self) -> BlockId {
        let n = 1 + self.rng.below(5);
        let mut insts = Vec::new();
        for _ in 0..n {
            self.gen_inst_into(&mut insts);
        }
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BasicBlock { insts });
        id
    }

    fn scratch(&mut self) -> Reg {
        Reg(SCRATCH + self.rng.below(u64::from(N_SCRATCH)) as u16)
    }

    fn value_operand(&mut self) -> Operand {
        match self.rng.below(10) {
            0..=5 => Operand::Reg(self.scratch()),
            6 => Operand::Imm(self.rng.below(16)),
            7 => Operand::Imm(self.rng.below(256)),
            8 => Operand::Imm(self.rng.next_u64()),
            _ => Operand::Imm(u64::from((self.rng.next_u64() as f32).to_bits())),
        }
    }

    fn width(&mut self) -> MemWidth {
        [MemWidth::B1, MemWidth::B2, MemWidth::B4, MemWidth::B8][self.rng.below(4) as usize]
    }

    fn maybe_guard(&mut self, op: InstOp) -> Inst {
        if self.rng.chance(20) {
            Inst::guarded(op, Pred(self.rng.below(4) as u16), self.rng.chance(50))
        } else {
            Inst::new(op)
        }
    }

    /// Appends the address computation `temp = base + (value & (size - w))`
    /// for an in-bounds, width-aligned access, and returns the temp
    /// register. `size` and the width are powers of two, so `size - w` is a
    /// pure bitmask of aligned in-bounds offsets.
    fn masked_addr(
        &mut self,
        insts: &mut Vec<Inst>,
        space: MemSpace,
        width: MemWidth,
        buffer_sizes: Option<&[u64]>,
    ) -> (Reg, MemSpace) {
        let w = width.bytes();
        let (temp, size, base) = match space {
            MemSpace::Global => {
                let sizes = buffer_sizes.expect("global access needs buffer sizes");
                let b = self.rng.below(sizes.len() as u64) as u16;
                (Reg(ADDR_GLOBAL), sizes[b as usize], Some(Reg(BUF_BASE + b)))
            }
            MemSpace::Shared => (Reg(ADDR_SHARED), u64::from(SHARED_BYTES), None),
            MemSpace::Local => (Reg(ADDR_LOCAL), u64::from(LOCAL_BYTES), None),
            MemSpace::Constant => (Reg(ADDR_CONST), u64::from(CONST_BYTES), None),
            MemSpace::Texture => unreachable!("texture accesses use Tex"),
        };
        let src = if space == MemSpace::Shared && self.rng.chance(35) {
            // Deliberate strided shared pattern to exercise bank-conflict
            // cost equality: lane * stride.
            let stride = [1u64, 2, 4, 8, 32][self.rng.below(5) as usize];
            insts.push(Inst::new(InstOp::Bin {
                op: BinOp::Mul,
                dst: Reg(TMP),
                a: Operand::Reg(Reg(SCRATCH + 1)), // LaneId
                b: Operand::Imm(stride),
            }));
            Reg(TMP)
        } else {
            self.scratch()
        };
        insts.push(Inst::new(InstOp::Bin {
            op: BinOp::And,
            dst: temp,
            a: Operand::Reg(src),
            b: Operand::Imm(size - w),
        }));
        if let Some(base) = base {
            insts.push(Inst::new(InstOp::Bin {
                op: BinOp::Add,
                dst: temp,
                a: Operand::Reg(temp),
                b: Operand::Reg(base),
            }));
        }
        (temp, space)
    }

    #[allow(clippy::too_many_lines)]
    fn gen_inst_into(&mut self, insts: &mut Vec<Inst>) {
        let sizes = self.buffer_sizes.clone();
        let roll = self.rng.below(100);
        match roll {
            // Integer/float binary ALU.
            0..=27 => {
                let ops = [
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::And,
                    BinOp::Or,
                    BinOp::Xor,
                    BinOp::Shl,
                    BinOp::Shr,
                    BinOp::Sar,
                    BinOp::MinU,
                    BinOp::MaxU,
                    BinOp::MinS,
                    BinOp::MaxS,
                    BinOp::FAdd,
                    BinOp::FSub,
                    BinOp::FMul,
                    BinOp::FDiv,
                    BinOp::FMin,
                    BinOp::FMax,
                ];
                let op = ops[self.rng.below(ops.len() as u64) as usize];
                let (dst, a, b) = (self.scratch(), self.value_operand(), self.value_operand());
                let inst = self.maybe_guard(InstOp::Bin { op, dst, a, b });
                insts.push(inst);
            }
            // Division / remainder: usually a non-zero immediate divisor;
            // rarely a register, to fuzz DivisionByZero equality.
            28..=30 => {
                let op = if self.rng.chance(50) {
                    BinOp::DivU
                } else {
                    BinOp::RemU
                };
                let b = if self.rng.chance(90) {
                    Operand::Imm(1 + self.rng.below(16))
                } else {
                    Operand::Reg(self.scratch())
                };
                let (dst, a) = (self.scratch(), self.value_operand());
                let inst = self.maybe_guard(InstOp::Bin { op, dst, a, b });
                insts.push(inst);
            }
            31..=36 => {
                let ops = [
                    UnOp::Not,
                    UnOp::Neg,
                    UnOp::FNeg,
                    UnOp::FAbs,
                    UnOp::FSqrt,
                    UnOp::FExp,
                    UnOp::FLn,
                    UnOp::FFloor,
                    UnOp::I2F,
                    UnOp::F2I,
                ];
                let op = ops[self.rng.below(ops.len() as u64) as usize];
                let (dst, a) = (self.scratch(), self.value_operand());
                let inst = self.maybe_guard(InstOp::Un { op, dst, a });
                insts.push(inst);
            }
            37..=42 => {
                let (dst, src) = (self.scratch(), self.value_operand());
                let inst = self.maybe_guard(InstOp::Mov { dst, src });
                insts.push(inst);
            }
            43..=50 => {
                let ops = [
                    CmpOp::Eq,
                    CmpOp::Ne,
                    CmpOp::LtU,
                    CmpOp::LeU,
                    CmpOp::GtU,
                    CmpOp::GeU,
                    CmpOp::LtS,
                    CmpOp::LeS,
                    CmpOp::GtS,
                    CmpOp::GeS,
                    CmpOp::FLt,
                    CmpOp::FLe,
                    CmpOp::FGt,
                    CmpOp::FGe,
                    CmpOp::FEq,
                    CmpOp::FNe,
                ];
                let op = ops[self.rng.below(ops.len() as u64) as usize];
                let pred = Pred(self.rng.below(4) as u16);
                let (a, b) = (self.value_operand(), self.value_operand());
                let inst = self.maybe_guard(InstOp::SetP { pred, op, a, b });
                insts.push(inst);
            }
            51..=54 => {
                let (dst, a, b) = (self.scratch(), self.value_operand(), self.value_operand());
                let pred = Pred(self.rng.below(4) as u16);
                let inst = self.maybe_guard(InstOp::Sel { dst, pred, a, b });
                insts.push(inst);
            }
            55..=58 => {
                let srs = [
                    SpecialReg::TidX,
                    SpecialReg::TidY,
                    SpecialReg::TidZ,
                    SpecialReg::CtaidX,
                    SpecialReg::CtaidY,
                    SpecialReg::CtaidZ,
                    SpecialReg::NTidX,
                    SpecialReg::NTidY,
                    SpecialReg::NTidZ,
                    SpecialReg::NCtaidX,
                    SpecialReg::NCtaidY,
                    SpecialReg::NCtaidZ,
                    SpecialReg::LaneId,
                    SpecialReg::WarpId,
                    SpecialReg::GlobalTid,
                ];
                let sr = srs[self.rng.below(srs.len() as u64) as usize];
                let dst = self.scratch();
                let inst = self.maybe_guard(InstOp::Special { dst, sr });
                insts.push(inst);
            }
            59..=61 => {
                let mode = if self.rng.chance(50) {
                    ShflMode::Xor
                } else {
                    ShflMode::Idx
                };
                let (dst, src) = (self.scratch(), self.scratch());
                let lane = if self.rng.chance(70) {
                    Operand::Imm(self.rng.below(64))
                } else {
                    Operand::Reg(self.scratch())
                };
                let inst = self.maybe_guard(InstOp::Shfl {
                    mode,
                    dst,
                    src,
                    lane,
                });
                insts.push(inst);
            }
            62..=64 => {
                let dst = self.scratch();
                let pred = Pred(self.rng.below(4) as u16);
                let inst = self.maybe_guard(InstOp::Ballot { dst, pred });
                insts.push(inst);
            }
            // Parameter loads; ~1 in 20 is deliberately out of range.
            65..=66 => {
                let n = self.n_buffers + self.n_scalars;
                let index = if self.rng.chance(5) {
                    n + self.rng.below(3) as u16
                } else {
                    self.rng.below(u64::from(n)) as u16
                };
                let dst = self.scratch();
                let inst = self.maybe_guard(InstOp::LdParam { dst, index });
                insts.push(inst);
            }
            // Loads. ~2% use a raw (unmasked) register address to fuzz
            // Memory-error equality.
            67..=78 => {
                let width = self.width();
                let space = [
                    MemSpace::Global,
                    MemSpace::Global,
                    MemSpace::Shared,
                    MemSpace::Shared,
                    MemSpace::Local,
                    MemSpace::Constant,
                ][self.rng.below(6) as usize];
                let dst = self.scratch();
                if self.rng.chance(2) {
                    let addr = Operand::Reg(self.scratch());
                    let inst = self.maybe_guard(InstOp::Ld {
                        dst,
                        space,
                        addr,
                        width,
                    });
                    insts.push(inst);
                } else {
                    let (temp, space) = self.masked_addr(insts, space, width, Some(&sizes));
                    let inst = self.maybe_guard(InstOp::Ld {
                        dst,
                        space,
                        addr: Operand::Reg(temp),
                        width,
                    });
                    insts.push(inst);
                }
            }
            // Stores (constant-space stores are a deliberate rare fault).
            79..=86 => {
                let width = self.width();
                let space = if self.rng.chance(2) {
                    MemSpace::Constant
                } else {
                    [
                        MemSpace::Global,
                        MemSpace::Global,
                        MemSpace::Shared,
                        MemSpace::Local,
                    ][self.rng.below(4) as usize]
                };
                let value = self.value_operand();
                let (temp, space) = self.masked_addr(insts, space, width, Some(&sizes));
                let inst = self.maybe_guard(InstOp::St {
                    space,
                    addr: Operand::Reg(temp),
                    value,
                    width,
                });
                insts.push(inst);
            }
            87..=90 => {
                let ops = [
                    AtomicOp::Add,
                    AtomicOp::MinU,
                    AtomicOp::MaxU,
                    AtomicOp::Exch,
                ];
                let op = ops[self.rng.below(ops.len() as u64) as usize];
                let width = self.width();
                let space = if self.rng.chance(50) {
                    MemSpace::Global
                } else {
                    MemSpace::Shared
                };
                let (dst, value) = (self.scratch(), self.value_operand());
                let (temp, space) = self.masked_addr(insts, space, width, Some(&sizes));
                let inst = self.maybe_guard(InstOp::Atomic {
                    op,
                    dst,
                    space,
                    addr: Operand::Reg(temp),
                    value,
                    width,
                });
                insts.push(inst);
            }
            // Texture fetches; ~5% target an unbound slot.
            _ => {
                let slot = if self.rng.chance(5) {
                    self.n_textures + self.rng.below(3) as u16
                } else {
                    self.rng.below(u64::from(self.n_textures)) as u16
                };
                let (dst, x, y) = (self.scratch(), self.value_operand(), self.value_operand());
                let inst = self.maybe_guard(InstOp::Tex { dst, slot, x, y });
                insts.push(inst);
            }
        }
    }
}

/// Everything one interpreter run makes observable: the launch outcome
/// (stats or the exact error), the full hook event streams in order, and
/// the final contents of every global buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchObservation {
    /// `Ok(stats)` or the exact [`crate::error::ExecError`].
    pub result: Result<LaunchStats, crate::error::ExecError>,
    /// Basic-block entries per warp, in execution order.
    pub bb_entries: Vec<(crate::hook::WarpRef, BlockId)>,
    /// Memory access events per warp, in execution order.
    pub accesses: Vec<(crate::hook::WarpRef, crate::hook::MemAccessEvent)>,
    /// Kernel names announced via `kernel_begin`.
    pub kernels: Vec<String>,
    /// Final bytes of each global buffer, in parameter order.
    pub final_buffers: Vec<Vec<u8>>,
}

/// Runs `kernel` once under the chosen interpreter on a freshly
/// initialised device and captures everything observable.
///
/// # Panics
///
/// Panics when `kernel.program` fails validation.
pub fn run_kernel(kernel: &GeneratedKernel, interpreter: Interpreter) -> LaunchObservation {
    let launchable = Kernel::new(kernel.program.clone()).expect("generated programs validate");
    let mut mem = DeviceMemory::new();
    let args = kernel.setup(&mut mem);
    let mut hook = RecordingHook::default();
    let result = launch_with_options(
        &mut mem,
        &launchable,
        kernel.config,
        &args,
        &mut hook,
        LaunchOptions {
            fuel: kernel.fuel,
            warp_size: kernel.warp_size,
            interpreter,
            cancel: None,
        },
    );
    let final_buffers = kernel
        .buffers
        .iter()
        .zip(&args)
        .map(|(&size, &base)| {
            let mut out = vec![0u8; size as usize];
            mem.read_bytes(base, &mut out)
                .expect("buffer readback after launch");
            out
        })
        .collect();
    LaunchObservation {
        result,
        bb_entries: hook.bb_entries,
        accesses: hook.accesses,
        kernels: hook.kernels,
        final_buffers,
    }
}

/// The differential conformance check: runs `kernel` through the lowered
/// fast path and through the reference oracle and compares every
/// observable. `Ok(())` means the interpreters agree bit-for-bit; `Err`
/// carries a human-readable description of the first divergence.
///
/// # Errors
///
/// Returns `Err` when any observable differs between the interpreters.
///
/// # Panics
///
/// Panics when `kernel.program` fails validation.
pub fn diff_case(kernel: &GeneratedKernel) -> Result<(), String> {
    let fast = run_kernel(kernel, Interpreter::Lowered);
    let oracle = run_kernel(kernel, Interpreter::Oracle);
    if fast.result != oracle.result {
        return Err(format!(
            "launch outcome diverged:\n  lowered: {:?}\n  oracle:  {:?}",
            fast.result, oracle.result
        ));
    }
    if fast.kernels != oracle.kernels {
        return Err(format!(
            "kernel_begin sequence diverged: {:?} vs {:?}",
            fast.kernels, oracle.kernels
        ));
    }
    if fast.bb_entries != oracle.bb_entries {
        let n = fast
            .bb_entries
            .iter()
            .zip(&oracle.bb_entries)
            .take_while(|(a, b)| a == b)
            .count();
        return Err(format!(
            "bb_entry streams diverged at index {n}: lowered {:?} vs oracle {:?} \
             (lengths {} vs {})",
            fast.bb_entries.get(n),
            oracle.bb_entries.get(n),
            fast.bb_entries.len(),
            oracle.bb_entries.len()
        ));
    }
    if fast.accesses != oracle.accesses {
        let n = fast
            .accesses
            .iter()
            .zip(&oracle.accesses)
            .take_while(|(a, b)| a == b)
            .count();
        return Err(format!(
            "memory event streams diverged at index {n}: lowered {:?} vs oracle {:?} \
             (lengths {} vs {})",
            fast.accesses.get(n),
            oracle.accesses.get(n),
            fast.accesses.len(),
            oracle.accesses.len()
        ));
    }
    if fast.final_buffers != oracle.final_buffers {
        for (i, (a, b)) in fast
            .final_buffers
            .iter()
            .zip(&oracle.final_buffers)
            .enumerate()
        {
            if a != b {
                let byte = a.iter().zip(b).take_while(|(x, y)| x == y).count();
                return Err(format!(
                    "final memory diverged in buffer {i} at byte {byte}: \
                     lowered {:#04x} vs oracle {:#04x}",
                    a[byte], b[byte]
                ));
            }
        }
    }
    Ok(())
}

fn count_stmts(region: &Region) -> usize {
    region
        .0
        .iter()
        .map(|s| {
            1 + match s {
                Stmt::If {
                    then_region,
                    else_region,
                    ..
                } => count_stmts(then_region) + count_stmts(else_region),
                Stmt::While { body, .. } => count_stmts(body),
                _ => 0,
            }
        })
        .sum()
}

/// Removes the `n`-th statement in preorder; `n` is decremented as
/// statements are passed. Returns true once a removal happened.
fn remove_nth_stmt(region: &mut Region, n: &mut usize) -> bool {
    let mut i = 0;
    while i < region.0.len() {
        if *n == 0 {
            region.0.remove(i);
            return true;
        }
        *n -= 1;
        let removed = match &mut region.0[i] {
            Stmt::If {
                then_region,
                else_region,
                ..
            } => remove_nth_stmt(then_region, n) || remove_nth_stmt(else_region, n),
            Stmt::While { body, .. } => remove_nth_stmt(body, n),
            _ => false,
        };
        if removed {
            return true;
        }
        i += 1;
    }
    false
}

/// Greedily minimises a kernel that fails [`diff_case`]: first caps the
/// fuel (bounding every candidate's runtime), then repeatedly deletes
/// statements and individual instructions while the divergence persists.
/// Returns the input unchanged if it does not actually fail.
pub fn shrink(kernel: &GeneratedKernel) -> GeneratedKernel {
    let fails = |k: &GeneratedKernel| k.program.validate().is_ok() && diff_case(k).is_err();
    if !fails(kernel) {
        return kernel.clone();
    }
    let mut cur = kernel.clone();
    let mut capped = cur.clone();
    capped.fuel = capped.fuel.min(100_000);
    if fails(&capped) {
        cur = capped;
    }
    loop {
        let mut reduced = false;
        let mut n = 0;
        while n < count_stmts(&cur.program.body) {
            let mut cand = cur.clone();
            let mut idx = n;
            remove_nth_stmt(&mut cand.program.body, &mut idx);
            if fails(&cand) {
                cur = cand;
                reduced = true;
            } else {
                n += 1;
            }
        }
        for b in 0..cur.program.blocks.len() {
            let mut i = 0;
            while i < cur.program.blocks[b].insts.len() {
                let mut cand = cur.clone();
                cand.program.blocks[b].insts.remove(i);
                if fails(&cand) {
                    cur = cand;
                    reduced = true;
                } else {
                    i += 1;
                }
            }
        }
        if !reduced {
            break;
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every seed maps to a valid program, deterministically.
    #[test]
    fn generation_is_deterministic_and_valid() {
        for seed in 0..32u64 {
            let a = GeneratedKernel::generate(seed);
            let b = GeneratedKernel::generate(seed);
            a.program
                .validate()
                .expect("generated program must validate");
            assert_eq!(
                format!("{:?}", a.program),
                format!("{:?}", b.program),
                "seed {seed} not deterministic"
            );
            assert_eq!(a.config, b.config);
            assert_eq!(a.init_seed, b.init_seed);
        }
    }

    /// In-crate differential smoke test: a small fixed-seed batch through
    /// both interpreters (the big batch runs as an integration test).
    #[test]
    fn differential_smoke() {
        for seed in 0..48u64 {
            let k = GeneratedKernel::generate(seed);
            if let Err(e) = diff_case(&k) {
                let small = shrink(&k);
                panic!(
                    "seed {seed} diverged: {e}\nshrunk program:\n{}",
                    crate::disasm::dump_program(&small.program)
                );
            }
        }
    }

    /// Kernels survive a serde round-trip byte-identically — the corpus
    /// format contract.
    #[test]
    fn corpus_serde_roundtrip() {
        let k = GeneratedKernel::generate(7);
        let json = serde_json::to_string(&k).unwrap();
        let back: GeneratedKernel = serde_json::from_str(&json).unwrap();
        assert_eq!(format!("{:?}", k.program), format!("{:?}", back.program));
        assert_eq!(k.config, back.config);
        assert_eq!(k.warp_size, back.warp_size);
        assert_eq!(k.fuel, back.fuel);
        assert_eq!(k.buffers, back.buffers);
        assert_eq!(k.scalars, back.scalars);
        assert_eq!(k.textures, back.textures);
        assert_eq!(k.init_seed, back.init_seed);
        // And the round-tripped kernel still conforms.
        diff_case(&back).unwrap();
    }

    /// The shrinker leaves passing kernels untouched.
    #[test]
    fn shrink_is_identity_on_passing_kernels() {
        let k = GeneratedKernel::generate(3);
        diff_case(&k).unwrap();
        let s = shrink(&k);
        assert_eq!(format!("{:?}", k.program), format!("{:?}", s.program));
    }
}

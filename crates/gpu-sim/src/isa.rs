//! The simulator's SASS-like instruction set.
//!
//! Kernels are register machines over 64-bit general-purpose registers and
//! 1-bit predicate registers, mirroring the shape of NVIDIA SASS closely
//! enough that the trace observables Owl consumes (basic blocks, predicated
//! execution, per-lane memory addresses with memory spaces) behave like the
//! real thing.
//!
//! Floating-point operations use IEEE-754 `f32` semantics: the low 32 bits
//! of a register hold the bit pattern, produced and consumed by the `F*`
//! operations and the conversion ops. Every `F*` result that is NaN is
//! written as [`CANONICAL_NAN`], whatever the operands' NaN payloads, as
//! NVIDIA hardware does. IEEE-754 leaves the payload of a NaN result open,
//! and Rust does not fix it either, so without this rule the result bits
//! would depend on how the compiler schedules the operation.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The bit pattern of every NaN an `F*` operation produces: the canonical
/// NaN of NVIDIA GPUs.
pub const CANONICAL_NAN: u32 = 0x7fff_ffff;

/// A general-purpose 64-bit register index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Reg(pub u16);

/// A 1-bit predicate register index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Pred(pub u16);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A source operand: a register or a 64-bit immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// Read the named register.
    Reg(Reg),
    /// A literal value.
    Imm(u64),
}

impl Operand {
    /// An `f32` immediate, stored as its bit pattern (the convention used by
    /// all floating-point operations).
    pub fn imm_f32(v: f32) -> Self {
        Operand::Imm(u64::from(v.to_bits()))
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<u64> for Operand {
    fn from(v: u64) -> Self {
        Operand::Imm(v)
    }
}

impl From<u32> for Operand {
    fn from(v: u32) -> Self {
        Operand::Imm(u64::from(v))
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Imm(v as u64)
    }
}

impl From<f32> for Operand {
    fn from(v: f32) -> Self {
        Operand::imm_f32(v)
    }
}

/// Binary ALU operations.
///
/// Integer arithmetic wraps (matching hardware); signed variants interpret
/// bit patterns as two's complement `i64`. Float operations use `f32`
/// semantics on the low 32 register bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// Wrapping integer addition.
    Add,
    /// Wrapping integer subtraction.
    Sub,
    /// Wrapping integer multiplication.
    Mul,
    /// Unsigned integer division. Division by zero is an execution error.
    DivU,
    /// Unsigned integer remainder. Division by zero is an execution error.
    RemU,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (shift amount taken modulo 64).
    Shl,
    /// Logical shift right (shift amount taken modulo 64).
    Shr,
    /// Arithmetic shift right (shift amount taken modulo 64).
    Sar,
    /// Unsigned minimum.
    MinU,
    /// Unsigned maximum.
    MaxU,
    /// Signed minimum.
    MinS,
    /// Signed maximum.
    MaxS,
    /// `f32` addition.
    FAdd,
    /// `f32` subtraction.
    FSub,
    /// `f32` multiplication.
    FMul,
    /// `f32` division.
    FDiv,
    /// `f32` minimum. A NaN operand yields the other operand, like CUDA
    /// `fminf` (and Rust's `f32::min`); two NaNs yield [`CANONICAL_NAN`].
    FMin,
    /// `f32` maximum. A NaN operand yields the other operand, like CUDA
    /// `fmaxf` (and Rust's `f32::max`); two NaNs yield [`CANONICAL_NAN`].
    FMax,
}

/// Unary ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnOp {
    /// Bitwise NOT.
    Not,
    /// Two's-complement negation.
    Neg,
    /// `f32` negation.
    FNeg,
    /// `f32` absolute value.
    FAbs,
    /// `f32` square root.
    FSqrt,
    /// `f32` base-e exponential.
    FExp,
    /// `f32` natural logarithm.
    FLn,
    /// `f32` floor.
    FFloor,
    /// Signed 64-bit integer to `f32`.
    I2F,
    /// `f32` to signed 64-bit integer (truncating; saturates at the i64
    /// range, NaN converts to 0, matching CUDA `cvt.rzi` semantics).
    F2I,
}

/// Comparison operators for `SetP`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// Bitwise equality.
    Eq,
    /// Bitwise inequality.
    Ne,
    /// Unsigned less-than.
    LtU,
    /// Unsigned less-or-equal.
    LeU,
    /// Unsigned greater-than.
    GtU,
    /// Unsigned greater-or-equal.
    GeU,
    /// Signed less-than.
    LtS,
    /// Signed less-or-equal.
    LeS,
    /// Signed greater-than.
    GtS,
    /// Signed greater-or-equal.
    GeS,
    /// `f32` less-than (false on NaN).
    FLt,
    /// `f32` less-or-equal (false on NaN).
    FLe,
    /// `f32` greater-than (false on NaN).
    FGt,
    /// `f32` greater-or-equal (false on NaN).
    FGe,
    /// `f32` equality (false on NaN).
    FEq,
    /// `f32` inequality (true on NaN).
    FNe,
}

/// The memory spaces visible to device code, following NVBit's taxonomy
/// (the paper's footnote 4 lists None/Local/Generic/Global/Shared/Constant/
/// Global-to-Shared/Surface/Texture; the simulator implements the five
/// that carry trace semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MemSpace {
    /// Device global memory, shared by all threads; addresses come from
    /// host-side allocations.
    Global,
    /// Per-CTA shared memory; addresses are offsets into the CTA's bank.
    Shared,
    /// Per-thread local memory; addresses are offsets into the thread's
    /// private spill space.
    Local,
    /// Read-only constant bank, set by the host before launch.
    Constant,
    /// Read-only texture objects with 2-D clamped addressing, sampled via
    /// the dedicated `Tex` instruction (plain loads/stores are rejected).
    Texture,
}

impl fmt::Display for MemSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemSpace::Global => "global",
            MemSpace::Shared => "shared",
            MemSpace::Local => "local",
            MemSpace::Constant => "constant",
            MemSpace::Texture => "texture",
        };
        f.write_str(s)
    }
}

/// Access width of a load or store, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemWidth {
    /// One byte.
    B1,
    /// Two bytes (little-endian).
    B2,
    /// Four bytes (little-endian).
    B4,
    /// Eight bytes (little-endian).
    B8,
}

impl MemWidth {
    /// The width in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::B1 => 1,
            MemWidth::B2 => 2,
            MemWidth::B4 => 4,
            MemWidth::B8 => 8,
        }
    }
}

/// Special (read-only) hardware registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpecialReg {
    /// Thread index within the block, x component (`threadIdx.x`).
    TidX,
    /// Thread index within the block, y component.
    TidY,
    /// Thread index within the block, z component.
    TidZ,
    /// Block index within the grid, x component (`blockIdx.x`).
    CtaidX,
    /// Block index within the grid, y component.
    CtaidY,
    /// Block index within the grid, z component.
    CtaidZ,
    /// Block dimensions (`blockDim.{x,y,z}`).
    NTidX,
    /// Block dimension y.
    NTidY,
    /// Block dimension z.
    NTidZ,
    /// Grid dimensions (`gridDim.{x,y,z}`).
    NCtaidX,
    /// Grid dimension y.
    NCtaidY,
    /// Grid dimension z.
    NCtaidZ,
    /// Lane index within the warp (0..32).
    LaneId,
    /// Warp index within the block.
    WarpId,
    /// Linearised global thread index
    /// (`blockIdx.linear * blockDim.total + tid.linear`), a convenience the
    /// real ISA composes from the above.
    GlobalTid,
}

/// A guard making an instruction *predicated*: it executes only in lanes
/// where the predicate register holds `expected`.
///
/// Predicated execution is the CUDA mechanism (paper §II-B) by which short
/// conditional code avoids branching: the warp visits the instruction
/// regardless, so predication is invisible in the control-flow trace — the
/// property behind the paper's `max_pool2d` non-leak finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Guard {
    /// The predicate register tested.
    pub pred: Pred,
    /// The value the predicate must have for the lane to execute.
    pub expected: bool,
}

/// An executable operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InstOp {
    /// `dst = src`.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = a <op> b`.
    Bin {
        /// The operation.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = <op> a`.
    Un {
        /// The operation.
        op: UnOp,
        /// Destination register.
        dst: Reg,
        /// Operand.
        a: Operand,
    },
    /// `pred = a <cmp> b`.
    SetP {
        /// Destination predicate register.
        pred: Pred,
        /// The comparison.
        op: CmpOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = pred ? a : b` — the if-conversion primitive.
    Sel {
        /// Destination register.
        dst: Reg,
        /// Selector predicate.
        pred: Pred,
        /// Value when the predicate is true.
        a: Operand,
        /// Value when the predicate is false.
        b: Operand,
    },
    /// Load `width` bytes from `space` at the byte address in `addr`.
    Ld {
        /// Destination register (zero-extended).
        dst: Reg,
        /// Memory space.
        space: MemSpace,
        /// Byte address operand.
        addr: Operand,
        /// Access width.
        width: MemWidth,
    },
    /// Store the low `width` bytes of `value` to `space` at `addr`.
    St {
        /// Memory space.
        space: MemSpace,
        /// Byte address operand.
        addr: Operand,
        /// Value operand.
        value: Operand,
        /// Access width.
        width: MemWidth,
    },
    /// Load the `index`-th kernel parameter into `dst`.
    LdParam {
        /// Destination register.
        dst: Reg,
        /// Parameter index.
        index: u16,
    },
    /// Read a special register.
    Special {
        /// Destination register.
        dst: Reg,
        /// Which special register.
        sr: SpecialReg,
    },
    /// Atomic read-modify-write: `dst = *addr; *addr = op(*addr, value)`.
    ///
    /// Lanes execute in lane order within the warp (the deterministic
    /// serialisation a real GPU's memory subsystem would pick
    /// nondeterministically — determinism is what the differential
    /// analysis needs).
    Atomic {
        /// The read-modify-write operation.
        op: AtomicOp,
        /// Destination register, receives the *old* value.
        dst: Reg,
        /// Memory space (global or shared; constant is read-only and local
        /// is private, so atomics there are rejected at validation).
        space: MemSpace,
        /// Byte address operand.
        addr: Operand,
        /// The operand value.
        value: Operand,
        /// Access width.
        width: MemWidth,
    },
    /// Warp shuffle: `dst = src` *of another lane* (CUDA `__shfl_sync`).
    ///
    /// All lanes read their peers' pre-instruction `src` values. When the
    /// selected peer is inactive, the lane keeps its own value.
    Shfl {
        /// Shuffle addressing mode.
        mode: ShflMode,
        /// Destination register.
        dst: Reg,
        /// Source register (read across lanes).
        src: Reg,
        /// Lane selector operand (xor mask or absolute index).
        lane: Operand,
    },
    /// Warp vote: `dst` = 32-bit ballot of `pred` across active lanes
    /// (CUDA `__ballot_sync`); every active lane receives the same mask.
    Ballot {
        /// Destination register.
        dst: Reg,
        /// The voted predicate.
        pred: Pred,
    },
    /// 2-D texture fetch (`tex2D`): reads texel `(x, y)` of the bound
    /// texture object with clamp-to-edge addressing. The instrumentation
    /// observes the linear texel index — the texture-cache side channel
    /// behind the rendering attacks of the paper's §III-A.
    Tex {
        /// Destination register (the texel value, zero-extended).
        dst: Reg,
        /// Texture slot bound by the host.
        slot: u16,
        /// X coordinate operand (signed; clamped to the texture width).
        x: Operand,
        /// Y coordinate operand (signed; clamped to the texture height).
        y: Operand,
    },
}

/// Atomic read-modify-write operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AtomicOp {
    /// Wrapping addition (`atomicAdd`).
    Add,
    /// Unsigned minimum (`atomicMin`).
    MinU,
    /// Unsigned maximum (`atomicMax`).
    MaxU,
    /// Exchange (`atomicExch`).
    Exch,
}

/// Warp-shuffle addressing modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShflMode {
    /// Peer = own lane XOR selector (`__shfl_xor_sync`), the butterfly
    /// reduction pattern.
    Xor,
    /// Peer = absolute lane index (`__shfl_sync`).
    Idx,
}

/// One instruction: an operation plus an optional predication guard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Inst {
    /// The operation to perform.
    pub op: InstOp,
    /// When present, lanes whose predicate differs from
    /// `guard.expected` skip the instruction (but the warp still visits it).
    pub guard: Option<Guard>,
}

impl Inst {
    /// An unguarded instruction.
    pub fn new(op: InstOp) -> Self {
        Inst { op, guard: None }
    }

    /// A predicated instruction.
    pub fn guarded(op: InstOp, pred: Pred, expected: bool) -> Self {
        Inst {
            op,
            guard: Some(Guard { pred, expected }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_conversions() {
        assert_eq!(Operand::from(Reg(3)), Operand::Reg(Reg(3)));
        assert_eq!(Operand::from(7u64), Operand::Imm(7));
        assert_eq!(Operand::from(-1i64), Operand::Imm(u64::MAX));
        assert_eq!(
            Operand::from(1.0f32),
            Operand::Imm(u64::from(1.0f32.to_bits()))
        );
    }

    #[test]
    fn mem_width_bytes() {
        assert_eq!(MemWidth::B1.bytes(), 1);
        assert_eq!(MemWidth::B2.bytes(), 2);
        assert_eq!(MemWidth::B4.bytes(), 4);
        assert_eq!(MemWidth::B8.bytes(), 8);
    }

    #[test]
    fn display_registers() {
        assert_eq!(Reg(4).to_string(), "r4");
        assert_eq!(Pred(1).to_string(), "p1");
        assert_eq!(MemSpace::Shared.to_string(), "shared");
    }
}

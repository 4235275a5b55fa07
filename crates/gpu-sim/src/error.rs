//! Execution errors.

use crate::hook::WarpRef;
use crate::isa::MemSpace;
use crate::mem::AccessError;
use crate::program::BlockId;

/// An error raised while launching or executing a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// A lane performed an out-of-bounds or unmapped access.
    Memory {
        /// Block containing the faulting instruction.
        bb: BlockId,
        /// Instruction index within the block.
        inst_idx: u32,
        /// The faulting warp.
        warp: WarpRef,
        /// Memory space accessed.
        space: MemSpace,
        /// The underlying fault.
        source: AccessError,
    },
    /// Integer division or remainder by zero.
    DivisionByZero {
        /// Block containing the faulting instruction.
        bb: BlockId,
        /// Instruction index within the block.
        inst_idx: u32,
        /// The faulting warp.
        warp: WarpRef,
    },
    /// A kernel argument index exceeded the provided argument list.
    ParamOutOfRange {
        /// The requested parameter index.
        index: u16,
        /// How many arguments the launch provided.
        provided: usize,
    },
    /// A warp reached `__syncthreads` with a partially active mask
    /// (undefined behaviour on real hardware, an error here).
    BarrierDivergence {
        /// The diverged warp.
        warp: WarpRef,
    },
    /// Some warps finished while others wait at a barrier — the CTA can
    /// never release it (a deadlock on real hardware).
    BarrierDeadlock,
    /// The launch exceeded its instruction budget (runaway loop guard).
    FuelExhausted,
    /// The launch was abandoned because its
    /// [`CancelToken`](crate::cancel::CancelToken) fired — a caller
    /// cancellation or an expired wall-clock deadline. Checked
    /// cooperatively at basic-block boundaries.
    Cancelled,
    /// The launch geometry is degenerate (zero threads).
    EmptyLaunch,
    /// The requested warp width is outside 1..=64.
    InvalidWarpSize {
        /// The rejected width.
        warp_size: u32,
    },
    /// A `Tex` instruction referenced an unbound texture slot.
    UnboundTexture {
        /// The missing slot.
        slot: u16,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Memory {
                bb,
                inst_idx,
                warp,
                space,
                source,
            } => write!(
                f,
                "{source} ({space} space) at {bb}:{inst_idx} in cta {} warp {}",
                warp.cta, warp.warp
            ),
            ExecError::DivisionByZero { bb, inst_idx, warp } => write!(
                f,
                "division by zero at {bb}:{inst_idx} in cta {} warp {}",
                warp.cta, warp.warp
            ),
            ExecError::ParamOutOfRange { index, provided } => write!(
                f,
                "kernel parameter {index} requested but only {provided} provided"
            ),
            ExecError::BarrierDivergence { warp } => write!(
                f,
                "barrier reached by a diverged warp (cta {} warp {})",
                warp.cta, warp.warp
            ),
            ExecError::BarrierDeadlock => {
                write!(f, "barrier deadlock: warp finished while others wait")
            }
            ExecError::FuelExhausted => write!(f, "instruction budget exhausted"),
            ExecError::Cancelled => {
                write!(f, "launch cancelled (caller cancellation or deadline)")
            }
            ExecError::EmptyLaunch => write!(f, "launch has zero threads"),
            ExecError::InvalidWarpSize { warp_size } => {
                write!(f, "warp size {warp_size} outside 1..=64")
            }
            ExecError::UnboundTexture { slot } => {
                write!(f, "texture slot {slot} not bound")
            }
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Memory { source, .. } => Some(source),
            _ => None,
        }
    }
}

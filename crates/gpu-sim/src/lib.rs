//! A deterministic SIMT GPU simulator with NVBit-style instrumentation.
//!
//! This crate is the execution substrate of the Owl reproduction: it plays
//! the role of the NVIDIA GPU plus NVBit in the original paper. Kernels are
//! built with a structured DSL ([`build::KernelBuilder`]), compiled to a
//! SASS-like register IR ([`isa`]), validated and register-allocated once
//! into a [`Kernel`], and executed in 32-lane warps with exact SIMT
//! divergence/reconvergence and CUDA-style predicated execution
//! ([`exec::launch`]). Instrumentation hooks ([`hook::KernelHook`]) observe
//! basic-block entries per warp and memory accesses per lane — precisely
//! the trace observables Owl's detector consumes.
//!
//! # Fidelity notes
//!
//! * **Warps execute in lockstep.** A basic block is visited once per warp
//!   regardless of how many lanes are active, so per-lane (predicated)
//!   control dependence is invisible in the block trace — the property
//!   behind the paper's `max_pool2d` finding.
//! * **Divergent branches serialise both sides** and reconverge at the
//!   immediate post-dominator; divergent loops iterate until the last lane
//!   leaves.
//! * **Deterministic scheduling.** CTAs and warps run in a fixed order; the
//!   paper deliberately excludes scheduling-induced leakage (§V-A).
//! * **Memory spaces** (global / shared / local / constant) follow NVBit's
//!   taxonomy, and global allocations can be placed under simulated ASLR.
//!
//! # Example
//!
//! ```
//! use owl_gpu::build::KernelBuilder;
//! use owl_gpu::exec::launch;
//! use owl_gpu::grid::LaunchConfig;
//! use owl_gpu::hook::RecordingHook;
//! use owl_gpu::isa::{MemWidth, SpecialReg};
//! use owl_gpu::mem::DeviceMemory;
//!
//! // A table lookup indexed by secret data — the classic leaky pattern.
//! let b = KernelBuilder::new("lookup");
//! let table = b.param(0);
//! let secret = b.param(1);
//! let tid = b.special(SpecialReg::GlobalTid);
//! let idx = b.and(b.add(secret, tid), 0xff_u64);
//! let v = b.load_global(b.add(table, idx), MemWidth::B1);
//! let out = b.param(2);
//! b.store_global(b.add(out, tid), v, MemWidth::B1);
//! let kernel = b.finish();
//!
//! let mut mem = DeviceMemory::new();
//! let (_, table_ptr) = mem.alloc(256);
//! let (_, out_ptr) = mem.alloc(32);
//! let mut trace = RecordingHook::default();
//! launch(&mut mem, &kernel, LaunchConfig::new(1u32, 32u32),
//!        &[table_ptr, 7, out_ptr], &mut trace)?;
//! // The tracer observed the secret-dependent table addresses.
//! assert!(trace.accesses.iter().any(|(_, e)| {
//!     e.lane_addrs.iter().any(|&(_, a)| a == table_ptr + (7 % 256))
//! }));
//! # Ok::<(), owl_gpu::error::ExecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod cancel;
pub mod disasm;
pub mod error;
pub mod exec;
pub mod genkernel;
pub mod grid;
pub mod hook;
pub mod isa;
mod lowered;
pub mod mem;
pub mod oracle;
pub mod program;
mod warp;

pub use build::KernelBuilder;
pub use cancel::CancelToken;
pub use error::ExecError;
pub use exec::{launch, launch_with_options, Interpreter, LaunchOptions, LaunchStats};
pub use grid::{Dim3, LaunchConfig, WARP_SIZE};
pub use hook::{
    AccessKind, KernelHook, LaunchInfo, MemAccessEvent, MemEventBatch, MemEventDesc, NullHook,
    RecordingHook, WarpRef,
};
pub use mem::{AllocId, DeviceMemory};
pub use owl_metrics::SimCounters;
pub use program::{BlockId, Kernel, KernelProgram};

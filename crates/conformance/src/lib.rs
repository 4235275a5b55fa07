//! Differential conformance machinery for the `owl-gpu` simulator.
//!
//! Every result of the Owl reproduction flows through `owl-gpu`'s warp
//! interpreter, so this crate pins it cuFuzz-style against an independent
//! implementation of the same contract:
//!
//! * [`oracle`] — a deliberately naive reference interpreter that executes
//!   a kernel's program as written, one register per value;
//! * [`genkernel`] — seed-deterministic random kernels over the whole ISA,
//!   the differential driver [`genkernel::diff_case`] that runs one through
//!   both interpreters and compares every observable, and the shrinker
//!   that minimises a divergence for the regression corpus.
//!
//! The seam is [`owl_gpu::exec::Interpreter`], the type of a launch
//! function. [`owl_gpu::LaunchOptions::interpreter`] and `owl-core`'s
//! `Recorder::interpreter` default to [`owl_gpu::exec::launch_lowered`];
//! tests set them to [`launch_oracle`].
//!
//! No crate lists this one under `[dependencies]`: tests take it as a
//! dev-dependency, so the production library ships only the simulator.
//! The crate boundary also keeps the oracle independent. It sees only
//! `owl-gpu`'s public API, and the register-allocated blocks and the warp
//! interpreter stay private to `owl-gpu`, so the two interpreters cannot
//! share interpretation logic or register numbering. A bug there would
//! otherwise be invisible to the differential suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod genkernel;
pub mod oracle;

pub use oracle::launch_oracle;

use owl_gpu::exec::{launch_lowered, Interpreter};

/// Both interpreters with the names test messages use: the warp
/// interpreter every production launch runs, then the reference oracle.
pub const INTERPRETERS: [(&str, Interpreter); 2] =
    [("lowered", launch_lowered), ("oracle", launch_oracle)];

//! AES-128 workloads (the Libgpucrypto target of the paper's evaluation).
//!
//! [`AesTTable`] is the classic T-table implementation whose table-lookup
//! addresses are `key ⊕ state` bytes — the data-flow leak the paper finds
//! 66 instances of. [`AesScan`] is a constant-access-pattern variant that
//! reads every table entry on every lookup, serving as Owl's negative
//! control.

pub(crate) mod gpu;
pub mod tables;

pub use gpu::{AesScan, AesTTable};

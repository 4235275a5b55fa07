//! Statistical machinery for the Owl side-channel leakage detector.
//!
//! Owl (DSN 2024) decides whether differences between program traces are
//! *input-dependent* (a leak) or caused by non-deterministic execution noise
//! by comparing the distribution of trace features under **fixed** inputs
//! against the distribution under **random** inputs. This crate provides the
//! statistical primitives for that comparison:
//!
//! * [`ks`] — the two-sample Kolmogorov–Smirnov test used by the paper
//!   (eqs. (1)–(4)), chosen over Welch's t-test because it does not assume
//!   normality; it and [`mi`] read their two [`WeightedSamples`] in one
//!   merge walk over the union of the supports,
//! * [`welch`] — Welch's t-test, the TVLA-style prior-work baseline (and
//!   the statistic behind the detector's TVLA engine),
//! * [`mi`] — mutual-information leakage quantification (bits per
//!   observation, the statistic behind the detector's MI engine),
//! * [`Histogram`] — weighted value histograms (`H_addr` in the paper),
//! * [`TransitionMatrix`] — per-node control-flow transition matrices
//!   (eqs. (5)–(8), flattened into the `H_cf` histogram).
//!
//! # Example
//!
//! ```
//! use owl_stats::{Histogram, ks::ks_two_sample};
//!
//! // Memory-address histograms observed under fixed and random inputs.
//! let mut fix = Histogram::new();
//! let mut rnd = Histogram::new();
//! for a in 0..64 {
//!     fix.record(0x40, 1); // fixed input always hits the same S-box line
//!     rnd.record(a * 8, 1); // random inputs spray across the table
//! }
//! let result = ks_two_sample(&fix.to_samples(), &rnd.to_samples(), 0.95);
//! assert!(result.rejected, "address distributions must differ");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod ks;
pub mod mi;
mod pairtable;
pub mod samples;
pub mod transition;
pub mod welch;

pub use histogram::Histogram;
pub use ks::{ks_two_sample, KsOutcome};
pub use mi::class_mi_bits;
pub use samples::WeightedSamples;
pub use transition::TransitionMatrix;
pub use welch::{welch_t_test, WelchOutcome};

//! # Owl — differential side-channel leakage detection for GPU programs
//!
//! A full-system reproduction of *"Owl: Differential-based Side-Channel
//! Leakage Detection for CUDA Applications"* (DSN 2024) in pure Rust.
//! This façade crate re-exports the workspace:
//!
//! * [`gpu`] — a deterministic SIMT GPU simulator with NVBit-style hooks
//!   (the execution substrate),
//! * [`host`] — an emulated CUDA host runtime with Pin-style host tracing,
//! * [`dcfg`] — attributed dynamic control-flow graphs and Myers alignment,
//! * [`stats`] — the two-sample statistics (KS, Welch's t-test, mutual
//!   information), histograms and transition matrices,
//! * [`core`] — the three-phase detector (record → filter → analyse),
//! * [`workloads`] — AES, RSA, mini-torch, mini-JPEG, and scalability
//!   dummies,
//! * [`baselines`] — DATA-style and static-analysis comparators.
//!
//! # Quickstart
//!
//! ```
//! use owl::core::{detect, LeakKind, OwlConfig, Verdict};
//! use owl::workloads::dummy::DummySbox;
//!
//! // An S-box-style lookup program; the secret seeds the table indices.
//! let program = DummySbox::new(64);
//! let detection = detect(
//!     &program,
//!     &[1, 2, 3, 4],
//!     &OwlConfig { runs: 40, ..OwlConfig::default() },
//! )?;
//! assert_eq!(detection.verdict, Verdict::Leaky);
//! assert!(detection.report.count(LeakKind::DataFlow) >= 1);
//! # Ok::<(), owl::core::DetectError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use owl_baselines as baselines;
pub use owl_core as core;
pub use owl_dcfg as dcfg;
pub use owl_gpu as gpu;
pub use owl_host as host;
pub use owl_stats as stats;
pub use owl_workloads as workloads;

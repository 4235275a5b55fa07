//! GPU applications under test for the Owl detector.
//!
//! One module per evaluation target of the paper:
//!
//! * [`aes`] / [`rsa`] — the Libgpucrypto cryptographic workloads,
//! * [`torch`] — a mini tensor library standing in for PyTorch,
//! * [`jpeg`] — a mini JPEG codec standing in for nvJPEG,
//! * [`dummy`] — the synthetic S-box program of the Fig. 5 scalability
//!   experiment.
//!
//! Every workload implements [`owl_core::TracedProgram`] so the detector
//! can drive it with fixed and random secret inputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod coalescing;
pub mod dummy;
pub mod histogram;
pub mod jpeg;
pub mod mlp;
pub mod render;
pub mod rsa;
pub mod search;
pub mod torch;
pub mod util;

#[cfg(test)]
mod tests {
    /// The register files of the kernels the repository benchmark runs:
    /// `(name, registers as written, slots the warp interpreter allocates
    /// per lane)`. An allocator change that brings back one register per
    /// value (3,083 for the unrolled DCT) fails here.
    #[test]
    fn benchmark_kernels_keep_small_register_files() {
        let kernels = [
            crate::jpeg::gpu::build_dct_quant(64),
            crate::jpeg::gpu::build_zigzag_rle(),
            crate::aes::gpu::build_kernel(
                "aes128_ttable",
                crate::aes::gpu::LookupStyle::Indexed,
                10,
            ),
            crate::torch::kernels::layer_norm(),
        ];
        let sizes: Vec<_> = kernels
            .iter()
            .map(|k| (k.name.as_str(), k.num_regs, k.slots()))
            .collect();
        assert_eq!(
            sizes,
            [
                ("jpeg_dct_quant", 3083, 77),
                ("jpeg_zigzag_rle", 36, 16),
                ("aes128_ttable", 1166, 17),
                ("layer_norm_kernel", 35, 14),
            ]
        );
    }
}

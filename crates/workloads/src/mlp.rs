//! MLP inference where the *architecture* is the secret — the
//! model-extraction scenario that motivates GPU side-channel work (the
//! paper's §III-A cites DeepSniffer, Leaky DNN, Hermes).
//!
//! A service provider runs inference with a proprietary network whose
//! hidden width is confidential. The host code sizes its allocations and
//! launch grids by that width, so a GPU-resident attacker reads the
//! hyperparameter straight off the kernel-launch geometry — a **kernel
//! leak** in Owl's taxonomy. The input activations, by contrast, flow
//! through constant-shape numeric kernels and stay invisible.

use crate::util::seeded_f32s;
use owl_core::TracedProgram;
use owl_gpu::build::KernelBuilder;
use owl_gpu::grid::LaunchConfig;
use owl_gpu::isa::{CmpOp, MemWidth, SpecialReg};
use owl_gpu::Kernel;
use owl_host::{Device, HostError};

/// Input feature count (public).
pub const INPUT_DIM: usize = 32;
/// Output class count (public).
pub const OUTPUT_DIM: usize = 8;
/// The candidate hidden widths the provider chooses between (the secret
/// hyperparameter space).
pub const WIDTHS: [usize; 4] = [32, 64, 96, 128];

/// `out[r] = relu(Σ_j w[r·in + j] · x[j])` — a fused linear+ReLU layer.
fn build_layer_kernel() -> Kernel {
    let b = KernelBuilder::new("mlp_linear_relu");
    let x = b.param(0);
    let w = b.param(1);
    let out = b.param(2);
    let in_dim = b.param(3);
    let out_dim = b.param(4);
    let tid = b.special(SpecialReg::GlobalTid);
    let guard = b.setp(CmpOp::LtU, tid, out_dim);
    b.if_then(guard, |b| {
        let acc = b.mov(0.0f32);
        let row = b.mul(tid, in_dim);
        b.for_range(0u64, in_dim, |b, j| {
            let wv = b.load_global(b.add(w, b.mul(b.add(row, j), 4u64)), MemWidth::B4);
            let xv = b.load_global(b.add(x, b.mul(j, 4u64)), MemWidth::B4);
            let a = b.fadd(acc, b.fmul(wv, xv));
            b.assign(acc, a);
        });
        let r = b.fmax(acc, 0.0f32);
        b.store_global(b.add(out, b.mul(tid, 4u64)), r, MemWidth::B4);
    });
    b.finish()
}

/// A two-layer MLP whose hidden width is the secret.
#[derive(Debug, Clone)]
pub struct MlpHiddenWidth {
    layer: Kernel,
    /// Fixed public input activations.
    input: Vec<f32>,
}

impl MlpHiddenWidth {
    /// A new inference workload with a fixed public input vector.
    pub fn new() -> Self {
        MlpHiddenWidth {
            layer: build_layer_kernel(),
            input: seeded_f32s(0x317, INPUT_DIM, -1.0, 1.0),
        }
    }

    /// Runs inference with the given (secret) hidden width and returns the
    /// output activations.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    ///
    /// # Panics
    ///
    /// Panics when `hidden` is not one of [`WIDTHS`].
    pub fn infer(&self, dev: &mut Device, hidden: usize) -> Result<Vec<f32>, HostError> {
        assert!(WIDTHS.contains(&hidden), "width {hidden} not in catalogue");
        // Deterministic public-ish weights; their *sizes* are the secret's
        // fingerprint.
        let w1 = seeded_f32s(0x77_01, hidden * INPUT_DIM, -0.5, 0.5);
        let w2 = seeded_f32s(0x77_02, OUTPUT_DIM * hidden, -0.5, 0.5);

        let x = dev.malloc(INPUT_DIM * 4);
        dev.memcpy_h2d(x, &crate::util::f32s_to_bytes(&self.input))?;
        let w1_buf = dev.malloc(w1.len() * 4); // size depends on the secret
        dev.memcpy_h2d(w1_buf, &crate::util::f32s_to_bytes(&w1))?;
        let hid = dev.malloc(hidden * 4);
        let w2_buf = dev.malloc(w2.len() * 4);
        dev.memcpy_h2d(w2_buf, &crate::util::f32s_to_bytes(&w2))?;
        let out = dev.malloc(OUTPUT_DIM * 4);

        // Grid sized by the hidden width: the observable hyperparameter.
        dev.launch(
            &self.layer,
            LaunchConfig::new((hidden as u32).div_ceil(32), 32u32),
            &[
                x.addr(),
                w1_buf.addr(),
                hid.addr(),
                INPUT_DIM as u64,
                hidden as u64,
            ],
        )?;
        dev.launch(
            &self.layer,
            LaunchConfig::new((OUTPUT_DIM as u32).div_ceil(32), 32u32),
            &[
                hid.addr(),
                w2_buf.addr(),
                out.addr(),
                hidden as u64,
                OUTPUT_DIM as u64,
            ],
        )?;
        let mut bytes = vec![0u8; OUTPUT_DIM * 4];
        dev.memcpy_d2h(out, &mut bytes)?;
        Ok(crate::util::bytes_to_f32s(&bytes))
    }

    /// Host reference inference.
    pub fn reference(&self, hidden: usize) -> Vec<f32> {
        let w1 = seeded_f32s(0x77_01, hidden * INPUT_DIM, -0.5, 0.5);
        let w2 = seeded_f32s(0x77_02, OUTPUT_DIM * hidden, -0.5, 0.5);
        let hid: Vec<f32> = (0..hidden)
            .map(|r| {
                (0..INPUT_DIM)
                    .map(|j| w1[r * INPUT_DIM + j] * self.input[j])
                    .sum::<f32>()
                    .max(0.0)
            })
            .collect();
        (0..OUTPUT_DIM)
            .map(|r| {
                (0..hidden)
                    .map(|j| w2[r * hidden + j] * hid[j])
                    .sum::<f32>()
                    .max(0.0)
            })
            .collect()
    }
}

impl Default for MlpHiddenWidth {
    fn default() -> Self {
        Self::new()
    }
}

impl TracedProgram for MlpHiddenWidth {
    /// The secret: the hidden-layer width.
    type Input = usize;

    fn name(&self) -> &str {
        "mlp/hidden-width"
    }

    fn run(&self, device: &mut Device, hidden: &usize) -> Result<(), HostError> {
        self.infer(device, *hidden).map(|_| ())
    }

    fn random_input(&self, seed: u64) -> usize {
        WIDTHS[(seed as usize).wrapping_mul(2654435761) % WIDTHS.len()]
    }

    fn deterministic_host(&self) -> bool {
        true // audited: `run` has no per-run host state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inference_matches_reference_for_every_width() {
        let mlp = MlpHiddenWidth::new();
        for &w in &WIDTHS {
            let got = mlp.infer(&mut Device::new(), w).unwrap();
            let want = mlp.reference(w);
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (a - b).abs() < 1e-4 * (1.0 + b.abs()),
                    "width {w} out {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn widths_change_launch_geometry() {
        let mlp = MlpHiddenWidth::new();
        let grids = |w: usize| {
            let mut dev = Device::new();
            mlp.infer(&mut dev, w).unwrap();
            dev.events()
                .iter()
                .filter_map(|e| match e {
                    owl_host::HostEvent::Launch { config, .. } => Some(config.grid.x),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        assert_ne!(grids(32), grids(128), "geometry must follow the width");
    }

    #[test]
    fn random_widths_cover_catalogue() {
        let mlp = MlpHiddenWidth::new();
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..64 {
            seen.insert(mlp.random_input(seed));
        }
        assert_eq!(seen.len(), WIDTHS.len(), "{seen:?}");
    }
}

//! The mini-torch functions as traced workloads.
//!
//! Mirrors the twelve PyTorch functions of the paper's Table III/IV rows.
//! Most are purely numerical (no secret-dependent addresses or warp-level
//! control flow) and should come out clean; the losses gather by secret
//! label (data-flow leak) and `Tensor.__repr__` launches different kernels
//! for zero and nonzero tensors (kernel leak) — the paper's serialization
//! example.

use super::kernels;
use super::tensor::Tensor;
use crate::util::rng;
use owl_core::TracedProgram;
use owl_gpu::grid::LaunchConfig;
use owl_gpu::Kernel;
use owl_host::{Device, DevicePtr, HostError};
use rand::Rng;

/// Vector length of the elementwise ops.
pub const VEC_N: usize = 64;
/// Image side of the pooling/conv ops.
pub const IMG: usize = 16;
/// Convolution kernel side.
pub const CONV_K: usize = 3;
/// Linear layer width.
pub const LIN: usize = 32;
/// Samples per loss batch.
pub const BATCH: usize = 8;
/// Classes per loss sample.
pub const CLASSES: usize = 10;
/// Embedding vocabulary size.
pub const VOCAB: usize = 64;
/// Embedding dimension.
pub const EMB_DIM: usize = 8;
/// Tokens per embedding batch.
pub const TOKENS: usize = 8;

/// Which mini-torch function a [`TorchFunction`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TorchOpKind {
    /// `relu(x)`.
    Relu,
    /// `sigmoid(x)`.
    Sigmoid,
    /// `tanh(x)`.
    Tanh,
    /// `softmax(x)` over one vector.
    Softmax,
    /// 2×2 max pooling.
    MaxPool2d,
    /// 2×2 average pooling.
    AvgPool2d,
    /// 3×3 valid convolution (public weights).
    Conv2d,
    /// Fully connected layer (public weights/bias).
    Linear,
    /// Mean-squared-error against a public target.
    MseLoss,
    /// Negative log-likelihood over public log-probabilities and *secret
    /// labels*.
    NllLoss,
    /// Cross entropy over public logits and *secret labels*.
    CrossEntropy,
    /// `Tensor.__repr__` with the zero-tensor kernel specialisation.
    TensorRepr,
    /// Embedding lookup over *secret token ids* (public table).
    Embedding,
    /// Layer normalisation over one vector.
    LayerNorm,
}

impl TorchOpKind {
    /// The paper's twelve functions plus the two modern-DNN extensions.
    pub const ALL: [TorchOpKind; 14] = [
        TorchOpKind::TensorRepr,
        TorchOpKind::AvgPool2d,
        TorchOpKind::MaxPool2d,
        TorchOpKind::Tanh,
        TorchOpKind::Relu,
        TorchOpKind::Sigmoid,
        TorchOpKind::Softmax,
        TorchOpKind::Conv2d,
        TorchOpKind::Linear,
        TorchOpKind::CrossEntropy,
        TorchOpKind::MseLoss,
        TorchOpKind::NllLoss,
        TorchOpKind::Embedding,
        TorchOpKind::LayerNorm,
    ];

    /// The paper's original twelve functions only.
    pub const PAPER: [TorchOpKind; 12] = [
        TorchOpKind::TensorRepr,
        TorchOpKind::AvgPool2d,
        TorchOpKind::MaxPool2d,
        TorchOpKind::Tanh,
        TorchOpKind::Relu,
        TorchOpKind::Sigmoid,
        TorchOpKind::Softmax,
        TorchOpKind::Conv2d,
        TorchOpKind::Linear,
        TorchOpKind::CrossEntropy,
        TorchOpKind::MseLoss,
        TorchOpKind::NllLoss,
    ];

    /// Whether this function is expected to leak under Owl's threat model.
    pub fn expected_leaky(self) -> bool {
        matches!(
            self,
            TorchOpKind::NllLoss
                | TorchOpKind::CrossEntropy
                | TorchOpKind::TensorRepr
                | TorchOpKind::Embedding
        )
    }

    /// Short display name (paper row label).
    pub fn label(self) -> &'static str {
        match self {
            TorchOpKind::Relu => "relu",
            TorchOpKind::Sigmoid => "sigmoid",
            TorchOpKind::Tanh => "tanh",
            TorchOpKind::Softmax => "softmax",
            TorchOpKind::MaxPool2d => "maxpool2d",
            TorchOpKind::AvgPool2d => "avgpool2d",
            TorchOpKind::Conv2d => "conv2d",
            TorchOpKind::Linear => "linear",
            TorchOpKind::MseLoss => "mseloss",
            TorchOpKind::NllLoss => "nllloss",
            TorchOpKind::CrossEntropy => "crossentropy",
            TorchOpKind::TensorRepr => "Tensor.__repr__",
            TorchOpKind::Embedding => "embedding",
            TorchOpKind::LayerNorm => "layernorm",
        }
    }
}

/// A secret input for a mini-torch function.
#[derive(Debug, Clone, PartialEq)]
pub enum TorchInput {
    /// A secret tensor (activations, images, predictions).
    Tensor(Tensor),
    /// Secret class labels.
    Labels(Vec<u32>),
}

/// One mini-torch function wired for detection.
#[derive(Debug, Clone)]
pub struct TorchFunction {
    kind: TorchOpKind,
    kernels: Vec<Kernel>,
    /// Fixed public parameters (weights, targets, logits), op-specific.
    public: Vec<Tensor>,
}

fn cfg(threads: usize) -> LaunchConfig {
    LaunchConfig::new((threads as u32).div_ceil(32), 32u32)
}

impl TorchFunction {
    /// Builds the op's kernels and fixed public data.
    pub fn new(kind: TorchOpKind) -> Self {
        use TorchOpKind::*;
        let kernels = match kind {
            Relu => vec![kernels::relu()],
            Sigmoid => vec![kernels::sigmoid()],
            Tanh => vec![kernels::tanh()],
            Softmax => vec![kernels::softmax_exp(), kernels::softmax_norm()],
            MaxPool2d => vec![kernels::pool2d(IMG as u64, IMG as u64, true)],
            AvgPool2d => vec![kernels::pool2d(IMG as u64, IMG as u64, false)],
            Conv2d => vec![kernels::conv2d(IMG as u64, IMG as u64, CONV_K as u64)],
            Linear => vec![kernels::linear(LIN as u64, LIN as u64)],
            MseLoss => vec![kernels::squared_error(), kernels::mean_reduce()],
            NllLoss => vec![kernels::nll_gather(CLASSES as u64)],
            CrossEntropy => vec![kernels::cross_entropy(CLASSES as u64)],
            TensorRepr => vec![
                kernels::any_nonzero(),
                kernels::format_nonzero(),
                kernels::format_zero(),
            ],
            Embedding => vec![kernels::embedding(EMB_DIM as u64)],
            LayerNorm => vec![kernels::layer_norm()],
        };
        let public = match kind {
            Conv2d => vec![Tensor::random([CONV_K, CONV_K], 0xC04F, -1.0, 1.0)],
            Linear => vec![
                Tensor::random([LIN, LIN], 0x11EA, -0.5, 0.5),
                Tensor::random([LIN], 0xB1A5, -0.5, 0.5),
            ],
            MseLoss => vec![Tensor::random([VEC_N], 0x7A46, -1.0, 1.0)],
            NllLoss => {
                // Public log-probabilities: log-softmax of a random matrix.
                let raw = Tensor::random([BATCH, CLASSES], 0x106, -2.0, 2.0);
                let mut data = raw.data().to_vec();
                for row in data.chunks_mut(CLASSES) {
                    let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let s: f32 = row.iter().map(|v| (v - m).exp()).sum();
                    for v in row.iter_mut() {
                        *v = *v - m - s.ln();
                    }
                }
                vec![Tensor::new([BATCH, CLASSES], data)]
            }
            CrossEntropy => vec![Tensor::random([BATCH, CLASSES], 0x10617, -2.0, 2.0)],
            Embedding => vec![Tensor::random([VOCAB, EMB_DIM], 0xE3B, -1.0, 1.0)],
            _ => vec![],
        };
        TorchFunction {
            kind,
            kernels,
            public,
        }
    }

    /// The function this workload drives.
    pub fn kind(&self) -> TorchOpKind {
        self.kind
    }

    /// The device kernels this op launches (for static analysis and
    /// inspection).
    pub fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    /// Uploads secret labels as raw `u32` words.
    fn upload_labels(dev: &mut Device, labels: &[u32]) -> Result<DevicePtr, HostError> {
        let ptr = dev.malloc(labels.len() * 4);
        let bytes: Vec<u8> = labels.iter().flat_map(|v| v.to_le_bytes()).collect();
        dev.memcpy_h2d(ptr, &bytes)?;
        Ok(ptr)
    }

    /// Runs the op and returns its numeric output (used by tests; `run`
    /// discards it).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    ///
    /// # Panics
    ///
    /// Panics when the input variant does not match the op (tensor ops take
    /// [`TorchInput::Tensor`], losses over labels take
    /// [`TorchInput::Labels`]).
    pub fn eval(&self, dev: &mut Device, input: &TorchInput) -> Result<Vec<f32>, HostError> {
        use TorchOpKind::*;
        match (self.kind, input) {
            (Relu | Sigmoid | Tanh, TorchInput::Tensor(t)) => {
                let x = t.upload(dev)?;
                let out = dev.malloc(t.numel() * 4);
                dev.launch(
                    &self.kernels[0],
                    cfg(t.numel()),
                    &[x.addr(), out.addr(), t.numel() as u64],
                )?;
                Tensor::download(dev, out, t.numel())
            }
            (Softmax, TorchInput::Tensor(t)) => {
                let n = t.numel();
                let x = t.upload(dev)?;
                let tmp = dev.malloc(n * 4);
                let out = dev.malloc(n * 4);
                dev.launch(&self.kernels[0], cfg(n), &[x.addr(), tmp.addr(), n as u64])?;
                dev.launch(
                    &self.kernels[1],
                    cfg(n),
                    &[tmp.addr(), out.addr(), n as u64],
                )?;
                Tensor::download(dev, out, n)
            }
            (MaxPool2d | AvgPool2d, TorchInput::Tensor(t)) => {
                let x = t.upload(dev)?;
                let on = (IMG / 2) * (IMG / 2);
                let out = dev.malloc(on * 4);
                dev.launch(&self.kernels[0], cfg(on), &[x.addr(), out.addr()])?;
                Tensor::download(dev, out, on)
            }
            (Conv2d, TorchInput::Tensor(t)) => {
                let x = t.upload(dev)?;
                let w = self.public[0].upload(dev)?;
                let os = IMG - CONV_K + 1;
                let out = dev.malloc(os * os * 4);
                dev.launch(
                    &self.kernels[0],
                    cfg(os * os),
                    &[x.addr(), w.addr(), out.addr()],
                )?;
                Tensor::download(dev, out, os * os)
            }
            (Linear, TorchInput::Tensor(t)) => {
                let x = t.upload(dev)?;
                let w = self.public[0].upload(dev)?;
                let bias = self.public[1].upload(dev)?;
                let out = dev.malloc(LIN * 4);
                dev.launch(
                    &self.kernels[0],
                    cfg(LIN),
                    &[x.addr(), w.addr(), bias.addr(), out.addr()],
                )?;
                Tensor::download(dev, out, LIN)
            }
            (MseLoss, TorchInput::Tensor(t)) => {
                let n = t.numel();
                let x = t.upload(dev)?;
                let y = self.public[0].upload(dev)?;
                let tmp = dev.malloc(n * 4);
                let out = dev.malloc(4);
                dev.launch(
                    &self.kernels[0],
                    cfg(n),
                    &[x.addr(), y.addr(), tmp.addr(), n as u64],
                )?;
                dev.launch(
                    &self.kernels[1],
                    cfg(32),
                    &[tmp.addr(), out.addr(), n as u64],
                )?;
                Tensor::download(dev, out, 1)
            }
            (NllLoss, TorchInput::Labels(labels)) => {
                let logp = self.public[0].upload(dev)?;
                let t = Self::upload_labels(dev, labels)?;
                let out = dev.malloc(BATCH * 4);
                dev.launch(
                    &self.kernels[0],
                    cfg(BATCH),
                    &[logp.addr(), t.addr(), out.addr(), BATCH as u64],
                )?;
                Tensor::download(dev, out, BATCH)
            }
            (CrossEntropy, TorchInput::Labels(labels)) => {
                let logits = self.public[0].upload(dev)?;
                let t = Self::upload_labels(dev, labels)?;
                let out = dev.malloc(BATCH * 4);
                dev.launch(
                    &self.kernels[0],
                    cfg(BATCH),
                    &[logits.addr(), t.addr(), out.addr(), BATCH as u64],
                )?;
                Tensor::download(dev, out, BATCH)
            }
            (Embedding, TorchInput::Labels(ids)) => {
                let table = self.public[0].upload(dev)?;
                let t = Self::upload_labels(dev, ids)?;
                let n_out = ids.len() * EMB_DIM;
                let out = dev.malloc(n_out * 4);
                dev.launch(
                    &self.kernels[0],
                    cfg(n_out),
                    &[table.addr(), t.addr(), out.addr(), n_out as u64],
                )?;
                Tensor::download(dev, out, n_out)
            }
            (LayerNorm, TorchInput::Tensor(t)) => {
                let n = t.numel();
                let x = t.upload(dev)?;
                let out = dev.malloc(n * 4);
                dev.launch(&self.kernels[0], cfg(n), &[x.addr(), out.addr(), n as u64])?;
                Tensor::download(dev, out, n)
            }
            (TensorRepr, TorchInput::Tensor(t)) => {
                let n = t.numel();
                let x = t.upload(dev)?;
                let flag = dev.malloc(4);
                let out = dev.malloc(n * 4);
                dev.launch(
                    &self.kernels[0],
                    cfg(32),
                    &[x.addr(), flag.addr(), n as u64],
                )?;
                let mut fb = [0u8; 4];
                dev.memcpy_d2h(flag, &mut fb)?;
                // Host-side decision on device data: the kernel leak.
                if u32::from_le_bytes(fb) != 0 {
                    dev.launch(&self.kernels[1], cfg(n), &[x.addr(), out.addr(), n as u64])?;
                } else {
                    dev.launch(&self.kernels[2], cfg(n), &[out.addr(), n as u64])?;
                }
                Tensor::download(dev, out, n)
            }
            (kind, input) => panic!("{kind:?} got incompatible input {input:?}"),
        }
    }
}

impl TracedProgram for TorchFunction {
    type Input = TorchInput;

    fn name(&self) -> &str {
        self.kind.label()
    }

    fn run(&self, device: &mut Device, input: &TorchInput) -> Result<(), HostError> {
        self.eval(device, input).map(|_| ())
    }

    fn random_input(&self, seed: u64) -> TorchInput {
        use TorchOpKind::*;
        match self.kind {
            NllLoss | CrossEntropy => {
                let mut r = rng(seed ^ 0x1AB5);
                TorchInput::Labels((0..BATCH).map(|_| r.gen_range(0..CLASSES as u32)).collect())
            }
            Embedding => {
                let mut r = rng(seed ^ 0x70CE);
                TorchInput::Labels((0..TOKENS).map(|_| r.gen_range(0..VOCAB as u32)).collect())
            }
            MaxPool2d | AvgPool2d | Conv2d => {
                TorchInput::Tensor(Tensor::random([IMG, IMG], seed ^ 0x1947, -1.0, 1.0))
            }
            Linear => TorchInput::Tensor(Tensor::random([LIN], seed ^ 0x11, -1.0, 1.0)),
            _ => TorchInput::Tensor(Tensor::random([VEC_N], seed ^ 0x7e5, -1.0, 1.0)),
        }
    }

    fn deterministic_host(&self) -> bool {
        true // audited: `run` has no per-run host state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + y.abs()),
                "element {i}: {x} vs {y}"
            );
        }
    }

    fn tensor_input(f: &TorchFunction, seed: u64) -> (TorchInput, Vec<f32>) {
        let input = f.random_input(seed);
        let data = match &input {
            TorchInput::Tensor(t) => t.data().to_vec(),
            TorchInput::Labels(_) => unreachable!("tensor op"),
        };
        (input, data)
    }

    #[test]
    fn relu_matches_reference() {
        let f = TorchFunction::new(TorchOpKind::Relu);
        let (input, x) = tensor_input(&f, 1);
        let got = f.eval(&mut Device::new(), &input).unwrap();
        let want: Vec<f32> = x.iter().map(|&v| v.max(0.0)).collect();
        close(&got, &want, 0.0);
    }

    #[test]
    fn sigmoid_and_tanh_match_reference() {
        let fs = TorchFunction::new(TorchOpKind::Sigmoid);
        let (input, x) = tensor_input(&fs, 2);
        let got = fs.eval(&mut Device::new(), &input).unwrap();
        let want: Vec<f32> = x.iter().map(|&v| 1.0 / (1.0 + (-v).exp())).collect();
        close(&got, &want, 1e-6);

        let ft = TorchFunction::new(TorchOpKind::Tanh);
        let (input, x) = tensor_input(&ft, 3);
        let got = ft.eval(&mut Device::new(), &input).unwrap();
        let want: Vec<f32> = x
            .iter()
            .map(|&v| {
                let e2 = (2.0 * v).exp();
                (e2 - 1.0) / (e2 + 1.0)
            })
            .collect();
        close(&got, &want, 1e-5);
    }

    #[test]
    fn softmax_matches_reference() {
        let f = TorchFunction::new(TorchOpKind::Softmax);
        let (input, x) = tensor_input(&f, 4);
        let got = f.eval(&mut Device::new(), &input).unwrap();
        let m = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = x.iter().map(|&v| (v - m).exp()).collect();
        let s: f32 = exps.iter().sum();
        let want: Vec<f32> = exps.iter().map(|&e| e / s).collect();
        close(&got, &want, 1e-5);
        assert!((got.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn pools_match_reference() {
        for (kind, is_max) in [
            (TorchOpKind::MaxPool2d, true),
            (TorchOpKind::AvgPool2d, false),
        ] {
            let f = TorchFunction::new(kind);
            let (input, x) = tensor_input(&f, 5);
            let got = f.eval(&mut Device::new(), &input).unwrap();
            let half = IMG / 2;
            let mut want = Vec::with_capacity(half * half);
            for oy in 0..half {
                for ox in 0..half {
                    let v = [
                        x[2 * oy * IMG + 2 * ox],
                        x[2 * oy * IMG + 2 * ox + 1],
                        x[(2 * oy + 1) * IMG + 2 * ox],
                        x[(2 * oy + 1) * IMG + 2 * ox + 1],
                    ];
                    want.push(if is_max {
                        v.iter().copied().fold(f32::NEG_INFINITY, f32::max)
                    } else {
                        v.iter().sum::<f32>() / 4.0
                    });
                }
            }
            close(&got, &want, 1e-6);
        }
    }

    #[test]
    fn conv2d_matches_reference() {
        let f = TorchFunction::new(TorchOpKind::Conv2d);
        let (input, x) = tensor_input(&f, 6);
        let got = f.eval(&mut Device::new(), &input).unwrap();
        let w = f.public[0].data();
        let os = IMG - CONV_K + 1;
        let mut want = vec![0.0f32; os * os];
        for oy in 0..os {
            for ox in 0..os {
                let mut acc = 0.0f32;
                for ky in 0..CONV_K {
                    for kx in 0..CONV_K {
                        acc += x[(oy + ky) * IMG + ox + kx] * w[ky * CONV_K + kx];
                    }
                }
                want[oy * os + ox] = acc;
            }
        }
        close(&got, &want, 1e-4);
    }

    #[test]
    fn linear_matches_reference() {
        let f = TorchFunction::new(TorchOpKind::Linear);
        let (input, x) = tensor_input(&f, 7);
        let got = f.eval(&mut Device::new(), &input).unwrap();
        let w = f.public[0].data();
        let bias = f.public[1].data();
        let want: Vec<f32> = (0..LIN)
            .map(|r| (0..LIN).map(|j| w[r * LIN + j] * x[j]).sum::<f32>() + bias[r])
            .collect();
        close(&got, &want, 1e-4);
    }

    #[test]
    fn mse_matches_reference() {
        let f = TorchFunction::new(TorchOpKind::MseLoss);
        let (input, x) = tensor_input(&f, 8);
        let got = f.eval(&mut Device::new(), &input).unwrap();
        let y = f.public[0].data();
        let want: f32 = x.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum::<f32>() / VEC_N as f32;
        close(&got, &[want], 1e-4);
    }

    #[test]
    fn losses_match_reference() {
        let f = TorchFunction::new(TorchOpKind::NllLoss);
        let TorchInput::Labels(labels) = f.random_input(9) else {
            panic!("labels expected");
        };
        let got = f
            .eval(&mut Device::new(), &TorchInput::Labels(labels.clone()))
            .unwrap();
        let logp = f.public[0].data();
        let want: Vec<f32> = labels
            .iter()
            .enumerate()
            .map(|(i, &t)| -logp[i * CLASSES + t as usize])
            .collect();
        close(&got, &want, 1e-6);

        let f = TorchFunction::new(TorchOpKind::CrossEntropy);
        let TorchInput::Labels(labels) = f.random_input(10) else {
            panic!("labels expected");
        };
        let got = f
            .eval(&mut Device::new(), &TorchInput::Labels(labels.clone()))
            .unwrap();
        let z = f.public[0].data();
        let want: Vec<f32> = labels
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let row = &z[i * CLASSES..(i + 1) * CLASSES];
                let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let s: f32 = row.iter().map(|v| (v - m).exp()).sum();
                m + s.ln() - row[t as usize]
            })
            .collect();
        close(&got, &want, 1e-5);
    }

    #[test]
    fn repr_launches_depend_on_content() {
        let f = TorchFunction::new(TorchOpKind::TensorRepr);
        let mut dev = Device::new();
        f.eval(&mut dev, &TorchInput::Tensor(Tensor::zeros([VEC_N])))
            .unwrap();
        let zero_launches: Vec<String> = dev
            .events()
            .iter()
            .filter_map(|e| match e {
                owl_host::HostEvent::Launch { kernel, .. } => Some(kernel.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(
            zero_launches,
            vec!["any_nonzero_kernel", "format_zero_kernel"]
        );

        let mut dev = Device::new();
        f.eval(&mut dev, &f.random_input(11)).unwrap();
        let nz: Vec<String> = dev
            .events()
            .iter()
            .filter_map(|e| match e {
                owl_host::HostEvent::Launch { kernel, .. } => Some(kernel.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(nz, vec!["any_nonzero_kernel", "format_nonzero_kernel"]);
    }

    #[test]
    fn embedding_matches_reference() {
        let f = TorchFunction::new(TorchOpKind::Embedding);
        let TorchInput::Labels(ids) = f.random_input(12) else {
            panic!("labels expected");
        };
        let got = f
            .eval(&mut Device::new(), &TorchInput::Labels(ids.clone()))
            .unwrap();
        let table = f.public[0].data();
        for (i, &id) in ids.iter().enumerate() {
            for c in 0..EMB_DIM {
                assert_eq!(
                    got[i * EMB_DIM + c],
                    table[id as usize * EMB_DIM + c],
                    "token {i} col {c}"
                );
            }
        }
    }

    #[test]
    fn layer_norm_matches_reference() {
        let f = TorchFunction::new(TorchOpKind::LayerNorm);
        let (input, x) = tensor_input(&f, 13);
        let got = f.eval(&mut Device::new(), &input).unwrap();
        let n = x.len() as f32;
        let mean = x.iter().sum::<f32>() / n;
        let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
        let want: Vec<f32> = x.iter().map(|v| (v - mean) / (var + 1e-5).sqrt()).collect();
        close(&got, &want, 1e-4);
        // Normalised output has ~zero mean and ~unit variance.
        let out_mean = got.iter().sum::<f32>() / n;
        assert!(out_mean.abs() < 1e-4, "{out_mean}");
    }

    #[test]
    fn all_ops_run_on_random_inputs() {
        for kind in TorchOpKind::ALL {
            let f = TorchFunction::new(kind);
            let input = f.random_input(42);
            f.eval(&mut Device::new(), &input)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        }
    }
}

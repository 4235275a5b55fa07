//! A mini tensor library standing in for PyTorch's CUDA backend.
//!
//! Twelve functions mirror the paper's PyTorch targets (Table III/IV):
//! elementwise activations, softmax, pooling, convolution, linear layers,
//! losses, and `Tensor.__repr__`. See [`TorchFunction`].

pub mod function;
pub(crate) mod kernels;
pub mod tensor;

pub use function::{TorchFunction, TorchInput, TorchOpKind};
pub use tensor::Tensor;

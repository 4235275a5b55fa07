//! Kernel builders for the mini-torch ops.
//!
//! All kernels follow the CUDA idiom: one thread per output element, a
//! bounds guard, and grid-stride-free direct indexing. Ops that reduce
//! (softmax, losses) scan redundantly per thread or reduce in a dedicated
//! guarded thread — constant control flow either way, matching the paper's
//! observation that most PyTorch CUDA kernels are "purely numerical … thus
//! do not exhibit side-channel leaks".

use owl_gpu::build::{KernelBuilder, Val};
use owl_gpu::isa::{CmpOp, MemWidth, SpecialReg};
use owl_gpu::Kernel;

fn f32x4(b: &KernelBuilder, base: Val, idx: impl Into<owl_gpu::isa::Operand>) -> Val {
    b.add(base, b.mul(idx, 4u64))
}

/// Elementwise unary op: `out[i] = f(x[i])` for `i < n`.
fn unary(name: &str, f: impl Fn(&KernelBuilder, Val) -> Val) -> Kernel {
    let b = KernelBuilder::new(name);
    let x = b.param(0);
    let out = b.param(1);
    let n = b.param(2);
    let tid = b.special(SpecialReg::GlobalTid);
    let guard = b.setp(CmpOp::LtU, tid, n);
    b.if_then(guard, |b| {
        let v = b.load_global(f32x4(b, x, tid), MemWidth::B4);
        let r = f(b, v);
        b.store_global(f32x4(b, out, tid), r, MemWidth::B4);
    });
    b.finish()
}

/// `relu(x) = max(x, 0)` — branch-free.
pub fn relu() -> Kernel {
    unary("relu_kernel", |b, v| b.fmax(v, 0.0f32))
}

/// `sigmoid(x) = 1 / (1 + e^{-x})`.
pub fn sigmoid() -> Kernel {
    unary("sigmoid_kernel", |b, v| {
        let e = b.fexp(b.fneg(v));
        b.fdiv(1.0f32, b.fadd(1.0f32, e))
    })
}

/// `tanh(x) = (e^{2x} − 1) / (e^{2x} + 1)`.
pub fn tanh() -> Kernel {
    unary("tanh_kernel", |b, v| {
        let e2 = b.fexp(b.fmul(v, 2.0f32));
        b.fdiv(b.fsub(e2, 1.0f32), b.fadd(e2, 1.0f32))
    })
}

/// Softmax pass 1: `tmp[i] = exp(x[i] − max(x))`, each thread scanning the
/// whole vector for the max (constant flow).
pub fn softmax_exp() -> Kernel {
    let b = KernelBuilder::new("softmax_exp_kernel");
    let x = b.param(0);
    let tmp = b.param(1);
    let n = b.param(2);
    let tid = b.special(SpecialReg::GlobalTid);
    let guard = b.setp(CmpOp::LtU, tid, n);
    b.if_then(guard, |b| {
        let m = b.mov(f32::NEG_INFINITY);
        b.for_range(0u64, n, |b, j| {
            let v = b.load_global(f32x4(b, x, j), MemWidth::B4);
            let mx = b.fmax(m, v);
            b.assign(m, mx);
        });
        let v = b.load_global(f32x4(b, x, tid), MemWidth::B4);
        let e = b.fexp(b.fsub(v, m));
        b.store_global(f32x4(b, tmp, tid), e, MemWidth::B4);
    });
    b.finish()
}

/// Softmax pass 2: `out[i] = tmp[i] / Σ tmp`.
pub fn softmax_norm() -> Kernel {
    let b = KernelBuilder::new("softmax_norm_kernel");
    let tmp = b.param(0);
    let out = b.param(1);
    let n = b.param(2);
    let tid = b.special(SpecialReg::GlobalTid);
    let guard = b.setp(CmpOp::LtU, tid, n);
    b.if_then(guard, |b| {
        let s = b.mov(0.0f32);
        b.for_range(0u64, n, |b, j| {
            let v = b.load_global(f32x4(b, tmp, j), MemWidth::B4);
            let a = b.fadd(s, v);
            b.assign(s, a);
        });
        let v = b.load_global(f32x4(b, tmp, tid), MemWidth::B4);
        b.store_global(f32x4(b, out, tid), b.fdiv(v, s), MemWidth::B4);
    });
    b.finish()
}

/// 2×2/stride-2 pooling over an `h×w` image; one thread per output pixel.
/// `max` selects max-pooling (via branch-free `FMax`), otherwise average.
pub fn pool2d(h: u64, w: u64, max: bool) -> Kernel {
    let name = if max {
        "max_pool2d_kernel"
    } else {
        "avg_pool2d_kernel"
    };
    let b = KernelBuilder::new(name);
    let x = b.param(0);
    let out = b.param(1);
    let (oh, ow) = (h / 2, w / 2);
    let tid = b.special(SpecialReg::GlobalTid);
    let guard = b.setp(CmpOp::LtU, tid, oh * ow);
    b.if_then(guard, |b| {
        let oy = b.div(tid, ow);
        let ox = b.rem(tid, ow);
        let base = b.add(b.mul(b.mul(oy, 2u64), w), b.mul(ox, 2u64));
        let v00 = b.load_global(f32x4(b, x, base), MemWidth::B4);
        let v01 = b.load_global(f32x4(b, x, b.add(base, 1u64)), MemWidth::B4);
        let v10 = b.load_global(f32x4(b, x, b.add(base, w)), MemWidth::B4);
        let v11 = b.load_global(f32x4(b, x, b.add(base, w + 1)), MemWidth::B4);
        let r = if max {
            b.fmax(b.fmax(v00, v01), b.fmax(v10, v11))
        } else {
            b.fmul(b.fadd(b.fadd(v00, v01), b.fadd(v10, v11)), 0.25f32)
        };
        b.store_global(f32x4(b, out, tid), r, MemWidth::B4);
    });
    b.finish()
}

/// Direct `k×k` valid convolution over an `h×w` image; one thread per
/// output pixel; the kernel window is unrolled at build time.
pub fn conv2d(h: u64, w: u64, k: u64) -> Kernel {
    let b = KernelBuilder::new("conv2d_kernel");
    let x = b.param(0);
    let wts = b.param(1);
    let out = b.param(2);
    let (oh, ow) = (h - k + 1, w - k + 1);
    let tid = b.special(SpecialReg::GlobalTid);
    let guard = b.setp(CmpOp::LtU, tid, oh * ow);
    b.if_then(guard, |b| {
        let oy = b.div(tid, ow);
        let ox = b.rem(tid, ow);
        let mut acc = b.mov(0.0f32);
        for ky in 0..k {
            for kx in 0..k {
                let iy = b.add(oy, ky);
                let ix = b.add(ox, kx);
                let xi = b.load_global(f32x4(b, x, b.add(b.mul(iy, w), ix)), MemWidth::B4);
                let wi = b.load_global(f32x4(b, wts, ky * k + kx), MemWidth::B4);
                acc = b.fadd(acc, b.fmul(xi, wi));
            }
        }
        b.store_global(f32x4(b, out, tid), acc, MemWidth::B4);
    });
    b.finish()
}

/// `out = W·x + bias` with `W` of shape `(out_f, in_f)`; one thread per
/// output feature, runtime loop over inputs.
pub fn linear(in_f: u64, out_f: u64) -> Kernel {
    let b = KernelBuilder::new("linear_kernel");
    let x = b.param(0);
    let w = b.param(1);
    let bias = b.param(2);
    let out = b.param(3);
    let tid = b.special(SpecialReg::GlobalTid);
    let guard = b.setp(CmpOp::LtU, tid, out_f);
    b.if_then(guard, |b| {
        let acc = b.mov(0.0f32);
        let row = b.mul(tid, in_f);
        b.for_range(0u64, in_f, |b, j| {
            let wv = b.load_global(f32x4(b, w, b.add(row, j)), MemWidth::B4);
            let xv = b.load_global(f32x4(b, x, j), MemWidth::B4);
            let a = b.fadd(acc, b.fmul(wv, xv));
            b.assign(acc, a);
        });
        let bv = b.load_global(f32x4(b, bias, tid), MemWidth::B4);
        b.store_global(f32x4(b, out, tid), b.fadd(acc, bv), MemWidth::B4);
    });
    b.finish()
}

/// Elementwise squared error: `tmp[i] = (x[i] − y[i])²`.
pub fn squared_error() -> Kernel {
    let b = KernelBuilder::new("squared_error_kernel");
    let x = b.param(0);
    let y = b.param(1);
    let tmp = b.param(2);
    let n = b.param(3);
    let tid = b.special(SpecialReg::GlobalTid);
    let guard = b.setp(CmpOp::LtU, tid, n);
    b.if_then(guard, |b| {
        let xv = b.load_global(f32x4(b, x, tid), MemWidth::B4);
        let yv = b.load_global(f32x4(b, y, tid), MemWidth::B4);
        let d = b.fsub(xv, yv);
        b.store_global(f32x4(b, tmp, tid), b.fmul(d, d), MemWidth::B4);
    });
    b.finish()
}

/// Single-thread mean reduction: `out[0] = Σ tmp / n` (thread 0 only; the
/// loop bound is the public size, so control flow is constant).
pub fn mean_reduce() -> Kernel {
    let b = KernelBuilder::new("mean_reduce_kernel");
    let tmp = b.param(0);
    let out = b.param(1);
    let n = b.param(2);
    let tid = b.special(SpecialReg::GlobalTid);
    let first = b.setp(CmpOp::Eq, tid, 0u64);
    b.if_then(first, |b| {
        let s = b.mov(0.0f32);
        b.for_range(0u64, n, |b, j| {
            let v = b.load_global(f32x4(b, tmp, j), MemWidth::B4);
            let a = b.fadd(s, v);
            b.assign(s, a);
        });
        let inv_n = b.fdiv(1.0f32, b.i2f(n));
        b.store_global(out, b.fmul(s, inv_n), MemWidth::B4);
    });
    b.finish()
}

/// NLL loss gather: `out[i] = −logp[i·c + target[i]]` — the address of the
/// gather is the secret label, the data-flow leak the losses exhibit.
pub fn nll_gather(c: u64) -> Kernel {
    let b = KernelBuilder::new("nll_gather_kernel");
    let logp = b.param(0);
    let targets = b.param(1);
    let out = b.param(2);
    let n = b.param(3);
    let tid = b.special(SpecialReg::GlobalTid);
    let guard = b.setp(CmpOp::LtU, tid, n);
    b.if_then(guard, |b| {
        let t = b.load_global(f32x4(b, targets, tid), MemWidth::B4);
        let idx = b.add(b.mul(tid, c), t);
        let v = b.load_global(f32x4(b, logp, idx), MemWidth::B4);
        b.store_global(f32x4(b, out, tid), b.fneg(v), MemWidth::B4);
    });
    b.finish()
}

/// Fused cross-entropy: per-sample log-sum-exp plus a target-indexed
/// gather: `out[i] = m + ln Σ e^{z−m} − z[target[i]]`.
pub fn cross_entropy(c: u64) -> Kernel {
    let b = KernelBuilder::new("cross_entropy_kernel");
    let logits = b.param(0);
    let targets = b.param(1);
    let out = b.param(2);
    let n = b.param(3);
    let tid = b.special(SpecialReg::GlobalTid);
    let guard = b.setp(CmpOp::LtU, tid, n);
    b.if_then(guard, |b| {
        let row = b.mul(tid, c);
        let m = b.mov(f32::NEG_INFINITY);
        b.for_range(0u64, c, |b, j| {
            let v = b.load_global(f32x4(b, logits, b.add(row, j)), MemWidth::B4);
            let mx = b.fmax(m, v);
            b.assign(m, mx);
        });
        let s = b.mov(0.0f32);
        b.for_range(0u64, c, |b, j| {
            let v = b.load_global(f32x4(b, logits, b.add(row, j)), MemWidth::B4);
            let e = b.fexp(b.fsub(v, m));
            let a = b.fadd(s, e);
            b.assign(s, a);
        });
        let t = b.load_global(f32x4(b, targets, tid), MemWidth::B4);
        let z = b.load_global(f32x4(b, logits, b.add(row, t)), MemWidth::B4);
        let loss = b.fsub(b.fadd(m, b.fln(s)), z);
        b.store_global(f32x4(b, out, tid), loss, MemWidth::B4);
    });
    b.finish()
}

/// Embedding lookup: `out[i·d .. (i+1)·d] = table[ids[i]·d .. ]` — one
/// thread per output element, the row index taken from the *secret* token
/// id (the token-privacy leak of embedding layers).
pub fn embedding(dim: u64) -> Kernel {
    let b = KernelBuilder::new("embedding_kernel");
    let table = b.param(0);
    let ids = b.param(1);
    let out = b.param(2);
    let n_out = b.param(3); // tokens * dim
    let tid = b.special(SpecialReg::GlobalTid);
    let guard = b.setp(CmpOp::LtU, tid, n_out);
    b.if_then(guard, |b| {
        let token = b.div(tid, dim);
        let col = b.rem(tid, dim);
        let id = b.load_global(f32x4(b, ids, token), MemWidth::B4);
        let v = b.load_global(f32x4(b, table, b.add(b.mul(id, dim), col)), MemWidth::B4);
        b.store_global(f32x4(b, out, tid), v, MemWidth::B4);
    });
    b.finish()
}

/// Layer normalisation over one vector: `out = (x − μ) / √(σ² + ε)`; each
/// thread redundantly computes the moments (constant flow).
pub fn layer_norm() -> Kernel {
    let b = KernelBuilder::new("layer_norm_kernel");
    let x = b.param(0);
    let out = b.param(1);
    let n = b.param(2);
    let tid = b.special(SpecialReg::GlobalTid);
    let guard = b.setp(CmpOp::LtU, tid, n);
    b.if_then(guard, |b| {
        let sum = b.mov(0.0f32);
        b.for_range(0u64, n, |b, j| {
            let v = b.load_global(f32x4(b, x, j), MemWidth::B4);
            let a = b.fadd(sum, v);
            b.assign(sum, a);
        });
        let mean = b.fdiv(sum, b.i2f(n));
        let ss = b.mov(0.0f32);
        b.for_range(0u64, n, |b, j| {
            let v = b.load_global(f32x4(b, x, j), MemWidth::B4);
            let d = b.fsub(v, mean);
            let a = b.fadd(ss, b.fmul(d, d));
            b.assign(ss, a);
        });
        let var = b.fdiv(ss, b.i2f(n));
        let denom = b.fsqrt(b.fadd(var, 1e-5f32));
        let v = b.load_global(f32x4(b, x, tid), MemWidth::B4);
        let r = b.fdiv(b.fsub(v, mean), denom);
        b.store_global(f32x4(b, out, tid), r, MemWidth::B4);
    });
    b.finish()
}

/// Thread-0 scan setting `flag[0] = 1` when any element is nonzero — the
/// device half of `Tensor.__repr__`'s zero-tensor special case.
pub fn any_nonzero() -> Kernel {
    let b = KernelBuilder::new("any_nonzero_kernel");
    let x = b.param(0);
    let flag = b.param(1);
    let n = b.param(2);
    let tid = b.special(SpecialReg::GlobalTid);
    let first = b.setp(CmpOp::Eq, tid, 0u64);
    b.if_then(first, |b| {
        let acc = b.mov(0u64);
        b.for_range(0u64, n, |b, j| {
            let v = b.load_global(f32x4(b, x, j), MemWidth::B4);
            let nz = b.setp(CmpOp::FNe, v, 0.0f32);
            let one = b.sel(nz, 1u64, acc);
            b.assign(acc, one);
        });
        b.store_global(flag, acc, MemWidth::B4);
    });
    b.finish()
}

/// Formatting kernel for nonzero tensors (`__repr__` fast path): copies
/// absolute values into the text staging buffer.
pub fn format_nonzero() -> Kernel {
    let b = KernelBuilder::new("format_nonzero_kernel");
    let x = b.param(0);
    let out = b.param(1);
    let n = b.param(2);
    let tid = b.special(SpecialReg::GlobalTid);
    let guard = b.setp(CmpOp::LtU, tid, n);
    b.if_then(guard, |b| {
        let v = b.load_global(f32x4(b, x, tid), MemWidth::B4);
        b.store_global(f32x4(b, out, tid), b.fabs(v), MemWidth::B4);
    });
    b.finish()
}

/// Formatting kernel for all-zero tensors (`__repr__` shortcut path).
pub fn format_zero() -> Kernel {
    let b = KernelBuilder::new("format_zero_kernel");
    let out = b.param(0);
    let n = b.param(1);
    let tid = b.special(SpecialReg::GlobalTid);
    let guard = b.setp(CmpOp::LtU, tid, n);
    b.if_then(guard, |b| {
        b.store_global(f32x4(b, out, tid), 0.0f32, MemWidth::B4);
    });
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kernels_validate() {
        for k in [
            relu(),
            sigmoid(),
            tanh(),
            softmax_exp(),
            softmax_norm(),
            pool2d(16, 16, true),
            pool2d(16, 16, false),
            conv2d(16, 16, 3),
            linear(32, 32),
            squared_error(),
            mean_reduce(),
            nll_gather(10),
            cross_entropy(10),
            embedding(8),
            layer_norm(),
            any_nonzero(),
            format_nonzero(),
            format_zero(),
        ] {
            k.validate().unwrap_or_else(|e| panic!("{}: {e}", k.name));
        }
    }
}

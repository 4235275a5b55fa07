//! RSA modular-exponentiation workloads (the second Libgpucrypto target).
//!
//! The paper finds control-flow leaks in RSA's `if`/`else` branches: the
//! textbook square-and-multiply loop multiplies only when the current
//! private-exponent bit is set, and iterates once per exponent bit — both
//! directly visible in a warp-level control-flow trace because the key is
//! shared across threads. [`RsaSquareMultiply`] reproduces that pattern;
//! [`RsaLadder`] is the constant-flow Montgomery-ladder counterpart used as
//! a negative control.
//!
//! The arithmetic runs on 32-bit moduli (products fit the simulator's
//! 64-bit registers); the leakage mechanics are identical to a bignum
//! implementation — each limb operation would leak the same branch
//! structure.

use crate::util::rng;
use owl_core::TracedProgram;
use owl_gpu::build::KernelBuilder;
use owl_gpu::grid::LaunchConfig;
use owl_gpu::isa::{CmpOp, MemWidth, SpecialReg};
use owl_gpu::Kernel;
use owl_host::{Device, HostError};
use rand::Rng;

/// A fixed 32-bit prime modulus (2³² − 5).
pub const MODULUS: u64 = 4_294_967_291;

/// Host reference: `base^exp mod MODULUS`.
pub fn modpow(mut base: u64, mut exp: u64, n: u64) -> u64 {
    base %= n;
    let mut result = 1u64;
    while exp != 0 {
        if exp & 1 == 1 {
            result = result * base % n;
        }
        base = base * base % n;
        exp >>= 1;
    }
    result
}

/// Builds the leaky square-and-multiply kernel.
fn build_sqm_kernel() -> Kernel {
    let b = KernelBuilder::new("rsa_modexp_sqm");
    let msg = b.param(0);
    let out = b.param(1);
    let exp = b.param(2);
    let n = b.param(3);
    let count = b.param(4);
    let tid = b.special(SpecialReg::GlobalTid);
    let in_range = b.setp(CmpOp::LtU, tid, count);
    b.if_then(in_range, |b| {
        let base = b.rem(b.load_global(b.add(msg, b.mul(tid, 8u64)), MemWidth::B8), n);
        let res = b.mov(1u64);
        let e = b.mov(exp);
        b.while_loop(
            // Loop trip count = exponent bit length: a control-flow leak.
            |b| b.setp(CmpOp::Ne, e, 0u64),
            |b| {
                let bit = b.and(e, 1u64);
                let set = b.setp(CmpOp::Eq, bit, 1u64);
                // Multiply only on set bits: the classic leaky branch.
                b.if_then(set, |b| {
                    let m = b.rem(b.mul(res, base), n);
                    b.assign(res, m);
                });
                let sq = b.rem(b.mul(base, base), n);
                b.assign(base, sq);
                b.assign(e, b.shr(e, 1u64));
            },
        );
        b.store_global(b.add(out, b.mul(tid, 8u64)), res, MemWidth::B8);
    });
    b.finish()
}

/// Builds the constant-flow Montgomery-ladder kernel: fixed 32 iterations,
/// branch-free selects.
fn build_ladder_kernel() -> Kernel {
    let b = KernelBuilder::new("rsa_modexp_ladder");
    let msg = b.param(0);
    let out = b.param(1);
    let exp = b.param(2);
    let n = b.param(3);
    let count = b.param(4);
    let tid = b.special(SpecialReg::GlobalTid);
    let in_range = b.setp(CmpOp::LtU, tid, count);
    b.if_then(in_range, |b| {
        let base = b.rem(b.load_global(b.add(msg, b.mul(tid, 8u64)), MemWidth::B8), n);
        let r0 = b.mov(1u64);
        let r1 = b.mov(base);
        b.for_range(0u64, 32u64, |b, i| {
            let shift = b.sub(31u64, i);
            let bit = b.and(b.shr(exp, shift), 1u64);
            let is_zero = b.setp(CmpOp::Eq, bit, 0u64);
            let t00 = b.rem(b.mul(r0, r0), n);
            let t01 = b.rem(b.mul(r0, r1), n);
            let t11 = b.rem(b.mul(r1, r1), n);
            // bit == 0: (r0, r1) ← (r0², r0·r1); bit == 1: (r0·r1, r1²).
            let n0 = b.sel(is_zero, t00, t01);
            let n1 = b.sel(is_zero, t01, t11);
            b.assign(r0, n0);
            b.assign(r1, n1);
        });
        b.store_global(b.add(out, b.mul(tid, 8u64)), r0, MemWidth::B8);
    });
    b.finish()
}

/// Shared host driver.
#[derive(Debug, Clone)]
struct RsaWorkload {
    kernel: Kernel,
    /// Fixed public message bases, one per thread.
    messages: Vec<u64>,
}

impl RsaWorkload {
    fn new(kernel: Kernel, threads: u32) -> Self {
        let mut r = rng(0x45A);
        RsaWorkload {
            kernel,
            messages: (0..threads).map(|_| r.gen_range(2..MODULUS)).collect(),
        }
    }

    fn modexp(&self, dev: &mut Device, exponent: u64) -> Result<Vec<u64>, HostError> {
        let n = self.messages.len();
        let msg = dev.malloc(8 * n);
        let bytes: Vec<u8> = self.messages.iter().flat_map(|v| v.to_le_bytes()).collect();
        dev.memcpy_h2d(msg, &bytes)?;
        let out = dev.malloc(8 * n);
        dev.launch(
            &self.kernel,
            LaunchConfig::new((n as u32).div_ceil(32), 32u32),
            &[msg.addr(), out.addr(), exponent, MODULUS, n as u64],
        )?;
        let mut raw = vec![0u8; 8 * n];
        dev.memcpy_d2h(out, &mut raw)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }
}

/// Draw a random 32-bit private exponent (the secret).
fn random_exponent(seed: u64) -> u64 {
    rng(seed ^ 0x125A).gen_range(1u64..(1 << 32))
}

/// The textbook square-and-multiply RSA modexp — leaky control flow.
#[derive(Debug, Clone)]
pub struct RsaSquareMultiply(RsaWorkload);

impl RsaSquareMultiply {
    /// Modexp over `threads` message bases with a shared secret exponent.
    pub fn new(threads: u32) -> Self {
        RsaSquareMultiply(RsaWorkload::new(build_sqm_kernel(), threads))
    }

    /// Runs the exponentiation and returns the per-thread results.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn modexp(&self, dev: &mut Device, exponent: u64) -> Result<Vec<u64>, HostError> {
        self.0.modexp(dev, exponent)
    }

    /// The fixed public message bases.
    pub fn messages(&self) -> &[u64] {
        &self.0.messages
    }
}

impl TracedProgram for RsaSquareMultiply {
    type Input = u64;

    fn name(&self) -> &str {
        "libgpucrypto/rsa-square-multiply"
    }

    fn run(&self, device: &mut Device, exponent: &u64) -> Result<(), HostError> {
        self.0.modexp(device, *exponent).map(|_| ())
    }

    fn random_input(&self, seed: u64) -> u64 {
        random_exponent(seed)
    }

    fn deterministic_host(&self) -> bool {
        true // audited: `run` has no per-run host state
    }
}

/// The constant-flow Montgomery-ladder modexp — the negative control.
#[derive(Debug, Clone)]
pub struct RsaLadder(RsaWorkload);

impl RsaLadder {
    /// Modexp over `threads` message bases with a shared secret exponent.
    pub fn new(threads: u32) -> Self {
        RsaLadder(RsaWorkload::new(build_ladder_kernel(), threads))
    }

    /// Runs the exponentiation and returns the per-thread results.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn modexp(&self, dev: &mut Device, exponent: u64) -> Result<Vec<u64>, HostError> {
        self.0.modexp(dev, exponent)
    }
}

impl TracedProgram for RsaLadder {
    type Input = u64;

    fn name(&self) -> &str {
        "libgpucrypto/rsa-montgomery-ladder"
    }

    fn run(&self, device: &mut Device, exponent: &u64) -> Result<(), HostError> {
        self.0.modexp(device, *exponent).map(|_| ())
    }

    fn random_input(&self, seed: u64) -> u64 {
        random_exponent(seed)
    }

    fn deterministic_host(&self) -> bool {
        true // audited: `run` has no per-run host state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modpow_reference_basics() {
        assert_eq!(modpow(2, 10, MODULUS), 1024);
        assert_eq!(modpow(5, 0, MODULUS), 1);
        assert_eq!(modpow(0, 5, MODULUS), 0);
        // Fermat: a^(p-1) ≡ 1 mod p for prime p.
        assert_eq!(modpow(1234_5678, MODULUS - 1, MODULUS), 1);
    }

    #[test]
    fn sqm_kernel_matches_reference() {
        let rsa = RsaSquareMultiply::new(32);
        for exp in [1u64, 2, 0x8000_0001, 0xdead_beef, (1 << 32) - 1] {
            let mut dev = Device::new();
            let got = rsa.modexp(&mut dev, exp).unwrap();
            for (i, &m) in rsa.messages().iter().enumerate() {
                assert_eq!(got[i], modpow(m, exp, MODULUS), "exp {exp:#x} thread {i}");
            }
        }
    }

    #[test]
    fn ladder_kernel_matches_reference() {
        let rsa = RsaLadder::new(32);
        let sqm = RsaSquareMultiply::new(32);
        for exp in [1u64, 3, 0xffff_fffe, 0x0f0f_0f0f] {
            let mut d1 = Device::new();
            let mut d2 = Device::new();
            assert_eq!(
                rsa.modexp(&mut d1, exp).unwrap(),
                sqm.modexp(&mut d2, exp).unwrap(),
                "exp {exp:#x}"
            );
        }
    }

    #[test]
    fn multi_warp_threads() {
        let rsa = RsaSquareMultiply::new(70);
        let mut dev = Device::new();
        let got = rsa.modexp(&mut dev, 0x1234_5678).unwrap();
        assert_eq!(got.len(), 70);
        assert_eq!(got[69], modpow(rsa.messages()[69], 0x1234_5678, MODULUS));
    }
}

//! GPU JPEG kernels and the encode/decode workloads (the nvJPEG stand-in).
//!
//! The encoder's entropy stage walks coefficients in zig-zag order with
//! data-dependent zero-run branches, a data-dependent magnitude loop, and
//! count-dependent output offsets — the control-flow and data-flow leak
//! surface the paper reports (98 CF + 45 DF leaks in nvJPEG encode). The
//! decoder is table-driven dequantisation + IDCT with constant control
//! flow, matching the paper's "none found in the decoding process".

use super::host::{dct_basis, synthetic_image, QUANT, ZIGZAG};
use crate::util::rng;
use owl_core::TracedProgram;
use owl_gpu::build::{KernelBuilder, Val};
use owl_gpu::grid::LaunchConfig;
use owl_gpu::isa::{CmpOp, MemWidth, SpecialReg};
use owl_gpu::Kernel;
use owl_host::{Device, DevicePtr, HostError};
use rand::Rng;

/// The encoder's outputs: `(quantised coefficients, packed symbol stream,
/// per-block symbol counts)`.
pub type EncodeOutput = (Vec<i32>, Vec<u32>, Vec<u32>);

fn cfg(threads: usize) -> LaunchConfig {
    LaunchConfig::new((threads as u32).div_ceil(32), 32u32)
}

/// Sign-extends a 32-bit value loaded into the low register half.
fn sext32(b: &KernelBuilder, v: Val) -> Val {
    b.sar(b.shl(v, 32u64), 32u64)
}

/// Forward DCT + quantisation kernel: one thread per 8×8 block, separable
/// passes unrolled at build time, constant control flow.
pub(crate) fn build_dct_quant(w: u64) -> Kernel {
    let basis = dct_basis();
    let b = KernelBuilder::new("jpeg_dct_quant");
    let img = b.param(0);
    let coeffs = b.param(1);
    let blocks_x = b.param(2);
    let n_blocks = b.param(3);
    let tid = b.special(SpecialReg::GlobalTid);
    let guard = b.setp(CmpOp::LtU, tid, n_blocks);
    b.if_then(guard, |b| {
        let by = b.div(tid, blocks_x);
        let bx = b.rem(tid, blocks_x);
        let top = b.mul(b.mul(by, 8u64), w);
        let left = b.mul(bx, 8u64);

        // Load + level shift.
        let mut px = Vec::with_capacity(64);
        for y in 0..8u64 {
            for x in 0..8u64 {
                let addr = b.add(img, b.add(b.add(top, y * w), b.add(left, x)));
                let p = b.load_global(addr, MemWidth::B1);
                px.push(b.fsub(b.i2f(p), 128.0f32));
            }
        }
        // Row pass: tmp[y][u] = Σ_x px[y][x]·basis[u][x].
        let mut tmp = vec![None; 64];
        for y in 0..8usize {
            for u in 0..8usize {
                let mut acc = b.mov(0.0f32);
                for x in 0..8usize {
                    acc = b.fadd(acc, b.fmul(px[y * 8 + x], basis[u][x]));
                }
                tmp[y * 8 + u] = Some(acc);
            }
        }
        // Column pass + quantisation.
        let out_base = b.mul(tid, 64u64);
        for v in 0..8usize {
            for u in 0..8usize {
                let mut acc = b.mov(0.0f32);
                for y in 0..8usize {
                    acc = b.fadd(
                        acc,
                        b.fmul(tmp[y * 8 + u].expect("filled above"), basis[v][y]),
                    );
                }
                let q = b.fdiv(acc, QUANT[v * 8 + u]);
                let r = b.f2i(b.ffloor(b.fadd(q, 0.5f32)));
                let addr = b.add(coeffs, b.mul(b.add(out_base, (v * 8 + u) as u64), 4u64));
                b.store_global(addr, r, MemWidth::B4);
            }
        }
    });
    b.finish()
}

/// The entropy stage: zig-zag scan (order from constant memory), zero-run
/// counting, magnitude-category loop, and packed `(run, size) | value`
/// emission at count-dependent offsets. One thread per block.
pub(crate) fn build_zigzag_rle() -> Kernel {
    let b = KernelBuilder::new("jpeg_zigzag_rle");
    let coeffs = b.param(0);
    let out = b.param(1);
    let counts = b.param(2);
    let n_blocks = b.param(3);
    let tid = b.special(SpecialReg::GlobalTid);
    let guard = b.setp(CmpOp::LtU, tid, n_blocks);
    b.if_then(guard, |b| {
        let coeff_base = b.mul(tid, 64u64);
        let out_base = b.mul(tid, 128u64);
        let run = b.mov(0u64);
        let count = b.mov(0u64);
        b.for_range(0u64, 64u64, |b, i| {
            let zz = b.load_const(b.mul(i, 4u64), MemWidth::B4);
            let addr = b.add(coeffs, b.mul(b.add(coeff_base, zz), 4u64));
            let c = sext32(b, b.load_global(addr, MemWidth::B4));
            let is_zero = b.setp(CmpOp::Eq, c, 0u64);
            b.if_then_else(
                is_zero,
                |b| {
                    // Zero coefficient: extend the current run.
                    b.assign(run, b.add(run, 1u64));
                },
                |b| {
                    // Magnitude category: bit length of |c| — a
                    // data-dependent loop (control-flow leak).
                    let negative = b.setp(CmpOp::LtS, c, 0u64);
                    let mag = b.sel(negative, b.neg(c), c);
                    let size = b.mov(0u64);
                    b.while_loop(
                        |b| b.setp(CmpOp::Ne, mag, 0u64),
                        |b| {
                            b.assign(size, b.add(size, 1u64));
                            b.assign(mag, b.shr(mag, 1u64));
                        },
                    );
                    // Emit (run, size) and the raw value at the next slot —
                    // the slot index depends on the data (data-flow leak).
                    let sym = b.or(b.shl(run, 8u64), size);
                    let slot = b.add(out_base, b.mul(count, 2u64));
                    let addr = b.add(out, b.mul(slot, 4u64));
                    b.store_global(addr, sym, MemWidth::B4);
                    b.store_global(b.add(addr, 4u64), c, MemWidth::B4);
                    b.assign(count, b.add(count, 1u64));
                    b.assign(run, 0u64);
                },
            );
        });
        b.store_global(b.add(counts, b.mul(tid, 4u64)), count, MemWidth::B4);
    });
    b.finish()
}

/// The §IX-style countermeasure for the entropy stage: fixed-length
/// coding. Every coefficient is emitted at its fixed zig-zag slot with no
/// run-length compression and no magnitude loop — constant control flow
/// and constant addresses, at the price of a fixed-maximum output size.
fn build_fixed_length_rle() -> Kernel {
    let b = KernelBuilder::new("jpeg_fixed_length");
    let coeffs = b.param(0);
    let out = b.param(1);
    let counts = b.param(2);
    let n_blocks = b.param(3);
    let tid = b.special(SpecialReg::GlobalTid);
    let guard = b.setp(CmpOp::LtU, tid, n_blocks);
    b.if_then(guard, |b| {
        let coeff_base = b.mul(tid, 64u64);
        let out_base = b.mul(tid, 64u64);
        b.for_range(0u64, 64u64, |b, i| {
            let zz = b.load_const(b.mul(i, 4u64), MemWidth::B4);
            let addr = b.add(coeffs, b.mul(b.add(coeff_base, zz), 4u64));
            let c = b.load_global(addr, MemWidth::B4);
            // Fixed slot i: no data-dependent offsets, no branches.
            b.store_global(b.add(out, b.mul(b.add(out_base, i), 4u64)), c, MemWidth::B4);
        });
        // The "symbol count" is the constant 64.
        b.store_global(b.add(counts, b.mul(tid, 4u64)), 64u64, MemWidth::B4);
    });
    b.finish()
}

/// Dequantisation + inverse DCT kernel: one thread per block, constant
/// control flow, clamped `u8` output.
#[allow(clippy::needless_range_loop)]
fn build_dequant_idct(w: u64) -> Kernel {
    let basis = dct_basis();
    let b = KernelBuilder::new("jpeg_dequant_idct");
    let coeffs = b.param(0);
    let img = b.param(1);
    let blocks_x = b.param(2);
    let n_blocks = b.param(3);
    let tid = b.special(SpecialReg::GlobalTid);
    let guard = b.setp(CmpOp::LtU, tid, n_blocks);
    b.if_then(guard, |b| {
        let coeff_base = b.mul(tid, 64u64);
        // Load + dequantise.
        let mut deq = Vec::with_capacity(64);
        for i in 0..64u64 {
            let addr = b.add(coeffs, b.mul(b.add(coeff_base, i), 4u64));
            let c = sext32(b, b.load_global(addr, MemWidth::B4));
            deq.push(b.fmul(b.i2f(c), QUANT[i as usize]));
        }
        // Column pass: tmp[y][u] = Σ_v deq[v][u]·basis[v][y].
        let mut tmp = vec![None; 64];
        for y in 0..8usize {
            for u in 0..8usize {
                let mut acc = b.mov(0.0f32);
                for v in 0..8usize {
                    acc = b.fadd(acc, b.fmul(deq[v * 8 + u], basis[v][y]));
                }
                tmp[y * 8 + u] = Some(acc);
            }
        }
        // Row pass + level shift + clamp + store.
        let by = b.div(tid, blocks_x);
        let bx = b.rem(tid, blocks_x);
        let top = b.mul(b.mul(by, 8u64), w);
        let left = b.mul(bx, 8u64);
        for y in 0..8usize {
            for x in 0..8usize {
                let mut acc = b.mov(0.0f32);
                for u in 0..8usize {
                    acc = b.fadd(
                        acc,
                        b.fmul(tmp[y * 8 + u].expect("filled above"), basis[u][x]),
                    );
                }
                let shifted = b.fadd(acc, 128.0f32);
                let clamped = b.fmin(b.fmax(shifted, 0.0f32), 255.0f32);
                let v = b.f2i(b.fadd(clamped, 0.5f32));
                let addr = b.add(
                    img,
                    b.add(b.add(top, (y as u64) * w), b.add(left, x as u64)),
                );
                b.store_global(addr, v, MemWidth::B1);
            }
        }
    });
    b.finish()
}

fn zigzag_bytes() -> Vec<u8> {
    ZIGZAG.iter().flat_map(|z| z.to_le_bytes()).collect()
}

/// The JPEG-style encoder workload: DCT + quantisation, then the leaky
/// entropy stage. The secret input is the image.
#[derive(Debug, Clone)]
pub struct JpegEncode {
    dct: Kernel,
    rle: Kernel,
    h: usize,
    w: usize,
}

impl JpegEncode {
    /// An encoder for `h×w` images (both multiples of 8).
    ///
    /// # Panics
    ///
    /// Panics when `h` or `w` is not a positive multiple of 8.
    pub fn new(h: usize, w: usize) -> Self {
        assert!(
            h > 0 && w > 0 && h.is_multiple_of(8) && w.is_multiple_of(8),
            "whole 8×8 blocks required"
        );
        JpegEncode {
            dct: build_dct_quant(w as u64),
            rle: build_zigzag_rle(),
            h,
            w,
        }
    }

    /// Number of 8×8 blocks (= device threads).
    pub fn blocks(&self) -> usize {
        (self.h / 8) * (self.w / 8)
    }

    /// Encodes `image` and returns `(quantised coefficients, packed symbol
    /// stream, per-block symbol counts)`.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    ///
    /// # Panics
    ///
    /// Panics when `image` is not `h·w` bytes.
    pub fn encode(&self, dev: &mut Device, image: &[u8]) -> Result<EncodeOutput, HostError> {
        assert_eq!(image.len(), self.h * self.w, "image size mismatch");
        let n = self.blocks();
        dev.memcpy_to_symbol(&zigzag_bytes());
        let img = dev.malloc(image.len());
        dev.memcpy_h2d(img, image)?;
        let coeffs = dev.malloc(n * 64 * 4);
        let out = dev.malloc(n * 128 * 4);
        let counts = dev.malloc(n * 4);
        dev.launch(
            &self.dct,
            cfg(n),
            &[img.addr(), coeffs.addr(), (self.w / 8) as u64, n as u64],
        )?;
        dev.launch(
            &self.rle,
            cfg(n),
            &[coeffs.addr(), out.addr(), counts.addr(), n as u64],
        )?;
        Ok((
            read_i32s(dev, coeffs, n * 64)?,
            read_u32s(dev, out, n * 128)?,
            read_u32s(dev, counts, n)?,
        ))
    }
}

impl TracedProgram for JpegEncode {
    type Input = Vec<u8>;

    fn name(&self) -> &str {
        "nvjpeg/encode"
    }

    fn run(&self, device: &mut Device, image: &Vec<u8>) -> Result<(), HostError> {
        self.encode(device, image).map(|_| ())
    }

    fn random_input(&self, seed: u64) -> Vec<u8> {
        synthetic_image(seed, self.h, self.w)
    }

    fn deterministic_host(&self) -> bool {
        true // audited: `run` has no per-run host state
    }
}

/// The countermeasure encoder: DCT + quantisation followed by
/// *fixed-length* coding instead of RLE — Owl's negative control for the
/// entropy stage.
#[derive(Debug, Clone)]
pub struct JpegEncodeFixedLength {
    dct: Kernel,
    fixed: Kernel,
    h: usize,
    w: usize,
}

impl JpegEncodeFixedLength {
    /// A constant-flow encoder for `h×w` images (both multiples of 8).
    ///
    /// # Panics
    ///
    /// Panics when `h` or `w` is not a positive multiple of 8.
    pub fn new(h: usize, w: usize) -> Self {
        assert!(
            h > 0 && w > 0 && h.is_multiple_of(8) && w.is_multiple_of(8),
            "whole 8×8 blocks required"
        );
        JpegEncodeFixedLength {
            dct: build_dct_quant(w as u64),
            fixed: build_fixed_length_rle(),
            h,
            w,
        }
    }

    /// Number of 8×8 blocks (= device threads).
    pub fn blocks(&self) -> usize {
        (self.h / 8) * (self.w / 8)
    }

    /// Encodes `image` and returns the zig-zag-ordered coefficient stream.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    ///
    /// # Panics
    ///
    /// Panics when `image` is not `h·w` bytes.
    pub fn encode(&self, dev: &mut Device, image: &[u8]) -> Result<Vec<i32>, HostError> {
        assert_eq!(image.len(), self.h * self.w, "image size mismatch");
        let n = self.blocks();
        dev.memcpy_to_symbol(&zigzag_bytes());
        let img = dev.malloc(image.len());
        dev.memcpy_h2d(img, image)?;
        let coeffs = dev.malloc(n * 64 * 4);
        let out = dev.malloc(n * 64 * 4);
        let counts = dev.malloc(n * 4);
        dev.launch(
            &self.dct,
            cfg(n),
            &[img.addr(), coeffs.addr(), (self.w / 8) as u64, n as u64],
        )?;
        dev.launch(
            &self.fixed,
            cfg(n),
            &[coeffs.addr(), out.addr(), counts.addr(), n as u64],
        )?;
        read_i32s(dev, out, n * 64)
    }
}

impl TracedProgram for JpegEncodeFixedLength {
    type Input = Vec<u8>;

    fn name(&self) -> &str {
        "nvjpeg/encode-fixed-length"
    }

    fn run(&self, device: &mut Device, image: &Vec<u8>) -> Result<(), HostError> {
        self.encode(device, image).map(|_| ())
    }

    fn random_input(&self, seed: u64) -> Vec<u8> {
        synthetic_image(seed, self.h, self.w)
    }

    fn deterministic_host(&self) -> bool {
        true // audited: `run` has no per-run host state
    }
}

/// The JPEG-style decoder workload: dequantisation + IDCT over a dense
/// coefficient layout. The secret input is the coefficient array.
#[derive(Debug, Clone)]
pub struct JpegDecode {
    kernel: Kernel,
    h: usize,
    w: usize,
}

impl JpegDecode {
    /// A decoder for `h×w` images (both multiples of 8).
    ///
    /// # Panics
    ///
    /// Panics when `h` or `w` is not a positive multiple of 8.
    pub fn new(h: usize, w: usize) -> Self {
        assert!(
            h > 0 && w > 0 && h.is_multiple_of(8) && w.is_multiple_of(8),
            "whole 8×8 blocks required"
        );
        JpegDecode {
            kernel: build_dequant_idct(w as u64),
            h,
            w,
        }
    }

    /// Number of 8×8 blocks (= device threads).
    pub fn blocks(&self) -> usize {
        (self.h / 8) * (self.w / 8)
    }

    /// Decodes dense quantised coefficients back to pixels.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    ///
    /// # Panics
    ///
    /// Panics when `coeffs` is not `blocks·64` values.
    pub fn decode(&self, dev: &mut Device, coeffs: &[i32]) -> Result<Vec<u8>, HostError> {
        let n = self.blocks();
        assert_eq!(coeffs.len(), n * 64, "coefficient count mismatch");
        let cbuf = dev.malloc(coeffs.len() * 4);
        let bytes: Vec<u8> = coeffs.iter().flat_map(|c| c.to_le_bytes()).collect();
        dev.memcpy_h2d(cbuf, &bytes)?;
        let img = dev.malloc(self.h * self.w);
        dev.launch(
            &self.kernel,
            cfg(n),
            &[cbuf.addr(), img.addr(), (self.w / 8) as u64, n as u64],
        )?;
        let mut out = vec![0u8; self.h * self.w];
        dev.memcpy_d2h(img, &mut out)?;
        Ok(out)
    }
}

impl TracedProgram for JpegDecode {
    type Input = Vec<i32>;

    fn name(&self) -> &str {
        "nvjpeg/decode"
    }

    fn run(&self, device: &mut Device, coeffs: &Vec<i32>) -> Result<(), HostError> {
        self.decode(device, coeffs).map(|_| ())
    }

    fn random_input(&self, seed: u64) -> Vec<i32> {
        // Realistic coefficients: encode a synthetic image on the host.
        let img = synthetic_image(seed, self.h, self.w);
        let mut out = Vec::with_capacity(self.blocks() * 64);
        let bw = self.w / 8;
        for blk in 0..self.blocks() {
            let (by, bx) = (blk / bw, blk % bw);
            let mut px = [0.0f32; 64];
            for y in 0..8 {
                for x in 0..8 {
                    px[y * 8 + x] = f32::from(img[(by * 8 + y) * self.w + bx * 8 + x]) - 128.0;
                }
            }
            out.extend_from_slice(&super::host::dct_quant_block(&px));
        }
        // Sprinkle direct randomness so the coefficient space itself is
        // exercised, not only image-reachable points.
        let mut r = rng(seed ^ 0xDEC0);
        for c in out.iter_mut() {
            if r.gen_ratio(1, 64) {
                *c += r.gen_range(-2..=2);
            }
        }
        out
    }

    fn deterministic_host(&self) -> bool {
        true // audited: `run` has no per-run host state
    }
}

fn read_u32s(dev: &Device, ptr: DevicePtr, n: usize) -> Result<Vec<u32>, HostError> {
    let mut bytes = vec![0u8; n * 4];
    dev.memcpy_d2h(ptr, &mut bytes)?;
    Ok(bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect())
}

fn read_i32s(dev: &Device, ptr: DevicePtr, n: usize) -> Result<Vec<i32>, HostError> {
    read_u32s(dev, ptr, n).map(|v| v.into_iter().map(|x| x as i32).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jpeg::host::{dct_quant_block, dequant_idct_block, rle_block};

    const H: usize = 16;
    const W: usize = 16;

    fn host_coeffs(img: &[u8]) -> Vec<i32> {
        let bw = W / 8;
        let mut out = Vec::new();
        for blk in 0..(H / 8) * bw {
            let (by, bx) = (blk / bw, blk % bw);
            let mut px = [0.0f32; 64];
            for y in 0..8 {
                for x in 0..8 {
                    px[y * 8 + x] = f32::from(img[(by * 8 + y) * W + bx * 8 + x]) - 128.0;
                }
            }
            out.extend_from_slice(&dct_quant_block(&px));
        }
        out
    }

    #[test]
    fn gpu_dct_matches_host_reference() {
        let enc = JpegEncode::new(H, W);
        let img = synthetic_image(1, H, W);
        let (coeffs, _, _) = enc.encode(&mut Device::new(), &img).unwrap();
        assert_eq!(coeffs, host_coeffs(&img));
    }

    #[test]
    fn gpu_rle_matches_host_reference() {
        let enc = JpegEncode::new(H, W);
        let img = synthetic_image(2, H, W);
        let (coeffs, stream, counts) = enc.encode(&mut Device::new(), &img).unwrap();
        for blk in 0..enc.blocks() {
            let block: [i32; 64] = coeffs[blk * 64..(blk + 1) * 64].try_into().expect("64");
            let want = rle_block(&block);
            assert_eq!(counts[blk] as usize, want.len(), "block {blk}");
            for (s, sym) in want.iter().enumerate() {
                let packed = stream[blk * 128 + 2 * s];
                let value = stream[blk * 128 + 2 * s + 1] as i32;
                assert_eq!(packed >> 8, sym.run, "block {blk} symbol {s}");
                assert_eq!(packed & 0xff, sym.size, "block {blk} symbol {s}");
                assert_eq!(value, sym.value, "block {blk} symbol {s}");
            }
        }
    }

    #[test]
    fn gpu_decode_matches_host_reference() {
        let dec = JpegDecode::new(H, W);
        let coeffs = dec.random_input(3);
        let got = dec.decode(&mut Device::new(), &coeffs).unwrap();
        let bw = W / 8;
        for blk in 0..dec.blocks() {
            let block: [i32; 64] = coeffs[blk * 64..(blk + 1) * 64].try_into().expect("64");
            let px = dequant_idct_block(&block);
            let (by, bx) = (blk / bw, blk % bw);
            for y in 0..8 {
                for x in 0..8 {
                    let want = (px[y * 8 + x] + 128.0).clamp(0.0, 255.0) + 0.5;
                    let want = want.floor() as i64 as u8;
                    let got_px = got[(by * 8 + y) * W + bx * 8 + x];
                    assert_eq!(got_px, want, "block {blk} ({y},{x})");
                }
            }
        }
    }

    #[test]
    fn encode_decode_roundtrip_is_lossy_but_close() {
        let enc = JpegEncode::new(H, W);
        let dec = JpegDecode::new(H, W);
        let img = synthetic_image(4, H, W);
        let (coeffs, _, _) = enc.encode(&mut Device::new(), &img).unwrap();
        let back = dec.decode(&mut Device::new(), &coeffs).unwrap();
        let mean_err: f64 = img
            .iter()
            .zip(back.iter())
            .map(|(&a, &b)| (f64::from(a) - f64::from(b)).abs())
            .sum::<f64>()
            / img.len() as f64;
        assert!(mean_err < 20.0, "mean abs error {mean_err}");
    }

    #[test]
    fn rle_counts_vary_with_image_content() {
        let enc = JpegEncode::new(H, W);
        let flat = vec![128u8; H * W];
        let (_, _, counts_flat) = enc.encode(&mut Device::new(), &flat).unwrap();
        let busy = synthetic_image(5, H, W);
        let (_, _, counts_busy) = enc.encode(&mut Device::new(), &busy).unwrap();
        assert!(counts_flat.iter().all(|&c| c == 0), "{counts_flat:?}");
        assert!(counts_busy.iter().sum::<u32>() > 0);
    }
}

//! Histogram workloads: data-dependent atomics and their oblivious fix.
//!
//! Histogramming private values (ages, diagnoses, pixel intensities) is a
//! textbook GPU pattern — `atomicAdd(&bins[value], 1)` — and a textbook
//! side channel: the *address* of the atomic is the secret value. The
//! oblivious variant touches every bin for every element, adding 1 or 0
//! via a branch-free select, trading bandwidth for a constant access
//! pattern (the scatter-gather idea of the paper's §IX applied to
//! histogramming).

use crate::util::seeded_bytes;
use owl_core::TracedProgram;
use owl_gpu::build::KernelBuilder;
use owl_gpu::grid::LaunchConfig;
use owl_gpu::isa::{CmpOp, MemWidth, SpecialReg};
use owl_gpu::Kernel;
use owl_host::{Device, HostError};

/// Number of histogram bins.
pub const BINS: usize = 16;

fn build_direct_kernel() -> Kernel {
    let b = KernelBuilder::new("histogram_direct");
    let data = b.param(0);
    let bins = b.param(1);
    let n = b.param(2);
    let tid = b.special(SpecialReg::GlobalTid);
    let guard = b.setp(CmpOp::LtU, tid, n);
    b.if_then(guard, |b| {
        let v = b.load_global(b.add(data, tid), MemWidth::B1);
        let bin = b.rem(v, BINS as u64);
        // The secret value *is* the address — the leak.
        let _ = b.atomic_add_global(b.add(bins, b.mul(bin, 8u64)), 1u64, MemWidth::B8);
    });
    b.finish()
}

fn build_oblivious_kernel() -> Kernel {
    let b = KernelBuilder::new("histogram_oblivious");
    let data = b.param(0);
    let bins = b.param(1);
    let n = b.param(2);
    let tid = b.special(SpecialReg::GlobalTid);
    let guard = b.setp(CmpOp::LtU, tid, n);
    b.if_then(guard, |b| {
        let v = b.load_global(b.add(data, tid), MemWidth::B1);
        let bin = b.rem(v, BINS as u64);
        // Touch every bin; add 1 only at the matching one via a select —
        // constant addresses, constant control flow.
        for i in 0..BINS as u64 {
            let hit = b.setp(CmpOp::Eq, bin, i);
            let inc = b.sel(hit, 1u64, 0u64);
            let _ = b.atomic_add_global(b.add(bins, i * 8), inc, MemWidth::B8);
        }
    });
    b.finish()
}

/// Shared host driver.
#[derive(Debug, Clone)]
struct HistogramWorkload {
    kernel: Kernel,
    elems: usize,
}

impl HistogramWorkload {
    fn histogram(&self, dev: &mut Device, data: &[u8]) -> Result<Vec<u64>, HostError> {
        assert_eq!(data.len(), self.elems, "input size mismatch");
        let d = dev.malloc(self.elems);
        dev.memcpy_h2d(d, data)?;
        let bins = dev.malloc(BINS * 8);
        dev.launch(
            &self.kernel,
            LaunchConfig::new((self.elems as u32).div_ceil(32), 32u32),
            &[d.addr(), bins.addr(), self.elems as u64],
        )?;
        let mut out = vec![0u8; BINS * 8];
        dev.memcpy_d2h(bins, &mut out)?;
        Ok(out
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }
}

/// Host reference.
pub fn reference_histogram(data: &[u8]) -> Vec<u64> {
    let mut bins = vec![0u64; BINS];
    for &v in data {
        bins[usize::from(v) % BINS] += 1;
    }
    bins
}

/// The leaky direct histogram: `atomicAdd(&bins[secret], 1)`.
#[derive(Debug, Clone)]
pub struct HistogramDirect(HistogramWorkload);

impl HistogramDirect {
    /// A histogram over `elems` secret bytes.
    pub fn new(elems: usize) -> Self {
        HistogramDirect(HistogramWorkload {
            kernel: build_direct_kernel(),
            elems,
        })
    }

    /// Computes the histogram on the device (for tests).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn histogram(&self, dev: &mut Device, data: &[u8]) -> Result<Vec<u64>, HostError> {
        self.0.histogram(dev, data)
    }
}

impl TracedProgram for HistogramDirect {
    type Input = Vec<u8>;

    fn name(&self) -> &str {
        "histogram/direct"
    }

    fn run(&self, device: &mut Device, data: &Vec<u8>) -> Result<(), HostError> {
        self.0.histogram(device, data).map(|_| ())
    }

    fn random_input(&self, seed: u64) -> Vec<u8> {
        seeded_bytes(seed ^ 0x415, self.0.elems)
    }

    fn deterministic_host(&self) -> bool {
        true // audited: `run` has no per-run host state
    }
}

/// The oblivious histogram: every bin touched per element, branch-free.
#[derive(Debug, Clone)]
pub struct HistogramOblivious(HistogramWorkload);

impl HistogramOblivious {
    /// An oblivious histogram over `elems` secret bytes.
    pub fn new(elems: usize) -> Self {
        HistogramOblivious(HistogramWorkload {
            kernel: build_oblivious_kernel(),
            elems,
        })
    }

    /// Computes the histogram on the device (for tests).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn histogram(&self, dev: &mut Device, data: &[u8]) -> Result<Vec<u64>, HostError> {
        self.0.histogram(dev, data)
    }
}

impl TracedProgram for HistogramOblivious {
    type Input = Vec<u8>;

    fn name(&self) -> &str {
        "histogram/oblivious"
    }

    fn run(&self, device: &mut Device, data: &Vec<u8>) -> Result<(), HostError> {
        self.0.histogram(device, data).map(|_| ())
    }

    fn random_input(&self, seed: u64) -> Vec<u8> {
        seeded_bytes(seed ^ 0x0B11, self.0.elems)
    }

    fn deterministic_host(&self) -> bool {
        true // audited: `run` has no per-run host state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_matches_reference() {
        let h = HistogramDirect::new(96);
        let data = h.random_input(1);
        let got = h.histogram(&mut Device::new(), &data).unwrap();
        assert_eq!(got, reference_histogram(&data));
    }

    #[test]
    fn oblivious_matches_reference_and_direct() {
        let d = HistogramDirect::new(64);
        let o = HistogramOblivious::new(64);
        let data = d.random_input(2);
        assert_eq!(
            d.histogram(&mut Device::new(), &data).unwrap(),
            o.histogram(&mut Device::new(), &data).unwrap()
        );
    }

    #[test]
    fn totals_are_preserved() {
        let h = HistogramDirect::new(128);
        let data = h.random_input(3);
        let got = h.histogram(&mut Device::new(), &data).unwrap();
        assert_eq!(got.iter().sum::<u64>(), 128);
    }
}

//! Binary search over a public sorted table with a secret key.
//!
//! The probe sequence of a binary search *is* the key: each comparison
//! halves the interval and the next probed address encodes the comparison
//! outcome — a data-flow leak; the early-exit on an exact hit also varies
//! the trip count — a control-flow leak. The branch-free fixed-depth
//! variant always runs `log₂ n` rounds but still probes key-dependent
//! addresses, showing that removing branches alone does not fix an access-
//! pattern leak (a distinction Owl's separate CF/DF tests make visible).

use crate::util::rng;
use owl_core::TracedProgram;
use owl_gpu::build::KernelBuilder;
use owl_gpu::grid::LaunchConfig;
use owl_gpu::isa::{CmpOp, MemWidth, SpecialReg};
use owl_gpu::Kernel;
use owl_host::{Device, HostError};
use rand::Rng;

/// Sorted-table size (a power of two).
pub const TABLE_LEN: usize = 256;

/// The sorted public table: strictly increasing, gaps of 7.
pub fn table() -> Vec<u64> {
    (0..TABLE_LEN as u64).map(|i| i * 7 + 3).collect()
}

/// Early-exit binary search: `while lo < hi { probe mid; branch }` with a
/// `found` short-circuit — leaks through both channels.
fn build_early_exit_kernel() -> Kernel {
    let b = KernelBuilder::new("binary_search_early_exit");
    let tab = b.param(0);
    let key = b.param(1);
    let out = b.param(2);
    let tid = b.special(SpecialReg::GlobalTid);
    let lo = b.mov(0u64);
    let hi = b.mov(TABLE_LEN as u64);
    let result = b.mov(u64::MAX);
    b.while_loop(
        |b| {
            let open = b.setp(CmpOp::LtU, lo, hi);
            let unfound = b.setp(CmpOp::Eq, result, u64::MAX);
            // Loop while interval open AND not found: encode as one
            // predicate via select.
            let open_v = b.sel(open, 1u64, 0u64);
            let unfound_v = b.sel(unfound, 1u64, 0u64);
            b.setp(CmpOp::Eq, b.and(open_v, unfound_v), 1u64)
        },
        |b| {
            let mid = b.shr(b.add(lo, hi), 1u64);
            let v = b.load_global(b.add(tab, b.mul(mid, 8u64)), MemWidth::B8);
            let hit = b.setp(CmpOp::Eq, v, key);
            b.if_then_else(
                hit,
                |b| {
                    b.assign(result, mid);
                },
                |b| {
                    let less = b.setp(CmpOp::LtU, v, key);
                    b.if_then_else(
                        less,
                        |b| {
                            b.assign(lo, b.add(mid, 1u64));
                        },
                        |b| {
                            b.assign(hi, mid);
                        },
                    );
                },
            );
        },
    );
    b.store_global(b.add(out, b.mul(tid, 8u64)), result, MemWidth::B8);
    b.finish()
}

/// Fixed-depth branch-free search: exactly `log₂ n` probes, comparisons
/// folded into selects. Control flow is constant; the probed *addresses*
/// still follow the key.
fn build_fixed_depth_kernel() -> Kernel {
    let b = KernelBuilder::new("binary_search_fixed_depth");
    let tab = b.param(0);
    let key = b.param(1);
    let out = b.param(2);
    let tid = b.special(SpecialReg::GlobalTid);
    let lo = b.mov(0u64);
    let result = b.mov(u64::MAX);
    let mut half = TABLE_LEN as u64 / 2;
    while half >= 1 {
        let mid = b.add(lo, half - 1);
        let v = b.load_global(b.add(tab, b.mul(mid, 8u64)), MemWidth::B8);
        let hit = b.setp(CmpOp::Eq, v, key);
        let r2 = b.sel(hit, mid, result);
        b.assign(result, r2);
        let less = b.setp(CmpOp::LtU, v, key);
        let lo2 = b.sel(less, b.add(mid, 1u64), lo);
        b.assign(lo, lo2);
        half /= 2;
    }
    // Final probe: `lo` has converged to the candidate index.
    let lo_clamped = b.min_u(lo, TABLE_LEN as u64 - 1);
    let v = b.load_global(b.add(tab, b.mul(lo_clamped, 8u64)), MemWidth::B8);
    let hit = b.setp(CmpOp::Eq, v, key);
    let r2 = b.sel(hit, lo_clamped, result);
    b.assign(result, r2);
    b.store_global(b.add(out, b.mul(tid, 8u64)), result, MemWidth::B8);
    b.finish()
}

/// Host reference search over [`table`].
pub fn reference_search(key: u64) -> Option<usize> {
    table().binary_search(&key).ok()
}

#[derive(Debug, Clone)]
struct SearchWorkload {
    kernel: Kernel,
    threads: u32,
}

impl SearchWorkload {
    fn search(&self, dev: &mut Device, key: u64) -> Result<u64, HostError> {
        let t = table();
        let tab = dev.malloc(8 * t.len());
        let bytes: Vec<u8> = t.iter().flat_map(|v| v.to_le_bytes()).collect();
        dev.memcpy_h2d(tab, &bytes)?;
        let out = dev.malloc(8 * self.threads as usize);
        dev.launch(
            &self.kernel,
            LaunchConfig::new(self.threads.div_ceil(32), 32u32),
            &[tab.addr(), key, out.addr()],
        )?;
        let mut first = [0u8; 8];
        dev.memcpy_d2h(out, &mut first)?;
        Ok(u64::from_le_bytes(first))
    }

    fn random_key(&self, seed: u64) -> u64 {
        let mut r = rng(seed ^ 0x5ea7c4);
        // Half hits, half misses.
        if r.gen_bool(0.5) {
            table()[r.gen_range(0..TABLE_LEN)]
        } else {
            r.gen_range(0..7 * TABLE_LEN as u64)
        }
    }
}

/// Early-exit binary search (CF + DF leaky).
#[derive(Debug, Clone)]
pub struct BinarySearchEarlyExit(SearchWorkload);

impl BinarySearchEarlyExit {
    /// A search kernel over `threads` threads (all searching the same
    /// secret key, like a batched lookup).
    pub fn new(threads: u32) -> Self {
        BinarySearchEarlyExit(SearchWorkload {
            kernel: build_early_exit_kernel(),
            threads,
        })
    }

    /// Runs the search, returning the found index or `u64::MAX`.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn search(&self, dev: &mut Device, key: u64) -> Result<u64, HostError> {
        self.0.search(dev, key)
    }
}

impl TracedProgram for BinarySearchEarlyExit {
    type Input = u64;

    fn name(&self) -> &str {
        "search/early-exit"
    }

    fn run(&self, device: &mut Device, key: &u64) -> Result<(), HostError> {
        self.0.search(device, *key).map(|_| ())
    }

    fn random_input(&self, seed: u64) -> u64 {
        self.0.random_key(seed)
    }

    fn deterministic_host(&self) -> bool {
        true // audited: `run` has no per-run host state
    }
}

/// Fixed-depth branch-free binary search (CF clean, DF still leaky).
#[derive(Debug, Clone)]
pub struct BinarySearchFixedDepth(SearchWorkload);

impl BinarySearchFixedDepth {
    /// A fixed-depth search kernel over `threads` threads.
    pub fn new(threads: u32) -> Self {
        BinarySearchFixedDepth(SearchWorkload {
            kernel: build_fixed_depth_kernel(),
            threads,
        })
    }

    /// Runs the search, returning the found index or `u64::MAX`.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn search(&self, dev: &mut Device, key: u64) -> Result<u64, HostError> {
        self.0.search(dev, key)
    }
}

impl TracedProgram for BinarySearchFixedDepth {
    type Input = u64;

    fn name(&self) -> &str {
        "search/fixed-depth"
    }

    fn run(&self, device: &mut Device, key: &u64) -> Result<(), HostError> {
        self.0.search(device, *key).map(|_| ())
    }

    fn random_input(&self, seed: u64) -> u64 {
        self.0.random_key(seed)
    }

    fn deterministic_host(&self) -> bool {
        true // audited: `run` has no per-run host state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn early_exit_finds_all_table_keys() {
        let s = BinarySearchEarlyExit::new(32);
        for (i, &key) in table().iter().enumerate().step_by(17) {
            let got = s.search(&mut Device::new(), key).unwrap();
            assert_eq!(got, i as u64, "key {key}");
        }
    }

    #[test]
    fn early_exit_misses_return_sentinel() {
        let s = BinarySearchEarlyExit::new(32);
        for key in [0u64, 4, 1_000_000] {
            assert_eq!(s.search(&mut Device::new(), key).unwrap(), u64::MAX);
        }
    }

    #[test]
    fn fixed_depth_agrees_with_early_exit() {
        let a = BinarySearchEarlyExit::new(32);
        let b = BinarySearchFixedDepth::new(32);
        for seed in 0..20 {
            let key = a.random_input(seed);
            assert_eq!(
                a.search(&mut Device::new(), key).unwrap(),
                b.search(&mut Device::new(), key).unwrap(),
                "key {key}"
            );
        }
    }

    #[test]
    fn reference_agrees() {
        let s = BinarySearchFixedDepth::new(32);
        for seed in 0..10 {
            let key = s.random_input(seed);
            let got = s.search(&mut Device::new(), key).unwrap();
            match reference_search(key) {
                Some(i) => assert_eq!(got, i as u64),
                None => assert_eq!(got, u64::MAX),
            }
        }
    }
}

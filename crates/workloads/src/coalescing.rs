//! A coalescing-only leak: the warp-aggregation blind spot, closed.
//!
//! Owl's A-DCFG merges the addresses of all warps into one histogram per
//! instruction. That is what keeps traces small — but it discards *which
//! addresses were touched together*. This workload exploits exactly that:
//! every thread reads `table[(tid · stride) mod N]` where the secret
//! `stride` is odd, so the *set* of addresses is the same permutation of
//! `0..N` for every secret — the aggregated address histogram is
//! byte-identical across secrets. What changes is the per-warp grouping,
//! i.e. the number of 32-byte segments each warp access touches: the
//! memory-coalescing side channel of Jiang et al. (HPCA'16).
//!
//! The detector's per-event cost histograms (an extension over the paper)
//! recover the leak that address aggregation hides.

use owl_core::TracedProgram;
use owl_gpu::build::KernelBuilder;
use owl_gpu::grid::LaunchConfig;
use owl_gpu::isa::{CmpOp, MemWidth, SpecialReg};
use owl_gpu::Kernel;
use owl_host::{Device, HostError};

/// Table elements (a power of two; 4 warps of threads).
pub const N: usize = 128;

fn build_kernel() -> Kernel {
    let b = KernelBuilder::new("strided_gather");
    let table = b.param(0);
    let out = b.param(1);
    let stride = b.param(2);
    let n = b.param(3);
    let tid = b.special(SpecialReg::GlobalTid);
    let guard = b.setp(CmpOp::LtU, tid, n);
    b.if_then(guard, |b| {
        // A permutation of 0..N for any odd stride: the aggregate address
        // multiset is secret-independent.
        let idx = b.rem(b.mul(tid, stride), n);
        let v = b.load_global(b.add(table, b.mul(idx, 4u64)), MemWidth::B4);
        // Bounded, secret-independent output slot.
        let slot = b.and(tid, 31u64);
        b.store_global(b.add(out, b.mul(slot, 4u64)), v, MemWidth::B4);
    });
    b.finish()
}

/// The strided-gather workload; the secret is the (odd) stride.
#[derive(Debug, Clone)]
pub struct CoalescingStride {
    kernel: Kernel,
}

impl CoalescingStride {
    /// A new strided-gather workload over a fixed table.
    pub fn new() -> Self {
        CoalescingStride {
            kernel: build_kernel(),
        }
    }
}

impl Default for CoalescingStride {
    fn default() -> Self {
        Self::new()
    }
}

impl TracedProgram for CoalescingStride {
    /// The secret stride (must be odd so the gather is a permutation).
    type Input = u64;

    fn name(&self) -> &str {
        "coalescing/strided-gather"
    }

    fn run(&self, device: &mut Device, stride: &u64) -> Result<(), HostError> {
        assert!(stride % 2 == 1, "stride must be odd (a permutation mod N)");
        let table = device.malloc(N * 4);
        let bytes: Vec<u8> = (0..N as u32).flat_map(|i| (i * 3).to_le_bytes()).collect();
        device.memcpy_h2d(table, &bytes)?;
        let out = device.malloc(32 * 4);
        device.launch(
            &self.kernel,
            LaunchConfig::new((N as u32).div_ceil(32), 32u32),
            &[table.addr(), out.addr(), *stride, N as u64],
        )?;
        Ok(())
    }

    fn random_input(&self, seed: u64) -> u64 {
        // An odd stride in 1..N.
        (seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) % (N as u64 / 2)) * 2 + 1
    }

    fn deterministic_host(&self) -> bool {
        true // audited: `run` has no per-run host state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_core::{ProgramTrace, Recorder, RunSpec};

    fn trace_of(w: &CoalescingStride, stride: u64) -> ProgramTrace {
        let attempt = Recorder::default().record(w, &stride, &RunSpec::default());
        attempt.result.unwrap().0
    }

    #[test]
    fn aggregate_address_histograms_are_stride_independent() {
        // The core of the blind spot: different secrets, identical
        // aggregated address histograms.
        let w = CoalescingStride::new();
        let t1 = trace_of(&w, 1);
        let t33 = trace_of(&w, 33);
        let mem = |t: &ProgramTrace| {
            t.invocations[0]
                .adcfg
                .nodes
                .values()
                .map(|n| n.mem.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(mem(&t1), mem(&t33), "same permutation, same aggregate");
        // But the cost histograms differ — the per-event grouping changed.
        let cost = |t: &ProgramTrace| {
            t.invocations[0]
                .adcfg
                .nodes
                .values()
                .map(|n| n.cost.clone())
                .collect::<Vec<_>>()
        };
        assert_ne!(cost(&t1), cost(&t33), "coalescing degree must differ");
    }

    #[test]
    fn stride_one_is_fully_coalesced() {
        let w = CoalescingStride::new();
        let t = trace_of(&w, 1);
        // The gather instruction: every warp touches 32 consecutive 4-byte
        // words = 4 segments of 32 bytes.
        let g = &t.invocations[0].adcfg;
        let cost_hist = g
            .nodes
            .values()
            .flat_map(|n| n.cost.values())
            .flat_map(|v| v.iter())
            .find(|h| h.count(4) > 0)
            .expect("a 4-transaction access exists");
        assert_eq!(cost_hist.count(4), 4, "4 warps, 4 transactions each");
    }
}

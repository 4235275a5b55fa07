//! Synthetic workloads for the scalability and false-positive experiments.
//!
//! [`DummySbox`] is the paper's Fig. 5 dummy program: every thread performs
//! one random (data-driven) access into a fixed 256-entry table, so the set
//! of *distinct* accessed addresses saturates as the thread count grows —
//! the trace-size plateau that demonstrates Owl's warp aggregation.
//!
//! [`NoiseDummy`] is a program whose accesses vary run-to-run independently
//! of the input (a randomised defence, the paper's "non-deterministic
//! factors"): Owl must *not* flag it. Its per-run nonce is a pure function
//! of the run's identity, so a detection on it is reproducible at any
//! parallelism.
//!
//! [`RunawaySpin`] is the resource-governance demo: every run spins an
//! unbounded device loop, so each launch burns the full instruction budget
//! and fails with `FuelExhausted`. Under a small `--max-instructions` the
//! detector quarantines every run quickly and reports
//! `Verdict::Inconclusive`; under the default multi-billion fuel it is
//! effectively a hang reproducer.

use crate::util::seeded_bytes;
use owl_core::{DetectError, RunSpec, TracedProgram};
use owl_gpu::build::KernelBuilder;
use owl_gpu::grid::LaunchConfig;
use owl_gpu::isa::{CmpOp, MemWidth, SpecialReg};
use owl_gpu::Kernel;
use owl_host::{Device, HostError};

/// Entries in the S-box-like table.
pub const TABLE_ENTRIES: usize = 256;

fn build_sbox_kernel() -> Kernel {
    let b = KernelBuilder::new("dummy_sbox");
    let data = b.param(0);
    let table = b.param(1);
    let out = b.param(2);
    let n = b.param(3);
    let tid = b.special(SpecialReg::GlobalTid);
    let guard = b.setp(CmpOp::LtU, tid, n);
    b.if_then(guard, |b| {
        let idx = b.load_global(b.add(data, tid), MemWidth::B1);
        let v = b.load_global(b.add(table, b.mul(idx, 4u64)), MemWidth::B4);
        b.store_global(b.add(out, b.mul(tid, 4u64)), v, MemWidth::B4);
    });
    b.finish()
}

fn build_hash_sbox_kernel() -> Kernel {
    let b = KernelBuilder::new("dummy_sbox");
    let secret = b.param(0);
    let table = b.param(1);
    let out = b.param(2);
    let n = b.param(3);
    let tid = b.special(SpecialReg::GlobalTid);
    let guard = b.setp(CmpOp::LtU, tid, n);
    b.if_then(guard, |b| {
        // Per-thread pseudo-random table index derived from the secret and
        // the thread id, computed in registers (like an AES state byte).
        let mix = b.mul(secret, b.add(b.mul(tid, 2654435761u64), 1u64));
        let idx = b.and(b.shr(mix, 24u64), 0xff_u64);
        let v = b.load_global(b.add(table, b.mul(idx, 4u64)), MemWidth::B4);
        // Bounded output region: the store addresses do not grow with the
        // thread count.
        let slot = b.and(tid, 63u64);
        b.store_global(b.add(out, b.mul(slot, 4u64)), v, MemWidth::B4);
    });
    b.finish()
}

/// The Fig. 5 dummy program: one secret-derived table lookup per thread,
/// with the thread count scaling with the input size.
#[derive(Debug, Clone)]
pub struct DummySbox {
    kernel: Kernel,
    elems: usize,
}

impl DummySbox {
    /// A dummy program with `elems` threads.
    pub fn new(elems: usize) -> Self {
        assert!(elems > 0, "at least one element");
        DummySbox {
            kernel: build_hash_sbox_kernel(),
            elems,
        }
    }

    /// Input size (= thread count).
    pub fn elems(&self) -> usize {
        self.elems
    }
}

impl TracedProgram for DummySbox {
    type Input = u64;

    fn name(&self) -> &str {
        "dummy-sbox"
    }

    fn run(&self, device: &mut Device, secret: &u64) -> Result<(), HostError> {
        let table = device.malloc(TABLE_ENTRIES * 4);
        let table_bytes: Vec<u8> = (0..TABLE_ENTRIES as u32)
            .flat_map(|i| (i.wrapping_mul(2654435761)).to_le_bytes())
            .collect();
        device.memcpy_h2d(table, &table_bytes)?;
        let out = device.malloc(64 * 4);
        device.launch(
            &self.kernel,
            LaunchConfig::new((self.elems as u32).div_ceil(256), 256u32),
            &[*secret, table.addr(), out.addr(), self.elems as u64],
        )?;
        Ok(())
    }

    fn random_input(&self, seed: u64) -> u64 {
        u64::from_le_bytes(
            seeded_bytes(seed ^ 0xD0_5B0C, 8)
                .try_into()
                .expect("8 bytes"),
        ) | 1
    }

    fn deterministic_host(&self) -> bool {
        true // audited: `run` has no per-run host state
    }
}

/// A program whose memory behaviour is random per *run*, not per input:
/// the host derives a nonce from the run's identity (its [`RunSpec`]) and
/// indexes the table with it. The fixed-input and random-input
/// distributions coincide, so Owl's distribution test must attribute the
/// differences to noise.
#[derive(Debug)]
pub struct NoiseDummy {
    kernel: Kernel,
}

impl NoiseDummy {
    /// A fresh noise program.
    pub fn new() -> Self {
        NoiseDummy {
            kernel: build_sbox_kernel(),
        }
    }

    /// One run with fresh randomness regardless of the input (e.g. a
    /// randomised masking defence). The nonce is a pure function of
    /// `(stream, run_index, attempt)`, so whichever worker records a run
    /// sees the same noise.
    fn run_spec(&self, device: &mut Device, spec: &RunSpec) -> Result<(), HostError> {
        let nonce = 0x009a_3c01
            ^ spec.stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ spec.run_index.wrapping_mul(0xbf58_476d_1ce4_e5b9)
            ^ u64::from(spec.attempt).wrapping_mul(0x94d0_49bb_1331_11eb);
        let draw = seeded_bytes(nonce, 32);
        let data = device.malloc(32);
        device.memcpy_h2d(data, &draw)?;
        let table = device.malloc(TABLE_ENTRIES * 4);
        let out = device.malloc(32 * 4);
        device.launch(
            &self.kernel,
            LaunchConfig::new(1u32, 32u32),
            &[data.addr(), table.addr(), out.addr(), 32],
        )?;
        Ok(())
    }
}

impl Default for NoiseDummy {
    fn default() -> Self {
        Self::new()
    }
}

impl TracedProgram for NoiseDummy {
    type Input = u64;

    fn name(&self) -> &str {
        "noise-dummy"
    }

    fn run(&self, device: &mut Device, _input: &u64) -> Result<(), HostError> {
        self.run_spec(device, &RunSpec::default())
    }

    fn run_with_spec(
        &self,
        device: &mut Device,
        _input: &u64,
        spec: &RunSpec,
    ) -> Result<(), DetectError> {
        Ok(self.run_spec(device, spec)?)
    }

    fn random_input(&self, seed: u64) -> u64 {
        seed
    }

    /// The per-run nonce makes fixed-input runs differ, so the detector
    /// must re-record each one: the noise then reaches both evidence sets
    /// and is dismissed as input-independent.
    fn deterministic_host(&self) -> bool {
        false
    }
}

fn build_spin_kernel() -> Kernel {
    let b = KernelBuilder::new("runaway_spin");
    let one = b.mov(1u64);
    b.while_loop(
        |b| b.setp(CmpOp::Eq, one, 1u64),
        |b| {
            let _ = b.add(one, 0u64);
        },
    );
    b.finish()
}

/// A program whose kernel never terminates: an unbounded `while (1)` spin.
///
/// Exists to exercise the resource budgets end to end — there is no leak to
/// find; every run exhausts its instruction budget and is quarantined.
#[derive(Debug, Clone)]
pub struct RunawaySpin {
    kernel: Kernel,
}

impl RunawaySpin {
    /// A fresh runaway program.
    pub fn new() -> Self {
        RunawaySpin {
            kernel: build_spin_kernel(),
        }
    }
}

impl Default for RunawaySpin {
    fn default() -> Self {
        Self::new()
    }
}

impl TracedProgram for RunawaySpin {
    type Input = u64;

    fn name(&self) -> &str {
        "runaway-spin"
    }

    fn run(&self, device: &mut Device, _input: &u64) -> Result<(), HostError> {
        device.launch(&self.kernel, LaunchConfig::new(1u32, 32u32), &[])?;
        Ok(())
    }

    fn random_input(&self, seed: u64) -> u64 {
        seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_core::{ProgramTrace, Recorder, RunSpec};

    fn trace_of<P: TracedProgram>(program: &P, input: &P::Input) -> ProgramTrace {
        let attempt = Recorder::default().record(program, input, &RunSpec::default());
        attempt.result.unwrap().0
    }

    #[test]
    fn dummy_runs_and_scales_threads() {
        for elems in [32usize, 256, 1024] {
            let d = DummySbox::new(elems);
            let input = d.random_input(1);
            let mut dev = Device::new();
            d.run(&mut dev, &input).unwrap();
            // 256-thread CTAs → 8 warps per CTA.
            assert_eq!(
                dev.total_stats().warps,
                (elems as u64).div_ceil(256) * 8,
                "elems {elems}"
            );
        }
    }

    #[test]
    fn trace_size_saturates_with_thread_count() {
        // The Fig. 5 plateau: past the table size, more threads stop adding
        // distinct addresses, so trace size flattens while thread count
        // keeps growing.
        let sizes: Vec<usize> = [64usize, 256, 1024, 4096]
            .into_iter()
            .map(|elems| {
                let d = DummySbox::new(elems);
                let input = d.random_input(7);
                trace_of(&d, &input).size_bytes()
            })
            .collect();
        let small_growth = sizes[1] as f64 / sizes[0] as f64;
        let large_growth = sizes[3] as f64 / sizes[2] as f64;
        assert!(small_growth > 1.5, "early growth expected: {sizes:?}");
        assert!(
            large_growth < small_growth / 1.2,
            "growth must slow down: {sizes:?}"
        );
    }

    #[test]
    fn noise_dummy_traces_differ_across_runs_with_same_input() {
        let d = NoiseDummy::new();
        let at = |run_index| {
            let spec = RunSpec {
                run_index,
                ..RunSpec::default()
            };
            Recorder::default().record(&d, &0, &spec).result.unwrap().0
        };
        assert_ne!(at(0), at(1), "per-run nonce must vary the trace");
        assert_eq!(at(1), at(1), "one run identity, one nonce");
    }
}

//! The interface between the detector and the application under test.

use crate::error::DetectError;
use crate::record::RunSpec;
use owl_host::{Device, HostError};

/// A CUDA-style application that Owl can drive.
///
/// Implementations own the host code of the application: they allocate
/// device memory, copy inputs, and launch kernels on the provided
/// [`Device`]. Owl runs the program repeatedly — with user-provided inputs
/// in the filtering phase and with fixed/random inputs in the leakage
/// analysis phase — and observes the traces through instrumentation, never
/// through this trait.
///
/// `run` must treat `input` as the *secret*: everything else (sizes,
/// public parameters) should be fixed by the implementation so that the
/// differential analysis isolates secret dependence.
pub trait TracedProgram {
    /// The secret-input type.
    type Input: Clone;

    /// A short human-readable name for reports.
    fn name(&self) -> &str;

    /// Executes the program once over `input` on `device`.
    ///
    /// # Errors
    ///
    /// Propagates any [`HostError`] from the runtime. A failed run does not
    /// abort the detection: [`Recorder::record`](crate::record::Recorder::record)
    /// retries it under the config's retry policy, and a run that fails
    /// every attempt is quarantined into
    /// [`Detection::faults`](crate::owl::Detection::faults).
    fn run(&self, device: &mut Device, input: &Self::Input) -> Result<(), HostError>;

    /// Executes the program once over `input`, with the identity of the
    /// detector-driven run ([`RunSpec`]) available. Every recording the
    /// detector makes goes through this method.
    ///
    /// The default delegates to [`run`](Self::run) — regular applications
    /// never see the spec. Overridden by harnesses that key behaviour on
    /// the run identity, most notably the fault-injection wrapper
    /// ([`FaultyProgram`](crate::inject::FaultyProgram)), which injects
    /// failures keyed on `(stream, run_index, attempt)`: program failures
    /// and detector-level ones (budget exhaustion, deadline expiry) alike.
    ///
    /// # Errors
    ///
    /// [`DetectError::Host`] wrapping `run`'s error, or the fault an
    /// injection harness raises for this run.
    fn run_with_spec(
        &self,
        device: &mut Device,
        input: &Self::Input,
        spec: &RunSpec,
    ) -> Result<(), DetectError> {
        let _ = spec;
        Ok(self.run(device, input)?)
    }

    /// Draws a random secret input from the program's input space.
    ///
    /// Must be deterministic in `seed` so detection runs are reproducible.
    fn random_input(&self, seed: u64) -> Self::Input;

    /// Declares that `run` is a pure function of `(device, input)`: two
    /// calls with an equal input produce bit-identical traces, with no
    /// per-run host state (counters, clocks, fresh nonces, RNGs seeded
    /// outside the input).
    ///
    /// When `true` and address-space randomisation is off, the detector
    /// records each fixed-input evidence class **once** and replicates the
    /// trace exactly instead of re-recording it `runs` times — the
    /// replicated evidence is bit-identical, so verdicts and report bytes
    /// are unchanged while recording cost drops by ~`runs×` per class.
    ///
    /// The default is `false`, which keeps the paper's behaviour of
    /// re-recording every fixed run. That re-recording is load-bearing for
    /// impure programs: host-side noise (e.g. a per-run nonce) must appear
    /// equally in the fixed and random evidence sets so the differential
    /// test can dismiss it as input-independent. Only return `true` after
    /// auditing the host code for per-run state.
    fn deterministic_host(&self) -> bool {
        false
    }
}

/// Forwarding impl so wrappers (and the CLI) can hand the detector a
/// borrowed program without re-implementing the trait.
impl<P: TracedProgram + ?Sized> TracedProgram for &P {
    type Input = P::Input;

    fn name(&self) -> &str {
        (**self).name()
    }

    fn run(&self, device: &mut Device, input: &Self::Input) -> Result<(), HostError> {
        (**self).run(device, input)
    }

    fn run_with_spec(
        &self,
        device: &mut Device,
        input: &Self::Input,
        spec: &RunSpec,
    ) -> Result<(), DetectError> {
        (**self).run_with_spec(device, input, spec)
    }

    fn random_input(&self, seed: u64) -> Self::Input {
        (**self).random_input(seed)
    }

    fn deterministic_host(&self) -> bool {
        (**self).deterministic_host()
    }
}

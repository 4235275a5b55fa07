//! Golden trace-digest snapshots.
//!
//! `ProgramTrace::digest` is the identity under which the duplicate filter
//! classifies runs and the evidence cache dedups traces; its value must
//! not drift silently across refactors of the tracer, the A-DCFG
//! aggregation, or the histogram storage. These tests pin the digest of
//! four representative workloads on fixed-seed inputs and a fixed
//! `RunSpec`. LayerNorm is the warp-uniform one: every lane recomputes the
//! row's moments, so nearly all of its values and load addresses are the
//! same on every active lane. A failure here means trace identity changed: either revert
//! the behavioural change, or — if the change is intentional and
//! documented — update the pinned constants in the same commit.
//!
//! The digests must also be interpreter-independent: the reference oracle
//! (`owl_conformance::oracle`) has to reproduce them bit for bit.

use owl::core::{Recorder, RunSpec, TracedProgram};
use owl::gpu::exec::{launch_lowered, Interpreter};
use owl::workloads::aes::AesTTable;
use owl::workloads::histogram::HistogramDirect;
use owl::workloads::rsa::RsaSquareMultiply;
use owl::workloads::torch::{TorchFunction, TorchOpKind};
use owl_conformance::launch_oracle;

const SPEC: RunSpec = RunSpec {
    warp_size: 32,
    aslr_seed: None,
    stream: 0,
    run_index: 0,
    attempt: 0,
};

fn pinned_digest<P: TracedProgram>(program: &P, input: &P::Input, expected: u64) {
    let record = |interpreter: Interpreter| {
        let recorder = Recorder {
            interpreter,
            ..Recorder::default()
        };
        recorder.record(program, input, &SPEC).result
    };
    let (trace, _) = record(launch_lowered).expect("recording succeeds");
    assert_eq!(
        trace.digest(),
        expected,
        "{}: trace digest drifted from its golden value {expected:#018x} — \
         trace identity changed (tracer, A-DCFG aggregation, or digest \
         hashing). If intentional, update the pin in this test.",
        program.name()
    );
    let (oracle_trace, _) = record(launch_oracle).expect("oracle recording succeeds");
    assert_eq!(
        oracle_trace.digest(),
        expected,
        "{}: reference-oracle recording broke the golden digest",
        program.name()
    );
}

#[test]
fn aes_ttable_digest_is_pinned() {
    let program = AesTTable::new(4);
    let input = program.random_input(0xAE5_0001);
    pinned_digest(&program, &input, AES_TTABLE_DIGEST);
}

#[test]
fn rsa_square_multiply_digest_is_pinned() {
    let program = RsaSquareMultiply::new(32);
    let input = program.random_input(0x25A_0001);
    pinned_digest(&program, &input, RSA_SQMUL_DIGEST);
}

#[test]
fn histogram_direct_digest_is_pinned() {
    let program = HistogramDirect::new(256);
    let input = program.random_input(0x415_0001);
    pinned_digest(&program, &input, HISTOGRAM_DIRECT_DIGEST);
}

#[test]
fn layer_norm_digest_is_pinned() {
    let program = TorchFunction::new(TorchOpKind::LayerNorm);
    let input = program.random_input(0x1a7e_0001);
    pinned_digest(&program, &input, LAYER_NORM_DIGEST);
}

// Pinned 2026-08: FNV-1a over (key sequence, launch config, A-DCFG) per
// invocation — see `ProgramTrace::digest`.
const AES_TTABLE_DIGEST: u64 = 0x56ae_a01a_6f41_5aa1;
const RSA_SQMUL_DIGEST: u64 = 0x6f3a_a3cc_7971_7b3c;
const HISTOGRAM_DIRECT_DIGEST: u64 = 0x03db_27a0_8ac6_60e3;
// Pinned 2026-10, the same way.
const LAYER_NORM_DIGEST: u64 = 0x7cb8_92f5_31ce_ee2e;

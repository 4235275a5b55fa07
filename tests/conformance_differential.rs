//! Differential conformance suite (`owl-conformance`).
//!
//! Every randomly generated kernel must behave *bit-identically* under the
//! production lowered interpreter and the naive reference oracle
//! (`owl_gpu::oracle`): same launch outcome (including the exact error),
//! same hook event streams, same `SimCounters`, same final device memory.
//! See `DESIGN.md` §3.14 for the conformance contract.
//!
//! A divergence is shrunk (`owl_gpu::genkernel::shrink`) and persisted as
//! a JSON corpus file under `tests/corpus/new-<seed>.json`; CI uploads
//! those files as artifacts. Committed corpus files are replayed by
//! [`corpus_replays_conformant`] on every run, so a once-found divergence
//! stays a plain `cargo test` regression forever.

use owl_gpu::exec::Interpreter;
use owl_gpu::genkernel::{diff_case, run_kernel, shrink, GeneratedKernel};
use std::path::{Path, PathBuf};

/// Fixed seed base: CI sweeps the same kernel population every run, so a
/// red conformance job always reproduces locally from the seed alone.
const SEED_BASE: u64 = 0x5EED_0000_0000_0000;

/// Number of generated kernels per sweep. Override with
/// `OWL_CONFORMANCE_CASES`; CI's conformance job sweeps 4,096, and deeper
/// local soak runs go further.
fn cases() -> u64 {
    std::env::var("OWL_CONFORMANCE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// Shrinks a diverging kernel, writes it to the corpus as
/// `new-<seed>.json`, and fails the test with a reproduction recipe.
fn persist_counterexample(seed: u64, kernel: &GeneratedKernel, err: &str) -> ! {
    let small = shrink(kernel);
    let small_err = diff_case(&small)
        .err()
        .unwrap_or_else(|| "shrunk kernel no longer diverges (shrinker bug?)".to_owned());
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).expect("create tests/corpus");
    let path = dir.join(format!("new-{seed:016x}.json"));
    let json = serde_json::to_string_pretty(&small).expect("serialise counterexample");
    std::fs::write(&path, json).expect("persist counterexample");
    panic!(
        "interpreter divergence on seed {seed:#018x}:\n{err}\n\n\
         shrunk counterexample ({} blocks) written to {}\n\
         shrunk divergence: {small_err}\n\
         it now replays under `cargo test --test conformance_differential \
         corpus_replays_conformant`; commit the file (dropping the `new-` \
         prefix) alongside the interpreter fix",
        small.program.blocks.len(),
        path.display(),
    );
}

/// The sweep: fixed-seed kernels, each executed by both interpreters
/// with every observable compared. Zero divergence is the bar.
#[test]
fn generated_kernels_agree_across_interpreters() {
    let n = cases();
    let mut faulting = 0u64;
    for i in 0..n {
        let seed = SEED_BASE ^ i;
        let kernel = GeneratedKernel::generate(seed);
        if let Err(err) = diff_case(&kernel) {
            persist_counterexample(seed, &kernel, &err);
        }
        if run_kernel(&kernel, Interpreter::Lowered).result.is_err() {
            faulting += 1;
        }
    }
    // The sweep is only meaningful if it covers both completing launches
    // and the deliberately-planted fault population (wild loads, division
    // by zero, tiny fuel budgets): error equality is half the contract.
    assert!(
        faulting > 0 && faulting < n,
        "degenerate sweep: {faulting}/{n} launches faulted — the generator's \
         fault rates drifted and the conformance suite lost coverage"
    );
}

/// Replays every committed corpus file — shrunk counterexamples from past
/// divergences plus hand-picked coverage seeds — through the full
/// differential check. A plain `cargo test` target: no seeds, no
/// generator, just serialised kernels.
#[test]
fn corpus_replays_conformant() {
    let dir = corpus_dir();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.expect("corpus dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 3,
        "regression corpus unexpectedly small ({} files) — corpus files \
         must not be deleted without removing the divergence they witness",
        paths.len()
    );
    for path in &paths {
        let json = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let kernel: GeneratedKernel =
            serde_json::from_str(&json).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()));
        kernel
            .program
            .validate()
            .unwrap_or_else(|e| panic!("corpus file {} is invalid: {e:?}", path.display()));
        if let Err(err) = diff_case(&kernel) {
            panic!(
                "corpus regression: {} diverges between interpreters:\n{err}",
                path.display()
            );
        }
    }
}

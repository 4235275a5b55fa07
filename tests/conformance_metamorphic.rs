//! Metamorphic conformance checks for the detector (tentpole, layer 4).
//!
//! The differential suite (`conformance_differential.rs`) pins the two
//! interpreters to each other; these tests pin the *detector* to ground
//! truth. A generated kernel is wrapped into a host program together with
//! a probe kernel whose access pattern is leaky (secret-indexed table
//! lookup) or clean (thread-indexed lookup) *by construction*, and the
//! verdicts must come out `Leaky` / `LeakFree` respectively — invariant
//! under every knob that must not change semantics: the ASLR seed,
//! the worker count (parallelism 1/2/4/8), and transient-fault retry
//! perturbations.

use owl::core::{
    detect, Engine, FaultPlan, FaultyProgram, InjectedFault, LeakKind, OwlConfig, Recorder,
    RetryPolicy, RunSpec, TracedProgram, Verdict, STREAM_RND,
};
use owl::gpu::build::KernelBuilder;
use owl::gpu::exec::Interpreter;
use owl::gpu::genkernel::{run_kernel, GeneratedKernel, SplitMix64};
use owl::gpu::grid::LaunchConfig;
use owl::gpu::isa::{MemWidth, SpecialReg};
use owl::gpu::Kernel;
use owl::host::{Device, HostError};

const RUNS: usize = 10;
/// Base for the metamorphic kernel population — distinct from the
/// differential sweep's `SEED_BASE` so the two suites cover different
/// kernels.
const SEED_BASE: u64 = 0x0C0_FFEE_0000_0000;

/// First generation seed at/after `base` whose kernel completes (the
/// generator deliberately plants faulting kernels; the metamorphic
/// programs need clean completions so the verdict reflects the probe).
fn first_completing_seed(base: u64) -> u64 {
    (0..1024)
        .map(|i| base + i)
        .find(|&seed| {
            let k = GeneratedKernel::generate(seed);
            run_kernel(&k, Interpreter::Lowered).result.is_ok()
        })
        .expect("a completing kernel within 1024 seeds")
}

fn probe_kernel(leaky: bool) -> Kernel {
    let b = KernelBuilder::new(if leaky { "probe_leaky" } else { "probe_clean" });
    let table = b.param(0);
    let secret = b.param(1);
    let tid = b.special(SpecialReg::GlobalTid);
    // Leaky: the whole warp indexes the table with the secret (an AES-style
    // key-dependent lookup). Clean: the index depends only on the thread
    // id, so the trace is a pure function of the geometry.
    let idx = if leaky {
        b.and(secret, 63u64)
    } else {
        let _ = secret;
        b.and(tid, 63u64)
    };
    let v = b.load_global(b.add(table, b.mul(idx, 8u64)), MemWidth::B8);
    b.store_global(
        b.add(table, b.mul(b.and(tid, 63u64), 8u64)),
        v,
        MemWidth::B8,
    );
    b.finish()
}

/// A generated fuzz kernel embedded in a host program, followed by a probe
/// kernel with known ground truth. The fuzz kernel always runs with fixed
/// public arguments, so any secret dependence comes from the probe alone.
struct FuzzHarness {
    kernel: GeneratedKernel,
    /// `kernel.program`, validated for launching.
    fuzz: Kernel,
    probe: Kernel,
    leaky: bool,
}

impl FuzzHarness {
    fn new(seed: u64, leaky: bool) -> Self {
        let kernel = GeneratedKernel::generate(first_completing_seed(seed));
        FuzzHarness {
            fuzz: Kernel::new(kernel.program.clone()).expect("generated programs validate"),
            kernel,
            probe: probe_kernel(leaky),
            leaky,
        }
    }
}

impl TracedProgram for FuzzHarness {
    type Input = u64;

    fn name(&self) -> &str {
        if self.leaky {
            "fuzz-harness-leaky"
        } else {
            "fuzz-harness-clean"
        }
    }

    fn run(&self, device: &mut Device, secret: &u64) -> Result<(), HostError> {
        // Recreate the generated kernel's device state through the host
        // runtime, mirroring `GeneratedKernel::setup` (same fill sequence).
        let mut rng = SplitMix64::new(self.kernel.init_seed);
        let mut args = Vec::new();
        for &size in &self.kernel.buffers {
            let ptr = device.malloc(size as usize);
            let bytes: Vec<u8> = (0..size).map(|_| rng.next_u64() as u8).collect();
            device.memcpy_h2d(ptr, &bytes)?;
            args.push(ptr.addr());
        }
        let cbytes: Vec<u8> = (0..128).map(|_| rng.next_u64() as u8).collect();
        device.memcpy_to_symbol(&cbytes);
        for &(w, h) in &self.kernel.textures {
            let texels: Vec<u8> = (0..w * h).map(|_| rng.next_u64() as u8).collect();
            device.bind_texture(w, h, &texels);
        }
        args.extend_from_slice(&self.kernel.scalars);
        device.launch(&self.fuzz, self.kernel.config, &args)?;

        let table = device.malloc(64 * 8);
        device.launch(
            &self.probe,
            LaunchConfig::new(1u32, 64u32),
            &[table.addr(), *secret],
        )?;
        Ok(())
    }

    fn random_input(&self, seed: u64) -> u64 {
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xF02
    }
}

fn config() -> OwlConfig {
    OwlConfig {
        runs: RUNS,
        parallelism: 2,
        ..OwlConfig::default()
    }
}

const INPUTS: [u64; 4] = [3, 10, 21, 36];

/// Ground truth: the secret-indexed probe is flagged `Leaky`, the
/// thread-indexed probe comes back `LeakFree`, across several distinct
/// generated carrier kernels.
#[test]
fn ground_truth_verdicts_over_generated_carriers() {
    for lane in 0..3u64 {
        let seed = SEED_BASE + lane * 0x1_0000;
        let leaky = detect(&FuzzHarness::new(seed, true), &INPUTS, &config()).expect("detect");
        assert_eq!(
            leaky.verdict,
            Verdict::Leaky,
            "carrier seed base {seed:#x}: secret-indexed probe must be flagged"
        );
        assert!(!leaky.report.leaks.is_empty());
        let clean = detect(&FuzzHarness::new(seed, false), &INPUTS, &config()).expect("detect");
        assert_eq!(
            clean.verdict,
            Verdict::LeakFree,
            "carrier seed base {seed:#x}: thread-indexed probe must be clean"
        );
    }
}

/// The verdict (and the whole leak report) is invariant under the ASLR
/// seed: address normalisation makes layouts irrelevant.
#[test]
fn verdict_invariant_under_aslr_seed() {
    let program = FuzzHarness::new(SEED_BASE, true);
    let baseline = detect(&program, &INPUTS, &config()).expect("detect");
    for aslr in [1u64, 42, 0xDEAD_BEEF] {
        let cfg = OwlConfig {
            aslr_seed: Some(aslr),
            ..config()
        };
        let detection = detect(&program, &INPUTS, &cfg).expect("detect");
        assert_eq!(detection.verdict, baseline.verdict, "aslr seed {aslr}");
        assert_eq!(detection.report, baseline.report, "aslr seed {aslr}");
    }
}

/// The verdict and report are bit-identical for every worker count.
#[test]
fn verdict_invariant_under_parallelism() {
    for (leaky, expected) in [(true, Verdict::Leaky), (false, Verdict::LeakFree)] {
        let program = FuzzHarness::new(SEED_BASE, leaky);
        let baseline = detect(
            &program,
            &INPUTS,
            &OwlConfig {
                parallelism: 1,
                ..config()
            },
        )
        .expect("detect");
        assert_eq!(baseline.verdict, expected);
        for parallelism in [2usize, 4, 8] {
            let cfg = OwlConfig {
                parallelism,
                ..config()
            };
            let detection = detect(&program, &INPUTS, &cfg).expect("detect");
            assert_eq!(
                detection.verdict, baseline.verdict,
                "parallelism {parallelism}"
            );
            assert_eq!(
                detection.report, baseline.report,
                "parallelism {parallelism}"
            );
            assert_eq!(
                detection.counters, baseline.counters,
                "parallelism {parallelism}"
            );
        }
    }
}

/// A transient fault recovered by the retry budget must not move the
/// verdict or the report: attempt-0 identity is restored on success and
/// retried runs stay pure functions of their spec.
#[test]
fn verdict_invariant_under_retry_perturbation() {
    let program = FuzzHarness::new(SEED_BASE, true);
    let cfg = OwlConfig {
        runs: RUNS,
        parallelism: 2,
        retry: RetryPolicy { max_attempts: 3 },
        ..OwlConfig::default()
    };
    let baseline = detect(&program, &INPUTS, &cfg).expect("detect");
    // Fail the first two attempts of one random-stream evidence run; the
    // third succeeds within the budget.
    let plan = FaultPlan::new().fail_attempts(STREAM_RND, 2, 2, InjectedFault::Memcpy);
    let perturbed =
        detect(&FaultyProgram::new(&program, plan), &INPUTS, &cfg).expect("detect survives");
    assert_eq!(perturbed.verdict, baseline.verdict);
    assert_eq!(perturbed.report, baseline.report);
    assert!(perturbed.faults.is_empty(), "transient fault must recover");
    assert_eq!(perturbed.fault_counters.evidence.retried, 2);
}

/// Engine conformance on ground truth: the binary engines (KS and TVLA)
/// agree on the by-construction leaky probe, and the clean probe is never
/// flagged by any engine.
#[test]
fn binary_engines_agree_on_by_construction_probes() {
    for engine in [Engine::Ks, Engine::Tvla] {
        let cfg = OwlConfig {
            method: engine,
            ..config()
        };
        let leaky = detect(&FuzzHarness::new(SEED_BASE, true), &INPUTS, &cfg).expect("detect");
        assert_eq!(
            leaky.verdict,
            Verdict::Leaky,
            "{} must flag the secret-indexed probe",
            engine.name()
        );
        assert!(
            leaky.report.count(LeakKind::DataFlow) >= 1,
            "{}: {}",
            engine.name(),
            leaky.report
        );
        let clean = detect(&FuzzHarness::new(SEED_BASE, false), &INPUTS, &cfg).expect("detect");
        assert_eq!(
            clean.verdict,
            Verdict::LeakFree,
            "{} must not flag the thread-indexed probe",
            engine.name()
        );
    }
}

/// The MI engine quantifies: clearly positive bits on the leaky probe's
/// data-flow leak, and no flagged feature at all on the clean probe even
/// when the analysis is forced past the single-class shortcut.
#[test]
fn mi_engine_quantifies_bits_on_leaky_and_none_on_clean() {
    let leaky_cfg = OwlConfig {
        method: Engine::Mi,
        ..config()
    };
    let leaky = detect(&FuzzHarness::new(SEED_BASE, true), &INPUTS, &leaky_cfg).expect("detect");
    assert_eq!(leaky.verdict, Verdict::Leaky, "{}", leaky.report);
    let max_bits = leaky
        .report
        .leaks
        .iter()
        .map(|l| l.severity_bits)
        .fold(0.0f64, f64::max);
    assert!(
        max_bits > 0.5,
        "the secret-indexed lookup must leak clearly positive bits, got {max_bits}"
    );
    // The clean probe's traces are input-independent, so forcing the
    // analysis compares identical distributions: ~0 bits, nothing flagged.
    let clean_cfg = OwlConfig {
        method: Engine::Mi,
        force_analysis: true,
        ..config()
    };
    let clean = detect(&FuzzHarness::new(SEED_BASE, false), &INPUTS, &clean_cfg).expect("detect");
    assert!(
        clean.report.is_clean(),
        "clean probe must have no MI leaks: {}",
        clean.report
    );
    assert_eq!(clean.verdict, Verdict::NoInputDependence);
}

/// The PR-1 determinism contract extends to every engine: verdict, report,
/// and counters are bit-identical for parallelism 1/2/4/8.
#[test]
fn every_engine_is_deterministic_across_parallelism() {
    for engine in Engine::ALL {
        let program = FuzzHarness::new(SEED_BASE, true);
        let baseline = detect(
            &program,
            &INPUTS,
            &OwlConfig {
                parallelism: 1,
                method: engine,
                ..config()
            },
        )
        .expect("detect");
        for parallelism in [2usize, 4, 8] {
            let cfg = OwlConfig {
                parallelism,
                method: engine,
                ..config()
            };
            let detection = detect(&program, &INPUTS, &cfg).expect("detect");
            assert_eq!(
                detection.verdict,
                baseline.verdict,
                "{} parallelism {parallelism}",
                engine.name()
            );
            assert_eq!(
                detection.report,
                baseline.report,
                "{} parallelism {parallelism}",
                engine.name()
            );
            assert_eq!(
                detection.counters,
                baseline.counters,
                "{} parallelism {parallelism}",
                engine.name()
            );
        }
    }
}

/// Comparison mode on ground truth: all three engines flag the leaky
/// probe's data-flow location (an agreement row), the clean probe yields
/// an empty table, and the table itself is deterministic across worker
/// counts.
#[test]
fn comparison_mode_agrees_on_ground_truth_probes() {
    let cfg = OwlConfig {
        compare_engines: true,
        ..config()
    };
    let leaky = detect(&FuzzHarness::new(SEED_BASE, true), &INPUTS, &cfg).expect("detect");
    assert_eq!(leaky.verdict, Verdict::Leaky);
    let table = leaky.engine_comparison.as_ref().expect("table present");
    assert_eq!(table.engines, ["ks", "tvla", "mi"]);
    assert_eq!(table.leaks_per_engine.len(), 3);
    assert!(
        table.leaks_per_engine.iter().all(|&n| n >= 1),
        "every engine must flag the by-construction leak: {:?}",
        table.leaks_per_engine
    );
    assert!(
        table.rows.iter().any(|row| row.agreed),
        "the probe's leak location must be an agreement row"
    );
    for row in &table.rows {
        assert_eq!(row.verdicts.len(), 3);
        assert_eq!(
            row.agreed,
            row.verdicts.iter().all(|v| v.flagged),
            "agreed must mirror the verdicts"
        );
    }
    // Deterministic like the report: bit-identical across worker counts.
    let serial = detect(
        &FuzzHarness::new(SEED_BASE, true),
        &INPUTS,
        &OwlConfig {
            parallelism: 1,
            compare_engines: true,
            ..config()
        },
    )
    .expect("detect");
    assert_eq!(serial.engine_comparison.as_ref(), Some(table));
    // The clean probe, forced past the single-class shortcut, produces an
    // empty table: no engine flags anything.
    let clean_cfg = OwlConfig {
        compare_engines: true,
        force_analysis: true,
        ..config()
    };
    let clean = detect(&FuzzHarness::new(SEED_BASE, false), &INPUTS, &clean_cfg).expect("detect");
    let clean_table = clean.engine_comparison.as_ref().expect("table present");
    assert!(clean_table.rows.is_empty(), "{:?}", clean_table.rows);
    assert_eq!(clean_table.agreements, 0);
    assert_eq!(clean_table.leaks_per_engine, [0, 0, 0]);
}

/// End-to-end interpreter seam: recording the metamorphic harness under
/// the reference oracle yields the same trace and digest as the lowered
/// fast path.
#[test]
fn harness_recording_agrees_across_interpreters() {
    let program = FuzzHarness::new(SEED_BASE, true);
    let spec = RunSpec {
        warp_size: 32,
        aslr_seed: Some(5),
        stream: 0,
        run_index: 0,
        attempt: 0,
    };
    let oracle_recorder = Recorder {
        interpreter: Interpreter::Oracle,
        ..Recorder::default()
    };
    for secret in INPUTS {
        let (fast, fast_counters) = Recorder::default()
            .record(&program, &secret, &spec)
            .result
            .expect("lowered recording");
        let (oracle, oracle_counters) = oracle_recorder
            .record(&program, &secret, &spec)
            .result
            .expect("oracle recording");
        assert_eq!(fast, oracle);
        assert_eq!(fast.digest(), oracle.digest());
        assert_eq!(fast_counters, oracle_counters);
    }
}

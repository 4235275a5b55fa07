//! `owl-detect` — run the Owl detector against any bundled workload.
//!
//! ```text
//! owl-detect <workload> [--runs N] [--alpha F] [--engine ks|tvla|mi]
//!            [--compare-engines] [--aslr SEED]
//!            [--parallelism N] [--retries N] [--min-runs N]
//!            [--max-instructions N] [--max-mem-events N]
//!            [--max-allocations N] [--max-evidence-bytes N]
//!            [--deadline-ms N]
//!            [--inject transient|quarantine|panic|budget|deadline]
//!            [--format text|json] [--metrics-out PATH]
//!
//! workloads:
//!   aes-ttable | aes-scan | rsa-sqm | rsa-ladder
//!   torch:<relu|sigmoid|tanh|softmax|maxpool2d|avgpool2d|conv2d|linear|
//!          mseloss|nllloss|crossentropy|repr|embedding|layernorm>
//!   jpeg-encode | jpeg-decode | jpeg-encode-fixed
//!   dummy[:<threads>] | noise | histogram | histogram-oblivious
//!   search | search-fixed | mlp | coalescing | render | runaway
//! ```
//!
//! `--format json` prints the schema-versioned [`DetectionSummary`] on
//! stdout: a deterministic document, byte-identical for every
//! `--parallelism` setting. Wall-clock metrics (phase spans, cost
//! accounting) are non-deterministic and therefore never on stdout;
//! `--metrics-out PATH` writes them to a separate JSON file.
//!
//! `--engine` selects the analysis engine: `ks` (the paper's two-sample
//! KS test, the default), `tvla` (Welch's t-test, |t| > 4.5), or `mi`
//! (mutual-information quantification in bits per observation).
//! `--compare-engines` runs all three over the same evidence and adds the
//! per-location agreement table to the output; the verdict and exit code
//! still come from the `--engine` selection.
//!
//! Exit codes encode the verdict: 0 = leak-free / no input dependence,
//! 2 = leaks found, 3 = inconclusive (too many runs quarantined to certify
//! a clean result — consult the fault log), 1 = usage or runtime error.
//!
//! `--inject` wraps the workload in the deterministic fault-injection
//! harness (testing/demo only): `transient` faults recover through
//! retries, `quarantine` kills the whole random evidence stream (exit 3),
//! `panic` quarantines a single run without changing the verdict,
//! `budget` simulates budget exhaustion across the random evidence stream
//! (exit 3), `deadline` simulates a deadline expiry on a single run.
//!
//! The `--max-*` flags and `--deadline-ms` bound what the detection may
//! consume: instruction fuel per launch, memory events and allocations per
//! run, evidence bytes per detection, wall clock for the whole run.
//! Exhaustion quarantines runs (never aborts); losing too much yields
//! exit 3. The `runaway` workload spins an unbounded kernel loop —
//! pair it with `--max-instructions` to see the budget catch it.

use owl::core::{
    detect, Detection, DetectionSummary, Engine, FaultPlan, FaultRule, FaultyProgram,
    InjectedFault, MetricsReport, OwlConfig, ResourceKind, TracedProgram, Verdict, STREAM_RND,
};
use owl::gpu::ExecError;
use owl::workloads::aes::{AesScan, AesTTable};
use owl::workloads::coalescing::CoalescingStride;
use owl::workloads::dummy::{DummySbox, NoiseDummy, RunawaySpin};
use owl::workloads::histogram::{HistogramDirect, HistogramOblivious};
use owl::workloads::jpeg::{synthetic_image, JpegDecode, JpegEncode, JpegEncodeFixedLength};
use owl::workloads::mlp::{MlpHiddenWidth, WIDTHS};
use owl::workloads::render::GlyphRender;
use owl::workloads::rsa::{RsaLadder, RsaSquareMultiply};
use owl::workloads::search::{BinarySearchEarlyExit, BinarySearchFixedDepth};
use owl::workloads::torch::{Tensor, TorchFunction, TorchInput, TorchOpKind};
use std::io::{self, Write};
use std::num::NonZeroU32;
use std::process::ExitCode;
use std::time::Duration;

/// How the detection result is rendered on stdout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutputFormat {
    Text,
    Json,
}

#[derive(Debug)]
struct Options {
    workload: String,
    /// Every detection flag parses straight into this config.
    config: OwlConfig,
    inject: Option<String>,
    format: OutputFormat,
    metrics_out: Option<String>,
}

impl Options {
    /// The fault-injection plan requested via `--inject`, if any.
    fn injection_plan(&self) -> Result<Option<FaultPlan>, String> {
        let Some(scenario) = self.inject.as_deref() else {
            return Ok(None);
        };
        let plan = match scenario {
            // Every random-evidence run fails its first two attempts and
            // succeeds on the third: the default retry budget recovers
            // everything, so verdict and report match the fault-free run.
            "transient" => FaultPlan::new().rule(FaultRule {
                stream: Some(STREAM_RND),
                run_index: None,
                attempts_below: Some(2),
                fault: InjectedFault::Exec(ExecError::FuelExhausted),
            }),
            // The whole random evidence stream fails persistently: E_rnd
            // falls below quorum and the detection exits 3 (inconclusive).
            "quarantine" => FaultPlan::new()
                .fail_stream(STREAM_RND, InjectedFault::Exec(ExecError::FuelExhausted)),
            // One random-evidence run panics persistently: the run is
            // quarantined, the quorum holds, the verdict is unchanged.
            "panic" => FaultPlan::new().fail_run(STREAM_RND, 0, InjectedFault::Panic),
            // Every random-evidence run hits a simulated budget exhaustion:
            // E_rnd falls below quorum and the detection exits 3.
            "budget" => FaultPlan::new().fail_stream(
                STREAM_RND,
                InjectedFault::BudgetExhausted(ResourceKind::MemEvents),
            ),
            // A single run hits a simulated deadline expiry: it is
            // quarantined, the quorum holds, the verdict is unchanged.
            "deadline" => FaultPlan::new().fail_run(STREAM_RND, 0, InjectedFault::DeadlineExpired),
            other => {
                return Err(format!(
                    "unknown --inject scenario {other} \
                     (expected transient|quarantine|panic|budget|deadline)"
                ))
            }
        };
        Ok(Some(plan))
    }
}

/// The next argument parsed as a `T`, or `err` when it is missing or does
/// not parse.
fn value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    err: &str,
) -> Result<T, String> {
    args.next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| err.to_string())
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let workload = args.next().ok_or("missing workload name")?;
    let mut opts = Options {
        workload,
        config: OwlConfig {
            runs: 60,
            ..OwlConfig::default()
        },
        inject: None,
        format: OutputFormat::Text,
        metrics_out: None,
    };
    while let Some(a) = args.next() {
        let config = &mut opts.config;
        match a.as_str() {
            "--runs" => config.runs = value(&mut args, "--runs needs a number")?,
            "--alpha" => config.alpha = value(&mut args, "--alpha needs a number in (0,1)")?,
            "--engine" => {
                let name = args.next().ok_or("--engine needs ks|tvla|mi")?;
                config.method = Engine::from_name(&name)
                    .ok_or_else(|| format!("unknown engine {name} (expected ks|tvla|mi)"))?;
            }
            "--compare-engines" => config.compare_engines = true,
            "--aslr" => config.aslr_seed = Some(value(&mut args, "--aslr needs a seed")?),
            "--parallelism" => {
                config.parallelism = value(&mut args, "--parallelism needs a worker count")?;
            }
            "--retries" => {
                config.retry.max_attempts = value(&mut args, "--retries needs an attempt budget")?;
            }
            "--min-runs" => {
                config.min_runs_per_set = Some(value(&mut args, "--min-runs needs a number")?);
            }
            "--max-instructions" => {
                config.budget.max_instructions =
                    value(&mut args, "--max-instructions needs an instruction budget")?;
            }
            "--max-mem-events" => {
                config.budget.max_mem_events =
                    Some(value(&mut args, "--max-mem-events needs an event budget")?);
            }
            "--max-allocations" => {
                config.budget.max_allocations = Some(value(
                    &mut args,
                    "--max-allocations needs an allocation budget",
                )?);
            }
            "--max-evidence-bytes" => {
                config.budget.max_evidence_bytes = Some(value(
                    &mut args,
                    "--max-evidence-bytes needs a byte budget",
                )?);
            }
            "--deadline-ms" => {
                let millis = value(&mut args, "--deadline-ms needs a duration in milliseconds")?;
                config.budget.deadline = Some(Duration::from_millis(millis));
            }
            "--inject" => {
                opts.inject = Some(args.next().ok_or("--inject needs a scenario name")?);
            }
            "--format" => {
                opts.format = match args.next().as_deref() {
                    Some("text") => OutputFormat::Text,
                    Some("json") => OutputFormat::Json,
                    _ => return Err("--format needs 'text' or 'json'".into()),
                };
            }
            "--metrics-out" => {
                opts.metrics_out = Some(args.next().ok_or("--metrics-out needs a path")?);
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(opts)
}

fn run_detection<P>(
    program: &P,
    inputs: &[P::Input],
    opts: &Options,
) -> Result<Detection<P::Input>, String>
where
    P: TracedProgram + Sync,
    P::Input: Send + Sync,
{
    let config = &opts.config;
    // Reject nonsensical configs up front with the typed error's message
    // (exit 1) instead of silently clamping.
    config
        .validate()
        .map_err(|e| format!("invalid configuration: {e}"))?;
    let result = match opts.injection_plan()? {
        // The blanket `&P: TracedProgram` impl lets the harness wrap the
        // borrowed workload.
        Some(plan) => detect(&FaultyProgram::new(program, plan), inputs, config),
        None => detect(program, inputs, config),
    };
    // `detect` errors carry their run context (phase, stream, run index);
    // Display renders it, so the CLI message names the failing run.
    result.map_err(|e| e.to_string())
}

/// The exit code encoding a verdict: 0 = clean, 2 = leaky,
/// 3 = inconclusive (1 is reserved for usage/runtime errors).
fn verdict_exit_code(verdict: Verdict) -> ExitCode {
    match verdict {
        Verdict::LeakFree | Verdict::NoInputDependence => ExitCode::SUCCESS,
        Verdict::Leaky => ExitCode::from(2),
        Verdict::Inconclusive => ExitCode::from(3),
    }
}

/// Prints the detection to stdout and writes `--metrics-out`. A closed or
/// failing stdout is an error (exit 1), not a panic.
fn report<I>(name: &str, detection: &Detection<I>, opts: &Options) -> Result<ExitCode, String> {
    let config = &opts.config;
    let mut out = io::stdout().lock();
    match opts.format {
        OutputFormat::Json => {
            let summary = DetectionSummary::new(name, detection, config);
            let json = serde_json::to_string_pretty(&summary)
                .map_err(|e| format!("serializing summary: {e}"))?;
            writeln!(out, "{json}")
        }
        OutputFormat::Text => write_text(&mut out, name, detection),
    }
    .and_then(|()| out.flush())
    .map_err(|e| format!("writing the report: {e}"))?;
    if let Some(path) = &opts.metrics_out {
        let metrics = MetricsReport::new(name, detection, config);
        let json = serde_json::to_string_pretty(&metrics)
            .map_err(|e| format!("serializing metrics: {e}"))?;
        std::fs::write(path, json + "\n").map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(verdict_exit_code(detection.verdict))
}

/// The `--format text` report.
fn write_text<I>(out: &mut impl Write, name: &str, detection: &Detection<I>) -> io::Result<()> {
    writeln!(out, "workload: {name}")?;
    writeln!(out, "verdict: {:?}", detection.verdict)?;
    writeln!(
        out,
        "classes: {} | traces for evidence: {} | total {:?}",
        detection.filter.classes.len(),
        detection.stats.evidence_traces,
        detection.stats.total_time
    )?;
    let c = &detection.counters;
    writeln!(
        out,
        "executed: {} instructions, {} branches ({} divergence, {} reconvergence), \
         {} mem accesses ({} transactions, {} bank-conflict cycles)",
        c.instructions,
        c.branches,
        c.divergence_events,
        c.reconvergences,
        c.mem_accesses,
        c.mem_transactions,
        c.bank_conflicts
    )?;
    let fc = &detection.fault_counters;
    if !detection.faults.is_empty() || !fc.is_zero() {
        writeln!(
            out,
            "faults: {} run(s) quarantined, {} retried, {} panic(s) caught",
            fc.total_quarantined(),
            fc.trace_collection.retried + fc.evidence.retried + fc.analysis.retried,
            fc.trace_collection.panics + fc.evidence.panics + fc.analysis.panics
        )?;
        for record in detection.faults.iter().take(8) {
            writeln!(out, "  {record}")?;
        }
        if detection.faults.len() > 8 {
            writeln!(
                out,
                "  … {} more (see --format json)",
                detection.faults.len() - 8
            )?;
        }
    }
    write!(out, "{}", detection.report)?;
    if let Some(cmp) = &detection.engine_comparison {
        writeln!(
            out,
            "engine comparison ({}): {} location(s), {} agreed, {} split",
            cmp.engines.join("/"),
            cmp.rows.len(),
            cmp.agreements,
            cmp.disagreements
        )?;
        for (engine, leaks) in cmp.engines.iter().zip(&cmp.leaks_per_engine) {
            writeln!(out, "  {engine}: {leaks} leak(s)")?;
        }
        for row in &cmp.rows {
            let verdicts: Vec<String> = row
                .verdicts
                .iter()
                .map(|v| {
                    let mark = if v.flagged { "leak" } else { "clean" };
                    match v.bits {
                        Some(bits) if v.flagged => {
                            format!("{}={mark} ({bits:.3} bits)", v.engine)
                        }
                        _ => format!("{}={mark}", v.engine),
                    }
                })
                .collect();
            writeln!(
                out,
                "  [{}] {:?} {}: {}",
                if row.agreed { "agree" } else { "split" },
                row.kind,
                row.location,
                verdicts.join(", ")
            )?;
        }
    }
    Ok(())
}

fn torch_kind(name: &str) -> Option<TorchOpKind> {
    Some(match name {
        "relu" => TorchOpKind::Relu,
        "sigmoid" => TorchOpKind::Sigmoid,
        "tanh" => TorchOpKind::Tanh,
        "softmax" => TorchOpKind::Softmax,
        "maxpool2d" => TorchOpKind::MaxPool2d,
        "avgpool2d" => TorchOpKind::AvgPool2d,
        "conv2d" => TorchOpKind::Conv2d,
        "linear" => TorchOpKind::Linear,
        "mseloss" => TorchOpKind::MseLoss,
        "nllloss" => TorchOpKind::NllLoss,
        "crossentropy" => TorchOpKind::CrossEntropy,
        "repr" => TorchOpKind::TensorRepr,
        "embedding" => TorchOpKind::Embedding,
        "layernorm" => TorchOpKind::LayerNorm,
        _ => return None,
    })
}

fn dispatch(opts: &Options) -> Result<ExitCode, String> {
    let name = opts.workload.clone();
    let aes_keys = [[0u8; 16], [0xffu8; 16], *b"owl-sca-detector", [0x3c; 16]];
    let rsa_exps = [0x8000_0001u64, 0xffff_ffff, 0x0f0f_0f0f, 3];
    match name.as_str() {
        "aes-ttable" => {
            let w = AesTTable::new(32);
            report(&name, &run_detection(&w, &aes_keys, opts)?, opts)
        }
        "aes-scan" => {
            let w = AesScan::with_rounds(32, 2);
            report(&name, &run_detection(&w, &aes_keys, opts)?, opts)
        }
        "rsa-sqm" => {
            let w = RsaSquareMultiply::new(32);
            report(&name, &run_detection(&w, &rsa_exps, opts)?, opts)
        }
        "rsa-ladder" => {
            let w = RsaLadder::new(32);
            report(&name, &run_detection(&w, &rsa_exps, opts)?, opts)
        }
        "jpeg-encode" => {
            let w = JpegEncode::new(16, 16);
            let inputs: Vec<Vec<u8>> = (0..4).map(|s| synthetic_image(s, 16, 16)).collect();
            report(&name, &run_detection(&w, &inputs, opts)?, opts)
        }
        "jpeg-decode" => {
            let w = JpegDecode::new(16, 16);
            let inputs: Vec<Vec<i32>> = (0..4).map(|s| w.random_input(s)).collect();
            report(&name, &run_detection(&w, &inputs, opts)?, opts)
        }
        "jpeg-encode-fixed" => {
            let w = JpegEncodeFixedLength::new(16, 16);
            let inputs: Vec<Vec<u8>> = (0..4).map(|s| synthetic_image(s, 16, 16)).collect();
            report(&name, &run_detection(&w, &inputs, opts)?, opts)
        }
        "noise" => {
            let w = NoiseDummy::new();
            report(&name, &run_detection(&w, &[1, 2, 3], opts)?, opts)
        }
        "histogram" => {
            let w = HistogramDirect::new(64);
            let inputs: Vec<Vec<u8>> = (0..4).map(|s| w.random_input(s)).collect();
            report(&name, &run_detection(&w, &inputs, opts)?, opts)
        }
        "histogram-oblivious" => {
            let w = HistogramOblivious::new(64);
            let inputs: Vec<Vec<u8>> = (0..4).map(|s| w.random_input(s)).collect();
            report(&name, &run_detection(&w, &inputs, opts)?, opts)
        }
        "search" => {
            let w = BinarySearchEarlyExit::new(32);
            let keys: Vec<u64> = (0..5).map(|s| w.random_input(s)).collect();
            report(&name, &run_detection(&w, &keys, opts)?, opts)
        }
        "search-fixed" => {
            let w = BinarySearchFixedDepth::new(32);
            let keys: Vec<u64> = (0..5).map(|s| w.random_input(s)).collect();
            report(&name, &run_detection(&w, &keys, opts)?, opts)
        }
        "mlp" => {
            let w = MlpHiddenWidth::new();
            report(&name, &run_detection(&w, &WIDTHS.map(|x| x), opts)?, opts)
        }
        "render" => {
            let w = GlyphRender::new();
            let texts: Vec<Vec<u8>> = (0..4).map(|s| w.random_input(s)).collect();
            report(&name, &run_detection(&w, &texts, opts)?, opts)
        }
        "coalescing" => {
            let w = CoalescingStride::new();
            report(&name, &run_detection(&w, &[1, 33, 65, 97], opts)?, opts)
        }
        "runaway" => {
            let w = RunawaySpin::new();
            report(&name, &run_detection(&w, &[1, 2, 3], opts)?, opts)
        }
        other => {
            if let Some(rest) = other.strip_prefix("dummy") {
                // The kernel launches `elems` threads, so the size must be
                // a nonzero `u32`.
                let elems = rest
                    .strip_prefix(':')
                    .map(|v| v.parse::<NonZeroU32>().map_err(|_| "bad dummy size"))
                    .transpose()?
                    .map_or(64, NonZeroU32::get);
                let w = DummySbox::new(elems as usize);
                return report(other, &run_detection(&w, &[1, 2, 3, 4], opts)?, opts);
            }
            if let Some(op) = other.strip_prefix("torch:").and_then(torch_kind) {
                let w = TorchFunction::new(op);
                let mut inputs: Vec<TorchInput> =
                    (0..4).map(|s| w.random_input(7000 + s)).collect();
                if op == TorchOpKind::TensorRepr {
                    inputs.push(TorchInput::Tensor(Tensor::zeros([
                        owl::workloads::torch::function::VEC_N,
                    ])));
                }
                return report(other, &run_detection(&w, &inputs, opts)?, opts);
            }
            Err(format!("unknown workload {other}"))
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: owl-detect <workload> [--runs N] [--alpha F] [--engine ks|tvla|mi] \
                 [--compare-engines] [--aslr SEED] [--parallelism N] [--retries N] [--min-runs N] \
                 [--max-instructions N] [--max-mem-events N] [--max-allocations N] \
                 [--max-evidence-bytes N] [--deadline-ms N] \
                 [--inject transient|quarantine|panic|budget|deadline] [--format text|json] \
                 [--metrics-out PATH]"
            );
            return ExitCode::from(1);
        }
    };
    match dispatch(&opts) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

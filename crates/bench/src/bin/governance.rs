//! Resource-governance overhead: the budget checks, the cancellation
//! polls, and the deadline arithmetic must cost (almost) nothing when
//! they never fire.
//!
//! Runs the aes-ttable detection twice — once ungoverned (default budget,
//! no cancel token) and once with every governance feature armed but
//! sized so none trips (generous explicit budgets, a one-hour deadline,
//! a live cancel token polled at every basic-block stride) — and reports
//! the wall-clock overhead. The acceptance bar is < 2 %.
//!
//! ```text
//! cargo run --release -p owl-bench --bin governance
//! ```

use owl_bench::write_bench_json;
use owl_core::{detect, detect_with_cancel, CancelToken, OwlConfig, ResourceBudget, Verdict};
use owl_workloads::aes::AesTTable;
use std::time::{Duration, Instant};

/// Best-of-N iterations, like the hot-path benches: the minimum is the
/// least noisy estimator of the true cost on a shared machine.
const ITERS: usize = 5;
const RUNS: usize = 10;

#[derive(serde::Serialize)]
struct GovernanceBench {
    workload: String,
    runs: usize,
    iters: usize,
    baseline_ms: f64,
    governed_ms: f64,
    overhead_pct: f64,
}

fn best_of<F: FnMut() -> Verdict>(mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..ITERS {
        let start = Instant::now();
        let verdict = f();
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(verdict, Verdict::Leaky, "aes-ttable must stay leaky");
        best = best.min(elapsed);
    }
    best
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let aes = AesTTable::new(32);
    let keys = [[0u8; 16], [0xffu8; 16], *b"owl-sca-detector"];

    let baseline_config = OwlConfig {
        runs: RUNS,
        force_analysis: true,
        ..OwlConfig::default()
    };
    let governed_config = OwlConfig {
        budget: ResourceBudget {
            max_mem_events: Some(u64::MAX / 2),
            max_allocations: Some(u64::MAX / 2),
            max_evidence_bytes: Some(usize::MAX / 2),
            deadline: Some(Duration::from_secs(3600)),
            ..ResourceBudget::DEFAULT
        },
        ..baseline_config
    };
    governed_config.validate()?;

    let baseline_ms = best_of(|| {
        detect(&aes, &keys, &baseline_config)
            .expect("baseline detection")
            .verdict
    });
    let governed_ms = best_of(|| {
        let token = CancelToken::new();
        detect_with_cancel(&aes, &keys, &governed_config, Some(&token))
            .expect("governed detection")
            .verdict
    });
    let overhead_pct = (governed_ms - baseline_ms) / baseline_ms * 100.0;

    println!("Governance overhead on aes-ttable ({RUNS} runs, best of {ITERS})");
    println!("  baseline  {baseline_ms:8.2} ms");
    println!("  governed  {governed_ms:8.2} ms  (budgets + deadline + cancel token armed)");
    println!("  overhead  {overhead_pct:+8.2} %");

    let doc = GovernanceBench {
        workload: "aes-ttable".into(),
        runs: RUNS,
        iters: ITERS,
        baseline_ms,
        governed_ms,
        overhead_pct,
    };
    let path = write_bench_json("governance", &doc)?;
    println!("  wrote {}", path.display());
    Ok(())
}

//! Scalability comparison (the RQ2 story): Owl's warp-aggregated traces
//! versus DATA-style per-thread traces as the thread count grows.
//!
//! ```text
//! cargo run --release --example scalability
//! ```

use owl::baselines::record_per_thread;
use owl::core::{Recorder, RunSpec};
use owl::workloads::dummy::DummySbox;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:>10} {:>16} {:>18} {:>8}",
        "threads", "owl trace (B)", "per-thread (B)", "ratio"
    );
    for elems in [64usize, 256, 1024, 4096, 16384, 65536] {
        let program = DummySbox::new(elems);
        let secret = 0x5eed_u64;
        let recorded = Recorder::default().record(&program, &secret, &RunSpec::default());
        let owl_bytes = recorded.result?.0.size_bytes();
        let data_bytes = record_per_thread(&program, &secret)?.size_bytes();
        println!(
            "{elems:>10} {owl_bytes:>16} {data_bytes:>18} {:>8.1}x",
            data_bytes as f64 / owl_bytes as f64
        );
    }
    println!();
    println!(
        "Owl's trace saturates once every table line has been touched (the\n\
         paper's Fig. 5 plateau); per-thread recording grows without bound."
    );
    Ok(())
}

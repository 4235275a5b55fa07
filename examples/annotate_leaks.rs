//! From leak report to offending instruction: detect the dummy S-box leak
//! and print the disassembly of the flagged location.
//!
//! ```text
//! cargo run --release --example annotate_leaks
//! ```

use owl::core::{detect, OwlConfig, TracedProgram};
use owl::gpu::build::KernelBuilder;
use owl::gpu::disasm::dump_program;
use owl::gpu::isa::{CmpOp, MemWidth, SpecialReg};
use owl::host::{Device, HostError};
use std::collections::BTreeMap;

/// A small in-example workload so the kernel is in scope for annotation.
struct Lookup(owl::gpu::Kernel);

impl Lookup {
    fn new() -> Self {
        let b = KernelBuilder::new("secret_lookup");
        let table = b.param(0);
        let out = b.param(1);
        let secret = b.param(2);
        let tid = b.special(SpecialReg::GlobalTid);
        // The flagged line: table indexed by the secret.
        let idx = b.rem(b.add(secret, b.shr(tid, 5u64)), 64u64);
        let v = b.load_global(b.add(table, b.mul(idx, 8u64)), MemWidth::B8);
        // A benign tid-indexed store for contrast.
        let p = b.setp(CmpOp::LtU, tid, 32u64);
        b.store_global_if(p, true, b.add(out, b.mul(tid, 8u64)), v, MemWidth::B8);
        Lookup(b.finish())
    }
}

impl TracedProgram for Lookup {
    type Input = u64;

    fn name(&self) -> &str {
        "secret-lookup"
    }

    fn run(&self, dev: &mut Device, secret: &u64) -> Result<(), HostError> {
        let table = dev.malloc(8 * 64);
        let out = dev.malloc(8 * 32);
        dev.launch(
            &self.0,
            owl::gpu::grid::LaunchConfig::new(1u32, 32u32),
            &[table.addr(), out.addr(), *secret],
        )?;
        Ok(())
    }

    fn random_input(&self, seed: u64) -> u64 {
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = Lookup::new();

    println!("=== kernel under test ===");
    print!("{}", dump_program(&program.0));
    println!();

    let detection = detect(
        &program,
        &[1, 2, 3, 4],
        &OwlConfig {
            runs: 50,
            ..OwlConfig::default()
        },
    )?;

    println!("=== annotated report ===");
    let kernels: BTreeMap<String, &owl::gpu::KernelProgram> =
        [("secret_lookup".to_string(), &*program.0)]
            .into_iter()
            .collect();
    print!("{}", detection.report.annotate(&kernels));
    Ok(())
}

//! A DATA-style per-thread tracer (the paper's RQ2/RQ3 comparator).
//!
//! DATA (USENIX Security '18) records the full address trace of *each*
//! thread and differentially compares per-thread traces between inputs.
//! That is exact but its memory grows linearly with the thread count —
//! the scalability wall the paper contrasts with Owl's A-DCFG aggregation.
//! This module reproduces the approach on the simulator so the comparison
//! can be measured rather than asserted.

use owl_core::TracedProgram;
use owl_gpu::grid::WARP_SIZE;
use owl_gpu::hook::{KernelHook, LaunchInfo, MemEventBatch, WarpRef};
use owl_gpu::mem::DeviceMemory;

use owl_gpu::program::BlockId;
use owl_host::{Device, HostError};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// One event in a thread's linear trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadEvent {
    /// The thread entered a basic block.
    Block(u32),
    /// The thread accessed memory: `(block, instruction, address)`.
    Mem(u32, u32, u64),
}

/// Identity of one thread across the whole launch sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadKey {
    /// Index of the kernel launch within the run.
    pub launch: u32,
    /// Linearised CTA id.
    pub cta: u32,
    /// Thread id within the CTA.
    pub thread: u32,
}

/// A [`KernelHook`] that records every thread's full trace separately —
/// deliberately *without* warp aggregation.
#[derive(Debug, Default)]
pub struct PerThreadTracer {
    /// Completed traces.
    pub traces: BTreeMap<ThreadKey, Vec<ThreadEvent>>,
    launch: u32,
    warp_size: u32,
}

impl PerThreadTracer {
    /// A fresh tracer.
    pub fn new() -> Self {
        Self::default()
    }

    fn warp_size(&self) -> u32 {
        if self.warp_size == 0 {
            WARP_SIZE
        } else {
            self.warp_size
        }
    }

    /// Total number of events recorded.
    pub fn event_count(&self) -> usize {
        self.traces.values().map(Vec::len).sum()
    }

    /// Estimated memory footprint in bytes: every event costs its own
    /// record, for every thread (the DATA cost model).
    pub fn size_bytes(&self) -> usize {
        // Block events: 4 bytes of payload + tag; Mem: 16 + tag. Use the
        // in-memory enum size for honesty.
        self.event_count() * std::mem::size_of::<ThreadEvent>()
            + self.traces.len() * std::mem::size_of::<ThreadKey>()
    }
}

impl KernelHook for PerThreadTracer {
    fn kernel_begin(&mut self, info: &LaunchInfo) {
        self.warp_size = info.warp_size;
    }

    fn kernel_end(&mut self, _info: &LaunchInfo) {
        self.launch += 1;
    }

    fn bb_entry(&mut self, warp: WarpRef, bb: BlockId) {
        // DATA has no warp concept: each thread logs the block separately.
        // The hook does not carry the active mask, so like a per-thread DBI
        // tool we log all lanes of the warp (an *under*-estimate of DATA's
        // cost whenever fewer lanes are active).
        let ws = self.warp_size();
        for lane in 0..ws {
            let key = ThreadKey {
                launch: self.launch,
                cta: warp.cta,
                thread: warp.warp * ws + lane,
            };
            self.traces
                .entry(key)
                .or_default()
                .push(ThreadEvent::Block(bb.0));
        }
    }

    fn mem_batch(&mut self, warp: WarpRef, batch: &MemEventBatch, _mem: &DeviceMemory) {
        let ws = self.warp_size();
        for (desc, lanes) in batch.events() {
            for &(lane, addr) in lanes {
                let key = ThreadKey {
                    launch: self.launch,
                    cta: warp.cta,
                    thread: warp.warp * ws + u32::from(lane),
                };
                self.traces.entry(key).or_default().push(ThreadEvent::Mem(
                    desc.bb.0,
                    desc.inst_idx,
                    addr,
                ));
            }
        }
    }
}

/// The result of one DATA-style differential comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerThreadDiff {
    /// Threads present in both runs.
    pub threads_compared: usize,
    /// Threads whose traces differ between the two inputs.
    pub differing_threads: usize,
    /// Bytes of trace state held for the *pair* of runs.
    pub memory_bytes: usize,
}

/// Runs `program` on two inputs under per-thread tracing and diffs each
/// thread's trace — the DATA methodology transplanted to the GPU.
///
/// # Errors
///
/// Propagates program failures.
pub fn per_thread_diff<P: TracedProgram>(
    program: &P,
    a: &P::Input,
    b: &P::Input,
) -> Result<PerThreadDiff, HostError> {
    let ta = record_per_thread(program, a)?;
    let tb = record_per_thread(program, b)?;
    let mut compared = 0;
    let mut differing = 0;
    for (key, trace_a) in &ta.traces {
        if let Some(trace_b) = tb.traces.get(key) {
            compared += 1;
            if trace_a != trace_b {
                differing += 1;
            }
        }
    }
    Ok(PerThreadDiff {
        threads_compared: compared,
        differing_threads: differing,
        memory_bytes: ta.size_bytes() + tb.size_bytes(),
    })
}

/// Records one run under the per-thread tracer.
///
/// # Errors
///
/// Propagates program failures.
pub fn record_per_thread<P: TracedProgram>(
    program: &P,
    input: &P::Input,
) -> Result<PerThreadTracer, HostError> {
    let mut device = Device::new();
    let tracer = Rc::new(RefCell::new(PerThreadTracer::new()));
    device.attach_hook(tracer.clone());
    program.run(&mut device, input)?;
    device.detach_hook();
    drop(device);
    Ok(Rc::try_unwrap(tracer)
        .expect("device dropped, sole owner")
        .into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_workloads::dummy::DummySbox;

    #[test]
    fn per_thread_memory_grows_with_threads_unlike_owl() {
        let small = DummySbox::new(256);
        let big = DummySbox::new(4096);
        let input = 0xABCDu64;

        let pt_small = record_per_thread(&small, &input).unwrap().size_bytes();
        let pt_big = record_per_thread(&big, &input).unwrap().size_bytes();
        let owl_bytes = |program: &DummySbox| {
            let recorder = owl_core::Recorder::default();
            let spec = owl_core::RunSpec::default();
            recorder
                .record(program, &input, &spec)
                .result
                .unwrap()
                .0
                .size_bytes()
        };
        let (owl_small, owl_big) = (owl_bytes(&small), owl_bytes(&big));

        let pt_growth = pt_big as f64 / pt_small as f64;
        let owl_growth = owl_big as f64 / owl_small as f64;
        assert!(pt_growth > 10.0, "per-thread growth {pt_growth}");
        assert!(owl_growth < 2.0, "owl growth {owl_growth}");
    }

    #[test]
    fn diff_detects_secret_dependence_per_thread() {
        let d = DummySbox::new(64);
        let out = per_thread_diff(&d, &1, &2).unwrap();
        assert_eq!(out.threads_compared, 256); // 256-thread CTA (8 warps)
        assert!(out.differing_threads >= 48, "{out:?}");
    }

    #[test]
    fn identical_inputs_produce_no_diffs() {
        let d = DummySbox::new(64);
        let out = per_thread_diff(&d, &7, &7).unwrap();
        assert_eq!(out.differing_threads, 0);
    }

    /// The baseline sees the same per-thread stream whichever interpreter
    /// runs the kernel. 300 threads span two CTAs, the last warp partly
    /// active.
    #[test]
    fn oracle_and_lowered_interpreters_give_identical_per_thread_traces() {
        use owl_gpu::exec::{Interpreter, LaunchOptions};

        let program = DummySbox::new(300);
        let input = 0xABCDu64;
        let lowered = record_per_thread(&program, &input).unwrap();

        let mut device = Device::new();
        device.set_launch_options(LaunchOptions {
            interpreter: Interpreter::Oracle,
            ..LaunchOptions::default()
        });
        let tracer = Rc::new(RefCell::new(PerThreadTracer::new()));
        device.attach_hook(tracer.clone());
        program.run(&mut device, &input).unwrap();
        device.detach_hook();
        let oracle = tracer.borrow();

        assert!(lowered.event_count() > 0);
        assert_eq!(lowered.traces, oracle.traces);
    }
}

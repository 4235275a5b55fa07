//! SIMT-width generality: the paper's conclusion claims the approach
//! applies to "other similar SIMT architectures". These tests execute the
//! same kernels at warp widths from 4 to 64 lanes (64 = AMD-style
//! wavefronts) and check that results are width-independent while the
//! *trace shape* scales as expected.

use owl_gpu::build::KernelBuilder;
use owl_gpu::exec::{launch_with_options, LaunchOptions};
use owl_gpu::grid::LaunchConfig;
use owl_gpu::hook::{NullHook, RecordingHook};
use owl_gpu::isa::{CmpOp, MemWidth, SpecialReg};
use owl_gpu::mem::DeviceMemory;
use owl_gpu::ExecError;

fn options(warp_size: u32) -> LaunchOptions {
    LaunchOptions {
        warp_size,
        ..LaunchOptions::default()
    }
}

/// out[i] = (in[i] * 3) with a divergent halving loop — exercises masks,
/// divergence, and reconvergence at every width.
fn divergent_kernel() -> owl_gpu::Kernel {
    let b = KernelBuilder::new("divergent");
    let inp = b.param(0);
    let out = b.param(1);
    let n = b.param(2);
    let tid = b.special(SpecialReg::GlobalTid);
    let guard = b.setp(CmpOp::LtU, tid, n);
    b.if_then(guard, |b| {
        let v = b.load_global(b.add(inp, b.mul(tid, 8u64)), MemWidth::B8);
        let acc = b.mov(0u64);
        let x = b.mov(v);
        // Divergent loop: iterations = highest set bit position.
        b.while_loop(
            |b| b.setp(CmpOp::Ne, x, 0u64),
            |b| {
                b.assign(acc, b.add(acc, b.and(x, 1u64)));
                b.assign(x, b.shr(x, 1u64));
            },
        );
        // acc = popcount(v); out = v * 3 + popcount(v).
        let r = b.add(b.mul(v, 3u64), acc);
        b.store_global(b.add(out, b.mul(tid, 8u64)), r, MemWidth::B8);
    });
    b.finish()
}

fn run_at(warp_size: u32, inputs: &[u64]) -> Vec<u64> {
    let k = divergent_kernel();
    let mut mem = DeviceMemory::new();
    let n = inputs.len();
    let (_, a) = mem.alloc(8 * n);
    let (_, o) = mem.alloc(8 * n);
    for (i, &v) in inputs.iter().enumerate() {
        mem.store(a + 8 * i as u64, 8, v).unwrap();
    }
    launch_with_options(
        &mut mem,
        &k,
        LaunchConfig::new(1u32, n as u32),
        &[a, o, n as u64],
        &mut NullHook,
        options(warp_size),
    )
    .unwrap();
    (0..n)
        .map(|i| mem.load(o + 8 * i as u64, 8).unwrap())
        .collect()
}

#[test]
fn results_are_warp_width_independent() {
    let inputs: Vec<u64> = (0..64u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9) % 1000)
        .collect();
    let reference: Vec<u64> = inputs
        .iter()
        .map(|&v| v * 3 + u64::from(v.count_ones()))
        .collect();
    for warp_size in [4u32, 8, 16, 32, 64] {
        assert_eq!(
            run_at(warp_size, &inputs),
            reference,
            "warp size {warp_size}"
        );
    }
}

#[test]
fn warp_count_scales_inversely_with_width() {
    let k = divergent_kernel();
    let counts: Vec<u64> = [8u32, 16, 32, 64]
        .into_iter()
        .map(|ws| {
            let mut mem = DeviceMemory::new();
            let (_, a) = mem.alloc(8 * 64);
            let (_, o) = mem.alloc(8 * 64);
            let stats = launch_with_options(
                &mut mem,
                &k,
                LaunchConfig::new(1u32, 64u32),
                &[a, o, 64],
                &mut NullHook,
                options(ws),
            )
            .unwrap();
            stats.warps
        })
        .collect();
    assert_eq!(counts, vec![8, 4, 2, 1]);
}

#[test]
fn wider_warps_aggregate_more_lanes_per_event() {
    let k = divergent_kernel();
    let lanes_per_event = |ws: u32| {
        let mut mem = DeviceMemory::new();
        let (_, a) = mem.alloc(8 * 64);
        let (_, o) = mem.alloc(8 * 64);
        let mut hook = RecordingHook::default();
        launch_with_options(
            &mut mem,
            &k,
            LaunchConfig::new(1u32, 64u32),
            &[a, o, 64],
            &mut hook,
            options(ws),
        )
        .unwrap();
        hook.accesses
            .iter()
            .map(|(_, e)| e.lane_addrs.len())
            .max()
            .unwrap()
    };
    assert_eq!(lanes_per_event(16), 16);
    assert_eq!(lanes_per_event(64), 64);
}

#[test]
fn ballot_and_shuffle_work_at_wave64() {
    // Warp-sum over 64 lanes with xor-shuffles plus a 64-lane ballot.
    let b = KernelBuilder::new("wave64");
    let out = b.param(0);
    let tid = b.special(SpecialReg::GlobalTid);
    let mut v = b.mov(tid);
    for mask in [32u64, 16, 8, 4, 2, 1] {
        let peer = b.shfl_xor(v, mask);
        v = b.add(v, peer);
    }
    let p = b.setp(CmpOp::LtU, tid, 40u64);
    let ballot = b.ballot(p);
    b.store_global(b.add(out, b.mul(tid, 8u64)), v, MemWidth::B8);
    b.store_global(
        b.add(out, b.add(512u64, b.mul(tid, 8u64))),
        ballot,
        MemWidth::B8,
    );
    let k = b.finish();

    let mut mem = DeviceMemory::new();
    let (_, o) = mem.alloc(8 * 128);
    launch_with_options(
        &mut mem,
        &k,
        LaunchConfig::new(1u32, 64u32),
        &[o],
        &mut NullHook,
        options(64),
    )
    .unwrap();
    let total: u64 = (0..64).sum();
    for i in 0..64u64 {
        assert_eq!(mem.load(o + i * 8, 8).unwrap(), total, "lane {i}");
        assert_eq!(
            mem.load(o + 512 + i * 8, 8).unwrap(),
            (1u64 << 40) - 1,
            "ballot lane {i}"
        );
    }
}

#[test]
fn invalid_warp_sizes_rejected() {
    let k = divergent_kernel();
    let mut mem = DeviceMemory::new();
    let (_, a) = mem.alloc(8 * 32);
    let (_, o) = mem.alloc(8 * 32);
    for ws in [0u32, 65, 128] {
        let err = launch_with_options(
            &mut mem,
            &k,
            LaunchConfig::new(1u32, 32u32),
            &[a, o, 32],
            &mut NullHook,
            options(ws),
        )
        .unwrap_err();
        assert_eq!(err, ExecError::InvalidWarpSize { warp_size: ws });
    }
}

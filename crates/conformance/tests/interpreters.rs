//! Hand-built kernels on both interpreters: cancellation, canonical NaNs
//! and three-dimensional block coordinates.

use owl_conformance::INTERPRETERS;
use owl_gpu::build::KernelBuilder;
use owl_gpu::cancel::CancelToken;
use owl_gpu::exec::{launch_with_options, LaunchOptions};
use owl_gpu::grid::LaunchConfig;
use owl_gpu::hook::{NullHook, RecordingHook};
use owl_gpu::isa::{CmpOp, MemWidth, SpecialReg, CANONICAL_NAN};
use owl_gpu::mem::DeviceMemory;
use owl_gpu::ExecError;

/// An expired deadline stops a runaway loop with `Cancelled` — on both
/// interpreters, well before the (huge) fuel budget would.
#[test]
fn expired_deadline_cancels_runaway_loop() {
    let b = KernelBuilder::new("spin");
    let one = b.mov(1u64);
    b.while_loop(
        |b| b.setp(CmpOp::Eq, one, 1u64),
        |b| {
            let _ = b.add(one, 0u64);
        },
    );
    let k = b.finish();
    for (name, interpreter) in INTERPRETERS {
        let mut mem = DeviceMemory::new();
        let token = CancelToken::new();
        let err = launch_with_options(
            &mut mem,
            &k,
            LaunchConfig::new(1u32, 32u32),
            &[],
            &mut NullHook,
            LaunchOptions {
                cancel: Some(token.deadline_in(std::time::Duration::from_millis(5))),
                interpreter,
                ..LaunchOptions::default()
            },
        );
        assert_eq!(
            err.unwrap_err(),
            ExecError::Cancelled,
            "{name} must abandon the launch at a block boundary"
        );
    }
}

/// A token that fired before launch bails out before `kernel_begin`:
/// the hook observes no events at all.
#[test]
fn pre_cancelled_token_emits_no_events() {
    let b = KernelBuilder::new("noop");
    let _ = b.mov(0u64);
    let k = b.finish();
    for (name, interpreter) in INTERPRETERS {
        let token = CancelToken::new();
        token.cancel();
        let mut mem = DeviceMemory::new();
        let mut hook = RecordingHook::default();
        let err = launch_with_options(
            &mut mem,
            &k,
            LaunchConfig::new(1u32, 32u32),
            &[],
            &mut hook,
            LaunchOptions {
                cancel: Some(token.clone()),
                interpreter,
                ..LaunchOptions::default()
            },
        );
        assert_eq!(err.unwrap_err(), ExecError::Cancelled);
        assert!(
            hook.kernels.is_empty(),
            "{name} must not announce a cancelled launch"
        );
    }
}

/// Every NaN an `F*` op produces is `CANONICAL_NAN`, whatever the
/// operands' payloads, on both interpreters and on full and partial
/// warps (whose rows the compiler may split into vector and scalar
/// parts).
#[test]
fn float_nan_results_are_canonical() {
    let b = KernelBuilder::new("nan");
    let out = b.param(0);
    let tid = b.special(SpecialReg::GlobalTid);
    let nan_a = b.mov(0x7fc0_0001u64);
    let nan_b = b.mov(0xffc0_0002u64);
    let minus_one = b.mov(u64::from((-1.0f32).to_bits()));
    let results = [
        b.fadd(nan_a, nan_b),
        b.fsub(nan_a, nan_b),
        b.fmul(nan_a, nan_b),
        b.fdiv(nan_a, nan_b),
        b.fmin(nan_a, nan_b),
        b.fmax(nan_a, nan_b),
        b.fsqrt(minus_one),
        b.fln(minus_one),
    ];
    let n = results.len() as u64;
    let row = b.add(out, b.mul(tid, 8 * n));
    for (i, v) in results.into_iter().enumerate() {
        b.store_global(b.add(row, 8 * i as u64), v, MemWidth::B8);
    }
    let k = b.finish();
    for threads in [32u32, 7] {
        for (name, interpreter) in INTERPRETERS {
            let mut mem = DeviceMemory::new();
            let (_, o) = mem.alloc(8 * n as usize * threads as usize);
            launch_with_options(
                &mut mem,
                &k,
                LaunchConfig::new(1u32, threads),
                &[o],
                &mut NullHook,
                LaunchOptions {
                    interpreter,
                    ..LaunchOptions::default()
                },
            )
            .unwrap();
            for slot in 0..n * u64::from(threads) {
                assert_eq!(
                    mem.load(o + 8 * slot, 8).unwrap(),
                    u64::from(CANONICAL_NAN),
                    "{name}, {threads} threads: lane {}, op {}",
                    slot / n,
                    slot % n
                );
            }
        }
    }
}

#[test]
fn three_dimensional_block_coordinates_on_both_interpreters() {
    // 4x3x5 block in a grid of 2: out[global] = x | y << 8 | z << 16.
    let b = KernelBuilder::new("coords3d");
    let out = b.param(0);
    let x = b.special(SpecialReg::TidX);
    let y = b.special(SpecialReg::TidY);
    let z = b.special(SpecialReg::TidZ);
    let global = b.special(SpecialReg::GlobalTid);
    let packed = b.or(b.or(x, b.shl(y, 8u64)), b.shl(z, 16u64));
    b.store_global(b.add(out, b.mul(global, 8u64)), packed, MemWidth::B8);
    let k = b.finish();
    for (name, interpreter) in INTERPRETERS {
        let mut mem = DeviceMemory::new();
        let (_, o) = mem.alloc(8 * 120);
        launch_with_options(
            &mut mem,
            &k,
            LaunchConfig::new(2u32, (4u32, 3u32, 5u32)),
            &[o],
            &mut NullHook,
            LaunchOptions {
                interpreter,
                ..LaunchOptions::default()
            },
        )
        .unwrap();
        for t in 0..120u64 {
            let local = t % 60;
            let expect = (local % 4) | ((local / 4 % 3) << 8) | ((local / 12) << 16);
            assert_eq!(mem.load(o + 8 * t, 8).unwrap(), expect, "{name} thread {t}");
        }
    }
}

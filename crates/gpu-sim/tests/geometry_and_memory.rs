//! Edge-case tests: multi-dimensional launch geometry, local memory,
//! float specials, and wide/narrow memory accesses.

use owl_gpu::build::KernelBuilder;
use owl_gpu::exec::launch;
use owl_gpu::grid::{Dim3, LaunchConfig};
use owl_gpu::hook::NullHook;
use owl_gpu::isa::{CmpOp, MemWidth, SpecialReg};
use owl_gpu::mem::DeviceMemory;

#[test]
fn two_dimensional_block_coordinates() {
    // 8x4 block: out[y*8+x] = x * 100 + y.
    let b = KernelBuilder::new("coords2d");
    let out = b.param(0);
    let x = b.special(SpecialReg::TidX);
    let y = b.special(SpecialReg::TidY);
    let w = b.special(SpecialReg::NTidX);
    let linear = b.add(b.mul(y, w), x);
    let v = b.add(b.mul(x, 100u64), y);
    b.store_global(b.add(out, b.mul(linear, 8u64)), v, MemWidth::B8);
    let k = b.finish();

    let mut mem = DeviceMemory::new();
    let (_, o) = mem.alloc(8 * 32);
    launch(
        &mut mem,
        &k,
        LaunchConfig::new(1u32, (8u32, 4u32)),
        &[o],
        &mut NullHook,
    )
    .unwrap();
    for y in 0..4u64 {
        for x in 0..8u64 {
            assert_eq!(
                mem.load(o + (y * 8 + x) * 8, 8).unwrap(),
                x * 100 + y,
                "({x},{y})"
            );
        }
    }
}

#[test]
fn three_dimensional_block_coordinates_on_both_interpreters() {
    // 4x3x5 block in a grid of 2: out[global] = x | y << 8 | z << 16.
    use owl_gpu::exec::{launch_with_options, Interpreter, LaunchOptions};
    let b = KernelBuilder::new("coords3d");
    let out = b.param(0);
    let x = b.special(SpecialReg::TidX);
    let y = b.special(SpecialReg::TidY);
    let z = b.special(SpecialReg::TidZ);
    let global = b.special(SpecialReg::GlobalTid);
    let packed = b.or(b.or(x, b.shl(y, 8u64)), b.shl(z, 16u64));
    b.store_global(b.add(out, b.mul(global, 8u64)), packed, MemWidth::B8);
    let k = b.finish();
    for interpreter in [Interpreter::Lowered, Interpreter::Oracle] {
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
            assert_eq!(
                mem.load(o + 8 * t, 8).unwrap(),
                expect,
                "{interpreter:?} thread {t}"
            );
        }
    }
}

#[test]
fn three_dimensional_grid_coordinates() {
    // 2x2x2 grid of single-thread blocks; each writes its (bx,by,bz).
    let b = KernelBuilder::new("grid3d");
    let out = b.param(0);
    let bx = b.special(SpecialReg::CtaidX);
    let by = b.special(SpecialReg::CtaidY);
    let bz = b.special(SpecialReg::CtaidZ);
    let gx = b.special(SpecialReg::NCtaidX);
    let gy = b.special(SpecialReg::NCtaidY);
    let linear = b.add(b.add(bx, b.mul(by, gx)), b.mul(bz, b.mul(gx, gy)));
    let packed = b.add(b.add(b.mul(bz, 100u64), b.mul(by, 10u64)), bx);
    b.store_global(b.add(out, b.mul(linear, 8u64)), packed, MemWidth::B8);
    let k = b.finish();

    let mut mem = DeviceMemory::new();
    let (_, o) = mem.alloc(8 * 8);
    launch(
        &mut mem,
        &k,
        LaunchConfig::new(Dim3 { x: 2, y: 2, z: 2 }, 1u32),
        &[o],
        &mut NullHook,
    )
    .unwrap();
    for bz in 0..2u64 {
        for by in 0..2u64 {
            for bx in 0..2u64 {
                let linear = bx + by * 2 + bz * 4;
                assert_eq!(
                    mem.load(o + linear * 8, 8).unwrap(),
                    bz * 100 + by * 10 + bx
                );
            }
        }
    }
}

#[test]
fn local_memory_is_thread_private() {
    // Each thread spills its tid to local[0] and reads it back after every
    // other thread has done the same — values must not interfere.
    let b = KernelBuilder::new("local_spill");
    b.set_local_bytes(16);
    let out = b.param(0);
    let tid = b.special(SpecialReg::GlobalTid);
    b.store_local(0u64, tid, MemWidth::B8);
    b.store_local(8u64, b.mul(tid, 7u64), MemWidth::B8);
    let v0 = b.load_local(0u64, MemWidth::B8);
    let v1 = b.load_local(8u64, MemWidth::B8);
    b.store_global(b.add(out, b.mul(tid, 8u64)), b.add(v0, v1), MemWidth::B8);
    let k = b.finish();

    let mut mem = DeviceMemory::new();
    let (_, o) = mem.alloc(8 * 64);
    launch(
        &mut mem,
        &k,
        LaunchConfig::new(1u32, 64u32),
        &[o],
        &mut NullHook,
    )
    .unwrap();
    for t in 0..64u64 {
        assert_eq!(mem.load(o + t * 8, 8).unwrap(), t + t * 7, "thread {t}");
    }
}

#[test]
fn local_memory_out_of_bounds_faults() {
    let b = KernelBuilder::new("local_oob");
    b.set_local_bytes(8);
    b.store_local(8u64, 1u64, MemWidth::B8);
    let k = b.finish();
    let mut mem = DeviceMemory::new();
    assert!(launch(
        &mut mem,
        &k,
        LaunchConfig::new(1u32, 32u32),
        &[],
        &mut NullHook
    )
    .is_err());
}

#[test]
fn float_specials_propagate_ieee754() {
    // exp(large) = inf; inf - inf = NaN; NaN != NaN via FNe; 1/0 = inf.
    let b = KernelBuilder::new("specials");
    let out = b.param(0);
    let inf = b.fexp(1000.0f32);
    let nan = b.fsub(inf, inf);
    let not_equal_self = b.setp(CmpOp::FNe, nan, nan);
    let flag = b.sel(not_equal_self, 1u64, 0u64);
    let div0 = b.fdiv(1.0f32, 0.0f32);
    b.store_global(out, inf, MemWidth::B4);
    b.store_global(b.add(out, 4u64), flag, MemWidth::B8);
    b.store_global(b.add(out, 12u64), div0, MemWidth::B4);
    let k = b.finish();

    let mut mem = DeviceMemory::new();
    let (_, o) = mem.alloc(16);
    launch(
        &mut mem,
        &k,
        LaunchConfig::new(1u32, 1u32),
        &[o],
        &mut NullHook,
    )
    .unwrap();
    assert_eq!(
        f32::from_bits(mem.load(o, 4).unwrap() as u32),
        f32::INFINITY
    );
    assert_eq!(mem.load(o + 4, 8).unwrap(), 1, "NaN != NaN");
    assert_eq!(
        f32::from_bits(mem.load(o + 12, 4).unwrap() as u32),
        f32::INFINITY
    );
}

#[test]
fn float_floor_and_conversions() {
    let b = KernelBuilder::new("floor");
    let out = b.param(0);
    let cases = [(-2.5f32, -3i64), (2.5, 2), (-0.5, -1), (0.0, 0)];
    for (i, (x, _)) in cases.iter().enumerate() {
        let f = b.ffloor(*x);
        let v = b.f2i(f);
        b.store_global(b.add(out, (i as u64) * 8), v, MemWidth::B8);
    }
    let k = b.finish();
    let mut mem = DeviceMemory::new();
    let (_, o) = mem.alloc(8 * 4);
    launch(
        &mut mem,
        &k,
        LaunchConfig::new(1u32, 1u32),
        &[o],
        &mut NullHook,
    )
    .unwrap();
    for (i, (x, want)) in cases.iter().enumerate() {
        assert_eq!(
            mem.load(o + (i as u64) * 8, 8).unwrap() as i64,
            *want,
            "floor({x})"
        );
    }
}

#[test]
fn narrow_stores_do_not_clobber_neighbours() {
    let b = KernelBuilder::new("narrow");
    let out = b.param(0);
    b.store_global(out, 0x1122_3344_5566_7788u64, MemWidth::B8);
    b.store_global(b.add(out, 2u64), 0xABu64, MemWidth::B1);
    b.store_global(b.add(out, 4u64), 0xCDEFu64, MemWidth::B2);
    let k = b.finish();
    let mut mem = DeviceMemory::new();
    let (_, o) = mem.alloc(8);
    launch(
        &mut mem,
        &k,
        LaunchConfig::new(1u32, 1u32),
        &[o],
        &mut NullHook,
    )
    .unwrap();
    assert_eq!(mem.load(o, 8).unwrap(), 0x1122_CDEF_55AB_7788);
}

#[test]
fn unary_not_and_neg() {
    let b = KernelBuilder::new("unary");
    let out = b.param(0);
    let not = b.not(0u64);
    let neg = b.neg(5u64);
    let fabs = b.fabs(-3.5f32);
    b.store_global(out, not, MemWidth::B8);
    b.store_global(b.add(out, 8u64), neg, MemWidth::B8);
    b.store_global(b.add(out, 16u64), fabs, MemWidth::B4);
    let k = b.finish();
    let mut mem = DeviceMemory::new();
    let (_, o) = mem.alloc(24);
    launch(
        &mut mem,
        &k,
        LaunchConfig::new(1u32, 1u32),
        &[o],
        &mut NullHook,
    )
    .unwrap();
    assert_eq!(mem.load(o, 8).unwrap(), u64::MAX);
    assert_eq!(mem.load(o + 8, 8).unwrap() as i64, -5);
    assert_eq!(f32::from_bits(mem.load(o + 16, 4).unwrap() as u32), 3.5);
}

#[test]
fn partial_warps_in_2d_blocks() {
    // 5x5 block = 25 threads < one warp; all valid lanes execute.
    let b = KernelBuilder::new("partial2d");
    let out = b.param(0);
    let x = b.special(SpecialReg::TidX);
    let y = b.special(SpecialReg::TidY);
    let linear = b.add(b.mul(y, 5u64), x);
    b.store_global(b.add(out, linear), 1u64, MemWidth::B1);
    let k = b.finish();
    let mut mem = DeviceMemory::new();
    let (_, o) = mem.alloc(32);
    launch(
        &mut mem,
        &k,
        LaunchConfig::new(1u32, (5u32, 5u32)),
        &[o],
        &mut NullHook,
    )
    .unwrap();
    for i in 0..32u64 {
        assert_eq!(mem.load(o + i, 1).unwrap(), u64::from(i < 25), "byte {i}");
    }
}

#[test]
fn texture_fetch_clamps_to_edge() {
    use owl_gpu::build::KernelBuilder;
    let b = KernelBuilder::new("texclamp");
    let out = b.param(0);
    let tid = b.special(SpecialReg::GlobalTid);
    // Sample at x = tid - 2 (signed): lanes 0 and 1 clamp to column 0.
    let x = b.sub(tid, 2u64);
    let v = b.tex2d(0, x, 0u64);
    b.store_global(b.add(out, tid), v, MemWidth::B1);
    let k = b.finish();

    let mut mem = DeviceMemory::new();
    // 4x1 texture with distinct texels.
    mem.bind_texture(4, 1, &[10, 20, 30, 40]);
    let (_, o) = mem.alloc(32);
    launch(
        &mut mem,
        &k,
        LaunchConfig::new(1u32, 8u32),
        &[o],
        &mut NullHook,
    )
    .unwrap();
    let got: Vec<u64> = (0..8).map(|i| mem.load(o + i, 1).unwrap()).collect();
    // tid 0,1 → clamp left (10); tid 2..5 → 10,20,30,40; tid 6,7 → clamp right.
    assert_eq!(got, vec![10, 10, 10, 20, 30, 40, 40, 40]);
}

#[test]
fn unbound_texture_slot_faults() {
    use owl_gpu::build::KernelBuilder;
    let b = KernelBuilder::new("texmissing");
    let _ = b.tex2d(3, 0u64, 0u64);
    let k = b.finish();
    let mut mem = DeviceMemory::new();
    let err = launch(
        &mut mem,
        &k,
        LaunchConfig::new(1u32, 32u32),
        &[],
        &mut NullHook,
    )
    .unwrap_err();
    assert_eq!(err, owl_gpu::ExecError::UnboundTexture { slot: 3 });
}

#[test]
fn plain_loads_on_texture_space_rejected_at_validation() {
    use owl_gpu::isa::{Inst, InstOp, MemSpace, Operand, Reg};
    use owl_gpu::program::{
        BasicBlock, BlockId, Kernel, KernelProgram, ProgramError, Region, Stmt,
    };
    let k = KernelProgram {
        name: "bad".into(),
        blocks: vec![BasicBlock {
            insts: vec![Inst::new(InstOp::Ld {
                dst: Reg(0),
                space: MemSpace::Texture,
                addr: Operand::Imm(0),
                width: MemWidth::B1,
            })],
        }],
        body: Region(vec![Stmt::Block(BlockId(0))]),
        num_regs: 1,
        num_preds: 1,
        shared_mem_bytes: 0,
        local_mem_bytes: 0,
    };
    assert_eq!(k.validate(), Err(ProgramError::LdStOnTextureSpace));
    assert_eq!(
        Kernel::new(k).unwrap_err(),
        ProgramError::LdStOnTextureSpace
    );
}

#[test]
fn texture_fetch_events_carry_texel_indices() {
    use owl_gpu::build::KernelBuilder;
    use owl_gpu::hook::RecordingHook;
    use owl_gpu::isa::MemSpace;
    let b = KernelBuilder::new("texevent");
    let tid = b.special(SpecialReg::GlobalTid);
    let _ = b.tex2d(0, tid, 1u64);
    let k = b.finish();
    let mut mem = DeviceMemory::new();
    mem.bind_texture(8, 2, &[0; 16]);
    let mut hook = RecordingHook::default();
    launch(&mut mem, &k, LaunchConfig::new(1u32, 8u32), &[], &mut hook).unwrap();
    assert_eq!(hook.accesses.len(), 1);
    let event = &hook.accesses[0].1;
    assert_eq!(event.space, MemSpace::Texture);
    // Row 1 of an 8-wide texture: indices 8..16.
    let idxs: Vec<u64> = event.lane_addrs.iter().map(|&(_, a)| a).collect();
    assert_eq!(idxs, (8..16).collect::<Vec<u64>>());
}

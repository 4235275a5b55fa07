//! The device-side tracer: Owl's NVBit instrumentation client.
//!
//! [`OwlTracer`] implements [`KernelHook`] and reconstructs one A-DCFG per
//! kernel launch, normalising global addresses to `(allocation, offset)`
//! features on the fly through the launch's [`DeviceMemory`], which the
//! interpreter passes with every memory batch (the paper converts
//! addresses to offsets during tracing to neutralise layout and ASLR
//! effects, §V-C).

use owl_dcfg::{Adcfg, AdcfgBuilder};
use owl_gpu::hook::{KernelHook, LaunchInfo, MemEventBatch, WarpRef};
use owl_gpu::isa::MemSpace;
use owl_gpu::mem::{AllocId, DeviceMemory};
use owl_gpu::program::BlockId;

/// Packs a warp identity into the `u64` key the A-DCFG builder uses.
fn warp_key(w: WarpRef) -> u64 {
    (u64::from(w.cta) << 32) | u64::from(w.warp)
}

/// Encodes a memory access into the scalar feature the address histograms
/// store.
///
/// Bit layout of a resolved global feature:
///
/// ```text
///  63           62..40                    39..0
/// ┌───┬──────────────────────────┬────────────────────┐
/// │ 0 │ allocation id + 1 (23b)  │ byte offset (40b)  │
/// └───┴──────────────────────────┴────────────────────┘
/// ```
///
/// * Global accesses resolve through [`DeviceMemory::resolve`] to
///   `(allocation, offset)`; the feature is `(alloc + 1) << 40 | offset`,
///   which is stable across layout changes. The `+ 1` keeps allocation 0's
///   features disjoint from raw shared/local offsets.
/// * Shared/local/constant addresses are already offsets; the feature is
///   the raw address.
/// * An unresolvable global address (never produced by a correct run) is
///   tagged with the top bit so it cannot alias a normalised feature. A
///   resolved address that does not fit the layout saturates to the same
///   tagged form rather than being truncated, which would alias it into a
///   *different* allocation's range and corrupt the differential analysis.
///   That covers an in-bounds offset of 2^40 bytes (1 TiB) or more, and an
///   allocation id of 2^23 − 1 or more (from the 8,388,608th allocation
///   of a run on).
pub fn encode_address(space: MemSpace, addr: u64, mem: &DeviceMemory) -> u64 {
    match space {
        MemSpace::Global => pack_global(addr, mem.resolve(addr)),
        // Shared/local/constant addresses and texel indices are already
        // layout-independent offsets.
        MemSpace::Shared | MemSpace::Local | MemSpace::Constant | MemSpace::Texture => addr,
    }
}

/// The global-feature packing of [`encode_address`], given the raw address
/// and its resolution.
fn pack_global(addr: u64, resolved: Option<(AllocId, u64)>) -> u64 {
    match resolved {
        Some((alloc, offset)) if alloc.0 < (1 << 23) - 1 && offset < (1 << 40) => {
            ((u64::from(alloc.0) + 1) << 40) | offset
        }
        // Unresolvable, or an id or offset too large for the encoding.
        _ => addr | (1 << 63),
    }
}

/// A [`KernelHook`] that reconstructs one [`Adcfg`] per kernel launch.
///
/// Attach it to a device (via `Rc<RefCell<…>>`), run the program, then
/// [`take_graphs`](OwlTracer::take_graphs) to collect the per-launch
/// graphs in launch order. It holds no view of the device: each memory
/// batch arrives with the launch's memory to resolve addresses against.
#[derive(Debug, Default)]
pub struct OwlTracer {
    current: Option<AdcfgBuilder>,
    finished: Vec<Adcfg>,
}

impl OwlTracer {
    /// Creates a tracer that has observed no launch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes and returns the completed per-launch graphs, oldest first.
    pub fn take_graphs(&mut self) -> Vec<Adcfg> {
        std::mem::take(&mut self.finished)
    }
}

impl KernelHook for OwlTracer {
    fn kernel_begin(&mut self, _info: &LaunchInfo) {
        debug_assert!(self.current.is_none(), "nested kernel launches");
        self.current = Some(AdcfgBuilder::new());
    }

    fn kernel_end(&mut self, _info: &LaunchInfo) {
        let builder = self
            .current
            .take()
            .expect("kernel_end without kernel_begin");
        self.finished.push(builder.finish());
    }

    fn bb_entry(&mut self, warp: WarpRef, bb: BlockId) {
        self.current
            .as_mut()
            .expect("bb_entry outside a kernel")
            .enter_block(warp_key(warp), bb.0);
    }

    fn mem_batch(&mut self, warp: WarpRef, batch: &MemEventBatch, mem: &DeviceMemory) {
        // Every event in a batch belongs to the same warp and basic-block
        // visit, so one block-recorder resolution covers the whole batch.
        // The costs arrive pre-computed in the descriptors, from the *raw*
        // addresses, since the hardware sees the physical layout.
        let builder = self.current.as_mut().expect("mem_batch outside a kernel");
        let mut rec = builder.block_recorder(warp_key(warp));
        for (desc, lanes) in batch.events() {
            match lanes {
                // A broadcast: the feature is a pure function of the
                // address (and a launch's fixed allocation map), so one
                // encoding serves every lane.
                [(_, first), rest @ ..] if rest.iter().all(|&(_, addr)| addr == *first) => {
                    let feature = encode_address(desc.space, *first, mem);
                    rec.access(desc.inst_idx, std::iter::repeat_n(feature, lanes.len()));
                }
                _ => rec.access(
                    desc.inst_idx,
                    lanes
                        .iter()
                        .map(|&(_, addr)| encode_address(desc.space, addr, mem)),
                ),
            }
            rec.cost(desc.inst_idx, desc.cost);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_gpu::build::KernelBuilder;
    use owl_gpu::grid::LaunchConfig;
    use owl_gpu::isa::{MemWidth, SpecialReg};
    use owl_host::Device;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn lookup_kernel() -> owl_gpu::Kernel {
        let b = KernelBuilder::new("lookup");
        let table = b.param(0);
        let out = b.param(1);
        let tid = b.special(SpecialReg::GlobalTid);
        let v = b.load_global(b.add(table, b.mul(tid, 4u64)), MemWidth::B4);
        b.store_global(b.add(out, b.mul(tid, 4u64)), v, MemWidth::B4);
        b.finish()
    }

    #[test]
    fn one_graph_per_launch() {
        let mut dev = Device::new();
        let tracer = Rc::new(RefCell::new(OwlTracer::new()));
        dev.attach_hook(tracer.clone());
        let t = dev.malloc(4 * 32);
        let o = dev.malloc(4 * 32);
        let k = lookup_kernel();
        for _ in 0..3 {
            dev.launch(&k, LaunchConfig::new(1u32, 32u32), &[t.addr(), o.addr()])
                .unwrap();
        }
        let graphs = tracer.borrow_mut().take_graphs();
        assert_eq!(graphs.len(), 3);
        assert_eq!(graphs[0], graphs[1], "deterministic kernel, equal graphs");
    }

    #[test]
    fn global_features_are_layout_independent() {
        // The same program under plain layout and under ASLR must produce
        // identical A-DCFGs thanks to offset normalisation.
        let run = |mut dev: Device| {
            let tracer = Rc::new(RefCell::new(OwlTracer::new()));
            dev.attach_hook(tracer.clone());
            let t = dev.malloc(4 * 32);
            let o = dev.malloc(4 * 32);
            dev.launch(
                &lookup_kernel(),
                LaunchConfig::new(1u32, 32u32),
                &[t.addr(), o.addr()],
            )
            .unwrap();
            let mut tr = tracer.borrow_mut();
            tr.take_graphs().remove(0)
        };
        let plain = run(Device::new());
        let aslr1 = run(Device::with_aslr(111));
        let aslr2 = run(Device::with_aslr(999));
        assert_eq!(plain, aslr1);
        assert_eq!(aslr1, aslr2);
    }

    #[test]
    fn encode_address_distinguishes_allocations_not_layout() {
        let mut dev = Device::new();
        let a = dev.malloc(64);
        let b = dev.malloc(64);
        let mem = dev.memory();
        let fa = encode_address(MemSpace::Global, a.addr() + 8, mem);
        let fb = encode_address(MemSpace::Global, b.addr() + 8, mem);
        assert_ne!(fa, fb, "different allocations, different features");
        // Same offset within the same allocation → same feature.
        assert_eq!(fa, encode_address(MemSpace::Global, a.addr() + 8, mem));
        // Shared-space addresses pass through.
        assert_eq!(encode_address(MemSpace::Shared, 40, mem), 40);
    }

    #[test]
    fn unresolved_global_address_is_tagged() {
        let dev = Device::new();
        let f = encode_address(MemSpace::Global, 0x1234, dev.memory());
        assert_ne!(f & (1 << 63), 0);
    }

    #[test]
    fn largest_packable_allocation_id_packs() {
        // `id + 1` fills all 23 bits of the field and leaves the tag bit clear.
        let id = AllocId((1 << 23) - 2);
        assert_eq!(
            pack_global(0x7_0000_0005, Some((id, 5))),
            (0x7f_ffff << 40) | 5
        );
    }

    #[test]
    fn allocation_ids_beyond_the_field_are_tagged() {
        // Truncating `id + 1` to 23 bits would alias these: id 2^23 − 1
        // into the tag bit itself, id u32::MAX into a different allocation.
        for id in [(1 << 23) - 1, u32::MAX] {
            assert_eq!(
                pack_global(0x7_0000_0040, Some((AllocId(id), 0x40))),
                0x7_0000_0040 | (1 << 63),
                "id {id}"
            );
        }
    }
}

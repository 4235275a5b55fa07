//! The device-side tracer: Owl's NVBit instrumentation client.
//!
//! [`OwlTracer`] implements [`KernelHook`] and reconstructs one A-DCFG per
//! kernel launch, normalising global addresses to `(allocation, offset)`
//! features on the fly via the runtime's shared
//! [`AllocTable`](owl_host::AllocTable) (the paper converts addresses to
//! offsets during tracing to neutralise layout and ASLR effects, §V-C).

use owl_dcfg::{Adcfg, AdcfgBuilder};
use owl_gpu::hook::{KernelHook, LaunchInfo, MemAccessEvent, MemEventBatch, WarpRef};
use owl_gpu::isa::MemSpace;
use owl_gpu::program::BlockId;
use owl_host::SharedAllocTable;

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
/// * Global accesses resolve to `(allocation, offset)`; the feature is
///   `(alloc + 1) << 40 | offset`, which is stable across layout changes.
///   The `+ 1` keeps allocation 0's features disjoint from raw
///   shared/local offsets.
/// * Shared/local/constant addresses are already offsets; the feature is
///   the raw address.
/// * An unresolvable global address (never produced by a correct run) is
///   tagged with the top bit so it cannot alias a normalised feature. An
///   in-bounds offset of 2^40 bytes (1 TiB) or more does not fit the
///   40-bit offset field; rather than silently truncating — which would
///   alias the feature into a *different* allocation's range and corrupt
///   the differential analysis — it saturates to the same tagged form.
pub fn encode_address(space: MemSpace, addr: u64, table: &owl_host::AllocTable) -> u64 {
    match space {
        MemSpace::Global => match table.resolve(addr) {
            Some((alloc, offset)) if offset < (1 << 40) => {
                ((u64::from(alloc.0) + 1) << 40) | offset
            }
            // Unresolvable, or offset too large for the encoding.
            _ => addr | (1 << 63),
        },
        // Shared/local/constant addresses and texel indices are already
        // layout-independent offsets.
        MemSpace::Shared | MemSpace::Local | MemSpace::Constant | MemSpace::Texture => addr,
    }
}

/// A [`KernelHook`] that reconstructs one [`Adcfg`] per kernel launch.
///
/// Attach it to a device (via `Rc<RefCell<…>>`), run the program, then
/// [`take_graphs`](OwlTracer::take_graphs) to collect the per-launch
/// graphs in launch order.
#[derive(Debug)]
pub struct OwlTracer {
    alloc_table: SharedAllocTable,
    current: Option<AdcfgBuilder>,
    finished: Vec<Adcfg>,
}

impl OwlTracer {
    /// Creates a tracer that normalises global addresses through the given
    /// shared allocation table (from [`owl_host::Device::alloc_table`]).
    pub fn new(alloc_table: SharedAllocTable) -> Self {
        OwlTracer {
            alloc_table,
            current: None,
            finished: Vec::new(),
        }
    }

    /// Removes and returns the completed per-launch graphs, oldest first.
    pub fn take_graphs(&mut self) -> Vec<Adcfg> {
        std::mem::take(&mut self.finished)
    }

    /// Number of completed kernel launches observed so far.
    pub fn completed(&self) -> usize {
        self.finished.len()
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

    fn mem_access(&mut self, warp: WarpRef, event: &MemAccessEvent) {
        let table = self.alloc_table.borrow();
        let features = event
            .lane_addrs
            .iter()
            .map(|&(_, addr)| encode_address(event.space, addr, &table));
        let builder = self.current.as_mut().expect("mem_access outside a kernel");
        builder.record_access(warp_key(warp), event.inst_idx, features);
        // The per-event microarchitectural cost (coalescing / bank
        // conflicts) — computed from the *raw* addresses, since the
        // hardware sees the physical layout.
        builder.record_cost(warp_key(warp), event.inst_idx, event.cost_feature());
    }

    fn mem_batch(&mut self, warp: WarpRef, batch: &MemEventBatch) {
        // Bulk path: every event in a batch belongs to the same warp and
        // basic-block visit, so one alloc-table borrow and one
        // block-recorder resolution cover the whole batch; the costs
        // arrive pre-computed in the descriptors.
        let table = self.alloc_table.borrow();
        let builder = self.current.as_mut().expect("mem_batch outside a kernel");
        let mut rec = builder.block_recorder(warp_key(warp));
        for (desc, lanes) in batch.events() {
            rec.access(
                desc.inst_idx,
                lanes
                    .iter()
                    .map(|&(_, addr)| encode_address(desc.space, addr, &table)),
            );
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

    fn lookup_kernel() -> owl_gpu::KernelProgram {
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
        let tracer = Rc::new(RefCell::new(OwlTracer::new(dev.alloc_table())));
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
            let tracer = Rc::new(RefCell::new(OwlTracer::new(dev.alloc_table())));
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
        let table = dev.alloc_table();
        let table = table.borrow();
        let fa = encode_address(MemSpace::Global, a.addr() + 8, &table);
        let fb = encode_address(MemSpace::Global, b.addr() + 8, &table);
        assert_ne!(fa, fb, "different allocations, different features");
        // Same offset within the same allocation → same feature.
        assert_eq!(fa, encode_address(MemSpace::Global, a.addr() + 8, &table));
        // Shared-space addresses pass through.
        assert_eq!(encode_address(MemSpace::Shared, 40, &table), 40);
    }

    #[test]
    fn unresolved_global_address_is_tagged() {
        let dev = Device::new();
        let table = dev.alloc_table();
        let f = encode_address(MemSpace::Global, 0x1234, &table.borrow());
        assert_ne!(f & (1 << 63), 0);
    }
}

//! NVBit-style instrumentation hooks.
//!
//! NVBit rewrites kernel binaries so that every launched thread calls into
//! user instrumentation at instrumented points. The simulator produces the
//! same observable stream through the [`KernelHook`] trait: one callback at
//! each basic-block entry (per warp — matching Owl's warp-level tracing,
//! §V-A) and one per batch of memory-access instructions, each with its
//! per-lane addresses.

use crate::grid::LaunchConfig;
use crate::isa::MemSpace;
use crate::mem::DeviceMemory;
use crate::program::BlockId;
use serde::{Deserialize, Serialize};

/// Identity of a warp within a launch: the linearised CTA id plus the warp
/// index inside the CTA (the paper identifies warps "using both warp IDs as
/// well as block IDs").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct WarpRef {
    /// Linearised block (CTA) index within the grid.
    pub cta: u32,
    /// Warp index within the block.
    pub warp: u32,
}

/// Whether a memory access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
    /// An atomic read-modify-write.
    Atomic,
}

/// One dynamic memory-access event as [`RecordingHook`] stores it: a single
/// `Ld`/`St` instruction executed by a warp, with the byte address touched
/// by every participating lane.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemAccessEvent {
    /// Basic block containing the instruction.
    pub bb: BlockId,
    /// Static index of the instruction within its block.
    pub inst_idx: u32,
    /// Memory space accessed.
    pub space: MemSpace,
    /// Read or write.
    pub kind: AccessKind,
    /// `(lane, byte address)` for each lane that executed the access
    /// (active in the warp mask and passing the instruction's guard).
    pub lane_addrs: Vec<(u8, u64)>,
}

/// Bytes per global-memory transaction segment (the coalescing
/// granularity of NVIDIA hardware).
pub const COALESCE_SEGMENT: u64 = 32;

/// Number of shared-memory banks.
pub const SHARED_BANKS: u64 = 32;

/// Number of memory transactions a warp access with the given lane
/// addresses costs under the hardware coalescing model: the count of
/// distinct [`COALESCE_SEGMENT`]-byte segments touched. The classic
/// coalescing side channel (Jiang et al., HPCA'16) observes exactly this
/// quantity through timing. `scratch` is reused across calls to keep the
/// hot path allocation-free.
fn coalesced_transactions(lane_addrs: &[(u8, u64)], scratch: &mut Vec<u64>) -> u32 {
    // Lane addresses usually ascend: count segment changes in one pass,
    // and sort only when some lane steps back.
    let mut segments = lane_addrs.iter().map(|&(_, a)| a / COALESCE_SEGMENT);
    let Some(mut prev) = segments.next() else {
        return 0;
    };
    let mut count = 1;
    for seg in segments {
        if seg < prev {
            return sorted_distinct(lane_addrs, COALESCE_SEGMENT, scratch).len() as u32;
        }
        count += u32::from(seg != prev);
        prev = seg;
    }
    count
}

/// The distinct values of `addr / unit` over the lanes, sorted, in
/// `scratch`.
fn sorted_distinct<'s>(
    lane_addrs: &[(u8, u64)],
    unit: u64,
    scratch: &'s mut Vec<u64>,
) -> &'s [u64] {
    scratch.clear();
    scratch.extend(lane_addrs.iter().map(|&(_, a)| a / unit));
    scratch.sort_unstable();
    scratch.dedup();
    scratch
}

/// Shared-memory bank-conflict degree: the maximum number of lanes
/// hitting the same 4-byte-interleaved bank (1 = conflict-free). The
/// access serialises into this many cycles on real hardware — another
/// timing observable (Jiang et al., TACO'19). `scratch` is reused across
/// calls.
fn bank_conflict_degree(lane_addrs: &[(u8, u64)], scratch: &mut Vec<u64>) -> u32 {
    let mut counts = [0u32; SHARED_BANKS as usize];
    // Broadcasts (all lanes on one word) are conflict-free; count
    // distinct words per bank.
    for &w in sorted_distinct(lane_addrs, 4, scratch) {
        counts[(w % SHARED_BANKS) as usize] += 1;
    }
    counts.iter().copied().max().unwrap_or(0).max(1)
}

/// The microarchitectural cost feature of one warp access: transactions
/// for global memory, bank-conflict degree for shared memory, and 1 for
/// the uniform-latency spaces.
fn cost_feature(space: MemSpace, lane_addrs: &[(u8, u64)], scratch: &mut Vec<u64>) -> u32 {
    match space {
        MemSpace::Global => coalesced_transactions(lane_addrs, scratch),
        MemSpace::Shared => bank_conflict_degree(lane_addrs, scratch),
        MemSpace::Local | MemSpace::Constant | MemSpace::Texture => 1,
    }
}

/// Folds one access into the launch's execution counters given its
/// pre-computed [`cost_feature`]: every event bumps `mem_accesses`;
/// global accesses add their transaction count and are classified as
/// coalesced (one transaction) or serialized; shared accesses add their
/// *excess* bank cycles (degree − 1).
fn apply_event_counters(space: MemSpace, cost: u32, c: &mut owl_metrics::SimCounters) {
    c.mem_accesses += 1;
    match space {
        MemSpace::Global => {
            c.mem_transactions += u64::from(cost);
            if cost <= 1 {
                c.coalesced_accesses += 1;
            } else {
                c.serialized_accesses += 1;
            }
        }
        MemSpace::Shared => {
            // The degree is at least 1 for a non-empty access.
            c.bank_conflicts += u64::from(cost) - 1;
        }
        MemSpace::Local | MemSpace::Constant | MemSpace::Texture => {}
    }
}

/// A flat batch of memory-access events accumulated by one warp within one
/// basic-block visit, delivered to the hook in one [`KernelHook::mem_batch`]
/// call — the only form in which memory events reach a hook.
///
/// Structure-of-arrays layout: fixed-size descriptors in [`Self::events`]
/// order plus one shared `(lane, address)` pool, so the interpreter's
/// inner loop appends to two flat vectors instead of allocating an event
/// and crossing a virtual call per instruction. The cost model lives
/// behind [`MemEventBatch::finish_event`]: it computes each event's cost
/// and folds it into the execution counters once, and consumers read
/// [`MemEventDesc::cost`] instead of re-deriving it from the addresses.
#[derive(Debug, Default)]
pub struct MemEventBatch {
    descs: Vec<MemEventDesc>,
    addrs: Vec<(u8, u64)>,
    scratch: Vec<u64>,
}

/// Per-event fixed-size record within a [`MemEventBatch`].
#[derive(Debug, Clone, Copy)]
pub struct MemEventDesc {
    /// Basic block containing the instruction.
    pub bb: BlockId,
    /// Static index of the instruction within its block.
    pub inst_idx: u32,
    /// Memory space accessed.
    pub space: MemSpace,
    /// Read or write.
    pub kind: AccessKind,
    /// The access's microarchitectural cost (transactions, bank-conflict
    /// degree, or 1), computed by [`MemEventBatch::finish_event`].
    pub cost: u32,
    addr_start: u32,
    addr_len: u32,
}

impl MemEventBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.descs.is_empty()
    }

    /// Drops all buffered events, keeping capacity.
    pub fn clear(&mut self) {
        self.descs.clear();
        self.addrs.clear();
    }

    /// Opens a new event; follow with [`Self::push_addr`] per
    /// participating lane and close with [`Self::finish_event`].
    #[inline]
    pub fn begin_event(&mut self, bb: BlockId, inst_idx: u32, space: MemSpace, kind: AccessKind) {
        self.descs.push(MemEventDesc {
            bb,
            inst_idx,
            space,
            kind,
            cost: 0,
            addr_start: self.addrs.len() as u32,
            addr_len: 0,
        });
    }

    /// Appends one participating lane's byte address to the open event.
    #[inline]
    pub fn push_addr(&mut self, lane: u8, addr: u64) {
        self.addrs.push((lane, addr));
    }

    /// Discards the open event and any addresses pushed for it. Used on
    /// mid-instruction error paths (e.g. an out-of-bounds lane) so the
    /// batch never flushes a half-recorded event — matching the reference
    /// oracle, which emits an event only after all its lanes succeeded.
    #[inline]
    pub fn abort_event(&mut self) {
        let desc = self.descs.pop().expect("abort_event without begin_event");
        self.addrs.truncate(desc.addr_start as usize);
    }

    /// Closes the open event: computes its cost feature and folds it into
    /// the launch's execution counters.
    #[inline]
    pub fn finish_event(&mut self, counters: &mut owl_metrics::SimCounters) {
        let desc = self
            .descs
            .last_mut()
            .expect("finish_event without begin_event");
        desc.addr_len = self.addrs.len() as u32 - desc.addr_start;
        let lanes = &self.addrs[desc.addr_start as usize..];
        desc.cost = cost_feature(desc.space, lanes, &mut self.scratch);
        apply_event_counters(desc.space, desc.cost, counters);
    }

    /// Iterates the buffered events with their lane-address slices, in
    /// execution order.
    pub fn events(&self) -> impl Iterator<Item = (&MemEventDesc, &[(u8, u64)])> {
        self.descs.iter().map(|d| {
            let lanes = &self.addrs[d.addr_start as usize..(d.addr_start + d.addr_len) as usize];
            (d, lanes)
        })
    }
}

/// Static information about a launch, passed to begin/end callbacks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaunchInfo {
    /// Kernel name.
    pub kernel: String,
    /// Launch geometry.
    pub config: LaunchConfig,
    /// SIMT warp width of this launch.
    pub warp_size: u32,
}

/// Instrumentation callbacks, invoked synchronously by the interpreter.
///
/// All methods have empty default bodies so hooks implement only what they
/// observe. An instrumented execution with [`NullHook`] behaves identically
/// to an uninstrumented one — dynamic binary instrumentation must not
/// perturb program semantics.
///
/// [`Self::mem_batch`] receives the launch's [`DeviceMemory`], read-only,
/// so a hook can resolve raw global addresses with
/// [`DeviceMemory::resolve`]. Kernels cannot allocate or free, so the
/// allocation map is fixed for the duration of a launch: resolving when a
/// batch is flushed gives the same answer as resolving at the access.
pub trait KernelHook {
    /// A kernel is about to execute.
    fn kernel_begin(&mut self, info: &LaunchInfo) {
        let _ = info;
    }

    /// The kernel finished executing.
    fn kernel_end(&mut self, info: &LaunchInfo) {
        let _ = info;
    }

    /// A warp entered a basic block (at least one lane active).
    fn bb_entry(&mut self, warp: WarpRef, bb: BlockId) {
        let _ = (warp, bb);
    }

    /// A warp executed memory-access instructions within its current
    /// basic-block visit; the batch holds them in execution order. The
    /// lowered interpreter flushes one batch per block, the reference
    /// oracle one batch per event.
    fn mem_batch(&mut self, warp: WarpRef, batch: &MemEventBatch, mem: &DeviceMemory) {
        let _ = (warp, batch, mem);
    }
}

/// A hook that observes nothing (uninstrumented execution).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullHook;

impl KernelHook for NullHook {}

/// A hook that buffers every event, useful in tests and as a building block
/// for tracers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordingHook {
    /// `(warp, block)` in execution order.
    pub bb_entries: Vec<(WarpRef, BlockId)>,
    /// All memory-access events in execution order.
    pub accesses: Vec<(WarpRef, MemAccessEvent)>,
    /// Names of kernels begun.
    pub kernels: Vec<String>,
}

impl KernelHook for RecordingHook {
    fn kernel_begin(&mut self, info: &LaunchInfo) {
        self.kernels.push(info.kernel.clone());
    }

    fn bb_entry(&mut self, warp: WarpRef, bb: BlockId) {
        self.bb_entries.push((warp, bb));
    }

    fn mem_batch(&mut self, warp: WarpRef, batch: &MemEventBatch, _mem: &DeviceMemory) {
        self.accesses.extend(batch.events().map(|(desc, lanes)| {
            let event = MemAccessEvent {
                bb: desc.bb,
                inst_idx: desc.inst_idx,
                space: desc.space,
                kind: desc.kind,
                lane_addrs: lanes.to_vec(),
            };
            (warp, event)
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(lane, address)` pairs for consecutive lanes from 0.
    fn lanes(addrs: impl IntoIterator<Item = u64>) -> Vec<(u8, u64)> {
        addrs
            .into_iter()
            .enumerate()
            .map(|(l, a)| (l as u8, a))
            .collect()
    }

    #[test]
    fn null_hook_is_callable() {
        let mut h = NullHook;
        let info = LaunchInfo {
            kernel: "k".into(),
            config: LaunchConfig::new(1u32, 32u32),
            warp_size: 32,
        };
        h.kernel_begin(&info);
        h.bb_entry(WarpRef { cta: 0, warp: 0 }, BlockId(0));
        h.kernel_end(&info);
    }

    #[test]
    fn coalescing_counts_distinct_segments() {
        let mk = |addrs: Vec<u64>| coalesced_transactions(&lanes(addrs), &mut Vec::new());
        // All 32 lanes in one 32-byte segment: 1 transaction.
        assert_eq!(mk((0..32).map(|i| i % 32).collect()), 1);
        // Consecutive 4-byte words: 32 lanes over 128 bytes = 4 segments.
        assert_eq!(mk((0..32).map(|i| i * 4).collect()), 4);
        // Fully scattered: one segment per lane.
        assert_eq!(mk((0..32).map(|i| i * 64).collect()), 32);
        // Descending and interleaved lanes count each segment once too.
        assert_eq!(mk((0..32).rev().map(|i| i * 4).collect()), 4);
        assert_eq!(mk(vec![0, 64, 4, 68, 8]), 2);
        assert_eq!(mk(vec![]), 0);
    }

    #[test]
    fn bank_conflicts_count_worst_bank() {
        let mk = |addrs: Vec<u64>| bank_conflict_degree(&lanes(addrs), &mut Vec::new());
        // Stride-1 words: conflict-free.
        assert_eq!(mk((0..32).map(|i| i * 4).collect()), 1);
        // Stride-32 words: all lanes on bank 0 → 32-way conflict.
        assert_eq!(mk((0..32).map(|i| i * 4 * 32).collect()), 32);
        // Stride-2 words: 2-way conflicts.
        assert_eq!(mk((0..32).map(|i| i * 8).collect()), 2);
        // Broadcast (all lanes one word): conflict-free.
        assert_eq!(mk(vec![40; 32]), 1);
    }

    #[test]
    fn cost_feature_dispatches_by_space() {
        let addrs = lanes((0..32u64).map(|l| l * 64));
        let cost = |space| cost_feature(space, &addrs, &mut Vec::new());
        assert_eq!(cost(MemSpace::Constant), 1);
        assert_eq!(cost(MemSpace::Global), 32);
        assert_eq!(
            cost(MemSpace::Shared),
            16,
            "stride-64B over 32 banks of 4B words"
        );
    }

    #[test]
    fn apply_counters_classifies_by_space() {
        let apply = |space, addrs: Vec<u64>, c: &mut owl_metrics::SimCounters| {
            apply_event_counters(
                space,
                cost_feature(space, &lanes(addrs), &mut Vec::new()),
                c,
            );
        };
        let mut c = owl_metrics::SimCounters::default();
        // Coalesced global: one segment.
        apply(MemSpace::Global, (0..32).collect(), &mut c);
        assert_eq!((c.mem_transactions, c.coalesced_accesses), (1, 1));
        // Scattered global: 32 segments.
        apply(MemSpace::Global, (0..32).map(|i| i * 64).collect(), &mut c);
        assert_eq!((c.mem_transactions, c.serialized_accesses), (33, 1));
        // Stride-2 shared words: 2-way conflicts → 1 excess cycle.
        apply(MemSpace::Shared, (0..32).map(|i| i * 8).collect(), &mut c);
        assert_eq!(c.bank_conflicts, 1);
        // Constant space only bumps the access count.
        apply(MemSpace::Constant, vec![0], &mut c);
        assert_eq!(c.mem_accesses, 4);
        assert_eq!(c.mem_transactions, 33);
    }

    #[test]
    fn mem_batch_matches_per_event_stream() {
        let w = WarpRef { cta: 0, warp: 1 };
        let mut c = owl_metrics::SimCounters::default();
        let mut batch = MemEventBatch::new();
        batch.begin_event(BlockId(2), 0, MemSpace::Global, AccessKind::Read);
        for l in 0..4u8 {
            batch.push_addr(l, u64::from(l) * 64);
        }
        batch.finish_event(&mut c);
        batch.begin_event(BlockId(2), 3, MemSpace::Shared, AccessKind::Write);
        for l in 0..4u8 {
            batch.push_addr(l, u64::from(l) * 8);
        }
        batch.finish_event(&mut c);

        // The recording hook flattens the batch into the per-event stream.
        let mut h = RecordingHook::default();
        h.mem_batch(w, &batch, &DeviceMemory::new());
        assert_eq!(h.accesses.len(), 2);
        let first = &h.accesses[0].1;
        assert_eq!(first.lane_addrs, vec![(0, 0), (1, 64), (2, 128), (3, 192)]);
        assert_eq!(first.space, MemSpace::Global);

        // finish_event applied the same counters each event implies ...
        let event_cost = |e: &MemAccessEvent| cost_feature(e.space, &e.lane_addrs, &mut Vec::new());
        let mut expect = owl_metrics::SimCounters::default();
        for (_, e) in &h.accesses {
            apply_event_counters(e.space, event_cost(e), &mut expect);
        }
        assert_eq!(c, expect);
        // ... and stamped the same cost the event's lanes give.
        let costs: Vec<u32> = batch.events().map(|(d, _)| d.cost).collect();
        assert_eq!(costs, vec![event_cost(first), event_cost(&h.accesses[1].1)]);
    }

    #[test]
    fn recording_hook_buffers_in_order() {
        let mut h = RecordingHook::default();
        let w = WarpRef { cta: 1, warp: 2 };
        h.bb_entry(w, BlockId(5));
        h.bb_entry(w, BlockId(6));
        assert_eq!(h.bb_entries, vec![(w, BlockId(5)), (w, BlockId(6))]);
    }
}

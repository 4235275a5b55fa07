//! The attributed dynamic control-flow graph (A-DCFG).
//!
//! An A-DCFG (paper §V-B) extends a dynamic CFG with per-node attributes so
//! that the traces of *all* warps of a kernel collapse into one structure:
//!
//! * each **node** is a basic block, attributed with
//!   * a [`TransitionMatrix`] of `(prev, next)` pairs — one pair per node
//!     visit, aggregated over warps (this encodes both the edges and the
//!     paper's "previous edge" information), and
//!   * per memory-access instruction, per visit ordinal `j`, a histogram
//!     `m_j` of accessed addresses aggregated over warps;
//! * each **edge** `(src, dst)` carries its traversal count;
//! * entry and exit are represented by the [`BOUNDARY`] pseudo-block, and
//!   a graph may have several entry/exit nodes (different warps may run
//!   different code regions).
//!
//! Aggregating across warps is what keeps the trace size bounded as thread
//! counts grow (the paper's Fig. 5 saturation behaviour).

use owl_stats::transition::BOUNDARY;
use owl_stats::{Histogram, TransitionMatrix};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One A-DCFG node: a basic block plus its dynamic attributes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Node {
    /// `(prev, next)` transition counts — one tuple per visit.
    pub transitions: TransitionMatrix,
    /// Per static instruction index, per visit ordinal `j` (0-based), the
    /// aggregated address histogram `m_j`.
    pub mem: BTreeMap<u32, Vec<Histogram>>,
    /// Per instruction, per visit ordinal, the histogram of per-warp
    /// microarchitectural access costs (coalesced transactions / bank
    /// conflicts). Aggregating addresses across warps loses the per-event
    /// grouping this feature preserves, so it can catch leaks the address
    /// histograms cannot.
    pub cost: BTreeMap<u32, Vec<Histogram>>,
    /// Total visits across all warps.
    pub visits: u64,
}

impl Node {
    /// Merges another node's attributes into this one (warp overlay or
    /// evidence merge — the same aggregation, per the paper).
    pub fn merge(&mut self, other: &Node) {
        self.transitions.merge(&other.transitions);
        self.visits += other.visits;
        for (per_visit, theirs) in [(&mut self.mem, &other.mem), (&mut self.cost, &other.cost)] {
            for (&inst, their) in theirs {
                let ours = per_visit.entry(inst).or_default();
                if ours.len() < their.len() {
                    ours.resize(their.len(), Histogram::new());
                }
                for (j, h) in their.iter().enumerate() {
                    ours[j].merge(h);
                }
            }
        }
    }

    /// Multiplies every count (transitions, visits, histogram bins) by
    /// `k` — bit-identical to merging this node `k` times into an empty
    /// one.
    pub fn scale(&mut self, k: u64) {
        self.transitions.scale(k);
        self.visits *= k;
        for per_visit in self.mem.values_mut().chain(self.cost.values_mut()) {
            for h in per_visit {
                h.scale(k);
            }
        }
    }

    /// Estimated in-memory footprint in bytes (Fig. 5 accounting).
    pub fn size_bytes(&self) -> usize {
        let per_inst = |m: &BTreeMap<u32, Vec<Histogram>>| -> usize {
            m.values()
                .flat_map(|v| v.iter().map(Histogram::size_bytes))
                .sum()
        };
        self.transitions.size_bytes() + per_inst(&self.mem) + per_inst(&self.cost) + 16
    }
}

/// The A-DCFG of one kernel invocation (or of merged evidence).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Adcfg {
    /// Nodes keyed by basic-block id.
    pub nodes: BTreeMap<u32, Node>,
    /// Edge traversal counts, `(src, dst)` with [`BOUNDARY`] as the
    /// entry/exit pseudo-block.
    #[serde(with = "edge_map")]
    pub edges: BTreeMap<(u32, u32), u64>,
}

/// Serialises the tuple-keyed edge map as an entry list so text formats
/// (JSON) can represent it.
mod edge_map {
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::collections::BTreeMap;

    pub fn serialize<S: Serializer>(
        map: &BTreeMap<(u32, u32), u64>,
        ser: S,
    ) -> Result<S::Ok, S::Error> {
        map.iter().collect::<Vec<_>>().serialize(ser)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(
        de: D,
    ) -> Result<BTreeMap<(u32, u32), u64>, D::Error> {
        Ok(Vec::<((u32, u32), u64)>::deserialize(de)?
            .into_iter()
            .collect())
    }
}

impl Adcfg {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// The node for `bb`, if it was ever visited.
    pub fn node(&self, bb: u32) -> Option<&Node> {
        self.nodes.get(&bb)
    }

    /// Number of visited basic blocks.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of distinct edges (including boundary edges).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Traversal count of an edge.
    pub fn edge(&self, src: u32, dst: u32) -> u64 {
        self.edges.get(&(src, dst)).copied().unwrap_or(0)
    }

    /// Entry nodes: blocks reached directly from warp entry.
    pub fn entries(&self) -> impl Iterator<Item = u32> + '_ {
        self.edges
            .iter()
            .filter(|&(&(s, _), _)| s == BOUNDARY)
            .map(|(&(_, d), _)| d)
    }

    /// Exit nodes: blocks from which a warp finished.
    pub fn exits(&self) -> impl Iterator<Item = u32> + '_ {
        self.edges
            .iter()
            .filter(|&(&(_, d), _)| d == BOUNDARY)
            .map(|(&(s, _), _)| s)
    }

    /// Merges another graph into this one — used both to overlay warps and
    /// to fold repeated runs into evidence (paper §VII-A step 2).
    pub fn merge(&mut self, other: &Adcfg) {
        for (&bb, node) in &other.nodes {
            self.nodes.entry(bb).or_default().merge(node);
        }
        for (&e, &c) in &other.edges {
            *self.edges.entry(e).or_insert(0) += c;
        }
    }

    /// Multiplies every node and edge count by `k` — bit-identical to
    /// merging this graph `k` times into an empty one (all counts are
    /// `u64`, so `k` merges and one multiply agree exactly). The evidence
    /// phase uses this to fold `k` bit-identical runs at the cost of one.
    pub fn scale(&mut self, k: u64) {
        if k == 1 {
            return;
        }
        for node in self.nodes.values_mut() {
            node.scale(k);
        }
        if k == 0 {
            self.nodes.clear();
            self.edges.clear();
            return;
        }
        for count in self.edges.values_mut() {
            *count *= k;
        }
    }

    /// Estimated in-memory footprint in bytes — the quantity plotted in the
    /// paper's Fig. 5.
    pub fn size_bytes(&self) -> usize {
        let nodes: usize = self.nodes.values().map(Node::size_bytes).sum();
        nodes + self.edges.len() * 24
    }
}

/// Streaming construction of an [`Adcfg`] from warp-level trace events.
///
/// The builder is the "monitor" of the paper's §V-C: it keeps per-warp
/// context (previous/current block, per-block visit ordinals) and overlays
/// every warp onto the single shared graph. Warps are identified by an
/// opaque `u64` key (the tracer packs CTA id and warp id).
///
/// # Example
///
/// ```
/// use owl_dcfg::graph::AdcfgBuilder;
///
/// let mut b = AdcfgBuilder::new();
/// // Warp 0 walks bb0 → bb1; warp 1 walks bb0 → bb2.
/// b.enter_block(0, 0);
/// b.block_recorder(0).access(0, [0x10]);
/// b.enter_block(0, 1);
/// b.enter_block(1, 0);
/// b.block_recorder(1).access(0, [0x18]);
/// b.enter_block(1, 2);
/// let g = b.finish();
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge(0, 1), 1);
/// assert_eq!(g.edge(0, 2), 1);
/// // Both warps' first-visit accesses to bb0's instruction 0 merged:
/// assert_eq!(g.node(0).unwrap().mem[&0][0].total(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AdcfgBuilder {
    graph: Adcfg,
    warps: BTreeMap<u64, WarpCtx>,
    /// One memory event's lane features, reused across events so that
    /// gathering an event's lanes allocates nothing.
    lanes: Vec<u64>,
}

#[derive(Debug, Clone, Default)]
struct WarpCtx {
    prev: Option<u32>,
    current: Option<u32>,
    /// Visit ordinal per block for this warp (0-based; the ordinal of the
    /// *current* visit is `count - 1`).
    visit_counts: BTreeMap<u32, u32>,
}

impl AdcfgBuilder {
    /// A fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `warp` entered basic block `bb`.
    pub fn enter_block(&mut self, warp: u64, bb: u32) {
        let ctx = self.warps.entry(warp).or_default();
        // Finalise the previous visit: its `next` is now known.
        if let Some(cur) = ctx.current {
            let prev = ctx.prev.unwrap_or(BOUNDARY);
            self.graph
                .nodes
                .entry(cur)
                .or_default()
                .transitions
                .record(prev, bb, 1);
            *self.graph.edges.entry((cur, bb)).or_insert(0) += 1;
        } else {
            *self.graph.edges.entry((BOUNDARY, bb)).or_insert(0) += 1;
        }
        ctx.prev = ctx.current;
        ctx.current = Some(bb);
        let node = self.graph.nodes.entry(bb).or_default();
        node.visits += 1;
        *ctx.visit_counts.entry(bb).or_insert(0) += 1;
    }

    /// A handle for recording the memory events of `warp`'s current
    /// basic-block visit — the builder's only insert path for addresses and
    /// costs. The warp context, node, and visit ordinal are resolved once
    /// and reused for every event, so the tracer records a whole batch
    /// through one handle instead of repeating the map lookups per event.
    ///
    /// # Panics
    ///
    /// Panics if the warp has not entered any block yet — the interpreter
    /// always reports a block entry first.
    pub fn block_recorder(&mut self, warp: u64) -> BlockRecorder<'_> {
        let ctx = self
            .warps
            .get(&warp)
            .expect("memory access before any block entry");
        let bb = ctx.current.expect("memory access before any block entry");
        let j = (ctx.visit_counts[&bb] - 1) as usize;
        let node = self.graph.nodes.entry(bb).or_default();
        BlockRecorder {
            node,
            j,
            lanes: &mut self.lanes,
        }
    }

    /// Finalises all warps and returns the assembled graph: each warp's
    /// last visit records its exit transition to [`BOUNDARY`] and its
    /// exit edge. Every attribute is already sorted, since histograms and
    /// transition matrices keep their bins sorted on every write.
    pub fn finish(mut self) -> Adcfg {
        for ctx in self.warps.values() {
            if let Some(cur) = ctx.current {
                let prev = ctx.prev.unwrap_or(BOUNDARY);
                self.graph
                    .nodes
                    .entry(cur)
                    .or_default()
                    .transitions
                    .record(prev, BOUNDARY, 1);
                *self.graph.edges.entry((cur, BOUNDARY)).or_insert(0) += 1;
            }
        }
        self.graph
    }
}

/// Per-block-visit recording handle returned by
/// [`AdcfgBuilder::block_recorder`]: it files every access and cost under
/// the visit's ordinal in the block's node.
#[derive(Debug)]
pub struct BlockRecorder<'a> {
    node: &'a mut Node,
    j: usize,
    lanes: &'a mut Vec<u64>,
}

impl BlockRecorder<'_> {
    /// Records one memory access at `inst_idx` with per-lane (already
    /// normalised) address values: the lanes are gathered into the
    /// builder's reused buffer and merged into the visit's histogram in
    /// one sorted pass. An access with no lanes still creates the visit's
    /// histogram.
    pub fn access(&mut self, inst_idx: u32, addr_features: impl IntoIterator<Item = u64>) {
        self.lanes.clear();
        self.lanes.extend(addr_features);
        visit_slot(&mut self.node.mem, inst_idx, self.j).record_each(self.lanes);
    }

    /// Records the microarchitectural cost of the access at `inst_idx`.
    pub fn cost(&mut self, inst_idx: u32, cost: u32) {
        visit_slot(&mut self.node.cost, inst_idx, self.j).record(u64::from(cost), 1);
    }
}

/// The histogram of visit ordinal `j` at `inst_idx`, creating it (and any
/// earlier ordinals' empty histograms) on first use.
fn visit_slot(
    per_inst: &mut BTreeMap<u32, Vec<Histogram>>,
    inst_idx: u32,
    j: usize,
) -> &mut Histogram {
    let per_visit = per_inst.entry(inst_idx).or_default();
    if per_visit.len() <= j {
        per_visit.resize(j + 1, Histogram::new());
    }
    &mut per_visit[j]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives one warp through a block sequence.
    fn walk(b: &mut AdcfgBuilder, warp: u64, blocks: &[u32]) {
        for &bb in blocks {
            b.enter_block(warp, bb);
        }
    }

    #[test]
    fn single_warp_linear_path() {
        let mut b = AdcfgBuilder::new();
        walk(&mut b, 0, &[0, 1, 2]);
        let g = b.finish();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge(BOUNDARY, 0), 1);
        assert_eq!(g.edge(0, 1), 1);
        assert_eq!(g.edge(1, 2), 1);
        assert_eq!(g.edge(2, BOUNDARY), 1);
        // Node 1's single visit arrived from 0 and left to 2.
        assert_eq!(g.node(1).unwrap().transitions.count(0, 2), 1);
        assert_eq!(g.entries().collect::<Vec<_>>(), vec![0]);
        assert_eq!(g.exits().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn identical_warps_aggregate_without_growth() {
        // The paper's Fig. 4: warps sharing control flow overlay onto the
        // same nodes/edges, only the counts grow.
        let mut small = AdcfgBuilder::new();
        for w in 0..2 {
            walk(&mut small, w, &[0, 1, 0, 2]);
        }
        let small = small.finish();

        let mut big = AdcfgBuilder::new();
        for w in 0..64 {
            walk(&mut big, w, &[0, 1, 0, 2]);
        }
        let big = big.finish();

        assert_eq!(small.node_count(), big.node_count());
        assert_eq!(small.edge_count(), big.edge_count());
        assert_eq!(big.edge(0, 1), 64);
        assert_eq!(
            small.size_bytes(),
            big.size_bytes(),
            "no growth with warp count"
        );
    }

    #[test]
    fn divergent_warps_create_multiple_entries_and_exits() {
        let mut b = AdcfgBuilder::new();
        walk(&mut b, 0, &[0, 1]);
        walk(&mut b, 1, &[5, 6]);
        let g = b.finish();
        let mut entries: Vec<u32> = g.entries().collect();
        entries.sort_unstable();
        assert_eq!(entries, vec![0, 5]);
        let mut exits: Vec<u32> = g.exits().collect();
        exits.sort_unstable();
        assert_eq!(exits, vec![1, 6]);
    }

    #[test]
    fn loop_revisits_accumulate_transitions() {
        let mut b = AdcfgBuilder::new();
        // 0 → (1 → 2)×3 → 3: block 1 visited thrice with different prevs.
        walk(&mut b, 0, &[0, 1, 2, 1, 2, 1, 2, 3]);
        let g = b.finish();
        let n1 = g.node(1).unwrap();
        assert_eq!(n1.visits, 3);
        assert_eq!(n1.transitions.count(0, 2), 1); // first visit: from 0
        assert_eq!(n1.transitions.count(2, 2), 2); // later visits: from 2
        assert_eq!(g.edge(1, 2), 3);
        assert_eq!(g.edge(2, 1), 2);
    }

    #[test]
    fn per_visit_memory_records_are_separated() {
        let mut b = AdcfgBuilder::new();
        b.enter_block(0, 7);
        b.block_recorder(0).access(0, [0x100]);
        b.enter_block(0, 8);
        b.enter_block(0, 7); // second visit of bb7
        b.block_recorder(0).access(0, [0x200]);
        let g = b.finish();
        let mem = &g.node(7).unwrap().mem[&0];
        assert_eq!(mem.len(), 2, "two visit ordinals");
        assert_eq!(mem[0].count(0x100), 1);
        assert_eq!(mem[0].count(0x200), 0);
        assert_eq!(mem[1].count(0x200), 1);
    }

    #[test]
    fn one_access_equals_its_lanes_recorded_alone() {
        let lane_sets: [(&str, Vec<u64>); 5] = [
            ("ascending", (0..32).map(|l| 0x100 + l * 4).collect()),
            ("descending", (0..32).rev().map(|l| 0x100 + l * 4).collect()),
            (
                "interleaved",
                (0..32).map(|l| 0x100 + (l * 13 % 32) / 2 * 8).collect(),
            ),
            ("broadcast", vec![0x40; 32]),
            ("empty", Vec::new()),
        ];
        // Instruction 2 on the second visit of bb7 already holds bins when
        // the lanes arrive. Instruction 3 gets only the lanes, so its
        // per-visit histograms show what one access creates.
        let build = |lanes: &[u64], alone: bool| {
            let mut b = AdcfgBuilder::new();
            walk(&mut b, 0, &[7, 8, 7]);
            let mut rec = b.block_recorder(0);
            rec.access(2, [0x104, 0x2000]);
            if alone {
                for &lane in lanes {
                    rec.access(2, [lane]);
                }
            } else {
                rec.access(2, lanes.iter().copied());
            }
            rec.access(3, lanes.iter().copied());
            b.finish()
        };
        for (name, lanes) in &lane_sets {
            let whole = build(lanes, false);
            assert_eq!(whole, build(lanes, true), "{name}");
            let per_visit = &whole.node(7).unwrap().mem[&3];
            assert_eq!(per_visit.len(), 2, "{name}: the visit's histogram exists");
            assert_eq!(per_visit[0], Histogram::new());
            assert_eq!(per_visit[1].total(), lanes.len() as u64, "{name}");
        }
    }

    #[test]
    fn cross_warp_same_ordinal_accesses_merge() {
        let mut b = AdcfgBuilder::new();
        for w in 0..4 {
            b.enter_block(w, 3);
            b.block_recorder(w).access(1, [0x40 + w * 8]);
        }
        let g = b.finish();
        let m0 = &g.node(3).unwrap().mem[&1][0];
        assert_eq!(m0.total(), 4);
        assert_eq!(m0.distinct(), 4);
    }

    #[test]
    fn graph_merge_is_count_additive() {
        let build = || {
            let mut b = AdcfgBuilder::new();
            b.enter_block(0, 0);
            b.block_recorder(0).access(0, [1, 2]);
            b.enter_block(0, 1);
            b.finish()
        };
        let a = build();
        let mut m = build();
        m.merge(&a);
        assert_eq!(m.edge(0, 1), 2);
        assert_eq!(m.node(0).unwrap().visits, 2);
        assert_eq!(m.node(0).unwrap().mem[&0][0].total(), 4);
        // Merging equals building from doubled traffic.
        let mut doubled = AdcfgBuilder::new();
        for w in 0..2 {
            doubled.enter_block(w, 0);
            doubled.block_recorder(w).access(0, [1, 2]);
            doubled.enter_block(w, 1);
        }
        assert_eq!(m, doubled.finish());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut b = AdcfgBuilder::new();
        walk(&mut b, 0, &[0, 1]);
        let g = b.finish();
        let mut m = g.clone();
        m.merge(&Adcfg::new());
        assert_eq!(m, g);
    }

    #[test]
    #[should_panic(expected = "before any block entry")]
    fn access_before_entry_panics() {
        let mut b = AdcfgBuilder::new();
        b.block_recorder(0).access(0, [1]);
    }

    #[test]
    fn size_bytes_grows_with_distinct_addresses_only() {
        let repeated = {
            let mut b = AdcfgBuilder::new();
            for w in 0..8 {
                b.enter_block(w, 0);
                b.block_recorder(w).access(0, [0x40]); // all warps hit one address
            }
            b.finish()
        };
        let spread = {
            let mut b = AdcfgBuilder::new();
            for w in 0..8 {
                b.enter_block(w, 0);
                b.block_recorder(w).access(0, [w * 64]); // distinct addresses
            }
            b.finish()
        };
        assert!(spread.size_bytes() > repeated.size_bytes());
    }
}

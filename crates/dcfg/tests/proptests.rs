//! Property-based tests for A-DCFG construction and Myers alignment.

use owl_dcfg::diff::{is_valid_alignment, myers_align, AlignOp};
use owl_dcfg::graph::{Adcfg, AdcfgBuilder};
use proptest::prelude::*;

/// Longest common subsequence length by dynamic programming — the ground
/// truth for Myers optimality.
fn lcs_len(a: &[u8], b: &[u8]) -> usize {
    let mut dp = vec![vec![0usize; b.len() + 1]; a.len() + 1];
    for i in 0..a.len() {
        for j in 0..b.len() {
            dp[i + 1][j + 1] = if a[i] == b[j] {
                dp[i][j] + 1
            } else {
                dp[i][j + 1].max(dp[i + 1][j])
            };
        }
    }
    dp[a.len()][b.len()]
}

fn build_graph(walks: &[Vec<u8>]) -> Adcfg {
    let mut b = AdcfgBuilder::new();
    for (w, walk) in walks.iter().enumerate() {
        for (step, &bb) in walk.iter().enumerate() {
            b.enter_block(w as u64, u32::from(bb));
            // Give every visit a deterministic access pattern.
            b.block_recorder(w as u64)
                .access(0, [u64::from(bb) * 8 + step as u64 % 2]);
        }
    }
    b.finish()
}

proptest! {
    /// Myers alignments are valid covers with equal matched elements and an
    /// optimal (LCS-sized) match count.
    #[test]
    fn myers_is_valid_and_optimal(
        a in prop::collection::vec(0u8..6, 0..24),
        b in prop::collection::vec(0u8..6, 0..24),
    ) {
        let ops = myers_align(&a, &b);
        prop_assert!(is_valid_alignment(&ops, a.len(), b.len()));
        let mut matches = 0;
        for op in &ops {
            if let AlignOp::Match(i, j) = *op {
                prop_assert_eq!(a[i], b[j]);
                matches += 1;
            }
        }
        prop_assert_eq!(matches, lcs_len(&a, &b), "Myers must find an LCS-sized alignment");
    }

    /// Aligning a sequence with itself yields only matches.
    #[test]
    fn myers_self_alignment_is_all_matches(a in prop::collection::vec(0u8..6, 0..32)) {
        let ops = myers_align(&a, &a);
        prop_assert_eq!(ops.len(), a.len());
        prop_assert!(ops.iter().all(|o| matches!(o, AlignOp::Match(..))));
    }

    /// Graph merge is commutative and associative.
    #[test]
    fn graph_merge_commutative_associative(
        wa in prop::collection::vec(prop::collection::vec(0u8..5, 1..12), 1..4),
        wb in prop::collection::vec(prop::collection::vec(0u8..5, 1..12), 1..4),
        wc in prop::collection::vec(prop::collection::vec(0u8..5, 1..12), 1..4),
    ) {
        let (a, b, c) = (build_graph(&wa), build_graph(&wb), build_graph(&wc));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);

        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c, a_bc);
    }

    /// Building one graph from all warps equals merging per-warp graphs —
    /// the aggregation the paper uses to bound trace sizes.
    #[test]
    fn per_warp_merge_equals_joint_build(
        walks in prop::collection::vec(prop::collection::vec(0u8..5, 1..12), 1..6),
    ) {
        let joint = build_graph(&walks);
        let mut merged = Adcfg::new();
        for w in &walks {
            merged.merge(&build_graph(std::slice::from_ref(w)));
        }
        prop_assert_eq!(joint, merged);
    }

    /// Transition-tuple balance: each node's transition count equals its
    /// visit count.
    #[test]
    fn transitions_balance_visits(
        walks in prop::collection::vec(prop::collection::vec(0u8..5, 1..16), 1..5),
    ) {
        let g = build_graph(&walks);
        for (&bb, node) in &g.nodes {
            prop_assert_eq!(
                node.transitions.executions(),
                node.visits,
                "node {} tuple/visit mismatch", bb
            );
        }
    }

    /// Identical warps never grow the structure: size is independent of the
    /// number of identical warps (Fig. 5's plateau).
    #[test]
    fn identical_warps_keep_size_constant(
        walk in prop::collection::vec(0u8..5, 1..16),
        n_small in 1usize..3,
        n_big in 16usize..64,
    ) {
        let small = build_graph(&vec![walk.clone(); n_small]);
        let big = build_graph(&vec![walk.clone(); n_big]);
        prop_assert_eq!(small.size_bytes(), big.size_bytes());
        prop_assert_eq!(small.node_count(), big.node_count());
        prop_assert_eq!(small.edge_count(), big.edge_count());
    }
}

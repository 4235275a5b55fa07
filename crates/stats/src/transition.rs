//! Control-flow transition matrices (paper §VII-C, eqs. (5)–(8)).
//!
//! For a basic block `N` executed `n` times, each execution contributes a
//! `(src, dst)` 2-tuple: the block control came from and the block it left
//! to. The in-degree vector `I` and out-degree vector `O` satisfy
//! `I · A = O` for a transition matrix `A`; the paper constructs the
//! feasible solution by counting each `(src, dst)` pair, then flattens the
//! matrix into the histogram `H_cf` that feeds the KS test.
//!
//! The first basic block of a warp trace has no predecessor and the last
//! has no successor; the paper models these with a special boundary block,
//! here [`BOUNDARY`].
//!
//! Like [`Histogram`](crate::Histogram), the matrix uses the always-sorted
//! storage of the private `pairtable` module: `record` is a binary-search
//! insert, every read borrows the sorted entries, and
//! [`TransitionMatrix::executions`] is a maintained O(1) total.

use crate::pairtable::PairTable;
use crate::samples::WeightedSamples;
use serde::de::DeError;
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::hash::{Hash, Hasher};

/// The pseudo-block that precedes warp entry and follows warp exit.
pub const BOUNDARY: u32 = u32::MAX;

/// Per-node control-flow transition counts.
///
/// # Example
///
/// ```
/// use owl_stats::transition::{TransitionMatrix, BOUNDARY};
///
/// // The node was visited 4 times: 3 times control arrived from warp entry
/// // and left to block 2; once it arrived from block 1 and exited the warp.
/// let mut t = TransitionMatrix::new();
/// t.record(BOUNDARY, 2, 3);
/// t.record(1, BOUNDARY, 1);
/// assert_eq!(t.executions(), 4);
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct TransitionMatrix {
    counts: PairTable<(u32, u32)>,
}

impl TransitionMatrix {
    /// Creates an empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `count` traversals of the `src → dst` transition.
    #[inline]
    pub fn record(&mut self, src: u32, dst: u32, count: u64) {
        self.counts.record((src, dst), count);
    }

    /// The traversal count of a specific transition.
    pub fn count(&self, src: u32, dst: u32) -> u64 {
        self.counts.get((src, dst))
    }

    /// Iterates `((src, dst), count)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = ((u32, u32), u64)> + '_ {
        self.counts.iter()
    }

    /// `true` when no transition has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The number of node executions this matrix describes (eq. (5):
    /// Σ x_i = n). Each execution contributes exactly one `(src, dst)` pair.
    /// Maintained on write; O(1).
    #[inline]
    pub fn executions(&self) -> u64 {
        self.counts.total()
    }

    /// Merges another matrix into this one, summing traversal counts. Used
    /// when overlaying warps onto one A-DCFG node and when merging repeated
    /// runs into evidence.
    pub fn merge(&mut self, other: &TransitionMatrix) {
        self.counts.merge(&other.counts);
    }

    /// Multiplies every traversal count by `k` — bit-identical to merging
    /// this matrix `k` times into an empty one.
    pub fn scale(&mut self, k: u64) {
        self.counts.scale(k);
    }

    /// Flattens the matrix into the `H_cf` histogram (eq. (8)), as weighted
    /// samples: one value per `(src, dst)` pair, encoded by
    /// [`encode_pair`], weighted by the raw traversal count so the KS test
    /// sees true sample sizes.
    pub fn to_samples(&self) -> WeightedSamples {
        // Entries iterate in `(src, dst)` order, which `encode_pair` and
        // `u64 → f64` both preserve, so the sorted path applies (it
        // coalesces the distinct codes that round to one f64 above 2^53).
        WeightedSamples::from_sorted_pairs(
            self.iter().map(|((s, d), c)| (encode_pair(s, d) as f64, c)),
        )
    }

    /// An estimate of the in-memory footprint in bytes (Fig. 5 accounting).
    pub fn size_bytes(&self) -> usize {
        self.counts.distinct() * 16
    }
}

impl fmt::Debug for TransitionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TransitionMatrix")
            .field("counts", &self.counts.bins())
            .finish()
    }
}

impl Hash for TransitionMatrix {
    /// Bit-compatible with the previous `BTreeMap`-backed derive.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.counts.hash(state);
    }
}

impl Serialize for TransitionMatrix {
    /// Serialises exactly like the previous `pair_key_map` form: an entry
    /// list `{"counts": [[[src, dst], count], ...]}` in key order (tuple
    /// keys cannot be JSON object keys).
    fn to_value(&self) -> Value {
        let entries = self
            .counts
            .iter()
            .map(|((s, d), c)| {
                Value::Seq(vec![
                    Value::Seq(vec![s.to_value(), d.to_value()]),
                    c.to_value(),
                ])
            })
            .collect();
        Value::Map(vec![(Value::Str("counts".into()), Value::Seq(entries))])
    }
}

impl<'de> Deserialize<'de> for TransitionMatrix {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let entries = serde::__private::expect_map(value, "TransitionMatrix")?;
        let counts = serde::__private::map_field(entries, "counts")?;
        let pairs = Vec::<((u32, u32), u64)>::from_value(counts)?;
        // Entry lists written by us are sorted and unique, but accept any
        // order by inserting each entry into the sorted table.
        let mut table = PairTable::new();
        for (key, count) in pairs {
            table.record(key, count);
        }
        Ok(TransitionMatrix { counts: table })
    }
}

/// Encodes a `(src, dst)` pair into its `H_cf` sample value, `src << 32 |
/// dst`.
pub fn encode_pair(src: u32, dst: u32) -> u64 {
    (u64::from(src) << 32) | u64::from(dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ks::ks_two_sample;

    #[test]
    fn record_and_count() {
        let mut t = TransitionMatrix::new();
        t.record(1, 2, 3);
        t.record(1, 2, 1);
        assert_eq!(t.count(1, 2), 4);
        assert_eq!(t.count(2, 1), 0);
    }

    #[test]
    fn merge_sums_counts() {
        let mut a = TransitionMatrix::new();
        a.record(1, 2, 1);
        let mut b = TransitionMatrix::new();
        b.record(1, 2, 2);
        b.record(3, 4, 5);
        a.merge(&b);
        assert_eq!(a.count(1, 2), 3);
        assert_eq!(a.count(3, 4), 5);
    }

    #[test]
    fn identical_matrices_pass_ks() {
        let mut t = TransitionMatrix::new();
        t.record(BOUNDARY, 1, 50);
        t.record(1, 2, 30);
        t.record(1, 3, 20);
        let out = ks_two_sample(&t.to_samples(), &t.to_samples(), 0.95);
        assert!(!out.rejected);
    }

    #[test]
    fn empty_merge_is_identity() {
        let mut t = TransitionMatrix::new();
        t.record(BOUNDARY, 1, 2);
        t.record(1, 2, 3);
        let before = t.clone();
        // Empty right-hand side: no-op.
        t.merge(&TransitionMatrix::new());
        assert_eq!(t, before);
        // Empty left-hand side: copies the source.
        let mut lhs = TransitionMatrix::new();
        lhs.merge(&before);
        assert_eq!(lhs, before);
        // Both empty: equal to a fresh matrix.
        let mut both = TransitionMatrix::new();
        both.merge(&TransitionMatrix::new());
        assert!(both.is_empty());
        assert_eq!(both, TransitionMatrix::new());
    }

    #[test]
    fn scale_zero_empties_the_matrix() {
        // scale(k) is merging k times into an empty matrix; k = 0 must be
        // observationally identical to a fresh one.
        let mut t = TransitionMatrix::new();
        t.record(BOUNDARY, 1, 2);
        t.record(1, BOUNDARY, 3);
        t.scale(0);
        assert!(t.is_empty());
        assert_eq!(t.executions(), 0);
        assert_eq!(t.count(BOUNDARY, 1), 0);
        assert_eq!(t, TransitionMatrix::new());
        assert!(t.to_samples().is_empty());
        assert_eq!(t.size_bytes(), 0);
    }

    #[test]
    fn skewed_branch_ratio_fails_ks() {
        // Fixed input: branch taken 95/100; random input: 50/100 — an
        // input-dependent branch inside a warp-visible region.
        let mut fix = TransitionMatrix::new();
        fix.record(1, 2, 95);
        fix.record(1, 3, 5);
        let mut rnd = TransitionMatrix::new();
        rnd.record(1, 2, 50);
        rnd.record(1, 3, 50);
        let out = ks_two_sample(&fix.to_samples(), &rnd.to_samples(), 0.95);
        assert!(out.rejected);
    }

    #[test]
    fn new_edge_under_random_input_fails_ks() {
        let mut fix = TransitionMatrix::new();
        fix.record(1, 2, 100);
        let mut rnd = TransitionMatrix::new();
        rnd.record(1, 2, 60);
        rnd.record(1, 9, 40);
        assert!(ks_two_sample(&fix.to_samples(), &rnd.to_samples(), 0.95).rejected);
    }

    #[test]
    fn executions_counts_node_visits() {
        // 4 visits of the node: 3 arrived from the boundary and left to
        // block 7, one arrived from block 7 and left to the boundary.
        let mut t = TransitionMatrix::new();
        t.record(BOUNDARY, 7, 3);
        t.record(7, BOUNDARY, 1);
        assert_eq!(t.executions(), 4);
    }

    #[test]
    fn serde_bytes_match_entry_list_form() {
        let mut t = TransitionMatrix::new();
        t.record(1, 2, 3);
        t.record(BOUNDARY, 1, 5);
        assert_eq!(
            serde_json::to_string(&t).unwrap(),
            r#"{"counts":[[[1,2],3],[[4294967295,1],5]]}"#
        );
        let back: TransitionMatrix =
            serde_json::from_str(r#"{"counts":[[[1,2],3],[[4294967295,1],5]]}"#).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.executions(), 8);
    }
}

//! Weighted value histograms.
//!
//! The paper's `H_addr` (§VII-C) records, per memory-access instruction, the
//! address offsets on the x-axis and the access counts on the y-axis. A
//! [`Histogram`] is that structure: a map from an integer-valued feature
//! (address offset, transition id, invocation count, …) to a count.
//!
//! Storage is the hybrid append/sorted layout of the private `pairtable`
//! module: `record` lands in a fixed append buffer, reads see the sorted,
//! coalesced bins (the *sorted-on-read* invariant), and the running total
//! is maintained on write so [`Histogram::total`] is O(1). Call
//! [`Histogram::normalize`] after a write burst to make subsequent reads
//! allocation-free; `AdcfgBuilder::finish` does this for every histogram
//! it produced.

use crate::pairtable::PairTable;
use crate::samples::WeightedSamples;
use serde::de::DeError;
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::hash::{Hash, Hasher};

/// A histogram over `u64` feature values with `u64` counts.
///
/// # Example
///
/// ```
/// use owl_stats::Histogram;
///
/// let mut h = Histogram::new();
/// h.record(0x10, 2);
/// h.record(0x10, 1);
/// h.record(0x20, 5);
/// assert_eq!(h.count(0x10), 3);
/// assert_eq!(h.total(), 8);
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    bins: PairTable<u64>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `count` observations of `value`.
    #[inline]
    pub fn record(&mut self, value: u64, count: u64) {
        self.bins.record(value, count);
    }

    /// The count recorded for `value` (zero when absent).
    pub fn count(&self, value: u64) -> u64 {
        self.bins.get(value)
    }

    /// The number of distinct values observed.
    pub fn distinct(&self) -> usize {
        self.bins.distinct()
    }

    /// The total number of observations (maintained on write; O(1)).
    #[inline]
    pub fn total(&self) -> u64 {
        self.bins.total()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Iterates over `(value, count)` bins in increasing value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bins.iter()
    }

    /// Merges another histogram into this one, summing counts per bin.
    ///
    /// This is the aggregation step used when folding warp observations into
    /// an A-DCFG node and when merging repeated runs into evidence.
    pub fn merge(&mut self, other: &Histogram) {
        self.bins.merge(&other.bins);
    }

    /// Folds buffered writes into the sorted bins so later reads borrow
    /// instead of allocating. Purely an optimisation: observable state is
    /// identical before and after.
    pub fn normalize(&mut self) {
        self.bins.normalize();
    }

    /// Multiplies every bin count by `k` — bit-identical to merging this
    /// histogram `k` times into an empty one.
    pub fn scale(&mut self, k: u64) {
        self.bins.scale(k);
    }

    /// Converts the histogram into weighted samples for distribution tests.
    pub fn to_samples(&self) -> WeightedSamples {
        // Bins iterate sorted by value, and `u64 → f64` is monotonic, so
        // the sorted fast path applies (it re-coalesces the rare distinct
        // bins that collapse to one f64 above 2^53).
        WeightedSamples::from_sorted_pairs(self.iter().map(|(v, c)| (v as f64, c)))
    }

    /// An estimate of the in-memory footprint of this histogram in bytes,
    /// used by the Fig. 5 trace-size experiment.
    pub fn size_bytes(&self) -> usize {
        // Each bin stores a (u64, u64) pair; storage overhead is amortised
        // into a constant factor that matches the serialized form.
        self.distinct() * 16
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("bins", &self.bins.snapshot())
            .finish()
    }
}

impl Hash for Histogram {
    /// Bit-compatible with the previous `BTreeMap`-backed derive, so trace
    /// digests computed over histograms are unchanged.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.bins.hash(state);
    }
}

impl Serialize for Histogram {
    /// Serialises exactly like the previous derived form:
    /// `{"bins": {value: count, ...}}` with bins in increasing value order.
    fn to_value(&self) -> Value {
        let bins = self
            .bins
            .snapshot()
            .iter()
            .map(|&(v, c)| (v.to_value(), c.to_value()))
            .collect();
        Value::Map(vec![(Value::Str("bins".into()), Value::Map(bins))])
    }
}

impl<'de> Deserialize<'de> for Histogram {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let entries = serde::__private::expect_map(value, "Histogram")?;
        let bins = serde::__private::map_field(entries, "bins")?;
        // Accepts the map form `{"bins": {v: c}}`; JSON round-trips turn
        // integer keys into strings, which u64::from_value parses back.
        let map = std::collections::BTreeMap::<u64, u64>::from_value(bins)?;
        Ok(Histogram {
            bins: PairTable::from_sorted_pairs(map.into_iter().collect()),
        })
    }
}

impl FromIterator<(u64, u64)> for Histogram {
    fn from_iter<I: IntoIterator<Item = (u64, u64)>>(iter: I) -> Self {
        let mut h = Histogram::new();
        for (v, c) in iter {
            h.record(v, c);
        }
        h
    }
}

impl Extend<(u64, u64)> for Histogram {
    fn extend<I: IntoIterator<Item = (u64, u64)>>(&mut self, iter: I) {
        for (v, c) in iter {
            self.record(v, c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let mut h = Histogram::new();
        h.record(1, 1);
        h.record(1, 2);
        h.record(9, 4);
        assert_eq!(h.count(1), 3);
        assert_eq!(h.count(9), 4);
        assert_eq!(h.count(2), 0);
        assert_eq!(h.distinct(), 2);
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn zero_count_records_nothing() {
        let mut h = Histogram::new();
        h.record(5, 0);
        assert!(h.is_empty());
        assert_eq!(h.size_bytes(), 0);
    }

    #[test]
    fn merge_sums_bins() {
        let a: Histogram = [(1, 1), (2, 2)].into_iter().collect();
        let b: Histogram = [(2, 3), (4, 4)].into_iter().collect();
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.count(1), 1);
        assert_eq!(m.count(2), 5);
        assert_eq!(m.count(4), 4);
    }

    #[test]
    fn merge_is_commutative() {
        let a: Histogram = [(1, 1), (2, 2)].into_iter().collect();
        let b: Histogram = [(2, 3), (4, 4)].into_iter().collect();
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn to_samples_preserves_weights() {
        let h: Histogram = [(3, 2), (1, 5)].into_iter().collect();
        let s = h.to_samples();
        assert_eq!(s.pairs(), &[(1.0, 5), (3.0, 2)]);
    }

    #[test]
    fn iter_is_sorted() {
        let h: Histogram = [(9, 1), (1, 1), (5, 1)].into_iter().collect();
        let values: Vec<u64> = h.iter().map(|(v, _)| v).collect();
        assert_eq!(values, vec![1, 5, 9]);
    }

    #[test]
    fn normalize_preserves_observable_state() {
        let mut buffered: Histogram = (0..50).map(|i| (i % 13, 1 + i % 3)).collect();
        let mut normalized = buffered.clone();
        normalized.normalize();
        assert_eq!(buffered, normalized);
        assert_eq!(
            buffered.iter().collect::<Vec<_>>(),
            normalized.iter().collect::<Vec<_>>()
        );
        assert_eq!(
            serde_json::to_string(&buffered).unwrap(),
            serde_json::to_string(&normalized).unwrap()
        );
        buffered.normalize();
        assert_eq!(buffered, normalized);
    }

    #[test]
    fn empty_merge_is_identity() {
        let h: Histogram = [(1, 2), (7, 3)].into_iter().collect();
        // Empty right-hand side: no-op.
        let mut lhs = h.clone();
        lhs.merge(&Histogram::new());
        assert_eq!(lhs, h);
        // Empty left-hand side: copies the source.
        let mut rhs = Histogram::new();
        rhs.merge(&h);
        assert_eq!(rhs, h);
        // Both empty: still empty, still equal to a fresh histogram.
        let mut both = Histogram::new();
        both.merge(&Histogram::new());
        assert!(both.is_empty());
        assert_eq!(both, Histogram::new());
        assert_eq!(both.size_bytes(), 0);
    }

    #[test]
    fn scale_zero_empties_the_histogram() {
        // scale(k) is merging k times into an empty histogram; k = 0 is
        // the empty merge — observationally indistinguishable from new().
        let mut h: Histogram = [(1, 2), (7, 3)].into_iter().collect();
        h.scale(0);
        assert!(h.is_empty());
        assert_eq!(h.total(), 0);
        assert_eq!(h.distinct(), 0);
        assert_eq!(h.count(1), 0);
        assert_eq!(h, Histogram::new());
        assert_eq!(
            serde_json::to_string(&h).unwrap(),
            serde_json::to_string(&Histogram::new()).unwrap()
        );
        assert!(h.to_samples().is_empty());
    }

    #[test]
    fn serde_bytes_match_btreemap_form() {
        let h: Histogram = [(2, 7), (1, 3)].into_iter().collect();
        assert_eq!(
            serde_json::to_string(&h).unwrap(),
            r#"{"bins":{"1":3,"2":7}}"#
        );
        let back: Histogram = serde_json::from_str(r#"{"bins":{"1":3,"2":7}}"#).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.total(), 10);
    }
}

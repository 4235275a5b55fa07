//! Leakage quantification: mutual information between the input class and
//! an observed feature.
//!
//! Owl's KS test answers *whether* a feature is input-dependent; tools
//! like CacheQL (cited as ref. \[17\] of the paper) additionally ask *how
//! much* leaks. With two balanced observation classes — fixed-input runs
//! and random-input runs — the mutual information between the class
//! indicator `C ∈ {fix, rnd}` and the feature `F` is
//!
//! ```text
//! I(C; F) = H(½·P_fix + ½·P_rnd) − ½·H(P_fix) − ½·H(P_rnd)
//! ```
//!
//! which ranges from 0 bits (identical distributions — nothing to learn)
//! to 1 bit (disjoint supports — one observation pins the class). It is
//! the Jensen–Shannon divergence of the two distributions.

use crate::samples::WeightedSamples;
use std::collections::BTreeMap;

/// Shannon entropy (bits) of a normalised distribution given as counts.
fn entropy_bits<'a>(counts: impl Iterator<Item = &'a f64>, total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    counts
        .filter(|&&c| c > 0.0)
        .map(|&c| {
            let p = c / total;
            -p * p.log2()
        })
        .sum()
}

/// The support-point key of a sample value: its bit pattern, with `-0.0`
/// canonicalised to `+0.0` so values that compare equal under `==` (the
/// coalescing rule of [`WeightedSamples`]) never split into two support
/// points across the two sides.
fn support_key(v: f64) -> u64 {
    if v == 0.0 {
        0.0f64.to_bits()
    } else {
        v.to_bits()
    }
}

/// Mutual information, in bits, between a balanced binary class variable
/// and the feature with per-class sample sets `x` and `y`.
///
/// Classes are weighted equally (the detector draws the same number of
/// fixed and random runs), so each sample set is normalised before mixing
/// — sample-count imbalance does not bias the estimate.
///
/// Returns 0 when either side is empty (nothing observable) unless exactly
/// one side is empty *and* the other is not, which is a present-vs-absent
/// feature and yields the full 1 bit.
///
/// # Example
///
/// ```
/// use owl_stats::mi::class_mi_bits;
/// use owl_stats::WeightedSamples;
///
/// let x = WeightedSamples::from_values([1.0, 2.0]);
/// let y = WeightedSamples::from_values([10.0, 20.0]);
/// assert_eq!(class_mi_bits(&x, &y), 1.0); // disjoint: 1 full bit
/// assert_eq!(class_mi_bits(&x, &x), 0.0); // identical: nothing leaks
/// ```
pub fn class_mi_bits(x: &WeightedSamples, y: &WeightedSamples) -> f64 {
    match (x.is_empty(), y.is_empty()) {
        (true, true) => return 0.0,
        (true, false) | (false, true) => return 1.0,
        (false, false) => {}
    }
    let (nx, ny) = (x.total_weight() as f64, y.total_weight() as f64);
    // Normalised per-class distributions over the union of support points.
    let mut px: BTreeMap<u64, f64> = BTreeMap::new();
    let mut py: BTreeMap<u64, f64> = BTreeMap::new();
    for &(v, w) in x.pairs() {
        *px.entry(support_key(v)).or_insert(0.0) += w as f64 / nx;
    }
    for &(v, w) in y.pairs() {
        *py.entry(support_key(v)).or_insert(0.0) += w as f64 / ny;
    }
    let support: std::collections::BTreeSet<u64> = px.keys().chain(py.keys()).copied().collect();
    let mix: Vec<f64> = support
        .iter()
        .map(|k| 0.5 * px.get(k).copied().unwrap_or(0.0) + 0.5 * py.get(k).copied().unwrap_or(0.0))
        .collect();
    let h_mix = entropy_bits(mix.iter(), mix.iter().sum());
    let h_x = entropy_bits(px.values(), 1.0);
    let h_y = entropy_bits(py.values(), 1.0);
    (h_mix - 0.5 * h_x - 0.5 * h_y).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_distributions_leak_nothing() {
        let x = WeightedSamples::from_pairs([(1.0, 3), (2.0, 5)]);
        assert_eq!(class_mi_bits(&x, &x), 0.0);
        // Weight scaling does not matter.
        let scaled = WeightedSamples::from_pairs([(1.0, 6), (2.0, 10)]);
        assert!(class_mi_bits(&x, &scaled).abs() < 1e-12);
    }

    #[test]
    fn disjoint_supports_leak_one_bit() {
        let x = WeightedSamples::from_values([1.0, 2.0, 3.0]);
        let y = WeightedSamples::from_values([10.0, 20.0]);
        assert!((class_mi_bits(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_overlap_leaks_partially() {
        // x is always 0; y is 0 half the time and 1 half the time.
        // JS divergence = H(mix) - ½H(x) - ½H(y)
        //   mix = {0: 0.75, 1: 0.25} → H ≈ 0.8113
        //   H(x) = 0, H(y) = 1 → MI ≈ 0.3113 bits.
        let x = WeightedSamples::from_pairs([(0.0, 10)]);
        let y = WeightedSamples::from_pairs([(0.0, 5), (1.0, 5)]);
        let mi = class_mi_bits(&x, &y);
        assert!((mi - 0.3113).abs() < 1e-3, "{mi}");
    }

    #[test]
    fn present_vs_absent_is_maximal() {
        let x = WeightedSamples::from_values([4.0]);
        assert_eq!(class_mi_bits(&x, &WeightedSamples::new()), 1.0);
        assert_eq!(class_mi_bits(&WeightedSamples::new(), &x), 1.0);
        assert_eq!(
            class_mi_bits(&WeightedSamples::new(), &WeightedSamples::new()),
            0.0
        );
    }

    #[test]
    fn symmetry() {
        let x = WeightedSamples::from_pairs([(0.0, 7), (3.0, 2)]);
        let y = WeightedSamples::from_pairs([(0.0, 2), (5.0, 9)]);
        assert!((class_mi_bits(&x, &y) - class_mi_bits(&y, &x)).abs() < 1e-12);
    }

    #[test]
    fn singleton_samples_are_well_defined() {
        // One observation per side: identical values leak nothing,
        // distinct values are disjoint supports and leak the full bit.
        let a = WeightedSamples::from_values([7.0]);
        let b = WeightedSamples::from_values([9.0]);
        assert_eq!(class_mi_bits(&a, &a), 0.0);
        assert!((class_mi_bits(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn negative_zero_matches_positive_zero() {
        // -0.0 == 0.0 under the coalescing rule of WeightedSamples; the
        // estimator must not split them into two support points.
        let pos = WeightedSamples::from_pairs([(0.0, 5)]);
        let neg = WeightedSamples::from_pairs([(-0.0, 5)]);
        assert_eq!(class_mi_bits(&pos, &neg), 0.0);
    }

    #[test]
    fn merge_then_compare_equals_compare_of_merged() {
        // Building one side from incrementally merged halves must yield
        // bit-identical MI to building it in one shot: the estimator is a
        // pure function of the weighted multiset.
        let half_a = WeightedSamples::from_pairs([(0.0, 3), (1.0, 2)]);
        let half_b = WeightedSamples::from_pairs([(1.0, 4), (2.0, 1)]);
        let mut merged = half_a.clone();
        merged.merge(&half_b);
        let oneshot = WeightedSamples::from_pairs([(0.0, 3), (1.0, 6), (2.0, 1)]);
        assert_eq!(merged, oneshot);
        let other = WeightedSamples::from_pairs([(0.0, 8), (3.0, 2)]);
        assert_eq!(
            class_mi_bits(&merged, &other).to_bits(),
            class_mi_bits(&oneshot, &other).to_bits()
        );
    }

    #[test]
    fn estimate_is_clamped_to_unit_interval() {
        let x = WeightedSamples::from_pairs([(0.0, 1), (1.0, 1), (2.0, 1)]);
        let y = WeightedSamples::from_pairs([(10.0, 1), (11.0, 1)]);
        let mi = class_mi_bits(&x, &y);
        assert!((0.0..=1.0).contains(&mi), "{mi}");
    }

    #[test]
    fn more_distinguishable_leaks_more() {
        let x = WeightedSamples::from_pairs([(0.0, 10)]);
        let slightly = WeightedSamples::from_pairs([(0.0, 8), (1.0, 2)]);
        let very = WeightedSamples::from_pairs([(0.0, 2), (1.0, 8)]);
        assert!(class_mi_bits(&x, &slightly) < class_mi_bits(&x, &very));
    }
}

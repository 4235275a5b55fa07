//! Weighted sample collections.
//!
//! Owl's trace features are naturally *weighted*: a memory-address histogram
//! stores `(offset, access count)` pairs, and a control-flow histogram stores
//! `(transition id, traversal count)` pairs. Expanding counts into repeated
//! raw samples would defeat the paper's scalability goal, so every statistic
//! in this crate operates on [`WeightedSamples`] directly.

use std::cmp::Ordering;

/// A multiset of real-valued observations with integer multiplicities.
///
/// The sample values are kept sorted, which lets the two-sample statistics
/// read both sides in one merge walk.
///
/// # Example
///
/// ```
/// use owl_stats::WeightedSamples;
///
/// let s = WeightedSamples::from_pairs([(2.0, 3), (1.0, 1)]);
/// assert_eq!(s.total_weight(), 4);
/// assert_eq!(s.pairs(), &[(1.0, 1), (2.0, 3)]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WeightedSamples {
    /// Sorted by value; weights are strictly positive.
    pairs: Vec<(f64, u64)>,
    total: u64,
}

impl WeightedSamples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a sample set from `(value, weight)` pairs.
    ///
    /// Pairs with zero weight are dropped; duplicate values are coalesced.
    ///
    /// # Panics
    ///
    /// Panics if any value is NaN — NaN has no place in an empirical
    /// distribution and would poison every downstream comparison.
    pub fn from_pairs<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (f64, u64)>,
    {
        let mut v: Vec<(f64, u64)> = pairs.into_iter().filter(|&(_, w)| w > 0).collect();
        assert!(
            v.iter().all(|(x, _)| !x.is_nan()),
            "NaN sample value in WeightedSamples"
        );
        v.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN after assert"));
        let mut coalesced: Vec<(f64, u64)> = Vec::with_capacity(v.len());
        for (x, w) in v {
            match coalesced.last_mut() {
                Some(last) if last.0 == x => last.1 += w,
                _ => coalesced.push((x, w)),
            }
        }
        let total = coalesced.iter().map(|&(_, w)| w).sum();
        Self {
            pairs: coalesced,
            total,
        }
    }

    /// Builds a sample set of unit-weight observations.
    pub fn from_values<I>(values: I) -> Self
    where
        I: IntoIterator<Item = f64>,
    {
        Self::from_pairs(values.into_iter().map(|x| (x, 1)))
    }

    /// Builds a sample set from pairs already sorted by non-decreasing
    /// value — a single coalescing pass, skipping [`Self::from_pairs`]'s
    /// sort. Histograms iterate in increasing bin order, so their
    /// conversion (the analysis phase's hottest allocation) uses this.
    ///
    /// # Panics
    ///
    /// Panics if any value is NaN; debug builds also assert sortedness.
    pub fn from_sorted_pairs<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (f64, u64)>,
    {
        let iter = pairs.into_iter();
        let mut coalesced: Vec<(f64, u64)> = Vec::with_capacity(iter.size_hint().0);
        let mut total = 0u64;
        for (x, w) in iter {
            assert!(!x.is_nan(), "NaN sample value in WeightedSamples");
            debug_assert!(
                coalesced.last().is_none_or(|&(prev, _)| prev <= x),
                "from_sorted_pairs requires non-decreasing values"
            );
            if w == 0 {
                continue;
            }
            total += w;
            match coalesced.last_mut() {
                Some(last) if last.0 == x => last.1 += w,
                _ => coalesced.push((x, w)),
            }
        }
        Self {
            pairs: coalesced,
            total,
        }
    }

    /// The distinct sample values with their multiplicities, sorted by value.
    pub fn pairs(&self) -> &[(f64, u64)] {
        &self.pairs
    }

    /// Total multiplicity (the `n` that enters the KS threshold).
    pub fn total_weight(&self) -> u64 {
        self.total
    }

    /// `true` when no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The weighted mean of the observations, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let sum: f64 = self.pairs.iter().map(|&(x, w)| x * w as f64).sum();
        Some(sum / self.total as f64)
    }

    /// The weighted (population) variance, or `None` when empty.
    pub fn variance(&self) -> Option<f64> {
        let mean = self.mean()?;
        let ss: f64 = self
            .pairs
            .iter()
            .map(|&(x, w)| (x - mean).powi(2) * w as f64)
            .sum();
        Some(ss / self.total as f64)
    }
}

/// The merge walk over two supports sorted by the same increasing order:
/// yields `(x weight, y weight)` for each point of their union, in that
/// order, with weight 0 on a side that lacks the point. Values equal under
/// `==` are one point (`-0.0` meets `0.0`, as [`WeightedSamples`]
/// coalesces them) and advance both sides. The two-sample statistics read
/// their inputs only through this walk.
pub(crate) fn merge_walk<X, Y>(x: X, y: Y) -> impl Iterator<Item = (u64, u64)> + Clone
where
    X: Iterator<Item = (f64, u64)> + Clone,
    Y: Iterator<Item = (f64, u64)> + Clone,
{
    let (mut x, mut y) = (x.peekable(), y.peekable());
    std::iter::from_fn(move || {
        let order = match (x.peek(), y.peek()) {
            (None, None) => return None,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some(a), Some(b)) => a.0.partial_cmp(&b.0).expect("no NaN in WeightedSamples"),
        };
        Some((
            x.next_if(|_| order.is_le()).map_or(0, |p| p.1),
            y.next_if(|_| order.is_ge()).map_or(0, |p| p.1),
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesces_duplicates_and_sorts() {
        let s = WeightedSamples::from_pairs([(3.0, 2), (1.0, 1), (3.0, 5), (2.0, 0)]);
        assert_eq!(s.pairs(), &[(1.0, 1), (3.0, 7)]);
        assert_eq!(s.total_weight(), 8);
    }

    #[test]
    fn empty_statistics_are_none() {
        let s = WeightedSamples::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), None);
        assert_eq!(s.variance(), None);
    }

    #[test]
    fn mean_and_variance_match_hand_computation() {
        // Observations: 1, 1, 4 → mean 2, variance ((1-2)^2*2 + (4-2)^2)/3 = 2
        let s = WeightedSamples::from_pairs([(1.0, 2), (4.0, 1)]);
        assert_eq!(s.mean(), Some(2.0));
        assert_eq!(s.variance(), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_values_are_rejected() {
        let _ = WeightedSamples::from_values([f64::NAN]);
    }

    #[test]
    fn from_values_gives_unit_weights() {
        let s = WeightedSamples::from_values([2.0, 2.0, 1.0]);
        assert_eq!(s.pairs(), &[(1.0, 1), (2.0, 2)]);
    }
}

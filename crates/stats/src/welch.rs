//! Welch's unequal-variance t-test.
//!
//! Prior side-channel leakage work (TVLA, dudect — refs. \[69\], \[70\] of the
//! paper) uses Welch's t-test to compare fixed-vs-random trace populations.
//! Owl replaces it with the KS test because trace features are rarely
//! normally distributed; this module keeps the t-test available as the
//! baseline for the ablation benchmark (`ablation_welch_vs_ks`).

use crate::samples::WeightedSamples;
use serde::{Deserialize, Serialize};

/// The outcome of a Welch's t-test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WelchOutcome {
    /// The t statistic.
    pub statistic: f64,
    /// Welch–Satterthwaite degrees of freedom.
    pub degrees_of_freedom: f64,
    /// Whether |t| exceeds `threshold`.
    pub rejected: bool,
    /// Decision threshold on |t| (TVLA convention uses 4.5).
    pub threshold: f64,
}

impl WelchOutcome {
    /// A comparable two-sided p-value from the normal approximation
    /// `2·Φ̄(|t|)`, clamped to 1.
    ///
    /// TVLA decides on the raw |t| threshold, not on a p-value; this
    /// approximation exists so t-test outcomes can be *ranked* against KS
    /// outcomes in reports. The standard-normal survival function uses
    /// Abramowitz–Stegun 26.2.17 (absolute error < 7.5e-8), which is more
    /// than enough for ranking.
    pub fn approx_p_value(&self) -> f64 {
        (2.0 * normal_sf(self.statistic)).min(1.0)
    }
}

/// Survival function of the standard normal on `|x|`,
/// Abramowitz–Stegun 26.2.17.
fn normal_sf(x: f64) -> f64 {
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.2316419 * x);
    let poly = t
        * (0.319381530
            + t * (-0.356563782 + t * (1.781477937 + t * (-1.821255978 + t * 1.330274429))));
    (1.0 / (2.0 * std::f64::consts::PI).sqrt()) * (-x * x / 2.0).exp() * poly
}

/// Runs Welch's t-test with an absolute-t decision threshold.
///
/// The TVLA methodology rejects when `|t| > 4.5`; pass that as `threshold`
/// for a faithful baseline. Samples with fewer than two observations, or
/// with zero variance on both sides and equal means, yield a non-rejection;
/// zero variance on both sides with *different* means is an exact
/// separation and rejects.
///
/// # Example
///
/// ```
/// use owl_stats::{welch_t_test, WeightedSamples};
///
/// let x = WeightedSamples::from_values((0..100).map(f64::from));
/// let y = WeightedSamples::from_values((0..100).map(|v| f64::from(v) + 50.0));
/// assert!(welch_t_test(&x, &y, 4.5).rejected);
/// ```
pub fn welch_t_test(x: &WeightedSamples, y: &WeightedSamples, threshold: f64) -> WelchOutcome {
    let accept = |t: f64, df: f64| WelchOutcome {
        statistic: t,
        degrees_of_freedom: df,
        rejected: false,
        threshold,
    };
    let (n, m) = (x.total_weight() as f64, y.total_weight() as f64);
    if n < 2.0 || m < 2.0 {
        return accept(0.0, 0.0);
    }
    let (mx, my) = (x.mean().expect("n >= 2"), y.mean().expect("m >= 2"));
    // Unbiased sample variances from the population variances.
    let vx = x.variance().expect("n >= 2") * n / (n - 1.0);
    let vy = y.variance().expect("m >= 2") * m / (m - 1.0);
    let se2 = vx / n + vy / m;
    if se2 == 0.0 {
        return if mx == my {
            accept(0.0, n + m - 2.0)
        } else {
            WelchOutcome {
                statistic: f64::INFINITY,
                degrees_of_freedom: n + m - 2.0,
                rejected: true,
                threshold,
            }
        };
    }
    let t = (mx - my) / se2.sqrt();
    let df = se2 * se2 / ((vx / n).powi(2) / (n - 1.0) + (vy / m).powi(2) / (m - 1.0));
    WelchOutcome {
        statistic: t,
        degrees_of_freedom: df,
        rejected: t.abs() > threshold,
        threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TVLA: f64 = 4.5;

    #[test]
    fn identical_samples_accept() {
        let x = WeightedSamples::from_values((0..50).map(f64::from));
        let out = welch_t_test(&x, &x, TVLA);
        assert_eq!(out.statistic, 0.0);
        assert!(!out.rejected);
    }

    #[test]
    fn shifted_means_reject() {
        let x = WeightedSamples::from_values((0..100).map(f64::from));
        let y = WeightedSamples::from_values((0..100).map(|v| f64::from(v) + 60.0));
        assert!(welch_t_test(&x, &y, TVLA).rejected);
    }

    #[test]
    fn tiny_samples_never_reject() {
        let x = WeightedSamples::from_values([0.0]);
        let y = WeightedSamples::from_values([100.0]);
        assert!(!welch_t_test(&x, &y, TVLA).rejected);
    }

    #[test]
    fn constant_equal_samples_accept() {
        let x = WeightedSamples::from_pairs([(5.0, 10)]);
        let y = WeightedSamples::from_pairs([(5.0, 12)]);
        assert!(!welch_t_test(&x, &y, TVLA).rejected);
    }

    #[test]
    fn constant_unequal_samples_reject() {
        let x = WeightedSamples::from_pairs([(5.0, 10)]);
        let y = WeightedSamples::from_pairs([(6.0, 10)]);
        let out = welch_t_test(&x, &y, TVLA);
        assert!(out.rejected);
        assert!(out.statistic.is_infinite());
    }

    #[test]
    fn t_statistic_matches_hand_computation() {
        // X = {1,2,3,4,5}: mean 3, s² 2.5. Y = {2,3,4,5,6}: mean 4, s² 2.5.
        // t = (3-4)/sqrt(2.5/5 + 2.5/5) = -1.
        let x = WeightedSamples::from_values([1.0, 2.0, 3.0, 4.0, 5.0]);
        let y = WeightedSamples::from_values([2.0, 3.0, 4.0, 5.0, 6.0]);
        let out = welch_t_test(&x, &y, TVLA);
        assert!((out.statistic + 1.0).abs() < 1e-12);
        assert!((out.degrees_of_freedom - 8.0).abs() < 1e-9);
        assert!(!out.rejected);
    }

    #[test]
    fn empty_and_singleton_samples_never_reject() {
        let empty = WeightedSamples::new();
        let single = WeightedSamples::from_values([42.0]);
        let many = WeightedSamples::from_values((0..20).map(f64::from));
        for (x, y) in [
            (&empty, &empty),
            (&empty, &many),
            (&single, &many),
            (&single, &single),
        ] {
            let out = welch_t_test(x, y, TVLA);
            assert!(!out.rejected, "{out:?}");
            assert_eq!(out.statistic, 0.0);
        }
    }

    #[test]
    fn identical_distributions_stay_below_threshold() {
        // Same multiset on both sides, regardless of how it was built:
        // t is exactly 0.
        let a = WeightedSamples::from_pairs([(1.0, 4), (5.0, 2), (9.0, 3)]);
        let b = WeightedSamples::from_pairs([(9.0, 3), (5.0, 2), (1.0, 4)]);
        let out = welch_t_test(&a, &b, TVLA);
        assert_eq!(out.statistic, 0.0);
        assert!(!out.rejected);
    }

    #[test]
    fn merge_then_compare_equals_compare_of_merged() {
        // The t-test is a pure function of the weighted multisets: a side
        // assembled by incremental merges gives a bit-identical outcome to
        // the same side built in one shot.
        let mut merged = WeightedSamples::from_pairs([(0.0, 5), (2.0, 1)]);
        merged.merge(&WeightedSamples::from_pairs([(2.0, 3), (4.0, 2)]));
        let oneshot = WeightedSamples::from_pairs([(0.0, 5), (2.0, 4), (4.0, 2)]);
        assert_eq!(merged, oneshot);
        let other = WeightedSamples::from_values((0..30).map(|v| f64::from(v) * 3.0));
        let a = welch_t_test(&merged, &other, TVLA);
        let b = welch_t_test(&oneshot, &other, TVLA);
        assert_eq!(a.statistic.to_bits(), b.statistic.to_bits());
        assert_eq!(
            a.degrees_of_freedom.to_bits(),
            b.degrees_of_freedom.to_bits()
        );
        assert_eq!(a.rejected, b.rejected);
    }

    #[test]
    fn approx_p_value_ranks_evidence() {
        let x = WeightedSamples::from_values((0..100).map(f64::from));
        let same = welch_t_test(&x, &x, TVLA);
        assert!(same.approx_p_value() > 0.999, "{}", same.approx_p_value());
        let y = WeightedSamples::from_values((0..100).map(|v| f64::from(v) + 60.0));
        let shifted = welch_t_test(&x, &y, TVLA);
        assert!(shifted.approx_p_value() < 1e-6);
        let exact = WelchOutcome {
            statistic: f64::INFINITY,
            degrees_of_freedom: 1.0,
            rejected: true,
            threshold: TVLA,
        };
        assert_eq!(exact.approx_p_value(), 0.0);
    }

    #[test]
    fn welch_misses_equal_mean_distribution_change_that_ks_catches() {
        // A bimodal vs unimodal pair with equal means: Welch accepts, KS
        // rejects. This is the motivating case for the paper's KS choice.
        let bimodal =
            WeightedSamples::from_pairs((0..200).map(|i| (if i % 2 == 0 { 0.0 } else { 10.0 }, 1)));
        let unimodal = WeightedSamples::from_pairs([(5.0, 200)]);
        assert!(!welch_t_test(&bimodal, &unimodal, TVLA).rejected);
        assert!(crate::ks::ks_two_sample(&bimodal, &unimodal, 0.95).rejected);
    }
}

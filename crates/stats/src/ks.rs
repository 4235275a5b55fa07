//! Two-sample Kolmogorov–Smirnov test.
//!
//! Implements equations (2)–(4) of the Owl paper. The null hypothesis is
//! that the fixed-input sample `X` and random-input sample `Y` are drawn
//! from the same distribution, i.e. the observed trace differences stem
//! from non-deterministic execution noise rather than from the input. A
//! rejected test is evidence of an input-dependent difference — a leak.

use crate::samples::{merge_walk, WeightedSamples};

/// The outcome of a two-sample KS test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsOutcome {
    /// The KS statistic `D = sup_t |F_X(t) − F_Y(t)|` (eq. 2).
    pub statistic: f64,
    /// The significance threshold `D_{n,m}` for the requested confidence
    /// level (eq. 3). The null hypothesis is rejected when
    /// `statistic > threshold`.
    pub threshold: f64,
    /// The asymptotic p-value `2·exp(−2·D²·nm/(n+m))` (eq. 4), clamped to 1.
    pub p_value: f64,
    /// Effective size of the first sample.
    pub n: u64,
    /// Effective size of the second sample.
    pub m: u64,
    /// Whether the null hypothesis ("same distribution") was rejected at the
    /// requested confidence level, i.e. `p_value < 1 − alpha`.
    pub rejected: bool,
}

impl KsOutcome {
    /// An outcome representing two identical (or both-empty) samples — the
    /// strongest possible non-rejection.
    ///
    /// When both sample sizes are positive the reported `threshold` is the
    /// real eq. (3) value for `(n, m, alpha)`, so identical-sample outcomes
    /// stay comparable with computed ones in reports; only when a sample is
    /// empty (the threshold is undefined) does it fall back to
    /// `f64::INFINITY`.
    pub fn identical(n: u64, m: u64, alpha: f64) -> Self {
        let threshold = if n > 0 && m > 0 {
            ks_threshold(n as f64, m as f64, 1.0 - alpha)
        } else {
            f64::INFINITY
        };
        Self {
            statistic: 0.0,
            threshold,
            p_value: 1.0,
            n,
            m,
            rejected: false,
        }
    }
}

/// Eq. (3): `D_{n,m} = sqrt(-ln(sig / 2) / 2) * sqrt((n+m)/(n*m))`, with
/// `sig` the significance level (1 − confidence).
fn ks_threshold(n: f64, m: f64, sig: f64) -> f64 {
    (-((sig / 2.0).ln()) / 2.0).sqrt() * ((n + m) / (n * m)).sqrt()
}

/// Runs the two-sample KS test of the paper's §VII-B.
///
/// `alpha` is the confidence level in `(0, 1)` (the paper uses 0.95). The
/// test rejects when the p-value falls below `1 − alpha`.
///
/// Degenerate inputs follow the paper's semantics of "compare evidence":
/// if both samples are empty they are trivially identical (no rejection);
/// if exactly one is empty, the feature exists under one input class but not
/// the other, which is a maximal deviation and is reported as rejected with
/// `statistic = 1`.
///
/// # Panics
///
/// Panics if `alpha` is not strictly between 0 and 1.
///
/// # Example
///
/// ```
/// use owl_stats::{ks_two_sample, WeightedSamples};
///
/// let x = WeightedSamples::from_values((0..100).map(f64::from));
/// let y = WeightedSamples::from_values((0..100).map(|v| f64::from(v) + 80.0));
/// let out = ks_two_sample(&x, &y, 0.95);
/// assert!(out.rejected);
/// ```
pub fn ks_two_sample(x: &WeightedSamples, y: &WeightedSamples, alpha: f64) -> KsOutcome {
    assert!(
        alpha > 0.0 && alpha < 1.0,
        "confidence level must be in (0, 1), got {alpha}"
    );
    let (n, m) = (x.total_weight(), y.total_weight());
    match (x.is_empty(), y.is_empty()) {
        (true, true) => return KsOutcome::identical(0, 0, alpha),
        (true, false) | (false, true) => {
            // Present-vs-absent feature: maximal deviation by convention.
            return KsOutcome {
                statistic: 1.0,
                threshold: 0.0,
                p_value: 0.0,
                n,
                m,
                rejected: true,
            };
        }
        (false, false) => {}
    }

    let (nf, mf) = (n as f64, m as f64);
    // Eq. (2): D = sup_t |F_X(t) − F_Y(t)|, with F the ECDF of eq. (1).
    // Both are right-continuous step functions, so the supremum is attained
    // at a point of the union of the supports.
    let (mut cx, mut cy) = (0u64, 0u64);
    let d = merge_walk(x.pairs().iter().copied(), y.pairs().iter().copied())
        .map(|(wx, wy)| {
            cx += wx;
            cy += wy;
            (cx as f64 / nf - cy as f64 / mf).abs()
        })
        .fold(0.0, f64::max);
    let sig = 1.0 - alpha;
    let threshold = ks_threshold(nf, mf, sig);
    // Eq. (4): p = 2 * exp(-2 D^2 * nm / (n+m)).
    let p_value = (2.0 * (-2.0 * d * d * (nf * mf) / (nf + mf)).exp()).min(1.0);
    KsOutcome {
        statistic: d,
        threshold,
        p_value,
        n,
        m,
        rejected: p_value < sig,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    const ALPHA: f64 = 0.95;

    #[test]
    fn identical_samples_accept() {
        let x = WeightedSamples::from_values((0..50).map(f64::from));
        let out = ks_two_sample(&x, &x, ALPHA);
        assert_eq!(out.statistic, 0.0);
        assert_eq!(out.p_value, 1.0);
        assert!(!out.rejected);
    }

    #[test]
    fn disjoint_samples_reject() {
        let x = WeightedSamples::from_values((0..50).map(f64::from));
        let y = WeightedSamples::from_values((100..150).map(f64::from));
        let out = ks_two_sample(&x, &y, ALPHA);
        assert_eq!(out.statistic, 1.0);
        assert!(out.rejected);
    }

    #[test]
    fn small_disjoint_samples_do_not_reject() {
        // With n = m = 2 even a perfect separation is not significant:
        // p = 2·exp(-2·1·(4/4)) = 2·e^(-2) ≈ 0.27 > 0.05.
        let x = WeightedSamples::from_values([0.0, 1.0]);
        let y = WeightedSamples::from_values([10.0, 11.0]);
        let out = ks_two_sample(&x, &y, ALPHA);
        assert!(!out.rejected);
        assert!((out.p_value - 2.0 * (-2.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn threshold_matches_eq3_at_minimal_sample_sizes() {
        // Eq. (3) in closed form at the smallest meaningful sizes. At
        // n = m = 1 the threshold exceeds the statistic's attainable
        // maximum of 1, so singleton evidence can never reject — the
        // detector needs real sample sizes before it may call a leak.
        let eq3 =
            |n: f64, m: f64| (-(0.05f64 / 2.0).ln() / 2.0).sqrt() * ((n + m) / (n * m)).sqrt();
        let x1 = WeightedSamples::from_values([0.0]);
        let y1 = WeightedSamples::from_values([100.0]);
        let out11 = ks_two_sample(&x1, &y1, ALPHA);
        assert_eq!((out11.n, out11.m), (1, 1));
        assert_eq!(out11.statistic, 1.0);
        assert!((out11.threshold - eq3(1.0, 1.0)).abs() < 1e-12);
        assert!(out11.threshold > 1.0);
        assert!(!out11.rejected);

        let x2 = WeightedSamples::from_values([0.0, 1.0]);
        let y2 = WeightedSamples::from_values([100.0, 101.0]);
        let out12 = ks_two_sample(&x1, &y2, ALPHA);
        assert!((out12.threshold - eq3(1.0, 2.0)).abs() < 1e-12);
        let out22 = ks_two_sample(&x2, &y2, ALPHA);
        assert!((out22.threshold - eq3(2.0, 2.0)).abs() < 1e-12);
        // n = m = 2 still cannot reject a perfect separation at α = 0.95.
        assert!(out22.threshold > 1.0);
        assert!(!out22.rejected);
    }

    #[test]
    fn identical_shortcut_matches_computed_outcome() {
        // `KsOutcome::identical` must be bit-compatible with actually
        // running the test on equal samples, threshold included, so
        // shortcut outcomes stay comparable inside reports.
        let x = WeightedSamples::from_values([1.0, 2.0, 3.0]);
        let computed = ks_two_sample(&x, &x, ALPHA);
        assert_eq!(computed, KsOutcome::identical(3, 3, ALPHA));
        // Empty sides have no defined eq. (3) threshold: infinity sentinel,
        // never a rejection.
        assert_eq!(KsOutcome::identical(0, 5, ALPHA).threshold, f64::INFINITY);
        assert_eq!(KsOutcome::identical(4, 0, ALPHA).threshold, f64::INFINITY);
        let both_empty = KsOutcome::identical(0, 0, ALPHA);
        assert!(!both_empty.rejected);
        assert_eq!(both_empty.p_value, 1.0);
    }

    #[test]
    fn one_empty_sample_rejects() {
        let x = WeightedSamples::from_values([1.0, 2.0]);
        let out = ks_two_sample(&x, &WeightedSamples::new(), ALPHA);
        assert!(out.rejected);
        assert_eq!(out.statistic, 1.0);
    }

    #[test]
    fn both_empty_accept() {
        let out = ks_two_sample(&WeightedSamples::new(), &WeightedSamples::new(), ALPHA);
        assert!(!out.rejected);
        assert_eq!(out.threshold, f64::INFINITY);
    }

    #[test]
    fn identical_outcome_threshold_matches_computed_one() {
        // An `identical(n, m)` shortcut outcome must report the same
        // eq. (3) threshold as a computed outcome over samples of the same
        // sizes, so the two stay comparable in reports.
        let x = WeightedSamples::from_values((0..50).map(f64::from));
        let computed = ks_two_sample(&x, &x, ALPHA);
        let shortcut = KsOutcome::identical(50, 50, ALPHA);
        assert!((shortcut.threshold - computed.threshold).abs() < 1e-12);
        assert_eq!(shortcut.statistic, 0.0);
        assert_eq!(shortcut.p_value, 1.0);
        assert!(!shortcut.rejected);
        assert!(shortcut.threshold.is_finite());
    }

    #[test]
    fn threshold_matches_formula_for_known_sizes() {
        // n = m = 100, sig = 0.05:
        // D_{n,m} = sqrt(-ln(0.025)/2) * sqrt(200/10000) = 1.3581.. * 0.14142..
        let x = WeightedSamples::from_values((0..100).map(f64::from));
        let out = ks_two_sample(&x, &x, ALPHA);
        let expected = (-(0.025f64).ln() / 2.0).sqrt() * (200.0f64 / 10_000.0).sqrt();
        assert!((out.threshold - expected).abs() < 1e-12);
    }

    #[test]
    fn p_value_decision_agrees_with_threshold_decision() {
        // The asymptotic p-value test and the threshold test are two views
        // of the same criterion; on a sweep of shifted distributions they
        // must agree.
        for shift in 0..40 {
            let x = WeightedSamples::from_values((0..200).map(f64::from));
            let y = WeightedSamples::from_values((0..200).map(|v| f64::from(v + shift * 5)));
            let out = ks_two_sample(&x, &y, ALPHA);
            assert_eq!(
                out.rejected,
                out.statistic > out.threshold,
                "shift {shift}: p-decision {} vs D {} > thr {}",
                out.rejected,
                out.statistic,
                out.threshold
            );
        }
    }

    #[test]
    fn same_distribution_random_draws_mostly_accept() {
        // Draw many sample pairs from one distribution; the false-positive
        // rate should be near the significance level (5%), certainly < 20%.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut rejections = 0;
        const TRIALS: usize = 100;
        for _ in 0..TRIALS {
            let x = WeightedSamples::from_values((0..200).map(|_| rng.gen_range(0.0..1.0)));
            let y = WeightedSamples::from_values((0..200).map(|_| rng.gen_range(0.0..1.0)));
            if ks_two_sample(&x, &y, ALPHA).rejected {
                rejections += 1;
            }
        }
        assert!(
            rejections < TRIALS / 5,
            "too many false positives: {rejections}"
        );
    }

    #[test]
    fn shifted_distribution_detected() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let x = WeightedSamples::from_values((0..500).map(|_| rng.gen_range(0.0..1.0)));
        let y = WeightedSamples::from_values((0..500).map(|_| rng.gen_range(0.3..1.3)));
        assert!(ks_two_sample(&x, &y, ALPHA).rejected);
    }

    #[test]
    #[should_panic(expected = "confidence level")]
    fn invalid_alpha_panics() {
        let x = WeightedSamples::from_values([1.0]);
        let _ = ks_two_sample(&x, &x, 1.0);
    }
}

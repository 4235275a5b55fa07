//! Property-based tests for the statistical core.

use owl_stats::{
    class_mi_bits, ks_two_sample, welch_t_test, Histogram, TransitionMatrix, WeightedSamples,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{BuildHasher, Hash, RandomState};

/// The naive reference model for both sorted tables: a `BTreeMap` that
/// drops zero-count records, exactly like the original storage did.
fn model_of<K: Ord + Copy>(ops: &[(K, u64)]) -> BTreeMap<K, u64> {
    let mut m = BTreeMap::new();
    for &(k, c) in ops {
        if c > 0 {
            *m.entry(k).or_insert(0) += c;
        }
    }
    m
}

/// Hashes a value with one fixed `RandomState`, so two observationally
/// equal values must collide. The model comparison relies on the sorted
/// tables' documented bit-compatibility with a derived `BTreeMap` hash.
fn hash_pair<A: Hash, B: Hash>(s: &RandomState, a: &A, b: &B) -> (u64, u64) {
    (s.hash_one(a), s.hash_one(b))
}

/// Builds a histogram from `ops` through both insert paths: single
/// `record`s before `split`, then the rest as unit observations (`c`
/// copies of `v`, a broadcast run) fed to `record_each` in chunks of up
/// to `chunk`. Chunks cycle through generated order (unsorted, with
/// duplicates), descending and ascending, so every batch shape meets
/// both inline and spilled bins.
fn build_hist(ops: &[(u64, u64)], split: usize, chunk: usize) -> Histogram {
    let split = split.min(ops.len());
    let mut h = Histogram::new();
    for &(v, c) in &ops[..split] {
        h.record(v, c);
    }
    let mut units: Vec<u64> = ops[split..]
        .iter()
        .flat_map(|&(v, c)| std::iter::repeat_n(v, c as usize))
        .collect();
    for (i, batch) in units.chunks_mut(chunk).enumerate() {
        match i % 3 {
            0 => {}
            1 => batch.sort_unstable_by(|a, b| b.cmp(a)),
            _ => batch.sort_unstable(),
        }
        h.record_each(batch);
    }
    h
}

fn build_matrix(ops: &[((u32, u32), u64)]) -> TransitionMatrix {
    let mut t = TransitionMatrix::new();
    for &((s, d), c) in ops {
        t.record(s, d, c);
    }
    t
}

fn arb_samples() -> impl Strategy<Value = WeightedSamples> {
    prop::collection::vec((-1_000i64..1_000, 1u64..20), 1..64)
        .prop_map(|v| WeightedSamples::from_pairs(v.into_iter().map(|(x, w)| (x as f64, w))))
}

/// Values for samples whose two sides often share points: signed zeros,
/// infinities and magnitudes far apart.
const ALPHABET: [f64; 12] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    2.5,
    -2.5,
    7.0,
    -7.0,
    1e300,
    -1e300,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

fn arb_alphabet_samples() -> impl Strategy<Value = WeightedSamples> {
    prop::collection::vec((0..ALPHABET.len(), 1u64..20), 1..12)
        .prop_map(|v| WeightedSamples::from_pairs(v.into_iter().map(|(i, w)| (ALPHABET[i], w))))
}

/// The KS statistic as the ECDF implementation computed it: one step list
/// `(value, F(value))` per side, merged, with `D` the largest gap seen.
fn ks_statistic_model(x: &WeightedSamples, y: &WeightedSamples) -> f64 {
    let steps = |s: &WeightedSamples| {
        let n = s.total_weight() as f64;
        let mut cum = 0u64;
        s.pairs()
            .iter()
            .map(|&(v, w)| {
                cum += w;
                (v, cum as f64 / n)
            })
            .collect::<Vec<_>>()
    };
    let (a, b) = (steps(x), steps(y));
    let (mut i, mut j) = (0usize, 0usize);
    let (mut fa, mut fb) = (0.0f64, 0.0f64);
    let mut sup = 0.0f64;
    while i < a.len() || j < b.len() {
        let xa = a.get(i).map(|&(x, _)| x);
        let xb = b.get(j).map(|&(x, _)| x);
        match (xa, xb) {
            (Some(x1), Some(x2)) if x1 < x2 => {
                fa = a[i].1;
                i += 1;
            }
            (Some(x1), Some(x2)) if x2 < x1 => {
                fb = b[j].1;
                j += 1;
            }
            (Some(_), Some(_)) => {
                fa = a[i].1;
                fb = b[j].1;
                i += 1;
                j += 1;
            }
            (Some(_), None) => {
                fa = a[i].1;
                i += 1;
            }
            (None, Some(_)) => {
                fb = b[j].1;
                j += 1;
            }
            (None, None) => unreachable!("loop condition excludes this"),
        }
        sup = sup.max((fa - fb).abs());
    }
    sup
}

/// Mutual information as the map-based estimator computed it: per-side
/// probability maps keyed by bit pattern (`-0.0` as `0.0`), their key
/// union, and the three entropies summed in key order.
fn mi_model(x: &WeightedSamples, y: &WeightedSamples) -> f64 {
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
    let key = |v: f64| if v == 0.0 { 0 } else { v.to_bits() };
    let probabilities = |s: &WeightedSamples| {
        let n = s.total_weight() as f64;
        let mut map: BTreeMap<u64, f64> = BTreeMap::new();
        for &(v, w) in s.pairs() {
            *map.entry(key(v)).or_insert(0.0) += w as f64 / n;
        }
        map
    };
    let (px, py) = (probabilities(x), probabilities(y));
    let support: BTreeSet<u64> = px.keys().chain(py.keys()).copied().collect();
    let mix: Vec<f64> = support
        .iter()
        .map(|k| 0.5 * px.get(k).copied().unwrap_or(0.0) + 0.5 * py.get(k).copied().unwrap_or(0.0))
        .collect();
    let h_mix = entropy_bits(mix.iter(), mix.iter().sum());
    let h_x = entropy_bits(px.values(), 1.0);
    let h_y = entropy_bits(py.values(), 1.0);
    (h_mix - 0.5 * h_x - 0.5 * h_y).clamp(0.0, 1.0)
}

proptest! {
    /// The merge walk gives the KS statistic of the ECDF step-list merge
    /// bit for bit, on sides that share many points (the small alphabet)
    /// and on sides that share few.
    #[test]
    fn ks_statistic_matches_ecdf_merge_model(
        (a, b) in (arb_alphabet_samples(), arb_alphabet_samples()),
        (c, d) in (arb_samples(), arb_samples()),
    ) {
        for (x, y) in [(&a, &b), (&c, &d), (&a, &c)] {
            prop_assert_eq!(
                ks_two_sample(x, y, 0.95).statistic.to_bits(),
                ks_statistic_model(x, y).to_bits(),
                "{:?} vs {:?}", x, y
            );
        }
    }

    /// The merge walk gives the map-based MI estimate bit for bit, signed
    /// zeros included, on the same three kinds of sample pairs.
    #[test]
    fn mi_matches_map_model(
        (a, b) in (arb_alphabet_samples(), arb_alphabet_samples()),
        (c, d) in (arb_samples(), arb_samples()),
    ) {
        for (x, y) in [(&a, &b), (&c, &d), (&a, &c)] {
            prop_assert_eq!(
                class_mi_bits(x, y).to_bits(),
                mi_model(x, y).to_bits(),
                "{:?} vs {:?}", x, y
            );
        }
    }

    /// The KS distance is symmetric and within [0, 1].
    #[test]
    fn ks_statistic_symmetric_and_bounded(a in arb_samples(), b in arb_samples()) {
        let xy = ks_two_sample(&a, &b, 0.95);
        let yx = ks_two_sample(&b, &a, 0.95);
        prop_assert!((xy.statistic - yx.statistic).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&xy.statistic));
        prop_assert!((0.0..=1.0).contains(&xy.p_value));
    }

    /// A sample never deviates from itself.
    #[test]
    fn ks_self_test_never_rejects(a in arb_samples()) {
        let out = ks_two_sample(&a, &a, 0.95);
        prop_assert_eq!(out.statistic, 0.0);
        prop_assert!(!out.rejected);
    }

    /// Splitting one sample into scaled copies keeps the distribution, so the
    /// KS statistic of a sample vs. its k-fold duplicate is zero.
    #[test]
    fn ks_invariant_under_weight_scaling(a in arb_samples(), k in 2u64..5) {
        let scaled = WeightedSamples::from_pairs(
            a.pairs().iter().map(|&(x, w)| (x, w * k)),
        );
        let out = ks_two_sample(&a, &scaled, 0.95);
        prop_assert_eq!(out.statistic, 0.0);
    }

    /// Merging histograms is commutative and preserves totals.
    #[test]
    fn histogram_merge_commutes(
        a in prop::collection::vec((0u64..100, 1u64..10), 0..32),
        b in prop::collection::vec((0u64..100, 1u64..10), 0..32),
    ) {
        let ha: Histogram = a.iter().copied().collect();
        let hb: Histogram = b.iter().copied().collect();
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.total(), ha.total() + hb.total());
    }

    /// Welch's t statistic is antisymmetric in its arguments.
    #[test]
    fn welch_antisymmetric(a in arb_samples(), b in arb_samples()) {
        let xy = welch_t_test(&a, &b, 4.5);
        let yx = welch_t_test(&b, &a, 4.5);
        if xy.statistic.is_finite() {
            prop_assert!((xy.statistic + yx.statistic).abs() < 1e-9);
        }
        prop_assert_eq!(xy.rejected, yx.rejected);
    }

    /// The sorted-storage `Histogram` is observationally identical to the
    /// naive `BTreeMap` model: iteration order, point lookups, totals,
    /// serde bytes, and `Hash`, whichever mix of single and batch inserts
    /// built it.
    #[test]
    fn histogram_matches_btreemap_model(
        ops in prop::collection::vec((0u64..48, 0u64..6), 0..80),
        split in 0usize..80,
        chunk in 1usize..=64,
        rot in 0usize..80,
    ) {
        let model = model_of(&ops);
        let h = build_hist(&ops, split, chunk);

        // Iteration order and content.
        prop_assert_eq!(
            h.iter().collect::<Vec<_>>(),
            model.iter().map(|(&v, &c)| (v, c)).collect::<Vec<_>>()
        );
        // Point lookups, including absent keys; maintained aggregates.
        for v in 0..48 {
            prop_assert_eq!(h.count(v), model.get(&v).copied().unwrap_or(0));
        }
        prop_assert_eq!(h.total(), model.values().sum::<u64>());
        prop_assert_eq!(h.distinct(), model.len());

        // Serde bytes equal the model's map form, key order and all.
        let expected_json = format!(
            "{{\"bins\":{{{}}}}}",
            model.iter().map(|(v, c)| format!("\"{v}\":{c}"))
                .collect::<Vec<_>>().join(",")
        );
        prop_assert_eq!(serde_json::to_string(&h).unwrap(), expected_json);

        // Hash is bit-compatible with hashing the model map directly (the
        // original representation was a single derived `BTreeMap` field),
        // and insensitive to insertion order and insert path.
        let state = RandomState::new();
        let (hh, hm) = hash_pair(&state, &h, &model);
        prop_assert_eq!(hh, hm);
        let rot = rot.min(ops.len());
        let mut rotated = ops.clone();
        rotated.rotate_left(rot);
        let h2 = build_hist(&rotated, usize::MAX, chunk);
        prop_assert_eq!(&h, &h2);
        let (ha, hb) = hash_pair(&state, &h, &h2);
        prop_assert_eq!(ha, hb);
    }

    /// Merging two sorted-storage histograms equals merging their models.
    #[test]
    fn histogram_merge_matches_btreemap_model(
        ops in prop::collection::vec((0u64..48, 0u64..6), 0..80),
        cut in 0usize..80,
        split in 0usize..80,
        chunk in 1usize..=64,
    ) {
        let cut = cut.min(ops.len());
        let mut merged = build_hist(&ops[..cut], split, chunk);
        merged.merge(&build_hist(&ops[cut..], split / 2, chunk));
        prop_assert_eq!(
            merged.iter().collect::<Vec<_>>(),
            model_of(&ops).iter().map(|(&v, &c)| (v, c)).collect::<Vec<_>>()
        );
    }

    /// The sorted-storage `TransitionMatrix` is observationally identical
    /// to the naive `BTreeMap<(u32, u32), u64>` model, including its
    /// entry-list serde form and the maintained `executions` total.
    #[test]
    fn transition_matrix_matches_btreemap_model(
        ops in prop::collection::vec(((0u32..6, 0u32..6), 0u64..6), 0..80),
        cut in 0usize..80,
    ) {
        let model = model_of(&ops);
        let t = build_matrix(&ops);

        prop_assert_eq!(
            t.iter().collect::<Vec<_>>(),
            model.iter().map(|(&k, &c)| (k, c)).collect::<Vec<_>>()
        );
        for s in 0..6 {
            for d in 0..6 {
                prop_assert_eq!(t.count(s, d), model.get(&(s, d)).copied().unwrap_or(0));
            }
        }
        prop_assert_eq!(t.executions(), model.values().sum::<u64>());

        // Serde bytes equal the model's entry-list form.
        let expected_json = format!(
            "{{\"counts\":[{}]}}",
            model.iter().map(|(&(s, d), c)| format!("[[{s},{d}],{c}]"))
                .collect::<Vec<_>>().join(",")
        );
        prop_assert_eq!(serde_json::to_string(&t).unwrap(), expected_json.clone());
        let back: TransitionMatrix = serde_json::from_str(&expected_json).unwrap();
        prop_assert_eq!(&back, &t);

        // Hash is bit-compatible with the model map and insensitive to
        // insertion order.
        let state = RandomState::new();
        let (ht, hm) = hash_pair(&state, &t, &model);
        prop_assert_eq!(ht, hm);
        let reversed: Vec<_> = ops.iter().rev().copied().collect();
        let backwards = build_matrix(&reversed);
        prop_assert_eq!(&backwards, &t);
        let (ha, hb) = hash_pair(&state, &t, &backwards);
        prop_assert_eq!(ha, hb);

        // Merge of a split build equals the whole-model build.
        let cut = cut.min(ops.len());
        let mut merged = build_matrix(&ops[..cut]);
        merged.merge(&build_matrix(&ops[cut..]));
        prop_assert_eq!(&merged, &t);
    }
}

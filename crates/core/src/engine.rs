//! Pluggable analysis engines (DESIGN.md §3.15).
//!
//! Phase 3 decides, feature by feature, whether a distribution observed
//! under fixed inputs differs from the one observed under random inputs.
//! That per-feature decision point is the [`AnalysisEngine`] trait; the
//! analysis walk in [`crate::analysis`] is engine-agnostic and the choice
//! of statistics is a configuration knob:
//!
//! * [`KsEngine`] — the paper's two-sample Kolmogorov–Smirnov test
//!   (§VII-B, eqs. (1)–(4)). The default; no normality assumption.
//! * [`TvlaEngine`] — fixed-vs-random TVLA: Welch's t-test with the
//!   conventional `|t| > 4.5` decision threshold, as used by prior CPU
//!   side-channel work (TVLA, dudect). Mean-blind: misses equal-mean
//!   distribution changes, which is the paper's motivation for KS.
//! * [`MiEngine`] — MicroWalk-style leakage *quantification*: the mutual
//!   information between the input class and the feature, in bits per
//!   observation. Reports *how much* leaks, not just whether.
//!
//! Engines are pure functions of their two [`WeightedSamples`] arguments —
//! no interior state, no randomness — so detection keeps the determinism
//! contract (bit-identical results for every `parallelism`) independently
//! of the engine choice. The [`EngineComparison`] table cross-checks all
//! engines' verdicts per leak location, DifFuzz-style: agreement raises
//! confidence, disagreement localises the cases one method is blind to.

use crate::report::{Leak, LeakKind, LeakLocation, LeakReport};
use owl_stats::ks::ks_two_sample;
use owl_stats::mi::class_mi_bits;
use owl_stats::welch::welch_t_test;
use owl_stats::{EngineOutcome, WeightedSamples};
use serde::Serialize;
use std::collections::BTreeMap;

/// The selectable analysis engines.
///
/// `Engine` is the *configuration name* of an engine; [`Engine::build`]
/// instantiates the corresponding [`AnalysisEngine`] with the detection's
/// parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Two-sample KS test (the paper's choice, the default).
    #[default]
    Ks,
    /// Fixed-vs-random TVLA: Welch's t-test, `|t| > 4.5`.
    Tvla,
    /// Mutual-information leakage quantification (bits per observation).
    Mi,
}

impl Engine {
    /// Every engine, in the canonical comparison order.
    pub const ALL: [Engine; 3] = [Engine::Ks, Engine::Tvla, Engine::Mi];

    /// The stable machine-readable name (`"ks"` / `"tvla"` / `"mi"`),
    /// as echoed in summaries and accepted by `owl-detect --engine`.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Ks => "ks",
            Engine::Tvla => "tvla",
            Engine::Mi => "mi",
        }
    }

    /// Parses a stable engine name.
    pub fn from_name(name: &str) -> Option<Engine> {
        match name {
            "ks" => Some(Engine::Ks),
            "tvla" => Some(Engine::Tvla),
            "mi" => Some(Engine::Mi),
            _ => None,
        }
    }

    /// Instantiates the engine with the analysis confidence level `alpha`
    /// (only the KS engine consumes it; TVLA and MI use their conventional
    /// fixed thresholds).
    pub fn build(self, alpha: f64) -> Box<dyn AnalysisEngine> {
        match self {
            Engine::Ks => Box::new(KsEngine { alpha }),
            Engine::Tvla => Box::new(TvlaEngine::default()),
            Engine::Mi => Box::new(MiEngine::default()),
        }
    }
}

/// The per-feature decision point of the leakage analysis.
///
/// `compare` receives the feature's weighted sample sets merged from the
/// fixed-input evidence (`fix`) and the random-input evidence (`rnd`) and
/// decides whether the distributions differ in an input-dependent way.
///
/// # Contract
///
/// Implementations must be **pure** (the outcome is a function of the two
/// sample multisets alone — no interior state, clocks, or randomness) and
/// therefore **merge-order independent**: because [`WeightedSamples`]
/// assembled by any sequence of associative evidence merges are equal as
/// multisets, `compare` returns bit-identical outcomes however the
/// evidence was chunked. This is what extends the PR-1 determinism
/// contract to every engine. Implementations must also honour the
/// [`EngineOutcome`] invariants (`p_value` ranks evidence strength;
/// one-sided presence is a structural rejection).
pub trait AnalysisEngine {
    /// The engine's stable machine-readable name.
    fn name(&self) -> &'static str;

    /// Compares the fixed-input and random-input sample sets of one
    /// feature.
    fn compare(&self, fix: &WeightedSamples, rnd: &WeightedSamples) -> EngineOutcome;
}

/// The paper's two-sample Kolmogorov–Smirnov engine (§VII-B).
///
/// Claims: detects *any* distribution difference given enough samples, no
/// normality assumption. Does not claim: a leakage magnitude — its
/// statistic is a distance, not an information measure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsEngine {
    /// Confidence level of the test (the paper uses 0.95).
    pub alpha: f64,
}

impl Default for KsEngine {
    fn default() -> Self {
        KsEngine { alpha: 0.95 }
    }
}

impl AnalysisEngine for KsEngine {
    fn name(&self) -> &'static str {
        Engine::Ks.name()
    }

    fn compare(&self, fix: &WeightedSamples, rnd: &WeightedSamples) -> EngineOutcome {
        let out = ks_two_sample(fix, rnd, self.alpha);
        EngineOutcome {
            rejected: out.rejected,
            statistic: out.statistic,
            p_value: out.p_value,
            bits: None,
        }
    }
}

/// Fixed-vs-random TVLA: Welch's t-test with the `|t| > 4.5` convention.
///
/// Claims: the prior-work baseline (TVLA, dudect), sensitive to mean
/// shifts with a battle-tested false-positive threshold. Does not claim:
/// sensitivity to equal-mean distribution changes (bimodal vs unimodal
/// features pass unnoticed) — the ablation case that motivates KS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TvlaEngine {
    /// Decision threshold on `|t|` (the TVLA convention is 4.5).
    pub threshold: f64,
}

impl Default for TvlaEngine {
    fn default() -> Self {
        TvlaEngine {
            threshold: TVLA_THRESHOLD,
        }
    }
}

/// The conventional TVLA decision threshold on `|t|`.
pub const TVLA_THRESHOLD: f64 = 4.5;

impl AnalysisEngine for TvlaEngine {
    fn name(&self) -> &'static str {
        Engine::Tvla.name()
    }

    fn compare(&self, fix: &WeightedSamples, rnd: &WeightedSamples) -> EngineOutcome {
        // Present-vs-absent features are structural differences under any
        // method; the t-test itself needs two non-empty sides.
        match (fix.is_empty(), rnd.is_empty()) {
            (true, true) => return EngineOutcome::accept(),
            (true, false) | (false, true) => {
                return EngineOutcome {
                    bits: None,
                    ..EngineOutcome::structural(f64::INFINITY)
                }
            }
            (false, false) => {}
        }
        let out = welch_t_test(fix, rnd, self.threshold);
        EngineOutcome {
            rejected: out.rejected,
            statistic: out.statistic.abs(),
            p_value: out.approx_p_value(),
            bits: None,
        }
    }
}

/// MicroWalk-style mutual-information quantification engine.
///
/// Claims: an *amount* — the estimated bits an attacker learns about the
/// input class from one observation of the feature (per A-DCFG node for
/// control flow, per instruction for data flow), 0 for identical
/// distributions, 1 for disjoint supports. Does not claim: calibrated
/// false-positive control on noisy features — the empirical estimate is
/// biased upward for small samples (disjoint-by-chance supports read as a
/// full bit), which is why the engine refuses to *decide* below
/// [`MiEngine::min_weight`] and why KS remains the default detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiEngine {
    /// Bits above which a feature is flagged as input-dependent.
    pub threshold_bits: f64,
    /// Minimum total weight required on both sides before the engine is
    /// willing to reject (small-sample bias guard).
    pub min_weight: u64,
}

impl Default for MiEngine {
    fn default() -> Self {
        MiEngine {
            threshold_bits: MI_THRESHOLD_BITS,
            min_weight: MI_MIN_WEIGHT,
        }
    }
}

/// Default decision threshold of the MI engine, in bits per observation.
pub const MI_THRESHOLD_BITS: f64 = 0.2;
/// Default small-sample guard of the MI engine: both sides need at least
/// this much total weight before the engine rejects.
pub const MI_MIN_WEIGHT: u64 = 8;

impl AnalysisEngine for MiEngine {
    fn name(&self) -> &'static str {
        Engine::Mi.name()
    }

    fn compare(&self, fix: &WeightedSamples, rnd: &WeightedSamples) -> EngineOutcome {
        match (fix.is_empty(), rnd.is_empty()) {
            (true, true) => {
                return EngineOutcome {
                    bits: Some(0.0),
                    ..EngineOutcome::accept()
                }
            }
            // Present under exactly one input class: one observation pins
            // the class — the full bit, structurally.
            (true, false) | (false, true) => return EngineOutcome::structural(1.0),
            (false, false) => {}
        }
        let bits = class_mi_bits(fix, rnd);
        let enough = fix.total_weight() >= self.min_weight && rnd.total_weight() >= self.min_weight;
        EngineOutcome {
            rejected: enough && bits > self.threshold_bits,
            statistic: bits,
            // MI has no p-value; 1 − bits is a monotone surrogate that
            // ranks consistently with the structural convention (1 bit ⇒
            // p = 0).
            p_value: (1.0 - bits).clamp(0.0, 1.0),
            bits: Some(bits),
        }
    }
}

/// One engine's verdict on one leak location, as recorded in the
/// cross-engine comparison table.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EngineVerdict {
    /// The engine's stable name (`"ks"` / `"tvla"` / `"mi"`).
    pub engine: String,
    /// Whether this engine flagged the location as input-dependent.
    pub flagged: bool,
    /// The engine's statistic for the flagged feature (0 when not
    /// flagged).
    pub statistic: f64,
    /// The engine's ranking p-value (1 when not flagged).
    pub p_value: f64,
    /// Estimated bits leaked per observation at this location (the MI
    /// engine always quantifies; KS/TVLA report their independent severity
    /// estimate for flagged locations).
    pub bits: Option<f64>,
}

/// One row of the cross-engine agreement table: a leak location flagged by
/// at least one engine, with every engine's verdict nested under it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EngineRow {
    /// Leak category at this location.
    pub kind: LeakKind,
    /// The location (invocation, allocation site, A-DCFG node, or
    /// instruction).
    pub location: LeakLocation,
    /// Human-readable explanation from the first engine that flagged it.
    pub detail: String,
    /// `true` when every engine flagged this location.
    pub agreed: bool,
    /// Per-engine verdicts, in [`Engine::ALL`] order.
    pub verdicts: Vec<EngineVerdict>,
}

/// The schema-versioned cross-engine agreement/disagreement table.
///
/// Rows are the union of locations flagged by any engine, in location
/// order (deterministic). A row where all engines agree is high-confidence
/// evidence; a disagreement row localises a case one method is blind to
/// (TVLA's mean-blindness, MI's small-sample guard) — the differential
/// cross-check of verdicts that DifFuzz applies to program versions,
/// applied to analysis methods.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EngineComparison {
    /// The engines compared, in table order.
    pub engines: Vec<String>,
    /// Leaks flagged per engine, aligned with `engines`.
    pub leaks_per_engine: Vec<usize>,
    /// Locations where every engine agrees (flagged by all).
    pub agreements: usize,
    /// Locations flagged by some engines but not all.
    pub disagreements: usize,
    /// One row per location flagged by at least one engine.
    pub rows: Vec<EngineRow>,
}

impl EngineComparison {
    /// Builds the agreement table from one finished [`LeakReport`] per
    /// engine (in [`Engine::ALL`] order, already merged across input
    /// classes).
    pub fn from_reports(reports: &[(Engine, LeakReport)]) -> Self {
        let engines: Vec<String> = reports.iter().map(|(e, _)| e.name().to_string()).collect();
        let leaks_per_engine: Vec<usize> = reports.iter().map(|(_, r)| r.leaks.len()).collect();
        let maps: Vec<BTreeMap<&LeakLocation, &Leak>> = reports
            .iter()
            .map(|(_, r)| r.leaks.iter().map(|l| (&l.location, l)).collect())
            .collect();
        let mut locations: BTreeMap<&LeakLocation, &Leak> = BTreeMap::new();
        // Engine order is reversed so that earlier engines win the
        // kind/detail annotation of a shared location.
        for map in maps.iter().rev() {
            for (&location, &leak) in map {
                locations.insert(location, leak);
            }
        }
        let rows: Vec<EngineRow> = locations
            .iter()
            .map(|(&location, &first)| {
                let verdicts: Vec<EngineVerdict> = reports
                    .iter()
                    .zip(&maps)
                    .map(|(&(engine, _), map)| match map.get(location) {
                        Some(leak) => EngineVerdict {
                            engine: engine.name().to_string(),
                            flagged: true,
                            statistic: leak.statistic,
                            p_value: leak.p_value,
                            bits: Some(leak.severity_bits),
                        },
                        None => EngineVerdict {
                            engine: engine.name().to_string(),
                            flagged: false,
                            statistic: 0.0,
                            p_value: 1.0,
                            bits: None,
                        },
                    })
                    .collect();
                EngineRow {
                    kind: first.kind,
                    location: location.clone(),
                    detail: first.detail.clone(),
                    agreed: verdicts.iter().all(|v| v.flagged),
                    verdicts,
                }
            })
            .collect();
        let agreements = rows.iter().filter(|r| r.agreed).count();
        EngineComparison {
            engines,
            leaks_per_engine,
            agreements,
            disagreements: rows.len() - agreements,
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::InvocationKey;
    use owl_host::CallSite;

    fn samples(values: impl IntoIterator<Item = f64>) -> WeightedSamples {
        WeightedSamples::from_values(values)
    }

    #[test]
    fn engine_names_round_trip() {
        for engine in Engine::ALL {
            assert_eq!(Engine::from_name(engine.name()), Some(engine));
            assert_eq!(engine.build(0.95).name(), engine.name());
        }
        assert_eq!(Engine::from_name("welch"), None);
        assert_eq!(Engine::from_name("anova"), None);
    }

    #[test]
    fn ks_engine_matches_raw_ks_test() {
        let fix = samples((0..50).map(f64::from));
        let rnd = samples((0..50).map(|v| f64::from(v) + 100.0));
        let out = KsEngine { alpha: 0.95 }.compare(&fix, &rnd);
        let raw = ks_two_sample(&fix, &rnd, 0.95);
        assert_eq!(out.rejected, raw.rejected);
        assert_eq!(out.statistic.to_bits(), raw.statistic.to_bits());
        assert_eq!(out.p_value.to_bits(), raw.p_value.to_bits());
        assert_eq!(out.bits, None);
    }

    #[test]
    fn tvla_engine_applies_the_4_5_convention() {
        let engine = TvlaEngine::default();
        let fix = samples((0..100).map(f64::from));
        let shifted = samples((0..100).map(|v| f64::from(v) + 60.0));
        assert!(engine.compare(&fix, &shifted).rejected);
        assert!(!engine.compare(&fix, &fix).rejected);
        // The motivating blind spot: equal-mean bimodal vs unimodal.
        let bimodal =
            WeightedSamples::from_pairs((0..200).map(|i| (if i % 2 == 0 { 0.0 } else { 10.0 }, 1)));
        let unimodal = WeightedSamples::from_pairs([(5.0, 200)]);
        assert!(!engine.compare(&bimodal, &unimodal).rejected);
        assert!(KsEngine::default().compare(&bimodal, &unimodal).rejected);
    }

    #[test]
    fn tvla_engine_treats_one_sided_presence_as_structural() {
        let engine = TvlaEngine::default();
        let present = samples([1.0, 2.0, 3.0]);
        let out = engine.compare(&present, &WeightedSamples::new());
        assert!(out.rejected);
        assert_eq!(out.p_value, 0.0);
        assert!(out.statistic.is_infinite());
        assert!(
            !engine
                .compare(&WeightedSamples::new(), &WeightedSamples::new())
                .rejected
        );
    }

    #[test]
    fn mi_engine_quantifies_and_guards_small_samples() {
        let engine = MiEngine::default();
        // Identical distributions: 0 bits, never flagged.
        let fix = WeightedSamples::from_pairs([(0.0, 20)]);
        let same = engine.compare(&fix, &fix);
        assert!(!same.rejected);
        assert_eq!(same.bits, Some(0.0));
        // Disjoint supports with enough weight: the full bit, flagged.
        let rnd = WeightedSamples::from_pairs([(1.0, 10), (2.0, 10)]);
        let leak = engine.compare(&fix, &rnd);
        assert!(leak.rejected);
        assert!((leak.bits.unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(leak.p_value, 0.0);
        // The same disjoint shape below the weight guard: quantified but
        // not flagged — too few observations to trust the estimate.
        let tiny_fix = WeightedSamples::from_pairs([(0.0, 2)]);
        let tiny_rnd = WeightedSamples::from_pairs([(1.0, 2)]);
        let tiny = engine.compare(&tiny_fix, &tiny_rnd);
        assert!(!tiny.rejected);
        assert!(tiny.bits.unwrap() > 0.9);
    }

    fn key(kernel: &str) -> InvocationKey {
        InvocationKey {
            call_site: CallSite {
                file: "f.rs",
                line: 1,
                column: 1,
            },
            kernel: kernel.into(),
        }
    }

    fn leak(kind: LeakKind, location: LeakLocation, p: f64, bits: f64) -> Leak {
        Leak {
            kind,
            location,
            statistic: 1.0 - p,
            p_value: p,
            severity_bits: bits,
            detail: "test leak".into(),
        }
    }

    #[test]
    fn comparison_table_counts_agreement_and_disagreement() {
        let shared = LeakLocation::Block(key("k"), 3);
        let ks_only = LeakLocation::Instruction(key("k"), 3, 1);
        let reports = vec![
            (
                Engine::Ks,
                LeakReport {
                    leaks: vec![
                        leak(LeakKind::ControlFlow, shared.clone(), 0.01, 0.5),
                        leak(LeakKind::DataFlow, ks_only.clone(), 0.02, 0.3),
                    ],
                    ..Default::default()
                },
            ),
            (
                Engine::Tvla,
                LeakReport {
                    leaks: vec![leak(LeakKind::ControlFlow, shared.clone(), 0.005, 0.5)],
                    ..Default::default()
                },
            ),
            (
                Engine::Mi,
                LeakReport {
                    leaks: vec![leak(LeakKind::ControlFlow, shared.clone(), 0.4, 0.6)],
                    ..Default::default()
                },
            ),
        ];
        let table = EngineComparison::from_reports(&reports);
        assert_eq!(table.engines, vec!["ks", "tvla", "mi"]);
        assert_eq!(table.leaks_per_engine, vec![2, 1, 1]);
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.agreements, 1);
        assert_eq!(table.disagreements, 1);
        let agreed = table.rows.iter().find(|r| r.location == shared).unwrap();
        assert!(agreed.agreed);
        assert!(agreed.verdicts.iter().all(|v| v.flagged));
        // The MI verdict carries the bits estimate for the A-DCFG node.
        assert_eq!(agreed.verdicts[2].engine, "mi");
        assert_eq!(agreed.verdicts[2].bits, Some(0.6));
        let split = table.rows.iter().find(|r| r.location == ks_only).unwrap();
        assert!(!split.agreed);
        assert!(split.verdicts[0].flagged);
        assert!(!split.verdicts[1].flagged);
        assert_eq!(split.verdicts[1].p_value, 1.0);
        assert_eq!(split.verdicts[1].bits, None);
    }

    #[test]
    fn comparison_table_serializes() {
        let reports = vec![
            (Engine::Ks, LeakReport::default()),
            (Engine::Tvla, LeakReport::default()),
            (Engine::Mi, LeakReport::default()),
        ];
        let table = EngineComparison::from_reports(&reports);
        let json = serde_json::to_string(&table).expect("serialize");
        assert!(json.contains("\"engines\""), "{json}");
        assert!(json.contains("\"agreements\""), "{json}");
    }
}

//! The analysis engines (DESIGN.md §3.15).
//!
//! Phase 3 decides, feature by feature, whether a distribution observed
//! under fixed inputs differs from the one observed under random inputs.
//! [`Engine::compare`] makes that decision for every feature the analysis
//! walk in [`crate::analysis`] tests; the configured [`Engine`] picks the
//! statistic:
//!
//! * [`Engine::Ks`] — the paper's two-sample Kolmogorov–Smirnov test
//!   (§VII-B, eqs. (1)–(4)). The default; no normality assumption.
//! * [`Engine::Tvla`] — fixed-vs-random TVLA: Welch's t-test with the
//!   conventional `|t| > 4.5` decision threshold, as used by prior CPU
//!   side-channel work (TVLA, dudect). Mean-blind: misses equal-mean
//!   distribution changes, which is the paper's motivation for KS.
//! * [`Engine::Mi`] — MicroWalk-style leakage *quantification*: the mutual
//!   information between the input class and the feature, in bits per
//!   observation. Reports *how much* leaks, not just whether.
//!
//! Every engine is a pure function of its two [`WeightedSamples`]
//! arguments — no interior state, no randomness — so detection keeps the
//! determinism contract (bit-identical results for every `parallelism`)
//! independently of the engine choice. The [`EngineComparison`] table
//! cross-checks all engines' verdicts per leak location, DifFuzz-style:
//! agreement raises confidence, disagreement localises the cases one method
//! is blind to.

use crate::report::{Leak, LeakKind, LeakLocation, LeakReport};
use owl_stats::ks::ks_two_sample;
use owl_stats::mi::class_mi_bits;
use owl_stats::welch::welch_t_test;
use owl_stats::WeightedSamples;
use serde::Serialize;
use std::collections::BTreeMap;

/// The selectable analysis engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The paper's two-sample Kolmogorov–Smirnov test (§VII-B), the
    /// default.
    ///
    /// Claims: detects *any* distribution difference given enough samples,
    /// no normality assumption. Does not claim: a leakage magnitude — its
    /// statistic is a distance, not an information measure.
    #[default]
    Ks,
    /// Fixed-vs-random TVLA: Welch's t-test with the `|t| >`
    /// [`TVLA_THRESHOLD`] convention.
    ///
    /// Claims: the prior-work baseline (TVLA, dudect), sensitive to mean
    /// shifts with a battle-tested false-positive threshold. Does not
    /// claim: sensitivity to equal-mean distribution changes (bimodal vs
    /// unimodal features pass unnoticed) — the ablation case that motivates
    /// KS.
    Tvla,
    /// MicroWalk-style mutual-information quantification, in bits per
    /// observation.
    ///
    /// Claims: an *amount* — the estimated bits an attacker learns about
    /// the input class from one observation of the feature (per A-DCFG node
    /// for control flow, per instruction for data flow), 0 for identical
    /// distributions, 1 for disjoint supports. Does not claim: calibrated
    /// false-positive control on noisy features — the empirical estimate is
    /// biased upward for small samples (disjoint-by-chance supports read as
    /// a full bit), which is why the engine refuses to *decide* below
    /// [`MI_MIN_WEIGHT`] and why KS remains the default detector.
    Mi,
}

/// The conventional TVLA decision threshold on `|t|`.
pub const TVLA_THRESHOLD: f64 = 4.5;
/// Decision threshold of the MI engine, in bits per observation.
pub const MI_THRESHOLD_BITS: f64 = 0.2;
/// Small-sample guard of the MI engine: both sides need at least this much
/// total weight before the engine rejects.
pub const MI_MIN_WEIGHT: u64 = 8;

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

    /// Compares one feature's sample sets merged from the fixed-input
    /// evidence (`fix`) and the random-input evidence (`rnd`), and decides
    /// whether the distributions differ in an input-dependent way.
    ///
    /// `alpha` is the KS confidence level; TVLA and MI decide on their
    /// fixed thresholds ([`TVLA_THRESHOLD`], [`MI_THRESHOLD_BITS`] and
    /// [`MI_MIN_WEIGHT`]).
    ///
    /// The outcome is a function of the two sample multisets alone — no
    /// state, clocks or randomness — and therefore independent of merge
    /// order: [`WeightedSamples`] assembled by any sequence of associative
    /// evidence merges are equal as multisets, so the outcome is
    /// bit-identical however the evidence was chunked. Every engine keeps
    /// the [`EngineOutcome`] invariants.
    pub fn compare(
        self,
        alpha: f64,
        fix: &WeightedSamples,
        rnd: &WeightedSamples,
    ) -> EngineOutcome {
        match self {
            Engine::Ks => {
                let out = ks_two_sample(fix, rnd, alpha);
                EngineOutcome {
                    rejected: out.rejected,
                    statistic: out.statistic,
                    p_value: out.p_value,
                    bits: None,
                }
            }
            // Present-vs-absent features are structural differences under
            // any method; the t-test itself needs two non-empty sides.
            Engine::Tvla => match (fix.is_empty(), rnd.is_empty()) {
                (true, true) => EngineOutcome::accept(),
                (true, false) | (false, true) => EngineOutcome {
                    bits: None,
                    ..EngineOutcome::structural(f64::INFINITY)
                },
                (false, false) => {
                    let out = welch_t_test(fix, rnd, TVLA_THRESHOLD);
                    EngineOutcome {
                        rejected: out.rejected,
                        statistic: out.statistic.abs(),
                        p_value: out.approx_p_value(),
                        bits: None,
                    }
                }
            },
            Engine::Mi => match (fix.is_empty(), rnd.is_empty()) {
                (true, true) => EngineOutcome {
                    bits: Some(0.0),
                    ..EngineOutcome::accept()
                },
                // Present under exactly one input class: one observation
                // pins the class — the full bit, structurally.
                (true, false) | (false, true) => EngineOutcome::structural(1.0),
                (false, false) => {
                    let bits = class_mi_bits(fix, rnd);
                    let enough =
                        fix.total_weight() >= MI_MIN_WEIGHT && rnd.total_weight() >= MI_MIN_WEIGHT;
                    EngineOutcome {
                        rejected: enough && bits > MI_THRESHOLD_BITS,
                        statistic: bits,
                        // MI has no p-value; 1 − bits is a monotone
                        // surrogate that ranks consistently with the
                        // structural convention (1 bit ⇒ p = 0).
                        p_value: (1.0 - bits).clamp(0.0, 1.0),
                        bits: Some(bits),
                    }
                }
            },
        }
    }
}

/// The engine-agnostic outcome of one fixed-vs-random feature comparison:
/// a binary verdict plus comparable ranking values, so the analysis walk
/// and the leak reports stay engine-agnostic.
///
/// Invariants every engine maintains:
///
/// * `p_value` ranks evidence strength monotonically — stronger evidence of
///   input dependence means a *smaller* value. Engines without an exact
///   p-value (the MI engine) supply a comparable surrogate.
/// * Structural differences (a feature present under only one input class)
///   come back as `statistic = 1.0` (or `∞` for the t-test), `p_value =
///   0.0`, `rejected = true`.
/// * `bits`, when present, is the engine's own estimate of the leakage in
///   bits per observation; engines that only decide (KS, TVLA) leave it
///   `None` and let the caller attach an independent severity estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineOutcome {
    /// Whether the feature was judged input-dependent.
    pub rejected: bool,
    /// The engine's raw statistic: the KS `D`, the absolute Welch `t`, or
    /// the estimated mutual information in bits.
    pub statistic: f64,
    /// Evidence-strength ranking value in `[0, 1]`; smaller = stronger.
    pub p_value: f64,
    /// The engine's own leakage estimate in bits per observation, when the
    /// engine quantifies (`None` for purely binary engines).
    pub bits: Option<f64>,
}

impl EngineOutcome {
    /// The strongest possible non-rejection: no evidence of a difference.
    pub fn accept() -> Self {
        EngineOutcome {
            rejected: false,
            statistic: 0.0,
            p_value: 1.0,
            bits: None,
        }
    }

    /// A maximal structural rejection (feature present under exactly one
    /// input class): one observation pins the class.
    pub fn structural(statistic: f64) -> Self {
        EngineOutcome {
            rejected: true,
            statistic,
            p_value: 0.0,
            bits: Some(1.0),
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

    const ALPHA: f64 = 0.95;

    fn samples(values: impl IntoIterator<Item = f64>) -> WeightedSamples {
        WeightedSamples::from_values(values)
    }

    #[test]
    fn engine_names_round_trip() {
        for engine in Engine::ALL {
            assert_eq!(Engine::from_name(engine.name()), Some(engine));
        }
        assert_eq!(Engine::from_name("welch"), None);
        assert_eq!(Engine::from_name("anova"), None);
    }

    #[test]
    fn ks_engine_matches_raw_ks_test() {
        let fix = samples((0..50).map(f64::from));
        let rnd = samples((0..50).map(|v| f64::from(v) + 100.0));
        let out = Engine::Ks.compare(ALPHA, &fix, &rnd);
        let raw = ks_two_sample(&fix, &rnd, ALPHA);
        assert_eq!(out.rejected, raw.rejected);
        assert_eq!(out.statistic.to_bits(), raw.statistic.to_bits());
        assert_eq!(out.p_value.to_bits(), raw.p_value.to_bits());
        assert_eq!(out.bits, None);
    }

    #[test]
    fn tvla_engine_applies_the_4_5_convention() {
        let engine = Engine::Tvla;
        let fix = samples((0..100).map(f64::from));
        let shifted = samples((0..100).map(|v| f64::from(v) + 60.0));
        assert!(engine.compare(ALPHA, &fix, &shifted).rejected);
        assert!(!engine.compare(ALPHA, &fix, &fix).rejected);
        // The motivating blind spot: equal-mean bimodal vs unimodal.
        let bimodal =
            WeightedSamples::from_pairs((0..200).map(|i| (if i % 2 == 0 { 0.0 } else { 10.0 }, 1)));
        let unimodal = WeightedSamples::from_pairs([(5.0, 200)]);
        assert!(!engine.compare(ALPHA, &bimodal, &unimodal).rejected);
        assert!(Engine::Ks.compare(ALPHA, &bimodal, &unimodal).rejected);
    }

    #[test]
    fn tvla_engine_treats_one_sided_presence_as_structural() {
        let engine = Engine::Tvla;
        let present = samples([1.0, 2.0, 3.0]);
        let out = engine.compare(ALPHA, &present, &WeightedSamples::new());
        assert!(out.rejected);
        assert_eq!(out.p_value, 0.0);
        assert!(out.statistic.is_infinite());
        assert!(
            !engine
                .compare(ALPHA, &WeightedSamples::new(), &WeightedSamples::new())
                .rejected
        );
    }

    #[test]
    fn mi_engine_quantifies_and_guards_small_samples() {
        let engine = Engine::Mi;
        // Identical distributions: 0 bits, never flagged.
        let fix = WeightedSamples::from_pairs([(0.0, 20)]);
        let same = engine.compare(ALPHA, &fix, &fix);
        assert!(!same.rejected);
        assert_eq!(same.bits, Some(0.0));
        // Disjoint supports with enough weight: the full bit, flagged.
        let rnd = WeightedSamples::from_pairs([(1.0, 10), (2.0, 10)]);
        let leak = engine.compare(ALPHA, &fix, &rnd);
        assert!(leak.rejected);
        assert!((leak.bits.unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(leak.p_value, 0.0);
        // The same disjoint shape below the weight guard: quantified but
        // not flagged — too few observations to trust the estimate.
        let tiny_fix = WeightedSamples::from_pairs([(0.0, 2)]);
        let tiny_rnd = WeightedSamples::from_pairs([(1.0, 2)]);
        let tiny = engine.compare(ALPHA, &tiny_fix, &tiny_rnd);
        assert!(!tiny.rejected);
        assert!(tiny.bits.unwrap() > 0.9);
    }

    #[test]
    fn accept_is_weakest_evidence() {
        let a = EngineOutcome::accept();
        assert!(!a.rejected);
        assert_eq!(a.p_value, 1.0);
        assert_eq!(a.bits, None);
    }

    #[test]
    fn structural_is_strongest_evidence() {
        let s = EngineOutcome::structural(1.0);
        assert!(s.rejected);
        assert_eq!(s.p_value, 0.0);
        assert_eq!(s.bits, Some(1.0));
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

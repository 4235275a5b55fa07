//! Phase 3 — leakage analysis (paper §VII).
//!
//! Given evidence merged from repeated fixed-input runs (`E_fix`) and
//! repeated random-input runs (`E_rnd`), the leak tests decide which
//! differences are statistically input-dependent:
//!
//! * **kernel leaks** — unaligned invocations, presence-count
//!   distributions failing the KS test, differing launch geometries, or
//!   differing allocation behaviour;
//! * **device control-flow leaks** — a node's `(prev, next)` transition
//!   distribution fails the KS test (eqs. (5)–(8));
//! * **device data-flow leaks** — a memory instruction's address histogram
//!   at some visit ordinal fails the KS test; surplus visits on one side
//!   are control-flow effects and are left to the transition test, exactly
//!   as the paper prescribes.
//!
//! Features whose distributions match between fixed and random inputs are
//! attributed to non-deterministic execution noise and *not* reported —
//! this is the paper's false-positive defence.

use crate::engine::Engine;
use crate::evidence::Evidence;
use crate::report::{Leak, LeakKind, LeakLocation, LeakReport};
use owl_dcfg::diff::{myers_align, AlignOp};
use owl_stats::mi::class_mi_bits;
use owl_stats::{Histogram, WeightedSamples};
use std::collections::{BTreeMap, BTreeSet};

/// Parameters of the analysis phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisConfig {
    /// Confidence level of the KS tests (the paper uses 0.95).
    pub alpha: f64,
    /// The analysis engine deciding per-feature input dependence
    /// ([`Engine::Ks`] unless overridden).
    pub method: Engine,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            alpha: 0.95,
            method: Engine::Ks,
        }
    }
}

/// A structural (non-statistical) leak: maximal deviation by construction.
fn structural(kind: LeakKind, location: LeakLocation, detail: String) -> Leak {
    Leak {
        kind,
        location,
        statistic: 1.0,
        p_value: 0.0,
        severity_bits: 1.0,
        detail,
    }
}

/// Runs the full leakage test of §VII-C.
pub fn leakage_test(fix: &Evidence, rnd: &Evidence, config: &AnalysisConfig) -> LeakReport {
    let mut walk = Walk {
        config,
        report: LeakReport::default(),
        held: BTreeMap::new(),
    };
    test_mallocs(fix, rnd, &mut walk.report);

    // Align the two evidence sequences on invocation keys.
    let fix_keys: Vec<_> = fix.invocations.iter().map(|i| &i.key).collect();
    let rnd_keys: Vec<_> = rnd.invocations.iter().map(|i| &i.key).collect();
    for op in myers_align(&fix_keys, &rnd_keys) {
        walk.report.tested_invocations += 1;
        match op {
            AlignOp::DeleteA(i) => walk.add(structural(
                LeakKind::Kernel,
                LeakLocation::Invocation(fix.invocations[i].key.clone()),
                "kernel invoked under fixed inputs but not under random inputs".into(),
            )),
            AlignOp::InsertB(j) => walk.add(structural(
                LeakKind::Kernel,
                LeakLocation::Invocation(rnd.invocations[j].key.clone()),
                "kernel invoked under random inputs but not under fixed inputs".into(),
            )),
            AlignOp::Match(i, j) => walk.test_matched_invocation(fix, i, rnd, j),
        }
    }
    walk.report
}

fn test_mallocs(fix: &Evidence, rnd: &Evidence, report: &mut LeakReport) {
    if fix.runs == 0 || rnd.runs == 0 {
        return;
    }
    let keys: BTreeSet<_> = fix.mallocs.keys().chain(rnd.mallocs.keys()).collect();
    for m in keys {
        let f = fix.mallocs.get(m).copied().unwrap_or(0) as f64 / fix.runs as f64;
        let r = rnd.mallocs.get(m).copied().unwrap_or(0) as f64 / rnd.runs as f64;
        if (f - r).abs() > f64::EPSILON {
            report.leaks.push(structural(
                LeakKind::Kernel,
                LeakLocation::Alloc(m.call_site),
                format!(
                    "allocation of {} bytes averages {f:.2}/run fixed vs {r:.2}/run random",
                    m.size
                ),
            ));
        }
    }
}

/// The walk over the aligned invocations: the engine configuration, and
/// the report every test adds its leaks to, one leak per location.
struct Walk<'a> {
    config: &'a AnalysisConfig,
    report: LeakReport,
    /// The report index of the leak held at each location.
    held: BTreeMap<LeakLocation, usize>,
}

impl Walk<'_> {
    /// Adds an already-built leak, such as a structural one.
    fn add(&mut self, leak: Leak) {
        let location = leak.location.clone();
        self.report
            .keep_strongest(&mut self.held, &location, leak.p_value, || leak);
    }

    /// Tests one feature: the engine compares its fixed- and random-input
    /// samples, and a rejection becomes a leak at `location`. The leak's
    /// severity is the engine's own estimate when it quantifies, otherwise
    /// an independent MI estimate — computed only for a leak that enters
    /// the report.
    fn test(
        &mut self,
        kind: LeakKind,
        location: &LeakLocation,
        fs: &WeightedSamples,
        rs: &WeightedSamples,
        detail: impl FnOnce() -> String,
    ) {
        let out = self.config.method.compare(self.config.alpha, fs, rs);
        if out.rejected {
            self.report
                .keep_strongest(&mut self.held, location, out.p_value, || Leak {
                    kind,
                    location: location.clone(),
                    statistic: out.statistic,
                    p_value: out.p_value,
                    severity_bits: out.bits.unwrap_or_else(|| class_mi_bits(fs, rs)),
                    detail: detail(),
                });
        }
    }

    /// Tests one memory instruction's per-visit histograms, pairing visit
    /// ordinals in access order; the location keeps its strongest
    /// rejected visit. Surplus ordinals stem from control flow and are
    /// covered by the transition test.
    fn test_visits(
        &mut self,
        location: &LeakLocation,
        fix: &[Histogram],
        rnd: &[Histogram],
        feature: &str,
    ) {
        for (visit, (fh, rh)) in fix.iter().zip(rnd).enumerate() {
            self.test(
                LeakKind::DataFlow,
                location,
                &fh.to_samples(),
                &rh.to_samples(),
                || format!("{feature} distribution differs at visit {visit}"),
            );
        }
    }

    fn test_matched_invocation(&mut self, fix: &Evidence, i: usize, rnd: &Evidence, j: usize) {
        let fi = &fix.invocations[i];
        let rj = &rnd.invocations[j];
        let key = &fi.key;
        let invocation = LeakLocation::Invocation(key.clone());

        // Launch geometry must not depend on the secret.
        if fi.configs != rj.configs {
            self.add(structural(
                LeakKind::Kernel,
                invocation.clone(),
                "launch geometry differs between fixed and random inputs".into(),
            ));
        }

        // Presence distribution (invocation-count differences show up as
        // presence gaps at aligned positions).
        self.test(
            LeakKind::Kernel,
            &invocation,
            &presence_samples(fi.present_runs, fix.runs),
            &presence_samples(rj.present_runs, rnd.runs),
            || {
                format!(
                    "invocation present in {}/{} fixed vs {}/{} random runs",
                    fi.present_runs, fix.runs, rj.present_runs, rnd.runs
                )
            },
        );

        // Device control-flow test: per node, per eq. (8), the flattened
        // transition matrix histograms.
        let nodes: BTreeSet<u32> = fi
            .adcfg
            .nodes
            .keys()
            .chain(rj.adcfg.nodes.keys())
            .copied()
            .collect();
        for bb in nodes {
            self.report.tested_nodes += 1;
            self.test(
                LeakKind::ControlFlow,
                &LeakLocation::Block(key.clone(), bb),
                &node_transition_samples(&fi.adcfg, bb),
                &node_transition_samples(&rj.adcfg, bb),
                || "control-flow transition distribution differs".into(),
            );

            // Device data-flow test: per instruction, per visit ordinal.
            let (fnode, rnode) = (fi.adcfg.node(bb), rj.adcfg.node(bb));
            let insts: BTreeSet<u32> = fnode
                .map(|n| n.mem.keys().copied().collect::<BTreeSet<_>>())
                .unwrap_or_default()
                .union(
                    &rnode
                        .map(|n| n.mem.keys().copied().collect())
                        .unwrap_or_default(),
                )
                .copied()
                .collect();
            for inst in insts {
                self.report.tested_instructions += 1;
                let location = LeakLocation::Instruction(key.clone(), bb, inst);
                let fvisits = fnode.and_then(|n| n.mem.get(&inst));
                let rvisits = rnode.and_then(|n| n.mem.get(&inst));
                match (fvisits, rvisits) {
                    (Some(fv), Some(rv)) => {
                        self.test_visits(&location, fv, rv, "address");
                        // The per-warp access-cost feature (coalesced
                        // transactions / bank conflicts): warp aggregation
                        // of addresses can hide per-event grouping that
                        // this catches.
                        let fcost = fnode.and_then(|n| n.cost.get(&inst));
                        let rcost = rnode.and_then(|n| n.cost.get(&inst));
                        if let (Some(fc), Some(rc)) = (fcost, rcost) {
                            self.test_visits(&location, fc, rc, "memory transaction cost");
                        }
                    }
                    (Some(_), None) | (None, Some(_)) => {
                        // The access executed only under one input class —
                        // with identical control flow this is predication,
                        // a data-dependent access pattern.
                        self.add(structural(
                            LeakKind::DataFlow,
                            location,
                            "memory access executes only under one input class".into(),
                        ));
                    }
                    (None, None) => {}
                }
            }
        }
    }
}

/// One weight per run: the value 1 where the invocation was present, 0
/// where it was absent.
fn presence_samples(present: u64, runs: u64) -> WeightedSamples {
    WeightedSamples::from_sorted_pairs([(0.0, runs.saturating_sub(present)), (1.0, present)])
}

fn node_transition_samples(g: &owl_dcfg::Adcfg, bb: u32) -> WeightedSamples {
    g.node(bb)
        .map(|n| n.transitions.to_samples())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{InvocationKey, KernelInvocation, ProgramTrace};
    use owl_dcfg::AdcfgBuilder;
    use owl_host::CallSite;

    const N_RUNS: usize = 50;

    fn key(line: u32, kernel: &str) -> InvocationKey {
        InvocationKey {
            call_site: CallSite {
                file: "f.rs",
                line,
                column: 1,
            },
            kernel: kernel.into(),
        }
    }

    /// Builds a one-invocation trace where warp 0 walks `walk` and touches
    /// `addr` at bb `walk[0]`, instruction 0.
    fn trace_walk_addr(walk: &[u32], addr: u64) -> ProgramTrace {
        let mut b = AdcfgBuilder::new();
        for (i, &bb) in walk.iter().enumerate() {
            b.enter_block(0, bb);
            if i == 0 {
                b.block_recorder(0).access(0, [addr]);
            }
        }
        ProgramTrace {
            invocations: vec![KernelInvocation::new(
                key(1, "k"),
                ((1, 1, 1), (32, 1, 1)),
                b.finish(),
            )],
            mallocs: vec![],
        }
    }

    fn evidence_from(f: impl Fn(u64) -> ProgramTrace) -> Evidence {
        Evidence::from_traces((0..N_RUNS as u64).map(f))
    }

    #[test]
    fn identical_behaviour_is_clean() {
        let fix = evidence_from(|_| trace_walk_addr(&[0, 1, 2], 0x40));
        let rnd = evidence_from(|_| trace_walk_addr(&[0, 1, 2], 0x40));
        let report = leakage_test(&fix, &rnd, &AnalysisConfig::default());
        assert!(report.is_clean(), "unexpected leaks: {report}");
        assert_eq!(report.tested_invocations, 1);
        assert!(report.tested_nodes >= 3);
    }

    #[test]
    fn input_dependent_address_is_data_flow_leak() {
        // Fixed: always offset 0x40. Random: spread over the table.
        let fix = evidence_from(|_| trace_walk_addr(&[0, 1], 0x40));
        let rnd = evidence_from(|r| trace_walk_addr(&[0, 1], (r % 32) * 8));
        let report = leakage_test(&fix, &rnd, &AnalysisConfig::default());
        assert_eq!(report.count(LeakKind::DataFlow), 1, "{report}");
        assert_eq!(report.count(LeakKind::ControlFlow), 0, "{report}");
        match &report.leaks[0].location {
            LeakLocation::Instruction(_, bb, inst) => {
                assert_eq!((*bb, *inst), (0, 0));
            }
            other => panic!("wrong location {other:?}"),
        }
    }

    #[test]
    fn random_noise_is_not_flagged() {
        // The program has a nondeterministic address (e.g. randomised
        // defence): the distribution is the same under fixed and random
        // inputs, so Owl must not flag it.
        let fix = evidence_from(|r| trace_walk_addr(&[0, 1], (r.wrapping_mul(7) % 32) * 8));
        let rnd = evidence_from(|r| trace_walk_addr(&[0, 1], (r.wrapping_mul(13) % 32) * 8));
        let report = leakage_test(&fix, &rnd, &AnalysisConfig::default());
        assert!(report.is_clean(), "noise misdetected: {report}");
    }

    #[test]
    fn input_dependent_branch_is_control_flow_leak() {
        // Fixed: always takes block 1. Random: takes 1 or 2 evenly.
        let fix = evidence_from(|_| trace_walk_addr(&[0, 1, 3], 0x40));
        let rnd = evidence_from(|r| {
            trace_walk_addr(if r % 2 == 0 { &[0, 1, 3] } else { &[0, 2, 3] }, 0x40)
        });
        let report = leakage_test(&fix, &rnd, &AnalysisConfig::default());
        assert!(report.count(LeakKind::ControlFlow) >= 1, "{report}");
        assert!(
            report
                .of_kind(LeakKind::ControlFlow)
                .any(|l| matches!(&l.location, LeakLocation::Block(_, bb) if *bb == 0 || *bb == 2)),
            "{report}"
        );
    }

    #[test]
    fn input_dependent_invocation_is_kernel_leak() {
        // Random inputs sometimes launch an extra kernel.
        let base = |_| trace_walk_addr(&[0], 0x40);
        let fix = evidence_from(base);
        let rnd = evidence_from(|r| {
            let mut t = trace_walk_addr(&[0], 0x40);
            if r % 2 == 0 {
                let mut b = AdcfgBuilder::new();
                b.enter_block(0, 0);
                t.invocations.push(KernelInvocation::new(
                    key(9, "extra"),
                    ((1, 1, 1), (32, 1, 1)),
                    b.finish(),
                ));
            }
            t
        });
        let report = leakage_test(&fix, &rnd, &AnalysisConfig::default());
        assert!(report.count(LeakKind::Kernel) >= 1, "{report}");
        assert!(report
            .of_kind(LeakKind::Kernel)
            .any(|l| matches!(&l.location, LeakLocation::Invocation(k) if k.kernel == "extra")));
    }

    #[test]
    fn differing_geometry_is_kernel_leak() {
        let fix = evidence_from(|_| trace_walk_addr(&[0], 0x40));
        let rnd = evidence_from(|r| {
            let mut t = trace_walk_addr(&[0], 0x40);
            if r % 2 == 0 {
                t.invocations[0].config = ((2, 1, 1), (32, 1, 1));
            }
            t
        });
        let report = leakage_test(&fix, &rnd, &AnalysisConfig::default());
        assert!(report.count(LeakKind::Kernel) >= 1, "{report}");
    }

    #[test]
    fn malloc_profile_difference_is_flagged() {
        let m = crate::trace::MallocRecord {
            call_site: CallSite {
                file: "f.rs",
                line: 77,
                column: 1,
            },
            size: 128,
        };
        let fix = evidence_from(|_| trace_walk_addr(&[0], 0x40));
        let rnd = evidence_from(|r| {
            let mut t = trace_walk_addr(&[0], 0x40);
            if r % 2 == 0 {
                t.mallocs.push(m);
            }
            t
        });
        let report = leakage_test(&fix, &rnd, &AnalysisConfig::default());
        assert!(report
            .leaks
            .iter()
            .any(|l| matches!(l.location, LeakLocation::Alloc(_))));
    }

    #[test]
    fn loop_launches_dedup_to_one_kernel_leak() {
        // The same key appears thrice per run under random inputs only:
        // the report collapses them to one leak at the invocation site.
        let fix = evidence_from(|_| trace_walk_addr(&[0], 0x40));
        let rnd = evidence_from(|_| {
            let mut t = trace_walk_addr(&[0], 0x40);
            for _ in 0..3 {
                let mut b = AdcfgBuilder::new();
                b.enter_block(0, 0);
                t.invocations.push(KernelInvocation::new(
                    key(5, "looped"),
                    ((1, 1, 1), (32, 1, 1)),
                    b.finish(),
                ));
            }
            t
        });
        let report = leakage_test(&fix, &rnd, &AnalysisConfig::default());
        let looped: Vec<_> = report
            .of_kind(LeakKind::Kernel)
            .filter(|l| matches!(&l.location, LeakLocation::Invocation(k) if k.kernel == "looped"))
            .collect();
        assert_eq!(looped.len(), 1, "{report}");
    }

    #[test]
    fn predicated_access_only_under_one_class_is_data_flow_leak() {
        let fix = evidence_from(|_| trace_walk_addr(&[0], 0x40));
        let rnd = evidence_from(|_| {
            // Same walk, but an extra access at instruction 5.
            let mut b = AdcfgBuilder::new();
            b.enter_block(0, 0);
            let mut rec = b.block_recorder(0);
            rec.access(0, [0x40]);
            rec.access(5, [0x80]);
            ProgramTrace {
                invocations: vec![KernelInvocation::new(
                    key(1, "k"),
                    ((1, 1, 1), (32, 1, 1)),
                    b.finish(),
                )],
                mallocs: vec![],
            }
        });
        let report = leakage_test(&fix, &rnd, &AnalysisConfig::default());
        assert!(report
            .of_kind(LeakKind::DataFlow)
            .any(|l| matches!(l.location, LeakLocation::Instruction(_, 0, 5))));
    }

    #[test]
    fn small_samples_do_not_reject() {
        // With 2 runs each, even disjoint addresses are not significant.
        let fix = Evidence::from_traces((0..2).map(|_| trace_walk_addr(&[0], 0x40)));
        let rnd = Evidence::from_traces((0..2).map(|r| trace_walk_addr(&[0], 0x100 + r * 8)));
        let report = leakage_test(&fix, &rnd, &AnalysisConfig::default());
        assert_eq!(report.count(LeakKind::DataFlow), 0, "{report}");
    }
}

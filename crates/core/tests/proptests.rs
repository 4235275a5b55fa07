//! Property-based tests for the detector core: evidence merging, filtering,
//! and analysis invariants.

use owl_core::{
    filter_traces, leakage_test, AnalysisConfig, Evidence, InvocationKey, KernelInvocation,
    ProgramTrace,
};
use owl_dcfg::AdcfgBuilder;
use owl_host::CallSite;
use proptest::prelude::*;

fn key(line: u32, kernel: u8) -> InvocationKey {
    InvocationKey {
        call_site: CallSite {
            file: "prop.rs",
            line,
            column: 1,
        },
        kernel: format!("k{kernel}"),
    }
}

/// Builds a trace from a compact description: a list of invocations, each a
/// `(kernel id, walk, access address)` triple.
fn build_trace(desc: &[(u8, Vec<u8>, u64)]) -> ProgramTrace {
    let invocations = desc
        .iter()
        .map(|(kernel, walk, addr)| {
            let mut b = AdcfgBuilder::new();
            for (i, &bb) in walk.iter().enumerate() {
                b.enter_block(0, u32::from(bb));
                if i == 0 {
                    b.block_recorder(0).access(0, [*addr]);
                }
            }
            KernelInvocation::new(
                key(u32::from(*kernel), *kernel),
                ((1, 1, 1), (32, 1, 1)),
                b.finish(),
            )
        })
        .collect();
    ProgramTrace {
        invocations,
        mallocs: vec![],
    }
}

fn arb_trace_desc() -> impl Strategy<Value = Vec<(u8, Vec<u8>, u64)>> {
    prop::collection::vec(
        (0u8..4, prop::collection::vec(0u8..5, 1..6), 0u64..64),
        1..5,
    )
}

proptest! {
    /// Evidence building never loses runs, and presence never exceeds runs.
    #[test]
    fn evidence_accounting_invariants(
        descs in prop::collection::vec(arb_trace_desc(), 1..8),
    ) {
        let ev = Evidence::from_traces(descs.iter().map(|d| build_trace(d)));
        prop_assert_eq!(ev.runs, descs.len() as u64);
        for inv in &ev.invocations {
            prop_assert!(inv.present_runs >= 1);
            prop_assert!(inv.present_runs <= ev.runs);
        }
        // Total presence across positions equals total invocations merged.
        let total_present: u64 = ev.invocations.iter().map(|i| i.present_runs).sum();
        let total_invocations: u64 = descs.iter().map(|d| d.len() as u64).sum();
        prop_assert_eq!(total_present, total_invocations);
    }

    /// Merging identical traces produces full-presence positions with
    /// count-scaled graphs.
    #[test]
    fn evidence_of_identical_runs_is_full_presence(
        desc in arb_trace_desc(),
        n in 1u64..6,
    ) {
        let ev = Evidence::from_traces((0..n).map(|_| build_trace(&desc)));
        prop_assert_eq!(ev.invocations.len(), desc.len());
        for inv in &ev.invocations {
            prop_assert_eq!(inv.present_runs, n);
        }
    }

    /// Identical evidence is always clean, regardless of its contents —
    /// the analysis is a *differential*.
    #[test]
    fn self_comparison_is_always_clean(
        descs in prop::collection::vec(arb_trace_desc(), 2..6),
    ) {
        let ev = Evidence::from_traces(descs.iter().map(|d| build_trace(d)));
        let report = leakage_test(&ev, &ev, &AnalysisConfig::default());
        prop_assert!(report.is_clean(), "{}", report);
    }

    /// Filtering partitions the inputs: every index lands in exactly one
    /// class, identical traces share a class, distinct traces never do.
    #[test]
    fn filtering_is_a_partition(
        descs in prop::collection::vec(arb_trace_desc(), 1..10),
    ) {
        let traces: Vec<ProgramTrace> = descs.iter().map(|d| build_trace(d)).collect();
        let inputs: Vec<usize> = (0..traces.len()).collect();
        let out = filter_traces(&inputs, traces.clone());
        let mut seen = vec![false; inputs.len()];
        for class in &out.classes {
            for &m in &class.members {
                prop_assert!(!seen[m], "index {m} in two classes");
                seen[m] = true;
                prop_assert_eq!(&traces[m], &class.trace, "member trace differs");
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        // Classes have pairwise distinct traces.
        for (i, a) in out.classes.iter().enumerate() {
            for b in &out.classes[i + 1..] {
                prop_assert_ne!(&a.trace, &b.trace);
            }
        }
    }

    /// The evidence merge is insensitive to duplicate-input order for
    /// identical traces (the common fixed-input case).
    #[test]
    fn evidence_merge_of_two_alternating_traces_is_order_stable(
        a in arb_trace_desc(),
        b in arb_trace_desc(),
        n in 1usize..4,
    ) {
        // a,b,a,b,... vs the same multiset built as a..a,b..b can differ in
        // *positions* when sequences interleave, but per-key totals must
        // match.
        let alternating = Evidence::from_traces(
            (0..2 * n).map(|i| build_trace(if i % 2 == 0 { &a } else { &b })),
        );
        let blocked = Evidence::from_traces(
            std::iter::repeat_with(|| build_trace(&a))
                .take(n)
                .chain(std::iter::repeat_with(|| build_trace(&b)).take(n)),
        );
        let totals = |ev: &Evidence| {
            let mut m = std::collections::BTreeMap::new();
            for inv in &ev.invocations {
                *m.entry(inv.key.clone()).or_insert(0u64) += inv.present_runs;
            }
            m
        };
        prop_assert_eq!(totals(&alternating), totals(&blocked));
    }
}

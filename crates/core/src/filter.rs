//! Phase 2 — duplicates removing (paper §VI).
//!
//! Inputs whose traces are identical belong to one *class*: they have equal
//! side-channel characteristics, so one representative per class suffices
//! for the (expensive) leakage analysis phase. A program whose user inputs
//! all fall into a single class is declared free of (observed) leakage.

use crate::trace::ProgramTrace;
use std::collections::HashMap;

/// One equivalence class of inputs.
#[derive(Debug, Clone)]
pub struct InputClass<I> {
    /// A representative input: the first seen, the one at `members[0]`.
    pub representative: I,
    /// The class trace.
    pub trace: ProgramTrace,
    /// Indices of all member inputs.
    pub members: Vec<usize>,
}

/// The outcome of the duplicates-removing phase.
#[derive(Debug, Clone)]
pub struct FilterOutcome<I> {
    /// The classes, in order of first appearance.
    pub classes: Vec<InputClass<I>>,
    /// Number of inputs filtered (total minus class count).
    pub duplicates_removed: usize,
}

impl<I> FilterOutcome<I> {
    /// `true` when every input produced the same trace — the paper's
    /// "side-channel leakage-free" verdict for this phase.
    pub fn single_class(&self) -> bool {
        self.classes.len() == 1
    }
}

/// Groups `(input, trace)` pairs into classes of identical traces.
///
/// Digest collisions are guarded by a full equality check, so classes are
/// exact.
///
/// # Panics
///
/// Panics if `inputs` and `traces` have different lengths.
pub fn filter_traces<I: Clone>(inputs: &[I], traces: Vec<ProgramTrace>) -> FilterOutcome<I> {
    assert_eq!(inputs.len(), traces.len(), "one trace per input");
    let mut filter = ClassFilter::default();
    for (input, trace) in inputs.iter().zip(traces) {
        filter.push(input, trace);
    }
    filter.finish()
}

/// [`filter_traces`] one input at a time: each trace is filed under its
/// class as it arrives and only one trace per class is kept, so a
/// detection never holds every user input's trace at once.
pub(crate) struct ClassFilter<I> {
    classes: Vec<InputClass<I>>,
    /// digest → candidate class indices (collision-safe).
    by_digest: HashMap<u64, Vec<usize>>,
    /// Inputs filed so far; the next one is member index `inputs`.
    inputs: usize,
}

impl<I> Default for ClassFilter<I> {
    fn default() -> Self {
        ClassFilter {
            classes: Vec::new(),
            by_digest: HashMap::new(),
            inputs: 0,
        }
    }
}

impl<I: Clone> ClassFilter<I> {
    /// Files the next input under the class of `trace`, opening a new class
    /// represented by `input` when no earlier trace equals it.
    pub(crate) fn push(&mut self, input: &I, trace: ProgramTrace) {
        let idx = self.inputs;
        self.inputs += 1;
        let candidates = self.by_digest.entry(trace.digest()).or_default();
        if let Some(&class_idx) = candidates
            .iter()
            .find(|&&ci| self.classes[ci].trace == trace)
        {
            self.classes[class_idx].members.push(idx);
        } else {
            candidates.push(self.classes.len());
            self.classes.push(InputClass {
                representative: input.clone(),
                trace,
                members: vec![idx],
            });
        }
    }

    /// The classes, in order of first appearance.
    pub(crate) fn finish(self) -> FilterOutcome<I> {
        FilterOutcome {
            duplicates_removed: self.inputs - self.classes.len(),
            classes: self.classes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{InvocationKey, KernelInvocation};
    use owl_dcfg::AdcfgBuilder;
    use owl_host::CallSite;

    fn trace_with_walk(walk: &[u32]) -> ProgramTrace {
        let mut b = AdcfgBuilder::new();
        for &bb in walk {
            b.enter_block(0, bb);
        }
        ProgramTrace {
            invocations: vec![KernelInvocation::new(
                InvocationKey {
                    call_site: CallSite {
                        file: "f.rs",
                        line: 1,
                        column: 1,
                    },
                    kernel: "k".into(),
                },
                ((1, 1, 1), (32, 1, 1)),
                b.finish(),
            )],
            mallocs: vec![],
        }
    }

    #[test]
    fn identical_traces_form_one_class() {
        let inputs = [10u64, 20, 30];
        let traces = vec![
            trace_with_walk(&[0, 1]),
            trace_with_walk(&[0, 1]),
            trace_with_walk(&[0, 1]),
        ];
        let out = filter_traces(&inputs, traces);
        assert!(out.single_class());
        assert_eq!(out.duplicates_removed, 2);
        assert_eq!(out.classes[0].members, vec![0, 1, 2]);
        assert_eq!(out.classes[0].representative, 10);
    }

    #[test]
    fn distinct_traces_split_classes() {
        let inputs = [1u64, 2, 3, 4];
        let traces = vec![
            trace_with_walk(&[0, 1]),
            trace_with_walk(&[0, 2]),
            trace_with_walk(&[0, 1]),
            trace_with_walk(&[0, 3]),
        ];
        let out = filter_traces(&inputs, traces);
        assert_eq!(out.classes.len(), 3);
        assert!(!out.single_class());
        assert_eq!(out.classes[0].members, vec![0, 2]);
        assert_eq!(out.classes[1].representative, 2);
        assert_eq!(out.duplicates_removed, 1);
    }

    #[test]
    fn single_input_is_single_class() {
        let out = filter_traces(&[7u64], vec![trace_with_walk(&[0])]);
        assert!(out.single_class());
        assert_eq!(out.duplicates_removed, 0);
    }

    #[test]
    #[should_panic(expected = "one trace per input")]
    fn mismatched_lengths_panic() {
        let _ = filter_traces(&[1u64, 2], vec![trace_with_walk(&[0])]);
    }
}

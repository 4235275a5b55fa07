//! Evidence assembly (paper §VII-A).
//!
//! Repeated executions of the program — with fixed inputs for `E_fix`,
//! random inputs for `E_rnd` — are merged into a single [`Evidence`]
//! structure: kernel-invocation sequences are aligned with the Myers
//! algorithm, aligned invocations merge their A-DCFGs and bump presence
//! counts, and unaligned invocations are added as-is.

use crate::trace::{ConfigTuple, InvocationKey, MallocRecord, ProgramTrace};
use owl_dcfg::diff::{myers_align, AlignOp};
use owl_dcfg::Adcfg;
use std::collections::BTreeMap;

/// One aligned kernel-invocation position across the merged runs.
#[derive(Debug, Clone, PartialEq)]
pub struct EvidenceInvocation {
    /// The invocation-site identity.
    pub key: InvocationKey,
    /// All launch geometries observed at this position.
    pub configs: std::collections::BTreeSet<ConfigTuple>,
    /// Merged A-DCFG over all runs containing this position.
    pub adcfg: Adcfg,
    /// Number of runs in which this position occurred.
    pub present_runs: u64,
}

/// Merged statistical features of repeated program runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Evidence {
    /// Number of runs merged.
    pub runs: u64,
    /// Aligned invocation positions, in (aligned) program order.
    pub invocations: Vec<EvidenceInvocation>,
    /// Per distinct allocation record, the total count over all runs.
    pub mallocs: BTreeMap<MallocRecord, u64>,
}

impl EvidenceInvocation {
    /// Estimated in-memory footprint in bytes: the merged A-DCFG plus the
    /// invocation-site identity and per-position bookkeeping.
    pub fn size_bytes(&self) -> usize {
        self.adcfg.size_bytes()
            + self.key.kernel.len()
            + std::mem::size_of::<InvocationKey>()
            + self.configs.len() * std::mem::size_of::<ConfigTuple>()
            + std::mem::size_of_val(&self.present_runs)
    }
}

impl Evidence {
    /// Estimated in-memory footprint in bytes — the peak-memory quantity of
    /// the paper's Table IV. Malloc entries are sized from the actual map
    /// entry type (`(MallocRecord, u64)`) rather than a guessed constant.
    pub fn size_bytes(&self) -> usize {
        self.invocations
            .iter()
            .map(EvidenceInvocation::size_bytes)
            .sum::<usize>()
            + self.mallocs.len() * std::mem::size_of::<(MallocRecord, u64)>()
    }

    /// Builds evidence from an iterator of traces.
    pub fn from_traces(traces: impl IntoIterator<Item = ProgramTrace>) -> Self {
        let mut ev = Evidence::default();
        for t in traces {
            ev.merge_trace(t);
        }
        ev
    }

    /// Evidence of a single run.
    pub fn from_trace(trace: ProgramTrace) -> Self {
        let mut mallocs = BTreeMap::new();
        for m in &trace.mallocs {
            *mallocs.entry(*m).or_insert(0) += 1;
        }
        Evidence {
            runs: 1,
            invocations: trace
                .invocations
                .into_iter()
                .map(|inv| EvidenceInvocation {
                    key: inv.key,
                    configs: [inv.config].into_iter().collect(),
                    adcfg: inv.adcfg,
                    present_runs: 1,
                })
                .collect(),
            mallocs,
        }
    }

    /// Merges one more run into the evidence (§VII-A steps 1–3).
    pub fn merge_trace(&mut self, trace: ProgramTrace) {
        self.merge(Evidence::from_trace(trace));
    }

    /// Merges `n` bit-identical copies of one run at the cost of a single
    /// merge: equivalent — exactly, not approximately — to calling
    /// [`Self::merge_trace`] `n` times with clones of `trace`.
    ///
    /// Identical invocation sequences align position-by-position under
    /// Myers, and every merged quantity (run counts, malloc counts,
    /// presence counts, A-DCFG transition/edge/visit/bin counts) is a
    /// `u64` sum, so merging a run `n` times equals multiplying its
    /// single-run evidence by `n`. The evidence phase uses this when all
    /// runs of a work item are provably identical (fixed input, ASLR off).
    pub fn merge_trace_repeated(&mut self, trace: ProgramTrace, n: u64) {
        if n == 0 {
            return;
        }
        let mut ev = Evidence::from_trace(trace);
        ev.runs = n;
        for count in ev.mallocs.values_mut() {
            *count *= n;
        }
        for inv in &mut ev.invocations {
            inv.present_runs = n;
            inv.adcfg.scale(n);
        }
        self.merge(ev);
    }

    /// Merges another evidence into this one: the associative reduction the
    /// parallel evidence phase relies on.
    ///
    /// Invocation sequences are aligned on keys with the Myers algorithm —
    /// aligned positions merge their A-DCFGs, union their launch configs and
    /// add presence counts; unaligned positions are kept as-is — and run and
    /// allocation counts add. For run sets whose invocation sequences align
    /// consistently (in particular, subsequences of one common sequence with
    /// at most one distinct insertion per gap), merging partial evidences of
    /// contiguous run ranges in range order is exactly equivalent to merging
    /// the runs one at a time, which is what makes chunked parallel
    /// reduction deterministic.
    pub fn merge(&mut self, other: Evidence) {
        self.runs += other.runs;
        for (m, count) in other.mallocs {
            *self.mallocs.entry(m).or_insert(0) += count;
        }

        // Align the two invocation sequences on keys.
        let ours: Vec<&InvocationKey> = self.invocations.iter().map(|i| &i.key).collect();
        let theirs: Vec<&InvocationKey> = other.invocations.iter().map(|i| &i.key).collect();
        let ops = myers_align(&ours, &theirs);

        let mut old = std::mem::take(&mut self.invocations).into_iter();
        let mut new = other.invocations.into_iter();
        let mut merged = Vec::with_capacity(ops.len());
        for op in ops {
            match op {
                AlignOp::Match(_, _) => {
                    let mut ours = old.next().expect("alignment covers evidence");
                    let theirs = new.next().expect("alignment covers other evidence");
                    debug_assert_eq!(ours.key, theirs.key);
                    ours.adcfg.merge(&theirs.adcfg);
                    ours.configs.extend(theirs.configs);
                    ours.present_runs += theirs.present_runs;
                    merged.push(ours);
                }
                AlignOp::DeleteA(_) => {
                    merged.push(old.next().expect("alignment covers evidence"));
                }
                AlignOp::InsertB(_) => {
                    merged.push(new.next().expect("alignment covers other evidence"));
                }
            }
        }
        self.invocations = merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::KernelInvocation;
    use owl_dcfg::AdcfgBuilder;
    use owl_host::CallSite;

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

    fn inv(line: u32, kernel: &str, walk: &[u32]) -> KernelInvocation {
        let mut b = AdcfgBuilder::new();
        for &bb in walk {
            b.enter_block(0, bb);
        }
        KernelInvocation::new(key(line, kernel), ((1, 1, 1), (32, 1, 1)), b.finish())
    }

    fn trace(invs: Vec<KernelInvocation>) -> ProgramTrace {
        ProgramTrace {
            invocations: invs,
            mallocs: vec![],
        }
    }

    #[test]
    fn identical_runs_merge_completely() {
        let make = || trace(vec![inv(1, "a", &[0, 1]), inv(2, "b", &[0])]);
        let ev = Evidence::from_traces([make(), make(), make()]);
        assert_eq!(ev.runs, 3);
        assert_eq!(ev.invocations.len(), 2);
        assert!(ev.invocations.iter().all(|i| i.present_runs == 3));
        // Edge counts in the merged graph tripled.
        assert_eq!(ev.invocations[0].adcfg.edge(0, 1), 3);
    }

    #[test]
    fn extra_invocation_in_some_runs_stays_separate() {
        let base = || trace(vec![inv(1, "a", &[0]), inv(3, "c", &[0])]);
        let with_extra = || {
            trace(vec![
                inv(1, "a", &[0]),
                inv(2, "b", &[0]),
                inv(3, "c", &[0]),
            ])
        };
        let ev = Evidence::from_traces([base(), with_extra(), base(), with_extra()]);
        assert_eq!(ev.runs, 4);
        assert_eq!(ev.invocations.len(), 3);
        let b_pos = ev
            .invocations
            .iter()
            .position(|i| i.key.kernel == "b")
            .unwrap();
        assert_eq!(ev.invocations[b_pos].present_runs, 2);
    }

    #[test]
    fn differing_configs_are_collected() {
        let mut t1 = trace(vec![inv(1, "a", &[0])]);
        t1.invocations[0].config = ((1, 1, 1), (32, 1, 1));
        let mut t2 = trace(vec![inv(1, "a", &[0])]);
        t2.invocations[0].config = ((2, 1, 1), (32, 1, 1));
        let ev = Evidence::from_traces([t1, t2]);
        assert_eq!(ev.invocations[0].configs.len(), 2);
    }

    #[test]
    fn mallocs_accumulate() {
        let m = MallocRecord {
            call_site: CallSite {
                file: "f.rs",
                line: 9,
                column: 9,
            },
            size: 64,
        };
        let t = || ProgramTrace {
            invocations: vec![],
            mallocs: vec![m, m],
        };
        let ev = Evidence::from_traces([t(), t()]);
        assert_eq!(ev.mallocs[&m], 4);
    }

    #[test]
    fn empty_evidence() {
        let ev = Evidence::from_traces(std::iter::empty());
        assert_eq!(ev.runs, 0);
        assert!(ev.invocations.is_empty());
    }

    #[test]
    fn chunked_merge_equals_sequential_merge() {
        // The parallel evidence phase folds contiguous run chunks into
        // partial evidences and merges the partials in chunk order; the
        // result must equal the one-run-at-a-time fold.
        let runs: Vec<ProgramTrace> = (0..10)
            .map(|r| {
                let mut invs = vec![inv(1, "a", &[0, (r % 3) as u32 + 1])];
                if r % 2 == 0 {
                    invs.push(inv(2, "b", &[0]));
                }
                invs.push(inv(3, "c", &[0]));
                trace(invs)
            })
            .collect();

        let sequential = Evidence::from_traces(runs.iter().cloned());
        for chunk_size in [1usize, 3, 4, 10] {
            let mut chunked = Evidence::default();
            for chunk in runs.chunks(chunk_size) {
                chunked.merge(Evidence::from_traces(chunk.iter().cloned()));
            }
            assert_eq!(chunked, sequential, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn merge_into_empty_is_identity() {
        let some = Evidence::from_traces([trace(vec![inv(1, "a", &[0, 1])])]);
        let mut empty = Evidence::default();
        empty.merge(some.clone());
        assert_eq!(empty, some);
        let mut some2 = some.clone();
        some2.merge(Evidence::default());
        assert_eq!(some2, some);
    }

    #[test]
    fn merge_order_of_identical_suffix_is_stable() {
        // a,c then a,b,c: b must land between a and c.
        let ev = Evidence::from_traces([
            trace(vec![inv(1, "a", &[0]), inv(3, "c", &[0])]),
            trace(vec![
                inv(1, "a", &[0]),
                inv(2, "b", &[0]),
                inv(3, "c", &[0]),
            ]),
        ]);
        let names: Vec<&str> = ev
            .invocations
            .iter()
            .map(|i| i.key.kernel.as_str())
            .collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }
}

//! Property tests for the associative [`Evidence`] merge the parallel
//! evidence phase reduces with.
//!
//! The generated run sets mirror what real detections produce: every run
//! contains a common backbone of kernel invocations in program order, plus
//! (per backbone gap) at most one optional invocation that only some runs
//! execute — the shape for which Myers alignment is unambiguous, so the
//! merged evidence cannot depend on merge order or chunking.

use owl::core::{Evidence, InvocationKey, KernelInvocation, MallocRecord, ProgramTrace};
use owl::dcfg::AdcfgBuilder;
use owl::host::CallSite;
use proptest::prelude::*;

const BACKBONE: usize = 4;

fn key(line: u32, kernel: &str) -> InvocationKey {
    InvocationKey {
        call_site: CallSite {
            file: "prop.rs",
            line,
            column: 1,
        },
        kernel: kernel.into(),
    }
}

fn invocation(line: u32, kernel: &str, addr: u64) -> KernelInvocation {
    let mut b = AdcfgBuilder::new();
    b.enter_block(0, 0);
    b.block_recorder(0).access(0, [addr]);
    b.enter_block(0, 1 + (addr % 3) as u32);
    KernelInvocation::new(key(line, kernel), ((1, 1, 1), (32, 1, 1)), b.finish())
}

/// One run: backbone kernels `k0..k3` always, optional kernel `opt{i}`
/// after backbone position `i` when the mask says so; per-run addresses
/// vary the A-DCFG contents; a malloc count varies too.
fn build_trace(optional_mask: [bool; BACKBONE], addr_salt: u64, mallocs: u8) -> ProgramTrace {
    let mut invocations = Vec::new();
    for (i, &optional) in optional_mask.iter().enumerate() {
        invocations.push(invocation(
            10 * (i as u32 + 1),
            &format!("k{i}"),
            (addr_salt.wrapping_mul(i as u64 + 1) % 8) * 16,
        ));
        if optional {
            invocations.push(invocation(
                10 * (i as u32 + 1) + 5,
                &format!("opt{i}"),
                (addr_salt % 4) * 32,
            ));
        }
    }
    let site = CallSite {
        file: "prop.rs",
        line: 99,
        column: 1,
    };
    ProgramTrace {
        invocations,
        mallocs: (0..mallocs)
            .map(|_| MallocRecord {
                call_site: site,
                size: 64,
            })
            .collect(),
    }
}

/// A strategy drawing one run's recipe.
fn run_recipe() -> impl Strategy<Value = ([bool; BACKBONE], u64, u8)> {
    (
        (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
        0u64..1000,
        0u8..3,
    )
        .prop_map(|((a, b, c, d), salt, mallocs)| ([a, b, c, d], salt, mallocs))
}

/// Reorders `items` by the ranks of the parallel `keys` vector (a
/// deterministic shuffle drawn by the strategy).
fn permute<T: Clone>(items: &[T], keys: &[u64]) -> Vec<T> {
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| (keys[i % keys.len().max(1)], i));
    order.into_iter().map(|i| items[i].clone()).collect()
}

proptest! {
    #[test]
    fn merge_is_order_insensitive(
        recipes in prop::collection::vec(run_recipe(), 2..12),
        shuffle_keys in prop::collection::vec(any::<u64>(), 12..=12),
    ) {
        let traces: Vec<ProgramTrace> = recipes
            .iter()
            .map(|&(mask, salt, mallocs)| build_trace(mask, salt, mallocs))
            .collect();
        let shuffled = permute(&traces, &shuffle_keys);

        let in_order = Evidence::from_traces(traces.iter().cloned());
        let out_of_order = Evidence::from_traces(shuffled);
        prop_assert_eq!(in_order, out_of_order);
    }

    #[test]
    fn chunked_reduction_equals_sequential_fold(
        recipes in prop::collection::vec(run_recipe(), 2..12),
        chunk_size in 1usize..6,
    ) {
        let traces: Vec<ProgramTrace> = recipes
            .iter()
            .map(|&(mask, salt, mallocs)| build_trace(mask, salt, mallocs))
            .collect();

        let sequential = Evidence::from_traces(traces.iter().cloned());
        let mut chunked = Evidence::default();
        for chunk in traces.chunks(chunk_size) {
            chunked.merge(Evidence::from_traces(chunk.iter().cloned()));
        }
        prop_assert_eq!(chunked, sequential);
    }
}

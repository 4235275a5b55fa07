//! Program traces: the output of the trace-recording phase.
//!
//! A [`ProgramTrace`] is the paper's `T_P = (T_{k_1}, …, T_{k_n})`: the
//! chronological sequence of kernel invocations (each reconstructed into an
//! A-DCFG) plus the host-side allocation records. Kernel invocations are
//! identified by their host call site and kernel name — the paper's
//! call-stack identity for `cuLaunchKernel` (§V-C).

use owl_dcfg::Adcfg;
use owl_host::CallSite;
use serde::Serialize;
use std::hash::{Hash, Hasher};

/// Identity of a kernel invocation *site*: which kernel, launched from
/// where in host code.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct InvocationKey {
    /// Host call site of the launch.
    pub call_site: CallSite,
    /// Kernel name.
    pub kernel: String,
}

impl std::fmt::Display for InvocationKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.kernel, self.call_site)
    }
}

/// Launch geometry in hashable tuple form.
pub type ConfigTuple = ((u32, u32, u32), (u32, u32, u32));

/// One kernel invocation with its reconstructed A-DCFG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelInvocation {
    /// The invocation site identity.
    pub key: InvocationKey,
    /// Launch geometry (grid, block).
    pub config: ConfigTuple,
    /// The warp-aggregated trace of this invocation.
    pub adcfg: Adcfg,
}

impl KernelInvocation {
    /// Creates an invocation record.
    pub fn new(key: InvocationKey, config: ConfigTuple, adcfg: Adcfg) -> Self {
        KernelInvocation { key, config, adcfg }
    }

    /// The FNV-1a digest over `(key, config, adcfg)`.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::default();
        self.key.hash(&mut h);
        self.config.hash(&mut h);
        self.adcfg.hash(&mut h);
        h.finish()
    }
}

impl Hash for KernelInvocation {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // A trace hashes its invocations' digests, the values the pinned
        // trace digests were computed from. Consistent with `Eq`: the
        // digest is a pure function of the compared fields.
        state.write_u64(self.digest());
    }
}

/// A host allocation record: call site and size. Owl records allocations by
/// site and size (start address + length in the paper), so the record is
/// input-size independent for fixed-size programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MallocRecord {
    /// Host call site of the allocation.
    pub call_site: CallSite,
    /// Requested bytes.
    pub size: u64,
}

/// The full trace of one program execution.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ProgramTrace {
    /// Kernel invocations in chronological order.
    pub invocations: Vec<KernelInvocation>,
    /// Host allocations in chronological order.
    pub mallocs: Vec<MallocRecord>,
}

impl ProgramTrace {
    /// Estimated in-memory footprint in bytes — the quantity the paper
    /// plots in Fig. 5 (kernel traces plus constant-size host records).
    pub fn size_bytes(&self) -> usize {
        let (kernels, mallocs) = self.size_breakdown();
        kernels + mallocs
    }

    /// Breakdown of [`Self::size_bytes`] by component: `(kernel invocation
    /// records, malloc records)` — the two series of Fig. 5.
    pub fn size_breakdown(&self) -> (usize, usize) {
        let kernels: usize = self
            .invocations
            .iter()
            .map(|inv| inv.adcfg.size_bytes() + inv.key.kernel.len() + 24)
            .sum();
        (kernels, self.mallocs.len() * 24)
    }

    /// A deterministic digest of the trace, used by the duplicates-removing
    /// phase to group inputs into classes. Two traces compare equal exactly
    /// when the program showed identical observable behaviour.
    ///
    /// Combines the per-invocation digests ([`KernelInvocation::digest`]).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::default();
        self.hash(&mut h);
        h.finish()
    }
}

/// A deterministic 64-bit FNV-1a hasher. `std`'s default hasher is
/// randomly keyed per process, which would break cross-run trace-class
/// stability; FNV-1a is stable, fast, and good enough for class keying
/// (classes are verified by full equality anyway).
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_dcfg::AdcfgBuilder;

    fn site(line: u32) -> CallSite {
        CallSite {
            file: "host.rs",
            line,
            column: 1,
        }
    }

    fn invocation(line: u32, kernel: &str, walk: &[u32]) -> KernelInvocation {
        let mut b = AdcfgBuilder::new();
        for &bb in walk {
            b.enter_block(0, bb);
        }
        KernelInvocation::new(
            InvocationKey {
                call_site: site(line),
                kernel: kernel.into(),
            },
            ((1, 1, 1), (32, 1, 1)),
            b.finish(),
        )
    }

    #[test]
    fn digest_is_deterministic_and_discriminating() {
        let t1 = ProgramTrace {
            invocations: vec![invocation(1, "k", &[0, 1])],
            mallocs: vec![],
        };
        let t2 = ProgramTrace {
            invocations: vec![invocation(1, "k", &[0, 1])],
            mallocs: vec![],
        };
        let t3 = ProgramTrace {
            invocations: vec![invocation(1, "k", &[0, 2])],
            mallocs: vec![],
        };
        assert_eq!(t1.digest(), t2.digest());
        assert_ne!(t1.digest(), t3.digest());
    }

    #[test]
    fn invocation_digest_follows_its_graph_through_a_merge() {
        let a = invocation(1, "k", &[0, 1, 1]);
        let before = a.digest();

        // Merging a's graph elsewhere leaves a's digest alone.
        let mut merged_graph = invocation(1, "k", &[0, 1, 1]).adcfg;
        merged_graph.merge(&a.adcfg);
        let merged = KernelInvocation::new(a.key.clone(), a.config, merged_graph.clone());
        assert_eq!(a.digest(), before);

        // The merged invocation digests its own (new) state, and a second
        // independently merged build reproduces it exactly.
        assert_ne!(merged.digest(), before, "merge changed the A-DCFG");
        let mut again = invocation(1, "k", &[0, 1, 1]).adcfg;
        again.merge(&invocation(1, "k", &[0, 1, 1]).adcfg);
        assert_eq!(
            KernelInvocation::new(a.key.clone(), a.config, again).digest(),
            merged.digest()
        );

        // A clone digests identically.
        assert_eq!(merged.clone().digest(), merged.digest());
    }

    #[test]
    fn digest_sees_kernel_identity() {
        let a = ProgramTrace {
            invocations: vec![invocation(1, "k", &[0])],
            mallocs: vec![],
        };
        let b = ProgramTrace {
            invocations: vec![invocation(2, "k", &[0])],
            mallocs: vec![],
        };
        assert_ne!(a.digest(), b.digest(), "call sites distinguish traces");
    }

    #[test]
    fn size_breakdown_sums_to_total() {
        let t = ProgramTrace {
            invocations: vec![invocation(1, "k", &[0, 1, 2])],
            mallocs: vec![MallocRecord {
                call_site: site(9),
                size: 128,
            }],
        };
        let (k, m) = t.size_breakdown();
        assert_eq!(k + m, t.size_bytes());
        assert!(k > 0);
        assert_eq!(m, 24);
    }

    #[test]
    fn fnv_known_vector() {
        // FNV-1a of "a" is 0xaf63dc4c8601ec8c.
        let mut h = Fnv1a::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}

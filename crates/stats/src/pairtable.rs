//! Sorted `(key, count)` storage shared by [`crate::Histogram`] and
//! [`crate::TransitionMatrix`].
//!
//! The trace-recording hot path adds millions of observations; a
//! `BTreeMap` pays a node allocation and a pointer chase per insert. A
//! [`PairTable`] instead keeps its bins always sorted by key, one entry
//! per distinct key, inline (no heap) while at most [`INLINE`] entries and
//! in a `Vec` beyond. Every read borrows the bins: iteration is a slice
//! iterator, a lookup is a binary search.
//!
//! Writes come in two shapes:
//!
//! * [`PairTable::record`] adds one key by binary-search insertion, and
//! * [`PairTable::record_each`] adds one warp event's lanes at once: it
//!   sorts the keys only when one steps back, inserts a broadcast (every
//!   lane on one key) as a single bin, and otherwise coalesces runs of
//!   equal keys and merges the runs into the bins, once per [`RUNS`]
//!   distinct keys (once per event for a 32-lane warp).
//!
//! The running `total` is maintained on write, making `Histogram::total`
//! and `TransitionMatrix::executions` O(1).

use std::hash::{Hash, Hasher};

/// Entries kept inline (no heap allocation). Covers the common case:
/// per-visit cost histograms hold one bin, address histograms a handful.
const INLINE: usize = 8;

/// Coalesced runs [`PairTable::record_each`] gathers before a merge: one
/// merge covers a 32-lane event.
const RUNS: usize = 32;

/// The key types the table is instantiated at.
pub(crate) trait PairKey: Copy + Ord + Default + Hash {}
impl<T: Copy + Ord + Default + Hash> PairKey for T {}

/// Sorted, coalesced `(key, count)` bins: inline up to [`INLINE`]
/// distinct keys, spilled to a `Vec` beyond.
#[derive(Debug, Clone)]
enum Sorted<K> {
    Inline { len: u8, buf: [(K, u64); INLINE] },
    Heap(Vec<(K, u64)>),
}

impl<K: PairKey> Sorted<K> {
    fn new() -> Self {
        Sorted::Inline {
            len: 0,
            buf: [(K::default(), 0); INLINE],
        }
    }

    fn as_slice(&self) -> &[(K, u64)] {
        match self {
            Sorted::Inline { len, buf } => &buf[..usize::from(*len)],
            Sorted::Heap(v) => v,
        }
    }

    fn from_slice(pairs: &[(K, u64)]) -> Self {
        if pairs.len() <= INLINE {
            let mut buf = [(K::default(), 0); INLINE];
            buf[..pairs.len()].copy_from_slice(pairs);
            Sorted::Inline {
                len: pairs.len() as u8,
                buf,
            }
        } else {
            Sorted::Heap(pairs.to_vec())
        }
    }

    /// Adds `count` to `key`'s bin, inserting the bin in key order when
    /// it is new.
    fn insert(&mut self, key: K, count: u64) {
        match self {
            Sorted::Inline { len, buf } => {
                let n = usize::from(*len);
                match buf[..n].binary_search_by_key(&key, |&(k, _)| k) {
                    Ok(i) => buf[i].1 += count,
                    Err(i) if n < INLINE => {
                        buf.copy_within(i..n, i + 1);
                        buf[i] = (key, count);
                        *len += 1;
                    }
                    Err(i) => {
                        let mut v = Vec::with_capacity(2 * INLINE);
                        v.extend_from_slice(&buf[..i]);
                        v.push((key, count));
                        v.extend_from_slice(&buf[i..]);
                        *self = Sorted::Heap(v);
                    }
                }
            }
            Sorted::Heap(v) => match v.binary_search_by_key(&key, |&(k, _)| k) {
                Ok(i) => v[i].1 += count,
                Err(i) => v.insert(i, (key, count)),
            },
        }
    }

    /// Merges a sorted, coalesced, non-empty `add` slice into the storage.
    fn merge_in(&mut self, add: &[(K, u64)]) {
        match self {
            Sorted::Inline { len, buf } => {
                let cur_len = usize::from(*len);
                // Monotonic appends (lane-ordered addresses) keep inline.
                if cur_len + add.len() <= INLINE
                    && buf[..cur_len].last().is_none_or(|l| l.0 < add[0].0)
                {
                    buf[cur_len..cur_len + add.len()].copy_from_slice(add);
                    *len += add.len() as u8;
                    return;
                }
                if cur_len + add.len() <= 2 * INLINE {
                    let mut out = [(K::default(), 0u64); 2 * INLINE];
                    let n = merge_into(&buf[..cur_len], add, &mut out);
                    *self = Sorted::from_slice(&out[..n]);
                } else {
                    *self = Sorted::Heap(merge_to_vec(&buf[..cur_len], add));
                }
            }
            Sorted::Heap(v) => {
                if v.last().is_none_or(|l| l.0 < add[0].0) {
                    v.extend_from_slice(add);
                } else {
                    *v = merge_to_vec(v, add);
                }
            }
        }
    }
}

/// Two-pointer merge of sorted coalesced slices into `out`, summing
/// counts on equal keys. Returns the merged length. `out` must hold
/// `a.len() + b.len()` entries.
fn merge_into<K: PairKey>(a: &[(K, u64)], b: &[(K, u64)], out: &mut [(K, u64)]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let entry = match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                i += 1;
                a[i - 1]
            }
            std::cmp::Ordering::Greater => {
                j += 1;
                b[j - 1]
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
                (a[i - 1].0, a[i - 1].1 + b[j - 1].1)
            }
        };
        out[n] = entry;
        n += 1;
    }
    for &e in &a[i..] {
        out[n] = e;
        n += 1;
    }
    for &e in &b[j..] {
        out[n] = e;
        n += 1;
    }
    n
}

fn merge_to_vec<K: PairKey>(a: &[(K, u64)], b: &[(K, u64)]) -> Vec<(K, u64)> {
    let mut out = vec![(K::default(), 0u64); a.len() + b.len()];
    let n = merge_into(a, b, &mut out);
    out.truncate(n);
    out
}

/// A counter map from `K` to `u64` over always-sorted bins.
///
/// Observationally identical to a `BTreeMap<K, u64>` that drops zero
/// counts: iteration order, equality, `Hash` and the running total all
/// read the sorted bins directly.
#[derive(Debug, Clone)]
pub(crate) struct PairTable<K> {
    sorted: Sorted<K>,
    total: u64,
}

impl<K: PairKey> Default for PairTable<K> {
    fn default() -> Self {
        PairTable {
            sorted: Sorted::new(),
            total: 0,
        }
    }
}

impl<K: PairKey> PairTable<K> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a table directly from already-sorted bins (deserialize
    /// path). Keys must be strictly increasing; zero counts are dropped.
    pub fn from_sorted_pairs(pairs: Vec<(K, u64)>) -> Self {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        let pairs: Vec<(K, u64)> = pairs.into_iter().filter(|&(_, c)| c > 0).collect();
        let total = pairs.iter().map(|&(_, c)| c).sum();
        PairTable {
            sorted: Sorted::from_slice(&pairs),
            total,
        }
    }

    /// Adds `count` observations of `key` (no-op when `count` is zero).
    #[inline]
    pub fn record(&mut self, key: K, count: u64) {
        if count == 0 {
            return;
        }
        self.total += count;
        self.sorted.insert(key, count);
    }

    /// Adds one observation of each key in `keys`. The keys are sorted in
    /// place only when one steps back. A broadcast (every key equal) is one
    /// insert; otherwise runs of equal keys coalesce and merge into the
    /// bins at once (once per [`RUNS`] distinct keys).
    pub fn record_each(&mut self, keys: &mut [K]) {
        if !keys.is_sorted() {
            keys.sort_unstable();
        }
        let (Some(&first), Some(&last)) = (keys.first(), keys.last()) else {
            return;
        };
        self.total += keys.len() as u64;
        if first == last {
            self.sorted.insert(first, keys.len() as u64);
        } else {
            let mut runs = [(K::default(), 0u64); RUNS];
            let mut n = 0;
            for run in keys.chunk_by(|a, b| a == b) {
                if n == RUNS {
                    self.sorted.merge_in(&runs);
                    n = 0;
                }
                runs[n] = (run[0], run.len() as u64);
                n += 1;
            }
            self.sorted.merge_in(&runs[..n]);
        }
        debug_assert_eq!(
            self.total,
            self.bins().iter().map(|&(_, c)| c).sum::<u64>(),
            "maintained total must match the bins"
        );
    }

    /// The bins: sorted by key, coalesced, zero-free.
    pub fn bins(&self) -> &[(K, u64)] {
        self.sorted.as_slice()
    }

    /// The count recorded for `key` (zero when absent).
    pub fn get(&self, key: K) -> u64 {
        let bins = self.bins();
        match bins.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => bins[i].1,
            Err(_) => 0,
        }
    }

    /// The number of distinct keys observed.
    pub fn distinct(&self) -> usize {
        self.bins().len()
    }

    /// The sum of all counts, maintained on write (O(1)).
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Iterates `(key, count)` bins in increasing key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, u64)> + '_ {
        self.bins().iter().copied()
    }

    /// Adds every bin of `other` into this table (count-additive).
    pub fn merge(&mut self, other: &PairTable<K>) {
        if other.is_empty() {
            return;
        }
        self.total += other.total;
        self.sorted.merge_in(other.bins());
    }

    /// Multiplies every count by `k` — exactly equivalent to merging this
    /// table into an empty one `k` times (all counts are `u64`, so the
    /// scaled result is bit-identical to the repeated merge).
    pub fn scale(&mut self, k: u64) {
        if k == 1 {
            return;
        }
        if k == 0 {
            // Zero counts are not representable; scaling by zero empties.
            *self = Self::new();
            return;
        }
        self.total *= k;
        let bins = match &mut self.sorted {
            Sorted::Inline { len, buf } => &mut buf[..usize::from(*len)],
            Sorted::Heap(v) => v.as_mut_slice(),
        };
        for pair in bins {
            pair.1 *= k;
        }
    }
}

impl<K: PairKey> PartialEq for PairTable<K> {
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total && self.bins() == other.bins()
    }
}

impl<K: PairKey> Eq for PairTable<K> {}

impl<K: PairKey> Hash for PairTable<K> {
    /// Matches the derived hash of a `BTreeMap<K, u64>` field exactly
    /// (length prefix via `write_usize`, then each `(key, count)` pair in
    /// key order), so trace digests do not depend on the storage.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let bins = self.bins();
        state.write_usize(bins.len());
        for &(k, c) in bins {
            k.hash(state);
            c.hash(state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(t: &PairTable<u64>) -> Vec<(u64, u64)> {
        t.iter().collect()
    }

    #[test]
    fn records_coalesce_and_sort() {
        let mut t = PairTable::new();
        for &k in &[9u64, 1, 5, 1, 9, 9] {
            t.record(k, 2);
        }
        assert_eq!(pairs(&t), vec![(1, 4), (5, 2), (9, 6)]);
        assert_eq!(t.total(), 12);
        assert_eq!(t.distinct(), 3);
    }

    #[test]
    fn overflowing_inline_spills_to_heap() {
        let mut t = PairTable::new();
        for k in 0..100u64 {
            t.record(k % 37, 1);
        }
        assert!(matches!(t.sorted, Sorted::Heap(_)));
        assert_eq!(t.distinct(), 37);
        assert_eq!(t.total(), 100);
        let p = pairs(&t);
        assert!(p.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        assert_eq!(p.iter().map(|&(_, c)| c).sum::<u64>(), 100);
    }

    #[test]
    fn record_each_matches_single_records() {
        let ascending: Vec<u64> = (0..32).map(|i| i / 3).collect();
        let descending: Vec<u64> = (0..32).rev().collect();
        let interleaved: Vec<u64> = (0..40).map(|i| (i * 7) % 19).collect();
        let wide: Vec<u64> = (0..3 * RUNS as u64).map(|i| i * 5 % 97).collect();
        // Prefixes leave the bins empty, inline with room, inline and full,
        // or spilled.
        let full: Vec<u64> = (0..INLINE as u64).map(|k| k * 9).collect();
        let spilled: Vec<u64> = (0..20).collect();
        for (name, keys) in [
            ("ascending", ascending),
            ("descending", descending),
            ("interleaved", interleaved),
            ("broadcast", vec![42; 32]),
            ("wider than one merge", wide),
            ("empty", Vec::new()),
        ] {
            for prefix in [&[][..], &[3u64, 60][..], &full[..], &spilled[..]] {
                let mut single = PairTable::new();
                let mut batch = PairTable::new();
                for &k in prefix {
                    single.record(k, 1);
                    batch.record(k, 1);
                }
                for &k in &keys {
                    single.record(k, 1);
                }
                batch.record_each(&mut keys.clone());
                assert_eq!(batch, single, "{name} after {} keys", prefix.len());
                assert_eq!(pairs(&batch), pairs(&single), "{name}");
            }
        }
    }

    #[test]
    fn merge_is_count_additive() {
        let mut a = PairTable::new();
        let mut b = PairTable::new();
        for k in 0..20u64 {
            a.record(k, 1);
            b.record(k / 2, 3);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        for k in 0..20u64 {
            assert_eq!(merged.get(k), a.get(k) + b.get(k), "key {k}");
        }
        assert_eq!(merged.total(), a.total() + b.total());
    }
}

//! Myers O(ND) sequence alignment.
//!
//! The paper's evidence-merging step (§VII-A) "utilize\[s\] the Myers
//! algorithm to compare two trace sequences … then align\[s\] the sequences
//! referring to kernel invocations". This module implements the greedy
//! O(ND) Myers diff over arbitrary `PartialEq` items and exposes the result
//! as an alignment: matched pairs plus one-sided insertions/deletions.

/// One aligned step between two sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignOp {
    /// `a[i]` matches `b[j]`.
    Match(usize, usize),
    /// `a[i]` has no counterpart in `b` (a deletion).
    DeleteA(usize),
    /// `b[j]` has no counterpart in `a` (an insertion).
    InsertB(usize),
}

/// Aligns two sequences with the Myers O(ND) algorithm, returning the edit
/// script as a sequence of [`AlignOp`]s in order.
///
/// The result always covers every index of both inputs exactly once, and
/// matched pairs appear in increasing order on both sides.
///
/// # Example
///
/// ```
/// use owl_dcfg::diff::{myers_align, AlignOp};
///
/// let ops = myers_align(&[1, 2, 3], &[2, 3, 4]);
/// assert_eq!(ops, vec![
///     AlignOp::DeleteA(0),
///     AlignOp::Match(1, 0),
///     AlignOp::Match(2, 1),
///     AlignOp::InsertB(2),
/// ]);
/// ```
pub fn myers_align<T: PartialEq>(a: &[T], b: &[T]) -> Vec<AlignOp> {
    let (n, m) = (a.len(), b.len());
    if n == 0 {
        return (0..m).map(AlignOp::InsertB).collect();
    }
    if m == 0 {
        return (0..n).map(AlignOp::DeleteA).collect();
    }

    let max = n + m;
    let offset = max as isize;
    // v[k + offset] = furthest x on diagonal k.
    let mut v = vec![0isize; 2 * max + 1];
    // Snapshots of v per depth d, for backtracking.
    let mut trace: Vec<Vec<isize>> = Vec::new();

    'outer: {
        for d in 0..=(max as isize) {
            trace.push(v.clone());
            let mut k = -d;
            while k <= d {
                let idx = (k + offset) as usize;
                let mut x = if k == -d || (k != d && v[idx - 1] < v[idx + 1]) {
                    v[idx + 1] // move down (insertion from b)
                } else {
                    v[idx - 1] + 1 // move right (deletion from a)
                };
                let mut y = x - k;
                while (x as usize) < n && (y as usize) < m && a[x as usize] == b[y as usize] {
                    x += 1;
                    y += 1;
                }
                v[idx] = x;
                if x as usize >= n && y as usize >= m {
                    break 'outer;
                }
                k += 2;
            }
        }
        unreachable!("Myers always terminates within n+m edits");
    }

    // Backtrack from (n, m) through the per-depth snapshots. `trace[d]`
    // holds the diagonal frontier *before* depth-d processing, i.e. the
    // depth-(d-1) result, which is exactly what the classic backtracking
    // walk needs.
    let mut ops_rev: Vec<AlignOp> = Vec::new();
    let (mut x, mut y) = (n as isize, m as isize);
    for d in (0..trace.len() as isize).rev() {
        let vd = &trace[d as usize];
        let k = x - y;
        let idx = (k + offset) as usize;
        let down = k == -d || (k != d && vd[idx - 1] < vd[idx + 1]);
        let prev_k = if down { k + 1 } else { k - 1 };
        let prev_x = vd[(prev_k + offset) as usize];
        let prev_y = prev_x - prev_k;

        // Diagonal snake back to the edit point.
        while x > prev_x && y > prev_y {
            x -= 1;
            y -= 1;
            ops_rev.push(AlignOp::Match(x as usize, y as usize));
        }
        if d > 0 {
            if down {
                ops_rev.push(AlignOp::InsertB(prev_y as usize));
            } else {
                ops_rev.push(AlignOp::DeleteA(prev_x as usize));
            }
            x = prev_x;
            y = prev_y;
        }
    }
    debug_assert_eq!(x, 0);
    debug_assert_eq!(y, 0);
    ops_rev.reverse();
    ops_rev
}

/// Validates that an alignment is a complete, ordered cover of both inputs;
/// used by tests and available for debugging.
pub fn is_valid_alignment(ops: &[AlignOp], n: usize, m: usize) -> bool {
    let (mut x, mut y) = (0usize, 0usize);
    for op in ops {
        match *op {
            AlignOp::Match(i, j) => {
                if i != x || j != y {
                    return false;
                }
                x += 1;
                y += 1;
            }
            AlignOp::DeleteA(i) => {
                if i != x {
                    return false;
                }
                x += 1;
            }
            AlignOp::InsertB(j) => {
                if j != y {
                    return false;
                }
                y += 1;
            }
        }
    }
    x == n && y == m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matches_are_equal<T: PartialEq + std::fmt::Debug>(a: &[T], b: &[T], ops: &[AlignOp]) {
        for op in ops {
            if let AlignOp::Match(i, j) = *op {
                assert_eq!(a[i], b[j], "mismatched pair at ({i}, {j})");
            }
        }
    }

    #[test]
    fn identical_sequences_all_match() {
        let a = [1, 2, 3, 4];
        let ops = myers_align(&a, &a);
        assert!(is_valid_alignment(&ops, 4, 4));
        assert_eq!(
            ops.iter()
                .filter(|o| matches!(o, AlignOp::Match(..)))
                .count(),
            4
        );
    }

    #[test]
    fn empty_sequences() {
        assert!(myers_align::<i32>(&[], &[]).is_empty());
        assert_eq!(
            myers_align(&[], &[1, 2]),
            vec![AlignOp::InsertB(0), AlignOp::InsertB(1)]
        );
        assert_eq!(
            myers_align(&[1, 2], &[]),
            vec![AlignOp::DeleteA(0), AlignOp::DeleteA(1)]
        );
    }

    #[test]
    fn shifted_overlap() {
        let ops = myers_align(&[1, 2, 3], &[2, 3, 4]);
        assert!(is_valid_alignment(&ops, 3, 3));
        matches_are_equal(&[1, 2, 3], &[2, 3, 4], &ops);
        assert_eq!(
            ops.iter()
                .filter(|o| matches!(o, AlignOp::Match(..)))
                .count(),
            2
        );
    }

    #[test]
    fn disjoint_sequences_have_no_matches() {
        let ops = myers_align(&[1, 2], &[3, 4, 5]);
        assert!(is_valid_alignment(&ops, 2, 3));
        assert_eq!(
            ops.iter()
                .filter(|o| matches!(o, AlignOp::Match(..)))
                .count(),
            0
        );
    }

    #[test]
    fn single_insertion_in_middle() {
        let a = ["k1", "k2", "k3"];
        let b = ["k1", "kx", "k2", "k3"];
        let ops = myers_align(&a, &b);
        assert!(is_valid_alignment(&ops, 3, 4));
        matches_are_equal(&a, &b, &ops);
        assert_eq!(
            ops.iter()
                .filter(|o| matches!(o, AlignOp::Match(..)))
                .count(),
            3
        );
    }

    #[test]
    fn classic_abcabba_example() {
        // The canonical Myers example: ABCABBA vs CBABAC, LCS length 4.
        let a: Vec<char> = "ABCABBA".chars().collect();
        let b: Vec<char> = "CBABAC".chars().collect();
        let ops = myers_align(&a, &b);
        assert!(is_valid_alignment(&ops, a.len(), b.len()));
        matches_are_equal(&a, &b, &ops);
        let matches = ops
            .iter()
            .filter(|o| matches!(o, AlignOp::Match(..)))
            .count();
        assert_eq!(matches, 4, "LCS of ABCABBA/CBABAC is 4");
    }

    #[test]
    fn repeated_elements() {
        let a = [7, 7, 7, 7];
        let b = [7, 7];
        let ops = myers_align(&a, &b);
        assert!(is_valid_alignment(&ops, 4, 2));
        assert_eq!(
            ops.iter()
                .filter(|o| matches!(o, AlignOp::Match(..)))
                .count(),
            2
        );
    }
}

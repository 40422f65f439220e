//! Fill-reducing orderings.
//!
//! SuperLU_DIST's `COLPERM` choices map onto these algorithm families:
//! `NATURAL` (identity), bandwidth-reducing (reverse Cuthill–McKee, a
//! stand-in for the cheap orderings), and greedy minimum degree (the
//! MMD/COLAMD family). Nested dissection (METIS) is approximated by
//! minimum degree here — on the geometric graphs of interest their fill
//! quality is close, and both are far ahead of natural order.

use crate::pattern::SparsePattern;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Identity permutation (SuperLU's `NATURAL`).
pub fn natural_order(n: usize) -> Vec<usize> {
    (0..n).collect()
}

/// Reverse Cuthill–McKee: BFS from a pseudo-peripheral vertex, visiting
/// neighbors by increasing degree, then reverse — a classical
/// bandwidth/profile reducer.
///
/// Each connected component starts from its unvisited vertex of minimum
/// degree (lowest index on ties), found by a cursor over the vertices
/// sorted once by `(degree, index)`. Cost is `O(n log n + nnz)` however
/// many components the pattern has.
pub fn reverse_cuthill_mckee(pattern: &SparsePattern) -> Vec<usize> {
    let n = pattern.n();
    let degree = |v: usize| pattern.neighbors(v).len();
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut by_degree: Vec<usize> = (0..n).collect();
    by_degree.sort_by_key(|&v| degree(v));
    let mut level = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    let mut next = Vec::new();

    for &start in &by_degree {
        if visited[start] {
            continue;
        }
        let root = pseudo_peripheral(pattern, start, &visited, &mut level);
        visited[root] = true;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            next.clear();
            next.extend(pattern.neighbors(v).iter().filter(|&&u| !visited[u]));
            next.sort_by_key(|&u| degree(u));
            for &u in &next {
                visited[u] = true;
                queue.push_back(u);
            }
        }
    }
    order.reverse();
    order
}

/// Finds an approximate pseudo-peripheral vertex by repeated BFS to the
/// farthest level. `level` must be all `usize::MAX` on entry and is left
/// so; only the entries a BFS reaches are written and reset.
fn pseudo_peripheral(
    pattern: &SparsePattern,
    start: usize,
    global_visited: &[bool],
    level: &mut [usize],
) -> usize {
    let mut current = start;
    let mut last_ecc = 0usize;
    // BFS queue as a vector: `reached[head..]` is the frontier and
    // `reached` as a whole the entries of `level` to reset.
    let mut reached = Vec::new();
    for _ in 0..4 {
        // BFS levels from `current`, restricted to the unvisited component.
        level[current] = 0;
        reached.clear();
        reached.push(current);
        let mut far = current;
        let mut head = 0;
        while let Some(&v) = reached.get(head) {
            head += 1;
            for &u in pattern.neighbors(v) {
                if !global_visited[u] && level[u] == usize::MAX {
                    level[u] = level[v] + 1;
                    if level[u] > level[far] {
                        far = u;
                    }
                    reached.push(u);
                }
            }
        }
        let ecc = level[far];
        for &v in &reached {
            level[v] = usize::MAX;
        }
        if ecc <= last_ecc {
            break;
        }
        last_ecc = ecc;
        current = far;
    }
    current
}

/// Greedy minimum-degree ordering with explicit clique formation.
///
/// At each step the non-eliminated vertex of minimum current degree in
/// the elimination graph is eliminated, the lowest index winning ties,
/// and its neighborhood turned into a clique (the structural effect of
/// Gaussian elimination). This is the textbook algorithm behind MMD/AMD.
///
/// The elimination graph is one dense bit row of `⌈n/64⌉` words per
/// vertex, `n·⌈n/64⌉·8` bytes in all (83 KB at `n = 800`, 3.2 MB at
/// `n = 5041`). Eliminating `v` ORs its row into each neighbor's row and
/// recounts that neighbor's degree in the same pass, so a step costs
/// `deg(v)·⌈n/64⌉` word operations. The minimum comes from a heap of
/// `(degree, index)` entries with lazy deletion: an entry is pushed
/// whenever a degree changes, and popped entries of eliminated vertices
/// or stale degrees are skipped.
pub fn minimum_degree(pattern: &SparsePattern) -> Vec<usize> {
    let n = pattern.n();
    let words = n.div_ceil(64);
    let mut rows = vec![0u64; n * words];
    let mut degree: Vec<usize> = (0..n).map(|v| pattern.neighbors(v).len()).collect();
    for (v, row) in rows.chunks_exact_mut(words.max(1)).enumerate() {
        for &u in pattern.neighbors(v) {
            row[u / 64] |= 1 << (u % 64);
        }
    }
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> = degree
        .iter()
        .enumerate()
        .map(|(v, &d)| Reverse((d, v)))
        .collect();
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut pivot = vec![0u64; words];
    let mut neigh = Vec::new();

    while let Some(Reverse((d, v))) = heap.pop() {
        if eliminated[v] || d != degree[v] {
            continue;
        }
        order.push(v);
        eliminated[v] = true;
        pivot.copy_from_slice(&rows[v * words..(v + 1) * words]);
        neigh.clear();
        for (w, mut bits) in pivot.iter().copied().enumerate() {
            while bits != 0 {
                neigh.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        // Row `v` holds only non-eliminated vertices and never `v`, so
        // after the OR row `a` does too, once `a` itself is cleared.
        for &a in &neigh {
            let row = &mut rows[a * words..(a + 1) * words];
            row[v / 64] &= !(1 << (v % 64));
            let mut count = 0;
            for (x, &p) in row.iter_mut().zip(&pivot) {
                *x |= p;
                count += x.count_ones() as usize;
            }
            row[a / 64] &= !(1 << (a % 64));
            count -= 1;
            if count != degree[a] {
                degree[a] = count;
                heap.push(Reverse((count, a)));
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_permutation(p: &[usize], n: usize) -> bool {
        let mut seen = vec![false; n];
        p.len() == n
            && p.iter().all(|&v| {
                if v < n && !seen[v] {
                    seen[v] = true;
                    true
                } else {
                    false
                }
            })
    }

    #[test]
    fn natural_is_identity() {
        assert_eq!(natural_order(4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn rcm_is_a_permutation() {
        let p = SparsePattern::grid2d(7, 5);
        let ord = reverse_cuthill_mckee(&p);
        assert!(is_permutation(&ord, p.n()));
    }

    #[test]
    fn rcm_reduces_bandwidth_on_shuffled_path() {
        // A path graph labelled badly: RCM should recover a near-path
        // labelling with bandwidth 1 (vs large for the bad labelling).
        let n = 50;
        // Edges of a path over a "bit-reversal-ish" shuffle.
        let shuffle: Vec<usize> = (0..n).map(|i| (i * 23) % n).collect();
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (shuffle[i], shuffle[i + 1])).collect();
        let p = SparsePattern::from_edges(n, &edges);
        let bandwidth = |pat: &SparsePattern| {
            (0..pat.n())
                .flat_map(|i| pat.neighbors(i).iter().map(move |&j| i.abs_diff(j)))
                .max()
                .unwrap_or(0)
        };
        let before = bandwidth(&p);
        let after = bandwidth(&p.permute(&reverse_cuthill_mckee(&p)));
        assert!(after <= 2, "RCM bandwidth {after}");
        assert!(before > 5, "shuffle was not bad enough: {before}");
    }

    #[test]
    fn rcm_handles_disconnected_graphs() {
        let p = SparsePattern::from_edges(6, &[(0, 1), (3, 4)]);
        let ord = reverse_cuthill_mckee(&p);
        assert!(is_permutation(&ord, 6));
    }

    #[test]
    fn minimum_degree_is_a_permutation() {
        let p = SparsePattern::grid2d(6, 6);
        let ord = minimum_degree(&p);
        assert!(is_permutation(&ord, 36));
    }

    #[test]
    fn minimum_degree_eliminates_leaves_first() {
        // Star graph: all leaves (degree 1) must precede the hub.
        let edges: Vec<(usize, usize)> = (1..8).map(|i| (0, i)).collect();
        let p = SparsePattern::from_edges(8, &edges);
        let ord = minimum_degree(&p);
        // Once one leaf remains the hub ties it on degree, so the hub may
        // come second-to-last — but never earlier.
        let hub_pos = ord.iter().position(|&v| v == 0).unwrap();
        assert!(hub_pos >= ord.len() - 2, "hub at {hub_pos} in {ord:?}");
    }
}

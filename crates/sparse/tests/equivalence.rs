//! Equivalence of the fast orderings with their straightforward forms.
//!
//! `minimum_degree` runs on bit-row elimination graphs with a lazy heap,
//! and `reverse_cuthill_mckee` restarts components from a sorted cursor.
//! Both must return exactly the permutations of the simple versions kept
//! here as test-only oracles: per-vertex `BTreeSet` cliques with a linear
//! scan for the minimum, and a `(0..n)` rescan per component. The SuperLU
//! simulator's fill landscape is derived from these permutations, so
//! "equivalent" means the same `Vec<usize>`, not the same fill.

use gptune_rng::{check_cases, Rng};
use gptune_sparse::{minimum_degree, reverse_cuthill_mckee, SparsePattern};
use std::collections::{BTreeSet, VecDeque};

/// Greedy minimum degree with explicit clique formation: the vertex of
/// minimum current degree (lowest index on ties) is eliminated and its
/// neighbourhood turned into a clique.
fn minimum_degree_reference(pattern: &SparsePattern) -> Vec<usize> {
    let n = pattern.n();
    let mut adj: Vec<BTreeSet<usize>> = (0..n)
        .map(|i| pattern.neighbors(i).iter().copied().collect())
        .collect();
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let v = (0..n)
            .filter(|&v| !eliminated[v])
            .min_by_key(|&v| adj[v].len())
            .expect("vertex remains");
        order.push(v);
        eliminated[v] = true;
        let neigh: Vec<usize> = adj[v].iter().copied().collect();
        for (a_idx, &a) in neigh.iter().enumerate() {
            adj[a].remove(&v);
            for &b in &neigh[a_idx + 1..] {
                adj[a].insert(b);
                adj[b].insert(a);
            }
        }
        adj[v].clear();
    }
    order
}

/// Reverse Cuthill–McKee that rescans `0..n` for the minimum-degree
/// unvisited vertex at every component and allocates a fresh level array
/// per pseudo-peripheral BFS.
fn reverse_cuthill_mckee_reference(pattern: &SparsePattern) -> Vec<usize> {
    let n = pattern.n();
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    while order.len() < n {
        let start = (0..n)
            .filter(|&v| !visited[v])
            .min_by_key(|&v| pattern.neighbors(v).len())
            .expect("unvisited vertex exists");
        let root = pseudo_peripheral_reference(pattern, start, &visited);
        let mut queue = VecDeque::new();
        visited[root] = true;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut next: Vec<usize> = pattern
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&u| !visited[u])
                .collect();
            next.sort_by_key(|&u| pattern.neighbors(u).len());
            for u in next {
                visited[u] = true;
                queue.push_back(u);
            }
        }
    }
    order.reverse();
    order
}

fn pseudo_peripheral_reference(
    pattern: &SparsePattern,
    start: usize,
    global_visited: &[bool],
) -> usize {
    let n = pattern.n();
    let mut current = start;
    let mut last_ecc = 0usize;
    for _ in 0..4 {
        let mut level = vec![usize::MAX; n];
        level[current] = 0;
        let mut queue = VecDeque::new();
        queue.push_back(current);
        let mut far = current;
        while let Some(v) = queue.pop_front() {
            for &u in pattern.neighbors(v) {
                if !global_visited[u] && level[u] == usize::MAX {
                    level[u] = level[v] + 1;
                    if level[u] > level[far] {
                        far = u;
                    }
                    queue.push_back(u);
                }
            }
        }
        if level[far] <= last_ecc {
            break;
        }
        last_ecc = level[far];
        current = far;
    }
    current
}

/// `(n, nnz)` of the PARSEC matrices in the SuperLU_DIST simulator's
/// catalogue (`gptune_apps::PARSEC_MATRICES`).
const PARSEC: [(f64, f64); 8] = [
    (769.0, 17801.0),
    (5041.0, 171903.0),
    (5743.0, 102265.0),
    (5832.0, 305630.0),
    (8219.0, 242669.0),
    (17077.0, 875923.0),
    (19896.0, 738598.0),
    (33401.0, 1317655.0),
];

/// The calibration pattern of catalogue matrix `(n, nnz)` under size cap
/// `cap`, by `SuperluApp::new_with_symbolic`'s radius formula.
fn parsec_pattern(n: f64, nnz: f64, cap: usize, seed: u64) -> SparsePattern {
    let pn = (n as usize).min(cap.max(64));
    let deg = (nnz / n - 1.0).max(2.0);
    let radius = (deg / (pn as f64 * 4.0 * std::f64::consts::PI / 3.0))
        .cbrt()
        .clamp(0.01, 0.45);
    SparsePattern::geometric(pn, radius, seed)
}

/// A random pattern whose first `isolated` vertices have no edges, built
/// from edge lists with self-loops and duplicates.
fn random_pattern(rng: &mut Rng, n: usize, isolated: usize, max_edges: usize) -> SparsePattern {
    let m = rng.range(0..max_edges);
    let mut edges: Vec<(usize, usize)> = (0..m)
        .map(|_| (rng.range(isolated..n), rng.range(isolated..n)))
        .collect();
    let dups = edges.len() / 4;
    edges.extend_from_within(..dups);
    edges.push((n - 1, n - 1));
    SparsePattern::from_edges(n, &edges)
}

fn assert_same_orders(p: &SparsePattern, what: &str) {
    assert_eq!(
        minimum_degree(p),
        minimum_degree_reference(p),
        "minimum_degree differs on {what}"
    );
    assert_eq!(
        reverse_cuthill_mckee(p),
        reverse_cuthill_mckee_reference(p),
        "reverse_cuthill_mckee differs on {what}"
    );
}

#[test]
fn parsec_shapes_match_reference() {
    for cap in [64, 200, 500] {
        // The simulator's own seeds, then two more per matrix.
        for extra in 0..3u64 {
            for (idx, &(n, nnz)) in PARSEC.iter().enumerate() {
                let seed = 0xC0DE + idx as u64 + extra * 0x1_0000;
                let p = parsec_pattern(n, nnz, cap, seed);
                assert_same_orders(&p, &format!("PARSEC {idx} cap {cap} seed {seed:#x}"));
            }
        }
    }
}

#[test]
fn grids_match_reference() {
    for side in [1, 6, 16] {
        let p = SparsePattern::grid2d(side, side);
        assert_same_orders(&p, &format!("{side}x{side} grid"));
    }
}

#[test]
fn empty_pattern_orders_are_empty() {
    let p = SparsePattern::from_edges(0, &[]);
    assert!(minimum_degree(&p).is_empty());
    assert!(reverse_cuthill_mckee(&p).is_empty());
    assert_same_orders(&p, "the empty pattern");
}

#[test]
fn random_patterns_match_reference() {
    check_cases(96, 7, |rng| {
        let n = rng.range(1..150usize);
        let isolated = rng.range(0..=n / 3);
        let p = random_pattern(rng, n, isolated, 3 * n);
        assert_same_orders(&p, &format!("random pattern n={n}"));
    });
}

#[test]
fn rcm_on_many_components_matches_reference() {
    // n = 2000 with 500 isolated vertices and short random chains: the
    // pattern that made per-component rescans quadratic.
    let mut rng = Rng::new(0x5eed);
    let n = 2000;
    let mut edges = Vec::new();
    for v in 500..n {
        if rng.range(0..4u32) != 0 {
            edges.push((v, (v + 1 + rng.range(0..3usize)).min(n - 1)));
        }
    }
    let p = SparsePattern::from_edges(n, &edges);
    assert_eq!(
        reverse_cuthill_mckee(&p),
        reverse_cuthill_mckee_reference(&p)
    );
    assert_eq!(minimum_degree(&p), minimum_degree_reference(&p));
}

//! Reverse Cuthill–McKee ordering.
//!
//! Bandwidth-reducing orderings interact strongly with incomplete
//! factorizations (Saad, *Iterative Methods*, ch. 10): ILUT on an RCM-
//! ordered matrix typically retains more useful fill for the same `m`.
//! Provided as a library companion to the factorizations; the paper itself
//! orders by partition instead.

use crate::adj::Graph;
use pilut_sparse::Permutation;
use std::collections::VecDeque;

/// Computes the reverse Cuthill–McKee permutation of the graph.
///
/// Returns a [`Permutation`] with `new_of(old) = position`: applying it to
/// the matrix (`permute_symmetric`) produces the RCM-ordered matrix.
/// Disconnected components are handled by restarting from the minimum-degree
/// unvisited vertex.
pub fn reverse_cuthill_mckee(g: &Graph) -> Permutation {
    let n = g.n_vertices();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut nbrs: Vec<usize> = Vec::new();
    while order.len() < n {
        // Start each component from a minimum-degree vertex (a cheap
        // pseudo-peripheral heuristic).
        let start = (0..n)
            .filter(|&u| !visited[u])
            .min_by_key(|&u| g.degree(u))
            // lint: allow(unwrap): while fewer than n vertices are ordered, one is unvisited
            .expect("unvisited vertex must exist");
        visited[start] = true;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            nbrs.clear();
            nbrs.extend(g.neighbors(u).map(|(v, _)| v).filter(|&v| !visited[v]));
            nbrs.sort_by_key(|&v| g.degree(v));
            for &v in &nbrs {
                visited[v] = true;
                queue.push_back(v);
            }
        }
    }
    order.reverse();
    Permutation::from_old_order(&order)
}

/// The bandwidth of a symmetric pattern under a given ordering:
/// `max |new(i) - new(j)|` over edges.
pub fn bandwidth(g: &Graph, perm: &Permutation) -> usize {
    let mut bw = 0usize;
    for u in 0..g.n_vertices() {
        for (v, _) in g.neighbors(u) {
            bw = bw.max(perm.new_of(u).abs_diff(perm.new_of(v)));
        }
    }
    bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilut_sparse::gen;
    use pilut_sparse::SplitMix64;

    #[test]
    fn rcm_is_a_permutation_and_reduces_bandwidth() {
        // Scramble a grid, then check RCM restores a small bandwidth.
        let a = gen::laplace_2d(12, 12);
        let n = a.n_rows();
        let mut rng = SplitMix64::new(5);
        let mut shuffled: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut shuffled);
        let scramble = Permutation::from_new_order(&shuffled);
        let b = a.permute_symmetric(&scramble);
        let g = crate::Graph::from_csr_pattern(&b);
        let ident = Permutation::identity(n);
        let before = bandwidth(&g, &ident);
        let rcm = reverse_cuthill_mckee(&g);
        let after = bandwidth(&g, &rcm);
        assert!(
            after * 3 < before,
            "RCM bandwidth {after} vs scrambled {before}"
        );
        // Sanity: a valid permutation.
        let mut seen = vec![false; n];
        for old in 0..n {
            let p = rcm.new_of(old);
            assert!(!seen[p]);
            seen[p] = true;
        }
    }

    #[test]
    fn handles_disconnected_components() {
        // Two disjoint paths as one matrix.
        let mut coo = pilut_sparse::CooMatrix::new(6, 6);
        for i in 0..6 {
            coo.push(i, i, 2.0);
        }
        for &(i, j) in &[(0usize, 1usize), (1, 2), (3, 4), (4, 5)] {
            coo.push(i, j, -1.0);
            coo.push(j, i, -1.0);
        }
        let g = crate::Graph::from_csr_pattern(&coo.to_csr());
        let rcm = reverse_cuthill_mckee(&g);
        assert_eq!(rcm.len(), 6);
        assert!(bandwidth(&g, &rcm) <= 2);
    }

    #[test]
    fn path_graph_gets_optimal_bandwidth() {
        let a = gen::laplace_2d(10, 1); // path of 10
        let g = crate::Graph::from_csr_pattern(&a);
        let rcm = reverse_cuthill_mckee(&g);
        assert_eq!(bandwidth(&g, &rcm), 1);
    }
}

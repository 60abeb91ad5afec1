//! Undirected weighted adjacency structure.

use pilut_sparse::CsrMatrix;

/// An undirected graph in CSR-style adjacency storage, with integer vertex
/// weights (partitioning balance) and integer edge weights (collapsed
/// multi-edges during coarsening).
///
/// Invariants: no self-loops; for every arc `(u, v)` the reverse arc
/// `(v, u)` is present with the same weight; neighbour lists are sorted.
#[derive(Debug)]
pub struct Graph {
    xadj: Vec<usize>,
    adjncy: Vec<usize>,
    adjwgt: Vec<i64>,
    vwgt: Vec<i64>,
}

impl Graph {
    /// Builds from raw adjacency arrays.
    ///
    /// # Panics
    /// Panics on inconsistent arrays, self-loops, unsorted neighbour lists,
    /// or an asymmetric arc set.
    pub fn from_raw(
        xadj: Vec<usize>,
        adjncy: Vec<usize>,
        adjwgt: Vec<i64>,
        vwgt: Vec<i64>,
    ) -> Self {
        let n = xadj.len().saturating_sub(1);
        assert_eq!(vwgt.len(), n);
        assert_eq!(adjncy.len(), adjwgt.len());
        assert_eq!(*xadj.last().unwrap_or(&0), adjncy.len());
        for u in 0..n {
            let nbrs = &adjncy[xadj[u]..xadj[u + 1]];
            for w in nbrs.windows(2) {
                assert!(w[0] < w[1], "neighbour list of {u} not strictly sorted");
            }
            for &v in nbrs {
                assert_ne!(v, u, "self-loop at {u}");
                assert!(v < n, "neighbour out of range at {u}");
            }
        }
        let g = Graph {
            xadj,
            adjncy,
            adjwgt,
            vwgt,
        };
        for u in 0..n {
            for (v, w) in g.neighbors(u) {
                let back = g
                    .edge_weight(v, u)
                    .unwrap_or_else(|| panic!("missing reverse arc ({v},{u})"));
                assert_eq!(back, w, "asymmetric weight on edge ({u},{v})");
            }
        }
        g
    }

    /// The structure graph of a square sparse matrix: vertices are rows,
    /// and `{i, j}` is an edge iff `a_ij != 0` or `a_ji != 0` structurally
    /// (the pattern is symmetrised; the diagonal is ignored). Unit vertex
    /// and edge weights.
    pub fn from_csr_pattern(a: &CsrMatrix) -> Self {
        assert_eq!(
            a.n_rows(),
            a.n_cols(),
            "structure graph needs a square matrix"
        );
        let n = a.n_rows();
        let mut xadj = vec![0usize; n + 1];
        for_each_arc(a, |u, _| xadj[u + 1] += 1);
        for u in 0..n {
            xadj[u + 1] += xadj[u];
        }
        let mut adjncy = vec![0usize; xadj[n]];
        let mut next = xadj[..n].to_vec();
        for_each_arc(a, |u, v| {
            adjncy[next[u]] = v;
            next[u] += 1;
        });
        // A row's transposed arcs land around its own (sorted) columns.
        for u in 0..n {
            adjncy[xadj[u]..xadj[u + 1]].sort_unstable();
        }
        let m = adjncy.len();
        Graph {
            xadj,
            adjncy,
            adjwgt: vec![1; m],
            vwgt: vec![1; n],
        }
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of neighbours of `u`.
    pub fn degree(&self, u: usize) -> usize {
        self.xadj[u + 1] - self.xadj[u]
    }

    /// The weight of vertex `u`.
    pub fn vertex_weight(&self, u: usize) -> i64 {
        self.vwgt[u]
    }

    /// Sum of all vertex weights.
    pub fn total_vertex_weight(&self) -> i64 {
        self.vwgt.iter().sum()
    }

    /// Iterates `(neighbour, edge_weight)` pairs of `u`.
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = (usize, i64)> + '_ {
        let (s, e) = (self.xadj[u], self.xadj[u + 1]);
        self.adjncy[s..e]
            .iter()
            .copied()
            .zip(self.adjwgt[s..e].iter().copied())
    }

    /// Neighbour ids only.
    pub fn neighbor_ids(&self, u: usize) -> &[usize] {
        &self.adjncy[self.xadj[u]..self.xadj[u + 1]]
    }

    /// Weight of edge `{u, v}` if present.
    pub fn edge_weight(&self, u: usize, v: usize) -> Option<i64> {
        let (s, e) = (self.xadj[u], self.xadj[u + 1]);
        self.adjncy[s..e]
            .binary_search(&v)
            .ok()
            .map(|k| self.adjwgt[s + k])
    }

    /// Sum of the weights of edges crossing the given partition.
    pub fn edge_cut(&self, part: &[usize]) -> i64 {
        assert_eq!(part.len(), self.n_vertices());
        let mut cut = 0;
        for u in 0..self.n_vertices() {
            for (v, w) in self.neighbors(u) {
                if part[u] != part[v] {
                    cut += w;
                }
            }
        }
        cut / 2
    }

    /// Per-part vertex-weight sums.
    pub fn part_weights(&self, part: &[usize], k: usize) -> Vec<i64> {
        let mut w = vec![0i64; k];
        for (u, &p) in part.iter().enumerate() {
            w[p] += self.vwgt[u];
        }
        w
    }
}

/// Calls `emit(u, v)` once per arc of the symmetrised pattern of `a`: a
/// stored off-diagonal entry `(i, j)` gives `i → j`, and `j → i` too unless
/// `(j, i)` is stored and gives that arc itself.
fn for_each_arc(a: &CsrMatrix, mut emit: impl FnMut(usize, usize)) {
    for i in 0..a.n_rows() {
        for &j in a.row(i).0.iter().filter(|&&j| j != i) {
            emit(i, j);
            if a.row(j).0.binary_search(&i).is_err() {
                emit(j, i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilut_sparse::gen;

    /// Path graph 0-1-2-3.
    fn path4() -> Graph {
        Graph::from_raw(
            vec![0, 1, 3, 5, 6],
            vec![1, 0, 2, 1, 3, 2],
            vec![1; 6],
            vec![1; 4],
        )
    }

    #[test]
    fn basic_accessors() {
        let g = path4();
        assert_eq!(g.n_vertices(), 4);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.edge_weight(1, 2), Some(1));
        assert_eq!(g.edge_weight(0, 3), None);
        assert_eq!(g.total_vertex_weight(), 4);
    }

    #[test]
    fn from_matrix_pattern_drops_diagonal_and_symmetrises() {
        let a = gen::convection_diffusion_2d(3, 3, 5.0, 0.0);
        let g = Graph::from_csr_pattern(&a);
        assert_eq!(g.n_vertices(), 9);
        // 2D grid: 12 edges for 3x3, each stored from both ends.
        assert_eq!((0..9).map(|u| g.degree(u)).sum::<usize>(), 24);
        // no self loops
        for u in 0..9 {
            assert!(!g.neighbor_ids(u).contains(&u));
        }
    }

    /// The definition, row by row: the sorted union of row `i` of the
    /// pattern and of its transpose, without the diagonal.
    fn symmetrised_rows(a: &CsrMatrix) -> Vec<Vec<usize>> {
        let mut rows = vec![std::collections::BTreeSet::new(); a.n_rows()];
        for i in 0..a.n_rows() {
            for &j in a.row(i).0.iter().filter(|&&j| j != i) {
                rows[i].insert(j);
                rows[j].insert(i);
            }
        }
        rows.into_iter().map(|r| r.into_iter().collect()).collect()
    }

    #[test]
    fn from_matrix_pattern_equals_the_definition_on_unsymmetric_patterns() {
        // One-way entries, two-way pairs, explicit and missing diagonals,
        // empty rows; `from_raw` re-asserts every invariant of the result.
        for case in 0..64 {
            let mut rng = pilut_sparse::SplitMix64::new(case);
            let n = 1 + rng.next_usize(24);
            let mut coo = pilut_sparse::CooMatrix::new(n, n);
            for _ in 0..rng.next_usize(4 * n) {
                let (i, j) = (rng.next_usize(n), rng.next_usize(n));
                coo.push(i, j, 1.0);
                if rng.next_usize(3) == 0 {
                    coo.push(j, i, 1.0);
                }
            }
            let a = coo.to_csr();
            let g = Graph::from_csr_pattern(&a);
            let want = symmetrised_rows(&a);
            for (u, row) in want.iter().enumerate() {
                assert_eq!(g.neighbor_ids(u), &row[..], "case {case}, row {u}");
            }
            let checked = Graph::from_raw(g.xadj, g.adjncy, g.adjwgt, g.vwgt);
            assert_eq!(checked.n_vertices(), n, "case {case}");
            assert!(checked.adjwgt.iter().all(|&w| w == 1), "case {case}");
        }
    }

    #[test]
    fn edge_cut_counts_crossing_edges() {
        let g = path4();
        assert_eq!(g.edge_cut(&[0, 0, 1, 1]), 1);
        assert_eq!(g.edge_cut(&[0, 1, 0, 1]), 3);
        assert_eq!(g.edge_cut(&[0, 0, 0, 0]), 0);
    }

    #[test]
    fn part_weights_sum() {
        let g = path4();
        assert_eq!(g.part_weights(&[0, 1, 1, 0], 2), vec![2, 2]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        Graph::from_raw(vec![0, 1], vec![0], vec![1], vec![1]);
    }

    #[test]
    #[should_panic(expected = "missing reverse arc")]
    fn rejects_asymmetric() {
        Graph::from_raw(vec![0, 1, 1], vec![1], vec![1], vec![1, 1]);
    }
}

//! Undirected weighted adjacency structure.

use pilut_sparse::CsrMatrix;

/// An undirected graph in CSR-style adjacency storage, with integer vertex
/// weights (partitioning balance) and integer edge weights (collapsed
/// multi-edges during coarsening).
///
/// Invariants: no self-loops; for every arc `(u, v)` the reverse arc
/// `(v, u)` is present with the same weight; neighbour lists are sorted.
///
/// Everything is 32-bit: arc offsets and ids `u32`, weights `i32`. Every
/// graph is a [`Graph::from_csr_pattern`] or a coarsening of one. Its ids
/// are the matrix's, below `u32::MAX` (spare as a sentinel) because a
/// [`CsrMatrix`] dimension fits a `u32`. Its weights are unit, and a coarse
/// weight is at most the finest graph's arc count — a coarse vertex is a
/// set of vertices joined by matched edges, a coarse edge a merge of arcs —
/// which `assert_arcs_fit_32` bounds by an `i32`, and so the offsets by a
/// `u32`. Unit weights are not stored: an empty `adjwgt` (`vwgt`) weighs
/// every edge (vertex) 1, as in every [`Graph::from_csr_pattern`] result;
/// a coarse graph stores its own.
#[derive(Debug)]
pub struct Graph {
    xadj: Vec<u32>,
    adjncy: Vec<u32>,
    adjwgt: Vec<i32>,
    vwgt: Vec<i32>,
}

/// Weight `k` of `ws`, where an empty `ws` weighs everything 1.
fn weight(ws: &[i32], k: usize) -> i32 {
    if ws.is_empty() {
        1
    } else {
        ws[k]
    }
}

/// Asserts that `arcs` arcs fit [`Graph`]'s 32-bit offsets and weights:
/// every coarse vertex or edge weight is at most `arcs`, so it must fit an
/// `i32`.
pub(crate) fn assert_arcs_fit_32(arcs: usize) {
    let max = i32::MAX as usize;
    assert!(
        arcs <= max,
        "graph of {arcs} arcs exceeds the 32-bit weights of `Graph` (at most {max})"
    );
}

impl Graph {
    /// Builds from raw adjacency arrays; an empty `adjwgt` or `vwgt` means
    /// unit weights.
    ///
    /// # Panics
    /// Panics on inconsistent arrays, self-loops, unsorted neighbour lists,
    /// or an asymmetric arc set.
    pub(crate) fn from_raw(
        xadj: Vec<u32>,
        adjncy: Vec<u32>,
        adjwgt: Vec<i32>,
        vwgt: Vec<i32>,
    ) -> Self {
        #[expect(clippy::expect_used, reason = "a graph has `n + 1` arc offsets")]
        let n = xadj.len().checked_sub(1).expect("no arc offsets");
        assert!(vwgt.is_empty() || vwgt.len() == n);
        assert!(adjwgt.is_empty() || adjwgt.len() == adjncy.len());
        assert_eq!(xadj[n] as usize, adjncy.len());
        for u in 0..n {
            let nbrs = &adjncy[xadj[u] as usize..xadj[u + 1] as usize];
            for w in nbrs.windows(2) {
                assert!(w[0] < w[1], "neighbour list of {u} not strictly sorted");
            }
            for &v in nbrs {
                assert_ne!(v as usize, u, "self-loop at {u}");
                assert!((v as usize) < n, "neighbour out of range at {u}");
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
    ///
    /// # Panics
    /// Panics when the arcs outnumber an `i32` (`assert_arcs_fit_32`).
    pub fn from_csr_pattern(a: &CsrMatrix) -> Self {
        assert_eq!(
            a.n_rows(),
            a.n_cols(),
            "structure graph needs a square matrix"
        );
        let n = a.n_rows();
        let mut xadj = vec![0u32; n + 1];
        // A degree is below `n`, which fits a `u32`; the sum is checked.
        for_each_arc(a, |u, _| xadj[u as usize + 1] += 1);
        assert_arcs_fit_32(xadj.iter().map(|&d| d as usize).sum());
        for u in 0..n {
            xadj[u + 1] += xadj[u];
        }
        let mut adjncy = vec![0u32; xadj[n] as usize];
        let mut next = xadj[..n].to_vec();
        for_each_arc(a, |u, v| {
            adjncy[next[u as usize] as usize] = v;
            next[u as usize] += 1;
        });
        // A row's transposed arcs land around its own (sorted) columns.
        for u in 0..n {
            adjncy[xadj[u] as usize..xadj[u + 1] as usize].sort_unstable();
        }
        Graph {
            xadj,
            adjncy,
            adjwgt: Vec::new(),
            vwgt: Vec::new(),
        }
    }

    /// Heap bytes held: the capacities of the four arrays.
    pub fn heap_bytes(&self) -> usize {
        let ids = self.xadj.capacity() + self.adjncy.capacity();
        4 * (ids + self.adjwgt.capacity() + self.vwgt.capacity())
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of neighbours of `u`.
    pub fn degree(&self, u: usize) -> usize {
        (self.xadj[u + 1] - self.xadj[u]) as usize
    }

    /// The weight of vertex `u`.
    pub fn vertex_weight(&self, u: usize) -> i64 {
        weight(&self.vwgt, u).into()
    }

    /// Sum of all vertex weights.
    pub fn total_vertex_weight(&self) -> i64 {
        (0..self.n_vertices()).map(|u| self.vertex_weight(u)).sum()
    }

    /// Iterates `(neighbour, edge_weight)` pairs of `u`.
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = (usize, i64)> + '_ {
        self.arcs(u).map(|(v, w)| (v as usize, w.into()))
    }

    /// [`Graph::neighbors`] as stored: what a coarser graph is built from.
    pub(crate) fn arcs(&self, u: usize) -> impl Iterator<Item = (u32, i32)> + '_ {
        let s = self.xadj[u] as usize;
        let ids = &self.adjncy[s..self.xadj[u + 1] as usize];
        (ids.iter().enumerate()).map(move |(k, &v)| (v, weight(&self.adjwgt, s + k)))
    }

    /// Weight of edge `{u, v}` if present.
    pub fn edge_weight(&self, u: usize, v: usize) -> Option<i64> {
        let s = self.xadj[u] as usize;
        let ids = &self.adjncy[s..self.xadj[u + 1] as usize];
        let k = ids.binary_search(&u32::try_from(v).ok()?).ok()?;
        Some(weight(&self.adjwgt, s + k).into())
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
            w[p] += self.vertex_weight(u);
        }
        w
    }
}

/// Calls `emit(u, v)` once per arc of the symmetrised pattern of `a`: a
/// stored off-diagonal entry `(i, j)` gives `i → j`, and `j → i` too unless
/// `(j, i)` is stored and gives that arc itself.
fn for_each_arc(a: &CsrMatrix, mut emit: impl FnMut(u32, u32)) {
    // A row number fits a `u32`, as the matrix's column ids do.
    for i in 0..a.n_rows() as u32 {
        for &j in a.row(i as usize).0.iter().filter(|&&j| j != i) {
            emit(i, j);
            if a.row(j as usize).0.binary_search(&i).is_err() {
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
            assert!(g.neighbors(u).all(|(v, _)| v != u));
        }
    }

    /// The definition, row by row: the sorted union of row `i` of the
    /// pattern and of its transpose, without the diagonal.
    fn symmetrised_rows(a: &CsrMatrix) -> Vec<Vec<usize>> {
        let mut rows = vec![std::collections::BTreeSet::new(); a.n_rows()];
        for i in 0..a.n_rows() {
            for &j in a.row(i).0.iter().filter(|&&j| j as usize != i) {
                rows[i].insert(j as usize);
                rows[j as usize].insert(i);
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
                let got: Vec<usize> = g.neighbors(u).map(|(v, _)| v).collect();
                assert_eq!(&got, row, "case {case}, row {u}");
            }
            let checked = Graph::from_raw(g.xadj, g.adjncy, g.adjwgt, g.vwgt);
            assert_eq!(checked.n_vertices(), n, "case {case}");
            assert!(checked.adjwgt.is_empty(), "case {case}");
            assert!(checked.vwgt.is_empty(), "case {case}");
        }
    }

    #[test]
    fn a_pattern_graph_holds_its_offsets_and_ids_only() {
        let g = Graph::from_csr_pattern(&gen::g40(1));
        let (n, arcs) = (g.n_vertices(), g.adjncy.len());
        assert_eq!(g.heap_bytes(), 4 * (n + 1) + 4 * arcs);
    }

    #[test]
    fn a_pattern_graph_weighs_everything_one() {
        let g = Graph::from_csr_pattern(&gen::g40(1));
        assert_eq!(g.total_vertex_weight(), g.n_vertices() as i64);
        for u in 0..g.n_vertices() {
            assert_eq!(g.vertex_weight(u), 1);
            for (v, w) in g.neighbors(u) {
                assert_eq!(w, 1);
                assert_eq!(g.edge_weight(u, v), Some(1));
            }
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
    #[should_panic(expected = "graph of 2147483648 arcs exceeds the 32-bit weights")]
    fn fit_guard_rejects_more_arcs_than_an_i32_holds() {
        assert_arcs_fit_32(i32::MAX as usize); // the bound itself fits
        assert_arcs_fit_32(i32::MAX as usize + 1);
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

//! Randomized property tests of partitioning.
//!
//! Formerly proptest strategies; now driven by the in-tree seeded
//! [`SplitMix64`] so the suite runs with zero registry dependencies.

use pilut_graph::{partition_kway, Graph, PartitionOptions};
use pilut_sparse::{CooMatrix, CsrMatrix, SplitMix64};

const CASES: u64 = 64;

/// Random undirected graph via a symmetric pattern matrix.
fn undirected(rng: &mut SplitMix64, max_n: usize, max_edges: usize) -> CsrMatrix {
    let n = 2 + rng.next_usize(max_n - 1);
    let m = rng.next_usize(max_edges + 1);
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0);
    }
    for _ in 0..m {
        let i = rng.next_usize(n);
        let j = rng.next_usize(n);
        if i != j {
            coo.push(i, j, -1.0);
            coo.push(j, i, -1.0);
        }
    }
    coo.to_csr()
}

#[test]
fn partition_covers_and_balances() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let a = undirected(&mut rng, 60, 150);
        let k = 1 + rng.next_usize(33);
        let g = Graph::from_csr_pattern(&a);
        let r = partition_kway(&g, &PartitionOptions::new(k));
        assert_eq!(r.part.len(), g.n_vertices(), "case {case}");
        assert!(r.part.iter().all(|&p| p < k), "case {case}");
        assert_eq!(
            r.part_weights.iter().sum::<i64>(),
            g.total_vertex_weight(),
            "case {case}"
        );
        assert_eq!(r.edge_cut, g.edge_cut(&r.part), "case {case}");
        // Loose balance bound: random graphs with singleton matchings can
        // frustrate refinement, but no part may hold nearly everything when
        // k > 1 and the graph has enough vertices.
        if k > 1 && g.n_vertices() >= 4 * k {
            let max = *r.part_weights.iter().max().expect("k >= 1 parts");
            assert!(
                (max as f64) <= 0.9 * g.total_vertex_weight() as f64,
                "case {case}: degenerate partition: {:?}",
                r.part_weights
            );
        }
    }
}

#[test]
fn edge_cut_zero_iff_parts_disconnect_nothing() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let a = undirected(&mut rng, 30, 60);
        let g = Graph::from_csr_pattern(&a);
        let all_zero = vec![0usize; g.n_vertices()];
        assert_eq!(g.edge_cut(&all_zero), 0, "case {case}");
    }
}

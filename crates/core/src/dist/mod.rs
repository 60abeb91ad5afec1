//! Row distribution of a sparse matrix over the ranks of the virtual
//! machine.
//!
//! The paper's setup (§3): a high-quality graph partition assigns each row
//! to a processor; a rank's rows are classified **interior** (coupled only
//! to rows of the same rank, in the symmetrised pattern) or **interface**.
//! Interiors factor with zero communication; interfaces form the global
//! reduced matrix.
//!
//! The partition itself is computed up front with the multilevel k-way
//! partitioner from `pilut-graph` (DESIGN.md §8 documents why a serial
//! partitioner is a faithful substitute), and the full matrix is shared
//! read-only across rank threads — each rank only ever touches its own rows,
//! mimicking a distributed matrix without duplicating storage per rank.

pub mod exchange;
pub mod op;
pub mod recover;
pub mod spmv;

use pilut_graph::{partition_kway, Graph, PartitionOptions};
use pilut_sparse::CsrMatrix;

/// Which rank owns each row, plus the per-rank row lists.
#[derive(Clone, Debug)]
pub struct Distribution {
    part: Vec<usize>,
    rows_of: Vec<Vec<usize>>,
}

impl Distribution {
    /// Builds from an explicit row→rank map.
    pub fn from_part(part: Vec<usize>, p: usize) -> Self {
        let mut rows_of = vec![Vec::new(); p];
        for (row, &r) in part.iter().enumerate() {
            assert!(r < p, "row {row} assigned to rank {r} >= {p}");
            rows_of[r].push(row);
        }
        Distribution { part, rows_of }
    }

    /// Partitions the matrix graph with the multilevel k-way partitioner.
    pub fn from_matrix(a: &CsrMatrix, p: usize, seed: u64) -> Self {
        let g = Graph::from_csr_pattern(a);
        let opts = PartitionOptions {
            seed,
            ..PartitionOptions::new(p)
        };
        let r = partition_kway(&g, &opts);
        Self::from_part(r.part, p)
    }

    /// Contiguous block distribution (a poor-man's baseline for ablations).
    ///
    /// Balanced: each rank gets `floor(n/p)` rows, the first `n % p` ranks
    /// one extra. With `p > n` the trailing ranks own zero rows — a legal
    /// distribution that every plan and collective must tolerate (the old
    /// `ceil`-based blocking both doubled up one rank and left others empty
    /// even when `p <= n`).
    pub fn block(n: usize, p: usize) -> Self {
        assert!(p > 0, "need at least one rank");
        let base = n / p;
        let extra = n % p;
        let mut part = Vec::with_capacity(n);
        for r in 0..p {
            let size = base + usize::from(r < extra);
            part.extend(std::iter::repeat(r).take(size));
        }
        Self::from_part(part, p)
    }

    /// Global number of matrix rows.
    pub fn n_rows(&self) -> usize {
        self.part.len()
    }

    /// Number of ranks the rows are distributed over.
    pub fn n_ranks(&self) -> usize {
        self.rows_of.len()
    }

    /// The rank that owns global `row`.
    pub fn owner(&self, row: usize) -> usize {
        self.part[row]
    }

    /// The rows of `rank`, ascending.
    pub fn rows_of(&self, rank: usize) -> &[usize] {
        &self.rows_of[rank]
    }
}

/// The read-only shared state of a distributed matrix: the matrix, its
/// distribution, and the interior/interface classification of every row.
#[derive(Clone, Debug)]
pub struct DistMatrix {
    a: CsrMatrix,
    dist: Distribution,
    /// `interface[i]`: row `i` couples, in the symmetrised pattern, to a
    /// row of another rank.
    interface: Vec<bool>,
}

/// A rank's view of the distribution: its nodes in *local order* —
/// interiors first (ascending global id), then interfaces (ascending).
/// Local vectors (`x`, `b`, GMRES basis vectors) are indexed in this order.
#[derive(Clone, Debug)]
pub struct LocalView {
    pub rank: usize,
    /// Interior nodes, ascending global id; their ascending order is also
    /// their elimination order in phase 1.
    pub interior: Vec<usize>,
    /// Interface nodes, ascending global id.
    pub interface: Vec<usize>,
    /// interior ++ interface — the local vector ordering.
    pub nodes: Vec<usize>,
    /// Dense global→local map (`u32::MAX` for non-local nodes).
    local_pos: Vec<u32>,
}

impl LocalView {
    /// Number of locally owned nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when this rank owns no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Local position of a global node, if owned by this rank.
    pub fn pos_of(&self, node: usize) -> Option<usize> {
        match self.local_pos[node] {
            u32::MAX => None,
            p => Some(p as usize),
        }
    }

    /// True when global `node` is owned by this rank.
    pub fn owns(&self, node: usize) -> bool {
        self.local_pos[node] != u32::MAX
    }

    /// Stored entries of this rank's rows of `a`.
    pub fn nnz(&self, a: &CsrMatrix) -> usize {
        self.nodes.iter().map(|&i| a.row_nnz(i)).sum()
    }

    /// The columns of this rank's rows of `a` that another rank owns, row
    /// after row with repeats — the `needed` list of a halo
    /// [`exchange::CommPlan`].
    pub fn remote_cols<'a>(&'a self, a: &'a CsrMatrix) -> impl Iterator<Item = usize> + 'a {
        let cols = self.nodes.iter().flat_map(move |&i| a.row(i).0);
        cols.copied().filter(move |&j| !self.owns(j))
    }
}

impl DistMatrix {
    /// Wraps a global matrix together with its row distribution.
    pub fn new(a: CsrMatrix, dist: Distribution) -> Self {
        assert_eq!(a.n_rows(), a.n_cols());
        assert_eq!(a.n_rows(), dist.n_rows());
        // A stored `(k, j)` is an edge of the symmetrised pattern from both
        // of its ends.
        let mut interface = vec![false; a.n_rows()];
        for k in 0..a.n_rows() {
            let owner = dist.owner(k);
            for &j in a.row(k).0 {
                if dist.owner(j) != owner {
                    interface[k] = true;
                    interface[j] = true;
                }
            }
        }
        DistMatrix { a, dist, interface }
    }

    /// Partition-and-wrap convenience.
    pub fn from_matrix(a: CsrMatrix, p: usize, seed: u64) -> Self {
        let dist = Distribution::from_matrix(&a, p, seed);
        Self::new(a, dist)
    }

    /// The full (replicated) matrix.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.a
    }

    /// The row distribution.
    pub fn dist(&self) -> &Distribution {
        &self.dist
    }

    /// Global matrix dimension.
    pub fn n(&self) -> usize {
        self.a.n_rows()
    }

    /// Builds rank `rank`'s local view: its rows, interiors before
    /// interfaces.
    pub fn local_view(&self, rank: usize) -> LocalView {
        assert!(self.n() < u32::MAX as usize, "local positions are 32-bit");
        let rows = self.dist.rows_of(rank).iter().copied();
        let (interface, interior): (Vec<usize>, Vec<usize>) =
            rows.partition(|&i| self.interface[i]);
        let mut nodes = interior.clone();
        nodes.extend_from_slice(&interface);
        let mut local_pos = vec![u32::MAX; self.n()];
        for (p, &g) in nodes.iter().enumerate() {
            local_pos[g] = p as u32;
        }
        LocalView {
            rank,
            interior,
            interface,
            nodes,
            local_pos,
        }
    }

    /// Total interface nodes over all ranks — the size of the paper's
    /// reduced matrix `A_I`.
    pub fn total_interface(&self) -> usize {
        self.interface.iter().filter(|&&f| f).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilut_sparse::gen;

    #[test]
    fn block_distribution_covers_everything() {
        let d = Distribution::block(10, 3);
        assert_eq!(d.rows_of(0), &[0, 1, 2, 3]);
        assert_eq!(d.rows_of(1), &[4, 5, 6]);
        assert_eq!(d.rows_of(2), &[7, 8, 9]);
        assert_eq!(d.owner(5), 1);
    }

    #[test]
    fn block_distribution_is_balanced_and_tolerates_empty_ranks() {
        // p > n: the trailing ranks legally own nothing.
        let d = Distribution::block(5, 8);
        for r in 0..5 {
            assert_eq!(d.rows_of(r), &[r]);
        }
        for r in 5..8 {
            assert!(d.rows_of(r).is_empty(), "rank {r} must be empty");
        }
        // Every p <= n leaves no rank empty and sizes within one of each
        // other (the old ceil-based blocking violated both at e.g. 10/8).
        for n in 1..=12usize {
            for p in 1..=n {
                let d = Distribution::block(n, p);
                let sizes: Vec<usize> = (0..p).map(|r| d.rows_of(r).len()).collect();
                let lo = *sizes.iter().min().unwrap_or(&0);
                let hi = *sizes.iter().max().unwrap_or(&0);
                assert!(lo >= 1, "n={n} p={p}: empty rank in {sizes:?}");
                assert!(hi - lo <= 1, "n={n} p={p}: unbalanced {sizes:?}");
            }
        }
    }

    #[test]
    fn classification_on_a_grid() {
        // 4x4 grid split into left/right halves: the two middle columns are
        // interface.
        let a = gen::laplace_2d(4, 4);
        let part: Vec<usize> = (0..16).map(|i| if i % 4 < 2 { 0 } else { 1 }).collect();
        let dm = DistMatrix::new(a, Distribution::from_part(part, 2));
        let v0 = dm.local_view(0);
        let v1 = dm.local_view(1);
        // Columns 0 (x=0) are interior to rank 0; x=1 touches x=2 → interface.
        assert_eq!(v0.interior, vec![0, 4, 8, 12]);
        assert_eq!(v0.interface, vec![1, 5, 9, 13]);
        assert_eq!(v1.interface, vec![2, 6, 10, 14]);
        assert_eq!(dm.total_interface(), 8);
        // Local ordering: interiors first.
        assert_eq!(v0.nodes, vec![0, 4, 8, 12, 1, 5, 9, 13]);
        assert_eq!(v0.pos_of(1), Some(4));
        assert_eq!(v0.pos_of(2), None);
        assert!(v1.owns(2));
    }

    #[test]
    fn classification_equals_the_definition_on_unsymmetric_patterns() {
        // The definition: a row is interface iff some row coupled to it in
        // `pattern(A) ∪ pattern(Aᵀ)` has another owner. Inputs carry
        // one-way entries, two-way pairs, explicit and missing diagonals,
        // empty rows and empty ranks.
        use pilut_sparse::{CooMatrix, SplitMix64};
        for case in 0..64 {
            let mut rng = SplitMix64::new(case);
            let n = 1 + rng.next_usize(24);
            let mut coo = CooMatrix::new(n, n);
            for _ in 0..rng.next_usize(3 * n) {
                let (i, j) = (rng.next_usize(n), rng.next_usize(n));
                coo.push(i, j, 1.0);
                if rng.next_usize(3) == 0 {
                    coo.push(j, i, 1.0);
                }
            }
            let a = coo.to_csr();
            let p = 1 + rng.next_usize(5);
            let part: Vec<usize> = (0..n).map(|_| rng.next_usize(p)).collect();
            let mut coupled = vec![Vec::new(); n];
            for i in 0..n {
                for &j in a.row(i).0 {
                    coupled[i].push(j);
                    coupled[j].push(i);
                }
            }
            let is_interface = |i: usize| coupled[i].iter().any(|&j| part[j] != part[i]);
            let dm = DistMatrix::new(a, Distribution::from_part(part.clone(), p));
            for r in 0..p {
                let v = dm.local_view(r);
                let mine = || (0..n).filter(|&i| part[i] == r);
                let want: Vec<usize> = mine().filter(|&i| !is_interface(i)).collect();
                assert_eq!(v.interior, want, "case {case}, rank {r}");
                let want: Vec<usize> = mine().filter(|&i| is_interface(i)).collect();
                assert_eq!(v.interface, want, "case {case}, rank {r}");
                for (i, &owner) in part.iter().enumerate() {
                    assert_eq!(v.owns(i), owner == r, "case {case}, rank {r}");
                    let pos = v.nodes.iter().position(|&g| g == i);
                    assert_eq!(v.pos_of(i), pos, "case {case}, rank {r}");
                }
            }
            let total = (0..n).filter(|&i| is_interface(i)).count();
            assert_eq!(dm.total_interface(), total, "case {case}");
        }
    }

    #[test]
    fn partitioned_distribution_has_few_interfaces() {
        let a = gen::laplace_2d(20, 20);
        let dm = DistMatrix::from_matrix(a, 4, 7);
        let total: usize = (0..4).map(|r| dm.local_view(r).len()).sum();
        assert_eq!(total, 400);
        // A good 4-way partition of a 20x20 grid leaves far fewer than half
        // the nodes on the interface.
        assert!(
            dm.total_interface() < 200,
            "interface = {}",
            dm.total_interface()
        );
    }

    #[test]
    fn single_rank_everything_is_interior() {
        let a = gen::laplace_2d(5, 5);
        let dm = DistMatrix::from_matrix(a, 1, 1);
        let v = dm.local_view(0);
        assert_eq!(v.interior.len(), 25);
        assert!(v.interface.is_empty());
    }
}

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

use pilut_graph::{partition_kway, Graph, PartitionOptions};
use pilut_sparse::CsrMatrix;
use std::sync::Arc;

/// Which rank owns each row.
#[derive(Clone, Debug)]
pub struct Distribution {
    /// The owner of every row.
    part: Vec<u32>,
    n_ranks: usize,
}

impl Distribution {
    /// Builds from an explicit row→rank map.
    pub fn from_part(part: Vec<usize>, p: usize) -> Self {
        if let Some((row, r)) = part.iter().enumerate().find(|&(_, &r)| r >= p) {
            panic!("row {row} assigned to rank {r} >= {p}");
        }
        let part = part.into_iter().map(|r| r as u32).collect();
        Distribution { part, n_ranks: p }
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
            part.extend(std::iter::repeat_n(r, size));
        }
        Self::from_part(part, p)
    }

    /// Global number of matrix rows.
    pub fn n_rows(&self) -> usize {
        self.part.len()
    }

    /// Number of ranks the rows are distributed over.
    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// The rank that owns global `row`.
    pub fn owner(&self, row: usize) -> usize {
        self.part[row] as usize
    }

    /// The rows of `rank`, ascending (a scan of the owner map).
    pub fn rows_of(&self, rank: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.n_rows()).filter(move |&row| self.owner(row) == rank)
    }
}

/// Flags a [`Numbering`] code that holds an interface number.
const INTERFACE: u32 = 1 << 31;

/// The one copy of everything of length `n` the ranks read: the owner of
/// every node, its position in its owner's local order, and its global
/// interface number. Shared read-only by the [`DistMatrix`] and every
/// [`LocalView`] of it, so no rank holds an array of global length.
#[derive(Debug)]
struct Numbering {
    dist: Distribution,
    /// `code[g]`: `g`'s position in its owner's local order when it is an
    /// interior; `INTERFACE | k` when it is interface node `k`, numbered in
    /// ascending id over all ranks. One load answers the kernels' question,
    /// interior slot or interface number.
    code: Vec<u32>,
    /// Per interface number: the node, and its position in its owner's
    /// local order.
    iface_nodes: Vec<u32>,
    iface_pos: Vec<u32>,
}

/// The read-only shared state of a distributed matrix: the matrix, its
/// distribution, and the interior/interface numbering of every row.
#[derive(Clone, Debug)]
pub struct DistMatrix {
    a: CsrMatrix,
    num: Arc<Numbering>,
}

/// A rank's view of the distribution: its nodes in *local order* —
/// interiors first (ascending global id), then interfaces (ascending).
/// Local vectors (`x`, `b`, GMRES basis vectors) are indexed in this order.
#[derive(Clone, Debug)]
pub struct LocalView {
    /// The rank this view belongs to.
    pub rank: usize,
    /// Interior nodes, ascending global id; their ascending order is also
    /// their elimination order in phase 1.
    pub interior: Vec<usize>,
    /// Interface nodes, ascending global id.
    pub interface: Vec<usize>,
    /// interior ++ interface — the local vector ordering.
    pub nodes: Vec<usize>,
    /// The numbering every view of the matrix shares.
    num: Arc<Numbering>,
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
        self.owns(node).then(|| match self.num.code[node] {
            c if c & INTERFACE != 0 => self.num.iface_pos[(c ^ INTERFACE) as usize] as usize,
            c => c as usize,
        })
    }

    /// True when global `node` is owned by this rank.
    pub fn owns(&self, node: usize) -> bool {
        self.num.dist.owner(node) == self.rank
    }

    /// Stored entries of this rank's rows of `a`.
    pub fn nnz(&self, a: &CsrMatrix) -> usize {
        self.nodes.iter().map(|&i| a.row_nnz(i)).sum()
    }

    /// The columns of this rank's rows of `a` that another rank owns, each
    /// once, in the order the rows first meet them — the `needed` list of a
    /// halo [`exchange::CommPlan`]. Only interface rows reach another rank,
    /// and only interface nodes: one mark per interface number dedups them.
    pub fn remote_cols<'a>(&'a self, a: &'a CsrMatrix) -> impl Iterator<Item = usize> + 'a {
        let mut seen = vec![false; self.num.iface_nodes.len()];
        let cols = self.interface.iter().flat_map(move |&i| a.row(i).0);
        cols.map(|&j| j as usize).filter(move |&j| {
            !self.owns(j) && !std::mem::replace(&mut seen[self.slot(j) - self.interior.len()], true)
        })
    }

    /// Global number of nodes, the matrix dimension.
    pub(crate) fn n_global(&self) -> usize {
        self.num.code.len()
    }

    /// Slots in the column space of this rank's factorization: its
    /// interiors in local order, then every interface node of the machine
    /// by interface number. An interior row couples to local nodes only and
    /// fill from interface rows lands on interface nodes, so no other column
    /// ever appears in a row the rank eliminates.
    pub(crate) fn n_slots(&self) -> usize {
        self.interior.len() + self.num.iface_nodes.len()
    }

    /// The column-space slot of `j`, a column this rank's rows can reach.
    pub(crate) fn slot(&self, j: usize) -> usize {
        // An interior's code is its slot; an interface number follows them.
        let c = self.num.code[j];
        (c & !INTERFACE) as usize + usize::from(c & INTERFACE != 0) * self.interior.len()
    }

    /// [`slot`](Self::slot) of `j`, which this rank stores at local position
    /// `s`: an interior's slot is its local position, so the kernels skip
    /// the lookup for it.
    pub(crate) fn slot_at(&self, s: usize, j: usize) -> usize {
        if s < self.interior.len() {
            return s;
        }
        self.slot(j)
    }

    /// The column at column-space slot `s`.
    pub(crate) fn col(&self, s: usize) -> usize {
        match self.interior.get(s) {
            Some(&g) => g,
            None => self.num.iface_nodes[s - self.interior.len()] as usize,
        }
    }

    /// Whether `j`, a column this rank's rows can reach, is one of its
    /// interiors.
    pub(crate) fn is_interior(&self, j: usize) -> bool {
        self.num.code[j] & INTERFACE == 0
    }
}

impl DistMatrix {
    /// Wraps a global matrix together with its row distribution.
    pub fn new(a: CsrMatrix, dist: Distribution) -> Self {
        assert_eq!(a.n_rows(), a.n_cols());
        assert_eq!(a.n_rows(), dist.n_rows());
        assert!(a.n_rows() < INTERFACE as usize, "node numbers are 31-bit");
        // A stored `(k, j)` is an edge of the symmetrised pattern from both
        // of its ends; a cut edge makes both interface.
        let mut code = vec![0; a.n_rows()];
        for k in 0..a.n_rows() {
            for &j in a.row(k).0 {
                let j = j as usize;
                if dist.part[j] != dist.part[k] {
                    (code[k], code[j]) = (INTERFACE, INTERFACE);
                }
            }
        }
        // `next[r]` hands out rank r's local positions, interiors from 0
        // and interfaces from its interior count; interface numbers go in
        // ascending id.
        let mut next = vec![[0u32; 2]; dist.n_ranks()];
        for (g, _) in code.iter().enumerate().filter(|(_, &c)| c == 0) {
            next[dist.part[g] as usize][1] += 1;
        }
        let (mut iface_nodes, mut iface_pos) = (Vec::new(), Vec::new());
        for (g, c) in code.iter_mut().enumerate() {
            let at = &mut next[dist.part[g] as usize][usize::from(*c == INTERFACE)];
            if *c == INTERFACE {
                *c = INTERFACE | iface_nodes.len() as u32;
                iface_nodes.push(g as u32);
                iface_pos.push(*at);
            } else {
                *c = *at;
            }
            *at += 1;
        }
        let num = Arc::new(Numbering {
            dist,
            code,
            iface_nodes,
            iface_pos,
        });
        DistMatrix { a, num }
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
        &self.num.dist
    }

    /// Global matrix dimension.
    pub fn n(&self) -> usize {
        self.a.n_rows()
    }

    /// Builds rank `rank`'s local view: its rows, interiors before
    /// interfaces, each list at exactly its length (the view lives through
    /// the solve).
    pub fn local_view(&self, rank: usize) -> LocalView {
        let is_interface = |g: usize| self.num.code[g] & INTERFACE != 0;
        let (mut len, mut n_interface) = (0, 0);
        for g in self.num.dist.rows_of(rank) {
            len += 1;
            n_interface += usize::from(is_interface(g));
        }
        let mut interior = Vec::with_capacity(len - n_interface);
        let mut interface = Vec::with_capacity(n_interface);
        for g in self.num.dist.rows_of(rank) {
            if is_interface(g) {
                interface.push(g);
            } else {
                interior.push(g);
            }
        }
        let nodes = [interior.as_slice(), &interface].concat();
        LocalView {
            rank,
            interior,
            interface,
            nodes,
            num: Arc::clone(&self.num),
        }
    }

    /// Total interface nodes over all ranks — the size of the paper's
    /// reduced matrix `A_I`.
    pub fn total_interface(&self) -> usize {
        self.num.iface_nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilut_sparse::gen;

    #[test]
    fn block_distribution_covers_everything() {
        let d = Distribution::block(10, 3);
        assert!(d.rows_of(0).eq([0, 1, 2, 3]));
        assert!(d.rows_of(1).eq([4, 5, 6]));
        assert!(d.rows_of(2).eq([7, 8, 9]));
        assert_eq!(d.owner(5), 1);
    }

    #[test]
    fn block_distribution_is_balanced_and_tolerates_empty_ranks() {
        // p > n: the trailing ranks legally own nothing.
        let d = Distribution::block(5, 8);
        for r in 0..5 {
            assert!(d.rows_of(r).eq([r]));
        }
        for r in 5..8 {
            assert!(d.rows_of(r).next().is_none(), "rank {r} must be empty");
        }
        // Every p <= n leaves no rank empty and sizes within one of each
        // other (the old ceil-based blocking violated both at e.g. 10/8).
        for n in 1..=12usize {
            for p in 1..=n {
                let d = Distribution::block(n, p);
                let sizes: Vec<usize> = (0..p).map(|r| d.rows_of(r).count()).collect();
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
        // `pattern(A) ∪ pattern(Aᵀ)` has another owner. The shared
        // numbering follows from it: a node's position in its owner's
        // local order, and its interface number — how many interface nodes
        // have a smaller id. Inputs carry one-way entries, two-way pairs,
        // explicit and missing diagonals, empty rows and empty ranks.
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
                    coupled[i].push(j as usize);
                    coupled[j as usize].push(i);
                }
            }
            let is_interface = |i: usize| coupled[i].iter().any(|&j| part[j] != part[i]);
            let interfaces: Vec<usize> = (0..n).filter(|&i| is_interface(i)).collect();
            let dm = DistMatrix::new(a, Distribution::from_part(part.clone(), p));
            for (i, &c) in dm.num.code.iter().enumerate() {
                let want = interfaces.iter().position(|&g| g == i);
                let k = (c & INTERFACE != 0).then_some((c ^ INTERFACE) as usize);
                assert_eq!(k, want, "case {case}");
            }
            for r in 0..p {
                let v = dm.local_view(r);
                let mine = || (0..n).filter(|&i| part[i] == r);
                let want: Vec<usize> = mine().filter(|&i| !is_interface(i)).collect();
                assert_eq!(v.interior, want, "case {case}, rank {r}");
                let want: Vec<usize> = mine().filter(|&i| is_interface(i)).collect();
                assert_eq!(v.interface, want, "case {case}, rank {r}");
                // The view lives through the solve: no list keeps slack.
                for list in [&v.interior, &v.interface, &v.nodes] {
                    assert_eq!(list.capacity(), list.len(), "case {case}, rank {r}");
                }
                for (i, &owner) in part.iter().enumerate() {
                    assert_eq!(v.owns(i), owner == r, "case {case}, rank {r}");
                    let pos = v.nodes.iter().position(|&g| g == i);
                    assert_eq!(v.pos_of(i), pos, "case {case}, rank {r}");
                }
                // The kernels' column space: my interiors, then every
                // interface node, each at the next slot and mapped back.
                let reach: Vec<usize> = v.interior.iter().chain(&interfaces).copied().collect();
                assert_eq!(v.n_slots(), reach.len(), "case {case}, rank {r}");
                for (slot, &j) in reach.iter().enumerate() {
                    assert_eq!(v.slot(j), slot, "case {case}, rank {r}");
                    assert_eq!(v.col(slot), j, "case {case}, rank {r}");
                    assert_eq!(v.is_interior(j), slot < v.interior.len());
                    if let Some(s) = v.pos_of(j) {
                        assert_eq!(v.slot_at(s, j), slot, "case {case}, rank {r}");
                    }
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

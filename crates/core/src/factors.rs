//! Storage for incomplete LU factors: one triangle store under the serial
//! and the distributed factorizations.
//!
//! A `FactorStore` holds the strict `L` part, the pivots and the strict
//! `U` part of a run of rows as two CSR arenas plus a `diag` vector, over a
//! *slot* space chosen by its owner. [`LuFactors`] is the store with
//! slot = row = column (the serial case);
//! [`crate::parallel::RankFactors`] is the same store over a rank's compact
//! local numbering with ghost slots behind it. Both are filled through the
//! one `FactorStore::push_row` and solved through the one pair of row
//! sweeps below.
//!
//! Slots and row pointers are `u32`: a strict entry costs 12 bytes, its
//! slot and its value; a pivot costs 8, and a row 8 more for its two row
//! pointers. A slot numbers a column of the `u32`-indexed matrix, so it
//! fits by construction; `push_row` is where an entry count is narrowed,
//! and checked.

use pilut_sparse::csr::narrow;
use pilut_sparse::Entry;

/// One triangle of a factor: CSR over slots.
#[derive(Clone, Debug)]
pub(crate) struct Arena {
    pub(crate) ptr: Vec<u32>,
    pub(crate) slot: Vec<u32>,
    pub(crate) val: Vec<f64>,
}

impl Arena {
    /// An empty triangle with room for the row pointers of `rows` rows.
    fn with_rows(rows: usize) -> Self {
        let mut ptr = Vec::with_capacity(rows + 1);
        ptr.push(0);
        Arena {
            ptr,
            slot: Vec::new(),
            val: Vec::new(),
        }
    }

    /// Row `p` as parallel `(slots, values)` slices.
    #[inline]
    pub(crate) fn row(&self, p: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.ptr[p] as usize, self.ptr[p + 1] as usize);
        (&self.slot[lo..hi], &self.val[lo..hi])
    }

    /// Row `p` as `(slot, value)` pairs in stored order.
    #[inline]
    pub(crate) fn entries(&self, p: usize) -> impl ExactSizeIterator<Item = (usize, f64)> + '_ {
        let (slots, vals) = self.row(p);
        slots.iter().map(|&s| s as usize).zip(vals.iter().copied())
    }

    /// `x[p] − Σ val·x[slot]` over row `p`, summed in stored entry order —
    /// the one inner loop of every scalar triangular sweep in the crate.
    #[inline]
    fn row_residual(&self, p: usize, x: &[f64]) -> f64 {
        let (slots, vals) = self.row(p);
        let mut s = x[p];
        for (&j, &v) in slots.iter().zip(vals) {
            s -= v * x[j as usize];
        }
        s
    }

    fn heap_bytes(&self) -> usize {
        4 * (self.ptr.capacity() + self.slot.capacity()) + 8 * self.val.capacity()
    }
}

/// What [`triangle_reserve`] takes at most, in multiples of the entries of
/// the rows being factored: above `rows · m` wherever `m` is a real bound
/// (TORSO ILUT(20, 1e-6): 3.0 times its input, of which a triangle keeps
/// 2.3), far below `m = n`.
const RESERVE_CAP: usize = 4;

/// Entries to reserve in each triangle of an ILUT(m, t) factor of `rows`
/// rows with `nnz` input entries, before the first row is pushed: the
/// dropping rules keep at most `m` of a row per triangle and a row has no
/// more than `n` columns, so `rows · min(m, n)` holds the whole factor —
/// unless `m` is too loose to say anything (the exact-LU configurations
/// pass `m = n`), where [`RESERVE_CAP`] times the input is the first guess
/// and the arenas grow from there. Reserved once, shrunk once: four
/// vectors that reach their size by doubling leave a trail of holes in a
/// rank thread's malloc arena that nothing later fits into (DESIGN §16.6).
pub(crate) fn triangle_reserve(rows: usize, n: usize, m: usize, nnz: usize) -> usize {
    let cap = RESERVE_CAP.saturating_mul(nnz);
    rows.saturating_mul(m.min(n)).min(cap)
}

/// Strict `L`, pivots and strict `U` of rows `0..n_rows()`, row `p` living
/// at slot `p`. `L` has an implicit unit diagonal. Entries keep the order
/// they were pushed in; the sweeps sum in that order.
#[derive(Clone, Debug)]
pub(crate) struct FactorStore {
    pub(crate) l: Arena,
    pub(crate) diag: Vec<f64>,
    pub(crate) u: Arena,
}

impl FactorStore {
    pub(crate) fn with_capacity(rows: usize) -> Self {
        FactorStore {
            l: Arena::with_rows(rows),
            diag: Vec::with_capacity(rows),
            u: Arena::with_rows(rows),
        }
    }

    /// Appends the next row: strict-`L` entries, pivot, strict-`U` entries,
    /// every column renamed to its slot by `slot_of`. Panics if a
    /// triangle's entry count outgrows `u32`.
    pub(crate) fn push_row(
        &mut self,
        l: &[Entry],
        diag: f64,
        u: &[Entry],
        slot_of: impl Fn(usize) -> usize,
    ) {
        // Slots are below the matrix dimension, which fits a `u32`.
        let slot = |e: &Entry| slot_of(e.col()) as u32;
        for (arena, entries) in [(&mut self.l, l), (&mut self.u, u)] {
            arena.slot.extend(entries.iter().map(slot));
            arena.val.extend(entries.iter().map(|e| e.val()));
            #[expect(clippy::expect_used, reason = "documented panic past 2^32 entries")]
            let end = narrow(arena.slot.len(), "factor entries").expect("factor outgrew u32");
            arena.ptr.push(end);
        }
        self.diag.push(diag);
    }

    /// Makes room for `entries` more entries in each triangle.
    pub(crate) fn reserve_entries(&mut self, entries: usize) {
        for a in [&mut self.l, &mut self.u] {
            a.slot.reserve(entries);
            a.val.reserve(entries);
        }
    }

    /// Number of rows stored.
    pub(crate) fn n_rows(&self) -> usize {
        self.diag.len()
    }

    /// Gives back the growth slack of both arenas.
    pub(crate) fn shrink(&mut self) {
        for a in [&mut self.l, &mut self.u] {
            a.ptr.shrink_to_fit();
            a.slot.shrink_to_fit();
            a.val.shrink_to_fit();
        }
    }

    /// Heap bytes the store keeps alive (capacities, not lengths).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.l.heap_bytes() + self.u.heap_bytes() + 8 * self.diag.capacity()
    }

    /// Forward substitution `x[p] ← x[p] − L_p·x` over `rows`, in order.
    #[inline]
    pub(crate) fn forward_rows(&self, rows: impl IntoIterator<Item = usize>, x: &mut [f64]) {
        for p in rows {
            x[p] = self.l.row_residual(p, x);
        }
    }

    /// Backward substitution `x[p] ← (x[p] − U_p·x) / u_pp` over `rows`,
    /// in order.
    #[inline]
    pub(crate) fn backward_rows(&self, rows: impl IntoIterator<Item = usize>, x: &mut [f64]) {
        for p in rows {
            x[p] = self.u.row_residual(p, x) / self.diag[p];
        }
    }
}

/// An incomplete LU factorization in row-major sparse form: the crate's
/// factor store with slot = row = column.
///
/// Conventions (matching the paper's Algorithm 2.1): row `i` of `L` holds
/// the **strict** lower part — the multipliers, unit diagonal implicit;
/// row `i` of `U` holds the strict upper part; the pivot `u_ii` is
/// [`LuFactors::diag`].
#[derive(Clone, Debug)]
pub struct LuFactors {
    /// Order of the factored matrix.
    pub n: usize,
    store: FactorStore,
}

impl LuFactors {
    /// Seals a fully pushed store.
    pub(crate) fn from_store(mut store: FactorStore) -> Self {
        store.shrink();
        LuFactors {
            n: store.n_rows(),
            store,
        }
    }

    /// Strict-`L` entries of row `i` as `(column, value)`.
    pub fn l_row(&self, i: usize) -> impl ExactSizeIterator<Item = (usize, f64)> + '_ {
        self.store.l.entries(i)
    }

    /// Strict-`U` entries of row `i` as `(column, value)`.
    pub fn u_row(&self, i: usize) -> impl ExactSizeIterator<Item = (usize, f64)> + '_ {
        self.store.u.entries(i)
    }

    /// The pivot `u_ii`.
    pub fn diag(&self, i: usize) -> f64 {
        self.store.diag[i]
    }

    /// Validates the structural conventions; used by tests and
    /// `debug_assert!`s.
    pub fn check_structure(&self) -> Result<(), String> {
        for i in 0..self.n {
            if let Some((c, _)) = self.l_row(i).find(|&(c, _)| c >= i) {
                return Err(format!("L row {i} has column {c} >= diagonal"));
            }
            if let Some((c, _)) = self.u_row(i).find(|&(c, _)| c <= i || c >= self.n) {
                return Err(format!("U row {i} has column {c} outside ({i}, n)"));
            }
            // lint: allow(float-eq): exact zero-pivot test
            if self.diag(i) == 0.0 {
                return Err(format!("U row {i} has a zero diagonal"));
            }
        }
        Ok(())
    }

    /// Total entries stored in L.
    pub fn nnz_l(&self) -> usize {
        self.store.l.val.len()
    }

    /// Total entries stored in U (diagonals included).
    pub fn nnz_u(&self) -> usize {
        self.store.u.val.len() + self.n
    }

    /// Total stored entries across both factors.
    pub fn nnz(&self) -> usize {
        self.nnz_l() + self.nnz_u()
    }

    /// Solves `L y = b` (unit lower triangular), in place.
    pub fn forward_solve(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.n);
        self.store.forward_rows(0..self.n, b);
    }

    /// Solves `U x = y`, in place.
    pub fn backward_solve(&self, y: &mut [f64]) {
        assert_eq!(y.len(), self.n);
        self.store.backward_rows((0..self.n).rev(), y);
    }

    /// Applies `(LU)⁻¹ r` — the preconditioner action.
    pub fn solve(&self, r: &[f64]) -> Vec<f64> {
        let mut x = r.to_vec();
        self.forward_solve(&mut x);
        self.backward_solve(&mut x);
        x
    }

    /// Applies `(LU)⁻¹ r` into a caller-owned buffer — the zero-allocation
    /// steady-state form of [`LuFactors::solve`]. `x` is overwritten (any
    /// length-matching scratch works); nothing is allocated.
    pub fn solve_into(&self, r: &[f64], x: &mut [f64]) {
        let _audit = pilut_allocaudit::region("trisolve_replay");
        assert_eq!(r.len(), x.len());
        x.copy_from_slice(r);
        self.forward_solve(x);
        self.backward_solve(x);
    }

    /// Multiplies `L·U` back into a dense matrix — test helper, O(n²).
    pub fn multiply_dense(&self) -> Vec<Vec<f64>> {
        let n = self.n;
        let mut out = vec![vec![0.0; n]; n];
        // (LU)_ij = sum_k L_ik U_kj with L unit diagonal.
        let u_full = |k: usize| std::iter::once((k, self.diag(k))).chain(self.u_row(k));
        for (i, out_row) in out.iter_mut().enumerate() {
            for (k, lv) in std::iter::once((i, 1.0)).chain(self.l_row(i)) {
                for (j, uv) in u_full(k) {
                    out_row[j] += lv * uv;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Entries<'a> = &'a [(usize, f64)];

    /// `LuFactors` over the given `(l, diag, u)` rows.
    fn factors(rows: &[(Entries, f64, Entries)]) -> LuFactors {
        let mut store = FactorStore::with_capacity(rows.len());
        let entries = |row: Entries| {
            row.iter()
                .map(|&(j, v)| Entry::new(j, v))
                .collect::<Vec<_>>()
        };
        for &(l, d, u) in rows {
            store.push_row(&entries(l), d, &entries(u), |j| j);
        }
        LuFactors::from_store(store)
    }

    /// Exact LU of [[2,1],[4,5]]: L21 = 2, U = [[2,1],[0,3]].
    fn small() -> LuFactors {
        factors(&[(&[], 2.0, &[(1, 1.0)]), (&[(0, 2.0)], 3.0, &[])])
    }

    #[test]
    fn triangle_reserve_is_rows_times_m_until_m_says_nothing() {
        // TORSO ILUT(20, 1e-6) on two ranks: the dropping rules' bound.
        assert_eq!(triangle_reserve(11_588, 23_176, 20, 78_148), 231_760);
        // The exact-LU configurations of the tests pass m = n (or more):
        // O(nnz), not rows · n.
        for m in [576, 577, usize::MAX] {
            assert_eq!(triangle_reserve(288, 576, m, 1_392), RESERVE_CAP * 1_392);
        }
        // No rows, or rows with no entries, reserve nothing.
        assert_eq!(triangle_reserve(0, 576, 10, 0), 0);
        assert_eq!(triangle_reserve(3, 576, 10, 0), 0);
    }

    #[test]
    fn heap_bytes_counts_four_byte_indices() {
        let store = small().store;
        let (l, u) = (&store.l, &store.u);
        let index = l.ptr.capacity() + l.slot.capacity() + u.ptr.capacity() + u.slot.capacity();
        let values = l.val.capacity() + u.val.capacity() + store.diag.capacity();
        assert_eq!(store.heap_bytes(), 4 * index + 8 * values);
        // Two rows, one strict entry per triangle: 4·(3 + 1 + 3 + 1) + 8·(1 + 1 + 2).
        assert_eq!(store.heap_bytes(), 64);
    }

    #[test]
    fn structure_check_passes() {
        assert!(small().check_structure().is_ok());
        assert_eq!((small().nnz_l(), small().nnz_u()), (1, 3));
    }

    #[test]
    fn structure_check_catches_bad_rows() {
        let zero_pivot = factors(&[(&[], 2.0, &[(1, 1.0)]), (&[(0, 2.0)], 0.0, &[])]);
        assert!(zero_pivot.check_structure().is_err());
        let l_on_diag = factors(&[(&[], 2.0, &[]), (&[(1, 1.0)], 3.0, &[])]);
        assert!(l_on_diag.check_structure().is_err());
        let u_below = factors(&[(&[], 2.0, &[]), (&[], 3.0, &[(0, 1.0)])]);
        assert!(u_below.check_structure().is_err());
    }

    #[test]
    fn solve_inverts_product() {
        let f = small();
        // A = [[2,1],[4,5]]; A * [1, 2] = [4, 14].
        let x = f.solve(&[4.0, 14.0]);
        assert!((x[0] - 1.0).abs() < 1e-14);
        assert!((x[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn multiply_dense_reconstructs() {
        let f = small();
        let a = f.multiply_dense();
        assert_eq!(a, vec![vec![2.0, 1.0], vec![4.0, 5.0]]);
    }
}

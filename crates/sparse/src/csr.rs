//! Compressed sparse row matrices.

use crate::coo::CooMatrix;
use crate::permute::Permutation;

/// A sparse matrix in compressed sparse row format.
///
/// Column indices within each row are kept sorted in ascending order and
/// duplicate entries are not allowed; every constructor enforces this.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

/// Why a set of raw CSR arrays was rejected by
/// [`CsrMatrix::try_from_raw`]. The message names the first inconsistency
/// found, with the offending row where one exists.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrLayoutError(pub String);

impl std::fmt::Display for CsrLayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid CSR layout: {}", self.0)
    }
}

impl std::error::Error for CsrLayoutError {}

impl CsrMatrix {
    /// Builds a matrix from raw CSR arrays.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent; use
    /// [`CsrMatrix::try_from_raw`] to validate untrusted input and get a
    /// typed error instead.
    pub fn from_raw(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        // lint: allow(unwrap): documented panic on inconsistent raw arrays
        Self::try_from_raw(n_rows, n_cols, row_ptr, col_idx, values).expect("invalid CSR arrays")
    }

    /// Validates raw CSR arrays and builds a matrix, reporting the first
    /// inconsistency as a [`CsrLayoutError`]: `row_ptr` must have
    /// `n_rows + 1` monotone entries starting at 0 and ending at
    /// `col_idx.len()`, column indices must be in range and strictly
    /// ascending within each row, and `col_idx`/`values` must have equal
    /// length.
    pub fn try_from_raw(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self, CsrLayoutError> {
        let fail = |msg: String| Err(CsrLayoutError(msg));
        if row_ptr.len() != n_rows + 1 {
            return fail(format!(
                "row_ptr has {} entries, expected n_rows + 1 = {}",
                row_ptr.len(),
                n_rows + 1
            ));
        }
        if col_idx.len() != values.len() {
            return fail(format!(
                "col_idx has {} entries but values has {}",
                col_idx.len(),
                values.len()
            ));
        }
        // lint: allow(unwrap): row_ptr has n_rows + 1 >= 1 entries, checked above
        let end = *row_ptr.last().unwrap();
        if end != col_idx.len() {
            return fail(format!(
                "row_ptr ends at {end} but col_idx has {} entries",
                col_idx.len()
            ));
        }
        if row_ptr[0] != 0 {
            return fail(format!("row_ptr starts at {}, must start at 0", row_ptr[0]));
        }
        for i in 0..n_rows {
            if row_ptr[i] > row_ptr[i + 1] {
                return fail(format!("row_ptr decreases at row {i}"));
            }
            let row = &col_idx[row_ptr[i]..row_ptr[i + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return fail(format!(
                        "columns not strictly ascending in row {i} ({} then {})",
                        w[0], w[1]
                    ));
                }
            }
            if let Some(&last) = row.last() {
                if last >= n_cols {
                    return fail(format!(
                        "column index {last} out of range in row {i} (n_cols = {n_cols})"
                    ));
                }
            }
        }
        Ok(CsrMatrix {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            n_rows: n,
            n_cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Row pointer array (`n_rows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column indices, concatenated row-major.
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Stored values, parallel to `col_idx`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the stored values (pattern stays fixed).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The column indices and values of row `i`.
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let (s, e) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.col_idx[s..e], &self.values[s..e])
    }

    /// Number of stored entries in row `i`.
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// The stored value at `(i, j)`, or `None` if the position is not stored.
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        let (cols, vals) = self.row(i);
        cols.binary_search(&j).ok().map(|k| vals[k])
    }

    /// The diagonal as a dense vector (missing entries are zero).
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.n_rows.min(self.n_cols);
        let mut d = vec![0.0; n];
        for (i, di) in d.iter_mut().enumerate() {
            if let Some(v) = self.get(i, i) {
                *di = v;
            }
        }
        d
    }

    /// `y = A x`.
    ///
    /// # Panics
    /// Panics if `x.len() != n_cols` or `y.len() != n_rows`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols);
        assert_eq!(y.len(), self.n_rows);
        for (i, out) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            let mut acc = 0.0;
            for (&j, &v) in cols.iter().zip(vals) {
                acc += v * x[j];
            }
            *out = acc;
        }
    }

    /// Returns `A x` as a fresh vector.
    pub fn spmv_owned(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n_rows];
        self.spmv(x, &mut y);
        y
    }

    /// The transpose.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.n_cols + 1];
        for &j in &self.col_idx {
            counts[j + 1] += 1;
        }
        for j in 0..self.n_cols {
            counts[j + 1] += counts[j];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = counts;
        for i in 0..self.n_rows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                let p = next[j];
                next[j] += 1;
                col_idx[p] = i;
                values[p] = v;
            }
        }
        // Rows of the transpose come out in ascending source-row order, so
        // columns are already sorted.
        CsrMatrix {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// True if the nonzero *pattern* is symmetric (values may differ).
    pub fn is_structurally_symmetric(&self) -> bool {
        if self.n_rows != self.n_cols {
            return false;
        }
        let t = self.transpose();
        self.row_ptr == t.row_ptr && self.col_idx == t.col_idx
    }

    /// The 2-norm of row `i`.
    pub fn row_norm2(&self, i: usize) -> f64 {
        let (_, vals) = self.row(i);
        vals.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Symmetric permutation `P A Pᵀ`: entry `(i, j)` moves to
    /// `(perm.new_of(i), perm.new_of(j))`.
    pub fn permute_symmetric(&self, perm: &Permutation) -> CsrMatrix {
        assert_eq!(self.n_rows, self.n_cols);
        assert_eq!(perm.len(), self.n_rows);
        let n = self.n_rows;
        let mut coo = CooMatrix::with_capacity(n, n, self.nnz());
        for i in 0..n {
            let (cols, vals) = self.row(i);
            let ni = perm.new_of(i);
            for (&j, &v) in cols.iter().zip(vals) {
                coo.push(ni, perm.new_of(j), v);
            }
        }
        coo.to_csr()
    }

    /// Extracts the square principal submatrix on `keep` (global indices,
    /// ascending); returned matrix is indexed by position within `keep`.
    pub fn principal_submatrix(&self, keep: &[usize]) -> CsrMatrix {
        assert_eq!(self.n_rows, self.n_cols);
        debug_assert!(keep.windows(2).all(|w| w[0] < w[1]));
        let mut to_local = vec![usize::MAX; self.n_cols];
        for (l, &g) in keep.iter().enumerate() {
            to_local[g] = l;
        }
        let mut coo = CooMatrix::new(keep.len(), keep.len());
        for (li, &gi) in keep.iter().enumerate() {
            let (cols, vals) = self.row(gi);
            for (&gj, &v) in cols.iter().zip(vals) {
                let lj = to_local[gj];
                if lj != usize::MAX {
                    coo.push(li, lj, v);
                }
            }
        }
        coo.to_csr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [ 4 -1  0 ]
        // [-1  4 -1 ]
        // [ 0 -1  4 ]
        CsrMatrix::from_raw(
            3,
            3,
            vec![0, 2, 5, 7],
            vec![0, 1, 0, 1, 2, 1, 2],
            vec![4.0, -1.0, -1.0, 4.0, -1.0, -1.0, 4.0],
        )
    }

    #[test]
    fn construction_and_access() {
        let a = small();
        assert_eq!(a.n_rows(), 3);
        assert_eq!(a.nnz(), 7);
        assert_eq!(a.get(0, 0), Some(4.0));
        assert_eq!(a.get(0, 2), None);
        assert_eq!(a.row(1).0, &[0, 1, 2]);
        assert_eq!(a.diagonal(), vec![4.0, 4.0, 4.0]);
        assert_eq!(a.row_nnz(0), 2);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_unsorted_columns() {
        CsrMatrix::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_column() {
        CsrMatrix::from_raw(1, 2, vec![0, 1], vec![5], vec![1.0]);
    }

    #[test]
    fn try_from_raw_accepts_a_valid_layout() {
        let a = CsrMatrix::try_from_raw(
            3,
            3,
            vec![0, 2, 5, 7],
            vec![0, 1, 0, 1, 2, 1, 2],
            vec![4.0, -1.0, -1.0, 4.0, -1.0, -1.0, 4.0],
        )
        .expect("layout is valid");
        assert_eq!(a.nnz(), 7);
    }

    #[test]
    fn try_from_raw_names_the_first_inconsistency() {
        let err = CsrMatrix::try_from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0])
            .expect_err("unsorted columns must be rejected");
        assert!(err.0.contains("row 0"), "{err}");
        let err = CsrMatrix::try_from_raw(2, 2, vec![0, 1], vec![1], vec![1.0])
            .expect_err("short row_ptr must be rejected");
        assert!(err.0.contains("expected n_rows + 1"), "{err}");
        let err = CsrMatrix::try_from_raw(1, 2, vec![0, 1], vec![1], vec![1.0, 2.0])
            .expect_err("length mismatch must be rejected");
        assert!(err.0.contains("values"), "{err}");
    }

    #[test]
    fn spmv_matches_dense() {
        let a = small();
        let x = [1.0, 2.0, 3.0];
        let y = a.spmv_owned(&x);
        assert_eq!(y, vec![2.0, 4.0, 10.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = CsrMatrix::from_raw(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0]);
        let t = a.transpose();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.get(2, 0), Some(2.0));
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn structural_symmetry() {
        assert!(small().is_structurally_symmetric());
        let a = CsrMatrix::from_raw(2, 2, vec![0, 2, 3], vec![0, 1, 1], vec![1.0, 2.0, 3.0]);
        assert!(!a.is_structurally_symmetric());
    }

    #[test]
    fn identity_spmv_is_noop() {
        let i = CsrMatrix::identity(4);
        let x = [1.0, -2.0, 3.5, 0.0];
        assert_eq!(i.spmv_owned(&x), x.to_vec());
    }

    #[test]
    fn permute_symmetric_reverses() {
        let a = small();
        let p = Permutation::from_new_order(&[2, 1, 0]);
        let b = a.permute_symmetric(&p);
        assert_eq!(b.get(0, 0), Some(4.0));
        assert_eq!(b.get(2, 1), Some(-1.0));
        assert_eq!(b.get(0, 2), None);
        // Double reversal gives the original back.
        assert_eq!(b.permute_symmetric(&p), a);
    }

    #[test]
    fn principal_submatrix_picks_block() {
        let a = small();
        let s = a.principal_submatrix(&[0, 2]);
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.get(0, 0), Some(4.0));
        assert_eq!(s.get(0, 1), None); // (0,2) of A is zero
        assert_eq!(s.get(1, 1), Some(4.0));
    }

    #[test]
    fn row_norms() {
        let a = small();
        assert!((a.row_norm2(0) - (17.0f64).sqrt()).abs() < 1e-15);
    }
}

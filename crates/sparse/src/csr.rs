//! Compressed sparse row matrices.

/// A sparse matrix in compressed sparse row format.
///
/// Column indices within each row are kept sorted in ascending order and
/// duplicate entries are not allowed; every constructor enforces this.
///
/// Row pointers and column ids are `u32`, like every index downstream (the
/// factor arenas, the structure graph, the SpMV slots): 12 B per stored
/// entry plus 4 B per row ([`CsrMatrix::heap_bytes`]). Dimensions and the
/// entry count are therefore at most `u32::MAX`; [`narrow`] is the one
/// place a count or index is checked into that range.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

/// Why a set of raw CSR arrays was rejected by
/// [`CsrMatrix::try_from_raw`], or a count by [`narrow`]. The message names
/// the first inconsistency found, with the offending row where one exists.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrLayoutError(pub String);

impl std::fmt::Display for CsrLayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid CSR layout: {}", self.0)
    }
}

impl std::error::Error for CsrLayoutError {}

/// `value`, a dimension, entry count or index named `what`, as the `u32`
/// that [`CsrMatrix`] stores; an error naming the index width when it does
/// not fit.
pub fn narrow(value: usize, what: &str) -> Result<u32, CsrLayoutError> {
    u32::try_from(value).map_err(|_| {
        CsrLayoutError(format!(
            "{what} = {value} exceeds the 32-bit indices of CsrMatrix (at most {})",
            u32::MAX
        ))
    })
}

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
        row_ptr: Vec<u32>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        // lint: allow(unwrap): documented panic on inconsistent raw arrays
        Self::try_from_raw(n_rows, n_cols, row_ptr, col_idx, values).expect("invalid CSR arrays")
    }

    /// Validates raw CSR arrays and builds a matrix, reporting the first
    /// inconsistency as a [`CsrLayoutError`]: both dimensions and the entry
    /// count must fit a `u32` ([`narrow`]), `row_ptr` must have `n_rows + 1`
    /// monotone entries starting at 0 and ending at `col_idx.len()`, column
    /// indices must be in range and strictly ascending within each row, and
    /// `col_idx`/`values` must have equal length.
    pub fn try_from_raw(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<u32>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self, CsrLayoutError> {
        let fail = |msg: String| Err(CsrLayoutError(msg));
        narrow(n_rows, "n_rows")?;
        narrow(n_cols, "n_cols")?;
        narrow(col_idx.len(), "nnz")?;
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
        let end = *row_ptr.last().unwrap() as usize;
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
            let row = &col_idx[row_ptr[i] as usize..row_ptr[i + 1] as usize];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return fail(format!(
                        "columns not strictly ascending in row {i} ({} then {})",
                        w[0], w[1]
                    ));
                }
            }
            if let Some(&last) = row.last() {
                if last as usize >= n_cols {
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
    ///
    /// # Panics
    /// Panics if `n` exceeds `u32::MAX`.
    pub fn identity(n: usize) -> Self {
        // lint: allow(unwrap): documented panic past the 32-bit index range
        let m = narrow(n, "n").expect("identity too large");
        CsrMatrix {
            n_rows: n,
            n_cols: n,
            row_ptr: (0..=m).collect(),
            col_idx: (0..m).collect(),
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

    /// Row pointer array (`n_rows + 1` entries). Crate-private, like
    /// [`CsrMatrix::col_idx`]: the layout is this crate's contract, and
    /// other crates read a matrix through [`CsrMatrix::row`]. Only this
    /// crate's tests read the arrays whole; the pair is not `cfg(test)` so
    /// that the `compile_fail` doctest on `row` meets a private method, not
    /// a missing one.
    #[allow(dead_code)]
    pub(crate) fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// Column indices, concatenated row-major (crate-private).
    #[allow(dead_code)]
    pub(crate) fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Heap bytes of the three arrays, by capacity: `4·(n_rows + 1) +
    /// 12·nnz` for a matrix built to size.
    pub fn heap_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            std::mem::size_of::<T>() * v.capacity()
        }
        bytes(&self.row_ptr) + bytes(&self.col_idx) + bytes(&self.values)
    }

    /// Stored values, concatenated row-major: row `i`'s are
    /// [`CsrMatrix::row`]`(i).1`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the stored values (pattern stays fixed).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The column indices and values of row `i`: how code outside this
    /// crate reads the storage. The index arrays are private to this crate,
    /// so the compiler refuses an outside reader:
    ///
    /// ```compile_fail,E0624
    /// let a = pilut_sparse::gen::laplace_2d(3, 3);
    /// let cols: &[u32] = a.col_idx();
    /// assert!(cols.contains(&4));
    /// ```
    ///
    /// and the same read through this accessor compiles:
    ///
    /// ```
    /// let a = pilut_sparse::gen::laplace_2d(3, 3);
    /// let cols: &[u32] = a.row(4).0;
    /// assert!(cols.contains(&4));
    /// ```
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let (s, e) = (self.row_ptr[i] as usize, self.row_ptr[i + 1] as usize);
        (&self.col_idx[s..e], &self.values[s..e])
    }

    /// Number of stored entries in row `i`.
    pub fn row_nnz(&self, i: usize) -> usize {
        (self.row_ptr[i + 1] - self.row_ptr[i]) as usize
    }

    /// The stored value at `(i, j)`, or `None` if the position is not stored.
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        let (cols, vals) = self.row(i);
        let j = u32::try_from(j).ok()?;
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
                acc += v * x[j as usize];
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
        let mut counts = vec![0u32; self.n_cols + 1];
        for &j in &self.col_idx {
            counts[j as usize + 1] += 1;
        }
        for j in 0..self.n_cols {
            counts[j + 1] += counts[j];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = counts;
        for i in 0..self.n_rows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                let p = next[j as usize] as usize;
                next[j as usize] += 1;
                // `i < n_rows`, which fits a `u32`.
                col_idx[p] = i as u32;
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
    fn heap_bytes_counts_four_byte_indices() {
        // 4·(3 + 1) row pointers + 7 · (4-byte column id + 8-byte value).
        assert_eq!(small().heap_bytes(), 4 * 4 + 12 * 7);
        assert_eq!(CsrMatrix::identity(5).heap_bytes(), 4 * 6 + 12 * 5);
        // The benchmark's G40: 5 053 448 B while the indices were `usize`.
        assert_eq!(crate::gen::g40(6).heap_bytes(), 3_674_884);
    }

    #[test]
    fn narrowing_accepts_u32_max_and_rejects_one_past_it() {
        let max = u32::MAX as usize;
        assert_eq!(narrow(max, "n_cols"), Ok(u32::MAX));
        let err = narrow(max + 1, "n_cols").expect_err("one past u32::MAX");
        assert!(err.0.contains("n_cols = 4294967296"), "{err}");
        assert!(err.0.contains("32-bit"), "{err}");
        // The same boundary through the constructor, on a matrix with no
        // rows: nothing proportional to the width is allocated.
        let a = CsrMatrix::try_from_raw(0, max, vec![0], vec![], vec![]).expect("fits");
        assert_eq!((a.n_cols(), a.heap_bytes()), (max, 4));
        let err = CsrMatrix::try_from_raw(0, max + 1, vec![0], vec![], vec![])
            .expect_err("one column past the 32-bit range");
        assert!(err.0.contains("exceeds the 32-bit indices"), "{err}");
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
    fn row_norms() {
        let a = small();
        assert!((a.row_norm2(0) - (17.0f64).sqrt()).abs() < 1e-15);
    }
}

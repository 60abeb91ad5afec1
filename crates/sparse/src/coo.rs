//! Coordinate-format matrix builder.

use crate::csr::{narrow, CsrMatrix};

/// A sparse matrix under construction, as a list of `(row, col, value)`
/// triplets. Duplicate positions are summed when converting to CSR, which is
/// the convenient semantics for finite-element style assembly.
///
/// Positions are stored as the `u32` ids [`CsrMatrix`] keeps, so both
/// dimensions must fit one.
#[derive(Clone, Debug, Default)]
pub struct CooMatrix {
    n_rows: usize,
    n_cols: usize,
    rows: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl CooMatrix {
    /// An empty `n_rows x n_cols` triplet matrix.
    ///
    /// # Panics
    /// Panics if a dimension exceeds `u32::MAX`.
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        Self::with_capacity(n_rows, n_cols, 0)
    }

    /// Like `new`, reserving space for `cap` triplets.
    ///
    /// # Panics
    /// Panics if a dimension exceeds `u32::MAX`.
    pub fn with_capacity(n_rows: usize, n_cols: usize, cap: usize) -> Self {
        for (n, what) in [(n_rows, "n_rows"), (n_cols, "n_cols")] {
            #[expect(clippy::expect_used, reason = "documented panic past 32-bit indices")]
            narrow(n, what).expect("triplet matrix too large");
        }
        CooMatrix {
            n_rows,
            n_cols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
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

    /// Number of triplets pushed so far (duplicates counted separately).
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Adds `value` at `(row, col)`.
    ///
    /// # Panics
    /// Panics if the position is out of range.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.n_rows,
            "row {row} out of range ({})",
            self.n_rows
        );
        assert!(
            col < self.n_cols,
            "col {col} out of range ({})",
            self.n_cols
        );
        // Both are below a dimension, which fits a `u32`.
        self.rows.push(row as u32);
        self.cols.push(col as u32);
        self.vals.push(value);
    }

    /// Converts to CSR, summing duplicate positions and dropping entries
    /// whose accumulated value is exactly zero only if they never appeared
    /// (i.e. explicit zeros are kept — incomplete factorizations care about
    /// patterns, not just values).
    ///
    /// Besides the result it holds one `u32` per row and one per triplet.
    ///
    /// # Panics
    /// Panics if more than `u32::MAX` triplets were pushed.
    pub fn to_csr(&self) -> CsrMatrix {
        #[expect(clippy::expect_used, reason = "documented panic past 32-bit indices")]
        narrow(self.nnz(), "triplet count").expect("too many triplets");
        // Counting sort by row, then sort each row segment by column and
        // merge duplicates. `ptr[r]` starts as row r's first slot in
        // `order`, hands the slots out and so ends at row r + 1's first.
        let mut ptr = vec![0u32; self.n_rows + 1];
        for &r in &self.rows {
            ptr[r as usize + 1] += 1;
        }
        for i in 0..self.n_rows {
            ptr[i + 1] += ptr[i];
        }
        let mut order = vec![0u32; self.nnz()];
        for (k, &r) in self.rows.iter().enumerate() {
            order[ptr[r as usize] as usize] = k as u32;
            ptr[r as usize] += 1;
        }
        // Row i's triplets end at `ptr[i]`, which is overwritten with the
        // end of its merged entries: the row pointers, one place early. The
        // entry count is at most the triplet count, which fits a `u32`.
        let mut col_idx: Vec<u32> = Vec::with_capacity(self.nnz());
        let mut values: Vec<f64> = Vec::with_capacity(self.nnz());
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        let mut begin = 0;
        for row_end in &mut ptr[..self.n_rows] {
            let end = *row_end as usize;
            scratch.clear();
            for &k in &order[begin..end] {
                let k = k as usize;
                scratch.push((self.cols[k], self.vals[k]));
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut it = scratch.iter().copied();
            if let Some((mut cur_c, mut cur_v)) = it.next() {
                for (c, v) in it {
                    if c == cur_c {
                        cur_v += v;
                    } else {
                        col_idx.push(cur_c);
                        values.push(cur_v);
                        cur_c = c;
                        cur_v = v;
                    }
                }
                col_idx.push(cur_c);
                values.push(cur_v);
            }
            *row_end = col_idx.len() as u32;
            begin = end;
        }
        ptr.rotate_right(1);
        ptr[0] = 0;
        CsrMatrix::from_raw(self.n_rows, self.n_cols, ptr, col_idx, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_sums_duplicates() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 0, 2.0);
        coo.push(1, 0, -1.0);
        coo.push(0, 1, 5.0);
        let a = coo.to_csr();
        assert_eq!(a.get(0, 0), Some(3.0));
        assert_eq!(a.get(0, 1), Some(5.0));
        assert_eq!(a.get(1, 0), Some(-1.0));
        assert_eq!(a.get(1, 1), None);
        assert_eq!(a.nnz(), 3);
    }

    #[test]
    fn keeps_explicit_zeros() {
        let mut coo = CooMatrix::new(1, 2);
        coo.push(0, 1, 0.0);
        let a = coo.to_csr();
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.get(0, 1), Some(0.0));
    }

    #[test]
    fn empty_rows_are_fine() {
        let coo = CooMatrix::new(3, 3);
        let a = coo.to_csr();
        assert_eq!(a.nnz(), 0);
        assert_eq!(a.n_rows(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_position() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(2, 0, 1.0);
    }

    #[test]
    fn unsorted_input_sorts() {
        let mut coo = CooMatrix::new(2, 4);
        coo.push(1, 3, 1.0);
        coo.push(1, 0, 2.0);
        coo.push(0, 2, 3.0);
        coo.push(1, 1, 4.0);
        let a = coo.to_csr();
        assert_eq!(a.row(1).0, &[0, 1, 3]);
        assert_eq!(a.row(1).1, &[2.0, 4.0, 1.0]);
    }
}

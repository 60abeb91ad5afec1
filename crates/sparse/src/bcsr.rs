//! Block compressed sparse row (BCSR) storage with small dense tiles.
//!
//! The matrix is partitioned into `b × b` tiles (`b ≤ 4`); each stored tile
//! is a dense row-major `b²`-slot array plus a `u16` *occupancy mask* with
//! bit `r·b + c` set when slot `(r, c)` holds a genuine matrix entry.
//! Unoccupied slots store exactly `0.0` and exist only to keep the tile
//! dense for the micro-kernels in [`crate::tile`]; the mask is what makes
//! `CsrMatrix → BcsrMatrix → CsrMatrix` lossless — explicitly stored zeros
//! survive the round trip and padding zeros never leak out, including for
//! dimensions not divisible by the block size (the ragged last block row /
//! column simply leaves the out-of-range mask bits clear).

use crate::csr::CsrMatrix;
use crate::tile;

/// A sparse matrix stored as block rows of dense `b × b` tiles.
#[derive(Clone, Debug, PartialEq)]
pub struct BcsrMatrix {
    n_rows: usize,
    n_cols: usize,
    b: usize,
    /// Tile-row pointer: block row `bi` owns tiles `brow_ptr[bi]..brow_ptr[bi+1]`.
    brow_ptr: Vec<usize>,
    /// Block-column index per tile, strictly ascending within a block row.
    bcol_idx: Vec<usize>,
    /// Tile `t` occupies `tiles[t*b*b .. (t+1)*b*b]`, row-major.
    tiles: Vec<f64>,
    /// Occupancy mask per tile (bit `r*b + c` = slot `(r, c)` is a real entry).
    masks: Vec<u16>,
}

impl BcsrMatrix {
    /// Converts a CSR matrix to BCSR with `b × b` tiles (`1 ≤ b ≤ 4`).
    ///
    /// Lossless: [`BcsrMatrix::to_csr`] reproduces the input bit-identically
    /// (structure and values, explicit zeros included). Works for any
    /// dimensions; rows/columns past the last full block land in a ragged
    /// final tile with the padding slots masked off.
    pub fn from_csr(a: &CsrMatrix, b: usize) -> BcsrMatrix {
        assert!(
            (1..=tile::MAX_BLOCK).contains(&b),
            "block size must be in 1..={}, got {b}",
            tile::MAX_BLOCK
        );
        let (n_rows, n_cols) = (a.n_rows(), a.n_cols());
        let n_brows = n_rows.div_ceil(b);
        let n_bcols = n_cols.div_ceil(b);
        let bb = b * b;
        let mut brow_ptr = Vec::with_capacity(n_brows + 1);
        brow_ptr.push(0usize);
        let mut bcol_idx: Vec<usize> = Vec::new();
        let mut tiles: Vec<f64> = Vec::new();
        let mut masks: Vec<u16> = Vec::new();
        // Sparse-set scratch over block columns: 1 + tile index within the
        // current block row, 0 = absent.
        let mut slot = vec![0usize; n_bcols];
        let mut bcols: Vec<usize> = Vec::new();
        for bi in 0..n_brows {
            let r0 = bi * b;
            let r1 = (r0 + b).min(n_rows);
            bcols.clear();
            for i in r0..r1 {
                let (cols, _) = a.row(i);
                for &j in cols {
                    let bc = j / b;
                    if slot[bc] == 0 {
                        bcols.push(bc);
                        slot[bc] = 1; // presence only; indices assigned after sort
                    }
                }
            }
            bcols.sort_unstable();
            for (t, &bc) in bcols.iter().enumerate() {
                slot[bc] = t + 1;
            }
            let base = tiles.len();
            tiles.resize(base + bcols.len() * bb, 0.0);
            masks.resize(masks.len() + bcols.len(), 0);
            let mask_base = masks.len() - bcols.len();
            for i in r0..r1 {
                let r = i - r0;
                let (cols, vals) = a.row(i);
                for (&j, &v) in cols.iter().zip(vals) {
                    let bc = j / b;
                    let t = slot[bc] - 1;
                    let c = j - bc * b;
                    tiles[base + t * bb + r * b + c] = v;
                    masks[mask_base + t] |= 1 << (r * b + c);
                }
            }
            bcol_idx.extend_from_slice(&bcols);
            brow_ptr.push(bcol_idx.len());
            for &bc in &bcols {
                slot[bc] = 0;
            }
        }
        BcsrMatrix {
            n_rows,
            n_cols,
            b,
            brow_ptr,
            bcol_idx,
            tiles,
            masks,
        }
    }

    /// Converts back to CSR, emitting exactly the mask-occupied slots —
    /// the bit-identical inverse of [`BcsrMatrix::from_csr`].
    pub fn to_csr(&self) -> CsrMatrix {
        let b = self.b;
        let bb = b * b;
        let mut row_ptr = Vec::with_capacity(self.n_rows + 1);
        row_ptr.push(0usize);
        let mut col_idx: Vec<usize> = Vec::with_capacity(self.nnz());
        let mut values: Vec<f64> = Vec::with_capacity(self.nnz());
        for i in 0..self.n_rows {
            let bi = i / b;
            let r = i - bi * b;
            let lo = self.brow_ptr[bi];
            let hi = self.brow_ptr[bi + 1];
            for t in lo..hi {
                let mask = self.masks[t];
                if mask == 0 {
                    continue;
                }
                let bc = self.bcol_idx[t];
                for c in 0..b {
                    if mask & (1 << (r * b + c)) != 0 {
                        col_idx.push(bc * b + c);
                        values.push(self.tiles[t * bb + r * b + c]);
                    }
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_raw(self.n_rows, self.n_cols, row_ptr, col_idx, values)
    }

    /// Number of scalar rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of scalar columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Tile dimension `b`.
    pub fn block_size(&self) -> usize {
        self.b
    }

    /// Number of block rows (`⌈n_rows / b⌉`).
    pub fn n_brows(&self) -> usize {
        self.brow_ptr.len() - 1
    }

    /// Number of block columns (`⌈n_cols / b⌉`).
    pub fn n_bcols(&self) -> usize {
        self.n_cols.div_ceil(self.b)
    }

    /// Number of stored tiles.
    pub fn n_tiles(&self) -> usize {
        self.bcol_idx.len()
    }

    /// Number of genuine matrix entries (mask population count) — matches
    /// the source CSR's `nnz()` exactly.
    pub fn nnz(&self) -> usize {
        self.masks.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// Total dense slots stored (`n_tiles · b²`) — the entries the blocked
    /// kernels actually process.
    pub fn stored_len(&self) -> usize {
        self.tiles.len()
    }

    /// Fraction of stored slots holding genuine entries, in `(0, 1]`; the
    /// efficiency of this blocking (1.0 = perfectly supernodal).
    pub fn fill_ratio(&self) -> f64 {
        if self.tiles.is_empty() {
            return 1.0;
        }
        self.nnz() as f64 / self.stored_len() as f64
    }

    /// Block row `bi` as `(block_cols, tiles)`: ascending block-column
    /// indices and the matching concatenated `b²`-slot tiles.
    pub fn block_row(&self, bi: usize) -> (&[usize], &[f64]) {
        let bb = self.b * self.b;
        let lo = self.brow_ptr[bi];
        let hi = self.brow_ptr[bi + 1];
        (&self.bcol_idx[lo..hi], &self.tiles[lo * bb..hi * bb])
    }

    /// The stored entry at `(i, j)`, if the mask marks it present.
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        let b = self.b;
        let (bi, bc) = (i / b, j / b);
        let lo = self.brow_ptr[bi];
        let hi = self.brow_ptr[bi + 1];
        let t = lo + self.bcol_idx[lo..hi].binary_search(&bc).ok()?;
        let (r, c) = (i - bi * b, j - bc * b);
        if self.masks[t] & (1 << (r * b + c)) != 0 {
            Some(self.tiles[t * b * b + r * b + c])
        } else {
            None
        }
    }

    /// Frobenius norm of block row `bi`, summing squared slots in tile
    /// order (padding slots are exact zeros and do not perturb the sum):
    /// the blocked analog of `CsrMatrix::row_norm2`, and bit-identical to
    /// it at `b = 1`.
    pub fn block_row_norm(&self, bi: usize) -> f64 {
        let (_, tiles) = self.block_row(bi);
        tile::frob_sq(tiles).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn round_trip_is_bit_identical() {
        let a = gen::laplace_2d(7, 5); // n = 35, not divisible by 2 or 4
        for b in 1..=4 {
            let blocked = BcsrMatrix::from_csr(&a, b);
            assert_eq!(blocked.nnz(), a.nnz(), "b={b}");
            let back = blocked.to_csr();
            assert_eq!(back.n_rows(), a.n_rows());
            assert_eq!(back.row_ptr(), a.row_ptr(), "b={b}");
            assert_eq!(back.col_idx(), a.col_idx(), "b={b}");
            assert_eq!(back.values(), a.values(), "b={b}");
        }
    }

    #[test]
    fn explicit_zeros_survive() {
        let a = CsrMatrix::from_raw(
            3,
            3,
            vec![0, 2, 3, 4],
            vec![0, 2, 1, 2],
            vec![1.0, 0.0, 2.0, 3.0],
        );
        let blocked = BcsrMatrix::from_csr(&a, 2);
        assert_eq!(blocked.nnz(), 4, "explicit zero is a real entry");
        assert_eq!(blocked.get(0, 2), Some(0.0));
        assert_eq!(blocked.get(0, 1), None, "padding slot is not an entry");
        let back = blocked.to_csr();
        assert_eq!(back.values(), a.values());
        assert_eq!(back.col_idx(), a.col_idx());
    }

    #[test]
    fn block_row_norm_matches_scalar_at_b1() {
        let a = gen::fem_torso(4, 7);
        let blocked = BcsrMatrix::from_csr(&a, 1);
        for i in 0..a.n_rows() {
            assert_eq!(blocked.block_row_norm(i), a.row_norm2(i), "row {i}");
        }
    }

    #[test]
    fn fill_ratio_counts_padding() {
        // One entry alone in a 2x2 tile: fill 1/4.
        let a = CsrMatrix::from_raw(2, 2, vec![0, 1, 1], vec![0], vec![5.0]);
        let blocked = BcsrMatrix::from_csr(&a, 2);
        assert_eq!(blocked.n_tiles(), 1);
        assert!((blocked.fill_ratio() - 0.25).abs() < 1e-15);
    }
}

//! Descriptive statistics of a sparse matrix — the quick health report a
//! practitioner prints before choosing factorization parameters.

use crate::csr::CsrMatrix;

/// Summary statistics of a square sparse matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct MatrixStats {
    /// Rows (= columns).
    pub n: usize,
    /// Stored entries.
    pub nnz: usize,
    /// `nnz / n`.
    pub avg_nnz_per_row: f64,
    /// Stored entries of the fullest row.
    pub max_nnz_per_row: usize,
    /// True if the nonzero *pattern* is symmetric.
    pub structurally_symmetric: bool,
    /// True if values are symmetric too (within `1e-12` relative).
    pub numerically_symmetric: bool,
    /// Fraction of rows that are weakly diagonally dominant.
    pub diag_dominant_fraction: f64,
    /// Number of structurally zero diagonal entries.
    pub zero_diagonals: usize,
}

impl MatrixStats {
    /// Computes the summary. `O(nnz)` plus one transpose.
    pub fn of(a: &CsrMatrix) -> MatrixStats {
        assert_eq!(
            a.n_rows(),
            a.n_cols(),
            "stats are defined for square matrices"
        );
        let n = a.n_rows();
        let t = a.transpose();
        let structurally_symmetric = a.is_structurally_symmetric();
        let mut numerically_symmetric = structurally_symmetric;
        let mut dominant_rows = 0usize;
        let mut zero_diagonals = 0usize;
        let mut max_row = 0usize;
        for i in 0..n {
            let (cols, vals) = a.row(i);
            max_row = max_row.max(cols.len());
            let mut diag = 0.0;
            let mut off = 0.0;
            for (&j, &v) in cols.iter().zip(vals) {
                let j = j as usize;
                if j == i {
                    diag = v;
                } else {
                    off += v.abs();
                }
                if numerically_symmetric {
                    let back = t.get(i, j).unwrap_or(0.0);
                    let scale = v.abs().max(back.abs()).max(1e-300);
                    if (v - back).abs() / scale > 1e-12 {
                        numerically_symmetric = false;
                    }
                }
            }
            // lint: allow(float-eq): counts exactly-zero or missing diagonals
            if diag == 0.0 && a.get(i, i).is_none() {
                zero_diagonals += 1;
            }
            if diag.abs() >= off {
                dominant_rows += 1;
            }
        }
        MatrixStats {
            n,
            nnz: a.nnz(),
            avg_nnz_per_row: a.nnz() as f64 / n.max(1) as f64,
            max_nnz_per_row: max_row,
            structurally_symmetric,
            numerically_symmetric,
            diag_dominant_fraction: dominant_rows as f64 / n.max(1) as f64,
            zero_diagonals,
        }
    }
}

impl std::fmt::Display for MatrixStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "n = {}, nnz = {} ({:.2}/row, max {})",
            self.n, self.nnz, self.avg_nnz_per_row, self.max_nnz_per_row
        )?;
        writeln!(
            f,
            "symmetry: pattern {}, values {}",
            if self.structurally_symmetric {
                "yes"
            } else {
                "no"
            },
            if self.numerically_symmetric {
                "yes"
            } else {
                "no"
            }
        )?;
        write!(
            f,
            "diagonal dominance: {:.1}% of rows; zero diagonals: {}",
            100.0 * self.diag_dominant_fraction,
            self.zero_diagonals
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn laplacian_stats() {
        let a = gen::laplace_2d(6, 6);
        let s = MatrixStats::of(&a);
        assert_eq!(s.n, 36);
        assert!(s.structurally_symmetric);
        assert!(s.numerically_symmetric);
        assert_eq!(s.diag_dominant_fraction, 1.0);
        assert_eq!(s.zero_diagonals, 0);
        assert_eq!(s.max_nnz_per_row, 5);
    }

    #[test]
    fn convection_breaks_value_symmetry_only() {
        let a = gen::convection_diffusion_2d(6, 6, 20.0, 0.0);
        let s = MatrixStats::of(&a);
        assert!(s.structurally_symmetric);
        assert!(!s.numerically_symmetric);
    }

    #[test]
    fn detects_zero_diagonals() {
        let mut coo = crate::CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(1, 2, 1.0);
        coo.push(2, 2, 1.0);
        let s = MatrixStats::of(&coo.to_csr());
        assert_eq!(s.zero_diagonals, 1);
    }

    #[test]
    fn display_is_readable() {
        let a = gen::laplace_2d(3, 3);
        let text = format!("{}", MatrixStats::of(&a));
        assert!(text.contains("n = 9"));
        assert!(text.contains("pattern yes"));
    }
}

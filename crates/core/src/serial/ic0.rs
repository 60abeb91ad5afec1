//! Zero-fill incomplete Cholesky — IC(0), after Meijerink & van der Vorst
//! (the paper's reference [10], where incomplete factorization
//! preconditioning originates).
//!
//! For a symmetric positive definite matrix, computes `A ≈ L Lᵀ` with the
//! pattern of the lower triangle of `A`. Used with the conjugate-gradient
//! solver on SPD problems, where it is the symmetric counterpart of the
//! ILU preconditioners.

use crate::breakdown::{PivotDoctor, PivotFault, PivotFix};
use crate::options::{BreakdownPolicy, FactorError};
use pilut_sparse::CsrMatrix;

/// The lower-triangular incomplete Cholesky factor, row-major, diagonal
/// stored last in each row.
#[derive(Clone, Debug)]
pub struct IcFactors {
    n: usize,
    /// Row i: strictly-lower `(col, val)` pairs ascending, then the diagonal.
    rows: Vec<Vec<(usize, f64)>>,
}

impl IcFactors {
    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Stored entries in the lower-triangular factor.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(|r| r.len()).sum()
    }

    /// Solves `L Lᵀ x = b`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x);
        x
    }

    /// Solves `L Lᵀ x = b` into a caller-owned buffer (no allocation).
    pub fn solve_into(&self, b: &[f64], y: &mut [f64]) {
        assert_eq!(b.len(), self.n);
        y.copy_from_slice(b);
        // Forward: L y = b.
        for (i, row) in self.rows.iter().enumerate() {
            // lint: allow(unwrap): every IC row stores at least its diagonal
            let (last, lower) = row.split_last().expect("empty IC row");
            let mut s = y[i];
            for &(j, v) in lower {
                s -= v * y[j];
            }
            y[i] = s / last.1;
        }
        // Backward: Lᵀ x = y (column sweep over L's rows in reverse).
        for i in (0..self.n).rev() {
            // lint: allow(unwrap): every IC row stores at least its diagonal
            let (last, lower) = self.rows[i].split_last().unwrap();
            y[i] /= last.1;
            let yi = y[i];
            for &(j, v) in lower {
                y[j] -= v * yi;
            }
        }
    }
}

/// Computes IC(0) of a symmetric positive definite matrix.
///
/// Returns [`FactorError::ZeroPivot`] when a pivot becomes non-positive —
/// the classic IC breakdown on matrices that are not (close enough to)
/// M-matrices. Use [`ic0_with`] to recover instead of aborting.
pub fn ic0(a: &CsrMatrix) -> Result<IcFactors, FactorError> {
    ic0_with(a, BreakdownPolicy::Abort)
}

/// [`ic0`] with an explicit [`BreakdownPolicy`]. For Cholesky the pivot is
/// the *squared* diagonal, so a non-positive value is the breakdown
/// condition: `Shift` replaces it with the escalating boost (always
/// positive), `ReplaceRow` makes the row `√‖a_i‖₂ · eᵢ`.
pub fn ic0_with(a: &CsrMatrix, policy: BreakdownPolicy) -> Result<IcFactors, FactorError> {
    assert_eq!(a.n_rows(), a.n_cols(), "IC(0) needs a square matrix");
    policy.validate()?;
    let mut doctor = PivotDoctor::new(policy);
    let n = a.n_rows();
    let mut rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
    for i in 0..n {
        let (cols, vals) = a.row(i);
        let mut row: Vec<(usize, f64)> = Vec::new();
        let mut diag = 0.0;
        for (&j, &aij) in cols.iter().zip(vals) {
            if j > i {
                continue;
            }
            // s = a_ij - Σ_k l_ik l_jk over the shared strictly-lower pattern.
            let mut s = aij;
            let lj = &rows.get(j).map(|r| &r[..]).unwrap_or(&[]);
            // Two-pointer intersection of the strict parts.
            let li = &row[..];
            let (mut p, mut q) = (0usize, 0usize);
            while p < li.len() && q < lj.len().saturating_sub(if j < i { 1 } else { 0 }) {
                let (cp, vp) = li[p];
                let (cq, vq) = lj[q];
                if cq >= j {
                    break;
                }
                match cp.cmp(&cq) {
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                    std::cmp::Ordering::Equal => {
                        s -= vp * vq;
                        p += 1;
                        q += 1;
                    }
                }
            }
            if j < i {
                // lint: allow(unwrap): rows[j] ends with its diagonal entry
                let ljj = rows[j].last().unwrap().1;
                row.push((j, s / ljj));
            } else {
                diag = s;
            }
        }
        // Non-finite strict entries (downstream echoes of an earlier
        // near-breakdown) are fatal under Abort, scrubbed under recovery.
        doctor.scrub_row(i, &mut row)?;
        // Subtract the squares of the row's own strict entries from the
        // diagonal.
        for &(_, v) in &row {
            diag -= v * v;
        }
        let fault = if !diag.is_finite() {
            Some(PivotFault::NonFinite)
        } else if diag <= 0.0 {
            Some(PivotFault::Zero)
        } else {
            None
        };
        if let Some(fault) = fault {
            let scale = PivotDoctor::usable_scale(a.row_norm2(i));
            match doctor.resolve(i, fault, scale)? {
                PivotFix::Shift(boost) => diag = boost,
                PivotFix::ReplaceRow(d) => {
                    row.clear();
                    diag = d;
                }
            }
        }
        row.push((i, diag.sqrt()));
        rows.push(row);
    }
    Ok(IcFactors { n, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilut_sparse::gen;

    #[test]
    fn tridiagonal_ic0_is_exact_cholesky() {
        // No fill ⇒ IC(0) = exact Cholesky ⇒ exact solves.
        let a = gen::laplace_2d(12, 1);
        let f = ic0(&a).unwrap();
        let x_true: Vec<f64> = (0..12).map(|i| i as f64 - 5.0).collect();
        let b = a.spmv_owned(&x_true);
        let x = f.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn pattern_is_lower_triangle_of_a() {
        let a = gen::laplace_2d(6, 6);
        let f = ic0(&a).unwrap();
        let mut nnz_lower = 0;
        for i in 0..a.n_rows() {
            nnz_lower += a.row(i).0.iter().filter(|&&j| j <= i).count();
        }
        assert_eq!(f.nnz(), nnz_lower);
    }

    #[test]
    fn preconditioner_action_reduces_residual() {
        let a = gen::laplace_2d(10, 10);
        let f = ic0(&a).unwrap();
        let b = a.spmv_owned(&vec![1.0; 100]);
        let z = f.solve(&b);
        // One IC(0) application should be a rough solve: residual reduced.
        let az = a.spmv_owned(&z);
        let r0: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        let r1: f64 = az
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        assert!(r1 < r0, "no reduction: {r1} vs {r0}");
    }

    #[test]
    fn breakdown_detected_on_indefinite_matrix() {
        use pilut_sparse::CooMatrix;
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 2.0);
        coo.push(1, 0, 2.0);
        coo.push(1, 1, 1.0); // indefinite: 1 - 4 < 0
        assert!(matches!(
            ic0(&coo.to_csr()),
            Err(FactorError::ZeroPivot { row: 1 })
        ));
    }

    #[test]
    fn recovery_policies_survive_the_indefinite_matrix() {
        use pilut_sparse::CooMatrix;
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 2.0);
        coo.push(1, 0, 2.0);
        coo.push(1, 1, 1.0);
        let a = coo.to_csr();
        for policy in [BreakdownPolicy::shift(), BreakdownPolicy::ReplaceRow] {
            let f = ic0_with(&a, policy).unwrap();
            let z = f.solve(&[1.0, 1.0]);
            assert!(z.iter().all(|v| v.is_finite()), "{policy:?}: {z:?}");
        }
    }
}

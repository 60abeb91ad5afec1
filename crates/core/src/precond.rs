//! Preconditioner interface and serial implementations.

use crate::factors::LuFactors;
use pilut_sparse::CsrMatrix;

/// A preconditioner `M`: given a residual-like vector `r`, produces
/// `z ≈ M⁻¹ r`.
pub trait Preconditioner {
    /// Writes `z = M⁻¹ r` into a caller-owned buffer — the one method, so
    /// an implementation cannot allocate per application.
    fn apply_into(&self, r: &[f64], z: &mut [f64]);
}

/// No preconditioning (`M = I`).
pub struct IdentityPreconditioner;

impl Preconditioner for IdentityPreconditioner {
    fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
}

/// Diagonal (Jacobi) preconditioning — the baseline of the paper's Table 3.
pub struct DiagonalPreconditioner {
    inv_diag: Vec<f64>,
}

impl DiagonalPreconditioner {
    /// # Panics
    /// Panics if the matrix has a zero or non-finite diagonal entry, naming
    /// the first such row.
    pub fn new(a: &CsrMatrix) -> Self {
        let mut inv_diag = Vec::with_capacity(a.n_rows());
        for (i, &d) in a.diagonal().iter().enumerate() {
            // lint: allow(float-eq): exact zero-diagonal guard
            if !d.is_finite() || d == 0.0 {
                panic!("unusable diagonal: {d} at row {i}");
            }
            inv_diag.push(1.0 / d);
        }
        DiagonalPreconditioner { inv_diag }
    }
}

impl Preconditioner for DiagonalPreconditioner {
    fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        for ((zi, x), d) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = x * d;
        }
    }
}

/// Incomplete-LU preconditioning: `M⁻¹ r = U⁻¹ L⁻¹ r`.
pub struct IluPreconditioner {
    factors: LuFactors,
}

impl IluPreconditioner {
    /// Wraps factors as a preconditioner.
    pub fn new(factors: LuFactors) -> Self {
        IluPreconditioner { factors }
    }
}

impl Preconditioner for IluPreconditioner {
    fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        self.factors.solve_into(r, z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::IlutOptions;
    use crate::serial::ilut;
    use pilut_sparse::gen;

    fn apply(p: &dyn Preconditioner, r: &[f64]) -> Vec<f64> {
        let mut z = vec![0.0; r.len()];
        p.apply_into(r, &mut z);
        z
    }

    #[test]
    fn identity_is_noop() {
        let r = vec![1.0, -2.0];
        assert_eq!(apply(&IdentityPreconditioner, &r), r);
    }

    #[test]
    fn diagonal_scales() {
        let a = gen::laplace_2d(3, 3); // diagonal entries all equal
        let p = DiagonalPreconditioner::new(&a);
        let d = a.get(0, 0).unwrap();
        for zi in apply(&p, &[d; 9]) {
            assert!((zi - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    #[should_panic(expected = "unusable diagonal: 0 at row 1")]
    fn diagonal_rejects_a_zero_entry() {
        let mut a = gen::laplace_2d(3, 1);
        let k = (a.row_ptr()[1] as usize..a.row_ptr()[2] as usize)
            .find(|&k| a.col_idx()[k] == 1)
            .unwrap();
        a.values_mut()[k] = 0.0;
        DiagonalPreconditioner::new(&a);
    }

    #[test]
    fn ilu_preconditioner_applies_factors() {
        let a = gen::laplace_2d(5, 5);
        let f = ilut(&a, &IlutOptions::new(25, 0.0)).unwrap();
        let x_true = vec![2.0; 25];
        let b = a.spmv_owned(&x_true);
        let x = apply(&IluPreconditioner::new(f), &b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
    }
}

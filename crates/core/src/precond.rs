//! Preconditioner interface and serial implementations.

use crate::factors::LuFactors;
use crate::options::FactorError;
use pilut_sparse::CsrMatrix;

/// A preconditioner `M`: given a residual-like vector `r`, produces
/// `z ≈ M⁻¹ r`.
pub trait Preconditioner {
    /// Writes `z = M⁻¹ r` into a caller-owned buffer. This is the required
    /// method — and the only one the solvers' inner loops call — so an
    /// implementation cannot allocate per application by omission.
    fn apply_into(&self, r: &[f64], z: &mut [f64]);

    /// Allocating convenience over [`Preconditioner::apply_into`].
    fn apply(&self, r: &[f64]) -> Vec<f64> {
        let mut z = vec![0.0; r.len()];
        self.apply_into(r, &mut z);
        z
    }

    /// Display name for experiment tables.
    fn name(&self) -> String {
        "preconditioner".to_string()
    }
}

/// No preconditioning (`M = I`).
pub struct IdentityPreconditioner;

impl Preconditioner for IdentityPreconditioner {
    fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }

    fn name(&self) -> String {
        "none".to_string()
    }
}

/// Diagonal (Jacobi) preconditioning — the baseline of the paper's Table 3.
pub struct DiagonalPreconditioner {
    inv_diag: Vec<f64>,
}

impl DiagonalPreconditioner {
    /// # Panics
    /// Panics if the matrix has a zero or non-finite diagonal entry; use
    /// [`DiagonalPreconditioner::try_new`] to get a typed error instead.
    pub fn new(a: &CsrMatrix) -> Self {
        // lint: allow(unwrap): documented panic on unusable diagonals
        Self::try_new(a).expect("unusable diagonal")
    }

    /// Builds Jacobi preconditioning, reporting an unusable diagonal entry
    /// as a typed error — the fallible entry point the robust-solve ladder
    /// uses to decide whether this rung is available at all.
    pub fn try_new(a: &CsrMatrix) -> Result<Self, FactorError> {
        let mut inv_diag = Vec::with_capacity(a.n_rows());
        for (i, &d) in a.diagonal().iter().enumerate() {
            if !d.is_finite() {
                return Err(FactorError::NonFinite { row: i });
            }
            // lint: allow(float-eq): exact zero-diagonal guard
            if d == 0.0 {
                return Err(FactorError::ZeroPivot { row: i });
            }
            inv_diag.push(1.0 / d);
        }
        Ok(DiagonalPreconditioner { inv_diag })
    }
}

impl Preconditioner for DiagonalPreconditioner {
    fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        for ((zi, x), d) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = x * d;
        }
    }

    fn name(&self) -> String {
        "Diagonal".to_string()
    }
}

/// Incomplete-LU preconditioning: `M⁻¹ r = U⁻¹ L⁻¹ r`.
pub struct IluPreconditioner {
    factors: LuFactors,
    label: String,
}

impl IluPreconditioner {
    /// Wraps factors as a preconditioner with a default label.
    pub fn new(factors: LuFactors) -> Self {
        IluPreconditioner {
            factors,
            label: "ILU".to_string(),
        }
    }

    /// Wraps factors with a custom label for reporting.
    pub fn with_label(factors: LuFactors, label: impl Into<String>) -> Self {
        IluPreconditioner {
            factors,
            label: label.into(),
        }
    }

    /// The underlying factors.
    pub fn factors(&self) -> &LuFactors {
        &self.factors
    }
}

impl Preconditioner for IluPreconditioner {
    fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        self.factors.solve_into(r, z);
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::IlutOptions;
    use crate::serial::ilut;
    use pilut_sparse::gen;

    #[test]
    fn identity_is_noop() {
        let r = vec![1.0, -2.0];
        assert_eq!(IdentityPreconditioner.apply(&r), r);
    }

    #[test]
    fn diagonal_scales() {
        let a = gen::laplace_2d(3, 3); // diagonal entries all equal
        let p = DiagonalPreconditioner::new(&a);
        let d = a.get(0, 0).unwrap();
        let z = p.apply(&[d; 9]);
        for zi in z {
            assert!((zi - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn ilu_preconditioner_applies_factors() {
        let a = gen::laplace_2d(5, 5);
        let f = ilut(&a, &IlutOptions::new(25, 0.0)).unwrap();
        let x_true = vec![2.0; 25];
        let b = a.spmv_owned(&x_true);
        let p = IluPreconditioner::with_label(f, "ILUT(25,0)");
        let x = p.apply(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
        assert_eq!(p.name(), "ILUT(25,0)");
    }
}

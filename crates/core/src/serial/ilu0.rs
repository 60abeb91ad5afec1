//! Zero-fill incomplete factorization ILU(0).
//!
//! The static-pattern baseline the paper contrasts ILUT against: no fill is
//! allowed, so `L + U` has exactly the pattern of `A` and concurrency can be
//! extracted with a one-time colouring (paper Figure 1a).

use crate::factors::LuFactors;
use crate::options::{BreakdownPolicy, FactorError};
use crate::serial::iluk::iluk_with;
use pilut_sparse::CsrMatrix;

/// Computes ILU(0): Gaussian elimination restricted to the pattern of `A`.
///
/// Aborts on the first unusable pivot; use [`ilu0_with`] to recover instead.
pub fn ilu0(a: &CsrMatrix) -> Result<LuFactors, FactorError> {
    ilu0_with(a, BreakdownPolicy::Abort)
}

/// [`ilu0`] with an explicit [`BreakdownPolicy`] for unusable pivots. Note
/// that the recovery policies may shrink the factor pattern below the
/// pattern of `A` (scrubbed entries, replaced rows).
///
/// ILU(0) is level-of-fill ILU(k) at `k = 0`: every original entry has
/// level 0 and every fill entry level ≥ 1, so nothing outside the pattern
/// survives — and a position inside it stays even when its value cancels
/// to zero, because levels are structural.
pub fn ilu0_with(a: &CsrMatrix, policy: BreakdownPolicy) -> Result<LuFactors, FactorError> {
    iluk_with(a, 0, policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::IlutOptions;
    use crate::serial::ilut::ilut;
    use pilut_sparse::gen;

    #[test]
    fn pattern_matches_original_matrix() {
        let a = gen::convection_diffusion_2d(6, 6, 3.0, 1.0);
        let f = ilu0(&a).unwrap();
        f.check_structure().unwrap();
        for i in 0..a.n_rows() {
            let (cols, _) = a.row(i);
            let lower = f.l_row(i).map(|(c, _)| c);
            let merged: Vec<usize> = lower.chain([i]).chain(f.u_row(i).map(|(c, _)| c)).collect();
            assert_eq!(merged, cols.to_vec(), "row {i} pattern changed");
        }
    }

    #[test]
    fn tridiagonal_ilu0_is_exact() {
        // A tridiagonal matrix creates no fill, so ILU(0) = LU exactly.
        let a = gen::laplace_2d(10, 1);
        let f = ilu0(&a).unwrap();
        let x_true: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let b = a.spmv_owned(&x_true);
        let x = f.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn agrees_with_unbounded_ilut_on_no_fill_matrix() {
        let a = gen::laplace_2d(12, 1);
        let f0 = ilu0(&a).unwrap();
        let ft = ilut(&a, &IlutOptions::new(100, 0.0)).unwrap();
        for i in 0..a.n_rows() {
            assert!(f0.l_row(i).eq(ft.l_row(i)), "L row {i}");
            assert_eq!(f0.diag(i), ft.diag(i), "diag {i}");
            assert!(f0.u_row(i).eq(ft.u_row(i)), "U row {i}");
        }
    }

    #[test]
    fn stored_zero_keeps_its_position() {
        use pilut_sparse::CsrMatrix;
        let a = CsrMatrix::from_raw(
            2,
            2,
            vec![0, 2, 4],
            vec![0, 1, 0, 1],
            vec![-2.0, 1.0, 0.0, 3.0],
        );
        let f = ilu0(&a).unwrap();
        assert_eq!(f.l_row(1).collect::<Vec<_>>(), vec![(0, 0.0)]);
        assert_eq!(
            (f.diag(1), f.u_row(0).collect::<Vec<_>>()),
            (3.0, vec![(1, 1.0)])
        );
    }

    #[test]
    fn zero_pivot_detected() {
        use pilut_sparse::CsrMatrix;
        let a = CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0, 1.0]);
        assert_eq!(
            ilu0(&a).err(),
            Some(FactorError::StructurallySingular { row: 0 })
        );
    }

    #[test]
    fn recovery_policies_factor_the_singular_pattern() {
        use crate::options::BreakdownPolicy;
        use pilut_sparse::CsrMatrix;
        let a = CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0, 1.0]);
        for policy in [BreakdownPolicy::shift(), BreakdownPolicy::ReplaceRow] {
            let f = ilu0_with(&a, policy).unwrap();
            f.check_structure().unwrap();
        }
    }
}

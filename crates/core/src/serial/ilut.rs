//! The serial ILUT(m, t) factorization — paper Algorithm 2.1 (after Saad).
//!
//! This is the one-rank case of [`crate::parallel::par_ilut`]'s interior
//! phase: every row runs through the same `IlutRow` kernel, with identity
//! slot numbering; its meter's total is the reported flop count. Serial
//! [`crate::serial::ilu0()`] is the same driver under the fixed-pattern
//! rule.

use crate::factors::{triangle_reserve, FactorStore, LuFactors};
use crate::options::{FactorError, FactorStats, IlutOptions};
use crate::serial::kernel::{IlutRow, Rule};
use pilut_sparse::CsrMatrix;

/// Computes ILUT(m, t) of a square matrix.
///
/// Row `i` is eliminated against already-factored rows `k < i` in ascending
/// order using a full-length working row (the paper's `w`); the first
/// dropping rule discards multipliers below `t·‖a_i‖₂`, the second keeps the
/// `m` largest entries in each of the strict `L` and `U` parts (the diagonal
/// is always kept). An unusable pivot aborts or is shifted per
/// [`crate::options::BreakdownPolicy`] (`opts.breakdown`).
pub fn ilut(a: &CsrMatrix, opts: &IlutOptions) -> Result<LuFactors, FactorError> {
    ilut_with_stats(a, opts).map(|(f, _)| f)
}

/// Like [`ilut`], additionally returning operation counts.
pub fn ilut_with_stats(
    a: &CsrMatrix,
    opts: &IlutOptions,
) -> Result<(LuFactors, FactorStats), FactorError> {
    let n = a.n_rows();
    factor(a, Rule::Ilut(opts), triangle_reserve(n, n, opts.m, a.nnz()))
}

/// The serial driver: every row of `a` through the row kernel under
/// `rule`, into a store with room for `reserve` entries per triangle.
/// Returns at the first fault the rule's policy does not repair.
pub(crate) fn factor(
    a: &CsrMatrix,
    rule: Rule<'_>,
    reserve: usize,
) -> Result<(LuFactors, FactorStats), FactorError> {
    assert_eq!(a.n_rows(), a.n_cols(), "ILUT needs a square matrix");
    rule.validate()?;
    let n = a.n_rows();
    let mut kernel = IlutRow::new(n, None, rule);
    let mut store = FactorStore::with_capacity(n);
    store.reserve_entries(reserve);
    let id = |j: usize| j;
    for i in 0..n {
        kernel.factor_row(a, i, |j| j < i, &mut store, id, id);
        if let Some((row, fault)) = kernel.fault {
            return Err(fault.error_at(row));
        }
    }
    let factors = LuFactors::from_store(store);
    let stats = FactorStats {
        flops: kernel.meter.flops(),
        nnz_l: factors.nnz_l(),
        nnz_u: factors.nnz_u(),
        breakdowns_repaired: kernel.doctor.repairs(),
    };
    Ok((factors, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilut_sparse::gen;
    use pilut_sparse::vec_ops::{max_abs_diff, norm2};

    /// With a huge `m` and zero threshold, ILUT on a dense-enough band matrix
    /// is the exact LU: `LU x = b` reproduces `x = A⁻¹ b`.
    #[test]
    fn exact_lu_when_nothing_drops() {
        let a = gen::laplace_2d(6, 6);
        let n = a.n_rows();
        let f = ilut(&a, &IlutOptions::new(n, 0.0)).unwrap();
        f.check_structure().unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
        let b = a.spmv_owned(&x_true);
        let x = f.solve(&b);
        assert!(max_abs_diff(&x, &x_true) < 1e-10, "not an exact solve");
    }

    #[test]
    fn respects_fill_cap() {
        let a = gen::laplace_2d(12, 12);
        let m = 3;
        let f = ilut(&a, &IlutOptions::new(m, 0.0)).unwrap();
        for i in 0..f.n {
            assert!(f.l_row(i).len() <= m, "L row {i}");
            assert!(f.u_row(i).len() <= m, "U row {i}");
        }
    }

    #[test]
    fn large_threshold_degenerates_towards_diagonal() {
        let a = gen::laplace_2d(8, 8);
        // Threshold so large everything off-diagonal is dropped.
        let f = ilut(&a, &IlutOptions::new(10, 10.0)).unwrap();
        assert_eq!(f.nnz_l(), 0);
        assert_eq!(f.nnz_u(), a.n_rows());
    }

    #[test]
    fn preconditioner_quality_improves_with_m() {
        // Residual of M⁻¹A applied to a known solution should shrink as m
        // grows (more retained fill = better approximation).
        let a = gen::convection_diffusion_2d(10, 10, 5.0, 5.0);
        let n = a.n_rows();
        let x_true = vec![1.0; n];
        let b = a.spmv_owned(&x_true);
        let err = |m: usize| {
            let f = ilut(&a, &IlutOptions::new(m, 1e-8)).unwrap();
            let x = f.solve(&b);
            let r = a.spmv_owned(&x);
            norm2(&r.iter().zip(&b).map(|(y, bi)| y - bi).collect::<Vec<_>>())
        };
        let e2 = err(2);
        let e8 = err(8);
        let e32 = err(32);
        assert!(e8 < e2, "e8={e8} !< e2={e2}");
        assert!(e32 <= e8, "e32={e32} !<= e8={e8}");
    }

    #[test]
    fn zero_pivot_detected() {
        // [[0, 1], [1, 0]] has a structurally missing pivot: the diagonal
        // is outside the pattern and no fill reaches it in row 0.
        let a = CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0, 1.0]);
        assert_eq!(
            ilut(&a, &IlutOptions::new(2, 0.0)).err(),
            Some(FactorError::StructurallySingular { row: 0 })
        );
    }

    #[test]
    fn shift_policy_recovers_the_structural_zero_pivot() {
        use crate::options::BreakdownPolicy;
        let a = CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0, 1.0]);
        let opts = IlutOptions::new(2, 0.0).with_breakdown(BreakdownPolicy::Shift);
        let (f, s) = ilut_with_stats(&a, &opts).unwrap();
        f.check_structure().unwrap();
        assert_eq!(s.breakdowns_repaired, 1);
        // The first boost is 1e-4 · ‖a_0‖₂ = 1e-4.
        assert_eq!(f.diag(0), 1e-4);
    }

    #[test]
    fn invalid_options_rejected_with_context() {
        let a = gen::laplace_2d(3, 3);
        let err = ilut(&a, &IlutOptions::new(0, 0.0)).unwrap_err();
        assert!(matches!(err, FactorError::InvalidOptions { .. }), "{err}");
        let err = ilut(&a, &IlutOptions::new(3, f64::NAN)).unwrap_err();
        assert!(err.to_string().contains("tau"), "{err}");
    }

    #[test]
    fn stats_count_fill_and_work() {
        let a = gen::laplace_2d(5, 5);
        let (f, s) = ilut_with_stats(&a, &IlutOptions::new(5, 1e-8)).unwrap();
        assert_eq!(s.nnz_l, f.nnz_l());
        assert_eq!(s.nnz_u, f.nnz_u());
        assert!(s.flops > 0.0);
    }

    #[test]
    fn factorization_of_diag_dominant_never_breaks() {
        for seed in 0..5 {
            let a = gen::random_diag_dominant(60, 5, seed);
            let f = ilut(&a, &IlutOptions::new(4, 1e-3)).unwrap();
            f.check_structure().unwrap();
        }
    }

    use pilut_sparse::CsrMatrix;

    #[test]
    fn unsymmetric_pattern_handled() {
        // Strictly upper triangular coupling plus diagonal.
        let a = CsrMatrix::from_raw(
            3,
            3,
            vec![0, 2, 4, 5],
            vec![0, 2, 1, 2, 2],
            vec![2.0, 1.0, 3.0, 1.0, 4.0],
        );
        let f = ilut(&a, &IlutOptions::new(3, 0.0)).unwrap();
        assert_eq!(f.nnz_l(), 0, "no lower couplings exist");
        let x = f.solve(&[3.0, 4.0, 4.0]);
        assert!(max_abs_diff(&x, &[1.0, 1.0, 1.0]) < 1e-12);
    }
}

//! Serial restarted GMRES with right preconditioning.

use crate::krylov::{self, Space};
use crate::report::Breakdown;
use pilut_core::precond::Preconditioner;
use pilut_sparse::CsrMatrix;

/// Solver parameters.
#[derive(Clone, Debug)]
pub struct GmresOptions {
    /// Inner (Krylov) dimension before restarting — GMRES(restart).
    pub restart: usize,
    /// Stop when `‖r‖ ≤ rtol · ‖r₀‖`.
    pub rtol: f64,
    /// Hard cap on matrix–vector products.
    pub max_matvecs: usize,
}

impl Default for GmresOptions {
    fn default() -> Self {
        GmresOptions {
            restart: 30,
            rtol: 1e-7,
            max_matvecs: 10_000,
        }
    }
}

/// Solver outcome.
#[derive(Clone, Debug)]
pub struct GmresResult {
    pub x: Vec<f64>,
    pub converged: bool,
    /// Matrix–vector products performed (the paper's "NMV" column).
    pub matvecs: usize,
    /// Final relative residual (true residual, recomputed).
    pub rel_residual: f64,
    /// Residual-norm history, one entry per inner iteration.
    pub history: Vec<f64>,
    /// Why the iteration stopped early, when it did not converge cleanly:
    /// non-finite poisoning of the Arnoldi process or stagnation across
    /// restart cycles. `None` on clean convergence or a plain budget stop.
    pub breakdown: Option<Breakdown>,
}

/// The serial [`Space`]: one participant owns whole vectors, so reductions
/// are the identity and there is no clock to charge.
pub(crate) struct Serial<'a> {
    pub(crate) a: &'a CsrMatrix,
    pub(crate) precond: &'a dyn Preconditioner,
}

impl Space for Serial<'_> {
    fn len(&self) -> usize {
        self.a.n_rows()
    }
    fn apply_op(&mut self, x: &[f64], y: &mut [f64]) {
        self.a.spmv(x, y);
    }
    fn apply_precond(&mut self, r: &[f64], z: &mut [f64]) {
        self.precond.apply_into(r, z);
    }
    fn reduce_sum(&mut self, local: f64) -> f64 {
        local
    }
    fn any(&mut self, local: bool) -> bool {
        local
    }
    fn work(&mut self, _flops: f64) {}
}

/// Solves `A x = b` with right-preconditioned GMRES(restart):
/// iterates on `A M⁻¹ u = b`, `x = M⁻¹ u`. The iteration itself is the
/// shared kernel (`solver::krylov`, DESIGN §2.6).
pub fn gmres(
    a: &CsrMatrix,
    b: &[f64],
    precond: &dyn Preconditioner,
    opts: &GmresOptions,
) -> GmresResult {
    krylov::solve(&mut Serial { a, precond }, b, opts, None, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilut_core::precond::{DiagonalPreconditioner, IdentityPreconditioner, IluPreconditioner};
    use pilut_core::serial::{ilut, IlutOptions};
    use pilut_sparse::gen;
    use pilut_sparse::vec_ops::norm2;

    fn problem(nx: usize, cx: f64) -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let a = gen::convection_diffusion_2d(nx, nx, cx, cx / 2.0);
        let x_true = vec![1.0; a.n_rows()];
        let b = a.spmv_owned(&x_true);
        (a, b, x_true)
    }

    #[test]
    fn converges_unpreconditioned_on_small_spd() {
        let (a, b, x_true) = problem(8, 0.0);
        let r = gmres(&a, &b, &IdentityPreconditioner, &GmresOptions::default());
        assert!(r.converged, "relres {}", r.rel_residual);
        let err: f64 =
            r.x.iter()
                .zip(&x_true)
                .map(|(x, t)| (x - t).abs())
                .fold(0.0, f64::max);
        assert!(err < 1e-5, "err {err}");
    }

    #[test]
    fn ilut_preconditioning_cuts_matvec_count() {
        let (a, b, _) = problem(16, 12.0);
        let plain = gmres(
            &a,
            &b,
            &DiagonalPreconditioner::new(&a),
            &GmresOptions::default(),
        );
        let f = ilut(&a, &IlutOptions::new(10, 1e-4)).unwrap();
        let pre = gmres(&a, &b, &IluPreconditioner::new(f), &GmresOptions::default());
        assert!(pre.converged);
        assert!(
            plain.matvecs > 2 * pre.matvecs,
            "ILUT should slash iterations: diag {} vs ilut {}",
            plain.matvecs,
            pre.matvecs
        );
    }

    #[test]
    fn small_restart_still_converges() {
        let (a, b, _) = problem(12, 6.0);
        let f = ilut(&a, &IlutOptions::new(5, 1e-2)).unwrap();
        let r = gmres(
            &a,
            &b,
            &IluPreconditioner::new(f),
            &GmresOptions {
                restart: 5,
                ..Default::default()
            },
        );
        assert!(r.converged, "relres {}", r.rel_residual);
    }

    #[test]
    fn history_is_monotone_within_cycles() {
        let (a, b, _) = problem(10, 4.0);
        let r = gmres(&a, &b, &IdentityPreconditioner, &GmresOptions::default());
        // GMRES residuals are non-increasing within a restart cycle; the
        // recorded history interleaves cycles, so check overall reduction.
        assert!(r.history.last().unwrap() < &r.history[0]);
    }

    #[test]
    fn reported_residual_is_true_residual() {
        let (a, b, _) = problem(9, 3.0);
        let f = ilut(&a, &IlutOptions::new(8, 1e-3)).unwrap();
        let r = gmres(&a, &b, &IluPreconditioner::new(f), &GmresOptions::default());
        let ax = a.spmv_owned(&r.x);
        let resid: Vec<f64> = b.iter().zip(&ax).map(|(bi, yi)| bi - yi).collect();
        let true_rel = norm2(&resid) / norm2(&b);
        assert!((true_rel - r.rel_residual).abs() < 1e-8 || true_rel <= r.rel_residual * 1.5);
    }
}

//! Preconditioned conjugate gradients for symmetric positive definite
//! systems.
//!
//! The SPD companion to GMRES: with the IC(0) factorization
//! ([`pilut_core::serial::ic0`]) this is the Meijerink–van der Vorst ICCG
//! method — the original incomplete-factorization preconditioner the
//! paper's §2 lineage starts from.

use crate::report::Breakdown;
use pilut_core::dist::op::LinOp;
use pilut_core::precond::Preconditioner;
use pilut_sparse::vec_ops::{axpy, dot, norm2};

/// Solver parameters.
#[derive(Clone, Debug)]
pub struct CgOptions {
    /// Stop when `‖r‖ ≤ rtol · ‖b‖`.
    pub rtol: f64,
    /// Iteration cap (one matvec per iteration).
    pub max_iters: usize,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            rtol: 1e-7,
            max_iters: 10_000,
        }
    }
}

/// Solver outcome.
#[derive(Clone, Debug)]
pub struct CgResult {
    pub x: Vec<f64>,
    pub converged: bool,
    pub iterations: usize,
    pub rel_residual: f64,
    /// Why the iteration stopped early: indefinite curvature (the matrix or
    /// preconditioner is not SPD) or non-finite recurrence scalars. `None`
    /// on clean convergence or a plain iteration-cap stop.
    pub breakdown: Option<Breakdown>,
}

/// Solves `A x = b` for SPD `A` with preconditioned CG. The preconditioner
/// must be symmetric positive definite as well (identity, diagonal, IC(0)).
pub fn cg<A: LinOp + ?Sized>(
    a: &A,
    b: &[f64],
    precond: &dyn Preconditioner,
    opts: &CgOptions,
) -> CgResult {
    let n = a.n_rows();
    assert_eq!(b.len(), n);
    let b_norm = norm2(b);
    // lint: allow(float-eq): exact zero-RHS short-circuit
    if b_norm == 0.0 {
        return CgResult {
            x: vec![0.0; n],
            converged: true,
            iterations: 0,
            rel_residual: 0.0,
            breakdown: None,
        };
    }
    let target = opts.rtol * b_norm;
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    // The two per-iteration products land in buffers allocated here, once.
    let mut z = vec![0.0; n];
    let mut ap = vec![0.0; n];
    precond.apply_into(&r, &mut z);
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut iterations = 0usize;
    let mut breakdown: Option<Breakdown> = None;
    while iterations < opts.max_iters {
        let r_norm = norm2(&r);
        if r_norm <= target {
            return CgResult {
                x,
                converged: true,
                iterations,
                rel_residual: r_norm / b_norm,
                breakdown: None,
            };
        }
        if !r_norm.is_finite() || !rz.is_finite() {
            breakdown = Some(Breakdown::NonFinite { at: iterations });
            break;
        }
        a.apply_into(&p, &mut ap);
        let pap = dot(&p, &ap);
        if !pap.is_finite() {
            breakdown = Some(Breakdown::NonFinite { at: iterations });
            break;
        }
        if pap <= 0.0 {
            // CG's theory needs pᵀAp > 0; a non-positive value means the
            // operator (or preconditioner) is not SPD and every later
            // iterate would be untrustworthy.
            breakdown = Some(Breakdown::IndefiniteCurvature { at: iterations });
            break;
        }
        let alpha = rz / pap;
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &ap, &mut r);
        precond.apply_into(&r, &mut z);
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for (pi, zi) in p.iter_mut().zip(&z) {
            *pi = zi + beta * *pi;
        }
        iterations += 1;
    }
    let mut rel = norm2(&r) / b_norm;
    if !rel.is_finite() {
        rel = f64::INFINITY;
    }
    CgResult {
        converged: rel <= opts.rtol,
        x,
        iterations,
        rel_residual: rel,
        breakdown,
    }
}

/// An [`Preconditioner`] adapter over IC(0) factors.
pub struct IcPreconditioner {
    factors: pilut_core::serial::ic0::IcFactors,
}

impl IcPreconditioner {
    /// Wraps IC(0) factors as a CG preconditioner.
    pub fn new(factors: pilut_core::serial::ic0::IcFactors) -> Self {
        IcPreconditioner { factors }
    }
}

impl Preconditioner for IcPreconditioner {
    fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        self.factors.solve_into(r, z);
    }

    fn name(&self) -> String {
        "IC(0)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilut_core::precond::{DiagonalPreconditioner, IdentityPreconditioner};
    use pilut_core::serial::ic0::ic0;
    use pilut_sparse::{gen, CsrMatrix};

    fn spd_problem(nx: usize) -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let a = gen::laplace_2d(nx, nx);
        let x_true: Vec<f64> = (0..a.n_rows()).map(|i| (i % 7) as f64 - 3.0).collect();
        let b = a.spmv_owned(&x_true);
        (a, b, x_true)
    }

    #[test]
    fn plain_cg_converges_on_laplacian() {
        let (a, b, x_true) = spd_problem(12);
        let r = cg(&a, &b, &IdentityPreconditioner, &CgOptions::default());
        assert!(r.converged, "relres {}", r.rel_residual);
        let err: f64 =
            r.x.iter()
                .zip(&x_true)
                .map(|(x, t)| (x - t).abs())
                .fold(0.0, f64::max);
        assert!(err < 1e-5);
    }

    #[test]
    fn iccg_beats_diagonal_and_plain() {
        let (a, b, _) = spd_problem(24);
        let plain = cg(&a, &b, &IdentityPreconditioner, &CgOptions::default());
        let diag = cg(
            &a,
            &b,
            &DiagonalPreconditioner::new(&a),
            &CgOptions::default(),
        );
        let ic = ic0(&a).unwrap();
        let iccg = cg(&a, &b, &IcPreconditioner::new(ic), &CgOptions::default());
        assert!(plain.converged && diag.converged && iccg.converged);
        assert!(
            iccg.iterations < plain.iterations && iccg.iterations < diag.iterations,
            "ICCG {} vs plain {} vs diagonal {}",
            iccg.iterations,
            plain.iterations,
            diag.iterations
        );
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let (a, _, _) = spd_problem(5);
        let r = cg(
            &a,
            &vec![0.0; a.n_rows()],
            &IdentityPreconditioner,
            &CgOptions::default(),
        );
        assert!(r.converged);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn iteration_cap_respected() {
        let (a, b, _) = spd_problem(20);
        let r = cg(
            &a,
            &b,
            &IdentityPreconditioner,
            &CgOptions {
                max_iters: 3,
                rtol: 1e-14,
            },
        );
        assert!(!r.converged);
        assert_eq!(r.iterations, 3);
    }
}

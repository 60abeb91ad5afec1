//! The one restarted GMRES kernel, generic over where vectors live.
//!
//! [`solve`] is the right-preconditioned GMRES(restart) cycle — modified
//! Gram–Schmidt Arnoldi, Givens rotations, NaN/stagnation detection, the
//! guarded update of `x`, warm start, per-cycle checkpoint, residual
//! history — written once against [`Space`]. A `Space` supplies the four
//! things the iteration cannot do on a bare slice: apply the operator,
//! apply the preconditioner, turn a local partial sum (or flag) into a
//! global one, and charge modelled flops. There are exactly two
//! implementations: the serial one in [`crate::gmres`] (identity
//! reductions, no clock) and the distributed one in [`crate::dist_gmres`]
//! (all-reduces and `Ctx::work`).
//!
//! **Charge order is part of the contract.** Every `work` charge and every
//! reduction below happens in a fixed program order, identical on every
//! rank. The distributed logical clock is a floating-point accumulation of
//! those charges and the collectives are matched by order, so reordering
//! two lines here moves simulated times, per-tag traffic and every
//! schedcheck/modelcheck fingerprint. `tests/krylov_golden.rs` pins all of
//! them. Because the serial space reduces by identity and both spaces sum
//! local products in the same order, the serial solver *is* the p = 1
//! distributed solver, bit for bit, by construction.

use crate::gmres::{GmresOptions, GmresResult};
use crate::report::Breakdown;
use pilut_sparse::vec_ops::{axpy, dot};

/// What the kernel needs from the vector space it iterates in. Slices are
/// the caller's local part of a (possibly distributed) vector; reductions
/// are collective — every participant calls them in the same order.
pub(crate) trait Space {
    /// Length of the local slice.
    fn len(&self) -> usize;
    /// `y = A x`.
    fn apply_op(&mut self, x: &[f64], y: &mut [f64]);
    /// `z = M⁻¹ r`.
    fn apply_precond(&mut self, r: &[f64], z: &mut [f64]);
    /// Global sum of one local contribution per participant.
    fn reduce_sum(&mut self, local: f64) -> f64;
    /// Global "or" of one local flag per participant.
    fn any(&mut self, local: bool) -> bool;
    /// Charges modelled floating-point work to the participant's clock.
    fn work(&mut self, flops: f64);
}

fn inner_product<S: Space>(space: &mut S, a: &[f64], b: &[f64]) -> f64 {
    let local = dot(a, b);
    space.work(2.0 * a.len() as f64);
    space.reduce_sum(local)
}

fn norm<S: Space>(space: &mut S, a: &[f64]) -> f64 {
    inner_product(space, a, a).sqrt()
}

/// `out = b - A x`.
fn residual<S: Space>(space: &mut S, b: &[f64], x: &[f64], out: &mut [f64]) {
    space.apply_op(x, out);
    for (ri, bi) in out.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
}

/// Solves `A x = b` with right-preconditioned GMRES(restart): iterates on
/// `A M⁻¹ u = b`, `x = M⁻¹ u`.
///
/// `x0` seeds the iterate (zeros when `None`). `ckpt`, when supplied, is
/// overwritten with the current iterate at the end of **every restart
/// cycle**, between reductions — so an unwind anywhere inside the next
/// cycle leaves it holding a complete, consistent iterate from at most one
/// restart ago (the rank-loss recovery driver re-seeds from it; see
/// DESIGN §14).
///
/// Everything the solve allocates is allocated in the setup block at the
/// top; restart cycles and inner iterations only ever reuse it, which is
/// what the `no-alloc-in-hot` lint polices here and the `gmres_inner`
/// zero-steady-alloc bench gate measures.
pub(crate) fn solve<S: Space>(
    space: &mut S,
    b: &[f64],
    opts: &GmresOptions,
    x0: Option<Vec<f64>>,
    mut ckpt: Option<&mut Vec<f64>>,
) -> GmresResult {
    let len = space.len();
    assert_eq!(b.len(), len);
    let mut out = GmresResult {
        x: x0.unwrap_or_else(|| vec![0.0; len]), // lint: allow(alloc-in-hot): setup
        converged: false,
        matvecs: 0,
        rel_residual: 0.0,
        history: Vec::new(), // lint: allow(alloc-in-hot): empty, reserved below
        breakdown: None,
    };
    assert_eq!(out.x.len(), len, "warm start must have the local length");
    let b_norm = norm(space, b);
    // lint: allow(float-eq): exact zero-RHS short-circuit
    if b_norm == 0.0 {
        // The exact solution of `A x = 0` is zero regardless of any warm
        // start: return zeros, not `x0`.
        out.x.fill(0.0);
        out.converged = true;
        return out;
    }
    let m = opts.restart.max(1);
    // The workspace: `v` is the Krylov basis; `h` the Hessenberg (`h[i][j]`
    // with `i` the row, triangular once rotated); `cs`/`sn` the Givens
    // cosines and sines; `g` the rotated right-hand side, solved in place
    // into the combination `y`; `z` takes preconditioner output; `w` holds
    // the new Arnoldi column, then `V y`, then the final true residual.
    let mut v = vec![vec![0.0; len]; m + 1]; // lint: allow(alloc-in-hot): setup
    let mut h = vec![vec![0.0; m]; m + 1]; // lint: allow(alloc-in-hot): setup
    let mut cs = vec![0.0; m]; // lint: allow(alloc-in-hot): setup
    let mut sn = vec![0.0; m]; // lint: allow(alloc-in-hot): setup
    let mut g = vec![0.0; m + 1]; // lint: allow(alloc-in-hot): setup
    let mut z = vec![0.0; len]; // lint: allow(alloc-in-hot): setup
    let mut w = vec![0.0; len]; // lint: allow(alloc-in-hot): setup

    // One residual push per matvec plus one per cycle, never more — the
    // reservation keeps steady-state pushes off the allocator.
    out.history.reserve_exact(2 * opts.max_matvecs + 2);

    let n = b.len() as f64;
    let target = opts.rtol * b_norm;
    // Stagnation watch: restart cycles in a row without measurable progress.
    let mut prev_beta = f64::INFINITY;
    let mut stalled_cycles = 0usize;

    loop {
        // r = b - A x, normalized straight into the first basis vector.
        residual(space, b, &out.x, &mut v[0]);
        out.matvecs += 1;
        let beta = norm(space, &v[0]);
        out.history.push(beta);
        if !beta.is_finite() {
            out.breakdown = Some(Breakdown::NonFinite { at: out.matvecs });
            break;
        }
        if beta <= target || out.matvecs >= opts.max_matvecs {
            out.converged = beta <= target;
            out.rel_residual = beta / b_norm;
            return out;
        }
        if beta >= prev_beta * (1.0 - 1e-12) {
            stalled_cycles += 1;
            if stalled_cycles >= 2 {
                out.breakdown = Some(Breakdown::Stagnation { at: out.matvecs });
                break;
            }
        } else {
            stalled_cycles = 0;
        }
        prev_beta = beta;
        for ri in &mut v[0] {
            *ri /= beta;
        }
        space.work(n);
        for row in h.iter_mut() {
            row.fill(0.0);
        }
        g.fill(0.0);
        g[0] = beta;
        let mut inner = 0usize;

        let audit = pilut_allocaudit::region("gmres_inner");
        for j in 0..cs.len() {
            // w = A M⁻¹ v_j.
            space.apply_precond(&v[j], &mut z);
            space.apply_op(&z, &mut w);
            out.matvecs += 1;
            // Modified Gram–Schmidt.
            for i in 0..=j {
                let hij = inner_product(space, &w, &v[i]);
                h[i][j] = hij;
                axpy(-hij, &v[i], &mut w);
                space.work(2.0 * n);
            }
            let wn = norm(space, &w);
            if !wn.is_finite() {
                // The preconditioner or operator poisoned this column
                // (NaN/Inf anywhere in w makes its norm non-finite; the
                // verdict comes from a reduced scalar, so every
                // participant agrees): discard it and solve with the clean
                // prefix below.
                out.breakdown = Some(Breakdown::NonFinite { at: out.matvecs });
                break;
            }
            h[j + 1][j] = wn;
            // Apply existing Givens rotations to the new column.
            for i in 0..j {
                let t = cs[i] * h[i][j] + sn[i] * h[i + 1][j];
                h[i + 1][j] = -sn[i] * h[i][j] + cs[i] * h[i + 1][j];
                h[i][j] = t;
            }
            // New rotation annihilating h[j+1][j].
            let denom = (h[j][j] * h[j][j] + wn * wn).sqrt();
            // lint: allow(float-eq): exact-zero guard before division
            if denom == 0.0 {
                // Exact breakdown: the solution lies in the current space.
                break;
            }
            cs[j] = h[j][j] / denom;
            sn[j] = wn / denom;
            h[j][j] = denom;
            g[j + 1] = -sn[j] * g[j];
            g[j] *= cs[j];
            inner = j + 1;
            out.history.push(g[j + 1].abs());
            // lint: allow(float-eq): exact (lucky) breakdown test
            let lucky = wn == 0.0;
            if !lucky {
                for (next, wi) in v[j + 1].iter_mut().zip(&w) {
                    *next = wi / wn;
                }
                space.work(n);
            }
            if g[j + 1].abs() <= target || out.matvecs >= opts.max_matvecs || lucky {
                break;
            }
        }
        // Back-substitute through the triangular H (in place: g becomes y)
        // and accumulate V y into w.
        for i in (0..inner).rev() {
            for k in i + 1..inner {
                g[i] -= h[i][k] * g[k];
            }
            g[i] /= h[i][i];
        }
        w.fill(0.0);
        for (yi, vi) in g[..inner].iter().zip(v.iter()) {
            axpy(*yi, vi, &mut w);
        }
        space.work(2.0 * inner as f64 * n);
        space.apply_precond(&w, &mut z);
        drop(audit);
        // x += M⁻¹ (V y), guarded: a poisoned correction is discarded
        // rather than destroying the best solution found so far. Every
        // participant must agree on whether it is applied, so the verdict
        // is a reduction.
        if space.any(z.iter().any(|zi| !zi.is_finite())) {
            out.breakdown
                .get_or_insert(Breakdown::NonFinite { at: out.matvecs });
        } else {
            axpy(1.0, &z, &mut out.x);
        }
        space.work(n);
        // End of the restart cycle: the iterate is consistent everywhere
        // (the correction was applied under a collective verdict), so this
        // is the safe point to checkpoint.
        if let Some(c) = ckpt.as_deref_mut() {
            c.clear();
            c.extend_from_slice(&out.x);
        }
        if out.breakdown.is_some() || out.matvecs >= opts.max_matvecs {
            break;
        }
    }
    // Budget exhausted or breakdown: report the true residual.
    residual(space, b, &out.x, &mut w);
    out.rel_residual = norm(space, &w) / b_norm;
    if !out.rel_residual.is_finite() {
        out.rel_residual = f64::INFINITY;
    }
    out.converged = out.rel_residual <= opts.rtol;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmres::Serial;
    use pilut_core::precond::{DiagonalPreconditioner, IdentityPreconditioner, Preconditioner};
    use pilut_sparse::{gen, CooMatrix, CsrMatrix};

    fn laplace_problem() -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let a = gen::laplace_2d(8, 8);
        let x_true: Vec<f64> = (0..a.n_rows()).map(|i| 1.0 + (i % 3) as f64).collect();
        let b = a.spmv_owned(&x_true);
        (a, b, x_true)
    }

    fn run(
        a: &CsrMatrix,
        precond: &dyn Preconditioner,
        b: &[f64],
        opts: &GmresOptions,
        x0: Option<Vec<f64>>,
        ckpt: Option<&mut Vec<f64>>,
    ) -> GmresResult {
        solve(&mut Serial { a, precond }, b, opts, x0, ckpt)
    }

    #[test]
    fn warm_start_at_the_solution_converges_immediately() {
        let (a, b, x_true) = laplace_problem();
        let opts = GmresOptions::default();
        let r = run(&a, &IdentityPreconditioner, &b, &opts, Some(x_true), None);
        assert!(r.converged);
        assert_eq!(
            r.matvecs, 1,
            "an exact warm start costs one residual matvec"
        );
    }

    #[test]
    fn zero_rhs_returns_zeros_not_the_warm_start() {
        let (a, _, _) = laplace_problem();
        let b = vec![0.0; a.n_rows()];
        let x0 = vec![7.5; a.n_rows()];
        let opts = GmresOptions::default();
        let r = run(&a, &IdentityPreconditioner, &b, &opts, Some(x0), None);
        assert!(r.converged);
        assert_eq!(r.matvecs, 0);
        assert!(
            r.x.iter().all(|&v| v == 0.0),
            "Ax = 0 has the zero solution"
        );
    }

    #[test]
    fn checkpoint_holds_the_iterate_of_a_completed_cycle() {
        // Force several restart cycles (tiny restart length): convergence is
        // detected at the top of a cycle, so the last checkpoint and the
        // returned iterate coincide.
        let (a, b, _) = laplace_problem();
        let opts = GmresOptions {
            restart: 5,
            ..Default::default()
        };
        let mut ckpt = Vec::new();
        let pre = DiagonalPreconditioner::new(&a);
        let r = run(&a, &pre, &b, &opts, None, Some(&mut ckpt));
        assert!(r.converged && r.matvecs > 6, "must span restart cycles");
        assert_eq!(r.x, ckpt);
    }

    #[test]
    fn matvec_budget_is_respected() {
        let a = gen::convection_diffusion_2d(16, 16, 20.0, 10.0);
        let b = a.spmv_owned(&vec![1.0; a.n_rows()]);
        let opts = GmresOptions {
            max_matvecs: 7,
            rtol: 1e-14,
            ..Default::default()
        };
        let r = run(&a, &IdentityPreconditioner, &b, &opts, None, None);
        assert!(!r.converged);
        assert!(r.matvecs <= 7);
        assert!(
            r.history.len() <= 2 * opts.max_matvecs + 2,
            "reservation held"
        );
    }

    #[test]
    fn stagnation_is_reported_as_breakdown() {
        // A rotation-like skew system with restart 1 makes restarted GMRES
        // stall: the first Arnoldi step cannot reduce the residual.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, -1.0);
        let a = coo.to_csr();
        let opts = GmresOptions {
            restart: 1,
            rtol: 1e-10,
            max_matvecs: 1000,
        };
        let r = run(&a, &IdentityPreconditioner, &[1.0, 0.0], &opts, None, None);
        assert!(!r.converged);
        assert!(
            matches!(r.breakdown, Some(Breakdown::Stagnation { .. })),
            "expected stagnation, got {:?} after {} matvecs",
            r.breakdown,
            r.matvecs
        );
        assert!(r.matvecs < 100, "stagnation must abort early");
    }
}

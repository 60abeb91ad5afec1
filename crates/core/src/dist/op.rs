//! The operator abstraction the distributed Krylov solver consumes instead
//! of a concrete matrix.
//!
//! [`DistOperator`] is one application of `y = A x` as a collective over
//! the SPMD machine. [`DistCsr`] is the canonical implementation: a
//! distributed CSR matrix applied through the plan-once/replay-many
//! values-only exchange of [`crate::dist::spmv`], in the slot space the
//! triangular sweeps share.

use crate::dist::spmv::{dist_spmv_into, SpmvPlan};
use crate::dist::{DistMatrix, LocalView};
use pilut_par::Ctx;

/// A distributed linear operator: one application is a collective in which
/// every rank passes its owned slice (local-view order) and receives the
/// owned slice of `A x`.
pub trait DistOperator {
    /// Length of this rank's owned slice.
    fn local_len(&self) -> usize;
    /// Collectively computes the local block of `y = A x` into a
    /// caller-owned buffer — the required method and the only one the
    /// solvers' inner loops call.
    fn apply_into(&mut self, ctx: &mut Ctx, x: &[f64], y: &mut [f64]);
    /// Allocating convenience over [`DistOperator::apply_into`].
    fn apply(&mut self, ctx: &mut Ctx, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.local_len()];
        self.apply_into(ctx, x, &mut y);
        y
    }
    /// Boundary values this rank ships per application (observability).
    fn sent_values(&self) -> usize;
}

/// A distributed CSR matrix applied through a reusable halo-exchange plan.
pub struct DistCsr<'a> {
    dm: &'a DistMatrix,
    local: &'a LocalView,
    plan: SpmvPlan,
}

impl<'a> DistCsr<'a> {
    /// Collectively builds the operator (every rank must call this).
    pub fn new(ctx: &mut Ctx, dm: &'a DistMatrix, local: &'a LocalView) -> Self {
        let plan = SpmvPlan::build(ctx, dm, local);
        DistCsr { dm, local, plan }
    }
}

impl DistOperator for DistCsr<'_> {
    fn local_len(&self) -> usize {
        self.local.len()
    }

    fn apply_into(&mut self, ctx: &mut Ctx, x: &[f64], y: &mut [f64]) {
        dist_spmv_into(ctx, self.dm, self.local, &mut self.plan, x, y);
    }

    fn sent_values(&self) -> usize {
        self.plan.sent_values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution;
    use pilut_par::{Machine, MachineModel};
    use pilut_sparse::gen;

    #[test]
    fn dist_csr_matches_serial() {
        let a = gen::laplace_2d(6, 6);
        let n = a.n_rows();
        let x_global: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let y_serial = a.spmv_owned(&x_global);
        let dm = DistMatrix::new(a, Distribution::block(n, 3));
        let out = Machine::run_checked(3, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            let mut op = DistCsr::new(ctx, &dm, &local);
            assert_eq!(op.local_len(), local.len());
            let x: Vec<f64> = local.nodes.iter().map(|&g| x_global[g]).collect();
            let y = op.apply(ctx, &x);
            (local.nodes.clone(), y)
        });
        for (nodes, vals) in out.results {
            for (g, v) in nodes.into_iter().zip(vals) {
                assert!((v - y_serial[g]).abs() < 1e-12);
            }
        }
    }
}

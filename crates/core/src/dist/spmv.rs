//! Distributed sparse matrix–vector product.
//!
//! One of the three kernels of a parallel iterative method (paper §1). The
//! communication pattern — push boundary `x` values to the neighbouring
//! ranks that reference them — is fixed by the matrix, so it is planned once
//! ([`SpmvPlan::build`], a collective wrapping [`CommPlan::build`]) and
//! replayed on every product as the values-only round of a one-level
//! [`Halo`] ([`Halo::send_values`] / [`Halo::recv_values`]).
//!
//! The product runs in the index space the triangular sweeps use
//! ([`crate::trisolve`]): one *slot-indexed* vector — the rank's local
//! vector extended by one entry per referenced remote column — with the
//! halo over slots and the columns of the rank's rows translated to slots
//! once, at build time. A received batch lands directly in the ghost
//! tail and the inner loop is one indexed load per stored entry. Entries
//! keep the matrix's stored order within a row, so every sum rounds exactly
//! as [`pilut_sparse::CsrMatrix::spmv`] rounds it.

use crate::dist::exchange::{tags, CommPlan, Halo};
use crate::dist::{DistMatrix, LocalView};
use pilut_par::Ctx;
use std::collections::HashMap;

/// The communication plan of a rank for repeated products: the halo over
/// slots, the slot of every stored entry of the rank's rows, and the
/// slot-indexed `owned | ghosts` vector the rounds fill.
pub struct SpmvPlan {
    halo: Halo,
    /// Slots of the stored entries of `local.nodes`' rows, row after row in
    /// stored order — laid alongside the matrix's own values.
    slot: Vec<u32>,
    /// Local values, then one ghost per remote column in receive-list order.
    x: Vec<f64>,
}

impl SpmvPlan {
    /// Collectively builds the exchange plan (every rank must call this).
    pub fn build(ctx: &mut Ctx, dm: &DistMatrix, local: &LocalView) -> SpmvPlan {
        let a = dm.matrix();
        let plan = CommPlan::build(ctx, tags::SPMV, local.remote_cols(a), |j| {
            dm.dist().owner(j)
        });
        let ghosts = plan.recv_lists().iter().flat_map(|(_, nodes)| nodes);
        let ghost_slot: HashMap<usize, usize> = ghosts.copied().zip(local.len()..).collect();
        let n_slots = local.len() + ghost_slot.len();
        crate::to_u32(n_slots, "SpMV slot count");
        let slot_of = |j: usize| local.pos_of(j).unwrap_or_else(|| ghost_slot[&j]);
        // Sized up front: collecting a `flat_map` would grow by doubling and
        // keep up to twice the entries for the life of the operator.
        let mut slot = Vec::with_capacity(local.nodes.iter().map(|&i| a.row_nnz(i)).sum());
        for &i in &local.nodes {
            slot.extend(a.row(i).0.iter().map(|&j| slot_of(j) as u32));
        }
        SpmvPlan {
            slot,
            x: vec![0.0; n_slots],
            halo: Halo::new(ctx, &plan, 1, |j| (0, slot_of(j))),
        }
    }

    /// Number of boundary values this rank ships per product.
    pub fn sent_values(&self) -> usize {
        self.halo.sent_values()
    }
}

/// Computes the local block of `y = A x`. `x` holds this rank's values in
/// local-view order; the result is in the same order.
pub fn dist_spmv(
    ctx: &mut Ctx,
    dm: &DistMatrix,
    local: &LocalView,
    plan: &mut SpmvPlan,
    x: &[f64],
) -> Vec<f64> {
    let mut y = vec![0.0; local.len()];
    dist_spmv_into(ctx, dm, local, plan, x, &mut y);
    y
}

/// Computes the local block of `y = A x` into a caller-owned buffer — the
/// zero-allocation steady-state form of [`dist_spmv`]. The exchange replays
/// through the registered-buffer pool (audited under the `send_values` /
/// `recv_values` regions); the local product touches no heap at all.
pub fn dist_spmv_into(
    ctx: &mut Ctx,
    dm: &DistMatrix,
    local: &LocalView,
    plan: &mut SpmvPlan,
    x: &[f64],
    y: &mut [f64],
) {
    assert_eq!(y.len(), local.len());
    let SpmvPlan { halo, slot, x: xs } = plan;
    // Exchange of boundary values, straight into the ghost tail.
    xs[..local.len()].copy_from_slice(x);
    halo.send_values(ctx, 0, |p| xs[p]);
    halo.recv_values(ctx, 0, |s, v| xs[s] = v);
    // Local product.
    let mut slots = slot.as_slice();
    for (out, &i) in y.iter_mut().zip(&local.nodes) {
        let vals = dm.matrix().row(i).1;
        let (row, rest) = slots.split_at(vals.len());
        slots = rest;
        let mut acc = 0.0;
        for (&s, &v) in row.iter().zip(vals) {
            acc += v * xs[s as usize];
        }
        *out = acc;
    }
    ctx.work(2.0 * slot.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution;
    use pilut_par::{Machine, MachineModel};
    use pilut_sparse::{gen, CooMatrix};

    /// Same stored entry order, same sum: the distributed product must
    /// reproduce [`CsrMatrix::spmv`] to the bit on any distribution.
    fn check_matches_serial(dm: DistMatrix) {
        let n = dm.n();
        let x_global: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let y_serial = dm.matrix().spmv_owned(&x_global);
        let p = dm.dist().n_ranks();
        let out = Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            let mut plan = SpmvPlan::build(ctx, &dm, &local);
            let x_local: Vec<f64> = local.nodes.iter().map(|&g| x_global[g]).collect();
            let y_local = dist_spmv(ctx, &dm, &local, &mut plan, &x_local);
            (local.nodes.clone(), y_local)
        });
        let mut y = vec![f64::NAN; n];
        for (nodes, vals) in out.results {
            for (g, v) in nodes.into_iter().zip(vals) {
                y[g] = v;
            }
        }
        for i in 0..n {
            assert_eq!(y[i].to_bits(), y_serial[i].to_bits(), "row {i} at p = {p}");
        }
    }

    #[test]
    fn matches_serial_on_grid() {
        // p = 1 has no halo at all.
        for p in [1, 4] {
            let a = gen::convection_diffusion_2d(12, 12, 4.0, -2.0);
            check_matches_serial(DistMatrix::from_matrix(a, p, 11));
        }
    }

    #[test]
    fn matches_serial_on_torso() {
        check_matches_serial(DistMatrix::from_matrix(gen::fem_torso(8, 3), 3, 11));
    }

    #[test]
    fn matches_serial_on_one_way_halos_and_empty_ranks() {
        // Upper bidiagonal: rank r reads the first node of rank r + 1, whose
        // owner references nothing back.
        let mut coo = CooMatrix::new(12, 12);
        for i in 0..12 {
            coo.push(i, i, 2.0 + i as f64);
            if i + 1 < 12 {
                coo.push(i, i + 1, -0.3 * (i + 1) as f64);
            }
        }
        check_matches_serial(DistMatrix::new(coo.to_csr(), Distribution::block(12, 3)));
        // Ranks 5..8 own no rows.
        check_matches_serial(DistMatrix::new(
            gen::laplace_2d(5, 1),
            Distribution::block(5, 8),
        ));
    }

    #[test]
    fn single_rank_needs_no_messages() {
        let a = gen::laplace_2d(6, 6);
        let dm = DistMatrix::from_matrix(a, 1, 1);
        let out = Machine::run_checked(1, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(0);
            let mut plan = SpmvPlan::build(ctx, &dm, &local);
            assert_eq!(plan.sent_values(), 0);
            let x = vec![1.0; local.len()];
            dist_spmv(ctx, &dm, &local, &mut plan, &x)
        });
        // Row sums of the Laplacian are nonnegative.
        assert!(out.results[0].iter().all(|&v| v >= -1e-12));
    }

    #[test]
    fn repeated_products_reuse_plan() {
        let a = gen::laplace_2d(10, 10);
        let dm = DistMatrix::from_matrix(a, 2, 5);
        let out = Machine::run_checked(2, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            let mut plan = SpmvPlan::build(ctx, &dm, &local);
            let x = vec![1.0; local.len()];
            let y1 = dist_spmv(ctx, &dm, &local, &mut plan, &x);
            let y2 = dist_spmv(ctx, &dm, &local, &mut plan, &x);
            (y1, y2)
        });
        for (y1, y2) in out.results {
            assert_eq!(y1, y2);
        }
    }

    #[test]
    fn spmv_traffic_is_tagged() {
        let a = gen::laplace_2d(8, 8);
        let dm = DistMatrix::from_matrix(a, 2, 3);
        let out = Machine::run_checked(2, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            let mut plan = SpmvPlan::build(ctx, &dm, &local);
            let x = vec![1.0; local.len()];
            dist_spmv(ctx, &dm, &local, &mut plan, &x);
            plan.sent_values()
        });
        let shipped: usize = out.results.iter().sum();
        let (msgs, bytes) = out.stats.tag_totals(tags::SPMV);
        assert!(msgs >= 2, "both ranks should push boundary values");
        assert_eq!(bytes, shipped as u64 * 8);
    }
}

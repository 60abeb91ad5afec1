//! The distributed matrix–vector product, and the operator abstraction the
//! distributed Krylov solver consumes instead of a concrete matrix.
//!
//! [`DistOperator`] is one application of `y = A x` as a collective over
//! the SPMD machine. [`DistCsr`] is its implementation: a distributed CSR
//! matrix. The SpMV is one of the three kernels of a parallel iterative
//! method (paper §1). Its communication pattern — push boundary `x` values
//! to the neighbouring ranks that reference them — is fixed by the matrix,
//! so [`DistCsr::new`] plans it once (a collective wrapping
//! [`CommPlan::build`]) and every product replays it as the values-only
//! round of a one-level [`Halo`] ([`Halo::send_values`] /
//! [`Halo::recv_values`]).
//!
//! A product overlaps its exchange with the rows that need none of it:
//! [`DistCsr::apply_into`] ships its boundary values, computes and pays for
//! its interior rows (an interior node has no remote column), then receives
//! and computes and pays for its interface rows. A rank therefore ends at
//! `max(t + interior, arrival) + boundary` rather than waiting before any
//! work.
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

/// A distributed linear operator: one application is a collective in which
/// every rank passes its owned slice (local-view order) and receives the
/// owned slice of `A x`.
pub trait DistOperator {
    /// Length of this rank's owned slice.
    fn local_len(&self) -> usize;
    /// Collectively computes the local block of `y = A x` into a
    /// caller-owned buffer of [`DistOperator::local_len`] entries.
    fn apply_into(&mut self, ctx: &mut Ctx, x: &[f64], y: &mut [f64]);
}

/// A distributed CSR matrix with its rank's exchange plan for repeated
/// products: the halo over slots, the slot of every stored entry of the
/// rank's rows, and the slot-indexed `owned | ghosts` vector the rounds
/// fill.
pub struct DistCsr<'a> {
    dm: &'a DistMatrix,
    local: &'a LocalView,
    halo: Halo,
    /// Slots of the stored entries of `local.nodes`' rows, row after row in
    /// stored order — laid alongside the matrix's own values.
    slot: Vec<u32>,
    /// Entries of the interior rows, which head `slot` and read no ghost.
    interior_entries: usize,
    /// Local values, then one ghost per remote column, ascending node id.
    x: Vec<f64>,
}

impl<'a> DistCsr<'a> {
    /// Collectively builds the operator and its exchange plan (every rank
    /// must call this).
    pub fn new(ctx: &mut Ctx, dm: &'a DistMatrix, local: &'a LocalView) -> Self {
        let a = dm.matrix();
        let plan = CommPlan::build(ctx, tags::SPMV, local.remote_cols(a), |j| {
            dm.dist().owner(j)
        });
        // Ghost `g` is slot `local.len() + g`, ghosts ascending.
        let recv = plan.recv_lists().iter().flat_map(|(_, nodes)| nodes);
        let mut ghosts: Vec<usize> = recv.copied().collect();
        ghosts.sort_unstable();
        // Slots number distinct matrix columns, so they fit its `u32` ids.
        let n_slots = local.len() + ghosts.len();
        #[expect(clippy::expect_used, reason = "receive lists hold every ghost")]
        let slot_of = |j: usize| {
            local
                .pos_of(j)
                .unwrap_or_else(|| local.len() + ghosts.binary_search(&j).expect("unlisted ghost"))
        };
        // Sized up front: collecting a `flat_map` would grow by doubling and
        // keep up to twice the entries for the life of the operator.
        let mut slot = Vec::with_capacity(local.nodes.iter().map(|&i| a.row_nnz(i)).sum());
        for &i in &local.nodes {
            slot.extend(a.row(i).0.iter().map(|&j| slot_of(j as usize) as u32));
        }
        let interior_entries = local.interior.iter().map(|&i| a.row_nnz(i)).sum();
        DistCsr {
            dm,
            local,
            slot,
            interior_entries,
            x: vec![0.0; n_slots],
            halo: Halo::new(ctx, &plan, 1, |j| (0, slot_of(j))),
        }
    }
}

impl DistOperator for DistCsr<'_> {
    fn local_len(&self) -> usize {
        self.local.len()
    }

    /// The zero-allocation steady-state product: send, interior rows, pay,
    /// receive, interface rows, pay. The exchange replays through the
    /// registered-buffer pool (audited under the `send_values` /
    /// `recv_values` regions); the local product touches no heap at all.
    fn apply_into(&mut self, ctx: &mut Ctx, x: &[f64], y: &mut [f64]) {
        assert_eq!(y.len(), self.local.len());
        let DistCsr {
            dm,
            local,
            halo,
            slot,
            interior_entries,
            x: xs,
        } = self;
        // Ship the boundary values, then work on the interior rows, which
        // read no ghost, while they travel; receive straight into the ghost
        // tail and finish the interface rows.
        xs[..local.len()].copy_from_slice(x);
        halo.send_values(ctx, 0, |p| xs[p]);
        let n_int = local.interior.len();
        let (y_int, y_iface) = y.split_at_mut(n_int);
        let (slot_int, slot_iface) = slot.split_at(*interior_entries);
        let (int, iface) = local.nodes.split_at(n_int);
        product_rows(dm, int, slot_int, xs, y_int);
        ctx.work(2.0 * slot_int.len() as f64);
        halo.recv_values(ctx, 0, |s, v| xs[s] = v);
        product_rows(dm, iface, slot_iface, xs, y_iface);
        ctx.work(2.0 * slot_iface.len() as f64);
    }
}

/// `y[k] = Σ a_ij·x[slot]` over the rows `nodes[k]` of `dm`, whose entry
/// slots are `slots` row after row, summed in stored order.
fn product_rows(dm: &DistMatrix, nodes: &[usize], mut slots: &[u32], x: &[f64], y: &mut [f64]) {
    for (out, &i) in y.iter_mut().zip(nodes) {
        let vals = dm.matrix().row(i).1;
        let (row, rest) = slots.split_at(vals.len());
        slots = rest;
        let mut acc = 0.0;
        for (&s, &v) in row.iter().zip(vals) {
            acc += v * x[s as usize];
        }
        *out = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution;
    use pilut_par::{Machine, MachineModel};
    use pilut_sparse::{gen, CooMatrix};
    use std::collections::BTreeSet;

    /// One product into a fresh vector.
    fn product(op: &mut DistCsr, ctx: &mut Ctx, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; op.local_len()];
        op.apply_into(ctx, x, &mut y);
        y
    }

    /// Same stored entry order, same sum: the distributed product must
    /// reproduce [`CsrMatrix::spmv`](pilut_sparse::CsrMatrix::spmv) to the
    /// bit on any distribution.
    fn check_matches_serial(dm: DistMatrix) {
        let n = dm.n();
        let x_global: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let y_serial = dm.matrix().spmv_owned(&x_global);
        let p = dm.dist().n_ranks();
        let out = Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            let mut op = DistCsr::new(ctx, &dm, &local);
            assert_eq!(op.local_len(), local.len());
            let x_local: Vec<f64> = local.nodes.iter().map(|&g| x_global[g]).collect();
            let y_local = product(&mut op, ctx, &x_local);
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
            let mut op = DistCsr::new(ctx, &dm, &local);
            let x = vec![1.0; local.len()];
            product(&mut op, ctx, &x)
        });
        assert_eq!(out.stats.tag_totals(tags::SPMV), (0, 0));
        // Row sums of the Laplacian are nonnegative.
        assert!(out.results[0].iter().all(|&v| v >= -1e-12));
    }

    #[test]
    fn repeated_products_reuse_plan() {
        let a = gen::laplace_2d(10, 10);
        let dm = DistMatrix::from_matrix(a, 2, 5);
        let out = Machine::run_checked(2, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            let mut op = DistCsr::new(ctx, &dm, &local);
            let x = vec![1.0; local.len()];
            let y1 = product(&mut op, ctx, &x);
            let y2 = product(&mut op, ctx, &x);
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
            let mut op = DistCsr::new(ctx, &dm, &local);
            let x = vec![1.0; local.len()];
            product(&mut op, ctx, &x);
            // One ghost per distinct remote column: one value on the wire.
            let ghosts: Vec<usize> = local.remote_cols(dm.matrix()).collect();
            assert_eq!(ghosts.iter().collect::<BTreeSet<_>>().len(), ghosts.len());
            ghosts.len()
        });
        let shipped: usize = out.results.iter().sum();
        let (msgs, bytes) = out.stats.tag_totals(tags::SPMV);
        assert!(msgs >= 2, "both ranks should push boundary values");
        assert_eq!(bytes, shipped as u64 * 8);
    }

    /// A product ships, pays for its interior rows, waits, then pays for
    /// its interface rows: on a two-rank path each rank ends at exactly
    /// `max(t + interior, arrival) + boundary`, the arrival being its
    /// peer's start plus one message.
    #[test]
    fn spmv_pays_its_interior_rows_before_it_waits() {
        let model = MachineModel {
            flop_time: 1.0,
            latency: 100.0,
            inv_bandwidth: 0.0,
            word_copy_time: 0.0,
        };
        let dm = DistMatrix::new(gen::laplace_2d(40, 1), Distribution::block(40, 2));
        let out = Machine::run_checked(2, model, |ctx| {
            let local = dm.local_view(ctx.rank());
            let mut op = DistCsr::new(ctx, &dm, &local);
            let x = vec![1.0; local.len()];
            ctx.barrier();
            let t = ctx.time();
            product(&mut op, ctx, &x);
            let flops = |rows: &[usize]| rows.iter().map(|&i| 2 * dm.matrix().row_nnz(i)).sum();
            let flops: [usize; 2] = [flops(&local.interior), flops(&local.interface)];
            (t, flops, ctx.time())
        });
        for (r, &(t, [interior, boundary], end)) in out.results.iter().enumerate() {
            let arrival = out.results[1 - r].0 + model.latency;
            let want = (t + interior as f64).max(arrival) + boundary as f64;
            assert_eq!(end, want, "rank {r}");
            assert!(
                interior > 0 && arrival > t,
                "rank {r} must have work to hide"
            );
        }
    }
}

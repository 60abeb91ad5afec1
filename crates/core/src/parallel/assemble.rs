//! Gathering a distributed factorization into one serial object.
//!
//! The parallel factorization eliminates the unknowns in a specific global
//! order — each rank's interiors, then the interface levels. Assembling the
//! per-rank [`RankFactors`] under that order yields an ordinary
//! [`LuFactors`] plus the [`Permutation`] relating the orders, which lets
//! tests, debuggers, and single-node consumers apply or inspect a parallel
//! factorization with the plain serial machinery.

use crate::factors::{FactorStore, LuFactors};
use crate::parallel::RankFactors;
use pilut_sparse::Permutation;

/// The assembled form of a distributed factorization.
pub struct AssembledFactors {
    /// Factors in *elimination order* numbering.
    pub factors: LuFactors,
    /// Maps original node ids to elimination positions
    /// (`perm.new_of(node) = position`).
    pub perm: Permutation,
}

impl AssembledFactors {
    /// Applies `(LU)⁻¹` in the **original** numbering.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let pb = self.perm.apply_vec(b);
        let px = self.factors.solve(&pb);
        self.perm.unapply_vec(&px)
    }
}

/// Merges the per-rank outputs of a parallel factorization (one entry per
/// rank, rank order) into a serial [`LuFactors`] under the global
/// elimination order.
///
/// # Panics
/// Panics if the rank outputs are inconsistent (missing rows, mismatched
/// level counts) — they must all come from one collective run.
pub fn assemble_factors(per_rank: &[RankFactors], n: usize) -> AssembledFactors {
    // Build the elimination order: interiors rank by rank, then each level
    // across ranks (members of one level are independent, so any order
    // within the level is valid; sorted keeps it canonical). Each position
    // remembers the rank holding its row.
    let q = per_rank.first().map_or(0, |rf| rf.levels.len());
    let mut order: Vec<(usize, &RankFactors)> = Vec::with_capacity(n);
    for rf in per_rank {
        assert_eq!(
            rf.levels.len(),
            q,
            "rank {} disagrees on level count",
            rf.rank
        );
        order.extend(rf.interior.iter().map(|&i| (i, rf)));
    }
    for l in 0..q {
        let start = order.len();
        for rf in per_rank {
            order.extend(rf.levels[l].iter().map(|&i| (i, rf)));
        }
        order[start..].sort_unstable_by_key(|&(i, _)| i);
    }
    assert_eq!(order.len(), n, "rank outputs do not cover the matrix");
    let nodes: Vec<usize> = order.iter().map(|&(i, _)| i).collect();
    let perm = Permutation::from_old_order(&nodes);

    // Relabel and append: rows go into the store in elimination order, each
    // entry renamed to its elimination position and kept in the order its
    // rank stored it (ascending global column).
    let mut store = FactorStore::with_capacity(n);
    let (mut lower, mut upper) = (Vec::new(), Vec::new());
    for &(node, rf) in &order {
        // lint: allow(unwrap): the order lists each node under the rank that factored it
        let row = rf.row(node).expect("rank lists a node it did not factor");
        lower.clear();
        lower.extend(row.l());
        upper.clear();
        upper.extend(row.u());
        store.push_row(&lower, row.diag(), &upper, |c| perm.new_of(c));
    }
    let factors = LuFactors::from_store(store);
    debug_assert!(
        factors.check_structure().is_ok(),
        "{:?}",
        factors.check_structure()
    );
    AssembledFactors { factors, perm }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::DistMatrix;
    use crate::options::IlutOptions;
    use crate::parallel::par_ilut;
    use pilut_par::{Machine, MachineModel};
    use pilut_sparse::gen;

    #[test]
    fn assembled_factors_solve_like_the_machine() {
        let a = gen::laplace_2d(8, 8);
        let n = a.n_rows();
        let dm = DistMatrix::from_matrix(a.clone(), 3, 7);
        let opts = IlutOptions::new(n, 0.0); // exact
        let out = Machine::run_checked(3, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            par_ilut(ctx, &dm, &local, &opts).unwrap()
        });
        let asm = assemble_factors(&out.results, n);
        asm.factors.check_structure().unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
        let b = a.spmv_owned(&x_true);
        let x = asm.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9, "{xi} vs {ti}");
        }
    }

    #[test]
    fn elimination_order_is_triangular() {
        // After assembly, every L column index must precede its row and
        // every U column must follow it — check_structure verifies this, so
        // a dropped-factorization assembly exercising interface levels must
        // pass it too.
        let a = gen::laplace_3d(6, 6, 6);
        let dm = DistMatrix::from_matrix(a, 4, 11);
        let opts = IlutOptions::star(5, 1e-4, 2);
        let out = Machine::run_checked(4, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            par_ilut(ctx, &dm, &local, &opts).unwrap()
        });
        let asm = assemble_factors(&out.results, 216);
        asm.factors.check_structure().unwrap();
    }
}

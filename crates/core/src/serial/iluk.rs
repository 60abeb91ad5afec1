//! Level-of-fill incomplete factorization ILU(k).
//!
//! The other static-pattern baseline from the paper's §2: a fill entry's
//! *level* is `min over pivots p of lev(i,p) + lev(p,j) + 1` (original
//! entries have level 0) and entries with level exceeding `k` are dropped —
//! purely structural, insensitive to magnitudes, which is exactly the
//! weakness (paper §2) that motivates threshold-based dropping.

use crate::breakdown::PivotDoctor;
use crate::factors::{FactorStore, LuFactors};
use crate::options::{BreakdownPolicy, FactorError};
use pilut_sparse::{CsrMatrix, Entry};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Computes ILU(k) with the given fill level; `k = 0` is ILU(0)
/// ([`crate::serial::ilu0()`] calls this). Aborts on the first unusable
/// pivot, or on a non-finite entry, with the row's [`FactorError`].
pub fn iluk(a: &CsrMatrix, k: usize) -> Result<LuFactors, FactorError> {
    assert_eq!(a.n_rows(), a.n_cols(), "ILU(k) needs a square matrix");
    let mut doctor = PivotDoctor::new(BreakdownPolicy::Abort);
    let n = a.n_rows();
    let mut store = FactorStore::with_capacity(n);
    // Levels of the kept strict-U rows (aligned with the store's columns).
    let mut u_levels: Vec<Vec<usize>> = Vec::with_capacity(n);

    // Dense per-row scratch: value, level, occupancy.
    let mut val = vec![0.0f64; n];
    let mut lev = vec![usize::MAX; n];
    let mut touched: Vec<usize> = Vec::new();
    let mut heap: BinaryHeap<Reverse<usize>> = BinaryHeap::new();
    let mut lower: Vec<Entry> = Vec::new();
    let mut upper: Vec<Entry> = Vec::new();
    let mut pending = None;

    for i in 0..n {
        let (cols, vals) = a.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            let j = j as usize;
            val[j] = v;
            lev[j] = 0;
            touched.push(j);
            if j < i {
                heap.push(Reverse(j));
            }
        }
        while let Some(Reverse(p)) = heap.pop() {
            if matches!(heap.peek(), Some(&Reverse(q)) if q == p) {
                continue;
            }
            if lev[p] == usize::MAX || lev[p] > k {
                continue; // dropped symbolically — no elimination against it
            }
            let mult = val[p] / store.diag[p];
            val[p] = mult;
            for ((j, uval), &ul) in store.u.entries(p).zip(&u_levels[p]) {
                let new_level = lev[p].saturating_add(ul).saturating_add(1);
                if lev[j] == usize::MAX {
                    if new_level > k {
                        continue; // fill beyond the allowed level
                    }
                    val[j] = -mult * uval;
                    lev[j] = new_level;
                    touched.push(j);
                    if j < i {
                        heap.push(Reverse(j));
                    }
                } else {
                    val[j] -= mult * uval;
                    lev[j] = lev[j].min(new_level);
                }
            }
        }
        lower.clear();
        upper.clear();
        let mut upper_lev: Vec<usize> = Vec::new();
        let (mut diag, mut has_diag) = (0.0, false);
        touched.sort_unstable();
        for &j in &touched {
            if lev[j] <= k {
                if j < i {
                    lower.push(Entry::new(j, val[j]));
                } else if j == i {
                    (diag, has_diag) = (val[j], true);
                } else {
                    upper.push(Entry::new(j, val[j]));
                    upper_lev.push(lev[j]);
                }
            }
            val[j] = 0.0;
            lev[j] = usize::MAX;
        }
        touched.clear();
        doctor.repair_or_defer(
            i,
            a.row_norm2(i),
            has_diag,
            &mut diag,
            &mut lower,
            &mut upper,
            &mut pending,
            1.0,
        );
        if let Some((row, fault)) = pending {
            return Err(fault.error_at(row));
        }
        u_levels.push(upper_lev);
        store.push_row(&lower, diag, &upper, |j| j);
    }
    Ok(LuFactors::from_store(store))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilut_sparse::gen;
    use pilut_sparse::vec_ops::norm2;

    #[test]
    fn fill_grows_with_level() {
        let a = gen::laplace_2d(10, 10);
        let n0 = iluk(&a, 0).unwrap().nnz();
        let n1 = iluk(&a, 1).unwrap().nnz();
        let n3 = iluk(&a, 3).unwrap().nnz();
        assert!(n1 > n0, "{n1} !> {n0}");
        assert!(n3 > n1, "{n3} !> {n1}");
    }

    #[test]
    fn high_level_approaches_exact_lu() {
        let a = gen::laplace_2d(6, 6);
        let n = a.n_rows();
        let x_true = vec![1.0; n];
        let b = a.spmv_owned(&x_true);
        let resid = |k: usize| {
            let f = iluk(&a, k).unwrap();
            let x = f.solve(&b);
            let ax = a.spmv_owned(&x);
            norm2(&ax.iter().zip(&b).map(|(y, bi)| y - bi).collect::<Vec<_>>())
        };
        let r0 = resid(0);
        let r2 = resid(2);
        let r12 = resid(12);
        assert!(r2 < r0);
        assert!(r12 < 1e-8, "k=12 should be essentially exact, got {r12}");
    }

    #[test]
    fn structure_valid() {
        let a = gen::fem_torso(8, 5);
        let f = iluk(&a, 2).unwrap();
        f.check_structure().unwrap();
    }
}

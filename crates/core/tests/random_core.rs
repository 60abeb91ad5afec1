//! Randomized property tests of the factorization invariants, serial and
//! parallel.
//!
//! Formerly proptest strategies; now driven by the in-tree seeded
//! [`SplitMix64`] so the suite runs with zero registry dependencies.

use pilut_core::dist::DistMatrix;
use pilut_core::options::IlutOptions;
use pilut_core::parallel::par_ilut;
use pilut_core::serial::{ilu0, iluk, ilut};
use pilut_core::trisolve::{dist_solve, TrisolvePlan};
use pilut_par::{Machine, MachineModel};
use pilut_sparse::{CooMatrix, CsrMatrix, SplitMix64, WorkRow};

/// Random strictly diagonally dominant matrix — ILUT never breaks down on
/// these and the exact factorization is well conditioned.
fn diag_dominant(rng: &mut SplitMix64, max_n: usize, extra: usize) -> CsrMatrix {
    let n = 2 + rng.next_usize(max_n - 1);
    let m = rng.next_usize(extra + 1);
    let mut coo = CooMatrix::new(n, n);
    let mut row_sum = vec![0.0f64; n];
    for _ in 0..m {
        let i = rng.next_usize(n);
        let j = rng.next_usize(n);
        if i != j {
            let v = (rng.next_usize(80) as i32 - 40) as f64 / 10.0;
            coo.push(i, j, v);
            row_sum[i] += v.abs();
        }
    }
    for (i, &s) in row_sum.iter().enumerate() {
        coo.push(i, i, s + 1.0 + (i % 3) as f64);
    }
    coo.to_csr()
}

fn max_err(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// No dropping ⇒ exact LU ⇒ exact solve.
#[test]
fn unbounded_ilut_is_exact() {
    for case in 0..48u64 {
        let mut rng = SplitMix64::new(case);
        let a = diag_dominant(&mut rng, 24, 80);
        let n = a.n_rows();
        let f = ilut(&a, &IlutOptions::new(n, 0.0)).expect("dominant matrix cannot break down");
        f.check_structure().expect("factors well-formed");
        let seed = rng.next_u64() % 100;
        let x_true: Vec<f64> = (0..n)
            .map(|i| ((seed + i as u64) % 9) as f64 - 4.0)
            .collect();
        let b = a.spmv_owned(&x_true);
        let x = f.solve(&b);
        assert!(
            max_err(&x, &x_true) < 1e-6,
            "case {case} err {}",
            max_err(&x, &x_true)
        );
    }
}

/// The m-cap is a hard bound on per-row fill.
#[test]
fn fill_caps_hold() {
    for case in 0..48u64 {
        let mut rng = SplitMix64::new(case);
        let a = diag_dominant(&mut rng, 30, 120);
        let m = 1 + rng.next_usize(5);
        let f = ilut(&a, &IlutOptions::new(m, 0.0)).expect("dominant matrix cannot break down");
        for i in 0..f.n {
            assert!(f.l_row(i).len() <= m, "case {case}");
            assert!(f.u_row(i).len() <= m, "case {case}"); // strict part
        }
    }
}

/// Larger thresholds never increase fill.
#[test]
fn threshold_monotonicity() {
    for case in 0..48u64 {
        let mut rng = SplitMix64::new(case);
        let a = diag_dominant(&mut rng, 20, 70);
        let n = a.n_rows();
        let loose = ilut(&a, &IlutOptions::new(n, 1e-6)).expect("no breakdown");
        let tight = ilut(&a, &IlutOptions::new(n, 1e-1)).expect("no breakdown");
        assert!(tight.nnz() <= loose.nnz(), "case {case}");
    }
}

/// ILU(k) fill grows monotonically with the level, and level 0 = ILU(0).
#[test]
fn iluk_level_monotonicity() {
    for case in 0..48u64 {
        let mut rng = SplitMix64::new(case);
        let a = diag_dominant(&mut rng, 20, 60);
        let f0 = ilu0(&a).expect("no breakdown");
        let k0 = iluk(&a, 0).expect("no breakdown");
        assert_eq!(f0.nnz(), k0.nnz(), "case {case}");
        let k1 = iluk(&a, 1).expect("no breakdown");
        let k2 = iluk(&a, 2).expect("no breakdown");
        assert!(k0.nnz() <= k1.nnz(), "case {case}");
        assert!(k1.nnz() <= k2.nnz(), "case {case}");
    }
}

/// Triangular solves invert the factored operator: for any factors,
/// solve(multiply(x)) == x. (Uses the dense reconstruction.)
#[test]
fn trisolve_inverts_lu() {
    for case in 0..48u64 {
        let mut rng = SplitMix64::new(case);
        let a = diag_dominant(&mut rng, 16, 50);
        let f = ilut(&a, &IlutOptions::new(4, 1e-2)).expect("no breakdown");
        let n = f.n;
        let seed = rng.next_u64() % 50;
        let x: Vec<f64> = (0..n)
            .map(|i| ((seed + 3 * i as u64) % 7) as f64 - 3.0)
            .collect();
        // y = L U x via the dense product.
        let dense = f.multiply_dense();
        let y: Vec<f64> = dense
            .iter()
            .map(|row| row.iter().zip(&x).map(|(m, xi)| m * xi).sum())
            .collect();
        let back = f.solve(&y);
        assert!(
            max_err(&back, &x) < 1e-6,
            "case {case} err {}",
            max_err(&back, &x)
        );
    }
}

/// Differential check of the working row against a dense mirror: after any
/// interleaving of set/add/drop operations, `drain_sorted` emits each
/// position at most once, sorted, with the value the dense mirror holds.
/// (Guards the sparse-set bookkeeping — a stale companion-list entry for a
/// re-scattered position would emit a duplicate.)
#[test]
fn workrow_drain_matches_dense_mirror() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(1000 + case);
        let n = 4 + rng.next_usize(60);
        let mut w = WorkRow::new(n);
        let mut dense: Vec<Option<f64>> = vec![None; n];
        for _ in 0..rng.next_usize(200) + 20 {
            let j = rng.next_usize(n);
            match rng.next_usize(4) {
                0 => {
                    let v = rng.range_f64(-2.0, 2.0);
                    w.set(j, v);
                    dense[j] = Some(v);
                }
                1 => {
                    let v = rng.range_f64(-2.0, 2.0);
                    w.add(j, v);
                    dense[j] = Some(dense[j].unwrap_or(0.0) + v);
                }
                2 => {
                    w.drop_pos(j);
                    dense[j] = None;
                }
                _ => {
                    assert_eq!(w.contains(j), dense[j].is_some(), "case {case}");
                }
            }
        }
        let expected: Vec<(usize, f64)> = dense
            .iter()
            .enumerate()
            .filter_map(|(j, v)| v.map(|v| (j, v)))
            .collect();
        assert_eq!(w.nnz(), expected.len(), "case {case}: nnz over-count");
        let drained = w.drain_sorted();
        let cols: Vec<usize> = drained.iter().map(|&(j, _)| j).collect();
        let mut uniq = cols.clone();
        uniq.dedup();
        assert_eq!(cols, uniq, "case {case}: duplicate positions emitted");
        assert_eq!(drained.len(), expected.len(), "case {case}");
        for ((ja, va), (jb, vb)) in drained.iter().zip(&expected) {
            assert_eq!(ja, jb, "case {case}");
            assert!((va - vb).abs() < 1e-12, "case {case}");
        }
        assert!(w.is_empty());
    }
}

/// Differential check against a dense reference LU: with `tau = 0` and
/// `m = n` nothing is dropped, so serial ILUT must agree entry-for-entry
/// with textbook Gaussian elimination (no pivoting) on the dense copy.
#[test]
fn unbounded_ilut_matches_dense_lu() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::new(2000 + case);
        let a = diag_dominant(&mut rng, 18, 60);
        let n = a.n_rows();
        // Dense reference: in-place LU, L strictly below, U on and above.
        let mut d = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                d[i][j] += v;
            }
        }
        for k in 0..n - 1 {
            assert!(d[k][k] != 0.0, "case {case}: dense pivot vanished");
            for i in k + 1..n {
                let mult = d[i][k] / d[k][k];
                d[i][k] = mult;
                if mult != 0.0 {
                    for j in k + 1..n {
                        d[i][j] -= mult * d[k][j];
                    }
                }
            }
        }
        let f = ilut(&a, &IlutOptions::new(n, 0.0)).expect("no breakdown");
        for i in 0..n {
            for (j, v) in f.l_row(i) {
                assert!(
                    (v - d[i][j]).abs() < 1e-9,
                    "case {case}: L[{i}][{j}] = {v} vs dense {}",
                    d[i][j]
                );
            }
            for (j, v) in f.u_row(i).chain([(i, f.diag(i))]) {
                assert!(
                    (v - d[i][j]).abs() < 1e-9,
                    "case {case}: U[{i}][{j}] = {v} vs dense {}",
                    d[i][j]
                );
            }
            // Every structurally nonzero dense entry above the drop
            // threshold must be present in the sparse factors too.
            for j in 0..n {
                if d[i][j].abs() > 1e-9 {
                    let stored = j == i || f.l_row(i).chain(f.u_row(i)).any(|(c, _)| c == j);
                    assert!(
                        stored,
                        "case {case}: dense LU has ({i},{j}) = {} but factors dropped it",
                        d[i][j]
                    );
                }
            }
        }
    }
}

// The machine-backed cases are heavier; fewer of them.

/// The parallel factorization with no dropping solves exactly for any
/// rank count, matching the serial ground truth.
#[test]
fn parallel_exactness_any_rank_count() {
    for case in 0..12u64 {
        let mut rng = SplitMix64::new(case);
        let a = diag_dominant(&mut rng, 28, 90);
        let p = 1 + rng.next_usize(4);
        let seed = rng.next_u64() % 20;
        let n = a.n_rows();
        let x_true: Vec<f64> = (0..n)
            .map(|i| ((seed + i as u64) % 11) as f64 - 5.0)
            .collect();
        let b_global = a.spmv_owned(&x_true);
        let dm = DistMatrix::from_matrix(a.clone(), p, seed);
        let opts = IlutOptions::new(n, 0.0);
        let out = Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            let rf = par_ilut(ctx, &dm, &local, &opts).expect("no breakdown");
            let plan = TrisolvePlan::build(ctx, &dm, &local, &rf);
            let b: Vec<f64> = local.nodes.iter().map(|&g| b_global[g]).collect();
            let x = dist_solve(ctx, &local, &rf, &plan, &b);
            (local.nodes.clone(), x)
        });
        let mut x = vec![f64::NAN; n];
        for (nodes, xl) in out.results {
            for (g, v) in nodes.into_iter().zip(xl) {
                x[g] = v;
            }
        }
        assert!(
            max_err(&x, &x_true) < 1e-5,
            "case {case} p={p} err {}",
            max_err(&x, &x_true)
        );
    }
}

/// Parallel fill caps hold on every rank's rows.
#[test]
fn parallel_fill_caps_hold() {
    for case in 0..12u64 {
        let mut rng = SplitMix64::new(case);
        let a = diag_dominant(&mut rng, 24, 70);
        let p = 2 + rng.next_usize(2);
        let m = 1 + rng.next_usize(4);
        let dm = DistMatrix::from_matrix(a.clone(), p, 3);
        let opts = IlutOptions::star(m, 1e-3, 2);
        let out = Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            par_ilut(ctx, &dm, &local, &opts).expect("no breakdown")
        });
        for rf in &out.results {
            for (v, row) in rf.rows() {
                assert!(
                    row.l().len() <= m,
                    "case {case}: L row {v} has {}",
                    row.l().len()
                );
                assert!(
                    row.u().len() <= m,
                    "case {case}: U row {v} has {}",
                    row.u().len()
                );
                assert!(row.diag() != 0.0, "case {case}");
            }
        }
    }
}

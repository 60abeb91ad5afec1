//! Randomized property tests of the sparse substrate.
//!
//! These were proptest strategies in the seed; they are now driven by the
//! in-tree seeded [`SplitMix64`] so the test suite needs no registry
//! dependencies and every failure reproduces from the printed case seed.

use pilut_sparse::{io, CooMatrix, CsrMatrix, SplitMix64, WorkRow};

const CASES: u64 = 64;

/// A random sparse square matrix with up to `max_n` rows and `max_nnz`
/// pushed triplets (duplicates accumulate in `to_csr`).
fn coo_matrix(rng: &mut SplitMix64, max_n: usize, max_nnz: usize) -> CsrMatrix {
    let n = 1 + rng.next_usize(max_n);
    let nnz = rng.next_usize(max_nnz + 1);
    let mut coo = CooMatrix::new(n, n);
    for _ in 0..nnz {
        let i = rng.next_usize(n);
        let j = rng.next_usize(n);
        let v = (rng.next_usize(200) as i32 - 100) as f64 / 7.0;
        coo.push(i, j, v);
    }
    coo.to_csr()
}

#[test]
fn transpose_is_involutive() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let a = coo_matrix(&mut rng, 24, 80);
        assert_eq!(a.transpose().transpose(), a, "case {case}");
    }
}

#[test]
fn transpose_preserves_nnz_and_swaps_entries() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let a = coo_matrix(&mut rng, 16, 60);
        let t = a.transpose();
        assert_eq!(t.nnz(), a.nnz(), "case {case}");
        for i in 0..a.n_rows() {
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                assert_eq!(t.get(j, i), Some(v), "case {case}");
            }
        }
    }
}

#[test]
fn spmv_matches_dense_reference() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let a = coo_matrix(&mut rng, 20, 70);
        let n = a.n_cols();
        let seed = rng.next_u64() % 1000;
        let x: Vec<f64> = (0..n)
            .map(|i| ((seed + i as u64) % 13) as f64 - 6.0)
            .collect();
        let y = a.spmv_owned(&x);
        for (i, &yi) in y.iter().enumerate() {
            let mut acc = 0.0;
            for (j, &xj) in x.iter().enumerate() {
                if let Some(v) = a.get(i, j) {
                    acc += v * xj;
                }
            }
            assert!(
                (yi - acc).abs() < 1e-9,
                "case {case} row {i}: {yi} vs {acc}"
            );
        }
    }
}

#[test]
fn matrix_market_roundtrip() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let a = coo_matrix(&mut rng, 18, 60);
        let mut buf = Vec::new();
        io::write_matrix_market(&a, &mut buf).expect("write to Vec cannot fail");
        let b = io::read_matrix_market(&buf[..]).expect("roundtrip read");
        assert_eq!(a.n_rows(), b.n_rows(), "case {case}");
        assert_eq!(a.nnz(), b.nnz(), "case {case}");
        for i in 0..a.n_rows() {
            let (ca, va) = a.row(i);
            let (cb, vb) = b.row(i);
            assert_eq!(ca, cb, "case {case}");
            for (x, y) in va.iter().zip(vb) {
                assert!((x - y).abs() < 1e-12, "case {case}");
            }
        }
    }
}

/// WorkRow behaves like a HashMap-backed sparse accumulator.
#[test]
fn workrow_matches_model() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let n_ops = rng.next_usize(200);
        let mut w = WorkRow::new(32);
        let mut model: std::collections::HashMap<usize, f64> = Default::default();
        for _ in 0..n_ops {
            let pos = rng.next_usize(32);
            let v = (rng.next_usize(100) as i32 - 50) as f64;
            if rng.next_u64() & 1 == 0 {
                w.add(pos, v);
                *model.entry(pos).or_insert(0.0) += v;
            } else {
                w.set(pos, v);
                model.insert(pos, v);
            }
        }
        let mut expect: Vec<(usize, f64)> = model.into_iter().collect();
        expect.sort_unstable_by_key(|&(c, _)| c);
        let got = w.drain_sorted();
        assert_eq!(got.len(), expect.len(), "case {case}");
        for ((gc, gv), (ec, ev)) in got.iter().zip(&expect) {
            assert_eq!(gc, ec, "case {case}");
            assert!((gv - ev).abs() < 1e-9, "case {case}");
        }
        assert!(w.is_empty(), "case {case}");
    }
}

#[test]
fn principal_submatrix_of_everything_is_identity_op() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let a = coo_matrix(&mut rng, 12, 40);
        let keep: Vec<usize> = (0..a.n_rows()).collect();
        assert_eq!(a.principal_submatrix(&keep), a, "case {case}");
    }
}

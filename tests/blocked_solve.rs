//! The blocked factorization through the public facade: BCSR conversion,
//! `block_ilut`, and its scalar factors as an ordinary ILU preconditioner.

use pilut::prelude::*;

/// The multi-dof input the blocked rows of `xtask bench` run on: no
/// padding at b = 3, lossless blocking, and both the scalar path and the
/// blocked path at matched fill (m_scalar = 3 · m_tile) converge on it —
/// over the same CSR operator, through the same preconditioner type.
#[test]
fn elasticity_3d_is_a_blocked_input_both_paths_solve() {
    let a = gen::elasticity_3d(5, 4, 3);
    let ab = BcsrMatrix::from_csr(&a, 3);
    assert_eq!(ab.fill_ratio(), 1.0);
    assert_eq!(ab.to_csr(), a);

    let x_true: Vec<f64> = (0..a.n_rows()).map(|i| 1.0 + (i % 4) as f64).collect();
    let rhs = a.spmv_owned(&x_true);
    let opts = GmresOptions {
        rtol: 1e-10,
        ..Default::default()
    };
    let sf = ilut(&a, &IlutOptions::new(6, 1e-4)).unwrap();
    let scalar = gmres(&a, &rhs, &IluPreconditioner::new(sf), &opts);
    let bf = block_ilut(&ab, &IlutOptions::new(2, 1e-4)).unwrap();
    let precond = IluPreconditioner::with_label(bf, "BILU(3)");
    assert_eq!(precond.name(), "BILU(3)");
    let blocked = gmres(&a, &rhs, &precond, &opts);
    for r in [&scalar, &blocked] {
        assert!(r.converged);
        for (x, t) in r.x.iter().zip(&x_true) {
            assert!((x - t).abs() < 1e-6, "solution off: {x} vs {t}");
        }
    }
}

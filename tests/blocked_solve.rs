//! End-to-end blocked path through the public facade: supernode-guided
//! block-size selection, BCSR as the GMRES operator, and the blocked ILUT
//! factors as the preconditioner.

use pilut::prelude::*;

#[test]
fn gmres_over_bcsr_with_blocked_ilut_matches_csr() {
    let a = gen::convection_diffusion_2d(20, 20, 10.0, 20.0);
    let n = a.n_rows();
    let x_true: Vec<f64> = (0..n).map(|i| 1.0 + ((i % 7) as f64) * 0.5).collect();
    let rhs = a.spmv_owned(&x_true);
    let opts = GmresOptions {
        restart: 20,
        rtol: 1e-10,
        ..Default::default()
    };

    // Scalar reference path.
    let sf = ilut(&a, &IlutOptions::new(10, 1e-4)).unwrap();
    let reference = gmres(&a, &rhs, &IluPreconditioner::new(sf), &opts);
    assert!(reference.converged, "scalar path must converge");

    // Blocked path: detection picks the block size, BCSR is the operator,
    // blocked ILUT the preconditioner.
    let b = suggest_block_size(&a, &[2, 4], 0.25);
    assert!(b >= 2, "banded stencil should support blocking, got b={b}");
    let ab = BcsrMatrix::from_csr(&a, b);
    let bf = block_ilut(&ab, &IlutOptions::new(10, 1e-4)).unwrap();
    let precond = BlockIluPreconditioner::new(bf);
    assert_eq!(precond.name(), format!("BILU({b})"));
    let blocked = gmres(&ab, &rhs, &precond, &opts);
    assert!(blocked.converged, "blocked path must converge");
    assert!(
        blocked.matvecs <= 3 * reference.matvecs + 10,
        "blocked path needs {} matvecs vs scalar {}",
        blocked.matvecs,
        reference.matvecs
    );
    for (x, t) in blocked.x.iter().zip(&x_true) {
        assert!((x - t).abs() < 1e-6, "solution off: {x} vs {t}");
    }
}

#[test]
fn storage_generic_consumers_see_one_matrix() {
    // The same generic routine runs over CSR and BCSR through the trait.
    fn frob_via_trait(m: &dyn SparseStorage) -> f64 {
        let mut s = 0.0;
        for i in 0..m.n_rows() {
            m.for_each_row_entry(i, &mut |_, v| s += v * v);
        }
        s.sqrt()
    }
    let a = gen::laplace_2d(9, 9);
    let blocked = BcsrMatrix::from_csr(&a, 4);
    let (fa, fb) = (frob_via_trait(&a), frob_via_trait(&blocked));
    assert!((fa - fb).abs() < 1e-12);
}

/// The multi-dof input the blocked rows of `xtask bench` run on: no
/// padding at b = 3, lossless blocking, and both the scalar path and the
/// blocked path at matched fill (m_scalar = 3 · m_tile) converge on it.
#[test]
fn elasticity_3d_is_a_blocked_input_both_paths_solve() {
    let a = gen::elasticity_3d(5, 4, 3);
    assert_eq!(pilut::graph::tile_fill(&a, 3), 1.0);
    let ab = BcsrMatrix::from_csr(&a, 3);
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
    let blocked = gmres(&ab, &rhs, &BlockIluPreconditioner::new(bf), &opts);
    for r in [&scalar, &blocked] {
        assert!(r.converged);
        for (x, t) in r.x.iter().zip(&x_true) {
            assert!((x - t).abs() < 1e-6, "solution off: {x} vs {t}");
        }
    }
}

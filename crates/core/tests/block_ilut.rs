//! Blocked-vs-scalar ILUT differentials at integration scale.
//!
//! The anchor property: at block size 1 the blocked pipeline (BCSR
//! conversion → `block_ilut` → `LuFactors::solve`) is *bitwise* the scalar
//! pipeline (`ilut` → `LuFactors::solve`). At real block sizes the factors
//! differ (tile-granular dropping), so those are checked for quality and
//! internal consistency instead.

use pilut_core::serial::{block_ilut, block_ilut_with_stats, ilut_with_stats};
use pilut_core::IlutOptions;
use pilut_sparse::vec_ops::norm2;
use pilut_sparse::{gen, BcsrMatrix};

#[test]
fn b1_pipeline_is_bitwise_scalar_on_random_matrices() {
    for seed in 0..4u64 {
        let a = gen::random_diag_dominant(200, 6, seed);
        let opts = IlutOptions::new(8, 1e-3);
        let (sf, ss) = ilut_with_stats(&a, &opts).unwrap();
        let ab = BcsrMatrix::from_csr(&a, 1);
        let (bf, bs) = block_ilut_with_stats(&ab, &opts).unwrap();
        assert_eq!(ss.flops.to_bits(), bs.flops.to_bits(), "seed {seed}");
        assert_eq!((ss.nnz_l, ss.nnz_u), (bs.nnz_l, bs.nnz_u));
        for i in 0..a.n_rows() {
            let bits = |(c, v): (usize, f64)| (c, v.to_bits());
            let (sl, rl) = (sf.l_row(i).map(bits), bf.l_row(i).map(bits));
            assert!(sl.eq(rl), "seed {seed} L row {i}");
            assert_eq!(sf.diag(i).to_bits(), bf.diag(i).to_bits());
            let (su, ru) = (sf.u_row(i).map(bits), bf.u_row(i).map(bits));
            assert!(su.eq(ru), "seed {seed} U row {i}");
        }
        // Equal rows solve to equal bits through the one scalar sweep.
        let r: Vec<f64> = (0..a.n_rows())
            .map(|i| ((i * 31) % 17) as f64 - 8.0)
            .collect();
        let (xs, xb) = (sf.solve(&r), bf.solve(&r));
        for (x, y) in xs.iter().zip(&xb) {
            assert_eq!(x.to_bits(), y.to_bits(), "seed {seed} trisolve");
        }
    }
}

#[test]
fn blocked_preconditioner_quality_tracks_scalar() {
    // At real block sizes the tile-granular cap keeps *more* scalar fill
    // per retained unit, so with matched caps the blocked preconditioner
    // should land in the scalar one's quality neighbourhood.
    let a = gen::convection_diffusion_2d(16, 16, 4.0, -3.0);
    let n = a.n_rows();
    let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    let rhs = a.spmv_owned(&x_true);
    let resid = |x: &[f64]| {
        let ax = a.spmv_owned(x);
        norm2(&ax.iter().zip(&rhs).map(|(u, v)| u - v).collect::<Vec<_>>())
    };
    let scalar = {
        let f = pilut_core::ilut(&a, &IlutOptions::new(10, 1e-4)).unwrap();
        resid(&f.solve(&rhs))
    };
    let r0 = norm2(&rhs);
    for b in [2usize, 4] {
        let ab = BcsrMatrix::from_csr(&a, b);
        let f = block_ilut(&ab, &IlutOptions::new(10, 1e-4)).unwrap();
        f.check_structure().unwrap();
        let rb = resid(&f.solve(&rhs));
        assert!(
            rb < 0.2 * r0,
            "b={b}: blocked preconditioner barely helps: {rb} vs r0={r0}"
        );
        assert!(
            rb < 50.0 * scalar + 1e-12,
            "b={b}: blocked residual {rb} far off scalar {scalar}"
        );
    }
}

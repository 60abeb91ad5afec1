//! Tests of the parallel ILU(0) factorization (the paper's §3 static-pattern
//! contrast case).

use pilut_core::dist::{DistMatrix, Distribution};
use pilut_core::options::IlutOptions;
use pilut_core::parallel::{par_ilu0, par_ilut};
use pilut_core::serial::ilu0;
use pilut_core::trisolve::{dist_solve_into, SolveScratch, TrisolvePlan};
use pilut_par::{Machine, MachineModel};
use pilut_sparse::{gen, CooMatrix};

#[test]
fn single_rank_matches_serial_ilu0() {
    // One rank owns only interior rows, so phase 1 is the whole
    // factorization and runs serial ILU(0)'s operations in serial's order:
    // every stored entry must agree bit for bit.
    let a = gen::convection_diffusion_2d(7, 7, 4.0, -1.0);
    let serial = ilu0(&a).unwrap();
    let dm = DistMatrix::from_matrix(a.clone(), 1, 1);
    let out = Machine::run_checked(1, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(0);
        par_ilu0(ctx, &dm, &local).unwrap()
    });
    let rf = &out.results[0];
    let bits = |(c, v): (usize, f64)| (c, v.to_bits());
    for i in 0..a.n_rows() {
        let row = rf.row(i).expect("one rank owns every row");
        assert!(row.l().map(bits).eq(serial.l_row(i).map(bits)), "L row {i}");
        assert_eq!(row.diag().to_bits(), serial.diag(i).to_bits(), "diag {i}");
        assert!(row.u().map(bits).eq(serial.u_row(i).map(bits)), "U row {i}");
    }
}

/// Interior node 0 couples interface nodes 1 and 2 with unit entries, so
/// eliminating it cancels `a₁₂` and `a₂₁` to exactly 0.0 in the reduced
/// rows; whichever of 1 and 2 the schedule factors first, the other meets a
/// zero multiplier in the level sweep. Rank 1 (nodes 3–5) mirrors rank 0.
fn exact_cancellation_case() -> DistMatrix {
    let mut coo = CooMatrix::new(6, 6);
    for (i, j, v) in [
        (0, 0, 1.0),
        (0, 1, 1.0),
        (0, 2, 1.0),
        (1, 0, 1.0),
        (1, 1, 4.0),
        (1, 2, 1.0),
        (1, 3, -1.0),
        (2, 0, 1.0),
        (2, 1, 1.0),
        (2, 2, 4.0),
        (2, 4, -1.0),
        (3, 1, -1.0),
        (3, 3, 4.0),
        (3, 5, 1.0),
        (4, 2, -1.0),
        (4, 4, 4.0),
        (4, 5, 1.0),
        (5, 3, 1.0),
        (5, 4, 1.0),
        (5, 5, 4.0),
    ] {
        coo.push(i, j, v);
    }
    DistMatrix::new(coo.to_csr(), Distribution::block(6, 2))
}

#[test]
fn pattern_is_preserved_across_ranks() {
    let torso = DistMatrix::from_matrix(gen::fem_torso(10, 3), 4, 9);
    for (p, dm) in [(4, torso), (2, exact_cancellation_case())] {
        let a = dm.matrix();
        let out = Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            par_ilu0(ctx, &dm, &local).unwrap()
        });
        let mut covered = 0usize;
        for rf in &out.results {
            for (v, row) in rf.rows() {
                let mut got: Vec<usize> = row.l().chain(row.u()).map(|(c, _)| c).collect();
                got.push(v);
                got.sort_unstable();
                let expect: Vec<usize> = a.row(v).0.to_vec();
                assert_eq!(
                    got, expect,
                    "p = {p}, node {v}: ILU(0) must keep the exact pattern"
                );
                covered += 1;
            }
        }
        assert_eq!(covered, a.n_rows());
    }
}

#[test]
fn static_schedule_is_much_shorter_than_ilut_levels() {
    // The whole point of Figure 1: the static pattern needs only about as
    // many levels as the interface graph's chromatic number, while ILUT's
    // fill pushes the dynamic level count far higher.
    let a = gen::laplace_3d(10, 10, 10);
    let p = 4;
    let q_of = |use_ilut: bool| {
        let dm = DistMatrix::from_matrix(a.clone(), p, 17);
        let out = Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            if use_ilut {
                par_ilut(ctx, &dm, &local, &IlutOptions::new(10, 1e-6))
                    .unwrap()
                    .stats
                    .levels
            } else {
                par_ilu0(ctx, &dm, &local).unwrap().stats.levels
            }
        });
        out.results[0]
    };
    let q0 = q_of(false);
    let qt = q_of(true);
    assert!(
        q0 * 3 <= qt,
        "ILU(0) schedule {q0} not much shorter than ILUT {qt}"
    );
}

#[test]
fn factors_drive_the_parallel_trisolve() {
    // par_ilu0 output plugs into the same triangular-solve machinery; on a
    // matrix whose permuted factorization stays exact (block-diagonal-ish
    // chains have no cross fill), the solve is exact.
    let a = gen::laplace_2d(12, 12);
    let dm = DistMatrix::from_matrix(a.clone(), 3, 5);
    let b_global = a.spmv_owned(&vec![1.0; a.n_rows()]);
    let out = Machine::run_checked(3, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        let rf = par_ilu0(ctx, &dm, &local).unwrap();
        let plan = TrisolvePlan::build(ctx, &dm, &local, &rf);
        let b: Vec<f64> = local.nodes.iter().map(|&g| b_global[g]).collect();
        let mut scratch = SolveScratch::build(&local, &plan);
        let mut x = vec![0.0; local.len()];
        dist_solve_into(ctx, &local, &rf, &plan, &b, &mut scratch, &mut x);
        (local.nodes.clone(), x)
    });
    // ILU(0) is approximate on a grid; check it acts like a decent
    // preconditioner rather than an exact solve.
    let mut x = vec![0.0; a.n_rows()];
    for (nodes, xl) in out.results {
        for (g, v) in nodes.into_iter().zip(xl) {
            x[g] = v;
        }
    }
    let ax = a.spmv_owned(&x);
    let num: f64 = ax
        .iter()
        .zip(&b_global)
        .map(|(p, q)| (p - q) * (p - q))
        .sum::<f64>()
        .sqrt();
    let den: f64 = b_global.iter().map(|v| v * v).sum::<f64>().sqrt();
    assert!(
        num / den < 0.7,
        "one ILU(0) application too weak: {}",
        num / den
    );
}

#[test]
fn deterministic_and_consistent_levels() {
    let a = gen::laplace_2d(10, 10);
    let run = || {
        let dm = DistMatrix::from_matrix(a.clone(), 4, 3);
        Machine::run_checked(4, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            let rf = par_ilu0(ctx, &dm, &local).unwrap();
            (rf.levels.clone(), rf.stats.levels)
        })
    };
    let a1 = run();
    let a2 = run();
    let q = a1.results[0].1;
    for (r1, r2) in a1.results.iter().zip(&a2.results) {
        assert_eq!(r1.0, r2.0);
        assert_eq!(r1.1, q, "level counts must agree across ranks");
    }
}

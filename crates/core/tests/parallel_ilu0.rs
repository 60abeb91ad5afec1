//! Tests of the parallel ILU(0) factorization (the paper's §3 static-pattern
//! contrast case).

use pilut_core::dist::{DistMatrix, Distribution};
use pilut_core::options::{FactorError, IlutOptions};
use pilut_core::parallel::{par_ilu0, par_ilut};
use pilut_core::serial::ilu0;
use pilut_core::trisolve::{dist_solve_into, SolveScratch, TrisolvePlan};
use pilut_par::{Machine, MachineModel};
use pilut_sparse::{gen, CooMatrix};
use support::{pinned_factoring, planted_cancellation, reference_ilu0};

mod support;

#[test]
fn single_rank_matches_serial_ilu0() {
    // One rank owns only interior rows, so phase 1 is the whole
    // factorization. Serial `ilu0` and one-rank `par_ilu0` both run the
    // library's row kernel, so each is held to the dense-pattern reference,
    // which shares no loop with it: every stored entry bit for bit.
    let one_rank = |a: &pilut_sparse::CsrMatrix| {
        let dm = DistMatrix::from_matrix(a.clone(), 1, 1);
        let out = Machine::run_checked(1, MachineModel::cray_t3d(), |ctx| {
            par_ilu0(ctx, &dm, &dm.local_view(0))
        });
        out.results.into_iter().next().expect("one rank")
    };
    let bits = |(c, v): (usize, f64)| (c, v.to_bits());
    for (label, a) in pinned_factoring() {
        let serial = ilu0(&a).unwrap();
        let rf = one_rank(&a).unwrap();
        for (i, want) in reference_ilu0(&a).into_iter().enumerate() {
            let want = (
                want.l.into_iter().map(bits).collect::<Vec<_>>(),
                want.diag.to_bits(),
                want.u.into_iter().map(bits).collect::<Vec<_>>(),
            );
            let serial_row = (
                serial.l_row(i).map(bits).collect(),
                serial.diag(i).to_bits(),
                serial.u_row(i).map(bits).collect(),
            );
            let row = rf.row(i).expect("one rank owns every row");
            let rank_row = (
                row.l().map(bits).collect(),
                row.diag().to_bits(),
                row.u().map(bits).collect(),
            );
            assert_eq!(serial_row, want, "{label}: serial row {i}");
            assert_eq!(rank_row, want, "{label}: p = 1 row {i}");
        }
    }
    // On the planted cancellation the reference meets its zero pivot in
    // row 6, and both factorizations abort there.
    let a = planted_cancellation();
    let first_zero = reference_ilu0(&a).iter().position(|r| r.diag == 0.0);
    assert_eq!(first_zero, Some(6));
    let expected = Some(FactorError::ZeroPivot { row: 6 });
    assert_eq!(ilu0(&a).err(), expected);
    assert_eq!(one_rank(&a).err(), expected);
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
                let expect: Vec<usize> = a.row(v).0.iter().map(|&j| j as usize).collect();
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
fn no_two_nodes_of_one_level_share_an_entry_of_a() {
    // The levels are ILU(0)'s colouring of the interface (Figure 1a): each
    // interface node is in exactly one, and a level is independent in the
    // pattern of `A` itself, since ILU(0) never adds to it.
    for a in [gen::fem_torso(12, 1), gen::laplace_3d(10, 10, 10)] {
        for p in [2, 4, 8] {
            let dm = DistMatrix::from_matrix(a.clone(), p, 17);
            let out = Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| {
                let local = dm.local_view(ctx.rank());
                let rf = par_ilu0(ctx, &dm, &local).unwrap();
                (rf.interface.len(), rf.levels)
            });
            let mut level_of = vec![None; a.n_rows()];
            for (_, levels) in &out.results {
                for (l, level) in levels.iter().enumerate() {
                    for &v in level {
                        assert!(level_of[v].replace(l).is_none(), "p={p}: {v} twice");
                    }
                }
            }
            let interface: usize = out.results.iter().map(|r| r.0).sum();
            assert_eq!(level_of.iter().flatten().count(), interface, "p={p}");
            for (v, &l) in level_of.iter().enumerate() {
                let Some(l) = l else { continue };
                for &u in a.row(v).0 {
                    let u = u as usize;
                    assert!(
                        u == v || level_of[u] != Some(l),
                        "p={p}: {v} and {u} share level {l} and a_vu"
                    );
                }
            }
        }
    }
}

#[test]
fn a_pivot_that_cancels_at_a_level_fails_every_rank() {
    // Two interface nodes, one per rank, coupled by unit entries: whichever
    // the first level factors, its elimination cancels the other's pivot to
    // exactly 0.0, and the next level head agrees on the fault. The owner
    // of that row reports it; its peer names the owner.
    let mut coo = CooMatrix::new(2, 2);
    for (i, j) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
        coo.push(i, j, 1.0);
    }
    let dm = DistMatrix::new(coo.to_csr(), Distribution::block(2, 2));
    let out = Machine::run_checked(2, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        assert_eq!(local.interface.len(), 1, "rank {}", ctx.rank());
        par_ilu0(ctx, &dm, &local).err()
    });
    let zero = out
        .results
        .iter()
        .enumerate()
        .find_map(|(rank, r)| match r {
            Some(FactorError::ZeroPivot { row }) => Some((rank, *row)),
            _ => None,
        });
    let (owner, row) = zero.expect("one rank reports the zero pivot");
    assert_eq!(
        dm.dist().owner(row),
        owner,
        "the owner of row {row} reports it"
    );
    let peer = 1 - owner;
    assert_eq!(
        out.results[peer],
        Some(FactorError::RankFailure { rank: owner }),
        "rank {peer}"
    );
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

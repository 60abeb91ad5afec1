//! Differential sweep: every distributed kernel against its serial
//! reference, across partition seeds and machine sizes `p ∈ {1, 2, 4, 8}`.
//!
//! Besides numerical parity, each sweep checks the data plane's per-tag
//! traffic counters: user-tag traffic must be exactly zero on one rank
//! (nothing is remote) and strictly positive wherever a partition has
//! interfaces — a regression guard for both over- and under-communication.

use pilut::core::dist::exchange::tags;
use pilut::core::dist::op::{DistCsr, DistOperator};
use pilut::core::dist::DistMatrix;
use pilut::core::options::IlutOptions;
use pilut::core::parallel::par_ilut;
use pilut::core::trisolve::{dist_solve, TrisolvePlan};
use pilut::par::{Machine, MachineModel, MachineStats};
use pilut::solver::dist_gmres::{dist_gmres, DistIlu};
use pilut::solver::gmres::{gmres, GmresOptions};
use pilut::sparse::{gen, CooMatrix};

const SIZES: [usize; 4] = [1, 2, 4, 8];

/// Scatter a global vector into rank order, run the distributed kernel,
/// and gather the per-rank pieces back into a global vector.
fn gather(n: usize, pieces: Vec<(Vec<usize>, Vec<f64>)>) -> Vec<f64> {
    let mut x = vec![f64::NAN; n];
    for (nodes, xl) in pieces {
        for (g, v) in nodes.into_iter().zip(xl) {
            x[g] = v;
        }
    }
    assert!(x.iter().all(|v| v.is_finite()), "rows left unassigned");
    x
}

/// Asserts the p=1 / p>1 traffic invariant for one user tag.
fn check_tag(stats: &MachineStats, tag: u64, p: usize, what: &str) {
    let (msgs, bytes) = stats.tag_totals(tag);
    if p == 1 {
        assert_eq!((msgs, bytes), (0, 0), "{what}: traffic on a single rank");
    } else {
        assert!(msgs > 0, "{what}: no messages at p={p}");
        assert!(bytes > 0, "{what}: no bytes at p={p}");
    }
}

/// Distributed SpMV equals the serial product for every machine size and
/// partition seed, and SpMV-tagged traffic appears exactly when p > 1.
#[test]
fn spmv_matches_serial_across_sizes_and_seeds() {
    let a = gen::convection_diffusion_2d(12, 12, 4.0, -1.5);
    let n = a.n_rows();
    let x: Vec<f64> = (0..n).map(|i| ((i * 7) % 11) as f64 - 5.0).collect();
    let y_ref = a.spmv_owned(&x);
    for p in SIZES {
        for seed in [3, 29, 91] {
            let dm = DistMatrix::from_matrix(a.clone(), p, seed);
            let x2 = x.clone();
            let out = Machine::run_checked(p, MachineModel::cray_t3d(), move |ctx| {
                let local = dm.local_view(ctx.rank());
                let mut op = DistCsr::new(ctx, &dm, &local);
                let xl: Vec<f64> = local.nodes.iter().map(|&g| x2[g]).collect();
                let y = op.apply(ctx, &xl);
                (local.nodes.clone(), y)
            });
            let y = gather(n, out.results);
            for i in 0..n {
                assert!(
                    (y[i] - y_ref[i]).abs() < 1e-12,
                    "spmv p={p} seed={seed} row {i}: {} vs {}",
                    y[i],
                    y_ref[i]
                );
            }
            check_tag(&out.stats, tags::SPMV, p, "spmv");
        }
    }
}

/// With a complete (no-drop) parallel factorization, the distributed
/// forward+backward solve inverts `A` exactly — so the gathered solution
/// must match the vector the right-hand side was manufactured from, for
/// every machine size. Per-level sweep traffic appears exactly when p > 1.
#[test]
fn complete_lu_trisolve_recovers_truth_across_sizes() {
    let a = gen::fem_torso(10, 4);
    let n = a.n_rows();
    let x_true: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 3) % 5) as f64).collect();
    let b_global = a.spmv_owned(&x_true);
    let opts = IlutOptions::new(n, 0.0);
    for p in SIZES {
        let dm = DistMatrix::from_matrix(a.clone(), p, 13);
        let b2 = b_global.clone();
        let opts2 = opts.clone();
        let out = Machine::run_checked(p, MachineModel::cray_t3d(), move |ctx| {
            let local = dm.local_view(ctx.rank());
            let rf = par_ilut(ctx, &dm, &local, &opts2).unwrap();
            let plan = TrisolvePlan::build(ctx, &dm, &local, &rf);
            let b: Vec<f64> = local.nodes.iter().map(|&g| b2[g]).collect();
            let x = dist_solve(ctx, &local, &rf, &plan, &b);
            (local.nodes.clone(), x)
        });
        let x = gather(n, out.results);
        for i in 0..n {
            assert!(
                (x[i] - x_true[i]).abs() < 1e-7,
                "trisolve p={p} row {i}: {} vs {}",
                x[i],
                x_true[i]
            );
        }
        // The two sweep directions ship values only across interfaces.
        let (fwd, fb) = out.stats.tag_totals(tags::FWD);
        let (bwd, bb) = out.stats.tag_totals(tags::BWD);
        if p == 1 {
            assert_eq!((fwd, fb, bwd, bb), (0, 0, 0, 0), "sweep traffic at p=1");
        } else {
            assert!(fwd + bwd > 0, "no sweep messages at p={p}");
        }
        check_tag(&out.stats, tags::UROWS, p, "urows");
    }
}

/// Distributed ILUT-preconditioned GMRES lands on the same solution as the
/// serial path for every machine size and partition seed.
#[test]
fn dist_gmres_matches_serial_across_sizes_and_seeds() {
    let a = gen::convection_diffusion_2d(14, 14, 5.0, 2.0);
    let n = a.n_rows();
    let x_true: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
    let b = a.spmv_owned(&x_true);
    let gopts = GmresOptions {
        restart: 20,
        rtol: 1e-10,
        max_matvecs: 3000,
    };
    let fopts = IlutOptions::new(8, 1e-3);
    // Serial reference: same solver family, serial factorization.
    let serial = {
        let f = pilut::core::serial::ilut(&a, &fopts).unwrap();
        let r = gmres(
            &a,
            &b,
            &pilut::core::precond::IluPreconditioner::new(f),
            &gopts,
        );
        assert!(r.converged, "serial reference did not converge");
        r.x
    };
    for p in SIZES {
        for seed in [17, 41] {
            let dm = DistMatrix::from_matrix(a.clone(), p, seed);
            let b2 = b.clone();
            let fopts2 = fopts.clone();
            let gopts2 = gopts.clone();
            let out = Machine::run_checked(p, MachineModel::cray_t3d(), move |ctx| {
                let local = dm.local_view(ctx.rank());
                let mut op = DistCsr::new(ctx, &dm, &local);
                let rf = par_ilut(ctx, &dm, &local, &fopts2).unwrap();
                let mut pre = DistIlu::new(ctx, &dm, &local, rf);
                let bl: Vec<f64> = local.nodes.iter().map(|&g| b2[g]).collect();
                let r = dist_gmres(ctx, &mut op, &local, &mut pre, &bl, &gopts2);
                assert!(r.converged, "dist gmres did not converge");
                (local.nodes.clone(), r.x_local)
            });
            let x = gather(n, out.results);
            for i in 0..n {
                assert!(
                    (x[i] - serial[i]).abs() < 1e-6,
                    "gmres p={p} seed={seed} row {i}: {} vs {}",
                    x[i],
                    serial[i]
                );
            }
            check_tag(&out.stats, tags::SPMV, p, "gmres spmv");
        }
    }
}

/// Paper Table 3 as a gate: GMRES(10) matvecs to `rtol = 1e-7` on `b = A·1`
/// under ILUT and ILUT\* preconditioning, p ∈ {1, 2, 4, 8} against serial.
/// At p = 1 the count *equals* the serial one — structural, since serial
/// `ilut` is the one-rank `par_ilut` and both solve through the same sweep.
/// For p > 1 the interface ordering makes it a different incomplete
/// factorization, whose count must stay inside the band recorded here, so
/// store or kernel work cannot quietly weaken the factors while staying
/// deterministic. Rows: `(matrix, options, serial NMV, max NMV for p > 1)`;
/// the bound is the worst count observed when recorded (PR 14) plus one.
#[test]
fn table3_matvecs_hold_against_serial() {
    let g40 = gen::convection_diffusion_2d(32, 32, 10.0, 20.0);
    let torso = gen::torso(10);
    let table = [
        ("g40", &g40, IlutOptions::new(5, 1e-2), 19, 24),
        ("g40", &g40, IlutOptions::new(10, 1e-4), 8, 13),
        ("g40", &g40, IlutOptions::star(5, 1e-2, 2), 19, 24),
        ("g40", &g40, IlutOptions::star(10, 1e-4, 2), 8, 13),
        ("torso", &torso, IlutOptions::new(5, 1e-2), 14, 15),
        ("torso", &torso, IlutOptions::new(10, 1e-4), 9, 9),
        ("torso", &torso, IlutOptions::star(5, 1e-2, 2), 14, 15),
        ("torso", &torso, IlutOptions::star(10, 1e-4, 2), 9, 9),
    ];
    let gopts = GmresOptions {
        restart: 10,
        rtol: 1e-7,
        max_matvecs: 2000,
    };
    for (name, a, fopts, serial_nmv, dist_max) in table {
        let what = format!("{name} {}", fopts.name());
        let b = a.spmv_owned(&vec![1.0; a.n_rows()]);
        let f = pilut::core::serial::ilut(a, &fopts).unwrap();
        let pre = pilut::core::precond::IluPreconditioner::new(f);
        let serial = gmres(a, &b, &pre, &gopts);
        assert!(serial.converged, "{what}: serial did not converge");
        assert_eq!(serial.matvecs, serial_nmv, "{what}: serial NMV moved");
        for p in SIZES {
            let dm = DistMatrix::from_matrix(a.clone(), p, 17);
            let out = Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| {
                let local = dm.local_view(ctx.rank());
                let mut op = DistCsr::new(ctx, &dm, &local);
                let bl: Vec<f64> = local.nodes.iter().map(|&g| b[g]).collect();
                let rf = par_ilut(ctx, &dm, &local, &fopts).unwrap();
                let mut pre = DistIlu::new(ctx, &dm, &local, rf);
                let r = dist_gmres(ctx, &mut op, &local, &mut pre, &bl, &gopts);
                (r.matvecs, r.converged)
            });
            let (nmv, converged) = out.results[0];
            assert!(converged, "{what} p={p}: did not converge");
            if p == 1 {
                assert_eq!(nmv, serial_nmv, "{what}: one rank is the serial solve");
            } else {
                assert!(
                    nmv <= dist_max,
                    "{what} p={p}: {nmv} matvecs, recorded band tops out at {dist_max}"
                );
            }
        }
    }
}

/// The full pipeline survives more ranks than occupied partitions: at
/// p=8 with a 5-row chain, three ranks own nothing and every collective
/// and replay must still line up.
#[test]
fn empty_ranks_run_the_full_pipeline() {
    // 5-node chain: -1 / 2 / -1.
    let mut coo = CooMatrix::new(5, 5);
    for i in 0..5usize {
        if i > 0 {
            coo.push(i, i - 1, -1.0);
        }
        coo.push(i, i, 2.0);
        if i < 4 {
            coo.push(i, i + 1, -1.0);
        }
    }
    let a = coo.to_csr();
    let x_true = vec![1.0, -2.0, 3.0, 0.5, -1.5];
    let b_global = a.spmv_owned(&x_true);
    let opts = IlutOptions::new(5, 0.0);
    let dm = DistMatrix::from_matrix(a, 8, 7);
    let out = Machine::run_checked(8, MachineModel::cray_t3d(), move |ctx| {
        let local = dm.local_view(ctx.rank());
        let rf = par_ilut(ctx, &dm, &local, &opts).unwrap();
        let plan = TrisolvePlan::build(ctx, &dm, &local, &rf);
        let b: Vec<f64> = local.nodes.iter().map(|&g| b_global[g]).collect();
        let x = dist_solve(ctx, &local, &rf, &plan, &b);
        (local.nodes.clone(), x)
    });
    let x = gather(5, out.results);
    for i in 0..5 {
        assert!(
            (x[i] - x_true[i]).abs() < 1e-10,
            "row {i}: {} vs {}",
            x[i],
            x_true[i]
        );
    }
}

//! Parity tests: the parallel triangular solve against the serial one on
//! a single rank, and the two sweeps composed across ranks.

use pilut_core::dist::{DistMatrix, Distribution, LocalView};
use pilut_core::options::IlutOptions;
use pilut_core::parallel::{par_ilut, RankFactors};
use pilut_core::serial::ilut;
use pilut_core::trisolve::{dist_solve_into, SolveScratch, TrisolvePlan};
use pilut_par::{Ctx, Machine, MachineModel};
use pilut_sparse::{gen, CooMatrix, CsrMatrix};

/// One forward + backward solve of `b` into a fresh vector.
fn solve(
    ctx: &mut Ctx,
    local: &LocalView,
    rf: &RankFactors,
    plan: &TrisolvePlan,
    b: &[f64],
) -> Vec<f64> {
    let mut scratch = SolveScratch::build(local, plan);
    let mut x = vec![0.0; local.len()];
    dist_solve_into(ctx, local, rf, plan, b, &mut scratch, &mut x);
    x
}

/// On one rank the parallel solve must agree with the serial factor solve
/// bit for bit: serial `ilut` is the one-rank `par_ilut`, the local-view
/// order is the natural order, and both sweep the one factor store row by
/// row in that order (DESIGN §2.5).
#[test]
fn single_rank_sweeps_match_serial() {
    let a = gen::convection_diffusion_2d(9, 9, 5.0, -2.0);
    let opts = IlutOptions::new(6, 1e-3);
    let serial = ilut(&a, &opts).unwrap();
    let b: Vec<f64> = (0..a.n_rows())
        .map(|i| ((i * 13) % 7) as f64 - 3.0)
        .collect();
    let x_serial = serial.solve(&b);

    let dm = DistMatrix::from_matrix(a, 1, 1);
    let out = Machine::run_checked(1, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(0);
        let rf = par_ilut(ctx, &dm, &local, &opts).unwrap();
        let plan = TrisolvePlan::build(ctx, &dm, &local, &rf);
        solve(ctx, &local, &rf, &plan, &b)
    });
    let x = &out.results[0];
    for i in 0..b.len() {
        assert_eq!(x[i].to_bits(), x_serial[i].to_bits(), "row {i}");
    }
}

/// Forward then backward across several ranks inverts the factored
/// operator exactly when nothing is dropped (complete LU).
#[test]
fn multi_rank_forward_backward_compose() {
    let a = gen::fem_torso(10, 4);
    let n = a.n_rows();
    let opts = IlutOptions::new(n, 0.0);
    let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64).collect();
    let b_global = a.spmv_owned(&x_true);
    let dm = DistMatrix::from_matrix(a, 4, 13);
    let out = Machine::run_checked(4, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        let rf = par_ilut(ctx, &dm, &local, &opts).unwrap();
        let plan = TrisolvePlan::build(ctx, &dm, &local, &rf);
        let b: Vec<f64> = local.nodes.iter().map(|&g| b_global[g]).collect();
        let x = solve(ctx, &local, &rf, &plan, &b);
        (local.nodes.clone(), x)
    });
    for (nodes, x) in out.results {
        for (g, v) in nodes.into_iter().zip(x) {
            assert!(
                (v - x_true[g]).abs() < 1e-7,
                "node {g}: {v} vs {}",
                x_true[g]
            );
        }
    }
}

/// The solve's simulated cost grows with the level count: the same problem
/// factored with a dense-reduced-matrix ILUT (more levels) must have a
/// costlier substitution than ILUT* (fewer levels) at equal machine model —
/// the paper's Table 2 effect.
#[test]
fn more_levels_cost_more_simulated_time() {
    let a = gen::laplace_3d(10, 10, 10);
    let p = 8;
    let time_of = |opts: IlutOptions| {
        let dm = DistMatrix::from_matrix(a.clone(), p, 17);
        let out = Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            let rf = par_ilut(ctx, &dm, &local, &opts).unwrap();
            let plan = TrisolvePlan::build(ctx, &dm, &local, &rf);
            let b = vec![1.0; local.len()];
            ctx.barrier();
            let t0 = ctx.time();
            solve(ctx, &local, &rf, &plan, &b);
            ctx.barrier();
            (ctx.time() - t0, rf.stats.levels)
        });
        let t = out.results.iter().map(|r| r.0).fold(0.0, f64::max);
        (t, out.results[0].1)
    };
    let (t_ilut, q_ilut) = time_of(IlutOptions::new(10, 1e-6));
    let (t_star, q_star) = time_of(IlutOptions::star(10, 1e-6, 2));
    assert!(
        q_ilut > q_star,
        "expected ILUT to need more levels: {q_ilut} vs {q_star}"
    );
    assert!(
        t_ilut > t_star,
        "substitution with more levels should cost more: {t_ilut} vs {t_star}"
    );
}

/// Sweep flops of one rank's rows: `2·nnz(L) + 2·nnz(U) + rows`, `U`
/// strict (`ParStats::nnz_u` counts the pivots).
fn sweep_flops(rf: &RankFactors) -> f64 {
    let (s, rows) = (&rf.stats, rf.n_rows());
    (2 * s.nnz_l + 2 * (s.nnz_u - rows) + rows) as f64
}

/// A receiver waits for its sender's level work. A path of 200 nodes on
/// rank 0 starts at the one node of rank 1: rank 0 holds 199 interiors and
/// the level-0 row, rank 1 only the level-1 row, whose `L` reads it. Rank
/// 0 pays its interiors and its level-0 row before it sends level 0, so
/// rank 1 cannot have that value before rank 0's clock has paid them.
#[test]
fn a_receiver_waits_for_its_senders_level_work() {
    let n: usize = 201;
    let (mut ptr, mut col, mut val) = (vec![0], Vec::new(), Vec::new());
    for i in 0..n {
        for j in i.saturating_sub(1)..(i + 2).min(n) {
            col.push(j as u32);
            val.push(if i == j { 4.0 } else { -1.0 });
        }
        ptr.push(col.len() as u32);
    }
    let a = CsrMatrix::from_raw(n, n, ptr, col, val);
    let part = (0..n).map(|i| usize::from(i == 0)).collect();
    let dm = DistMatrix::new(a, Distribution::from_part(part, 2));
    let opts = IlutOptions::new(n, 0.0);
    let model = MachineModel::cray_t3d();
    let out = Machine::run_checked(2, model, |ctx| {
        let local = dm.local_view(ctx.rank());
        let rf = par_ilut(ctx, &dm, &local, &opts).unwrap();
        let plan = TrisolvePlan::build(ctx, &dm, &local, &rf);
        let b = vec![1.0; local.len()];
        ctx.barrier();
        let t0 = ctx.time();
        solve(ctx, &local, &rf, &plan, &b);
        (rf, t0, ctx.time())
    });
    let [(rf0, t0, _), (rf1, _, t1)] = &out.results[..] else {
        panic!("two ranks")
    };
    assert_eq!(rf0.levels, [vec![1], vec![]], "rank 0 factors first");
    assert_eq!(rf1.levels, [vec![], vec![0]]);
    assert!(
        rf1.interior.is_empty() && rf1.stats.nnz_l == 1,
        "rank 1 reads rank 0"
    );
    // Rank 0's forward sweep is its interiors and its level-0 row.
    let paid = t0 + 2.0 * rf0.stats.nnz_l as f64 * model.flop_time;
    // Everything rank 1 pays comes after that receive, and nothing
    // arrives for it in the backward sweep (no `U` entry of its row).
    let received = t1 - sweep_flops(rf1) * model.flop_time;
    assert!(
        received >= paid,
        "rank 1 had rank 0's level-0 value at {received} s, before rank 0 paid for it at {paid} s"
    );
}

/// Every apply raises the machine's flop counter by exactly
/// `2·nnz(L) + 2·nnz(U) + rows` over all ranks, however the sweeps split
/// their charges.
#[test]
fn each_solve_charges_its_entries_and_divisions_exactly() {
    let dm = DistMatrix::from_matrix(gen::fem_torso(10, 4), 4, 13);
    let opts = IlutOptions::new(10, 1e-3);
    let run = |solves: usize| {
        let out = Machine::run_checked(4, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            let rf = par_ilut(ctx, &dm, &local, &opts).unwrap();
            let plan = TrisolvePlan::build(ctx, &dm, &local, &rf);
            let b = vec![1.0; local.len()];
            (0..solves).for_each(|_| drop(solve(ctx, &local, &rf, &plan, &b)));
            sweep_flops(&rf)
        });
        (out.stats.flops, out.results.iter().sum::<f64>())
    };
    let (before, per_apply) = run(0);
    assert!(per_apply > 0.0);
    for solves in 1..=3 {
        let (flops, _) = run(solves);
        assert_eq!(
            flops - before,
            solves as f64 * per_apply,
            "{solves} solve(s)"
        );
    }
}

/// A matrix with `4` on the diagonal and the listed off-diagonal entries.
fn matrix(n: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    (0..n).for_each(|i| coo.push(i, i, 4.0));
    entries.iter().for_each(|&(i, j, v)| coo.push(i, j, v));
    coo.to_csr()
}

/// One solve of `A` on two ranks (`part` per node) under ILUT(n, 1e-6)
/// with MIS seed `seed`: per rank its factors and its clock just before
/// and just after the solve.
#[expect(clippy::unwrap_used, reason = "a factor error fails the test")]
fn timed_solve(a: CsrMatrix, part: Vec<usize>, seed: u64) -> Vec<(RankFactors, f64, f64)> {
    let mut opts = IlutOptions::new(a.n_rows(), 1e-6);
    opts.seed = seed;
    let dm = DistMatrix::new(a, Distribution::from_part(part, 2));
    let out = Machine::run_checked(2, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        let rf = par_ilut(ctx, &dm, &local, &opts).unwrap();
        let plan = TrisolvePlan::build(ctx, &dm, &local, &rf);
        let b = vec![1.0; local.len()];
        ctx.barrier();
        let t0 = ctx.time();
        solve(ctx, &local, &rf, &plan, &b);
        (rf, t0, ctx.time())
    });
    out.results
}

/// A peer's batch ships before the level's rows that no peer reads. Rank
/// 0's level 0 holds `c`, whose `L` reads 100 interiors and which no peer
/// reads (rank 1's entry on it is dropped), and `d`, which rank 1's
/// level-1 row `a` reads. Rank 0 ships `d` first, so rank 1 has `d` before
/// rank 0 has paid for `c`.
#[test]
fn a_peer_batch_ships_before_rows_no_peer_reads() {
    let m = 100;
    let (c, d, a, b) = (0, m + 1, m + 2, m + 3);
    let mut entries = vec![(b, c, 1e-12), (a, d, -1.0), (d, a, -1.0)];
    for i in 1..=m {
        entries.extend([(i, c, -1.0), (c, i, -1.0)]);
    }
    let part = (0..m + 4).map(|i| usize::from(i == a || i == b)).collect();
    let out = timed_solve(matrix(m + 4, &entries), part, 2);
    let [(rf0, t0, _), (rf1, _, t1)] = &out[..] else {
        panic!("two ranks")
    };
    assert_eq!(rf0.levels, [vec![c, d], vec![]], "c and d share level 0");
    assert_eq!(rf1.levels, [vec![b], vec![a]]);
    assert_eq!(
        (rf0.stats.nnz_l, rf1.stats.nnz_l),
        (m, 1),
        "only a reads rank 0"
    );
    let flop = MachineModel::cray_t3d().flop_time;
    // Rank 0 has paid for `c` once it has paid its whole forward sweep.
    let paid = t0 + 2.0 * rf0.stats.nnz_l as f64 * flop;
    // Everything rank 1 pays comes after that receive, and it waits for
    // nothing else.
    let received = t1 - sweep_flops(rf1) * flop;
    assert!(
        received < paid,
        "rank 1 had rank 0's level-0 value at {received} s, after rank 0 paid for c at {paid} s"
    );
}

/// A batch is drained right before the first row that reads it. Rank 1's
/// level 1 holds `e`, whose `L` reads 100 interiors and the local `x`, and
/// `f`, which reads rank 0's level-0 row `g`. Rank 1 solves and pays for
/// `e` before it waits on `g`, so the message's latency hides behind `e`:
/// rank 1's solve takes less than that latency plus its own work.
#[test]
fn a_batch_is_drained_when_a_row_first_reads_it() {
    let m = 100;
    let (g, y, x, e, f) = (0, 1, m + 2, m + 3, m + 4);
    let mut entries = vec![(e, x, -1.0), (y, x, -1.0), (y, e, -1.0)];
    entries.extend([(f, g, -1.0), (g, f, -1.0)]);
    for i in 2..m + 2 {
        entries.extend([(i, e, -1.0), (e, i, -1.0)]);
    }
    let part = (0..m + 5).map(|i| usize::from(i >= 2)).collect();
    let out = timed_solve(matrix(m + 5, &entries), part, 0);
    let [(rf0, ..), (rf1, t0, t1)] = &out[..] else {
        panic!("two ranks")
    };
    assert_eq!(rf0.levels, [vec![g], vec![], vec![y]]);
    assert_eq!(
        rf1.levels,
        [vec![x], vec![e, f], vec![]],
        "e and f share level 1"
    );
    assert_eq!(rf1.stats.nnz_l, m + 2, "e reads no ghost, f reads g");
    let model = MachineModel::cray_t3d();
    let solo = model.latency + sweep_flops(rf1) * model.flop_time;
    assert!(
        t1 - t0 < solo,
        "rank 1's solve took {} s, not less than the latency plus its own work, {solo} s",
        t1 - t0
    );
}

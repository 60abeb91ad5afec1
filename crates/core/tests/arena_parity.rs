//! The flat factor store against a reference build of the same
//! factorization that keeps every row in a `HashMap` of `Vec` pairs (the
//! representation `RankFactors` had before the arenas): every arena row
//! must equal the reference row entry for entry, in the same order.
//!
//! The reference is deliberately the old, plain formulation — global
//! column ids in `(usize, f64)` pairs everywhere, no slot space — so
//! it shares nothing with the store it checks except the MIS and the
//! dropping rule. It visits reduced rows in ascending node order (any
//! order yields the same rows; this one also yields the same flop count).
//!
//! It is also the oracle for *when* the third dropping rule runs: the
//! reference re-selects the `m` largest multipliers of a row's `L` at the
//! end of **every level** that touched the row, as the paper's Algorithm
//! 4.2 is written, while `par_ilut` appends and selects when the row is
//! factored (and before that only to keep `L` within `2m` entries). Equal
//! rows are the proof that the deferral is exact. Only the reference's flop
//! meter follows the shipped charge — a selection over what the shipped `L`
//! holds at those moments (`l_held`) — so that the flop comparison keeps
//! checking every other term.

#![expect(
    clippy::disallowed_types,
    reason = "the reference keeps its rows in the HashMap the store replaced"
)]

use pilut_core::dist::exchange::{tags, AllPeers};
use pilut_core::dist::{DistMatrix, LocalView};
use pilut_core::options::IlutOptions;
use pilut_core::parallel::dist_mis::{build_level_links, dist_mis};
use pilut_core::parallel::par_ilut;
use pilut_core::serial::drop_rules::{
    keep_largest_multipliers, selection_cost, threshold_and_cap_in_place,
};
use pilut_core::serial::ilut_with_stats;
use pilut_core::LuFactors;
use pilut_par::collectives::ReduceOp;
use pilut_par::{Ctx, Machine, MachineModel, Payload};
use pilut_sparse::{gen, Entry, WorkRow};
use std::collections::{BTreeMap, HashMap};

/// The reference's `(column, value)` pairs through a dropping rule, which
/// selects among [`Entry`]s.
fn pairs_through(row: Vec<(usize, f64)>, rule: impl FnOnce(&mut Vec<Entry>)) -> Vec<(usize, f64)> {
    let mut entries = row.into_iter().map(|(c, v)| Entry::new(c, v)).collect();
    rule(&mut entries);
    pairs(entries)
}

fn pairs(row: Vec<Entry>) -> Vec<(usize, f64)> {
    row.into_iter().map(|e| (e.col(), e.val())).collect()
}

/// `threshold_and_cap_in_place` over pairs.
fn cap(row: Vec<(usize, f64)>, tau_i: f64, cap: usize, keep: Option<usize>) -> Vec<(usize, f64)> {
    pairs_through(row, |e| threshold_and_cap_in_place(e, tau_i, cap, keep))
}

/// `keep_largest_multipliers` over pairs.
fn keep_largest(row: &mut Vec<(usize, f64)>, tau_i: f64, m: usize) {
    *row = pairs_through(std::mem::take(row), |e| {
        keep_largest_multipliers(e, tau_i, m)
    });
}

#[derive(Clone, Debug, Default, PartialEq)]
struct RefRow {
    l: Vec<(usize, f64)>,
    diag: f64,
    u: Vec<(usize, f64)>,
}

struct Reference {
    rows: HashMap<usize, RefRow>,
    levels: Vec<Vec<usize>>,
    flops: f64,
}

/// Eliminates the eligible interior pivots of the row scattered in `w`,
/// smallest id first (fill landing on an eligible column joins in), and
/// returns the surviving multipliers; their positions leave `w`.
fn eliminate(
    w: &mut WorkRow,
    rows: &HashMap<usize, RefRow>,
    eligible: impl Fn(usize) -> bool,
    tau_i: f64,
    flops: &mut f64,
) -> Vec<(usize, f64)> {
    let mut mults = Vec::new();
    while let Some(k) = w.positions().filter(|&j| eligible(j)).min() {
        let wk = w.get(k);
        w.drop_pos(k);
        if wk == 0.0 {
            continue;
        }
        let urow = &rows[&k];
        let mult = wk / urow.diag;
        *flops += 1.0;
        if mult.abs() < tau_i {
            continue;
        }
        for &(j, uv) in &urow.u {
            w.add(j, -mult * uv);
        }
        *flops += 2.0 * urow.u.len() as f64;
        mults.push((k, mult));
    }
    mults
}

/// The reference factorization (no breakdown handling: the test matrices
/// factor cleanly, and a zero pivot would show up as a non-finite row).
#[expect(
    clippy::expect_used,
    reason = "a missing row is a reference bug the test reports"
)]
fn reference_par_ilut(
    ctx: &mut Ctx,
    dm: &DistMatrix,
    local: &LocalView,
    opts: &IlutOptions,
) -> Reference {
    let a = dm.matrix();
    let n = dm.n();
    let interior = |j: usize| local.interior.binary_search(&j).is_ok();
    let mut rows: HashMap<usize, RefRow> = HashMap::new();
    let mut flops = 0.0;
    let mut w = WorkRow::new(n);

    for &i in &local.interior {
        let tau_i = opts.tau * a.row_norm2(i);
        let (cols, vals) = a.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            w.set(j as usize, v);
        }
        let lower = eliminate(&mut w, &rows, |j| interior(j) && j < i, tau_i, &mut flops);
        let entries = pairs(w.drain_sorted());
        flops += selection_cost(entries.len() + lower.len());
        let diag = entries.iter().find(|&&(j, _)| j == i).map(|&(_, v)| v);
        let upper = entries.into_iter().filter(|&(j, _)| j != i).collect();
        let row = RefRow {
            l: cap(lower, tau_i, opts.m, None),
            diag: diag.expect("test matrices keep their diagonal"),
            u: cap(upper, tau_i, opts.m, None),
        };
        rows.insert(i, row);
    }

    let mut reduced: BTreeMap<usize, Vec<(usize, f64)>> = BTreeMap::new();
    let mut tau_of: HashMap<usize, f64> = HashMap::new();
    // Length of the shipped code's staged `L`, per row: the phase-1 cut
    // plus the multipliers appended since its last selection.
    let mut l_held: HashMap<usize, usize> = HashMap::new();
    for &i in &local.interface {
        let tau_i = opts.tau * a.row_norm2(i);
        tau_of.insert(i, tau_i);
        let (cols, vals) = a.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            w.set(j as usize, v);
        }
        let lower = eliminate(&mut w, &rows, interior, tau_i, &mut flops);
        let rest = pairs(w.drain_sorted());
        flops += selection_cost(rest.len() + lower.len());
        let mut lower = lower;
        keep_largest(&mut lower, tau_i, opts.m);
        let row = RefRow {
            l: lower,
            ..RefRow::default()
        };
        l_held.insert(i, row.l.len());
        rows.insert(i, row);
        reduced.insert(i, cap(rest, tau_i, opts.reduced_cap(), Some(i)));
    }

    let mut levels: Vec<Vec<usize>> = Vec::new();
    loop {
        let left = ctx.all_reduce_u64(vec![reduced.len() as u64], ReduceOp::Sum)[0];
        if left == 0 {
            break;
        }
        let reduced_cols: HashMap<usize, Vec<usize>> = reduced
            .iter()
            .map(|(&v, row)| (v, row.iter().map(|&(c, _)| c).collect()))
            .collect();
        let plan = build_level_links(ctx, dm.dist(), &reduced_cols);
        let level = levels.len() as u64;
        let mis = dist_mis(ctx, &plan, &reduced_cols, opts.seed, level, opts.mis_rounds)
            .expect("dist_mis failed");

        for &v in &mis.my_in {
            let rr = reduced.remove(&v).expect("member without a reduced row");
            let row = rows.get_mut(&v).expect("interface row missing");
            row.diag = rr.iter().find(|&&(c, _)| c == v).expect("pivot").1;
            let off = rr.into_iter().filter(|&(c, _)| c != v).collect();
            row.u = cap(off, tau_of[&v], opts.m, None);
            flops += selection_cost(l_held[&v]) + selection_cost(row.u.len());
        }
        levels.push(mis.my_in.clone());

        let mut remote_u: HashMap<usize, RefRow> = HashMap::new();
        plan.exact_round(
            ctx,
            tags::UROWS,
            &AllPeers,
            &AllPeers,
            |_, nodes| {
                let (mut bu, mut bf) = (Vec::new(), Vec::new());
                for &v in nodes.iter().filter(|v| mis.my_in.contains(v)) {
                    let row = &rows[&v];
                    bu.push(v as u64);
                    bu.push(row.u.len() as u64);
                    bu.extend(row.u.iter().map(|&(c, _)| c as u64));
                    bf.push(row.diag);
                    bf.extend(row.u.iter().map(|&(_, x)| x));
                }
                Payload::mixed(bu, bf)
            },
            |_, _, payload| {
                let (bu, bf) = payload.into_mixed();
                let (mut iu, mut ifl) = (0usize, 0usize);
                while iu < bu.len() {
                    let (node, len) = (bu[iu] as usize, bu[iu + 1] as usize);
                    let cols = bu[iu + 2..iu + 2 + len].iter().map(|&c| c as usize);
                    let vals = bf[ifl + 1..ifl + 1 + len].iter().copied();
                    let row = RefRow {
                        l: Vec::new(),
                        diag: bf[ifl],
                        u: cols.zip(vals).collect(),
                    };
                    remote_u.insert(node, row);
                    iu += 2 + len;
                    ifl += 1 + len;
                }
            },
        );

        let in_level = |j: usize| mis.my_in.contains(&j) || mis.remote_in.contains(&j);
        let remaining: Vec<usize> = reduced.keys().copied().collect();
        for i in remaining {
            let tau_i = tau_of[&i];
            let pivots: Vec<usize> = reduced[&i]
                .iter()
                .map(|&(c, _)| c)
                .filter(|&c| c != i && in_level(c))
                .collect();
            if pivots.is_empty() {
                continue;
            }
            for (c, v) in reduced.remove(&i).expect("row present") {
                w.set(c, v);
            }
            let mut lmerge = std::mem::take(&mut rows.get_mut(&i).expect("row").l);
            let kept = lmerge.len();
            for k in pivots {
                let urow = rows.get(&k).or_else(|| remote_u.get(&k)).expect("U row");
                let wk = w.get(k);
                w.drop_pos(k);
                if wk == 0.0 {
                    continue;
                }
                let mult = wk / urow.diag;
                flops += 1.0;
                if mult.abs() < tau_i {
                    continue;
                }
                for &(j, uv) in &urow.u {
                    w.add(j, -mult * uv);
                }
                flops += 2.0 * urow.u.len() as f64;
                lmerge.push((k, mult));
            }
            let (held, new) = (l_held.get_mut(&i).expect("row"), lmerge.len() - kept);
            if *held + new > 2 * opts.m {
                flops += selection_cost(*held);
                *held = opts.m.min(*held);
            }
            *held += new;
            keep_largest(&mut lmerge, tau_i, opts.m);
            rows.get_mut(&i).expect("row").l = lmerge;
            let rest = pairs(w.drain_sorted());
            reduced.insert(i, cap(rest, tau_i, opts.reduced_cap(), Some(i)));
        }
    }
    Reference {
        rows,
        levels,
        flops,
    }
}

/// Row `i` of a serial-form factor in the reference's shape.
fn lu_row(f: &LuFactors, i: usize) -> RefRow {
    RefRow {
        l: f.l_row(i).collect(),
        diag: f.diag(i),
        u: f.u_row(i).collect(),
    }
}

#[test]
fn arena_rows_equal_the_reference_hashmap_build() {
    let a = gen::fem_torso(10, 3);
    for opts in [IlutOptions::new(8, 1e-4), IlutOptions::star(8, 1e-4, 2)] {
        for p in [1, 2, 4, 8] {
            let dm = DistMatrix::from_matrix(a.clone(), p, 17);
            let out = Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| {
                let local = dm.local_view(ctx.rank());
                let rf = par_ilut(ctx, &dm, &local, &opts).expect("factorization failed");
                (rf, reference_par_ilut(ctx, &dm, &local, &opts))
            });
            let mut covered = 0;
            for (rf, reference) in &out.results {
                let what = format!("{} p={p} rank {}", opts.name(), rf.rank);
                assert_eq!(rf.levels, reference.levels, "{what}: levels");
                assert_eq!(rf.stats.flops, reference.flops, "{what}: flops");
                assert_eq!(rf.n_rows(), reference.rows.len(), "{what}: row count");
                for (g, row) in rf.rows() {
                    let got = RefRow {
                        l: row.l().collect(),
                        diag: row.diag(),
                        u: row.u().collect(),
                    };
                    assert_eq!(got, reference.rows[&g], "{what}: row {g}");
                    assert_eq!(rf.row(g).map(|r| r.diag()), Some(got.diag));
                    covered += 1;
                }
                // Every ghost is referenced, none is owned, ascending.
                assert!(rf.ghosts.windows(2).all(|w| w[0] < w[1]), "{what}");
                assert!(rf.ghosts.iter().all(|&g| rf.row(g).is_none()), "{what}");
            }
            assert_eq!(covered, a.n_rows(), "p={p}: every row exactly once");
            if p > 1 {
                continue;
            }
            // One rank: serial `ilut` is one more subject of the same
            // reference, and the lone rank's rows (checked against it above)
            // come in natural order — local-view order is elimination order.
            let (rf, reference) = &out.results[0];
            let (serial, stats) = ilut_with_stats(&a, &opts).expect("serial ilut failed");
            assert_eq!(
                stats.flops,
                reference.flops,
                "{}: serial flops",
                opts.name()
            );
            for (i, (g, _)) in rf.rows().enumerate() {
                assert_eq!(g, i, "one rank eliminates in natural order");
                assert_eq!(lu_row(&serial, i), reference.rows[&i], "serial row {i}");
            }
        }
    }
}

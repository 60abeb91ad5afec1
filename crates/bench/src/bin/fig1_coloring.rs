//! Figure 1 — why ILU(0)'s colouring schedule breaks down for ILUT.
//!
//! ILU(0) never fills, so a one-time colouring of the interface nodes (in
//! the original pattern) yields valid concurrent elimination classes. ILUT
//! creates fill while the interior nodes factor, adding new dependencies
//! among the interface nodes; this binary measures them: same-colour node
//! pairs that the initial reduced matrix `A_I⁰` now couples.
//!
//! Usage: `cargo run --release -p pilut-bench --bin fig1_coloring`

use pilut_core::dist::DistMatrix;
use pilut_core::options::IlutOptions;
use pilut_core::parallel::par_ilut;
use pilut_graph::coloring::{color_classes, greedy_coloring};
use pilut_graph::Graph;
use pilut_par::{Machine, MachineModel};
use pilut_sparse::gen;
use std::collections::HashMap;

fn main() {
    let p = 4;
    let a = gen::laplace_2d(24, 24);
    let dm = DistMatrix::from_matrix(a.clone(), p, 17);

    // Interface nodes and their induced subgraph in the *original* pattern.
    let mut interface: Vec<usize> = Vec::new();
    for r in 0..p {
        interface.extend_from_slice(&dm.local_view(r).interface);
    }
    interface.sort_unstable();
    let sub = a.principal_submatrix(&interface);
    let g = Graph::from_csr_pattern(&sub);
    let (colors, nc) = greedy_coloring(&g);
    let classes = color_classes(&colors, nc);

    println!("## Figure 1 — ILU(0) colouring vs ILUT fill dependencies\n");
    println!(
        "24x24 grid, {p} domains, {} interface nodes.",
        interface.len()
    );
    println!("\n(a) ILU(0): one colouring schedules the whole interface elimination:");
    for (c, class) in classes.iter().enumerate() {
        println!("    colour {c}: {:3} nodes", class.len());
    }

    // The ILUT reduced matrix adds fill-induced dependencies.
    let opts = IlutOptions::new(10, 1e-6);
    let out = Machine::run(p, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        let rf = par_ilut(ctx, &dm, &local, &opts).unwrap();
        (rf.initial_reduced_cols.clone(), rf.stats.levels)
    });
    let pos: HashMap<usize, usize> = interface.iter().enumerate().map(|(k, &v)| (v, k)).collect();
    let mut original_arcs = 0usize;
    let mut fill_arcs = 0usize;
    let mut same_color_conflicts = 0usize;
    for (rows, _) in &out.results {
        for (v, cols) in rows {
            for &u in cols {
                if u == *v {
                    continue;
                }
                if a.get(*v, u).is_some() {
                    original_arcs += 1;
                } else {
                    fill_arcs += 1;
                    if colors[pos[v]] == colors[pos[&u]] {
                        same_color_conflicts += 1;
                    }
                }
            }
        }
    }
    let q = out.results[0].1;
    println!(
        "\n(b) ILUT({},{:.0e}) after interior elimination:",
        opts.m, opts.tau
    );
    println!("    original interface couplings : {original_arcs}");
    println!("    fill-added couplings         : {fill_arcs}");
    println!("    …of which join SAME-colour pairs: {same_color_conflicts}");
    println!("\n=> the static {nc}-colour schedule is invalid for ILUT;");
    println!("   the parallel ILUT run instead needed q = {q} dynamically computed");
    println!("   independent sets (paper Figure 1b / Section 3).");
}

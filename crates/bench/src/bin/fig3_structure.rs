//! Figure 3 — the block structure of the permuted triangular factors.
//!
//! Orders the unknowns the way the parallel factorization eliminates them
//! (each rank's interiors, then the interface levels) and prints the
//! resulting block-density maps of L and U: rows/columns grouped into one
//! block per rank-interior set and one per level. The paper's Figure 3 is
//! exactly this picture for 4 processors and 2 independent sets.
//!
//! Usage: `cargo run --release -p pilut-bench --bin fig3_structure`

use pilut_core::dist::DistMatrix;
use pilut_core::options::IlutOptions;
use pilut_core::parallel::{par_ilut, RankFactors};
use pilut_par::{Machine, MachineModel};
use pilut_sparse::gen;
use std::collections::HashMap;

fn main() {
    let p = 4;
    let a = gen::laplace_2d(16, 16);
    let dm = DistMatrix::from_matrix(a.clone(), p, 17);
    let opts = IlutOptions::new(8, 1e-3);
    let out = Machine::run(p, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        par_ilut(ctx, &dm, &local, &opts).unwrap()
    });
    let factors: Vec<RankFactors> = out.results;
    let q = factors[0].levels.len();

    // Block index per node: blocks 0..p are rank interiors, p+l is level l.
    let mut block_of: HashMap<usize, usize> = HashMap::new();
    let mut block_names: Vec<String> = Vec::new();
    for (r, f) in factors.iter().enumerate() {
        for &v in &f.interior {
            block_of.insert(v, r);
        }
        block_names.push(format!("P{r} int"));
    }
    for l in 0..q {
        for f in &factors {
            for &v in &f.levels[l] {
                block_of.insert(v, p + l);
            }
        }
        block_names.push(format!("I_{l}"));
    }
    let nb = p + q;
    let mut l_blocks = vec![vec![0usize; nb]; nb];
    let mut u_blocks = vec![vec![0usize; nb]; nb];
    for f in &factors {
        for (v, row) in f.rows() {
            let bv = block_of[&v];
            for (j, _) in row.l() {
                l_blocks[bv][block_of[&j]] += 1;
            }
            for (j, _) in row.u() {
                u_blocks[bv][block_of[&j]] += 1;
            }
            u_blocks[bv][bv] += 1; // diagonal
        }
    }

    println!("## Figure 3 — block structure of the permuted L and U factors\n");
    println!("16x16 grid, {p} processors, q = {q} independent sets.");
    println!("Cell values are nonzero counts; '.' is an empty block.\n");
    for (title, blocks) in [("L (lower)", &l_blocks), ("U (upper)", &u_blocks)] {
        println!("{title}:");
        print!("{:>9}", "");
        for name in &block_names {
            print!("{name:>9}");
        }
        println!();
        for (bi, row) in blocks.iter().enumerate() {
            print!("{:>9}", block_names[bi]);
            for &c in row {
                if c == 0 {
                    print!("{:>9}", ".");
                } else {
                    print!("{c:>9}");
                }
            }
            println!();
        }
        println!();
    }
    println!("Reading the map: interior blocks are block-diagonal (each processor's");
    println!("own elimination); every interface level couples only to earlier blocks");
    println!("in L and later blocks in U — the paper's colour-coded wedge structure.");
}

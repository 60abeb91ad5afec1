//! Matrix Market workflow: persist a generated problem, read it back, and
//! compare ILU(0) and ILUT preconditioners on it — the way one would
//! use the library on an external matrix file.
//!
//! Run with: `cargo run --release --example matrix_market [path/to/matrix.mtx]`

use pilut::core::precond::IluPreconditioner;
use pilut::core::serial::{ilu0, ilut, IlutOptions};
use pilut::solver::gmres::{gmres, GmresOptions};
use pilut::sparse::{gen, io};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Use a supplied file, or generate + round-trip one through the reader.
    let a = match std::env::args().nth(1) {
        Some(path) => {
            println!("reading {path} …");
            io::read_matrix_market_file(&path)?
        }
        None => {
            let a = gen::convection_diffusion_2d(48, 48, 20.0, 8.0);
            let path = std::env::temp_dir().join("pilut_example.mtx");
            io::write_matrix_market_file(&a, &path)?;
            println!("no file given — wrote and re-read {}", path.display());
            io::read_matrix_market_file(&path)?
        }
    };
    println!(
        "matrix: {} x {}, {} nonzeros",
        a.n_rows(),
        a.n_cols(),
        a.nnz()
    );
    println!("{}\n", pilut::sparse::MatrixStats::of(&a));

    let b = a.spmv_owned(&vec![1.0; a.n_rows()]);
    let opts = GmresOptions {
        restart: 30,
        rtol: 1e-7,
        max_matvecs: 4000,
    };
    let report = |label: &str, factors: pilut::core::LuFactors| {
        let fill = factors.nnz();
        let r = gmres(&a, &b, &IluPreconditioner::new(factors), &opts);
        println!(
            "{:<16} fill = {:>8} ({:.2}x A)   NMV = {:>5}   converged = {}",
            label,
            fill,
            fill as f64 / a.nnz() as f64,
            r.matvecs,
            r.converged
        );
    };
    report("ILU(0)", ilu0(&a)?);
    report("ILUT(5,1e-2)", ilut(&a, &IlutOptions::new(5, 1e-2))?);
    report("ILUT(10,1e-4)", ilut(&a, &IlutOptions::new(10, 1e-4))?);
    println!("\n(threshold dropping adapts fill to the values, which a static");
    println!(" pattern such as ILU(0)'s cannot — §2)");
    Ok(())
}

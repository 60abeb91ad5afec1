//! Quickstart: factor a convection–diffusion matrix with ILUT and solve
//! with preconditioned GMRES — the serial core of the library in ~30 lines.
//!
//! Run with: `cargo run --release --example quickstart`

use pilut::core::precond::{DiagonalPreconditioner, IluPreconditioner};
use pilut::core::serial::{ilut, IlutOptions};
use pilut::solver::gmres::{gmres, GmresOptions};
use pilut::sparse::gen;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // -Δu + 10 u_x + 20 u_y on a 60x60 interior grid (3600 unknowns).
    let a = gen::convection_diffusion_2d(60, 60, 10.0, 20.0);
    println!("matrix: {} unknowns, {} nonzeros", a.n_rows(), a.nnz());

    // Manufactured solution x = 1, right-hand side b = A·1.
    let b = a.spmv_owned(&vec![1.0; a.n_rows()]);
    let opts = GmresOptions {
        restart: 10,
        rtol: 1e-7,
        max_matvecs: 5000,
    };

    // Baseline: diagonal (Jacobi) preconditioning.
    let diag = DiagonalPreconditioner::new(&a);
    let r0 = gmres(&a, &b, &diag, &opts);
    println!(
        "GMRES(10) + diagonal : {} matvecs, converged = {}",
        r0.matvecs, r0.converged
    );

    // ILUT(10, 1e-4): threshold dropping + per-row fill cap.
    let factors = ilut(&a, &IlutOptions::new(10, 1e-4))?;
    println!(
        "ILUT(10,1e-4)        : {} nonzeros in L+U ({:.2}x the matrix)",
        factors.nnz(),
        factors.nnz() as f64 / a.nnz() as f64
    );
    let r1 = gmres(&a, &b, &IluPreconditioner::new(factors), &opts);
    println!(
        "GMRES(10) + ILUT(10,1e-4) : {} matvecs, converged = {}",
        r1.matvecs, r1.converged
    );
    println!(
        "speedup in iterations: {:.1}x",
        r0.matvecs as f64 / r1.matvecs as f64
    );
    Ok(())
}

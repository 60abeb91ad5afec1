//! Seeded input generation and the correctness check of one solved system.
//!
//! The library under test receives only what is generated here: the matrix,
//! the right-hand side `b = A·x_true` and the partition seed.

use crate::spec::{Input, Workload};
use pilut::sparse::{gen, CsrMatrix, SplitMix64};

/// Problem instances per run, each measured in a process of its own, one
/// after the other. The partition seed and the torso renumbering move the
/// simulated times and the fill of one instance by 4-5 %, so a run reports
/// their mean over this many; every process is also one more sample of
/// `setup_s` and of the printed wall times.
pub const INSTANCES: usize = 3;

/// True relative residual above which a rep counts as failed.
pub const MAX_TRUE_RESIDUAL: f64 = 1e-6;
/// `‖x − x_true‖∞ / ‖x_true‖∞` above which a rep counts as failed.
pub const MAX_REL_ERROR: f64 = 1e-4;

/// One problem instance: everything a workload hands to the pipeline.
pub struct Inputs {
    pub a: CsrMatrix,
    pub x_true: Vec<f64>,
    pub b: Vec<f64>,
    pub partition_seed: u64,
}

/// Generates instance `index` of `w` from `seed`. `quick` shrinks the
/// matrices to smoke-test size; reported numbers never use it.
pub fn generate(w: &Workload, seed: u64, index: usize, quick: bool) -> Inputs {
    let seed = fold(seed, index as u64);
    let a = match (w.input, quick) {
        (Input::G40, false) => gen::g40(6),
        (Input::G40, true) => gen::g40(1),
        (Input::Torso, false) => gen::fem_torso(40, seed),
        (Input::Torso, true) => gen::fem_torso(12, seed),
    };
    // The paper's right-hand side is b = A·e; the seed perturbs e by up to
    // 10 % per entry. A fully random x_true moves the matvec count by ±15 %
    // from seed to seed on G40, which would swamp every bound; this one
    // leaves it where b = A·e puts it. The stream is not the one that
    // renumbers the torso.
    let mut rng = SplitMix64::new(seed ^ 0x785f_7472_7565);
    let x_true: Vec<f64> = (0..a.n_rows())
        .map(|_| 1.0 + rng.range_f64(-0.1, 0.1))
        .collect();
    let b = a.spmv_owned(&x_true);
    Inputs {
        a,
        x_true,
        b,
        partition_seed: seed,
    }
}

/// What the check measured on one solution.
#[derive(Clone, Copy, Debug)]
pub struct Accuracy {
    /// `‖b − A·x‖₂ / ‖b‖₂`, recomputed serially.
    pub true_rel_residual: f64,
    /// `‖x − x_true‖∞ / ‖x_true‖∞`.
    pub rel_error_inf: f64,
}

impl Accuracy {
    /// True when both figures are inside the benchmark's limits (a NaN is
    /// outside).
    pub fn ok(&self) -> bool {
        self.true_rel_residual <= MAX_TRUE_RESIDUAL && self.rel_error_inf <= MAX_REL_ERROR
    }
}

/// Measures a gathered solution against the generated system.
pub fn accuracy(inp: &Inputs, x: &[f64]) -> Accuracy {
    let ax = inp.a.spmv_owned(x);
    let r = norm2(inp.b.iter().zip(&ax).map(|(b, y)| b - y));
    let b = norm2(inp.b.iter().copied());
    let e = norm_inf(x.iter().zip(&inp.x_true).map(|(x, t)| x - t));
    let t = norm_inf(inp.x_true.iter().copied());
    Accuracy {
        true_rel_residual: r / b,
        rel_error_inf: e / t,
    }
}

fn norm2(v: impl Iterator<Item = f64>) -> f64 {
    v.map(|t| t * t).sum::<f64>().sqrt()
}

/// The largest magnitude; a NaN entry makes the result NaN.
fn norm_inf(v: impl Iterator<Item = f64>) -> f64 {
    v.fold(0.0, |m, t| if t.is_nan() { t } else { m.max(t.abs()) })
}

/// Folds one word into a running fingerprint (SplitMix64 finaliser).
pub fn fold(h: u64, v: u64) -> u64 {
    let mut z = (h ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Bit-fingerprint of a solution: every bit of `x` and the matvec count.
pub fn fingerprint(x: &[f64], matvecs: usize) -> u64 {
    let h = x.iter().fold(0u64, |h, v| fold(h, v.to_bits()));
    fold(h, matvecs as u64)
}

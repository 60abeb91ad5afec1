//! Shared infrastructure for the seeded sweep suites (`xtask chaos`,
//! `xtask schedcheck`, `xtask modelcheck`): the workload table and runner,
//! result fingerprinting, the trial matrices, checksum folding, panic-text
//! extraction, and the generic first-failing shrink loop. Each suite keeps
//! only its own sweep policy (what to perturb, how to classify outcomes):
//! chaos throws fault plans at `factor` and `trisolve`, schedcheck and
//! modelcheck perturb schedules under all five.

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use pilut_core::dist::op::{DistCsr, DistOperator};
use pilut_core::dist::{DistMatrix, Distribution};
use pilut_core::options::IlutOptions;
use pilut_core::parallel::dist_mis::{build_level_links, dist_mis};
use pilut_core::parallel::par_ilut;
use pilut_core::trisolve::{dist_solve, TrisolvePlan};
use pilut_par::{Machine, MachineBuilder, MachineModel};
use pilut_solver::dist_gmres::{dist_gmres, DistIlu};
use pilut_solver::gmres::GmresOptions;
use pilut_sparse::gen;

/// splitmix64 — the same mixer the fault layer uses, so seeded parameters
/// are well spread without any external RNG crate; also the fold step of
/// the result checksums.
pub fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Folds one word into a running checksum (order-sensitive).
pub fn fold(h: &mut u64, v: u64) {
    *h ^= v;
    *h = mix(h);
}

/// Everything a deterministic run must reproduce bit-for-bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// One checksum per rank over the rank's full result (factor entries or
    /// solution components, in deterministic order, via `f64::to_bits`).
    pub rank_sums: Vec<u64>,
    /// Total messages across all ranks.
    pub messages: u64,
    /// Total bytes across all ranks.
    pub bytes: u64,
    /// Per-tag `(messages, bytes)` totals.
    pub by_tag: BTreeMap<u64, (u64, u64)>,
}

impl Fingerprint {
    /// Describes the first component where `self` and `other` differ, or
    /// `None` when identical. One line, precise enough to aim a debugger.
    pub fn diff(&self, other: &Fingerprint) -> Option<String> {
        for (r, (a, b)) in self.rank_sums.iter().zip(&other.rank_sums).enumerate() {
            if a != b {
                return Some(format!("rank {r} checksum {a:#018x} != {b:#018x}"));
            }
        }
        if self.messages != other.messages || self.bytes != other.bytes {
            return Some(format!(
                "traffic totals ({}, {} bytes) != ({}, {} bytes)",
                self.messages, self.bytes, other.messages, other.bytes
            ));
        }
        for (tag, a) in &self.by_tag {
            let b = other.by_tag.get(tag);
            if b != Some(a) {
                return Some(format!("tag {tag:#x} counters {a:?} != {b:?}"));
            }
        }
        for tag in other.by_tag.keys() {
            if !self.by_tag.contains_key(tag) {
                return Some(format!("tag {tag:#x} present only in the perturbed run"));
            }
        }
        None
    }
}

/// The sweep matrix shared by chaos and schedcheck: big enough that every
/// rank owns interior rows at p = 8, small enough that a full sweep stays
/// in seconds.
pub fn dist_matrix(p: usize) -> DistMatrix {
    DistMatrix::from_matrix(gen::laplace_2d(12, 12), p, 17)
}

/// The model-checker matrices: tiny, block-partitioned so every rank has
/// at most two exchange peers — which is what keeps the *product* of
/// per-receive match choices (the DPOR-reduced schedule count) enumerable.
/// `grid` picks a 1-D chain Laplacian (`false`) or a small 2-D grid
/// (`true`); both are the same operator family the big sweeps factor.
pub fn tiny_matrix(p: usize, grid: bool) -> DistMatrix {
    let a = if grid {
        gen::laplace_2d(3, 3)
    } else {
        gen::laplace_2d(2 * p, 1)
    };
    let n = a.n_rows();
    DistMatrix::new(a, Distribution::block(n, p))
}

/// The drop/fill options every sweep workload factors with.
pub fn ilut_options() -> IlutOptions {
    IlutOptions::new(5, 1e-4)
}

/// The checked machine configuration every sweep trial runs under; suites
/// layer their perturbation (fault plan, schedule script) on top.
pub fn checked_builder() -> MachineBuilder {
    Machine::builder(MachineModel::cray_t3d())
        .checked(true)
        .watchdog_poll(Duration::from_millis(2))
}

/// Checksums one rank's full factorization: every retained entry of L, the
/// pivot, and every retained entry of U, in local-view row order.
pub fn factor_checksum(rf: &pilut_core::parallel::RankFactors) -> u64 {
    let mut h = 0x5eed_0001u64;
    for (g, row) in rf.rows() {
        fold(&mut h, g as u64);
        for (c, v) in row.l() {
            fold(&mut h, c as u64);
            fold(&mut h, v.to_bits());
        }
        fold(&mut h, row.diag().to_bits());
        for (c, v) in row.u() {
            fold(&mut h, c as u64);
            fold(&mut h, v.to_bits());
        }
    }
    h
}

/// Checksums a local vector component-wise (local-view order is
/// deterministic per rank).
pub fn vector_checksum(x: &[f64]) -> u64 {
    let mut h = 0x5eed_0002u64;
    for v in x {
        fold(&mut h, v.to_bits());
    }
    h
}

/// Extracts a printable message from a caught panic payload.
pub fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| {
            payload
                .downcast_ref::<&'static str>()
                .map(|s| s.to_string())
        })
        .unwrap_or_else(|| "<non-string panic payload>".into())
}

/// Runs one fingerprinted workload on `builder`'s machine and returns its
/// fingerprint, with the number of injected faults that fired next to it
/// (zero without a fault plan). Panics propagate to the caller for
/// classification.
///
/// * `spmv` — plan-build plus repeated matvec replay (no factorization);
/// * `mis` — the delta-protocol MIS rounds in isolation (link build,
///   baseline exceptions, tentative/confirm/kill framing, dead-link
///   pruning), checksummed over both selection vectors;
/// * `factor` — the parallel ILUT factorization, checksummed entry-wise;
/// * `trisolve` — factor, then chained matvec + two-sweep solves;
/// * `gmres` — the preconditioned iteration with its reduction traffic.
pub fn run_workload(
    work: &str,
    dm: &DistMatrix,
    p: usize,
    builder: MachineBuilder,
) -> (Fingerprint, usize) {
    let opts = ilut_options();
    let out = builder.run(p, |ctx| {
        let local = dm.local_view(ctx.rank());
        if work == "spmv" {
            let mut op = DistCsr::new(ctx, dm, &local);
            let mut x: Vec<f64> = (0..local.len()).map(|i| 1.0 + i as f64).collect();
            for _ in 0..3 {
                x = op.apply(ctx, &x);
            }
            return vector_checksum(&x);
        }
        if work == "mis" {
            // The MIS kernel on the raw matrix adjacency of my owned rows
            // — the same call sequence the factorization's level loop
            // makes, without the elimination around it, so schedule and
            // fault perturbations aim squarely at the delta protocol.
            let reduced_cols: HashMap<usize, Vec<usize>> = dm
                .dist()
                .rows_of(ctx.rank())
                .iter()
                .map(|&g| (g, dm.matrix().row(g).0.to_vec()))
                .collect();
            let plan = build_level_links(ctx, dm.dist(), &reduced_cols);
            let mis = dist_mis(ctx, &plan, &reduced_cols, 0x5eed, 0, 5)
                // lint: allow(unwrap): sweep frames are well-formed by construction; a protocol error here is a real bug
                .expect("sweep MIS must decode its own frames");
            let mut h = 0x5eed_0003u64;
            for v in &mis.my_in {
                fold(&mut h, *v as u64);
            }
            for v in &mis.remote_in {
                fold(&mut h, *v as u64);
            }
            return h;
        }
        // lint: allow(unwrap): the sweep matrices factor cleanly; corrupted runs die in the VM's diagnosis
        let rf = par_ilut(ctx, dm, &local, &opts).expect("sweep workload must factor");
        match work {
            "factor" => factor_checksum(&rf),
            "trisolve" => {
                let tplan = TrisolvePlan::build(ctx, dm, &local, &rf);
                let mut op = DistCsr::new(ctx, dm, &local);
                // Chain matvec + two-sweep solves so any divergence
                // compounds instead of cancelling.
                let mut x = vec![1.0; local.len()];
                for _ in 0..3 {
                    let y = op.apply(ctx, &x);
                    x = dist_solve(ctx, &local, &rf, &tplan, &y);
                }
                vector_checksum(&x)
            }
            "gmres" => {
                let mut op = DistCsr::new(ctx, dm, &local);
                let mut pre = DistIlu::new(ctx, dm, &local, rf);
                let b = vec![1.0; local.len()];
                let gopts = GmresOptions {
                    restart: 10,
                    rtol: 1e-8,
                    max_matvecs: 60,
                };
                let r = dist_gmres(ctx, &mut op, &local, &mut pre, &b, &gopts);
                let mut h = vector_checksum(&r.x_local);
                fold(&mut h, r.matvecs as u64);
                fold(&mut h, u64::from(r.converged));
                h
            }
            other => unreachable!("unknown sweep workload {other}"),
        }
    });
    let fingerprint = Fingerprint {
        rank_sums: out.results,
        messages: out.stats.messages,
        bytes: out.stats.bytes,
        by_tag: out.stats.by_tag,
    };
    (fingerprint, out.injected_faults.len())
}

/// The generic shrink loop every suite's minimizer is built on: tries
/// `candidates` in the given order (callers order smallest-first) and
/// returns the first one `fails` confirms, with its failure evidence.
pub fn shrink<C: Copy, T>(
    candidates: &[C],
    mut fails: impl FnMut(C) -> Option<T>,
) -> Option<(C, T)> {
    for &c in candidates {
        if let Some(t) = fails(c) {
            return Some((c, t));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_diff_locates_first_divergence() {
        let a = Fingerprint {
            rank_sums: vec![1, 2],
            messages: 10,
            bytes: 80,
            by_tag: BTreeMap::new(),
        };
        let mut b = a.clone();
        assert_eq!(a.diff(&b), None);
        b.rank_sums[1] = 3;
        assert!(a.diff(&b).expect("diff").contains("rank 1"), "rank diff");
        b.rank_sums[1] = 2;
        b.by_tag.insert(5, (1, 8));
        assert!(
            a.diff(&b).expect("diff").contains("only in the perturbed"),
            "tag diff"
        );
    }

    #[test]
    fn tiny_matrices_are_tiny_and_block_partitioned() {
        for p in [2, 3, 4] {
            let chain = tiny_matrix(p, false);
            assert_eq!(chain.n(), 2 * p);
            let grid = tiny_matrix(p, true);
            assert_eq!(grid.n(), 9);
        }
    }

    #[test]
    fn shrink_returns_first_failing_candidate() {
        let hits: Vec<usize> = vec![3, 1, 2];
        let got = shrink(&hits, |c| if c >= 2 { Some(c * 10) } else { None });
        assert_eq!(got, Some((3, 30)));
        let none: Option<(usize, usize)> = shrink(&hits, |_| None);
        assert_eq!(none, None);
    }

    #[test]
    fn spmv_workload_fingerprints_deterministically() {
        let p = 2;
        let dm = tiny_matrix(p, false);
        let (a, _) = run_workload("spmv", &dm, p, checked_builder());
        let (b, _) = run_workload("spmv", &dm, p, checked_builder());
        assert_eq!(a, b);
        assert!(a.messages > 0, "spmv must exchange halo traffic");
    }

    #[test]
    fn mis_workload_fingerprints_deterministically() {
        let p = 2;
        let dm = dist_matrix(p);
        let (a, _) = run_workload("mis", &dm, p, checked_builder());
        let (b, _) = run_workload("mis", &dm, p, checked_builder());
        assert_eq!(a, b);
        assert!(a.messages > 0, "MIS must ship cross-rank deltas");
    }
}

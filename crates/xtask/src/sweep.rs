//! The one driver of the seeded sweep suites (`xtask chaos`, `xtask
//! schedcheck`): argument rejection, the muted panic
//! hook, panic catching, the tally and its `FAIL:` report ([`drive`]); the
//! workload table and runner ([`run_workload`], [`run_planned`]), result
//! fingerprinting, the trial matrices, checksum folding, and the generic
//! first-failing shrink loop. Each suite keeps only its own sweep policy
//! (what to perturb, how to classify outcomes): chaos throws destructive
//! fault plans at `factor` and `trisolve`; schedcheck perturbs the
//! schedules of `mis`, `factor`, `trisolve` and `gmres`.

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;

use pilut_core::dist::op::{DistCsr, DistOperator};
use pilut_core::dist::DistMatrix;
use pilut_core::options::IlutOptions;
use pilut_core::parallel::dist_mis::{build_level_links, dist_mis};
use pilut_core::parallel::par_ilut;
use pilut_par::{FaultPlan, Machine, MachineBuilder, MachineModel, RunOutput};
use pilut_solver::dist_gmres::{dist_gmres, DistIlu, DistPrecond};
use pilut_solver::gmres::GmresOptions;
use pilut_sparse::{gen, SplitMix64};

/// The tally of one sweep: a count per passing outcome, in the order the
/// outcomes first occur, and one line per failing trial.
pub struct Report {
    suite: String,
    passes: Vec<(&'static str, usize)>,
    failures: Vec<String>,
}

impl Report {
    /// An empty tally for `suite`.
    pub fn new(suite: String) -> Self {
        Report {
            suite,
            passes: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Records one trial: `Ok(label)` counts a pass under `label`,
    /// `Err(why)` a failure reported as `{trial}: {why}`.
    pub fn record(&mut self, trial: impl std::fmt::Display, outcome: Result<&'static str, String>) {
        match outcome {
            Ok(label) => match self.passes.iter_mut().find(|(l, _)| *l == label) {
                Some((_, n)) => *n += 1,
                None => self.passes.push((label, 1)),
            },
            Err(why) => self.failures.push(format!("{trial}: {why}")),
        }
    }

    /// The one-line summary: every trial, each pass count, the failures.
    pub fn summary(&self) -> String {
        let total = self.passes.iter().map(|&(_, n)| n).sum::<usize>() + self.failures.len();
        let mut line = format!("{}: {total} trial(s) —", self.suite);
        for (label, n) in &self.passes {
            line.push_str(&format!(" {n} {label},"));
        }
        line.push_str(&format!(" {} failure(s)", self.failures.len()));
        line
    }

    /// Prints the summary and one `FAIL:` line per failure; `Err` when any
    /// trial failed.
    fn finish(self) -> Result<(), String> {
        println!("{}", self.summary());
        for f in &self.failures {
            eprintln!("{} FAIL: {f}", self.suite);
        }
        if self.failures.is_empty() {
            Ok(())
        } else {
            Err(format!("{} trial(s) failed", self.failures.len()))
        }
    }
}

/// Runs one sweep suite at its one size, the full one: rejects every
/// argument, then [`tally`]s the sweep.
pub fn drive(suite: &str, args: &[String], sweep: impl FnOnce(&mut Report)) -> Result<(), String> {
    if let Some(arg) = args.first() {
        return Err(format!("unknown {suite} flag {arg}"));
    }
    tally(suite, sweep).map(drop)
}

/// Runs `sweep` under the muted panic hook into a fresh report named
/// `suite`, prints the report, and returns its summary line; `Err` when any
/// trial failed.
pub fn tally(suite: &str, sweep: impl FnOnce(&mut Report)) -> Result<String, String> {
    let mut report = Report::new(suite.to_string());
    muted(|| sweep(&mut report));
    let summary = report.summary();
    report.finish().map(|()| summary)
}

/// Runs `f` with the panic hook muted. Sweep trials and killed ranks end in
/// panics by design; the default hook would spray every induced backtrace
/// over the log, while the messages still reach the caller through
/// [`catching`] or the machine's own diagnosis.
pub fn muted<T>(f: impl FnOnce() -> T) -> T {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(hook);
    out
}

/// Runs `f`, returning a panic as its message.
pub fn catching<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| {
                payload
                    .downcast_ref::<&'static str>()
                    .map(|s| s.to_string())
            })
            .unwrap_or_else(|| "<non-string panic payload>".into())
    })
}

/// Folds one word into a running checksum (order-sensitive): one
/// SplitMix64 step from the checksum with the word mixed in.
pub fn fold(h: &mut u64, v: u64) {
    *h = SplitMix64::new(*h ^ v).next_u64();
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

    /// The fingerprint of a finished run whose ranks return checksums.
    pub fn of(out: RunOutput<u64>) -> Self {
        Fingerprint {
            rank_sums: out.results,
            messages: out.stats.messages,
            bytes: out.stats.bytes,
            by_tag: out.stats.by_tag,
        }
    }
}

/// The sweep matrix shared by chaos and schedcheck: big enough that every
/// rank owns interior rows at p = 8, small enough that a full sweep stays
/// in seconds.
pub fn dist_matrix(p: usize) -> DistMatrix {
    DistMatrix::from_matrix(gen::laplace_2d(12, 12), p, 17)
}

/// The drop/fill options every sweep workload factors with.
pub fn ilut_options() -> IlutOptions {
    IlutOptions::new(5, 1e-4)
}

/// The checked machine configuration every sweep trial runs under; suites
/// layer their perturbation (a fault plan) on top.
pub fn checked_builder() -> MachineBuilder {
    Machine::builder(MachineModel::cray_t3d()).checked(true)
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
    let out = run_body(work, dm, p, builder);
    let fired = out.injected_faults.len();
    (Fingerprint::of(out), fired)
}

/// Runs one workload of [`run_workload`] on `builder`'s machine and returns
/// the whole run: each rank's checksum, the clocks and every counter.
fn run_body(work: &str, dm: &DistMatrix, p: usize, builder: MachineBuilder) -> RunOutput<u64> {
    let opts = ilut_options();
    builder.run(p, |ctx| {
        let local = dm.local_view(ctx.rank());
        if work == "spmv" {
            let mut op = DistCsr::new(ctx, dm, &local);
            let mut x: Vec<f64> = (0..local.len()).map(|i| 1.0 + i as f64).collect();
            let mut y = vec![0.0; local.len()];
            for _ in 0..3 {
                op.apply_into(ctx, &x, &mut y);
                std::mem::swap(&mut x, &mut y);
            }
            return vector_checksum(&x);
        }
        if work == "mis" {
            // The MIS kernel on the raw matrix adjacency of my owned rows
            // — the same call sequence the factorization's level loop
            // makes, without the elimination around it, so schedule and
            // fault perturbations aim squarely at the delta protocol.
            #[expect(clippy::disallowed_types, reason = "the MIS door sorts what it reads")]
            let reduced_cols: std::collections::HashMap<usize, Vec<usize>> = dm
                .dist()
                .rows_of(ctx.rank())
                .map(|g| {
                    (
                        g,
                        dm.matrix().row(g).0.iter().map(|&j| j as usize).collect(),
                    )
                })
                .collect();
            let plan = build_level_links(ctx, dm.dist(), &reduced_cols);
            #[expect(clippy::expect_used, reason = "sweep frames are well-formed")]
            let mis = dist_mis(ctx, &plan, &reduced_cols, 0x5eed, 0, 5)
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
        #[expect(clippy::expect_used, reason = "the sweep matrices factor cleanly")]
        let rf = par_ilut(ctx, dm, &local, &opts).expect("sweep workload must factor");
        match work {
            "factor" => factor_checksum(&rf),
            "trisolve" => {
                let mut pre = DistIlu::new(ctx, dm, &local, rf);
                let mut op = DistCsr::new(ctx, dm, &local);
                // Chain matvec + two-sweep solves so any divergence
                // compounds instead of cancelling.
                let mut x = vec![1.0; local.len()];
                let mut y = vec![0.0; local.len()];
                for _ in 0..3 {
                    op.apply_into(ctx, &x, &mut y);
                    pre.apply_into(ctx, &local, &y, &mut x);
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
    })
}

/// Runs workload `work` on the sweep matrix at `p` checked ranks under an
/// optional fault plan; see [`run_workload`].
pub fn run_planned(work: &str, p: usize, plan: Option<FaultPlan>) -> (Fingerprint, usize) {
    let mut builder = checked_builder();
    if let Some(plan) = plan {
        builder = builder.fault_plan(plan);
    }
    run_workload(work, &dist_matrix(p), p, builder)
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
    fn every_suite_rejects_every_flag() {
        type Suite = fn(&[String]) -> Result<(), String>;
        let suites: [(&str, Suite); 2] = [
            ("chaos", crate::chaos::run),
            ("schedcheck", crate::schedcheck::run),
        ];
        for (name, run) in suites {
            // Rejection comes before any trial runs, so these calls are fast.
            for flag in ["--quick", "--recover", "--bogus"] {
                let err = run(&[flag.to_string()]).expect_err(name);
                assert_eq!(err, format!("unknown {name} flag {flag}"));
            }
        }
    }

    #[test]
    fn report_counts_passes_by_label_and_names_failures() {
        let mut report = Report::new("suite".to_string());
        report.record("a", Ok("clean"));
        report.record("b", Err("broke".to_string()));
        report.record("c", Ok("clean"));
        report.record("d", Ok("no-fire"));
        assert_eq!(
            report.summary(),
            "suite: 4 trial(s) — 2 clean, 1 no-fire, 1 failure(s)"
        );
        assert_eq!(report.failures, vec!["b: broke".to_string()]);
        assert_eq!(report.finish(), Err("1 trial(s) failed".to_string()));
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
        let dm = dist_matrix(p);
        let (a, _) = run_workload("spmv", &dm, p, checked_builder());
        let (b, _) = run_workload("spmv", &dm, p, checked_builder());
        assert_eq!(a, b);
        assert!(a.messages > 0, "spmv must exchange halo traffic");
    }

    /// Checked mode observes and never acts: every sweep workload, run on
    /// the production machine and on the checked one, yields the same
    /// checksums, clocks and counters, bit for bit.
    #[test]
    fn checked_runs_price_exactly_what_production_runs_do() {
        for work in ["spmv", "mis", "factor", "trisolve", "gmres"] {
            for p in [2, 4, 8] {
                let dm = dist_matrix(p);
                let model = MachineModel::cray_t3d();
                let [plain, checked] = [false, true].map(|on| {
                    let out = run_body(work, &dm, p, Machine::builder(model).checked(on));
                    let s = out.stats;
                    let times: Vec<u64> = s.rank_times.iter().map(|t| t.to_bits()).collect();
                    let counts = (s.messages, s.bytes, s.collectives);
                    let time = out.sim_time.to_bits();
                    (out.results, time, times, counts, s.by_tag, s.planned_by_tag)
                });
                assert_eq!(plain, checked, "{work} at p = {p}: production != checked");
            }
        }
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

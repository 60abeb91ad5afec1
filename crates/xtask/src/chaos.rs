//! `xtask chaos` — the seeded destructive-fault suite.
//!
//! Runs the parallel ILUT factorization on the simulated machine under a
//! battery of deterministic **destructive** fault plans (`drop`,
//! `duplicate`, `kill`) and checks that every fired fault ends in a panic
//! whose message *names the injection* (deadlock report, message leak
//! sweep, match-order race, or the kill marker) — never a hang, never a
//! silently wrong factorization. The benign faults (`delay`, `reorder`,
//! `stall`) must leave a run bit-identical; `xtask schedcheck` sweeps that
//! contract, and `crates/par/tests/fault_injection.rs` pins it per kind.
//!
//! Every trial is replayable: the fault plan is derived from `(kind, seed,
//! p)` alone, and the failure line prints all three plus the workload.
//! Two of the shared sweep workloads ([`crate::sweep::run_workload`]) are
//! swept: `factor` (the parallel ILUT factorization, where faults land in
//! plan *construction* traffic) and `trisolve` (factor once, then
//! prebuilt SpMV and trisolve halos driven through repeated value rounds,
//! so faults land in the steady-state data plane). The destructive sweep
//! runs p ∈ {4, 8} × 20 seeds × both workloads, the seeds cycling over the
//! three kinds.
//!
//! The recovery sweep follows it into the same report: the same seeded
//! kill/drop/kill+drop plans are thrown at the full *self-healing* stack —
//! par-ILUT + distributed GMRES behind [`pilut_solver::dist_solve_robust`],
//! on a machine with reliable delivery **and** rank-loss recovery enabled —
//! and the contract inverts: every trial must now **complete** with a
//! converged residual, every fired kill must be named as a recovery epoch
//! in the per-rank report, and any panic at all (watchdog abort included)
//! is a failure. It runs p ∈ {4, 8} × 24 seeds.

use crate::sweep::{catching, checked_builder, dist_matrix, ilut_options, run_planned, Report};
use pilut_par::{FaultAction, FaultPlan, FaultRule, FAULT_KILL_PREFIX};
use pilut_solver::dist_solve_robust;
use pilut_solver::gmres::GmresOptions;
use pilut_sparse::SplitMix64;

/// The destructive fault kinds, cycled over seeds so every kind is
/// exercised at every process count.
const KINDS: &[&str] = &["drop", "duplicate", "kill"];

/// The two workloads every fault kind is thrown at.
const WORKLOADS: &[&str] = &["factor", "trisolve"];

/// The process counts both sweeps run at.
const PROCS: &[usize] = &[4, 8];

/// Builds the deterministic plan for one trial: the rule fires with
/// probability 1 at a seed-chosen victim rank and comm-op, so a failure
/// reproduces from its printed `(kind, seed, p)` triple.
fn plan_for(work: &str, kind: &str, seed: u64, p: usize) -> FaultPlan {
    let mut s = SplitMix64::new(seed ^ 0xc7a5_u64.rotate_left(17));
    let victim = (s.next_u64() % p as u64) as usize;
    // The trisolve workload arms its rules well past the factorization and
    // plan-build prefix, so fires land inside the `Halo` value rounds that
    // workload exists to stress.
    let after = if work == "trisolve" {
        64 + s.next_u64() % 192
    } else {
        1 + s.next_u64() % 12
    };
    let rule = match kind {
        "drop" => FaultRule::new(FaultAction::Drop).max_fires(1),
        "duplicate" => FaultRule::new(FaultAction::Duplicate).max_fires(1),
        "kill" => FaultRule::new(FaultAction::Kill),
        other => unreachable!("unknown fault kind {other}"),
    };
    FaultPlan::new(seed).with(rule.rank(victim).after_op(after))
}

/// Runs one trial and classifies it: `Ok("diagnosed")` when the run died
/// naming the injection, `Ok("no-fire")` when the seed armed the rule past
/// the program's op count (vacuous but not a violation).
fn run_trial(work: &str, kind: &str, seed: u64, p: usize) -> Result<&'static str, String> {
    let plan = plan_for(work, kind, seed, p);
    let msg = match catching(|| run_planned(work, p, Some(plan))) {
        Ok((_, 0)) => return Ok("no-fire"),
        Ok((_, fired)) => {
            return Err(format!(
                "destructive fault fired {fired} time(s) but the run completed undiagnosed"
            ))
        }
        Err(msg) => msg,
    };
    // A consumed fault (e.g. a duplicate read as fresh data) can surface as
    // the algorithm's own panic; the VM annotates such payloads with the
    // firing log, which also names the injection.
    let recognized = msg.contains("note: fault injection fired")
        || match kind {
            "drop" => msg.contains("[injected drop]"),
            // A duplicate can surface three ways, all naming it: the
            // happens-before detector sees two envelopes with the same send
            // op and flags the match-order race at the second accept; an
            // unconsumed copy trips the leak sweep; a consumed copy starves
            // a later receive into the deadlock report.
            "duplicate" => {
                msg.contains("message leak")
                    || msg.contains("deadlock")
                    || msg.contains("match-order race")
            }
            _ => msg.contains("killed by fault injection") || msg.contains(FAULT_KILL_PREFIX),
        };
    if recognized {
        Ok("diagnosed")
    } else {
        Err(format!("panic does not name the injected {kind}: {msg}"))
    }
}

/// The fault kinds of the recovery sweep, cycled over seeds.
const RECOVER_KINDS: &[&str] = &["kill", "drop", "kill+drop"];

/// Builds the deterministic plan for one recovery trial: an exact kill at
/// a seed-chosen rank and comm-op, probabilistic bounded drops, or both.
fn recover_plan(kind: &str, seed: u64, p: usize) -> FaultPlan {
    let mut s = SplitMix64::new(seed ^ 0x4ec0_4e4du64.rotate_left(21));
    let victim = (s.next_u64() % p as u64) as usize;
    // Offsets span plan construction, factorization, and the GMRES
    // iteration, so recovery is exercised at every phase of the solve.
    let after = 8 + s.next_u64() % 300;
    let drop_sender = (s.next_u64() % p as u64) as usize;
    let mut plan = FaultPlan::new(seed);
    if kind.contains("kill") {
        plan = plan.with(
            FaultRule::new(FaultAction::Kill)
                .rank(victim)
                .after_op(after),
        );
    }
    if kind.contains("drop") {
        plan = plan.with(
            FaultRule::new(FaultAction::Drop)
                .sender(drop_sender)
                .probability(0.15)
                .max_fires(3),
        );
    }
    plan
}

/// Runs one self-healing trial: the robust distributed solve under the
/// plan, with reliable delivery and recovery enabled. The contract is the
/// inverse of the destructive sweep's — the run must *complete*, survivors
/// must converge to the known solution, and every fired kill must be named
/// as a recovery epoch.
fn recover_trial(kind: &str, seed: u64, p: usize) -> Result<&'static str, String> {
    let plan = recover_plan(kind, seed, p);
    let dm = dist_matrix(p);
    let a = dm.matrix().clone();
    let dist = dm.dist().clone();
    let n = a.n_rows();
    let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
    let b = a.spmv_owned(&x_true);
    let gopts = GmresOptions {
        restart: 10,
        rtol: 1e-8,
        max_matvecs: 400,
    };
    // Zero aborts allowed: a watchdog/commcheck panic here means a fault
    // escaped the robustness layers.
    let out = catching(|| {
        checked_builder()
            .reliable(true)
            .recovery(true)
            .fault_plan(plan)
            .run(p, |ctx| {
                dist_solve_robust(ctx, &a, &b, &dist, &ilut_options(), &gopts)
            })
    })
    .map_err(|msg| format!("recovery run aborted: {msg}"))?;
    if out.injected_faults.is_empty() {
        return Ok("no-fire");
    }
    let kills = out
        .injected_faults
        .iter()
        .filter(|f| f.kind == "kill")
        .count();
    let mut x = vec![f64::NAN; n];
    for (r, rep) in out.results.iter().enumerate() {
        if rep.dead {
            continue;
        }
        if !rep.converged {
            return Err(format!("rank {r} did not converge: {}", rep.summary()));
        }
        if kills > 0 {
            if rep.recoveries.len() != kills {
                return Err(format!(
                    "rank {r} records {} recovery(ies) for {kills} kill(s)",
                    rep.recoveries.len()
                ));
            }
            if !rep.summary().contains("epoch") {
                return Err(format!(
                    "rank {r}'s report does not name the recovery epoch: {}",
                    rep.summary()
                ));
            }
        }
        for (&g, &v) in rep.nodes.iter().zip(&rep.x_local) {
            x[g] = v;
        }
    }
    let dead = out.results.iter().filter(|r| r.dead).count();
    if dead != kills {
        return Err(format!("{kills} kill(s) fired but {dead} tombstone(s)"));
    }
    let err = x
        .iter()
        .zip(&x_true)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    if err > 1e-4 {
        return Err(format!("assembled solution off by {err:.1e}"));
    }
    Ok("recovered+converged")
}

/// The destructive sweep: every fired fault must be diagnosed by name.
fn destructive(report: &mut Report) {
    for &p in PROCS {
        for &work in WORKLOADS {
            for seed in 0..20u64 {
                let kind = KINDS[seed as usize % KINDS.len()];
                let trial = format!("work={work} kind={kind} seed={seed} p={p}");
                report.record(trial, run_trial(work, kind, seed, p));
            }
        }
    }
}

/// The recovery sweep: every trial must recover and converge.
fn recovery(report: &mut Report) {
    for &p in PROCS {
        for seed in 0..24u64 {
            let kind = RECOVER_KINDS[seed as usize % RECOVER_KINDS.len()];
            let trial = format!("kind={kind} seed={seed} p={p}");
            report.record(trial, recover_trial(kind, seed, p));
        }
    }
}

/// Entry point for `xtask chaos`: the destructive sweep, then the recovery
/// sweep, into one report. Returns `Err(message)` on any argument or any
/// contract violation.
pub fn run(args: &[String]) -> Result<(), String> {
    crate::sweep::drive("chaos", args, |report| {
        destructive(report);
        recovery(report);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::tally;

    #[test]
    fn plans_are_deterministic_per_seed() {
        let a = plan_for("factor", "drop", 9, 4);
        let b = plan_for("factor", "drop", 9, 4);
        assert_eq!(a.rules()[0].rank, b.rules()[0].rank);
        assert_eq!(a.rules()[0].after_op, b.rules()[0].after_op);
    }

    #[test]
    fn recover_plans_are_deterministic_per_seed() {
        let a = recover_plan("kill+drop", 5, 8);
        let b = recover_plan("kill+drop", 5, 8);
        assert_eq!(a.rules().len(), 2);
        assert_eq!(a.rules()[0].rank, b.rules()[0].rank);
        assert_eq!(a.rules()[0].after_op, b.rules()[0].after_op);
    }

    #[test]
    fn destructive_sweep_diagnoses_every_fault() {
        assert_eq!(
            tally("chaos", destructive),
            Ok("chaos: 80 trial(s) — 80 diagnosed, 0 failure(s)".to_string())
        );
    }

    #[test]
    fn recovery_sweep_recovers_and_converges() {
        assert_eq!(
            tally("chaos", recovery),
            Ok("chaos: 48 trial(s) — 48 recovered+converged, 0 failure(s)".to_string())
        );
    }
}

//! `xtask chaos` — the seeded chaos regression suite.
//!
//! Runs the parallel ILUT factorization on the simulated machine under a
//! battery of deterministic fault plans and checks that every injected
//! fault lands in its contract:
//!
//! * **benign** faults (`delay`, `reorder`, `stall`) must leave the run
//!   bit-identical to a clean run — the VM's `(from, tag)` matching and the
//!   commcheck watchdog absorb them;
//! * **destructive** faults (`drop`, `duplicate`, `kill`) must end in a
//!   panic whose message *names the injection* (deadlock report, message
//!   leak sweep, or the kill marker) — never a hang, never a silently
//!   wrong factorization.
//!
//! Every trial is replayable: the fault plan is derived from `(kind, seed,
//! p)` alone, and the failure line prints all three plus the workload.
//! Two of the shared sweep workloads ([`crate::sweep::run_workload`]) are
//! swept: `factor` (the parallel ILUT factorization, where faults land in
//! plan *construction* traffic) and `trisolve` (factor once, then
//! prebuilt SpMV and trisolve halos driven through repeated value rounds,
//! so faults land in the steady-state data plane); a benign trial must
//! reproduce the clean run's whole [`Fingerprint`]. Full
//! mode sweeps p ∈ {4, 8} × 20 seeds × both workloads; `--quick` runs one
//! trial per (fault class, workload) at p = 4 (the CI configuration).
//!
//! `--recover` flips the suite into its second personality: the same
//! seeded kill/drop/kill+drop plans are thrown at the full *self-healing*
//! stack — par-ILUT + distributed GMRES behind
//! [`pilut_solver::dist_solve_robust`], on a machine with reliable delivery
//! **and** rank-loss recovery enabled — and the contract inverts: every
//! trial must now **complete** with a converged residual, every fired kill
//! must be named as a recovery epoch in the per-rank report, and any panic
//! at all (watchdog abort included) is a failure. Full mode sweeps
//! p ∈ {4, 8} × 24 seeds; `--recover --quick` runs one trial per kind at
//! p = 4.

use std::panic::AssertUnwindSafe;

use crate::sweep::{checked_builder, dist_matrix, ilut_options, mix, run_workload, Fingerprint};
use pilut_par::{FaultAction, FaultPlan, FaultRule, FAULT_KILL_PREFIX};
use pilut_solver::dist_solve_robust;
use pilut_solver::gmres::GmresOptions;

/// The six fault classes, cycled over seeds so every class is exercised at
/// every process count.
const KINDS: &[&str] = &["delay", "reorder", "stall", "drop", "duplicate", "kill"];

/// The two workloads every fault class is thrown at.
const WORKLOADS: &[&str] = &["factor", "trisolve"];

fn is_benign(kind: &str) -> bool {
    matches!(kind, "delay" | "reorder" | "stall")
}

/// Builds the deterministic plan for one trial. Destructive rules fire
/// with probability 1 at a seed-chosen victim rank and comm-op, so a
/// failure reproduces from its printed `(kind, seed, p)` triple; benign
/// rules may use probabilities — nondeterminism in *whether* they fire is
/// still seeded, and a benign fault must be harmless wherever it lands.
fn plan_for(work: &str, kind: &str, seed: u64, p: usize) -> FaultPlan {
    let mut s = seed ^ 0xc7a_5_u64.rotate_left(17);
    let victim = (mix(&mut s) % p as u64) as usize;
    // The trisolve workload arms its rules well past the factorization and
    // plan-build prefix, so destructive fires land inside the `Halo`
    // value rounds that workload exists to stress.
    let after = if work == "trisolve" {
        64 + mix(&mut s) % 192
    } else {
        1 + mix(&mut s) % 12
    };
    let rule = match kind {
        "delay" => FaultRule::new(FaultAction::Delay { seconds: 2.0 }).probability(0.3),
        "reorder" => FaultRule::new(FaultAction::Reorder)
            .rank(victim)
            .probability(0.25),
        "stall" => FaultRule::new(FaultAction::Stall { millis: 5 })
            .rank(victim)
            .after_op(after)
            .max_fires(1),
        "drop" => FaultRule::new(FaultAction::Drop)
            .rank(victim)
            .after_op(after)
            .max_fires(1),
        "duplicate" => FaultRule::new(FaultAction::Duplicate)
            .rank(victim)
            .after_op(after)
            .max_fires(1),
        "kill" => FaultRule::new(FaultAction::Kill)
            .rank(victim)
            .after_op(after),
        other => unreachable!("unknown fault kind {other}"),
    };
    FaultPlan::new(seed).with(rule)
}

/// How one trial ended.
enum Outcome {
    /// Run completed with the clean run's fingerprint (benign contract).
    CleanMatch,
    /// Run completed and no rule ever fired (the seed armed the rule past
    /// the program's op count) — vacuous but not a violation.
    NoFire,
    /// Run panicked with a message that names the injection.
    Diagnosed,
    /// Contract violation; the string says what went wrong.
    Fail(String),
}

/// Runs one chaos workload — a shared sweep workload, see
/// [`run_workload`] — under an optional fault plan. Returns its
/// fingerprint (every factor entry or solution bit, plus per-tag traffic)
/// and the number of faults that fired.
fn workload(name: &str, p: usize, plan: Option<FaultPlan>) -> (Fingerprint, usize) {
    let mut builder = checked_builder();
    if let Some(plan) = plan {
        builder = builder.fault_plan(plan);
    }
    run_workload(name, &dist_matrix(p), p, builder)
}

/// Runs one trial and classifies it against the fault-class contract.
fn run_trial(work: &str, kind: &str, seed: u64, p: usize, clean: &Fingerprint) -> Outcome {
    let plan = plan_for(work, kind, seed, p);
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| workload(work, p, Some(plan))));
    match result {
        Ok((fp, fired)) => {
            if is_benign(kind) {
                match clean.diff(&fp) {
                    Some(why) => Outcome::Fail(format!("benign fault changed the run: {why}")),
                    None if fired == 0 => Outcome::NoFire,
                    None => Outcome::CleanMatch,
                }
            } else if fired == 0 {
                Outcome::NoFire
            } else {
                Outcome::Fail(format!(
                    "destructive fault fired {fired} time(s) but the run completed undiagnosed"
                ))
            }
        }
        Err(payload) => {
            let msg = crate::sweep::panic_text(payload);
            if is_benign(kind) {
                return Outcome::Fail(format!("benign fault crashed the run: {msg}"));
            }
            // A consumed fault (e.g. a duplicate read as fresh data) can
            // surface as the algorithm's own panic; the VM annotates such
            // payloads with the firing log, which also names the injection.
            let annotated = msg.contains("note: fault injection fired");
            let recognized = annotated
                || match kind {
                    "drop" => msg.contains("[injected drop]"),
                    // A duplicate can surface three ways, all naming it: the
                    // happens-before detector sees two envelopes with the
                    // same send op and flags the match-order race at the
                    // second accept; an unconsumed copy trips the leak
                    // sweep; a consumed copy starves a later receive into
                    // the deadlock report.
                    "duplicate" => {
                        msg.contains("message leak")
                            || msg.contains("deadlock")
                            || msg.contains("match-order race")
                    }
                    "kill" => {
                        msg.contains("killed by fault injection") || msg.contains(FAULT_KILL_PREFIX)
                    }
                    _ => false,
                };
            if recognized {
                Outcome::Diagnosed
            } else {
                Outcome::Fail(format!("panic does not name the injected {kind}: {msg}"))
            }
        }
    }
}

/// The fault kinds of the `--recover` sweep, cycled over seeds.
const RECOVER_KINDS: &[&str] = &["kill", "drop", "kill+drop"];

/// Builds the deterministic plan for one recovery trial: an exact kill at
/// a seed-chosen rank and comm-op, probabilistic bounded drops, or both.
fn recover_plan(kind: &str, seed: u64, p: usize) -> FaultPlan {
    let mut s = seed ^ 0x4ec0_4e4du64.rotate_left(21);
    let victim = (mix(&mut s) % p as u64) as usize;
    // Offsets span plan construction, factorization, and the GMRES
    // iteration, so recovery is exercised at every phase of the solve.
    let after = 8 + mix(&mut s) % 300;
    let drop_sender = (mix(&mut s) % p as u64) as usize;
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
fn recover_trial(kind: &str, seed: u64, p: usize) -> Outcome {
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
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        checked_builder()
            .reliable(true)
            .recovery(true)
            .fault_plan(plan)
            .run(p, |ctx| {
                dist_solve_robust(ctx, &a, &b, &dist, &ilut_options(), &gopts)
            })
    }));
    let out = match result {
        Ok(out) => out,
        // Zero aborts allowed: a watchdog/commcheck panic here means a
        // fault escaped the robustness layers.
        Err(payload) => {
            return Outcome::Fail(format!(
                "recovery run aborted: {}",
                crate::sweep::panic_text(payload)
            ))
        }
    };
    if out.injected_faults.is_empty() {
        return Outcome::NoFire;
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
            return Outcome::Fail(format!("rank {r} did not converge: {}", rep.summary()));
        }
        if kills > 0 {
            if rep.recoveries.len() != kills {
                return Outcome::Fail(format!(
                    "rank {r} records {} recovery(ies) for {kills} kill(s)",
                    rep.recoveries.len()
                ));
            }
            if !rep.summary().contains("epoch") {
                return Outcome::Fail(format!(
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
        return Outcome::Fail(format!("{kills} kill(s) fired but {dead} tombstone(s)"));
    }
    let err = x
        .iter()
        .zip(&x_true)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    if err > 1e-4 {
        return Outcome::Fail(format!("assembled solution off by {err:.1e}"));
    }
    Outcome::CleanMatch
}

/// The `--recover` sweep loop.
fn run_recover(quick: bool) -> Result<(), String> {
    let procs: &[usize] = if quick { &[4] } else { &[4, 8] };
    let seeds_per_p: u64 = if quick {
        RECOVER_KINDS.len() as u64
    } else {
        24
    };
    let mut recovered = 0usize;
    let mut no_fire = 0usize;
    let mut failures: Vec<String> = Vec::new();
    // The injected kills unwind victim threads by design; suppress the
    // induced backtraces (failures still surface via the classifier).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for &p in procs {
        for seed in 0..seeds_per_p {
            let kind = RECOVER_KINDS[(seed as usize) % RECOVER_KINDS.len()];
            match recover_trial(kind, seed, p) {
                Outcome::CleanMatch => recovered += 1,
                Outcome::NoFire => no_fire += 1,
                Outcome::Diagnosed => unreachable!("recover trials never diagnose"),
                Outcome::Fail(why) => {
                    failures.push(format!("kind={kind} seed={seed} p={p}: {why}"))
                }
            }
        }
    }
    std::panic::set_hook(default_hook);
    let total = recovered + no_fire + failures.len();
    println!(
        "chaos --recover: {total} trial(s) — {recovered} recovered+converged, \
         {no_fire} no-fire, {} failure(s)",
        failures.len()
    );
    if failures.is_empty() {
        Ok(())
    } else {
        for f in &failures {
            eprintln!("chaos FAIL: {f}");
        }
        Err(format!(
            "{} trial(s) failed to recover and converge",
            failures.len()
        ))
    }
}

/// Entry point for `xtask chaos`. Returns `Err(message)` on bad usage or
/// any contract violation.
pub fn run(args: &[String]) -> Result<(), String> {
    let mut quick = false;
    let mut recover = false;
    let mut seeds_per_p = 20u64;
    for arg in args {
        match arg.as_str() {
            "--quick" => quick = true,
            "--recover" => recover = true,
            other => return Err(format!("unknown chaos flag {other}")),
        }
    }
    if recover {
        return run_recover(quick);
    }
    let procs: &[usize] = if quick { &[4] } else { &[4, 8] };
    if quick {
        seeds_per_p = KINDS.len() as u64;
    }
    let mut failures: Vec<String> = Vec::new();
    let mut diagnosed = 0usize;
    let mut clean_match = 0usize;
    let mut no_fire = 0usize;
    // Destructive trials end in panics by design; the default hook would
    // spray every induced backtrace over the CI log. The messages still
    // reach the classifier through `catch_unwind`.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for &p in procs {
        for &work in WORKLOADS {
            let (clean, _) = workload(work, p, None);
            for seed in 0..seeds_per_p {
                let kind = KINDS[(seed as usize) % KINDS.len()];
                match run_trial(work, kind, seed, p, &clean) {
                    Outcome::CleanMatch => clean_match += 1,
                    Outcome::NoFire => no_fire += 1,
                    Outcome::Diagnosed => diagnosed += 1,
                    Outcome::Fail(why) => {
                        failures.push(format!("work={work} kind={kind} seed={seed} p={p}: {why}"))
                    }
                }
            }
        }
    }
    std::panic::set_hook(default_hook);
    let total = clean_match + no_fire + diagnosed + failures.len();
    println!(
        "chaos: {total} trial(s) — {clean_match} benign-clean, {diagnosed} diagnosed, \
         {no_fire} no-fire, {} failure(s)",
        failures.len()
    );
    if failures.is_empty() {
        Ok(())
    } else {
        for f in &failures {
            eprintln!("chaos FAIL: {f}");
        }
        Err(format!(
            "{} trial(s) violated the fault contract",
            failures.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_seed() {
        let a = plan_for("factor", "drop", 9, 4);
        let b = plan_for("factor", "drop", 9, 4);
        assert_eq!(a.rules()[0].rank, b.rules()[0].rank);
        assert_eq!(a.rules()[0].after_op, b.rules()[0].after_op);
    }

    #[test]
    fn every_kind_is_classified() {
        for kind in KINDS {
            let benign = is_benign(kind);
            let destructive = matches!(*kind, "drop" | "duplicate" | "kill");
            assert!(benign != destructive, "{kind} must be exactly one class");
        }
    }

    #[test]
    fn quick_suite_is_green() {
        run(&["--quick".to_string()]).expect("quick chaos suite must pass");
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
    fn quick_recover_suite_is_green() {
        run(&["--recover".to_string(), "--quick".to_string()])
            .expect("quick recovery sweep must pass");
    }
}

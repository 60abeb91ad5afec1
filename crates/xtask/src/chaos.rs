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

use crate::sweep::{catching, run_planned, Report};
use pilut_par::{FaultAction, FaultPlan, FaultRule, FAULT_KILL_PREFIX};
use pilut_sparse::SplitMix64;

/// The destructive fault kinds, cycled over seeds so every kind is
/// exercised at every process count.
const KINDS: &[&str] = &["drop", "duplicate", "kill"];

/// The two workloads every fault kind is thrown at.
const WORKLOADS: &[&str] = &["factor", "trisolve"];

/// The process counts the sweep runs at.
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

/// Entry point for `xtask chaos`: the destructive sweep. Returns
/// `Err(message)` on any argument or any contract violation.
pub fn run(args: &[String]) -> Result<(), String> {
    crate::sweep::drive("chaos", args, destructive)
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
    fn destructive_sweep_diagnoses_every_fault() {
        assert_eq!(
            tally("chaos", destructive),
            Ok("chaos: 80 trial(s) — 80 diagnosed, 0 failure(s)".to_string())
        );
    }
}

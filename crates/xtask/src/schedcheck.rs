//! `xtask schedcheck` — the bitwise-determinism sanitizer.
//!
//! A deterministic SPMD program must produce *bit-identical* results no
//! matter how the host schedules its ranks. The happens-before detector
//! (`pilut_par::hb`) proves the absence of match-order races analytically;
//! this sweep attacks the same property dynamically: run each seeded
//! workload once on an unperturbed schedule, then re-run it under a battery
//! of seeded **benign** fault plans (random per-message delays, per-rank
//! reorder holds, thread stalls — faults that stretch and shuffle the
//! schedule without corrupting traffic) and demand an identical
//! *fingerprint* every time:
//!
//! * per-rank result checksums — every factor entry / solution component is
//!   folded bit-for-bit, so a single flipped ulp anywhere diverges;
//! * the machine's message and byte totals, and the per-tag breakdown —
//!   a protocol that adapts its traffic to arrival order diverges here even
//!   if the numbers happen to agree.
//!
//! Simulated time is deliberately *excluded*: delay faults move logical
//! clocks by design, and the determinism claim is about results and
//! traffic, not about the cost model under perturbation.
//!
//! When a trial diverges (or dies with a detector report), the sweep
//! re-runs it under every subset of the perturbation's rules, smallest
//! first, and reports the minimal subset that still reproduces — plus the
//! happens-before race report when one was raised. A divergence with no
//! race report would mean the detector has a hole; that pairing is exactly
//! the acceptance contract of this sanitizer.
//!
//! This suite *samples* the schedule space; `xtask modelcheck` walks the
//! DPOR-reduced space *exhaustively* for small configs (see DESIGN §12).
//! The fingerprints, workloads, and shrink loop are shared via
//! [`crate::sweep`].
//!
//! The fifth workload, `reliable`, is a *differential* property: the full
//! preconditioned iteration under reliable delivery
//! (`MachineBuilder::reliable`) with **lossy** perturbations — seeded drop,
//! duplicate and reorder rules — must produce factors and solutions
//! bitwise-identical to the fault-free reliable run. Traffic counters are
//! excluded from that comparison (retransmissions and acks legitimately
//! scale with the injected losses); the results may not move by an ulp.
//!
//! Full mode sweeps 20 schedules × p ∈ {2, 4, 8} × five workloads
//! (`mis`, `factor`, `trisolve`, `gmres`, `reliable`); `--quick` runs 3
//! schedules at p ∈ {2, 4} (the CI configuration).

use std::panic::AssertUnwindSafe;

use crate::sweep::{checked_builder, dist_matrix, mix, panic_text, shrink, Fingerprint};
use pilut_par::{FaultAction, FaultPlan, FaultRule};

/// The workloads swept per process count: the delta-protocol MIS rounds in
/// isolation (`mis` — sparse per-round message shapes, dead links going
/// silent mid-run), plan-construction traffic (`factor`), the steady-state
/// data plane (`trisolve`), the full preconditioned iteration with its
/// reduction traffic (`gmres`), and the same iteration on lossy links under
/// reliable delivery (`reliable`).
const WORKLOADS: &[&str] = &["mis", "factor", "trisolve", "gmres", "reliable"];

/// Human names for the benign schedule perturbation's rules, indexed by bit
/// in the subset mask used during minimization.
const RULE_NAMES: &[&str] = &["delay", "reorder", "stall"];

/// Rule names for the `reliable` workload's lossy perturbation.
const LOSSY_RULE_NAMES: &[&str] = &["drop", "duplicate", "reorder"];

fn rule_names(work: &str) -> &'static [&'static str] {
    if work == "reliable" {
        LOSSY_RULE_NAMES
    } else {
        RULE_NAMES
    }
}

/// Builds the perturbation for `(seed, p)`, restricted to the rules whose
/// bits are set in `mask` (bit order matches [`RULE_NAMES`]). Rules are
/// regenerated from the seed rather than cloned, so any subset reproduces
/// the full plan's parameters exactly.
fn schedule_plan(seed: u64, p: usize, mask: u8) -> FaultPlan {
    let mut s = seed ^ 0x5eed_5c4e_du64.rotate_left(13);
    // Always draw in the same order so a subset keeps the full plan's
    // victim ranks and offsets.
    let reorder_victim = (mix(&mut s) % p as u64) as usize;
    let stall_victim = (mix(&mut s) % p as u64) as usize;
    let stall_after = 1 + mix(&mut s) % 64;
    let mut plan = FaultPlan::new(seed);
    if mask & 1 != 0 {
        plan = plan.with(FaultRule::new(FaultAction::Delay { seconds: 3.0 }).probability(0.25));
    }
    if mask & 2 != 0 {
        plan = plan.with(
            FaultRule::new(FaultAction::Reorder)
                .rank(reorder_victim)
                .probability(0.3),
        );
    }
    if mask & 4 != 0 {
        plan = plan.with(
            FaultRule::new(FaultAction::Stall { millis: 3 })
                .rank(stall_victim)
                .after_op(stall_after)
                .max_fires(2),
        );
    }
    plan
}

/// Builds the **lossy** perturbation for the `reliable` workload: seeded
/// drop, duplicate and reorder rules that corrupt traffic outright — only
/// legal to absorb because the trial runs under reliable delivery. Same
/// subset-stability contract as [`schedule_plan`].
fn lossy_plan(seed: u64, p: usize, mask: u8) -> FaultPlan {
    let mut s = seed ^ 0x10c5_5b1a_du64.rotate_left(17);
    let drop_sender = (mix(&mut s) % p as u64) as usize;
    let dup_sender = (mix(&mut s) % p as u64) as usize;
    let reorder_victim = (mix(&mut s) % p as u64) as usize;
    let mut plan = FaultPlan::new(seed);
    if mask & 1 != 0 {
        plan = plan.with(
            FaultRule::new(FaultAction::Drop)
                .sender(drop_sender)
                .probability(0.2)
                .max_fires(4),
        );
    }
    if mask & 2 != 0 {
        plan = plan.with(
            FaultRule::new(FaultAction::Duplicate)
                .sender(dup_sender)
                .probability(0.25)
                .max_fires(4),
        );
    }
    if mask & 4 != 0 {
        plan = plan.with(
            FaultRule::new(FaultAction::Reorder)
                .rank(reorder_victim)
                .probability(0.3)
                .max_fires(4),
        );
    }
    plan
}

/// The perturbation family a workload is swept under.
fn trial_plan(work: &str, seed: u64, p: usize, mask: u8) -> FaultPlan {
    if work == "reliable" {
        lossy_plan(seed, p, mask)
    } else {
        schedule_plan(seed, p, mask)
    }
}

/// Names the rules selected by `mask`, for failure reports.
fn mask_names(work: &str, mask: u8) -> String {
    let names: Vec<&str> = rule_names(work)
        .iter()
        .enumerate()
        .filter(|&(i, _)| mask & (1 << i) != 0)
        .map(|(_, n)| *n)
        .collect();
    names.join("+")
}

/// Runs one workload under an optional perturbation and returns its
/// fingerprint. Panics propagate to the caller for classification.
///
/// The `reliable` workload runs the `gmres` body under
/// `MachineBuilder::reliable` and blanks the traffic counters: its
/// differential claim is results-only (retransmissions and acks are allowed
/// to vary with the losses; the factors and the solution are not).
fn run_workload(work: &str, p: usize, plan: Option<FaultPlan>) -> Fingerprint {
    let dm = dist_matrix(p);
    let mut builder = checked_builder();
    let reliable = work == "reliable";
    if reliable {
        builder = builder.reliable(true);
    }
    if let Some(plan) = plan {
        builder = builder.fault_plan(plan);
    }
    let body = if reliable { "gmres" } else { work };
    let (mut fp, _) = crate::sweep::run_workload(body, &dm, p, builder);
    if reliable {
        fp.messages = 0;
        fp.bytes = 0;
        fp.by_tag.clear();
    }
    fp
}

/// How one perturbed trial related to its clean fingerprint.
enum Trial {
    /// Bit-identical to the clean run.
    Identical,
    /// Completed with a different fingerprint; the string locates the first
    /// differing component.
    Diverged(String),
    /// Died; the string is the panic message (a happens-before race report
    /// when the detector fired).
    Panicked(String),
}

/// Runs one `(work, p, seed, mask)` trial and classifies it.
fn run_trial(work: &str, p: usize, seed: u64, mask: u8, clean: &Fingerprint) -> Trial {
    let plan = trial_plan(work, seed, p, mask);
    match std::panic::catch_unwind(AssertUnwindSafe(|| run_workload(work, p, Some(plan)))) {
        Ok(fp) => match clean.diff(&fp) {
            None => Trial::Identical,
            Some(why) => Trial::Diverged(why),
        },
        Err(payload) => Trial::Panicked(panic_text(payload)),
    }
}

/// Shrinks a failing trial to the smallest rule subset that still fails,
/// trying singletons before pairs before the full plan.
fn minimize(work: &str, p: usize, seed: u64, clean: &Fingerprint) -> (u8, Trial) {
    let mut masks: Vec<u8> = (1u8..8).collect();
    masks.sort_by_key(|m| m.count_ones());
    let failing = shrink(&masks, |mask| match run_trial(work, p, seed, mask, clean) {
        Trial::Identical => None,
        outcome => Some(outcome),
    });
    match failing {
        Some((mask, outcome)) => (mask, outcome),
        // The full plan failed once but no subset reproduces (a flaky
        // host-side interleaving): report the full plan.
        None => (7, run_trial(work, p, seed, 7, clean)),
    }
}

/// Entry point for `xtask schedcheck`. Returns `Err(message)` on bad usage
/// or any determinism violation.
pub fn run(args: &[String]) -> Result<(), String> {
    let mut quick = false;
    for arg in args {
        match arg.as_str() {
            "--quick" => quick = true,
            other => return Err(format!("unknown schedcheck flag {other}")),
        }
    }
    let procs: &[usize] = if quick { &[2, 4] } else { &[2, 4, 8] };
    let schedules: u64 = if quick { 3 } else { 20 };
    let mut identical = 0usize;
    let mut failures: Vec<String> = Vec::new();
    // Failing trials are re-run several times during minimization; suppress
    // the induced backtraces the way the chaos suite does. The messages
    // still reach the classifier through `catch_unwind`.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for &p in procs {
        for &work in WORKLOADS {
            let clean =
                match std::panic::catch_unwind(AssertUnwindSafe(|| run_workload(work, p, None))) {
                    Ok(fp) => fp,
                    Err(payload) => {
                        failures.push(format!(
                            "work={work} p={p}: clean run died: {}",
                            panic_text(payload)
                        ));
                        continue;
                    }
                };
            for seed in 0..schedules {
                match run_trial(work, p, seed, 7, &clean) {
                    Trial::Identical => identical += 1,
                    outcome => {
                        let (mask, minimal) = match outcome {
                            Trial::Identical => unreachable!(),
                            _ => minimize(work, p, seed, &clean),
                        };
                        let detail = match minimal {
                            Trial::Identical => {
                                "failure did not reproduce during minimization".to_string()
                            }
                            Trial::Diverged(why) => format!(
                                "fingerprint diverged ({why}); no race report — the detector \
                                 missed a schedule dependence"
                            ),
                            Trial::Panicked(msg) => format!("run died:\n{msg}"),
                        };
                        failures.push(format!(
                            "work={work} p={p} seed={seed} rules=[{}]: {detail}",
                            mask_names(work, mask)
                        ));
                    }
                }
            }
        }
    }
    std::panic::set_hook(default_hook);
    let total = identical + failures.len();
    println!(
        "schedcheck: {total} perturbed schedule(s) over {} workload(s) × p ∈ {procs:?} — \
         {identical} bitwise-identical, {} violation(s)",
        WORKLOADS.len(),
        failures.len()
    );
    if failures.is_empty() {
        Ok(())
    } else {
        for f in &failures {
            eprintln!("schedcheck FAIL: {f}");
        }
        Err(format!(
            "{} schedule(s) violated bitwise determinism",
            failures.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_subset_stable() {
        let full = schedule_plan(11, 4, 7);
        let sub = schedule_plan(11, 4, 2);
        assert_eq!(full.rules().len(), 3);
        assert_eq!(sub.rules().len(), 1);
        // The reorder rule keeps its victim when regenerated as a subset.
        assert_eq!(full.rules()[1].rank, sub.rules()[0].rank);
    }

    #[test]
    fn lossy_plans_are_deterministic_and_subset_stable() {
        let full = lossy_plan(11, 4, 7);
        let sub = lossy_plan(11, 4, 4);
        assert_eq!(full.rules().len(), 3);
        assert_eq!(sub.rules().len(), 1);
        // The reorder rule keeps its victim when regenerated as a subset.
        assert_eq!(full.rules()[2].rank, sub.rules()[0].rank);
    }

    #[test]
    fn reliable_workload_blank_traffic_and_matches_under_losses() {
        // One targeted differential trial outside the full sweep: lossy
        // links under reliable delivery reproduce the clean results.
        let clean = run_workload("reliable", 2, None);
        assert_eq!((clean.messages, clean.bytes), (0, 0), "traffic blanked");
        match run_trial("reliable", 2, 1, 7, &clean) {
            Trial::Identical => {}
            Trial::Diverged(why) => panic!("reliable differential diverged: {why}"),
            Trial::Panicked(msg) => panic!("reliable differential died: {msg}"),
        }
    }

    #[test]
    fn quick_sweep_is_bitwise_clean() {
        run(&["--quick".to_string()]).expect("quick schedcheck sweep must pass");
    }
}

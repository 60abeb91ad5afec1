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
//! This suite *samples* the schedule space. That every schedule computes
//! the same bits holds by construction (DESIGN §12.1: every receive names
//! its source but the exchange gather, which sorts); the sweep is the
//! tripwire that a change breaking that construction trips. The driver,
//! fingerprints, workloads, and shrink loop are shared via
//! [`crate::sweep`].
//!
//! The sweep runs 20 schedules × p ∈ {2, 4, 8} × four workloads (`mis`,
//! `factor`, `trisolve`, `gmres`). This is the suite that
//! enforces the benign fault contract across the workloads; `xtask chaos`
//! sweeps the destructive faults.

use crate::sweep::{catching, run_planned, shrink, Fingerprint, Report};
use pilut_par::{FaultAction, FaultPlan, FaultRule};
use pilut_sparse::SplitMix64;

/// The workloads swept per process count: the delta-protocol MIS rounds in
/// isolation (`mis` — sparse per-round message shapes, dead links going
/// silent mid-run), plan-construction traffic (`factor`), the steady-state
/// data plane (`trisolve`) and the full preconditioned iteration with its
/// reduction traffic (`gmres`).
const WORKLOADS: &[&str] = &["mis", "factor", "trisolve", "gmres"];

/// Human names for the benign schedule perturbation's rules, indexed by bit
/// in the subset mask used during minimization.
const RULE_NAMES: &[&str] = &["delay", "reorder", "stall"];

/// Builds the perturbation for `(seed, p)`, restricted to the rules whose
/// bits are set in `mask` (bit order matches [`RULE_NAMES`]). Rules are
/// regenerated from the seed rather than cloned, so any subset reproduces
/// the full plan's parameters exactly.
fn schedule_plan(seed: u64, p: usize, mask: u8) -> FaultPlan {
    let mut s = SplitMix64::new(seed ^ 0x0005_eed5_c4ed_u64.rotate_left(13));
    // Always draw in the same order so a subset keeps the full plan's
    // victim ranks and offsets.
    let reorder_victim = (s.next_u64() % p as u64) as usize;
    let stall_victim = (s.next_u64() % p as u64) as usize;
    let stall_after = 1 + s.next_u64() % 64;
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

/// Names the rules selected by `mask`, for failure reports.
fn mask_names(mask: u8) -> String {
    let names: Vec<&str> = RULE_NAMES
        .iter()
        .enumerate()
        .filter(|&(i, _)| mask & (1 << i) != 0)
        .map(|(_, n)| *n)
        .collect();
    names.join("+")
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
    let plan = schedule_plan(seed, p, mask);
    match catching(|| run_planned(work, p, Some(plan))) {
        Ok((fp, _)) => match clean.diff(&fp) {
            None => Trial::Identical,
            Some(why) => Trial::Diverged(why),
        },
        Err(msg) => Trial::Panicked(msg),
    }
}

/// Shrinks a failing trial to the smallest rule subset that still fails,
/// trying singletons before pairs before the full plan, and describes it.
fn minimize(work: &str, p: usize, seed: u64, clean: &Fingerprint) -> String {
    let mut masks: Vec<u8> = (1u8..8).collect();
    masks.sort_by_key(|m| m.count_ones());
    let failing = shrink(&masks, |mask| match run_trial(work, p, seed, mask, clean) {
        Trial::Identical => None,
        outcome => Some(outcome),
    });
    let (mask, minimal) = match failing {
        Some((mask, outcome)) => (mask, outcome),
        // The full plan failed once but no subset reproduces (a flaky
        // host-side interleaving): report the full plan.
        None => (7, run_trial(work, p, seed, 7, clean)),
    };
    let detail = match minimal {
        Trial::Identical => "failure did not reproduce during minimization".to_string(),
        Trial::Diverged(why) => format!(
            "fingerprint diverged ({why}); no race report — the detector missed a schedule \
             dependence"
        ),
        Trial::Panicked(msg) => format!("run died:\n{msg}"),
    };
    format!("rules=[{}]: {detail}", mask_names(mask))
}

/// Every workload at every process count: a clean run, then each seeded
/// schedule, which must reproduce its fingerprint.
fn sweep(report: &mut Report) {
    for p in [2, 4, 8] {
        for &work in WORKLOADS {
            let clean = match catching(|| run_planned(work, p, None)) {
                Ok((fp, _)) => fp,
                Err(msg) => {
                    report.record(
                        format!("work={work} p={p}"),
                        Err(format!("clean run died: {msg}")),
                    );
                    continue;
                }
            };
            for seed in 0..20 {
                let outcome = match run_trial(work, p, seed, 7, &clean) {
                    Trial::Identical => Ok("bitwise-identical"),
                    _ => Err(minimize(work, p, seed, &clean)),
                };
                report.record(format!("work={work} p={p} seed={seed}"), outcome);
            }
        }
    }
}

/// Entry point for `xtask schedcheck`. Returns `Err(message)` on any
/// argument or any determinism violation.
pub fn run(args: &[String]) -> Result<(), String> {
    crate::sweep::drive("schedcheck", args, sweep)
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
    fn sweep_is_bitwise_clean() {
        assert_eq!(
            crate::sweep::tally("schedcheck", sweep),
            Ok("schedcheck: 240 trial(s) — 240 bitwise-identical, 0 failure(s)".to_string())
        );
    }
}
